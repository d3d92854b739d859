"""The Bell(n) partition scan behind :func:`ska.mmi`.

Given integer-scaled entropies for every subset mask, scan every partition
of the ground set with at least two blocks and minimize

    (sum of block entropies - total entropy) / (block count - 1)

using exact integer cross-multiplication throughout. Partitions are walked as
restricted growth strings in lexicographic order; integers are Python's
arbitrary-precision ones, so no input overflows. This is the package's only
walk over partitions; the tests keep a separate one as its oracle.
"""

from __future__ import annotations

from typing import Sequence


def default_backend() -> str:
    """Name of the scan lane; ``perfbench`` records it with every run."""
    return "pure"


def available_backends() -> tuple[str, ...]:
    """Every scan lane there is: the pure-Python one."""
    return ("pure",)


def minimize_over_partitions(n: int, ent: Sequence[int]):
    """Return ``(best_num, best_den, minimizers, run_num, run_den, has_run)``.

    ``ent`` holds ``2**n`` integers, ``ent[mask]`` being the scaled entropy
    of subset ``mask``. ``(best_num, best_den)`` is the minimum objective as
    an unreduced integer pair, ``minimizers`` the block-mask tuples of all
    partitions attaining it, in scan order (blocks by ascending minimum
    element). ``(run_num, run_den)`` is the smallest objective strictly
    above the minimum; ``has_run`` is False when every partition is optimal.
    """
    if n < 2:
        raise ValueError("need at least two elements")
    if len(ent) != 1 << n:
        raise ValueError(f"entropy array must have {1 << n} entries")
    total = ent[-1]

    a = [0] * n
    b = [1] * n
    blocks = [0] * n
    best_num = 0
    best_den = 0  # 0 marks "unset"
    run_num = 0
    run_den = 0
    minimizers: list[tuple[int, ...]] = []

    # Advance-then-evaluate: the initial all-zero string (single block) is
    # skipped, every later string has at least two blocks.
    while True:
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            break
        a[j] += 1
        m = b[j] if b[j] > a[j] + 1 else a[j] + 1
        for k in range(j + 1, n):
            a[k] = 0
            b[k] = m

        k_blocks = m  # max(a) + 1 after the update
        for t in range(k_blocks):
            blocks[t] = 0
        for i in range(n):
            blocks[a[i]] |= 1 << i
        num = -total
        for t in range(k_blocks):
            num += ent[blocks[t]]
        den = k_blocks - 1

        if best_den == 0:
            best_num, best_den = num, den
            minimizers = [tuple(blocks[:k_blocks])]
            continue
        lhs = num * best_den
        rhs = best_num * den
        if lhs < rhs:
            run_num, run_den = best_num, best_den
            best_num, best_den = num, den
            minimizers = [tuple(blocks[:k_blocks])]
        elif lhs == rhs:
            minimizers.append(tuple(blocks[:k_blocks]))
        elif run_den == 0 or num * run_den < run_num * den:
            run_num, run_den = num, den

    return best_num, best_den, minimizers, run_num, run_den, run_den != 0
