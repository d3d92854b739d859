"""Set partitions of the ground set: ordering, meet, and streaming enumeration.

A partition is a tuple of disjoint block bitmasks covering the ground set,
kept in canonical order (ascending minimum element), so equality and hashing
are syntactic. Enumeration walks restricted growth strings, which gives a
deterministic order without ever materialising the Bell-number-sized list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GroundSetMismatchError, SkaError
from .source_model import UserSet


@dataclass(frozen=True)
class Partition:
    users: UserSet
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks:
            raise SkaError("a partition needs at least one block")
        full = self.users.full_mask
        union = 0
        for b in blocks:
            if b <= 0 or b > full:
                raise SkaError(f"invalid block mask {b:#x}")
            if union & b:
                raise SkaError("partition blocks overlap")
            union |= b
        if union != full:
            raise SkaError("partition blocks do not cover the ground set")
        # Disjoint blocks have distinct least set bits; sorting by them puts
        # the blocks in ascending-minimum-element order.
        blocks = tuple(sorted(blocks, key=lambda m: m & -m))
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def of(cls, users: UserSet, blocks: Iterable) -> "Partition":
        """Build from blocks given as masks or label iterables."""
        return cls(users, tuple(users.as_mask(b) for b in blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def label_blocks(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.users.labels_of(b) for b in self.blocks)

    def blocks_crossed(self, subset) -> int:
        """Number of blocks the subset meets."""
        mask = self.users.as_mask(subset)
        return sum(1 for b in self.blocks if b & mask)

    def refines(self, other: "Partition") -> bool:
        """True when every block of this partition sits inside a block of
        the other (the finer-than partial order, non-strict)."""
        self._require_same_ground(other)
        return all(any(b & ~q == 0 for q in other.blocks) for b in self.blocks)

    def meet(self, other: "Partition") -> "Partition":
        """Coarsest common refinement: all nonempty pairwise intersections."""
        self._require_same_ground(other)
        inter = [b & q for b in self.blocks for q in other.blocks]
        return Partition(self.users, tuple(m for m in inter if m))

    def _require_same_ground(self, other: "Partition") -> None:
        if self.users != other.users:
            raise GroundSetMismatchError("partitions are over different ground sets")

    def to_json(self) -> list:
        return [list(block) for block in self.label_blocks()]

    def __str__(self) -> str:
        return " | ".join(",".join(block) for block in self.label_blocks())


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length ``n``, lexicographically.

    String ``a`` encodes the partition in which elements ``i`` and ``j``
    share a block iff ``a[i] == a[j]``; block numbers appear in order of
    first use, so decoding yields blocks sorted by minimum element.
    """
    if n < 1:
        raise SkaError("ground set must be nonempty")
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]); the ceiling for a[i]
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        m = b[j] if b[j] > a[j] + 1 else a[j] + 1
        for k in range(j + 1, n):
            a[k] = 0
            b[k] = m


def partition_from_rgs(users: UserSet, rgs: Sequence[int]) -> Partition:
    """Decode a restricted growth string into a canonical partition."""
    k = max(rgs) + 1
    blocks = [0] * k
    for i, c in enumerate(rgs):
        blocks[c] |= 1 << i
    return Partition(users, tuple(blocks))


def enumerate_partitions(users: UserSet, min_blocks: int = 1) -> Iterator[Partition]:
    """Yield every partition of the ground set with at least ``min_blocks``
    blocks, exactly once, in restricted-growth-string order."""
    n = users.n
    if not 1 <= min_blocks <= n:
        raise SkaError(f"min_blocks must lie in 1..{n}, got {min_blocks}")
    for rgs in restricted_growth_strings(n):
        if max(rgs) + 1 >= min_blocks:
            yield partition_from_rgs(users, rgs)
