"""Reference answers by routes independent of the timed ones, and the gate.

The timed ops get gamma and the optimal set from the partition scan and the
structure from the min-norm-point solver. The references instead take:

* gamma, the optimal set and the gap from an exact enumeration of every
  partition in this file (vectorised restricted growth strings, integer
  rates), confirmed with ``ska.i_p`` on the optimal partitions and the
  runner-up;
* ``t_max`` and uniqueness from the enumerated zero sets
  (``method="zerosets"``), on an MMI result built from that enumeration;
* critical edges from ``critical_edges_bruteforce``;
* growth rates of every subset, and loss rates and excess flags of every
  positive-weight edge, from their definitions over the enumerated optimal
  set (block-crossing counts by bit arithmetic, vectorised over partitions).

References are cached as JSON by the digest of the source document, so a
seed that was run before in this checkout pays nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

import ska
from ops import positive_edges
from ska.mmi import MmiResult

# Bump when the reference content changes, so stale cache entries are ignored.
VERSION = 2


def doc_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _json_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _partition_json(users, partition) -> list:
    return [[users.labels[i] for i in range(users.n) if block >> i & 1] for block in partition.blocks]


def restricted_growth_strings(n: int) -> np.ndarray:
    """Every restricted growth string of length n as a row (Bell(n) rows),
    built one position at a time: a row whose maximum is m gets each of the
    values 0..m+1 next."""
    rows = np.zeros((1, 1), dtype=np.int8)
    top = np.zeros(1, dtype=np.int8)
    for _ in range(1, n):
        counts = top.astype(np.int64) + 2
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        values = (np.arange(counts.sum()) - starts).astype(np.int8)
        rows = np.concatenate([np.repeat(rows, counts, axis=0), values[:, None]], axis=1)
        top = np.maximum(np.repeat(top, counts), values)
    return rows


def _enumerate_optimum(source):
    """gamma, the optimal partitions (sorted by blocks) and the gap.

    Every partition's rate is computed exactly here, in integers: entropies
    are read through ``entropy_mask`` and scaled by the LCM of their
    denominators, and rates are compared over the common denominator
    lcm(1..n-1). The optimal partitions and the runner-up are then
    re-evaluated with ``ska.i_p`` in exact fractions.
    """
    users = source.users
    n = users.n
    values = [source.entropy_mask(m) for m in range(1 << n)]
    scale = math.lcm(*(v.denominator for v in values))
    ent = np.array([int(v * scale) for v in values], dtype=np.int64)
    rgs = restricted_growth_strings(n)[1:]  # drop the one-block partition
    bit = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    blocks = np.stack([((rgs == b) * bit).sum(axis=1) for b in range(n)], axis=1)
    numer = ent[blocks].sum(axis=1) - ent[-1]
    # ent[0] == 0 covers the unused block slots of each row.
    count = rgs.max(axis=1).astype(np.int64) + 1
    common = math.lcm(*range(1, n))
    if int(np.abs(numer).max()) * common >= 1 << 62:
        raise RuntimeError("reference rates overflow int64")
    rate = numer * (common // (count - 1))
    best = int(rate.min())
    optimal_rows = np.flatnonzero(rate == best)
    worse = rate[rate != best]

    def partition(row):
        return ska.Partition(users, tuple(int(b) for b in blocks[row] if b))

    gamma = Fraction(best, common * scale)
    optimal = sorted((partition(row) for row in optimal_rows), key=lambda p: p.blocks)
    if any(ska.i_p(source, p) != gamma for p in optimal):
        raise RuntimeError("i_p disagrees with the enumerated optimum")
    gap = None
    if worse.size:
        gap = Fraction(int(worse.min()), common * scale) - gamma
        runner_up = int(np.flatnonzero(rate == worse.min())[0])
        if ska.i_p(source, partition(runner_up)) != gamma + gap:
            raise RuntimeError("i_p disagrees with the enumerated runner-up")
    most = max(p.n_blocks for p in optimal)
    finest = [p for p in optimal if p.n_blocks == most]
    if len(finest) != 1 or not all(finest[0].refines(p) for p in optimal):
        raise RuntimeError("reference optimal set has no unique finest member")
    return MmiResult(users, gamma, tuple(optimal), finest[0], gap)


def _rate_table(n: int, optimal) -> tuple[list[Fraction], list[Fraction]]:
    """min (growth) and max (loss) over optimal partitions of
    (blocks crossed - 1) / (blocks - 1), for every subset mask."""
    block_of = np.array(
        [[next(b for b, block in enumerate(p.blocks) if block >> i & 1) for i in range(n)] for p in optimal],
        dtype=np.int64,
    )
    sizes = np.array([p.n_blocks for p in optimal], dtype=np.int64)
    onehot = np.left_shift(np.int64(1), block_of)  # partitions x users
    # Integer rate numerators over a common denominator L.
    scale = math.lcm(*range(1, n))
    factor = scale // (sizes - 1)
    crossed_bits = np.zeros((1 << n, len(optimal)), dtype=np.int64)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        crossed_bits[mask] = crossed_bits[mask & (mask - 1)] | onehot[:, low]
    numer = (np.bitwise_count(crossed_bits).astype(np.int64) - 1) * factor
    growth = [Fraction(int(v), scale) for v in numer.min(axis=1)]
    loss = [Fraction(int(v), scale) for v in numer.max(axis=1)]
    growth[0] = loss[0] = Fraction(0)
    return growth, loss


def _mmi_part(users, result) -> dict:
    optimal_json = [_partition_json(users, p) for p in result.optimal_partitions]
    return {
        "gamma": str(result.gamma),
        "gap": "inf" if result.gap is None else str(result.gap),
        "fundamental": _partition_json(users, result.fundamental),
        "optimal_count": len(optimal_json),
        "optimal_digest": _json_digest(json.dumps(sorted(optimal_json))),
    }


def compute(doc: dict, level: str) -> dict:
    """Reference for one source. ``level`` is "mmi" (gamma and the optimal
    set only) or "full" (everything the report and verify ops output)."""
    source = ska.source_from_json_dict(doc)
    users = source.users
    n = users.n
    result = _enumerate_optimum(source)
    ref = {"level": level, "n": n, "ell": result.fundamental.n_blocks, "mmi": _mmi_part(users, result)}
    # The exact bytes of `ska partitions --format json`.
    ref["partitions_json_digest"] = _json_digest(
        json.dumps(
            {
                "gamma": str(result.gamma),
                "optimal_partitions": [_partition_json(users, p) for p in result.optimal_partitions],
                "fundamental": _partition_json(users, result.fundamental),
                "gap": ref["mmi"]["gap"],
            },
            indent=2,
        )
    )
    if level == "mmi":
        return ref
    tmax = ska.t_max(source, result, method="zerosets")
    ref["tmax"] = tmax.to_json_dict()
    ref["unique"] = ska.is_unique_optimal(source, result, method="zerosets")
    ref["critical"] = list(ska.critical_edges_bruteforce(source, result))
    growth, loss = _rate_table(n, result.optimal_partitions)
    ref["growth"] = [str(g) for g in growth]
    curve = [Fraction(0)]
    for k in range(1, n + 1):
        curve.append(max([curve[-1]] + [growth[m] for m in range(1, 1 << n) if bin(m).count("1") == k]))
    ref["curve"] = [str(v) for v in curve]
    fundamental = result.fundamental.blocks
    if isinstance(source, ska.HypergraphicalSource):
        masks = positive_edges(source)
        ref["loss"] = {str(m): str(loss[m]) for m in masks}
        ref["excess"] = {str(m): any(m & ~b == 0 for b in fundamental) for m in masks}
    return ref


class Cache:
    """Reference store keyed by document digest, one JSON file per source."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def get(self, doc: dict, level: str) -> dict:
        path = os.path.join(self.directory, f"{doc_digest(doc)}-{level}-v{VERSION}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            pass
        ref = compute(doc, level)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        os.replace(tmp, path)
        return ref


def level_for(kind: str) -> str:
    return "full" if kind in ("report", "verify") else "mmi"


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def check(kind: str, ans: dict, ref: dict) -> list[str]:
    """Mismatches between one op's answer and the reference (empty when the
    op is correct)."""
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got!r}, reference {want!r}")

    expect("validate ok", ans["valid"], True)
    if kind == "partitions":
        expect("partitions json digest", ans["json_digest"], ref["partitions_json_digest"])
        return bad
    for key, want in ref["mmi"].items():
        expect(f"mmi {key}", ans["mmi"][key], want)
    if kind == "mmi":
        return bad
    growth = [Fraction(g) for g in ref["growth"]]
    if kind == "verify":
        increments = [["increment", m] for m in range(1, 1 << ref["n"])]
        decrements = [["decrement", int(m)] for m in ref["loss"]]
        expect("replayed subsets", [r[:2] for r in ans["replays"]], increments + decrements)
        for mode, mask, rate, ok in ans["replays"]:
            want = str(growth[mask]) if mode == "increment" else ref["loss"][str(mask)]
            expect(f"{mode} {mask} formula rate", rate, want)
            expect(f"{mode} {mask} verdict ok", ok, True)
        return bad
    expect("t_max", ans["tmax"], ref["tmax"])
    expect("unique optimal", ans["unique"], ref["unique"])
    crit = ans["critical"]
    expect("critical edges", crit["edges"], ref["critical"])
    expect("critical common size", crit["common_size"], _popcount(ref["critical"][0]))
    expect("critical case", crit["case"], ref["tmax"]["case"])
    if ans["greedy"] not in ref["critical"]:
        bad.append(f"greedy edge {ans['greedy']} is not critical")
    expect("growth curve", ans["curve_values"], ref["curve"])
    for k, (value, witness) in enumerate(zip(ans["curve_values"], ans["curve_witnesses"])):
        if _popcount(witness) > k or str(growth[witness]) != value:
            bad.append(f"growth witness {witness} does not attain {value} at k={k}")
    expect("loss rates", ans["loss"], ref["loss"])
    expect("excess flags", ans["excess"], ref["excess"])
    return bad
