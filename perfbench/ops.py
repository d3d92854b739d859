"""The op kinds: one source taken through one command sequence.

Each op calls the program through the ``ska`` package namespace at call
time, so the traced run sees every call the op makes. ``answer`` turns the
raw outputs into a canonical JSON-ready dict outside the timed region;
``reference.check`` compares that dict with the reference.
"""

from __future__ import annotations

import hashlib
import json

import ska


def positive_edges(source) -> list[int]:
    """Distinct edge masks of positive total weight, in edge order, as
    ``ska verify`` selects them."""
    seen: list[int] = []
    for mask in source.edge_masks:
        if mask not in seen and source.has_edge(mask) > 0:
            seen.append(mask)
    return seen


def op_report(source):
    """Full report: the sequence behind ska mmi, tmax, unique, critical,
    growth, loss and excess, sharing one MMI result."""
    valid = source.validate()
    result = ska.mmi(source)
    tmax = ska.t_max(source, result)
    unique = ska.is_unique_optimal(source, result)
    critical = ska.critical_edges(source, result, tmax)
    greedy = ska.greedy_critical_edge(source, result)
    curve = ska.growth_curve(source, result)
    rates = {
        mask: (ska.loss_rate(source, result, mask), ska.is_excess(source, result, mask))
        for mask in positive_edges(source)
    }
    return valid, result, tmax, unique, critical, greedy, curve, rates


def op_partitions(source):
    """What ``ska partitions --format json`` does: validate, MMI, then every
    optimal partition serialised."""
    valid = source.validate()
    result = ska.mmi(source)
    return valid, json.dumps(result.to_json_dict(), indent=2)


def op_verify(source):
    """What ``ska verify`` does: validate, MMI, then replay every nonempty
    subset increment and every positive-weight edge decrement."""
    valid = source.validate()
    result = ska.mmi(source)
    verdicts = [
        ska.perturbation_verify(source, result, mask, "increment")
        for mask in range(1, 1 << source.users.n)
    ]
    verdicts += [
        ska.perturbation_verify(source, result, mask, "decrement")
        for mask in positive_edges(source)
    ]
    return valid, result, verdicts


def op_mmi(source):
    """What ``ska mmi`` does: validate, then MMI."""
    return source.validate(), ska.mmi(source)


OPS = {"report": op_report, "partitions": op_partitions, "verify": op_verify, "mmi": op_mmi}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def partitions_digest(partitions) -> str:
    """Digest of an optimal set, independent of the order it is listed in."""
    return digest(json.dumps(sorted(p.to_json() for p in partitions)))


def mmi_answer(result) -> dict:
    return {
        "gamma": str(result.gamma),
        "gap": "inf" if result.gap is None else str(result.gap),
        "fundamental": result.fundamental.to_json(),
        "optimal_count": len(result.optimal_partitions),
        "optimal_digest": partitions_digest(result.optimal_partitions),
    }


def mask_of(users, labels) -> int:
    return users.as_mask(tuple(labels))


def answer(kind: str, source, raw) -> dict:
    if kind == "report":
        valid, result, tmax, unique, critical, greedy, curve, rates = raw
        return {
            "valid": valid.ok,
            "mmi": mmi_answer(result),
            "tmax": tmax.to_json_dict(),
            "unique": unique,
            "critical": {
                "edges": list(critical.edges),
                "common_size": critical.common_size,
                "case": critical.case,
            },
            "greedy": mask_of(source.users, greedy),
            "curve_values": [str(v) for v in curve.values],
            "curve_witnesses": list(curve.witnesses),
            "loss": {str(m): str(loss) for m, (loss, _) in rates.items()},
            "excess": {str(m): excess for m, (_, excess) in rates.items()},
        }
    if kind == "partitions":
        valid, text = raw
        return {"valid": valid.ok, "json_digest": digest(text), "json_bytes": len(text)}
    if kind == "verify":
        valid, result, verdicts = raw
        return {
            "valid": valid.ok,
            "mmi": mmi_answer(result),
            "replays": [
                [v.mode, mask_of(source.users, v.subset), str(v.formula_rate), v.ok]
                for v in verdicts
            ],
        }
    if kind == "mmi":
        valid, result = raw
        return {"valid": valid.ok, "mmi": mmi_answer(result)}
    raise ValueError(f"unknown op kind {kind!r}")
