#!/usr/bin/env python3
"""The ska benchmark: four workloads, an exact-output gate and a traced
per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload report --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for the exact composition):

* ``report``: the full report sequence on sources with a unique optimum;
* ``all-optimal``: the same sequence on sources with 127 to 4,139 optimal
  partitions, plus ``ska partitions`` on a source with 115,974;
* ``verify``: ``ska verify`` on random hypergraphs and PINs at n=7-8;
* ``large-n``: ``ska mmi`` on random hypergraphs at n=10-11 and on
  non-coverage entropy tables at n=10.

One run generates the workload's source documents from the seed, computes
(or reads from cache) their references by independent routes, and then
starts the measured child process (``child.py``) with only the documents.
With ``--trace 0`` the child runs whole untraced passes (as many as take
about ``--seconds`` at this commit, see ``NOMINAL_PASS_S``) and the run
reports the end-to-end metrics. With ``--trace 1`` the child alternates
untraced and traced passes, and the run reports the per-layer metrics, per
op of the traced passes, plus the tracing overhead. Both modes time ``import ska.cli`` plus parsing in
several fresh interpreters (``setup_s``, ``cli.import_s``).

Every op's output is checked against its reference; an op that raises or
disagrees counts as failed. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any op failed. The full record of the
run (metadata, per-family self times, every metric) goes to
``perfbench/out/``, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
# A run must end within 180 s; children are killed past this point.
DEADLINE_S = 170
# Rounded wall time of one pass of each workload at the commit that
# introduced the benchmark (2-vCPU Xeon VM, pure lane, in its faster
# periods). A run does ceil(seconds / this) whole passes, about --seconds
# there, and so the same work on every commit and every run: op counts, and
# with them the tail percentile, never depend on how fast a run happened to go.
NOMINAL_PASS_S = {"report": 3.0, "all-optimal": 10.0, "verify": 8.0, "large-n": 5.0}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    # Imports read bytecode from a cache inside the checkout, as an
    # installed package would, and never write under src/.
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"),
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(mode: str, job: dict, deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        fail(f"no time left for the {mode} child")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} child did not finish before the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least 10 ops
    beyond it; the maximum when there are 10 ops or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(trace: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per op of the traced passes."""
    by_name = trace["by_name"]
    counters = trace["counters"]

    def calls(*names):
        return sum(by_name.get(n, [0, 0.0, 0.0])[0] for n in names)

    def total(*names):
        return sum(by_name.get(n, [0, 0.0, 0.0])[1] for n in names)

    def own(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    def counter(name):
        return counters.get(name, 0)

    mnp_calls = calls("submodular.minimize_mnp")
    raw = {
        "kernel.scan_s": (total("kernel.scan"), "s/op"),
        "kernel.scan_calls": (calls("kernel.scan"), "count/op"),
        "kernel.partitions_scanned": (counter("kernel.partitions_scanned"), "count/op"),
        "mmi.scaled_entropies_s": (total("mmi.scaled_entropies"), "s/op"),
        "mmi.mmi_s": (total("mmi.mmi"), "s/op"),
        "mmi.calls": (calls("mmi.mmi"), "count/op"),
        "mmi.materialise_s": (own("mmi.mmi"), "s/op"),
        "mmi.optimal_partitions": (counter("mmi.optimal_partitions"), "count/op"),
        "mmi.serialise_s": (total("mmi.to_json_dict"), "s/op"),
        "structure.t_max_s": (total("structure.t_max"), "s/op"),
        "structure.unique_s": (total("structure.is_unique_optimal"), "s/op"),
        "submodular.mnp_calls": (mnp_calls, "count/op"),
        "submodular.mnp_s": (total("submodular.minimize_mnp"), "s/op"),
        "submodular.mnp_iterations": (counter("submodular.mnp_iterations"), "count/op"),
        "submodular.mnp_fallbacks": (counter("submodular.mnp_fallbacks"), "count/op"),
        "analysis.growth_curve_s": (total("analysis.growth_curve"), "s/op"),
        "analysis.critical_s": (total("analysis.critical_edges", "analysis.greedy_critical_edge"), "s/op"),
        "analysis.rates_s": (total("analysis.loss_rate", "analysis.is_excess"), "s/op"),
        "analysis.verify_s": (total("analysis.perturbation_verify"), "s/op"),
        "analysis.verify_replays": (calls("analysis.perturbation_verify"), "count/op"),
        "analysis.verify_mmi_calls": (counter("analysis.verify_mmi_calls"), "count/op"),
        "source_model.validate_s": (total("source_model.validate"), "s/op"),
        "source_model.validate_calls": (calls("source_model.validate"), "count/op"),
    }
    out = {name: (value / ops, unit) for name, (value, unit) in raw.items()}
    # With no solver calls there is nothing to certify; 0 says so without
    # inventing a share.
    out["submodular.mnp_certified_frac"] = (
        counter("submodular.mnp_certified") / mnp_calls if mnp_calls else 0.0,
        "frac",
    )
    return out


def self_time_table(trace: dict) -> dict[str, dict[str, float]]:
    """Share of traced op time per layer (self time), per source family
    and over all families."""
    tables = {}
    overall: dict[str, float] = {}
    for family, layers in sorted(trace["self_by_family"].items()):
        for layer, seconds in layers.items():
            overall[layer] = overall.get(layer, 0.0) + seconds
        tables[family] = layers
    tables["all"] = overall
    return {
        family: {layer: seconds / sum(layers.values()) for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])}
        for family, layers in tables.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wall_start = time.perf_counter()
    deadline = wall_start + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ska", "__init__.py")):
        fail(f"no ska sources under {os.path.join(ROOT, 'src')}; run from a checkout of the repository")
    os.makedirs(OUT, exist_ok=True)
    sys.pycache_prefix = os.path.join(OUT, "pycache")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import ska

    if not os.path.abspath(ska.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        fail(f"imported ska from {ska.__file__}, not from this checkout")

    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    cache = reference.Cache(os.path.join(OUT, "refs"))
    ref_start = time.perf_counter()

    def accept_unique(doc: dict) -> bool:
        ref = cache.get(doc, "full")
        return ref["unique"] and ref["ell"] == ref["n"]

    wl = workloads.build(args.workload, args.seed, accept_unique)
    refs = {index: cache.get(wl.docs[index], reference.level_for(kind)) for index, kind in wl.plan}
    ref_s = time.perf_counter() - ref_start

    traced = bool(args.trace)
    passes = max(1, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
    # A traced run spends its time on pairs of passes, one untraced, one traced.
    rounds = math.ceil(passes / 2) if traced else passes
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {
        "docs": wl.docs,
        "families": wl.families,
        "plan": wl.plan,
        "rounds": rounds,
        "spans_path": os.path.join(OUT, f"spans-{tag}.jsonl"),
    }
    measured = run_child("traced" if traced else "ops", job, deadline)
    setups = [run_child("setup", {"docs": wl.docs}, deadline) for _ in range(SETUP_PROBES)]

    # The gate: every distinct answer is checked once; every op whose
    # answer failed, or that raised, is a failed op.
    kinds = dict(wl.plan)
    verdicts = {}
    for key, ans in measured["answers"].items():
        index = int(key.split(":")[0])
        verdicts[key] = reference.check(kinds[index], ans, refs[index])
    records = measured["records"]
    failed = 0
    problems = []
    for index, kind, _, key, error, _ in records:
        if error is not None or verdicts[key]:
            failed += 1
            detail = error if error is not None else "; ".join(verdicts[key][:3])
            problems.append(f"{wl.families[index]} source {index} ({kind}): {detail}")
    attempted = len(records)

    untraced_times = [r[2] for r in records if not r[5]]
    tail_value, tail_pct = tail(untraced_times)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": ska.kernel.default_backend(),
        "available_backends": list(ska.kernel.available_backends()),
        **wl.summary(),
        "passes": measured["passes"],
        "reference_s": ref_s,
        "ops_measured": len(untraced_times),
        "source_op_s": [
            {
                "family": wl.families[index],
                "n": len(wl.docs[index]["users"]),
                "kind": kind,
                "optimal": refs[index]["mmi"]["optimal_count"],
                "median_s": statistics.median(r[2] for r in records if r[0] == index and r[1] == kind and not r[5]),
            }
            for index, kind in sorted(set(wl.plan))
        ],
        "op_tail_percentile": tail_pct,
        "fail_frac": failed / attempted,
    }
    if traced:
        traced_times = [r[2] for r in records if r[5]]
        metrics = layer_metrics(measured["trace"], len(traced_times))
        metrics["cli.import_s"] = (import_s, "s")
        metrics["trace.overhead_frac"] = (
            sum(traced_times) / len(traced_times) / (sum(untraced_times) / len(untraced_times)) - 1.0,
            "frac",
        )
        metadata["spans"] = measured["trace"]["spans"]
        metadata["spans_path"] = os.path.relpath(job["spans_path"], ROOT)
        metadata["self_time_share"] = self_time_table(measured["trace"])
        metadata["counters"] = measured["trace"]["counters"]
    else:
        correct_ops = attempted - failed
        metrics = {
            "ops_per_s": (correct_ops / sum(untraced_times), "1/s"),
            "op_p50_s": (statistics.median(untraced_times), "s"),
            "op_tail_s": (tail_value, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        }

    print(f"workload {args.workload}, seed {args.seed}, kernel lane {metadata['kernel_backend']}"
          f" (available: {', '.join(metadata['available_backends'])}), python {metadata['python']},"
          f" numpy {metadata['numpy']}, nproc {metadata['nproc']}")
    print(f"sources {metadata['sources']} (n {metadata['n_min']}..{metadata['n_max']};"
          f" {', '.join(metadata['families'])}), {metadata['ops_per_pass']} ops per pass,"
          f" passes {measured['passes']}, references {ref_s:.2f} s")
    print(f"ops attempted {attempted}, failed {failed}, fail_frac {metadata['fail_frac']:.4f}")
    for line in problems[:10]:
        print(f"  FAILED {line}")
    if not traced:
        print(f"op_tail_s is the p{tail_pct:.1f} of {len(untraced_times)} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if traced:
        for family, shares in metadata["self_time_share"].items():
            parts = ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items())
            print(f"self time share [{family}]: {parts}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    metadata["wall_s"] = time.perf_counter() - wall_start
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"metadata": metadata, "result": result, "problems": problems, "op_seconds": [[r[0], r[1], r[2], r[5]] for r in records]}, fh, indent=2)
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
