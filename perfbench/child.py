"""One workload's measured process (started by run.py, never by hand).

Reads a job as JSON on stdin and prints one JSON object on stdout. Modes:

* ``setup``: time ``import ska.cli`` and the parsing of every source
  document with ``ska.source_from_json_dict``, in this fresh interpreter;
* ``ops``: run the job's number of whole passes of the plan, untraced,
  timing each op;
* ``traced``: run the job's number of rounds of one untraced and one traced
  pass; the traced passes give the per-layer spans and counters.

Module-level imports are standard library only, so ``setup`` times the
program's import and nothing else.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def peak_rss_mb() -> float:
    """High-water RSS of this process image, from ``VmHWM``; ``ru_maxrss``
    would also count the parent's pages from before ``exec``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def setup(job: dict) -> dict:
    docs_text = json.dumps(job["docs"])
    start = time.perf_counter()
    import ska.cli  # noqa: F401  (the import is what is timed)
    import ska

    imported = time.perf_counter()
    sources = [ska.source_from_json_dict(doc) for doc in json.loads(docs_text)]
    done = time.perf_counter()
    if len(sources) != len(job["docs"]):
        raise RuntimeError("not every source document was parsed")
    return {"import_s": imported - start, "setup_s": done - start}


def run(job: dict, traced: bool) -> dict:
    import ska

    from ops import OPS, answer, digest
    from tracing import Tracer, summarise

    sources = [ska.source_from_json_dict(doc) for doc in job["docs"]]
    plan = [(index, kind) for index, kind in job["plan"]]
    tracer = Tracer() if traced else None

    # Untimed warm-up on the first (cheapest) step: first-call costs are
    # paid once per process, not per pass.
    OPS[plan[0][1]](sources[plan[0][0]])

    records = []  # [source index, kind, seconds, answer digest or None, error or None, traced]
    answers: dict[str, dict] = {}
    op_family = []
    passes = {"untraced": 0, "traced": 0}
    for _ in range(job["rounds"]):
        for with_trace in ((False, True) if traced else (False,)):
            if with_trace:
                tracer.install()
            for index, kind in plan:
                source = sources[index]
                op_id = len(records)
                error = None
                t0 = time.perf_counter()
                try:
                    if with_trace:
                        raw = tracer.run_op(op_id, f"op.{kind}", OPS[kind], source)
                    else:
                        raw = OPS[kind](source)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                key = None
                if error is None:
                    ans = answer(kind, source, raw)
                    key = f"{index}:{digest(json.dumps(ans, sort_keys=True))}"
                    answers.setdefault(key, ans)
                records.append([index, kind, t1 - t0, key, error, with_trace])
                op_family.append(job["families"][index])
            passes["traced" if with_trace else "untraced"] += 1
            if with_trace:
                tracer.uninstall()
    out = {
        "records": records,
        "answers": answers,
        "passes": passes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        tracer.write(job["spans_path"])
        out["trace"] = summarise(tracer, op_family)
    return out


def main() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    mode = sys.argv[1]
    job = json.load(sys.stdin)
    if mode == "setup":
        out = setup(job)
    elif mode in ("ops", "traced"):
        out = run(job, mode == "traced")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
