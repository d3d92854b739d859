"""``perfbench/tracing.py`` patches names by ``vars(owner)[attr]``: deleting
one of them from ``ska`` (say the ``mmi`` import of ``ska.analysis``, which
the package never calls) breaks every traced benchmark run. This installs
the tracer as a traced run does, without changing anything in perfbench."""

import ska
from ska import EntropyTable

from .conftest import REPO_ROOT


def test_perfbench_tracer_installs_and_traces_a_report(monkeypatch, tree4):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from ops import op_report
    from tracing import Tracer

    original = ska.mmi
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(0, "op.report", op_report, tree4)
    finally:
        tracer.uninstall()
    assert ska.mmi is original
    assert {
        "op.report",
        "source_model.validate",
        "mmi.mmi",
        "mmi.scaled_entropies",
        "kernel.scan",
        "structure.t_max",
        "structure.is_unique_optimal",
        "analysis.growth_curve",
    } <= {span[0] for span in tracer.spans}


def test_perfbench_tracer_traces_verify_and_mmi(monkeypatch, tree4):
    """The ``verify`` and ``large-n`` op kinds: replays and validation show
    as their own spans."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from ops import op_mmi, op_verify
    from tracing import Tracer

    table = EntropyTable(tree4.users, tuple(tree4.entropy_mask(m) for m in range(16)))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(0, "op.verify", op_verify, tree4)
        tracer.run_op(1, "op.mmi", op_mmi, table)
    finally:
        tracer.uninstall()
    names = {(span[0], span[4]) for span in tracer.spans}
    assert {
        ("analysis.perturbation_verify", 0),
        ("source_model.validate", 0),
        ("mmi.mmi", 0),
        ("source_model.validate", 1),
        ("mmi.mmi", 1),
    } <= names
