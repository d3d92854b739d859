"""``perfbench/tracing.py`` patches names by ``vars(owner)[attr]``: deleting
one of them from ``ska`` (say the ``mmi`` import of ``ska.analysis``, which
the package never calls) breaks every traced benchmark run. This installs
the tracer as a traced run does, without changing anything in perfbench."""

import ska

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
