"""``perfbench/reference.py`` builds its gate's references with ``ska.i_p``,
``critical_edges_bruteforce``, ``Partition.refines``, ``entropy_mask`` and a
positional ``MmiResult``; no command calls them. This runs that route on
``src/`` as a benchmark run does, without changing anything in perfbench,
and checks it against the commands' answers."""

import json
import random

import pytest

import ska

from .conftest import CORPUS, REPO_ROOT, random_non_coverage_table


@pytest.fixture
def reference(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import reference

    return reference


@pytest.mark.parametrize("kind", ["hypergraph", "table"])
def test_the_full_reference_matches_the_commands_on_four_users(reference, kind):
    if kind == "hypergraph":
        doc = json.loads((CORPUS / "cycle4.json").read_text())
    else:
        doc = random_non_coverage_table(random.Random(7), 4).to_json_dict()
    ref = reference.compute(doc, "full")

    source = ska.source_from_json_dict(doc)
    result = ska.mmi(source)
    assert (ref["n"], ref["ell"]) == (4, result.ell)
    assert ref["mmi"]["gamma"] == str(result.gamma)
    assert ref["mmi"]["gap"] == ("inf" if result.gap is None else str(result.gap))
    assert ref["mmi"]["fundamental"] == result.fundamental.to_json()
    assert ref["mmi"]["optimal_count"] == len(result.optimal_partitions)
    expected_json = json.dumps(result.to_json_dict(), indent=2)
    assert ref["partitions_json_digest"] == reference._json_digest(expected_json)
    assert ref["tmax"] == ska.t_max(source, result).to_json_dict()
    assert ref["unique"] == ska.is_unique_optimal(source, result)
    assert ref["critical"] == list(ska.critical_edges(source, result).edges)
    assert ref["growth"] == [str(ska.growth_rate(source, result, m)) for m in range(16)]
    assert ref["curve"] == [str(v) for v in ska.growth_curve(source, result).values]
    if kind == "hypergraph":
        for mask, rate in ref["loss"].items():
            assert rate == str(ska.loss_rate(source, result, int(mask)))
            assert ref["excess"][mask] == ska.is_excess(source, result, int(mask))
        assert ref["loss"]
    else:
        assert "loss" not in ref
