import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from ska.cli import main

from .conftest import CORPUS, REPO_ROOT

CORPUS_FILES = [
    "base3",
    "base3_boosted",
    "pair_only",
    "overlap3",
    "tree",
    "cycle4",
    "complete4",
]


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, command, path, *extra):
    result = runner.invoke(main, [command, *extra, "--format", "json", str(path)])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# ---------------------------------------------------------------- regression

@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_regression_against_sidecars(runner, name):
    path = CORPUS / f"{name}.json"
    expected = json.loads((CORPUS / f"{name}.expected.json").read_text())
    assert run_json(runner, "mmi", path) == expected["mmi"]
    assert run_json(runner, "partitions", path) == expected["mmi"]
    assert run_json(runner, "tmax", path) == expected["tmax"]
    assert run_json(runner, "critical", path) == expected["critical"]
    assert run_json(runner, "growth", path) == expected["growth"]
    assert run_json(runner, "unique", path) == {"unique_optimal": expected["unique"]}


def test_verify_passes_over_the_whole_corpus(runner):
    for name in CORPUS_FILES:
        result = runner.invoke(main, ["verify", str(CORPUS / f"{name}.json")])
        assert result.exit_code == 0, f"{name}: {result.output}"


# ---------------------------------------------------------------- text mode

def test_mmi_text_output(runner):
    result = runner.invoke(main, ["mmi", str(CORPUS / "tree.json")])
    assert result.exit_code == 0
    assert "gamma: 1" in result.output
    assert "fundamental: 1 | 2 | 3 | 4" in result.output
    assert "gap: 1/2" in result.output


def test_growth_text_table(runner):
    result = runner.invoke(main, ["growth", "--k", "4", str(CORPUS / "tree.json")])
    assert result.exit_code == 0
    rates = [line.split("  ")[1] for line in result.output.splitlines()[1:]]
    assert rates == ["0", "0", "1/3", "1/2", "1"]


def test_growth_single_subset(runner):
    result = runner.invoke(
        main, ["growth", "--set", "1,4", str(CORPUS / "tree.json")]
    )
    assert result.exit_code == 0
    assert "1/3" in result.output


def test_critical_text_includes_greedy_scan(runner):
    result = runner.invoke(main, ["critical", str(CORPUS / "tree.json")])
    assert result.exit_code == 0
    assert "edges: {1,4}" in result.output
    assert "greedy scan finds: {1,4}" in result.output


def test_loss_and_excess_commands(runner):
    result = runner.invoke(
        main, ["loss", "--edge", "1,2", str(CORPUS / "base3.json")]
    )
    assert result.exit_code == 0
    assert "loss rate of {1,2}: 0" in result.output
    assert "excess: yes" in result.output
    result = runner.invoke(
        main, ["excess", "--edge", "1,2,3", str(CORPUS / "base3.json")]
    )
    assert result.exit_code == 0
    assert "not an excess" in result.output


def test_validate_command(runner):
    result = runner.invoke(main, ["validate", str(CORPUS / "tree.json")])
    assert result.exit_code == 0
    assert "valid" in result.output


# ---------------------------------------------------------------- exit codes

def test_malformed_json_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["mmi", str(bad)])
    assert result.exit_code == 2
    assert "malformed JSON" in result.output


def test_invalid_source_exits_2(runner, tmp_path):
    bad = tmp_path / "negative.json"
    bad.write_text(
        json.dumps(
            {
                "users": ["1", "2"],
                "model": "hypergraph",
                "edges": [{"members": ["1", "2"], "weight": "-1"}],
            }
        )
    )
    result = runner.invoke(main, ["mmi", str(bad)])
    assert result.exit_code == 2
    assert "negative weight" in result.output
    validate = runner.invoke(main, ["validate", str(bad)])
    assert validate.exit_code == 2


def test_unknown_flag_exits_2(runner):
    result = runner.invoke(main, ["mmi", "--bogus", str(CORPUS / "tree.json")])
    assert result.exit_code == 2


def test_missing_required_edge_flag_exits_2(runner):
    result = runner.invoke(main, ["loss", str(CORPUS / "base3.json")])
    assert result.exit_code == 2


def test_absent_edge_exits_2(runner):
    result = runner.invoke(
        main, ["loss", "--edge", "1,3", str(CORPUS / "base3.json")]
    )
    assert result.exit_code == 2
    assert "does not have edge" in result.output


def test_failed_verification_identity_exits_3(runner):
    result = runner.invoke(
        main,
        ["verify", "--set", "1,4", "--epsilon", "10", str(CORPUS / "tree.json")],
    )
    assert result.exit_code == 3
    assert "FAILED" in result.output


def test_default_enum_cap_rejects_a_13_user_path(runner, tmp_path):
    path = tmp_path / "path13.json"
    path.write_text(json.dumps({
        "users": [str(i) for i in range(1, 14)],
        "model": "hypergraph",
        "edges": [{"members": [str(i), str(i + 1)], "weight": "1"} for i in range(1, 13)],
    }))
    result = runner.invoke(main, ["mmi", str(path)])
    assert result.exit_code == 2
    assert "cap of 12" in result.output


def test_enum_cap_env_override(runner, monkeypatch):
    monkeypatch.setenv("SKA_ENUM_CAP", "3")
    result = runner.invoke(main, ["mmi", str(CORPUS / "tree.json")])
    assert result.exit_code == 2
    assert "enumeration limit" in result.output
    monkeypatch.setenv("SKA_ENUM_CAP", "chaos")
    result = runner.invoke(main, ["mmi", str(CORPUS / "tree.json")])
    assert result.exit_code == 2


# ---------------------------------------------------------------- conjecture

def test_conjecture_single_source(runner):
    result = runner.invoke(main, ["conjecture", str(CORPUS / "tree.json")])
    assert result.exit_code == 0
    assert "1/1 critical edges match the guess" in result.output


def test_conjecture_batch_is_deterministic(runner):
    args = ["conjecture", "--batch", "6", "--seed", "42", "--users", "4", "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["total"] >= 6  # at least one critical edge per instance


def test_conjecture_requires_source_or_batch(runner):
    result = runner.invoke(main, ["conjecture"])
    assert result.exit_code == 2


def test_cli_import_leaves_numpy_unloaded():
    # numpy is needed only by the min-norm-point solver
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = "import sys, ska.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
