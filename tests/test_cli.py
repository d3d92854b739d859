import functools
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from click.testing import CliRunner

import ska.kernel as kernel
from ska import EntropyTable, HypergraphicalSource, Partition, analysis, mmi
from ska.analysis import perturbation_verify, zero_set_pass
from ska.cli import main
from ska.mmi import MmiResult
from ska.random_instances import random_hypergraphical

from .conftest import (
    CORPUS,
    NON_LIST_DOCUMENTS,
    REPO_ROOT,
    TABLE_WITH_A_SUBSET_TWICE,
    random_non_coverage_table,
)

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


def test_commands_run_without_the_partition_scan(runner, monkeypatch):
    """No command enters the Bell(n) scan: with it patched to raise, every
    corpus document runs ``mmi``, ``partitions`` and ``verify`` in both
    formats, and ``mmi()`` answers on an 11-user random hypergraph."""

    def no_scan(*args):
        raise AssertionError("the Bell(n) partition scan was entered")

    monkeypatch.setattr(kernel, "minimize_over_partitions", no_scan)
    for name in CORPUS_FILES:
        for command in ("mmi", "partitions", "verify"):
            for fmt in ("text", "json"):
                path = str(CORPUS / f"{name}.json")
                result = runner.invoke(main, [command, "--format", fmt, path])
                assert result.exit_code == 0, f"{command} {fmt} {name}: {result.output}"
    source = random_hypergraphical(random.Random(11), 11)
    assert mmi(source).fundamental.users.n == 11


def test_verify_reads_the_original_optimal_blocks_once(runner, tmp_path, monkeypatch):
    """A full ``ska verify`` builds ``optimal_blocks`` once, and the
    analysis layer's own zero-set passes run only on perturbed tables, at
    most once per replay (``mmi()`` runs its pass under ``ska.mmi``'s
    name)."""
    table = random_non_coverage_table(random.Random(5), 4)
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table.to_json_dict()))
    original = MmiResult.__dict__["optimal_blocks"]
    builds, passes, replays = [], [], []

    def counting_blocks(result):
        builds.append(result)
        return original.func(result)

    blocks = functools.cached_property(counting_blocks)
    blocks.__set_name__(MmiResult, "optimal_blocks")
    monkeypatch.setattr(MmiResult, "optimal_blocks", blocks)

    def counting_pass(ent, gamma, fundamental):
        passes.append(ent)
        return zero_set_pass(ent, gamma, fundamental)

    monkeypatch.setattr(analysis, "zero_set_pass", counting_pass)

    def counting_replay(source, *args, **kwargs):
        replays.append(source)
        return perturbation_verify(source, *args, **kwargs)

    monkeypatch.setattr(analysis, "perturbation_verify", counting_replay)
    for path in (CORPUS / "tree.json", table_path):
        for calls in (builds, passes, replays):
            calls.clear()
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 0, result.output
        assert len(builds) == 1
        assert 0 < len(passes) <= len(replays)
        base = list(replays[0].integer_table[0])
        assert all(list(ent) != base for ent in passes)


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


UNREADABLE_DOCUMENTS = {
    "latin-1": '{"users": ["\u00e9", "2"]}'.encode("latin-1"),
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
}


LONG = "9" * 5000
LONG_RATIONALS = {
    "weight-string": (
        [],
        '{"users": ["1", "2"], "model": "hypergraph",'
        f' "edges": [{{"members": ["1", "2"], "weight": "{LONG}"}}]}}',
    ),
    "table-value-string": (
        [],
        '{"users": ["1", "2"], "model": "table",'
        f' "entropy": {{"1": "1", "2": "1", "1,2": "{LONG}"}}}}',
    ),
    "weight-number": (
        [],
        '{"users": ["1", "2"], "model": "hypergraph",'
        f' "edges": [{{"members": ["1", "2"], "weight": {LONG}}}]}}',
    ),
    "epsilon": (
        ["--epsilon", LONG],
        '{"users": ["1", "2"], "model": "hypergraph",'
        ' "edges": [{"members": ["1", "2"], "weight": "1"}]}',
    ),
}


@pytest.mark.parametrize("name", LONG_RATIONALS)
def test_a_rational_past_the_digit_bound_exits_2_naming_the_bound(runner, tmp_path, name):
    options, document = LONG_RATIONALS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(document)
    result = runner.invoke(main, ["verify", *options, str(path)], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and "more than 4300 digits" in line
    assert len(line) < 300


# Sources whose answers pass the digit bound: gamma = 3w/2 of a triangle of
# 4,300-digit weights has 4,301 digits, and three 4,000-digit denominators
# give a gamma and a gap past 4,300 digits. Each maps to the command lines
# that print such an answer.
TRIANGLE = [["1", "2"], ["2", "3"], ["1", "3"]]
LONG_ANSWERS = {
    "long-weights": (
        [{"members": m, "weight": "9" * 4300} for m in TRIANGLE],
        [["mmi"], ["mmi", "--format", "json"], ["partitions"]],
    ),
    "long-denominators": (
        [{"members": m, "weight": f"1/{10**3999 + d}"} for m, d in zip(TRIANGLE, (7, 9, 21))],
        [["mmi"], ["mmi", "--format", "json"], ["partitions"], ["verify"]],
    ),
}


@pytest.mark.parametrize("name", LONG_ANSWERS)
def test_an_answer_past_the_digit_bound_exits_2_naming_the_bound(runner, tmp_path, name):
    edges, command_lines = LONG_ANSWERS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"users": ["1", "2", "3"], "model": "hypergraph", "edges": edges}))
    for args in command_lines:
        result = runner.invoke(main, [*args, str(path)], catch_exceptions=False)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and "more than 4300 digits" in line
        assert "sys.get_int_max_str_digits()" in line


@pytest.mark.parametrize("command", ["mmi", "validate"])
@pytest.mark.parametrize("name", UNREADABLE_DOCUMENTS)
def test_an_unreadable_document_exits_2_naming_its_path(runner, tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_DOCUMENTS[name])
    result = runner.invoke(main, [command, str(path)], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ") and str(path) in line


def test_an_invalid_table_is_validated_once(runner, tmp_path, monkeypatch):
    """``mmi`` is the only validator: the CLI does not check the source
    again before calling it."""
    bad = tmp_path / "nonmonotone.json"
    bad.write_text(
        json.dumps(
            {
                "users": ["1", "2", "3"],
                "model": "table",
                "entropy": {
                    "1": "1", "2": "1", "3": "1",
                    "1,2": "2", "1,3": "2", "2,3": "2", "1,2,3": "1",
                },
            }
        )
    )
    calls = []
    original = EntropyTable.validate

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(EntropyTable, "validate", counting)
    result = runner.invoke(main, ["mmi", str(bad)])
    assert result.exit_code == 2
    assert "error: not a valid source:\n" in result.output
    assert "monotonicity" in result.output
    assert len(calls) == 1


def test_an_over_cap_invalid_document_fails_at_the_cap(runner, tmp_path, monkeypatch):
    """Above the cap nothing is validated: the error names the cap."""
    path = tmp_path / "negative13.json"
    edges = [{"members": [str(i), str(i + 1)], "weight": "1"} for i in range(1, 13)]
    edges.append({"members": ["1", "13"], "weight": "-1"})
    path.write_text(json.dumps({
        "users": [str(i) for i in range(1, 14)],
        "model": "hypergraph",
        "edges": edges,
    }))

    def unreachable(self):
        raise AssertionError("an over-cap source must not be validated")

    for cls in (EntropyTable, HypergraphicalSource):
        monkeypatch.setattr(cls, "validate", unreachable)
    result = runner.invoke(main, ["mmi", str(path)])
    assert result.exit_code == 2
    assert "cap of 12" in result.output


def test_each_format_builds_only_its_own_output(runner, monkeypatch):
    """Text mode never builds the JSON payload, and JSON mode never formats
    the text lines."""
    path = str(CORPUS / "overlap3.json")
    expected = {
        (command, fmt): runner.invoke(main, [command, "--format", fmt, path]).stdout
        for command in ("mmi", "partitions")
        for fmt in ("text", "json")
    }

    def refuse(*args):
        raise AssertionError("built for the other format")

    monkeypatch.setattr(MmiResult, "to_json_dict", refuse)
    for command in ("mmi", "partitions"):
        result = runner.invoke(main, [command, path], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.stdout == expected[command, "text"]
    monkeypatch.undo()
    monkeypatch.setattr(Partition, "__str__", refuse)
    for command in ("mmi", "partitions"):
        result = runner.invoke(main, [command, "--format", "json", path], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.stdout == expected[command, "json"]


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


DOCUMENTS = {name: doc for name, (doc, _) in NON_LIST_DOCUMENTS.items()}
DOCUMENTS["table-with-a-subset-twice"] = TABLE_WITH_A_SUBSET_TWICE
DOCUMENTS["negative-edge"] = {
    "users": ["1", "2", "3"],
    "model": "hypergraph",
    "edges": [
        {"members": ["1", "2"], "weight": "1"},
        {"members": ["2", "3"], "weight": "-1/2"},
    ],
}

# One input per command that the library rejects. "@name" stands for a file
# holding the document of that name in DOCUMENTS.
REJECTED_INPUTS = {
    "mmi": (["@users-number"], {}),
    "partitions": (["@members-string"], {}),
    "critical": ([str(CORPUS / "tree.json")], {"SKA_ENUM_CAP": "chaos"}),
    "growth": (["--k", "99", str(CORPUS / "tree.json")], {}),
    "loss": (["--edge", "1,3", str(CORPUS / "base3.json")], {}),
    "excess": (["--edge", ",", str(CORPUS / "base3.json")], {}),
    "tmax": (["@table-with-a-subset-twice"], {}),
    "unique": (["@users-string"], {}),
    "validate": (["@users-number"], {}),
    "verify": (["--epsilon", "x", str(CORPUS / "tree.json")], {}),
    "conjecture": (["--batch", "2", "--users", "1"], {}),
}


def _argv(tmp_path, args):
    """``args`` with each "@name" replaced by a file holding DOCUMENTS[name]."""
    argv = []
    for arg in args:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(DOCUMENTS[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    return argv


def test_every_command_has_a_rejected_input():
    assert set(REJECTED_INPUTS) == set(main.commands)


@pytest.mark.parametrize("command", REJECTED_INPUTS)
def test_rejected_input_exits_2_with_one_error_line(runner, tmp_path, command):
    args, env = REJECTED_INPUTS[command]
    argv = [command, *_argv(tmp_path, args)]
    result = runner.invoke(main, argv, env=env, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert [line for line in result.output.splitlines() if line.startswith("error: ")]
    assert "Traceback" not in result.output


def _verdict(mode, subset, rate):
    return {
        "mode": mode,
        "subset": subset,
        "epsilon": "1/4",
        "formula_rate": rate,
        "measured_rate": rate,
        "identity_ok": True,
        "containment_ok": True,
        "granularity": {"epsilon": "1/6", "measured_rate": rate, "ok": True},
        "ok": True,
    }


# The payloads of the writers no sidecar covers, exactly as printed.
PINNED_PAYLOADS = {
    "verify": (
        ["verify", "--set", "1,4", "--edge", "2,3", "--format", "json", "corpus/tree.json"],
        0,
        {
            "verdicts": [
                _verdict("increment", ["1", "4"], "1/3"),
                _verdict("decrement", ["2", "3"], "1"),
            ],
            "ok": True,
        },
    ),
    "conjecture": (
        ["conjecture", "--format", "json", "corpus/tree.json"],
        0,
        {
            "instances": [
                {
                    "name": "corpus/tree.json",
                    "entries": [
                        {"edge": ["1", "4"], "rate": "1/3", "predicted": "1/3", "holds": True}
                    ],
                    "holds": 1,
                    "total": 1,
                    "all_hold": True,
                }
            ],
            "holds": 1,
            "total": 1,
            "all_hold": True,
        },
    ),
    "validate": (
        ["validate", "--format", "json", "corpus/tree.json"],
        0,
        {"ok": True, "violations": []},
    ),
    "validate-negative-edge": (
        ["validate", "--format", "json", "@negative-edge"],
        2,
        {
            "ok": False,
            "violations": [
                {
                    "kind": "negative-weight",
                    "subsets": [["2", "3"]],
                    "message": "edge {2,3} has negative weight -1/2",
                }
            ],
        },
    ),
}


@pytest.mark.parametrize("name", PINNED_PAYLOADS)
def test_json_payload_is_pinned(runner, tmp_path, monkeypatch, name):
    args, code, payload = PINNED_PAYLOADS[name]
    monkeypatch.chdir(REPO_ROOT)
    result = runner.invoke(main, _argv(tmp_path, args), catch_exceptions=False)
    assert result.exit_code == code
    assert result.stdout == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", NON_LIST_DOCUMENTS)
def test_mmi_rejects_users_or_members_that_are_not_lists(runner, tmp_path, name):
    doc, field = NON_LIST_DOCUMENTS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["mmi", str(path)])
    assert result.exit_code == 2
    assert f"error: the '{field}' field must be a JSON list" in result.output


BAD_LABEL_DOCUMENTS = {
    "1,2": {"users": ["1,2", "3"], "model": "hypergraph", "edges": []},
    "": {"users": ["", "1"], "model": "table", "entropy": {"1": "1", ",1": "1"}},
    " 1": {"users": [" 1", "2"], "model": "hypergraph", "edges": []},
}


@pytest.mark.parametrize("label", BAD_LABEL_DOCUMENTS)
def test_mmi_rejects_a_label_no_subset_key_can_spell(runner, tmp_path, label):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(BAD_LABEL_DOCUMENTS[label]))
    result = runner.invoke(main, ["mmi", str(path)], catch_exceptions=False)
    assert result.exit_code == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: user label {label!r} must be nonempty")


def test_version_from_a_checkout(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_closed_stdout_is_not_reported_as_bad_input(tmp_path):
    # One edge over all 8 users makes all Bell(8) = 4,140 partitions optimal:
    # more text than a pipe buffers, so writing continues after the close.
    labels = [str(i) for i in range(1, 9)]
    path = tmp_path / "one_edge8.json"
    path.write_text(json.dumps(
        {"users": labels, "model": "hypergraph", "edges": [{"members": labels, "weight": "1"}]}
    ))
    src = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, src))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ska.cli", "partitions", str(path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"gamma: 1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"error:" not in stderr


# ---------------------------------------------------------------- conjecture

def test_conjecture_single_source(runner):
    result = runner.invoke(main, ["conjecture", str(CORPUS / "tree.json")])
    assert result.exit_code == 0
    assert "1/1 critical edges match the guess" in result.output


@pytest.mark.parametrize("users, env", [("1000", {}), ("4", {"SKA_ENUM_CAP": "3"})])
def test_conjecture_checks_the_cap_before_generating(runner, monkeypatch, users, env):
    def generator(rng, n):
        raise AssertionError("a source was generated")

    monkeypatch.setattr("ska.cli.random_pin", generator)
    monkeypatch.setattr("ska.cli.random_hypergraphical", generator)
    result = runner.invoke(
        main, ["conjecture", "--batch", "1", "--users", users], env=env, catch_exceptions=False
    )
    assert result.exit_code == 2
    cap = env.get("SKA_ENUM_CAP", "12")
    assert result.stderr == (
        f"error: enumeration limit: {users} users exceeds the configured cap of {cap}\n"
    )


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


# ---------------------------------------------------------------- parity

def _one_edge_document(n):
    labels = [str(i + 1) for i in range(n)]
    return {"users": labels, "model": "hypergraph", "edges": [{"members": labels, "weight": "1"}]}


def _tree_document(seed, n):
    """Unit tree on users 1..n by uniform attachment."""
    rng = random.Random(seed)
    return {
        "users": [str(i + 1) for i in range(n)],
        "model": "hypergraph",
        "edges": [
            {"members": [str(rng.randint(1, i)), str(i + 1)], "weight": "1"} for i in range(1, n)
        ],
    }


# sha256 of stdout as the per-subset growth curve, the checked Partition
# constructor and one label list per block occurrence wrote it; the curve on
# sets of fundamental blocks, the unchecked construction in mmi() and the
# shared label lists must reproduce it byte for byte.
PARITY_DOCUMENTS = {
    "he9": _one_edge_document(9),
    "he8": _one_edge_document(8),
    "tree9": _tree_document(75, 9),
}
PARITY_RUNS = {
    ("he9", "growth", "text"): "ce0011ec0a4809625689de64491364cd8ea347915fbf2ea1af4e19472739ed9b",
    ("he9", "growth", "json"): "9cfc312d3db68c4b149e478394431cb01c027f3cba83444c892f0cc7d26f185a",
    ("he8", "partitions", "text"): "4cea63d91b385dc100ddf29a129d9ecd28c4522ae87c237eab6108a0a80faa36",
    ("he8", "partitions", "json"): "75268e386eb21da199309f55d24fec7918f30d319aa2fc64ca2172bfebb37429",
    ("he8", "mmi", "text"): "c6341a05223c9870676c64fd788b81c7e7e3b3a6b085cf5c75da90f096080154",
    ("he8", "mmi", "json"): "75268e386eb21da199309f55d24fec7918f30d319aa2fc64ca2172bfebb37429",
    ("tree9", "growth --k 3", "text"): "d85567ba21cf7c873aa1d4a61a106c06f435db95d35d12113f0d3078ad2e53e2",
    ("tree9", "growth --k 3", "json"): "dc419efee41c30d74a04551cdc9705e159ff3515d956ceaad1d01609388f22c3",
}


@pytest.mark.parametrize("document, command, fmt", PARITY_RUNS)
def test_all_optimal_stdout_is_pinned(runner, tmp_path, document, command, fmt):
    path = tmp_path / f"{document}.json"
    path.write_text(json.dumps(PARITY_DOCUMENTS[document]))
    argv = [*command.split(), "--format", fmt, str(path)]
    result = runner.invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == PARITY_RUNS[document, command, fmt]
