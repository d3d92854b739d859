"""Every function in ``src/ska`` is reached by an ``ska`` command, or is
allowlisted with its reason.

The trace runs all 11 commands in both formats, in-process, under
``sys.setprofile``: over the corpus, a valid non-coverage table and two
invalid tables (4 and 9 users), with ``--k``, ``--set``, ``--edge`` and
``--epsilon``, and ``conjecture --batch 4``. A function or method defined in
the package that no run enters fails the test unless ``ALLOWLIST`` names it.
Lambdas, comprehensions and class bodies are not counted; nested functions
are, and an entry covers the functions nested in it. Oracles, generators
and twins that only the tests call belong in ``tests/conftest.py``.
"""

import importlib
import inspect
import json
import pkgutil
import random
import sys

from click.testing import CliRunner

import ska
from ska import EntropyTable
from ska.cli import main

from .conftest import CORPUS, random_non_coverage_table

PERFBENCH = "perfbench looks it up; deleting it fails every benchmark run"

# Qualified names ("module.qualname"); "module.*" covers every function in
# that module.
ALLOWLIST = {
    "kernel.default_backend": PERFBENCH + " (run.py)",
    "kernel.available_backends": PERFBENCH + " (run.py)",
    "kernel.minimize_over_partitions": PERFBENCH + " (tracing.py)",
    "mmi.i_p": PERFBENCH + " (reference.py)",
    "analysis.critical_edges_bruteforce": PERFBENCH + " (reference.py)",
    "partitions.Partition.refines": PERFBENCH + " (reference.py)",
    "source_model.HypergraphicalSource.entropy_mask": PERFBENCH + " (reference.py)",
    "source_model.EntropyTable.entropy_mask": PERFBENCH + " (reference.py)",
    "partitions.Partition._require_same_ground": "the ground check of Partition.refines",
    "source_model.SourceModel.entropy_mask": "SourceModel interface",
    "source_model.SourceModel.increment": "SourceModel interface",
    "source_model.SourceModel.validate": "SourceModel interface",
    "source_model.SourceModel.integer_table": "SourceModel interface",
    "source_model.SourceModel.to_json_dict": "SourceModel interface",
    "source_model.HypergraphicalSource.to_json_dict": "writes the source document format",
    "source_model.EntropyTable.to_json_dict": "writes the source document format",
    "source_model.EntropyTable.increment": "ROADMAP item 14 extends increment",
    "source_model.HypergraphicalSource.increment": "ROADMAP item 14 extends increment",
    "source_model.HypergraphicalSource.decrement": "ROADMAP item 8 needs decrement",
    **{
        name: "min-norm-point stack, pinned by acceptance tests a07 and a09"
        for name in (
            "submodular.*",
            "structure.ZssFunction.__post_init__",
            "structure.ZssFunction.ell",
            "structure.ZssFunction.union_mask",
            "structure.ZssFunction.value",
            "structure.ZssFunction.as_oracle",
            "structure.build_g",
            "structure.g_rounding_unit",
            "structure.maximal_zero_set",
            "structure._mnp_value",
        )
    },
}


def _modules():
    return [importlib.import_module(f"ska.{m.name}") for m in pkgutil.iter_modules(ska.__path__)]


def defined_functions() -> dict:
    """``(file, first line, qualname)`` of every named function or method
    in the package, mapped to its qualified name."""
    found = {}
    for module in _modules():
        short = module.__name__.split(".")[-1]
        with open(module.__file__, encoding="utf-8") as fh:
            stack = [compile(fh.read(), module.__file__, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_NEWLOCALS:
                continue  # lambda, comprehension, module or class body
            key = (code.co_filename, code.co_firstlineno, code.co_qualname)
            found[key] = f"{short}.{code.co_qualname}"
    return found


def _documents(tmp_path) -> tuple[list, list]:
    """Valid documents, each with an edge or pair of its users, and invalid
    ones; every command stops an invalid document at the same validation."""
    valid = []
    for path in sorted(CORPUS.glob("*.json")):
        if path.name.endswith(".expected.json"):
            continue
        edge = json.loads(path.read_text())["edges"][0]["members"]
        valid.append((str(path), ",".join(edge)))
    rng = random.Random(3)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(random_non_coverage_table(rng, 4).to_json_dict()))
    valid.append((str(path), "1,2"))
    invalid = []
    for n in (4, 9):
        # Lists every violating pair at 4 users, the local ones at 9.
        table = random_non_coverage_table(rng, n)
        values = list(table.values)
        values[-1] += 100  # H(V) far above the rest: monotone, not submodular
        path = tmp_path / f"invalid{n}.json"
        path.write_text(json.dumps(EntropyTable(table.users, tuple(values)).to_json_dict()))
        invalid.append(str(path))
    return valid, invalid


def command_lines(tmp_path) -> list:
    valid, invalid = _documents(tmp_path)
    lines = [["conjecture", "--batch", "4"]]
    for path, edge in valid:
        lines += [
            ["mmi", path],
            ["partitions", path],
            ["critical", path],
            ["growth", path],
            ["growth", "--k", "2", path],
            ["growth", "--set", "1,2", path],
            ["loss", "--edge", edge, path],
            ["excess", "--edge", edge, path],
            ["tmax", path],
            ["unique", path],
            ["validate", path],
            ["verify", path],
            ["verify", "--set", "1,2", "--edge", edge, "--epsilon", "1/64", path],
            ["conjecture", path],
        ]
    for path in invalid:
        lines += [["mmi", path], ["validate", path]]
    return [argv + fmt for argv in lines for fmt in ([], ["--format", "json"])]


def trace(argvs) -> set:
    """Code objects entered while the CLI runs every command line."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runner = CliRunner()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            runner.invoke(main, argv)
    finally:
        sys.setprofile(previous)
    return {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in entered}


def _allowed(name: str, entry: str) -> bool:
    if entry.endswith(".*"):
        return name.startswith(entry[:-1])
    return name == entry or name.startswith(entry + ".<locals>.")


def test_every_function_in_the_package_is_reached_or_allowlisted(tmp_path):
    functions = defined_functions()
    entered = trace(command_lines(tmp_path))
    unreached = sorted(name for key, name in functions.items() if key not in entered)
    reached = sorted(name for key, name in functions.items() if key in entered)

    unexplained = [n for n in unreached if not any(_allowed(n, e) for e in ALLOWLIST)]
    assert not unexplained, (
        "no ska command reaches these; move them to tests/conftest.py or "
        f"allowlist them with a reason: {unexplained}"
    )
    stale = [e for e in ALLOWLIST if not any(_allowed(n, e) for n in functions.values())]
    assert not stale, f"allowlist entries that name no function: {stale}"
    now_reached = [e for e in ALLOWLIST if not e.endswith(".*") and e in reached]
    assert not now_reached, f"allowlist entries that a command now reaches: {now_reached}"
