"""Command-line front end: load a source document, run analyses, report.

The click group is the one error boundary: every rejected input (a
malformed document, an invalid source, a bad flag value, a non-integer
SKA_ENUM_CAP, which overrides the ground-set cap for enumeration) raises
``SkaError`` or ``OSError`` and ends as one ``error: ...`` line and exit
code 2. Exit code 3 means a verification identity failed, which signals a
bug in the analysis chain, not bad input.
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import Callable, Iterable

import click

from . import __version__, analysis, structure
from .errors import SkaError
from .mmi import MmiResult, check_enumeration_cap, mmi
from .random_instances import random_hypergraphical, random_pin
from .rationals import format_rational, parse_rational
from .source_model import HypergraphicalSource, SourceModel, load_source

FORMAT_OPTION = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Report format.",
)


class _ErrorBoundary(click.Group):
    """Reports a rejected input as one ``error:`` line and exit code 2;
    ``SystemExit`` passes through, so ``verify`` can still exit 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (SkaError, OSError) as exc:
            if isinstance(exc, BrokenPipeError):
                raise  # a closed stdout is not bad input; click quiets it
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_ErrorBoundary)
@click.version_option(version=__version__)
def main() -> None:
    """Analyze secret key agreement source models: MMI, optimal partitions,
    growth/loss rates, critical and excess edges."""


def _enum_cap() -> int | None:
    raw = os.environ.get("SKA_ENUM_CAP")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SkaError(f"SKA_ENUM_CAP must be an integer, got {raw!r}") from None


def _load(path: str) -> tuple[SourceModel, MmiResult]:
    """The source at ``path`` and its MMI, which also validates it."""
    source = load_source(path)
    return source, mmi(source, cap=_enum_cap())


def _parse_subset(raw: str) -> tuple[str, ...]:
    """The labels of a comma-separated ``--set`` or ``--edge`` value; an
    empty list or a label given twice is rejected."""
    labels = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not labels:
        raise SkaError(f"empty subset {raw!r}")
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise SkaError(f"label {label!r} is repeated in subset {raw!r}")
    return labels


def _emit(
    fmt: str, payload: Callable[[], dict], text_lines: Callable[[], Iterable[str]]
) -> None:
    """Print the report in ``fmt``; only that format's builder is called."""
    if fmt == "json":
        click.echo(json.dumps(payload(), indent=2))
    else:
        for line in text_lines():
            click.echo(line)


@main.command("mmi")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPTION
def mmi_command(source_path: str, fmt: str) -> None:
    """MMI value, fundamental partition and optimality gap."""
    _, result = _load(source_path)
    _emit(
        fmt,
        result.to_json_dict,
        lambda: [
            f"gamma: {format_rational(result.gamma)}",
            f"fundamental: {result.fundamental}",
            f"gap: {'inf' if result.gap is None else format_rational(result.gap)}",
            f"optimal partitions: {len(result.optimal_partitions)}",
        ],
    )


@main.command("partitions")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPTION
def partitions_command(source_path: str, fmt: str) -> None:
    """All optimal partitions."""
    _, result = _load(source_path)

    def lines():
        yield f"gamma: {format_rational(result.gamma)}"
        for p in result.optimal_partitions:
            yield f"  {p}"
        yield f"fundamental: {result.fundamental}"

    _emit(fmt, result.to_json_dict, lines)


@main.command("critical")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPTION
def critical_command(source_path: str, fmt: str) -> None:
    """Critical edges (minimal subsets whose boost raises the MMI)."""
    source, result = _load(source_path)
    report = analysis.critical_edges(source, result)
    greedy = analysis.greedy_critical_edge(source, result)
    _emit(
        fmt,
        report.to_json_dict,
        lambda: [
            f"case: {report.case}",
            f"common size: {report.common_size}",
            "edges: " + " ".join("{" + ",".join(e) + "}" for e in report.edge_labels()),
            "greedy scan finds: {" + ",".join(greedy) + "}",
        ],
    )


@main.command("growth")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k_max", type=int, default=None, help="Largest subset size (default: all users).")
@click.option("--set", "subset", type=str, default=None, help="Rate of one subset, e.g. --set 1,4.")
@FORMAT_OPTION
def growth_command(source_path: str, k_max: int | None, subset: str | None, fmt: str) -> None:
    """Growth rates: the whole curve, or one subset with --set."""
    source, result = _load(source_path)
    if subset is not None:
        labels = _parse_subset(subset)
        rate = analysis.growth_rate(source, result, labels)
        _emit(
            fmt,
            lambda: {"subset": list(labels), "growth_rate": format_rational(rate)},
            lambda: [f"growth rate of {{{','.join(labels)}}}: {format_rational(rate)}"],
        )
        return
    curve = analysis.growth_curve(source, result, k_max)

    def lines():
        yield "k  rate  witness"
        for k, value in enumerate(curve.values):
            witness = ",".join(curve.witness_labels(k)) or "-"
            yield f"{k}  {format_rational(value)}  {witness}"

    _emit(fmt, curve.to_json_dict, lines)


@main.command("loss")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--edge", required=True, type=str, help="Edge member labels, e.g. --edge 1,2.")
@FORMAT_OPTION
def loss_command(source_path: str, edge: str, fmt: str) -> None:
    """Loss rate of an edge the source carries."""
    source, result = _load(source_path)
    labels = _parse_subset(edge)
    rate = analysis.loss_rate(source, result, labels)
    excess = analysis.is_excess(source, result, labels)
    _emit(
        fmt,
        lambda: {"edge": list(labels), "loss_rate": format_rational(rate), "excess": excess},
        lambda: [
            f"loss rate of {{{','.join(labels)}}}: {format_rational(rate)}",
            f"excess: {'yes' if excess else 'no'}",
        ],
    )


@main.command("excess")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--edge", required=True, type=str, help="Edge member labels, e.g. --edge 1,2.")
@FORMAT_OPTION
def excess_command(source_path: str, edge: str, fmt: str) -> None:
    """Whether an edge is excess (its marginal removal is free)."""
    source, result = _load(source_path)
    labels = _parse_subset(edge)
    excess = analysis.is_excess(source, result, labels)
    _emit(
        fmt,
        lambda: {"edge": list(labels), "excess": excess},
        lambda: [f"{{{','.join(labels)}}} is {'an excess' if excess else 'not an excess'} edge"],
    )


@main.command("tmax")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPTION
def tmax_command(source_path: str, fmt: str) -> None:
    """Maximal optimal-partition blocks and their dichotomy case."""
    source, result = _load(source_path)
    report = structure.t_max(source, result)

    def lines():
        yield f"case: {report.case}"
        yield "t_max: " + " ".join("{" + ",".join(s) + "}" for s in report.t_max_labels())
        if report.case == "T1":
            yield f"coarsest optimal partition: {report.coarsest_optimal}"
        else:
            yield "complements: " + " ".join(
                "{" + ",".join(s) + "}" for s in report.complement_labels()
            )

    _emit(fmt, report.to_json_dict, lines)


@main.command("unique")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPTION
def unique_command(source_path: str, fmt: str) -> None:
    """Whether the fundamental partition is the only optimal partition."""
    source, result = _load(source_path)
    unique = structure.is_unique_optimal(source, result)
    _emit(
        fmt,
        lambda: {"unique_optimal": unique},
        lambda: [f"unique optimal partition: {'yes' if unique else 'no'}"],
    )


@main.command("validate")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPTION
def validate_command(source_path: str, fmt: str) -> None:
    """Check the source's entropy function axioms."""
    report = load_source(source_path).validate()
    _emit(fmt, report.to_json_dict, lambda: [str(report)])
    if not report.ok:
        sys.exit(2)


@main.command("verify")
@click.argument("source_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "subset", type=str, default=None, help="Verify one subset increment only.")
@click.option("--edge", type=str, default=None, help="Verify one edge decrement only.")
@click.option("--epsilon", type=str, default=None, help="Override the perturbation step (rational).")
@FORMAT_OPTION
def verify_command(
    source_path: str, subset: str | None, edge: str | None, epsilon: str | None, fmt: str
) -> None:
    """Replay growth/loss rates against real perturbations.

    By default every nonempty subset is verified in increment mode and every
    distinct edge of a hypergraphical source in decrement mode. Exits 3 when
    any identity fails.
    """
    source, result = _load(source_path)
    try:
        eps = None if epsilon is None else parse_rational(epsilon)
    except ValueError as exc:
        raise SkaError(str(exc)) from None
    jobs: list[tuple[tuple[str, ...], str]] = []
    if subset is not None:
        jobs.append((_parse_subset(subset), "increment"))
    if edge is not None:
        jobs.append((_parse_subset(edge), "decrement"))
    if not jobs:
        users = source.users
        for mask in range(1, 1 << users.n):
            jobs.append((users.labels_of(mask), "increment"))
        if isinstance(source, HypergraphicalSource):
            for emask in dict.fromkeys(source.edge_masks):
                if source.has_edge(emask) > 0:
                    jobs.append((users.labels_of(emask), "decrement"))
    verdicts = [
        analysis.perturbation_verify(source, result, labels, mode, epsilon=eps)
        for labels, mode in jobs
    ]
    ok = all(v.ok for v in verdicts)
    _emit(
        fmt,
        lambda: {"verdicts": [v.to_json_dict() for v in verdicts], "ok": ok},
        lambda: (v.describe() for v in verdicts),
    )
    if not ok:
        sys.exit(3)


@main.command("conjecture")
@click.argument("source_path", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--batch", type=int, default=0, show_default=True, help="Extra random instances to tally.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for the random batch.")
@click.option("--users", "batch_users", type=int, default=5, show_default=True, help="Users per random instance.")
@FORMAT_OPTION
def conjecture_command(
    source_path: str | None, batch: int, seed: int, batch_users: int, fmt: str
) -> None:
    """Tally the growth-rate guess (|S|-1)/(ell-1) over critical edges.

    Runs on the given source and/or a seeded random batch (alternating
    unit-weight pairwise networks and weighted hypergraphs). Violations are
    reported, never treated as failures.
    """
    if source_path is None and batch <= 0:
        raise SkaError("give a source, --batch N, or both")
    if batch > 0:
        check_enumeration_cap(batch_users, _enum_cap())
    reports = []
    if source_path is not None:
        source, result = _load(source_path)
        reports.append((source_path, analysis.conjecture_check(source, result)))
    rng = random.Random(seed)
    for index in range(batch):
        if index % 2 == 0:
            source = random_pin(rng, batch_users)
        else:
            source = random_hypergraphical(rng, batch_users)
        result = mmi(source, cap=_enum_cap())
        reports.append((f"random[{index}]", analysis.conjecture_check(source, result)))
    holds = sum(r.counts[0] for _, r in reports)
    total = sum(r.counts[1] for _, r in reports)

    def payload():
        return {
            "instances": [
                {"name": name, **report.to_json_dict()} for name, report in reports
            ],
            "holds": holds,
            "total": total,
            "all_hold": holds == total,
        }

    def lines():
        for name, report in reports:
            h, t = report.counts
            yield f"{name}: {h}/{t} critical edges match the guess"
            for entry in report.entries:
                mark = "ok" if entry.holds else "VIOLATION"
                yield (
                    f"  {{{','.join(entry.edge)}}}: rate {format_rational(entry.rate)}"
                    f" vs predicted {format_rational(entry.predicted)} [{mark}]"
                )
        yield f"total: {holds}/{total}"

    _emit(fmt, payload, lines)


if __name__ == "__main__":
    main()
