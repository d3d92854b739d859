"""Finite multiterminal source models as exact entropy oracles.

Two concrete models share one oracle interface. A hypergraphical source
carries weighted hyperedges of independent randomness observed by their
member users; its entropy function is the weighted coverage
``H(B) = sum of weights of edges meeting B``. An entropy table stores
``H(B)`` explicitly for every subset of the ground set, which also admits
sources that are not hypergraphical.

Subsets of users are bitmasks relative to the ordered ground set: bit ``i``
of a mask selects ``users.labels[i]``. All values are exact rationals, and
every model is immutable after construction.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import MissingEdgeError, SkaError, UnknownUserError
from .rationals import denominator_lcm, format_rational, parse_rational

# Above this many users, ``EntropyTable.validate`` lists the submodularity
# violations of the local pass (pairs A+i, A+j) instead of every violating
# pair: the all-pairs listing costs 4^n (1.1 s at n=10), the local one n^2 2^n.
ALL_PAIRS_LISTING_MAX_USERS = 8
MAX_LISTED_VIOLATIONS = 100


@dataclass(frozen=True)
class UserSet:
    """Ordered ground set of user labels; subsets are bitmasks over it.

    A label is nonempty, holds no comma and has no leading or trailing
    whitespace, so every subset can be written as comma-joined labels.
    """

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if len(labels) < 2:
            raise SkaError("a source needs at least two users")
        if len(set(labels)) != len(labels):
            raise SkaError("user labels must be distinct")
        for lab in labels:
            if not lab or "," in lab or lab != lab.strip():
                raise SkaError(
                    f"user label {lab!r} must be nonempty, without commas "
                    "or leading or trailing whitespace"
                )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownUserError(f"unknown user label {label!r}") from None

    def as_mask(self, subset) -> int:
        """Canonical bitmask of a subset given as a mask or label iterable.

        A bare string is rejected: its characters would read as labels."""
        if isinstance(subset, str):
            raise UnknownUserError(
                f"subset {subset!r} is a bare string; pass a tuple of labels, "
                f"such as ({subset!r},)"
            )
        if isinstance(subset, int):
            if not 0 <= subset <= self.full_mask:
                raise UnknownUserError(f"mask {subset:#x} is outside the ground set")
            return subset
        mask = 0
        for label in subset:
            mask |= 1 << self.index(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        mask = self.as_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def subset_key(self, mask: int) -> str:
        """Comma-joined labels in ground-set order (JSON table keys)."""
        return ",".join(self.labels_of(mask))


@dataclass(frozen=True)
class Violation:
    """One failed entropy-function axiom, with the witnessing subsets."""

    kind: str  # "negative-weight" | "normalization" | "monotonicity" | "submodularity"
    subsets: tuple[tuple[str, ...], ...]
    message: str

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "subsets": [list(s) for s in self.subsets],
            "message": self.message,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :meth:`SourceModel.validate`; never raised, always returned."""

    ok: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json_dict() for v in self.violations]}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        lines = [f"invalid ({len(self.violations)} violation(s))"]
        lines += [f"  {v.kind}: {v.message}" for v in self.violations]
        return "\n".join(lines)


class SourceModel:
    """Shared oracle interface of the concrete source models."""

    users: UserSet

    def entropy_mask(self, mask: int) -> Fraction:
        raise NotImplementedError

    def increment(self, subset, epsilon) -> "SourceModel":
        """Source with extra common randomness of entropy ``epsilon`` on the
        subset: ``H'(B) = H(B) + epsilon`` whenever B meets the subset.

        An empty subset is accepted and is a no-op.
        """
        raise NotImplementedError

    def validate(self) -> ValidationReport:
        raise NotImplementedError

    @property
    def integer_table(self) -> tuple[tuple[int, ...], int]:
        """``(ent, scale)`` with ``ent[mask] == scale * H(mask)``, ``scale``
        the LCM of the denominators of the defining weights or values; built
        once per source and never mutated."""
        raise NotImplementedError

    def is_integral(self) -> bool:
        """True when every entropy value is an integer."""
        return self.integer_table[1] == 1

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class WeightedEdge:
    """A hyperedge of independent common randomness with an entropy rate.

    Construction only enforces structure (nonempty member set); a negative
    weight is representable so that :meth:`SourceModel.validate` can report
    it instead of the constructor aborting.
    """

    members: frozenset[str]
    weight: Fraction

    def __post_init__(self) -> None:
        members = frozenset(str(x) for x in self.members)
        if not members:
            raise SkaError("edge member set must be nonempty")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weight", Fraction(self.weight))


@dataclass(frozen=True)
class HypergraphicalSource(SourceModel):
    """Source whose entropy is the weighted coverage function of its edges.

    Multiple edges over the same member set are allowed; they act as one
    aggregated edge wherever only the entropy function matters.
    """

    users: UserSet
    edges: tuple[WeightedEdge, ...]
    _edge_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        masks = tuple(self.users.as_mask(e.members) for e in edges)
        object.__setattr__(self, "_edge_masks", masks)

    @property
    def edge_masks(self) -> tuple:
        return self._edge_masks

    def entropy_mask(self, mask: int) -> Fraction:
        total = Fraction(0)
        for emask, edge in zip(self._edge_masks, self.edges):
            if emask & mask:
                total += edge.weight
        return total

    def has_edge(self, subset) -> Fraction:
        """Total weight available on edges whose member set equals the subset
        exactly (0 when the source has no such edge), read from one total
        per member mask that is built once per source."""
        return self._edge_totals.get(self.users.as_mask(subset), Fraction(0))

    @functools.cached_property
    def _edge_totals(self) -> dict[int, Fraction]:
        totals: dict[int, Fraction] = {}
        for emask, edge in zip(self._edge_masks, self.edges):
            totals[emask] = totals.get(emask, Fraction(0)) + edge.weight
        return totals

    def increment(self, subset, epsilon) -> "HypergraphicalSource":
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise SkaError("increment amount must be positive")
        mask = self.users.as_mask(subset)
        if mask == 0:
            return self
        new_edge = WeightedEdge(frozenset(self.users.labels_of(mask)), epsilon)
        return HypergraphicalSource(self.users, self.edges + (new_edge,))

    def decrement(self, subset, epsilon) -> "HypergraphicalSource":
        """Remove ``epsilon`` of common randomness from the edge on the given
        subset; requires the source to carry at least that much there."""
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise SkaError("decrement amount must be positive")
        target = self.users.as_mask(subset)
        available = self.has_edge(target)
        if epsilon > available:
            raise MissingEdgeError(
                "source does not have an edge of sufficient entropy on "
                f"{{{self.users.subset_key(target)}}}: requested {epsilon}, "
                f"available {available}"
            )
        remaining = epsilon
        kept: list[WeightedEdge] = []
        for emask, edge in zip(self._edge_masks, self.edges):
            if emask == target and remaining > 0:
                take = min(edge.weight, remaining)
                remaining -= take
                if edge.weight > take:
                    kept.append(WeightedEdge(edge.members, edge.weight - take))
            else:
                kept.append(edge)
        return HypergraphicalSource(self.users, tuple(kept))

    def validate(self) -> ValidationReport:
        # Coverage functions of nonnegative weights are normalized, monotone
        # and submodular by construction, so weight signs are the whole check.
        violations = []
        for edge in self.edges:
            if edge.weight < 0:
                members = tuple(self.users.labels_of(self.users.as_mask(edge.members)))
                violations.append(
                    Violation(
                        kind="negative-weight",
                        subsets=(members,),
                        message=f"edge {{{','.join(members)}}} has negative weight {edge.weight}",
                    )
                )
        return ValidationReport(ok=not violations, violations=tuple(violations))

    @functools.cached_property
    def integer_table(self) -> tuple[tuple[int, ...], int]:
        scale = denominator_lcm(e.weight for e in self.edges)
        weights = [int(e.weight * scale) for e in self.edges]
        ent = [0] * (1 << self.users.n)
        for mask in range(1, len(ent)):
            s = 0
            for emask, w in zip(self._edge_masks, weights):
                if emask & mask:
                    s += w
            ent[mask] = s
        return tuple(ent), scale

    def to_json_dict(self) -> dict:
        return {
            "users": list(self.users.labels),
            "model": "hypergraph",
            "edges": [
                {
                    "members": list(self.users.labels_of(mask)),
                    "weight": format_rational(edge.weight),
                }
                for mask, edge in zip(self._edge_masks, self.edges)
            ],
        }


@dataclass(frozen=True)
class EntropyTable(SourceModel):
    """Explicit entropy function, one exact value per subset mask."""

    users: UserSet
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(Fraction(v) for v in self.values)
        if len(values) != 1 << self.users.n:
            raise SkaError(
                f"entropy table needs {1 << self.users.n} values, got {len(values)}"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, users: UserSet, values: Mapping) -> "EntropyTable":
        """Build from a mapping of subsets (masks or label iterables) to
        values. The empty set may be omitted and defaults to 0; every
        nonempty subset must be present, once."""
        table: list = [None] * (1 << users.n)
        for subset, value in values.items():
            mask = users.as_mask(subset)
            if table[mask] is not None:
                raise SkaError(f"subset {{{users.subset_key(mask)}}} has more than one entropy value")
            table[mask] = Fraction(value)
        if table[0] is None:
            table[0] = Fraction(0)
        for mask, v in enumerate(table):
            if v is None:
                raise SkaError(f"missing entropy value for subset {{{users.subset_key(mask)}}}")
        return cls(users, tuple(table))

    def entropy_mask(self, mask: int) -> Fraction:
        return self.values[self.users.as_mask(mask)]

    def increment(self, subset, epsilon) -> "EntropyTable":
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise SkaError("increment amount must be positive")
        smask = self.users.as_mask(subset)
        if smask == 0:
            return self
        return EntropyTable(
            self.users,
            tuple(v + epsilon if mask & smask else v for mask, v in enumerate(self.values)),
        )

    def validate(self) -> ValidationReport:
        """Check the axioms, listing at most ``MAX_LISTED_VIOLATIONS``; see
        ``ALL_PAIRS_LISTING_MAX_USERS`` for the submodularity listing."""
        users = self.users
        n = users.n
        h, _ = self.integer_table
        violations: list[Violation] = []

        def subsets_of(*masks: int) -> tuple:
            return tuple(users.labels_of(m) for m in masks)

        if self.values[0] != 0:
            violations.append(
                Violation(
                    kind="normalization",
                    subsets=((),),
                    message=f"H(empty set) = {self.values[0]}, expected 0",
                )
            )
        for mask in range(1 << n):
            for i in range(n):
                if mask >> i & 1:
                    continue
                bigger = mask | 1 << i
                if h[bigger] < h[mask]:
                    violations.append(
                        Violation(
                            kind="monotonicity",
                            subsets=subsets_of(mask, bigger),
                            message=(
                                f"H({{{users.subset_key(bigger)}}}) = {self.values[bigger]}"
                                f" < H({{{users.subset_key(mask)}}}) = {self.values[mask]}"
                            ),
                        )
                    )
                    if len(violations) >= MAX_LISTED_VIOLATIONS:
                        return ValidationReport(False, tuple(violations))
        # Local and global submodularity are equivalent, so the local pass
        # decides; the all-pairs scan runs only to list the violations.
        if next(self._local_violations(), None) is None:
            return ValidationReport(ok=not violations, violations=tuple(violations))
        if n <= ALL_PAIRS_LISTING_MAX_USERS:
            pairs = self._all_pair_violations()
        else:
            pairs = self._local_violations()
        for a, b in pairs:
            lhs = self.values[a] + self.values[b]
            rhs = self.values[a | b] + self.values[a & b]
            violations.append(
                Violation(
                    kind="submodularity",
                    subsets=subsets_of(a, b),
                    message=(
                        f"H(A) + H(B) = {lhs} < H(A|B) + H(A&B) = {rhs} for "
                        f"A = {{{users.subset_key(a)}}}, B = {{{users.subset_key(b)}}}"
                    ),
                )
            )
            if len(violations) >= MAX_LISTED_VIOLATIONS:
                break
        return ValidationReport(False, tuple(violations))

    def _local_violations(self):
        """Pairs ``(A+i, A+j)``, i < j outside A, with
        ``H(A+i) + H(A+j) < H(A+i+j) + H(A)``: C(n, 2) * 2^(n-2)
        inequalities, checked on integers."""
        h, _ = self.integer_table
        n = self.users.n
        for a in range(1 << n):
            for i in range(n):
                ai = a | 1 << i
                if ai == a:
                    continue
                base = h[ai] - h[a]
                for j in range(i + 1, n):
                    aj = a | 1 << j
                    if aj != a and base < h[ai | aj] - h[aj]:
                        yield ai, aj

    def _all_pair_violations(self):
        """Every non-nested pair ``a < b`` with ``H(a) + H(b) < H(a|b) +
        H(a&b)``; nested pairs satisfy the inequality identically."""
        h, _ = self.integer_table
        for a in range(len(h)):
            for b in range(a + 1, len(h)):
                if a & ~b and b & ~a and h[a] + h[b] < h[a | b] + h[a & b]:
                    yield a, b

    @functools.cached_property
    def integer_table(self) -> tuple[tuple[int, ...], int]:
        d = denominator_lcm(self.values)
        return tuple(v.numerator * (d // v.denominator) for v in self.values), d

    def to_json_dict(self) -> dict:
        return {
            "users": list(self.users.labels),
            "model": "table",
            "entropy": {
                self.users.subset_key(mask): format_rational(self.values[mask])
                for mask in range(1, 1 << self.users.n)
            },
        }


def pin_source(graph: Iterable[tuple], users: UserSet | None = None) -> HypergraphicalSource:
    """Pairwise independent network: one 2-element edge per graph edge.

    ``graph`` holds ``(i, j, weight)`` triples (labels are coerced to
    strings). When ``users`` is omitted the ground set is the sorted set of
    endpoint labels (shortest-then-lexicographic, so numeric labels sort
    naturally); an empty graph then has no ground set and must pass ``users``
    explicitly.
    """
    triples = []
    for i, j, weight in graph:
        a, b = str(i), str(j)
        if a == b:
            raise SkaError(f"self-loop on {a!r} is not a valid pairwise edge")
        triples.append((a, b, Fraction(weight)))
    if users is None:
        seen = {lab for a, b, _ in triples for lab in (a, b)}
        if not seen:
            raise SkaError("empty graph: pass an explicit user set")
        users = UserSet(tuple(sorted(seen, key=lambda s: (len(s), s))))
    edges = tuple(WeightedEdge(frozenset((a, b)), w) for a, b, w in triples)
    return HypergraphicalSource(users, edges)


def source_from_json_dict(data: dict) -> SourceModel:
    """Parse the JSON source document format (see package README)."""
    if not isinstance(data, dict):
        raise SkaError("source document must be a JSON object")
    try:
        users = UserSet(tuple(str(u) for u in _json_list(data["users"], "users")))
        model = data["model"]
    except KeyError as exc:
        raise SkaError(f"source document is missing the {exc.args[0]!r} field") from None
    if model == "hypergraph":
        try:
            edges = tuple(
                WeightedEdge(
                    frozenset(str(m) for m in _json_list(e["members"], "members")),
                    parse_rational(e["weight"]),
                )
                for e in data["edges"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SkaError(f"malformed edge list: {exc}") from None
        return HypergraphicalSource(users, edges)
    if model == "table":
        try:
            raw = data["entropy"]
            values = {
                tuple(key.split(",")) if key else 0: parse_rational(v)
                for key, v in raw.items()
            }
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise SkaError(f"malformed entropy table: {exc}") from None
        return EntropyTable.from_values(users, values)
    raise SkaError(f"unknown model {model!r} (expected 'hypergraph' or 'table')")


def _json_list(value, name: str) -> list:
    """``value`` if it is a JSON list; a string would read as its characters."""
    if not isinstance(value, list):
        raise SkaError(f"the {name!r} field must be a JSON list, got {type(value).__name__}")
    return value


def _distinct_keys(pairs: list) -> dict:
    """One JSON object; ``json`` alone would keep the last of two equal keys."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise SkaError(f"key {key!r} appears twice in one JSON object")
        data[key] = value
    return data


def load_source(path) -> SourceModel:
    """Read and parse a JSON source document from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_distinct_keys)
        except json.JSONDecodeError as exc:
            raise SkaError(f"malformed JSON in {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SkaError(f"{path} is not UTF-8 text: {exc}") from None
        except ValueError:
            # The parser's one other ValueError: a JSON number longer
            # than Python converts from a string.
            raise SkaError(
                f"{path} holds a number of more than {sys.get_int_max_str_digits()} "
                "digits, the bound on integer strings"
            ) from None
        except RecursionError:
            raise SkaError(f"{path} nests JSON values too deeply to parse") from None
    return source_from_json_dict(data)
