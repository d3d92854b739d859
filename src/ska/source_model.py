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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import MissingEdgeError, SkaError, UnknownUserError
from .rationals import denominator_lcm, format_rational, parse_rational


@dataclass(frozen=True)
class UserSet:
    """Ordered ground set of user labels; subsets are bitmasks over it."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if len(labels) < 2:
            raise SkaError("a source needs at least two users")
        if len(set(labels)) != len(labels):
            raise SkaError("user labels must be distinct")
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
        """Canonical bitmask of a subset given as a mask or label iterable."""
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

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.labels)


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "Violation":
        return cls(
            kind=str(data["kind"]),
            subsets=tuple(tuple(str(x) for x in s) for s in data["subsets"]),
            message=str(data["message"]),
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :meth:`SourceModel.validate`; never raised, always returned."""

    ok: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json_dict() for v in self.violations]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ValidationReport":
        return cls(
            ok=bool(data["ok"]),
            violations=tuple(Violation.from_json_dict(v) for v in data["violations"]),
        )

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

    def entropy(self, subset) -> Fraction:
        """H(Z_B) for a subset of users (labels or bitmask)."""
        return self.entropy_mask(self.users.as_mask(subset))

    def increment(self, subset, epsilon) -> "SourceModel":
        """Source with extra common randomness of entropy ``epsilon`` on the
        subset: ``H'(B) = H(B) + epsilon`` whenever B meets the subset.

        An empty subset is accepted and is a no-op.
        """
        raise NotImplementedError

    def validate(self) -> ValidationReport:
        raise NotImplementedError

    def denominator_lcm(self) -> int:
        """LCM of the denominators of the defining weights/values."""
        raise NotImplementedError

    def is_integral(self) -> bool:
        """True when every entropy value is an integer."""
        return self.denominator_lcm() == 1

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


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
        exactly (0 when the source has no such edge)."""
        target = self.users.as_mask(subset)
        total = Fraction(0)
        for emask, edge in zip(self._edge_masks, self.edges):
            if emask == target:
                total += edge.weight
        return total

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

    def denominator_lcm(self) -> int:
        return denominator_lcm(e.weight for e in self.edges)

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
        nonempty subset must be present."""
        table: list = [None] * (1 << users.n)
        for subset, value in values.items():
            table[users.as_mask(subset)] = Fraction(value)
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

    def validate(self, max_violations: int = 100) -> ValidationReport:
        users = self.users
        n = users.n
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
                if self.values[bigger] < self.values[mask]:
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
                    if len(violations) >= max_violations:
                        return ValidationReport(False, tuple(violations))
        # Local and global submodularity are equivalent, so the all-pairs
        # scan runs only to report the violations in its own order.
        if self._locally_submodular():
            return ValidationReport(ok=not violations, violations=tuple(violations))
        for a in range(1 << n):
            for b in range(a + 1, 1 << n):
                if a & ~b == 0 or b & ~a == 0:
                    continue  # nested pairs satisfy the inequality identically
                lhs = self.values[a] + self.values[b]
                rhs = self.values[a | b] + self.values[a & b]
                if lhs < rhs:
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
                    if len(violations) >= max_violations:
                        return ValidationReport(False, tuple(violations))
        return ValidationReport(ok=not violations, violations=tuple(violations))

    def _locally_submodular(self) -> bool:
        """``H(A+i) + H(A+j) >= H(A+i+j) + H(A)`` for all i < j outside A:
        C(n, 2) * 2^(n-2) inequalities, checked on integers."""
        d = self.denominator_lcm()
        h = [v.numerator * (d // v.denominator) for v in self.values]
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
                        return False
        return True

    def denominator_lcm(self) -> int:
        return denominator_lcm(self.values)

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
        users = UserSet(tuple(str(u) for u in data["users"]))
        model = data["model"]
    except KeyError as exc:
        raise SkaError(f"source document is missing the {exc.args[0]!r} field") from None
    if model == "hypergraph":
        try:
            edges = tuple(
                WeightedEdge(
                    frozenset(str(m) for m in e["members"]),
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


def load_source(path) -> SourceModel:
    """Read and parse a JSON source document from ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SkaError(f"malformed JSON in {path}: {exc}") from None
    return source_from_json_dict(data)
