import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ska import (
    EntropyTable,
    HypergraphicalSource,
    MissingEdgeError,
    SkaError,
    UnknownUserError,
    UserSet,
    WeightedEdge,
    load_source,
    pin_source,
    source_from_json_dict,
)
from ska import source_model
from ska.random_instances import random_hypergraphical
from ska.source_model import ValidationReport, Violation

from .conftest import (
    NON_LIST_DOCUMENTS,
    TABLE_WITH_A_SUBSET_TWICE,
    hyper,
    random_non_coverage_table,
    users,
)


# ---------------------------------------------------------------- entropy

def test_entropy_of_single_user_counts_incident_edges(base3):
    assert base3.entropy_mask(base3.users.as_mask(("3",))) == 1  # user 3 sees only the global bit
    assert base3.entropy_mask(base3.users.as_mask(("1",))) == 2


def test_entropy_of_empty_set_is_zero(base3, tree4):
    assert base3.entropy_mask(base3.users.as_mask(())) == 0
    assert tree4.entropy_mask(tree4.users.as_mask(0)) == 0


def test_entropy_tree_inner_pair(tree4):
    assert tree4.entropy_mask(tree4.users.as_mask(("2", "3"))) == 3  # edges 12, 23, 34 all touch {2,3}


def test_entropy_rejects_unknown_labels(base3):
    with pytest.raises(UnknownUserError):
        base3.entropy_mask(base3.users.as_mask(("1", "9")))


def test_user_set_requires_two_distinct_users():
    with pytest.raises(SkaError):
        UserSet(("1",))
    with pytest.raises(SkaError):
        UserSet(("1", "1"))


@pytest.mark.parametrize("label", ["", "1,2", " 1", "1 ", "1\t"])
def test_user_set_rejects_labels_no_subset_key_can_spell(label):
    with pytest.raises(SkaError, match=re.escape(repr(label))):
        UserSet((label, "3"))


# ---------------------------------------------------------------- validate

def test_nonnegative_hypergraph_is_valid(base3):
    assert base3.validate().ok


def test_negative_weight_reported_not_raised():
    source = hyper(3, (("1", "2"), -1))
    report = source.validate()
    assert not report.ok
    assert report.violations[0].kind == "negative-weight"
    assert "negative weight" in report.violations[0].message


def test_supermodular_table_reports_violating_pair():
    u = users(2)
    table = EntropyTable.from_values(
        u, {("1",): 1, ("2",): 1, ("1", "2"): 3}
    )
    report = table.validate()
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {"submodularity"}
    # the only failing pair is ({1}, {2})
    assert report.violations[0].subsets == (("1",), ("2",))


def test_table_normalization_and_monotonicity_violations():
    u = users(2)
    bad_empty = EntropyTable(u, (Fraction(1), Fraction(1), Fraction(1), Fraction(2)))
    assert any(v.kind == "normalization" for v in bad_empty.validate().violations)
    decreasing = EntropyTable.from_values(u, {("1",): 2, ("2",): 1, ("1", "2"): 1})
    assert any(v.kind == "monotonicity" for v in decreasing.validate().violations)


def all_pairs(n):
    for a in range(1 << n):
        for b in range(a + 1, 1 << n):
            if a & ~b and b & ~a:
                yield a, b


def local_pairs(n):
    """(A+i, A+j) for every A and every i < j outside A."""
    for a in range(1 << n):
        for i in range(n):
            for j in range(i + 1, n):
                if not (a >> i & 1 or a >> j & 1):
                    yield a | 1 << i, a | 1 << j


def validate_all_pairs(table, max_violations=100):
    """Test-side twin of ``EntropyTable.validate``: the same report from the
    definitions, with submodularity checked on every non-nested pair up to
    8 users and on the local pairs above."""
    u = table.users
    h = table.values
    found = []

    def labels(*masks):
        return tuple(u.labels_of(m) for m in masks)

    if h[0] != 0:
        found.append(Violation("normalization", ((),), f"H(empty set) = {h[0]}, expected 0"))
    for mask in range(1 << u.n):
        for i in range(u.n):
            bigger = mask | 1 << i
            if bigger != mask and h[bigger] < h[mask]:
                found.append(
                    Violation(
                        "monotonicity",
                        labels(mask, bigger),
                        f"H({{{u.subset_key(bigger)}}}) = {h[bigger]}"
                        f" < H({{{u.subset_key(mask)}}}) = {h[mask]}",
                    )
                )
                if len(found) >= max_violations:
                    return ValidationReport(False, tuple(found))
    for a, b in all_pairs(u.n) if u.n <= 8 else local_pairs(u.n):
        if h[a] + h[b] < h[a | b] + h[a & b]:
            found.append(
                Violation(
                    "submodularity",
                    labels(a, b),
                    f"H(A) + H(B) = {h[a] + h[b]} < H(A|B) + H(A&B) = "
                    f"{h[a | b] + h[a & b]} for A = {{{u.subset_key(a)}}}, "
                    f"B = {{{u.subset_key(b)}}}",
                )
            )
            if len(found) >= max_violations:
                return ValidationReport(False, tuple(found))
    return ValidationReport(not found, tuple(found))


def test_local_validation_reports_match_the_all_pairs_twin(monkeypatch):
    rng = random.Random(23)
    invalid = 0
    for trial in range(60):
        n = rng.randint(3, 6)
        if trial % 2:
            table = random_non_coverage_table(rng, n)
        else:
            cover = random_hypergraphical(rng, n)
            table = EntropyTable(
                cover.users, tuple(cover.entropy_mask(m) for m in range(1 << n))
            )
        assert table.validate() == validate_all_pairs(table)
        assert table.validate().ok
        values = list(table.values)
        mask = rng.randrange(1 << n) if trial % 5 else 0
        values[mask] += Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
        corrupted = EntropyTable(table.users, tuple(values))
        report = corrupted.validate()
        assert report == validate_all_pairs(corrupted)
        with monkeypatch.context() as m:
            m.setattr(source_model, "MAX_LISTED_VIOLATIONS", 3)
            assert corrupted.validate() == validate_all_pairs(corrupted, 3)
        invalid += not report.ok
    assert invalid >= 40


def test_validation_above_eight_users_lists_the_local_pairs(monkeypatch):
    """At n = 9 and 10 the listing walks the local pairs, and so stops at
    the n^2 2^n cost of the check itself."""
    rng = random.Random(31)
    for n, step in ((9, Fraction(1, 2)), (10, Fraction(-1, 3)), (10, Fraction(7))):
        table = random_non_coverage_table(rng, n)
        assert table.validate().ok
        values = list(table.values)
        values[rng.randrange(1, 1 << n)] += step
        corrupted = EntropyTable(table.users, tuple(values))
        report = corrupted.validate()
        assert not report.ok
        assert "submodularity" in {v.kind for v in report.violations}
        assert report == validate_all_pairs(corrupted)
        with monkeypatch.context() as m:
            m.setattr(source_model, "MAX_LISTED_VIOLATIONS", 2)
            assert corrupted.validate() == validate_all_pairs(corrupted, 2)


def moebius_weights(table):
    """Edge weights w(T) with ``H(A) = sum of w(T) over T meeting A``, by
    Moebius inversion of ``G(U) = H(V) - H(V - U)``; a table is a coverage
    function exactly when every weight is nonnegative."""
    n = table.users.n
    full = (1 << n) - 1
    w = [table.values[full] - table.values[full & ~u] for u in range(1 << n)]
    for i in range(n):
        for t in range(1 << n):
            if t >> i & 1:
                w[t] -= w[t ^ 1 << i]
    return w


def test_random_non_coverage_tables_are_valid_and_not_coverage():
    rng = random.Random(29)
    for _ in range(100):
        table = random_non_coverage_table(rng, rng.randint(3, 7))
        assert table.validate().ok
        assert min(moebius_weights(table)) < 0
    cover = random_hypergraphical(rng, 5)
    as_table = EntropyTable(cover.users, tuple(cover.entropy_mask(m) for m in range(32)))
    assert min(moebius_weights(as_table)) >= 0
    with pytest.raises(ValueError):
        random_non_coverage_table(rng, 2)


# ---------------------------------------------------------------- increment

def test_increment_matches_boosted_example(base3, base3_boosted):
    # adding a fresh bit on {2,3} changes exactly the subsets meeting {2,3}
    for mask in range(1 << 3):
        delta = base3_boosted.entropy_mask(mask) - base3.entropy_mask(mask)
        assert delta == (1 if mask & 0b110 else 0)


def test_increment_of_empty_set_is_noop(base3):
    assert base3.increment((), 1) is base3


def test_increment_rejects_nonpositive_epsilon(base3):
    with pytest.raises(SkaError):
        base3.increment(("1",), 0)
    with pytest.raises(SkaError):
        base3.increment(("1",), Fraction(-1, 2))


def test_increment_tree_fractional(tree4):
    boosted = tree4.increment(("1", "4"), Fraction(1, 2))
    assert boosted.entropy_mask(boosted.users.as_mask(("1",))) == Fraction(3, 2)
    assert boosted.entropy_mask(boosted.users.as_mask(("2", "3"))) == 3  # disjoint from {1,4}: unchanged


def test_table_increment_matches_hypergraph_increment(base3):
    table = EntropyTable(
        base3.users, tuple(base3.entropy_mask(m) for m in range(1 << 3))
    )
    inc_h = base3.increment(("2", "3"), Fraction(1, 3))
    inc_t = table.increment(("2", "3"), Fraction(1, 3))
    for mask in range(1 << 3):
        assert inc_t.entropy_mask(mask) == inc_h.entropy_mask(mask)


# ---------------------------------------------------------------- has_edge

def test_has_edge_exact_member_match(base3):
    assert base3.has_edge(("1", "2")) == 1
    assert base3.has_edge(("1", "3")) == 0


def test_has_edge_aggregates_parallel_edges():
    source = hyper(3, (("1", "2"), Fraction(1, 2)), (("1", "2"), Fraction(1, 3)))
    assert source.has_edge(("1", "2")) == Fraction(5, 6)


def _weight_by_scan(source, mask):
    total = Fraction(0)
    for emask, edge in zip(source.edge_masks, source.edges):
        if emask == mask:
            total += edge.weight
    return total


def test_has_edge_totals_match_a_scan_over_the_edges():
    """The per-mask totals, built once per source, equal a scan over the
    edges on every mask: repeated member sets, zero and negative weights,
    and the sources ``increment`` and ``decrement`` return, each with its
    own totals. Building them changes neither equality nor ``repr``."""
    rng = random.Random(40)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        u = users(n)
        member_sets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
        edges = tuple(
            WeightedEdge(
                frozenset(u.labels_of(rng.choice(member_sets))),
                Fraction(rng.randint(-3, 6), rng.randint(1, 4)),
            )
            for _ in range(rng.randint(1, 10))
        )
        source = HypergraphicalSource(u, edges)
        family = [
            source,
            source.increment(rng.choice(member_sets), Fraction(1, 3)),
            source.increment(rng.randrange(1, 1 << n), 1),
        ]
        for mask in member_sets:
            available = _weight_by_scan(source, mask)
            if available > 0:
                family += [source.decrement(mask, available / 2), source.decrement(mask, available)]
        for member in family:
            twin = HypergraphicalSource(member.users, member.edges)
            text = repr(member)
            for mask in range(1 << n):
                total = member.has_edge(mask)
                assert type(total) is Fraction and total == _weight_by_scan(member, mask)
                checked += 1
            assert repr(member) == text == repr(twin)
            assert member == twin and hash(member) == hash(twin)
    assert checked > 5000


# ---------------------------------------------------------------- decrement

def test_decrement_removes_pair_bit(base3):
    reduced = base3.decrement(("1", "2"), 1)
    only_global = hyper(3, (("1", "2", "3"), 1))
    for mask in range(1 << 3):
        assert reduced.entropy_mask(mask) == only_global.entropy_mask(mask)


def test_decrement_then_increment_restores_entropy(tree4):
    eps = Fraction(2, 3)
    roundtrip = tree4.decrement(("2", "3"), eps).increment(("2", "3"), eps)
    for mask in range(1 << 4):
        assert roundtrip.entropy_mask(mask) == tree4.entropy_mask(mask)


def test_decrement_beyond_available_weight_fails(base3):
    with pytest.raises(MissingEdgeError):
        base3.decrement(("1", "2"), 2)
    with pytest.raises(MissingEdgeError):
        base3.decrement(("1", "3"), Fraction(1, 2))


def test_decrement_spans_parallel_edges():
    source = hyper(3, (("1", "2"), Fraction(1, 2)), (("1", "2"), Fraction(1, 2)))
    reduced = source.decrement(("1", "2"), Fraction(3, 4))
    assert reduced.has_edge(("1", "2")) == Fraction(1, 4)
    assert reduced.entropy_mask(reduced.users.as_mask(("1",))) == Fraction(1, 4)


# ---------------------------------------------------------------- pin_source

def test_pin_path_is_tree_source(tree4):
    built = pin_source([(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    assert built == tree4
    assert built.entropy_mask(built.users.as_mask(("2",))) == 2


def test_pin_empty_graph_needs_explicit_users():
    with pytest.raises(SkaError):
        pin_source([])
    empty = pin_source([], users=users(3))
    assert all(empty.entropy_mask(m) == 0 for m in range(1 << 3))


def test_pin_rejects_self_loop():
    with pytest.raises(SkaError):
        pin_source([(1, 1, 1)])


def test_pin_cycle_entropy_is_degree():
    cycle = pin_source([(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    for label in "1234":
        assert cycle.entropy_mask(cycle.users.as_mask((label,))) == 2


# ---------------------------------------------------------------- properties

edge_masks = st.integers(min_value=1, max_value=(1 << 4) - 1)
weights = st.fractions(
    min_value=0, max_value=4, max_denominator=6
)


@st.composite
def small_sources(draw):
    n = draw(st.integers(3, 5))
    u = users(n)
    count = draw(st.integers(1, 5))
    edges = []
    for _ in range(count):
        mask = draw(st.integers(1, (1 << n) - 1))
        edges.append(WeightedEdge(frozenset(u.labels_of(mask)), draw(weights)))
    return HypergraphicalSource(u, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(small_sources())
def test_coverage_entropy_is_monotone_and_submodular(source):
    n = source.users.n
    values = [source.entropy_mask(m) for m in range(1 << n)]
    assert values[0] == 0
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1:
                assert values[mask | 1 << i] >= values[mask]
    for a in range(1 << n):
        for b in range(1 << n):
            assert values[a] + values[b] >= values[a | b] + values[a & b]


@settings(max_examples=40, deadline=None)
@given(small_sources(), st.integers(0, (1 << 3) - 1), weights.filter(lambda w: w > 0))
def test_increment_shifts_exactly_the_meeting_subsets(source, smask, eps):
    smask &= source.users.full_mask
    boosted = source.increment(smask, eps) if smask else source
    for mask in range(1 << source.users.n):
        expected = eps if (mask & smask) else 0
        assert boosted.entropy_mask(mask) - source.entropy_mask(mask) == expected


def test_integer_weights_give_integer_entropies(base3, tree4):
    for source in (base3, tree4):
        assert source.is_integral()
        assert all(
            source.entropy_mask(m).denominator == 1
            for m in range(1 << source.users.n)
        )
    fractional = hyper(3, (("1", "2"), Fraction(1, 2)))
    assert not fractional.is_integral()


# ---------------------------------------------------------------- JSON

def test_hypergraph_json_roundtrip(base3):
    again = source_from_json_dict(base3.to_json_dict())
    assert again == base3


def test_table_json_roundtrip():
    u = users(3)
    table = EntropyTable.from_values(
        u,
        {
            ("1",): Fraction(1, 2), ("2",): 1, ("3",): 1,
            ("1", "2"): Fraction(3, 2), ("1", "3"): Fraction(3, 2), ("2", "3"): 2,
            ("1", "2", "3"): 2,
        },
    )
    again = source_from_json_dict(table.to_json_dict())
    assert again == table


def test_table_json_requires_every_nonempty_subset():
    with pytest.raises(SkaError):
        source_from_json_dict(
            {"users": ["1", "2"], "model": "table", "entropy": {"1": "1"}}
        )


def test_json_parse_errors():
    with pytest.raises(SkaError):
        source_from_json_dict({"users": ["1", "2"], "model": "nonsense"})
    with pytest.raises(SkaError):
        source_from_json_dict({"model": "hypergraph", "edges": []})
    with pytest.raises(SkaError):
        source_from_json_dict(
            {"users": ["1", "2"], "model": "hypergraph", "edges": [{"members": ["1"]}]}
        )


@pytest.mark.parametrize("name", NON_LIST_DOCUMENTS)
def test_users_and_members_must_be_json_lists(name):
    doc, field = NON_LIST_DOCUMENTS[name]
    with pytest.raises(SkaError, match=f"'{field}' field must be a JSON list"):
        source_from_json_dict(doc)


def test_table_rejects_a_subset_given_twice():
    with pytest.raises(SkaError, match=r"subset \{1,2\} has more than one entropy value"):
        source_from_json_dict(TABLE_WITH_A_SUBSET_TWICE)
    with pytest.raises(SkaError, match=r"subset \{1\}"):
        EntropyTable.from_values(users(2), {("1",): 1, 1: 1, ("2",): 1, ("1", "2"): 2})


def test_load_source_rejects_a_key_given_twice(tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(
        '{"users": ["1", "2"], "model": "table", "entropy": {"1": "1", "2": "1", "1,2": "1", "1,2": "2"}}'
    )
    with pytest.raises(SkaError, match="key '1,2' appears twice"):
        load_source(path)


def test_load_source_reads_corpus_file():
    from .conftest import CORPUS

    source = load_source(CORPUS / "tree.json")
    assert isinstance(source, HypergraphicalSource)
    assert source.users.labels == ("1", "2", "3", "4")
