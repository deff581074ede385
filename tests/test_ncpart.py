"""Noncrossing partition combinatorics: enumeration, weights, complements, zeta."""

import pytest
from hypothesis import given, settings, strategies as st

from nckit.poly import Polynomial, delta, poly_product
from nckit.ncpart import (
    GroundMismatch,
    NoncrossingPartition,
    NotAPartition,
    NotBlockUnion,
    arcs,
    coarsest,
    enumerate_interval,
    enumerate_nc,
    enumerate_set_partitions,
    finest,
    iota,
    is_interval,
    is_noncrossing,
    kreweras,
    kreweras_inv,
    leq,
    restrict,
    smallest_interval_above,
    standardize,
    weight,
    zeta,
    zeta_arc_form,
    zeta_c,
    zeta_c_closed,
)

NC = NoncrossingPartition.parse
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def blocks_key(blocks):
    return frozenset(frozenset(b) for b in blocks)


# -- predicate and construction ---------------------------------------------

def test_is_noncrossing_examples():
    assert is_noncrossing([[1, 4, 6], [2, 3], [5]])
    assert not is_noncrossing([[1, 3], [2, 4]])
    assert is_noncrossing([[1], [2], [3]])
    assert is_noncrossing([[1, 2, 3, 4]])
    assert not is_noncrossing([[1, 3, 5], [2, 6], [4]])


def test_constructor_rejects_bad_input():
    with pytest.raises(NotAPartition):
        NoncrossingPartition([[1, 3], [2, 4]])
    with pytest.raises(NotAPartition):
        NoncrossingPartition([[1, 2], [2, 3]])
    with pytest.raises(NotAPartition):
        NoncrossingPartition([[1], []])
    with pytest.raises(NotAPartition):
        NoncrossingPartition([[1, 2]], ground=[1, 2, 3])


def test_parse_render_round_trip():
    for text in ["146|23|5", "1", "12|3|49A|58|6|7", "78AB|9"]:
        assert NC(text).render() == text
    assert NC("146|23|5").blocks == ((1, 4, 6), (2, 3), (5,))
    with pytest.raises(NotAPartition):
        NC("13|24")
    with pytest.raises(NotAPartition):
        NC("1||2")


def test_finest_coarsest():
    assert finest(3).blocks == ((1,), (2,), (3,))
    assert coarsest(3).blocks == ((1, 2, 3),)
    assert finest(3) != coarsest(3)
    assert hash(finest(3)) == hash(finest(3))


# -- enumeration -------------------------------------------------------------

def test_enumerate_nc_counts():
    for n in range(9):
        assert len(enumerate_nc(n)) == CATALAN[n], n


def test_enumerate_nc_matches_brute_force():
    for n in range(7):
        brute = {
            blocks_key(p) for p in enumerate_set_partitions(n) if is_noncrossing(p)
        }
        fast = {blocks_key(p.blocks) for p in enumerate_nc(n)}
        assert fast == brute, n


def test_enumerate_nc_is_sorted_and_valid():
    parts = enumerate_nc(6)
    assert len(set(parts)) == len(parts)
    assert list(parts) == sorted(parts, key=lambda p: p.blocks)
    for p in parts:
        NoncrossingPartition(p.blocks)  # re-validate through the checking path


def test_enumerate_interval_counts():
    assert len(enumerate_interval(1)) == 1
    for n in range(2, 9):
        assert len(enumerate_interval(n)) == 2 ** (n - 1)
    for p in enumerate_interval(6):
        assert is_interval(p)


# -- arcs and weights --------------------------------------------------------

def test_arcs_example():
    assert set(arcs(NC("146|23|5"))) == {(1, 4), (4, 6), (2, 3)}


def test_arc_count_plus_block_count():
    for p in enumerate_nc(6):
        assert len(arcs(p)) + p.block_count == 6


def test_weight_examples():
    assert weight(NC("146|23|5")) == Polynomial.parse("1*d1*d2")
    assert weight(coarsest(4)) == 1
    assert weight(NC("14|23")) == Polynomial.parse("1*d2")
    assert weight(finest(5)) == 1
    assert weight(NC("13|2")) == Polynomial.parse("1*d1")


def test_weight_uses_ground_positions():
    p = NoncrossingPartition([[2, 9], [5]])
    # ground {2,5,9}: the arc (2,9) covers one ground element, not six
    assert weight(p) == Polynomial.parse("1*d1")


# -- order, restriction, standardization ------------------------------------

def test_leq_basics():
    for p in enumerate_nc(5):
        assert leq(finest(5), p)
        assert leq(p, coarsest(5))
        assert leq(p, p)
    assert leq(NC("1|23"), NC("123"))
    assert not leq(NC("12|3"), NC("1|23"))
    with pytest.raises(GroundMismatch):
        leq(finest(3), finest(4))


def test_restrict_requires_block_union():
    p = NC("146|23|5")
    sub = restrict(p, [2, 3, 5])
    assert sub.blocks == ((2, 3), (5,))
    with pytest.raises(NotBlockUnion):
        restrict(p, [1, 2, 3])
    with pytest.raises(NotBlockUnion):
        restrict(p, [7])


def test_standardize():
    p = restrict(NC("146|23|5"), [1, 4, 6, 5])
    s = standardize(p)
    assert s.ground == (1, 2, 3, 4)
    assert s.blocks == ((1, 2, 4), (3,))
    assert weight(s) == weight(p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(enumerate_nc(6)), st.data())
def test_weight_invariant_under_standardization(q, data):
    finer = [p for p in enumerate_nc(6) if leq(p, q)]
    p = data.draw(st.sampled_from(finer))
    for b in q.blocks:
        sub = restrict(p, b)
        assert weight(standardize(sub)) == weight(sub)


# -- Kreweras complement -----------------------------------------------------

def test_kreweras_ten_element_example():
    p = NoncrossingPartition([[1, 3, 4], [2], [5, 9], [6, 7, 8], [10]])
    assert kreweras(p) == NC("12|3|49A|58|6|7")


def test_kreweras_small_values():
    assert kreweras(NC("12|3")) == NC("1|23")
    assert kreweras(NC("1|23")) == NC("13|2")
    assert kreweras(finest(4)) == coarsest(4)
    assert kreweras(coarsest(4)) == finest(4)


def test_kreweras_block_count_sum():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert p.block_count + kreweras(p).block_count == n + 1


def test_kreweras_arcs_come_from_block_extents():
    for p in enumerate_nc(6):
        expected = {(b[0] - 1, b[-1]) for b in p.blocks if b[0] > 1}
        assert set(arcs(kreweras(p))) == expected


def test_kreweras_inv_round_trips():
    for n in range(1, 7):
        for p in enumerate_nc(n):
            assert kreweras_inv(kreweras(p)) == p
            assert kreweras(kreweras_inv(p)) == p


def test_kreweras_inv_matches_table_inverse():
    for n in range(1, 6):
        table = {kreweras(p): p for p in enumerate_nc(n)}
        for q, p in table.items():
            assert kreweras_inv(q) == p


def test_kreweras_needs_standard_ground():
    p = NoncrossingPartition([[2, 9], [5]])
    with pytest.raises(GroundMismatch):
        kreweras(p)


# -- interval closure --------------------------------------------------------

def test_smallest_interval_above_examples():
    assert smallest_interval_above(NC("13|2")) == NC("123")
    assert smallest_interval_above(finest(4)) == finest(4)
    assert iota(finest(6)) == 6
    assert iota(coarsest(6)) == 1
    assert iota(NoncrossingPartition([[1, 3], [2], [4]])) == 2


def test_smallest_interval_above_general_ground():
    p = NoncrossingPartition([[3, 6, 7], [4, 5], [8, 11], [9, 10], [12, 13], [14, 15]])
    q = smallest_interval_above(p)
    assert q.blocks == ((3, 4, 5, 6, 7), (8, 9, 10, 11), (12, 13), (14, 15))
    assert iota(p) == 4


def test_smallest_interval_above_is_minimal():
    for p in enumerate_nc(6):
        q = smallest_interval_above(p)
        assert is_interval(q) and leq(p, q)
        for r in enumerate_interval(6):
            if leq(p, r):
                assert leq(q, r)


def test_interval_iff_fixed_by_closure():
    for p in enumerate_nc(6):
        assert is_interval(p) == (smallest_interval_above(p) == p)
        assert is_interval(p) == all(j - i == 1 for i, j in arcs(p))


# -- zeta forms --------------------------------------------------------------

def test_zeta_against_arc_form_exhaustive():
    for n in range(1, 6):
        for p in enumerate_nc(n):
            for q in enumerate_nc(n):
                assert zeta(p, q) == zeta_arc_form(p, q), (p, q)


def test_zeta_special_values():
    for p in enumerate_nc(5):
        assert zeta(p, coarsest(5)) == weight(p)
        assert zeta(finest(5), p) == 1
        assert zeta(p, p) == 1
    assert zeta(NC("12|3"), NC("13|2")) == 0


def test_zeta_c_against_closed_form_exhaustive():
    for n in range(1, 6):
        for a in enumerate_nc(n):
            for b in enumerate_nc(n):
                assert zeta_c(a, b) == zeta_c_closed(a, b), (a, b)


# -- block structure against the definitions ---------------------------------

def leq_by_containment(p, q):
    return all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)


def block_by_scan(p, x):
    return next(b for b in p.blocks if x in b)


def weight_by_positions(p):
    pos = {x: i for i, x in enumerate(p.ground)}
    gaps = (pos[j] - pos[i] - 1 for i, j in arcs(p))
    return poly_product(delta(g) for g in gaps if g)


def interval_closure_by_walk(p):
    owner = {x: b for b in p.blocks for x in b}
    pos = {x: i for i, x in enumerate(p.ground)}
    out, start = [], 0
    while start < p.size:
        stop = pos[owner[p.ground[start]][-1]]
        out.append(p.ground[start : stop + 1])
        start = stop + 1
    return NoncrossingPartition(out, p.ground)


def relabel(p, ground):
    """p, on 1..n, moved order-preservingly onto a sorted ground of n integers."""
    return NoncrossingPartition([[ground[x - 1] for x in b] for b in p.blocks], ground)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(enumerate_nc(7)),
    st.sampled_from(enumerate_nc(7)),
    st.sets(st.integers(-20, 40), min_size=7, max_size=7).map(sorted),
    st.data(),
)
def test_block_structure_matches_definitions(p, q, ground, data):
    cut = data.draw(st.sets(st.sampled_from(p.blocks), min_size=1))
    sub = restrict(p, [x for b in cut for x in b])
    assert sub.blocks == tuple(sorted(cut))
    for b in p.blocks:
        if len(b) > 1:
            with pytest.raises(NotBlockUnion):
                restrict(p, [x for x in p.ground if x != b[-1]])
    other = relabel(data.draw(st.sampled_from(enumerate_nc(sub.size))), sub.ground)
    moved_p, moved_q = relabel(p, ground), relabel(q, ground)
    for a, b in [(p, q), (q, p), (moved_p, moved_q), (sub, other), (other, sub)]:
        assert leq(a, b) == leq_by_containment(a, b), (a, b)
        assert zeta_arc_form(a, b) == zeta(a, b), (a, b)
    for a in (p, moved_p, sub, other):
        for x in a.ground:
            assert a.block_of(x) == block_by_scan(a, x)
        with pytest.raises(KeyError):
            a.block_of(a.ground[0] - 1)
        assert weight(a) == weight_by_positions(a)
        assert smallest_interval_above(a) == interval_closure_by_walk(a)
    for a, b in [(p, moved_q), (sub, q), (other, moved_p)]:
        if a.ground != b.ground:
            with pytest.raises(GroundMismatch):
                leq(a, b)


def test_zeta_c_support():
    for a in enumerate_nc(5):
        for b in enumerate_nc(5):
            if not leq(a, b):
                assert zeta_c(a, b) == 0
            assert zeta_c(a, coarsest(5)) != 0 or a.block_count == 0
