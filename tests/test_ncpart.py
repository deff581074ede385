"""Noncrossing partition combinatorics: enumeration, weights, complements, zeta."""

from itertools import chain, combinations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from nckit import ncpart
from nckit.cumulants import _tree_column, psi
from nckit.poly import Polynomial, delta
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
from nckit.trees import enumerate_arrangements, enumerate_prime, eta, partition_of, phi

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
    with pytest.raises(NotAPartition):
        NoncrossingPartition([(1, "a")])  # checked before a sort compares "a" with 1
    for blocks, ground in (([1, 2], None), ([(1, 2)], 5), (5, None), ([(1,), 2], None)):
        with pytest.raises(NotAPartition, match="must be iterable"):  # not tuple(int)'s TypeError
            NoncrossingPartition(blocks, ground)


def test_constructor_rejects_bool_elements():
    # True == 1 and hashes alike, so it would pass for the element 1
    for blocks in ([(True, 2)], [(1,), (False,)], [(2, 3), (True,)]):
        with pytest.raises(NotAPartition):
            NoncrossingPartition(blocks)


def test_constructor_rejects_ground_elements_that_are_not_integers():
    # the first two compare equal to {1, 2}, so only the integer test stops
    # them; the last must be stopped before a sort compares "a" with 1
    for ground in ([True, 2], [1.0, 2.0], [1, "a"]):
        with pytest.raises(NotAPartition):
            NoncrossingPartition([(1, 2)], ground=ground)


def _accepts(blocks, ground=None) -> bool:
    try:
        NoncrossingPartition(blocks, ground)
    except NotAPartition as exc:
        assert str(exc) == "blocks cross"
        return False
    return True


def test_constructor_accepts_exactly_the_noncrossing_set_partitions():
    # the constructor reads arcs; is_noncrossing is the literal quadruple test
    for n in range(1, 9):
        for blocks in enumerate_set_partitions(n):
            assert _accepts(blocks) == is_noncrossing(blocks), blocks


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=12, unique=True),
    st.lists(st.integers(0, 3), min_size=12, max_size=12),
    st.booleans(),
)
def test_constructor_agrees_with_is_noncrossing_on_any_ground(ground, labels, pass_ground):
    # unsorted blocks over grounds with negatives and gaps
    blocks = {}
    for x, label in zip(ground, labels):
        blocks.setdefault(label, []).append(x)
    blocks = list(blocks.values())
    assert _accepts(blocks, ground if pass_ground else None) == is_noncrossing(blocks)


def test_parse_render_round_trip():
    for text in ["146|23|5", "1", "12|3|49A|58|6|7", "78AB|9"]:
        assert NC(text).render() == text
    assert NC("146|23|5").blocks == ((1, 4, 6), (2, 3), (5,))
    for bad in ["13|24", "1||2", "1!2", "12|3 4", "0", "10|2"]:
        with pytest.raises(NotAPartition):
            NC(bad)


def test_parse_rejects_non_text():
    for bad in (5, None, b"12|3", ["12", "3"]):
        with pytest.raises(TypeError, match="not partition text"):
            NoncrossingPartition.parse(bad)


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
    for n in range(9):
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


def test_is_interval_exactly_on_interval_partitions():
    for n in range(9):
        intervals = set(enumerate_interval(n))
        for p in enumerate_nc(n):
            assert is_interval(p) == (p in intervals)
    assert is_interval(NC("12|34"))
    assert not is_interval(NC("13|2"))


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


def test_standard_ground_is_read_off_its_ends():
    # a ground is sorted and duplicate-free, so its two ends tell 1..n apart
    # from a shifted run 2..n+1 and from a ground with a hole, (1, 2, 4)
    holed = NoncrossingPartition([[1, 2], [4]])
    for n in range(1, 6):
        shifted = NoncrossingPartition([range(2, n + 2)])
        for p in (shifted, holed):
            for check in (kreweras, kreweras_inv, lambda q: zeta_c_closed(q, q)):
                with pytest.raises(GroundMismatch):
                    check(p)
            with pytest.raises(GroundMismatch):
                zeta_c_closed(finest(p.size), p)
        assert kreweras(standardize(shifted)) == finest(n)
        assert kreweras_inv(finest(n)) == standardize(shifted)
    assert kreweras(standardize(holed)) == NoncrossingPartition([[1], [2, 3]])
    assert kreweras(finest(0)) == finest(0) == standardize(finest(0))


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


def is_unit_monomial_or_zero(f):
    return f.is_zero or [c for _, c in f.items()] == [1]


def zeta_by_product(p, q):
    # the blockwise form multiplied out through Polynomial.__mul__
    if not leq(p, q):
        return Polynomial.zero()
    return prod((weight(restrict(p, b)) for b in q.blocks), start=Polynomial.one())


def zeta_c_closed_by_product(a, b):
    # the closed form multiplied out through Polynomial.__mul__
    if not leq(a, b):
        return Polynomial.zero()
    return prod(
        (
            delta(iota(restrict(a, range(block[0], block[-1] + 1))) - 1)
            for block in b.blocks
            if 1 not in block and a.block_of(block[0]) != a.block_of(block[-1])
        ),
        start=Polynomial.one(),
    )


def test_zeta_forms_match_their_products():
    for n in range(1, 6):
        for p in enumerate_nc(n):
            for q in enumerate_nc(n):
                z, zc = zeta(p, q), zeta_c_closed(p, q)
                assert z == zeta_by_product(p, q), (p, q)
                assert zc == zeta_c_closed_by_product(p, q), (p, q)
                assert is_unit_monomial_or_zero(z), (p, q)
                assert is_unit_monomial_or_zero(zc), (p, q)


# -- block structure against the definitions ---------------------------------

def leq_by_containment(p, q):
    return all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)


def block_by_scan(p, x):
    return next(b for b in p.blocks if x in b)


def weight_by_positions(p):
    pos = {x: i for i, x in enumerate(p.ground)}
    gaps = (pos[j] - pos[i] - 1 for i, j in arcs(p))
    return prod((delta(g) for g in gaps if g), start=Polynomial.one())


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


def random_nc(rng, ground):
    """A noncrossing partition of the sorted list ``ground``: the block of its
    first element takes a random subset of the rest, and each run between two
    of its members, or after the last, is partitioned on its own."""
    if not ground:
        return []
    joined = [i for i in range(1, len(ground)) if rng.random() < 0.3]
    out = [[ground[0]] + [ground[i] for i in joined]]
    for lo, hi in zip([0, *joined], [*joined, len(ground)]):
        out += random_nc(rng, ground[lo + 1 : hi])
    return out


def random_coarsening(rng, p, tries):
    """p with up to ``tries`` random pairs of its blocks merged, each merge kept
    when it stays noncrossing."""
    blocks = [list(b) for b in p.blocks]
    for _ in range(min(tries, len(blocks) - 1)):  # one merge at most per try: two blocks left
        i, j = sorted(rng.sample(range(len(blocks)), 2))
        trial = blocks[:i] + blocks[i + 1 : j] + blocks[j + 1 :] + [blocks[i] + blocks[j]]
        if is_noncrossing(trial):
            blocks = trial
    return NoncrossingPartition(blocks, p.ground)


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 12), st.randoms(use_true_random=False), st.booleans())
def test_block_structure_matches_definitions_past_seven(n, rng, gapped):
    # the block relation spans n*n bits: several 30-bit digits of an int at these sizes
    start = rng.randrange(-3, 4)
    ground = sorted(rng.sample(range(-30, 60), n)) if gapped else list(range(start, start + n))
    p, q = (NoncrossingPartition(random_nc(rng, ground), ground) for _ in range(2))
    up, one = random_coarsening(rng, p, n), random_coarsening(rng, p, 1)
    assert leq(p, up) and leq(p, one)
    # one merge apart: p's relation differs from one's only in the rows of the merged blocks
    for a, b in [(p, q), (q, p), (p, up), (up, p), (one, p), (q, up), (one, up), (up, up)]:
        assert leq(a, b) == leq_by_containment(a, b), (a.blocks, b.blocks)
        assert zeta_arc_form(a, b) == zeta(a, b), (a.blocks, b.blocks)
    cut = rng.sample(p.blocks, rng.randrange(1, p.block_count + 1))
    sub = restrict(p, [x for b in cut for x in b])
    assert sub.blocks == tuple(sorted(cut))
    for b in p.blocks:
        if len(b) > 1:
            with pytest.raises(NotBlockUnion):
                restrict(p, [x for x in ground if x != b[-1]])
    for a in (p, q, up, one, sub):
        for x in a.ground:
            assert a.block_of(x) == block_by_scan(a, x)
        with pytest.raises(KeyError):
            a.block_of(a.ground[-1] + 1)
        assert weight(a) == weight_by_positions(a)
        assert smallest_interval_above(a) == interval_closure_by_walk(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_repr_spells_every_ground(n, rng):
    # render() spells the elements 1..35; on any other ground the repr shows the
    # blocks and the ground, as a constructor call that rebuilds the partition
    for span in (range(1, 36), range(-30, 61), range(1, 41)):
        ground = sorted(rng.sample(span, n))
        p = NoncrossingPartition(random_nc(rng, ground), ground)
        if ground[0] >= 1 and ground[-1] <= 35:
            assert repr(p) == f"NoncrossingPartition({p.render()})"
        else:
            assert repr(p) == f"NoncrossingPartition({p.blocks}, ground={p.ground})"
            assert eval(repr(p), {"NoncrossingPartition": NoncrossingPartition}) == p


def test_repr_examples():
    assert repr(NC("146|23|5")) == "NoncrossingPartition(146|23|5)"
    assert repr(NC("Z")) == "NoncrossingPartition(Z)"
    assert repr(NoncrossingPartition([[-3, 0], [5]])) == (
        "NoncrossingPartition(((-3, 0), (5,)), ground=(-3, 0, 5))"
    )
    assert repr(NoncrossingPartition([[36]])) == "NoncrossingPartition(((36,),), ground=(36,))"


def test_zeta_c_support():
    for a in enumerate_nc(5):
        for b in enumerate_nc(5):
            if not leq(a, b):
                assert zeta_c(a, b) == 0
            assert zeta_c(a, coarsest(5)) != 0 or a.block_count == 0


# -- the canonical-blocks contract -------------------------------------------

def internal_partitions():
    """Every partition the package builds on its trusted path, which stores
    the blocks as given: the producers must emit them canonically."""
    for n in range(8):
        yield from enumerate_nc(n)
        yield from enumerate_interval(n)
        for p in enumerate_nc(n):
            yield kreweras(p)
            yield kreweras_inv(p)
            yield smallest_interval_above(p)
    for n in range(1, 7):
        yield finest(n)
        yield coarsest(n)
        for p in enumerate_nc(n):
            for r in range(1, p.block_count + 1):
                for chosen in combinations(p.blocks, r):
                    sub = restrict(p, [x for b in chosen for x in b])
                    yield sub
                    yield standardize(sub)
        yield from map(eta, enumerate_prime(n))
        yield from (p for p, _ in _tree_column(n))
    for n in range(1, 6):
        yield from (partition_of(phi(t)) for t in enumerate_prime(n))
        yield from map(partition_of, enumerate_arrangements(n))
        for rho in enumerate_nc(n):
            if rho.block_count > 1:
                dual = kreweras_inv(rho)
                for a in enumerate_arrangements(n):
                    if leq(partition_of(a), dual):
                        yield partition_of(psi(a, rho))


def test_internal_producers_emit_canonical_blocks(monkeypatch):
    # kreweras_inv hands its rotation to kreweras, whose cache compares blocks
    rotations = []
    monkeypatch.setattr(ncpart, "kreweras", lambda p: rotations.append(p) or kreweras(p))
    for n in range(8):
        for p in enumerate_nc(n):
            kreweras_inv.__wrapped__(p)
    assert len(rotations) == sum(len(enumerate_nc(n)) for n in range(8))
    count = 0
    for p in chain(internal_partitions(), rotations):
        assert all(type(b) is tuple and list(b) == sorted(b) for b in p.blocks), p
        assert p.blocks == tuple(sorted(p.blocks)), p
        validated = NoncrossingPartition(p.blocks, p.ground)
        assert p == validated and hash(p) == hash(validated), p
        count += 1
    assert count > 5000  # the producers above did run
