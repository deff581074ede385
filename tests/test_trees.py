"""Tests for plane trees, their partition map, and noncrossing arrangements."""

import pytest
from hypothesis import given, settings, strategies as st

from nckit.ncpart import NoncrossingPartition, enumerate_nc, kreweras, weight
from nckit.poly import Polynomial
from nckit.trees import (
    LEAF,
    Arrangement,
    InvalidArrangement,
    NotPrime,
    cover_counts,
    enumerate_arrangements,
    enumerate_binary,
    enumerate_prime,
    enumerate_schroder,
    eta,
    internal_count,
    is_binary,
    is_prime,
    n_leaves,
    partition_of,
    phi,
    phi_inv,
    tree_from_json,
    tree_to_json,
    weight_arrangement,
    weight_tree,
)

CHERRY = (LEAF, LEAF)

# Running examples, small enough to check by hand.
T_WIDE = (CHERRY, (LEAF, LEAF, CHERRY, LEAF), LEAF)
T_CHAIN = ((((CHERRY, LEAF, LEAF, LEAF), LEAF, LEAF)), LEAF)
T_NEST = ((LEAF, CHERRY, LEAF), LEAF)

LITTLE_SCHRODER = [1, 3, 11, 45, 197, 903, 4279]
PRIME_COUNTS = [1, 2, 6, 22, 90, 394, 1806]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


# -- structure helpers -------------------------------------------------------

def test_leaf_and_vertex_counting():
    assert n_leaves(LEAF) == 1
    assert internal_count(LEAF) == 0
    assert n_leaves(CHERRY) == 2
    assert internal_count(CHERRY) == 1
    assert n_leaves(T_WIDE) == 8
    assert internal_count(T_WIDE) == 4
    assert n_leaves(T_CHAIN) == 8
    assert internal_count(T_CHAIN) == 4


def test_is_binary():
    assert is_binary(LEAF)
    assert is_binary(CHERRY)
    assert is_binary((CHERRY, CHERRY))
    assert not is_binary((LEAF, LEAF, LEAF))
    assert not is_binary((CHERRY, (LEAF, LEAF, LEAF)))


def test_is_prime():
    assert is_prime((LEAF, LEAF, LEAF))
    assert is_prime((CHERRY, LEAF))
    assert not is_prime((LEAF, CHERRY))
    assert not is_prime(LEAF)


def test_tree_json_round_trip():
    assert tree_to_json(T_WIDE) == [[0, 0], [0, 0, [0, 0], 0], 0]
    for t in (LEAF, CHERRY, T_WIDE, T_CHAIN, T_NEST):
        assert tree_from_json(tree_to_json(t)) == t


def test_tree_json_rejects_bad_encodings():
    with pytest.raises(ValueError):
        tree_from_json([0])          # unary vertex
    with pytest.raises(ValueError):
        tree_from_json(1)
    with pytest.raises(ValueError):
        tree_from_json("leaf")
    with pytest.raises(ValueError):
        tree_from_json([0, [0]])


# -- enumeration -------------------------------------------------------------

def test_schroder_counts():
    for n, expected in enumerate(LITTLE_SCHRODER, start=1):
        assert len(enumerate_schroder(n)) == expected


def test_prime_counts():
    for n, expected in enumerate(PRIME_COUNTS, start=1):
        assert len(enumerate_prime(n)) == expected


def test_binary_counts():
    for m, expected in enumerate(CATALAN, start=1):
        assert len(enumerate_binary(m)) == expected


def test_enumeration_is_canonical_and_well_formed():
    for n in range(1, 6):
        trees = enumerate_schroder(n)
        assert list(trees) == sorted(trees)
        assert len(set(trees)) == len(trees)
        for t in trees:
            assert n_leaves(t) == n + 1
    assert set(enumerate_prime(3)) == {t for t in enumerate_schroder(3) if is_prime(t)}


def test_enumeration_rejects_bad_sizes():
    with pytest.raises(ValueError):
        enumerate_schroder(0)
    with pytest.raises(ValueError):
        enumerate_binary(0)


def test_prime_trees_n2_explicit():
    assert set(enumerate_prime(2)) == {(LEAF, LEAF, LEAF), (CHERRY, LEAF)}


# -- the partition map and tree weight ---------------------------------------

def test_eta_small_examples():
    assert eta(CHERRY).render() == "1"
    assert eta((LEAF, LEAF, LEAF)).render() == "12"
    assert eta((CHERRY, LEAF)).render() == "1|2"
    assert eta(((CHERRY, LEAF), LEAF)).render() == "1|2|3"
    assert eta((LEAF, LEAF, LEAF, LEAF)).render() == "123"


def test_eta_worked_examples():
    assert eta(T_WIDE).render() == "1|27|346|5"
    assert eta(T_CHAIN).render() == "1|234|56|7"


def test_eta_requires_prime():
    with pytest.raises(NotPrime):
        eta((LEAF, CHERRY))
    with pytest.raises(NotPrime):
        eta(LEAF)


def test_eta_block_count_is_internal_count():
    for n in range(1, 6):
        for t in enumerate_prime(n):
            assert eta(t).block_count == internal_count(t)


def test_eta_hits_every_noncrossing_partition():
    for n in range(1, 6):
        images = {eta(t) for t in enumerate_prime(n)}
        assert images == set(enumerate_nc(n))


def test_weight_tree_examples():
    assert weight_tree(CHERRY) == 1
    assert weight_tree((LEAF, LEAF, LEAF)) == 1
    # a cherry hanging off the spine contributes d1
    assert weight_tree(T_NEST) == Polynomial.parse("1*d1")
    # one quaternary and one binary vertex off the leftmost branch
    assert weight_tree(T_WIDE) == Polynomial.parse("1*d1*d3")
    # every internal vertex lies on the leftmost branch
    assert weight_tree(T_CHAIN) == 1


# -- arrangements ------------------------------------------------------------

def test_arrangement_validation():
    Arrangement([((1,), LEAF)])  # fine
    Arrangement([((1, 4), CHERRY), ((2, 3), CHERRY)])  # fine, nested
    with pytest.raises(InvalidArrangement):
        Arrangement([((1, 3), CHERRY), ((2, 4), CHERRY)])  # crossing
    with pytest.raises(InvalidArrangement):
        Arrangement([((1, 2, 3), CHERRY)])  # wrong leaf count
    with pytest.raises(InvalidArrangement):
        Arrangement([((1, 2, 3), (LEAF, LEAF, LEAF))])  # not binary
    with pytest.raises(InvalidArrangement):
        Arrangement([((2, 3), CHERRY)])  # dots must start at 1
    with pytest.raises(InvalidArrangement):
        Arrangement([((2, 1), CHERRY)])  # unsorted positions
    with pytest.raises(InvalidArrangement):
        Arrangement([((1, 2), CHERRY), ((2, 3), CHERRY)])  # dot reused


def test_arrangement_equality_and_order_independence():
    a = Arrangement([((2, 3), CHERRY), ((1, 4), CHERRY)])
    b = Arrangement([((1, 4), CHERRY), ((2, 3), CHERRY)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.size == 4
    assert partition_of(a).render() == "14|23"


def test_arrangement_json():
    a = Arrangement([((1, 4), CHERRY), ((2, 3), CHERRY)])
    assert a.to_json_list() == [
        {"positions": [1, 4], "tree": [0, 0]},
        {"positions": [2, 3], "tree": [0, 0]},
    ]


def test_enumerate_arrangements_counts():
    for n in range(1, 7):
        assert len(enumerate_arrangements(n)) == PRIME_COUNTS[n - 1]


# -- the bijection -----------------------------------------------------------

def test_phi_hand_example():
    a = phi(T_NEST)
    assert a.components == (((1, 4), CHERRY), ((2, 3), CHERRY))
    assert cover_counts(a) == {(1, 4): 1, (2, 3): 0}
    assert weight_arrangement(a) == Polynomial.parse("1*d1")
    assert phi_inv(a) == T_NEST


def test_phi_smallest_cases():
    a = phi(CHERRY)
    assert a.components == (((1,), LEAF),)
    assert phi_inv(a) == CHERRY
    fan = (LEAF, LEAF, LEAF)
    b = phi(fan)
    assert b.components == (((1,), LEAF), ((2,), LEAF))
    assert phi_inv(b) == fan


def test_phi_requires_prime():
    with pytest.raises(NotPrime):
        phi((LEAF, CHERRY))


def test_phi_round_trip_both_ways():
    for n in range(1, 6):
        for t in enumerate_prime(n):
            assert phi_inv(phi(t)) == t
        for a in enumerate_arrangements(n):
            assert phi(phi_inv(a)) == a


def test_phi_image_matches_independent_enumeration():
    for n in range(1, 6):
        image = {phi(t) for t in enumerate_prime(n)}
        assert image == set(enumerate_arrangements(n))


def test_phi_inv_produces_prime_trees_of_right_size():
    for n in range(1, 6):
        for a in enumerate_arrangements(n):
            t = phi_inv(a)
            assert is_prime(t)
            assert n_leaves(t) == n + 1
            assert internal_count(t) == n - len(a.components) + 1


def test_partition_of_phi_is_kreweras_dual_of_eta():
    for n in range(1, 6):
        for t in enumerate_prime(n):
            assert kreweras(partition_of(phi(t))) == eta(t)


def test_weights_agree_across_the_bijection():
    for n in range(1, 6):
        for t in enumerate_prime(n):
            assert weight_arrangement(phi(t)) == weight_tree(t)


def test_singleton_arrangement_weight_matches_partition_weight():
    # with every component a single dot, cover degrees reproduce the
    # partition weight of the dual partition on the chain of gaps
    for n in range(1, 6):
        singles = Arrangement([((i,), LEAF) for i in range(1, n + 1)])
        assert weight_arrangement(singles) == 1
        assert partition_of(singles) == NoncrossingPartition(
            [[i] for i in range(1, n + 1)]
        )


def test_weight_arrangement_cherry_ladder():
    # dots 1..6, components 16|25|34: two nested covers
    a = Arrangement([((1, 6), CHERRY), ((2, 5), CHERRY), ((3, 4), CHERRY)])
    assert cover_counts(a) == {(1, 6): 1, (2, 5): 1, (3, 4): 0}
    assert weight_arrangement(a) == Polynomial.parse("1*d1*d2")
    t = phi_inv(a)
    assert weight_tree(t) == Polynomial.parse("1*d1*d2")


# -- random prime trees, beyond the exhaustive sweeps -------------------------

# Schröder trees with 2-4 children per vertex; a root whose children end in a
# leaf is prime.  n = leaves - 1 stays <= 35 so partitions render in base 36.
schroder_trees = st.recursive(
    st.just(LEAF),
    lambda kids: st.lists(kids, min_size=2, max_size=4).map(tuple),
    max_leaves=11,
)
prime_trees = (
    st.lists(schroder_trees, min_size=1, max_size=3)
    .map(lambda kids: (*kids, LEAF))
    .filter(lambda t: n_leaves(t) <= 36)
)


@settings(max_examples=200, deadline=None)
@given(prime_trees)
def test_random_prime_tree_round_trips(t):
    assert tree_from_json(tree_to_json(t)) == t
    p = eta(t)
    assert NoncrossingPartition.parse(p.render()) == p
    assert phi_inv(phi(t)) == t
