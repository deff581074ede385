"""Tests for plane trees, their partition map, and noncrossing arrangements."""

import copy
import gc
import pickle
from fractions import Fraction
from functools import reduce
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from nckit.cumulants import TransformTable, psi
from nckit.ncpart import (
    NoncrossingPartition,
    coarsest,
    enumerate_nc,
    kreweras,
    kreweras_inv,
    leq,
    weight,
)
from nckit.poly import Polynomial, delta, variable_key
from nckit.series import LaurentSeries
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
    # trees are tuples: a list of leaves is not one, and would not hash
    assert not is_binary([LEAF, LEAF])
    assert not is_binary((LEAF, [LEAF, LEAF]))


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


def left_comb(depth):
    """A left comb with depth + 2 leaves, and its JSON encoding."""
    shape = reduce(lambda x, _: (x, LEAF), range(depth), CHERRY)
    return shape, reduce(lambda x, _: [x, 0], range(depth), [0, 0])


def test_tree_json_rejects_nesting_past_the_recursion_limit():
    with pytest.raises(ValueError, match="nested past the recursion limit"):
        tree_from_json(left_comb(5000)[1])
    shape, encoding = left_comb(50)
    assert tree_from_json(encoding) == shape


def test_arrangement_rejects_shapes_nested_past_the_recursion_limit():
    with pytest.raises(InvalidArrangement, match="nested past the recursion limit"):
        Arrangement([(tuple(range(1, 5003)), left_comb(5000)[0])])
    assert Arrangement([(tuple(range(1, 53)), left_comb(50)[0])]).size == 52


def test_the_maps_walk_a_tree_900_deep():
    # one frame per tree level: the prime tree on a left comb and its arrangement,
    # a single component, the comb itself
    comb = left_comb(900)[0]
    t, a = (comb, LEAF), Arrangement._trusted([(tuple(range(1, 903)), comb)])
    assert phi(t) == a and phi_inv(a) == t
    assert eta(t) == NoncrossingPartition([(i,) for i in range(1, 903)])
    assert weight_tree(t) == weight_arrangement(a) == Polynomial.one()
    assert set(cover_counts(a).values()) == {0}


def test_the_walks_leave_no_reference_cycles():
    # a nested function that calls itself reaches itself through its closure cell:
    # each call would leave a reference cycle that only the cycle collector frees
    trees = [t for n in range(1, 7) for t in enumerate_prime(n)]
    pairs = [
        (a, rho)
        for rho in enumerate_nc(5)
        if rho.block_count > 1
        for a in enumerate_arrangements(5)
        if leq(partition_of(a), kreweras_inv(rho))
    ]
    gc.collect()
    gc.disable()
    try:
        for t in trees:
            a = phi(t)
            for walk, arg in [(phi_inv, a), (eta, t), (weight_tree, t), (cover_counts, a),
                              (weight_arrangement, a), (n_leaves, t)]:
                walk(arg)
        for a, rho in pairs:
            psi(psi(a, rho), rho)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("zero", [False, 0.0, Fraction(0)])
def test_tree_json_leaf_is_only_the_int_zero(zero):
    # each compares equal to 0, but only the int 0 encodes a leaf
    with pytest.raises(ValueError):
        tree_from_json(zero)
    with pytest.raises(ValueError):
        tree_from_json([zero, 0])


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


def recursive_binary(m: int) -> tuple:
    # oracle: a root over every split of the m leaves into two subtrees
    if m == 1:
        return (LEAF,)
    out = [
        (left, right)
        for k in range(1, m)
        for left in recursive_binary(k)
        for right in recursive_binary(m - k)
    ]
    return tuple(sorted(out))


def test_binary_trees_match_the_recursive_oracle():
    for m in range(1, 10):
        assert enumerate_binary(m) == recursive_binary(m), m


def test_enumeration_is_canonical_and_well_formed():
    for n in range(1, len(LITTLE_SCHRODER) + 1):
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


def eta_by_walk(t):
    # the blocks of eta(t), by a counter walk of its own: each internal vertex
    # gives the largest leaf index under each of its children but the last
    blocks, counter = [], [0]

    def walk(node):
        if not node:
            counter[0] += 1
            return counter[0]
        maxes = [walk(c) for c in node]
        blocks.append(tuple(maxes[:-1]))
        return maxes[-1]

    walk(t)
    return tuple(sorted(blocks))


def weight_tree_by_walk(t):
    # weight_tree(t) by a key walk of its own: d_{deg(v)-1} off the leftmost branch
    def key(node, on_left_branch):
        if not node:
            return 0
        own = 0 if on_left_branch else variable_key(delta(len(node) - 1))
        return own + sum(key(c, on_left_branch and i == 0) for i, c in enumerate(node))

    return Polynomial._raw({key(t, True): 1})


def test_eta_matches_the_walk():
    for n in range(1, 9):
        for t in enumerate_prime(n):
            assert eta(t).blocks == eta_by_walk(t), t


def test_weight_tree_matches_the_walk():
    for n in range(1, 8):
        for t in enumerate_schroder(n):
            assert weight_tree(t) == weight_tree_by_walk(t), t


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
    with pytest.raises(InvalidArrangement):
        Arrangement([((True, 2), CHERRY)])  # a bool is not a dot
    with pytest.raises(InvalidArrangement):
        Arrangement([((1.0, 2), CHERRY)])  # nor is a float
    with pytest.raises(InvalidArrangement):
        Arrangement([((1, "a"), CHERRY)])  # nor a string, which no sort may see
    with pytest.raises(InvalidArrangement):
        Arrangement([((1, 2), [LEAF, LEAF])])  # a shape is a tuple
    # neither tuple(int)'s TypeError nor an unpacking ValueError escapes
    for comps in ([(1, CHERRY)], [((1,), LEAF), ((2,),)], [((1,), LEAF, LEAF)], 5):
        with pytest.raises(InvalidArrangement, match=r"must be \(positions, shape\) pairs"):
            Arrangement(comps)


def test_arrangement_equality_and_order_independence():
    a = Arrangement([((2, 3), CHERRY), ((1, 4), CHERRY)])
    b = Arrangement([((1, 4), CHERRY), ((2, 3), CHERRY)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.size == 4
    assert partition_of(a).render() == "14|23"


def test_partition_is_kept_on_the_arrangement():
    built = Arrangement([((1, 4), CHERRY), ((2, 3), CHERRY)])
    bare = Arrangement._trusted(built.components)
    assert partition_of(bare) is partition_of(bare)
    assert partition_of(built) is partition_of(built)
    assert partition_of(built) == partition_of(bare)


def test_kept_partition_is_invisible():
    comps = (((1, 4), CHERRY), ((2, 3), CHERRY))
    fresh = Arrangement._trusted(comps)
    filled = Arrangement._trusted(comps)
    partition_of(filled)
    assert fresh == filled
    assert hash(fresh) == hash(filled)
    assert repr(fresh) == repr(filled) == "Arrangement(14:[0, 0], 23:[0, 0])"
    assert fresh.to_json_list() == filled.to_json_list()


def built_arrangements(n):
    """Every arrangement on n dots, from each way the package builds one."""
    for a in enumerate_arrangements(n):
        yield a
        yield Arrangement(a.components)
    for t in enumerate_prime(n):
        yield phi(t)
    for rho in enumerate_nc(n):
        if rho != coarsest(n):
            dual = kreweras_inv(rho)
            for a in enumerate_arrangements(n):
                if leq(partition_of(a), dual):
                    yield psi(a, rho)


def test_partition_on_every_construction_path():
    for n in range(1, 7):
        for x in built_arrangements(n):
            part = partition_of(x)
            assert part == NoncrossingPartition([pos for pos, _ in x.components])
            assert x.size == part.size
        shared = {}
        for a in enumerate_arrangements(n):
            dots = tuple(pos for pos, _ in a.components)
            assert partition_of(a) is shared.setdefault(dots, partition_of(a))


# each immutable value class: a value from its public constructor, an equal one
# from its trusted path (the constructor again for a table, which has none), and
# whether it hashes
VALUES = {
    "NoncrossingPartition": (
        lambda: NoncrossingPartition([(3, 1), (2,)]),
        lambda: NoncrossingPartition._trusted([(1, 3), (2,)], range(1, 4)),
        True,
    ),
    "Arrangement": (
        lambda: Arrangement([((2, 3), CHERRY), ((1, 4), CHERRY)]),
        lambda: Arrangement._trusted([((1, 4), CHERRY), ((2, 3), CHERRY)]),
        True,
    ),
    "LaurentSeries": (
        lambda: LaurentSeries(0, [0, 1, delta(1)]),
        lambda: LaurentSeries._trusted(1, [1, Polynomial.from_variable(delta(1))], 3),
        False,
    ),
    "TransformTable": (
        lambda: TransformTable(1, "moments", "yoshida", [Polynomial.parse("1*C1")]),
        None,
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_semantics(name):
    build, trusted, hashable = VALUES[name]
    value, twin = build(), (trusted or build)()
    assert type(value).__name__ == name
    copies = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    for v in (value, *copies):
        for slot in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(v, slot, None)
    for v in (twin, *copies):
        assert type(v) is type(value) and v == value and v is not value
        assert not hashable or hash(v) == hash(value)
    for other in (VALUES[min(VALUES.keys() - {name})][0](), value._key()):
        assert not value == other and not other == value
    if not hashable:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_no_public_call_refills_a_live_value(name):
    # copies rebuild through a private classmethod, so no __setstate__ is left
    # to rewrite the slots of a value that already exists
    value = VALUES[name][0]()
    key = value._key()
    state = tuple(getattr(value, slot) for slot in type(value).__slots__)
    with pytest.raises(AttributeError):
        value.__setstate__(state)
    assert value._key() == key


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


def cover_counts_from_tree(t):
    # each non-root vertex u becomes a vertex spanning the leaves under it, and
    # its len(u) - 2 middle children become the components it covers
    counts, counter = {}, [0]

    def walk(node):
        if not node:
            counter[0] += 1
            return counter[0], counter[0]
        spans = [walk(c) for c in node]
        counts[spans[0][0], spans[-1][1]] = len(node) - 2
        return spans[0][0], spans[-1][1]

    for child in t[:-1]:
        walk(child)
    return counts


def test_cover_counts_match_the_tree_side():
    for n in range(1, 8):
        for t in enumerate_prime(n):
            assert cover_counts(phi(t)) == cover_counts_from_tree(t), t


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


def is_unit_monomial_or_zero(f):
    return f.is_zero or [c for _, c in f.items()] == [1]


def weight_tree_by_product(t):
    # d_{deg(v)-1} over the vertices off the leftmost branch, multiplied out
    # through Polynomial.__mul__
    factors = []

    def walk(node, on_left_branch):
        if node:
            if not on_left_branch:
                factors.append(delta(len(node) - 1))
            for i, c in enumerate(node):
                walk(c, on_left_branch and i == 0)

    walk(t, True)
    return prod(factors, start=Polynomial.one())


def weight_arrangement_by_product(a):
    # d_{cover(v)+1} over the vertices off the leftmost branch of the dot-1
    # component, multiplied out through Polynomial.__mul__
    pos, shape = a.components[0]
    left_path = set()
    while shape:
        left_path.add((pos[0], pos[n_leaves(shape) - 1]))
        shape = shape[0]
    return prod(
        (delta(c + 1) for span, c in cover_counts(a).items() if span not in left_path),
        start=Polynomial.one(),
    )


def test_weights_match_their_products():
    for n in range(1, 7):
        for t in enumerate_prime(n):
            w = weight_tree(t)
            assert w == weight_tree_by_product(t), t
            assert is_unit_monomial_or_zero(w), t
        for a in enumerate_arrangements(n):
            w = weight_arrangement(a)
            assert w == weight_arrangement_by_product(a), a
            assert is_unit_monomial_or_zero(w), a


def test_empty_arrangement_weight_is_the_empty_product():
    (empty,) = enumerate_arrangements(0)
    assert cover_counts(empty) == {}
    assert weight_arrangement(empty) == 1


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
    # past the exhaustive sweeps: each map against its oracle, and the complement and
    # weight identities that carry eta and weight_tree over to the arrangement
    assert tree_from_json(tree_to_json(t)) == t
    p = eta(t)
    assert NoncrossingPartition.parse(p.render()) == p
    a = phi(t)
    assert phi_inv(a) == t
    assert p.blocks == eta_by_walk(t)
    assert weight_tree(t) == weight_tree_by_walk(t)
    assert kreweras(partition_of(a)) == p
    assert weight_arrangement(a) == weight_tree(t)
    assert cover_counts(a) == cover_counts_from_tree(t)
