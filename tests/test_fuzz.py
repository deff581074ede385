"""Each public constructor and parser raises only the classes its docstring
names, on any input: Hypothesis draws nested junk of every basic type.  Every
public entry point that echoes its input in an error message does so for input
nested past the recursion limit too, each tree walk refuses such a tree with its
documented ValueError, and every size is an int from its least.

Polynomial text is drawn with variable indices 1..3 only, because a new
variable keeps its key slot for the rest of the process.
"""

import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from nckit.cumulants import (
    TransformTable,
    cumulants_from_moments,
    moments_from_cumulants,
    numeric_convert,
)
from nckit.ncpart import (
    NoncrossingPartition,
    NotAPartition,
    coarsest,
    enumerate_interval,
    enumerate_nc,
    enumerate_set_partitions,
    finest,
)
from nckit.poly import (
    DELTA,
    Polynomial,
    as_fraction,
    cumulant,
    delta,
    dot,
    moment,
    specialize_family,
)
from nckit.series import (
    LaurentSeries, constant_series, lagrange_coeff_inverse, monomial_series, standard_series,
    zero_series,
)
from nckit.trees import (
    Arrangement,
    InvalidArrangement,
    enumerate_arrangements,
    enumerate_binary,
    enumerate_prime,
    enumerate_schroder,
    eta,
    internal_count,
    is_binary,
    n_leaves,
    phi,
    tree_from_json,
    tree_to_json,
    weight_tree,
)


DEEP_JSON = reduce(lambda x, _: [x, 0], range(5000), [0, 0])
DEEP_COMB = reduce(lambda x, _: (x, ()), range(5000), ((), ()))  # a left comb, 5,002 leaves
DEEP_LIST = reduce(lambda x, _: [x], range(5000), [])
DEEP_TUPLE = reduce(lambda x, _: (x,), range(5000), ())

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats()
    | st.fractions()
    | st.text(max_size=4)
    | st.sampled_from([delta(1), moment(2), cumulant(3), ()])
)
hashable = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(hashable, inner, max_size=3),
    max_leaves=12,
)
polynomial_text = st.text(alphabet="0123dMC*+-/^ ", max_size=16).filter(
    lambda s: not re.search(r"[dMC]0*(?:[4-9]|[1-9][0-9])", s)
)

CASES = {
    "NoncrossingPartition": (NoncrossingPartition, NotAPartition),
    "NoncrossingPartition.parse": (NoncrossingPartition.parse, (TypeError, NotAPartition)),
    "Arrangement": (Arrangement, InvalidArrangement),
    "tree_from_json": (tree_from_json, ValueError),
    "Polynomial": (Polynomial, (TypeError, ValueError)),
    "Polynomial.parse": (Polynomial.parse, (TypeError, ValueError)),
    "LaurentSeries": (LaurentSeries, (TypeError, ValueError)),
    "TransformTable": (TransformTable, (TypeError, ValueError)),
}
M1 = Polynomial.parse("1*M1")
table_args = (
    st.integers(0, 2) | junk,
    st.sampled_from(["moments", "cumulants"]) | junk,
    st.sampled_from(["yoshida", "mobius"]) | junk,
    junk | st.lists(junk | st.just(M1), max_size=3),
)
ARGS = {
    "NoncrossingPartition": st.tuples(junk) | st.tuples(junk, junk),
    "NoncrossingPartition.parse": st.tuples(junk | st.text(max_size=8)),
    "Polynomial.parse": st.tuples(junk | polynomial_text),
    "LaurentSeries": st.tuples(junk, junk) | st.tuples(junk, junk, junk),
    "TransformTable": st.tuples(*table_args) | st.tuples(*table_args, junk),
}
calls = st.one_of(
    [st.tuples(st.just(name), ARGS.get(name, st.tuples(junk))) for name in CASES]
)


@settings(max_examples=250, deadline=None)
@given(calls)
@example(("NoncrossingPartition", ([1, 2],)))
@example(("NoncrossingPartition", ([(1, 2)], 5)))
@example(("NoncrossingPartition", (5,)))
@example(("Arrangement", ([(1, ((), ()))],)))
@example(("Arrangement", ([((1,), ()), ((2,),)],)))
@example(("Arrangement", lambda: ([(tuple(range(1, 5003)), DEEP_COMB)],)))
@example(("tree_from_json", lambda: (DEEP_JSON,)))
@example(("Polynomial", (5,)))
@example(("Polynomial", ([((), 1)],)))
@example(("Polynomial", ({5: 1},)))
@example(("LaurentSeries", ("a", [1])))
@example(("LaurentSeries", (0, [1], True)))
@example(("NoncrossingPartition", lambda: (DEEP_LIST,)))
@example(("NoncrossingPartition", lambda: ([[DEEP_LIST]],)))
@example(("NoncrossingPartition", lambda: ([(1,)], [DEEP_LIST])))
@example(("NoncrossingPartition.parse", lambda: (DEEP_LIST,)))
@example(("Polynomial", lambda: ({((DEEP_TUPLE, 1),): 1},)))
@example(("Polynomial.parse", lambda: (DEEP_LIST,)))
@example(("LaurentSeries", lambda: (0, [DEEP_LIST])))
@example(("LaurentSeries", lambda: (DEEP_LIST, [1])))
@example(("tree_from_json", lambda: ({0: DEEP_LIST},)))
@example(("TransformTable", (1, "moments", "yoshida", [5])))
@example(("TransformTable", (1, "moments", "yoshida", 5)))
def test_constructors_raise_only_their_documented_errors(call):
    name, args = call
    if callable(args):  # a nesting too deep for Hypothesis to print
        args = args()
    target, documented = CASES[name]
    try:
        target(*args)
    except documented:
        pass


@settings(max_examples=50, deadline=None)
@given(junk.filter(lambda x: type(x) is not int))
@example(True)
@example(False)
@example(2.0)
@example(Fraction(3))
def test_sizes_and_exponents_are_ints(x):
    # an int is the real computation; every other value is refused up front
    for call, error in (
        (lambda: Polynomial.parse("1*M1 + 1") ** x, ValueError),
        (lambda: standard_series("M", 4) ** x, TypeError),
        (lambda: moments_from_cumulants(x), TypeError),
        (lambda: cumulants_from_moments(x), TypeError),
        (lambda: standard_series("M", 4).shift(x), TypeError),
        (lambda: standard_series("M", 4).truncate(x), TypeError),
        (lambda: standard_series("M", 4).coeff(x), TypeError),
        (lambda: monomial_series(x), TypeError),
        (lambda: zero_series(x), TypeError),
    ):
        try:
            call()
        except error:
            continue
        raise AssertionError(f"{x!r} was accepted")


# each public entry point that echoes an input in an error message, or walks a
# tree: the call, the input nested 5,000 deep, and the error its docstring names
DEEP_CALLS = {
    "NoncrossingPartition": (NoncrossingPartition, DEEP_LIST, NotAPartition),
    "NoncrossingPartition block": (lambda x: NoncrossingPartition([[x]]), DEEP_LIST, NotAPartition),
    "NoncrossingPartition ground": (
        lambda x: NoncrossingPartition([(1,)], ground=[x]), DEEP_LIST, NotAPartition
    ),
    "NoncrossingPartition.parse": (NoncrossingPartition.parse, DEEP_LIST, TypeError),
    "Polynomial.parse": (Polynomial.parse, DEEP_LIST, TypeError),
    "Polynomial": (lambda t: Polynomial({((t, 1),): 1}), DEEP_TUPLE, TypeError),
    "as_fraction": (as_fraction, DEEP_LIST, TypeError),
    "delta": (delta, DEEP_LIST, ValueError),
    "dot": (lambda x: dot([(x, 1)]), DEEP_LIST, TypeError),
    "substitute": (lambda x: M1.substitute({moment(1): x}), DEEP_LIST, TypeError),
    "evaluate": (lambda x: M1.evaluate({moment(1): x}), DEEP_LIST, TypeError),
    "specialize_family": (lambda x: specialize_family(M1, DELTA, x), DEEP_LIST, ValueError),
    "LaurentSeries coefficient": (lambda x: LaurentSeries(0, [x]), DEEP_LIST, TypeError),
    "LaurentSeries bound": (lambda x: LaurentSeries(x, [1]), DEEP_LIST, TypeError),
    "standard_series": (lambda x: standard_series(x, 3), DEEP_LIST, ValueError),
    "lagrange_coeff_inverse": (
        lambda x: lagrange_coeff_inverse(standard_series("M", 4), x), DEEP_LIST, TypeError
    ),
    "tree_from_json": (lambda x: tree_from_json({0: x}), DEEP_LIST, ValueError),
    "cumulants_from_moments": (cumulants_from_moments, DEEP_LIST, TypeError),
    "moments_from_cumulants": (moments_from_cumulants, DEEP_LIST, TypeError),
    "numeric_convert": (lambda x: numeric_convert([x], [1], "moments"), DEEP_LIST, TypeError),
    "TransformTable": (lambda x: TransformTable(1, x, "mobius", [M1]), DEEP_LIST, ValueError),
    "n_leaves": (n_leaves, DEEP_COMB, ValueError),
    "eta": (eta, DEEP_COMB, ValueError),
    "weight_tree": (weight_tree, DEEP_COMB, ValueError),
    "phi": (phi, DEEP_COMB, ValueError),
    "internal_count": (internal_count, DEEP_COMB, ValueError),
    "is_binary": (is_binary, DEEP_COMB, ValueError),
    "tree_to_json": (tree_to_json, DEEP_COMB, ValueError),
}


@pytest.mark.parametrize("name", sorted(DEEP_CALLS))
def test_deep_input_is_echoed_past_the_recursion_limit(name):
    call, deep, documented = DEEP_CALLS[name]
    with pytest.raises(documented, match="nested past the recursion limit"):
        call(deep)


def test_tree_walks_keep_the_depth_n_leaves_accepts():
    comb = reduce(lambda x, _: (x, ()), range(400), ((), ()))  # a left comb, 402 leaves
    assert n_leaves(comb) == 402
    assert internal_count(comb) == 401
    assert is_binary(comb)
    assert tree_from_json(tree_to_json(comb)) == comb
    # the prime trees on the comb and on its mirror, a right comb: the depth lies on
    # the leftmost branch, which weight_tree leaves out, or off it
    mirror = reduce(lambda x, _: ((), x), range(400), ((), ()))
    for t, weight in [((comb, ()), 1), ((mirror, ()), Polynomial({((delta(1), 400),): 1}))]:
        assert eta(t) == finest(402)  # each vertex's block is the last leaf of its first child
        assert weight_tree(t) == weight


# each builder that takes a size, and the least size it accepts
SIZED = {
    "enumerate_nc": (enumerate_nc, 0),
    "enumerate_interval": (enumerate_interval, 0),
    "enumerate_set_partitions": (lambda n: list(enumerate_set_partitions(n)), 0),
    "enumerate_arrangements": (enumerate_arrangements, 0),
    "finest": (finest, 0),
    "coarsest": (coarsest, 0),
    "enumerate_schroder": (enumerate_schroder, 1),
    "enumerate_prime": (enumerate_prime, 1),
    "enumerate_binary": (enumerate_binary, 1),
    "TransformTable": (lambda n: TransformTable(n, "moments", "yoshida", [M1]), 1),
    "lagrange_coeff_inverse": (lambda n: lagrange_coeff_inverse(standard_series("M", 4), n), 1),
    "constant_series": (lambda n: constant_series(1, n), 1),
    "standard_series": (lambda n: standard_series("C", n), 1),
    "standard_series_F": (lambda n: standard_series("F", n), 1),
    "standard_series_B": (lambda n: standard_series("B", n), 1),
}


@pytest.mark.parametrize("name", sorted(SIZED))
def test_sizes_are_ints_from_the_least(name):
    build, least = SIZED[name]
    for n in range(least, 2):  # a cached 0 or 1 must not answer for False or True
        build(n)
    for bad in (True, False, 1.0, Fraction(1), "1", None):
        with pytest.raises(TypeError, match="must be an int, got"):
            build(bad)
    with pytest.raises(ValueError):
        build(least - 1)


@pytest.mark.parametrize("kind", "CFB")
def test_cumulant_series_need_order_at_least_1(kind):
    # F and B are built from M on a larger window, whose own checks must not answer
    for order in (0, -1):
        with pytest.raises(ValueError, match=r"^need order >= 1$"):
            standard_series(kind, order)
