"""Each public constructor and parser raises only the classes its docstring
names, on any input: Hypothesis draws nested junk of every basic type.

Polynomial text is drawn with variable indices 1..3 only, because a new
variable keeps its key slot for the rest of the process.
"""

import re
from fractions import Fraction
from functools import reduce

from hypothesis import example, given, settings, strategies as st

from nckit.cumulants import cumulants_from_moments, moments_from_cumulants
from nckit.ncpart import NoncrossingPartition, NotAPartition
from nckit.poly import Polynomial, cumulant, delta, moment
from nckit.series import LaurentSeries, standard_series
from nckit.trees import Arrangement, InvalidArrangement, tree_from_json


DEEP_JSON = reduce(lambda x, _: [x, 0], range(5000), [0, 0])
DEEP_COMB = reduce(lambda x, _: (x, ()), range(5000), ((), ()))  # a left comb, 5,002 leaves

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
}
ARGS = {
    "NoncrossingPartition": st.tuples(junk) | st.tuples(junk, junk),
    "NoncrossingPartition.parse": st.tuples(junk | st.text(max_size=8)),
    "Polynomial.parse": st.tuples(junk | polynomial_text),
    "LaurentSeries": st.tuples(junk, junk) | st.tuples(junk, junk, junk),
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
    ):
        try:
            call()
        except error:
            continue
        raise AssertionError(f"{x!r} was accepted")
