"""Ring, substitution and rendering checks for the polynomial core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nckit.poly import (
    CUMULANT,
    DELTA,
    MOMENT,
    Polynomial,
    cumulant,
    delta,
    moment,
    poly_product,
    poly_sum,
)

D1, D2 = delta(1), delta(2)
M1, M2, M3 = moment(1), moment(2), moment(3)
C1, C2 = cumulant(1), cumulant(2)


def P(text):
    return Polynomial.parse(text)


# -- hypothesis strategies ---------------------------------------------------

VARS = [delta(1), delta(2), moment(1), moment(2), cumulant(1), cumulant(2)]

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)

monomials = st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)

polynomials = st.dictionaries(monomials, rationals, max_size=4).map(Polynomial)

assignments = st.fixed_dictionaries({v: rationals for v in VARS})


# -- construction and equality ----------------------------------------------

def test_zero_and_constants():
    assert Polynomial.zero().is_zero
    assert Polynomial.constant(0).is_zero
    assert Polynomial.constant(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert Polynomial.from_variable(M1).as_rational() is None
    assert Polynomial.constant(5) == 5
    assert Polynomial.from_variable(D1) != 0
    for bad in (0.1, 1.0, True, False, "1/2", None):
        with pytest.raises(TypeError):
            Polynomial({(): bad})
        with pytest.raises(TypeError):
            Polynomial.constant(bad)
        with pytest.raises(TypeError):
            Polynomial.from_variable(M1).evaluate({M1: bad})


def test_cancellation_normalizes():
    p = Polynomial.from_variable(M1)
    assert (p - p).is_zero
    assert (p + (-p)).render() == "0"


def test_variable_ordering_is_family_major():
    assert delta(2) < moment(1) < moment(2) < cumulant(1)
    assert delta(1) < delta(2)


def test_variable_index_validation():
    with pytest.raises(ValueError):
        delta(0)
    with pytest.raises(ValueError):
        moment(-3)


# -- ring axioms against exact evaluation ------------------------------------

@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials, assignments)
def test_add_mul_match_rational_arithmetic(p, q, env):
    assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)
    assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)
    assert (p - q).evaluate(env) == p.evaluate(env) - q.evaluate(env)


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_pow_small_cases():
    p = Polynomial.from_variable(C1) + 1
    assert p ** 0 == 1
    assert p ** 2 == P("1*C1^2 + 2*C1 + 1")
    with pytest.raises(ValueError):
        p ** -1


# -- substitution ------------------------------------------------------------

def test_substitute_polynomial_value():
    p = Polynomial.from_variable(M1) ** 2
    q = p.substitute({M1: Polynomial.from_variable(C1) + 1})
    assert q == P("1*C1^2 + 2*C1 + 1")


def test_substitute_leaves_unassigned_variables():
    p = P("1*d1*M1 + 1*M2")
    q = p.substitute({D1: Fraction(1, 2)})
    assert q == P("1/2*M1 + 1*M2")


@settings(max_examples=40, deadline=None)
@given(polynomials, assignments)
def test_substitute_constants_agrees_with_evaluate(p, env):
    assert p.substitute(env).as_rational() == p.evaluate(env)


def test_evaluate_requires_all_variables():
    p = P("1*d1*M1")
    with pytest.raises(ValueError):
        p.evaluate({D1: 1})


# -- rendering and parsing ---------------------------------------------------

def test_render_explicit_coefficients_and_order():
    q = Polynomial.from_variable(C2) + Polynomial.from_variable(C1) ** 2
    # degree 2 term precedes degree 1 term under graded lex
    assert q.render() == "1*C1^2 + 1*C2"


def test_render_signs_and_fractions():
    p = P("-1*M1 + 2/3*d1")
    assert p.render() == "-1*M1 + 2/3*d1"
    assert (-p).render() == "1*M1 - 2/3*d1"


def test_render_factor_order_is_ascending_variables():
    p = poly_product([D1, M2, M1, C1])
    assert p.render() == "1*d1*M1*M2*C1"


def test_grlex_tie_break_uses_largest_variable():
    # same degree: the monomial with the larger top variable renders first
    p = Polynomial.from_variable(M1) * Polynomial.from_variable(M2) + Polynomial.from_variable(M1) ** 2 * 1
    assert p.render() == "1*M1*M2 + 1*M1^2"


def test_parse_rejects_junk():
    for bad in ["", "M1 +", "1*e3", "1*M0", "x", "1**M1", "- "]:
        with pytest.raises(ValueError):
            Polynomial.parse(bad)


def test_parse_requires_explicit_coefficient():
    with pytest.raises(ValueError):
        Polynomial.parse("M1 + 1*M2")


def test_parse_merges_duplicate_terms():
    assert P("1*M1 + 2*M1") == P("3*M1")
    assert P("1*M1*M1") == Polynomial.from_variable(M1) ** 2


@settings(max_examples=80, deadline=None)
@given(polynomials)
def test_parse_render_round_trip(p):
    assert Polynomial.parse(p.render()) == p


def test_split_by_family():
    p = P("2*d1*M2*M1^2 + 1*M2*M1^2 + 1*d2*M3 - 1*M1")
    groups = p.split_by_family(DELTA)
    key_m2m12 = tuple(sorted({M1: 2, M2: 1}.items()))
    key_m3 = ((M3, 1),)
    key_m1 = ((M1, 1),)
    assert groups[key_m2m12] == P("2*d1 + 1")
    assert groups[key_m3] == P("1*d2")
    assert groups[key_m1] == P("-1")
    total = poly_sum(
        Polynomial({rest: 1}) * part for rest, part in groups.items()
    )
    assert total == p


def test_helper_sums_products():
    assert poly_sum([]) == 0
    assert poly_product([]) == 1
    assert poly_sum([1, M1]) == P("1*M1 + 1")
