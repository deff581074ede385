"""Ring, substitution and rendering checks for the polynomial core."""

import operator
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nckit
from nckit import poly
from nckit.cumulants import cumulants_from_moments, moments_from_cumulants
from nckit.poly import (
    CUMULANT,
    DELTA,
    MOMENT,
    Polynomial,
    as_fraction,
    cumulant,
    delta,
    dot,
    moment,
    poly_sum,
    shift_sum,
    specialize_family,
    variable_key,
)
from nckit.series import standard_series

D1, D2 = delta(1), delta(2)
M1, M2, M3 = moment(1), moment(2), moment(3)
C1, C2 = cumulant(1), cumulant(2)
M1_POLY = Polynomial.from_variable(M1)


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

# all three families up to index 40, so packed keys span many slots; drawn as
# plain dicts so the oracle starts from the input, not from Polynomial.items()
WIDE_VARS = [f(i) for f in (delta, moment, cumulant) for i in range(1, 41)]

wide_monomials = st.dictionaries(
    st.sampled_from(WIDE_VARS), st.integers(1, 5), max_size=4
).map(lambda d: tuple(sorted(d.items())))

wide_terms = st.dictionaries(wide_monomials, rationals, max_size=4)


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
        with pytest.raises(TypeError):  # D2 does not occur
            Polynomial.from_variable(M1).evaluate({M1: 1, D2: bad})


def test_bools_are_not_scalars():
    p = Polynomial.one()
    # equality with a bool is not defined, as with any other foreign type
    assert p.__eq__(True) is NotImplemented
    assert (p == True) is False and (p != True) is True  # noqa: E712
    assert (Polynomial.zero() == False) is False  # noqa: E712
    assert (p == 1.5) is False
    # arithmetic with a bool still raises
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((p, True), (True, p), (p, False)):
            with pytest.raises(TypeError):
                op(a, b)


def test_cancellation_normalizes():
    p = Polynomial.from_variable(M1)
    assert (p - p).is_zero
    assert (p + (-p)).render() == "0"


def test_variable_ordering_is_family_major():
    assert delta(2) < moment(1) < moment(2) < cumulant(1)
    assert delta(1) < delta(2)


def test_constructor_validates_each_monomial():
    for bad in ((("x", 1),), ((1, 1),), ((M1, 1), ("M1", 2))):
        with pytest.raises(TypeError):
            Polynomial({bad: 1})
    for bad in (5, None, (5,), ((M1,),), ((M1, 1, 2),), "ab", Fraction(1)):
        with pytest.raises(TypeError, match=r"iterable of \(Variable, exponent\) pairs"):
            Polynomial({bad: 1})  # not the bare unpacking error
    for exp in (0, -1, 2**31, True, Fraction(1), "1", None):
        with pytest.raises(ValueError):
            Polynomial({((M1, exp),): 1})
    with pytest.raises(ValueError):
        Polynomial({((M1, 2**30), (M1, 2**30)): 1})
    assert Polynomial({((M1, 1), (C1, 2), (M1, 2)): 3}) == P("3*M1^3*C1^2")
    assert Polynomial({((M2, 1), (M1, 1)): 2, ((M1, 1), (M2, 1)): -2}).is_zero


@pytest.mark.parametrize("terms", [5, 0, "", [((), 1)], ((), 1), Fraction(1)])
def test_constructor_takes_only_a_mapping(terms):
    with pytest.raises(TypeError, match="polynomial terms must be a mapping"):
        Polynomial(terms)


def test_exponent_cap():
    top = P("1*M1^2147483647")
    assert top.render() == "1*M1^2147483647"
    assert dict(top.items()) == {((M1, 2**31 - 1),): 1}
    assert top * Polynomial.from_variable(M2) == P("1*M1^2147483647*M2")
    for bad in ("1*M1^2147483648", "1*M1^2147483647*M1", "1*M1^0"):
        with pytest.raises(ValueError):
            P(bad)
    with pytest.raises(OverflowError):
        top * Polynomial.from_variable(M1)
    with pytest.raises(OverflowError):
        P("1*M1^1073741824") ** 2


def test_pickle_does_not_depend_on_slot_order():
    # the child gives other variables the first slots before pickling
    code = (
        "import pickle, sys\n"
        "from nckit.poly import Polynomial, cumulant\n"
        "for i in range(9, 0, -1):\n"
        "    Polynomial.from_variable(cumulant(i))\n"
        "sys.stdout.write(pickle.dumps(Polynomial.parse('2*d1*M3^2 - 1/2*C7')).hex())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(nckit.__file__).resolve().parents[1],
        capture_output=True, text=True, check=True,
    )
    assert pickle.loads(bytes.fromhex(proc.stdout)) == P("2*d1*M3^2 - 1/2*C7")


def test_variable_index_validation():
    with pytest.raises(ValueError):
        delta(0)
    with pytest.raises(ValueError):
        moment(-3)
    for index in (True, 1.0, Fraction(1)):
        with pytest.raises(ValueError):
            delta(index)


def test_bool_index_cannot_take_a_variable_slot():
    # True == 1 and hashes alike, so a d_True given the first d1 slot of a
    # process would render every later d1 as dTrue; d1 already has its slot
    # in this process, so the check runs in a fresh one
    code = (
        "from nckit.cumulants import cumulants_from_moments\n"
        "from nckit.poly import DELTA, Polynomial, Variable, delta\n"
        "for make in (lambda: delta(True), lambda: Variable(DELTA, True)):\n"
        "    try:\n"
        "        Polynomial.from_variable(make())\n"
        "    except ValueError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit('a bool index took a slot')\n"
        "print(cumulants_from_moments(3).render_text())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(nckit.__file__).resolve().parents[1],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[-1] == (
        "C3 = 1*d1*M1^3 - 1*d1*M1*M2 + 1*M1^3 - 2*M1*M2 + 1*M3"
    )


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
    for exp in (-1, True, False, 2.0):  # bools are not exponents, as in _pack
        with pytest.raises(ValueError, match="nonnegative integer exponent"):
            p ** exp


def test_pow_squares(monkeypatch):
    p = Polynomial.from_variable(M1) + 1
    mul = Polynomial.__mul__
    calls = []
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for exp in (1, 13, 64):
        expected = Polynomial({((M1, k),) if k else (): comb(exp, k) for k in range(exp + 1)})
        calls.clear()
        assert p ** exp == expected
    assert len(calls) <= 12  # 64 products when multiplying one factor at a time


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
    with pytest.raises(ValueError, match="no value for variable M1"):
        p.evaluate({D1: 1})
    # the d1 terms cancel at M1 = M2, but d1 still has no value
    with pytest.raises(ValueError, match="no value for variable d1"):
        P("1*d1*M1 - 1*d1*M2").evaluate({M1: 1, M2: 1})


def test_a_variable_with_no_slot_is_skipped():
    unseen = cumulant(987_654)  # no polynomial has held it, so it has no key slot
    slots = list(poly._VARS)
    assert unseen not in slots
    p = P("1*d1*M1 + 1*M2")
    assert p.substitute({unseen: M1_POLY, D1: 2}) == P("2*M1 + 1*M2")
    assert p.evaluate({unseen: 7, D1: 2, M1: 3, M2: 5}) == 11
    assert Polynomial.zero().substitute({unseen: 7}) == Polynomial.zero()
    assert poly._VARS == slots


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
    p = prod([D1, M2, M1, C1], start=Polynomial.one())
    assert p.render() == "1*d1*M1*M2*C1"


def test_grlex_tie_break_uses_largest_variable():
    # same degree: the monomial with the larger top variable renders first
    p = Polynomial.from_variable(M1) * Polynomial.from_variable(M2) + Polynomial.from_variable(M1) ** 2 * 1
    assert p.render() == "1*M1*M2 + 1*M1^2"


def oracle_mono_key(m) -> tuple:
    """Graded lex: total degree first, then exponents scanned from the largest variable down."""
    return sum(e for _, e in m), m[::-1]


def oracle_render(p) -> str:
    """render() by sorting unpacked (Variable, exponent) tuples."""
    if p.is_zero:
        return "0"
    terms = sorted(p.items(), key=lambda t: oracle_mono_key(t[0]), reverse=True)
    pieces = []
    for k, (mono, coeff) in enumerate(terms):
        body = "*".join(
            [str(abs(coeff))] + [f"{v.symbol()}^{e}" if e > 1 else v.symbol() for v, e in mono]
        )
        sign = ("" if k == 0 else " + ") if coeff > 0 else ("-" if k == 0 else " - ")
        pieces.append(sign + body)
    return "".join(pieces)


@settings(max_examples=80, deadline=None)
@given(polynomials, wide_terms)
def test_render_matches_the_tuple_sort(p, t):
    assert p.render() == oracle_render(p)
    q = Polynomial(t)
    assert q.render() == oracle_render(q)
    assert (p * q).render() == oracle_render(p * q)


def test_render_of_tables_matches_the_tuple_sort():
    for table in (
        cumulants_from_moments(7),
        moments_from_cumulants(9),
        cumulants_from_moments(12, "lagrange"),
    ):
        for entry in table.entries:
            assert entry.render() == oracle_render(entry)


# one family each, several terms sharing each part, so a product's terms share
# their d, M and C parts and render's part cache is hit
def family_polynomials(family):
    family_vars = [v for v in WIDE_VARS if v.family == family][:6]
    parts = st.dictionaries(st.sampled_from(family_vars), st.integers(1, 4), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )
    return st.dictionaries(parts, rationals, min_size=1, max_size=4).map(Polynomial)


@settings(max_examples=80, deadline=None)
@given(family_polynomials(DELTA), family_polynomials(MOMENT), family_polynomials(CUMULANT))
def test_render_of_products_sharing_family_parts(d, m, c):
    for p in (d * m * c, d * c, m * c + d, (d + m) * c):
        assert p.render() == oracle_render(p)
        assert Polynomial.parse(p.render()) == p


def test_render_edge_cases():
    for p, text in [
        (Polynomial.zero(), "0"),
        (Polynomial.constant(5), "5"),
        (Polynomial.constant(Fraction(-3, 4)), "-3/4"),
        (P("1*C7*C2^3 - 1/2*C1"), "1*C2^3*C7 - 1/2*C1"),
        (P("7*M4^2 - 5/3*C3^4*M1*d2^2 - 1"), "-5/3*d2^2*M1*C3^4 + 7*M4^2 - 1"),
        (P("1/7 + 3*d1*C1 - 2/5*M1*C1 - 1*C1^2"), "-1*C1^2 - 2/5*M1*C1 + 3*d1*C1 + 1/7"),
    ]:
        assert p.render() == oracle_render(p) == text
        assert Polynomial.parse(text) == p


def test_render_does_not_depend_on_slot_order():
    # fresh variables touched in descending variable order get ascending slots
    c, m, d = cumulant(9003), moment(9002), delta(9001)
    assert variable_key(c) < variable_key(m) < variable_key(d)
    x, y, z = (Polynomial.from_variable(v) for v in (c, m, d))
    p = z * x + y ** 2 + x + y + z + x * Polynomial.from_variable(M1) ** 3 + 1
    expected = (
        "1*M1^3*C9003 + 1*d9001*C9003 + 1*M9002^2 + 1*C9003 + 1*M9002 + 1*d9001 + 1"
    )
    assert p.render() == oracle_render(p) == expected


def test_parse_rejects_junk():
    for bad in [
        "", "M1 +", "1*e3", "1*M0", "x", "1**M1", "- ", "1/0*M1",
        "1\n*M1", "2*M1\n*M2",  # a newline must not end a pattern's match early
    ]:
        with pytest.raises(ValueError):
            Polynomial.parse(bad)


def test_parse_rejects_non_text():
    for bad in (5, None, b"1*M1", ["1*M1"]):
        with pytest.raises(TypeError, match="not polynomial text"):
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


def test_degree_split():
    assert poly._by_degree(3, DELTA) == {0: P("3")}
    assert poly._by_degree(Fraction(1, 2), MOMENT) == {0: P("1/2")}
    assert poly._by_degree(Polynomial.zero(), DELTA) == {}
    assert poly._by_degree(P("2*M1*M2 - 1*C1"), DELTA) == {0: P("2*M1*M2 - 1*C1")}
    p = P("1*d1^2*M1 - 3*d1*d2*M2 + 1*d3*M3*C1 - 1*d2*M2 + 5*M1 + 4")
    assert poly._by_degree(p, DELTA) == {
        0: P("5*M1 + 4"),
        1: P("1*d3*M3*C1 - 1*d2*M2"),
        2: P("1*d1^2*M1 - 3*d1*d2*M2"),
    }
    assert poly._by_degree(p, MOMENT)[0] == P("4")


def by_substitute(p, family, value):
    return p.substitute({v: value for v in p.variables() if v.family == family})


@settings(max_examples=80, deadline=None)
@given(polynomials, wide_terms)
def test_specialize_family_matches_substitute(p, t):
    for q in (p, Polynomial(t), p * Polynomial(t)):
        for family in (DELTA, MOMENT, CUMULANT):
            for value in (0, 1):
                result = specialize_family(q, family, value)
                assert_canonical(result)
                assert result == by_substitute(q, family, value)


def test_specialize_family_matches_substitute_on_tables():
    for table in (
        moments_from_cumulants(9),
        cumulants_from_moments(7),
        cumulants_from_moments(12, "lagrange"),
    ):
        for value in (0, 1):
            assignment = {delta(k): value for k in range(1, table.n + 1)}
            for entry in table.entries:
                assert specialize_family(entry, DELTA, value) == entry.substitute(assignment)


def test_specialize_family_takes_only_zero_or_one():
    p = P("1*d1*M1 + 2*M1")
    assert specialize_family(p, DELTA, 1) == P("3*M1")
    assert specialize_family(p, DELTA, 0) == P("2*M1")
    assert specialize_family(P("1*d1 - 1*d2"), DELTA, 1) == Polynomial.zero()
    for bad in (2, -1, True, Fraction(1), "1"):
        with pytest.raises(ValueError):
            specialize_family(p, DELTA, bad)


def test_helper_sums():
    assert poly_sum([]) == 0
    assert poly_sum([1, M1]) == P("1*M1 + 1")


def test_helper_sums_refuse_non_ring_items():
    for bad in (1.5, "1", None, [M1]):
        with pytest.raises(TypeError, match="not a polynomial or exact rational"):
            poly_sum([M1, bad])


def test_shift_sum():
    m1, m2 = variable_key(M1), variable_key(M2)
    assert shift_sum([]) == Polynomial.zero()
    assert shift_sum([(m1, P("1*M2 + 1")), (m2, P("2*M1"))]) == P("3*M1*M2 + 1*M1")
    # coefficients that cancel drop their key
    cancelled = shift_sum([(m1, P("1*M2 - 1")), (0, P("1*M1"))])
    assert cancelled == P("1*M1*M2")
    half = Polynomial.constant(Fraction(1, 2))
    whole = shift_sum([(m1, half), (m1, half)])
    assert whole == Polynomial.from_variable(M1)
    assert [type(c) for _, c in whole.items()] == [int]


def test_shift_sum_guards_every_exponent():
    top = P("1*M1^2147483647")
    assert shift_sum([(m, top) for m in (0, variable_key(M2))]) == P(
        "1*M1^2147483647*M2 + 1*M1^2147483647"
    )
    with pytest.raises(OverflowError):
        shift_sum([(variable_key(M1), top)])
    with pytest.raises(OverflowError):
        shift_sum([(variable_key(M1) * 2**30, P("1*M1^1073741824"))])


def assert_canonical_scalar(x):
    assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), x


operands = st.one_of(st.integers(-4, 4), rationals, polynomials)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(operands, operands), max_size=5))
def test_dot_is_a_sum_of_products(pairs):
    result = dot(pairs)
    assert result == poly_sum(a * b for a, b in pairs)
    if any(isinstance(x, Polynomial) for pair in pairs for x in pair):
        assert isinstance(result, Polynomial)
        assert_canonical(result)
    else:
        assert not isinstance(result, Polynomial)
        assert_canonical_scalar(result)


def test_dot_edge_cases():
    assert dot([]) == 0 and type(dot([])) is int
    assert dot([(Fraction(1, 2), 4), (Fraction(3, 2), Fraction(1, 3))]) == Fraction(5, 2)
    assert type(dot([(Fraction(1, 2), 4), (Fraction(1, 3), 3)])) is int
    # the scalar part of a mixed sum joins the constant term
    whole = dot([(Fraction(1, 2), 1), (Polynomial.constant(Fraction(1, 2)), 1)])
    assert whole == 1
    assert_canonical(whole)
    assert dot([(M1_POLY, 2), (-2, M1_POLY)]) == Polynomial.zero()
    top = P("1*M1^2147483647")
    with pytest.raises(OverflowError):
        dot([(1, P("1*M2")), (top, M1_POLY)])
    with pytest.raises(OverflowError):
        dot([(M1_POLY, top)])


def test_scalar_factors_are_exact_rationals():
    p = P("2*M1 + 1/2")
    assert p * 4 == P("8*M1 + 2") == 4 * p
    assert p * Fraction(1, 2) == P("1*M1 + 1/4")
    assert p * Fraction(6, 3) == P("4*M1 + 1")
    assert p * 0 == Polynomial.zero()
    for bad in (True, False, 0.5, None):
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p
        with pytest.raises(TypeError):
            dot([(p, bad)])
        with pytest.raises(TypeError):
            dot([(bad, p)])
        with pytest.raises(TypeError):
            dot([(bad, 2)])


def test_series_products_make_one_dict_per_coefficient(monkeypatch):
    m = standard_series("M", 10)
    add, radd, calls = Polynomial.__add__, Polynomial.__radd__, []
    monkeypatch.setattr(Polynomial, "__add__", lambda a, b: calls.append(1) or add(a, b))
    monkeypatch.setattr(Polynomial, "__radd__", lambda a, b: calls.append(1) or radd(a, b))
    square = m * m
    assert calls == []
    assert square.coeff(2) == 1
    assert square.coeff(4) == P("1*M1^2 + 2*M2")


def test_poly_sum_makes_no_polynomial_additions(monkeypatch):
    terms = [P(f"{k}*M1^{k} + 1/2*C2") for k in range(1, 19)] + [3, M2]
    add, radd, calls = Polynomial.__add__, Polynomial.__radd__, []
    monkeypatch.setattr(Polynomial, "__add__", lambda a, b: calls.append(1) or add(a, b))
    monkeypatch.setattr(Polynomial, "__radd__", lambda a, b: calls.append(1) or radd(a, b))
    total = poly_sum(terms)
    assert calls == []
    expected = {((M1, k),): k for k in range(1, 19)}
    expected.update({((C2, 1),): 9, ((M2, 1),): 1, (): 3})
    check(total, expected)


def test_integral_scaling_builds_no_fraction(monkeypatch):
    k = 9
    entry = cumulants_from_moments(k, "lagrange").entries[-1]
    residue = entry * (k - 1)
    assert all(type(c) is int for _, c in residue.items())
    scale = Fraction(1, k - 1)
    built = []
    for name in ("__new__", "__mul__", "__rmul__"):
        original = getattr(Fraction, name)
        wrap = (lambda f: lambda *args, **kw: built.append(1) or f(*args, **kw))(original)
        monkeypatch.setattr(Fraction, name, staticmethod(wrap) if name == "__new__" else wrap)
    scaled = residue * scale
    monkeypatch.undo()
    assert built == []
    assert scaled == entry


# -- canonical coefficient form ----------------------------------------------
#
# A stored coefficient is an int exactly when it is integral, else a Fraction.
# Each operation is checked against an oracle that keeps every coefficient as
# a Fraction and shares no code with Polynomial.

def assert_canonical(p):
    for _, c in p.items():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c


def oracle(p) -> dict:
    return {m: Fraction(c) for m, c in p.items()}


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def oracle_split(a: dict, family: int) -> dict:
    parts: dict = {}
    for mono, c in a.items():
        kept = tuple((v, x) for v, x in mono if v.family == family)
        rest = tuple((v, x) for v, x in mono if v.family != family)
        parts.setdefault(rest, {})[kept] = c
    return parts


def check_split(p, a: dict):
    for family in (DELTA, MOMENT, CUMULANT):
        parts = oracle_split(a, family)
        split = p.split_by_family(family)
        assert split.keys() == parts.keys()
        for rest, part in split.items():
            check(part, parts[rest])


def check(result, expected: dict):
    assert_canonical(result)
    assert dict(result.items()) == expected


@settings(max_examples=80, deadline=None)
@given(polynomials, polynomials, rationals, st.integers(0, 3))
def test_operations_keep_the_canonical_form(p, q, r, e):
    a, b = oracle(p), oracle(q)
    for x in (p, q):
        check(x, oracle(x))
        check(Polynomial.parse(x.render()), oracle(x))
    check(Polynomial.constant(r), {(): r} if r else {})
    check(p + q, oracle_add(a, b))
    check(p - q, oracle_add(a, oracle_neg(b)))
    check(-p, oracle_neg(a))
    check(p * q, oracle_mul(a, b))
    check(p * r, oracle_mul(a, {(): r} if r else {}))
    power = {(): Fraction(1)}
    for _ in range(e):
        power = oracle_mul(power, a)
    check(p ** e, power)


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials, rationals)
# a forward entry: its 229 terms share 34 weight parts, each built once
@example(lambda: moments_from_cumulants(8).entry(8), P("1*C1 - 1/2*d2"), Fraction(-3, 2))
def test_substitute_and_split_keep_the_canonical_form(p, q, r):
    if callable(p):  # a table entry, built only when its example runs
        p = p()
    a = oracle(p)
    # d1 takes the scalar r; M1 and every other weight take the polynomial q
    assignment = {v: q for v in p.variables() if v.family == DELTA}
    assignment.update({D1: r, M1: q})
    values = {v: {((v, 1),): Fraction(1)} for v in p.variables()}
    values.update({v: oracle(q) for v in assignment})
    values[D1] = {(): r} if r else {}
    expected: dict = {}
    for mono, c in a.items():
        term = {(): c}
        for var, exp in mono:
            for _ in range(exp):
                term = oracle_mul(term, values[var])
        expected = oracle_add(expected, term)
    check(p.substitute(assignment), expected)
    check_split(p, a)


@settings(max_examples=60, deadline=None)
@given(wide_terms, wide_terms, st.integers(0, 3))
def test_wide_monomials_match_the_oracle(s, t, e):
    a = {m: Fraction(c) for m, c in s.items() if c}
    b = {m: Fraction(c) for m, c in t.items() if c}
    p, q = Polynomial(s), Polynomial(t)
    check(p, a)
    check(Polynomial.parse(p.render()), a)
    check(p + q, oracle_add(a, b))
    check(p * q, oracle_mul(a, b))
    power = {(): Fraction(1)}
    for _ in range(e):
        power = oracle_mul(power, a)
    check(p ** e, power)
    check_split(p * q, oracle_mul(a, b))


def test_integral_values_are_stored_as_ints():
    check(Polynomial.constant(Fraction(4, 2)), {(): 2})
    half = Polynomial.constant(Fraction(1, 2))
    check(half, {(): Fraction(1, 2)})
    check(half + half, {(): 1})
    check(half * 2, {(): 1})
    check(Polynomial.from_variable(M1) * Fraction(1, 3) * 3, {((M1, 1),): 1})
    check(Polynomial({(): Fraction(-6, 3), ((C1, 1),): Fraction(3, 6)}),
          {(): -2, ((C1, 1),): Fraction(1, 2)})
    check(P("4/2*M1 + 1/2*M2 + 1/2*M2"), {((M1, 1),): 2, ((M2, 1),): 1})
    # zero, repeated and integral-Fraction inputs to the constructor and to parse
    check(Polynomial({(): Fraction(4, 2), ((M1, 1),): 0}), {(): 2})
    check(Polynomial({((M1, 1), (M1, 1)): Fraction(1, 2), ((M1, 2),): Fraction(3, 2),
                      ((C1, 1),): Fraction(0, 5)}), {((M1, 2),): 2})
    check(Polynomial({((M1, 1), (C1, 1)): 1, ((C1, 1), (M1, 1)): -1}), {})
    check(P("1*M1 + 1/3*C2 - 1*M1 + 2/3*C2"), {((C2, 1),): 1})
    check(P("1*M1*M1 + 1*M1^2 - 1/2*d1 - 3/2*d1"), {((M1, 2),): 2, ((D1, 1),): -2})
    check(P("1/2*d1 - 1/2*d1"), {})


def test_public_values_are_fractions():
    """Values handed out stay Fractions, integral ones included."""
    p = P("3*M1 + 1/2")
    for value in (
        Polynomial.zero().as_rational(),
        Polynomial.constant(3).as_rational(),
        Polynomial.constant(Fraction(1, 2)).as_rational(),
        p.evaluate({M1: 1}),
        p.evaluate({M1: Fraction(1, 2)}),
        Polynomial.constant(7).evaluate({}),
        Polynomial.zero().evaluate({}),
        as_fraction(5),
        as_fraction(Fraction(5, 1)),
    ):
        assert type(value) is Fraction, value
    assert Polynomial.constant(3).as_rational() == 3
    assert p.evaluate({M1: 1}) == Fraction(7, 2)


def test_as_fraction_hands_back_a_fraction_as_is():
    q = Fraction(3, 7)
    assert as_fraction(q) is q

    class Ratio(Fraction):
        pass

    value = as_fraction(Ratio(3, 7))
    assert type(value) is Fraction and value == q
