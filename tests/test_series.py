"""Window bookkeeping, inversion and composition checks for the series engine."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nckit.poly import DELTA, MOMENT, Polynomial, delta, moment
from nckit.series import (
    LaurentSeries,
    NonUnitLeadingCoefficient,
    NotInvertible,
    OutOfTruncationRange,
    PositiveValuationRequired,
    constant_series,
    identity_series,
    lagrange_coeff_inverse,
    monomial_series,
    standard_series,
    zero_series,
)

F = Fraction


def series_of(low, *coeffs, order=None):
    return LaurentSeries(low, list(coeffs), order)


def rational_coeffs(s, lo, hi):
    return [s.coeff(k).as_rational() for k in range(lo, hi)]


# -- window semantics --------------------------------------------------------

def test_coeff_window():
    f = series_of(-1, 2, 0, 5)  # 2/z + 5z on [-1, 2)
    assert f.coeff(-3) == 0
    assert f.coeff(-1) == 2
    assert f.coeff(0) == 0
    assert f.coeff(1) == 5
    # scalars are kept inside; coeff() hands out a Polynomial in and below the window
    assert all(isinstance(f.coeff(k), Polynomial) for k in range(-3, 2))
    assert repr(f) == "LaurentSeries[-1, 2)(z^-1: 2, z^0: 0, z^1: 5)"
    with pytest.raises(OutOfTruncationRange):
        f.coeff(2)


def test_leading_zero_normalization():
    f = series_of(-2, 0, 0, 7)
    assert f.low == 0 and f.order == 1
    assert f.coeff(0) == 7
    assert f.coeff(-1) == 0
    z = series_of(1, 0, 0, 0)
    assert z.is_zero and z.low == 3 and z.order == 4


def test_constructor_validation():
    with pytest.raises(ValueError):
        LaurentSeries(0, [1, 2], order=5)
    with pytest.raises(ValueError):
        LaurentSeries(3, [], order=3)
    for bad in (1.5, True, "1"):
        with pytest.raises(TypeError):
            LaurentSeries(0, [bad])
        with pytest.raises(TypeError):
            LaurentSeries(0, [1, 2]).scale(bad)
    assert LaurentSeries(0, [delta(1)]).coeff(0) == Polynomial.from_variable(delta(1))


def test_constructor_messages():
    with pytest.raises(ValueError, match=r"^window \[0, 5\) needs 5 coefficients, got 2$"):
        LaurentSeries(0, [1, 2], order=5)
    with pytest.raises(ValueError, match=r"^empty window \[3, 3\)$"):
        LaurentSeries(3, [], order=3)
    with pytest.raises(
        TypeError, match=r"^series coefficients must be polynomials or rationals, got 1\.5$"
    ):
        LaurentSeries(0, [1.5])
    with pytest.raises(
        TypeError, match=r"^series coefficients must be polynomials or rationals, got True$"
    ):
        LaurentSeries(0, [1, 2]).scale(True)
    # "a" met "a" + 1 in the window arithmetic, and a float order was kept
    for low, order in (("a", None), (F(0), None), (0, 1.0), (True, 2), (0, "1")):
        with pytest.raises(TypeError, match=r"^window bounds must be ints, got \["):
            LaurentSeries(low, [1], order)


def test_operations_do_not_revalidate_coefficients(monkeypatch):
    import nckit.series as series

    f = standard_series("M", 8)
    g = series_of(0, 0, 2, F(1, 3), delta(1))
    check, calls = series._as_coefficient, []
    monkeypatch.setattr(series, "_as_coefficient", lambda c: calls.append(c) or check(c))
    results = [
        f * g, f + g, f - g, f.recip(), f.shift(2), f.truncate(4), f.truncate(1),
        f.derivative(), f.hadamard(g), f ** 3,
    ]
    assert calls == [-1]  # f - g scales g by -1: the factor is checked, no coefficient
    assert f.scale(2).coeffs == tuple(2 * c for c in f.coeffs)
    assert calls == [-1, 2]
    # the leading-zero strip still runs on every result
    assert g.low == 1 and (g - g).low == 3
    assert [r.low for r in results] == [2, 1, 1, -1, 3, 1, 0, 0, 1, 3]


def test_rational_series_build_no_polynomials(monkeypatch):
    f = LaurentSeries(1, [F(2), -1, F(1, 3), 5, 0, F(-7, 2), 1, 2, F(1, 5), -3, 4])
    assert f.order == 12
    raw, built = Polynomial._raw, []
    monkeypatch.setattr(Polynomial, "_raw", staticmethod(lambda t: built.append(1) or raw(t)))
    f.recip(), f ** 5, f.derivative(), f.compose(f), f.comp_inverse()
    assert len(built) == 0


def test_add_mul_window_rules():
    f = series_of(1, 1, 1, 1)          # [1, 4)
    g = series_of(2, 1, 1)             # [2, 4)
    assert (f + g).order == 4 and (f + g).low == 1
    h = f * g
    assert h.low == 3 and h.order == min(4 + 2, 4 + 1)
    assert h.coeff(3) == 1 and h.coeff(4) == 2


small_fractions = st.one_of(
    st.just(F(0)), st.fractions(min_value=F(-4), max_value=F(4), max_denominator=4)
)
small_series = st.builds(
    LaurentSeries, st.integers(-3, 3), st.lists(small_fractions, min_size=1, max_size=6)
)


unit_series = st.builds(
    lambda lead, tail: LaurentSeries(1, [lead] + tail),
    st.sampled_from([F(1), F(-1), F(1, 2), F(3)]),
    st.lists(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5), min_size=4, max_size=9),
)


def pairwise_product(f, g, order):
    """Coefficients of f * g below `order`, accumulated over stored index pairs."""
    acc = {}
    for i, ci in enumerate(f.coeffs, start=f.low):
        for j, cj in enumerate(g.coeffs, start=g.low):
            if i + j < order:
                acc[i + j] = acc.get(i + j, Polynomial.zero()) + ci * cj
    return acc


@settings(max_examples=100, deadline=None)
@given(small_series, small_series)
def test_mul_matches_pairwise_accumulation(f, g):
    h = f * g
    order = min(f.order + g.low, g.order + f.low)
    assert h.order == order
    if not f.is_zero and not g.is_zero:
        assert h.low == f.low + g.low
    expected = pairwise_product(f, g, order)
    for k in range(f.low + g.low, order):
        assert h.coeff(k) == expected.get(k, Polynomial.zero())


@pytest.mark.parametrize("order", range(2, 9))
def test_symbolic_recip_multiplies_to_one(order):
    m = standard_series("M", order)
    for f in (m, m.hadamard(standard_series("Delta", order))):
        h = f * f.recip()
        assert (h.low, h.order) == (0, order - 1)
        assert h.coeff(0) == 1
        assert all(h.coeff(k) == 0 for k in range(1, h.order))


def test_hadamard_rule():
    f = series_of(0, 2, 3, 4)
    g = series_of(1, 5, 7, 11)
    h = f.hadamard(g)
    assert h.low == 1 and h.order == 3
    assert h.coeff(1) == 15 and h.coeff(2) == 28
    with pytest.raises(ValueError):
        series_of(0, 1).hadamard(series_of(3, 1))


def test_derivative_drops_order_by_one():
    f = series_of(-1, 3, 9, 4, 5)  # 3/z + 9 + 4z + 5z^2 on [-1, 3)
    d = f.derivative()
    assert d.low == -2 and d.order == 2
    assert d.coeff(-2) == -3
    assert d.coeff(0) == 4
    assert d.coeff(1) == 10


def test_truncate_and_shift():
    f = series_of(0, 1, 2, 3)
    assert f.truncate(2).order == 2
    assert f.truncate(2).coeff(1) == 2
    assert f.shift(3).low == 3 and f.shift(3).order == 6
    t = f.truncate(0)
    assert t.is_zero and t.order == 0


# -- reciprocal --------------------------------------------------------------

def test_recip_geometric_series():
    one_minus_z = series_of(0, 1, -1, 0, 0, 0, 0, 0, 0)
    g = one_minus_z.recip()
    assert g.low == 0 and g.order == 8
    assert rational_coeffs(g, 0, 8) == [1] * 8


def test_recip_window_rule():
    f = series_of(2, 1, 4, 1)  # window [2, 5)
    g = f.recip()
    assert g.low == -2 and g.order == 5 - 4
    assert g.coeff(-2) == 1


def test_recip_errors():
    with pytest.raises(NotInvertible):
        zero_series(4).recip()
    poly_lead = LaurentSeries(0, [Polynomial.from_variable(moment(1)), 1])
    with pytest.raises(NonUnitLeadingCoefficient):
        poly_lead.recip()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-2, 2),
    st.lists(st.fractions(min_value=F(-5), max_value=F(5), max_denominator=6), min_size=1, max_size=6),
    st.fractions(min_value=F(1, 3), max_value=F(5), max_denominator=4),
)
def test_recip_multiplies_to_one(low, tail, lead):
    f = LaurentSeries(low, [lead] + tail)
    g = f.recip()
    h = f * g
    assert h.coeff(0) == 1
    for k in range(h.low, h.order):
        if k != 0:
            assert h.coeff(k) == 0


def test_power_zero_window():
    f = series_of(2, 1, 4, 1)
    p = f ** 0
    assert p.low == 0 and p.order == 3 and p.coeff(0) == 1
    assert (f ** -1) == f.recip()


@pytest.mark.parametrize("k", [True, False, 2.0])
def test_power_rejects_bool_and_float_exponents(k):
    f = standard_series("M", 4)  # f ** True used to return f
    with pytest.raises(TypeError, match="series powers must be integers"):
        f ** k
    with pytest.raises(TypeError, match="series powers must be integers"):
        f.power(k)


def power_by_products(f, k):
    """f^k as |k| - 1 successive products of f or of its reciprocal."""
    if k == 0:
        return constant_series(1, f.order - f.low)
    g = f if k > 0 else f.recip()
    result = g
    for _ in range(abs(k) - 1):
        result = result * g
    return result


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_series, unit_series), st.integers(-3, 12))
def test_power_matches_repeated_products(f, k):
    assume(k >= 0 or not f.is_zero)
    p = f ** k
    q = power_by_products(f, k)
    assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)


def binomial_rescale(p, r, family):
    """p with each term of degree l in the family times C(r+l-1, l), the
    degree read off each monomial."""
    def degree(mono):
        return sum(exp for var, exp in mono if var.family == family)

    return Polynomial({mono: c * comb(r + degree(mono) - 1, degree(mono)) for mono, c in p.items()})


@pytest.mark.parametrize("r", range(1, 8))
def test_powers_of_the_lagrange_h_are_binomial_rescales_of_h(r):
    # h = 1/(M⊙Δ) = z^-1 (1 + Y)^-1 with Y = sum d_j*M_j*z^j, and 1/M likewise
    # with Y = sum M_j*z^j; by the negative binomial series [z^e] h^r is
    # [z^(e+r-1)] h, each term of degree l in the family (the count of its
    # factors of Y) times C(r+l-1, l)
    order = 12
    m = standard_series("M", order)
    lagrange_h = m.hadamard(standard_series("Delta", order)).recip()
    for h, family in ((lagrange_h, DELTA), (m.recip(), MOMENT)):
        power = h.power(r)
        assert (power.low, power.order) == (-r, order - 1 - r)
        for e in range(power.low, power.order):
            assert power.coeff(e) == binomial_rescale(h.coeff(e + r - 1), r, family), (family, r, e)


def free_by_running_power(order):
    """F_1..F_order from a running power of 1/M, one series product per
    entry, where standard_series("F") reads each power off 1/M."""
    inv = standard_series("M", order + 2).recip()
    coeffs, pw = [moment(1)], inv
    for n in range(2, order + 1):
        coeffs.append(pw.coeff(1) * Fraction(-1, n - 1))
        pw = pw * inv
    return LaurentSeries(0, coeffs, order)


def test_free_cumulant_series_matches_the_running_power():
    for order in range(1, 17):
        assert standard_series("F", order) == free_by_running_power(order), order


# -- composition -------------------------------------------------------------

def test_compose_moebius_pair():
    n = 9
    f = series_of(1, *([1] * (n - 1)))              # z/(1-z)
    g = series_of(1, *[(-1) ** k for k in range(n - 1)])  # z/(1+z)
    h = f.compose(g)
    assert h.coeff(1) == 1
    for k in range(2, h.order):
        assert h.coeff(k) == 0


def test_compose_requires_valuations():
    f = series_of(0, 1, 1)
    bad_inner = series_of(0, 1, 1)
    with pytest.raises(PositiveValuationRequired):
        f.compose(bad_inner)
    laurent_outer = series_of(-1, 1, 1)
    with pytest.raises(PositiveValuationRequired):
        laurent_outer.compose(series_of(1, 1))


def test_compose_order_rule():
    f = series_of(0, *[1] * 6)   # order 6
    g = series_of(2, 1, 1)       # low 2, order 4
    h = f.compose(g)
    assert h.order == min(6 * 2, 4 + (1 - 1) * 2)
    f2 = series_of(3, 1, 1)      # low 3, order 5
    h2 = f2.compose(g)
    assert h2.order == min(5 * 2, 4 + 2 * 2)
    assert h2.low == 6


def compose_by_series_sums(f, g):
    """f(g) as the sum of c_k * g^k from the zero series, one series + per term,
    each power g^k made on its own by `**`."""
    k0 = max(f.low, 1)
    target = min(f.order * g.low, g.order + (k0 - 1) * g.low)
    result = zero_series(target)
    for k, c in enumerate(f.coeffs, start=f.low):
        if c:
            pw = constant_series(1, target) if k == 0 else (g ** k).truncate(target)
            result = result + pw.scale(c)
    return result


composable_coeffs = st.one_of(
    st.just(0),
    small_fractions,
    st.builds(
        lambda v, a, b: Polynomial.from_variable(v) * a + b,
        st.sampled_from([delta(1), moment(2)]),
        small_fractions,
        st.integers(-2, 2),
    ),
)


D1 = Polynomial.from_variable(delta(1))
INNER = [1, F(1, 2), D1, -3]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([0, 1, 2]),
    st.lists(composable_coeffs, min_size=1, max_size=6),
    st.integers(1, 2),
    st.lists(composable_coeffs, min_size=1, max_size=6),
)
@example(0, [5], 1, INNER)  # a constant outer series
@example(0, [D1, 0, 0, 1], 1, INNER)  # zero coefficients
@example(2, [0, 0, 7], 2, [1, D1])
@example(1, [0, 0, 0], 1, INNER)  # the zero outer series
@example(0, [1, 2, 3], 1, [0, 0])  # the zero inner series
@example(0, [1] * 7, 1, [1] * 7)  # every term nonzero
def test_compose_matches_series_sums(outer_low, outer, inner_low, inner):
    f, g = LaurentSeries(outer_low, outer), LaurentSeries(inner_low, inner)
    h, expected = f.compose(g), compose_by_series_sums(f, g)
    assert (h.low, h.order) == (expected.low, expected.order)
    assert [h.coeff(k) for k in range(h.low, h.order)] == [
        expected.coeff(k) for k in range(h.low, h.order)
    ]


def test_comp_inverse_catalan():
    n = 8
    f = identity_series(n) - monomial_series(2, 1, n)  # z - z^2
    g = f.comp_inverse()
    # inverse is the Catalan generating series times z
    assert rational_coeffs(g, 1, 8) == [1, 1, 2, 5, 14, 42, 132]
    assert f.compose(g).coeff(1) == 1
    assert all(f.compose(g).coeff(k) == 0 for k in range(2, f.compose(g).order))


def test_comp_inverse_errors():
    with pytest.raises(NotInvertible):
        series_of(2, 1, 1).comp_inverse()
    with pytest.raises(NotInvertible):
        zero_series(5, low=1).comp_inverse()
    poly_linear = LaurentSeries(1, [Polynomial.from_variable(delta(1)), 1])
    with pytest.raises(NonUnitLeadingCoefficient):
        poly_linear.comp_inverse()


@settings(max_examples=30, deadline=None)
@given(unit_series)
def test_comp_inverse_round_trip(f):
    g = f.comp_inverse()
    assert g.order == f.order
    h = f.compose(g)
    assert h.coeff(1) == 1
    for k in range(2, h.order):
        assert h.coeff(k) == 0


@settings(max_examples=30, deadline=None)
@given(unit_series, st.integers(1, 6))
def test_lagrange_matches_direct_inverse(f, n):
    if n < f.order:
        direct = f.comp_inverse().coeff(n)
        assert lagrange_coeff_inverse(f, n) == direct


def test_lagrange_catalan_value():
    f = identity_series(9) - monomial_series(2, 1, 9)
    assert lagrange_coeff_inverse(f, 3) == 2
    assert lagrange_coeff_inverse(f, 5) == 14


def test_lagrange_requires_enough_order():
    f = identity_series(4) - monomial_series(2, 1, 4)
    with pytest.raises(OutOfTruncationRange):
        lagrange_coeff_inverse(f, 4)
    with pytest.raises(ValueError):
        lagrange_coeff_inverse(f, 0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(-3, 1),
    st.lists(st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5), min_size=2, max_size=7),
)
def test_residue_of_derivative_vanishes(low, coeffs):
    f = LaurentSeries(low, coeffs)
    d = f.derivative()
    if d.low <= -1 < d.order:
        assert d.coeff(-1) == 0


# -- standard series ---------------------------------------------------------

def test_standard_series_shapes():
    m = standard_series("M", 5)
    assert m.low == 1 and m.order == 5
    assert m.coeff(1) == 1
    assert m.coeff(3) == Polynomial.from_variable(moment(2))
    d = standard_series("Delta", 4)
    assert d.coeff(2) == Polynomial.from_variable(delta(1))
    c = standard_series("C", 3)
    assert c.low == 0 and c.coeff(2) == Polynomial.parse("1*C3")
    with pytest.raises(ValueError):
        standard_series("Q", 4)


def test_standard_series_free_kind():
    f = standard_series("F", 4)
    assert f.coeff(0) == Polynomial.parse("1*M1")
    assert f.coeff(1) == Polynomial.parse("1*M2 - 1*M1^2")
    assert f.coeff(2) == Polynomial.parse("1*M3 - 3*M1*M2 + 2*M1^3")


def test_standard_series_boolean_kind():
    b = standard_series("B", 4)
    assert b.coeff(0) == Polynomial.parse("1*M1")
    assert b.coeff(1) == Polynomial.parse("1*M2 - 1*M1^2")
    assert b.coeff(2) == Polynomial.parse("1*M3 - 2*M1*M2 + 1*M1^3")


def test_hermite_style_coefficient_identity():
    # [z^n] (z / f^{<-1>}) equals [z^n] f'(z) * (z/f)^n
    f = LaurentSeries(1, [F(1), F(2), F(-1), F(1, 2), F(3), F(-2), F(1)])
    g = f.comp_inverse()
    z_over_g = g.recip().shift(1)
    for n in range(1, z_over_g.order):
        rhs = (f.derivative() * (f.recip().shift(1) ** n)).coeff(n)
        assert z_over_g.coeff(n) == rhs
