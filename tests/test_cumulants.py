"""Tests for the moment/cumulant transform tables and the pairing apparatus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nckit.cumulants import (
    CUMULANT_METHODS,
    DIRECTION_CUMULANTS,
    DIRECTION_MOMENTS,
    FLAVOR_BOOLEAN,
    FLAVOR_FREE,
    LengthMismatch,
    PreconditionViolated,
    TransformTable,
    _coarsenings,
    _linear_extension,
    _mu_top_column,
    boolean_cumulants,
    clear_caches,
    cumulants_from_moments,
    free_cumulants,
    moments_from_cumulants,
    mu_column_via_trees,
    numeric_convert,
    product_cumulant,
    product_moment,
    psi,
    specialize_table,
    verify_cover_identity,
    w_rho,
    w_rho_via_arrangements,
)
from nckit.ncpart import (
    NoncrossingPartition,
    coarsest,
    enumerate_nc,
    finest,
    kreweras_inv,
    leq,
    weight,
    zeta,
    zeta_arc_form,
    zeta_c,
)
from nckit.poly import Polynomial, cumulant, delta, moment, poly_sum
from nckit.series import (
    LaurentSeries,
    constant_series,
    identity_series,
    standard_series,
)
from nckit.trees import (
    enumerate_arrangements,
    partition_of,
    weight_arrangement,
)

GOLDEN_MOMENTS = {
    1: "1*C1",
    2: "1*C1^2 + 1*C2",
    3: "1*d1*C1*C2 + 1*C1^3 + 2*C1*C2 + 1*C3",
    4: "1*d2*C1^2*C2 + 2*d1*C1^2*C2 + 1*C1^4 + 2*d1*C1*C3 + 1*d2*C2^2"
       " + 3*C1^2*C2 + 2*C1*C3 + 1*C2^2 + 1*C4",
}

GOLDEN_CUMULANTS = {
    1: "1*M1",
    2: "-1*M1^2 + 1*M2",
    3: "1*d1*M1^3 - 1*d1*M1*M2 + 1*M1^3 - 2*M1*M2 + 1*M3",
    4: "-2*d1^2*M1^4 + 2*d1^2*M1^2*M2 - 2*d1*M1^4 + 1*d2*M1^2*M2"
       " + 4*d1*M1^2*M2 - 1*M1^4 - 2*d1*M1*M3 - 1*d2*M2^2 + 3*M1^2*M2"
       " - 2*M1*M3 - 1*M2^2 + 1*M4",
}


# -- forward tables ----------------------------------------------------------

def test_forward_golden_tables():
    table = moments_from_cumulants(4)
    for k, text in GOLDEN_MOMENTS.items():
        assert table.entry(k).render() == text


def yoshida_moment(k):
    """Yoshida's formula by enumeration: the weighted sum over the lattice."""
    return poly_sum(weight(p) * product_cumulant(p) for p in enumerate_nc(k))


def test_forward_table_matches_yoshida_enumeration():
    oracle = tuple(yoshida_moment(k) for k in range(1, 9))
    for n in range(1, 9):
        assert moments_from_cumulants(n).entries == oracle[:n]


def test_inverse_golden_tables():
    table = cumulants_from_moments(4)
    for k, text in GOLDEN_CUMULANTS.items():
        assert table.entry(k).render() == text


def test_product_helpers():
    p = NoncrossingPartition([[1, 4, 6], [2, 3], [5]])
    assert product_moment(p) == Polynomial.parse("1*M1*M2*M3")
    assert product_cumulant(p) == Polynomial.parse("1*C1*C2*C3")
    assert product_moment(coarsest(5)) == Polynomial.from_variable(moment(5))
    assert product_moment(finest(5)) == Polynomial.from_variable(moment(1)) ** 5


def test_triple_agreement_small():
    for n in range(1, 6):
        tables = [cumulants_from_moments(n, m) for m in CUMULANT_METHODS]
        for other in tables[1:]:
            assert other.entries == tables[0].entries


def test_builders_validate_n():
    with pytest.raises(ValueError):
        moments_from_cumulants(0)
    for method in CUMULANT_METHODS:
        with pytest.raises(ValueError):
            cumulants_from_moments(0, method)
    with pytest.raises(ValueError):
        cumulants_from_moments(3, "secret")


# -- table object ------------------------------------------------------------

def test_table_metadata_and_serialization():
    table = cumulants_from_moments(3, "trees")
    assert table.n == 3
    assert table.direction == DIRECTION_CUMULANTS
    assert table.method == "trees"
    assert table.target_symbol == "C"
    assert table.render_text().splitlines()[0] == "C1 = 1*M1"
    data = table.to_json_dict()
    assert data["n"] == 3
    assert data["entries"][1] == {"index": 2, "polynomial": "-1*M1^2 + 1*M2"}
    lines = table.to_csv().splitlines()
    assert lines[0] == "index,polynomial"
    assert lines[1] == "1,1*M1"
    with pytest.raises(ValueError):
        table.entry(0)
    with pytest.raises(ValueError):
        table.entry(4)


def test_table_rejects_nontriangular_entries():
    good = [Polynomial.from_variable(moment(1))]
    bad = [Polynomial.from_variable(moment(2))]
    TransformTable(1, DIRECTION_CUMULANTS, "mobius", good)
    with pytest.raises(ValueError):
        TransformTable(1, DIRECTION_CUMULANTS, "mobius", bad)
    with pytest.raises(ValueError):
        TransformTable(1, "sideways", "mobius", good)
    with pytest.raises(ValueError):
        TransformTable(1, DIRECTION_CUMULANTS, "guesswork", good)


# -- inverse column ----------------------------------------------------------

def test_zeta_matrix_unitriangular():
    for n in range(1, 6):
        parts = _linear_extension(n)
        for i, p in enumerate(parts):
            assert zeta(p, p) == 1
            for j, q in enumerate(parts):
                if j < i or not leq(p, q):
                    assert zeta(p, q).is_zero


def test_mu_column_inverts_zeta():
    # zeta times the top column of its inverse is the top unit vector
    for n in range(1, 6):
        column = _mu_top_column(n)
        top = column[-1][0]
        assert top == coarsest(n)
        for p, _ in column:
            row = poly_sum(zeta(p, q) * value for q, value in column)
            assert row == (1 if p == top else 0)


def mu_top_column_by_scan(n):
    """The top column by back-substitution over every later partition,
    keeping those above p by ``leq``."""
    parts = _linear_extension(n)
    values = {parts[-1]: Polynomial.one()}
    for i in range(len(parts) - 2, -1, -1):
        p = parts[i]
        values[p] = -poly_sum(
            zeta_arc_form(p, q) * values[q] for q in parts[i + 1 :] if leq(p, q)
        )
    return tuple((p, values[p]) for p in parts)


def test_mu_column_matches_leq_scan():
    for n in range(1, 8):
        assert _mu_top_column(n) == mu_top_column_by_scan(n), n


def test_coarsenings_are_the_up_sets():
    for n in range(1, 8):
        parts = _linear_extension(n)
        for p, up in zip(parts, _coarsenings(n)):
            above = {j for j, q in enumerate(parts) if leq(p, q)}
            assert {j for j in range(len(parts)) if up >> j & 1} == above, p


def test_mu_n2_explicit():
    assert dict(_mu_top_column(2)) == {finest(2): -1, coarsest(2): 1}


def test_tree_column_matches_matrix_column():
    for n in range(1, 6):
        for p, value in _mu_top_column(n):
            assert mu_column_via_trees(p) == value


def test_tree_column_examples():
    assert mu_column_via_trees(coarsest(4)) == 1
    assert mu_column_via_trees(finest(2)) == -1


def test_v_pi_top_value():
    # the tree column at the top partition is v_pi(1_n) of the paper
    for n in range(1, 5):
        assert mu_column_via_trees(coarsest(n)) == 1


def test_tree_column_free_specialization_is_classical_mobius():
    # at weight 1 the column must agree with the lattice Mobius function,
    # computed here by the textbook recursion
    for n in range(1, 6):
        parts = enumerate_nc(n)
        classical = {coarsest(n): Fraction(1)}
        for p in sorted(parts, key=lambda q: q.block_count):
            if p == coarsest(n):
                continue
            classical[p] = -sum(
                classical[q] for q in parts if p != q and leq(p, q)
            )
        for p in parts:
            column = mu_column_via_trees(p)
            ones = {v: 1 for v in column.variables()}
            assert column.substitute(ones) == classical[p]


# -- round trips -------------------------------------------------------------

def test_symbolic_round_trip_small():
    for n in range(1, 6):
        mtab = moments_from_cumulants(n)
        ctab = cumulants_from_moments(n)
        minto = {moment(k): mtab.entry(k) for k in range(1, n + 1)}
        cinto = {cumulant(k): ctab.entry(k) for k in range(1, n + 1)}
        for k in range(1, n + 1):
            assert ctab.entry(k).substitute(minto) == Polynomial.from_variable(
                cumulant(k)
            )
            assert mtab.entry(k).substitute(cinto) == Polynomial.from_variable(
                moment(k)
            )


def test_numeric_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randint(1, 6)
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        ds = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        cums = numeric_convert(vals, ds, DIRECTION_CUMULANTS)
        assert numeric_convert(cums, ds, DIRECTION_MOMENTS) == vals
        moms = numeric_convert(vals, ds, DIRECTION_MOMENTS)
        assert numeric_convert(moms, ds, DIRECTION_CUMULANTS) == vals


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_numeric_convert_evaluates_the_symbolic_tables(data):
    n = data.draw(st.integers(1, 7))
    values = data.draw(st.lists(small_rationals, min_size=n, max_size=n))
    deltas = data.draw(st.lists(small_rationals, min_size=n, max_size=n))
    weights = {delta(k): deltas[k - 1] for k in range(1, n + 1)}
    for direction, table, source in (
        (DIRECTION_MOMENTS, moments_from_cumulants(n), cumulant),
        (DIRECTION_CUMULANTS, cumulants_from_moments(n), moment),
    ):
        assignment = {source(k): values[k - 1] for k in range(1, n + 1)}
        assignment.update(weights)
        expected = [table.entry(k).evaluate(assignment) for k in range(1, n + 1)]
        assert numeric_convert(values, deltas, direction) == expected


def test_numeric_convert_examples():
    assert numeric_convert([1, 1, 1], [1, 1, 1], DIRECTION_CUMULANTS) == [1, 0, 0]
    assert numeric_convert([0, 0, 0, 0], [2, 3, 4, 5], DIRECTION_CUMULANTS) == [
        0,
        0,
        0,
        0,
    ]
    # power sequences collapse to a single leading cumulant, whatever the weights
    m = Fraction(3, 2)
    powers = [m, m**2, m**3, m**4]
    assert numeric_convert(powers, [7, 0, -2, 9], DIRECTION_CUMULANTS) == [
        m,
        0,
        0,
        0,
    ]
    assert numeric_convert([], [], DIRECTION_CUMULANTS) == []


def test_numeric_convert_errors():
    with pytest.raises(LengthMismatch):
        numeric_convert([1, 2], [1], DIRECTION_CUMULANTS)
    with pytest.raises(ValueError):
        numeric_convert([1], [1], "upwards")
    for values, deltas in (
        ([Fraction(1, 2)], [0.5]),
        ([0.5], [1]),
        ([0.1, 0.2], [True, 0.3]),
        ([1], [True]),
        (["1/2"], [1]),
    ):
        with pytest.raises(TypeError):
            numeric_convert(values, deltas, DIRECTION_CUMULANTS)


# -- specializations ---------------------------------------------------------

def test_free_and_boolean_tables():
    free = free_cumulants(4)
    assert free.flavor == FLAVOR_FREE
    assert free.entry(3) == Polynomial.parse("1*M3 - 3*M1*M2 + 2*M1^3")
    assert free.entry(4) == Polynomial.parse(
        "1*M4 - 4*M1*M3 - 2*M2^2 + 10*M1^2*M2 - 5*M1^4"
    )
    boolean = boolean_cumulants(4)
    assert boolean.flavor == FLAVOR_BOOLEAN
    assert boolean.entry(3) == Polynomial.parse("1*M3 - 2*M1*M2 + 1*M1^3")
    assert boolean.entry(4) == Polynomial.parse(
        "1*M4 - 2*M1*M3 - 1*M2^2 + 3*M1^2*M2 - 1*M1^4"
    )


def test_specializations_match_series_oracles():
    f = standard_series("F", 6)
    b = standard_series("B", 6)
    free = free_cumulants(6)
    boolean = boolean_cumulants(6)
    for k in range(1, 7):
        assert free.entry(k) == f.coeff(k - 1)
        assert boolean.entry(k) == b.coeff(k - 1)


def test_specialize_moments_direction():
    free_m = specialize_table(moments_from_cumulants(3), FLAVOR_FREE)
    assert free_m.entry(3) == Polynomial.parse("1*C3 + 3*C1*C2 + 1*C1^3")
    bool_m = specialize_table(moments_from_cumulants(3), FLAVOR_BOOLEAN)
    assert bool_m.entry(3) == Polynomial.parse("1*C3 + 2*C1*C2 + 1*C1^3")
    with pytest.raises(ValueError):
        specialize_table(moments_from_cumulants(2), "classical")


# -- the forward series equation ---------------------------------------------

def moment_series(table, order):
    """z + M1*z^2 + M2*z^3 + ... with each M_k taken from the table."""
    return LaurentSeries(1, [1] + [table.entry(k) for k in range(1, order - 1)], order)


def solve_series_equation(f, inner):
    """z / (1 - z*C(inner)), on the window of f."""
    z = identity_series(f.order)
    c = standard_series("C", f.order)
    one = constant_series(1, f.order)
    return (z * (one - z * c.compose(inner)).recip()).truncate(f.order)


def test_forward_series_solves_delta_equation():
    # the forward table is the solution of f = z / (1 - z*C(f (.) Delta)),
    # where (.) is the coefficientwise product
    order = 8
    f = moment_series(moments_from_cumulants(order - 2), order)
    assert f.coeff(2) == Polynomial.from_variable(cumulant(1))
    d = standard_series("Delta", order)
    assert solve_series_equation(f, f.hadamard(d)) == f


def test_forward_series_free_specialization():
    # with all weights at 1 the moment series must satisfy the plain
    # compositional relation f = z / (1 - z*C(f))
    order = 8
    table = specialize_table(moments_from_cumulants(order - 2), FLAVOR_FREE)
    f = moment_series(table, order)
    assert solve_series_equation(f, f) == f


# -- cancellation apparatus --------------------------------------------------

def test_w_values():
    for n in range(1, 5):
        for rho in enumerate_nc(n):
            expected = 1 if rho == coarsest(n) else 0
            assert w_rho(rho) == expected
            assert w_rho_via_arrangements(rho) == expected


def test_psi_involution_exhaustive():
    for n in range(2, 5):
        for rho in enumerate_nc(n):
            if rho == coarsest(n):
                continue
            dual = kreweras_inv(rho)
            domain = [
                a for a in enumerate_arrangements(n) if leq(partition_of(a), dual)
            ]
            for a in domain:
                b = psi(a, rho)
                assert b != a
                assert psi(b, rho) == a
                assert abs(len(b.components) - len(a.components)) == 1
                assert zeta_c(partition_of(a), dual) * weight_arrangement(
                    a
                ) == zeta_c(partition_of(b), dual) * weight_arrangement(b)


def test_psi_frozen_pair():
    # three dots, base block {1, 3}: the all-singletons arrangement pairs
    # with the one joining dots 1 and 3 over the nested singleton 2
    rho = NoncrossingPartition([[1, 2], [3]])
    assert kreweras_inv(rho).render() == "13|2"
    singles = enumerate_arrangements(3)[0]
    assert partition_of(singles).render() == "1|2|3"
    merged = psi(singles, rho)
    assert partition_of(merged).render() == "13|2"
    assert merged.components == (((1, 3), ((), ())), ((2,), ()))
    assert psi(merged, rho) == singles


def test_psi_preconditions():
    a = enumerate_arrangements(3)[0]
    with pytest.raises(PreconditionViolated):
        psi(a, coarsest(3))
    with pytest.raises(PreconditionViolated):
        psi(a, finest(4))  # size mismatch
    rho = NoncrossingPartition([[1, 2], [3]])
    cherry_left = next(
        x for x in enumerate_arrangements(3)
        if partition_of(x).render() == "12|3"
    )
    with pytest.raises(PreconditionViolated):
        psi(cherry_left, rho)  # 12|3 is not below 13|2


def test_cover_identity():
    for n in range(2, 5):
        for rho in enumerate_nc(n):
            if rho == coarsest(n):
                continue
            dual = kreweras_inv(rho)
            base = next(b for b in dual.blocks if len(b) >= 2)
            for a in enumerate_arrangements(n):
                part = partition_of(a)
                if not leq(part, dual):
                    continue
                if part.block_of(base[0]) == part.block_of(base[-1]):
                    assert verify_cover_identity(a, rho)
                else:
                    with pytest.raises(PreconditionViolated):
                        verify_cover_identity(a, rho)


def test_cache_clearing_is_consistent():
    before = cumulants_from_moments(4)
    clear_caches()
    after = cumulants_from_moments(4)
    assert before == after


def test_clear_caches_empties_every_package_cache():
    import sys

    for method in CUMULANT_METHODS:
        cumulants_from_moments(4, method)
    moments_from_cumulants(4)
    enumerate_arrangements(4)
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "nckit" or name.startswith("nckit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    assert any(f.cache_info().currsize for f in caches.values())
    clear_caches()
    assert {
        name: f.cache_info().currsize
        for name, f in caches.items()
        if f.cache_info().currsize
    } == {}


def test_all_names_exist():
    import nckit.cumulants as cm

    assert [name for name in cm.__all__ if not hasattr(cm, name)] == []
