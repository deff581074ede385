"""Acceptance gate: nine contract criteria, one reported line each.

Every identity is checked with exact rational arithmetic, so equality is
literal (`==` on polynomials, fractions, and rendered strings); the only
pinned tolerances are the two wall-clock budgets, measured on cold caches.
Each criterion prints a single PASS/FAIL line on the terminal even under
pytest's capture.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from nckit import cumulants as cm
from nckit.ncpart import (
    arcs,
    coarsest,
    enumerate_nc,
    enumerate_set_partitions,
    is_noncrossing,
    kreweras,
    kreweras_inv,
    leq,
    zeta,
    zeta_arc_form,
    zeta_c,
    zeta_c_closed,
)
from nckit.poly import DELTA, Polynomial, cumulant, moment
from nckit.series import LaurentSeries, lagrange_coeff_inverse, standard_series
from nckit.trees import (
    enumerate_arrangements,
    enumerate_prime,
    enumerate_schroder,
    eta,
    internal_count,
    partition_of,
    phi,
    phi_inv,
    weight_arrangement,
    weight_tree,
)


@contextmanager
def report(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS {label}", flush=True)


GOLDEN_MOMENTS = {
    2: "1*C1^2 + 1*C2",
    3: "1*d1*C1*C2 + 1*C1^3 + 2*C1*C2 + 1*C3",
    4: (
        "1*d2*C1^2*C2 + 2*d1*C1^2*C2 + 1*C1^4 + 2*d1*C1*C3 + 1*d2*C2^2"
        " + 3*C1^2*C2 + 2*C1*C3 + 1*C2^2 + 1*C4"
    ),
}

GOLDEN_CUMULANTS = {
    2: "-1*M1^2 + 1*M2",
    3: "1*d1*M1^3 - 1*d1*M1*M2 + 1*M1^3 - 2*M1*M2 + 1*M3",
    4: (
        "-2*d1^2*M1^4 + 2*d1^2*M1^2*M2 - 2*d1*M1^4 + 1*d2*M1^2*M2"
        " + 4*d1*M1^2*M2 - 1*M1^4 - 2*d1*M1*M3 - 1*d2*M2^2 + 3*M1^2*M2"
        " - 2*M1*M3 - 1*M2^2 + 1*M4"
    ),
}


def test_criterion_1_golden_tables(capsys):
    with report(capsys, "criterion 1: golden transform tables render byte-for-byte (cold < 1 s)"):
        start = time.perf_counter()
        cm.clear_caches()
        forward = cm.moments_from_cumulants(4)
        backward = cm.cumulants_from_moments(4)
        for k, text in GOLDEN_MOMENTS.items():
            assert forward.entry(k).render() == text
        for k, text in GOLDEN_CUMULANTS.items():
            assert backward.entry(k).render() == text
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"golden tables took {elapsed:.3f}s"


def test_criterion_2_triple_agreement(capsys):
    with report(capsys, "criterion 2: all three inverse routes agree for n = 1..7 (< 60 s)"):
        start = time.perf_counter()
        cm.clear_caches()
        for n in range(1, 8):
            tables = {m: cm.cumulants_from_moments(n, m) for m in cm.CUMULANT_METHODS}
            reference = tables[cm.METHOD_MOBIUS]
            for method, table in tables.items():
                assert table.entries == reference.entries, (n, method)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"triple agreement took {elapsed:.3f}s"


def test_criterion_3_round_trip(capsys):
    with report(capsys, "criterion 3: symbolic round trip n <= 7; 100 exact numeric round trips n <= 8"):
        for n in range(1, 8):
            forward = cm.moments_from_cumulants(n)
            backward = cm.cumulants_from_moments(n)
            minto = {moment(k): forward.entry(k) for k in range(1, n + 1)}
            cinto = {cumulant(k): backward.entry(k) for k in range(1, n + 1)}
            for k in range(1, n + 1):
                assert backward.entry(k).substitute(minto) == Polynomial.from_variable(cumulant(k))
                assert forward.entry(k).substitute(cinto) == Polynomial.from_variable(moment(k))
        rng = random.Random(20240823)
        for trial in range(100):
            n = rng.randint(1, 8)
            values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            through = cm.numeric_convert(values, weights, "cumulants")
            assert cm.numeric_convert(through, weights, "moments") == values, trial
            through = cm.numeric_convert(values, weights, "moments")
            assert cm.numeric_convert(through, weights, "cumulants") == values, trial


def test_criterion_4_specializations(capsys):
    # The boolean oracle is the series identity B(z) = 1/z - 1/M(z); matching
    # it forces every weight variable to zero, which is what the boolean
    # flavor substitutes (all-ones gives the free values instead).
    with report(capsys, "criterion 4: free (weights 1) and boolean (weights 0) match series oracles, n <= 7"):
        free_oracle = standard_series("F", 7)
        boolean_oracle = standard_series("B", 7)
        free = cm.free_cumulants(7)
        boolean = cm.boolean_cumulants(7)
        for k in range(1, 8):
            assert free.entry(k) == free_oracle.coeff(k - 1), k
            assert boolean.entry(k) == boolean_oracle.coeff(k - 1), k


def test_criterion_5_cancellation(capsys):
    with report(capsys, "criterion 5: pairing cancellation suite exhaustive for n <= 5"):
        psi_cases = cover_cases = 0
        for n in range(1, 6):
            top = coarsest(n)
            for rho in enumerate_nc(n):
                expected = 1 if rho == top else 0
                assert cm.w_rho(rho) == expected, rho
                assert cm.w_rho_via_arrangements(rho) == expected, rho
                if rho == top:
                    continue
                dual = kreweras_inv(rho)
                for a in enumerate_arrangements(n):
                    if not leq(partition_of(a), dual):
                        continue
                    b = cm.psi(a, rho)
                    assert b != a, "pairing has a fixed point"
                    assert cm.psi(b, rho) == a, "pairing is not an involution"
                    assert abs(len(a.components) - len(b.components)) == 1
                    assert zeta_c(partition_of(a), dual) * weight_arrangement(a) == zeta_c(
                        partition_of(b), dual
                    ) * weight_arrangement(b)
                    psi_cases += 1
                    try:
                        assert cm.verify_cover_identity(a, rho) is True
                        cover_cases += 1
                    except cm.PreconditionViolated:
                        pass  # merge-case instance; the identity concerns splits
        assert psi_cases > 0 and cover_cases * 2 == psi_cases


def test_criterion_6_structural_lemmas(capsys):
    with report(capsys, "criterion 6: structural lemmas exhaustive for n <= 6"):
        for n in range(1, 7):
            parts = enumerate_nc(n)
            for p in parts:
                assert len(arcs(p)) + p.block_count == n
                for q in parts:
                    assert zeta(p, q) == zeta_arc_form(p, q), (p, q)
                    assert zeta_c(p, q) == zeta_c_closed(p, q), (p, q)
            for t in enumerate_prime(n):
                a = phi(t)
                assert kreweras(partition_of(a)) == eta(t)
                assert eta(t).block_count == internal_count(t)
                assert weight_arrangement(a) == weight_tree(t)
                assert phi_inv(a) == t


def test_criterion_7_counting(capsys):
    with report(capsys, "criterion 7: enumeration counts match brute force and the tree bijection"):
        for n in range(1, 9):
            brute = sum(1 for p in enumerate_set_partitions(n) if is_noncrossing(p))
            assert len(enumerate_nc(n)) == brute, n
        assert len(enumerate_schroder(2)) == 3
        assert len(enumerate_prime(2)) == 2
        assert len(enumerate_schroder(3)) == 11
        assert len(enumerate_prime(3)) == 6
        for n in range(1, 7):
            primes = enumerate_prime(n)
            arrangements = enumerate_arrangements(n)
            assert len(arrangements) == len(primes), n
            assert {phi(t).components for t in primes} == {
                a.components for a in arrangements
            }, n


def test_criterion_8_series_engine(capsys):
    with report(capsys, "criterion 8: inversion identities on 50 random series at order 12"):
        rng = random.Random(12)
        for trial in range(50):
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(10)
            ]
            f = LaurentSeries(1, coeffs, 12)
            g = f.comp_inverse()
            z_over_g = g.recip().shift(1)
            for n in range(1, 12):
                assert lagrange_coeff_inverse(f, n) == g.coeff(n), (trial, n)
                if n < z_over_g.order:
                    hermite = (f.derivative() * (f.recip().shift(1) ** n)).coeff(n)
                    assert z_over_g.coeff(n) == hermite, (trial, n)
        for trial in range(50):
            low = rng.randint(-4, 2)
            coeffs = [
                Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                for _ in range(rng.randint(2, 9))
            ]
            d = LaurentSeries(low, coeffs).derivative()
            if d.low <= -1 < d.order:
                assert d.coeff(-1) == 0, trial


def test_criterion_9_sign_pattern(capsys):
    with report(capsys, "criterion 9: each moment-term coefficient is a signed nonnegative integer weight polynomial, n <= 7"):
        # Per-partition form: the inversion column entry for pi carries sign
        # (-1)^(blocks-1) times delta-monomials with positive integer weights.
        for n in range(1, 8):
            for p, value in cm._mu_top_column(n):
                sign = (-1) ** (p.block_count - 1)
                assert value, p
                for _, coeff in value.items():
                    signed = sign * coeff
                    assert signed > 0 and signed.denominator == 1, (n, p)
        # Collected form: grouping the table entries by moment monomial keeps
        # the same sign pattern, now indexed by the block-size profile.
        table = cm.cumulants_from_moments(7)
        for k in range(1, 8):
            for mono, cofactor in table.entry(k).split_by_family(DELTA).items():
                sign = (-1) ** (sum(exp for _, exp in mono) - 1)
                for _, coeff in cofactor.items():
                    signed = sign * coeff
                    assert signed > 0 and signed.denominator == 1, (k, mono)
