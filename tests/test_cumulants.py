"""Tests for the moment/cumulant transform tables and the pairing apparatus."""

import csv
import hashlib
import io
import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from nckit import cumulants as cumulants_module
from nckit.cumulants import (
    CUMULANT_METHODS,
    DIRECTION_CUMULANTS,
    DIRECTION_MOMENTS,
    FLAVOR_BOOLEAN,
    FLAVOR_DELTA,
    FLAVOR_FREE,
    METHOD_LAGRANGE,
    METHOD_MOBIUS,
    METHOD_TREES,
    LengthMismatch,
    PreconditionViolated,
    TransformTable,
    _CUMULANT_ENTRIES,
    _block_key,
    _coarsenings,
    _column_entries,
    _first_block,
    _lagrange_entries,
    _mu_top_column,
    _subtree_sum,
    _tree_column,
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
    GroundMismatch,
    NoncrossingPartition,
    coarsest,
    enumerate_nc,
    finest,
    is_interval,
    kreweras,
    kreweras_inv,
    leq,
    standardize,
    weight,
    zeta,
    zeta_arc_form,
    zeta_c,
)
from nckit.poly import (
    DELTA, Polynomial, cumulant, delta, dot, moment, poly_sum, shift_sum, specialize_family,
)
from nckit.series import (
    LaurentSeries,
    constant_series,
    identity_series,
    monomial_series,
    standard_series,
)
from nckit.trees import (
    Arrangement,
    _trees_with_leaves,
    enumerate_arrangements,
    enumerate_prime,
    enumerate_schroder,
    partition_of,
    weight_arrangement,
)

from test_trees import eta_by_walk, weight_tree_by_walk

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


def lagrange_entry(k):
    """Entry k of the lagrange route, built from scratch at order k + 2."""
    if k == 1:
        return Polynomial.from_variable(moment(1))
    n_ord = k + 2
    m = standard_series("M", n_ord)
    d = standard_series("Delta", n_ord)
    main = m.derivative() * m.recip().power(2)
    base = main - monomial_series(-2, 1, main.order)
    ratio = base * m.hadamard(d).recip().power(k - 1)
    return ratio.coeff(-1) * Fraction(1, k - 1)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
def test_lagrange_main_series_starts_with_one_z_to_the_minus_2(n):
    # the one pass sums its residues from z^-1 on, dropping exactly this term
    m = standard_series("M", n + 2)
    main = m.derivative() * m.recip() ** 2
    assert main.low == -2
    assert main._at(-2) == 1
    # M'/M^2 = -(1/M)', the form the route builds with no series product
    assert -m.recip().derivative() == main  # window and coefficients


def test_lagrange_one_pass_matches_per_entry_formula():
    oracle = tuple(lagrange_entry(k) for k in range(1, 11))
    for n in range(1, 11):
        assert _lagrange_entries(n) == oracle[:n], n


def lagrange_by_running_power(n):
    """The lagrange entries from a running power of h = 1/(M⊙Δ): one series
    product per entry, truncated to the exponents the later entries read,
    where the route reads each power off h by its binomial rescale."""
    m = standard_series("M", n + 2)
    inv = m.recip()
    main = m.derivative() * (inv * inv)
    h = m.hadamard(standard_series("Delta", n + 2)).recip()
    entries, pw = [Polynomial.from_variable(moment(1))], h
    for k in range(2, n + 1):
        residue = dot((main._at(i), pw._at(-1 - i)) for i in range(-1, -pw.low))
        entries.append(residue * Fraction(1, k - 1))
        pw = (pw * h).truncate(n - k)
    return tuple(entries)


def test_lagrange_matches_the_running_power():
    for n in range(1, 17):
        assert _lagrange_entries(n) == lagrange_by_running_power(n), n


# sha256 of the lagrange n=20 text, recorded where each entry read a running
# power of h; its binomials reach about 10^10
LAGRANGE_20_SHA256 = "833807d84b75b066d4f2115a5d0c892c1120bbfef98b5b90ff1f388366b8a8a5"


def test_lagrange_render_at_n_20_is_pinned():
    text = cumulants_from_moments(20, METHOD_LAGRANGE).render_text()
    assert hashlib.sha256(text.encode()).hexdigest() == LAGRANGE_20_SHA256


def test_lagrange_and_free_series_multiply_no_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("a series product")

    for name in ("__mul__", "__rmul__", "__pow__", "power"):
        monkeypatch.setattr(LaurentSeries, name, refuse)
    _lagrange_entries.cache_clear()
    assert len(_lagrange_entries(12)) == 12
    assert standard_series("F", 12).order == 12


def test_lagrange_entries_extend_by_one():
    for n in range(1, 10):
        assert _lagrange_entries(n + 1)[:n] == _lagrange_entries(n), n


def first_block_witness(n):
    """C_1..C_n in the M and d variables as the triangular solve of the
    first-block recursion (``_first_block`` with ``inverse=True``).

    It shares only that recursion with the forward table, and no series,
    lattice or tree code with the three inverse routes.
    """
    ms = [Polynomial.from_variable(moment(k)) for k in range(1, n + 1)]
    ds = [Polynomial.from_variable(delta(k)) for k in range(1, n + 1)]
    return _first_block(ms, ds, True)


@pytest.fixture(scope="module")
def witness():
    # entry k of the solve reads only M_1..M_k, so each n is a prefix
    return first_block_witness(14)


def test_lagrange_matches_first_block_witness(witness):
    for n in range(1, 15):
        assert list(cumulants_from_moments(n, METHOD_LAGRANGE).entries) == witness[:n], n


def test_combinatorial_routes_match_first_block_witness(witness):
    for method in (METHOD_MOBIUS, METHOD_TREES):
        for n in range(1, 8):
            assert list(cumulants_from_moments(n, method).entries) == witness[:n], (method, n)


def test_first_block_witness_specializations(witness):
    for kind, value in (("F", 1), ("B", 0)):
        series = standard_series(kind, 12)
        values = {delta(k): value for k in range(1, 13)}
        for k in range(1, 13):
            assert witness[k - 1].substitute(values) == series.coeff(k - 1), (kind, k)


def test_lagrange_past_the_witness_evaluates_to_numeric_convert():
    # lagrange n=16 at one seeded rational point, against the integer path
    n, rng = 16, random.Random(16)
    ms, ds = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in "md")
    point = {moment(k): ms[k - 1] for k in range(1, n + 1)}
    point.update({delta(k): ds[k - 1] for k in range(1, n + 1)})
    expected = numeric_convert(ms, ds, DIRECTION_CUMULANTS)
    assert [e.evaluate(point) for e in cumulants_from_moments(n, METHOD_LAGRANGE).entries] == expected


def test_every_route_returns_n_entries():
    for method, entries in _CUMULANT_ENTRIES.items():
        for n in range(1, 6):
            assert len(entries(n)) == n, (method, n)


def test_builders_validate_n():
    with pytest.raises(ValueError):
        moments_from_cumulants(0)
    for method in CUMULANT_METHODS:
        with pytest.raises(ValueError):
            cumulants_from_moments(0, method)
    with pytest.raises(ValueError):
        cumulants_from_moments(3, "secret")
    # a bool is not a size, and a float used to reach range() as a bare TypeError
    for n in (True, False, 2.0, Fraction(3), "3", None):
        with pytest.raises(TypeError, match="n must be an int"):
            moments_from_cumulants(n)
        for method in CUMULANT_METHODS:
            with pytest.raises(TypeError, match="n must be an int"):
                cumulants_from_moments(n, method)


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


def csv_writer_rendering(table):
    # the csv module's rendering of the table, kept as the oracle for to_csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "polynomial"])
    for k, entry in enumerate(table.entries, start=1):
        writer.writerow([k, entry.render()])
    return buf.getvalue()


def test_to_csv_matches_the_csv_writer():
    for n in range(1, 7):
        tables = [moments_from_cumulants(n)]
        tables += [cumulants_from_moments(n, m) for m in CUMULANT_METHODS]
        for table in tables:
            for flavor in (FLAVOR_DELTA, FLAVOR_FREE, FLAVOR_BOOLEAN):
                flat = specialize_table(table, flavor)
                assert flat.to_csv() == csv_writer_rendering(flat)


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

def linear_extension(n):
    """NC(n) finer before coarser, as the mobius route orders it."""
    return [p for p, _ in _mu_top_column(n)]


def test_zeta_matrix_unitriangular():
    for n in range(1, 6):
        parts = linear_extension(n)
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


@cache
def mu_top_column_by_scan(n):
    """The top column by back-substitution over every later partition,
    keeping those above p by ``leq``; it copies no value."""
    parts = linear_extension(n)
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
    # bit j of up[i] stands for parts[i + j]; same[i] is i or a later partition
    # whose value the scan, which makes no copies, gives parts[i] too
    for n in range(1, 8):
        parts = linear_extension(n)
        scan = mu_top_column_by_scan(n)
        up, same = _coarsenings(parts)
        assert len(up) == len(same) == len(parts)
        for i, p in enumerate(parts):
            above = {j for j, q in enumerate(parts) if leq(p, q)}
            assert {i + j for j in range(up[i].bit_length()) if up[i] >> j & 1} == above, p
            assert same[i] >= i and scan[same[i]][1] == scan[i][1], p


def mirror_blocks(p):
    """The blocks of p under x -> n + 1 - x, in canonical order."""
    return tuple(sorted(tuple(p.size + 1 - x for x in reversed(b)) for b in p.blocks))


def mirror(p):
    return NoncrossingPartition(mirror_blocks(p), range(1, p.size + 1))


def test_zeta_is_mirror_invariant():
    # an arc's weight counts the members of a q-block inside it, which the mirror keeps
    for n in range(1, 7):
        pairs = [(p, mirror(p)) for p in enumerate_nc(n)]
        for (p, pbar), (q, qbar) in product(pairs, repeat=2):
            assert zeta_arc_form(pbar, qbar) == zeta_arc_form(p, q), (p, q)


def test_columns_are_mirror_invariant():
    # the scan copies nothing, and the trees column reads no lattice code
    for column, top_n in ((mu_top_column_by_scan, 7), (_tree_column, 10)):
        for n in range(1, top_n + 1):
            values = {p.blocks: value for p, value in column(n)}
            assert all(values[mirror_blocks(p)] == value for p, value in column(n)), n


@pytest.mark.parametrize("n, computed", [(7, 197), (9, 2089)])
def test_mobius_back_substitutes_one_partition_per_copy_class(monkeypatch, n, computed):
    # one zeta-key walk per partition whose mirror and twin (if 1 ~ 2) come no
    # later; every other partition copies its value (429 and 4,862 in all)
    calls, zeta_keys = [], cumulants_module._zeta_keys

    def counted(p, coarser):
        calls.append(p)
        return zeta_keys(p, coarser)

    monkeypatch.setattr(cumulants_module, "_zeta_keys", counted)
    _mu_top_column(n)
    assert len(calls) == len(set(calls)) == computed


def test_mu_n2_explicit():
    assert dict(_mu_top_column(2)) == {finest(2): -1, coarsest(2): 1}


def tree_column_by_tree(n):
    """The tree column one prime tree at a time: each tree's weight goes to
    the partition it maps to, with sign (-1)^(blocks - 1).  Both are read by
    the test walks over enumerated trees, while the column builds no tree."""
    groups = {}
    for t in enumerate_prime(n):
        p = NoncrossingPartition(eta_by_walk(t), range(1, n + 1))
        groups.setdefault(p, []).append(weight_tree_by_walk(t))
    return {
        p: (-1) ** (p.block_count - 1) * poly_sum(weights)
        for p, weights in groups.items()
    }


def test_tree_column_matches_per_tree_grouping():
    for n in range(1, 9):
        assert dict(_tree_column(n)) == tree_column_by_tree(n), n


def test_tree_column_matches_matrix_column():
    for n in range(1, 8):
        for p, value in _mu_top_column(n):
            assert mu_column_via_trees(p) == value


def test_tree_column_examples():
    assert mu_column_via_trees(coarsest(4)) == 1
    assert mu_column_via_trees(finest(2)) == -1


def test_tree_column_needs_the_standard_ground():
    shifted = NoncrossingPartition([(2, 3), (5,)])
    assert mu_column_via_trees(standardize(shifted)) == -1
    for f in (mu_column_via_trees, w_rho):
        with pytest.raises(GroundMismatch):
            f(shifted)


def test_tree_column_needs_a_nonempty_ground():
    for f in (mu_column_via_trees, w_rho):
        with pytest.raises(ValueError, match=r"^need n >= 1$"):
            f(NoncrossingPartition([]))


def leaf_masks(p):
    return tuple(sum(1 << x - 1 for x in b) for b in p.blocks)


def test_subtree_sums_count_the_schroder_trees():
    # at every d = 1 the trees on m + 1 leaves, summed over the partitions
    # their blocks make, are the little Schroder numbers 3, 11, 45, ...
    for m in range(1, 9):
        for leftmost in (True, False):
            total = sum(
                specialize_family(_subtree_sum(leaf_masks(p), m + 1, leftmost), DELTA, 1)
                for p in enumerate_nc(m)
            )
            assert total == len(enumerate_schroder(m)), (m, leftmost)
    assert len(enumerate_schroder(8)) == 20793


def test_tree_column_counts_the_prime_trees():
    # and the prime trees on n + 1 leaves, one per tree up to the sign: 1, 2, 6, ...
    for n in range(1, 9):
        total = sum(
            (-1) ** (p.block_count - 1) * specialize_family(value, DELTA, 1)
            for p, value in _tree_column(n)
        )
        assert total == len(enumerate_prime(n)), n
    assert len(enumerate_prime(8)) == 8558


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


# -- the columns past n = 7 ---------------------------------------------------

@pytest.fixture(scope="module")
def mobius_columns():
    """``_mu_top_column`` memoised, so the checks below and the mobius route's
    n = 9 entries share one build of the columns for n <= 9."""
    return cache(_mu_top_column)


def mobius_values(p):
    """The Mobius function mu(p, 1_n) of NC(n), the product over the blocks B
    of kreweras(p) of (-1)^(|B|-1) Cat(|B|-1), and that of the interval
    partitions, (-1)^(blocks-1) on an interval partition and 0 elsewhere."""
    free = prod((-1) ** (len(b) - 1) * comb(2 * len(b) - 2, len(b) - 1) // len(b)
                for b in kreweras(p).blocks)
    return free, (-1) ** (p.block_count - 1) if is_interval(p) else 0


def test_columns_specialize_to_the_free_and_boolean_mobius_functions(mobius_columns):
    # every weight 1 gives the Mobius function of NC(n), every weight 0 that
    # of the interval partitions, both against 1_n; criterion 9's sign
    # pattern holds on the same range
    for n in range(1, 10):
        expected = {p: mobius_values(p) for p in enumerate_nc(n)}
        for column in (mobius_columns(n), _tree_column(n)):
            assert len(column) == len(expected), n
            for p, value in column:
                free, boolean = expected[p]
                assert specialize_family(value, DELTA, 1) == free, (n, p)
                assert specialize_family(value, DELTA, 0) == boolean, (n, p)
                sign = (-1) ** (p.block_count - 1)
                assert all(type(c) is int and sign * c > 0 for _, c in value.items()), (n, p)


def test_mobius_past_the_witness_evaluates_to_numeric_convert(mobius_columns):
    # the mobius route's entries over the shared columns, at one seeded rational point
    n, rng = 9, random.Random(9)
    ms, ds = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in "md")
    point = {moment(k): ms[k - 1] for k in range(1, n + 1)}
    point.update({delta(k): ds[k - 1] for k in range(1, n + 1)})
    expected = numeric_convert(ms, ds, DIRECTION_CUMULANTS)
    assert [e.evaluate(point) for e in _column_entries(mobius_columns, n)] == expected


def test_tree_column_at_n_10_specializes_to_the_mobius_functions():
    # the closed forms above, past the mobius route's reach in the suite
    for p, value in _tree_column(10):
        free, boolean = mobius_values(p)
        assert specialize_family(value, DELTA, 1) == free, p
        assert specialize_family(value, DELTA, 0) == boolean, p


def test_trees_past_the_witness_evaluates_to_numeric_convert():
    n, rng = 10, random.Random(10)
    ms, ds = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in "md")
    point = {moment(k): ms[k - 1] for k in range(1, n + 1)}
    point.update({delta(k): ds[k - 1] for k in range(1, n + 1)})
    expected = numeric_convert(ms, ds, DIRECTION_CUMULANTS)
    table = cumulants_from_moments(n, METHOD_TREES)
    assert [e.evaluate(point) for e in table.entries] == expected


def entries_by_size(column, n):
    """Entries 1..n of a column route, one column per size: entry k is the
    column of size k against moment products (the path before the read-off)."""
    return tuple(
        shift_sum((_block_key(p), val) for p, val in column(k)) for k in range(1, n + 1)
    )


def test_column_entries_are_read_off_the_top_column(mobius_columns):
    for column, top in ((mobius_columns, 9), (_tree_column, 8)):
        for n in range(1, top + 1):
            assert _column_entries(column, n) == entries_by_size(column, n), (column, n)


def test_appending_to_the_last_block_keeps_the_column_value(mobius_columns):
    # iota(p) joins k+1..n to the block of k: the interval [iota(p), 1_n] is
    # [p, 1_k] with the same zeta weights, so the column value is unchanged;
    # the trees column reaches n = 10
    for column, top_n in ((mobius_columns, 8), (_tree_column, 10)):
        for n in range(2, top_n + 1):
            top = dict(column(n))
            for k in range(1, n):
                tail, values = tuple(range(k + 1, n + 1)), dict(column(k))
                for p in enumerate_nc(k):
                    image = NoncrossingPartition([b + tail if k in b else b for b in p.blocks])
                    assert top[image] == values[p], (n, p)


def test_dropping_a_leading_singleton_pair_keeps_the_column_value(mobius_columns):
    # the left-hand twin of the test above: if 1 ~ 2 in p, removing 1 and
    # shifting the ground down keeps the column value
    for column, top_n in ((mobius_columns, 9), (_tree_column, 10)):
        for n in range(2, top_n + 1):
            values, twins = dict(column(n - 1)), 0
            for p, value in column(n):
                if p.block_of(1)[1:2] == (2,):
                    rest = [[x - 1 for x in b if x != 1] for b in p.blocks]
                    assert value == values[NoncrossingPartition(rest)], (n, p)
                    twins += 1
            assert twins == len(values), n  # one p per partition of n - 1


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


DENOMINATORS = (1, 2, 3, 4, 9, 10007, 2**61 - 1)  # the last two prime


def rationals(denominators=DENOMINATORS):
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from(denominators))


@st.composite
def sequences(draw):
    """A sequence and its weights: weights with denominator 1 only, all zero,
    over large prime denominators, or mixed."""
    n = draw(st.integers(0, 30))
    weights = draw(st.sampled_from([
        st.integers(-3, 3), st.just(0), rationals((10007, 2**61 - 1)), rationals(),
    ]))
    return draw(st.lists(rationals(), min_size=n, max_size=n)), draw(
        st.lists(weights, min_size=n, max_size=n)
    )


@settings(max_examples=30, deadline=None)
@given(sequences())
@example(([], []))
@example(([Fraction(1, 3)] * 20, [1] * 19 + [Fraction(1, 2**521 - 1)]))  # past _SCALE_BITS
def test_numeric_convert_matches_the_fraction_recursion(sequence):
    """The scaled integer path equals the recursion run on Fractions, the call
    the symbolic table makes, in both directions, and returns Fractions; each
    output, whose denominators grow with its index, goes back through the
    other direction."""
    values, deltas = sequence
    weights = [Fraction(d) for d in deltas]
    for direction, other in ((DIRECTION_MOMENTS, DIRECTION_CUMULANTS),
                             (DIRECTION_CUMULANTS, DIRECTION_MOMENTS)):
        out = numeric_convert(values, deltas, direction)
        assert out == _first_block(values, weights, direction == DIRECTION_CUMULANTS)
        assert all(type(x) is Fraction for x in out)
        back = numeric_convert(out, deltas, other)
        assert back == _first_block(out, weights, other == DIRECTION_CUMULANTS)


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


def test_numeric_convert_returns_fractions():
    """Integral results stay Fractions, as the README example shows."""
    for direction in (DIRECTION_MOMENTS, DIRECTION_CUMULANTS):
        for values in ([1, 1, 1], [Fraction(1, 2), 2, Fraction(3, 4)]):
            out = numeric_convert(values, [1, 2, Fraction(1, 3)], direction)
            assert [type(x) for x in out] == [Fraction] * 3, out


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


# -- integer coefficients ----------------------------------------------------

def test_table_and_column_coefficients_are_ints():
    """Every coefficient of the tables, the columns and the arc weights is
    integral, so each must be stored as an int: a Fraction with denominator 1
    keeps the output right and only slows the arithmetic, and no other test
    would notice it."""
    for n in range(1, 8):
        polys = list(moments_from_cumulants(n).entries)
        for method in CUMULANT_METHODS:
            polys.extend(cumulants_from_moments(n, method).entries)
        for column in (_mu_top_column, _tree_column):
            polys.extend(value for _, value in column(n))
        polys.extend(weight(p) for p in enumerate_nc(n))
        leaked = {type(c) for p in polys for _, c in p.items()} - {int}
        assert leaked == set(), (n, leaked)


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

def w_rho_by_zeta(rho):
    # the accumulation with one blockwise zeta polynomial per partition above rho
    return poly_sum(
        zeta(rho, p) * val for p, val in _tree_column(rho.size) if leq(rho, p)
    )


def test_w_rho_matches_the_zeta_products():
    for n in range(1, 7):
        for rho in enumerate_nc(n):
            assert w_rho(rho) == w_rho_by_zeta(rho), rho


def test_w_values():
    for n in range(1, 5):
        for rho in enumerate_nc(n):
            expected = 1 if rho == coarsest(n) else 0
            assert w_rho(rho) == expected
            assert w_rho_via_arrangements(rho) == expected


def test_w_values_at_random_rho_up_to_nine():
    # w_rho filters the tree column by leq, so this runs the order past the n <= 6 sweeps
    rng = random.Random(9)
    for n in range(7, 10):
        for rho in [coarsest(n), finest(n), *rng.sample(enumerate_nc(n), 8)]:
            assert w_rho(rho) == (1 if rho == coarsest(n) else 0), rho


def test_psi_involution_exhaustive():
    cases = 0
    for n in range(2, 6):
        for rho in enumerate_nc(n):
            if rho == coarsest(n):
                continue
            dual = kreweras_inv(rho)
            domain = [
                a for a in enumerate_arrangements(n) if leq(partition_of(a), dual)
            ]
            for a in domain:
                b = psi(a, rho)
                assert b == Arrangement(b.components)  # psi skips the validation
                assert b != a
                assert psi(b, rho) == a
                assert abs(len(b.components) - len(a.components)) == 1
                assert zeta_c(partition_of(a), dual) * weight_arrangement(
                    a
                ) == zeta_c(partition_of(b), dual) * weight_arrangement(b)
                cases += 1
    assert cases == 460


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
    kept = before.entry(4)
    text = kept.render()
    clear_caches()
    after = cumulants_from_moments(4)
    assert before == after
    # packed monomial keys stay valid: clearing never resets variable slots
    assert kept == after.entry(4)
    assert kept.render() == text


def test_clear_caches_empties_every_package_cache(capsys):
    import sys

    from nckit.cli import main

    clear_caches()
    assert main(["table", "delta", "--direction", "cumulants", "--method", "trees", "--n", "4"]) == 0
    assert capsys.readouterr().out.startswith("C1 = 1*M1\n")
    # the trees route sums over partitions and builds no tree
    assert _trees_with_leaves.cache_info().currsize == 0
    assert _subtree_sum.cache_info().currsize
    for method in CUMULANT_METHODS:
        cumulants_from_moments(4, method)
    moments_from_cumulants(4)
    enumerate_arrangements(4)
    kreweras_inv(kreweras(coarsest(4)))
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "nckit" or name.startswith("nckit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    caches[f"{value.__module__}.{value.__qualname__}"] = value
    assert any(f.cache_info().currsize for f in caches.values())
    assert caches["nckit.ncpart.kreweras"].cache_info().currsize
    assert caches["nckit.ncpart.kreweras_inv"].cache_info().currsize
    # one entry per column route: the mobius and the trees table of size 4
    assert caches["nckit.cumulants._column_entries"].cache_info().currsize == 2
    assert caches["nckit.cumulants._subtree_sum"].cache_info().currsize
    clear_caches()
    assert {
        name: f.cache_info().currsize
        for name, f in caches.items()
        if f.cache_info().currsize
    } == {}


def test_all_names_exist():
    import nckit.cumulants as cm

    assert [name for name in cm.__all__ if not hasattr(cm, name)] == []
