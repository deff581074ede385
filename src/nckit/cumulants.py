"""Transforms between moment and cumulant sequences, with a weight parameter.

The forward direction expands each moment as Yoshida's weighted sum of
cumulant products over noncrossing partitions.  The first-block recursion
computes it without enumerating: split the sum at the block that contains 1,
whose gaps fill independently.  Run over Fractions, the same recursion
converts numeric sequences in both directions without a symbolic table.
Three independent routes invert the forward table, chosen by name in one
table read by ``cumulants_from_moments``:

* ``mobius``   -- back-substitution for the top column (the entries against
  the full partition) of the inverse of the weighted incidence matrix on the
  noncrossing partition lattice, walking only the coarsenings of each
  partition (its up-set, built from block merges); the default route;
* ``trees``    -- a signed sum over prime plane trees, each contributing the
  moment product of its partition times its weight; the trees of size n are
  summed once into one column of (partition, signed weight) pairs;
* ``lagrange`` -- residue extraction from a Laurent-series identity that
  involves a Hadamard product.

All three must produce identical polynomials; the test suite enforces this.
Setting every weight variable to 1 specializes to free cumulants, setting
them all to 0 to boolean cumulants.  Numeric conversion accepts only exact
scalars (ints and Fractions) and raises ``TypeError`` on anything else.

The second half of the module is verification apparatus for the top column:
its entries ``mu_column_via_trees``, read from the same tree column, their
zeta-weighted accumulations ``w_rho`` (equal to 1 at the full partition and 0
elsewhere), and the sign-reversing involution ``psi`` on arrangements that
proves the cancellation, together with the cover/interval-count identity it
hinges on.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .ncpart import (
    NoncrossingPartition,
    coarsest,
    enumerate_nc,
    iota,
    kreweras_inv,
    leq,
    restrict,
    zeta,
    zeta_arc_form,
    zeta_c,
)
from .poly import (
    DELTA,
    Polynomial,
    as_fraction,
    cumulant,
    delta,
    moment,
    poly_product,
    poly_sum,
)
from .series import monomial_series, standard_series
from .trees import (
    Arrangement,
    cover_counts,
    enumerate_arrangements,
    enumerate_prime,
    eta,
    n_leaves,
    partition_of,
    weight_arrangement,
    weight_tree,
)

__all__ = [
    "CUMULANT_METHODS",
    "DEFAULT_METHOD",
    "DIRECTION_CUMULANTS",
    "DIRECTION_MOMENTS",
    "FLAVOR_BOOLEAN",
    "FLAVOR_DELTA",
    "FLAVOR_FREE",
    "LengthMismatch",
    "METHOD_LAGRANGE",
    "METHOD_MOBIUS",
    "METHOD_TREES",
    "METHOD_YOSHIDA",
    "PreconditionViolated",
    "TransformTable",
    "boolean_cumulants",
    "clear_caches",
    "cumulants_from_moments",
    "free_cumulants",
    "moments_from_cumulants",
    "mu_column_via_trees",
    "numeric_convert",
    "product_cumulant",
    "product_moment",
    "psi",
    "specialize_table",
    "verify_cover_identity",
    "w_rho",
    "w_rho_via_arrangements",
]


class LengthMismatch(Exception):
    """Numeric conversion needs one weight value per sequence entry."""


class PreconditionViolated(Exception):
    """The pairing map was called outside its domain."""


DIRECTION_MOMENTS = "moments"
DIRECTION_CUMULANTS = "cumulants"
_DIRECTIONS = (DIRECTION_MOMENTS, DIRECTION_CUMULANTS)

METHOD_YOSHIDA = "yoshida"
METHOD_MOBIUS = "mobius"
METHOD_TREES = "trees"
METHOD_LAGRANGE = "lagrange"
CUMULANT_METHODS = (METHOD_MOBIUS, METHOD_TREES, METHOD_LAGRANGE)
DEFAULT_METHOD = METHOD_MOBIUS
_METHODS = (METHOD_YOSHIDA,) + CUMULANT_METHODS

FLAVOR_DELTA = "delta"
FLAVOR_FREE = "free"
FLAVOR_BOOLEAN = "boolean"
_FLAVORS = (FLAVOR_DELTA, FLAVOR_FREE, FLAVOR_BOOLEAN)

_FLAVOR_VALUES = {FLAVOR_FREE: Fraction(1), FLAVOR_BOOLEAN: Fraction(0)}


# -- tables ------------------------------------------------------------------

class TransformTable:
    """Symbolic expressions of one sequence in terms of the other.

    ``entries[k-1]`` expresses the k-th moment (direction "moments") or the
    k-th cumulant (direction "cumulants"); entry k only involves variable
    indices up to k.
    """

    __slots__ = ("n", "direction", "method", "flavor", "entries")

    def __init__(self, n, direction, method, entries, flavor=FLAVOR_DELTA):
        if direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        if flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        entries = tuple(entries)
        if len(entries) != n or n < 1:
            raise ValueError(f"expected {n} entries, got {len(entries)}")
        for k, entry in enumerate(entries, start=1):
            bad = [v for v in entry.variables() if v.index > k]
            if bad:
                raise ValueError(
                    f"entry {k} is not triangular: contains {bad[0].symbol()}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "flavor", flavor)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("TransformTable is immutable")

    def entry(self, k: int) -> Polynomial:
        if not 1 <= k <= self.n:
            raise ValueError(f"entry index {k} outside 1..{self.n}")
        return self.entries[k - 1]

    @property
    def target_symbol(self) -> str:
        return "M" if self.direction == DIRECTION_MOMENTS else "C"

    def __eq__(self, other):
        if not isinstance(other, TransformTable):
            return NotImplemented
        return (
            self.n == other.n
            and self.direction == other.direction
            and self.method == other.method
            and self.flavor == other.flavor
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"TransformTable(n={self.n}, direction={self.direction!r}, "
            f"method={self.method!r}, flavor={self.flavor!r})"
        )

    def render_text(self) -> str:
        sym = self.target_symbol
        return "\n".join(
            f"{sym}{k} = {entry.render()}"
            for k, entry in enumerate(self.entries, start=1)
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "direction": self.direction,
            "method": self.method,
            "flavor": self.flavor,
            "entries": [
                {"index": k, "polynomial": entry.render()}
                for k, entry in enumerate(self.entries, start=1)
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "polynomial"])
        for k, entry in enumerate(self.entries, start=1):
            writer.writerow([k, entry.render()])
        return buf.getvalue()


@lru_cache(maxsize=None)
def _linear_extension(n: int) -> tuple:
    """All noncrossing partitions, finer before coarser."""
    return tuple(
        sorted(enumerate_nc(n), key=lambda p: (-p.block_count, p.blocks))
    )


# -- forward direction -------------------------------------------------------

def product_moment(p: NoncrossingPartition) -> Polynomial:
    """Product of one moment variable per block, indexed by block size."""
    return poly_product(moment(len(b)) for b in p.blocks)


def product_cumulant(p: NoncrossingPartition) -> Polynomial:
    return poly_product(cumulant(len(b)) for b in p.blocks)


def _first_block(seq, deltas, inverse: bool, one) -> list:
    """Yoshida's formula split at the block that contains 1, over any ring.

    With G = 1 + sum_g d_g*M_g*z^g and P[j][b] = [z^b] G^j*(1 + sum_t M_t*z^t),
    M_n = sum_k C_k*P[k-1][n-k]: the k - 1 gaps of the first block fill
    independently (a gap of g elements contributes d_g*M_g) and the elements
    after it are free.  Step n fills the anti-diagonal j + b = n - 1 of P from
    earlier ones.  C_n enters M_n with coefficient 1, so the inverse
    (``seq`` holds moments) is a triangular solve.  Returns the other sequence.
    """
    zero = one - one
    moments, cumulants, gaps, rows = [one], [], [one], []
    for n, (x, d) in enumerate(zip(seq, deltas), start=1):
        rows.append([])
        rows[0].append(moments[-1])
        for j in range(1, n):
            b, prev = n - 1 - j, rows[j - 1]
            rows[j].append(sum((gaps[a] * prev[b - a] for a in range(b + 1)), zero))
        rest = sum((cumulants[k - 1] * rows[k - 1][n - k] for k in range(1, n)), zero)
        c, m = (x - rest, x) if inverse else (x, x + rest)
        cumulants.append(c)
        moments.append(m)
        gaps.append(d * m)
    return cumulants if inverse else moments[1:]


@lru_cache(maxsize=None)
def _moment_entries(n: int) -> tuple:
    def variables(family):
        return [Polynomial.from_variable(family(k)) for k in range(1, n + 1)]

    return tuple(
        _first_block(variables(cumulant), variables(delta), False, Polynomial.one())
    )


def moments_from_cumulants(n: int) -> TransformTable:
    """Each moment as the weighted sum of cumulant products over the lattice."""
    if n < 1:
        raise ValueError("need n >= 1")
    return TransformTable(n, DIRECTION_MOMENTS, METHOD_YOSHIDA, _moment_entries(n))


# -- inverse direction: three routes ----------------------------------------

def _coarsenings(n: int) -> list:
    """Per partition of ``_linear_extension(n)``, the bitset of the indices of
    the partitions above it: its own bit or'd with the bitsets of its covers,
    the merges of two blocks that stay noncrossing, filled coarsest first."""
    parts = _linear_extension(n)
    index = {p.blocks: i for i, p in enumerate(parts)}
    up = [1 << i for i in range(len(parts))]
    for i in range(len(parts) - 1, -1, -1):
        blocks = parts[i].blocks
        for a, b in combinations(blocks, 2):
            rest = [c for c in blocks if c is not a and c is not b]
            merged = tuple(sorted(rest + [tuple(sorted(a + b))]))
            up[i] |= up[index.get(merged, i)]  # a crossing merge is not indexed
    return up


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _mu_top_column(n: int) -> tuple:
    """Pairs (partition, inverse-matrix entry against the full partition).

    Back-substitution over the coarsenings of each partition; it never
    divides, because the diagonal entries are 1.
    """
    parts, up = _linear_extension(n), _coarsenings(n)
    values = [Polynomial.one()] * len(parts)
    for i in range(len(parts) - 2, -1, -1):
        values[i] = -poly_sum(
            zeta_arc_form(parts[i], parts[j]) * values[j]
            for j in _bits(up[i] ^ (1 << i))
        )
    return tuple(zip(parts, values))


@lru_cache(maxsize=None)
def _mobius_entry(k: int) -> Polynomial:
    return poly_sum(val * product_moment(p) for p, val in _mu_top_column(k))


@lru_cache(maxsize=None)
def _tree_column(n: int) -> tuple:
    """Pairs (partition, signed weight of the prime trees mapping to it).

    One pass over the prime trees of size n; the sign is (-1)^(blocks - 1).
    """
    groups: dict[NoncrossingPartition, list] = {}
    for t in enumerate_prime(n):
        groups.setdefault(eta(t), []).append(weight_tree(t))
    return tuple(
        (p, Fraction((-1) ** (p.block_count - 1)) * poly_sum(weights))
        for p, weights in groups.items()
    )


@lru_cache(maxsize=None)
def _trees_entry(k: int) -> Polynomial:
    return poly_sum(val * product_moment(p) for p, val in _tree_column(k))


@lru_cache(maxsize=None)
def _lagrange_entry(k: int) -> Polynomial:
    if k == 1:
        return Polynomial.from_variable(moment(1))
    n_ord = k + 2
    m = standard_series("M", n_ord)
    d = standard_series("Delta", n_ord)
    main = m.derivative() * m.recip().power(2)
    base = main - monomial_series(-2, 1, main.order)
    ratio = base * m.hadamard(d).recip().power(k - 1)
    return ratio.coeff(-1) * Fraction(1, k - 1)


_CUMULANT_ENTRIES = {
    METHOD_MOBIUS: _mobius_entry,
    METHOD_TREES: _trees_entry,
    METHOD_LAGRANGE: _lagrange_entry,
}


def cumulants_from_moments(n: int, method: str = DEFAULT_METHOD) -> TransformTable:
    """Each cumulant in terms of the moments, by the named inverse route."""
    try:
        entry = _CUMULANT_ENTRIES[method]
    except KeyError:
        raise ValueError(
            f"unknown cumulant method {method!r}; expected one of {CUMULANT_METHODS}"
        ) from None
    if n < 1:
        raise ValueError("need n >= 1")
    return TransformTable(
        n, DIRECTION_CUMULANTS, method, [entry(k) for k in range(1, n + 1)]
    )


def mu_column_via_trees(p: NoncrossingPartition) -> Polynomial:
    """Signed weighted count of prime trees mapping to the given partition.

    Matches the top-column entry of the inverse matrix at the partition.
    """
    return dict(_tree_column(p.size)).get(p, Polynomial.zero())


# -- specializations ---------------------------------------------------------

def specialize_table(table: TransformTable, flavor: str) -> TransformTable:
    """Substitute every weight variable: 1 for "free", 0 for "boolean"."""
    if flavor == FLAVOR_DELTA:
        return table
    if flavor not in _FLAVOR_VALUES:
        raise ValueError(f"unknown flavor {flavor!r}")
    value = _FLAVOR_VALUES[flavor]
    entries = []
    for entry in table.entries:
        assignment = {
            v: value for v in entry.variables() if v.family == DELTA
        }
        entries.append(entry.substitute(assignment))
    return TransformTable(table.n, table.direction, table.method, entries, flavor)


def free_cumulants(n: int) -> TransformTable:
    return specialize_table(cumulants_from_moments(n), FLAVOR_FREE)


def boolean_cumulants(n: int) -> TransformTable:
    return specialize_table(cumulants_from_moments(n), FLAVOR_BOOLEAN)


# -- numeric conversion ------------------------------------------------------

def numeric_convert(values, deltas, direction: str) -> list:
    """Convert an exact rational sequence by the first-block recursion.

    ``values`` holds the input sequence: cumulants when asking for direction
    "moments", moments when asking for direction "cumulants".  ``deltas``
    holds one weight value per entry.  No symbolic table is built and nothing
    is cached; the cost grows as n^3 operations on Fractions.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    values = [as_fraction(x) for x in values]
    deltas = [as_fraction(x) for x in deltas]
    if len(values) != len(deltas):
        raise LengthMismatch(
            f"{len(values)} sequence values but {len(deltas)} weight values"
        )
    return _first_block(
        values, deltas, direction == DIRECTION_CUMULANTS, Fraction(1)
    )


# -- cancellation apparatus --------------------------------------------------

def w_rho(rho: NoncrossingPartition) -> Polynomial:
    """Weighted accumulation of the tree column above rho: 1 at the top, else 0."""
    return poly_sum(
        zeta(rho, p) * val for p, val in _tree_column(rho.size) if leq(rho, p)
    )


def w_rho_via_arrangements(rho: NoncrossingPartition) -> Polynomial:
    """Same accumulation, rewritten as a signed sum over arrangements."""
    n = rho.size
    dual = kreweras_inv(rho)
    below = ((a, partition_of(a)) for a in enumerate_arrangements(n))
    return poly_sum(
        (-1) ** (n - len(a.components)) * weight_arrangement(a) * zeta_c(abar, dual)
        for a, abar in below
        if leq(abar, dual)
    )


def _pairing_context(a: Arrangement, rho: NoncrossingPartition):
    """Validate the pairing preconditions; return (dual partition, base block)."""
    n = rho.size
    if a.size != n:
        raise PreconditionViolated(
            f"arrangement on {a.size} dots against a partition of {n}"
        )
    if rho == coarsest(n):
        raise PreconditionViolated("the full partition admits no pairing")
    dual = kreweras_inv(rho)
    if not leq(partition_of(a), dual):
        raise PreconditionViolated(
            "arrangement partition is not below the dual of rho"
        )
    base = next(b for b in dual.blocks if len(b) >= 2)
    return dual, base


def psi(a: Arrangement, rho: NoncrossingPartition) -> Arrangement:
    """Sign-reversing pairing on arrangements below the dual of rho.

    Acts at the base block: the first block of the dual partition with at
    least two elements.  If its endpoints share a component, the component's
    root is removed (split); otherwise their two components are merged under
    a new root.  Involutive, fixed-point free, and weight-compatible.
    """
    _, base = _pairing_context(a, rho)
    lo, hi = base[0], base[-1]
    comps = list(a.components)
    part = partition_of(a)
    if part.block_of(lo) == part.block_of(hi):
        i = next(idx for idx, (pos, _) in enumerate(comps) if lo in pos)
        pos, shape = comps.pop(i)
        cut = n_leaves(shape[0])
        comps.append((pos[:cut], shape[0]))
        comps.append((pos[cut:], shape[1]))
    else:
        i = next(idx for idx, (pos, _) in enumerate(comps) if lo in pos)
        j = next(idx for idx, (pos, _) in enumerate(comps) if hi in pos)
        pos_i, shape_i = comps[i]
        pos_j, shape_j = comps[j]
        for idx in sorted((i, j), reverse=True):
            comps.pop(idx)
        comps.append((pos_i + pos_j, (shape_i, shape_j)))
    return Arrangement(comps)


def verify_cover_identity(a: Arrangement, rho: NoncrossingPartition) -> bool:
    """Check that the split at the base block trades one cover-degree factor
    of the arrangement weight for one interval-count factor of the dual zeta.

    Only defined in the split case; when the base block contains dot 1 both
    weights are untouched and the identity holds vacuously.
    """
    _, base = _pairing_context(a, rho)
    lo, hi = base[0], base[-1]
    part = partition_of(a)
    if part.block_of(lo) != part.block_of(hi):
        raise PreconditionViolated("cover identity concerns the split case only")
    if 1 in base:
        return True
    pos, _ = next(c for c in a.components if lo in c[0])
    cov = cover_counts(a)[(pos[0], pos[-1])]
    hull = range(base[0], base[-1] + 1)
    split_restricted = restrict(partition_of(psi(a, rho)), hull)
    return cov + 1 == iota(split_restricted) - 1


# -- cache control ------------------------------------------------------------

def clear_caches() -> None:
    """Free every table and enumeration, memoized per n for the life of the
    process (also makes the next call cold, for timing measurements)."""
    from . import ncpart, trees

    for namespace in (vars(ncpart), vars(trees), globals()):
        for value in namespace.values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
