"""Transforms between moment and cumulant sequences, with a weight parameter.

The forward direction expands each moment as Yoshida's weighted sum of
cumulant products over noncrossing partitions.  The first-block recursion
computes it without enumerating: split the sum at the block that contains 1,
whose gaps fill independently.  Run over ints, after one scaling of the
inputs, the same recursion converts rational sequences in both directions
without a symbolic table, with one division per output entry.
Three independent routes invert the forward table, chosen by name in one
table read by ``cumulants_from_moments``:

* ``mobius``   -- back-substitution for the top column (the entries against
  the full partition) of the inverse of the weighted incidence matrix on the
  noncrossing partition lattice, over each partition's up-set, as monomial
  shifts into one accumulator; the default route.  A partition copies the value
  of its mirror (x -> n + 1 - x keeps how many elements each arc holds) or, if
  1 ~ 2, of its twin (1 is inside no arc: drop it, join n to the block of n - 1);
* ``trees``    -- a signed sum over prime plane trees, each contributing the
  moment product of its partition times its weight; the trees of one partition
  are summed by their root's block, whose children are trees on runs of leaves,
  with no tree built (the subtree sums are memoised by blocks as leaf masks);
* ``lagrange`` -- residue extraction from a Laurent-series identity that
  involves a Hadamard product, reading every power of 1/(M⊙Δ) off its first
  power (``series.negative_binomial_rows``, by degree in the weights).

All three must produce identical polynomials; the test suite enforces this.
Setting every weight variable to 1 specializes to free cumulants, setting
them all to 0 to boolean cumulants.  Numeric conversion accepts only exact
scalars (ints and Fractions) and raises ``TypeError`` on anything else.

Both column routes read entries 1..n off their column of size n (joining k+1..n
to the block of k keeps the interval up to 1_n and its zeta weights) and share
only that read-off, ``enumerate_nc``, ``ncpart._delta_key`` and ``poly.shift_sum``,
no lattice code; ``lagrange`` shares none of them, so the agreement of the three
is a real cross-check.

The second half of the module is verification apparatus for the top column:
its entries ``mu_column_via_trees``, each summed by the trees route, their
zeta-weighted accumulations ``w_rho`` (equal to 1 at the full partition and 0
elsewhere), and the sign-reversing involution ``psi`` on arrangements that
proves the cancellation, together with the cover/interval-count identity it
hinges on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate

from .ncpart import (
    NoncrossingPartition,
    _bits,
    _coarsenings,
    _delta_key,
    _require_standard_ground,
    _zeta_keys,
    enumerate_nc,
    iota,
    kreweras_inv,
    leq,
    restrict,
    zeta_c,
)
from .poly import (
    DELTA,
    Polynomial,
    _require_size,
    _shown,
    _Value,
    _by_degree,
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
from .series import negative_binomial_rows, standard_series
from .trees import (
    Arrangement,
    cover_counts,
    enumerate_arrangements,
    n_leaves,
    partition_of,
    weight_arrangement,
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

_FLAVOR_VALUES = {FLAVOR_FREE: 1, FLAVOR_BOOLEAN: 0}


# -- tables ------------------------------------------------------------------

class TransformTable(_Value):
    """Symbolic expressions of one sequence in terms of the other.

    ``entries[k-1]`` expresses the k-th moment (direction "moments") or the
    k-th cumulant (direction "cumulants"); entry k only involves variable
    indices up to k.
    """

    __slots__ = ("n", "direction", "method", "flavor", "entries")

    def __init__(self, n, direction, method, entries, flavor=FLAVOR_DELTA):
        """Raises TypeError for a size that is not an int or entries that are
        not an iterable of Polynomials, ValueError for an unknown name, a size
        below 1, a wrong entry count or an entry that is not triangular."""
        _require_size(n, 1)
        if direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {_shown(direction)}")
        if method not in _METHODS:
            raise ValueError(f"unknown method {_shown(method)}")
        if flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {_shown(flavor)}")
        try:
            entries = tuple(entries)
        except TypeError:
            raise TypeError(f"entries must be iterable, got {_shown(entries)}") from None
        if len(entries) != n:
            raise ValueError(f"expected {n} entries, got {len(entries)}")
        for k, entry in enumerate(entries, start=1):
            if not isinstance(entry, Polynomial):
                raise TypeError(f"entry {k} is not a Polynomial: {_shown(entry)}")
            bad = [v for v in entry.variables() if v.index > k]
            if bad:
                raise ValueError(
                    f"entry {k} is not triangular: contains {bad[0].symbol()}"
                )
        self._fill(n, direction, method, flavor, entries)

    def entry(self, k: int) -> Polynomial:
        if not 1 <= k <= self.n:
            raise ValueError(f"entry index {k} outside 1..{self.n}")
        return self.entries[k - 1]

    @property
    def target_symbol(self) -> str:
        return "M" if self.direction == DIRECTION_MOMENTS else "C"

    def _key(self) -> tuple:
        return self.n, self.direction, self.method, self.flavor, self.entries

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"TransformTable(n={self.n}, direction={self.direction!r}, "
            f"method={self.method!r}, flavor={self.flavor!r})"
        )

    def _rows(self) -> list[tuple[int, str]]:
        return [(k, entry.render()) for k, entry in enumerate(self.entries, start=1)]

    def render_text(self) -> str:
        sym = self.target_symbol
        return "\n".join(f"{sym}{k} = {text}" for k, text in self._rows())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "direction": self.direction,
            "method": self.method,
            "flavor": self.flavor,
            "entries": [{"index": k, "polynomial": text} for k, text in self._rows()],
        }

    def to_csv(self) -> str:
        # a rendered polynomial holds no comma, quote or newline to escape
        return "index,polynomial\n" + "".join(f"{k},{text}\n" for k, text in self._rows())


# -- forward direction -------------------------------------------------------

def _block_key(p: NoncrossingPartition, family=moment) -> int:
    """The packed key of product_moment (or, by family, product_cumulant)."""
    return sum(variable_key(family(len(b))) for b in p.blocks)


def product_moment(p: NoncrossingPartition) -> Polynomial:
    """Product of one moment variable per block, indexed by block size."""
    return Polynomial._raw({_block_key(p): 1})


def product_cumulant(p: NoncrossingPartition) -> Polynomial:
    return Polynomial._raw({_block_key(p, cumulant): 1})


def _first_block(seq, deltas, inverse: bool, e: int = 1) -> list:
    """Yoshida's formula split at the block that contains 1, over Polynomials,
    exact rationals or scaled ints (each sum of products is one `dot`).

    With G = 1 + sum_g d_g*M_g*z^g and P[j][b] = [z^b] G^j*(1 + sum_t M_t*z^t),
    M_n = sum_k C_k*P[k-1][n-k]: the k - 1 gaps of the first block fill
    independently (a gap of g elements contributes d_g*M_g) and the elements
    after it are free.  Step n fills the anti-diagonal j + b = n - 1 of P from
    earlier ones.  C_n enters M_n with coefficient 1, so the inverse
    (``seq`` holds moments) is a triangular solve.  Returns the other sequence.

    Over ints, entry t of either sequence is stored times s^t*e^(t-1) and each
    weight times e; row 0 reads each moment after M_0 = 1 times e, so P[j][b]
    is stored times s^b*e^b and every value stays an exact int.
    """
    moments, cumulants, gaps, rows = [1], [], [1], []
    for n, (x, d) in enumerate(zip(seq, deltas), start=1):
        rows.append([])
        rows[0].append(moments[-1] * e if n > 1 and e != 1 else moments[-1])
        for j in range(1, n):
            b, prev = n - 1 - j, rows[j - 1]
            rows[j].append(dot(zip(gaps, prev[b::-1])))  # gaps[a] * prev[b - a], a <= b
        rest = dot(zip(cumulants, [row[-1] for row in rows]))  # C_k * P[k-1][n-k], k < n
        c, m = (x - rest, x) if inverse else (x, x + rest)
        cumulants.append(c)
        moments.append(m)
        gaps.append(d * m)
    return cumulants if inverse else moments[1:]


@lru_cache(maxsize=None)
def _moment_entries(n: int) -> tuple:
    cs, ds = ([Polynomial.from_variable(f(k)) for k in range(1, n + 1)] for f in (cumulant, delta))
    return tuple(_first_block(cs, ds, False))


def moments_from_cumulants(n: int) -> TransformTable:
    """Each moment as the weighted sum of cumulant products over the lattice."""
    _require_size(n, 1)
    return TransformTable(n, DIRECTION_MOMENTS, METHOD_YOSHIDA, _moment_entries(n))


# -- inverse direction: three routes ----------------------------------------

def _mu_top_column(n: int) -> tuple:
    """Pairs (partition, inverse-matrix entry against the full partition), by
    back-substitution over each partition's up-set (no ``leq``; no division, as the
    diagonal is 1; each zeta entry is one monomial, so each sum is monomial shifts).
    A partition reads its value off a later mirror (x -> n + 1 - x keeps how many elements
    each arc holds) or twin (1 ~ 2: 1 is inside no arc; see ``ncpart._coarsenings``)."""
    parts = sorted(enumerate_nc(n), key=lambda p: (-p.block_count, p.blocks))
    up, same = _coarsenings(parts)
    values = [Polynomial.one()] * len(parts)
    for i in sorted(set(same), reverse=True)[1:]:  # below the top, no later copy source
        bits, j, above = bin(up[i])[:1:-1], 0, []  # bits[j] is bit j of up[i], for parts[i + j]
        while (j := bits.find("1", j + 1)) > 0:
            above.append(i + j)
        keys = _zeta_keys(parts[i], [parts[j] for j in above])
        values[i] = -shift_sum(zip(keys, [values[same[j]] for j in above]))
    return tuple(zip(parts, [values[j] for j in same]))


def _root_sum(blocks: tuple, size: int, leftmost: bool, root: int) -> Polynomial:
    """Summed weights of the trees on ``size`` leaves whose root has the block ``root``: one
    child per run of leaves cut at its elements, holding the blocks on the run's other leaves."""
    value, lo = Polynomial.one(), 0
    for hi in (*_bits(root), size - 1):
        if hi > lo:  # a run of one leaf is a leaf, of weight 1
            kids = tuple(b >> lo for b in blocks if b & (1 << hi) - (1 << lo))
            value *= _subtree_sum(kids, hi - lo + 1, leftmost and not lo)
        lo = hi + 1
    return value


@lru_cache(maxsize=None)
def _subtree_sum(blocks: tuple, size: int, leftmost: bool) -> Polynomial:
    """Summed ``weight_tree`` factors of the trees on ``size`` > 1 leaves that ``eta`` gives
    these blocks (masks over leaves 0..size - 2, by lowest leaf), split by the root's block."""
    reach = accumulate((b.bit_length() for b in blocks), max, initial=0)
    return shift_sum(
        (0 if leftmost else _delta_key(b.bit_count()), _root_sum(blocks, size, leftmost, b))
        for b, r in zip(blocks, reach) if (b & -b).bit_length() > r  # under no arc
    )


@lru_cache(maxsize=None)
def _tree_column(n: int) -> tuple:
    """Pairs (partition, signed weight of the prime trees mapping to it)."""
    return tuple((p, mu_column_via_trees(p)) for p in enumerate_nc(n))


@lru_cache(maxsize=None)
def _column_entries(column, n: int) -> tuple:
    """Entries 1..n of a column route off its column of size n: entry k sums the values of
    the partitions whose block of n ends in the run k..n, keyed as if that block ended at k."""
    top = column(n)  # before any M slot is made, so the column's d keys stay small ints
    keys = [0] + [variable_key(moment(j)) for j in range(1, n + 1)]
    pairs = [[] for _ in range(n)]
    for p, val in top:
        block = p.block_of(n)
        rest = sum(keys[len(b)] for b in p.blocks) - keys[len(block)]
        for cut, x in enumerate(reversed(block)):
            if x != n - cut:  # the run k..n ends the block of n
                break
            pairs[n - 1 - cut].append((rest + keys[len(block) - cut], val))
    return tuple(map(shift_sum, pairs))


@lru_cache(maxsize=None)
def _lagrange_entries(n: int) -> tuple:
    """C_k = 1/(k-1) [z^-1] (M'/M^2 - z^-2) * h^(k-1), k >= 2, h = 1/(M⊙Δ) and M'/M^2 = -(1/M)'
    = z^-2 + O(1): one convolution from z^-1, h^(k-1) read off h by `negative_binomial_rows`."""
    m = standard_series("M", n + 2)
    main = -m.recip().derivative()
    h = m.hadamard(standard_series("Delta", n + 2)).recip()
    parts = [_by_degree(h._at(j), DELTA) for j in range(n - 2, -2, -1)]  # z^(n-2) down to z^-1
    entries = [Polynomial.from_variable(moment(1))]
    for k, row in zip(range(2, n + 1), negative_binomial_rows(n + 1)):  # the row of r = k - 1
        scaled = (dot((row[l], q) for l, q in p.items()) for p in parts[n - k:])
        entries.append(dot(zip(map(main._at, range(-1, k - 1)), scaled)) * Fraction(1, k - 1))
    return tuple(entries)


_CUMULANT_ENTRIES = {
    METHOD_MOBIUS: partial(_column_entries, _mu_top_column),
    METHOD_TREES: partial(_column_entries, _tree_column),
    METHOD_LAGRANGE: _lagrange_entries,
}


def cumulants_from_moments(n: int, method: str = DEFAULT_METHOD) -> TransformTable:
    """Each cumulant in terms of the moments, by the named inverse route."""
    try:
        entries = _CUMULANT_ENTRIES[method]
    except KeyError:
        raise ValueError(
            f"unknown cumulant method {_shown(method)}; expected one of {CUMULANT_METHODS}"
        ) from None
    _require_size(n, 1)
    return TransformTable(n, DIRECTION_CUMULANTS, method, entries(n))


def mu_column_via_trees(p: NoncrossingPartition) -> Polynomial:
    """Signed weighted count of prime trees mapping to the given partition: the top-column
    entry of the inverse matrix at the partition (ground 1..n)."""
    _require_size(_require_standard_ground(p), 1)
    blocks = tuple(sum(1 << x - 1 for x in b) for b in p.blocks)
    value = _root_sum(blocks, p.size + 1, True, max(blocks))  # the root has the block of n
    return value if p.block_count % 2 else -value


# -- specializations ---------------------------------------------------------

def specialize_table(table: TransformTable, flavor: str) -> TransformTable:
    """Substitute every weight variable: 1 for "free", 0 for "boolean"."""
    if flavor == FLAVOR_DELTA:
        return table
    if flavor not in _FLAVOR_VALUES:
        raise ValueError(f"unknown flavor {_shown(flavor)}")
    value = _FLAVOR_VALUES[flavor]
    entries = [specialize_family(entry, DELTA, value) for entry in table.entries]
    return TransformTable(table.n, table.direction, table.method, entries, flavor)


def free_cumulants(n: int) -> TransformTable:
    return specialize_table(cumulants_from_moments(n), FLAVOR_FREE)


def boolean_cumulants(n: int) -> TransformTable:
    return specialize_table(cumulants_from_moments(n), FLAVOR_BOOLEAN)


# -- numeric conversion ------------------------------------------------------

# Past about this many bits in the scale of the last entry, the products of
# scaled ints cost more than the gcds of the Fraction recursion they replace:
# a prime that first appears late in a denominator is scaled into every entry.
_SCALE_BITS = 1 << 13


def numeric_convert(values, deltas, direction: str) -> list:
    """Convert an exact rational sequence by the first-block recursion.

    ``values`` holds the input sequence: cumulants when asking for direction
    "moments", moments when asking for direction "cumulants".  ``deltas``
    holds one weight value per entry.  No symbolic table is built and nothing
    is cached.  The inputs are scaled to ints once, the recursion runs on
    ints (about n^3/6 products), and each entry is divided back once; inputs
    whose scale would pass ``_SCALE_BITS`` run on Fractions instead.
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction {_shown(direction)}")
    values = [as_fraction(x) for x in values]
    deltas = [as_fraction(x) for x in deltas]
    if len(values) != len(deltas):
        raise LengthMismatch(
            f"{len(values)} sequence values but {len(deltas)} weight values"
        )
    # Fraction(a, b).denominator is b // gcd(a, b): e is the lcm of the weight
    # denominators, and s grows only by what entry t still needs to make
    # x_t*s^t*e^(t-1) an int (the lcm of all the input denominators would
    # explode on inputs whose denominators grow with t)
    e = s = 1
    for d in deltas:
        e *= Fraction(e, d.denominator).denominator
    for t, x in enumerate(values, start=1):
        q = x.denominator
        s *= Fraction(pow(s, t, q) * pow(e, t - 1, q), q).denominator
    inverse = direction == DIRECTION_CUMULANTS
    if len(values) * (s * e).bit_length() > _SCALE_BITS:
        return _first_block(values, deltas, inverse)  # x +- rest keeps each a Fraction
    scales = [s ** t * e ** (t - 1) for t in range(1, len(values) + 1)]
    ints = [x.numerator * scale // x.denominator for x, scale in zip(values, scales)]
    weights = [d.numerator * (e // d.denominator) for d in deltas]
    out = _first_block(ints, weights, inverse, e)
    return [Fraction(v, scale) for v, scale in zip(out, scales)]


# -- cancellation apparatus --------------------------------------------------

def w_rho(rho: NoncrossingPartition) -> Polynomial:
    """Weighted accumulation of the tree column above rho: 1 at the top, else 0."""
    above = [(p, val) for p, val in _tree_column(rho.size) if leq(rho, p)]
    return shift_sum(zip(_zeta_keys(rho, [p for p, _ in above]), [val for _, val in above]))


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
    """Validate the pairing preconditions; return the base block and the
    indices of the components of a that hold its two ends."""
    n = rho.size
    if a.size != n:
        raise PreconditionViolated(
            f"arrangement on {a.size} dots against a partition of {n}"
        )
    dual = kreweras_inv(rho)
    if rho.block_count == 1:
        raise PreconditionViolated("the full partition admits no pairing")
    if not leq(partition_of(a), dual):
        raise PreconditionViolated(
            "arrangement partition is not below the dual of rho"
        )
    base = next(b for b in dual.blocks if len(b) >= 2)
    i, j = (
        next(k for k, (pos, _) in enumerate(a.components) if x in pos)
        for x in (base[0], base[-1])
    )
    return base, i, j


def psi(a: Arrangement, rho: NoncrossingPartition) -> Arrangement:
    """Sign-reversing pairing on arrangements below the dual of rho.

    Acts at the base block: the first block of the dual partition with at
    least two elements.  If its endpoints share a component, the component's
    root is removed (split); otherwise their two components are merged under
    a new root.  Involutive, fixed-point free, and weight-compatible.
    """
    _, i, j = _pairing_context(a, rho)
    comps = list(a.components)
    if i == j:
        pos, shape = comps.pop(i)
        cut = n_leaves(shape[0])
        comps.append((pos[:cut], shape[0]))
        comps.append((pos[cut:], shape[1]))
    else:  # i < j: both lie in the base block, and component i starts it
        pos_j, shape_j = comps.pop(j)
        pos_i, shape_i = comps.pop(i)
        comps.append((pos_i + pos_j, (shape_i, shape_j)))
    return Arrangement._trusted(comps)


def verify_cover_identity(a: Arrangement, rho: NoncrossingPartition) -> bool:
    """Check that the split at the base block trades one cover-degree factor
    of the arrangement weight for one interval-count factor of the dual zeta.

    Only defined in the split case; when the base block contains dot 1 both
    weights are untouched and the identity holds vacuously.
    """
    base, i, j = _pairing_context(a, rho)
    if i != j:
        raise PreconditionViolated("cover identity concerns the split case only")
    if 1 in base:
        return True
    pos, _ = a.components[i]
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
