"""Truncated Laurent series over the coefficient ring.

A series carries an explicit window [low, order): coefficients are stored for
exponents low <= k < order and are exact there; everything at or above
`order` is unknown.  Every operation propagates the window pessimistically,
so a coefficient you can read is always correct.  Reading at or above the
truncation order raises OutOfTruncationRange instead of guessing.

Window rules (f with window [lf, of), g with [lg, og)):

    add       [min(lf, lg), min(of, og))
    mul       [lf + lg,     min(of + lg, og + lf))
    hadamard  [max(lf, lg), min(of, og))
    recip     [-lf,          of - 2*lf)
    compose   [lf * lg,     min(of * lg, og + (max(lf, 1) - 1) * lg))

Coefficients are kept as they arrive: ints and Fractions stay scalars and
Polynomials stay as they are (a Variable becomes a Polynomial); anything else
raises ``TypeError``.  ``coeff()`` always returns a Polynomial.  Window
arguments (bounds, exponents, orders) must be ints, not bools, else ``TypeError``.
The constructor validates; operations take the trusted path, `_trusted(low,
coeffs, order)`, whose `_init_raw` only strips known-zero leading coefficients.

Reciprocals and compositional inverses need a nonzero rational leading
coefficient, the only units of the coefficient ring.  Each power of 1/M, with
M = z(1 + Y), is read off 1/M itself by the rows of `negative_binomial_rows`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

from .poly import (
    MOMENT, Polynomial, Variable, _Value, _by_degree, _coefficient, _require_int, _require_size,
    _shown, as_polynomial, cumulant, delta, dot, moment, power_by_squaring,
)


class OutOfTruncationRange(Exception):
    """Requested a coefficient at or above the truncation order."""


class NonUnitLeadingCoefficient(Exception):
    """Inversion needs a nonzero rational leading coefficient."""


class NotInvertible(Exception):
    """The series has no inverse of the requested kind."""


class PositiveValuationRequired(Exception):
    """Composition needs an inner series with valuation >= 1."""


class LaurentSeries(_Value):
    """Immutable truncated Laurent series over the polynomial ring."""

    __slots__ = ("low", "order", "coeffs")

    def __init__(self, low: int, coeffs: Sequence, order: int | None = None):
        """Raises TypeError for a bound that is not an int or a coefficient outside
        the ring, ValueError for a window that is empty or does not fit coeffs."""
        if type(low) is not int or type(order) not in (int, type(None)):
            raise TypeError(f"window bounds must be ints, got [{_shown(low)}, {_shown(order)})")
        cs = [_as_coefficient(c) for c in coeffs]
        if order is None:
            order = low + len(cs)
        if len(cs) != order - low:
            raise ValueError(
                f"window [{low}, {order}) needs {order - low} coefficients, got {len(cs)}"
            )
        if order <= low:
            raise ValueError(f"empty window [{low}, {order})")
        self._init_raw(low, cs, order)

    def _init_raw(self, low: int, cs: Sequence, order: int) -> None:
        # the trusted path: the caller guarantees order - low == len(cs) >= 1 and
        # coefficients in stored form, as every operation on valid series makes.
        # Canonical form: strip known-zero leading coefficients, keep the order
        skip = 0
        while skip < len(cs) - 1 and not cs[skip]:
            skip += 1
        self._fill(low + skip, order, tuple(cs[skip:]))

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when every stored coefficient is zero (the truncated zero series)."""
        return not any(self.coeffs)

    def coeff(self, k: int) -> Polynomial:
        _require_int(k, "k")
        if k >= self.order:
            raise OutOfTruncationRange(
                f"coefficient of z^{k} is beyond the truncation order {self.order}"
            )
        return as_polynomial(self._at(k))

    def _at(self, k: int):
        # internal: caller guarantees k < self.order
        if k < self.low:
            return 0
        return self.coeffs[k - self.low]

    def _key(self) -> tuple:
        return self.low, self.order, self.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"z^{k}: {self.coeff(k).render()}" for k in range(self.low, self.order))
        return f"LaurentSeries[{self.low}, {self.order})({body})"

    # -- linear structure ---------------------------------------------------

    def __add__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        low = min(self.low, other.low)
        order = min(self.order, other.order)
        return LaurentSeries._trusted(
            low, [self._at(k) + other._at(k) for k in range(low, order)], order
        )

    def __sub__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self) -> "LaurentSeries":
        return self.scale(-1)

    def scale(self, factor) -> "LaurentSeries":
        """Multiply by an exact scalar or polynomial; the window is unchanged."""
        f = _as_coefficient(factor)
        return LaurentSeries._trusted(self.low, [c * f for c in self.coeffs], self.order)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k (exact)."""
        _require_int(k, "k")
        return LaurentSeries._trusted(self.low + k, self.coeffs, self.order + k)

    def truncate(self, order: int) -> "LaurentSeries":
        """Forget coefficients at or above `order`."""
        _require_int(order, "order")
        if order >= self.order:
            return self
        if order > self.low:
            return LaurentSeries._trusted(self.low, self.coeffs[: order - self.low], order)
        return LaurentSeries._trusted(order - 1, [0], order)

    # -- multiplicative structure -------------------------------------------

    def __mul__(self, other) -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            try:
                return self.scale(other)
            except TypeError:
                return NotImplemented
        low = self.low + other.low
        order = min(self.order + other.low, other.order + self.low)
        # k < order keeps i below self.order and k - i below other.order
        coeffs = [
            dot((self._at(i), other._at(k - i)) for i in range(self.low, k - other.low + 1))
            for k in range(low, order)
        ]
        return LaurentSeries._trusted(low, coeffs, order)

    __rmul__ = __mul__

    def recip(self) -> "LaurentSeries":
        """Multiplicative inverse; window [-low, order - 2*low).

        With self = lead * z^low * (1 + a_1 z + ...), the unit part inverts by the
        triangular recurrence s_0 = 1, s_k = -(a_1 s_{k-1} + ... + a_k s_0).
        """
        if self.is_zero:
            raise NotInvertible("cannot invert a series with no visible nonzero term")
        _, c = self._unit_lead("leading")
        a = [x * c for x in self.coeffs]
        s = [1]
        for k in range(1, len(a)):
            s.append(-dot((a[j], s[k - j]) for j in range(1, k + 1)))
        return LaurentSeries._trusted(-self.low, [x * c for x in s], self.order - 2 * self.low)

    def power(self, k: int) -> "LaurentSeries":
        """Integer power by binary squaring; power(f, 0) is 1 on the window
        [0, order - low).  Any grouping of the k factors gives the same window."""
        if type(k) is not int:
            raise TypeError("series powers must be integers")
        if k == 0:
            return constant_series(1, self.order - self.low)
        if k < 0:
            return self.recip().power(-k)
        return power_by_squaring(self, k)

    __pow__ = power

    def derivative(self) -> "LaurentSeries":
        return LaurentSeries._trusted(
            self.low - 1,
            [c * k for k, c in enumerate(self.coeffs, start=self.low)],
            self.order - 1,
        )

    def hadamard(self, other: "LaurentSeries") -> "LaurentSeries":
        """Coefficientwise product; window [max(lows), min(orders))."""
        low = max(self.low, other.low)
        order = min(self.order, other.order)
        if order <= low:
            raise ValueError("hadamard windows do not overlap")
        return LaurentSeries._trusted(
            low, [self._at(k) * other._at(k) for k in range(low, order)], order
        )

    # -- composition --------------------------------------------------------

    def compose(self, inner: "LaurentSeries") -> "LaurentSeries":
        """self(inner): each coefficient is one `dot` over the pairs (c_k, inner^k)."""
        if inner.low < 1:
            raise PositiveValuationRequired(
                f"inner series has valuation {inner.low}, need >= 1"
            )
        if self.low < 0:
            raise PositiveValuationRequired(
                f"outer series has valuation {self.low}, need >= 0 to compose"
            )
        k0 = max(self.low, 1)
        target = min(self.order * inner.low, inner.order + (k0 - 1) * inner.low)
        powers = [constant_series(1, target), inner.truncate(target)]  # powers[k] = inner^k
        for _ in range(2, self.order):
            powers.append((powers[-1] * inner).truncate(target))
        terms = [(c, pw) for c, pw in zip(self.coeffs, powers[self.low:]) if c]
        low = self.low * inner.low
        coeffs = [dot((c, pw._at(k)) for c, pw in terms) for k in range(low, target)]
        return LaurentSeries._trusted(low, coeffs, target)

    def comp_inverse(self) -> "LaurentSeries":
        """Compositional inverse of a series z*c + O(z^2) with c a nonzero rational."""
        self._require_linear()
        lead, c = self._unit_lead("linear")
        z = identity_series(self.order)
        tail = self - z.scale(lead)  # valuation >= 2 after the linear term cancels
        g = z.scale(c)  # exact through z^1; each pass makes one more coefficient exact
        for _ in range(self.order - 2):
            g = (z - tail.compose(g)).scale(c)
        return g

    def _require_linear(self) -> None:
        if self.is_zero or self.low != 1:
            raise NotInvertible(f"compositional inverse needs valuation exactly 1, got {self.low}")

    def _unit_lead(self, which: str):
        """The rational leading coefficient and its inverse, an int when integral."""
        lead = self.coeffs[0]
        q = lead.as_rational() if isinstance(lead, Polynomial) else lead
        if q is None:
            raise NonUnitLeadingCoefficient(
                f"{which} coefficient {lead.render()} is not a rational unit"
            )
        return q, _coefficient(Fraction(1) / q)


def _as_coefficient(c):
    """c as a series stores it: an exact scalar or Polynomial as is, a Variable as a Polynomial."""
    if isinstance(c, Variable):
        return Polynomial.from_variable(c)
    if isinstance(c, (int, Fraction, Polynomial)) and not isinstance(c, bool):
        return c
    raise TypeError(f"series coefficients must be polynomials or rationals, got {_shown(c)}")


# -- constructors ------------------------------------------------------------

def zero_series(order: int, low: int | None = None) -> LaurentSeries:
    _require_int(order, "order")
    if low is None:
        low = order - 1
    _require_int(low, "low")
    return LaurentSeries(low, [0] * (order - low), order)

def constant_series(value, order: int) -> LaurentSeries:
    _require_int(order, "order")  # monomial_series reads None as k + 1
    return monomial_series(0, value, order)

def monomial_series(k: int, value=1, order: int | None = None) -> LaurentSeries:
    _require_int(k, "k")
    if order is None:
        order = k + 1
    _require_int(order, "order")
    if order <= k:
        raise ValueError(f"order {order} does not cover exponent {k}")
    return LaurentSeries(k, [value] + [0] * (order - k - 1), order)

def identity_series(order: int) -> LaurentSeries:
    """The series z, known exactly on [1, order)."""
    return monomial_series(1, 1, order)


_SERIES_KINDS = ("M", "Delta", "C", "F", "B")


def standard_series(kind: str, order: int) -> LaurentSeries:
    """Named generating functions on a window of order >= 2 (M, Delta) or >= 1, else ValueError.

    M     z + M1*z^2 + M2*z^3 + ...
    Delta z + d1*z^2 + d2*z^3 + ...
    C     C1 + C2*z + C3*z^2 + ...
    F     free cumulants of the moment sequence, F1 + F2*z + ..., with each
          F_n expanded as a polynomial in the M variables, read off 1/M
    B     boolean cumulants of the moment sequence, likewise in M variables
    """
    if kind not in _SERIES_KINDS:
        raise ValueError(f"unknown series kind {_shown(kind)}; expected one of {_SERIES_KINDS}")
    _require_int(order, "order")
    if kind == "M" or kind == "Delta":
        if order < 2:
            raise ValueError("need order >= 2 to hold the leading z term")
        var = moment if kind == "M" else delta
        return LaurentSeries(1, [1] + [var(k - 1) for k in range(2, order)], order)
    if order < 1:
        raise ValueError("need order >= 1")
    if kind == "C":
        return LaurentSeries(0, [cumulant(k + 1) for k in range(order)], order)
    inv = standard_series("M", order + 2).recip()
    if kind == "B":
        return monomial_series(-1, 1, order) - inv
    coeffs = [moment(1)]  # F: F_(r+1) = -1/r [z^1] M^-r, read off [z^r] 1/M
    for r, row in zip(range(1, order), negative_binomial_rows(order + 1)):
        parts = _by_degree(inv._at(r), MOMENT).items()
        coeffs.append(dot((row[l], q) for l, q in parts) * Fraction(-1, r))
    return LaurentSeries(0, coeffs, order)


def negative_binomial_rows(width: int) -> Iterator[list]:
    """C(r+l-1, l) for l < width, one row per r = 1, 2, ...  If M = z(1 + Y), each coefficient
    of Y of degree 1 in one family, then [z^e] M^-r is [z^(e+r-1)] 1/M with each term of degree
    l in that family times C(r+l-1, l): the negative binomial series of (1 + Y)^-r."""
    row = [1] + [0] * (width - 1)  # r = 0
    while True:
        row = list(accumulate(row))  # the hockey stick: row r from row r - 1
        yield row


def lagrange_coeff_inverse(f: LaurentSeries, n: int):
    """Coefficient of z^n in the compositional inverse of f, via residues.

    Uses [z^n] f^{<-1>} = (1/n) [z^{n-1}] (z/f)^n, so only a reciprocal and a
    power of f are needed.  Requires n >= 1 and enough truncation order
    (order > n), else OutOfTruncationRange.
    """
    _require_size(n, 1)
    f._require_linear()
    z_over_f = f.recip().shift(1)
    return (z_over_f ** n).coeff(n - 1) * Fraction(1, n)
