"""Multivariate polynomials over exact rationals in three indexed variable families.

This is the coefficient ring for the whole package: polynomials in the gap
weight variables d1, d2, ..., the moment variables M1, M2, ... and the
cumulant variables C1, C2, ...  Coefficients are `fractions.Fraction`, so
every operation is exact: scalars must be ints or Fractions, and anything
else (floats, bools, strings) raises ``TypeError``.  There is no d0 variable:
a gap of size zero always contributes the constant 1.

Rendering is canonical and parseable: terms in graded-lex descending order
(variable order d1 < d2 < ... < M1 < M2 < ... < C1 < C2 < ...), each term with
an explicit rational coefficient, e.g. ``1*C1^2 + 1*C2`` or ``-2/3*d1*M2``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

DELTA = 0
MOMENT = 1
CUMULANT = 2

_FAMILY_SYMBOL = {DELTA: "d", MOMENT: "M", CUMULANT: "C"}
_SYMBOL_FAMILY = {s: f for f, s in _FAMILY_SYMBOL.items()}


class Variable(NamedTuple):
    """A single indexed variable; ordering is family-major, then index."""

    family: int
    index: int

    def symbol(self) -> str:
        return f"{_FAMILY_SYMBOL[self.family]}{self.index}"


def delta(i: int) -> Variable:
    """The gap weight variable d_i, i >= 1."""
    return _make_var(DELTA, i)

def moment(i: int) -> Variable:
    """The moment variable M_i, i >= 1."""
    return _make_var(MOMENT, i)

def cumulant(i: int) -> Variable:
    """The cumulant variable C_i, i >= 1."""
    return _make_var(CUMULANT, i)


def _make_var(family: int, index: int) -> Variable:
    if family not in _FAMILY_SYMBOL:
        raise ValueError(f"unknown variable family {family!r}")
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"variable index must be a positive integer, got {index!r}")
    return Variable(family, index)


# A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
# with all exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple
Scalar = Union[int, Fraction]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_key(m: Monomial) -> tuple:
    """Graded lex: total degree first, then exponents scanned from the largest variable down."""
    return sum(e for _, e in m), m[::-1]


_FACTOR_RE = re.compile(r"^([dMC])([0-9]+)(?:\^([0-9]+))?$")
_RATIONAL_RE = re.compile(r"^[0-9]+(?:/[0-9]+)?$")


class Polynomial:
    """Immutable polynomial: a map from monomials to nonzero rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                q = as_fraction(coeff)
                if q:
                    clean[mono] = q
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "Polynomial":
        # internal fast path: caller guarantees nonzero Fraction values
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def constant(cls, q: Scalar) -> "Polynomial":
        q = as_fraction(q)
        return cls._raw({(): q} if q else {})

    @classmethod
    def from_variable(cls, var: Variable, exp: int = 1) -> "Polynomial":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        if exp == 0:
            return cls.one()
        return cls._raw({((var, exp),): Fraction(1)})

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def as_rational(self) -> Fraction | None:
        """The value of a constant polynomial, or None if any variable occurs."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    def variables(self) -> set[Variable]:
        return {v for m in self._terms for v, _ in m}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return Polynomial.zero()
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("polynomial powers must have nonnegative integer exponent")
        result = Polynomial.one()
        for _ in range(exp):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    __hash__ = None  # mutable-dict backed; not intended as a dict key

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, assignment: Mapping[Variable, object]) -> "Polynomial":
        """Replace variables by polynomials or rationals; unassigned variables pass through."""
        values = {v: as_polynomial(x) for v, x in assignment.items()}
        for v, p in values.items():
            if p is NotImplemented:
                raise TypeError(f"cannot substitute {assignment[v]!r} for {v.symbol()}")
        total = Polynomial.zero()
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for var, exp in mono:
                if var in values:
                    term = term * (values[var] ** exp)
                else:
                    term = term * Polynomial.from_variable(var, exp)
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[Variable, Scalar]) -> Fraction:
        """Fully evaluate; every variable that occurs must be assigned an int or a Fraction."""
        values = {v: as_fraction(x) for v, x in assignment.items()}
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            prod = coeff
            for var, exp in mono:
                if var not in values:
                    raise ValueError(f"no value for variable {var.symbol()}")
                prod *= values[var] ** exp
            total += prod
        return total

    def split_by_family(self, family: int) -> dict[Monomial, "Polynomial"]:
        """Group terms by the non-`family` part of each monomial.

        Returns a map whose keys are monomials free of `family` variables and
        whose values collect the `family`-only cofactors.
        """
        out: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            kept = tuple((v, e) for v, e in mono if v.family == family)
            rest = tuple((v, e) for v, e in mono if v.family != family)
            out.setdefault(rest, {})[kept] = coeff
        return {rest: Polynomial._raw(part) for rest, part in out.items()}

    # -- canonical text form -------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        monos = sorted(self._terms, key=_mono_key, reverse=True)
        pieces = []
        for k, mono in enumerate(monos):
            coeff = self._terms[mono]
            body = "*".join(
                [str(abs(coeff))]
                + [f"{v.symbol()}^{e}" if e > 1 else v.symbol() for v, e in mono]
            )
            if k == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(pieces)

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Inverse of render(); accepts exactly the canonical term grammar."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        parts = re.split(r"\s*([+-])\s*", s)
        # re.split yields [first, sep, term, sep, term, ...]; empty first means leading sign
        terms: dict[Monomial, Fraction] = {}
        if parts[0] == "":
            if len(parts) < 3:
                raise ValueError(f"dangling sign in {text!r}")
            parts = parts[1:]
            sign = -1 if parts[0] == "-" else 1
            chunks = [(sign, parts[1])] + [
                (-1 if parts[i] == "-" else 1, parts[i + 1])
                for i in range(2, len(parts) - 1, 2)
            ]
        else:
            chunks = [(1, parts[0])] + [
                (-1 if parts[i] == "-" else 1, parts[i + 1])
                for i in range(1, len(parts) - 1, 2)
            ]
        for sign, chunk in chunks:
            factors = chunk.split("*")
            if not _RATIONAL_RE.match(factors[0]):
                raise ValueError(f"term {chunk!r} must start with a rational coefficient")
            coeff = Fraction(factors[0]) * sign
            mono: dict[Variable, int] = {}
            for factor in factors[1:]:
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise ValueError(f"bad variable factor {factor!r}")
                var = _make_var(_SYMBOL_FAMILY[m.group(1)], int(m.group(2)))
                exp = int(m.group(3)) if m.group(3) else 1
                if exp < 1:
                    raise ValueError(f"bad exponent in {factor!r}")
                mono[var] = mono.get(var, 0) + exp
            key = tuple(sorted(mono.items()))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def as_fraction(x) -> Fraction:
    """An int (not a bool) or a Fraction as a Fraction; TypeError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {x!r}")
    return Fraction(x)


def as_polynomial(x) -> Polynomial:
    """Coerce ints, Fractions and Variables to Polynomial; NotImplemented otherwise."""
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    if isinstance(x, Variable):
        return Polynomial.from_variable(x)
    return NotImplemented


def poly_product(factors: Iterable) -> Polynomial:
    result = Polynomial.one()
    for f in factors:
        result = result * as_polynomial(f)
    return result


def poly_sum(terms: Iterable) -> Polynomial:
    result = Polynomial.zero()
    for t in terms:
        result = result + as_polynomial(t)
    return result
