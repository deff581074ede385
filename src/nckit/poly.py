"""Multivariate polynomials over exact rationals in three indexed variable families.

This is the coefficient ring for the whole package: polynomials in the gap
weight variables d1, d2, ..., the moment variables M1, M2, ... and the
cumulant variables C1, C2, ...  A coefficient is an int when integral, else
a `fractions.Fraction`, so every operation is exact and integer arithmetic
stays on ints: scalars must be ints or Fractions, and anything else (floats,
bools, strings) raises ``TypeError``.  There is no d0 variable: a gap of size
zero always contributes the constant 1.

A monomial is stored as one int key: a registry, never reset because live keys
depend on it, gives each variable a slot s when first seen, and the exponent
sits in bits [32*s, 32*s + 32), so a monomial product is one integer add.
Exponents are capped at 2**31 - 1: a guard mask holds the top bit of every
field in use, and a product reaching 2**31 raises ``OverflowError`` instead of
carrying into the next field.  The public API speaks sorted
``(Variable, exponent)`` tuples, the empty tuple being the constant monomial.

Two kernels keep every coefficient canonical.  Products go through
`_add_product`: ``p * q`` runs it once, and ``dot(pairs)`` once per pair into
one shared dict, so a sum of products builds no intermediate Polynomial.  A
scalar factor scales each term directly, and an integral coefficient times p/q
with q dividing it stays an int.  Plain sums go through `shift_sum`: ``p + q``,
`poly_sum`, the constructor and `parse` all accumulate there.  The loops of the
two kernels stay written out: their inner runs are short (about 12 terms per
outer pass in a lagrange build), and each shared helper tried cost 3-7% on the
`tables` and `lagrange` benchmarks.

`split_by_family`, `substitute`, `evaluate` and the degree split `_by_degree`
read terms through one grouping, `_group`: by the part of each key inside a
field mask, then by the rest.  `substitute` builds each distinct assigned
part's value once, from a smaller part's, and sums group times value in one
`dot`; `evaluate` is its scalar case.  `_by_degree` sums each part's exponents.

Rendering is canonical and parseable: terms in graded-lex descending order
(variable order d1 < d2 < ... < M1 < M2 < ... < C1 < C2 < ...), each term with
an explicit rational coefficient, e.g. ``1*C1^2 + 1*C2`` or ``-2/3*d1*M2``.
`render` reads each distinct d, M and C part (the key masked by its family's
entry in `_MASKS`) once through `_unpack`, into its degree, its exponents
re-packed in the order of the polynomial's own variables and its factor text.
A term sorts on one int, its summed degree above the OR of its re-packed parts
(the largest variable most significant), and its text is the coefficient
followed by the d, M and C texts.

`_Value` is the base of the other immutable values: write-once slots, a trusted
constructor and equality by key.  `Polynomial` stays off it: `_raw`, the hottest
constructor, writes `_terms` directly, and ``==`` also compares with scalars.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from operator import or_
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


def _shown(x) -> str:
    """repr(x) for an error message, or a stand-in naming its type when x is
    nested past the interpreter's recursion limit."""
    try:
        return repr(x)
    except RecursionError:
        return f"<{type(x).__name__} nested past the recursion limit>"


def _require_int(x, name: str) -> None:
    """TypeError unless x is an int (not a bool)."""
    if type(x) is not int:
        raise TypeError(f"{name} must be an int, got {_shown(x)}")


def _require_size(n, least: int, name: str = "n") -> None:
    """TypeError unless n is an int (not a bool), ValueError below least."""
    _require_int(n, name)
    if n < least:
        raise ValueError(f"need {name} >= {least}")


class _Value:
    """Immutable value base: a subclass defines `_key()`, and `_init_raw` for `_trusted`."""

    __slots__ = ()

    def __init_subclass__(cls):
        # _fill(self, <a value per slot>) writes each slot once through its descriptor, past
        # __setattr__; generated as dataclasses does: a loop makes a trusted series a third dearer
        names = cls.__slots__
        scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
        body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
        exec(f"def _fill(self, {', '.join(names)}):{body}", scope)
        cls._fill = scope["_fill"]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _trusted(cls, *args):
        value = object.__new__(cls)  # no validation: _init_raw states what callers guarantee
        value._init_raw(*args)
        return value

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through _restore
        return self._restore, tuple(map(self.__getattribute__, self.__slots__))

    @classmethod
    def _restore(cls, *state):
        value = object.__new__(cls)
        value._fill(*state)
        return value

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _make_var(family: int, index: int) -> Variable:
    if family not in _FAMILY_SYMBOL:
        raise ValueError(f"unknown variable family {_shown(family)}")
    if type(index) is not int or index < 1:
        raise ValueError(f"variable index must be a positive integer, got {_shown(index)}")
    return Variable(family, index)


# A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
# with all exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple
Scalar = Union[int, Fraction]
_EXACT = (int, Fraction)  # the scalar types, matched exactly, so bools fall through

_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1
_MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1

_KEYS: dict[Variable, int] = {}  # variable -> 1 << (32 * its slot)
_VARS: list[Variable] = []  # slot -> variable
_GUARD = 0  # the top bit of every field in use
_MASKS: dict[int, int] = {}  # family -> the fields of its slotted variables


def variable_key(var: Variable) -> int:
    """The packed key of the monomial var^1, giving var a slot if it has none."""
    global _GUARD
    key = _KEYS.get(var)
    if key is None:
        shift = _WIDTH * len(_VARS)
        _VARS.append(_make_var(var.family, var.index))
        key = _KEYS[var] = 1 << shift
        _GUARD |= key << (_WIDTH - 1)
        _MASKS[var.family] = _MASKS.get(var.family, 0) | key * _FIELD
    return key


def _pack(mono) -> int:
    try:
        pairs = [(var, exp) for var, exp in mono]
    except (TypeError, ValueError):
        raise TypeError("a monomial must be an iterable of (Variable, exponent) pairs") from None
    key = 0
    for var, exp in pairs:
        if not isinstance(var, Variable):
            raise TypeError(f"not a Variable: {_shown(var)}")
        if type(exp) is not int or not 1 <= exp <= _MAX_EXPONENT:
            raise ValueError(f"exponent must be an int in 1..{_MAX_EXPONENT}, got {_shown(exp)}")
        key += exp * variable_key(var)
        if key & _GUARD:
            raise ValueError(f"exponent of {var.symbol()} exceeds {_MAX_EXPONENT}")
    return key


def _unpack(key: int) -> Monomial:
    out = []
    while key:
        shift = ((key & -key).bit_length() - 1) // _WIDTH * _WIDTH
        exp = key >> shift & _FIELD
        out.append((_VARS[shift // _WIDTH], exp))
        key ^= exp << shift
    out.sort()
    return tuple(out)


_FACTOR_RE = re.compile(r"([dMC])([0-9]+)(?:\^([0-9]+))?")
_RATIONAL_RE = re.compile(r"[0-9]+(?:/0*[1-9][0-9]*)?")


class Polynomial:
    """Immutable polynomial: a map from packed monomial keys to nonzero rational
    coefficients, each an int when integral, else a Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        """From monomials to scalars; repeated variables and equal monomials merge.

        Raises TypeError unless terms maps iterables of (Variable, exponent) pairs
        to ints or Fractions, ValueError for an exponent outside 1..2**31 - 1."""
        if not isinstance(terms, (Mapping, type(None))):
            raise TypeError(f"polynomial terms must be a mapping, not {type(terms).__name__}")
        pairs = ((_pack(mono), Polynomial.constant(c)) for mono, c in (terms or {}).items())
        self._terms = shift_sum(pairs)._terms

    @classmethod
    def _raw(cls, terms: dict) -> "Polynomial":
        # internal fast path: caller guarantees nonzero values,
        # each an int when integral, else a Fraction
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
        q = _coefficient(q)
        return cls._raw({0: q} if q else {})

    @classmethod
    def from_variable(cls, var: Variable) -> "Polynomial":
        return cls._raw({variable_key(var): 1})

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Scalar]]:
        return ((_unpack(key), c) for key, c in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def as_rational(self) -> Fraction | None:
        """The value of a constant polynomial, or None if any variable occurs."""
        if self._terms.keys() <= {0}:
            return Fraction(self._terms.get(0, 0))
        return None

    def variables(self) -> set[Variable]:
        return {v for v, _ in _unpack(reduce(or_, self._terms, 0))}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return shift_sum(((0, self), (0, other)))

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
        if isinstance(other, Variable):
            other = Polynomial.from_variable(other)
        elif not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        out: dict[int, Scalar] = {}
        _add_product(out, self._terms, other)
        return Polynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Polynomial":
        if type(exp) is not int or exp < 0:
            raise ValueError("polynomial powers must have nonnegative integer exponent")
        return power_by_squaring(self, exp) if exp else Polynomial.one()

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    __hash__ = None  # mutable-dict backed; not intended as a dict key

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, assignment: Mapping[Variable, object]) -> "Polynomial":
        """Replace variables at once by polynomials or exact scalars; others pass through."""
        known = {0: 1}  # assigned part -> its value, a scalar kept a scalar
        for v, x in assignment.items():
            value = _coefficient(x) if isinstance(x, (int, Fraction)) else as_polynomial(x)
            if value is NotImplemented:
                raise TypeError(f"cannot substitute {_shown(x)} for {v.symbol()}")
            if v in _KEYS:  # a variable with no slot occurs nowhere
                known[_KEYS[v]] = value
        pairs = []
        for part, rest in _group(self._terms, sum(known) * _FIELD).items():
            upper, left = 0, part  # part's fields from the highest down, each upper part built once
            while left:
                shift = (left.bit_length() - 1) // _WIDTH * _WIDTH
                field = left >> shift << shift
                if upper + field not in known:
                    known[upper + field] = known[upper] * known[1 << shift] ** (field >> shift)
                upper, left = upper + field, left - field
            pairs.append((rest[0] if rest.keys() == {0} else Polynomial._raw(rest), known[part]))
        return as_polynomial(dot(pairs))

    def evaluate(self, assignment: Mapping[Variable, Scalar]) -> Fraction:
        """`substitute` with only ints and Fractions (else TypeError), one for
        every variable that occurs (else ValueError)."""
        values = {v: as_fraction(x) for v, x in assignment.items()}
        if missing := self.variables().difference(values):
            raise ValueError(f"no value for variable {min(missing).symbol()}")
        return self.substitute(values).as_rational()

    def split_by_family(self, family: int) -> dict[Monomial, "Polynomial"]:
        """Each monomial free of `family` variables -> the `family`-only cofactor of its terms."""
        groups = _group(self._terms, _MASKS.get(family, 0) ^ ((1 << _WIDTH * len(_VARS)) - 1))
        return {_unpack(other): Polynomial._raw(cofactor) for other, cofactor in groups.items()}

    # -- canonical text form -------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        names = {v: (_WIDTH * r, v.symbol()) for r, v in enumerate(sorted(self.variables()))}
        top = _WIDTH * len(names)
        dmask, mmask, cmask = (_MASKS.get(f, 0) for f in (DELTA, MOMENT, CUMULANT))
        parts = {}  # family part of a key -> its degree, re-packed fields and factor text

        def part_of(part: int) -> tuple[int, int, str]:
            degree, ordered, text = 0, 0, ""
            for var, exp in _unpack(part):
                shift, name = names[var]  # shift of var's field in variable order
                degree += exp
                ordered |= exp << shift
                text += f"*{name}^{exp}" if exp > 1 else f"*{name}"
            return degree, ordered, text

        terms = []
        for key, coeff in self._terms.items():
            d = key & dmask
            d = parts.get(d) or parts.setdefault(d, part_of(d))
            m = key & mmask
            m = parts.get(m) or parts.setdefault(m, part_of(m))
            c = key & cmask
            c = parts.get(c) or parts.setdefault(c, part_of(c))
            sign = " + " if coeff > 0 else " - "
            terms.append((
                (d[0] + m[0] + c[0]) << top | d[1] | m[1] | c[1],
                f"{sign}{abs(coeff)}{d[2]}{m[2]}{c[2]}",
            ))
        terms.sort(reverse=True)  # sort keys are distinct, so texts never compare
        text = "".join([body for _, body in terms])
        return text[3:] if text[1] == "+" else f"-{text[3:]}"  # no separator before the first term

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Inverse of render(); accepts exactly the canonical term grammar.

        Raises TypeError when text is not a str, ValueError when it is not
        canonical polynomial text."""
        if not isinstance(text, str):
            raise TypeError(f"not polynomial text: {_shown(text)}")
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        # with a leading sign, re.split yields ["", sign, term, sign, term, ...]
        parts = re.split(r"\s*([+-])\s*", s if s[0] in "+-" else "+" + s)
        terms = []
        for sign, chunk in zip(parts[1::2], parts[2::2]):
            factors = chunk.split("*")
            if not _RATIONAL_RE.fullmatch(factors[0]):
                raise ValueError(f"term {_shown(chunk)} must start with a rational coefficient")
            coeff = Fraction(factors[0]) * (-1 if sign == "-" else 1)
            mono = []
            for factor in factors[1:]:
                m = _FACTOR_RE.fullmatch(factor)
                if not m:
                    raise ValueError(f"bad variable factor {_shown(factor)}")
                var = _make_var(_SYMBOL_FAMILY[m.group(1)], int(m.group(2)))
                mono.append((var, int(m.group(3)) if m.group(3) else 1))
            terms.append((mono, coeff))
        return shift_sum((_pack(mono), cls.constant(coeff)) for mono, coeff in terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"

    def __reduce__(self):  # pickle tuples: keys depend on this process's slots
        return Polynomial, (dict(self.items()),)


def as_fraction(x) -> Fraction:
    """An int (not a bool) or a Fraction as a Fraction; TypeError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"not an exact rational: {_shown(x)}")
    return x if type(x) is Fraction else Fraction(x)


def _coefficient(x) -> Scalar:
    """A scalar as a Polynomial stores it: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    q = as_fraction(x)
    return q.numerator if q.denominator == 1 else q


def as_polynomial(x) -> Polynomial:
    """Coerce ints, Fractions and Variables to Polynomial; NotImplemented otherwise."""
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.constant(x)
    if isinstance(x, Variable):
        return Polynomial.from_variable(x)
    return NotImplemented


def _ring_item(x) -> Polynomial:
    p = as_polynomial(x)
    if p is NotImplemented:
        raise TypeError(f"not a polynomial or exact rational: {_shown(x)}")
    return p


def power_by_squaring(base, exp: int):
    """base ** exp for an int exp >= 1 by binary squaring: about 2*log2(exp)
    products, none of them a higher power than the result."""
    result, square = None, base
    while True:
        if exp & 1:
            result = square if result is None else result * square
        exp >>= 1
        if not exp:
            return result
        square = square * square


def poly_sum(terms: Iterable) -> Polynomial:
    return shift_sum((0, _ring_item(t)) for t in terms)


def specialize_family(p: Polynomial, family: int, value: int) -> Polynomial:
    """p with every variable of one family set to 1 or to 0, in one pass over
    the terms: 1 clears the family's fields of each key and merges the terms
    that meet, 0 keeps only the keys with no field of the family."""
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"a family can only be set to 0 or 1, got {_shown(value)}")
    fields = _MASKS.get(family, 0)
    if not value:
        return Polynomial._raw({key: c for key, c in p._terms.items() if not key & fields})
    out: dict[int, Scalar] = {}
    for key, coeff in p._terms.items():
        key ^= key & fields
        out[key] = out.get(key, 0) + coeff
    return Polynomial._raw({key: _coefficient(s) for key, s in out.items() if s})


def dot(pairs: Iterable[tuple]) -> Polynomial | Scalar:
    """The sum of a * b over pairs of Polynomials or exact scalars, in the ring
    of the operands: a scalar (an int when integral) when every operand is a
    scalar, else a Polynomial whose product terms all go into one dict."""
    out: dict[int, Scalar] = {}
    total, ring = 0, False
    for a, b in pairs:
        if type(a) in _EXACT and type(b) in _EXACT:
            total = a * b + total  # Fraction + 0: 0 + Fraction takes the slow reflected add
        elif isinstance(a, Polynomial):
            ring = True
            _add_product(out, a._terms, b)
        elif isinstance(b, Polynomial):
            ring = True
            _add_product(out, b._terms, a)
        else:
            total += as_fraction(a) * as_fraction(b)  # TypeError for bools, floats, ...
    if not ring:
        return total if type(total) is int or total.denominator != 1 else total.numerator
    if total:
        _add_product(out, {0: 1}, total)
    return Polynomial._raw(out)


def _add_product(out: dict, terms: dict, other) -> None:
    """Add terms * other into out, other a Polynomial or an exact scalar; each
    product key is checked against the guard bits, and an int coefficient c
    that the denominator q of a scalar p/q divides becomes c // q * p."""
    if isinstance(other, Polynomial):
        guard, long = _GUARD, other._terms
        if len(long) < len(terms):  # fewer outer passes
            terms, long = long, terms
        for m1, c1 in terms.items():
            for m2, c2 in long.items():
                key = m1 + m2
                if key & guard:
                    raise OverflowError(f"an exponent of the product exceeds {_MAX_EXPONENT}")
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s if type(s) is int or s.denominator != 1 else s.numerator
                else:
                    del out[key]
        return
    if type(other) not in _EXACT:
        other = as_fraction(other)  # TypeError for bools, floats, ...
    if not other:
        return
    num, den = other.numerator, other.denominator
    for key, c in terms.items():
        s = out.get(key, 0) + (c // den * num if type(c) is int and not c % den else c * other)
        if s:
            out[key] = s if type(s) is int or s.denominator != 1 else s.numerator
        else:
            del out[key]


def _group(terms: dict, fields: int) -> dict[int, dict[int, Scalar]]:
    """Terms grouped by the part of each key inside fields, then by the rest of the key."""
    groups: dict[int, dict[int, Scalar]] = {}
    for key, coeff in terms.items():
        part = key & fields
        groups.setdefault(part, {})[key ^ part] = coeff
    return groups


def _by_degree(x, family: int) -> dict[int, Polynomial]:
    """x, a Polynomial or an exact scalar, split by the degree of its terms in one family."""
    parts: dict[int, dict[int, Scalar]] = {}
    for part, rest in _group(_ring_item(x)._terms, _MASKS.get(family, 0)).items():
        degree = sum(exp for _, exp in _unpack(part))
        parts.setdefault(degree, {}).update((key + part, coeff) for key, coeff in rest.items())
    return {degree: Polynomial._raw(terms) for degree, terms in parts.items()}


def shift_sum(pairs: Iterable[tuple[int, Polynomial]]) -> Polynomial:
    """The sum of m * p over pairs (key, p), key the packed key of a monomial m
    with coefficient 1 (0 in a plain sum): each product only shifts the keys
    of p, so the terms go straight into one dict, with no coefficient products."""
    out: dict[int, Scalar] = {}
    for shift, p in pairs:
        guard = _GUARD  # per pair: making a key may give a variable its slot
        for key, coeff in p._terms.items():
            key += shift
            if key & guard:
                raise OverflowError(f"an exponent of the product exceeds {_MAX_EXPONENT}")
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[key]
    return Polynomial._raw(out)
