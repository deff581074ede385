"""Noncrossing partitions on ordered ground sets, with gap weights and zeta/Mobius data.

A partition of a finite set of integers is noncrossing when no four elements
i < j < k < l have i,k in one block and j,l in another.  Each block
contributes its consecutive pairs as arcs; an arc spanning g ground elements
contributes the gap weight variable d_g (a gap of zero contributes 1).  All
positional notions (gaps, intervals, standardization) are taken relative to
the ground set, so restriction and relabeling commute with weights.

Partitions render as blocks joined by '|' with base-36 element digits, e.g.
'146|23|5' or '78AB|9'.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .poly import Polynomial, delta, poly_product


class NotAPartition(Exception):
    """The blocks do not form a partition of the ground set (or cross)."""


class GroundMismatch(Exception):
    """Two partitions live on different ground sets, or the ground is not 1..n."""


class NotBlockUnion(Exception):
    """Restriction target is not a union of blocks."""


_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Literal quadruple test: no i < j < k < l with i~k, j~l, j!~k."""
    owner: dict[int, int] = {}
    for b, block in enumerate(blocks):
        for x in block:
            owner[x] = b
    elems = sorted(owner)
    for i, j, k, l in combinations(elems, 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[j] != owner[i]:
            return False
    return True


class NoncrossingPartition:
    """Immutable noncrossing partition; hashable, canonically ordered blocks."""

    __slots__ = ("ground", "blocks", "_hash", "_owner", "_masks")

    def __init__(self, blocks: Iterable[Iterable[int]], ground: Iterable[int] | None = None):
        seen: set[int] = set()
        clean = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise NotAPartition("empty block")
            for x in b:
                if not isinstance(x, int):
                    raise NotAPartition(f"element {x!r} is not an integer")
                if x in seen:
                    raise NotAPartition(f"element {x} appears in two blocks")
                seen.add(x)
            clean.append(b)
        if ground is None:
            g = tuple(sorted(seen))
        else:
            g = tuple(sorted(ground))
            if set(g) != seen:
                raise NotAPartition("blocks do not cover the ground set exactly")
            if len(g) != len(seen):
                raise NotAPartition("ground set has repeated elements")
        if not is_noncrossing(clean):
            raise NotAPartition("blocks cross")
        self._init_raw(g, tuple(sorted(clean)))

    def _init_raw(self, ground: tuple, blocks: tuple) -> None:
        # the block structure, computed once: the index of the block owning
        # each element, and one bitmask per block over ground positions
        owner = {x: k for k, b in enumerate(blocks) for x in b}
        masks = [0] * len(blocks)
        for i, x in enumerate(ground):
            masks[owner[x]] |= 1 << i
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_hash", hash((ground, blocks)))
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "_masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("NoncrossingPartition is immutable")

    @classmethod
    def _trusted(cls, blocks: Iterable[Sequence[int]], ground: Sequence[int]) -> "NoncrossingPartition":
        # internal fast path: caller guarantees a valid noncrossing partition
        p = object.__new__(cls)
        p._init_raw(tuple(ground), tuple(sorted(tuple(b) for b in blocks)))
        return p

    # -- basics --------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ground)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, x: int) -> tuple:
        try:
            return self.blocks[self._owner[x]]
        except KeyError:
            raise KeyError(f"{x} is not in the ground set") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoncrossingPartition):
            return NotImplemented
        return self.ground == other.ground and self.blocks == other.blocks

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"NoncrossingPartition({self.render()})"

    def render(self) -> str:
        def digit(x: int) -> str:
            if not 1 <= x <= 35:
                raise ValueError(f"element {x} out of base-36 text range")
            return _DIGITS[x]

        return "|".join("".join(digit(x) for x in b) for b in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "NoncrossingPartition":
        s = text.strip()
        if not s:
            raise NotAPartition("empty partition text")
        blocks = []
        for chunk in s.split("|"):
            if not chunk:
                raise NotAPartition(f"empty block in {text!r}")
            blocks.append([int(ch, 36) for ch in chunk])
        return cls(blocks)


def finest(n: int) -> NoncrossingPartition:
    """The all-singletons partition of 1..n."""
    return NoncrossingPartition._trusted([(i,) for i in range(1, n + 1)], range(1, n + 1))


def coarsest(n: int) -> NoncrossingPartition:
    """The one-block partition of 1..n."""
    return NoncrossingPartition._trusted([tuple(range(1, n + 1))], range(1, n + 1))


# -- enumeration -------------------------------------------------------------

def _nc_blocks(elems: tuple) -> Iterator[tuple]:
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for r in range(len(rest) + 1):
        for chosen in combinations(rest, r):
            block = (first,) + chosen
            # the chosen members cut the remainder into independent segments
            segments = []
            bounds = list(chosen) + [None]
            prev = first
            for b in bounds:
                seg = tuple(x for x in rest if x not in block and prev < x and (b is None or x < b))
                segments.append(seg)
                prev = b if b is not None else prev
            partial: list[tuple] = [()]
            for seg in segments:
                partial = [p + q for p in partial for q in _nc_blocks(seg)]
            for tail in partial:
                yield (block,) + tail


@lru_cache(maxsize=None)
def enumerate_nc(n: int) -> tuple:
    """All noncrossing partitions of 1..n, canonically sorted (Catalan many)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ground = tuple(range(1, n + 1))
    parts = [
        NoncrossingPartition._trusted(blocks, ground) for blocks in _nc_blocks(ground)
    ]
    parts.sort(key=lambda p: p.blocks)
    return tuple(parts)


def enumerate_set_partitions(n: int) -> Iterator[list]:
    """All set partitions of 1..n (reference oracle; Bell many)."""
    if n == 0:
        yield []
        return
    for smaller in enumerate_set_partitions(n - 1):
        for i in range(len(smaller)):
            yield [b + [n] if j == i else list(b) for j, b in enumerate(smaller)]
        yield [list(b) for b in smaller] + [[n]]


@lru_cache(maxsize=None)
def enumerate_interval(n: int) -> tuple:
    """All interval partitions of 1..n, canonically sorted (2^(n-1) many)."""
    out = []
    for cuts in range(1 << max(n - 1, 0)):
        blocks = []
        cur = [1] if n else []
        for i in range(2, n + 1):
            if cuts >> (i - 2) & 1:
                blocks.append(tuple(cur))
                cur = [i]
            else:
                cur.append(i)
        if cur:
            blocks.append(tuple(cur))
        out.append(NoncrossingPartition._trusted(blocks, range(1, n + 1)))
    out.sort(key=lambda p: p.blocks)
    return tuple(out)


# -- arcs, weights, order ----------------------------------------------------

def arcs(p: NoncrossingPartition) -> tuple:
    """Consecutive pairs inside each block, in block order."""
    out = []
    for b in p.blocks:
        out.extend(zip(b, b[1:]))
    return tuple(out)


def _arc_monomial(p: NoncrossingPartition, host) -> Polynomial:
    """Product over the arcs (i, j) of p of d_m, built as one term, where m
    counts the members of host(i), a sorted tuple, strictly between i and j."""
    exps: dict[int, int] = {}
    for b in p.blocks:
        h = host(b[0])
        for i, j in zip(b, b[1:]):
            m = bisect_left(h, j) - bisect_right(h, i)
            if m:
                exps[m] = exps.get(m, 0) + 1
    return Polynomial._raw({tuple((delta(m), e) for m, e in sorted(exps.items())): Fraction(1)})


def weight(p: NoncrossingPartition) -> Polynomial:
    """Product of d_g over arcs, g = number of ground elements inside the arc."""
    return _arc_monomial(p, lambda x: p.ground)


def leq(p: NoncrossingPartition, q: NoncrossingPartition) -> bool:
    """Refinement order: every block of p sits inside a block of q."""
    if p.ground != q.ground:
        raise GroundMismatch("cannot compare partitions of different ground sets")
    owner, masks = q._owner, q._masks
    return all(m & masks[owner[b[0]]] == m for b, m in zip(p.blocks, p._masks))


def restrict(p: NoncrossingPartition, subset: Iterable[int]) -> NoncrossingPartition:
    """Restriction to a union of blocks; raises NotBlockUnion otherwise."""
    target = set(subset)
    if not target.issubset(p._owner):
        raise NotBlockUnion("subset stretches outside the ground set")
    chosen = [p.blocks[k] for k in sorted({p._owner[x] for x in target})]
    for b in chosen:
        if not target.issuperset(b):
            raise NotBlockUnion(f"block {b} is split by the subset")
    return NoncrossingPartition._trusted(chosen, tuple(sorted(target)))


def standardize(p: NoncrossingPartition) -> NoncrossingPartition:
    """Order-preserving relabel of the ground set onto 1..n."""
    relabel = {x: i + 1 for i, x in enumerate(p.ground)}
    return NoncrossingPartition._trusted(
        [tuple(relabel[x] for x in b) for b in p.blocks], range(1, p.size + 1)
    )


def _require_standard_ground(p: NoncrossingPartition) -> int:
    n = p.size
    if p.ground != tuple(range(1, n + 1)):
        raise GroundMismatch("operation needs ground set 1..n; standardize first")
    return n


# -- Kreweras complement -----------------------------------------------------

def kreweras(p: NoncrossingPartition) -> NoncrossingPartition:
    """Kreweras complement: slots i and j are together iff covered by the same arcs."""
    n = _require_standard_ground(p)
    arc_list = arcs(p)
    groups: dict[frozenset, list] = {}
    for slot in range(1, n + 1):
        key = frozenset(t for t, (a, b) in enumerate(arc_list) if a <= slot < b)
        groups.setdefault(key, []).append(slot)
    return NoncrossingPartition._trusted(
        [tuple(v) for v in groups.values()], range(1, n + 1)
    )


def kreweras_inv(p: NoncrossingPartition) -> NoncrossingPartition:
    """Inverse complement, via complement-of-rotation (K squared is a rotation)."""
    n = _require_standard_ground(p)
    shifted = NoncrossingPartition._trusted(
        [tuple(sorted(x % n + 1 for x in b)) for b in p.blocks], range(1, n + 1)
    )
    return kreweras(shifted)


# -- interval closure --------------------------------------------------------

def smallest_interval_above(p: NoncrossingPartition) -> NoncrossingPartition:
    """The minimal interval partition coarser than p.

    Chain walk: each interval runs from the current position to the max of the
    block containing it; no other block can straddle that boundary without
    crossing, so the walk is well defined.
    """
    ground, owner, masks = p.ground, p._owner, p._masks
    out, start = [], 0
    while start < len(ground):
        stop = masks[owner[ground[start]]].bit_length()
        out.append(ground[start:stop])
        start = stop
    return NoncrossingPartition._trusted(out, ground)


def iota(p: NoncrossingPartition) -> int:
    """Number of blocks of the smallest interval partition above p."""
    return smallest_interval_above(p).block_count


def is_interval(p: NoncrossingPartition) -> bool:
    """True when every arc joins ground-adjacent elements."""
    pos = {x: i for i, x in enumerate(p.ground)}
    return all(pos[j] - pos[i] == 1 for i, j in arcs(p))


# -- weighted zeta function and its complementary form -----------------------

def zeta(p: NoncrossingPartition, q: NoncrossingPartition) -> Polynomial:
    """Blockwise form: product over blocks B of q of weight(p restricted to B).

    Zero when p is not below q.
    """
    if not leq(p, q):
        return Polynomial.zero()
    return poly_product(weight(restrict(p, b)) for b in q.blocks)


def zeta_arc_form(p: NoncrossingPartition, q: NoncrossingPartition) -> Polynomial:
    """Arc form: product over arcs (i, j) of p of d_m, where m counts the
    members of the q-block of i lying strictly between i and j.

    Must agree with zeta(); kept separate so tests can compare the two and hot
    paths can use the cheaper product.
    """
    if not leq(p, q):
        return Polynomial.zero()
    return _arc_monomial(p, q.block_of)


def zeta_c(a: NoncrossingPartition, b: NoncrossingPartition) -> Polynomial:
    """Complementary zeta: zeta evaluated at the Kreweras complements, with the
    arguments swapped so the support is a <= b."""
    return zeta(kreweras(b), kreweras(a))


def zeta_c_closed(a: NoncrossingPartition, b: NoncrossingPartition) -> Polynomial:
    """Closed product form of zeta_c, with no complement computation.

    For a <= b: product over blocks B of b that avoid the minimum of the
    ground and whose min and max are separated in a, of d_{iota(a | hull(B)) - 1}.
    """
    n = _require_standard_ground(a)
    _require_standard_ground(b)
    if not leq(a, b):
        return Polynomial.zero()
    owner = a._owner
    return poly_product(
        delta(iota(restrict(a, range(block[0], block[-1] + 1))) - 1)
        for block in b.blocks
        if 1 not in block and owner[block[0]] != owner[block[-1]]
    )
