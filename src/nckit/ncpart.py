"""Noncrossing partitions on ordered ground sets, with gap weights and zeta/Mobius data.

A partition of a finite set of integers is noncrossing when no four elements
i < j < k < l have i,k in one block and j,l in another.  Each block
contributes its consecutive pairs as arcs; an arc spanning g ground elements
contributes the gap weight variable d_g (a gap of zero contributes 1).  All
positional notions (gaps, intervals, standardization) are taken relative to
the ground set, so restriction and relabeling commute with weights.  The block
relation is one int, bit i*n + j set when positions i and j of n share a block.

Partitions render as blocks joined by '|' with base-36 element digits, e.g.
'146|23|5' or '78AB|9'.  The constructor validates; the package builds its own
through the trusted path, `_trusted(blocks, ground)`, whose `_init_raw` checks nothing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .poly import Polynomial, _require_size, _shown, _Value, delta, variable_key


class NotAPartition(Exception):
    """The blocks do not form a partition of the ground set (or cross)."""


class GroundMismatch(Exception):
    """Two partitions live on different ground sets, or the ground is not 1..n."""


class NotBlockUnion(Exception):
    """Restriction target is not a union of blocks."""


_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Literal quadruple test: no i < j < k < l with i~k, j~l, j!~k; the oracle
    for the constructor, which reads the arcs instead."""
    owner: dict[int, int] = {}
    for b, block in enumerate(blocks):
        for x in block:
            owner[x] = b
    elems = sorted(owner)
    for i, j, k, l in combinations(elems, 4):
        if owner[i] == owner[k] and owner[j] == owner[l] and owner[j] != owner[i]:
            return False
    return True


class NoncrossingPartition(_Value):
    """Immutable noncrossing partition; hashable, canonically ordered blocks."""

    __slots__ = ("ground", "blocks", "_rel", "_masks")

    def __init__(self, blocks: Iterable[Iterable[int]], ground: Iterable[int] | None = None):
        """Raises NotAPartition unless the blocks are a noncrossing partition of the ground."""
        try:
            clean = [tuple(block) for block in blocks]
            g = None if ground is None else tuple(ground)
        except TypeError:
            raise NotAPartition("the blocks, each block and the ground must be iterable") from None
        for x in chain(*clean, g or ()):  # before any sort compares two elements
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotAPartition(f"element {_shown(x)} is not an integer")
        clean = [tuple(sorted(b)) for b in clean]
        seen: set[int] = set()
        for b in clean:
            if not b:
                raise NotAPartition("empty block")
            for x in b:
                if x in seen:
                    raise NotAPartition(f"element {x} appears in two blocks")
                seen.add(x)
        if g is None:
            g = seen
        elif set(g) != seen:
            raise NotAPartition("blocks do not cover the ground set exactly")
        elif len(g) != len(seen):
            raise NotAPartition("ground set has repeated elements")
        self._init_raw(sorted(clean), sorted(g))
        for _, inside in _arc_spans(self):  # a block with members on both sides crosses
            if any(m & inside not in (0, m) for m in self._masks):
                raise NotAPartition("blocks cross")

    def _init_raw(self, blocks: Iterable[Sequence[int]], ground: Sequence[int]) -> None:
        # the trusted path: the caller guarantees a valid noncrossing partition in
        # canonical order, each block a sorted tuple, blocks by first element.  Row i
        # of the relation (bits i*n up) is the block at position i, so refinement is
        # inclusion; x sits at x - ground[0] on a run of integers, else at ground.index(x)
        blocks, ground = tuple(blocks), tuple(ground)
        n, base, places = len(ground), ground[0] if ground else 0, blocks
        if ground and ground[-1] - base != n - 1:
            base, places = 0, [[ground.index(x) for x in b] for b in blocks]
        masks, rel = [], 0
        for b in places:
            m = spread = 0
            for x in b:
                m |= 1 << x - base
                spread |= 1 << (x - base) * n
            masks.append(m)
            rel |= m * spread  # row i of the relation is m for each i of the block
        self._fill(ground, blocks, rel, tuple(masks))

    # -- basics --------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ground)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, x: int) -> tuple:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(f"{x} is not in the ground set")

    def _key(self) -> tuple:
        return self.ground, self.blocks

    def __repr__(self) -> str:
        try:
            return f"NoncrossingPartition({self.render()})"
        except ValueError:  # an element render() cannot spell
            return f"NoncrossingPartition({self.blocks}, ground={self.ground})"

    def render(self) -> str:
        def digit(x: int) -> str:
            if not 1 <= x <= 35:
                raise ValueError(f"element {x} out of base-36 text range")
            return _DIGITS[x]

        return "|".join("".join(digit(x) for x in b) for b in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "NoncrossingPartition":
        """Inverse of render(): blocks of the digits 1-9, A-Z joined by "|".

        Raises TypeError when text is not a str, NotAPartition when it does
        not spell a noncrossing partition."""
        if not isinstance(text, str):
            raise TypeError(f"not partition text: {_shown(text)}")
        s = text.strip()
        if not s:
            raise NotAPartition("empty partition text")
        blocks = []
        for chunk in s.split("|"):
            if not chunk:
                raise NotAPartition(f"empty block in {_shown(text)}")
            block = [_DIGITS.find(ch.upper()) for ch in chunk]
            if min(block) < 1:
                raise NotAPartition(f"block {_shown(chunk)} is not made of digits 1-9, A-Z")
            blocks.append(block)
        return cls(blocks)


def finest(n: int) -> NoncrossingPartition:
    """The all-singletons partition of 1..n."""
    _require_size(n, 0)
    return NoncrossingPartition._trusted([(i,) for i in range(1, n + 1)], range(1, n + 1))


def coarsest(n: int) -> NoncrossingPartition:
    """The one-block partition of 1..n."""
    _require_size(n, 0)
    return NoncrossingPartition._trusted([tuple(range(1, n + 1))], range(1, n + 1))


# -- enumeration -------------------------------------------------------------

def _canonical(n: int, block_tuples: Iterable[tuple]) -> tuple:
    # each block tuple lists its blocks by first element, as p.blocks does,
    # so sorting the block tuples gives the canonical order of the partitions
    ground = range(1, n + 1)
    return tuple(NoncrossingPartition._trusted(b, ground) for b in sorted(block_tuples))


@lru_cache(maxsize=None, typed=True)  # True is not a size, though it hashes as 1
def enumerate_nc(n: int) -> tuple:
    """All noncrossing partitions of 1..n, canonically sorted (Catalan many).

    Split at the first element: the block of lo is {lo} alone, or {lo} joined
    to the block of its next member j, with lo+1..j-1 partitioned on its own.
    """
    _require_size(n, 0)
    parts = {}  # (lo, hi) -> the partitions of lo..hi as block tuples
    for lo in range(n + 1, 0, -1):
        parts[lo, lo - 1] = [()]
        for hi in range(lo, n + 1):
            out = [((lo,),) + rest for rest in parts[lo + 1, hi]]
            for j in range(lo + 1, hi + 1):
                for inner in parts[lo + 1, j - 1]:
                    out += [((lo,) + q[0],) + inner + q[1:] for q in parts[j, hi]]
            parts[lo, hi] = out
    return _canonical(n, parts[1, n])


def enumerate_set_partitions(n: int) -> Iterator[list]:
    """All set partitions of 1..n (reference oracle; Bell many)."""
    _require_size(n, 0)
    if n == 0:
        yield []
        return
    for smaller in enumerate_set_partitions(n - 1):
        for i in range(len(smaller)):
            yield [b + [n] if j == i else list(b) for j, b in enumerate(smaller)]
        yield [list(b) for b in smaller] + [[n]]


@lru_cache(maxsize=None, typed=True)
def enumerate_interval(n: int) -> tuple:
    """All interval partitions of 1..n, canonically sorted (2^(n-1) many): a run
    1..k followed by an interval partition of k+1..n."""
    _require_size(n, 0)
    runs = {n + 1: [()]}  # lo -> the interval partitions of lo..n as block tuples
    for lo in range(n, 0, -1):
        runs[lo] = [
            (tuple(range(lo, k + 1)),) + rest for k in range(lo, n + 1) for rest in runs[k + 1]
        ]
    return _canonical(n, runs[1])


# -- arcs, weights, order ----------------------------------------------------

def arcs(p: NoncrossingPartition) -> tuple:
    """Consecutive pairs inside each block, in block order."""
    return tuple(chain.from_iterable(zip(b, b[1:]) for b in p.blocks))


@lru_cache(maxsize=None)
def _delta_key(m: int) -> int:
    return variable_key(delta(m))


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _arc_spans(p: NoncrossingPartition) -> list:
    """Per arc of p with ground positions strictly between its ends: the
    position of its left end and the mask of the positions between."""
    spans = []
    for mask in p._masks:
        while mask & (mask - 1):  # an arc from the lowest element left
            low = mask & -mask
            mask ^= low
            inside = (mask & -mask) - (low << 1)
            if inside:
                spans.append((low.bit_length() - 1, inside))
    return spans


def _weight_key(p: NoncrossingPartition) -> int:
    return sum(_delta_key(inside.bit_count()) for _, inside in _arc_spans(p))


def weight(p: NoncrossingPartition) -> Polynomial:
    """Product of d_g over arcs, g = number of ground elements inside the arc."""
    return Polynomial._raw({_weight_key(p): 1})


def leq(p: NoncrossingPartition, q: NoncrossingPartition) -> bool:
    """Refinement order: every block of p sits inside a block of q."""
    if p.ground != q.ground:
        raise GroundMismatch("cannot compare partitions of different ground sets")
    return p._rel & q._rel == p._rel


def _coarsenings(parts: list) -> tuple:
    """Per partition i of ``parts`` (NC(n) finer before coarser): its up-set as offsets, bit
    j set when parts[i + j] is above it (its own bit or'd with those of its covers, the
    noncrossing merges of two blocks, filled coarsest first), and same[i], the ``same`` of the
    latest of i, its mirror and, if 1 ~ 2, its twin; both keep the column value, as x -> n+1-x
    keeps how many elements each arc holds and 1 is inside no arc (drop it, join n to n-1)."""
    n = parts[0].size  # a partition's code: its block masks, each in the row of its lowest bit
    term = {m: m << n * ((m & -m).bit_length() - 1) for m in range(1, 1 << n)}
    mirrored = {m: term[int(f"{m:0{n}b}"[::-1], 2)] for m in term}
    twinned = {m: term.get(m >> 1 | m & 1 << n - 1, 0) for m in term}
    index = {sum(map(term.get, p._masks)): i for i, p in enumerate(parts)}
    up, same = [1] * len(parts), list(range(len(parts)))
    for c, i in reversed(index.items()):
        masks = parts[i]._masks
        twin = index[sum(map(twinned.get, masks))] if parts[i]._rel & 2 else i
        same[i] = same[max(i, twin, index[sum(map(mirrored.get, masks))])]
        for a, b in combinations(masks, 2):  # a crossing merge is not indexed
            k = index.get(c + term[a | b] - term[a] - term[b], i)
            up[i] |= up[k] << k - i
    return up, same


def restrict(p: NoncrossingPartition, subset: Iterable[int]) -> NoncrossingPartition:
    """Restriction to a union of blocks; raises NotBlockUnion otherwise."""
    target = set(subset)
    if not target.issubset(p.ground):
        raise NotBlockUnion("subset stretches outside the ground set")
    chosen = [b for b in p.blocks if not target.isdisjoint(b)]
    for b in chosen:
        if not target.issuperset(b):
            raise NotBlockUnion(f"block {b} is split by the subset")
    return NoncrossingPartition._trusted(chosen, tuple(sorted(target)))


def standardize(p: NoncrossingPartition) -> NoncrossingPartition:
    """Order-preserving relabel of the ground set onto 1..n."""
    blocks = [tuple(_bits(m << 1)) for m in p._masks]  # position i becomes i + 1
    return NoncrossingPartition._trusted(blocks, range(1, p.size + 1))


def _require_standard_ground(p: NoncrossingPartition) -> int:
    if p.ground and (p.ground[0], p.ground[-1]) != (1, p.size):  # sorted, distinct: ends decide
        raise GroundMismatch("operation needs ground set 1..n; standardize first")
    return p.size


# -- Kreweras complement -----------------------------------------------------

@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def kreweras_inv(p: NoncrossingPartition) -> NoncrossingPartition:
    """Inverse complement, via complement-of-rotation (K squared is a rotation)."""
    n = _require_standard_ground(p)
    shifted = NoncrossingPartition._trusted(
        sorted(tuple(sorted(x % n + 1 for x in b)) for b in p.blocks), range(1, n + 1)
    )
    return kreweras(shifted)


# -- interval closure --------------------------------------------------------

def _interval_ends(p: NoncrossingPartition, start: int, stop: int) -> Iterator[int]:
    """Chain walk over the positions start..stop-1, a union of blocks of p: each
    interval of the smallest interval partition above p runs from the current
    position to the max of the block containing it; no other block can straddle
    that boundary without crossing.  Yields the position past each interval."""
    n = p.size
    while start < stop:
        start = (p._rel >> start * n & (1 << n) - 1).bit_length()  # past the block at start
        yield start


def smallest_interval_above(p: NoncrossingPartition) -> NoncrossingPartition:
    """The minimal interval partition coarser than p."""
    ends = [0, *_interval_ends(p, 0, p.size)]
    return NoncrossingPartition._trusted([p.ground[i:j] for i, j in zip(ends, ends[1:])], p.ground)


def iota(p: NoncrossingPartition) -> int:
    """Number of blocks of the smallest interval partition above p."""
    return len([*_interval_ends(p, 0, p.size)])


def is_interval(p: NoncrossingPartition) -> bool:
    """True when every block is a run of ground-adjacent elements."""
    return all(m & (m + (m & -m)) == 0 for m in p._masks)


# -- weighted zeta function and its complementary form -----------------------

def zeta(p: NoncrossingPartition, q: NoncrossingPartition) -> Polynomial:
    """Blockwise form: product over blocks B of q of weight(p restricted to B).

    Zero when p is not below q.
    """
    if not leq(p, q):
        return Polynomial.zero()
    return Polynomial._raw({sum(_restricted_weight_key(p, b) for b in q.blocks): 1})


@lru_cache(maxsize=None)
def _restricted_weight_key(p: NoncrossingPartition, block: tuple) -> int:
    return _weight_key(restrict(p, block))


def zeta_arc_form(p: NoncrossingPartition, q: NoncrossingPartition) -> Polynomial:
    """Arc form: product over arcs (i, j) of p of d_m, where m counts the
    members of the q-block of i lying strictly between i and j.

    Must agree with zeta(); kept separate so tests can compare the two.  The
    mobius route reads the same product as packed keys through ``_zeta_keys``.
    """
    if not leq(p, q):
        return Polynomial.zero()
    (key,) = _zeta_keys(p, [q])
    return Polynomial._raw({key: 1})


def _zeta_keys(p: NoncrossingPartition, coarser) -> Iterator[int]:
    """The packed key of zeta_arc_form(p, q) for each q of ``coarser``, which
    the caller knows lie above p, so it skips ``leq``; p's arcs are read once."""
    spans = [inside << at * p.size for at, inside in _arc_spans(p)]  # in row `at`
    for q in coarser:
        rel, key = q._rel, 0
        for span in spans:
            if between := (rel & span).bit_count():
                key += _delta_key(between)
        yield key


def zeta_c(a: NoncrossingPartition, b: NoncrossingPartition) -> Polynomial:
    """Complementary zeta: zeta evaluated at the Kreweras complements, with the
    arguments swapped so the support is a <= b."""
    return zeta(kreweras(b), kreweras(a))


def zeta_c_closed(a: NoncrossingPartition, b: NoncrossingPartition) -> Polynomial:
    """Closed product form of zeta_c, with no complement computation.

    For a <= b: product over blocks B of b that avoid the minimum of the
    ground and whose min and max are separated in a, of d_{iota(a | hull(B)) - 1}.
    """
    n = _require_standard_ground(a)  # leq raises GroundMismatch unless b shares it
    if not leq(a, b):
        return Polynomial.zero()
    key = sum(  # as a <= b, the hull of a block of b is a union of blocks of a
        _delta_key(len([*_interval_ends(a, block[0] - 1, block[-1])]) - 1)
        for block in b.blocks
        if block[0] > 1 and not a._rel >> (block[0] - 1) * n + block[-1] - 1 & 1
    )
    return Polynomial._raw({key: 1})
