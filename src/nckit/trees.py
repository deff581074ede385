"""Plane trees with no unary vertices, and their noncrossing arrangement counterpart.

Trees are nested tuples: a leaf is the empty tuple, an internal vertex is the
tuple of its children (at least two).  A tree with n+1 leaves is "prime" when
the root's last child is a leaf; prime trees with n+1 leaves map bijectively
onto arrangements, noncrossing forests of binary trees with leaves on the dots
1..n.  The forward map prunes middle children into separate components; the
inverse re-attaches the components directly inside each vertex's gap as its
middle children: the first starts just after the gap's low dot, each next one
just after the previous one ends.  Leaf counts follow the little Schroder
numbers, prime counts the large ones.  Each map reads its input in one walk: a
module-level recursion taking its state as arguments, since a nested function
calling itself is a reference cycle that leaves each call to the cycle collector.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import count, product, repeat
from typing import Iterable, Iterator, Sequence

from .ncpart import NoncrossingPartition, NotAPartition, _delta_key, enumerate_nc
from .poly import Polynomial, _require_size, _shown, _Value


class NotPrime(Exception):
    """The map is only defined for trees whose root ends in a leaf."""


class InvalidArrangement(Exception):
    """Component data does not describe a noncrossing forest of binary trees."""


Tree = tuple
LEAF: Tree = ()


# -- basic tree structure ----------------------------------------------------

def _bounded(walk):
    """``walk`` refusing a tree nested past the interpreter's recursion limit
    with ValueError, not a bare RecursionError."""
    @wraps(walk)
    def checked(t: Tree):
        try:
            return walk(t)
        except RecursionError:
            raise ValueError("tree nested past the recursion limit") from None

    return checked


@_bounded
def n_leaves(t: Tree) -> int:
    """Leaf count; ValueError on a tree nested past the recursion limit."""
    return sum(map(n_leaves, t)) if t else 1  # map adds no frame: the accepted depth is kept


@_bounded
def internal_count(t: Tree) -> int:
    """Internal vertex count; ValueError on a tree nested past the recursion limit."""
    return 1 + sum(map(internal_count, t)) if t else 0


@_bounded
def is_binary(t: Tree) -> bool:
    """A tuple tree with 0 or 2 children per vertex; ValueError past the recursion limit."""
    return type(t) is tuple and (not t or len(t) == 2 and is_binary(t[0]) and is_binary(t[1]))


@_bounded
def tree_to_json(t: Tree):
    """Leaf as 0, internal vertex as its list of children; ValueError past the recursion limit."""
    return list(map(tree_to_json, t)) if t else 0


@_bounded
def tree_from_json(obj) -> Tree:
    """Inverse of tree_to_json; raises ValueError on anything else, lists nested
    past the interpreter's recursion limit included."""
    if type(obj) is int and obj == 0:  # not False, 0.0 or Fraction(0)
        return LEAF
    if isinstance(obj, list) and len(obj) >= 2:
        return tuple(map(tree_from_json, obj))
    raise ValueError(f"bad tree encoding: {_shown(obj)}")


# -- enumeration -------------------------------------------------------------

@lru_cache(maxsize=None)
def _trees_with_leaves(m: int) -> tuple:
    # the children of a vertex: a first child, then either one more child or the
    # children of a vertex with at least two; each size of first child makes one
    # sorted run, so the sort only merges m - 1 runs
    if m == 1:
        return (LEAF,)
    out = []
    for k in range(1, m):
        rest = _trees_with_leaves(m - k)
        tails = sorted([(t,) for t in rest] + [t for t in rest if t])
        out += [(first,) + tail for first in _trees_with_leaves(k) for tail in tails]
    out.sort()
    return tuple(out)


def enumerate_schroder(n: int) -> tuple:
    """All no-unary-vertex plane trees with n+1 leaves, in canonical order,
    built by splitting off each vertex's first child."""
    _require_size(n, 1)
    return _trees_with_leaves(n + 1)


def is_prime(t: Tree) -> bool:
    """True when the edge to the root's last child ends in a leaf."""
    return bool(t) and t[-1] == LEAF


@lru_cache(maxsize=None, typed=True)  # True is not a size, though it hashes as 1
def enumerate_prime(n: int) -> tuple:
    return tuple(t for t in enumerate_schroder(n) if is_prime(t))


@lru_cache(maxsize=None, typed=True)
def enumerate_binary(m: int) -> tuple:
    """Full binary trees with m leaves, in canonical order, read off the Schroder trees."""
    _require_size(m, 1, "m")
    return tuple(filter(is_binary, _trees_with_leaves(m)))


# -- the partition of a prime tree ------------------------------------------

@_bounded
def eta(t: Tree) -> NoncrossingPartition:
    """Noncrossing partition read off a prime tree with n+1 leaves.

    Each internal vertex contributes one block: the largest leaf index under
    each of its children except the last.  Leaves are numbered left to right
    from 1.  Raises NotPrime on a tree that is not prime, ValueError on one
    nested past the recursion limit.
    """
    if not is_prime(t):
        raise NotPrime("the partition map needs a prime tree")
    blocks: list[tuple] = []
    leaves = _last_leaf(t, 0, blocks)
    return NoncrossingPartition._trusted(sorted(blocks), range(1, leaves))


def _last_leaf(node: Tree, before: int, blocks: list) -> int:
    # the last leaf under node, numbering leaves after `before`; adds each vertex's block
    if not node:
        return before + 1
    own = []
    for child in node:
        before = _last_leaf(child, before, blocks)
        own.append(before)
    blocks.append(tuple(own[:-1]))
    return before


@_bounded
def weight_tree(t: Tree) -> Polynomial:
    """Product of d_{deg(v)-1} over internal vertices off the leftmost branch;
    ValueError on a tree nested past the recursion limit."""
    return Polynomial._raw({_weight_key(t, True): 1})


def _weight_key(node: Tree, spine: bool = False) -> int:
    # the vertices under node, those on the leftmost branch left out when node is on
    # it; that branch is recursed too, so a tree too deep for the walk still raises
    if not node:
        return 0
    own = 0 if spine else _delta_key(len(node) - 1)
    return own + _weight_key(node[0], spine) + sum(map(_weight_key, node[1:]))


# -- arrangements ------------------------------------------------------------

class Arrangement(_Value):
    """A noncrossing forest of binary trees with leaves on the dots 1..n.

    Components are (positions, shape) pairs: sorted dot positions carrying the
    leaves of a full binary tree in left-to-right order.  The partition of the
    dots into component dot sets is built, and checked, with the arrangement.
    """

    __slots__ = ("components", "_partition")

    def __init__(self, components: Iterable[tuple]):
        """Raises InvalidArrangement on components that do not describe one,
        shapes nested past the interpreter's recursion limit included."""
        try:
            comps = [(tuple(pos), shape) for pos, shape in components]
        except (TypeError, ValueError):
            raise InvalidArrangement("components must be (positions, shape) pairs") from None
        dots = [pos for pos, _ in comps]
        try:
            part = NoncrossingPartition(dots, range(1, sum(map(len, dots)) + 1))
        except NotAPartition as exc:
            raise InvalidArrangement(f"dots do not form a partition of 1..n: {exc}") from exc
        try:
            for pos, shape in comps:
                if list(pos) != sorted(pos):
                    raise InvalidArrangement(f"positions {pos} are not sorted")
                if not is_binary(shape):
                    raise InvalidArrangement(f"component shape {_shown(shape)} is not binary")
                if len(pos) != n_leaves(shape):
                    raise InvalidArrangement(
                        f"{len(pos)} positions for a shape with {n_leaves(shape)} leaves"
                    )
        except ValueError:  # from is_binary or n_leaves
            raise InvalidArrangement("a component shape is nested past the recursion limit") from None
        self._init_raw(comps, part)

    def _init_raw(self, comps: Sequence[tuple], part: NoncrossingPartition | None = None) -> None:
        comps = tuple(sorted(comps))
        if part is None:  # trusted components: build their partition unchecked
            dots = [pos for pos, _ in comps]
            part = NoncrossingPartition._trusted(dots, range(1, sum(map(len, dots)) + 1))
        self._fill(comps, part)

    @property
    def size(self) -> int:
        return self._partition.size

    def _key(self) -> tuple:
        return self.components

    def __repr__(self) -> str:
        body = ", ".join(
            f"{''.join(str(p) for p in pos)}:{tree_to_json(shape)}"
            for pos, shape in self.components
        )
        return f"Arrangement({body})"

    def to_json_list(self) -> list:
        return [
            {"positions": list(pos), "tree": tree_to_json(shape)}
            for pos, shape in self.components
        ]


def partition_of(a: Arrangement) -> NoncrossingPartition:
    """The noncrossing partition whose blocks are the component dot sets,
    built with the arrangement and kept on it."""
    return a._partition


def _inside(starts: dict, lo: int, hi: int) -> Iterator[tuple]:
    """The components lying directly inside two dots lo < hi, left to right;
    ``starts`` maps each component's first dot to the component.

    By noncrossing, the first starts at dot lo + 1 and each next one right
    after the previous one ends; any deeper component sits inside one of them.
    """
    while lo + 1 < hi:
        comp = starts[lo + 1]
        yield comp
        lo = comp[0][-1]


def cover_counts(a: Arrangement) -> dict:
    """Map from internal vertex span (min dot, max dot) to covered-component count."""
    starts, counts = {comp[0][0]: comp for comp in a.components}, {}
    for pos, shape in a.components:
        _count_covers(pos, shape, 0, starts, counts)
    return counts


def _count_covers(pos: tuple, node: Tree, start: int, starts: dict, counts: dict) -> int:
    # node's leaves sit on pos[start:end]; counts each vertex's gap, returns end
    if not node:
        return start + 1
    mid = _count_covers(pos, node[0], start, starts, counts)
    end = _count_covers(pos, node[1], mid, starts, counts)
    counts[pos[start], pos[end - 1]] = sum(map(bool, _inside(starts, pos[mid - 1], pos[mid])))
    return end


def weight_arrangement(a: Arrangement) -> Polynomial:
    """Product of d_{cover(v)+1} over internal vertices off the leftmost branch.

    The leftmost branch consists of the vertices whose span starts at dot 1.
    """
    key = sum(_delta_key(c + 1) for (lo, _), c in cover_counts(a).items() if lo != 1)
    return Polynomial._raw({key: 1})


# -- the bijection with prime trees ------------------------------------------

@_bounded
def phi(t: Tree) -> Arrangement:
    """Prune a prime tree to its arrangement: drop the root, its last leaf and
    every middle edge; middle subtrees become their own components.  Raises
    NotPrime on a tree that is not prime, ValueError on one nested past the
    recursion limit."""
    if not is_prime(t):
        raise NotPrime("only prime trees have an arrangement form")
    components: list[tuple] = []
    leaf = count(1).__next__
    for child in t[:-1]:
        components.append(_pruned(child, leaf, components))
    return Arrangement._trusted(components)


def _pruned(node: Tree, leaf, components: list) -> tuple:
    # (positions, binary shape) of the pruned copy of node, its leaves numbered by
    # calling leaf(); its middle subtrees go to components
    if not node:
        return (leaf(),), LEAF
    (lp, ls), *mids, (rp, rs) = map(_pruned, node, repeat(leaf), repeat(components))
    components += mids
    return lp + rp, (ls, rs)


def phi_inv(a: Arrangement) -> Tree:
    """Rebuild the prime tree: re-insert the components directly inside each
    vertex gap as that vertex's middle children; the components directly
    inside dots 0 and n+1 hang off a new root, followed by one final leaf."""
    starts = {comp[0][0]: comp for comp in a.components}
    roots = _inside(starts, 0, a.size + 1)
    return tuple(_regrown(pos, shape, 0, starts)[0] for pos, shape in roots) + (LEAF,)


def _regrown(pos: tuple, node: Tree, start: int, starts: dict) -> tuple:
    # (subtree, end): node's leaves sit on pos[start:end], and the components
    # inside each vertex's gap come back as its middle children
    if not node:
        return LEAF, start + 1
    left, mid = _regrown(pos, node[0], start, starts)
    right, end = _regrown(pos, node[1], mid, starts)
    kids = [left]
    for inner, shape in _inside(starts, pos[mid - 1], pos[mid]):
        kids.append(_regrown(inner, shape, 0, starts)[0])
    kids.append(right)
    return tuple(kids), end


@lru_cache(maxsize=None, typed=True)
def enumerate_arrangements(n: int) -> tuple:
    """Independent enumeration: one noncrossing partition plus one binary shape
    per block; used to cross-check the prime-tree bijection."""
    out = []
    for p in enumerate_nc(n):
        for shapes in product(*(enumerate_binary(len(b)) for b in p.blocks)):
            out.append(Arrangement._trusted(tuple(zip(p.blocks, shapes)), p))
    out.sort(key=lambda a: a.components)
    return tuple(out)
