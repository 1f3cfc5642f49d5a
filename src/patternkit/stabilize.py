"""Stabilization, witnessed avoidance, condition extension, and the greedy
split procedure for joined patterns.

Everything here runs at desk scale: reservoirs are explicit finite windows,
so the computability-theoretic side conditions of the original setting
(dominated reservoirs, genericity) have no counterpart and are dropped.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

from . import _kernels
from .core import (
    FiniteColoring,
    PartialColoring,
    Pattern,
    PatternError,
    _check_below,
    _check_in_window,
    _check_window_subset,
    _Record,
    avoids,
    coloring_from_function,
    find_realizer,
)

# extend_condition and greedy_avoid_join import the algebra when called, so
# avoid-search and tree2col, which run neither, do not load it


class WindowExhausted(RuntimeError):
    """A finite reservoir ran out where the infinite argument would continue."""


def stabilizes(f: FiniteColoring, E: Iterable[int], F: Iterable[int],
               g: PartialColoring) -> bool:
    """Every x in E keeps its witness color g(x) toward all of F."""
    es, fs = sorted(E), sorted(F)
    if not g.defined_on(es):
        raise PatternError("stabilization witness must be defined on all of E")
    _check_below(es, fs, "E must lie entirely below F")
    return all(f(x, y) == g(x) for x in es for y in fs)


def fg_avoids(f: FiniteColoring, g: PartialColoring, X: Iterable[int],
              p: Pattern) -> bool:
    """X avoids p, and every truncation realizer in X has a vertex whose
    witness color contradicts the last-column specification of p."""
    if p.size < 2:
        raise PatternError("witnessed avoidance needs a pattern of size >= 2")
    xs = sorted(set(X))
    if not g.defined_on(xs):
        raise PatternError("witness must be defined on all of X")
    _check_in_window(f, xs)
    rows, prows = f.rows, p.rows
    return (_kernels.lex_least_realizer(rows, xs, prows) is None
            and _kernels.lex_least_realizer(
                rows, xs, prows, sum(g.assignments[x] << x for x in xs)) is None)


def find_stabilizing_tail(f: FiniteColoring, E: Iterable[int],
                          X: Iterable[int]) -> tuple[frozenset[int], PartialColoring]:
    """Largest subset of X on which every x in E has a constant color.

    Pigeonhole over the 2^|E| color vectors; ties among maximal classes are
    broken by the least vector.
    """
    es, xs = sorted(set(E)), sorted(set(X))
    _check_below(es, xs, "E must lie entirely below X")
    if not es:
        return frozenset(xs), PartialColoring({})
    classes: dict[tuple[int, ...], list[int]] = {}
    for y in xs:
        vec = tuple(f(x, y) for x in es)
        classes.setdefault(vec, []).append(y)
    if not classes:
        return frozenset(), PartialColoring({x: 0 for x in es})
    best_vec = min(classes, key=lambda v: (-len(classes[v]), v))
    g = PartialColoring({x: c for x, c in zip(es, best_vec)})
    return frozenset(classes[best_vec]), g


class Condition(_Record):
    """A stem/reservoir pair with a stabilization witness.

    The reservoir is a finite window slice standing in for the infinite
    reservoir of the original construction; there is no dominated-degree
    side condition at this scale.
    """

    __slots__ = _fields = ("stem", "reservoir", "witness")

    def __init__(self, stem: frozenset[int], reservoir: frozenset[int],
                 witness: PartialColoring):
        _check_below(stem, reservoir)
        if not witness.defined_on(stem):
            raise PatternError("witness must be defined on the stem")
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "reservoir", reservoir)
        object.__setattr__(self, "witness", witness)


def is_valid_condition(f: FiniteColoring, c: Condition, p: Pattern) -> bool:
    """Reservoir stabilizes the stem with the witness, and the stem avoids p
    in the witnessed sense."""
    return (
        stabilizes(f, c.stem, c.reservoir, c.witness)
        and fg_avoids(f, c.witness, c.stem, p)
    )


def extend_condition(f: FiniteColoring, c: Condition, x: int, p: Pattern) -> Condition:
    """Move x from the reservoir into the stem, shrinking the reservoir to the
    largest constant-color tail above x.

    Requires p divergent and irreducible: divergence makes the fresh singleton
    stem vacuously safe, irreducibility makes the union safe.
    """
    from .algebra import classify

    fl = classify(p)
    if not (fl.divergent and fl.irreducible):
        raise PatternError("condition extension needs a divergent irreducible pattern")
    if x not in c.reservoir:
        raise PatternError(f"{x} is not in the reservoir")
    above = [y for y in sorted(c.reservoir) if y > x]
    tail, gx = find_stabilizing_tail(f, [x], above)
    if not tail:
        raise WindowExhausted(f"no reservoir left above {x}")
    new_witness = c.witness.extended(x, gx(x))
    new = Condition(frozenset(c.stem | {x}), tail, new_witness)
    if not is_valid_condition(f, new, p):
        # cannot happen when the input condition is valid (union lemma), kept
        # as a guard against invalid inputs
        raise PatternError("extension produced an invalid condition")
    return new


class GreedySplit(NamedTuple):
    side: str                  # "p" or "q"
    elements: frozenset[int]
    verified: bool
    fallback: bool             # True when the window ended before the case split settled


def greedy_avoid_join(f: FiniteColoring, H: Iterable[int], p: Pattern,
                      q: Pattern) -> GreedySplit:
    """Given H avoiding p ⊎ q, produce a subset avoiding p or avoiding q.

    Grow a p-avoiding set by least admissible element.  If a prefix blocks
    every one-step extension, stabilize the remainder of H above it by
    pigeonhole; the stabilized class must then avoid q.  When the window ends
    before the dichotomy settles, the longer verified candidate wins.
    """
    from .algebra import join

    hs = sorted(set(H))
    pq = join(p, q)
    witness = find_realizer(f, hs, pq)
    if witness is not None:
        raise PatternError(
            f"H does not avoid the joined pattern; realizer {sorted(witness)}")

    # avoidance is closed downward, so a rejected z stays rejected once the
    # prefix grows: one ascending pass picks what rescanning would.  The
    # prefix avoids p, so chosen + [z] does unless z tops a realizer.
    rows, prows = f.rows, p.rows
    chosen: list[int] = []
    remaining: list[int] = []
    for z in hs:
        admissible = _kernels.lex_least_realizer(rows, chosen, prows, rows[z]) is None
        (chosen if admissible else remaining).append(z)

    if not remaining:
        return GreedySplit("p", frozenset(chosen), avoids(f, chosen, p), False)

    # blocked: every remaining element completes a p-realizer over the prefix
    above = [y for y in hs if y > max(chosen)] if chosen else hs
    tail, _ = find_stabilizing_tail(f, chosen, above)
    tail_elems = sorted(tail)
    if avoids(f, tail_elems, q) and len(tail_elems) >= len(chosen):
        return GreedySplit("q", frozenset(tail_elems), True, False)
    # finite-window fallback: return the longer verified candidate
    return GreedySplit("p", frozenset(chosen), avoids(f, chosen, p), True)


def max_avoiding_subset(f: FiniteColoring, W: Iterable[int], p: Pattern) -> frozenset[int]:
    """A maximum-cardinality subset of W avoiding p: the branch-and-bound
    search `_kernels.max_avoiding_elems`, capped at 20 vertices."""
    ws = _check_window_subset(f, W)
    if len(ws) > 20:
        raise PatternError(f"avoiding-subset search capped at 20 vertices, got {len(ws)}")
    return frozenset(_kernels.max_avoiding_elems(f.rows, ws, p.rows))


# ---------------------------------------------------------------------------
# binary trees and the tree-to-coloring transform


class BinaryTree(_Record):
    """A finite, prefix-closed set of binary strings."""

    __slots__ = _fields = ("nodes",)

    def __init__(self, nodes: frozenset[str]):
        ns = frozenset(nodes)
        if "" not in ns:
            raise PatternError("tree must contain the root (empty string)")
        for s in ns:
            if s.strip("01"):
                raise PatternError(f"node {s!r} is not a binary string")
            if s and s[:-1] not in ns:
                raise PatternError(f"tree is not prefix-closed at {s!r}")
        object.__setattr__(self, "nodes", ns)

    @property
    def depth(self) -> int:
        return max(len(s) for s in self.nodes)

    def level(self, s: int) -> list[str]:
        return sorted(n for n in self.nodes if len(n) == s)

    def leftmost(self, s: int) -> str:
        lvl = self.level(s)
        if not lvl:
            raise PatternError(f"tree has no node at level {s}")
        return lvl[0]


def full_binary_tree(depth: int) -> BinaryTree:
    nodes = {""}
    for d in range(1, depth + 1):
        nodes.update("".join(bits) for bits in itertools.product("01", repeat=d))
    return BinaryTree(frozenset(nodes))


def tree_to_coloring(tree: BinaryTree, window: int) -> FiniteColoring:
    """f(x, s) = leftmost level-s node evaluated at x, for x < s < window."""
    if tree.depth < window - 1:
        raise PatternError(
            f"tree depth {tree.depth} too small for window {window}")
    sigmas = {s: tree.leftmost(s) for s in range(1, window)}
    return coloring_from_function(window, lambda x, s: int(sigmas[s][x]))


def homogeneous_for_tree(tree: BinaryTree, U: Iterable[int], depth: int) -> bool:
    """Some level-`depth` node is constant on the positions of U it covers."""
    us = sorted(U)
    if depth > tree.depth:
        raise PatternError(f"tree has depth {tree.depth}, asked for {depth}")
    for node in tree.level(depth):
        seen = {node[i] for i in us if i < len(node)}
        if len(seen) <= 1:
            return True
    return False
