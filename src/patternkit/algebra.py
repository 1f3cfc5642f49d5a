"""The join operator and the structural predicates on patterns.

Join glues two patterns at one shared vertex: the last vertex of the left
pattern is identified with the first vertex of the right one, and every
cross pair inherits the left pattern's last-column color.  Join, and the
right side of each split `decompositions` tries, are code arithmetic: a
pattern's code lists each vertex's segment of pair colors in turn, so
gluing at a vertex, or keeping the vertices from one on, moves whole
segments, O(size) shifts and no rows.  A split's left side is gathered from
the row masks, as every other restriction is (`core._gather`).

Irreducibility, divergence and the merging predicates all quantify over
contiguous splits of the vertex line, which is enough because a join seam
is always contiguous.  Each has one core on row masks (`_irreducible`,
`_divergent`, `_i_merging`), which the lemma sweeps call on rows they stream
themselves; the public predicates read `Pattern.rows`.  A split costs one
mask comparison per vertex.  Irreducibility tests every split; i-merging
tests at most one, the split whose left part is the set of vertices the last
column colours i.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .core import Pattern, PatternError, _coded, _gather


def join(p: Pattern, q: Pattern) -> Pattern:
    """Pattern of size |p|+|q|-1 gluing q's first vertex onto p's last."""
    a, b = p.size, q.size
    fill = (1 << b - 1) - 1  # b-1 copies of colour 1
    code, left = 0, a * (a - 1) // 2
    for length in range(a - 1, 0, -1):
        # vertex x = a-1-length keeps its segment of p.code, whose last bit
        # is its colour toward the seam, then repeats that colour toward q
        left -= length
        segment = p.code >> left & (1 << length) - 1
        code = (code << length | segment) << b - 1 | (fill if segment & 1 else 0)
    return _coded(a + b - 1, code << b * (b - 1) // 2 | q.code)


def decompositions(p: Pattern) -> list[tuple[Pattern, Pattern]]:
    """All splits p = left ⊎ right with both sides of size >= 2.

    A seam is always contiguous, so each split point k yields at most one
    candidate pair, verified by re-joining.  The left side, the vertices
    below k, is gathered from p's rows; the right side, the vertices from
    k-1 on, is the low C(|p|-k+1, 2) bits of p's code.
    """
    out, rows = [], p.rows
    for k in range(2, p.size):
        m = p.size - k + 1
        left = _coded(k, _gather(rows, range(k)))
        right = _coded(m, p.code & (1 << m * (m - 1) // 2) - 1)
        if join(left, right) == p:
            out.append((left, right))
    return out


def _irreducible(rows) -> bool:
    """The split criterion on row masks: every split F = [0,k), G = [k,l)
    with F nonempty and |G| >= 2 has an F-vertex whose colors toward G
    differ."""
    size = len(rows)
    for k in range(1, size - 1):
        G = (1 << size) - (1 << k)
        if all(r & G in (0, G) for r in rows[:k]):
            return False
    return True


def _divergent(rows) -> bool:
    """Last row non-constant; sizes <= 2 are convergent."""
    return len(rows) > 2 and rows[-1] not in (0, (1 << len(rows) - 1) - 1)


def _i_merging(rows, i: int) -> bool:
    """i-merging on row masks, for i in (0, 1)."""
    # a split F = [0,k), G = [k,l-1) refutes i-merging when the last column
    # is i on F and 1-i on G, and every F-G pair has one color; the last
    # column fixes F, so at most one split can refute
    l = len(rows)
    below = (1 << l - 1) - 1  # every vertex but the last
    F = rows[-1] if i else rows[-1] ^ below
    k = F.bit_length()
    if F != (1 << k) - 1 or not 1 <= k <= l - 2:
        return True
    G = below ^ F
    return {r & G for r in rows[:k]} not in ({0}, {G})


def is_irreducible(p: Pattern) -> bool:
    """Whether p is no join of smaller patterns (`not decompositions(p)`),
    decided by the split criterion."""
    return _irreducible(p.rows)


def is_divergent(p: Pattern) -> bool:
    """Last column non-constant; sizes <= 2 are convergent."""
    return _divergent(p.rows)


def is_i_merging(p: Pattern, i: int) -> bool:
    """Split condition over contiguous nontrivial splits of [0, l-1)."""
    if i not in (0, 1):
        raise PatternError("merging color must be 0 or 1")
    return _i_merging(p.rows, i)


def is_merging(p: Pattern) -> bool:
    return is_i_merging(p, 0) and is_i_merging(p, 1)


class ClassificationFlags(NamedTuple):
    divergent: bool
    irreducible: bool
    merging0: bool
    merging1: bool

    @property
    def convergent(self) -> bool:
        return not self.divergent

    @property
    def reducible(self) -> bool:
        return not self.irreducible

    @property
    def merging(self) -> bool:
        return self.merging0 and self.merging1


def _flags(rows) -> ClassificationFlags:
    """The four flags on row masks."""
    return ClassificationFlags(_divergent(rows), _irreducible(rows),
                               _i_merging(rows, 0), _i_merging(rows, 1))


@lru_cache(maxsize=4096)
def classify(p: Pattern) -> ClassificationFlags:
    return _flags(p.rows)
