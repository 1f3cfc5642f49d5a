"""The join operator and the structural predicates on patterns.

Join glues two patterns at one shared vertex: the last vertex of the left
pattern is identified with the first vertex of the right one, and every
cross pair inherits the left pattern's last-column color.  Irreducibility,
divergence and the merging predicates all quantify over contiguous splits
of the vertex line, which is enough because a join seam is always
contiguous.  Everything here reads patterns through their row masks
(`Pattern.rows`), so each split costs one mask comparison per vertex.
Irreducibility tests every split; i-merging tests at most one, the split
whose left part is the set of vertices the last column colours i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Pattern, PatternError, _coded, _gather, restrict


def join(p: Pattern, q: Pattern) -> Pattern:
    """Pattern of size |p|+|q|-1 gluing q's first vertex onto p's last."""
    seam, size = p.size - 1, p.size + q.size - 1
    cross = (1 << size) - (2 << seam)  # the vertices of q after the seam
    last = p.rows[seam]
    rows = [r | cross if r >> seam & 1 else r for r in p.rows[:seam]]
    rows += [r << seam | last for r in q.rows]
    return _coded(size, _gather(rows, range(size)))


def decompositions(p: Pattern) -> list[tuple[Pattern, Pattern]]:
    """All splits p = left ⊎ right with both sides of size >= 2.

    A seam is always contiguous, so each split point k yields at most one
    candidate pair, verified by re-joining.
    """
    out = []
    for k in range(2, p.size):
        left = restrict(p, range(k))
        right = restrict(p, range(k - 1, p.size))
        if join(left, right) == p:
            out.append((left, right))
    return out


def is_irreducible(p: Pattern) -> bool:
    """Whether p is no join of smaller patterns (`not decompositions(p)`),
    decided by the split criterion: every split F = [0,k), G = [k,l) with F
    nonempty and |G| >= 2 has an F-vertex whose colors toward G differ."""
    rows = p.rows
    for k in range(1, p.size - 1):
        G = (1 << p.size) - (1 << k)
        if all(r & G in (0, G) for r in rows[:k]):
            return False
    return True


def is_divergent(p: Pattern) -> bool:
    """Last column non-constant; sizes <= 2 are convergent."""
    return p.size > 2 and p.rows[-1] not in (0, (1 << p.size - 1) - 1)


def is_i_merging(p: Pattern, i: int) -> bool:
    """Split condition over contiguous nontrivial splits of [0, l-1)."""
    if i not in (0, 1):
        raise PatternError("merging color must be 0 or 1")
    # a split F = [0,k), G = [k,l-1) refutes i-merging when the last column
    # is i on F and 1-i on G, and every F-G pair has one color; the last
    # column fixes F, so at most one split can refute
    rows, l = p.rows, p.size
    below = (1 << l - 1) - 1  # every vertex but the last
    F = rows[-1] if i else rows[-1] ^ below
    k = F.bit_length()
    if F != (1 << k) - 1 or not 1 <= k <= l - 2:
        return True
    G = below ^ F
    return {r & G for r in rows[:k]} not in ({0}, {G})


def is_merging(p: Pattern) -> bool:
    return is_i_merging(p, 0) and is_i_merging(p, 1)


@dataclass(frozen=True)
class ClassificationFlags:
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


@lru_cache(maxsize=4096)
def classify(p: Pattern) -> ClassificationFlags:
    return ClassificationFlags(
        divergent=is_divergent(p),
        irreducible=is_irreducible(p),
        merging0=is_i_merging(p, 0),
        merging1=is_i_merging(p, 1),
    )
