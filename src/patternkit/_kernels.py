"""The two search kernels: the least realizer and the maximum avoiding subset.

A coloring enters as its rows, int bit masks with bit y of `rows[x]` the
colour of (x, y); a pattern as its colour matrix from `pattern_matrix`;
element lists as plain increasing lists.  The realizer search is the only one
in the package: strong appearance, witnessed avoidance and the admissibility
step of the avoiding-subset search all call it with `last`, the int mask of
the elements whose colour toward a virtual top vertex is 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional


@lru_cache(maxsize=4096)
def _pattern_matrix(size: int, bits: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    pm = [[0] * size for _ in range(size)]
    for (i, j), b in zip(itertools.combinations(range(size), 2), bits):
        pm[i][j] = pm[j][i] = b
    return tuple(map(tuple, pm))


def pattern_matrix(p) -> tuple[tuple[int, ...], ...]:
    """Colour matrix of a pattern as a tuple of rows, cached."""
    return _pattern_matrix(p.size, p.bits)


def lex_least_realizer(rows, elems, pm, last=None) -> Optional[list[int]]:
    """Lexicographically least increasing tuple of elems realizing pm, or None.

    With `last`, the mask of the elements whose colour toward a virtual top
    vertex is 1, the tuple realizes pm minus its last vertex and each x_i must
    also have bit x_i of last equal to pm[i][-1].
    """
    l = len(pm) - (last is not None)
    n = len(elems)
    out: list[int] = []

    def extend(start: int) -> bool:
        d = len(out)
        if d == l:
            return True
        want = pm[d]
        for k in range(start, n - l + d + 1):
            e = elems[k]
            if last is not None and last >> e & 1 != want[-1]:
                continue
            row = rows[e]
            for i, x in enumerate(out):
                if row >> x & 1 != want[i]:
                    break
            else:
                out.append(e)
                if extend(k + 1):
                    return True
                out.pop()
        return False

    return out if extend(0) else None


def max_avoiding_elems(rows, elems, pm) -> list[int]:
    """Maximum-cardinality subset of elems avoiding the pattern; the first one
    an include-first scan of elems finds, which is the lex-least."""
    if len(pm) == 1:
        return []  # every nonempty set realizes the singleton pattern
    n = len(elems)
    best: list[int] = []
    chosen: list[int] = []

    def walk(idx: int) -> None:
        nonlocal best
        if len(chosen) + n - idx <= len(best):
            return
        if idx == n:
            best = list(chosen)
            return
        e = elems[idx]
        # chosen avoids p, so chosen + [e] does unless e tops a realizer
        if lex_least_realizer(rows, chosen, pm, rows[e]) is None:
            chosen.append(e)
            walk(idx + 1)
            chosen.pop()
        walk(idx + 1)

    walk(0)
    return best
