"""The two search kernels: the least realizer and the maximum avoiding subset.

A coloring and a pattern both enter as their rows, int bit masks with bit y
of `rows[x]` the colour of (x, y); element lists as plain increasing lists.
`Pattern.rows` comes from `_pattern_matrix`: it ORs one precomputed packed
row set per 4-bit slice of the code (`_slice_tables`, built once per size)
and unpacks the result, so a size-6 pattern costs 4 lookups, not 15 pair
steps.  Sweeps over every pattern of a size read `_rows_by_code` instead: it
streams the rows of each code in code order from the same tables, holding
one block of at most 4,096 packed values and filling no cache.

The realizer search is the only one in the package: strong appearance,
witnessed avoidance and the admissibility step of the avoiding-subset search
all call it with `last`, the int mask of the elements whose colour toward a
virtual top vertex is 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional


# Slice tables take about size^4 / 4 bytes (0.2 MB at size 30, 17 MB at 100);
# a larger pattern's rows come from its pairs one by one.
_SLICED_MAX_SIZE = 32


@lru_cache(maxsize=None)
def _slice_tables(size: int) -> tuple[list[int], ...]:
    """For each 4-bit slice of a code of this size, least significant first:
    the rows, packed with row x in bits [x*size, (x+1)*size), that each value
    of the slice sets."""
    k = size * (size - 1) // 2
    pair = [0] * k  # pair[k]: the packed rows that code bit k sets
    for x, y in itertools.combinations(range(size), 2):
        k -= 1
        pair[k] = 1 << x * size + y | 1 << y * size + x
    tables = []
    for j in range(0, len(pair), 4):
        table = [0]
        for bit in pair[j:j + 4]:
            table += [rows | bit for rows in table]
        tables.append(table)
    return tuple(tables)


@lru_cache(maxsize=4096)
def _pattern_matrix(size: int, code: int) -> tuple[int, ...]:
    """Row masks of the pattern (size, code); the first pair is the top bit."""
    if size > _SLICED_MAX_SIZE:
        rows = [0] * size
        k = size * (size - 1) // 2
        for x, y in itertools.combinations(range(size), 2):
            k -= 1
            if code >> k & 1:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
        return tuple(rows)
    packed = 0
    for table in _slice_tables(size):
        packed |= table[code & 15]
        code >>= 4
    row = (1 << size) - 1
    return tuple([packed >> shift & row for shift in range(0, size * size, size)])


def _rows_by_code(size: int) -> Iterator[tuple[int, ...]]:
    """The row masks of every pattern of this size, in code order.

    Each pattern's packed rows are the sum of one entry per slice table (the
    entries set disjoint bits), the three lowest slices taken from one block
    of at most 4,096 precomputed sums; no row tuple is cached."""
    tables = _slice_tables(size)[::-1]  # most significant slice first
    row = (1 << size) - 1
    shifts = range(0, size * size, size)
    block = [sum(low) for low in itertools.product(*tables[-3:])]
    for high in itertools.product(*tables[:-3]):
        top = sum(high)
        for packed in block:
            packed += top
            yield tuple([packed >> shift & row for shift in shifts])


def lex_least_realizer(rows, elems, prows, last=None) -> Optional[list[int]]:
    """Lexicographically least increasing tuple of elems realizing the pattern
    with rows prows, or None.

    With `last`, the mask of the elements whose colour toward a virtual top
    vertex is 1, the tuple realizes the pattern minus its last vertex l and
    each x_i must also have bit x_i of last equal to bit l of prows[i].
    """
    l = len(prows) - (last is not None)
    n = len(elems)
    out: list[int] = []

    def extend(start: int) -> bool:
        d = len(out)
        if d == l:
            return True
        want = prows[d]
        for k in range(start, n - l + d + 1):
            e = elems[k]
            if last is not None and last >> e & 1 != want >> l & 1:
                continue
            row = rows[e]
            for i, x in enumerate(out):
                if row >> x & 1 != want >> i & 1:
                    break
            else:
                out.append(e)
                if extend(k + 1):
                    return True
                out.pop()
        return False

    return out if extend(0) else None


def max_avoiding_elems(rows, elems, prows) -> list[int]:
    """Maximum-cardinality subset of elems avoiding the pattern with rows
    prows; the first one an include-first scan of elems finds, which is the
    lex-least."""
    if len(prows) == 1:
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
        if lex_least_realizer(rows, chosen, prows, rows[e]) is None:
            chosen.append(e)
            walk(idx + 1)
            chosen.pop()
        walk(idx + 1)

    walk(0)
    return best
