"""The two search kernels: the least realizer and the maximum avoiding subset.

A coloring and a pattern both enter as their rows, int bit masks with bit y
of `rows[x]` the colour of (x, y); element lists as plain increasing lists.
`Pattern.rows` comes from `_pattern_matrix`, the cached `_rows_of`: it ORs
one precomputed packed row set per 4-bit slice of the code (`_slice_tables`,
built once per size) and unpacks the result, so a size-6 pattern costs 4
lookups, not 15 pair steps.  Sweeps over every pattern of a size read
`_rows_by_code` instead: it streams the rows of each code in code order from
the same tables, holding one block of at most 4,096 packed values and
filling no cache.

Packed rows sit at a stride of one byte up to size 8, every size a census
accepts: row x is byte x, so one `int.to_bytes` unpacks all the rows at
once.  `_rows_of` packs larger sizes at a stride of `size` bits and unpacks
them row by row; `_rows_by_code` streams byte-stride sizes only.

The realizer search is the only one in the package: strong appearance,
witnessed avoidance and the admissibility step of the avoiding-subset search
all call it with `last`, the int mask of the elements whose colour toward a
virtual top vertex is 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional


# Sizes up to _BYTE_MAX_SIZE pack each row into one byte.  Above it a row
# takes `size` bits, and the slice tables take about size^4 / 4 bytes (0.2 MB
# at size 30, 17 MB at 100); a pattern larger than _SLICED_MAX_SIZE gets its
# rows from its pairs one by one.  At size 8 the seven tables hold 112 values
# of at most 64 bits.
_BYTE_MAX_SIZE = 8
_SLICED_MAX_SIZE = 32


def _or_tables(values: list[int], width: int) -> tuple[list[int], ...]:
    """For each run of `width` input bits, least significant first: the table
    whose entry at each value of the run ORs values[j] for its set bits j."""
    tables = [[0] for _ in range(0, len(values), width)]
    for j, bit in enumerate(values):
        table = tables[j // width]
        table += [t | bit for t in table]
    return tuple(tables)


@lru_cache(maxsize=None)
def _slice_tables(size: int) -> tuple[list[int], ...]:
    """For each 4-bit slice of a code of this size, least significant first:
    the rows, packed with row x in bits [x*stride, x*stride + size), that each
    value of the slice sets."""
    stride = 8 if size <= _BYTE_MAX_SIZE else size
    k = size * (size - 1) // 2
    pair = [0] * k  # pair[k]: the packed rows that code bit k sets
    for x, y in itertools.combinations(range(size), 2):
        k -= 1
        pair[k] = 1 << x * stride + y | 1 << y * stride + x
    return _or_tables(pair, 4)


def _rows_of(size: int, code: int) -> tuple[int, ...]:
    """Row masks of the pattern (size, code); the first pair is the top bit.
    Uncached: `_pattern_matrix` is this function behind the row cache."""
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
    if size <= _BYTE_MAX_SIZE:
        return tuple(packed.to_bytes(size, "little"))
    row = (1 << size) - 1
    return tuple([packed >> shift & row for shift in range(0, size * size, size)])


_pattern_matrix = lru_cache(maxsize=4096)(_rows_of)


def _rows_by_code(size: int) -> Iterator[tuple[int, ...]]:
    """The row masks of every pattern of this size, in code order.

    Each pattern's packed rows are the sum of one entry per slice table (the
    entries set disjoint bits), the three lowest slices taken from one block
    of at most 4,096 precomputed sums; no row tuple is cached.  Only the
    byte-stride sizes, up to _BYTE_MAX_SIZE, stream: size 9 has 2^36 codes."""
    if size > _BYTE_MAX_SIZE:
        raise ValueError(f"rows streamed up to size {_BYTE_MAX_SIZE}, got {size}")
    tables = _slice_tables(size)[::-1]  # most significant slice first
    block = [sum(low) for low in itertools.product(*tables[-3:])]
    width, little = itertools.repeat(size), itertools.repeat("little")
    for high in itertools.product(*tables[:-3]):
        packed = map(sum(high).__add__, block)
        yield from map(tuple, map(int.to_bytes, packed, width, little))


def lex_least_realizer(rows, elems, prows, last=None) -> Optional[list[int]]:
    """Lexicographically least increasing tuple of elems realizing the pattern
    with rows prows, or None.

    With `last`, the mask of the elements whose colour toward a virtual top
    vertex is 1, the tuple realizes the pattern minus its last vertex l and
    each x_i must also have bit x_i of last equal to bit l of prows[i].

    A depth-first search with an explicit stack.  At depth d, with `out` the
    tuple so far and `seen` its mask, element e extends it when
    rows[e] & seen equals `need`, the mask of the out[i] with bit i of
    prows[d] set, and bit e of `allowed` is set: every element without
    `last`, else those whose bit of last is bit l of prows[d].
    """
    l = len(prows) - (last is not None)
    if l == 0:
        return []
    out: list[int] = []
    saved = []  # (next index, need, allowed, stop) of each depth below
    k = seen = need = 0
    allowed = -1 if last is None else last if prows[0] >> l & 1 else ~last
    stop = len(elems) - l + 1  # depth d scans elems[k:stop], stop = n - l + d + 1
    while True:
        while k < stop:
            e = elems[k]
            k += 1
            if rows[e] & seen == need and allowed >> e & 1:
                break
        else:  # depth exhausted: back up one
            if not out:
                return None
            seen ^= 1 << out.pop()
            k, need, allowed, stop = saved.pop()
            continue
        out.append(e)
        d = len(out)
        if d == l:
            return out
        saved.append((k, need, allowed, stop))
        seen |= 1 << e
        want, need = prows[d], 0
        for i, x in enumerate(out):
            if want >> i & 1:
                need |= 1 << x
        allowed = -1 if last is None else last if want >> l & 1 else ~last
        stop += 1


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
