"""Sub-pattern enumeration, preservation verdicts, and the census.

The three verdicts correspond to successively stronger demands on the
order-preserving sub-patterns of p:

* omega_hyp:   some sub-pattern is divergent and irreducible;
* one_2dim:    two such sub-patterns exist (possibly equal), one 0-merging
               and one 1-merging;
* omega_2dim:  a single sub-pattern is divergent, irreducible and merging.

Each verdict asks whether p has a witness of some kind, and every proper
order-preserving sub-pattern of p lies in a one-vertex deletion of p: so p
has a witness of a kind exactly when it qualifies itself or one of its
deletions has one.  Both walks below run on (size, code) ints and kind
bits, and share the deletion tables, the own-kind rule and the verdicts of
each kind set.  `report` and the `preserves_*` predicates read off p's least
witness of each kind in (size, code) order.  `census` needs only whether
each kind has a witness: it builds, size by size, a table of one byte per
code whose four low bits are the kinds that pattern has a witness of, each
size's table made from the one below it, and holds only the table of the
size below its own.

The sub-pattern enumeration supports two modes: monotone (order-preserving
embeddings, i.e. induced restrictions) and injective (arbitrary injections,
which additionally closes the set under relabeling of the smaller pattern).
The verdicts themselves always quantify over the order-preserving induced
sub-patterns: divergence and merging refer to a pattern's last vertex, and a
relabeled copy's last vertex does not correspond to anything in the host
pattern, so such copies cannot witness preservation.  So only `subpatterns`
takes a mode; the verdicts, reports and census take none.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from . import _kernels
from .core import Pattern, PatternError, _coded, _gather, _Record, format_pattern, vertex_maps
from .algebra import (ClassificationFlags, _divergent, _flags, _i_merging, _irreducible,
                      classify)

# The enumeration guard: C(l,2) <= 28, i.e. l <= 8.  A census of size l holds
# the kind table of size l-1 (2 MB at l = 8) and streams 2^C(l,2) rows.  Cold
# on a 2-core host with Python 3.11, `census 7 --format records`, its stdout
# read and hashed, took 11.9-12.4 s at a peak RSS of 17-19 MB (three runs);
# `census 8` gave its first 2^21 records in 11.6 s at 18 MB and was not run
# to the end of its 2^28.
MAX_PAIR_BITS = 28


def _check_guard(size: int) -> None:
    if size < 1:
        raise PatternError("pattern size must be >= 1")
    if size * (size - 1) // 2 > MAX_PAIR_BITS:
        raise PatternError(
            f"size {size} exceeds the enumeration guard (C(l,2) <= {MAX_PAIR_BITS})"
        )


def enumerate_patterns(size: int) -> list[Pattern]:
    """All 2^C(size,2) patterns in ascending bitstring order."""
    _check_guard(size)
    return [_coded(size, code) for code in range(1 << size * (size - 1) // 2)]


@lru_cache(maxsize=4096)
def subpatterns(p: Pattern, mode: str = "injective") -> frozenset[Pattern]:
    """Deduplicated set of patterns embedding into p under the given mode."""
    rows = p.rows
    return frozenset(_coded(k, _gather(rows, g))
                     for k in range(1, p.size + 1) for g in vertex_maps(k, p.size, mode))


# A pattern's kinds: bit i when it has a witness of kind _KIND_NAMES[i], one
# divergent and irreducible, and that plus 0-merging, 1-merging or both.  An
# omega_2dim witness is a witness of every kind, so bit 3 is set only in ALL_KINDS.
_KIND_NAMES = ("omega_hyp", "one_2dim_0merging", "one_2dim_1merging", "omega_2dim")
ALL_KINDS = 15
_VERDICTS = [(kinds & 1 == 1, kinds & 6 == 6, kinds & 8 == 8) for kinds in range(16)]


def _own_kinds(fl: ClassificationFlags) -> int:
    """The kinds a pattern with these flags is itself a witness of."""
    divergent, irreducible, merging0, merging1 = fl
    if not (divergent and irreducible):
        return 0
    return 1 | merging0 << 1 | merging1 << 2 | (merging0 and merging1) << 3


def _own_kinds_of(size: int, code: int) -> int:
    """_own_kinds of the pattern (size, code), whose merging flags are read
    only when it is divergent and irreducible."""
    rows = _kernels._rows_of(size, code)
    if not (_divergent(rows) and _irreducible(rows)):
        return 0
    return _own_kinds(ClassificationFlags(True, True, *(_i_merging(rows, i) for i in (0, 1))))


@lru_cache(maxsize=None)
def _deletion_tables(size: int) -> tuple[tuple[list[int], ...], ...]:
    """For each vertex v: at least four tables, one per byte of a code of
    this size, least significant first, whose entries OR to the code of the
    pattern minus v.  Deleting v keeps every other pair in order, so each
    code bit moves to a fixed place or drops out."""
    pairs = list(itertools.combinations(range(size), 2))[::-1]  # code bit j is pairs[j]
    out = []
    for v in range(size):
        kept = {pair: 1 << j for j, pair in enumerate(q for q in pairs if v not in q)}
        place = [kept.get(pair, 0) for pair in pairs]
        out.append(_kernels._or_tables(place + [0] * (32 - len(place)), 8))
    return tuple(out)


def _least_witnesses(size: int, code: int) -> dict[int, tuple[int, int]]:
    """Kind bit i -> (size, code) of the least witness of kind _KIND_NAMES[i]
    among the order-preserving sub-patterns of (size, code), for each kind
    it has one of.  That is the least of its one-vertex deletions' or, when
    they have none, the pattern itself if it qualifies.  Each sub-pattern is
    walked once, as the int l << top | c, whose order is (size, code) order;
    `absent` exceeds all of them."""
    top = size * (size - 1) // 2
    absent = size + 1 << top
    memo: dict[int, list[int]] = {}

    def walk(l: int, c: int) -> list[int]:
        key = l << top | c
        least = memo.get(key)
        if least is None:
            least = [absent] * 4  # a pattern below size 4 has no witness below it
            if l > 3:
                tables = _deletion_tables(l)
                b = c.to_bytes(len(tables[0]), "little")
                below = [sum(map(list.__getitem__, t, b)) for t in tables]
                least = list(map(min, *[memo.get(l - 1 << top | d) or walk(l - 1, d)
                                        for d in below]))
            if l > 2 and absent in least:
                own = _own_kinds_of(l, c)
                least = [key if w == absent and own >> i & 1 else w
                         for i, w in enumerate(least)]
            memo[key] = least
        return least

    return {i: divmod(w, 1 << top) for i, w in enumerate(walk(size, code)) if w != absent}


def _verdicts(p: Pattern) -> tuple[bool, bool, bool]:
    return _VERDICTS[sum(1 << i for i in _least_witnesses(p.size, p.code))]


def preserves_omega_hyp(p: Pattern) -> bool:
    return _verdicts(p)[0]


def preserves_one_2dim(p: Pattern) -> bool:
    return _verdicts(p)[1]


def preserves_omega_2dim(p: Pattern) -> bool:
    return _verdicts(p)[2]


class ClassificationReport(_Record):
    __slots__ = _fields = ("pattern", "flags", "verdict_omega_hyp", "verdict_one_2dim",
                           "verdict_omega_2dim", "witnesses")

    def __init__(self, pattern: Pattern, flags: ClassificationFlags,
                 verdict_omega_hyp: bool, verdict_one_2dim: bool,
                 verdict_omega_2dim: bool, witnesses: Optional[dict[str, str]] = None):
        values = (pattern, flags, verdict_omega_hyp, verdict_one_2dim, verdict_omega_2dim,
                  {} if witnesses is None else witnesses)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def report(p: Pattern) -> ClassificationReport:
    """Full report with least witnesses in (size, bitstring) order; the two
    one_2dim witnesses (kind bits 1 and 2) are listed only when both exist."""
    w = _least_witnesses(p.size, p.code)
    verdicts = _VERDICTS[sum(1 << i for i in w)]
    return ClassificationReport(p, classify(p), *verdicts, {
        _KIND_NAMES[i]: format_pattern(_coded(*q)) for i, q in w.items()
        if verdicts[1] or i in (0, 3)})


def _inherited(code: int, kinds: int, below: bytearray, deletions) -> int:
    """kinds, those of the pattern's deletion of vertex 0, ORed with the kinds
    that `below` gives its other one-vertex deletions, read until all are in."""
    b0, b1, b2, b3 = code.to_bytes(4, "little")
    for t0, t1, t2, t3 in deletions:
        kinds |= below[t0[b0] | t1[b1] | t2[b2] | t3[b3]]
        if kinds == ALL_KINDS:
            break
    return kinds


def _extend(size: int, below: bytearray) -> bytearray:
    """The kinds of every pattern of this size, indexed by code, from those of
    the size below.  A pattern minus vertex 0 is the low C(size-1, 2) bits of
    its code, so tiling `below` gives each code that deletion's kinds; only
    the codes it leaves short of ALL_KINDS read their other deletions and,
    if still short, their own flags."""
    table = below * (1 << size - 1)
    deletions = _deletion_tables(size)[1:]
    short = [rest for rest, kinds in enumerate(below) if kinds != ALL_KINDS]
    for high in range(0, len(table), len(below)):
        for rest in short:
            code = high | rest
            kinds = _inherited(code, below[rest], below, deletions)
            if kinds != ALL_KINDS:
                kinds |= _own_kinds_of(size, code)
            table[code] = kinds
    return table


def _kind_table(size: int) -> bytearray:
    """The kinds of every pattern of this size, indexed by code; each size's
    table is dropped once the next is made from it.  Size 0 stands for the
    deletions of a size-1 pattern, of which there are none."""
    table = bytearray(1)  # the size-1 pattern is a witness of nothing
    for l in range(2, size + 1):
        table = _extend(l, table)
    return table


class CensusRow(NamedTuple):
    pattern: Pattern
    flags: ClassificationFlags
    omega_hyp: bool
    one_2dim: bool
    omega_2dim: bool


def census(size: int) -> Iterator[CensusRow]:
    """Classify every pattern of the given size, yielding one row per pattern
    in code order.  The verdicts come from the kinds of each pattern's
    deletions, read from the table of the size below, and its own flags."""
    _check_guard(size)
    below = _kind_table(size - 1)
    low = (1 << (size - 1) * (size - 2) // 2) - 1  # the code of p minus vertex 0
    deletions = _deletion_tables(size)[1:]
    for code, rows in enumerate(_kernels._rows_by_code(size)):
        fl = _flags(rows)
        kinds = below[code & low]
        if kinds != ALL_KINDS:
            kinds = _inherited(code, kinds, below, deletions) | _own_kinds(fl)
        yield CensusRow(_coded(size, code), fl, *_VERDICTS[kinds])
