"""Sub-pattern enumeration, preservation verdicts, and the census.

The three verdicts correspond to successively stronger demands on the
order-preserving sub-patterns of p:

* omega_hyp:   some sub-pattern is divergent and irreducible;
* one_2dim:    two such sub-patterns exist (possibly equal), one 0-merging
               and one 1-merging;
* omega_2dim:  a single sub-pattern is divergent, irreducible and merging.

All three are read off p's least witness of each kind in (size, code) order.
Every proper order-preserving sub-pattern of p lies in a one-vertex deletion
of p, so each witness is the least of the deletions' witnesses, or p itself
when p qualifies and no deletion has one; `census` shares one memo per walk.

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

from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .core import Pattern, PatternError, _coded, _gather, _Record, format_pattern, vertex_maps
from .algebra import ClassificationFlags, classify

MAX_PAIR_BITS = 28  # enumeration guard: C(l,2) <= 28, i.e. l <= 8


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


def _least_witnesses(p: Pattern, memo: dict[Pattern, dict[str, Pattern]]) -> dict[str, Pattern]:
    """The least order-preserving sub-pattern of p, in (size, code) order,
    for each witness kind it has: divergent and irreducible ("omega_hyp"),
    and that plus 0-merging, 1-merging or merging ("one_2dim_0merging",
    "one_2dim_1merging", "omega_2dim").  memo holds the witnesses of the
    deletions decided so far, at every depth; p's own are not added, so a
    census's memo holds only patterns smaller than its size."""
    found: dict[str, Pattern] = {}
    if p.size > 1:
        rows = p.rows
        for v in range(p.size):
            d = _coded(p.size - 1, _gather(rows, [x for x in range(p.size) if x != v]))
            w = memo.get(d)
            if w is None:
                w = memo[d] = _least_witnesses(d, memo)
            for key, q in w.items():
                found[key] = min(found.get(key, q), q)
    fl = classify(p)
    if fl.divergent and fl.irreducible:
        for key, holds in (("omega_hyp", True),
                           ("one_2dim_0merging", fl.merging0),
                           ("one_2dim_1merging", fl.merging1),
                           ("omega_2dim", fl.merging)):
            if holds:
                found.setdefault(key, p)
    return found


def _one_2dim(w: dict[str, Pattern]) -> bool:
    return "one_2dim_0merging" in w and "one_2dim_1merging" in w


def preserves_omega_hyp(p: Pattern) -> bool:
    return "omega_hyp" in _least_witnesses(p, {})


def preserves_one_2dim(p: Pattern) -> bool:
    return _one_2dim(_least_witnesses(p, {}))


def preserves_omega_2dim(p: Pattern) -> bool:
    return "omega_2dim" in _least_witnesses(p, {})


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
    one_2dim witnesses are listed only when both exist."""
    w = _least_witnesses(p, {})
    one_2dim = _one_2dim(w)
    return ClassificationReport(
        pattern=p,
        flags=classify(p),
        verdict_omega_hyp="omega_hyp" in w,
        verdict_one_2dim=one_2dim,
        verdict_omega_2dim="omega_2dim" in w,
        witnesses={k: format_pattern(q) for k, q in w.items()
                   if one_2dim or not k.startswith("one_2dim")},
    )


class CensusRow(NamedTuple):
    pattern: Pattern
    flags: ClassificationFlags
    omega_hyp: bool
    one_2dim: bool
    omega_2dim: bool


def census(size: int, verdicts: bool = True) -> Iterator[CensusRow]:
    """Classify every pattern of the given size, yielding one row per pattern
    in code order; the walk shares one least-witness memo."""
    _check_guard(size)
    memo: dict[Pattern, dict[str, Pattern]] = {}
    for code in range(1 << size * (size - 1) // 2):
        p = _coded(size, code)
        fl = classify(p)
        if verdicts:
            w = _least_witnesses(p, memo)
            oh, o1, o2 = "omega_hyp" in w, _one_2dim(w), "omega_2dim" in w
        else:
            oh = o1 = o2 = False
        yield CensusRow(p, fl, oh, o1, o2)
