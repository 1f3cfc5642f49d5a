"""Sub-pattern enumeration, preservation verdicts, and census tables.

The three verdicts correspond to successively stronger demands on the
sub-patterns of p:

* omega_hyp:   some sub-pattern is divergent and irreducible;
* one_2dim:    two such sub-patterns exist (possibly equal), one 0-merging
               and one 1-merging;
* omega_2dim:  a single sub-pattern is divergent, irreducible and merging.

The sub-pattern enumeration supports two modes: monotone (order-preserving
embeddings, i.e. induced restrictions) and injective (arbitrary injections,
which additionally closes the set under relabeling of the smaller pattern).
The verdicts themselves always quantify over the order-preserving induced
sub-patterns: divergence and merging refer to a pattern's last vertex, and a
relabeled copy's last vertex does not correspond to anything in the host
pattern, so such copies cannot witness preservation.  Reports still record
the mode used for witness enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .core import Pattern, PatternError, format_pattern, pattern_from_colors, vertex_maps
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
    npairs = size * (size - 1) // 2
    return [
        Pattern(size, bits)
        for bits in itertools.product((0, 1), repeat=npairs)
    ]


@lru_cache(maxsize=4096)
def subpatterns(p: Pattern, mode: str = "injective") -> frozenset[Pattern]:
    """Deduplicated set of patterns embedding into p under the given mode."""
    found: set[Pattern] = set()
    for k in range(1, p.size + 1):
        for g in vertex_maps(k, p.size, mode):
            found.add(pattern_from_colors(k, lambda a, b: p(g[a], g[b])))
    return frozenset(found)


def _verdict_pool(p: Pattern, mode: str = "injective") -> frozenset[Pattern]:
    # mode is validated but the verdict pool is always the order-preserving
    # one; see the module docstring
    if mode not in ("injective", "monotone"):
        raise PatternError(f"unknown embedding mode {mode!r}")
    return subpatterns(p, "monotone")


def preserves_omega_hyp(p: Pattern, mode: str = "injective") -> bool:
    return any(
        classify(q).divergent and classify(q).irreducible
        for q in _verdict_pool(p, mode)
    )


def preserves_one_2dim(p: Pattern, mode: str = "injective") -> bool:
    has0 = has1 = False
    for q in _verdict_pool(p, mode):
        fl = classify(q)
        if fl.divergent and fl.irreducible:
            has0 = has0 or fl.merging0
            has1 = has1 or fl.merging1
    return has0 and has1


def preserves_omega_2dim(p: Pattern, mode: str = "injective") -> bool:
    return any(
        (fl := classify(q)).divergent and fl.irreducible and fl.merging
        for q in _verdict_pool(p, mode)
    )


@dataclass(frozen=True)
class ClassificationReport:
    pattern: Pattern
    mode: str
    flags: ClassificationFlags
    verdict_omega_hyp: bool
    verdict_one_2dim: bool
    verdict_omega_2dim: bool
    witnesses: dict[str, str] = field(default_factory=dict)


def _least_witness(p: Pattern, mode: str, want) -> Optional[Pattern]:
    pool = sorted(_verdict_pool(p, mode), key=lambda q: (q.size, q.bits))
    for q in pool:
        if want(classify(q)):
            return q
    return None


def report(p: Pattern, mode: str = "injective") -> ClassificationReport:
    """Full report with least witnesses in (size, bitstring) order."""
    witnesses: dict[str, str] = {}
    w = _least_witness(p, mode, lambda fl: fl.divergent and fl.irreducible)
    if w is not None:
        witnesses["omega_hyp"] = format_pattern(w)
    w0 = _least_witness(p, mode, lambda fl: fl.divergent and fl.irreducible and fl.merging0)
    w1 = _least_witness(p, mode, lambda fl: fl.divergent and fl.irreducible and fl.merging1)
    if w0 is not None and w1 is not None:
        witnesses["one_2dim_0merging"] = format_pattern(w0)
        witnesses["one_2dim_1merging"] = format_pattern(w1)
    wm = _least_witness(
        p, mode, lambda fl: fl.divergent and fl.irreducible and fl.merging)
    if wm is not None:
        witnesses["omega_2dim"] = format_pattern(wm)
    return ClassificationReport(
        pattern=p,
        mode=mode,
        flags=classify(p),
        verdict_omega_hyp=w is not None,
        verdict_one_2dim=w0 is not None and w1 is not None,
        verdict_omega_2dim=wm is not None,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class CensusRow:
    pattern: Pattern
    flags: ClassificationFlags
    omega_hyp: bool
    one_2dim: bool
    omega_2dim: bool


@dataclass(frozen=True)
class Census:
    size: int
    mode: str
    rows: tuple[CensusRow, ...]

    @property
    def total(self) -> int:
        return len(self.rows)

    def count(self, predicate) -> int:
        return sum(1 for r in self.rows if predicate(r))

    def flag_combo_counts(self) -> dict[tuple[bool, bool, bool, bool], int]:
        """Counts keyed by (divergent, irreducible, merging0, merging1)."""
        out: dict[tuple[bool, bool, bool, bool], int] = {}
        for r in self.rows:
            key = (r.flags.divergent, r.flags.irreducible,
                   r.flags.merging0, r.flags.merging1)
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def verdict_counts(self) -> dict[str, int]:
        return {
            "omega_hyp": self.count(lambda r: r.omega_hyp),
            "one_2dim": self.count(lambda r: r.one_2dim),
            "omega_2dim": self.count(lambda r: r.omega_2dim),
        }


def census(size: int, mode: str = "injective", verdicts: bool = True) -> Census:
    """Classify every pattern of the given size; deterministic row order."""
    _check_guard(size)
    rows = []
    for p in enumerate_patterns(size):
        fl = classify(p)
        if verdicts:
            oh = preserves_omega_hyp(p, mode)
            o1 = preserves_one_2dim(p, mode)
            o2 = preserves_omega_2dim(p, mode)
        else:
            oh = o1 = o2 = False
        rows.append(CensusRow(p, fl, oh, o1, o2))
    return Census(size, mode, tuple(rows))
