"""Seeded randomized and exhaustive suites checking the algebraic and
combinatorial laws the rest of the package relies on.

Each suite returns a SuiteResult with the instances tried and any
counterexamples found; the CLI batch runner and the test suite both drive
these functions, so a law violation shows up identically in both places.
The three exhaustive suites, and the pattern pool of `merging-union`, walk
every code of their sizes with the row masks `_kernels._rows_by_code`
streams, and test them with the row-level predicate cores of `algebra`.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, NamedTuple, Optional

from .core import (
    FiniteColoring,
    PartialColoring,
    Pattern,
    PatternError,
    _coded,
    _coloring,
    avoids,
    dual,
    flip,
)
from ._kernels import _rows_by_code
from .algebra import (
    _divergent,
    _i_merging,
    _irreducible,
    decompositions,
    is_divergent,
    is_irreducible,
    join,
)
from .stabilize import fg_avoids


# A rejection-sampling suite gives up after this many draws per requested run.
ATTEMPTS_PER_RUN = 100


class SuiteResult(NamedTuple):
    name: str
    runs: int
    counterexamples: tuple[str, ...] = ()
    skipped: bool = False
    exhausted: bool = False    # attempt cap hit before `count` runs were accepted

    @property
    def passed(self) -> bool:
        return not self.counterexamples and not self.skipped and not self.exhausted


def _coin(rng: random.Random) -> int:
    """rng.randint(0, 1), drawn from the generator exactly as CPython draws it
    (two bits, redrawn while >= 2), without randint's call overhead."""
    r = rng.getrandbits(2)
    while r >= 2:
        r = rng.getrandbits(2)
    return r


def _random_pattern(rng: random.Random, max_size: int, min_size: int = 2) -> Pattern:
    """A uniform size, then one coin per pair, first pair first."""
    size = rng.randint(min_size, max_size)
    code = 0
    for _ in range(size * (size - 1) // 2):
        code = code << 1 | _coin(rng)
    return _coded(size, code)


def _random_rows(rng: random.Random, window: int) -> list[int]:
    """The rows of a coloring with one coin per pair x < y, drawn in
    lexicographic order."""
    rows = [0] * window
    for x in range(window):
        row, bit = 0, 1 << x
        for y in range(x + 1, window):
            if _coin(rng):
                row |= 1 << y
                rows[y] |= bit
        rows[x] |= row
    return rows


def _recolored(rows: list[int], E, F, color) -> FiniteColoring:
    """rows, with each pair (x in E, y in F) recolored color(x) in place, as a
    coloring built without FiniteColoring's checks: symmetric rows stay so."""
    for x in E:
        for y in F:
            if rows[x] >> y & 1 != color(x):
                rows[x] ^= 1 << y
                rows[y] ^= 1 << x
    return _coloring(len(rows), tuple(rows))


def _sampled(name: str, count: int,
             trial: Callable[[], Optional[list[str]]]) -> SuiteResult:
    """Run `trial` until `count` of its draws are accepted, giving up after
    ATTEMPTS_PER_RUN * count draws. A trial returns None for a rejected draw,
    else the law's counterexamples on it (an empty list when the law holds)."""
    bad, runs = [], 0
    for _ in range(ATTEMPTS_PER_RUN * count):
        if runs == count:
            break
        outcome = trial()
        if outcome is not None:
            runs += 1
            bad.extend(outcome)
    return SuiteResult(name, runs, tuple(bad[:5]), skipped=count == 0,
                       exhausted=runs < count)


def _swept(name: str, sizes: range,
           failures: Callable[[int, tuple[int, ...]], list[str]]) -> SuiteResult:
    """Check failures(code, rows) on every pattern of the given sizes, given
    by its code and row masks, in code order; every pattern is a run.
    failures returns one note per violation; a counterexample is the pattern
    followed by its note, and only the first five are built, so a Pattern is
    built for at most five failures."""
    bad, runs = [], 0
    for n in sizes:
        for code, rows in enumerate(_rows_by_code(n)):
            for note in failures(code, rows):
                if len(bad) < 5:
                    bad.append(f"{_coded(n, code)}{note}")
        runs += 1 << n * (n - 1) // 2
    return SuiteResult(name, runs, tuple(bad), skipped=runs == 0)


def suite_join_associative(rng: random.Random, count: int = 10_000) -> SuiteResult:
    """(p ⊎ q) ⊎ r equals p ⊎ (q ⊎ r) for random triples."""
    def trial():
        p, q, r = (_random_pattern(rng, 5) for _ in range(3))
        return [] if join(join(p, q), r) == join(p, join(q, r)) else [f"{p} {q} {r}"]
    return _sampled("join-associative", count, trial)


def suite_join_divergence(rng: random.Random, count: int = 10_000) -> SuiteResult:
    """If either operand is divergent, so is the join."""
    def trial():
        p, q = _random_pattern(rng, 5), _random_pattern(rng, 5)
        holds = not (is_divergent(p) or is_divergent(q)) or is_divergent(join(p, q))
        return [] if holds else [f"{p} {q}"]
    return _sampled("join-divergence", count, trial)


def suite_default_merging(max_size: int = 6) -> SuiteResult:
    """Every pattern merges for the complement of its first limit color and
    for its last limit color; exhaustive over small sizes."""
    def failures(code, rows):
        last = rows[-1]  # bit x: the color of (x, l-1)
        return [(" color 0", " color 1")[i]
                for i in (1 - (last & 1), last >> len(rows) - 2 & 1)
                if not _i_merging(rows, i)]
    return _swept("default-merging", range(2, max_size + 1), failures)


def suite_convergent_merging(max_size: int = 6) -> SuiteResult:
    """Convergent patterns of size >= 3 are merging; exhaustive."""
    def failures(code, rows):
        holds = _divergent(rows) or (_i_merging(rows, 0) and _i_merging(rows, 1))
        return [] if holds else [""]
    return _swept("convergent-merging", range(3, max_size + 1), failures)


def suite_irreducibility_criterion(max_size: int = 5) -> SuiteResult:
    """Split-criterion irreducibility agrees with the definition (no
    decomposition into a join); exhaustive."""
    def failures(code, rows):
        p = _coded(len(rows), code)
        return [""] if _irreducible(rows) == bool(decompositions(p)) else []
    return _swept("irreducibility-criterion", range(1, max_size + 1), failures)


def suite_duality(rng: random.Random, count: int = 2_000) -> SuiteResult:
    """Avoidance is invariant under simultaneously flipping coloring and
    pattern; at most 2,000 runs, whatever `count` asks for."""
    def trial():
        window = rng.randint(3, 9)
        f = _coloring(window, tuple(_random_rows(rng, window)))
        p = _random_pattern(rng, 4)
        H = [x for x in range(window) if rng.random() < 0.7]
        return [] if avoids(f, H, p) == avoids(flip(f), H, dual(p)) else [f"{p} H={H}"]
    return _sampled("duality", min(count, 2_000), trial)


def _stabilized_instance(rng: random.Random, max_window: int = 10,
                         max_pattern: int = 4):
    """Random (f, g, E, F, p) with F stabilizing E under witness g."""
    window = rng.randint(4, max_window)
    rows = _random_rows(rng, window)
    split = rng.randint(1, window - 1)
    E = sorted(x for x in range(split) if rng.random() < 0.7)
    F = sorted(y for y in range(split, window) if rng.random() < 0.7)
    g = PartialColoring({x: _coin(rng) for x in range(window)})
    return _recolored(rows, E, F, g), g, E, F, _random_pattern(rng, max_pattern)


def suite_stabilized_avoidance_equivalence(rng: random.Random,
                                           count: int = 10_000) -> SuiteResult:
    """With F stabilizing E under g: E is witnessed-avoiding for p exactly
    when E plus any single element of F still avoids p."""
    def trial():
        f, g, E, F, p = _stabilized_instance(rng)
        if not F:
            return None
        lhs = fg_avoids(f, g, E, p)
        rhs = all(avoids(f, sorted(set(E) | {y}), p) for y in F)
        return [] if lhs == rhs else [f"{p} E={E} F={F}"]
    return _sampled("stabilized-avoidance-equivalence", count, trial)


def suite_avoidance_union(rng: random.Random, count: int = 10_000) -> SuiteResult:
    """Irreducible p: if F stabilizes E under g and both sides are
    witnessed-avoiding, so is their union."""
    def trial():
        f, g, E, F, p = _stabilized_instance(rng)
        if p.size < 3 or not is_irreducible(p):
            return None
        if not (fg_avoids(f, g, E, p) and fg_avoids(f, g, F, p)):
            return None
        union = sorted(set(E) | set(F))
        return [] if fg_avoids(f, g, union, p) else [f"{p} E={E} F={F}"]
    return _sampled("avoidance-union", count, trial)


def _merging_pool(max_size: int = 4) -> dict[int, list[Pattern]]:
    """The divergent i-merging patterns of sizes 3..max_size, for each i, in
    code order."""
    pool: dict[int, list[Pattern]] = {0: [], 1: []}
    for size in range(3, max_size + 1):
        for code, rows in enumerate(_rows_by_code(size)):
            if _divergent(rows):
                for i in (0, 1):
                    if _i_merging(rows, i):
                        pool[i].append(_coded(size, code))
    return pool


def suite_merging_union(rng: random.Random, count: int = 10_000) -> SuiteResult:
    """Divergent i-merging p: a g-homogeneous E below an F homogeneous for the
    opposite color, with constant cross colors and a p-avoiding union, yields
    a witnessed-avoiding union."""
    pool = _merging_pool()

    def trial():
        i = _coin(rng)
        p = rng.choice(pool[i])
        window = rng.randint(4, 10)
        rows = _random_rows(rng, window)
        split = rng.randint(1, window - 1)
        E = sorted(x for x in range(split) if rng.random() < 0.6)
        F = sorted(y for y in range(split, window) if rng.random() < 0.6)
        gE = _coin(rng)
        g = PartialColoring({**{x: gE for x in E}, **{y: 1 - i for y in F}})
        cross = _coin(rng)
        f = _recolored(rows, E, F, lambda x: cross)
        union = sorted(set(E) | set(F))
        if not avoids(f, union, p):
            return None
        return ([] if fg_avoids(f, g, union, p)
                else [f"{p} i={i} E={E} F={F} cross={cross}"])
    return _sampled("merging-union", count, trial)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "join-associative": suite_join_associative,
    "join-divergence": suite_join_divergence,
    "default-merging": lambda rng, count: suite_default_merging(),
    "convergent-merging": lambda rng, count: suite_convergent_merging(),
    "irreducibility-criterion": lambda rng, count: suite_irreducibility_criterion(),
    "duality": suite_duality,
    "stabilized-avoidance-equivalence": suite_stabilized_avoidance_equivalence,
    "avoidance-union": suite_avoidance_union,
    "merging-union": suite_merging_union,
}


def run_suites(seed: int = 0, count: int = 10_000,
               names: Optional[list[str]] = None) -> list[SuiteResult]:
    """Run the named suites (all of them by default), in the order given."""
    if count < 0:
        raise PatternError(f"count must be nonnegative, got {count}")
    # a suite's generator is seeded with seed ^ crc32(name), and
    # random.Random seeds from its absolute value: a negative seed would
    # replay another seed's stream (-2 replays seed 0's join-associative)
    if seed < 0:
        raise PatternError(f"seed must be nonnegative, got {seed}")
    chosen = list(names) if names is not None else list(SUITES)
    repeated = next((n for k, n in enumerate(chosen) if n in chosen[:k]), None)
    if repeated is not None:
        raise PatternError(f"suite {repeated!r} named twice")
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise PatternError(f"unknown suites: {', '.join(unknown)}")
    results = []
    for name in chosen:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        results.append(SUITES[name](rng, count))
    return results
