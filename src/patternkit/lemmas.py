"""Seeded randomized and exhaustive suites checking the algebraic and
combinatorial laws the rest of the package relies on.

Each suite returns a SuiteResult with the instances tried and any
counterexamples found; the CLI batch runner and the test suite both drive
these functions, so a law violation shows up identically in both places.
The three exhaustive suites, and the pattern pool of `merging-union`, walk
every code of their sizes with the row masks `_kernels._rows_by_code`
streams, and test them with the row-level predicate cores of `algebra`.

The sampled suites draw from their generator exactly as `randint`, `choice`
and one `randint(0, 1)` per pair would, in the same order, but through
`getrandbits` directly (`_below`, `_coins`): the pinned digests in the tests
hold the values and the generator's end state.
"""

from __future__ import annotations

import itertools
import operator
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
from ._kernels import _rows_by_code, _rows_of
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


def _below(rng: random.Random, n: int) -> int:
    """rng.randrange(n), for n >= 1, drawn as CPython 3.11 draws it
    (`_randbelow_with_getrandbits`: n.bit_length() bits, redrawn while >= n).
    randint(a, b) is a + _below(rng, b - a + 1), and choice(seq) is
    seq[_below(rng, len(seq))]."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _coin(rng: random.Random) -> int:
    """rng.randint(0, 1), without randint's call overhead."""
    return _below(rng, 2)


def _coins(rng: random.Random, n: int) -> int:
    """The code of n coins drawn as n calls of `_coin` would, the first coin
    the top bit; `_coin`'s draw is inlined, the one hot loop of the draws."""
    bits = rng.getrandbits
    code = 0
    for _ in range(n):
        r = bits(2)
        while r >= 2:
            r = bits(2)
        code = code << 1 | r
    return code


def _random_pattern(rng: random.Random, max_size: int, min_size: int = 2) -> Pattern:
    """A uniform size, then one coin per pair, first pair first."""
    size = min_size + _below(rng, max_size - min_size + 1)
    return _coded(size, _coins(rng, size * (size - 1) // 2))


def _random_rows(rng: random.Random, window: int) -> tuple[int, ...]:
    """The rows of a coloring with one coin per pair x < y, drawn in
    lexicographic order: the rows of the pattern whose code they spell."""
    return _rows_of(window, _coins(rng, window * (window - 1) // 2))


def _recolored(rows, E, F, color) -> FiniteColoring:
    """rows, with each pair (x in E, y in F) recolored color(x), as a coloring
    built without FiniteColoring's checks: symmetric rows stay so.  E and F
    are disjoint."""
    rows = list(rows)
    ones = sum(1 << x for x in E if color(x))  # the E vertices colored 1
    Emask, Fmask = sum(1 << x for x in E), sum(1 << y for y in F)
    for x in E:
        rows[x] = rows[x] & ~Fmask | (Fmask if ones >> x & 1 else 0)
    for y in F:
        rows[y] = rows[y] & ~Emask | ones
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


def _swept(name: str, sizes: range, holds: Callable[[int, tuple[int, ...]], bool],
           notes: Optional[Callable[[tuple[int, ...]], list[str]]] = None
           ) -> SuiteResult:
    """Check holds(code, rows) on every pattern of the given sizes, given by
    its code and row masks, in code order; every pattern is a run.  A failing
    pattern gives one counterexample per note of notes(rows) (by default the
    one empty note): the pattern followed by the note.  Only the first five
    are kept, so a Pattern is built for at most five failures."""
    bad, runs = [], 0
    for n in sizes:
        verdicts = map(holds, itertools.count(), _rows_by_code(n))
        for code in itertools.compress(itertools.count(), map(operator.not_, verdicts)):
            if len(bad) < 5:
                p = _coded(n, code)
                kept = notes(_rows_of(n, code)) if notes else [""]
                bad += [f"{p}{note}" for note in kept]
        runs += 1 << n * (n - 1) // 2
    return SuiteResult(name, runs, tuple(bad[:5]), skipped=runs == 0)


def suite_join_associative(rng: random.Random, count: int = 10_000) -> SuiteResult:
    """(p ⊎ q) ⊎ r equals p ⊎ (q ⊎ r) for random triples."""
    def trial():
        p, q, r = _random_pattern(rng, 5), _random_pattern(rng, 5), _random_pattern(rng, 5)
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
    def colors(rows):
        last = rows[-1]  # bit x: the color of (x, l-1)
        return 1 - (last & 1), last >> len(rows) - 2 & 1

    # holds is the per-pattern test, kept free of a list per pattern (a
    # comprehension here costs the sweep a quarter more); notes runs on at
    # most five failures and names the colours that do not merge
    def holds(code, rows):
        first, final = colors(rows)
        return _i_merging(rows, first) and _i_merging(rows, final)

    def notes(rows):
        return [f" color {i}" for i in colors(rows) if not _i_merging(rows, i)]
    return _swept("default-merging", range(2, max_size + 1), holds, notes)


def suite_convergent_merging(max_size: int = 6) -> SuiteResult:
    """Convergent patterns of size >= 3 are merging; exhaustive."""
    def holds(code, rows):
        return _divergent(rows) or (_i_merging(rows, 0) and _i_merging(rows, 1))
    return _swept("convergent-merging", range(3, max_size + 1), holds)


def suite_irreducibility_criterion(max_size: int = 5) -> SuiteResult:
    """Split-criterion irreducibility agrees with the definition (no
    decomposition into a join); exhaustive."""
    def holds(code, rows):
        return _irreducible(rows) != bool(decompositions(_coded(len(rows), code)))
    return _swept("irreducibility-criterion", range(1, max_size + 1), holds)


def suite_duality(rng: random.Random, count: int = 2_000) -> SuiteResult:
    """Avoidance is invariant under simultaneously flipping coloring and
    pattern; at most 2,000 runs, whatever `count` asks for."""
    def trial():
        window = 3 + _below(rng, 7)
        f = _coloring(window, _random_rows(rng, window))
        p = _random_pattern(rng, 4)
        H = [x for x in range(window) if rng.random() < 0.7]
        return [] if avoids(f, H, p) == avoids(flip(f), H, dual(p)) else [f"{p} H={H}"]
    return _sampled("duality", min(count, 2_000), trial)


def _stabilized_draw(rng: random.Random):
    """The draws of a stabilized instance, in order: (rows, E, F, coins, p),
    with a window of 4-10, E below F, one witness coin per vertex (vertex 0
    the top bit of coins) and |p| <= 4.  Nothing is built from them."""
    window = 4 + _below(rng, 7)
    rows = _random_rows(rng, window)
    split = 1 + _below(rng, window - 1)
    E = [x for x in range(split) if rng.random() < 0.7]
    F = [y for y in range(split, window) if rng.random() < 0.7]
    return rows, E, F, _coins(rng, window), _random_pattern(rng, 4)


def _stabilized(rows, E, F, coins, p):
    """(f, g, E, F, p) from a draw: g colors each vertex by its coin, and f
    recolors rows so that F stabilizes E under g."""
    top = len(rows) - 1
    g = PartialColoring({x: coins >> top - x & 1 for x in range(top + 1)})
    return _recolored(rows, E, F, g), g, E, F, p


def _stabilized_instance(rng: random.Random):
    """Random (f, g, E, F, p) with F stabilizing E under witness g: the draw
    of stabilized-avoidance-equivalence, which uses all of it, and the one
    the tests check the built colorings on."""
    return _stabilized(*_stabilized_draw(rng))


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
        draw = _stabilized_draw(rng)
        p = draw[-1]
        if p.size < 3 or not is_irreducible(p):
            return None
        f, g, E, F, p = _stabilized(*draw)
        if not (fg_avoids(f, g, E, p) and fg_avoids(f, g, F, p)):
            return None
        return [] if fg_avoids(f, g, E + F, p) else [f"{p} E={E} F={F}"]
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
        p = pool[i][_below(rng, len(pool[i]))]
        window = 4 + _below(rng, 7)
        rows = _random_rows(rng, window)
        split = 1 + _below(rng, window - 1)
        E = [x for x in range(split) if rng.random() < 0.6]
        F = [y for y in range(split, window) if rng.random() < 0.6]
        gE = _coin(rng)
        cross = _coin(rng)
        f = _recolored(rows, E, F, lambda x: cross)
        union = E + F
        if not avoids(f, union, p):
            return None
        g = PartialColoring({**{x: gE for x in E}, **{y: 1 - i for y in F}})
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
        raise PatternError(f"unknown suites: {', '.join(map(repr, unknown))}")
    results = []
    for name in chosen:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        results.append(SUITES[name](rng, count))
    return results
