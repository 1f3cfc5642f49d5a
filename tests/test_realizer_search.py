"""The realizer search against the definitions it replaces.

fg_avoids, strongly_appears, max_avoiding_subset and find_realizer all run on
the one realizer search in patternkit._kernels.  The oracle here is the
definition: every increasing tuple from itertools.combinations, tested with
realizes.  Exhaustive on window 4, then a seeded sample on windows up to 9.
"""

import itertools
import random

import pytest

from patternkit.core import (
    Pattern,
    PartialColoring,
    StableColoring,
    coloring_from_function,
    find_realizer,
    minus,
    realizes,
    strongly_appears,
)
from patternkit.stabilize import fg_avoids, max_avoiding_subset
from conftest import random_coloring


def realizers(f, H, p):
    """Every increasing tuple of H realizing p, in lexicographic order."""
    return [s for s in itertools.combinations(sorted(H), p.size) if realizes(f, s, p)]


def matches_last_column(colors, s, p):
    return all(colors[x] == p(i, p.size - 1) for i, x in enumerate(s))


def oracle_max_avoiding(f, W, p):
    """First subset, in (decreasing size, lexicographic) order, holding no realizer."""
    hits = [set(s) for s in realizers(f, W, p)]
    for k in range(len(W), -1, -1):
        for s in itertools.combinations(sorted(W), k):
            if not any(h <= set(s) for h in hits):
                return frozenset(s)


def all_patterns(size):
    return [Pattern(size, bits)
            for bits in itertools.product((0, 1), repeat=size * (size - 1) // 2)]


def random_pattern(rng, lo, hi):
    size = rng.randint(lo, hi)
    return Pattern(size, tuple(rng.randint(0, 1) for _ in range(size * (size - 1) // 2)))


def check_instance(f, p, H, colorings):
    """Compare the four searches with the oracle on one coloring, pattern
    (size >= 2) and set H, under each witness / limit vector in colorings."""
    full = realizers(f, H, p)
    trunc = realizers(f, H, minus(p))
    hit = find_realizer(f, H, p)
    assert (sorted(hit) if hit is not None else None) == (list(full[0]) if full else None)
    assert max_avoiding_subset(f, H, p) == oracle_max_avoiding(f, H, p)
    for colors in colorings:
        witnessed = any(matches_last_column(colors, s, p) for s in trunc)
        g = PartialColoring({x: colors[x] for x in H})
        assert fg_avoids(f, g, H, p) == (not full and not witnessed)
        assert strongly_appears(StableColoring(f, tuple(colors)), H, p) == witnessed


def test_exhaustive_window4():
    window = 4
    pairs = list(itertools.combinations(range(window), 2))
    patterns = [p for size in (2, 3, 4) for p in all_patterns(size)]
    colorings = list(itertools.product((0, 1), repeat=window))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        values = dict(zip(pairs, bits))
        f = coloring_from_function(window, lambda x, y: values[(x, y)])
        for p in patterns:
            check_instance(f, p, range(window), colorings)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_sample(seed):
    # 4 x 600 instances on windows 1..9
    rng = random.Random(seed)
    for _ in range(600):
        window = rng.randint(1, 9)
        f = random_coloring(rng, window)
        H = [x for x in range(window) if rng.random() < 0.8]
        colors = [rng.randint(0, 1) for _ in range(window)]
        check_instance(f, random_pattern(rng, 2, 5), H, [colors])


def test_singleton_pattern_has_empty_max_avoiding_subset():
    rng = random.Random(9)
    p = Pattern(1, ())
    for window in range(1, 7):
        f = random_coloring(rng, window)
        assert max_avoiding_subset(f, range(window), p) == frozenset()
        assert oracle_max_avoiding(f, range(window), p) == frozenset()
