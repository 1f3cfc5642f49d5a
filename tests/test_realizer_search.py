"""The realizer search against the definitions it replaces.

fg_avoids, strongly_appears, max_avoiding_subset and find_realizer all run on
the one realizer search in patternkit._kernels.  The oracle is the
definition, in `patternkit.oracle`: every increasing tuple from
itertools.combinations, tested one pair colour at a time.  Exhaustive on
window 4, then a seeded sample on windows up to 9.
The kernel's stack loop is also checked against the recursive search it
replaced, exhaustively on small windows and on a seeded sample.
"""

import itertools
import random

import pytest

from patternkit import oracle
from patternkit._kernels import _rows_by_code, lex_least_realizer
from patternkit.core import (
    Pattern,
    PartialColoring,
    StableColoring,
    find_realizer,
    strongly_appears,
)
from patternkit.stabilize import fg_avoids, max_avoiding_subset
from conftest import all_colorings, all_patterns, random_coloring, random_pattern


def check_instance(f, p, H, colorings):
    """Compare the four searches with the oracle on one coloring, pattern
    (size >= 2) and set H, under each witness / limit vector in colorings."""
    full = oracle.realizers(f, H, p)
    hit = find_realizer(f, H, p)
    assert (sorted(hit) if hit is not None else None) == (list(full[0]) if full else None)
    assert max_avoiding_subset(f, H, p) == oracle.max_avoiding(f, H, p)
    for colors in colorings:
        g = PartialColoring({x: colors[x] for x in H})
        assert fg_avoids(f, g, H, p) == oracle.witnessed(f, g, H, p)
        assert (strongly_appears(StableColoring(f, tuple(colors)), H, p)
                == oracle.strongly_appears(f, g, H, p))


def test_exhaustive_window4():
    window = 4
    patterns = [p for size in (2, 3, 4) for p in all_patterns(size)]
    colorings = list(itertools.product((0, 1), repeat=window))
    for f in all_colorings(window):
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
        assert oracle.max_avoiding(f, range(window), p) == frozenset()


# ---------------------------------------------------------------------------
# the stack-loop kernel against the recursive search it replaced


def recursive_realizer(rows, elems, prows, last=None):
    """The recursive lex-least realizer search: the oracle for
    `_kernels.lex_least_realizer`, whose answers must be the same."""
    l = len(prows) - (last is not None)
    n = len(elems)
    out = []

    def extend(start):
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


SMALL_PATTERN_ROWS = [p.rows for size in (1, 2, 3) for p in all_patterns(size)]


@pytest.mark.parametrize("window", range(7))
def test_kernel_matches_recursion_every_coloring(window):
    # every coloring of the window, every pattern of size <= 3, all elements
    elems = list(range(window))
    for rows in _rows_by_code(window):
        for prows in SMALL_PATTERN_ROWS:
            assert (lex_least_realizer(rows, elems, prows)
                    == recursive_realizer(rows, elems, prows)), (rows, prows)


@pytest.mark.parametrize("window", range(6))
def test_kernel_matches_recursion_every_last(window):
    # with `last` a window-w coloring plus its mask is a window-(w+1) coloring
    # whose top vertex is the virtual one, so this is the window-6 case
    elems = list(range(window))
    for rows in _rows_by_code(window):
        for last in range(1 << window):
            for prows in SMALL_PATTERN_ROWS:
                assert (lex_least_realizer(rows, elems, prows, last)
                        == recursive_realizer(rows, elems, prows, last)), (rows, prows, last)


def test_kernel_matches_recursion_seeded():
    # 10^4 larger cases: windows 7-14, patterns of size 2-6, sparse element
    # sets, `last` half of the time
    rng = random.Random(21)
    for _ in range(10_000):
        window = rng.randint(7, 14)
        rows = random_coloring(rng, window).rows
        elems = [x for x in range(window) if rng.random() < 0.8]
        prows = random_pattern(rng, 2, 6).rows
        last = rng.getrandbits(window) if rng.random() < 0.5 else None
        assert (lex_least_realizer(rows, elems, prows, last)
                == recursive_realizer(rows, elems, prows, last)), (rows, elems, prows, last)
