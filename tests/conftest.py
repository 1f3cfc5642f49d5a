import itertools
import random
import signal
from pathlib import Path

import pytest

from patternkit import oracle
from patternkit.algebra import join
from patternkit.core import FiniteColoring, Pattern, _coded, coloring_from_function

FIXTURES = Path(__file__).parent / "fixtures"
TIME_LIMIT_S = 30


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def time_limit():
    """Fail a test that runs past TIME_LIMIT_S seconds instead of letting it
    hang the suite (SIGALRM: POSIX, main thread)."""
    def expire(signum, frame):
        pytest.fail(f"timed out after {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_coloring(rng: random.Random, window: int) -> FiniteColoring:
    # one draw per pair x < y, in lexicographic order
    return coloring_from_function(window, lambda x, y: rng.randint(0, 1))


def random_pattern(rng: random.Random, lo: int, hi: int) -> Pattern:
    # a size in [lo, hi], then one draw per pair in lexicographic order
    size = rng.randint(lo, hi)
    return Pattern(size, tuple(rng.randint(0, 1) for _ in range(size * (size - 1) // 2)))


def biased_pattern(rng: random.Random, size: int) -> Pattern:
    """A pattern of the size (at least 2), drawn so that every verdict
    combination occurs: half the time its pairs have colour 1 at one density
    from near 0 to near 1; otherwise it is a chain of joins of uniformly
    drawn pieces of sizes 3 and 4."""
    def piece(k, density=0.5):
        return _coded(k, sum((rng.random() < density) << j for j in range(k * (k - 1) // 2)))

    if rng.random() < 0.5:
        return piece(size, rng.choice((0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 0.9, 0.95, 0.98)))
    p = piece(min(3, size))
    while p.size < size:
        p = join(p, piece(min(rng.choice((3, 4)), size - p.size + 1)))
    return p


def all_patterns(size: int) -> list[Pattern]:
    """Every pattern of the size, in the lexicographic order of its bits."""
    return [Pattern(size, bits)
            for bits in itertools.product((0, 1), repeat=size * (size - 1) // 2)]


def all_colorings(window: int) -> list[FiniteColoring]:
    """Every coloring of the window, ordered as the patterns of its size are."""
    return [coloring_from_function(window, oracle.colour(p)) for p in all_patterns(window)]


@pytest.fixture
def fig_coloring() -> FiniteColoring:
    """Window-3 coloring with f(0,1)=0, f(0,2)=1, f(1,2)=0."""
    values = {(0, 1): 0, (0, 2): 1, (1, 2): 0}
    return coloring_from_function(3, lambda x, y: values[(x, y)])
