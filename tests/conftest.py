import random
from pathlib import Path

import pytest

from patternkit.core import FiniteColoring, coloring_from_function

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def random_coloring(rng: random.Random, window: int) -> FiniteColoring:
    # one draw per pair x < y, in lexicographic order
    return coloring_from_function(window, lambda x, y: rng.randint(0, 1))


@pytest.fixture
def fig_coloring() -> FiniteColoring:
    """Window-3 coloring with f(0,1)=0, f(0,2)=1, f(1,2)=0."""
    values = {(0, 1): 0, (0, 2): 1, (1, 2): 0}
    return coloring_from_function(3, lambda x, y: values[(x, y)])
