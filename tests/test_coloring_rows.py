"""The row-mask coloring against a per-pair reference, exhaustively on
windows 1-5, and the package's import footprint."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patternkit
from patternkit import oracle
from patternkit.core import (
    FiniteColoring,
    PatternError,
    coloring_from_function,
    flip,
)
from patternkit.io import format_coloring, parse_coloring
from conftest import all_patterns


def all_colorings(window):
    """Every coloring of the window as its pair colours: a function of two
    distinct vertices, read from the bits of a pattern of the window's size."""
    return [oracle.colour(p) for p in all_patterns(window)]


def reference_text(window, c):
    lines = [str(window)] + ["".join(str(c(x, y)) for y in range(x + 1, window))
                             for x in range(window - 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("window", range(1, 6))
def test_every_coloring_matches_per_pair_reference(window):
    for c in all_colorings(window):
        f = coloring_from_function(window, c)
        assert f == FiniteColoring(window, oracle.rows(c, window))
        assert hash(f) == hash(FiniteColoring(window, oracle.rows(c, window)))
        g = flip(f)
        for x, y in itertools.permutations(range(window), 2):
            assert f(x, y) == c(x, y)
            assert g(x, y) == 1 - c(x, y)
        text = format_coloring(f)
        assert text == reference_text(window, c)
        assert parse_coloring(text) == f


@pytest.mark.parametrize("window", range(1, 6))
def test_every_malformed_row_is_rejected(window):
    for c in all_colorings(window):
        rows = oracle.rows(c, window)
        for x in range(window):
            # one bit flipped above or below the diagonal breaks symmetry, the
            # diagonal bit and a bit at the window are out of place
            for y in range(window + 1):
                bad = rows[:x] + (rows[x] ^ 1 << y,) + rows[x + 1:]
                with pytest.raises(PatternError):
                    FiniteColoring(window, bad)
        with pytest.raises(PatternError):
            FiniteColoring(window, rows + (0,))
        with pytest.raises(PatternError):
            FiniteColoring(window, rows[:-1])
        with pytest.raises(PatternError):
            FiniteColoring(window, rows[:-1] + (-1,))


@pytest.mark.parametrize("text", ["3\n01\n", "3\n01\n1\n1\n", "3\n011\n1\n", "3\n0\n1\n",
                                  "3\n02\n1\n", "3\n01\n-\n", "-1\n", "x\n"])
def test_malformed_coloring_text_is_rejected(text):
    with pytest.raises(PatternError):
        parse_coloring(text)


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(patternkit.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, patternkit.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert res.stdout == "False\n"
