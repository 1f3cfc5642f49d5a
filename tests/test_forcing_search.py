"""The forcing evaluators against the loops they replace.

The evaluators scan, per side, only the rho that avoid p and make phi fire,
and test each coloring, as a mask, on those with the realizer kernel.  The
oracle, `patternkit.oracle`, is the definition: for each coloring in
itertools.product order, every rho by size and then lexicographically,
tested for witnessed avoidance and with phi (and homogeneity under h0 and
h1 for the i-question; side 0, then side 1 for the disjunctive question).
Exhaustive on window 4, then a seeded sample on windows up to 9.
"""

import random

import pytest

from patternkit import oracle
from patternkit.core import Pattern, PatternError
from patternkit.forcing import (
    catalogue_predicate,
    eval_question_disjunctive,
    eval_question_i,
    eval_question_omega,
    pred_false,
)
from conftest import all_colorings, all_patterns, random_coloring, random_pattern

PREDICATES = ("false", "true", "size>=2", "size>=3", "contains:2",
              "homogeneous:0", "homogeneous:1")


def check_instance(f, stem, X, n, n_small, side0, side1, bare=True):
    """Compare all three evaluators with the oracle, with collect_failure and
    (if bare) without.  The i- and disjunctive questions run at the bound
    n_small <= n, which keeps the i-question's 4^k coloring pairs cheap."""
    def assert_same(evaluate, expected):
        assert evaluate(collect_failure=True) == expected
        assert not bare or evaluate() == expected[0]

    (p0, phi0), (p1, phi1) = side0, side1
    assert_same(lambda **kw: eval_question_omega(f, stem, X, p0, phi0, n, **kw),
                oracle.question_omega(f, stem, X, p0, phi0, n))
    assert_same(lambda **kw: eval_question_i(f, stem, X, p0, phi0, n_small, **kw),
                oracle.question_i(f, stem, X, p0, phi0, n_small))
    assert_same(lambda **kw: eval_question_disjunctive(f, stem, stem, X, p0, p1,
                                                       phi0, phi1, n_small, **kw),
                oracle.question_disjunctive(f, stem, stem, X, p0, p1, phi0, phi1, n_small))


def random_predicate(rng, window):
    return rng.choice(("false", "true", f"size>={rng.randint(0, 4)}",
                       f"contains:{rng.randrange(window)}",
                       f"homogeneous:{rng.randint(0, 1)}:{rng.randint(1, 3)}"))


@pytest.mark.parametrize("stem", [[], [0]])
def test_exhaustive_window4(stem):
    # every coloring of window 4 x patterns of size 2-3 x seven predicates,
    # reservoir {1, 2, 3}; side 1 of the disjunctive question is the next
    # pattern with the predicate three places on
    window = 4
    patterns = [p for size in (2, 3) for p in all_patterns(size)]
    for f in all_colorings(window):
        phis = [catalogue_predicate(spec, f) for spec in PREDICATES]
        for i, p in enumerate(patterns):
            for j, phi in enumerate(phis):
                other = (patterns[(i + 1) % len(patterns)], phis[(j + 3) % len(phis)])
                check_instance(f, stem, range(1, window), window - 1, window - 2,
                               (p, phi), other, bare=False)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_sample(seed):
    # 4 x 150 instances on windows 2..9, at most 5 reservoir elements below
    # the bound (4 for the i- and disjunctive questions)
    rng = random.Random(seed)
    for _ in range(150):
        window = rng.randint(2, 9)
        f = random_coloring(rng, window)
        stem = sorted(rng.sample(range(window - 1), rng.randint(0, min(2, window - 1))))
        lo = stem[-1] + 1 if stem else 0
        X = sorted(rng.sample(range(lo, window), min(5, window - lo)))
        n = rng.randint(0, window - 1)
        n_small = min(n, X[3]) if len(X) > 4 else n
        side0, side1 = [(random_pattern(rng, 2, 4),
                         catalogue_predicate(random_predicate(rng, window), f))
                        for _ in range(2)]
        check_instance(f, stem, X, n, n_small, side0, side1)


def test_singleton_pattern_raises_in_every_evaluator():
    rng = random.Random(7)
    f = random_coloring(rng, 6)
    p, phi = Pattern(1, ()), pred_false()
    X = range(1, 5)
    for evaluate in (
        lambda: eval_question_omega(f, [], X, p, phi, 4),
        lambda: eval_question_i(f, [], X, p, phi, 4),
        lambda: eval_question_disjunctive(f, [], [], X, p, p, phi, phi, 4),
    ):
        with pytest.raises(PatternError, match="size >= 2"):
            evaluate()
