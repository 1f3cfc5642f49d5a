"""The forcing evaluators against the loops they replace.

The evaluators scan, per side, only the rho that avoid p and make phi fire,
and test each coloring, as a mask, on those with the realizer kernel.  The oracle here is the
direct definition: for each coloring in itertools.product order, every rho
by size and then lexicographically, tested with fg_avoids and phi (and
homogeneity under h0 and h1 for the i-question; side 0 then side 1 for the
disjunctive question).  Exhaustive on window 4, then a seeded sample on
windows up to 9.
"""

import itertools
import random

import pytest

from patternkit.core import (
    PartialColoring,
    Pattern,
    PatternError,
    coloring_from_function,
)
from patternkit.forcing import (
    catalogue_predicate,
    eval_question_disjunctive,
    eval_question_i,
    eval_question_omega,
    pred_false,
)
from patternkit.stabilize import fg_avoids
from conftest import random_coloring

PREDICATES = ("false", "true", "size>=2", "size>=3", "contains:2",
              "homogeneous:0", "homogeneous:1")


def colorings(Xn):
    for bits in itertools.product((0, 1), repeat=len(Xn)):
        yield PartialColoring(dict(zip(Xn, bits)))


def pad(g, n):
    return {x: (g(x) if x in g else 0) for x in range(n + 1)}


def witnessed(f, stem, Xn, p, phi, g, homogeneous=()):
    for k in range(len(Xn) + 1):
        for rho in itertools.combinations(Xn, k):
            if any(len({h(x) for x in rho}) > 1 for h in homogeneous):
                continue
            if phi.satisfied_by(set(stem) | set(rho)) and fg_avoids(f, g, rho, p):
                return True
    return False


def oracle_omega(f, stem, Xn, p, phi, n):
    for g in colorings(Xn):
        if not witnessed(f, stem, Xn, p, phi, g):
            return False, pad(g, n)
    return True, None


def oracle_i(f, stem, Xn, p, phi, n):
    for h0 in colorings(Xn):
        for h1 in colorings(Xn):
            if not witnessed(f, stem, Xn, p, phi, h0, (h0, h1)):
                return False, (pad(h0, n), pad(h1, n))
    return True, None


def oracle_disjunctive(f, stem0, stem1, Xn, p0, p1, phi0, phi1, n):
    for h in colorings(Xn):
        if not (witnessed(f, stem0, Xn, p0, phi0, h)
                or witnessed(f, stem1, Xn, p1, phi1, h)):
            return False, pad(h, n)
    return True, None


def check_instance(f, stem, X, n, n_small, side0, side1, bare=True):
    """Compare all three evaluators with the oracle, with collect_failure and
    (if bare) without.  The i- and disjunctive questions run at the bound
    n_small <= n, which keeps the i-question's 4^k coloring pairs cheap."""
    def assert_same(evaluate, expected):
        assert evaluate(collect_failure=True) == expected
        assert not bare or evaluate() == expected[0]

    (p0, phi0), (p1, phi1) = side0, side1
    Xn = sorted(x for x in X if x <= n)
    assert_same(lambda **kw: eval_question_omega(f, stem, X, p0, phi0, n, **kw),
                oracle_omega(f, stem, Xn, p0, phi0, n))
    Xs = sorted(x for x in X if x <= n_small)
    assert_same(lambda **kw: eval_question_i(f, stem, X, p0, phi0, n_small, **kw),
                oracle_i(f, stem, Xs, p0, phi0, n_small))
    assert_same(lambda **kw: eval_question_disjunctive(f, stem, stem, X, p0, p1,
                                                       phi0, phi1, n_small, **kw),
                oracle_disjunctive(f, stem, stem, Xs, p0, p1, phi0, phi1, n_small))


def all_patterns(size):
    return [Pattern(size, bits)
            for bits in itertools.product((0, 1), repeat=size * (size - 1) // 2)]


def random_pattern(rng, lo, hi):
    size = rng.randint(lo, hi)
    return Pattern(size, tuple(rng.randint(0, 1) for _ in range(size * (size - 1) // 2)))


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
    pairs = list(itertools.combinations(range(window), 2))
    patterns = [p for size in (2, 3) for p in all_patterns(size)]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        values = dict(zip(pairs, bits))
        f = coloring_from_function(window, lambda x, y: values[(x, y)])
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
