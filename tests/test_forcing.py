import random
import re

import pytest

from patternkit import oracle
from patternkit.core import PartialColoring, PatternError, constant_coloring, parse_pattern
from patternkit.forcing import (
    MAX_BOUND,
    catalogue_predicate,
    eval_question_disjunctive,
    eval_question_i,
    eval_question_omega,
    least_bound,
    pred_contains,
    pred_false,
    pred_homogeneous,
    pred_size_at_least,
    pred_true,
)
from conftest import random_coloring

P = parse_pattern("3:010")


class TestPredicates:
    def test_true_false(self):
        assert pred_true().satisfied_by([1, 2])
        assert not pred_false().satisfied_by([1, 2])

    def test_size_at_least(self):
        assert pred_size_at_least(2).satisfied_by([4, 9])
        assert not pred_size_at_least(3).satisfied_by([4, 9])

    def test_contains(self):
        assert pred_contains(4).satisfied_by([4, 9])
        assert not pred_contains(5).satisfied_by([4, 9])

    def test_homogeneous(self):
        f = constant_coloring(6, 0)
        assert pred_homogeneous(f, 0).satisfied_by([1, 3, 5])
        assert not pred_homogeneous(f, 1).satisfied_by([1, 3])
        assert not pred_homogeneous(f, 0).satisfied_by([1])  # below min size

    def test_catalogue(self):
        f = constant_coloring(4)
        assert catalogue_predicate("true").name == "true"
        assert catalogue_predicate("size>=3").satisfied_by([1, 2, 3])
        assert catalogue_predicate("contains:2").satisfied_by([2])
        assert catalogue_predicate("homogeneous:0", f=f).name == "homogeneous:0:2"
        with pytest.raises(PatternError):
            catalogue_predicate("homogeneous:0")
        with pytest.raises(PatternError):
            catalogue_predicate("whatever")

    # int() would read the second row as 10, 2, 2, 1, -1, -2, -1 and 0; the
    # reader takes a '-', so the predicate rejects one itself, even on -0
    @pytest.mark.parametrize("spec", ["size>=x", "contains:q", "homogeneous:a",
                                      "homogeneous:0:z", "homogeneous:",
                                      "size>=1_0", "size>=\uff12", "size>= 2", "homogeneous:+1",
                                      "contains:-1", "homogeneous:0:-2", "size>=-1",
                                      "contains:-0"])
    def test_catalogue_non_integer_parameter(self, spec):
        with pytest.raises(PatternError, match=re.escape(repr(spec))):
            catalogue_predicate(spec, f=constant_coloring(4))

    def test_catalogue_reads_ascii_digits(self):
        f = constant_coloring(4)
        assert catalogue_predicate("size>=10").name == "size>=10"
        assert catalogue_predicate("contains:0").name == "contains:0"
        assert catalogue_predicate("homogeneous:1:03", f=f).name == "homogeneous:1:3"

    @pytest.mark.parametrize("spec", ["homogeneous:5", "homogeneous:-1:2", "homogeneous:0:2:2"])
    def test_catalogue_rejects_bad_homogeneity(self, spec):
        with pytest.raises(PatternError):
            catalogue_predicate(spec, f=constant_coloring(4))


class TestOmegaQuestion:
    def test_false_predicate(self):
        f = constant_coloring(10)
        assert not eval_question_omega(f, [], range(1, 8), P, pred_false(), 6)

    def test_true_predicate_with_empty_rho(self):
        f = constant_coloring(10)
        assert eval_question_omega(f, [], range(1, 8), P, pred_true(), 6)

    def test_two_element_witness_always_available(self):
        # any vertex coloring of three elements leaves a pair that is not
        # (1, 0)-colored, and such pairs are witnessed truncation blockers
        f = constant_coloring(10)
        phi = pred_size_at_least(2)
        assert eval_question_omega(f, [], range(1, 9), P, phi, 3)

    def test_failure_coloring_is_checkable(self):
        f = constant_coloring(12)
        phi = pred_size_at_least(40)
        verdict, fail = eval_question_omega(f, [], range(1, 9), P, phi, 8,
                                            collect_failure=True)
        assert not verdict
        assert set(fail) == set(range(9))
        # replay: the reported coloring really admits no witnessed subset
        assert not oracle.some_witnessed(f, [], range(1, 9), P, phi, PartialColoring(fail))

    def test_stem_must_be_below_reservoir(self):
        f = constant_coloring(10)
        with pytest.raises(PatternError):
            eval_question_omega(f, [5], range(1, 8), P, pred_true(), 6)

    def test_bound_capped(self):
        f = constant_coloring(40)
        with pytest.raises(PatternError):
            eval_question_omega(f, [], range(1, 30), P, pred_true(), MAX_BOUND + 1)
        with pytest.raises(PatternError):
            eval_question_omega(f, [], range(1, 8), P, pred_true(), -1)


class TestIQuestion:
    def test_true_predicate(self):
        f = constant_coloring(10)
        assert eval_question_i(f, [], range(1, 6), P, pred_true(), 5)

    def test_singleton_reservoir(self):
        f = constant_coloring(10)
        phi = pred_size_at_least(1)
        assert eval_question_i(f, [], [3], P, phi, 5)

    def test_false_predicate_failure_pair(self):
        f = constant_coloring(10)
        verdict, fail = eval_question_i(f, [], range(1, 5), P, pred_false(), 4,
                                        collect_failure=True)
        assert not verdict
        h0, h1 = fail
        assert set(h0) == set(h1) == set(range(5))

    def test_pigeonhole_class_exists(self):
        # 4(k-1)+1 elements guarantee a k-subset on which both colorings agree
        f = constant_coloring(12)
        phi = pred_size_at_least(2)
        assert eval_question_i(f, [], range(1, 6), P, phi, 5)


class TestDisjunctiveQuestion:
    def test_true_side_suffices(self):
        f = constant_coloring(10)
        assert eval_question_disjunctive(f, [], [], range(1, 6), P, P,
                                         pred_true(), pred_false(), 5)

    def test_both_false(self):
        f = constant_coloring(10)
        assert not eval_question_disjunctive(f, [], [], range(1, 6), P, P,
                                             pred_false(), pred_false(), 5)

    def test_side_must_vary_with_coloring(self):
        # side 0 wants rho={1} with g(1)=1, side 1 wants rho={1} with g(1)=0;
        # the disjunction always holds but neither side alone does
        f = constant_coloring(6)
        p0, p1 = parse_pattern("2:0"), parse_pattern("2:1")
        phi = pred_contains(1)
        X = [1, 2]
        assert eval_question_disjunctive(f, [], [], X, p0, p1, phi, phi, 2)
        assert not eval_question_omega(f, [], X, p0, phi, 2)
        assert not eval_question_omega(f, [], X, p1, phi, 2)

    def test_failure_coloring_returned(self):
        f = constant_coloring(10)
        verdict, fail = eval_question_disjunctive(
            f, [], [], range(1, 6), P, P, pred_false(), pred_false(), 5,
            collect_failure=True)
        assert not verdict and set(fail) == set(range(6))


class TestStemChecks:
    @pytest.mark.parametrize("stem, X", [([-1], [1, 2]), ([-1], [3]), ([10], [])])
    def test_stem_outside_window_rejected(self, stem, X):
        f = constant_coloring(10)
        phi = pred_homogeneous(f, 0)
        p = parse_pattern("2:0")
        for evaluate in (
            lambda: eval_question_omega(f, stem, X, p, phi, 2),
            lambda: eval_question_i(f, stem, X, p, phi, 2),
            lambda: eval_question_disjunctive(f, [], stem, X, p, p, phi, phi, 2),
        ):
            with pytest.raises(PatternError, match="outside window"):
                evaluate()


class TestReservoirChecks:
    @pytest.mark.parametrize("X, least", [([-3, 1, 2], -3), ([-1], -1), ([2, -5, -2], -5)])
    def test_negative_reservoir_element_rejected(self, X, least):
        # a negative element lies outside every window; it is an error, as a
        # stem element outside the window is, not an element to drop
        f = constant_coloring(10)
        phi = pred_size_at_least(2)
        p = parse_pattern("2:0")
        for evaluate in (
            lambda: eval_question_omega(f, [], X, p, phi, 2),
            lambda: eval_question_i(f, [], X, p, phi, 2),
            lambda: eval_question_disjunctive(f, [], [], X, p, p, phi, phi, 2),
        ):
            with pytest.raises(PatternError, match=f"reservoir element {least} is negative"):
                evaluate()


class TestRepeatedReservoirVertices:
    def test_reservoir_is_a_set(self):
        # a repeated reservoir vertex must not let rho hold it twice
        rng = random.Random(0)
        for _ in range(10):
            f = random_coloring(rng, 8)
            X = sorted(rng.sample(range(1, 8), 3))
            Xd = X + [rng.choice(X)]
            p = parse_pattern(rng.choice(["2:0", "2:1", "3:010"]))
            for phi in (pred_size_at_least(2), pred_homogeneous(f, 0)):
                for evaluate in (
                    lambda R: eval_question_omega(f, [0], R, p, phi, 7, True),
                    lambda R: eval_question_i(f, [0], R, p, phi, 7, True),
                    lambda R: eval_question_disjunctive(f, [0], [0], R, p, p, phi, phi,
                                                        7, True),
                ):
                    assert evaluate(Xd) == evaluate(X)


class TestLeastBound:
    def test_true_predicate_at_zero(self):
        f = constant_coloring(10)
        assert least_bound(
            lambda n: eval_question_omega(f, [], range(1, 8), P, pred_true(), n),
            8) == 0

    def test_false_predicate_never(self):
        f = constant_coloring(10)
        assert least_bound(
            lambda n: eval_question_omega(f, [], range(1, 8), P, pred_false(), n),
            8) is None

    def test_least_window_admitting_enough_elements(self):
        f = constant_coloring(14)
        phi = pred_size_at_least(2)
        got = least_bound(
            lambda n: eval_question_omega(f, [], range(1, 14), P, phi, n), 12)
        assert got == 3

    def test_cap_respected(self):
        with pytest.raises(PatternError):
            least_bound(lambda n: True, MAX_BOUND + 1)

    def test_negative_cap_rejected(self):
        with pytest.raises(PatternError, match="nonnegative"):
            least_bound(lambda n: True, -1)


class TestMonotonicity:
    def test_omega_monotone_in_bound(self):
        rng = random.Random(0)
        for _ in range(5):
            f = random_coloring(rng, 13)
            X = sorted(rng.sample(range(1, 13), 7))
            phi = pred_size_at_least(rng.randint(1, 3))
            seen_true = False
            for n in range(13):
                v = eval_question_omega(f, [], X, P, phi, min(n, 12))
                if seen_true:
                    assert v
                seen_true = seen_true or v
