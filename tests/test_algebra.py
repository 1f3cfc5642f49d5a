import random

import pytest

from patternkit import oracle
from patternkit.core import (
    PatternError,
    _coded,
    dual,
    parse_pattern,
    pattern_from_colors,
)
from patternkit.algebra import (
    classify,
    decompositions,
    is_divergent,
    is_i_merging,
    is_irreducible,
    join,
)
from patternkit.classifier import enumerate_patterns
from conftest import random_pattern


class TestJoin:
    def test_join_reducible_example(self):
        assert join(parse_pattern("2:0"),
                    parse_pattern("3:101")) == parse_pattern("4:000101")

    def test_join_of_the_two_irreducible_triples(self):
        assert join(parse_pattern("3:010"),
                    parse_pattern("3:101")) == parse_pattern("5:0111000101")

    def test_singleton_is_join_identity(self):
        rng = random.Random(0)
        one = parse_pattern("1:")
        for _ in range(50):
            p = random_pattern(rng, 1, 5)
            assert join(p, one) == p
            assert join(one, p) == p

    def test_join_size(self):
        rng = random.Random(1)
        for _ in range(50):
            p, q = random_pattern(rng, 1, 5), random_pattern(rng, 1, 5)
            assert join(p, q).size == p.size + q.size - 1

    def test_join_associative_random(self):
        rng = random.Random(2)
        for _ in range(500):
            a, b, c = (random_pattern(rng, 1, 5) for _ in range(3))
            assert join(join(a, b), c) == join(a, join(b, c))

    def test_join_definition_cases(self):
        # left block, seam propagation, and shifted right block
        p, q = parse_pattern("3:010"), parse_pattern("3:101")
        r = join(p, q)
        assert r(0, 1) == p(0, 1) and r(1, 2) == p(1, 2)     # inside p
        assert r(0, 3) == p(0, 2) and r(0, 4) == p(0, 2)     # seam column
        assert r(1, 3) == p(1, 2) and r(1, 4) == p(1, 2)
        assert r(2, 3) == q(0, 1) and r(3, 4) == q(1, 2)     # inside q


class TestDecompositions:
    def test_reducible_example(self):
        ds = decompositions(parse_pattern("4:000101"))
        assert (parse_pattern("2:0"), parse_pattern("3:101")) in ds

    def test_irreducible_triple_has_none(self):
        assert decompositions(parse_pattern("3:010")) == []

    def test_pair_has_none(self):
        assert decompositions(parse_pattern("2:0")) == []

    def test_every_decomposition_rejoins(self):
        rng = random.Random(3)
        for _ in range(200):
            p = random_pattern(rng, 2, 6)
            for left, right in decompositions(p):
                assert left.size >= 2 and right.size >= 2
                assert join(left, right) == p


class TestIrreducibility:
    def test_irreducible_triple(self):
        assert is_irreducible(parse_pattern("3:010"))

    def test_reducible_example(self):
        assert not is_irreducible(parse_pattern("4:000101"))

    def test_tiny_patterns_irreducible(self):
        for text in ("1:", "2:0", "2:1"):
            assert is_irreducible(parse_pattern(text))
            assert not decompositions(parse_pattern(text))


class TestDivergence:
    def test_divergent_triple(self):
        assert is_divergent(parse_pattern("3:010"))

    def test_pairs_convergent(self):
        assert not is_divergent(parse_pattern("2:0"))
        assert not is_divergent(parse_pattern("2:1"))

    def test_constant_last_column_convergent(self):
        assert not is_divergent(parse_pattern("3:000"))

    def test_join_preserves_divergence(self):
        rng = random.Random(4)
        for _ in range(500):
            p, q = random_pattern(rng, 1, 5), random_pattern(rng, 1, 5)
            if is_divergent(p) or is_divergent(q):
                assert is_divergent(join(p, q))


class TestMerging:
    def test_merging_colors_of_divergent_triple(self):
        assert is_i_merging(parse_pattern("3:010"), 0)
        assert not is_i_merging(parse_pattern("3:010"), 1)

    def test_convergent_triple_merges_both(self):
        assert is_i_merging(parse_pattern("3:000"), 0)
        assert is_i_merging(parse_pattern("3:000"), 1)

    def test_pairs_merge_vacuously(self):
        for text in ("2:0", "2:1"):
            assert is_i_merging(parse_pattern(text), 0)
            assert is_i_merging(parse_pattern(text), 1)
            assert classify(parse_pattern(text)).merging

    def test_is_merging_examples(self):
        assert classify(parse_pattern("3:000")).merging
        assert not classify(parse_pattern("3:010")).merging


class TestOneSplitMerging:
    @pytest.mark.parametrize("size", range(1, 7))
    def test_agrees_with_split_loop_exhaustively(self, size):
        for p in enumerate_patterns(size):
            for i in (0, 1):
                assert is_i_merging(p, i) == oracle.is_i_merging(p, i), (p, i)

    @pytest.mark.parametrize("size", range(7, 13))
    def test_agrees_with_split_loop_seeded(self, size):
        rng = random.Random(size)
        n = size * (size - 1) // 2
        patterns = [_coded(size, rng.getrandbits(n)) for _ in range(300)]
        # plant the refuting shape: the last column one color on [0,k) and the
        # other on [k,l-1), with the pairs across the split constant or not
        for k in range(1, size - 1):
            for first in (0, 1):
                for cross in (0, 1, None):
                    def color(x, y):
                        if y == size - 1:
                            return first if x < k else 1 - first
                        if x < k <= y and cross is not None:
                            return cross
                        return rng.getrandbits(1)
                    patterns.append(pattern_from_colors(size, color))
        for p in patterns:
            for i in (0, 1):
                assert is_i_merging(p, i) == oracle.is_i_merging(p, i), (p, i)
        assert not all(is_i_merging(p, i) for p in patterns for i in (0, 1))

    @pytest.mark.parametrize("text", ["1:", "2:0", "3:010", "5:0111000101"])
    @pytest.mark.parametrize("color", [-1, 2, None])
    def test_bad_color_raises(self, text, color):
        with pytest.raises(PatternError):
            is_i_merging(parse_pattern(text), color)


class TestClassify:
    def test_divergent_irreducible_triple(self):
        fl = classify(parse_pattern("3:010"))
        assert fl.divergent and fl.irreducible
        assert fl.merging0 and not fl.merging1 and not fl.merging

    def test_convergent_merging_triple(self):
        fl = classify(parse_pattern("3:000"))
        assert not fl.divergent and fl.merging

    def test_reducible_example(self):
        assert not classify(parse_pattern("4:000101")).irreducible

    def test_flag_consistency(self):
        rng = random.Random(5)
        for _ in range(300):
            p = random_pattern(rng, 1, 6)
            fl = classify(p)
            assert fl.merging == (fl.merging0 and fl.merging1)
            if p.size >= 2:
                assert fl.merging0 or fl.merging1

    def test_dual_swaps_merging_colors_exhaustively(self):
        for size in range(1, 6):
            for p in enumerate_patterns(size):
                fl, fd = classify(p), classify(dual(p))
                assert fl.divergent == fd.divergent
                assert fl.irreducible == fd.irreducible
                assert fl.merging0 == fd.merging1
                assert fl.merging1 == fd.merging0

    def test_size_one_by_vacuity(self):
        fl = classify(parse_pattern("1:"))
        assert not fl.divergent and fl.irreducible and fl.merging
