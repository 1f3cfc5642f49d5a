import itertools
import random

import pytest

from patternkit import oracle
from patternkit.core import (
    PartialColoring,
    Pattern,
    PatternError,
    avoids,
    coloring_from_function,
    constant_coloring,
    find_realizer,
    parse_pattern,
)
from patternkit.algebra import join
from patternkit.stabilize import (
    BinaryTree,
    Condition,
    WindowExhausted,
    extend_condition,
    fg_avoids,
    find_stabilizing_tail,
    full_binary_tree,
    greedy_avoid_join,
    homogeneous_for_tree,
    is_valid_condition,
    max_avoiding_subset,
    stabilizes,
    tree_to_coloring,
)
from conftest import all_colorings, random_coloring, random_pattern


class TestStabilizes:
    def test_constant_coloring_stabilizes(self):
        f = constant_coloring(6)
        g = PartialColoring({0: 0, 1: 0})
        assert stabilizes(f, [0, 1], [3, 4, 5], g)

    def test_wrong_witness_color(self):
        f = constant_coloring(6)
        g = PartialColoring({0: 1, 1: 0})
        assert not stabilizes(f, [0, 1], [3, 4, 5], g)

    def test_split_instance(self):
        # f(0,y)=1 and f(1,y)=0 for y >= 3
        f = coloring_from_function(6, lambda x, y: 1 if x == 0 and y >= 3 else 0)
        g = PartialColoring({0: 1, 1: 0})
        assert stabilizes(f, [0, 1], [3, 4, 5], g)

    def test_requires_e_below_f(self):
        f = constant_coloring(6)
        with pytest.raises(PatternError):
            stabilizes(f, [3], [2, 4], PartialColoring({3: 0}))

    def test_requires_total_witness(self):
        f = constant_coloring(6)
        with pytest.raises(PatternError):
            stabilizes(f, [0, 1], [3], PartialColoring({0: 0}))


class TestWitnessedAvoidance:
    def test_witness_contradicts_limit_spec(self):
        f = constant_coloring(4)
        p = parse_pattern("3:010")
        # {0,1} realizes the truncation "2:0"; g(0)=0 != p(0,2)=1
        assert fg_avoids(f, PartialColoring({0: 0, 1: 0}), [0, 1], p)

    def test_witness_matching_limit_spec_fails(self):
        f = constant_coloring(4)
        p = parse_pattern("3:010")
        # g(0)=1=p(0,2) and g(1)=0=p(1,2): the realizer matches the spec
        assert not fg_avoids(f, PartialColoring({0: 1, 1: 0}), [0, 1], p)

    def test_plain_avoidance_failure_propagates(self):
        f = coloring_from_function(3, lambda x, y: {(0, 1): 0, (0, 2): 1,
                                                    (1, 2): 0}[(x, y)])
        p = parse_pattern("3:010")
        assert not fg_avoids(f, PartialColoring({0: 0, 1: 0, 2: 0}),
                             [0, 1, 2], p)

    def test_repeated_vertices_count_once(self):
        f, p = constant_coloring(4), parse_pattern("3:000")
        g = PartialColoring({1: 1, 2: 1})
        assert fg_avoids(f, g, [1, 1, 2], p) == fg_avoids(f, g, [1, 2], p) is True

    def test_needs_size_two_pattern(self):
        with pytest.raises(PatternError):
            fg_avoids(constant_coloring(3), PartialColoring({}), [],
                      parse_pattern("1:"))

    def test_error_order(self):
        # the pattern's size, then the witness's domain, then the window
        f, p = constant_coloring(3), parse_pattern("3:010")
        with pytest.raises(PatternError, match="size >= 2"):
            fg_avoids(f, PartialColoring({}), [7], parse_pattern("1:"))
        with pytest.raises(PatternError, match="witness must be defined on all of X"):
            fg_avoids(f, PartialColoring({0: 0}), [0, 7], p)
        with pytest.raises(PatternError, match=r"vertices \[0, 7\] outside window \[0,3\)"):
            fg_avoids(f, PartialColoring({0: 0, 7: 1}), [7, 0, 7], p)

    def test_stabilized_equivalence_random(self):
        # with a stabilizing tail the witnessed form equals one-step extension
        rng = random.Random(0)
        runs = 0
        while runs < 300:
            window = rng.randint(4, 9)
            f0 = random_coloring(rng, window)
            split = rng.randint(1, window - 1)
            E = [x for x in range(split) if rng.random() < 0.7]
            F = [y for y in range(split, window) if rng.random() < 0.7]
            if not F:
                continue
            g = PartialColoring({x: rng.randint(0, 1) for x in range(split)})
            Es, Fs = set(E), set(F)
            f = coloring_from_function(
                window, lambda x, y: g(x) if x in Es and y in Fs else f0(x, y))
            p = random_pattern(rng, 2, 4)
            runs += 1
            lhs = fg_avoids(f, g, E, p)
            rhs = all(avoids(f, sorted(set(E) | {y}), p) for y in F)
            assert lhs == rhs


class TestStabilizingTail:
    def test_requires_e_below_x(self):
        with pytest.raises(PatternError, match="^E must lie entirely below X$"):
            find_stabilizing_tail(constant_coloring(8), [5], [3])

    def test_constant_coloring_full_tail(self):
        f = constant_coloring(8)
        tail, g = find_stabilizing_tail(f, [0, 1], range(2, 8))
        assert tail == frozenset(range(2, 8))
        assert g(0) == 0 and g(1) == 0

    def test_repeated_vertices_count_once(self):
        # f(0, 1) = 1 and f(0, 2) = f(0, 3) = 0: the 0-class is the larger
        f = coloring_from_function(4, lambda x, y: int((x, y) == (0, 1)))
        tail, g = find_stabilizing_tail(f, [0, 0], [1, 1, 1, 2, 3])
        assert tail == frozenset({2, 3}) and g == PartialColoring({0: 0})

    def test_empty_e_returns_everything(self):
        f = constant_coloring(8)
        tail, g = find_stabilizing_tail(f, [], range(3, 8))
        assert tail == frozenset(range(3, 8))
        assert g == PartialColoring({})

    def test_parity_pigeonhole(self):
        f = coloring_from_function(10, lambda x, y: y % 2 if x == 0 else 0)
        tail, g = find_stabilizing_tail(f, [0], range(1, 10))
        # even targets 2,4,6,8 tie with odd 1,3,5,7,9 losing? odds win (5 > 4)
        assert tail == frozenset({1, 3, 5, 7, 9})
        assert g(0) == 1

    def test_least_vector_tie_break(self):
        f = coloring_from_function(5, lambda x, y: y % 2 if x == 0 else 0)
        tail, g = find_stabilizing_tail(f, [0], [1, 2, 3, 4])
        # classes {1,3} and {2,4} tie; the 0-vector wins
        assert tail == frozenset({2, 4})
        assert g(0) == 0


class TestConditions:
    def test_validity(self):
        f = constant_coloring(8)
        p = parse_pattern("3:010")
        c = Condition(frozenset({0}), frozenset(range(2, 8)),
                      PartialColoring({0: 0}))
        assert is_valid_condition(f, c, p)

    def test_reservoir_above_stem_enforced(self):
        # the rule and the message force-eval's evaluators use
        with pytest.raises(PatternError, match="^stem must lie entirely below the reservoir$"):
            Condition(frozenset({3}), frozenset({2, 5}), PartialColoring({3: 0}))

    def test_witness_defined_on_the_stem(self):
        with pytest.raises(PatternError, match="^witness must be defined on the stem$"):
            Condition(frozenset({0, 1}), frozenset({3}), PartialColoring({0: 0}))

    def test_extension_needs_x_in_the_reservoir(self):
        c = Condition(frozenset(), frozenset({2, 5}), PartialColoring({}))
        with pytest.raises(PatternError, match="^3 is not in the reservoir$"):
            extend_condition(constant_coloring(8), c, 3, parse_pattern("3:010"))

    def test_extension_of_an_invalid_condition(self):
        # the stem {0, 1, 2} realizes 3:010, so no extension of it is valid
        f = coloring_from_function(12, lambda x, y: int((x, y) == (0, 2)))
        c = Condition(frozenset({0, 1, 2}), frozenset(range(3, 12)),
                      PartialColoring({0: 0, 1: 0, 2: 0}))
        with pytest.raises(PatternError, match="^extension produced an invalid condition$"):
            extend_condition(f, c, 3, parse_pattern("3:010"))

    def test_extension_moves_element(self):
        f = constant_coloring(8)
        p = parse_pattern("3:010")
        c = Condition(frozenset(), frozenset(range(8)), PartialColoring({}))
        c2 = extend_condition(f, c, 0, p)
        assert c2.stem == frozenset({0})
        assert c2.reservoir == frozenset(range(1, 8))
        assert is_valid_condition(f, c2, p)

    def test_extension_requires_divergent_irreducible(self):
        f = constant_coloring(8)
        c = Condition(frozenset(), frozenset(range(8)), PartialColoring({}))
        with pytest.raises(PatternError):
            extend_condition(f, c, 0, parse_pattern("3:000"))

    def test_extension_exhausts_window(self):
        f = constant_coloring(8)
        p = parse_pattern("3:010")
        c = Condition(frozenset(), frozenset({5}), PartialColoring({}))
        with pytest.raises(WindowExhausted):
            extend_condition(f, c, 5, p)

    def test_repeated_extension_never_realizes_pattern(self):
        p = parse_pattern("3:010")
        rng = random.Random(1)
        for _ in range(30):
            f = random_coloring(rng, 12)
            c = Condition(frozenset(), frozenset(range(12)), PartialColoring({}))
            while True:
                candidates = sorted(c.reservoir)
                if not candidates:
                    break
                try:
                    c = extend_condition(f, c, candidates[0], p)
                except WindowExhausted:
                    break
                assert avoids(f, c.stem, p)
                assert is_valid_condition(f, c, p)


class TestGreedySplit:
    def test_repeated_vertices_count_once(self):
        rng = random.Random(1)
        for _ in range(40):
            f = random_coloring(rng, 9)
            H = sorted(rng.sample(range(9), 4))
            p, q = (parse_pattern(rng.choice(["2:0", "2:1", "3:010"])) for _ in range(2))
            if find_realizer(f, H, join(p, q)) is None:
                assert greedy_avoid_join(f, H + H[:2], p, q) == greedy_avoid_join(f, H, p, q)

    def test_constant_zero_blocks_onto_q_side(self):
        f = constant_coloring(10)
        split = greedy_avoid_join(f, range(10), parse_pattern("2:0"),
                                  parse_pattern("2:1"))
        assert split.side == "q"
        assert split.elements == frozenset(range(1, 10))
        assert split.verified and not split.fallback
        assert avoids(f, split.elements, parse_pattern("2:1"))

    def test_constant_zero_p_side(self):
        f = constant_coloring(10)
        split = greedy_avoid_join(f, range(10), parse_pattern("2:1"),
                                  parse_pattern("2:0"))
        assert split.side == "p"
        assert split.elements == frozenset(range(10))
        assert avoids(f, split.elements, parse_pattern("2:1"))

    def test_rejects_window_realizing_join(self):
        f = constant_coloring(10)
        with pytest.raises(PatternError):
            greedy_avoid_join(f, range(10), parse_pattern("2:0"),
                              parse_pattern("2:0"))

    def test_random_instances_sound(self):
        rng = random.Random(2)
        p, q = parse_pattern("2:0"), parse_pattern("2:1")
        pq = join(p, q)
        runs = 0
        while runs < 100:
            f = random_coloring(rng, 12)
            H = sorted(rng.sample(range(12), rng.randint(3, 8)))
            if find_realizer(f, H, pq) is not None:
                continue
            runs += 1
            split = greedy_avoid_join(f, H, p, q)
            assert split.elements <= frozenset(H)
            target = p if split.side == "p" else q
            if split.verified:
                assert avoids(f, split.elements, target)


class TestBruteForceOracle:
    def test_constant_zero_max_sets(self):
        f = constant_coloring(5)
        assert len(max_avoiding_subset(f, range(5), parse_pattern("2:0"))) == 1
        assert max_avoiding_subset(f, range(5), parse_pattern("2:1")) \
            == frozenset(range(5))

    def test_triangle_free_bound(self):
        f = constant_coloring(6)
        got = max_avoiding_subset(f, range(6), parse_pattern("3:000"))
        assert len(got) == 2

    def test_repeated_vertices_count_once(self):
        got = max_avoiding_subset(constant_coloring(4), [2, 2, 3], parse_pattern("3:000"))
        assert got == frozenset({2, 3})

    def test_guard(self):
        with pytest.raises(PatternError, match="^avoiding-subset search capped at 20 "
                                               "vertices, got 25$"):
            max_avoiding_subset(constant_coloring(25), range(25),
                                parse_pattern("2:0"))

    def test_vertices_outside_window_rejected(self):
        f = constant_coloring(4)
        for W in ([0, 1, 4], [-1, 0, 1]):
            with pytest.raises(PatternError):
                max_avoiding_subset(f, W, parse_pattern("2:0"))

    def test_matches_greedy_verified_sides(self):
        rng = random.Random(3)
        p = parse_pattern("2:0")
        for _ in range(20):
            f = random_coloring(rng, 9)
            best = max_avoiding_subset(f, range(9), p)
            assert avoids(f, best, p)
            # maximality: no strictly larger avoiding subset exists
            assert len(best) == len(oracle.max_avoiding(f, range(9), p))


class TestTrees:
    def test_tree_must_contain_root(self):
        with pytest.raises(PatternError):
            BinaryTree(frozenset({"0"}))

    def test_tree_must_be_prefix_closed(self):
        with pytest.raises(PatternError):
            BinaryTree(frozenset({"", "01"}))

    def test_nodes_are_binary_strings(self):
        with pytest.raises(PatternError, match="^node '2' is not a binary string$"):
            BinaryTree(frozenset({"", "2"}))

    def test_leftmost_of_an_empty_level(self):
        with pytest.raises(PatternError, match="^tree has no node at level 1$"):
            BinaryTree(frozenset({""})).leftmost(1)

    def test_full_tree_shape(self):
        t = full_binary_tree(3)
        assert t.depth == 3
        assert len(t.level(3)) == 8
        assert t.leftmost(2) == "00"

    def test_all_ones_tree_coloring(self):
        nodes = {"1" * k for k in range(5)} | {""}
        t = BinaryTree(frozenset(nodes))
        f = tree_to_coloring(t, 5)
        assert all(f(x, s) == 1 for s in range(1, 5) for x in range(s))

    def test_leftmost_path_read_off(self):
        # zero chain up to depth 4, one extra 1-step at the end: the leftmost
        # level-s node is 0^s for s <= 4 and 0^4 1 at level 5
        nodes = {"0" * k for k in range(5)} | {"0" * k + "1" for k in range(5)}
        t = BinaryTree(frozenset(nodes))
        f = tree_to_coloring(t, 6)
        for s in range(1, 5):
            for x in range(s):
                assert f(x, s) == 0
        assert [f(x, 5) for x in range(5)] == [0, 0, 0, 0, 1]

    def test_depth_guard(self):
        with pytest.raises(PatternError):
            tree_to_coloring(full_binary_tree(2), 6)

    def test_homogeneous_for_tree(self):
        nodes = {"", "0", "01", "010", "0101"}
        t = BinaryTree(frozenset(nodes))
        assert homogeneous_for_tree(t, [0, 2], 4)   # 0101: positions 0,2 both 0
        assert not homogeneous_for_tree(t, [0, 1], 4)

    def test_homogeneous_depth_guard(self):
        with pytest.raises(PatternError):
            homogeneous_for_tree(full_binary_tree(2), [0], 5)


def _old_greedy_avoid_join(f, H, p, q):
    """greedy_avoid_join with its former pick loop, which rescanned the
    remaining elements after every pick and tested each extension by plain
    avoidance of chosen + [z]."""
    hs = sorted(H)
    if find_realizer(f, hs, join(p, q)) is not None:
        raise PatternError("H does not avoid the joined pattern")
    chosen, remaining = [], list(hs)
    while True:
        pick = None
        for z in remaining:
            if avoids(f, chosen + [z], p):
                pick = z
                break
        if pick is None:
            break
        chosen.append(pick)
        chosen.sort()
        remaining.remove(pick)
    if not remaining:
        return ("p", frozenset(chosen), avoids(f, chosen, p), False)
    above = [y for y in hs if y > max(chosen)] if chosen else hs
    tail, _ = find_stabilizing_tail(f, chosen, above)
    tail_elems = sorted(tail)
    if avoids(f, tail_elems, q) and len(tail_elems) >= len(chosen):
        return ("q", frozenset(tail_elems), True, False)
    return ("p", frozenset(chosen), avoids(f, chosen, p), True)


def _greedy_outcome(greedy, f, H, p, q):
    try:
        split = greedy(f, H, p, q)
    except PatternError:
        return "rejected"
    if isinstance(split, tuple):
        return split
    return (split.side, split.elements, split.verified, split.fallback)


class TestGreedyPickLoopDifferential:
    SMALL = [parse_pattern(t) for t in
             ("1:", "2:0", "2:1", "3:000", "3:010", "3:101", "3:110", "3:111")]

    def _agree(self, f, H, p, q):
        assert (_greedy_outcome(greedy_avoid_join, f, H, p, q)
                == _greedy_outcome(_old_greedy_avoid_join, f, H, p, q))

    def test_window4_exhaustive(self):
        for f in all_colorings(4):
            for r in range(1, 5):
                for H in itertools.combinations(range(4), r):
                    for p in self.SMALL:
                        for q in self.SMALL:
                            self._agree(f, H, p, q)

    def test_seeded_larger_windows(self):
        rng = random.Random(5)
        pool = [parse_pattern(t) for t in
                ("2:0", "2:1", "3:010", "3:101", "3:001", "4:010110", "4:000101")]
        for _ in range(300):
            n = rng.randint(6, 12)
            f = random_coloring(rng, n)
            H = rng.sample(range(n), rng.randint(1, n))
            self._agree(f, H, rng.choice(pool), rng.choice(pool))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_patterns(self, seed):
        # the admissibility step asks the kernel for a realizer topped by z;
        # 400 instances per seed on windows 3-12, p and q of any shape of
        # sizes 1-4, H of any size (those realizing p ⊎ q are rejected by both)
        rng = random.Random(seed)
        for _ in range(400):
            n = rng.randint(3, 12)
            f = random_coloring(rng, n)
            H = rng.sample(range(n), rng.randint(0, n))
            p, q = (Pattern(k, tuple(rng.randint(0, 1) for _ in range(k * (k - 1) // 2)))
                    for k in (rng.randint(1, 4), rng.randint(1, 4)))
            self._agree(f, H, p, q)
