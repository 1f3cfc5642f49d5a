import random

import pytest

from patternkit import oracle
from patternkit.core import (
    Embedding,
    FiniteColoring,
    PartialColoring,
    Pattern,
    PatternError,
    StableColoring,
    avoids,
    coloring_from_function,
    constant_coloring,
    dual,
    embeddings,
    find_realizer,
    flip,
    format_pattern,
    integer,
    is_subpattern,
    minus,
    parse_pattern,
    realizes,
    restrict,
    strongly_appears,
    strongly_realizes,
)
from conftest import random_coloring, random_pattern


class TestInteger:
    @pytest.mark.parametrize("text, value", [("0", 0), ("-0", 0), ("007", 7), ("-12", -12),
                                             ("9" * 30, 10 ** 30 - 1)])
    def test_reads_optional_minus_and_ascii_digits(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize("text", ["", "-", "--1", "+1", "1_0", " 1", "1 ", "1.0",
                                      "\uff11", "\u0663", "\u00b2", "1" * 5000])
    def test_rejects_everything_else(self, text):
        with pytest.raises(PatternError, match="^stage count must be an integer, got "):
            integer(text, "stage count")

    def test_negative_pattern_size_is_a_range_error(self):
        with pytest.raises(PatternError, match="^pattern size must be >= 1, got -3$"):
            parse_pattern("-3:")


class TestPatternText:
    def test_parse_named_pattern(self):
        p = parse_pattern("3:010")
        assert (p(0, 1), p(0, 2), p(1, 2)) == (0, 1, 0)

    def test_parse_singleton(self):
        assert parse_pattern("1:") == Pattern(1, ())

    def test_parse_bit_count_mismatch(self):
        with pytest.raises(PatternError):
            parse_pattern("3:0100")

    def test_parse_rejects_size_zero(self):
        with pytest.raises(PatternError):
            parse_pattern("0:")

    def test_parse_rejects_non_bits(self):
        with pytest.raises(PatternError):
            parse_pattern("3:01x")

    def test_format_named_pattern(self):
        assert format_pattern(Pattern(3, (0, 1, 0))) == "3:010"

    def test_format_singleton(self):
        assert format_pattern(Pattern(1, ())) == "1:"

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(200):
            p = random_pattern(rng, 1, 6)
            assert parse_pattern(format_pattern(p)) == p

    def test_pattern_symmetric_lookup(self):
        p = parse_pattern("3:010")
        assert p(2, 0) == p(0, 2) == 1

    def test_pattern_rejects_diagonal(self):
        with pytest.raises(PatternError):
            parse_pattern("3:010")(1, 1)


class TestPatternOps:
    def test_dual_of_named_pattern(self):
        assert dual(parse_pattern("3:010")) == parse_pattern("3:101")

    def test_dual_involution(self):
        rng = random.Random(2)
        for _ in range(50):
            p = random_pattern(rng, 1, 6)
            assert dual(dual(p)) == p

    def test_dual_pair(self):
        assert dual(parse_pattern("2:0")) == parse_pattern("2:1")

    def test_minus_drops_last_vertex(self):
        assert minus(parse_pattern("3:010")) == parse_pattern("2:0")
        assert minus(parse_pattern("2:1")) == parse_pattern("1:")

    def test_minus_of_reducible_pattern(self):
        assert minus(parse_pattern("4:000101")) == parse_pattern("3:001")

    def test_minus_rejects_singleton(self):
        with pytest.raises(PatternError):
            minus(parse_pattern("1:"))

    def test_restrict_prefix(self):
        assert restrict(parse_pattern("4:000101"), [0, 1, 2]) == parse_pattern("3:001")

    def test_restrict_identity(self):
        p = parse_pattern("4:000101")
        assert restrict(p, range(4)) == p

    def test_restrict_singleton(self):
        assert restrict(parse_pattern("4:000101"), [2]) == parse_pattern("1:")

    def test_restrict_rejects_duplicates(self):
        with pytest.raises(PatternError):
            restrict(parse_pattern("3:010"), [0, 0])

    def test_restrict_rejects_out_of_range(self):
        with pytest.raises(PatternError):
            restrict(parse_pattern("3:010"), [1, 3])

    def test_restrict_rejects_no_vertices(self):
        with pytest.raises(PatternError, match="cannot restrict to the empty vertex set"):
            restrict(parse_pattern("3:010"), [])

    def test_colour_of_a_pair_outside(self):
        with pytest.raises(PatternError, match=r"pair \(0,3\) outside pattern of size 3"):
            parse_pattern("3:010")(0, 3)


class TestRealization:
    def test_realizes_fig_coloring(self, fig_coloring):
        assert realizes(fig_coloring, {0, 1, 2}, parse_pattern("3:010"))

    def test_constant_zero_does_not_realize(self):
        f = constant_coloring(3)
        assert not realizes(f, {0, 1, 2}, parse_pattern("3:010"))

    def test_singleton_always_realizes(self):
        f = constant_coloring(4)
        assert realizes(f, {2}, parse_pattern("1:"))

    def test_realizes_arity_error(self):
        with pytest.raises(PatternError):
            realizes(constant_coloring(4), {0, 1}, parse_pattern("3:010"))

    def test_avoids_absent_color(self):
        assert avoids(constant_coloring(5), range(5), parse_pattern("2:1"))

    def test_avoids_present_color(self):
        assert not avoids(constant_coloring(5), {0, 1}, parse_pattern("2:0"))

    def test_avoids_fig_pattern(self, fig_coloring):
        assert not avoids(fig_coloring, {0, 1, 2}, parse_pattern("3:010"))

    def test_nonempty_never_avoids_singleton_pattern(self):
        f = constant_coloring(4)
        assert not avoids(f, {3}, parse_pattern("1:"))
        assert avoids(f, set(), parse_pattern("1:"))

    def test_repeated_vertices_count_once(self):
        # a repeated vertex is one vertex, never a degenerate pair (x, x)
        f, p = constant_coloring(4), parse_pattern("2:0")
        assert avoids(f, [1, 1], p)
        assert find_realizer(f, [1, 1, 2], p) == frozenset({1, 2})
        with pytest.raises(PatternError):
            realizes(f, [1, 1], p)

    def test_find_realizer_least_pair(self):
        assert find_realizer(constant_coloring(4), range(4),
                             parse_pattern("2:0")) == frozenset({0, 1})

    def test_find_realizer_absent(self):
        assert find_realizer(constant_coloring(4), range(4),
                             parse_pattern("2:1")) is None

    def test_find_realizer_fig(self, fig_coloring):
        assert find_realizer(fig_coloring, {0, 1, 2},
                             parse_pattern("3:010")) == frozenset({0, 1, 2})

    def test_find_realizer_matches_avoids_exhaustively(self):
        rng = random.Random(3)
        for _ in range(30):
            window = rng.randint(2, 7)
            f = random_coloring(rng, window)
            p = random_pattern(rng, 2, 3)
            H = [x for x in range(window) if rng.random() < 0.8]
            brute = bool(oracle.realizers(f, H, p))
            assert (find_realizer(f, H, p) is not None) == brute
            assert avoids(f, H, p) == (not brute)

    def test_find_realizer_is_lex_least(self):
        rng = random.Random(4)
        for _ in range(30):
            f = random_coloring(rng, 8)
            p = Pattern(3, tuple(rng.randint(0, 1) for _ in range(3)))
            hits = oracle.realizers(f, range(8), p)
            got = find_realizer(f, range(8), p)
            if hits:
                assert got == frozenset(min(hits))
            else:
                assert got is None


class TestEmbeddings:
    def test_monotone_pair_embeddings(self):
        maps = {e.map for e in embeddings(parse_pattern("2:0"),
                                          parse_pattern("3:010"), "monotone")}
        assert maps == {(0, 1), (1, 2)}

    def test_identity_embedding_present(self):
        p = parse_pattern("3:010")
        for mode in ("injective", "monotone"):
            assert (0, 1, 2) in {e.map for e in embeddings(p, p, mode)}

    def test_no_embedding_without_color(self):
        assert embeddings(parse_pattern("2:1"), parse_pattern("3:000")) == []

    def test_subpattern_of_join(self):
        from patternkit.algebra import join
        hem = join(parse_pattern("3:010"), parse_pattern("3:101"))
        assert is_subpattern(parse_pattern("3:010"), hem)

    def test_singleton_subpattern_of_everything(self):
        assert is_subpattern(parse_pattern("1:"), parse_pattern("3:000"))

    def test_subpattern_negative(self):
        assert not is_subpattern(parse_pattern("2:1"), parse_pattern("3:000"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(PatternError):
            is_subpattern(parse_pattern("2:0"), parse_pattern("3:000"), "sideways")

    def test_repeated_entries_rejected(self):
        with pytest.raises(PatternError, match="embedding entries must be pairwise distinct"):
            Embedding((0, 2, 0))


class TestStableColorings:
    def _stable_instance(self):
        # {0,1} realizes the truncation of "3:010" (one 0-colored pair) and
        # the declared limits match the last column (1, 0)
        base = constant_coloring(3)
        return StableColoring(base, (1, 0, 0))

    def test_strongly_realizes_positive(self):
        sc = self._stable_instance()
        assert strongly_realizes(sc, {0, 1}, parse_pattern("3:010"))

    def test_strongly_realizes_wrong_limits(self):
        sc = StableColoring(constant_coloring(3), (0, 0, 0))
        assert not strongly_realizes(sc, {0, 1}, parse_pattern("3:010"))

    def test_strongly_realizes_single_limit(self):
        sc = StableColoring(constant_coloring(2), (1, 1))
        assert strongly_realizes(sc, {0}, parse_pattern("2:1"))
        sc0 = StableColoring(constant_coloring(2), (0, 0))
        assert not strongly_realizes(sc0, {0}, parse_pattern("2:1"))

    def test_strongly_realizes_counts_repeated_vertices_once(self):
        sc = StableColoring(constant_coloring(4), (0,) * 4)
        p = parse_pattern("3:000")
        with pytest.raises(PatternError, match="strong realization needs 2 vertices, got 1"):
            strongly_realizes(sc, [0, 0], p)
        assert strongly_realizes(sc, [0, 1, 1, 0], p)

    def test_strongly_realizes_needs_size_2(self):
        sc = StableColoring(constant_coloring(2), (0, 0))
        with pytest.raises(PatternError, match="strong realization needs a pattern of size >= 2"):
            strongly_realizes(sc, set(), parse_pattern("1:"))

    def test_strongly_realizes_needs_truncation_realized(self):
        # the limits (1, 0) match the last column of "3:110", but its
        # truncation "2:1" is absent from a 0-coloring
        sc = StableColoring(constant_coloring(3), (1, 0, 0))
        assert not strongly_realizes(sc, {0, 1}, parse_pattern("3:110"))
        assert strongly_realizes(sc, {0, 1}, parse_pattern("3:010"))

    def test_strongly_appears(self):
        sc = self._stable_instance()
        assert strongly_appears(sc, {0, 1, 2}, parse_pattern("3:010"))
        assert not strongly_appears(sc, set(), parse_pattern("3:010"))

    def test_strongly_appears_counts_repeated_vertices_once(self):
        sc = StableColoring(constant_coloring(4), (0,) * 4)
        assert not strongly_appears(sc, [1, 1], parse_pattern("3:000"))
        assert strongly_appears(sc, [1, 1, 2], parse_pattern("3:000"))

    def test_strongly_appears_needs_size_2(self):
        sc = StableColoring(constant_coloring(2), (0, 0))
        with pytest.raises(PatternError, match="strong appearance needs a pattern of size >= 2"):
            strongly_appears(sc, {0, 1}, parse_pattern("1:"))

    def test_strongly_appears_needs_truncation_realizer(self):
        sc = StableColoring(constant_coloring(3), (1, 0, 0))
        # truncation of "3:110" is "2:1", absent from a 0-coloring
        assert not strongly_appears(sc, {0, 1, 2}, parse_pattern("3:110"))

    def test_strong_appearance_transfers_to_plain(self):
        # a vertex above the witness whose colors match the limits turns
        # strong appearance into plain appearance
        values = {(0, 1): 0, (0, 2): 1, (1, 2): 0}
        f = coloring_from_function(3, lambda x, y: values[(x, y)])
        sc = StableColoring(f, (1, 0, 0))
        p = parse_pattern("3:010")
        assert strongly_appears(sc, {0, 1, 2}, p)
        assert not avoids(sc.base, {0, 1, 2}, p)

    def test_limit_classes(self):
        sc = StableColoring(constant_coloring(4), (1, 0, 1, 0))
        assert sc.limit_class(1) == [0, 2]
        assert sc.limit_class(0) == [1, 3]

    def test_limit_length_checked(self):
        with pytest.raises(PatternError):
            StableColoring(constant_coloring(3), (0, 1))

    def test_limit_values_checked(self):
        with pytest.raises(PatternError, match="limits must be 0 or 1"):
            StableColoring(constant_coloring(3), (0, 1, 2))

    def test_witness_colours_checked(self):
        with pytest.raises(PatternError, match="witness colors must be 0 or 1"):
            PartialColoring({0: 1, 3: 2})


class TestColorings:
    def test_matrix_must_be_symmetric(self):
        # f(0, 1) = 1 in row 0 but 0 in row 1
        with pytest.raises(PatternError):
            FiniteColoring(3, (0b010, 0, 0))

    @pytest.mark.parametrize("seed", range(3))
    def test_every_planted_asymmetric_pair_rejected(self, seed):
        # the check compares each unordered pair once, from the lower
        # triangle: a colour set in either row of the pair alone must raise
        rng, w = random.Random(seed), 23
        f = coloring_from_function(w, lambda x, y: rng.getrandbits(1))
        pairs = [(0, w - 1), (w - 2, w - 1), (0, 1)]
        pairs += [tuple(rng.sample(range(w), 2)) for _ in range(20)]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                rows = list(f.rows)
                rows[a] ^= 1 << b
                with pytest.raises(PatternError, match="pair colors must be symmetric"):
                    FiniteColoring(w, tuple(rows))
        assert FiniteColoring(w, f.rows) == f

    def test_colors_must_be_0_or_1(self):
        with pytest.raises(PatternError):
            coloring_from_function(4, lambda x, y: 2)
        with pytest.raises(PatternError):
            FiniteColoring(2, (0b110, 0b001))  # a bit past the window
        with pytest.raises(PatternError):
            constant_coloring(3, 2)

    def test_call_rejects_vertices_outside_window(self):
        f = coloring_from_function(4, lambda x, y: int(y == 3))
        assert f(3, 2) == 1
        for x, y in ((-1, 2), (2, -1), (1, 4), (4, 0)):
            with pytest.raises(PatternError):
                f(x, y)

    def test_flip_inverts_edges(self):
        f = constant_coloring(4, 0)
        g = flip(f)
        assert all(g(x, y) == 1 for x in range(4) for y in range(4) if x != y)

    def test_duality_of_avoidance(self):
        rng = random.Random(5)
        for _ in range(100):
            window = rng.randint(3, 8)
            f = random_coloring(rng, window)
            p = random_pattern(rng, 2, 4)
            H = [x for x in range(window) if rng.random() < 0.7]
            assert avoids(f, H, p) == avoids(flip(f), H, dual(p))

    def test_monotone_subpattern_avoidance_transfer(self):
        rng = random.Random(6)
        checked = 0
        while checked < 50:
            window = rng.randint(3, 8)
            f = random_coloring(rng, window)
            p = Pattern(3, tuple(rng.randint(0, 1) for _ in range(3)))
            q = restrict(p, sorted(rng.sample(range(3), 2)))
            H = [x for x in range(window) if rng.random() < 0.7]
            if not avoids(f, H, q):
                continue
            checked += 1
            assert avoids(f, H, p)

    def test_partial_coloring(self):
        g = PartialColoring({0: 1, 3: 0})
        assert g(0) == 1 and 3 in g and 1 not in g
        assert g.defined_on([0, 3]) and not g.defined_on([0, 1])
        g2 = g.extended(1, 1)
        assert g2(1) == 1 and 1 not in g
        with pytest.raises(PatternError):
            g(2)
