"""Patterns as (size, code) read through row masks, against the definitions
in `patternkit.oracle`, which read a pattern one pair colour at a time.
Exhaustive over every pattern of size <= 5 and every join up to 4 + 4.
The code-arithmetic join and the streamed rows are also checked against
the row-based versions they replaced."""

import itertools
import random
import tracemalloc

import pytest

from patternkit import oracle
from patternkit.algebra import (
    _irreducible,
    classify,
    decompositions,
    is_divergent,
    is_i_merging,
    is_irreducible,
    join,
)
from patternkit._kernels import (
    _SLICED_MAX_SIZE,
    _pattern_matrix,
    _rows_by_code,
    _slice_tables,
)
from patternkit.classifier import enumerate_patterns, subpatterns
from patternkit.constructions import index_pattern, pattern_index
from patternkit.core import (
    Pattern,
    _coded,
    _gather,
    coloring_from_function,
    dual,
    embeddings,
    minus,
    realizes,
    restrict,
)
from conftest import all_patterns, biased_pattern

PATTERNS = [p for size in range(1, 6) for p in all_patterns(size)]

# ---------------------------------------------------------------------------
# the representation


def test_color_bits_and_rows():
    for l in range(1, 6):
        for bits in itertools.product((0, 1), repeat=l * (l - 1) // 2):
            p = Pattern(l, bits)
            assert p.bits == bits and len(p) == l
            c = oracle.colour(p)
            for x, y in itertools.permutations(range(l), 2):
                assert p(x, y) == c(x, y)
            assert p.rows == oracle.rows(c, l)


def pair_rows(size, code):
    # the rows one pair at a time, from the code's bits
    return oracle.rows(oracle.colour(_coded(size, code)), size)


@pytest.mark.parametrize("size", range(1, 7))
def test_slice_table_rows_every_code(size):
    for code in range(1 << size * (size - 1) // 2):
        assert _pattern_matrix.__wrapped__(size, code) == pair_rows(size, code)


@pytest.mark.parametrize("size", [*range(7, 13), 30, _SLICED_MAX_SIZE, _SLICED_MAX_SIZE + 1])
def test_slice_table_rows_seeded_codes(size):
    rng = random.Random(size)
    n = size * (size - 1) // 2
    for code in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(300))):
        assert _pattern_matrix.__wrapped__(size, code) == pair_rows(size, code)


@pytest.mark.parametrize("size", range(1, 7))
def test_rows_by_code_every_code(size):
    streamed = list(_rows_by_code(size))
    assert len(streamed) == 1 << size * (size - 1) // 2
    for code, rows in enumerate(streamed):
        assert rows == _pattern_matrix.__wrapped__(size, code)


@pytest.mark.parametrize("size", range(1, 7))
def test_rows_by_code_pair_by_pair(size):
    # the byte-stride unpack against the rows built one pair at a time
    for code, rows in enumerate(_rows_by_code(size)):
        assert rows == pair_rows(size, code)
    assert code == (1 << size * (size - 1) // 2) - 1


def test_rows_by_code_seeded_codes_size_7():
    rng = random.Random(7)
    sample = {0, (1 << 21) - 1, *(rng.getrandbits(21) for _ in range(2000))}
    for code, rows in enumerate(_rows_by_code(7)):
        if code in sample:
            assert rows == _pattern_matrix.__wrapped__(7, code)
    assert code == (1 << 21) - 1


def test_rows_by_code_streams_size_8():
    # 2^28 codes: the stream holds one block of packed rows, not the size
    _slice_tables.cache_clear()  # count the tables too
    tracemalloc.start()
    try:
        # past the first block of 4,096 codes, keeping no rows
        same = all(rows == _pattern_matrix.__wrapped__(8, code)
                   for code, rows in zip(range(5_000), _rows_by_code(8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same and peak < 1 << 20


def test_rows_by_code_refuses_size_9():
    # the stream unpacks byte-stride rows only; size 9 would be 2^36 codes
    with pytest.raises(ValueError, match="up to size 8, got 9"):
        next(_rows_by_code(9))


def test_equality_hash_and_order():
    ps = PATTERNS
    assert len(set(ps)) == len(ps)
    assert all(p == (q := Pattern(p.size, p.bits)) and hash(p) == hash(q) for p in ps)
    assert Pattern(3, (0, 1, 0)) != Pattern(3, (0, 1, 1))
    assert Pattern(1, ()) != Pattern(2, (0,))
    shuffled = ps[:]
    random.Random(0).shuffle(shuffled)
    assert ([(p.size, p.bits) for p in sorted(shuffled, key=lambda p: (p.size, p.code))]
            == sorted((p.size, p.bits) for p in ps))


def test_enumeration_matches_bit_order():
    for l in range(1, 6):
        assert [p.bits for p in enumerate_patterns(l)] == [p.bits for p in all_patterns(l)]


def test_index_round_trip():
    ranked = [p for size in range(2, 7) for p in all_patterns(size)]
    for idx in range(1 << 12):
        p = index_pattern(idx)
        assert (p.size, p.bits) == (ranked[idx].size, ranked[idx].bits)
        assert pattern_index(p) == idx


def test_pattern_is_two_slots():
    p = Pattern(3, (0, 1, 1))
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.code = 0


# ---------------------------------------------------------------------------
# the algebra


def test_join_every_pair_up_to_4_plus_4():
    small = [p for p in PATTERNS if p.size <= 4]
    for p, q in itertools.product(small, repeat=2):
        assert join(p, q) == oracle.join(p, q), (p, q)


def rows_join(p, q):
    # the join from row masks, one pair at a time, as the package built it
    # before joining codes directly
    seam, size = p.size - 1, p.size + q.size - 1
    cross = (1 << size) - (2 << seam)
    last = p.rows[seam]
    rows = [r | cross if r >> seam & 1 else r for r in p.rows[:seam]]
    rows += [r << seam | last for r in q.rows]
    return _coded(size, _gather(rows, range(size)))


def test_join_against_rows_join_up_to_5_plus_4():
    left = PATTERNS
    right = [p for p in left if p.size <= 4]
    for p, q in itertools.product(left, right):
        assert join(p, q) == rows_join(p, q), (p, q)


def test_join_against_rows_join_seeded_up_to_12():
    rng = random.Random(12)
    for _ in range(3_000):
        p, q = (_coded(n, rng.getrandbits(n * (n - 1) // 2))
                for n in (rng.randint(1, 12), rng.randint(1, 12)))
        assert join(p, q) == rows_join(p, q), (p, q)


def split_by_split_irreducible(rows):
    # the split criterion one split at a time, as the package tested it
    # before it took every split from one pass over the rows
    size = len(rows)
    for k in range(1, size - 1):
        G = (1 << size) - (1 << k)
        if all(r & G in (0, G) for r in rows[:k]):
            return False
    return True


@pytest.mark.parametrize("size", range(1, 7))
def test_irreducible_against_split_by_split_every_code(size):
    for code, rows in enumerate(_rows_by_code(size)):
        assert _irreducible(rows) == split_by_split_irreducible(rows), (size, code)


def test_irreducible_against_split_by_split_seeded_sizes_7_to_12():
    # biased draws, so that joins (reducible) and dense or sparse codes occur
    rng, seen = random.Random(712), []
    for _ in range(10_000):
        p = biased_pattern(rng, rng.randint(7, 12))
        seen.append(_irreducible(p.rows))
        assert seen[-1] == split_by_split_irreducible(p.rows), p
    assert 2_000 < sum(seen) < 8_000


def test_restrict_dual_minus():
    for p in PATTERNS:
        assert dual(p) == oracle.dual(p)
        if p.size >= 2:
            assert minus(p) == oracle.minus(p)
        for k in range(1, p.size + 1):
            for vs in itertools.combinations(range(p.size), k):
                assert restrict(p, vs) == oracle.restrict(p, vs)


def test_predicates():
    for p in PATTERNS:
        assert is_divergent(p) == oracle.is_divergent(p)
        assert is_i_merging(p, 0) == oracle.is_i_merging(p, 0)
        assert is_i_merging(p, 1) == oracle.is_i_merging(p, 1)
        assert is_irreducible(p) == oracle.split_criterion(p)
        assert (not decompositions(p)) == oracle.is_irreducible(p)
        assert classify(p) == (oracle.is_divergent(p), oracle.is_irreducible(p),
                               oracle.is_i_merging(p, 0), oracle.is_i_merging(p, 1))
        for left, right in decompositions(p):
            assert oracle.join(left, right) == p


@pytest.mark.parametrize("mode", ["monotone", "injective"])
def test_subpatterns(mode):
    for p in PATTERNS:
        assert subpatterns(p, mode) == oracle.subpatterns(p, mode)


@pytest.mark.parametrize("mode", ["monotone", "injective"])
def test_embeddings(mode):
    maps = itertools.combinations if mode == "monotone" else itertools.permutations
    hosts = [p for p in PATTERNS if p.size <= 4]
    for q in (p for p in PATTERNS if p.size <= 3):
        for p in hosts:
            # an embedding of q is a realization of q in p's colours
            c = oracle.colour(p)
            want = [g for g in maps(range(p.size), q.size) if oracle.realizes(c, g, q)]
            assert [e.map for e in embeddings(q, p, mode)] == want


def test_realizes():
    rng = random.Random(7)
    colorings = [coloring_from_function(7, lambda x, y: rng.randint(0, 1)) for _ in range(4)]
    for p in PATTERNS:
        for f in colorings:
            for xs in itertools.combinations(range(7), p.size):
                assert realizes(f, xs, p) == oracle.realizes(f, xs, p)
