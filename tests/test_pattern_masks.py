"""Patterns as (size, code) read through row masks, against a tuple-of-bits
reference written here: a pattern is (size, bits) with the pair colors in
lexicographic order, and every operation reads it one pair at a time.
Exhaustive over every pattern of size <= 5 and every join up to 4 + 4.
The code-arithmetic join and the streamed rows are also checked against
the row-based versions they replaced."""

import itertools
import random
import tracemalloc

import pytest

from patternkit.algebra import (
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

# ---------------------------------------------------------------------------
# reference: a pattern is (size, bits)


def _pair_index(i, j, l):
    # lexicographic rank of (i, j), i < j, among all pairs over [0, l)
    return i * l - i * (i + 1) // 2 + (j - i - 1)


def ref_color(r, x, y):
    l, bits = r
    x, y = min(x, y), max(x, y)
    return bits[_pair_index(x, y, l)]


def ref_from_colors(l, color):
    return l, tuple(color(i, j) for i, j in itertools.combinations(range(l), 2))


def ref_join(r, s):
    lp = r[0]

    def color(x, y):
        if y < lp:
            return ref_color(r, x, y)
        if x >= lp - 1:
            return ref_color(s, x - lp + 1, y - lp + 1)
        return ref_color(r, x, lp - 1)

    return ref_from_colors(lp + s[0] - 1, color)


def ref_restrict(r, vs):
    return ref_from_colors(len(vs), lambda a, b: ref_color(r, vs[a], vs[b]))


def ref_dual(r):
    return r[0], tuple(1 - b for b in r[1])


def ref_minus(r):
    return ref_restrict(r, range(r[0] - 1))


def ref_is_divergent(r):
    l = r[0]
    if l <= 2:
        return False
    last = [ref_color(r, x, l - 1) for x in range(l - 1)]
    return any(c != last[0] for c in last)


def ref_is_i_merging(r, i):
    l = r[0]
    for k in range(1, l - 1):
        F, G = range(k), range(k, l - 1)
        if any(ref_color(r, x, l - 1) == 1 - i for x in F):
            continue
        if any(ref_color(r, x, l - 1) == i for x in G):
            continue
        if len({ref_color(r, x, y) for x in F for y in G}) > 1:
            continue
        return False
    return True


def ref_criterion(r):
    l = r[0]
    return all(any(ref_color(r, x, y) != ref_color(r, x, z)
                   for x in range(k) for y in range(k, l) for z in range(y + 1, l))
               for k in range(1, l - 1))


def ref_irreducible(r):
    l = r[0]
    return not any(ref_join(ref_restrict(r, range(k)), ref_restrict(r, range(k - 1, l))) == r
                   for k in range(2, l))


def ref_realizes(f, xs, r):
    return all(f(xs[i], xs[j]) == ref_color(r, i, j)
               for i, j in itertools.combinations(range(r[0]), 2))


def ref_embeds(s, r, g):
    return all(ref_color(s, x, y) == ref_color(r, g[x], g[y])
               for x, y in itertools.combinations(range(s[0]), 2))


def ref_subpatterns(r, mode):
    maps = itertools.combinations if mode == "monotone" else itertools.permutations
    return {ref_restrict(r, g) for k in range(1, r[0] + 1) for g in maps(range(r[0]), k)}


def refs(max_size):
    for l in range(1, max_size + 1):
        for bits in itertools.product((0, 1), repeat=l * (l - 1) // 2):
            yield l, bits


def pat(r):
    return Pattern(*r)


REFS = list(refs(5))

# ---------------------------------------------------------------------------
# the representation


def test_color_bits_and_rows():
    for r in REFS:
        p = pat(r)
        assert p.bits == r[1] and len(p) == r[0]
        for x, y in itertools.permutations(range(r[0]), 2):
            assert p(x, y) == ref_color(r, x, y)
        assert p.rows == tuple(sum(ref_color(r, x, y) << y for y in range(r[0]) if y != x)
                               for x in range(r[0]))


def pair_rows(size, code):
    # the rows one pair at a time, first pair the top code bit
    rows = [0] * size
    k = size * (size - 1) // 2
    for x, y in itertools.combinations(range(size), 2):
        k -= 1
        if code >> k & 1:
            rows[x] |= 1 << y
            rows[y] |= 1 << x
    return tuple(rows)


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
    ps = [pat(r) for r in REFS]
    assert len(set(ps)) == len(REFS)
    assert all(p == pat(r) and hash(p) == hash(pat(r)) for p, r in zip(ps, REFS))
    assert Pattern(3, (0, 1, 0)) != Pattern(3, (0, 1, 1))
    assert Pattern(1, ()) != Pattern(2, (0,))
    shuffled = ps[:]
    random.Random(0).shuffle(shuffled)
    assert ([p.bits for p in sorted(shuffled, key=lambda p: (p.size, p.code))]
            == [r[1] for r in sorted(REFS)])


def test_enumeration_matches_bit_order():
    for l in range(1, 6):
        assert [p.bits for p in enumerate_patterns(l)] == [r[1] for r in refs(l) if r[0] == l]


def test_index_round_trip():
    ranked = [r for r in refs(6) if r[0] >= 2]
    for idx in range(1 << 12):
        p = index_pattern(idx)
        assert (p.size, p.bits) == ranked[idx]
        assert pattern_index(p) == idx


def test_pattern_is_two_slots():
    p = Pattern(3, (0, 1, 1))
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.code = 0


# ---------------------------------------------------------------------------
# the algebra


def test_join_every_pair_up_to_4_plus_4():
    small = [r for r in REFS if r[0] <= 4]
    for r, s in itertools.product(small, repeat=2):
        assert join(pat(r), pat(s)) == pat(ref_join(r, s)), (r, s)


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
    left = [pat(r) for r in REFS]
    right = [p for p in left if p.size <= 4]
    for p, q in itertools.product(left, right):
        assert join(p, q) == rows_join(p, q), (p, q)


def test_join_against_rows_join_seeded_up_to_12():
    rng = random.Random(12)
    for _ in range(3_000):
        p, q = (_coded(n, rng.getrandbits(n * (n - 1) // 2))
                for n in (rng.randint(1, 12), rng.randint(1, 12)))
        assert join(p, q) == rows_join(p, q), (p, q)


def test_restrict_dual_minus():
    for r in REFS:
        p = pat(r)
        assert dual(p) == pat(ref_dual(r))
        if r[0] >= 2:
            assert minus(p) == pat(ref_minus(r))
        for k in range(1, r[0] + 1):
            for vs in itertools.combinations(range(r[0]), k):
                assert restrict(p, vs) == pat(ref_restrict(r, vs))


def test_predicates():
    for r in REFS:
        p = pat(r)
        assert is_divergent(p) == ref_is_divergent(r)
        assert is_i_merging(p, 0) == ref_is_i_merging(r, 0)
        assert is_i_merging(p, 1) == ref_is_i_merging(r, 1)
        assert is_irreducible(p) == ref_criterion(r)
        assert (not decompositions(p)) == ref_irreducible(r)
        fl = classify(p)
        assert (fl.divergent, fl.irreducible, fl.merging0, fl.merging1) == (
            ref_is_divergent(r), ref_irreducible(r),
            ref_is_i_merging(r, 0), ref_is_i_merging(r, 1))
        for left, right in decompositions(p):
            assert ref_join((left.size, left.bits), (right.size, right.bits)) == r


@pytest.mark.parametrize("mode", ["monotone", "injective"])
def test_subpatterns(mode):
    for r in REFS:
        assert {(q.size, q.bits) for q in subpatterns(pat(r), mode)} == ref_subpatterns(r, mode)


@pytest.mark.parametrize("mode", ["monotone", "injective"])
def test_embeddings(mode):
    maps = itertools.combinations if mode == "monotone" else itertools.permutations
    hosts = [r for r in REFS if r[0] <= 4]
    for s in (r for r in REFS if r[0] <= 3):
        for r in hosts:
            want = [g for g in maps(range(r[0]), s[0]) if ref_embeds(s, r, g)]
            assert [e.map for e in embeddings(pat(s), pat(r), mode)] == want


def test_realizes():
    rng = random.Random(7)
    colorings = [coloring_from_function(7, lambda x, y: rng.randint(0, 1)) for _ in range(4)]
    for r in REFS:
        p = pat(r)
        for f in colorings:
            for xs in itertools.combinations(range(7), r[0]):
                assert realizes(f, xs, p) == ref_realizes(f, xs, r)
