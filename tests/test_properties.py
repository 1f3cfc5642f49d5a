"""Property-based checks of the algebraic laws, driven by hypothesis."""

from hypothesis import given, settings, strategies as st

# kernel warm-up on first call can blow hypothesis' per-example deadline
settings.register_profile("patternkit", deadline=None)
settings.load_profile("patternkit")

from patternkit.core import (
    Pattern,
    avoids,
    coloring_from_function,
    dual,
    find_realizer,
    flip,
    format_pattern,
    parse_pattern,
    realizes,
    restrict,
)
from patternkit.algebra import (
    decompositions,
    is_divergent,
    is_irreducible,
    join,
)


@st.composite
def patterns(draw, min_size=1, max_size=6):
    size = draw(st.integers(min_size, max_size))
    npairs = size * (size - 1) // 2
    bits = draw(st.tuples(*[st.integers(0, 1)] * npairs))
    return Pattern(size, bits)


@st.composite
def colorings(draw, min_window=2, max_window=9):
    window = draw(st.integers(min_window, max_window))
    bits = draw(st.tuples(*[st.integers(0, 1)] * (window * (window - 1) // 2)))
    it = iter(bits)
    return coloring_from_function(window, lambda x, y: next(it))


@given(patterns())
def test_text_round_trip(p):
    assert parse_pattern(format_pattern(p)) == p


@given(patterns())
def test_dual_involution(p):
    assert dual(dual(p)) == p


@given(patterns(max_size=5), patterns(max_size=5), patterns(max_size=5))
@settings(max_examples=300)
def test_join_associative(a, b, c):
    assert join(join(a, b), c) == join(a, join(b, c))


@given(patterns(max_size=5), patterns(max_size=5))
def test_join_size_and_divergence(p, q):
    r = join(p, q)
    assert r.size == p.size + q.size - 1
    if is_divergent(p) or is_divergent(q):
        assert is_divergent(r)


@given(patterns(min_size=2, max_size=6))
def test_decompositions_rejoin_and_match_irreducibility(p):
    ds = decompositions(p)
    for left, right in ds:
        assert join(left, right) == p
    assert is_irreducible(p) == (not ds)


@given(patterns(min_size=2, max_size=6), st.data())
def test_restrict_composes(p, data):
    outer = sorted(data.draw(st.sets(st.integers(0, p.size - 1), min_size=1)))
    q = restrict(p, outer)
    inner = sorted(data.draw(st.sets(st.integers(0, len(outer) - 1), min_size=1)))
    assert restrict(q, inner) == restrict(p, [outer[i] for i in inner])


@given(colorings(), patterns(min_size=2, max_size=4), st.data())
def test_avoidance_duality(f, p, data):
    H = sorted(data.draw(st.sets(st.integers(0, f.window - 1))))
    assert avoids(f, H, p) == avoids(flip(f), H, dual(p))


@given(colorings(), patterns(min_size=2, max_size=3), st.data())
def test_realizer_witnesses_appearance(f, p, data):
    H = sorted(data.draw(st.sets(st.integers(0, f.window - 1))))
    hit = find_realizer(f, H, p)
    if hit is None:
        assert avoids(f, H, p)
    else:
        assert set(hit) <= set(H)
        assert realizes(f, sorted(hit), p)
