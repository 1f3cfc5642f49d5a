import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import patternkit.constructions as constructions
from patternkit import _kernels
from patternkit.core import (
    FiniteColoring,
    PatternError,
    _coded,
    constant_coloring,
    find_realizer,
    minus,
    parse_pattern,
    realizes,
    restrict,
)
from patternkit.constructions import (
    ApproxOracle,
    BiArrayFunctional,
    ConstructionTrace,
    PrefixFunctional,
    TraceEvent,
    age,
    build_dnc_coloring,
    build_measure_coloring,
    build_stable_2dim_coloring,
    cantor_pair,
    cantor_unpair,
    cover_measure,
    h_bound,
    index_pattern,
    joint_meeting_measure,
    oldest_blocks,
    pattern_index,
    prefix_free_cover,
    requires_attention_measure,
    verify_trace,
)
from patternkit.io import parse_approx_oracle, parse_biarray_oracle, parse_measure_oracle
from conftest import random_coloring, random_pattern


def builder_digest(f, trace) -> tuple[int, str]:
    """Event count and sha256 of a builder's output: the coloring's 0/1
    bytes row by row, the limit colors of a stable coloring, every event and
    the final state."""
    base = getattr(f, "base", f)
    h = hashlib.sha256(bytes(r >> y & 1 for r in base.rows for y in range(base.window)))
    h.update(bytes(getattr(f, "limit", ())))
    for ev in trace.events:
        h.update(repr((ev.stage, ev.kind, ev.requirement, ev.detail)).encode())
    h.update(repr(trace.final).encode())
    return len(trace.events), h.hexdigest()


def overlapping_biarrays(seed: int) -> list[BiArrayFunctional]:
    """Three bi-array functionals whose sets are drawn from a small pool, so
    that requirements of different priority contend for the same elements."""
    rng = random.Random(seed)
    bs = []
    for _ in range(3):
        primary = tuple((n, rng.randrange(40),
                         frozenset(rng.sample(range(n + 1, 24), rng.randint(1, 3))))
                        for n in range(2))
        secondary = tuple((n, m, rng.randrange(60),
                           frozenset(rng.sample(range(m + 1, 36), rng.randint(1, 2))))
                          for n in range(2) for m in sorted(rng.sample(range(24), 3)))
        bs.append(BiArrayFunctional(primary, secondary))
    return bs


def joint_measure_by_walk(fn, s, target_sets) -> Fraction:
    """The recursive walk joint_meeting_measure replaced, kept as its oracle:
    split the binary strings down to the longest qualifying prefix and add up
    the cylinders that lie inside every target set's union."""
    quals = [fn.qualifying_prefixes(s, t) for t in target_sets]
    if any(not q for q in quals):
        return Fraction(0)
    maxlen = max(len(tau) for q in quals for tau in q)

    def walk(sigma: str) -> Fraction:
        if all(any(sigma.startswith(tau) for tau in q) for q in quals):
            return Fraction(1)
        if len(sigma) >= maxlen:
            return Fraction(0)
        return (walk(sigma + "0") + walk(sigma + "1")) / 2

    return walk("")


def p1_by_selections(trace, f) -> bool:
    """The product loop _check_p1 replaced, kept as its oracle: every
    selection of one element per stacked interval realizes the restriction
    of the pattern to the state's length."""
    for j, p in enumerate(trace.aux["patterns"]):
        state = trace.final["states"][f"R[{j}]"]
        if len(state) < 2:
            continue
        pt = restrict(p, range(len(state)))
        if not all(realizes(f, sel, pt) for sel in itertools.product(*state)):
            return False
    return True


def oldest_blocks_rebuilt(ages, p, rows, count):
    """oldest_blocks as it was before each age threshold's candidates grew
    from the previous threshold's, kept as its oracle: every threshold
    rebuilds its list from the elements not yet picked."""
    if count < 1:
        raise PatternError("block count must be >= 1")
    if count * (p.size - 1) > len(ages):
        return None
    prows = minus(p).rows
    blocks = []
    remaining = sorted(ages)
    while len(blocks) < count:
        hit = None
        for t in sorted({ages[x] for x in remaining}, reverse=True):
            sub = [x for x in remaining if ages[x] >= t]
            hit = _kernels.lex_least_realizer(rows, sub, prows)
            if hit is not None:
                break
        if hit is None:
            return None
        blocks.append(hit)
        for x in hit:
            remaining.remove(x)
    return blocks


def dnc_rebuilt(o: ApproxOracle, stages: int):
    """The dnc stage loop as it was before it kept oldest_blocks answers:
    every requirement searches its blocks at every stage.  Returns the rows
    and the (stage, kind, requirement, detail) of every event."""
    rows, events = [0] * stages, []
    ages = {e: {} for e in o.indices()}
    reqs = []
    for s in range(stages):
        for e in ages:
            ages[e] = {x: ages[e].get(x, -1) + 1 for x in o.query(e, s)}
        if s:
            a, e = cantor_unpair(s - 1)
            if e in ages:
                reqs.append((e, index_pattern(a), h_bound(s - 1) + 1, f"R[{a},{e}]"))
        restrained = set()
        for e, p, count, req in reqs:
            blocks = oldest_blocks(ages[e], p, rows, count) or []
            pick = next((b for b in blocks if not restrained & set(b)), None)
            if pick is None:
                continue
            restrained.update(pick)
            events.append((s, "restrain", req, (("elements", ",".join(map(str, pick))),)))
            for i, x in enumerate(pick):
                c = p(i, p.size - 1)
                rows[x] |= c << s
                rows[s] |= c << x
                events.append((s, "color", req, (("x", str(x)), ("y", str(s)), ("c", str(c)))))
            events.append((s, "act", req, (("block", ",".join(map(str, pick))),)))
    return rows, events


def measure_rebuilt(fs, patterns, stages):
    """The measure stage loop as it was before it kept attention verdicts and
    wrote rows lazily: every stage colours each committed vertex's pair and
    asks every requirement in turn.  Returns the rows, the (stage, kind,
    requirement, detail) of every event and the final state."""
    n = len(fs)
    markers, states, commitments = [0] * n, [[] for _ in range(n)], {}
    rows, events = [0] * stages, []
    for s in range(stages):
        for x, c in commitments.items():
            rows[x] |= c << s
            rows[s] |= c << x
        winner = next((j for j in range(n) if requires_attention_measure(
            states[j], fs[j], markers[j], s, patterns[j])), None)
        if winner is None:
            continue
        j, p, req = winner, patterns[winner], f"R[{winner}]"
        t = len(states[j])
        F_t = range(markers[j], s + 1)
        states[j].append(F_t)
        events.append((s, "attention", req,
                       (("length", str(t + 1)), ("block", ",".join(map(str, F_t))))))
        markers[j] = s + 1
        events.append((s, "marker", req, (("to", str(s + 1)),)))
        for jj in range(j + 1, n):
            if states[jj] or markers[jj] < s + 1:
                events.append((s, "injury", f"R[{jj}]", (("by", req),)))
            states[jj] = []
            markers[jj] = max(markers[jj], s + 1)
        if t < p.size - 1:
            for i, F_i in enumerate(states[j]):
                c = p(i, t + 1)
                for x in F_i:
                    commitments[x] = c
                    events.append((s, "commit", req,
                                   (("x", str(x)), ("limit", str(c)), ("start", str(s)))))
    final = {"states": {f"R[{j}]": [list(F) for F in states[j]] for j in range(n)},
             "markers": {f"R[{j}]": markers[j] for j in range(n)},
             "commitments": commitments}
    return rows, events, final


def stable2dim_rebuilt(bs, stages):
    """The stable2dim stage loop as it was before it kept answers and wrote
    rows lazily: every stage colours each committed vertex's pair and asks
    every requirement in turn until one acts.  Returns the rows, the events
    as measure_rebuilt does, and the final state."""
    n = 2 * len(bs)
    labels = [f"R[{j // 2},{j % 2}]" for j in range(n)]
    status, restraints, commitments = ["none"] * n, [set() for _ in range(n)], {}
    rows, events = [0] * stages, []
    for s in range(stages):
        for x, c in commitments.items():
            rows[x] |= c << s
            rows[s] |= c << x
        higher = set()
        for j in range(n):
            e, i = divmod(j, 2)
            fn = bs[e]

            def fits(S):
                return S and e < min(S) and max(S) < s and not S & higher

            action = None
            if status[j] != "full":
                for nn, mm in fn.secondary_args():
                    E, F = fn.E(nn, s), fn.F(nn, mm, s)
                    if (fits(E) and fits(F) and max(E) < min(F)
                            and all(rows[x] >> y & 1 == 1 - i for x in E for y in F)):
                        action = ((("kind", "second"), ("n", str(nn)), ("m", str(mm))),
                                  "full", ((E, i), (F, 1 - i)))
                        break
            if action is None and status[j] == "none":
                for nn in fn.primary_args():
                    E = fn.E(nn, s)
                    if fits(E):
                        action = ((("kind", "first"), ("n", str(nn))), "partial",
                                  ((E, 1 - i),))
                        break
            if action is None:
                higher |= restraints[j]
                continue
            detail, status[j], pairs = action
            restraints[j] = set().union(*(S for S, _c in pairs))
            events.append((s, "attention", labels[j], detail))
            events.append((s, "restrain", labels[j],
                           (("elements", ",".join(map(str, sorted(restraints[j])))),)))
            for S, c in pairs:
                for x in sorted(S):
                    commitments[x] = c
                    events.append((s, "commit", labels[j],
                                   (("x", str(x)), ("limit", str(c)), ("start", str(s)))))
            for jj in range(j + 1, n):
                if status[jj] != "none":
                    events.append((s, "injury", labels[jj], (("by", labels[j]),)))
                status[jj] = "none"
                restraints[jj] = set()
            break
    final = {"satisfied": dict(zip(labels, status)), "commitments": commitments}
    return rows, events, final


def commitments_by_stages(trace, f, through_next: bool = False):
    """_check_commitments as it was before it tested masks, kept as its
    oracle: one pair colour per stage, from the stage after a commit up to
    the next commit of the same vertex, which it left out unless
    through_next.  Returns the first failure's (stage, message), or None."""
    base = getattr(f, "base", f)
    commits = {}
    for ev in trace.events:
        if ev.kind == "commit":
            commits.setdefault(int(ev.get("x")), []).append(
                (int(ev.get("start")), int(ev.get("limit"))))
        elif ev.kind == "color":
            x, y, c = int(ev.get("x")), int(ev.get("y")), int(ev.get("c"))
            if base(x, y) != c:
                return ev.stage, f"color event ({x},{y})={c} contradicts coloring"
    for x, seq in commits.items():
        seq.sort()
        for idx, (start, c) in enumerate(seq):
            end = seq[idx + 1][0] + through_next if idx + 1 < len(seq) else base.window
            for s in range(max(start + 1, x + 1), end):
                if base(x, s) != c:
                    return s, f"vertex {x} committed to {c} but colored {base(x, s)}"
    return None


def replaced_pairs(trace) -> list[tuple[int, int, int]]:
    """(x, t, c) for each commit of x at stage t that replaces an earlier
    commit of x to c."""
    limits, out = {}, []
    for ev in trace.events:
        if ev.kind == "commit":
            x = int(ev.get("x"))
            if x in limits:
                out.append((x, ev.stage, limits[x]))
            limits[x] = int(ev.get("limit"))
    return out


def tiny_biarrays(rng: random.Random, stages: int) -> list[BiArrayFunctional]:
    """One to three bi-array functionals on a few keys, which repeat, with
    entry stages in no order and sets, some empty, from a small shared pool."""
    def elems(lo):
        return frozenset(rng.sample(range(lo, stages + 1), rng.choice((0, 1, 1, 2, 2, 3))))

    return [BiArrayFunctional(
        tuple((n, rng.randrange(stages), elems(n + 1))
              for n in (rng.randrange(2) for _ in range(rng.randint(1, 3)))),
        tuple((n, m, rng.randrange(stages), elems(m + 1))
              for n, m in ((rng.randrange(2), rng.randrange(3))
                           for _ in range(rng.randint(1, 4)))))
        for _ in range(rng.randint(1, 3))]


def random_cover(rng: random.Random, depth: int = 0) -> list[str]:
    """The leaves of a random binary tree of depth <= 5: prefixes whose
    cylinders cover every oracle once."""
    if depth == 5 or rng.random() < 0.35:
        return [""]
    return [b + t for b in "01" for t in random_cover(rng, depth + 1)]


def tiny_measure_oracle(rng: random.Random, stages: int):
    """One to three prefix functionals with patterns of size 2 to 4, each
    with one entry per prefix of two random covers.  Stages and elements are
    drawn in no order, half of them below 5, where prefix lengths matter,
    so some elements lie before their entry's stage."""
    def small():
        return rng.randrange(stages) if rng.random() < 0.5 else rng.randrange(5)

    fns = [PrefixFunctional(tuple(
        (tau, small(), frozenset(small() for _ in range(rng.randint(1, 2))))
        for tau in random_cover(rng) + random_cover(rng)))
        for _ in range(rng.randint(1, 3))]
    return fns, [random_pattern(rng, 2, 4) for _ in fns]


def tiny_dnc_oracle(rng: random.Random, stages: int) -> ApproxOracle:
    """Entries for indices 0 and 1, with stages in no order, each enumerating
    up to twelve elements, some at or past the stage and clipped."""
    return ApproxOracle(tuple(
        (rng.randrange(2), rng.randrange(stages),
         frozenset(rng.sample(range(stages), rng.randint(0, 12))))
        for _ in range(rng.randint(1, 5))))


def flickering_dnc_oracle(seed: int) -> ApproxOracle:
    """Three indices whose enumerations grow with the stage (elements at or
    above the stage are clipped), drop elements and bring them back."""
    rng = random.Random(seed)
    entries = []
    for e in range(3):
        s0 = 0
        for _ in range(4):
            entries.append((e, s0, frozenset(rng.sample(range(90), rng.randint(5, 40)))))
            s0 += rng.randint(5, 40)
    return ApproxOracle(tuple(entries))


def acts_realize_their_patterns(f, trace) -> bool:
    """Whether every act's block plus its stage realizes the acting
    requirement's pattern in the finished coloring."""
    for ev in trace.events:
        if ev.kind == "act":
            a = int(ev.requirement[2:-1].split(",")[0])
            block = [int(x) for x in ev.get("block").split(",")]
            if not realizes(f, block + [ev.stage], index_pattern(a)):
                return False
    return True


def biarray_lookups_by_scan(fn: BiArrayFunctional, n: int, m: int, s: int):
    """E(n, s), F(n, m, s), primary_args() and secondary_args() by the
    linear scans BiArrayFunctional made before it indexed its entries, kept
    as their oracle: the first entry in tuple order with a matching key and
    a stage <= s wins."""
    e = next((elems for nn, s0, elems in fn.primary if nn == n and s0 <= s), None)
    f = next((elems for nn, mm, s0, elems in fn.secondary
              if nn == n and mm == m and s0 <= s), None)
    return (e, f, sorted({nn for nn, _, _ in fn.primary}),
            sorted({(nn, mm) for nn, mm, _, _ in fn.secondary}))


def flip_pair(f: FiniteColoring, x: int, y: int) -> FiniteColoring:
    rows = list(f.rows)
    rows[x] ^= 1 << y
    rows[y] ^= 1 << x
    return FiniteColoring(f.window, tuple(rows))


def random_measure_oracle(rng: random.Random, stages: int):
    """One to three prefix functionals with random patterns of size 2 to 4,
    each entry outputting its own stage under a short prefix."""
    fns, ps = [], []
    for _ in range(rng.randint(1, 3)):
        fns.append(PrefixFunctional(tuple(
            (rng.choice(["", "", "", "0", "1", "01"]), s0, frozenset({s0}))
            for s0 in sorted(rng.sample(range(1, stages), rng.randint(2, 8))))))
        size = rng.randint(2, 4)
        bits = "".join(rng.choice("01") for _ in range(size * (size - 1) // 2))
        ps.append(parse_pattern(f"{size}:{bits}"))
    return fns, ps


class TestIndexing:
    def test_small_indices(self):
        assert str(index_pattern(0)) == "2:0"
        assert str(index_pattern(1)) == "2:1"
        assert str(index_pattern(2)) == "3:000"
        assert str(index_pattern(4)) == "3:010"

    def test_round_trip(self):
        for idx in range(200):
            assert pattern_index(index_pattern(idx)) == idx

    def test_rejects_singleton(self):
        with pytest.raises(PatternError):
            pattern_index(parse_pattern("1:"))

    def test_rejects_negative_index(self):
        with pytest.raises(PatternError, match="pattern index must be nonnegative"):
            index_pattern(-1)

    def test_cantor_pairing(self):
        assert cantor_pair(0, 0) == 0
        assert cantor_pair(1, 0) == 1
        assert cantor_pair(0, 1) == 2
        assert cantor_pair(4, 0) == 10
        for k in range(100):
            assert cantor_pair(*cantor_unpair(k)) == k

    def test_h_bound(self):
        # k=1: only requirement 0 = ("2:0", 0), truncation size 1
        assert h_bound(0) == 0
        assert h_bound(1) == 1
        assert h_bound(10) == 13

    def test_h_bound_matches_linear_sum(self, monkeypatch):
        # the sum h_bound once recomputed on every call, as the oracle
        want, total = [], 0
        for kk in range(3000):
            want.append(total)
            a, _e = cantor_unpair(kk)
            total += index_pattern(a).size - 1
        monkeypatch.setattr(constructions, "_H", [0])
        assert h_bound(2999) == want[2999]
        assert [h_bound(k) for k in range(3000)] == want
        assert h_bound(-1) == 0

    def test_index_size_matches_index_pattern(self):
        for idx in range(2 ** 12):
            assert constructions._index_size(idx) == index_pattern(idx).size


class TestApproxOracle:
    ORACLE = ApproxOracle(((0, 0, frozenset()), (0, 5, frozenset({1, 2, 7})),
                           (1, 3, frozenset({0}))))

    def test_latest_entry_wins(self):
        assert self.ORACLE.query(0, 4) == frozenset()
        assert self.ORACLE.query(0, 6) == frozenset({1, 2})

    def test_clipped_to_stage(self):
        assert self.ORACLE.query(0, 8) == frozenset({1, 2, 7})
        assert self.ORACLE.query(0, 7) == frozenset({1, 2})

    def test_unknown_index_empty(self):
        assert self.ORACLE.query(9, 50) == frozenset()

    def test_age_of_absent_element(self):
        assert age(self.ORACLE, 0, 3, 10) is None
        assert age(self.ORACLE, 0, 1, 4) is None

    def test_age_run_length(self):
        # 1 enters at stage 5 and stays: s-5 previous member stages at stage s
        assert age(self.ORACLE, 0, 1, 6) == 1
        assert age(self.ORACLE, 0, 1, 9) == 4

    def test_membership_run_of_two(self):
        # member at stages 5 and 6 only: run of length 2 means age 1
        o = ApproxOracle(((0, 5, frozenset({0})), (0, 7, frozenset())))
        assert age(o, 0, 0, 6) == 1


def ages_at(o: ApproxOracle, e: int, s: int) -> dict[int, int]:
    """The stage-s enumeration of index e, each element mapped to its age."""
    return {x: age(o, e, x, s) for x in o.query(e, s)}


class TestOldestBlocks:
    def test_singleton_truncation_blocks(self):
        o = ApproxOracle(((0, 0, frozenset({0, 1, 2, 3})),))
        f = constant_coloring(10)
        got = oldest_blocks(ages_at(o, 0, 8), parse_pattern("2:0"), f.rows, 3)
        assert got == [[0], [1], [2]]

    def test_none_when_too_few(self):
        o = ApproxOracle(((0, 0, frozenset({0, 1})),))
        f = constant_coloring(10)
        assert oldest_blocks(ages_at(o, 0, 8), parse_pattern("3:010"), f.rows, 2) is None

    def test_prefers_older_elements(self):
        o = ApproxOracle(((0, 0, frozenset({0, 1})), (0, 5, frozenset({0, 1, 2, 3}))))
        f = constant_coloring(12)
        got = oldest_blocks(ages_at(o, 0, 10), parse_pattern("2:0"), f.rows, 2)
        assert got == [[0], [1]]

    def test_pair_truncation_realizers(self):
        o = ApproxOracle(((0, 0, frozenset(range(6))),))
        f = constant_coloring(12)
        got = oldest_blocks(ages_at(o, 0, 10), parse_pattern("3:010"), f.rows, 3)
        assert got == [[0, 1], [2, 3], [4, 5]]

    def test_count_validation(self):
        o = ApproxOracle(((0, 0, frozenset({0})),))
        with pytest.raises(PatternError):
            oldest_blocks(ages_at(o, 0, 5), parse_pattern("2:0"),
                          constant_coloring(6).rows, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_given_ages_agree_with_queried(self, seed, monkeypatch):
        # the dnc builder updates its ages once per stage; every map it hands
        # to oldest_blocks must be that stage's enumeration under age()
        rng = random.Random(seed)
        window = 24
        e = rng.randrange(3)
        o = ApproxOracle(tuple(
            (e, rng.randrange(window), frozenset(rng.sample(range(window), rng.randint(0, 12))))
            for _ in range(5)))
        stage, seen = [None], []
        query = ApproxOracle.query

        def recording_query(self, ee, s):
            stage[0] = s
            return query(self, ee, s)

        def recording_oldest_blocks(ages, p, rows, count):
            seen.append((stage[0], dict(ages)))
            return oldest_blocks(ages, p, rows, count)

        monkeypatch.setattr(ApproxOracle, "query", recording_query)
        monkeypatch.setattr(constructions, "oldest_blocks", recording_oldest_blocks)
        build_dnc_coloring(o, window)
        monkeypatch.undo()
        assert seen
        for s, ages in seen:
            assert ages == ages_at(o, e, s)


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_rebuilt_candidate_lists(self, seed, monkeypatch):
        # same blocks, and the same realizer searches on the same candidate
        # lists in the same order, as the version that rebuilt every list
        rng = random.Random(seed)
        searched = []
        search = _kernels.lex_least_realizer

        def recording_search(rows, elems, prows, last=None):
            searched[-1].append(list(elems))
            return search(rows, elems, prows, last)

        monkeypatch.setattr(_kernels, "lex_least_realizer", recording_search)
        for _ in range(150):
            window = rng.randint(6, 18)
            rows = random_coloring(rng, window).rows
            ages = {x: rng.randrange(4) for x in rng.sample(range(window), rng.randint(0, window))}
            p = index_pattern(rng.randrange(74))  # sizes 2 to 4
            count = rng.randint(1, 4)
            searched.append([])
            got = oldest_blocks(ages, p, rows, count)
            searched.append([])
            want = oldest_blocks_rebuilt(ages, p, rows, count)
            assert got == want
            assert searched[-2] == searched[-1]


class TestBiArrayFunctional:
    @pytest.mark.parametrize("seed", range(6))
    def test_lookups_match_linear_scans(self, seed):
        # keys repeat, with stages in any order, so the first matching entry
        # in tuple order is often not the latest or the earliest one
        rng = random.Random(seed)
        for _ in range(40):
            primary = tuple((n, rng.randrange(12), frozenset(rng.sample(range(n + 1, 12), 2)))
                            for n in (rng.randrange(3) for _ in range(rng.randint(0, 8))))
            secondary = tuple((n, m, rng.randrange(12),
                               frozenset(rng.sample(range(m + 1, 12), 2)))
                              for n, m in ((rng.randrange(3), rng.randrange(3))
                                           for _ in range(rng.randint(0, 10))))
            fn = BiArrayFunctional(primary, secondary)
            for n, m, s in itertools.product(range(4), range(4), range(13)):
                e, f, pargs, sargs = biarray_lookups_by_scan(fn, n, m, s)
                assert fn.E(n, s) is e and fn.F(n, m, s) is f
                assert fn.primary_args() == pargs and fn.secondary_args() == sargs
            twin = BiArrayFunctional(primary, secondary)
            assert twin == fn and hash(twin) == hash(fn) and repr(twin) == repr(fn)
            assert repr(fn) == f"BiArrayFunctional(primary={primary!r}, secondary={secondary!r})"


class TestDncBuilder:
    def test_one_block_short_of_the_restraints(self, monkeypatch):
        # a planted defect: h_bound one short gives requirement 1 a single
        # block, the oldest element, which requirement 0 has restrained
        bound = constructions.h_bound
        monkeypatch.setattr(constructions, "h_bound", lambda k: max(bound(k) - 1, 0))
        o = ApproxOracle(((0, 0, frozenset(range(5))),))
        with pytest.raises(AssertionError,
                           match=r"R\[1,0\]: every block meets a restraint at stage 2"):
            build_dnc_coloring(o, 5)
        monkeypatch.undo()
        f, trace = build_dnc_coloring(o, 5)
        assert verify_trace(trace, f).passed

    def test_empty_oracle_all_zero(self):
        f, trace = build_dnc_coloring(ApproxOracle(()), 30)
        assert not any(f.rows)
        assert trace.events == ()

    def test_crafted_oracle_realizer_past_stabilization(self):
        o = ApproxOracle(((0, 0, frozenset()), (0, 101, frozenset(range(60)))))
        f, trace = build_dnc_coloring(o, 200)
        p = parse_pattern("3:010")
        for s in (150, 199):
            assert find_realizer(f, sorted(o.query(0, s)) + [s], p) is not None

    def test_restraints_disjoint_per_stage(self):
        o = ApproxOracle(((0, 10, frozenset(range(20))),
                          (1, 10, frozenset(range(20)))))
        f, trace = build_dnc_coloring(o, 80)
        rep = verify_trace(trace, f)
        assert rep.passed

    def test_block_colors_match_pattern_last_column(self):
        o = ApproxOracle(((0, 0, frozenset(range(10))),))
        f, trace = build_dnc_coloring(o, 40)
        for ev in trace.events:
            if ev.kind == "color":
                assert f(int(ev.get("x")), int(ev.get("y"))) == int(ev.get("c"))

    def test_requirements_participate_below_stage(self):
        o = ApproxOracle(((0, 0, frozenset(range(30))),))
        f, trace = build_dnc_coloring(o, 15)
        for ev in trace.events:
            a, e = map(int, ev.requirement[2:-1].split(","))
            assert cantor_pair(a, e) < ev.stage

    def test_fixture_digest_500_stages(self, fixtures):
        # taken from the builder before h_bound became a prefix table and
        # oldest_blocks took the builder's own enumeration
        o = parse_approx_oracle((fixtures / "dnc_oracle.txt").read_text())
        f, trace = build_dnc_coloring(o, 500)
        # the window x window 0/1 bytes, row by row
        h = hashlib.sha256(bytes(r >> y & 1 for r in f.rows for y in range(f.window)))
        for ev in trace.events:
            h.update(repr((ev.stage, ev.kind, ev.requirement, ev.detail)).encode())
        assert len(trace.events) == 8778
        assert h.hexdigest() == \
            "bb44259d1e20f56b8611dbdf9430ba5fc97cc86ed3c6572bfc744ba2a76487b2"

    def test_fixture_searches_blocks_only_when_enumerations_change(
            self, fixtures, monkeypatch):
        # index 0 changes only at stages 1..60 and 101, so a requirement
        # searches at most once after stage 101: 46 searches, not 10,512
        o = parse_approx_oracle((fixtures / "dnc_oracle.txt").read_text())
        calls = []
        monkeypatch.setattr(constructions, "oldest_blocks",
                            lambda *args: calls.append(args) or oldest_blocks(*args))
        build_dnc_coloring(o, 500)
        assert len(calls) == 46

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_searching_every_stage(self, seed):
        o = flickering_dnc_oracle(seed)
        f, trace = build_dnc_coloring(o, 150)
        rows, events = dnc_rebuilt(o, 150)
        assert list(f.rows) == rows
        assert [(ev.stage, ev.kind, ev.requirement, ev.detail)
                for ev in trace.events] == events
        assert any(kind == "act" for _, kind, _, _ in events)

    def test_fixture_acts_realize_their_patterns(self, fixtures):
        # the construction's purpose: requirement R[a,e] acting at stage s
        # leaves its block plus s realizing index_pattern(a) for good
        o = parse_approx_oracle((fixtures / "dnc_oracle.txt").read_text())
        f, trace = build_dnc_coloring(o, 500)
        assert sum(ev.kind == "act" for ev in trace.events) == 2394
        assert acts_realize_their_patterns(f, trace)
        # one block vertex's colour toward the stage, flipped, breaks it
        ev = next(ev for ev in trace.events if ev.kind == "act")
        x = int(ev.get("block").split(",")[0])
        assert not acts_realize_their_patterns(flip_pair(f, x, ev.stage), trace)

    def test_small_scope_sweep(self):
        # every verify_trace check and the purpose check on 2,000 tiny oracles
        rng = random.Random(0)
        acts = pairs = 0
        for _ in range(2000):
            stages = rng.randint(12, 16)
            f, trace = build_dnc_coloring(tiny_dnc_oracle(rng, stages), stages)
            assert verify_trace(trace, f).passed
            assert acts_realize_their_patterns(f, trace)
            for ev in trace.events:
                if ev.kind == "act":
                    acts += 1
                    pairs += "," in ev.get("block")
        assert acts > 2000 and pairs > 100

    @pytest.mark.parametrize("seed", range(6))
    def test_flickering_acts_realize_their_patterns(self, seed):
        f, trace = build_dnc_coloring(flickering_dnc_oracle(seed), 150)
        assert acts_realize_their_patterns(f, trace)


class TestPrefixFunctional:
    FN = PrefixFunctional((("", 4, frozenset({9})),
                           ("0", 2, frozenset({5})),
                           ("01", 2, frozenset({6}))))

    def test_union_of_applicable_entries(self):
        assert self.FN.output("010", 10) == frozenset({9, 5, 6})
        assert self.FN.output("1", 10) == frozenset({9})

    def test_stage_gating(self):
        assert self.FN.output("010", 3) == frozenset({5, 6})
        assert self.FN.output("010", 1) == frozenset()

    def test_rejects_non_binary_prefix(self):
        with pytest.raises(PatternError):
            PrefixFunctional((("0x", 0, frozenset()),))

    def test_qualifying_prefixes(self):
        assert self.FN.qualifying_prefixes(10, frozenset({5, 9})) == ["", "0"]


class TestMeasures:
    def test_prefix_free_cover(self):
        assert prefix_free_cover(["0", "01", "00", "11"]) == ["0", "11"]
        assert prefix_free_cover([""]) == [""]
        assert prefix_free_cover([]) == []

    def test_cover_measure(self):
        assert cover_measure(["0", "11"]) == Fraction(3, 4)
        assert cover_measure([""]) == 1
        assert cover_measure([]) == 0

    def test_attention_silent_functional(self):
        fn = PrefixFunctional(())
        assert not requires_attention_measure([], fn, 0, 10, parse_pattern("3:010"))

    def test_attention_root_output(self):
        fn = PrefixFunctional((("", 0, frozenset({3})),))
        assert requires_attention_measure([], fn, 0, 5, parse_pattern("3:010"))

    def test_attention_half_measure_insufficient(self):
        # output only under prefixes starting with 0: measure 1/2, and
        # 1/2 > 1 - 1/(2|p|) fails for every pattern size >= 2
        fn = PrefixFunctional((("0", 0, frozenset({3})),))
        for text in ("2:0", "3:010", "4:000101"):
            assert not requires_attention_measure([], fn, 0, 9, parse_pattern(text))

    # the builder decides attention in integers; the oracle is the exact
    # measure compared as a Fraction
    @staticmethod
    def attention_agrees(prefixes, s):
        fn = PrefixFunctional(tuple((tau, 0, frozenset({0})) for tau in prefixes))
        mu = cover_measure(prefixes)
        for size in range(2, 7):
            want = mu > 1 - Fraction(1, 2 * size)
            assert requires_attention_measure([], fn, 0, s, _coded(size, 0)) == want, \
                (prefixes, size)

    def test_attention_matches_fractions_exhaustively(self):
        # every set of binary strings of length <= 3
        strings = ["".join(bits) for n in range(4) for bits in itertools.product("01", repeat=n)]
        for mask in range(1 << len(strings)):
            self.attention_agrees([t for i, t in enumerate(strings) if mask >> i & 1], 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_attention_matches_fractions_random(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            # the empty prefix covers everything, so it comes in one set in 20
            prefixes = ["".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
                        for _ in range(rng.randint(0, 40))]
            self.attention_agrees(prefixes + [""] * (rng.randrange(20) == 0), 12)

    def test_attention_stops_at_full_state(self):
        fn = PrefixFunctional((("", 0, frozenset({3})),))
        p = parse_pattern("2:0")
        state = [frozenset({3}), frozenset({4})]
        assert not requires_attention_measure(state, fn, 0, 9, p)

    def test_joint_meeting_measure(self):
        fn = PrefixFunctional((("0", 0, frozenset({1})), ("1", 0, frozenset({1})),
                               ("0", 0, frozenset({2}))))
        assert joint_meeting_measure(fn, 9, [frozenset({1})]) == 1
        assert joint_meeting_measure(fn, 9, [frozenset({1}), frozenset({2})]) \
            == Fraction(1, 2)
        assert joint_meeting_measure(fn, 9, [frozenset({7})]) == 0
        assert joint_meeting_measure(fn, 9, []) == 1

    def test_joint_meeting_measure_matches_walk_exhaustively(self):
        # every functional of at most three entries with prefixes of length
        # <= 2 and elements in {1, 2}, against one or two targets
        entries = [(tau, 0, frozenset(E))
                   for tau in ("", "0", "1", "00", "01", "10", "11")
                   for E in ({1}, {2}, {1, 2})]
        targets = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
        target_lists = [[t] for t in targets] + [list(tu) for tu in
                                                 itertools.product(targets, repeat=2)]
        for k in range(4):
            for es in itertools.combinations_with_replacement(entries, k):
                fn = PrefixFunctional(es)
                for ts in target_lists:
                    assert joint_meeting_measure(fn, 5, ts) == \
                        joint_measure_by_walk(fn, 5, ts), (es, ts)

    @pytest.mark.parametrize("seed", range(4))
    def test_joint_meeting_measure_matches_walk_random(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            fn = PrefixFunctional(tuple(
                ("".join(rng.choice("01") for _ in range(rng.randint(0, 6))),
                 rng.randrange(10), frozenset(rng.sample(range(5), rng.randint(1, 2))))
                for _ in range(rng.randint(1, 7))))
            ts = [frozenset(rng.sample(range(5), rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 4))]
            assert joint_meeting_measure(fn, 8, ts) == joint_measure_by_walk(fn, 8, ts)


class TestMeasureBuilder:
    def test_silent_functionals_do_nothing(self):
        fns = [PrefixFunctional(()), PrefixFunctional(())]
        ps = [parse_pattern("3:010"), parse_pattern("2:0")]
        f, trace = build_measure_coloring(fns, ps, 40)
        assert not any(f.rows)
        assert trace.events == ()
        assert all(not st for st in trace.final["states"].values())

    def test_total_functional_fills_state(self):
        fn = PrefixFunctional(tuple(("", s, frozenset({s}))
                                    for s in range(5, 100, 5)))
        p = parse_pattern("3:010")
        f, trace = build_measure_coloring([fn], [p], 100)
        state = trace.final["states"]["R[0]"]
        assert len(state) == p.size
        rep = verify_trace(trace, f)
        assert rep.passed, rep

    def test_state_selections_realize_truncations(self):
        fn = PrefixFunctional(tuple(("", s, frozenset({s}))
                                    for s in range(5, 100, 5)))
        p = parse_pattern("3:010")
        f, trace = build_measure_coloring([fn], [p], 100)
        state = [frozenset(F) for F in trace.final["states"]["R[0]"]]
        import itertools
        for sel in itertools.product(*state):
            assert realizes(f, sel, p)

    def test_injury_resets_lower_priority(self):
        high = PrefixFunctional((("", 50, frozenset({50})),))
        low = PrefixFunctional(tuple(("", s, frozenset({s}))
                                     for s in range(5, 100, 5)))
        ps = [parse_pattern("2:0"), parse_pattern("2:1")]
        f, trace = build_measure_coloring([high, low], ps, 60)
        injuries = [ev for ev in trace.events if ev.kind == "injury"]
        assert injuries and injuries[0].requirement == "R[1]"
        inj_stage = injuries[0].stage
        # the injured strategy restarts: its marker moved past the injurer's
        assert trace.final["markers"]["R[1]"] >= inj_stage + 1
        assert verify_trace(trace, f).passed

    @pytest.mark.parametrize("seed", range(6))
    def test_p1_matches_selections(self, seed):
        rng = random.Random(seed)
        stacked = 0
        for _ in range(10):
            f, trace = build_measure_coloring(*random_measure_oracle(rng, 40), 40)
            colorings = [f]
            pairs = [(x, y) for state in trace.final["states"].values()
                     for F_i, F_k in itertools.combinations(state, 2)
                     for x in F_i for y in F_k]
            if pairs:
                stacked += 1
                colorings.append(flip_pair(f, *rng.choice(pairs)))
            for g in colorings:
                res = verify_trace(trace, g, checks=("p1",)).results[0]
                assert res.passed == p1_by_selections(trace, g) == (g is f)
                assert res.stage is None
        assert stacked

    def test_p1_note_names_the_flipped_pair(self):
        fn = PrefixFunctional(tuple(("", s, frozenset({s}))
                                    for s in range(5, 100, 5)))
        f, trace = build_measure_coloring([fn], [parse_pattern("3:010")], 100)
        F_0, F_1, F_2 = trace.final["states"]["R[0]"]
        res = verify_trace(trace, flip_pair(f, F_0[2], F_2[1]), checks=("p1",)).results[0]
        assert not res.passed
        assert res.message == f"R[0]: pair ({F_0[2]}, {F_2[1]}) fails"

    def test_p2_fails_on_interval_met_by_too_little_measure(self):
        fn = PrefixFunctional(tuple(("", s, frozenset({s}))
                                    for s in range(5, 100, 5)))
        f, trace = build_measure_coloring([fn], [parse_pattern("3:010")], 100)
        assert verify_trace(trace, f, checks=("p2",)).passed
        # no entry ever outputs 6 or 7
        trace.final["states"]["R[0]"][1] = [6, 7]
        res = verify_trace(trace, f, checks=("p2",)).results[0]
        assert not res.passed
        assert res.message == "R[0]: measure 0 for [6, 7] not above 5/6"

    def test_union_bound_gives_the_joint_measure(self):
        # why p2's joint branch cannot fail on a state whose intervals pass:
        # |p| intervals, each missed by measure < 1/(2|p|), are all met but
        # for measure < |p| * 1/(2|p|) = 1/2.  Here the misses are disjoint
        # sets of depth-6 cylinders, the bound's worst case, each up to the
        # most leaves that stay below 1/(2|p|)
        rng = random.Random(2)
        leaves = ["".join(bits) for bits in itertools.product("01", repeat=6)]
        tight = 0
        for _ in range(200):
            k = rng.randint(2, 4)
            most = -(-64 // (2 * k)) - 1
            misses = [rng.randint(0, most) for _ in range(k)]
            order = rng.sample(leaves, 64)
            targets, entries = [], []
            for i, m in enumerate(misses):
                targets.append(frozenset(range(3 * i, 3 * i + 3)))
                missed, order = set(order[:m]), order[m:]
                entries += [(tau, rng.randrange(9), frozenset({rng.choice(sorted(targets[i]))}))
                            for tau in leaves if tau not in missed]
            fn = PrefixFunctional(tuple(entries))
            for t, m in zip(targets, misses):
                assert cover_measure(fn.qualifying_prefixes(9, t)) == 1 - Fraction(m, 64) \
                    > 1 - Fraction(1, 2 * k)
            joint = joint_meeting_measure(fn, 9, targets)
            assert joint == 1 - Fraction(sum(misses), 64) > Fraction(1, 2)
            tight += joint < Fraction(5, 8)
        assert tight >= 10

    def test_p2_joint_branch_reached_by_a_planted_measure(self, monkeypatch):
        fn = PrefixFunctional(tuple(("", s, frozenset({s}))
                                    for s in range(5, 100, 5)))
        f, trace = build_measure_coloring([fn], [parse_pattern("3:010")], 100)
        assert len(trace.final["states"]["R[0]"]) == 3
        monkeypatch.setattr(constructions, "joint_meeting_measure",
                            lambda fn, s, target_sets: Fraction(1, 2))
        assert verify_trace(trace, f, checks=("p2",)).results == (constructions.CheckResult(
            "p2", False, None, "R[0]: joint measure 1/2 not above 1/2"),)

    def test_pattern_per_functional_required(self):
        with pytest.raises(PatternError):
            build_measure_coloring([PrefixFunctional(())], [], 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_asking_every_stage(self, seed):
        rng = random.Random(seed)
        attended = 0
        for _ in range(150):
            stages = rng.randint(6, 24)
            fns, ps = tiny_measure_oracle(rng, stages)
            f, trace = build_measure_coloring(fns, ps, stages)
            rows, events, final = measure_rebuilt(fns, ps, stages)
            assert list(f.rows) == rows
            assert list(trace.events) == events
            assert trace.final == final
            attended += bool(events)
        assert attended > 50

    def test_small_scope_sweep(self):
        # every verify_trace check on 2,000 tiny oracles
        rng = random.Random(0)
        kinds = {"attention": 0, "injury": 0, "commit": 0}
        recommits = 0
        for _ in range(2000):
            stages = rng.randint(6, 20)
            f, trace = build_measure_coloring(*tiny_measure_oracle(rng, stages), stages)
            assert verify_trace(trace, f).passed
            for ev in trace.events:
                kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
            recommits += len(replaced_pairs(trace))
        assert min(kinds.values()) > 500 and recommits > 500

    def test_fixture_digest_300_stages(self, fixtures):
        fns, ps = parse_measure_oracle((fixtures / "measure_oracle.txt").read_text())
        assert builder_digest(*build_measure_coloring(fns, ps, 300)) == (
            38, "02079a80af1a54f1be9a9cc5bbc7dae7ced49904aec43406be79870c69785383")


class TestStable2dimBuilder:
    BS = [
        BiArrayFunctional(primary=((0, 5, frozenset({1, 2})),),
                          secondary=((0, 3, 8, frozenset({9, 10})),)),
        BiArrayFunctional(primary=((0, 12, frozenset({20, 21})),),
                          secondary=((0, 0, 25, frozenset({30, 31})),)),
    ]

    def test_undefined_functionals_all_zero(self):
        sc, trace = build_stable_2dim_coloring([BiArrayFunctional()], 30)
        assert not any(sc.base.rows)
        assert sc.limit == (0,) * 30

    def test_total_pairs_fully_satisfied(self):
        sc, trace = build_stable_2dim_coloring(self.BS, 300)
        sat = trace.final["satisfied"]
        assert sat["R[0,0]"] == "full" and sat["R[1,0]"] == "full"
        assert verify_trace(trace, sc).passed

    def test_final_limits_split_pairs(self):
        sc, trace = build_stable_2dim_coloring(self.BS, 300)
        # requirement (e=0, i=0): E committed to class 0, F to class 1,
        # with constant cross color 1 in the built coloring
        assert all(sc.limit[x] == 0 for x in (1, 2, 20, 21))
        assert all(sc.limit[x] == 1 for x in (9, 10, 30, 31))
        assert all(sc.base(x, y) == 1 for x in (1, 2) for y in (9, 10))

    def test_columns_stable_after_last_commitment(self):
        sc, trace = build_stable_2dim_coloring(self.BS, 300)
        last_commit = {}
        for ev in trace.events:
            if ev.kind == "commit":
                last_commit[int(ev.get("x"))] = ev.stage
        for x in range(300):
            start = last_commit.get(x, 0)
            cols = {sc.base(x, s) for s in range(max(start + 1, x + 1), 300)}
            assert len(cols) <= 1
            if cols:
                assert cols == {sc.limit[x]}

    def test_fixture_digest_300_stages(self, fixtures):
        bs = parse_biarray_oracle((fixtures / "biarray_oracle.txt").read_text())
        assert builder_digest(*build_stable_2dim_coloring(bs, 300)) == (
            20, "d330404b0773e0be66ce3f013d97fa646742dbc88e68aa9e18512d21f456b042")

    def test_overlapping_sets_digest_80_stages(self):
        # pins the current injury order: the acting requirement's restrain
        # event precedes the injuries it causes, so the restraints check
        # fails on this oracle (ROADMAP item 1 will change the digest)
        sc, trace = build_stable_2dim_coloring(overlapping_biarrays(0), 80)
        assert builder_digest(sc, trace) == (
            75, "641d6cf0d74584cb58f2e92d63a437feefec6a46b3ed9d79c8168ca01dc1cc51")
        statuses = set(trace.final["satisfied"].values())
        assert statuses == {"none", "partial", "full"}
        assert not verify_trace(trace, sc, checks=("restraints",)).passed

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_asking_every_stage(self, seed):
        rng = random.Random(seed)
        oracles = [(overlapping_biarrays(seed + 1), 80)]
        for _ in range(150):
            stages = rng.randint(5, 24)
            oracles.append((tiny_biarrays(rng, stages), stages))
        seconds = 0
        for bs, stages in oracles:
            sc, trace = build_stable_2dim_coloring(bs, stages)
            rows, events, final = stable2dim_rebuilt(bs, stages)
            assert list(sc.base.rows) == rows
            assert list(trace.events) == events
            assert trace.final == final
            assert sc.limit == tuple(final["commitments"].get(x, 0) for x in range(stages))
            seconds += sum(ev.get("kind") == "second" for ev in trace.events
                           if ev.kind == "attention")
        assert seconds > 10

    def test_validation_of_biarray_entries(self):
        with pytest.raises(PatternError):
            BiArrayFunctional(primary=((3, 0, frozenset({2})),))
        with pytest.raises(PatternError):
            BiArrayFunctional(secondary=((0, 5, 0, frozenset({4})),))


class TestVerifyTrace:
    def test_event_detail_of_a_missing_key(self):
        event = TraceEvent(3, "restrain", "R[0,0]", (("elements", "1,2"),))
        assert event.get("elements") == "1,2"
        with pytest.raises(KeyError, match="^'block'$"):
            event.get("block")

    def test_empty_trace_passes(self):
        trace = ConstructionTrace("dnc", 5, ())
        assert verify_trace(trace, constant_coloring(5)).passed

    def test_unknown_check_rejected(self):
        trace = ConstructionTrace("dnc", 5, ())
        with pytest.raises(PatternError):
            verify_trace(trace, constant_coloring(5), checks=("vibes",))

    def test_overlapping_restraints_detected(self):
        events = (
            TraceEvent(3, "restrain", "R[0,0]", (("elements", "1,2"),)),
            TraceEvent(3, "restrain", "R[1,0]", (("elements", "2,5"),)),
        )
        trace = ConstructionTrace("dnc", 10, events)
        rep = verify_trace(trace, constant_coloring(10), checks=("restraints",))
        assert not rep.passed

    def test_contradicting_color_event_detected(self):
        events = (TraceEvent(4, "color", "R[0,0]",
                             (("x", "1"), ("y", "4"), ("c", "1"))),)
        trace = ConstructionTrace("dnc", 10, events)
        rep = verify_trace(trace, constant_coloring(10), checks=("commitments",))
        assert not rep.passed

    @pytest.mark.parametrize("event", [
        TraceEvent(4, "color", "R[0,0]", (("x", "-1"), ("y", "4"), ("c", "0"))),
        TraceEvent(4, "color", "R[0,0]", (("x", "4"), ("y", "4"), ("c", "0"))),
        TraceEvent(4, "color", "R[0,0]", (("x", "1"), ("y", "10"), ("c", "0"))),
        TraceEvent(2, "commit", "R[0]", (("x", "-1"), ("limit", "0"), ("start", "2"))),
    ])
    def test_pairs_outside_the_window_raise(self, event):
        # as reading the pair does, rather than reading a row from the end
        trace = ConstructionTrace("dnc", 10, (event,))
        with pytest.raises(PatternError):
            verify_trace(trace, constant_coloring(10), checks=("commitments",))

    def test_commit_interval_past_the_window_raises(self):
        events = tuple(TraceEvent(s, "commit", "R[0]", (("x", "2"), ("limit", "0"),
                                                         ("start", str(s)))) for s in (3, 12))
        trace = ConstructionTrace("measure", 10, events)
        with pytest.raises(PatternError):
            verify_trace(trace, constant_coloring(10), checks=("commitments",))

    def test_broken_commitment_detected(self):
        events = (TraceEvent(2, "commit", "R[0]",
                             (("x", "0"), ("limit", "1"), ("start", "2"))),)
        trace = ConstructionTrace("measure", 10, events,
                                  final={"states": {}}, aux={"functionals": [],
                                                             "patterns": []})
        rep = verify_trace(trace, constant_coloring(10), checks=("commitments",))
        assert not rep.passed

    def test_commitments_match_stage_by_stage_check(self):
        # one random pair flipped in each tiny build: the same verdict, stage
        # and note as the per-stage loop that reads the replacing stage too
        rng = random.Random(0)
        failed = 0
        for k in range(300):
            stages = rng.randint(6, 20)
            if k % 2:
                f, trace = build_measure_coloring(*tiny_measure_oracle(rng, stages), stages)
            else:
                f, trace = build_stable_2dim_coloring(tiny_biarrays(rng, stages), stages)
                f = f.base
            g = flip_pair(f, *rng.sample(range(stages), 2))
            for h in (f, g):
                res = verify_trace(trace, h, checks=("commitments",)).results[0]
                want = commitments_by_stages(trace, h, through_next=True)
                assert res == constructions.CheckResult(
                    "commitments", want is None, *(want or (None, "")))
                failed += not res.passed
        assert failed > 30

    def test_commitments_read_the_replacing_stage(self, fixtures):
        # a builder colours a stage before it acts, so a vertex recommitted
        # at stage t still carries its old colour at (x, t); a lazy row flush
        # that stopped one stage short would leave those pairs 0
        bs = parse_biarray_oracle((fixtures / "biarray_oracle.txt").read_text())
        sc, trace = build_stable_2dim_coloring(bs, 300)
        replaced = replaced_pairs(trace)
        assert replaced == [(1, 11, 1), (2, 11, 1), (20, 32, 1), (21, 32, 1)]
        short = sc.base
        for x, t, _c in replaced:
            short = flip_pair(short, x, t)
        assert commitments_by_stages(trace, short) is None
        assert verify_trace(trace, short, checks=("commitments",)).results == (
            constructions.CheckResult("commitments", False, 11,
                                      "vertex 1 committed to 1 but colored 0"),)
        assert verify_trace(trace, sc, checks=("commitments",)).passed

    # a stable2dim requirement may act twice between injuries, a measure
    # requirement R[j] once per vertex of its pattern (3:010 here)
    @pytest.mark.parametrize("builder, attentions", [("stable2dim", 3), ("measure", 4)])
    def test_attention_past_the_bound_without_injury_detected(self, builder, attentions):
        aux = {"functionals": [], "patterns": [parse_pattern("3:010")]}
        events = tuple(TraceEvent(s, "attention", "R[0]") for s in range(2, attentions + 2))
        trace = ConstructionTrace(builder, 10, events, aux=aux)
        rep = verify_trace(trace, constant_coloring(10), checks=("finite-actions",))
        assert rep.results == (constructions.CheckResult(
            "finite-actions", False, attentions + 1, "R[0] acted too often without injury"),)
        # one attention fewer, or an injury before the last one, passes
        injured = events[:-1] + (TraceEvent(attentions, "injury", "R[0]"), events[-1])
        for passing in (events[:-1], injured):
            trace = ConstructionTrace(builder, 10, passing, aux=aux)
            assert verify_trace(trace, constant_coloring(10),
                                checks=("finite-actions",)).passed
