import hashlib
import random
import time
from collections import Counter

import pytest

from patternkit import _kernels, classifier, oracle
from patternkit.cli import main
from patternkit.core import (
    PatternError, _coded, _gather, dual, is_subpattern, parse_pattern, restrict,
)
from patternkit.algebra import classify, join
from patternkit.classifier import (
    CensusRow,
    census,
    enumerate_patterns,
    preserves_omega_2dim,
    preserves_omega_hyp,
    preserves_one_2dim,
    report,
    subpatterns,
)
from conftest import biased_pattern, random_pattern

HEM = join(parse_pattern("3:010"), parse_pattern("3:101"))


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_patterns(1)) == 1
        assert {str(p) for p in enumerate_patterns(2)} == {"2:0", "2:1"}
        assert len(enumerate_patterns(3)) == 8
        assert len(enumerate_patterns(4)) == 64

    def test_ascending_bitstring_order(self):
        ps = enumerate_patterns(3)
        assert [p.bits for p in ps] == sorted(p.bits for p in ps)

    def test_guard(self):
        with pytest.raises(PatternError):
            enumerate_patterns(9)
        with pytest.raises(PatternError):
            enumerate_patterns(0)


class TestSubpatterns:
    def test_pair_subpatterns(self):
        for mode in ("injective", "monotone"):
            assert {str(q) for q in subpatterns(parse_pattern("2:0"), mode)} \
                == {"1:", "2:0"}

    def test_triple_injective_subpatterns(self):
        got = {str(q) for q in subpatterns(parse_pattern("3:010"), "injective")}
        assert got == {"1:", "2:0", "2:1", "3:010", "3:001", "3:100"}

    def test_triple_monotone_subpatterns(self):
        got = {str(q) for q in subpatterns(parse_pattern("3:010"), "monotone")}
        assert got == {"1:", "2:0", "2:1", "3:010"}

    def test_pattern_contains_itself(self):
        p = parse_pattern("4:000101")
        for mode in ("injective", "monotone"):
            assert p in subpatterns(p, mode)

    def test_consistent_with_is_subpattern(self):
        p = HEM
        for mode in ("injective", "monotone"):
            for q in subpatterns(p, mode):
                assert is_subpattern(q, p, mode)


class TestVerdicts:
    def test_divergent_irreducible_triple(self):
        p = parse_pattern("3:010")
        assert preserves_omega_hyp(p)
        assert not preserves_one_2dim(p)   # 0-merging witness only
        assert not preserves_omega_2dim(p)  # not merging

    def test_convergent_triple_preserves_nothing(self):
        p = parse_pattern("3:000")
        assert not preserves_omega_hyp(p)
        assert not preserves_one_2dim(p)
        assert not preserves_omega_2dim(p)

    def test_hem_verdicts(self):
        assert preserves_omega_hyp(HEM)
        assert preserves_one_2dim(HEM)
        assert not preserves_omega_2dim(HEM)

    def test_some_size4_pattern_preserves_omega_2dim(self):
        hits = [r.pattern for r in census(4) if r.omega_2dim]
        assert hits
        for p in hits:
            assert "omega_2dim" in oracle.least_witnesses(p)

    def test_verdict_implication_chain(self):
        for size in range(1, 5):
            for p in enumerate_patterns(size):
                o2, o1, oh = (preserves_omega_2dim(p), preserves_one_2dim(p),
                              preserves_omega_hyp(p))
                assert (not o2 or o1) and (not o1 or oh)

    def test_verdicts_dual_invariant(self):
        for size in range(1, 5):
            for p in enumerate_patterns(size):
                d = dual(p)
                assert preserves_omega_hyp(p) == preserves_omega_hyp(d)
                assert preserves_one_2dim(p) == preserves_one_2dim(d)
                assert preserves_omega_2dim(p) == preserves_omega_2dim(d)

    def test_verdict_monotone_under_monotone_subpattern(self):
        for p in enumerate_patterns(4):
            for q in subpatterns(p, "monotone"):
                if preserves_omega_hyp(q):
                    assert preserves_omega_hyp(p)
                if preserves_omega_2dim(q):
                    assert preserves_omega_2dim(p)


class TestReport:
    def test_hem_report(self):
        rep = report(HEM)
        assert rep.verdict_omega_hyp and rep.verdict_one_2dim
        assert not rep.verdict_omega_2dim
        assert rep.witnesses["omega_hyp"] == "3:010"
        assert rep.witnesses["one_2dim_0merging"] == "3:010"
        assert rep.witnesses["one_2dim_1merging"] == "3:101"
        assert "omega_2dim" not in rep.witnesses

    def test_witnesses_are_least(self):
        rep = report(parse_pattern("3:101"))
        assert rep.witnesses["omega_hyp"] == "3:101"


def verdict_counts(rows):
    return {key: sum(getattr(r, key) for r in rows)
            for key in ("omega_hyp", "one_2dim", "omega_2dim")}


class TestCensus:
    def test_size3_divergent_irreducible(self):
        hits = [str(r.pattern) for r in census(3)
                if r.flags.divergent and r.flags.irreducible]
        assert hits == ["3:010", "3:101"]

    def test_size2_no_divergent(self):
        assert sum(r.flags.divergent for r in census(2)) == 0

    def test_size4_totals(self):
        rows = tuple(census(4))
        assert len(rows) == 64
        # every row falls under one (divergent, irreducible, merging0, merging1)
        combos = Counter((r.flags.divergent, r.flags.irreducible,
                          r.flags.merging0, r.flags.merging1) for r in rows)
        assert sum(combos.values()) == 64

    def test_deterministic_row_order(self):
        assert [r.pattern for r in census(3)] == [r.pattern for r in census(3)]

    def test_verdict_counts_match_rows(self):
        assert verdict_counts(tuple(census(3))) == {
            "omega_hyp": 2, "one_2dim": 0, "omega_2dim": 0}

    def test_rows_stream(self, monkeypatch):
        # census yields each row as it makes it: the first pulls one row mask
        # tuple from the stream, not the 2^15 of size 6
        pulled = []
        stream = _kernels._rows_by_code

        def counted(size):
            for rows in stream(size):
                pulled.append(size)
                yield rows

        monkeypatch.setattr(_kernels, "_rows_by_code", counted)
        rows = census(6)
        assert str(next(rows).pattern) == "6:000000000000000"
        assert pulled == [6]
        rows.close()
        with pytest.raises(PatternError):
            next(census(9))

    def test_size6_pinned(self, capsys):
        # the records and counts of the full-subset scan the one-vertex
        # deletion recursion replaced
        assert main(["census", "6", "--format", "records"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "e026b86a42c4c4636d09362cc819319ef7694f0e195fcc0cbb702222765ee965")
        rows = tuple(census(6))
        assert len(rows) == 32768
        assert sum(r.flags.divergent for r in rows) == 30720
        assert sum(r.flags.irreducible for r in rows) == 28576
        assert sum(r.flags.divergent and r.flags.irreducible for r in rows) == 26790
        assert sum(r.flags.merging for r in rows) == 32128
        assert verdict_counts(rows) == {
            "omega_hyp": 32374, "one_2dim": 31338, "omega_2dim": 31226}


# ---------------------------------------------------------------------------
# differential check against the oracle's one sorted scan over the monotone
# sub-patterns, each classified from its pair colours


def assert_matches_oracle(p):
    """The verdicts and the report of p are the oracle's; returns the verdicts."""
    want = oracle.report(p)
    assert (preserves_omega_hyp(p), preserves_one_2dim(p), preserves_omega_2dim(p)) \
        == want[:3], p
    rep = report(p)
    assert (rep.verdict_omega_hyp, rep.verdict_one_2dim,
            rep.verdict_omega_2dim, rep.witnesses) == want, p
    assert rep.flags == classify(p)
    return want[:3]


class TestWitnessScanDifferential:
    @pytest.mark.parametrize("size", range(1, 6))
    def test_matches_old_scans_exhaustively(self, size):
        rows = tuple(census(size))
        assert [r.pattern for r in rows] == enumerate_patterns(size)
        for row in rows:
            verdicts = assert_matches_oracle(row.pattern)
            assert (row.omega_hyp, row.one_2dim, row.omega_2dim) == verdicts
            assert row.flags == classify(row.pattern)

    @pytest.mark.parametrize("size", [7, 8])
    def test_matches_oracle_seeded(self, size):
        # past the exhaustive sizes: 100 seeded patterns of each size
        rng = random.Random(size)
        for _ in range(100):
            assert_matches_oracle(random_pattern(rng, size, size))


# ---------------------------------------------------------------------------
# the package's witness-kind walk and the census's kind tables against the
# least-witness recursion on Pattern objects that decided both before them

KIND_BITS = {"omega_hyp": 1, "one_2dim_0merging": 2, "one_2dim_1merging": 4, "omega_2dim": 8}


def pattern_least_witnesses(p, memo):
    """The least order-preserving sub-pattern of p, in (size, code) order,
    for each witness kind it has: divergent and irreducible ("omega_hyp"),
    and that plus 0-merging, 1-merging or merging ("one_2dim_0merging",
    "one_2dim_1merging", "omega_2dim").  memo holds the witnesses of the
    deletions decided so far, at every depth; p's own are not added."""
    found = {}
    if p.size > 1:
        rows = p.rows
        for v in range(p.size):
            d = _coded(p.size - 1, _gather(rows, [x for x in range(p.size) if x != v]))
            w = memo.get(d)
            if w is None:
                w = memo[d] = pattern_least_witnesses(d, memo)
            for key, q in w.items():
                found[key] = min(found.get(key, q), q)
    fl = classify(p)
    if fl.divergent and fl.irreducible:
        for key, holds in (("omega_hyp", True),
                           ("one_2dim_0merging", fl.merging0),
                           ("one_2dim_1merging", fl.merging1),
                           ("omega_2dim", fl.merging)):
            if holds:
                found.setdefault(key, p)
    return found


def witness_kinds(witnesses) -> int:
    return sum(KIND_BITS[key] for key in witnesses)


def least_witness_census(size):
    """The census rows of one least-witness walk with a shared memo, and the
    kinds of every pattern of the size; the memo ends up holding the
    witnesses of every smaller pattern."""
    memo, rows, kinds = {}, [], []
    for p in enumerate_patterns(size):
        w = pattern_least_witnesses(p, memo)
        rows.append(CensusRow(p, classify(p), "omega_hyp" in w,
                              "one_2dim_0merging" in w and "one_2dim_1merging" in w,
                              "omega_2dim" in w))
        kinds.append(witness_kinds(w))
    return rows, kinds, memo


def package_least_witnesses(p):
    """The package walk's least witnesses of p, keyed and valued as
    pattern_least_witnesses keys and values them."""
    return {classifier._KIND_NAMES[i]: _coded(*q)
            for i, q in classifier._least_witnesses(p.size, p.code).items()}


class TestLeastWitnessWalk:
    def test_every_pattern_to_size6(self, time_limit):
        memo = {}
        for size in range(1, 7):
            for p in enumerate_patterns(size):
                assert package_least_witnesses(p) == pattern_least_witnesses(p, memo), p

    def test_seeded_sizes_7_to_14(self, time_limit):
        rng = random.Random(14)
        combos = Counter()
        for size in range(7, 15):
            for _ in range(40 if size <= 10 else 8 if size <= 12 else 3):
                p = biased_pattern(rng, size)
                want = pattern_least_witnesses(p, {})
                assert package_least_witnesses(p) == want, p
                rep = report(p)
                verdicts = (rep.verdict_omega_hyp, rep.verdict_one_2dim,
                            rep.verdict_omega_2dim)
                assert (preserves_omega_hyp(p), preserves_one_2dim(p),
                        preserves_omega_2dim(p)) == verdicts
                combos[verdicts] += 1
                assert rep.witnesses == {key: str(q) for key, q in want.items()
                                         if rep.verdict_one_2dim or "one_2dim" not in key}
        assert len(combos) == 4  # none, omega_hyp alone, and each with one_2dim on


class TestKindTables:
    def test_census6_matches_least_witness_walk(self, time_limit):
        rows, kinds, memo = least_witness_census(6)
        assert list(census(6)) == rows
        assert list(classifier._kind_table(6)) == kinds
        for size in range(1, 6):
            assert list(classifier._kind_table(size)) == [
                witness_kinds(memo[p]) for p in enumerate_patterns(size)]

    def test_size7_counts(self, time_limit):
        t0 = time.perf_counter()
        table = classifier._kind_table(7)
        elapsed = time.perf_counter() - t0
        counts = Counter(table)
        assert len(table) == 2 ** 21
        # the verdict counts, and the patterns with no witness of each kind
        # (no omega_hyp witness leaves no witness of any kind)
        assert sum(n for kinds, n in counts.items() if kinds & 1) == 2_095_346
        assert sum(n for kinds, n in counts.items() if kinds & 6 == 6) == 2_088_394
        assert counts[classifier.ALL_KINDS] == 2_087_026
        assert counts[0] == 1_806
        assert sum(n for kinds, n in counts.items() if not kinds & 2) == 5_282
        assert sum(n for kinds, n in counts.items() if not kinds & 4) == 5_282
        assert elapsed < 3

    def test_size8_sample_matches_least_witnesses(self, time_limit):
        # census 8's verdicts, one row at a time as census makes them, for
        # 10,000 seeded codes
        below = classifier._kind_table(7)
        deletions = classifier._deletion_tables(8)[1:]
        rng, memo = random.Random(8), {}
        for _ in range(10_000):
            p = _coded(8, rng.getrandbits(28))
            kinds = classifier._inherited(p.code, below[p.code & (1 << 21) - 1], below,
                                          deletions) | classifier._own_kinds(classify(p))
            assert kinds == witness_kinds(pattern_least_witnesses(p, memo)), p

    def test_deletion_tables_give_restrictions(self):
        for size in range(2, 13):
            deletions = classifier._deletion_tables(size)
            rng = random.Random(size)
            for _ in range(50):
                p = _coded(size, rng.getrandbits(size * (size - 1) // 2))
                b = p.code.to_bytes(len(deletions[0]), "little")
                for v, tables in enumerate(deletions):
                    got = sum(table[byte] for table, byte in zip(tables, b))
                    assert got == restrict(p, [x for x in range(size) if x != v]).code
