import hashlib
import marshal
import os
import random
import re
import sys
import zlib

import pytest

import patternkit.lemmas as lemmas
from patternkit.cli import main
from patternkit.core import (
    FiniteColoring,
    Pattern,
    PatternError,
    coloring_from_function,
    constant_coloring,
    flip,
    parse_pattern,
)
from patternkit.io import parse_record
from patternkit.lemmas import SUITES, run_suites


class TestSuites:
    def test_all_suites_pass_small(self):
        results = run_suites(seed=0, count=300)
        assert [r.name for r in results] == list(SUITES)
        for r in results:
            assert r.passed, (r.name, r.counterexamples)

    def test_deterministic_across_runs(self):
        a = run_suites(seed=7, count=100)
        b = run_suites(seed=7, count=100)
        assert a == b

    def test_selected_suites_only(self):
        results = run_suites(seed=0, count=50, names=["duality"])
        assert len(results) == 1 and results[0].name == "duality"

    @pytest.mark.parametrize("kwargs, message", [
        ({"count": -5}, "count must be nonnegative, got -5"),
        ({"seed": -2}, "seed must be nonnegative, got -2"),
        ({"names": ["duality", "nope", "nor-this"]}, "unknown suites: 'nope', 'nor-this'"),
        ({"names": ["duality", "join-divergence", "duality"]}, "suite 'duality' named twice"),
    ], ids=["negative-count", "negative-seed", "unknown-name", "repeated-name"])
    def test_rejects_bad_arguments(self, kwargs, message):
        # a negative count used to report every sampled suite passed with 0
        # runs, and seed -2 replays seed 0's join-associative stream
        with pytest.raises(PatternError, match=f"^{re.escape(message)}$"):
            run_suites(**kwargs)

    def test_zero_iterations_flagged_skipped(self):
        results = run_suites(seed=0, count=0, names=["join-associative"])
        assert results[0].skipped and not results[0].passed

    def test_planted_join_defect_caught(self, monkeypatch):
        real_join = lemmas.join

        def broken_join(p, q):
            out = real_join(p, q)
            if out.size == 5 and out.bits[0] == 0:
                from patternkit.core import Pattern
                return Pattern(out.size, (1,) + out.bits[1:])
            return out

        monkeypatch.setattr(lemmas, "join", broken_join)
        result = lemmas.suite_join_associative(random.Random(0), 500)
        assert not result.passed and result.counterexamples

    def test_planted_merging_defect_caught(self, monkeypatch):
        real = lemmas._i_merging
        monkeypatch.setattr(lemmas, "_i_merging",
                            lambda rows, i: False if len(rows) == 4 else real(rows, i))
        result = lemmas.suite_default_merging(max_size=4)
        assert not result.passed

    def test_planted_convergent_merging_defect_caught(self, monkeypatch):
        # no pattern merges: every convergent one fails, size 3 first
        monkeypatch.setattr(lemmas, "_i_merging", lambda rows, i: False)
        result = lemmas.suite_convergent_merging()
        assert result.runs == 33_864 and not result.passed
        assert result.counterexamples == ("3:000", "3:011", "3:100", "3:111",
                                          "4:000000")

    def test_planted_irreducibility_defect_caught(self, monkeypatch):
        # every pattern called irreducible: the reducible ones fail, which
        # at size 3 is all but 3:010 and 3:101
        monkeypatch.setattr(lemmas, "_irreducible", lambda rows: True)
        result = lemmas.suite_irreducibility_criterion()
        assert result.runs == 1_099 and not result.passed
        assert result.counterexamples == ("3:000", "3:001", "3:110", "3:111",
                                          "4:000000")


def in_process(seed, count, names=None):
    """The suites run one after another in this process: the loop
    run_suites had before it handed suites to helper processes."""
    return [SUITES[name](random.Random(seed ^ zlib.crc32(name.encode())), count)
            for name in (names if names is not None else SUITES)]


@pytest.fixture
def forked(monkeypatch, time_limit):
    """Report `cpus` usable CPUs to run_suites (2 unless a test sets it) and
    record the pid of every helper it forks; afterwards, check that each was
    reaped."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    cpus = [2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus[0])))
    monkeypatch.setattr(os, "fork", fork)
    yield pids, cpus
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestHelpers:
    """run_suites with forked helpers against the in-process loop."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_equals_the_in_process_loop(self, forked, seed):
        pids, _ = forked
        for count in (0, 1, 50, 300):
            assert run_suites(seed=seed, count=count) == in_process(seed, count)
        assert len(pids) == 4 * 2

    def test_one_helper_per_usable_cpu_up_to_one_per_suite(self, forked):
        pids, cpus = forked
        for cpus[0], names, helpers in [(4, None, 4), (16, None, 9),
                                        (3, ["duality", "join-divergence"], 2)]:
            pids.clear()
            assert run_suites(seed=5, count=20, names=names) == in_process(5, 20, names)
            assert len(pids) == helpers

    @pytest.mark.parametrize("cpus, names", [(1, None), (2, ["merging-union"])],
                             ids=["one-cpu", "one-suite"])
    def test_no_fork_without_two_helpers(self, forked, monkeypatch, cpus, names):
        forked[1][0] = cpus

        def fork():
            raise AssertionError("forked with fewer than two helpers")

        monkeypatch.setattr(os, "fork", fork)
        assert run_suites(seed=2, count=30, names=names) == in_process(2, 30, names)

    def test_suite_raising_in_a_helper_raises_in_the_parent(self, forked, monkeypatch,
                                                            tmp_path):
        # each process that runs the planted suite logs its pid: a helper
        # first, then the parent, whose own ValueError surfaces
        log = tmp_path / "pids"

        def planted(rng, count):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            raise ValueError("planted")

        monkeypatch.setitem(lemmas.SUITES, "duality", planted)
        with pytest.raises(ValueError, match="^planted$"):
            run_suites(seed=0, count=10)
        ran = [int(pid) for pid in log.read_text().split()]
        assert len(ran) == 2 and ran[0] in forked[0] and ran[1] == os.getpid()

    def test_helper_dying_mid_suite_is_made_good(self, forked, monkeypatch):
        # the helper that claims avoidance-union ends without a word, losing
        # the suites it finished before; the parent runs them all again
        parent, real = os.getpid(), SUITES["avoidance-union"]

        def planted(rng, count):
            if os.getpid() != parent:
                os._exit(3)
            return real(rng, count)

        monkeypatch.setitem(lemmas.SUITES, "avoidance-union", planted)
        assert run_suites(seed=3, count=50) == in_process(3, 50)

    def test_helper_sends_what_it_finished(self, monkeypatch):
        # the helper's body run in this process, with os._exit planted to
        # raise SystemExit: a raising suite ends its claims, and the suite it
        # finished before is sent
        def planted(rng, count):
            raise ValueError("planted")

        monkeypatch.setattr(os, "_exit", sys.exit)
        monkeypatch.setitem(lemmas.SUITES, "duality", planted)
        chosen = ["join-divergence", "duality", "join-associative"]
        r, w = os.pipe()
        with pytest.raises(SystemExit, match="^0$"):
            lemmas._helper(lemmas._queue([0, 1, 2]), w, chosen, 4, 30)
        with open(r, "rb") as pipe:
            sent = marshal.loads(pipe.read())
        assert sent == {0: tuple(in_process(4, 30, chosen[:1])[0])}

    def test_truncated_report_counts_as_none(self, forked, monkeypatch):
        real = marshal.dumps
        monkeypatch.setattr(marshal, "dumps", lambda value: real(value)[:-1])
        assert run_suites(seed=11, count=20) == in_process(11, 20)

    def test_parent_exception_kills_and_reaps_every_helper(self, forked, monkeypatch):
        # the parent fails on the first report, with a helper that may still
        # be running a suite: the helpers are killed, then reaped
        def loads(data):
            raise RuntimeError("planted")

        monkeypatch.setattr(marshal, "loads", loads)
        with pytest.raises(RuntimeError, match="^planted$"):
            run_suites(seed=0, count=2000)
        assert len(forked[0]) == 2


# sha256 of the (SuiteResult, rng.getstate()) reprs for seeds 0, 3, 11 and
# counts 0, 1, 50, 300 in that order, computed before the suites shared one
# sampling loop; a change in draw order or in any result changes these
STREAM_DIGESTS = {
    "join-associative": "d427e97f85931dd4",
    "join-divergence": "ac239aa51937d4ed",
    "default-merging": "18a3198b58e3f1c5",
    "convergent-merging": "2299d396f37e0a88",
    "irreducibility-criterion": "effaf63c5d0a389f",
    "duality": "4f803254629630a8",
    "stabilized-avoidance-equivalence": "c38c4a441b0a0eb0",
    "avoidance-union": "6ed5112dd45086ad",
    "merging-union": "852e5fbf56c56539",
}


class TestStream:
    def test_every_suite_is_pinned(self):
        assert list(STREAM_DIGESTS) == list(SUITES)

    @pytest.mark.parametrize("name", list(STREAM_DIGESTS))
    def test_results_and_generator_state_pinned(self, name):
        h = hashlib.sha256()
        for seed in (0, 3, 11):
            for count in (0, 1, 50, 300):
                rng = random.Random(seed ^ zlib.crc32(name.encode()))
                result = SUITES[name](rng, count)
                h.update(repr((result, rng.getstate())).encode())
        assert h.hexdigest()[:16] == STREAM_DIGESTS[name]


class TestCounterexampleLimit:
    def test_sampled_suite_keeps_five(self, monkeypatch):
        # every accepted draw fails; merging-union still rejects draws whose
        # union does not avoid p
        monkeypatch.setattr(lemmas, "fg_avoids", lambda f, g, H, p: False)
        result = lemmas.suite_merging_union(random.Random(0), 40)
        assert result.runs == 40 and not result.exhausted
        assert len(result.counterexamples) == 5 and not result.passed

    def test_sweep_keeps_five(self, monkeypatch):
        # two counterexamples for each of the 33,866 patterns of sizes 2-6,
        # of which only the five reported are formatted
        built = []
        real_coded = lemmas._coded

        def coded(size, code):
            built.append((size, code))
            return real_coded(size, code)

        monkeypatch.setattr(lemmas, "_i_merging", lambda rows, i: False)
        monkeypatch.setattr(lemmas, "_coded", coded)
        result = lemmas.suite_default_merging()
        assert result.runs == 33_866
        assert result.counterexamples == ("2:0 color 1", "2:0 color 0",
                                          "2:1 color 0", "2:1 color 1",
                                          "3:000 color 1")
        assert len(built) <= 5


class TestDuality:
    def test_at_most_2000_runs(self):
        assert lemmas.suite_duality(random.Random(0), 2_001).runs == 2_000


class TestCoin:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
    def test_same_draws_and_state_as_randint(self, seed):
        a, b = random.Random(seed), random.Random(seed)
        assert [lemmas._coin(a) for _ in range(10**5)] == \
            [b.randint(0, 1) for _ in range(10**5)]
        assert a.getstate() == b.getstate()


class TestBelow:
    """`_below` and `_coins` against the generator's own methods: the same
    values and the same generator state afterwards."""

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_randint_and_choice(self, seed):
        a, b = random.Random(seed), random.Random(seed)
        for n in range(1, 1001):
            assert 3 + lemmas._below(a, n) == b.randint(3, n + 2)
            seq = range(n)
            assert seq[lemmas._below(a, n)] == b.choice(seq)
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_coins(self, seed):
        a, b = random.Random(seed), random.Random(seed)
        for n in range(80):
            want = 0
            for _ in range(n):
                want = want << 1 | lemmas._coin(b)
            assert lemmas._coins(a, n) == want
            assert a.getstate() == b.getstate()


class TestDraws:
    """The suites' draw helpers against references that make one `_coin` call
    per pair: the same values and the same generator state afterwards."""

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_random_rows(self, seed):
        a, b = random.Random(seed), random.Random(seed)
        for window in range(13):
            want = coloring_from_function(window, lambda x, y: lemmas._coin(b))
            assert tuple(lemmas._random_rows(a, window)) == want.rows
            assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_random_pattern(self, seed):
        a, b = random.Random(seed), random.Random(seed)
        for max_size in range(1, 13):
            for min_size in range(1, max_size + 1):
                size = b.randint(min_size, max_size)
                want = Pattern(size, tuple(lemmas._coin(b)
                                           for _ in range(size * (size - 1) // 2)))
                got = lemmas._random_pattern(a, max_size, min_size)
                assert got == want and got.rows == want.rows
                assert a.getstate() == b.getstate()

    def test_drawn_colorings_pass_the_checks(self):
        # the suites build their colorings without FiniteColoring's checks
        rng = random.Random(11)
        for _ in range(500):
            f, g, E, F, p = lemmas._stabilized_instance(rng)
            for h in (f, flip(f), lemmas._recolored(list(f.rows), E, F, lambda x: 1)):
                assert FiniteColoring(h.window, h.rows) == h


def _never_stabilized(rng):
    # the draw behind both stabilized suites: F empty and a size-2 pattern,
    # rejected by each of them
    return constant_coloring(4).rows, [0], [], 0, parse_pattern("2:0")


class TestAttemptCap:
    @pytest.mark.parametrize("suite, attr, stub", [
        (lemmas.suite_stabilized_avoidance_equivalence, "_stabilized_draw",
         _never_stabilized),
        (lemmas.suite_avoidance_union, "_stabilized_draw", _never_stabilized),
        (lemmas.suite_merging_union, "avoids", lambda f, H, p: False),
    ])
    def test_never_accepting_generator_exhausts(self, monkeypatch, suite, attr, stub):
        monkeypatch.setattr(lemmas, attr, stub)
        result = suite(random.Random(0), 3)
        assert result.exhausted and not result.passed and not result.skipped
        assert result.runs == 0

    def test_cli_reports_exhausted(self, monkeypatch, capsys):
        monkeypatch.setattr(lemmas, "_stabilized_draw", _never_stabilized)
        code = main(["verify-lemmas", "--count", "2", "--suites", "avoidance-union"])
        rec = parse_record(capsys.readouterr().out.strip())
        assert code == 1
        assert rec["status"] == "exhausted" and rec["runs"] == "0"
