"""End-to-end acceptance criteria: exact combinatorics, brute-force
equivalences, and finite-horizon construction semantics."""

import itertools
import random
import time
from fractions import Fraction

from patternkit import oracle
from patternkit.core import (
    PartialColoring,
    Pattern,
    avoids,
    constant_coloring,
    dual,
    find_realizer,
    parse_pattern,
    realizes,
)
from patternkit.algebra import (
    classify,
    decompositions,
    is_divergent,
    is_i_merging,
    is_irreducible,
    join,
)
from patternkit.classifier import (
    census,
    enumerate_patterns,
    preserves_omega_2dim,
    preserves_omega_hyp,
    preserves_one_2dim,
)
from patternkit.stabilize import greedy_avoid_join
from patternkit.constructions import (
    build_dnc_coloring,
    build_measure_coloring,
    build_stable_2dim_coloring,
    cover_measure,
    joint_meeting_measure,
    verify_trace,
)
from patternkit.forcing import (
    eval_question_disjunctive,
    eval_question_i,
    eval_question_omega,
    pred_contains,
    pred_size_at_least,
    pred_true,
)
from patternkit.lemmas import run_suites
from patternkit.io import (
    parse_approx_oracle,
    parse_biarray_oracle,
    parse_measure_oracle,
)
from patternkit.cli import main as cli_main
from conftest import random_coloring

HEM = "5:0111000101"


def test_01_census_size3_divergent_irreducible():
    t0 = time.perf_counter()
    rows = tuple(census(3))
    hits = [str(r.pattern) for r in rows
            if r.flags.divergent and r.flags.irreducible]
    elapsed = time.perf_counter() - t0
    assert hits == ["3:010", "3:101"]
    assert len(rows) == 8
    assert elapsed < 1.0


def test_02_irreducibility_methods_agree_up_to_size6():
    t0 = time.perf_counter()
    for size in range(1, 7):
        for p in enumerate_patterns(size):
            assert is_irreducible(p) == (not decompositions(p)), p
    assert time.perf_counter() - t0 < 60.0


def test_03_join_associativity_10k():
    result = run_suites(seed=0, count=10_000, names=["join-associative"])[0]
    assert result.runs == 10_000
    assert result.passed, result.counterexamples


def test_04_divergence_under_join_10k():
    result = run_suites(seed=0, count=10_000, names=["join-divergence"])[0]
    assert result.runs == 10_000
    assert result.passed, result.counterexamples


def test_05_default_merging_colors_exhaustive():
    for size in range(2, 7):
        for p in enumerate_patterns(size):
            assert is_i_merging(p, 1 - p(0, size - 1)), p
            assert is_i_merging(p, p(size - 2, size - 1)), p


def test_06_convergent_implies_merging_exhaustive():
    for size in range(3, 7):
        for p in enumerate_patterns(size):
            if not is_divergent(p):
                assert classify(p).merging, p


def test_07_reducible_example_regression():
    ds = decompositions(parse_pattern("4:000101"))
    assert (parse_pattern("2:0"), parse_pattern("3:101")) in ds
    assert not is_irreducible(parse_pattern("4:000101"))


def test_08_hem_verdicts_and_mode_agreement():
    # the verdicts take no mode: both modes share the order-preserving pool
    p = parse_pattern(HEM)
    assert preserves_omega_hyp(p)
    assert preserves_one_2dim(p)
    assert not preserves_omega_2dim(p)


def test_09_stabilized_avoidance_equivalence_10k():
    result = run_suites(seed=0, count=10_000,
                        names=["stabilized-avoidance-equivalence"])[0]
    assert result.runs == 10_000
    assert result.passed, result.counterexamples


def test_10_witnessed_avoidance_union_10k():
    result = run_suites(seed=0, count=10_000, names=["avoidance-union"])[0]
    assert result.runs == 10_000
    assert result.passed, result.counterexamples


def test_11_merging_union_10k():
    result = run_suites(seed=0, count=10_000, names=["merging-union"])[0]
    assert result.runs == 10_000
    assert result.passed, result.counterexamples


def test_12_greedy_split_soundness_1k():
    rng = random.Random(12)
    runs = 0
    while runs < 1000:
        window = rng.randint(5, 14)
        f = random_coloring(rng, window)
        p = Pattern(2, (rng.randint(0, 1),))
        qs = rng.randint(2, 3)
        q = Pattern(qs, tuple(rng.randint(0, 1) for _ in range(qs * (qs - 1) // 2)))
        H = sorted(rng.sample(range(window), rng.randint(3, min(9, window))))
        if find_realizer(f, H, join(p, q)) is not None:
            continue  # pre-screen: H must avoid the joined pattern
        runs += 1
        split = greedy_avoid_join(f, H, p, q)
        assert split.elements <= frozenset(H)
        target = p if split.side == "p" else q
        assert split.verified
        assert avoids(f, split.elements, target)


def test_13_dnc_construction_crafted_oracle(fixtures):
    oracle = parse_approx_oracle((fixtures / "dnc_oracle.txt").read_text())
    stabilization = 101  # recorded stabilization stage of the oracle table
    f, trace = build_dnc_coloring(oracle, 500)
    p = parse_pattern("3:010")
    for s in range(stabilization + 1, 500):
        enumerated = sorted(oracle.query(0, s))
        assert find_realizer(f, enumerated + [s], p) is not None, s
    report = verify_trace(trace, f, checks=("restraints", "finite-actions",
                                            "commitments"))
    assert report.passed, report


def test_14_measure_construction_p1_p2(fixtures):
    fns, patterns = parse_measure_oracle(
        (fixtures / "measure_oracle.txt").read_text())
    f, trace = build_measure_coloring(fns, patterns, 300)
    p = patterns[0]
    state = [frozenset(F) for F in trace.final["states"]["R[0]"]]
    assert len(state) == p.size  # the total functional drives a full state
    # P1: every selection through the state realizes the pattern
    for sel in itertools.product(*state):
        assert realizes(f, sel, p)
    # P2: each stacked interval is met with measure above 1 - 1/(2|p|),
    # and the meeting events are jointly met with measure above 1/2
    s = 299
    for F_i in state:
        mu = cover_measure(fns[0].qualifying_prefixes(s, F_i))
        assert mu > 1 - Fraction(1, 2 * p.size)
    joint = joint_meeting_measure(fns[0], s, state)
    assert joint > Fraction(1, 2)
    assert verify_trace(trace, f).passed


def test_15_stable_2dim_construction(fixtures):
    bs = parse_biarray_oracle((fixtures / "biarray_oracle.txt").read_text())
    sc, trace = build_stable_2dim_coloring(bs, 300)
    # stability: every column is constant after its last commitment
    last_commit = {}
    for ev in trace.events:
        if ev.kind == "commit":
            last_commit[int(ev.get("x"))] = ev.stage
    for x in range(300):
        start = max(last_commit.get(x, 0) + 1, x + 1)
        cols = {sc.base(x, s) for s in range(start, 300)}
        assert len(cols) <= 1
        if cols:
            assert cols == {sc.limit[x]}
    # each total mock ends with a pair (E, F) split across the limit classes
    # with the connecting cross color present in the built coloring
    for e, fn in enumerate(bs):
        i = 0  # the acting requirement of each mock targets limit class 0
        hits = []
        for n, m in fn.secondary_args():
            E, F = fn.E(n, 299), fn.F(n, m, 299)
            if E is None or F is None:
                continue
            if (all(sc.limit[x] == i for x in E)
                    and all(sc.limit[y] == 1 - i for y in F)
                    and all(sc.base(x, y) == 1 - i for x in E for y in F)):
                hits.append((n, m))
        assert hits, f"functional {e} has no satisfied (n, m) pair"
    assert trace.final["satisfied"]["R[0,0]"] == "full"
    assert trace.final["satisfied"]["R[1,0]"] == "full"
    assert verify_trace(trace, sc).passed


def _forcing_catalogue():
    rng = random.Random(2026)
    catalogue = []
    for _ in range(12):
        f = random_coloring(rng, 13)
        X = sorted(rng.sample(range(1, 13), rng.randint(4, 7)))
        size = rng.randint(2, 3)
        p = Pattern(size, tuple(rng.randint(0, 1)
                                for _ in range(size * (size - 1) // 2)))
        phi = rng.choice([pred_true(), pred_size_at_least(rng.randint(1, 3)),
                          pred_contains(rng.choice(X))])
        catalogue.append(("omega", f, X, p, phi))
    for _ in range(4):
        f = random_coloring(rng, 13)
        X = sorted(rng.sample(range(1, 13), 4))
        p = Pattern(3, tuple(rng.randint(0, 1) for _ in range(3)))
        phi = rng.choice([pred_true(), pred_size_at_least(rng.randint(1, 2))])
        catalogue.append(("i", f, X, p, phi))
    for _ in range(4):
        f = random_coloring(rng, 13)
        X = sorted(rng.sample(range(1, 13), rng.randint(4, 6)))
        p = Pattern(2, (rng.randint(0, 1),))
        phi = pred_size_at_least(rng.randint(1, 2))
        catalogue.append(("disjunctive", f, X, p, phi))
    return catalogue


def test_16_forcing_monotone_in_bound_with_checkable_failures():
    for kind, f, X, p, phi in _forcing_catalogue():
        previous = False
        for n in range(13):
            # replay: a reported failing coloring truly admits no witnessed rho
            Xn = [x for x in X if x <= n]
            if kind == "omega":
                verdict, fail = eval_question_omega(f, [], X, p, phi, n)
                if not verdict:
                    assert not oracle.some_witnessed(f, [], Xn, p, phi, PartialColoring(fail))
            elif kind == "i":
                verdict, fail = eval_question_i(f, [], X, p, phi, n)
                if not verdict:
                    h0, h1 = (PartialColoring(h) for h in fail)
                    assert not oracle.some_witnessed(f, [], Xn, p, phi, h0, (h0, h1))
            else:
                verdict, fail = eval_question_disjunctive(
                    f, [], [], X, p, dual(p), phi, phi, n)
                if not verdict:
                    g = PartialColoring(fail)
                    assert not any(oracle.some_witnessed(f, [], Xn, q, phi, g)
                                   for q in (p, dual(p)))
            if previous:
                assert verdict, (kind, n)
            previous = previous or verdict


def test_17_repeated_command_runs_byte_identical(capsys, fixtures, tmp_path):
    from patternkit.io import format_coloring
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text(format_coloring(constant_coloring(15)))
    invocations = [
        ["census", "4", "--format", "records"],
        ["census", "3"],
        ["classify", HEM, "--format", "records"],
        ["classify", HEM],
        ["decompose", "4:000101"],
        ["join", "3:010", "3:101"],
        ["subpatterns", "3:010"],
        ["avoid-search", str(coloring_file), "2:0"],
        ["verify-lemmas", "--count", "200", "--seed", "11"],
        ["simulate", "dnc", str(fixtures / "dnc_oracle.txt"),
         "--stages", "150"],
        ["simulate", "measure", str(fixtures / "measure_oracle.txt"),
         "--stages", "120"],
        ["simulate", "stable2dim", str(fixtures / "biarray_oracle.txt"),
         "--stages", "120"],
        ["force-eval", "omega", str(coloring_file), "3:010", "size>=2",
         "--reservoir", "1,2,3,4,5", "--bound", "5"],
        ["force-eval", "omega", str(coloring_file), "3:010", "size>=2",
         "--reservoir", "1,2,3,4,5,6,7,8", "--least-bound", "10"],
    ]
    for argv in invocations:
        code1 = cli_main(argv)
        first = capsys.readouterr().out
        code2 = cli_main(argv)
        second = capsys.readouterr().out
        assert code1 == code2
        assert first == second, argv
