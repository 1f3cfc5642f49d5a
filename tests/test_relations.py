"""Relations between answers that follow from the definitions, so they need
no brute-force oracle.

Duality flips the colour of every pair.  It keeps divergence and
irreducibility, and swaps 0-merging with 1-merging, so it maps a witness of
each kind to a witness of the dual kind: omega_hyp and omega_2dim to
themselves, 0-merging to 1-merging.  A pattern and its dual therefore have
equal census verdicts, and kinds that differ by swapping the two merging
bits.  Their least witnesses need not be duals, since (size, code) order is
not dual-invariant, but their sizes are equal.

Heredity: every order-preserving sub-pattern of a one-vertex deletion of p
is one of p, so each verdict of the deletion implies the same verdict of p.

Avoid-search duality: the p-avoiding subsets of f are exactly the
dual(p)-avoiding subsets of flip(f), and the search reads colours only
through realizer tests, so it finds the same maximum subset for both.
"""

import random

import pytest

from patternkit import _kernels, classifier, forcing, oracle
from patternkit.classifier import ClassificationReport, census, enumerate_patterns
from patternkit.core import PartialColoring, dual, flip, restrict
from patternkit.forcing import catalogue_predicate
from patternkit.stabilize import max_avoiding_subset
from conftest import biased_pattern, random_coloring, random_pattern

# the kinds with the 0-merging bit (2) and the 1-merging bit (4) swapped
SWAP_MERGING = bytes(kinds & ~6 | (kinds & 2) << 1 | (kinds & 4) >> 1 for kinds in range(256))


def duality_faults(size: int) -> list[int]:
    """The codes of the size whose kinds or census verdicts differ from those
    duality gives their dual.  The dual of code c is c with every bit
    flipped, 2^C(size,2) - 1 - c, so the duals of the codes in order are the
    codes in reverse."""
    table = classifier._kind_table(size)
    faults = [code for code, (swapped, of_dual)
              in enumerate(zip(table.translate(SWAP_MERGING), reversed(table)))
              if swapped != of_dual]
    rows = list(census(size))
    faults += [row.pattern.code for row, dual_row in zip(rows, reversed(rows))
               if row[2:] != dual_row[2:]]
    return faults


@pytest.mark.parametrize("size", range(1, 7))
def test_duals_are_the_codes_reversed(size):
    patterns = enumerate_patterns(size)
    assert [dual(p) for p in patterns] == patterns[::-1]


@pytest.mark.parametrize("size", range(1, 7))
def test_census_duality(size):
    assert duality_faults(size) == []


def test_duality_catches_swapped_merging_bits(monkeypatch):
    # a planted defect: the table routine swaps the merging bits of the codes
    # whose first pair has colour 1, and of no others
    extend = classifier._extend

    def planted(size, below):
        table = extend(size, below)
        half = len(table) // 2
        table[half:] = table[half:].translate(SWAP_MERGING)
        return table

    monkeypatch.setattr(classifier, "_extend", planted)
    assert duality_faults(3) == [2, 5]  # 3:010 and 3:101
    assert all(duality_faults(size) for size in range(4, 7))


# ---------------------------------------------------------------------------
# report above the oracle's sizes: duality and heredity at sizes 9-14

DUAL_KIND = {"omega_hyp": "omega_hyp", "one_2dim_0merging": "one_2dim_1merging",
             "one_2dim_1merging": "one_2dim_0merging", "omega_2dim": "omega_2dim"}


def verdicts(rep):
    return rep.verdict_omega_hyp, rep.verdict_one_2dim, rep.verdict_omega_2dim


def sample(seed: int, per_size: int) -> list:
    rng = random.Random(seed)
    return [biased_pattern(rng, size) for size in range(9, 15) for _ in range(per_size)]


def report_duality_faults(patterns) -> list:
    """The patterns whose report and their dual's differ in verdicts, or in
    the kinds and sizes of their witnesses once the merging kinds swap."""
    faults = []
    for p in patterns:
        rep, of_dual = classifier.report(p), classifier.report(dual(p))
        sizes = {DUAL_KIND[key]: w.split(":")[0] for key, w in rep.witnesses.items()}
        if verdicts(rep) != verdicts(of_dual) or sizes != {
                key: w.split(":")[0] for key, w in of_dual.witnesses.items()}:
            faults.append(p)
    return faults


def heredity_faults(patterns, seed: int) -> list:
    """(p, v) for each step of a random deletion chain from each pattern down
    to size 3 where a verdict of p minus v holds and p's does not."""
    rng, faults = random.Random(seed), []
    for p in patterns:
        held = verdicts(classifier.report(p))
        while p.size > 3:
            v = rng.randrange(p.size)
            q = restrict(p, [x for x in range(p.size) if x != v])
            below = verdicts(classifier.report(q))
            if any(b and not a for a, b in zip(held, below)):
                faults.append((p, v))
            p, held = q, below
    return faults


def test_samples_meet_every_verdict_combination():
    for patterns in (sample(9, 20), sample(10, 8)):
        assert {verdicts(classifier.report(p)) for p in patterns} == {
            (False, False, False), (True, False, False),
            (True, True, False), (True, True, True)}


def test_report_duality(time_limit):
    assert report_duality_faults(sample(9, 20)) == []


def test_report_heredity(time_limit):
    assert heredity_faults(sample(10, 8), 10) == []


def test_duality_catches_swapped_witness_names(monkeypatch):
    # a planted defect: report names the 0-merging witness as the 1-merging
    # one, and back, on the codes whose first pair has colour 1
    report = classifier.report

    def planted(p):
        rep = report(p)
        if p.size < 2 or not p.code >> p.size * (p.size - 1) // 2 - 1:
            return rep
        return ClassificationReport(p, rep.flags, *verdicts(rep), {
            DUAL_KIND[key]: w for key, w in rep.witnesses.items()})

    monkeypatch.setattr(classifier, "report", planted)
    assert report_duality_faults(sample(9, 20))


def test_heredity_catches_a_walk_without_vertex_0(monkeypatch):
    # a planted defect: the least-witness walk never deletes vertex 0, so it
    # sees only the sub-patterns that keep it
    tables = classifier._deletion_tables
    monkeypatch.setattr(classifier, "_deletion_tables", lambda size: tables(size)[1:])
    assert heredity_faults(sample(10, 8), 10)


# ---------------------------------------------------------------------------
# avoid-search above the oracle's windows: duality at windows 16-20


def avoid_search_instances(seed: int, n: int = 60) -> list:
    """(f, W, p): a random coloring of a window of 16-20, W most of the
    window, and a pattern of size 3-5."""
    rng, out = random.Random(seed), []
    for _ in range(n):
        window = rng.randint(16, 20)
        f = random_coloring(rng, window)
        W = [x for x in range(window) if rng.random() < 0.9]
        out.append((f, W, random_pattern(rng, 3, 5)))
    return out


def avoid_search_duality_faults(instances) -> list:
    return [(f, W, p) for f, W, p in instances
            if max_avoiding_subset(f, W, p) != max_avoiding_subset(flip(f), W, dual(p))]


def test_avoid_search_duality(time_limit):
    assert avoid_search_duality_faults(avoid_search_instances(12)) == []


def test_avoid_search_duality_catches_a_tie_break_on_colours(monkeypatch):
    # a planted defect: the search tries leaving an element out first when
    # its colour toward the first element is 1, so among the maximum subsets
    # it returns one that depends on the colours
    def planted(rows, elems, prows):
        if len(prows) == 1:
            return []
        n, best, chosen = len(elems), [], []

        def walk(idx):
            nonlocal best
            if len(chosen) + n - idx <= len(best):
                return
            if idx == n:
                best = list(chosen)
                return
            e = elems[idx]
            fits = _kernels.lex_least_realizer(rows, chosen, prows, rows[e]) is None
            for include in ((False, True) if rows[e] >> elems[0] & 1 else (True, False)):
                if not include:
                    walk(idx + 1)
                elif fits:
                    chosen.append(e)
                    walk(idx + 1)
                    chosen.pop()

        walk(0)
        return best

    instances = avoid_search_instances(12)
    real = [len(max_avoiding_subset(f, W, p)) for f, W, p in instances]
    monkeypatch.setattr(_kernels, "max_avoiding_elems", planted)
    # still a maximum subset each time, so only the relation can tell
    assert [len(max_avoiding_subset(f, W, p)) for f, W, p in instances] == real
    assert avoid_search_duality_faults(instances)


# ---------------------------------------------------------------------------
# forcing above the oracle's windows: duality at bounds up to 14
#
# flip(f) and dual(p) have the same avoiding sets, and a colouring g
# witnesses rho for p in f exactly when its complement does for dual(p) in
# flip(f), since the colours toward the virtual top vertex flip with p's last
# column.  Complementing is a bijection on colourings (and on pairs of them,
# keeping homogeneity), so each question has the same verdict on both sides,
# with homogeneous:C read as homogeneous:1-C.  The failing colourings are the
# first uncovered ones, which complementing does not keep, so each is replayed.


def dual_spec(spec: str) -> str:
    if not spec.startswith("homogeneous:"):
        return spec
    _, colour, *rest = spec.split(":")
    return ":".join(["homogeneous", str(1 - int(colour)), *rest])


def forcing_instances(seed: int, n: int = 300) -> list:
    """(kind, f, X, bound, sides): a random coloring of window 16, a bound
    of 8-14, and a reservoir with at most 9 elements up to the bound (6 for
    the i-question) above one or two (stem, pattern of size 3-4, predicate)
    sides, two for the disjunctive question."""
    rng, out = random.Random(seed), []
    for i in range(n):
        kind = ("omega", "i", "disjunctive")[i % 3]
        f = random_coloring(rng, 16)
        stem = sorted(rng.sample(range(3), rng.randint(0, 2)))
        X = sorted(rng.sample(range(3, 16), rng.randint(4, 6 if kind == "i" else 9)))
        sides = [(stem if rng.random() < 0.5 else [], random_pattern(rng, 2, 4),
                  rng.choice(("true", "false", f"size>={rng.randint(2, 4)}",
                              f"contains:{rng.choice(X[:2])}", f"contains:{rng.randrange(3)}",
                              f"homogeneous:{rng.randint(0, 1)}",
                              f"homogeneous:{rng.randint(0, 1)}:3")))
                 for _ in range(2 if kind == "disjunctive" else 1)]
        out.append((kind, f, X, rng.randint(8, 14), sides))
    return out


def forcing_answer(kind, f, X, bound, sides):
    """The evaluator's (verdict, failure), and whether each failing coloring
    replays: oracle.some_witnessed finds no rho for it on any side."""
    sides = [(stem, p, catalogue_predicate(spec, f)) for stem, p, spec in sides]
    Xn = [x for x in X if x <= bound]
    if kind == "i":
        (stem, p, phi), = sides
        verdict, fail = forcing.eval_question_i(f, stem, X, p, phi, bound)
        replays = verdict or not oracle.some_witnessed(
            f, stem, Xn, p, phi, PartialColoring(fail[0]), [PartialColoring(h) for h in fail])
    else:
        if kind == "omega":
            (stem, p, phi), = sides
            verdict, fail = forcing.eval_question_omega(f, stem, X, p, phi, bound)
        else:
            (s0, p0, phi0), (s1, p1, phi1) = sides
            verdict, fail = forcing.eval_question_disjunctive(
                f, s0, s1, X, p0, p1, phi0, phi1, bound)
        replays = verdict or not any(
            oracle.some_witnessed(f, stem, Xn, p, phi, PartialColoring(fail))
            for stem, p, phi in sides)
    return verdict, replays


def forcing_duality_faults(instances) -> list:
    faults = []
    for kind, f, X, bound, sides in instances:
        dual_sides = [(stem, dual(p), dual_spec(spec)) for stem, p, spec in sides]
        (v, ok), (dv, dok) = (forcing_answer(kind, f, X, bound, sides),
                              forcing_answer(kind, flip(f), X, bound, dual_sides))
        if v != dv or not (ok and dok):
            faults.append((kind, f, X, bound, sides))
    return faults


def test_forcing_duality(time_limit):
    instances = forcing_instances(13)
    # both verdicts occur for each question
    assert {(kind, forcing_answer(kind, f, X, bound, sides)[0])
            for kind, f, X, bound, sides in instances} == {
        (kind, v) for kind in ("omega", "i", "disjunctive") for v in (True, False)}
    assert forcing_duality_faults(instances) == []


def test_forcing_duality_catches_colorings_dropped(monkeypatch, time_limit):
    # a planted defect: the questions quantify only over the colorings that
    # give the least reservoir element colour 0
    real = forcing._colorings
    monkeypatch.setattr(forcing, "_colorings", lambda support: [
        g for g in real(support) if not (support and g >> support[0] & 1)])
    assert forcing_duality_faults(forcing_instances(13))
