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
"""

import random

import pytest

from patternkit import classifier
from patternkit.classifier import ClassificationReport, census, enumerate_patterns
from patternkit.core import dual, restrict
from conftest import biased_pattern

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
