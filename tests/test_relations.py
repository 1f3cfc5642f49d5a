"""Relations between answers that follow from the definitions, so they need
no brute-force oracle.

Duality flips the colour of every pair.  It keeps divergence and
irreducibility, and swaps 0-merging with 1-merging, so it maps a witness of
each kind to a witness of the dual kind: omega_hyp and omega_2dim to
themselves, 0-merging to 1-merging.  A pattern and its dual therefore have
equal census verdicts, and kinds that differ by swapping the two merging
bits.
"""

import pytest

from patternkit import classifier
from patternkit.classifier import census, enumerate_patterns
from patternkit.core import dual

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
