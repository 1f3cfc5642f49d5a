"""`patternkit.oracle` answers without the code it checks: with the realizer
and avoiding-subset kernels, both row builders, the row gather, `classify`,
`subpatterns` and `fg_avoids` made to raise, every oracle function gives
the answer it gives with nothing patched."""

import pytest

from patternkit import _kernels, algebra, classifier, core, oracle, stabilize
from patternkit.core import PartialColoring, coloring_from_function, parse_pattern
from patternkit.forcing import pred_size_at_least

PATCHED = [(_kernels, "lex_least_realizer"), (_kernels, "max_avoiding_elems"),
           (_kernels, "_rows_of"), (_kernels, "_pattern_matrix"), (core, "_gather"),
           (algebra, "classify"), (classifier, "subpatterns"), (stabilize, "fg_avoids")]

P, Q, HEM = (parse_pattern(text) for text in ("3:010", "3:101", "5:0111000101"))
F = coloring_from_function(6, lambda x, y: int((x + y) % 3 == 1))
G = PartialColoring({x: x % 2 for x in range(6)})
PHI, X = pred_size_at_least(2), range(1, 6)

CASES = {
    "colour": lambda: [oracle.colour(HEM)(x, 4) for x in range(4)],
    "colours": lambda: oracle.colours(F, (0, 1, 2)),
    "rows": lambda: oracle.rows(oracle.colour(HEM), 5),
    "join": lambda: oracle.join(P, Q),
    "restrict": lambda: oracle.restrict(HEM, (0, 2, 4)),
    "dual": lambda: oracle.dual(P),
    "minus": lambda: oracle.minus(P),
    "is_divergent": lambda: (oracle.is_divergent(P), oracle.is_divergent(parse_pattern("3:000"))),
    "is_i_merging": lambda: (oracle.is_i_merging(P, 0), oracle.is_i_merging(P, 1)),
    "split_criterion": lambda: (oracle.split_criterion(P), oracle.split_criterion(HEM)),
    "is_irreducible": lambda: (oracle.is_irreducible(P), oracle.is_irreducible(HEM)),
    "realizes": lambda: (oracle.realizes(F, (0, 2, 4), P), oracle.realizes(F, (0, 1, 2), P)),
    "subpatterns": lambda: oracle.subpatterns(P, "injective"),
    "least_witnesses": lambda: oracle.least_witnesses(HEM),
    "report": lambda: oracle.report(HEM),
    "realizers": lambda: oracle.realizers(F, range(6), P),
    "max_avoiding": lambda: oracle.max_avoiding(F, range(6), P),
    "strongly_appears": lambda: oracle.strongly_appears(F, G, [1, 2, 3], P),
    "witnessed": lambda: oracle.witnessed(F, G, [1, 3, 5], P),
    "some_witnessed": lambda: oracle.some_witnessed(F, [], [1, 3, 5], P, PHI, G),
    "question_omega": lambda: oracle.question_omega(F, [], X, P, PHI, 2),
    "question_i": lambda: oracle.question_i(F, [], X, P, PHI, 2),
    "question_disjunctive": lambda: oracle.question_disjunctive(F, [], [], X, P, Q, PHI, PHI, 2),
}


def test_every_oracle_function_has_a_case():
    assert set(CASES) == {name for name, obj in vars(oracle).items() if not name.startswith("_")
                          and getattr(obj, "__module__", None) == oracle.__name__}


@pytest.mark.parametrize("name", CASES)
def test_answers_without_package_code(monkeypatch, name):
    want = CASES[name]()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran package code")

    for module, attr in PATCHED:
        monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError, match="package code"):
        classifier.report(HEM)  # the patches bite
    assert CASES[name]() == want
