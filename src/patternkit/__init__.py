"""Pattern calculus for Ramsey-like pair colorings.

Exact algebra on finite edge-coloring patterns (join, decomposition,
irreducibility, divergence, merging), sub-pattern classification verdicts,
finite-horizon priority-construction simulators, and finite-bound forcing
question evaluators, with brute-force oracles throughout.

Every public name below imports from the package (`from patternkit import
join`), but its submodule is loaded only when the name is first read
(PEP 562), so a command loads only the modules it runs.
"""

import importlib

# submodule -> the public names it defines; the one table of the package's
# exports, read by __getattr__, __dir__ and __all__
_EXPORTS = {
    "core": (
        "FiniteColoring", "PartialColoring", "Pattern", "PatternError",
        "StableColoring", "avoids", "coloring_from_function", "constant_coloring",
        "dual", "find_realizer", "flip", "format_pattern", "is_subpattern", "minus",
        "parse_pattern", "pattern_from_colors", "realizes", "restrict",
        "strongly_appears", "strongly_realizes",
    ),
    "algebra": (
        "ClassificationFlags", "classify", "decompositions", "is_divergent",
        "is_i_merging", "is_irreducible", "join",
    ),
    "classifier": (
        "CensusRow", "ClassificationReport", "census", "enumerate_patterns",
        "preserves_omega_2dim", "preserves_omega_hyp", "preserves_one_2dim",
        "report", "subpatterns",
    ),
    "stabilize": (
        "BinaryTree", "Condition", "GreedySplit", "WindowExhausted",
        "extend_condition", "fg_avoids", "find_stabilizing_tail", "full_binary_tree",
        "greedy_avoid_join", "homogeneous_for_tree", "is_valid_condition",
        "max_avoiding_subset", "stabilizes", "tree_to_coloring",
    ),
    "constructions": (
        "ApproxOracle", "BiArrayFunctional", "ConstructionTrace", "PrefixFunctional",
        "TraceEvent", "VerifyReport", "age", "build_dnc_coloring",
        "build_measure_coloring", "build_stable_2dim_coloring", "cantor_pair",
        "cantor_unpair", "cover_measure", "h_bound", "index_pattern",
        "joint_meeting_measure", "oldest_blocks", "pattern_index",
        "requires_attention_measure", "verify_trace",
    ),
    "forcing": (
        "BoundedPredicate", "catalogue_predicate", "eval_question_disjunctive",
        "eval_question_i", "eval_question_omega", "least_bound",
    ),
    "lemmas": ("SUITES", "SuiteResult", "run_suites"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # read through the submodule on every access, never cached here: a
    # caller that patches a submodule's attribute (a tracer) and restores it
    # must find the package answering with whatever the submodule holds now
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module 'patternkit' has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"patternkit.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
