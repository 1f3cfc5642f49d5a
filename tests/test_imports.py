"""The package's import footprint and its exports.

`patternkit/__init__.py` loads a submodule only when one of its names is
first read, and each CLI command imports only the modules it runs, so a cold
start compiles and executes no module the command does not use.  No command
loads `dataclasses` (with `inspect`, `ast`, `dis` and `tokenize`, about 10 ms
a process), and only the measure checks load `fractions`.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import patternkit
from patternkit.constructions import ApproxOracle, BiArrayFunctional
from patternkit import io
from patternkit.core import constant_coloring
from patternkit.io import (
    format_approx_oracle,
    format_biarray_oracle,
    format_coloring,
    format_tree,
)
from patternkit.stabilize import full_binary_tree

SRC = str(Path(patternkit.__file__).parents[1])
README = Path(__file__).parents[1] / "README.md"

# every name `patternkit` exported before its submodules were loaded lazily,
# with the submodule that defines it; `Census` left when census began
# yielding its rows, and `Embedding`, `embeddings` and `is_merging` because
# `is_subpattern` and `classify(p).merging` already give their answers
EXPORTS = {
    "core": [
        "FiniteColoring", "PartialColoring", "Pattern", "PatternError",
        "StableColoring", "avoids", "coloring_from_function", "constant_coloring",
        "dual", "find_realizer", "flip", "format_pattern", "is_subpattern", "minus",
        "parse_pattern", "pattern_from_colors", "realizes", "restrict",
        "strongly_appears", "strongly_realizes",
    ],
    "algebra": [
        "ClassificationFlags", "classify", "decompositions", "is_divergent",
        "is_i_merging", "is_irreducible", "join",
    ],
    "classifier": [
        "CensusRow", "ClassificationReport", "census", "enumerate_patterns",
        "preserves_omega_2dim", "preserves_omega_hyp", "preserves_one_2dim",
        "report", "subpatterns",
    ],
    "stabilize": [
        "BinaryTree", "Condition", "GreedySplit", "WindowExhausted",
        "extend_condition", "fg_avoids", "find_stabilizing_tail", "full_binary_tree",
        "greedy_avoid_join", "homogeneous_for_tree", "is_valid_condition",
        "max_avoiding_subset", "stabilizes", "tree_to_coloring",
    ],
    "constructions": [
        "ApproxOracle", "BiArrayFunctional", "ConstructionTrace", "PrefixFunctional",
        "TraceEvent", "VerifyReport", "age", "build_dnc_coloring",
        "build_measure_coloring", "build_stable_2dim_coloring", "cantor_pair",
        "cantor_unpair", "cover_measure", "h_bound", "index_pattern",
        "joint_meeting_measure", "oldest_blocks", "pattern_index",
        "requires_attention_measure", "verify_trace",
    ],
    "forcing": [
        "BoundedPredicate", "catalogue_predicate", "eval_question_disjunctive",
        "eval_question_i", "eval_question_omega", "least_bound",
    ],
    "lemmas": ["SUITES", "SuiteResult", "run_suites"],
}

# what `import patternkit.cli` loads: the parser, patterns and the file formats
STARTUP = {"patternkit", "patternkit.cli", "patternkit.core", "patternkit._kernels",
           "patternkit.io"}

# standard modules that no command's import path may load; every test below
# that compares loaded_after() with a set of patternkit modules also checks
# that none of these was loaded
SLOW = ("dataclasses", "inspect", "fractions")
LOADED = ("sorted(m for m in sys.modules if m == 'patternkit' "
          f"or m.startswith('patternkit.') or m in {SLOW!r})")


def loaded_after(code: str) -> set[str]:
    """The patternkit modules, and those of SLOW, that a fresh interpreter
    holds after running code, which must not print to stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    script = f"import json, sys\n{code}\nprint(json.dumps({LOADED}))"
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def cli_code(tmp_path, argv) -> str:
    """Code that runs the CLI on argv, with {oracle}, {biarray}, {coloring}
    and {tree} standing for small input files, and discards its stdout."""
    oracle = tmp_path / "oracle.txt"
    oracle.write_text(format_approx_oracle(ApproxOracle(((0, 0, frozenset(range(8))),))))
    biarray = tmp_path / "biarray.txt"
    biarray.write_text(format_biarray_oracle([BiArrayFunctional(
        ((0, 1, frozenset({2, 3})),), ((0, 3, 4, frozenset({5, 6})),))]))
    coloring = tmp_path / "coloring.txt"
    coloring.write_text(format_coloring(constant_coloring(8)))
    tree = tmp_path / "tree.txt"
    tree.write_text(format_tree(full_binary_tree(3)))
    argv = [a.format(oracle=oracle, biarray=biarray, coloring=coloring, tree=tree)
            for a in argv]
    return ("import contextlib, io\n"
            "from patternkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")


def package_imports(path: Path) -> set[str]:
    """The names a source file imports: `a.b` and `from a import b` give a and b."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for a in node.names for part in a.name.split(".")}
            names |= set((getattr(node, "module", None) or "").split("."))
    return names


def test_only_the_tests_import_the_oracle():
    # the brute-force oracle checks the package, so no module of it may run
    # the oracle, and the oracle may run none of the code it checks
    paths = {p.stem: p for p in (Path(SRC) / "patternkit").glob("*.py")}
    assert [m for m, p in paths.items() if m != "oracle" and "oracle" in package_imports(p)] == []
    assert not package_imports(paths["oracle"]) & {
        "_kernels", "algebra", "classifier", "stabilize", "forcing", "constructions", "lemmas"}


def test_package_import_loads_no_submodule():
    assert loaded_after("import patternkit") == {"patternkit"}


def test_cli_import_loads_only_core_and_io():
    assert loaded_after("import patternkit.cli") == STARTUP


@pytest.mark.parametrize("argv, modules", [
    (["simulate", "dnc", "{oracle}", "--stages", "20"], {"constructions"}),
    (["avoid-search", "{coloring}", "3:010"], {"stabilize"}),
    (["tree2col", "{tree}", "--window", "4"], {"stabilize"}),
    (["force-eval", "omega", "{coloring}", "3:111", "size>=3", "--bound", "4"],
     {"forcing"}),
    (["census", "3"], {"classifier", "algebra"}),
    (["verify-lemmas", "--count", "5"], {"lemmas", "stabilize", "algebra"}),
], ids=["simulate-dnc", "avoid-search", "tree2col", "force-eval", "census", "verify-lemmas"])
def test_command_loads_only_its_modules(tmp_path, argv, modules):
    assert loaded_after(cli_code(tmp_path, argv)) == \
        STARTUP | {f"patternkit.{m}" for m in modules}


@pytest.mark.parametrize("argv", [
    ["simulate", "stable2dim", "{biarray}", "--stages", "12"],
    ["verify-lemmas", "--count", "5"],
], ids=["simulate-stable2dim", "verify-lemmas"])
def test_command_loads_no_dataclasses(tmp_path, argv):
    assert not loaded_after(cli_code(tmp_path, argv)) & {"dataclasses", "inspect"}


def test_oracle_parsers_load_no_fractions():
    code = ("from patternkit import io\n"
            "io.parse_approx_oracle('0 0 1,2')\n"
            "io.parse_measure_oracle('functional 3:010\\n- 0 1')\n"
            "io.parse_biarray_oracle('functional\\nE 0 1 2\\nF 0 1 2 3')")
    assert loaded_after(code) == STARTUP - {"patternkit.cli"} | {"patternkit.constructions"}


def test_every_export_resolves_to_its_submodule_object():
    names = {name: module for module, ns in EXPORTS.items() for name in ns}
    assert sorted(patternkit.__all__) == sorted(names)
    star: dict = {}
    exec("from patternkit import *", star)
    for name, module in names.items():
        obj = getattr(importlib.import_module(f"patternkit.{module}"), name)
        assert getattr(patternkit, name) is obj, name
        assert star[name] is obj, name
    assert set(names) <= set(dir(patternkit))


def test_unknown_name_raises_attribute_error():
    import patternkit.cli

    with pytest.raises(AttributeError, match="no_such_name"):
        patternkit.no_such_name
    with pytest.raises(AttributeError):
        patternkit.cli.no_such_name
    with pytest.raises(ImportError):
        exec("from patternkit import no_such_name", {})


def test_names_are_read_through_on_every_access(monkeypatch):
    # a tracer patches a submodule's attribute and restores it; the package
    # and cli must answer with whatever the submodule holds at that moment
    import patternkit.cli
    import patternkit.constructions as constructions

    original = constructions.build_dnc_coloring

    def stand_in(*args):
        return original(*args)

    monkeypatch.setattr(constructions, "build_dnc_coloring", stand_in)
    assert patternkit.build_dnc_coloring is stand_in
    assert patternkit.cli.build_dnc_coloring is stand_in
    monkeypatch.undo()
    assert patternkit.build_dnc_coloring is original
    assert patternkit.cli.build_dnc_coloring is original


def outside_references() -> set[tuple[str, str]]:
    """(module, name) for each name that a package module reads from another
    one: `from .module import name`, or `alias.name` after `from . import
    module as alias`.  The oracle is left out: it checks the package, so
    what it reads is no caller."""
    refs = set()
    for path in (Path(SRC) / "patternkit").glob("*.py"):
        if path.stem == "oracle":
            continue
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        refs.add((path.stem, node.module, a.name))
                    else:
                        aliases[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((path.stem, aliases[node.value.id], node.attr))
    return {(module, name) for caller, module, name in refs if caller != module}


def readme_uncalled_section() -> str:
    """README's list of the public names that no other module calls."""
    return README.read_text().split("### Names no other module calls\n", 1)[1] \
        .split("\n#", 1)[0]


def test_every_public_name_has_a_caller_or_a_readme_line():
    # a public name is exported, or a function io defines; one that no other
    # module calls must have a README line saying why it stays, and a name
    # with a caller must not keep one
    public = {(m, n) for m, ns in patternkit._EXPORTS.items() for n in ns}
    public |= {("io", n) for n, v in vars(io).items()
               if not n.startswith("_") and getattr(v, "__module__", None) == io.__name__}
    uncalled = sorted(n for m, n in public - outside_references())
    listed = [n for item in readme_uncalled_section().split("\n- ")[1:]
              for n in re.findall(r"`(\w+)`", item.partition("`:")[0] + "`")]
    assert sorted(listed) == uncalled


def test_readme_lines_name_tests_that_exist():
    for path, chain in re.findall(r"`(tests/test_\w+\.py)((?:::\w+)*)`",
                                  readme_uncalled_section()):
        body = ast.parse((README.parent / path).read_text()).body
        for name in chain.split("::")[1:]:
            node = next((n for n in body if getattr(n, "name", None) == name), None)
            assert node is not None, f"{path}{chain}"
            body = node.body
