"""In-process span tracer for the benchmark's traced pass.

`Tracer.install()` wraps each function in TARGETS at every patternkit module
attribute that refers to it, so names imported elsewhere (for example
`patternkit.classifier.classify`) are traced too, and it wraps each lemma
suite in `lemmas.SUITES`.  Every call records one span: name, start, end,
parent span and run id.  Spans stay in memory as parallel arrays until the
caller writes them out; `uninstall()` restores the originals.

A span's self time is its duration minus the durations of its child spans,
so the self times of a root span's subtree add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

# (module under patternkit, attribute or Class.method, span name)
TARGETS = (
    ("io", "parse_coloring", "io.parse"),
    ("io", "parse_stable_coloring", "io.parse"),
    ("io", "parse_approx_oracle", "io.parse"),
    ("io", "parse_measure_oracle", "io.parse"),
    ("io", "parse_biarray_oracle", "io.parse"),
    ("io", "parse_tree", "io.parse"),
    ("io", "format_coloring", "io.format"),
    ("io", "format_stable_coloring", "io.format"),
    ("io", "trace_records", "io.format"),
    ("core", "pattern_from_colors", "core.pattern_from_colors"),
    ("core", "find_realizer", "core.find_realizer"),
    ("_kernels", "lex_least_realizer", "kernels.lex_least_realizer"),
    ("_kernels", "max_avoiding_elems", "kernels.max_avoiding_elems"),
    ("algebra", "classify", "algebra.classify"),
    ("algebra", "decompositions", "algebra.decompositions"),
    ("algebra", "join", "algebra.join"),
    ("classifier", "subpatterns", "classifier.subpatterns"),
    ("classifier", "preserves_omega_hyp", "classifier.verdicts"),
    ("classifier", "preserves_one_2dim", "classifier.verdicts"),
    ("classifier", "preserves_omega_2dim", "classifier.verdicts"),
    ("stabilize", "fg_avoids", "stabilize.fg_avoids"),
    ("stabilize", "max_avoiding_subset", "stabilize.max_avoiding_subset"),
    ("constructions", "h_bound", "constructions.h_bound"),
    ("constructions", "index_pattern", "constructions.index_pattern"),
    ("constructions", "ApproxOracle.query", "constructions.oracle_query"),
    ("constructions", "oldest_blocks", "constructions.oldest_blocks"),
    ("constructions", "build_dnc_coloring", "constructions.build_dnc"),
    ("constructions", "build_measure_coloring", "constructions.build_measure"),
    ("constructions", "build_stable_2dim_coloring", "constructions.build_stable2dim"),
    ("constructions", "verify_trace", "constructions.verify_trace"),
    ("forcing", "eval_question_omega", "forcing.eval_omega"),
    ("forcing", "eval_question_i", "forcing.eval_i"),
    ("forcing", "eval_question_disjunctive", "forcing.eval_disjunctive"),
)

# caches whose cache_info() gives a hit rate: metric prefix -> (module, attribute)
CACHES = {
    "kernels.pattern_matrix": ("_kernels", "_pattern_matrix"),
    "algebra.classify": ("algebra", "classify"),
    "classifier.subpatterns": ("classifier", "subpatterns"),
}

ROOT = "cli"


def patternkit_module(name: str):
    return importlib.import_module(f"patternkit.{name}")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("L")

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, span: str, fn):
        """fn with one span recorded per call."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target wherever a patternkit module refers to it."""
        for mod_name, attr, span in TARGETS:
            mod = patternkit_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(span, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(span, orig)
            for other in [m for k, m in sys.modules.items()
                          if k == "patternkit" or k.startswith("patternkit.")]:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, key, traced)
        suites = patternkit_module("lemmas").SUITES
        for name in list(suites):
            traced = self.wrap(f"lemmas.{name}", suites[name])
            self._restore.append((suites, name, suites[name]))
            suites[name] = traced

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        n = len(self.name)
        out = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self time; plus rho_tests, the
        fg_avoids calls made under a forcing evaluator span."""
        selfs = self.self_times()
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        forcing = {i for i, nm in enumerate(self.names) if nm.startswith("forcing.")}
        fg = self._ids.get("stabilize.fg_avoids", -1)
        under = bytearray(len(self.name))
        rho_tests = 0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if p >= 0 and (under[p] or self.name[p] in forcing):
                under[i] = 1
                if nid == fg:
                    rho_tests += 1
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_s"] += selfs[i]
        out["forcing.rho_tests"] = {"calls": rho_tests}
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: index, name, start, end, parent index, run id."""
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,run\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.run[i]}\n")
