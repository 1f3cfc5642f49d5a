"""Command-line surface.

Every command prints deterministic output for a fixed (argv, input files,
seed) triple: no timestamps or timing land on stdout, so golden files can be
compared byte-for-byte.  The --format flag switches between a human-oriented
text layout and one-record-per-line key:value output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import PatternError, format_pattern, integer, parse_pattern
from . import io as pio
# each command imports the module it runs; patternkit.cli.<name> still
# resolves every public name, through the package's one export table
from . import __getattr__  # noqa: F401


def _flags_record(fl) -> dict:
    return {
        "divergent": int(fl.divergent),
        "irreducible": int(fl.irreducible),
        "merging0": int(fl.merging0),
        "merging1": int(fl.merging1),
    }


def _yn(b: bool) -> str:
    return "yes" if b else "no"


CENSUS_CHUNK = 4096  # census records per write


def _write_out(text: str) -> None:
    """Write text to stdout in full, or raise BrokenPipeError.

    Under PYTHONUNBUFFERED, sys.stdout writes through to a raw FileIO.  When
    the reader leaves during a large write, the write takes only part of the
    bytes, and TextIOWrapper drops the rest without an error.  So the bytes go
    to the byte layer here until it has taken them all; a stream with no byte
    layer, such as io.StringIO, takes all of text at once."""
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


# ---------------------------------------------------------------------------
# commands


def _read(path: str) -> str:
    """Text of an input file; a missing or unreadable one is a user error."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise PatternError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise PatternError(f"cannot read {path!r}: not a text file") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise PatternError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _int_list(text: str, option: str) -> list[int]:
    """Sorted integers of a comma-separated option value; empty text gives []."""
    try:
        return sorted(map(integer, text.split(","))) if text else []
    except PatternError:
        raise PatternError(f"{option} must be comma-separated integers, got {text!r}") from None


def cmd_classify(args) -> int:
    from .classifier import report

    p = parse_pattern(args.pattern)
    rep = report(p)
    if args.format == "records":
        rec = {"pattern": format_pattern(p)}
        rec.update(_flags_record(rep.flags))
        rec.update({
            "omega_hyp": int(rep.verdict_omega_hyp),
            "one_2dim": int(rep.verdict_one_2dim),
            "omega_2dim": int(rep.verdict_omega_2dim),
        })
        rec.update({f"witness_{k}": v for k, v in sorted(rep.witnesses.items())})
        print(pio.emit_record(rec))
        return 0
    fl = rep.flags
    print(f"pattern {format_pattern(p)}")
    print(f"  divergent:   {_yn(fl.divergent)}")
    print(f"  irreducible: {_yn(fl.irreducible)}")
    print(f"  0-merging:   {_yn(fl.merging0)}")
    print(f"  1-merging:   {_yn(fl.merging1)}")
    print(f"  omega-hyp:   {_yn(rep.verdict_omega_hyp)}")
    print(f"  one-2dim:    {_yn(rep.verdict_one_2dim)}")
    print(f"  omega-2dim:  {_yn(rep.verdict_omega_2dim)}")
    for key in sorted(rep.witnesses):
        print(f"  witness {key}: {rep.witnesses[key]}")
    return 0


def cmd_census(args) -> int:
    from .classifier import census

    # census always decides the verdicts; --no-verdicts only leaves them out
    verdicts = not args.no_verdicts
    rows = census(args.size)
    if args.format == "records":
        # a record is its pattern, then the text of the row's flags and
        # verdicts: one of 128, each laid out as emit_record lays out
        # _flags_record and cmd_classify's verdicts
        import itertools

        names = ("divergent", "irreducible", "merging0", "merging1",
                 "omega_hyp", "one_2dim", "omega_2dim")[:7 if verdicts else 4]
        fields = {(values[:4], *values[4:]):
                  "".join(f" {name}:{v}" for name, v in zip(names, values)) + "\n"
                  for values in itertools.product((0, 1), repeat=7)}
        chunk = []
        for row in rows:
            chunk.append(f"pattern:{format_pattern(row[0])}{fields[row[1:]]}")
            if len(chunk) == CENSUS_CHUNK:
                _write_out("".join(chunk))
                chunk.clear()
        _write_out("".join(chunk))
        return 0
    # one pass: each row adds to the counts and, if divergent and irreducible, the list
    names = ("divergent", "irreducible", "divergent+irreducible", "merging",
             "omega_hyp", "one_2dim", "omega_2dim")
    total, counts, div_irr = 0, [0] * len(names), []
    for row in rows:
        fl = row.flags
        hits = (fl.divergent, fl.irreducible, fl.divergent and fl.irreducible, fl.merging,
                row.omega_hyp, row.one_2dim, row.omega_2dim)
        total, counts = total + 1, [c + h for c, h in zip(counts, hits)]
        if hits[2]:
            div_irr.append(format_pattern(row.pattern))
    out = [f"census size={args.size} total={total}"]
    out += [f"  {name + ':':<25}{n}" for name, n in zip(names[:4], counts)]
    if verdicts:
        out += [f"  {name}: {n}" for name, n in zip(names[4:], counts[4:])]
    if div_irr:
        out.append("  divergent+irreducible patterns: " + " ".join(div_irr))
    _write_out("\n".join(out) + "\n")
    return 0


def cmd_decompose(args) -> int:
    from .algebra import decompositions

    p = parse_pattern(args.pattern)
    ds = decompositions(p)
    if args.format == "records":
        for left, right in ds:
            print(pio.emit_record({
                "pattern": format_pattern(p),
                "left": format_pattern(left),
                "right": format_pattern(right),
            }))
        if not ds:
            print(pio.emit_record({"pattern": format_pattern(p), "irreducible": 1}))
        return 0
    if not ds:
        print(f"{format_pattern(p)} is irreducible")
    for left, right in ds:
        print(f"{format_pattern(p)} = {format_pattern(left)} + {format_pattern(right)}")
    return 0


def cmd_join(args) -> int:
    from .algebra import join

    ps = [parse_pattern(t) for t in args.patterns]
    out = ps[0]
    for q in ps[1:]:
        out = join(out, q)
    print(format_pattern(out))
    return 0


def cmd_subpatterns(args) -> int:
    from .classifier import subpatterns

    p = parse_pattern(args.pattern)
    subs = sorted(subpatterns(p, args.mode))
    for q in subs:
        print(format_pattern(q))
    return 0


def cmd_avoid_search(args) -> int:
    from .stabilize import max_avoiding_subset

    f = pio.parse_coloring(_read(args.coloring))
    p = parse_pattern(args.pattern)
    W = _int_list(args.elements, "--elements") or list(range(f.window))
    best = max_avoiding_subset(f, W, p)
    rec = {
        "pattern": format_pattern(p),
        "window": f.window,
        "size": len(best),
        "elements": ",".join(map(str, sorted(best))) or "-",
    }
    if args.format == "records":
        print(pio.emit_record(rec))
    else:
        print(f"maximum {format_pattern(p)}-avoiding subset "
              f"(size {len(best)}): {sorted(best)}")
    return 0


def cmd_simulate(args) -> int:
    from .constructions import (
        build_dnc_coloring,
        build_measure_coloring,
        build_stable_2dim_coloring,
        verify_trace,
    )

    text = _read(args.oracle)
    if args.kind == "dnc":
        oracle = pio.parse_approx_oracle(text)
        f, trace = build_dnc_coloring(oracle, args.stages)
        coloring_text = pio.format_coloring(f)
    elif args.kind == "measure":
        fns, patterns = pio.parse_measure_oracle(text)
        f, trace = build_measure_coloring(fns, patterns, args.stages)
        coloring_text = pio.format_coloring(f)
    else:  # stable2dim, the last of the parser's choices
        bs = pio.parse_biarray_oracle(text)
        f, trace = build_stable_2dim_coloring(bs, args.stages)
        coloring_text = pio.format_stable_coloring(f)
    rep = verify_trace(trace, f)
    trace_text = "\n".join(pio.trace_records(trace)) + "\n"
    if args.coloring_out:
        _write(args.coloring_out, coloring_text)
    if args.trace_out:
        _write(args.trace_out, trace_text)
    checks = []
    for res in rep.results:
        rec = {"check": res.name, "passed": int(res.passed)}
        if res.stage is not None:
            rec["stage"] = res.stage
        if res.message:
            rec["note"] = res.message.replace(" ", "_")
        checks.append(pio.emit_record(rec) + "\n")
    _write_out("".join(checks))
    if not args.coloring_out:
        _write_out(coloring_text)
    if not args.trace_out:
        _write_out(trace_text)  # one write for thousands of lines
    return 0 if rep.passed else 1


def cmd_force_eval(args) -> int:
    from .forcing import (
        catalogue_predicate,
        eval_question_disjunctive,
        eval_question_i,
        eval_question_omega,
        least_bound,
    )

    if args.kind != "disjunctive":
        for option in ("stem1", "pattern1", "predicate1"):
            if getattr(args, option) is not None:
                raise PatternError(f"--{option} applies only to the disjunctive question")
    if args.least_bound is not None and args.bound is not None:
        raise PatternError("--bound and --least-bound exclude each other")
    f = pio.parse_coloring(_read(args.coloring))
    X = _int_list(args.reservoir, "--reservoir")
    stem = _int_list(args.stem, "--stem")
    p = parse_pattern(args.pattern)
    phi = catalogue_predicate(args.predicate, f)

    if args.kind == "omega":
        def run(n):
            return eval_question_omega(f, stem, X, p, phi, n, collect_failure=True)
    elif args.kind == "i":
        def run(n):
            return eval_question_i(f, stem, X, p, phi, n, collect_failure=True)
    else:  # disjunctive, the last of the parser's choices
        stem1 = _int_list(args.stem1 or "", "--stem1")
        p1 = parse_pattern(args.pattern1) if args.pattern1 else p
        phi1 = catalogue_predicate(args.predicate1, f) if args.predicate1 else phi

        def run(n):
            return eval_question_disjunctive(f, stem, stem1, X, p, p1, phi, phi1,
                                             n, collect_failure=True)

    if args.least_bound is not None:
        n = least_bound(lambda nn: run(nn)[0], args.least_bound)
        rec = {"question": args.kind, "least_bound": n if n is not None else "-"}
        print(pio.emit_record(rec))
        return 0
    bound = args.bound or 0
    verdict, failure = run(bound)
    rec = {"question": args.kind, "bound": bound, "verdict": int(verdict)}
    if failure is not None:
        if args.kind == "i":
            h0, h1 = failure
            rec["failing_h0"] = "".join(str(h0[x]) for x in sorted(h0))
            rec["failing_h1"] = "".join(str(h1[x]) for x in sorted(h1))
        else:
            rec["failing_g"] = "".join(str(failure[x]) for x in sorted(failure))
    print(pio.emit_record(rec))
    return 0


def cmd_tree2col(args) -> int:
    from .stabilize import tree_to_coloring

    tree = pio.parse_tree(_read(args.tree))
    f = tree_to_coloring(tree, args.window)
    _write_out(pio.format_coloring(f))
    return 0


def cmd_verify_lemmas(args) -> int:
    from .lemmas import run_suites

    names = args.suites.split(",") if args.suites is not None else None
    if names is not None and "" in names:
        raise PatternError(f"empty entry {names.index('') + 1} in --suites "
                           f"{args.suites!r}")
    results = run_suites(seed=args.seed, count=args.count, names=names)
    failed = False
    for res in results:
        status = ("skip" if res.skipped else "exhausted" if res.exhausted
                  else "pass" if res.passed else "FAIL")
        rec = {"suite": res.name, "runs": res.runs, "status": status,
               "seed": args.seed}
        print(pio.emit_record(rec))
        for ce in res.counterexamples:
            print(pio.emit_record({"suite": res.name,
                                   "counterexample": ce.replace(" ", "_")}))
        failed = failed or not res.passed
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit status 2, like a PatternError."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        # quoted, so that a newline in an extra argument stays on the line
        namespace, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(map(repr, extra))}")
        return namespace


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="patternkit",
        description="Pattern calculus for Ramsey-like pair colorings: "
                    "classification, constructions, forcing questions.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "records"), default="text")

    sp = sub.add_parser("classify", help="classify a pattern and its sub-patterns")
    sp.add_argument("pattern")
    add_format(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("census", help="classify every pattern of a given size")
    sp.add_argument("size", type=integer)
    sp.add_argument("--no-verdicts", action="store_true")
    add_format(sp)
    sp.set_defaults(fn=cmd_census)

    sp = sub.add_parser("decompose", help="all splits of a pattern into joins")
    sp.add_argument("pattern")
    add_format(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("join", help="join two or more patterns left to right")
    sp.add_argument("patterns", nargs="+")
    sp.set_defaults(fn=cmd_join)

    sp = sub.add_parser("subpatterns", help="all sub-patterns of a pattern")
    sp.add_argument("pattern")
    sp.add_argument("--mode", choices=("injective", "monotone"), default="injective")
    sp.set_defaults(fn=cmd_subpatterns)

    sp = sub.add_parser("avoid-search",
                        help="maximum avoiding subset of a coloring window")
    sp.add_argument("coloring", help="coloring file")
    sp.add_argument("pattern")
    sp.add_argument("--elements", default="",
                    help="comma-separated subset of the window (default: all)")
    add_format(sp)
    sp.set_defaults(fn=cmd_avoid_search)

    sp = sub.add_parser("simulate", help="run a priority-construction builder")
    sp.add_argument("kind", choices=("dnc", "measure", "stable2dim"))
    sp.add_argument("oracle", help="oracle table file")
    sp.add_argument("--stages", type=integer, required=True)
    sp.add_argument("--coloring-out", default="")
    sp.add_argument("--trace-out", default="")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("force-eval", help="evaluate a forcing question")
    sp.add_argument("kind", choices=("omega", "i", "disjunctive"))
    sp.add_argument("coloring", help="coloring file")
    sp.add_argument("pattern")
    sp.add_argument("predicate", help="true|false|size>=K|contains:V|homogeneous:C[:MIN]")
    sp.add_argument("--stem", default="")
    sp.add_argument("--stem1", help="disjunctive only")
    sp.add_argument("--pattern1", help="disjunctive only")
    sp.add_argument("--predicate1", help="disjunctive only")
    sp.add_argument("--reservoir", default="", help="comma-separated reservoir")
    sp.add_argument("--bound", type=integer, help="default 0; not with --least-bound")
    sp.add_argument("--least-bound", type=integer, default=None)
    sp.set_defaults(fn=cmd_force_eval)

    sp = sub.add_parser("tree2col", help="leftmost-path coloring of a binary tree")
    sp.add_argument("tree", help="tree file, one binary string per line")
    sp.add_argument("--window", type=integer, required=True)
    sp.set_defaults(fn=cmd_tree2col)

    sp = sub.add_parser("verify-lemmas", help="run the law-checking suites", description=(
        "A sampled suite that draws 100 instances per requested run without accepting "
        "--count of them stops with status 'exhausted', which fails the run."))
    sp.add_argument("--seed", type=integer, default=0, help="nonnegative (default 0)")
    sp.add_argument("--count", type=integer, default=2000,
                    help="accepted runs for each of the six sampled suites (duality "
                         "stops at 2,000); the three sweeps always check 33,866 / "
                         "33,864 / 1,099 patterns (default: %(default)s)")
    sp.add_argument("--suites", help="comma-separated suite names (default: all nine)")
    sp.set_defaults(fn=cmd_verify_lemmas)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except PatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
