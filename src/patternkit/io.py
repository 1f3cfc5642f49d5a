"""Flat-file formats: colorings, trees, oracle tables, and line-oriented
structured records.

Formats are plain text and deterministic, so golden files can be compared
byte-for-byte.  A coloring file starts with the window size, followed by one
row per vertex listing its colors toward all larger vertices; a stable
coloring appends a final line with one declared limit bit per vertex.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from .core import FiniteColoring, Pattern, PatternError, StableColoring, integer, parse_pattern

# the parsers that build these types import them when called, so reading a
# coloring or a record loads neither the builders nor the stabilizer
if TYPE_CHECKING:
    from .constructions import (
        ApproxOracle,
        BiArrayFunctional,
        ConstructionTrace,
        PrefixFunctional,
    )
    from .stabilize import BinaryTree


# ---------------------------------------------------------------------------
# colorings


def format_coloring(f: FiniteColoring) -> str:
    # character y of the reversed binary form of rows[x] is f(x, y)
    rows = [format(r, f"0{f.window}b")[::-1][x + 1:] for x, r in enumerate(f.rows[:-1])]
    return "\n".join([str(f.window), *rows]) + "\n"


def format_stable_coloring(sc: StableColoring) -> str:
    return format_coloring(sc.base) + "".join(str(b) for b in sc.limit) + "\n"


def _parse_coloring_lines(lines: list[str]) -> tuple[FiniteColoring, list[str]]:
    if not lines:
        raise PatternError("empty coloring file")
    window = integer(lines[0], "window size")
    if window < 0:
        raise PatternError(f"bad window size {lines[0]!r}")
    need = max(window - 1, 0)
    rows = lines[1:1 + need]
    if len(rows) < need:
        raise PatternError(f"expected {need} rows for window {window}")
    for x, row in enumerate(rows):
        if len(row) != window - 1 - x or row.strip("01"):
            raise PatternError(f"bad row {x}: {row!r}")
    # row x padded to the window (the last vertex has no pair above it);
    # the columns of these strings give the pairs below the diagonal
    upper = ["0" * (x + 1) + row for x, row in enumerate(rows)] + ["0" * window]
    lower = map("".join, zip(*upper))
    f = FiniteColoring(window, tuple(int(u[::-1], 2) | int(v[::-1], 2)
                                     for u, v in zip(upper, lower)))
    return f, lines[1 + need:]


def parse_coloring(text: str) -> FiniteColoring:
    f, rest = _parse_coloring_lines([l for l in text.splitlines() if l.strip() != ""])
    if rest:
        raise PatternError("trailing content after coloring rows")
    return f


def parse_stable_coloring(text: str) -> StableColoring:
    f, rest = _parse_coloring_lines([l for l in text.splitlines() if l.strip() != ""])
    if len(rest) != 1:
        raise PatternError("stable coloring needs exactly one limit line")
    limits = rest[0]
    if len(limits) != f.window or limits.strip("01"):
        raise PatternError(f"bad limit line {limits!r}")
    return StableColoring(f, tuple(int(b) for b in limits))


# ---------------------------------------------------------------------------
# trees


def format_tree(t: BinaryTree) -> str:
    return "\n".join(sorted(t.nodes, key=lambda s: (len(s), s))) + "\n"


def parse_tree(text: str) -> BinaryTree:
    from .stabilize import BinaryTree

    nodes = {line.strip() for line in text.splitlines()}
    return BinaryTree(frozenset(nodes))


# ---------------------------------------------------------------------------
# oracle tables


def _format_elems(elems: Iterable[int]) -> str:
    es = sorted(elems)
    return ",".join(map(str, es)) if es else "-"


def _entry(line: str, fields: list[str]) -> tuple:
    """An oracle entry's integer fields, then the set its last field lists:
    comma-separated elements, or '-' for none.  Every field and element is
    an index, a stage or a vertex, so none may be negative."""
    *heads, last = fields
    try:
        numbers = [integer(t) for t in heads]
        elems = [integer(t) for t in last.split(",")] if last != "-" else []
    except PatternError:
        raise PatternError(f"non-integer field in oracle line {line!r}") from None
    if min(numbers + elems) < 0:
        raise PatternError(f"negative field in oracle line {line!r}")
    return (*numbers, frozenset(elems))


def format_approx_oracle(o: ApproxOracle) -> str:
    lines = [f"{e} {s0} {_format_elems(elems)}"
             for e, s0, elems in sorted(o.entries)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_approx_oracle(text: str) -> ApproxOracle:
    from .constructions import ApproxOracle

    entries = []
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise PatternError(f"bad enumeration entry {line!r}")
        entries.append(_entry(line, parts))
    return ApproxOracle(tuple(entries))


def _content_lines(text: str) -> list[str]:
    return [l.strip() for l in text.splitlines()
            if l.strip() and not l.lstrip().startswith("#")]


def format_measure_oracle(fns: list[PrefixFunctional], patterns: list[Pattern]) -> str:
    lines = []
    for fn, p in zip(fns, patterns):
        lines.append(f"functional {p}")
        for tau, s0, elems in fn.entries:
            lines.append(f"{tau or '-'} {s0} {_format_elems(elems)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _functional_blocks(text: str, header: Optional[Callable[[str], object]],
                       entry: Callable[[str, list[str]], tuple]) -> list[tuple]:
    """Split an oracle file into its `functional` blocks, as (header value,
    entries) pairs. With a `header` parser a header line is `functional FIELD`
    and its value header(FIELD); without one it is `functional` alone and its
    value None. entry(line, parts) parses each line after the header."""
    blocks: list[tuple[object, list]] = []
    for line in _content_lines(text):
        parts = line.split()
        if parts[0] == "functional":
            if len(parts) != (1 if header is None else 2):
                raise PatternError(f"bad functional header {line!r}")
            blocks.append((None if header is None else header(parts[1]), []))
        elif not blocks:
            raise PatternError("entry before any functional header")
        else:
            blocks[-1][1].append(entry(line, parts))
    return blocks


def parse_measure_oracle(text: str) -> tuple[list[PrefixFunctional], list[Pattern]]:
    from .constructions import PrefixFunctional

    def entry(line: str, parts: list[str]):
        if len(parts) != 3:
            raise PatternError(f"bad prefix entry {line!r}")
        tau = "" if parts[0] == "-" else parts[0]
        return (tau, *_entry(line, parts[1:]))

    blocks = _functional_blocks(text, parse_pattern, entry)
    return ([PrefixFunctional(tuple(entries)) for _, entries in blocks],
            [p for p, _ in blocks])


def format_biarray_oracle(bs: list[BiArrayFunctional]) -> str:
    lines = []
    for fn in bs:
        lines.append("functional")
        for n, s0, elems in fn.primary:
            lines.append(f"E {n} {s0} {_format_elems(elems)}")
        for n, m, s0, elems in fn.secondary:
            lines.append(f"F {n} {m} {s0} {_format_elems(elems)}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_biarray_oracle(text: str) -> list[BiArrayFunctional]:
    from .constructions import BiArrayFunctional

    def entry(line: str, parts: list[str]):
        if (parts[0], len(parts)) not in (("E", 4), ("F", 5)):
            raise PatternError(f"bad bi-array entry {line!r}")
        return _entry(line, parts[1:])

    # an E entry is (n, s0, elems), an F entry (n, m, s0, elems)
    return [BiArrayFunctional(tuple(e for e in entries if len(e) == 3),
                              tuple(e for e in entries if len(e) == 4))
            for _, entries in _functional_blocks(text, None, entry)]


# ---------------------------------------------------------------------------
# structured records: one record per line, whitespace-separated key:value pairs


def emit_record(pairs: Mapping[str, object]) -> str:
    toks = []
    for k, v in pairs.items():
        sv = str(v)
        if " " in sv or " " in k or not k:
            raise PatternError(f"record field {k!r}={sv!r} contains whitespace")
        toks.append(f"{k}:{sv}")
    return " ".join(toks)


def parse_record(line: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in line.split():
        k, sep, v = tok.partition(":")
        if not sep or not k:
            raise PatternError(f"bad record token {tok!r}")
        out[k] = v
    return out


def trace_records(trace: ConstructionTrace) -> list[str]:
    lines = [emit_record({"builder": trace.builder, "stages": trace.stages})]
    for ev in trace.events:
        rec = {"stage": ev.stage, "event": ev.kind, "req": ev.requirement}
        rec.update(dict(ev.detail))
        lines.append(emit_record(rec))
    return lines


def parse_trace_records(text: str) -> list[dict[str, str]]:
    return [parse_record(line) for line in _content_lines(text)]
