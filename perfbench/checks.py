"""Output checks for one CLI invocation.

An invocation fails when it exits nonzero, when its stdout checksum differs
from the reference, or when its output fails the check named by the
invocation (see workloads.Invocation.check).  The checks are cheap: they
re-verify an answer (an avoiding set avoids, a failing coloring has no
witness) rather than recompute it.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

from workloads import Invocation


def checksum(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def _records(text: str) -> list[dict[str, str]]:
    from patternkit import io as pio

    return [pio.parse_record(line) for line in text.splitlines()]


def _check_census(inv: Invocation, text: str) -> list[str]:
    recs = _records(text)
    if len(recs) != inv.data["rows"]:
        return [f"{len(recs)} census rows, expected {inv.data['rows']}"]
    keys = ("pattern", "divergent", "irreducible", "merging0", "merging1",
            "omega_hyp", "one_2dim", "omega_2dim")
    if any(tuple(r) != keys for r in recs):
        return ["census record with unexpected fields"]
    return []


def _check_simulate(inv: Invocation, text: str) -> list[str]:
    # stdout: the check records, the coloring, then the trace records
    lines = text.splitlines()
    checks = _records("\n".join(lines[:5]))
    if [r.get("check") for r in checks] != ["restraints", "commitments", "p1", "p2",
                                             "finite-actions"]:
        return ["trace check records missing"]
    problems = [f"trace check {r['check']} failed" for r in checks if r["passed"] != "1"]
    kind, stages = inv.argv[1], int(inv.argv[inv.argv.index("--stages") + 1])
    rows = [l for l in lines[6:6 + stages - 1]]
    if lines[5] != str(stages) or [len(r) for r in rows] != list(range(stages - 1, 0, -1)):
        problems.append("coloring rows malformed")
    rest = lines[5 + stages + (kind == "stable2dim"):]
    if not rest or rest[0] != f"builder:{kind} stages:{stages}":
        return problems + ["trace header missing"]
    events = _records("\n".join(rest[1:]))
    if any(not {"stage", "event", "req"} <= set(r) or int(r["stage"]) >= stages
           for r in events):
        problems.append("malformed trace event")
    # the generated measure and bi-array oracles make requirements injure
    # each other, so the finite-injury path is always timed
    if kind != "dnc" and not any(r.get("event") == "injury" for r in events):
        problems.append("no injury in a finite-injury construction")
    return problems


def _coloring(path: str):
    from patternkit import io as pio

    return pio.parse_coloring(Path(path).read_text())


def _check_avoid(inv: Invocation, text: str) -> list[str]:
    from patternkit.core import avoids, parse_pattern

    (rec,) = _records(text)
    p = parse_pattern(rec["pattern"])
    if rec["pattern"] != inv.data["pattern"]:
        return [f"answered for pattern {rec['pattern']}"]
    elems = [] if rec["elements"] == "-" else [int(x) for x in rec["elements"].split(",")]
    allowed = {int(x) for x in inv.argv[inv.argv.index("--elements") + 1].split(",")}
    if int(rec["size"]) != len(elems) or not set(elems) <= allowed:
        return ["avoiding set does not match its size or window"]
    if not avoids(_coloring(inv.data["coloring"]), elems, p):
        return [f"answer {elems} does not avoid {rec['pattern']}"]
    return []


def _witnessed(f, stem, Xn, p, phi, colorings, homogeneous) -> bool:
    """Some rho in Xn is witnessed-avoiding under the first coloring (and
    homogeneous for all of them, for the i-question) and makes phi fire."""
    from patternkit.core import PartialColoring
    from patternkit.stabilize import fg_avoids

    gs = [PartialColoring({x: c[x] for x in Xn}) for c in colorings]
    for k in range(len(Xn) + 1):
        for rho in itertools.combinations(Xn, k):
            if homogeneous and any(len({g(x) for x in rho}) > 1 for g in gs):
                continue
            if fg_avoids(f, gs[0], rho, p) and phi.satisfied_by(set(stem) | set(rho)):
                return True
    return False


def _check_force(inv: Invocation, text: str) -> list[str]:
    from patternkit.core import parse_pattern
    from patternkit.forcing import catalogue_predicate

    (rec,) = _records(text)
    d = inv.data
    failing = [k for k in rec if k.startswith("failing_")]
    if rec["question"] != d["kind"] or rec["verdict"] not in ("0", "1"):
        return ["malformed forcing record"]
    if rec["verdict"] == "1":
        return ["true verdict with a failing coloring"] if failing else []
    if not failing:
        return ["false verdict without a failing coloring"]
    f = _coloring(d["coloring"])
    n = d["bound"]
    Xn = [x for x in d["reservoir"] if x <= n]
    decode = lambda key: [int(b) for b in rec[key]]  # noqa: E731
    if any(len(rec[k]) != n + 1 for k in failing):
        return ["failing coloring does not cover [0, bound]"]
    if d["kind"] == "omega":
        sides = [(d["stem"], d["pattern"], d["predicate"], [decode("failing_g")], False)]
    elif d["kind"] == "i":
        sides = [(d["stem"], d["pattern"], d["predicate"],
                  [decode("failing_h0"), decode("failing_h1")], True)]
    else:
        g = [decode("failing_g")]
        sides = [(d["stem"], d["pattern"], d["predicate"], g, False),
                 (d["stem1"], d["pattern1"], d["predicate1"], g, False)]
    for stem, pattern, pred, colorings, homogeneous in sides:
        if _witnessed(f, stem, Xn, parse_pattern(pattern),
                      catalogue_predicate(pred, f), colorings, homogeneous):
            return ["reported failing coloring has a witnessing rho"]
    return []


def _check_lemmas(inv: Invocation, text: str) -> list[str]:
    from patternkit.lemmas import SUITES

    recs = _records(text)
    suites = [r for r in recs if "status" in r]
    problems = [f"suite {r['suite']} status {r['status']}"
                for r in suites if r["status"] != "pass"]
    if sorted(r["suite"] for r in suites) != sorted(SUITES):
        problems.append("suite list differs from lemmas.SUITES")
    if len(recs) != len(suites):
        problems.append("counterexample lines present")
    return problems


CHECKS = {
    "census": _check_census,
    "simulate": _check_simulate,
    "avoid": _check_avoid,
    "force": _check_force,
    "lemmas": _check_lemmas,
}


def check_output(inv: Invocation, returncode: int, stdout: bytes,
                 reference: str | None) -> list[str]:
    """Problems with one invocation's result; empty when it passed."""
    from patternkit.core import PatternError

    problems = []
    if not stdout.endswith(b"\n"):
        problems.append("stdout does not end with a complete line")
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if reference is not None and checksum(stdout) != reference:
        problems.append(f"stdout checksum {checksum(stdout)} != reference {reference}")
    try:
        problems += CHECKS[inv.check](inv, stdout.decode())
    except (PatternError, ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
