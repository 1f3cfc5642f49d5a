"""Seeded input generators for the benchmark workloads.

Four groups of CLI invocations (census, simulate, search, lemmas) turn a seed
into input files and argument lists.  A workload runs two groups: the host
this benchmark was sized on drifts in speed by tens of percent over tens of
seconds, so the run budget goes into two long runs per seed rather than four
short ones.  census-lemmas never calls the builders, the forcing evaluators
or the avoiding-subset search; simulate-search never calls the classifier.

The generators only write inputs; every answer comes from the program under
test.  The same (workload, seed, scale) always yields byte-identical files and
the same argument lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Per-scale sizes.  "full" is what the benchmark measures; "smoke" runs every
# workload and check in a few seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "census_size": 5,
        "dnc_stages": 300,
        "measure_stages": 300,
        "stable_stages": 500,
        "avoid_windows": (20, 18),
        "omega_k": 8,
        "i_k": 4,
        "disj_k": 5,
        "lemma_count": 1000,
    },
    "smoke": {
        "census_size": 3,
        "dnc_stages": 60,
        "measure_stages": 60,
        "stable_stages": 160,
        "avoid_windows": (8, 7),
        "omega_k": 3,
        "i_k": 2,
        "disj_k": 2,
        "lemma_count": 5,
    },
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `patternkit <argv...>` plus what its output must satisfy.

    `check` names the output check in checks.py; `inputs` lists (parser, path)
    pairs the set-up probe parses; `data` carries what the check needs.
    """

    id: str
    argv: tuple[str, ...]
    check: str
    inputs: tuple[tuple[str, str], ...] = ()
    data: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _coloring_text(rows: list[list[int]]) -> str:
    n = len(rows)
    lines = [str(n)]
    for x in range(n - 1):
        lines.append("".join(str(rows[x][y]) for y in range(x + 1, n)))
    return "\n".join(lines) + "\n"


def _random_coloring(rng: random.Random, n: int) -> str:
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            rows[x][y] = rows[y][x] = rng.randint(0, 1)
    return _coloring_text(rows)


def _constant_coloring(n: int, color: int) -> str:
    return _coloring_text([[color] * n for _ in range(n)])


def _random_pattern(rng: random.Random, size: int) -> str:
    return f"{size}:" + "".join(str(rng.randint(0, 1)) for _ in range(size * (size - 1) // 2))


def _csv(xs) -> str:
    return ",".join(map(str, xs))


# ---------------------------------------------------------------------------
# census: exhaustive, seed-independent


def census(seed: int, sz: dict, workdir: Path) -> list[Invocation]:
    l = sz["census_size"]
    rows = 2 ** (l * (l - 1) // 2)
    return [Invocation("census-records", ("census", str(l), "--format", "records"),
                       "census", data={"rows": rows})]


# ---------------------------------------------------------------------------
# simulate: the three builders on generated oracles


def _dnc_oracle(rng: random.Random) -> str:
    # shaped like the dnc fixture: index 0 enumerates nothing, then a block of
    # small elements from stage ~100 on; a few elements flicker out and back
    start = 95 + rng.randint(0, 10)
    elems = sorted(rng.sample(range(64), 58))
    lines = ["0 0 -", f"0 {start} {_csv(elems)}"]
    dropped = sorted(rng.sample(elems, 3))
    kept = [x for x in elems if x not in dropped]
    lines.append(f"0 {start + 40 + rng.randint(0, 20)} {_csv(kept)}")
    lines.append(f"0 {start + 90 + rng.randint(0, 20)} {_csv(elems)}")
    return "\n".join(lines) + "\n"


def _measure_oracle(rng: random.Random, stages: int) -> str:
    # Each functional has rounds a few stages apart in which a full prefix
    # cover produces that stage's element, so its strategy attends with a
    # short block; long-prefix noise entries cover too little to trigger
    # attention on their own but are scanned at every stage.
    lines = []
    for _j in range(8):
        size = rng.randint(3, 4)
        lines.append(f"functional {_random_pattern(rng, size)}")
        s = rng.randint(3, 8)
        while s < stages - 2:
            depth = rng.randint(1, 2)
            for k in range(2 ** depth):
                lines.append(f"{format(k, f'0{depth}b')} {s} {s}")
            s += rng.randint(6, 10)
        for _ in range(8):
            tau = "".join(rng.choice("01") for _ in range(rng.randint(4, 6)))
            lines.append(f"{tau} {rng.randint(0, stages)} {rng.randint(0, stages - 1)}")
    return "\n".join(lines) + "\n"


def _biarray_oracle(rng: random.Random, stages: int) -> str:
    # Functional e drives R[e,0] and R[e,1].  Its primary set A (n=0) appears
    # at stage t_e, a second primary set B (n=1) a few stages later, and its
    # secondary sets F (n=0, m), drawn after t_e, once R[e,0] has committed A
    # to 1.  So R[e,0] attends first on A, R[e,1] first on B, and R[e,0]'s
    # second attention injures R[e,1].  t_e falls as e rises, so every
    # functional's requirements act before those of all higher-priority
    # functionals, and each of those injures them again.
    #
    # All sets are pairwise disjoint, and only n=0 has secondary entries, so
    # no requirement ever restrains an element that a lower-priority one
    # holds.  The builder records such a take before the injury that frees
    # the element, and verify_trace's restraints check then fails (see
    # test_perfbench.test_stable2dim_take_of_a_held_element).
    nfun = 10
    spacing = (stages - 40) // nfun
    free = set(range(10, stages))
    lines = []

    def pick(lo: int, hi: int, k: int) -> list[int]:
        pool = sorted(x for x in free if lo <= x < hi)
        return sorted(rng.sample(pool, min(k, len(pool))))

    for e in range(nfun):
        t = 20 + (nfun - 1 - e) * spacing + rng.randint(0, 3)
        A = pick(t - 8, t, rng.randint(1, 3))
        free.difference_update(A)
        B = pick(t - 8, t + 4, rng.randint(1, 2))
        free.difference_update(B)
        lines += ["functional", f"E 0 {t} {_csv(A)}", f"E 1 {t + 4} {_csv(B)}"]
        for _ in range(8):
            m = rng.randint(t, t + spacing // 2)
            F = pick(m + 1, min(m + 9, stages - 2), 1 + rng.randint(0, 1))
            if not F:
                continue
            free.difference_update(F)
            lines.append(f"F 0 {m} {rng.randint(t + 6, t + spacing)} {_csv(F)}")
    return "\n".join(lines) + "\n"


def simulate(seed: int, sz: dict, workdir: Path) -> list[Invocation]:
    rng = _rng("simulate", seed)
    dnc = workdir / "dnc_oracle.txt"
    measure = workdir / "measure_oracle.txt"
    biarray = workdir / "biarray_oracle.txt"
    dnc.write_text(_dnc_oracle(rng))
    measure.write_text(_measure_oracle(rng, sz["measure_stages"]))
    biarray.write_text(_biarray_oracle(rng, sz["stable_stages"]))
    return [
        Invocation("simulate-dnc", ("simulate", "dnc", str(dnc),
                                    "--stages", str(sz["dnc_stages"])),
                   "simulate", (("parse_approx_oracle", str(dnc)),)),
        Invocation("simulate-measure", ("simulate", "measure", str(measure),
                                        "--stages", str(sz["measure_stages"])),
                   "simulate", (("parse_measure_oracle", str(measure)),)),
        Invocation("simulate-stable2dim", ("simulate", "stable2dim", str(biarray),
                                           "--stages", str(sz["stable_stages"])),
                   "simulate", (("parse_biarray_oracle", str(biarray)),)),
    ]


# ---------------------------------------------------------------------------
# search: maximum avoiding subsets and the forcing evaluators


def search(seed: int, sz: dict, workdir: Path) -> list[Invocation]:
    rng = _rng("search", seed)
    out: list[Invocation] = []
    window = max(sz["avoid_windows"]) + 4
    for i, (elems_n, psize) in enumerate(zip(sz["avoid_windows"], (3, 4))):
        path = workdir / f"avoid_{i}.txt"
        path.write_text(_random_coloring(rng, window))
        elems = sorted(rng.sample(range(window), elems_n))
        pattern = _random_pattern(rng, psize)
        out.append(Invocation(
            f"avoid-search-{i}",
            ("avoid-search", str(path), pattern, "--elements", _csv(elems),
             "--format", "records"),
            "avoid", (("parse_coloring", str(path)),),
            {"coloring": str(path), "pattern": pattern}))

    # the worst case for the omega evaluator: constant 0, 3:111 never occurs,
    # so every rho is witnessed-avoiding and only size>=k fires (a true
    # verdict after scanning every smaller rho for every coloring g)
    k = sz["omega_k"]
    path = workdir / "constant0.txt"
    path.write_text(_constant_coloring(16, 0))
    X = sorted(rng.sample(range(1, 15), k))
    out.append(Invocation(
        "force-omega-worst",
        ("force-eval", "omega", str(path), "3:111", f"size>={k}",
         "--reservoir", _csv(X), "--bound", str(X[-1])),
        "force", (("parse_coloring", str(path)),),
        {"kind": "omega", "coloring": str(path), "pattern": "3:111",
         "predicate": f"size>={k}", "reservoir": X, "bound": X[-1], "stem": []}))

    # smaller seeded i- and disjunctive questions on a random coloring; the
    # i-question's size predicate makes some seeds give a false verdict,
    # whose failing colorings the output check replays
    path = workdir / "force_random.txt"
    path.write_text(_random_coloring(rng, 16))
    stem = [rng.randint(0, 2)]
    X = sorted(rng.sample(range(3, 15), sz["i_k"]))
    pattern = _random_pattern(rng, 3)
    pred = f"size>={rng.randint(2, 3)}"
    out.append(Invocation(
        "force-i",
        ("force-eval", "i", str(path), pattern, pred, "--stem", _csv(stem),
         "--reservoir", _csv(X), "--bound", str(X[-1])),
        "force", (("parse_coloring", str(path)),),
        {"kind": "i", "coloring": str(path), "pattern": pattern, "predicate": pred,
         "reservoir": X, "bound": X[-1], "stem": stem}))
    X = sorted(rng.sample(range(3, 15), sz["disj_k"]))
    p0, p1 = _random_pattern(rng, 3), _random_pattern(rng, 3)
    pred0, pred1 = f"size>={rng.randint(3, 4)}", f"size>={sz['disj_k']}"
    out.append(Invocation(
        "force-disjunctive",
        ("force-eval", "disjunctive", str(path), p0, pred0, "--stem", _csv(stem),
         "--stem1", _csv(stem), "--pattern1", p1, "--predicate1", pred1,
         "--reservoir", _csv(X), "--bound", str(X[-1])),
        "force", (("parse_coloring", str(path)),),
        {"kind": "disjunctive", "coloring": str(path), "pattern": p0,
         "predicate": pred0, "pattern1": p1, "predicate1": pred1,
         "reservoir": X, "bound": X[-1], "stem": stem, "stem1": stem}))
    return out


# ---------------------------------------------------------------------------
# lemmas: all nine law suites at the benchmark seed


def lemmas(seed: int, sz: dict, workdir: Path) -> list[Invocation]:
    return [Invocation("verify-lemmas",
                       ("verify-lemmas", "--count", str(sz["lemma_count"]),
                        "--seed", str(seed)),
                       "lemmas")]


WORKLOADS = {"census-lemmas": (census, lemmas), "simulate-search": (simulate, search)}


def generate(workload: str, seed: int, scale: str, workdir: Path) -> list[Invocation]:
    """Write the workload's inputs under workdir and return its invocations."""
    workdir.mkdir(parents=True, exist_ok=True)
    return [inv for group in WORKLOADS[workload]
            for inv in group(seed, SIZES[scale], workdir)]
