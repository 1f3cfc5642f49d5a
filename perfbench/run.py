"""patternkit benchmark: CLI workloads with checked outputs, and a traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload census-lemmas --seed 0 --seconds 50 --trace 0

The workloads (census-lemmas, simulate-search) are generated from the seed
by workloads.py; BENCHMARK.json says why each was chosen.  A pass runs each of
the workload's CLI invocations once, in sequence, as fresh processes: a closed
loop with one client.  One untimed warm-up pass comes first, so bytecode
compilation is not timed; then passes repeat while another one still ends
within --seconds (at least three).

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb are
medians over the timed passes, setup_s the median over fresh processes that
import patternkit.cli and parse the workload's inputs (one before each timed
pass, and at least SETUP_PROBES).  --trace 1 runs the
same invocations in-process instead: a warm-up pass, then untraced and traced
passes in turn within --seconds (at least two of each).  It
reports the per-layer metrics of tracer.py: self times, and the work counts
(calls, cache hit rates with their lookups, rho_tests), which must repeat
exactly from one traced pass to the next.

Every invocation's output is checked (checks.py).  For seeds listed in
checksums.json the stdout checksums must match the committed ones; for other
seeds they must match the warm-up pass.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
("detail ...") records the environment, sample counts, quartiles, checksums
and every span's counts.  The exit code is 1 when any invocation failed, 2
when the program's sources are missing.

`--smoke` runs tiny sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SRC = Path("src")
WORKDIR = Path(".bench_build") / "perfbench"
CHECKSUMS = HERE / "checksums.json"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 11
ENTRY = "import sys; from patternkit.cli import main; sys.exit(main())"

# Unpinned, numpy's thread pool spends CPU on a second core that the
# single-threaded answers never need.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "child_env": PINNED,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# fresh-process passes


def run_cli(argv, env, stderr_path: Path):
    """Run `patternkit <argv>`; return (exit code, stdout, wall s, cpu s, max RSS MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def fits(t0: float, rounds: list[float], seconds: float) -> bool:
    """Another round, as long as the median one so far, ends within seconds."""
    return time.perf_counter() - t0 + statistics.median(rounds) <= seconds


def run_pass(invs, env, workdir: Path) -> dict:
    results = []
    t0 = time.perf_counter()
    for inv in invs:
        results.append(run_cli(inv.argv, env, workdir / f"{inv.id}.stderr"))
    wall = time.perf_counter() - t0
    return {"wall_s": wall,
            "invocation_s": [r[2] for r in results],
            "cpu_s": sum(r[3] for r in results),
            "peak_rss_mb": max(r[4] for r in results),
            "outputs": [(r[0], r[1]) for r in results]}


def probe(invs, env) -> dict:
    inputs = [list(pair) for inv in invs for pair in inv.inputs]
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, str(HERE / "probe.py"), json.dumps(inputs)],
                         env=env, capture_output=True, check=True)
    out = json.loads(res.stdout)
    out["process_s"] = time.perf_counter() - t0
    return out


class Outcome:
    """Counts invocations and failed invocations, and keeps the first
    checksum seen for each invocation."""

    def __init__(self, invs, reference: dict | None):
        self.invs = invs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checksums: dict[str, str] = {}

    def record(self, outputs) -> None:
        for inv, (rc, out) in zip(self.invs, outputs):
            self.attempted += 1
            ref = self.reference.get(inv.id) if self.reference is not None else None
            found = checks.check_output(inv, rc, out, ref)
            if self.reference is not None and ref is None:
                found.append("no reference checksum")
            if found:
                self.failed += 1
                self.problems += [f"{inv.id}: {p}" for p in found]
            self.checksums.setdefault(inv.id, checks.checksum(out))


def committed(workload: str, seed: int, scale: str) -> dict | None:
    if scale != "full" or not CHECKSUMS.exists():
        return None
    return json.loads(CHECKSUMS.read_text()).get(workload, {}).get(str(seed))


def measure(args, invs, workdir: Path) -> tuple[dict, dict, "Outcome"]:
    env = child_env()
    ref = committed(args.workload, args.seed, args.scale)
    warm = run_pass(invs, env, workdir)
    if ref is None:
        ref = {inv.id: checks.checksum(out) for inv, (_, out) in zip(invs, warm["outputs"])}
    outcome = Outcome(invs, ref)
    outcome.record(warm["outputs"])

    # one set-up probe before each pass, so the probes see the same machine
    # state as the passes rather than a few seconds of it
    setups, passes, rounds = [], [], []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or fits(t0, rounds, args.seconds):
        t1 = time.perf_counter()
        setups.append(probe(invs, env)["process_s"])
        p = run_pass(invs, env, workdir)
        outcome.record(p["outputs"])
        passes.append(p)
        rounds.append(time.perf_counter() - t1)
    while len(setups) < SETUP_PROBES:
        setups.append(probe(invs, env)["process_s"])

    stats = {k: quartiles([p[k] for p in passes]) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = quartiles(setups)
    stats["invocation_wall_s"] = {
        inv.id: statistics.median(p["invocation_s"][k] for p in passes)
        for k, inv in enumerate(invs)}
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": stats[k]["median"], "unit": units[k]} for k in units}
    return metrics, stats, outcome


# ---------------------------------------------------------------------------
# in-process passes and the traced run


def inprocess_pass(invs, main, caches: dict, tracer=None) -> dict:
    """Run each invocation through cli.main in this process, clearing the
    package caches before each one as a fresh process would start."""
    outputs, cache_stats = [], {k: [0, 0] for k in caches}
    t0 = time.perf_counter()
    for k, inv in enumerate(invs):
        for c in caches.values():
            c.cache_clear()
        if tracer is not None:
            tracer.run_id = k
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = main(list(inv.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        for name, c in caches.items():
            info = c.cache_info()
            cache_stats[name][0] += info.hits
            cache_stats[name][1] += info.misses
        outputs.append((rc, buf.getvalue().encode()))
    return {"wall_s": time.perf_counter() - t0, "outputs": outputs,
            "caches": cache_stats}


# per-layer metrics reported from the traced pass: (span name, field)
LAYER_METRICS = [
    ("io.parse", "self_s"), ("io.format", "self_s"),
    ("core.pattern_from_colors", "calls"), ("core.pattern_from_colors", "self_s"),
    ("core.find_realizer", "calls"), ("core.find_realizer", "self_s"),
    ("kernels.lex_least_realizer", "calls"), ("kernels.lex_least_realizer", "self_s"),
    ("kernels.max_avoiding_elems", "calls"), ("kernels.max_avoiding_elems", "self_s"),
    ("algebra.classify", "calls"), ("algebra.classify", "self_s"),
    ("algebra.decompositions", "calls"), ("algebra.decompositions", "self_s"),
    ("algebra.join", "calls"), ("algebra.join", "self_s"),
    ("classifier.subpatterns", "calls"), ("classifier.subpatterns", "self_s"),
    ("classifier.verdicts", "self_s"),
    ("stabilize.fg_avoids", "calls"), ("stabilize.fg_avoids", "self_s"),
    ("stabilize.max_avoiding_subset", "self_s"),
    ("constructions.h_bound", "calls"), ("constructions.h_bound", "self_s"),
    ("constructions.index_pattern", "calls"),
    ("constructions.oracle_query", "calls"), ("constructions.oracle_query", "self_s"),
    ("constructions.oldest_blocks", "calls"), ("constructions.oldest_blocks", "self_s"),
    ("constructions.build_dnc", "self_s"), ("constructions.build_measure", "self_s"),
    ("constructions.build_stable2dim", "self_s"),
    ("constructions.verify_trace", "self_s"),
    ("forcing.eval_omega", "self_s"), ("forcing.eval_i", "self_s"),
    ("forcing.eval_disjunctive", "self_s"),
    ("cli", "self_s"),
]


def traced(args, invs, workdir: Path) -> tuple[dict, dict, "Outcome"]:
    import patternkit.cli
    import tracer as tr
    from patternkit.lemmas import SUITES

    env = child_env()
    import_s = [probe([], env)["import_s"] for _ in range(SETUP_PROBES)]
    caches = {k: getattr(tr.patternkit_module(m), a) for k, (m, a) in tr.CACHES.items()}
    ref = committed(args.workload, args.seed, args.scale)

    warm = inprocess_pass(invs, patternkit.cli.main, caches)
    if ref is None:
        ref = {inv.id: checks.checksum(out) for inv, (_, out) in zip(invs, warm["outputs"])}
    outcome = Outcome(invs, ref)
    outcome.record(warm["outputs"])

    # alternate untraced and traced passes, so both see the same machine state
    t = tr.Tracer()
    summaries, walls, bases, cache_stats = [], [], [], None
    root = t.wrap(tr.ROOT, patternkit.cli.main)
    t0 = time.perf_counter()
    while len(summaries) < MIN_TRACED_PASSES or fits(
            t0, [a + b for a, b in zip(bases, walls)], args.seconds):
        base = inprocess_pass(invs, patternkit.cli.main, caches)
        outcome.record(base["outputs"])
        bases.append(base["wall_s"])
        t.clear()
        t.install()
        try:
            p = inprocess_pass(invs, root, caches, t)
        finally:
            t.uninstall()
        outcome.record(p["outputs"])
        walls.append(p["wall_s"])
        cache_stats = p["caches"]
        if not summaries:
            t.write(workdir / "spans.csv")
        summaries.append(t.summary())

    calls = [{k: v["calls"] for k, v in s.items()} for s in summaries]
    if any(c != calls[0] for c in calls):
        outcome.failed += 1
        outcome.problems.append("traced: calls counts differ between traced passes")

    def layer(span, field):
        if field == "calls":
            return summaries[0].get(span, {}).get("calls", 0)
        return statistics.median(s.get(span, {}).get("self_s", 0.0) for s in summaries)

    metrics = {"cli.import_s": (statistics.median(import_s), "s")}
    for span, field in LAYER_METRICS + [(f"lemmas.{n}", "self_s") for n in SUITES]:
        metrics[f"{span}.{field}"] = (layer(span, field), "s" if field == "self_s" else "count")
    metrics["forcing.rho_tests"] = (layer("forcing.rho_tests", "calls"), "count")
    for name, (hits, misses) in cache_stats.items():
        metrics[f"{name}.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        metrics[f"{name}.lookups"] = (hits + misses, "count")
    traced_s, untraced_s = statistics.median(walls), statistics.median(bases)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")

    detail = {"traced_passes": len(summaries), "spans_per_pass": len(t),
              "import_s": quartiles(import_s),
              "all_spans": summaries[0]}
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail, outcome)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", dest="scale", action="store_const", const="smoke",
                    default="full", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (SRC / "patternkit" / "cli.py").is_file():
        print(f"error: {SRC / 'patternkit'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    # the in-process passes of --trace 1 run under the same thread pins as
    # the children (the hash seed of this process cannot change any more)
    os.environ.update({k: v for k, v in PINNED.items() if k != "PYTHONHASHSEED"})

    workdir = WORKDIR / f"{args.workload}-{args.seed}-{args.scale}"
    invs = workloads.generate(args.workload, args.seed, args.scale, workdir)
    if args.trace:
        metrics, detail, outcome = traced(args, invs, workdir)
    else:
        metrics, detail, outcome = measure(args, invs, workdir)

    failed = min(outcome.failed, outcome.attempted)
    fail_frac = failed / outcome.attempted
    for msg in outcome.problems:
        print(f"FAIL {msg}")
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}")
    for name, m in metrics.items():
        extra = ""
        if isinstance(detail.get(name), dict) and "n" in detail[name]:
            d = detail[name]
            extra = f"  (median of {d['n']}; q1 {d['q1']:.4f}, q3 {d['q3']:.4f})"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_frac':44s} {fail_frac:.6g} ({failed}/{outcome.attempted} invocations)")
    print("detail " + json.dumps({
        "workload": args.workload, "scale": args.scale,
        "env": environment(args.seed), "fail_frac": fail_frac,
        "checksums": outcome.checksums, "stats": detail,
        "invocations": [" ".join(inv.argv) for inv in invs]}, sort_keys=True))
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
