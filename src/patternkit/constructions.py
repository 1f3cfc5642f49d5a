"""Finite-horizon simulators for the three stage-based priority constructions,
driven by table-backed mock oracles, plus trace verification.

All oracle behaviour is data: the tables model enumeration approximations,
prefix functionals and bi-array functionals.  Nothing here performs real
relativized computation; the builders only replay the stage logic against the
supplied tables, and the verifier re-checks the structural invariants of the
resulting traces and colorings.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from . import _kernels
from .core import (
    FiniteColoring,
    Pattern,
    PatternError,
    StableColoring,
    _coded,
    _Record,
    minus,
)

# only the measure checks, which report exact measures, import fractions
if TYPE_CHECKING:
    from fractions import Fraction

# The most stages a builder runs.  The builders hold one row per stage, so the
# cost grows with its square: at the cap a cold `simulate` on the test and
# benchmark oracles took 0.7-2.5 s and 206-288 MB on a 2-core host with
# Python 3.11, about 0.5 s of it FiniteColoring's symmetry check, and without
# the cap --stages 10^12 died allocating its rows.
MAX_STAGES = 10_000


def _check_stages(stages: int) -> None:
    if stages < 1:
        raise PatternError("need at least one stage")
    if stages > MAX_STAGES:
        raise PatternError(f"builders capped at {MAX_STAGES} stages, got {stages}")


# ---------------------------------------------------------------------------
# requirement indexing


def pattern_index(p: Pattern) -> int:
    """Rank of p among all patterns of size >= 2, ordered by (size, code)."""
    if p.size < 2:
        raise PatternError("only patterns of size >= 2 are indexed")
    return sum(2 ** (l * (l - 1) // 2) for l in range(2, p.size)) + p.code


def index_pattern(idx: int) -> Pattern:
    if idx < 0:
        raise PatternError("pattern index must be nonnegative")
    l = _index_size(idx)
    return _coded(l, idx - sum(2 ** (k * (k - 1) // 2) for k in range(2, l)))


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(k: int) -> tuple[int, int]:
    w = (math.isqrt(8 * k + 1) - 1) // 2
    b = k - w * (w + 1) // 2
    return w - b, b


def _index_size(idx: int) -> int:
    """index_pattern(idx).size, without building the pattern."""
    l = 2
    while idx >= 2 ** (l * (l - 1) // 2):
        idx -= 2 ** (l * (l - 1) // 2)
        l += 1
    return l


# _H[k] == h_bound(k); extended on demand, one requirement at a time
_H = [0]


def h_bound(k: int) -> int:
    """Total restraint capacity of all requirements of priority below k."""
    while len(_H) <= k:
        a, _e = cantor_unpair(len(_H) - 1)
        _H.append(_H[-1] + _index_size(a) - 1)
    return _H[max(k, 0)]


# ---------------------------------------------------------------------------
# mock oracle types


class ApproxOracle(_Record):
    """Stage-indexed enumeration approximations, one set per (index, stage).

    Entries are (e, from_stage, elements); at stage s the latest entry for e
    with from_stage <= s is in effect, clipped to [0, s).  Indices with no
    entry enumerate nothing.  Flickering membership is expressed by stacking
    entries.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int, frozenset[int]], ...]):
        object.__setattr__(self, "entries", entries)

    def query(self, e: int, s: int) -> frozenset[int]:
        best: Optional[tuple[int, frozenset[int]]] = None
        for ee, s0, elems in self.entries:
            if ee == e and s0 <= s and (best is None or s0 > best[0]):
                best = (s0, elems)
        if best is None:
            return frozenset()
        return frozenset(x for x in best[1] if 0 <= x < s)

    def indices(self) -> list[int]:
        return sorted({e for e, _, _ in self.entries})


def age(o: ApproxOracle, e: int, x: int, s: int) -> Optional[int]:
    """Length of the membership run of x ending at stage s, if any."""
    if x not in o.query(e, s):
        return None
    t = 0
    while t < s and x in o.query(e, s - t - 1):
        t += 1
    return t


class PrefixFunctional(_Record):
    """Prefix-monotone enumeration: output(sigma, s) is the union of the
    entry outputs whose prefix is an initial segment of sigma and whose
    stage has been reached.  Monotone in both arguments by construction."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[str, int, frozenset[int]], ...]):
        for tau, _s0, _out in entries:
            if tau.strip("01"):
                raise PatternError(f"entry prefix {tau!r} is not a binary string")
        object.__setattr__(self, "entries", entries)

    def output(self, sigma: str, s: int) -> frozenset[int]:
        out: set[int] = set()
        for tau, s0, elems in self.entries:
            if s0 <= s and len(tau) <= s and sigma.startswith(tau):
                out |= elems
        return frozenset(out)

    def qualifying_prefixes(self, s: int, targets: frozenset[int]) -> list[str]:
        """Entry prefixes already producing an element of targets at stage s."""
        return sorted({
            tau for tau, s0, elems in self.entries
            if s0 <= s and len(tau) <= s and elems & targets
        })


def prefix_free_cover(prefixes: Iterable[str]) -> list[str]:
    """Minimal antichain with the same union of cylinders."""
    ps = sorted(set(prefixes), key=lambda t: (len(t), t))
    cover: list[str] = []
    for tau in ps:
        if not any(tau.startswith(rho) for rho in cover):
            cover.append(tau)
    return cover


def cover_measure(prefixes: Iterable[str]) -> Fraction:
    """Exact measure of the union of the cylinders."""
    from fractions import Fraction

    return sum((Fraction(1, 2 ** len(t)) for t in prefix_free_cover(prefixes)),
               Fraction(0))


def requires_attention_measure(state: Sequence[Iterable[int]],
                               fn: PrefixFunctional, m: int, s: int,
                               p: Pattern) -> bool:
    """Measure of oracles producing an element of [m, s] exceeds 1 - 1/(2|p|)."""
    if len(state) >= p.size:
        return False
    cover = prefix_free_cover(fn.qualifying_prefixes(s, frozenset(range(m, s + 1))))
    # sum of 2^-|t| > 1 - 1/(2|p|), scaled by 2|p| * 2^L to integers
    L = max(map(len, cover), default=0)
    return 2 * p.size * sum(1 << L - len(t) for t in cover) > (2 * p.size - 1) << L


def joint_meeting_measure(fn: PrefixFunctional, s: int,
                          target_sets: Sequence[frozenset[int]]) -> Fraction:
    """Exact measure of oracles whose output meets every target set.

    Two cylinders meet only when one prefix extends the other, and then in
    the longer one.  So the oracles meeting every set seen so far form the
    union of the cylinders in `meet`, each of them a qualifying prefix."""
    meet = {""}
    for t in target_sets:
        quals = fn.qualifying_prefixes(s, t)
        meet = {max(a, b, key=len) for a in meet for b in quals
                if a.startswith(b) or b.startswith(a)}
    return cover_measure(meet)


class BiArrayFunctional(_Record):
    """Bi-array of finite sets with convergence stages.

    primary entries (n, stage, E) require min E > n; secondary entries
    (n, m, stage, F) require min F > m.
    """

    _fields = ("primary", "secondary")
    # _by_n and _by_nm hold, per key, its (stage, set) entries in tuple
    # order; built once, since the builders ask for the same keys at every
    # stage, and left out of equality, hash and repr
    __slots__ = _fields + ("_by_n", "_by_nm")

    def __init__(self, primary: tuple[tuple[int, int, frozenset[int]], ...] = (),
                 secondary: tuple[tuple[int, int, int, frozenset[int]], ...] = ()):
        for n, _s, E in primary:
            if E and min(E) <= n:
                raise PatternError(f"primary entry for {n} must have min > {n}")
        for _n, m, _s, F in secondary:
            if F and min(F) <= m:
                raise PatternError(f"secondary entry for (.,{m}) must have min > {m}")
        by_n: dict[int, list] = {}
        for n, s0, elems in primary:
            by_n.setdefault(n, []).append((s0, elems))
        by_nm: dict[tuple[int, int], list] = {}
        for n, m, s0, elems in secondary:
            by_nm.setdefault((n, m), []).append((s0, elems))
        object.__setattr__(self, "primary", primary)
        object.__setattr__(self, "secondary", secondary)
        object.__setattr__(self, "_by_n", dict(sorted(by_n.items())))
        object.__setattr__(self, "_by_nm", dict(sorted(by_nm.items())))

    def E(self, n: int, s: int) -> Optional[frozenset[int]]:
        """The first entry for n, in tuple order, whose stage is <= s."""
        for s0, elems in self._by_n.get(n, ()):
            if s0 <= s:
                return elems
        return None

    def F(self, n: int, m: int, s: int) -> Optional[frozenset[int]]:
        """The first entry for (n, m), in tuple order, whose stage is <= s."""
        for s0, elems in self._by_nm.get((n, m), ()):
            if s0 <= s:
                return elems
        return None

    def primary_args(self) -> list[int]:
        return list(self._by_n)

    def secondary_args(self) -> list[tuple[int, int]]:
        return list(self._by_nm)


# ---------------------------------------------------------------------------
# traces


class TraceEvent(NamedTuple):
    stage: int
    kind: str           # act / restrain / attention / injury / marker / commit / color
    requirement: str
    detail: tuple[tuple[str, str], ...] = ()

    def get(self, key: str) -> str:
        for k, v in self.detail:
            if k == key:
                return v
        raise KeyError(key)


def _detail(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in kwargs.items())


class ConstructionTrace(_Record):
    """A builder's events and final state; unlike the other records, its
    fields can be reassigned, so it has no hash."""

    # builder: dnc / measure / stable2dim; aux: what the measure checks read
    __slots__ = _fields = ("builder", "stages", "events", "final", "aux")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, builder: str, stages: int, events: tuple[TraceEvent, ...],
                 final: Optional[dict] = None, aux: Optional[dict] = None):
        self.builder = builder
        self.stages = stages
        self.events = events
        self.final = {} if final is None else final
        self.aux = {} if aux is None else aux


# ---------------------------------------------------------------------------
# no-injury builder against enumeration approximations


def oldest_blocks(ages: dict[int, int], p: Pattern, rows: Sequence[int],
                  count: int) -> Optional[list[list[int]]]:
    """Up to `count` pairwise disjoint realizers of the truncation of p among
    the keys of `ages` (a stage's enumeration, each element mapped to its
    `age`), under the coloring built so far (its rows, as in FiniteColoring),
    picked greedily by decreasing minimum age with ties broken toward the
    least minimum element; None when fewer exist."""
    if count < 1:
        raise PatternError("block count must be >= 1")
    if count * (p.size - 1) > len(ages):
        return None
    prows = minus(p).rows
    # the unpicked elements of each age, in increasing order, oldest age first
    by_age: dict[int, list[int]] = {}
    for x in sorted(ages):
        by_age.setdefault(ages[x], []).append(x)
    by_age = dict(sorted(by_age.items(), reverse=True))
    blocks: list[list[int]] = []
    while len(blocks) < count:
        hit = None
        sub: list[int] = []  # the unpicked elements down to the age tried
        for xs in by_age.values():
            if not xs:
                continue
            sub += xs
            sub.sort()
            hit = _kernels.lex_least_realizer(rows, sub, prows)
            if hit is not None:
                break
        if hit is None:
            return None
        blocks.append(hit)
        for x in hit:
            by_age[ages[x]].remove(x)
    return blocks


def build_dnc_coloring(o: ApproxOracle, stages: int
                       ) -> tuple[FiniteColoring, ConstructionTrace]:
    """Stage loop: restraints are released at every stage start; each
    requirement with priority ordinal below the stage picks an unrestrained
    oldest block realizing its truncation and colors the block toward the
    stage top; unassigned pairs stay 0.

    Requirement k always finds an unrestrained block when it has its
    h_bound(k) + 1 pairwise disjoint ones: the requirements above it restrain
    at most one block of |p_j| - 1 elements each, at most h_bound(k) elements
    in all, and each element meets at most one of the disjoint blocks."""
    _check_stages(stages)
    rows = [0] * stages
    events: list[TraceEvent] = []
    # per nonempty oracle index, the stage's enumeration mapped to the ages
    ages: dict[int, dict[int, int]] = {e: {} for e in o.indices()}
    # (e, pattern, block count, label) of each requirement on a nonempty
    # index, in priority order; requirement k joins at stage k + 1
    reqs: list[tuple[int, Pattern, int, str]] = []
    # each requirement's last oldest_blocks answer, kept while its index
    # enumerates the same set: then every age grew by one, and every pair
    # among the elements is final, since pair (x, y) is colored at stage y
    answers: dict[str, Optional[list[list[int]]]] = {}

    for s in range(stages):
        changed = set()
        for e in ages:
            now = o.query(e, s)
            if now != ages[e].keys():
                changed.add(e)
            ages[e] = {x: ages[e].get(x, -1) + 1 for x in now}
        if s:
            a, e = cantor_unpair(s - 1)
            if e in ages:
                reqs.append((e, index_pattern(a), h_bound(s - 1) + 1, f"R[{a},{e}]"))
        restrained: set[int] = set()
        for e, p, count, req in reqs:
            if e in changed or req not in answers:
                answers[req] = oldest_blocks(ages[e], p, rows, count)
            blocks = answers[req]
            if blocks is None:
                continue
            pick = next((b for b in blocks if not restrained & set(b)), None)
            if pick is None:
                raise AssertionError(f"{req}: every block meets a restraint at stage {s}")
            restrained.update(pick)
            events.append(TraceEvent(s, "restrain", req,
                                     _detail(elements=",".join(map(str, pick)))))
            for i, x in enumerate(pick):
                c = p(i, p.size - 1)
                rows[x] |= c << s  # each pair (x, s) is colored once, at stage s
                rows[s] |= c << x
                events.append(TraceEvent(s, "color", req, _detail(x=x, y=s, c=c)))
            events.append(TraceEvent(s, "act", req,
                                     _detail(block=",".join(map(str, pick)))))
    f = FiniteColoring(stages, tuple(rows))
    trace = ConstructionTrace("dnc", stages, tuple(events))
    return f, trace


# ---------------------------------------------------------------------------
# the finite-injury stage loop, shared by the measure and stable2dim builders

# the step at which an acting requirement injures every requirement below it
_INJURIES = ("injury", None)


def _finite_injury(stages: int, labels: Sequence[str], wakes: Iterable[Iterable[int]], ask,
                   injure) -> tuple[tuple[int, ...], dict[int, int], tuple[TraceEvent, ...]]:
    """The stage loop of a finite-injury construction (R. I. Soare, Turing
    Computability, ch. 7): the rows, the limit colour of each committed
    vertex in commit order, and the events.

    Requirement j has the label labels[j] and the wake stages wakes[j]: the
    stages at which its answer may change.  At stage s, `ask(j, s, rows)`
    returns None, or the steps of j's action in trace order.  A step is an
    event (kind, detail), a commitment ("commit", (vertices, colour)), which
    the stages after s colour with, or _INJURIES, where `injure(jj, s)`
    resets each requirement jj below j and says whether it held anything.  A
    stage asks, in priority order, the requirements with a wake stage there
    and, after an action at j, every requirement from j down; the others
    keep their answer, none.  The first that acts ends the stage.

    Stage s colours each pair (x, s) of a committed vertex x < s with x's
    limit colour before it asks: row s takes those bits at once, as the mask
    of the vertices committed to 1, and row x takes the bits of a whole
    commitment interval at once, when x is recommitted and at the end.  So
    an ask reads a finished pair x < y < s from row y."""
    n = len(labels)
    wake: dict[int, list[int]] = {}
    for j, ss in enumerate(wakes):
        for s in set(ss):
            if 0 <= s < stages:
                wake.setdefault(s, []).append(j)
    rows = [0] * stages
    limits: dict[int, int] = {}
    since: dict[int, int] = {}  # vertex -> the first stage its commitment colours
    ones = 0  # the vertices committed to 1
    events: list[TraceEvent] = []
    ask_from = 0  # the first requirement whose answer is not known to be none
    for s in range(stages):
        rows[s] |= ones
        asked = [j for j in wake.get(s, ()) if j < ask_from]
        asked += range(ask_from, n)
        ask_from = n
        for j in asked:
            steps = ask(j, s, rows)
            if steps is None:
                continue
            for kind, detail in steps:
                if kind == "injury":
                    for jj in range(j + 1, n):
                        if injure(jj, s):
                            events.append(TraceEvent(s, "injury", labels[jj],
                                                     _detail(by=labels[j])))
                elif kind == "commit":
                    xs, c = detail
                    for x in xs:
                        if limits.get(x):  # the old commitment coloured since[x]..s
                            rows[x] |= (2 << s) - (1 << since[x])
                        limits[x], since[x] = c, s + 1
                        ones = ones | 1 << x if c else ones & ~(1 << x)
                        events.append(TraceEvent(s, "commit", labels[j],
                                                 _detail(x=x, limit=c, start=s)))
                else:
                    events.append(TraceEvent(s, kind, labels[j], detail))
            ask_from = j
            break
    for x, c in limits.items():
        if c:
            rows[x] |= (1 << stages) - (1 << since[x])
    return tuple(rows), limits, tuple(events)


# ---------------------------------------------------------------------------
# finite-injury builder against prefix functionals (measure requirements)


def build_measure_coloring(fs: Sequence[PrefixFunctional],
                           patterns: Sequence[Pattern], stages: int
                           ) -> tuple[FiniteColoring, ConstructionTrace]:
    """Marker/state machine: the highest-priority strategy whose attention
    measure clears its threshold stacks the interval [marker, stage] onto its
    state, moves markers, injures lower priorities, and commits the stacked
    intervals to the limit colors prescribed by its pattern.

    A requirement's attention reads its marker and state, which change only
    when it or a higher one acts, and the entries qualifying at the stage,
    which only grow, each at its stage, its prefix length or one of its
    elements.  An action moves the actor's marker and every lower one to the
    next stage, where no entry qualifies yet.  So its wake stages are its
    functional's stages, prefix lengths and elements, and the asks after an
    action answer none."""
    _check_stages(stages)
    if len(fs) != len(patterns):
        raise PatternError("one pattern per functional required")
    if any(p.size < 2 for p in patterns):
        raise PatternError("patterns must have size >= 2")
    n = len(fs)
    markers = [0] * n
    states: list[list[range]] = [[] for _ in range(n)]

    def ask(j, s, rows):
        # the stage was coloured first: it lies inside the interval being
        # stacked, so it carries the commitments in force before this attention
        p = patterns[j]
        if not requires_attention_measure(states[j], fs[j], markers[j], s, p):
            return None
        t = len(states[j])
        states[j].append(range(markers[j], s + 1))
        markers[j] = s + 1
        commits = enumerate(states[j]) if t < p.size - 1 else ()
        return [("attention", _detail(length=t + 1, block=",".join(map(str, states[j][t])))),
                ("marker", _detail(to=s + 1)), _INJURIES,
                *(("commit", (F_i, p(i, t + 1))) for i, F_i in commits)]

    def injure(jj, s):
        held = bool(states[jj]) or markers[jj] < s + 1
        states[jj] = []
        markers[jj] = max(markers[jj], s + 1)
        return held

    rows, limits, events = _finite_injury(
        stages, [f"R[{j}]" for j in range(n)],
        ([x for tau, s0, elems in fn.entries for x in (s0, len(tau), *elems)] for fn in fs),
        ask, injure)
    trace = ConstructionTrace(
        "measure", stages, events,
        final={
            "states": {f"R[{j}]": [list(F) for F in states[j]] for j in range(n)},
            "markers": {f"R[{j}]": markers[j] for j in range(n)},
            "commitments": limits,
        },
        aux={"functionals": list(fs), "patterns": list(patterns)},
    )
    return FiniteColoring(stages, rows), trace


# ---------------------------------------------------------------------------
# finite-injury builder against bi-array functionals (stable output)


def build_stable_2dim_coloring(bs: Sequence[BiArrayFunctional], stages: int
                               ) -> tuple[StableColoring, ConstructionTrace]:
    """Two-step attention machine: a first attention restrains a primary set
    and commits it away from the target limit class; a second attention,
    available once a primary/secondary pair with the right cross color has
    emerged in the built coloring, commits the pair to its final classes.

    A requirement's answer reads its status and the higher restraints, which
    change only when it or a higher one acts; its functional's sets in
    effect, which change at an entry's stage; whether each set lies below
    the stage, which changes at max(S) + 1; and cross colors of pairs below
    the stage, which are final.  So its wake stages are those two of each
    entry of its functional."""
    _check_stages(stages)
    n = 2 * len(bs)
    labels = [f"R[{j // 2},{j % 2}]" for j in range(n)]
    status = ["none"] * n   # none / partial / full
    restraints: list[set[int]] = [set() for _ in range(n)]

    def ask(j, s, rows):
        e, i = divmod(j, 2)
        fn = bs[e]
        higher = set().union(*restraints[:j])

        def fits(S):  # nonempty, inside (e, s) and free of higher restraints
            return S and e < min(S) and max(S) < s and not S & higher

        # (attention detail, new status, (set, limit color) commitments)
        action = None
        if status[j] != "full":
            for nn, mm in fn.secondary_args():
                E, F = fn.E(nn, s), fn.F(nn, mm, s)
                # pair (x, y), x < y < s, was colored at stage y
                if (fits(E) and fits(F) and max(E) < min(F)
                        and all(rows[y] >> x & 1 == 1 - i for x in E for y in F)):
                    action = (_detail(kind="second", n=nn, m=mm), "full", ((E, i), (F, 1 - i)))
                    break
        if action is None and status[j] == "none":
            for nn in fn.primary_args():
                E = fn.E(nn, s)
                if fits(E):
                    action = (_detail(kind="first", n=nn), "partial", ((E, 1 - i),))
                    break
        if action is None:
            return None
        detail, status[j], pairs = action
        restraints[j] = set().union(*(S for S, _c in pairs))
        return [("attention", detail),
                ("restrain", _detail(elements=",".join(map(str, sorted(restraints[j]))))),
                *(("commit", (sorted(S), c)) for S, c in pairs), _INJURIES]

    def injure(jj, s):
        held = status[jj] != "none"
        status[jj] = "none"
        restraints[jj] = set()
        return held

    # both requirements of a functional wake at each of its entries' stages
    # and at max(S) + 1 for each nonempty entry set S
    entries = [fn.primary + fn.secondary for fn in bs for _i in (0, 1)]
    wakes = ([*(s0 for *_key, s0, _S in es), *(max(S) + 1 for *_key, _s0, S in es if S)]
             for es in entries)
    rows, limits, events = _finite_injury(stages, labels, wakes, ask, injure)
    sc = StableColoring(FiniteColoring(stages, rows),
                        tuple(limits.get(x, 0) for x in range(stages)))
    trace = ConstructionTrace(
        "stable2dim", stages, events,
        final={"satisfied": dict(zip(labels, status)), "commitments": limits},
    )
    return sc, trace


# ---------------------------------------------------------------------------
# trace verification


class CheckResult(NamedTuple):
    name: str
    passed: bool
    stage: Optional[int] = None
    message: str = ""


class VerifyReport(NamedTuple):
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _check_restraints(trace: ConstructionTrace, f) -> CheckResult:
    per_stage = trace.builder == "dnc"
    active: dict[str, set[int]] = {}
    stage = -1
    for ev in trace.events:
        if ev.stage != stage and per_stage:
            active = {}
        stage = ev.stage
        if ev.kind == "restrain":
            elems = {int(x) for x in ev.get("elements").split(",") if x}
            for req, other in active.items():
                if req != ev.requirement and other & elems:
                    return CheckResult("restraints", False, ev.stage,
                                       f"{ev.requirement} overlaps {req}")
            active[ev.requirement] = elems
        elif ev.kind == "injury":
            active.pop(ev.requirement, None)
    return CheckResult("restraints", True)


def _check_commitments(trace: ConstructionTrace, f) -> CheckResult:
    """Color events match the coloring, and each commit's limit color holds
    for its vertex x at every stage of its interval: from the stage after the
    commit (and after x) up to and including the stage of x's next commit,
    which a builder colors before it acts, or else to the end of the window.
    An interval outside the window raises PatternError, as the pair does."""
    base = f.base if isinstance(f, StableColoring) else f
    rows, window = base.rows, base.window
    commits: dict[int, list[tuple[int, int]]] = {}
    for ev in trace.events:
        if ev.kind == "commit":
            x, c, start = int(ev.get("x")), int(ev.get("limit")), int(ev.get("start"))
            commits.setdefault(x, []).append((start, c))
        elif ev.kind == "color":
            # explicit color events must match the finished coloring
            x, y, c = int(ev.get("x")), int(ev.get("y")), int(ev.get("c"))
            if x == y or not (0 <= x < window and 0 <= y < window):
                base(x, y)  # raises
            if rows[x] >> y & 1 != c:
                return CheckResult("commitments", False, ev.stage,
                                   f"color event ({x},{y})={c} contradicts coloring")
    for x, seq in commits.items():
        seq.sort()
        for idx, (start, c) in enumerate(seq):
            lo = max(start + 1, x + 1)
            hi = seq[idx + 1][0] if idx + 1 < len(seq) else window - 1
            if lo > hi:
                continue
            if x < 0 or hi >= window:
                base(x, hi)  # raises
            mask = (2 << hi) - (1 << lo)
            bad = (rows[x] ^ -c) & mask if c in (0, 1) else mask
            if bad:
                s = (bad & -bad).bit_length() - 1
                return CheckResult("commitments", False, s,
                                   f"vertex {x} committed to {c} but colored {rows[x] >> s & 1}")
    return CheckResult("commitments", True)


def _check_p1(trace: ConstructionTrace, f) -> CheckResult:
    """Every selection of one element per stacked interval realizes the
    restriction of the requirement's pattern p to the state's length.

    The builder stacks increasing intervals, so a selection lists its
    elements in state order and realizes that restriction exactly when each
    of its pairs has the colour p gives the pair's two intervals.  Every pair
    of elements from two intervals lies in some selection, so testing each
    such pair once decides every selection."""
    if trace.builder != "measure":
        return CheckResult("p1", True, message="not applicable")
    patterns = {f"R[{j}]": p for j, p in enumerate(trace.aux["patterns"])}
    for req, state in trace.final["states"].items():
        p = patterns[req]
        for (i, F_i), (k, F_k) in itertools.combinations(enumerate(state), 2):
            bad = next(((x, y) for x in F_i for y in F_k if f(x, y) != p(i, k)), None)
            if bad is not None:
                return CheckResult("p1", False, None, f"{req}: pair {bad} fails")
    return CheckResult("p1", True)


def _check_p2(trace: ConstructionTrace, f) -> CheckResult:
    if trace.builder != "measure":
        return CheckResult("p2", True, message="not applicable")
    from fractions import Fraction

    fns = {f"R[{j}]": fn for j, fn in enumerate(trace.aux["functionals"])}
    patterns = {f"R[{j}]": p for j, p in enumerate(trace.aux["patterns"])}
    s = trace.stages - 1
    for req, state in trace.final["states"].items():
        fn, p = fns[req], patterns[req]
        bound = 1 - Fraction(1, 2 * p.size)
        for F_i in state:
            mu = cover_measure(fn.qualifying_prefixes(s, frozenset(F_i)))
            if not mu > bound:
                return CheckResult("p2", False, None,
                                   f"{req}: measure {mu} for {sorted(F_i)} not above {bound}")
        if len(state) == p.size:
            joint = joint_meeting_measure(fn, s, [frozenset(F) for F in state])
            if not joint > Fraction(1, 2):
                return CheckResult("p2", False, None,
                                   f"{req}: joint measure {joint} not above 1/2")
    return CheckResult("p2", True)


def _check_finite_actions(trace: ConstructionTrace, f) -> CheckResult:
    if trace.builder == "dnc":
        return CheckResult("finite-actions", True, message="no-injury builder")
    if trace.builder == "measure":
        bounds = {f"R[{j}]": p.size for j, p in enumerate(trace.aux["patterns"])}
    else:
        bounds = {}
    default = 2  # first + second attention between injuries
    counts: dict[str, int] = {}
    for ev in trace.events:
        if ev.kind == "attention":
            counts[ev.requirement] = counts.get(ev.requirement, 0) + 1
            if counts[ev.requirement] > bounds.get(ev.requirement, default):
                return CheckResult("finite-actions", False, ev.stage,
                                   f"{ev.requirement} acted too often without injury")
        elif ev.kind == "injury":
            counts[ev.requirement] = 0
    return CheckResult("finite-actions", True)


_CHECKS = {
    "restraints": _check_restraints,
    "commitments": _check_commitments,
    "p1": _check_p1,
    "p2": _check_p2,
    "finite-actions": _check_finite_actions,
}
KNOWN_CHECKS = tuple(_CHECKS)


def verify_trace(trace: ConstructionTrace, coloring,
                 checks: Sequence[str] = KNOWN_CHECKS) -> VerifyReport:
    results = []
    for name in checks:
        if name not in _CHECKS:
            raise PatternError(f"unknown trace check {name!r}")
        results.append(_CHECKS[name](trace, coloring))
    return VerifyReport(tuple(results))
