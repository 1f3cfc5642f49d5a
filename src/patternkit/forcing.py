"""Finite-bound evaluators for the three forcing questions.

Each question quantifies universally over vertex 2-colorings up to a
compactness bound n and existentially over witnessed-avoiding finite subsets
of the reservoir.  The colorings only ever get evaluated on elements of the
reservoir below the bound, so the evaluators quantify over assignments to
X ∩ [0, n] rather than all of [0, n]; reported failure witnesses are padded
with zeros back to [0, n].

A coloring g is an int mask, bit x its colour of x.  A rho passes for g when
no subset of rho realizes p, phi(sigma ∪ rho) fires, and g witnesses it: the
realizer kernel, given g as the colours toward a virtual top vertex, finds
no truncation realizer in rho.  Only the last test reads g, so each question
builds one candidate scan per side: the rho ⊆ X ∩ [0, n] in size-then-
lexicographic order that pass the first two tests.  The scan is lazy and
memoised, so each rho's coloring-independent half is tested at most once
however many colorings reach it, and each evaluator is only the quantifier
over colorings: the first g (in itertools.product order) under which no
candidate passes the witnessed test is the failure witness.

Every evaluator returns (verdict, failure), as the oracle's questions do:
(True, None), or False and the failing coloring (a pair of them for the
i-question).  A stem must lie below the whole reservoir X, not only below
X ∩ [0, n], by the rule a `stabilize.Condition` keeps (`core._check_below`).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import _kernels
from .core import FiniteColoring, Pattern, PatternError, _check_below, integer

MAX_BOUND = 14


class BoundedPredicate(NamedTuple):
    """A decidable predicate phi(F) on finite sets."""

    name: str
    fn: Callable[[frozenset[int]], bool]

    def satisfied_by(self, F: Iterable[int]) -> bool:
        return self.fn(frozenset(F))


def _check_bound(window: int, n: int, what: str = "bound") -> None:
    """n is a bound, or what names it, that a coloring of the window can
    answer: nonnegative, inside [0, window) and at most MAX_BOUND."""
    if n < 0:
        raise PatternError(f"{what} must be nonnegative")
    if n >= window:
        raise PatternError(f"{what} {n} exceeds window [0,{window})")
    if n > MAX_BOUND:
        raise PatternError(f"{what} {n} exceeds the hard cap {MAX_BOUND}")


def _reservoir(f, n, stems, X) -> list[int]:
    """X ∩ [0, n], sorted, once the bound is checked, X and each (sorted)
    stem are known to lie in the window, and each stem below the whole
    reservoir."""
    _check_bound(f.window, n)
    xs = set(X)
    if xs and min(xs) < 0:
        raise PatternError(f"reservoir element {min(xs)} is negative")
    if xs and max(xs) >= f.window:
        raise PatternError(f"reservoir element {max(xs)} outside window [0,{f.window})")
    for ss in filter(None, stems):
        if min(ss) < 0 or max(ss) >= f.window:
            raise PatternError(f"stem {ss} outside window [0,{f.window})")
        _check_below(ss, xs)
    return sorted(x for x in xs if x <= n)


def _candidates(f, sigma, Xn, p, phi):
    """A re-iterable scan, by size and then lexicographically, over the rho ⊆ Xn
    that hold no realizer of p and make phi(sigma ∪ rho) fire, each paired
    with its mask.  Each rho is tested once, by the first scan that
    reaches it; later scans replay the passing ones first."""
    if p.size < 2:
        raise PatternError("witnessed avoidance needs a pattern of size >= 2")
    stem, seen = frozenset(sigma), []
    pending = ((rho, sum(1 << x for x in rho))
               for k in range(len(Xn) + 1) for rho in itertools.combinations(Xn, k)
               if _kernels.lex_least_realizer(f.rows, rho, p.rows) is None
               and phi.satisfied_by(stem.union(rho)))

    def scan():
        yield from seen
        for hit in pending:
            seen.append(hit)
            yield hit
    return scan


def _colorings(support: Sequence[int]) -> list[int]:
    """All vertex 2-colorings of the support, as masks, in itertools.product
    order (the least element's colour varies slowest)."""
    masks = [0]
    for x in support:
        masks = [g | bit for g in masks for bit in (0, 1 << x)]
    return masks


def _result(fail, n):
    """(verdict, fail padded with zeros to [0, n]); fail is None, a coloring
    or a pair of colorings."""
    if fail is None:
        return True, None
    pad = lambda g: {x: g >> x & 1 for x in range(n + 1)}  # noqa: E731
    return False, tuple(map(pad, fail)) if isinstance(fail, tuple) else pad(fail)


def _sides(f, X, n, sides):
    """(verdict, failure) of the question with the given (sigma, p, phi)
    sides: the failure is the first coloring g of X ∩ [0, n] that witnesses
    no candidate rho of any side, in each of which the kernel finds a
    truncation realizer of p that agrees with g on p's last column."""
    stems = [sorted(sigma) for sigma, _, _ in sides]
    Xn = _reservoir(f, n, stems, X)
    scans = [(p.rows, _candidates(f, ss, Xn, p, phi))
             for ss, (_, p, phi) in zip(stems, sides)]
    rows = f.rows
    fail = next((g for g in _colorings(Xn) if not any(
        _kernels.lex_least_realizer(rows, rho, prows, g) is None
        for prows, rhos in scans for rho, _ in rhos())), None)
    return _result(fail, n)


def eval_question_omega(f: FiniteColoring, sigma: Iterable[int], X: Iterable[int],
                        p: Pattern, phi: BoundedPredicate, n: int):
    """(verdict, failure): whether every coloring of X∩[0,n] admits a
    witnessed-avoiding rho making phi fire, and if not the first coloring
    that does not, on [0,n].  The disjunctive question with one side."""
    return _sides(f, X, n, [(sigma, p, phi)])


def eval_question_i(f: FiniteColoring, sigma: Iterable[int], X: Iterable[int],
                    p: Pattern, phi: BoundedPredicate, n: int):
    """As eval_question_omega but universally over pairs (h0, h1) and with rho
    required homogeneous for both; the failure is a pair."""
    ss = sorted(sigma)
    Xn = _reservoir(f, n, [ss], X)
    rhos = _candidates(f, ss, Xn, p, phi)
    gs, rows, prows = _colorings(Xn), f.rows, p.rows
    fail = next(((h0, h1) for h0 in gs for h1 in gs if not any(
        h0 & m in (0, m) and h1 & m in (0, m)
        and _kernels.lex_least_realizer(rows, rho, prows, h0) is None
        for rho, m in rhos())), None)
    return _result(fail, n)


def eval_question_disjunctive(f: FiniteColoring, sigma0: Iterable[int],
                              sigma1: Iterable[int], X: Iterable[int],
                              p0: Pattern, p1: Pattern,
                              phi0: BoundedPredicate, phi1: BoundedPredicate,
                              n: int):
    """(verdict, failure): for every coloring h there must be a side i and a
    rho ⊆ X avoiding p_i with witness h such that phi_i(sigma_i ∪ rho)
    fires; the side may vary with h."""
    return _sides(f, X, n, [(sigma0, p0, phi0), (sigma1, p1, phi1)])


def least_bound(evaluate: Callable[[int], tuple], cap: int, window: int) -> Optional[int]:
    """Least n <= cap at which the evaluator's (verdict, failure) is true, if
    any.  The cap is checked first, as a bound of a coloring of the given
    window is, so a cap the window cannot answer fails whatever the verdicts
    below it."""
    _check_bound(window, cap, "cap")
    for n in range(cap + 1):
        if evaluate(n)[0]:
            return n
    return None


# ---------------------------------------------------------------------------
# small closed predicate catalogue (also used by the CLI)


def pred_true() -> BoundedPredicate:
    return BoundedPredicate("true", lambda F: True)


def pred_false() -> BoundedPredicate:
    return BoundedPredicate("false", lambda F: False)


def pred_size_at_least(k: int) -> BoundedPredicate:
    return BoundedPredicate(f"size>={k}", lambda F: len(F) >= k)


def pred_contains(v: int) -> BoundedPredicate:
    return BoundedPredicate(f"contains:{v}", lambda F: v in F)


def pred_homogeneous(f: FiniteColoring, color: int, min_size: int = 2) -> BoundedPredicate:
    """F spans only edges of the given color and has at least min_size vertices."""
    if color not in (0, 1):
        raise PatternError(f"homogeneity color must be 0 or 1, got {color}")

    def check(F: frozenset[int]) -> bool:
        if len(F) < min_size:
            return False
        return all(f(a, b) == color for a, b in itertools.combinations(sorted(F), 2))
    return BoundedPredicate(f"homogeneous:{color}:{min_size}", check)


def catalogue_predicate(spec: str, f: Optional[FiniteColoring] = None) -> BoundedPredicate:
    """Parse a predicate description: true, false, size>=K, contains:V,
    homogeneous:C[:MIN], with K, V, C and MIN in ASCII digits."""
    def parameter(text: str) -> int:
        if text.startswith("-"):
            raise PatternError(f"predicate {spec!r} needs nonnegative integer "
                               f"parameters, got {text!r}")
        return integer(text, f"parameter of predicate {spec!r}")

    if spec == "true":
        return pred_true()
    if spec == "false":
        return pred_false()
    if spec.startswith("size>="):
        return pred_size_at_least(parameter(spec[len("size>="):]))
    if spec.startswith("contains:"):
        return pred_contains(parameter(spec.split(":", 1)[1]))
    if spec.startswith("homogeneous:"):
        parts = spec.split(":")
        if f is None:
            raise PatternError("homogeneity predicate needs the ambient coloring")
        if len(parts) > 3:
            raise PatternError(f"unknown predicate {spec!r}")
        return pred_homogeneous(f, *map(parameter, parts[1:]))
    raise PatternError(f"unknown predicate {spec!r}")
