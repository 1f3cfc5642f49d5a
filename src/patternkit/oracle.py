"""Brute-force versions of the package's definitions, for the tests.

A pattern is read only through `size` and `bits`, and a coloring only
through `f(x, y)`; `colour(p)` makes a pattern such a function.  The module
imports only `core`'s types, so it shares no code path with `_kernels`,
`algebra`, `classifier`, `stabilize` or `forcing`, and no command imports
it.  Everything here is exponential in its input.
"""

import itertools

from .core import PartialColoring, Pattern


def colour(p):
    """p's pair colours as a function of two distinct vertices."""
    table = dict(zip(itertools.combinations(range(p.size), 2), p.bits))
    return lambda x, y: table[(x, y) if x < y else (y, x)]


def colours(c, vs):
    """The bits of the pattern the colours c induce on vs, in the order listed."""
    return tuple(c(x, y) for x, y in itertools.combinations(vs, 2))


def rows(c, size):
    """The row masks of the colours c on [0, size): bit y of row x is c(x, y)."""
    return tuple(sum(c(x, y) << y for y in range(size) if y != x) for x in range(size))


def _agrees(c, vs, bits):
    """colours(c, vs) == bits, read up to the first difference."""
    return all(c(x, y) == b for (x, y), b in zip(itertools.combinations(vs, 2), bits))


def join(p, q):
    """q's first vertex glued onto p's last; a cross pair takes p's colour
    toward the seam."""
    cp, cq, seam = colour(p), colour(q), p.size - 1
    return Pattern(seam + q.size, colours(
        lambda x, y: cp(x, min(y, seam)) if x < seam else cq(x - seam, y - seam),
        range(seam + q.size)))


def restrict(p, vs):
    """The pattern p induces on the vertices vs, in the order listed."""
    return Pattern(len(vs), colours(colour(p), vs))


def dual(p):
    return Pattern(p.size, tuple(1 - b for b in p.bits))


def minus(p):
    return restrict(p, range(p.size - 1))


def is_divergent(p):
    """The last column takes both colours."""
    c, last = colour(p), p.size - 1
    return len({c(x, last) for x in range(last)}) > 1


def is_i_merging(p, i):
    """No split F = [0,k), G = [k,l-1), both nonempty, has the last column i
    on F and 1-i on G and one colour on every F-G pair."""
    c, last = colour(p), p.size - 1
    return not any(all(c(x, last) == i for x in range(k))
                   and all(c(y, last) != i for y in range(k, last))
                   and len({c(x, y) for x in range(k) for y in range(k, last)}) == 1
                   for k in range(1, last))


def split_criterion(p):
    """Every split F = [0,k), G = [k,l) with F nonempty and |G| >= 2 has an
    F-vertex whose colours toward G differ."""
    c, l = colour(p), p.size
    return all(any(len({c(x, y) for y in range(k, l)}) > 1 for x in range(k))
               for k in range(1, l - 1))


def is_irreducible(p):
    """p is the join of no two smaller patterns."""
    return not any(join(restrict(p, range(k)), restrict(p, range(k - 1, p.size))).bits
                   == p.bits for k in range(2, p.size))


def realizes(f, xs, p):
    """xs realizes p under f; with f a pattern's `colour`, xs embeds p in it."""
    return _agrees(f, xs, p.bits)


def subpatterns(p, mode):
    """Every pattern p induces on a vertex tuple, increasing ones only if monotone."""
    c = colour(p)
    maps = itertools.combinations if mode == "monotone" else itertools.permutations
    return {Pattern(k, colours(c, g)) for k in range(1, p.size + 1)
            for g in maps(range(p.size), k)}


def least_witnesses(p):
    """The least monotone sub-pattern of p, in (size, bits) order, that is
    divergent and irreducible ("omega_hyp"), and that plus 0-merging, 1-merging
    or both ("one_2dim_0merging", "one_2dim_1merging", "omega_2dim")."""
    found = {}
    for q in sorted(subpatterns(p, "monotone"), key=lambda q: (q.size, q.bits)):
        if is_divergent(q) and is_irreducible(q):
            m0, m1 = is_i_merging(q, 0), is_i_merging(q, 1)
            for key, holds in (("omega_hyp", True), ("one_2dim_0merging", m0),
                               ("one_2dim_1merging", m1), ("omega_2dim", m0 and m1)):
                if holds:
                    found.setdefault(key, q)
            if len(found) == 4:
                break
    return found


def report(p):
    """(omega_hyp, one_2dim, omega_2dim, witnesses): the three verdicts and
    the least witnesses as text, the two one_2dim ones only when both exist."""
    w = least_witnesses(p)
    one_2dim = "one_2dim_0merging" in w and "one_2dim_1merging" in w
    return ("omega_hyp" in w, one_2dim, "omega_2dim" in w,
            {k: str(q) for k, q in w.items() if one_2dim or not k.startswith("one_2dim")})


def realizers(f, H, p):
    """Every increasing tuple of H realizing p, in lexicographic order."""
    bits = p.bits
    return [s for s in itertools.combinations(sorted(H), p.size) if _agrees(f, s, bits)]


def max_avoiding(f, W, p):
    """The first subset of W, in (decreasing size, lexicographic) order,
    holding no realizer of p."""
    hits = [set(s) for s in realizers(f, W, p)]
    return next(frozenset(s) for k in range(len(W), -1, -1)
                for s in itertools.combinations(sorted(W), k)
                if not any(h <= set(s) for h in hits))


def strongly_appears(f, g, H, p):
    """Some |p|-1 vertices of H realize p together with a vertex above them
    all, toward which each x has colour g(x)."""
    top, bits = object(), p.bits
    return any(_agrees(lambda x, y: g(x) if y is top else f(x, y), s + (top,), bits)
               for s in itertools.combinations(sorted(H), p.size - 1))


def witnessed(f, g, rho, p):
    """rho avoids p, and g witnesses it: p does not strongly appear in rho."""
    return not realizers(f, rho, p) and not strongly_appears(f, g, rho, p)


# the forcing questions: each gives (True, None), or False and the first failing
# vertex colouring of X ∩ [0, n] (or pair of them) as a dict on [0, n], 0 off X


def some_witnessed(f, stem, Xn, p, phi, g, homogeneous=()):
    """Some rho ⊆ Xn, constant under each colouring in homogeneous, that g
    witnesses avoiding p and with phi(stem ∪ rho) firing."""
    return any(all(len({h(x) for x in rho}) <= 1 for h in homogeneous)
               and phi.satisfied_by(set(stem) | set(rho)) and witnessed(f, g, rho, p)
               for k in range(len(Xn) + 1) for rho in itertools.combinations(Xn, k))


def _colourings(X, n):
    """X ∩ [0, n], and its vertex colourings in itertools.product order."""
    Xn = sorted(x for x in set(X) if x <= n)
    zeros = dict.fromkeys(range(n + 1), 0)
    return Xn, [PartialColoring(zeros | dict(zip(Xn, bits)))
                for bits in itertools.product((0, 1), repeat=len(Xn))]


def question_omega(f, stem, X, p, phi, n):
    """The disjunctive question with two equal sides."""
    return question_disjunctive(f, stem, stem, X, p, p, phi, phi, n)


def question_i(f, stem, X, p, phi, n):
    """As question_omega over pairs (h0, h1), rho constant under both and
    witnessed by h0."""
    Xn, gs = _colourings(X, n)
    for h0, h1 in itertools.product(gs, repeat=2):
        if not some_witnessed(f, stem, Xn, p, phi, h0, (h0, h1)):
            return False, (h0.assignments, h1.assignments)
    return True, None


def question_disjunctive(f, stem0, stem1, X, p0, p1, phi0, phi1, n):
    """Every colouring g of X ∩ [0, n] has a rho `some_witnessed` finds on
    side 0 or on side 1."""
    Xn, gs = _colourings(X, n)
    for g in gs:
        if not (some_witnessed(f, stem0, Xn, p0, phi0, g)
                or some_witnessed(f, stem1, Xn, p1, phi1, g)):
            return False, g.assignments
    return True, None
