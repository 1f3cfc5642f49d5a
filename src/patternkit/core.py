"""Patterns, finite pair-colorings, and the realization / avoidance predicates.

A pattern is a total 2-coloring of the unordered pairs over [0, l).  Its
canonical text form is "l:bits" where the bits list the pair colors in
lexicographic order (0,1), (0,2), ..., (0,l-1), (1,2), ...  Read as one
binary number, first pair most significant, those bits are the pattern's
code, so (size, code) orders patterns as (size, bits) does.

A finite coloring is the same thing over a window [0, N); it plays the role
of an ambient edge 2-coloring restricted to a finite scale.  It is stored as
one int bit mask per vertex: bit y of rows[x] is the color of (x, y), so a
row is also the set of vertices joined to x by color 1.  A pattern's `rows`
are masks in the same convention, derived from its code and cached, so the
algebra and the search kernels read patterns and colorings alike.
"""

from __future__ import annotations

import itertools
from functools import total_ordering
from typing import Collection, Iterable, Optional, Sequence

from . import _kernels


class PatternError(ValueError):
    """Malformed pattern text or size/arity violation."""


class _Record:
    """Base of the validated record types, which the package defines without
    `dataclasses`: importing it would load `inspect`, `ast`, `dis` and
    `tokenize` on every command's cold start.

    A subclass names its fields in `_fields`, in order, and holds them in
    `__slots__`; its __init__ checks them and sets them with
    object.__setattr__.  Records compare, hash and show like frozen
    dataclasses: equal when of the same class with equal fields, hashed as
    the tuple of their fields, shown as `Name(field=value, ...)`, and rebuilt
    from their fields by pickle and copy.  No field can be assigned, unless
    a subclass puts object.__setattr__ back.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Pattern(_Record):
    """A 2-coloring of unordered pairs over [0, size), ordered by (size, code)."""

    __slots__ = _fields = ("size", "code")

    def __init__(self, size: int, bits: Sequence[int]):
        if size < 1:
            raise PatternError("pattern size must be >= 1")
        want = size * (size - 1) // 2
        if len(bits) != want:
            raise PatternError(
                f"pattern of size {size} needs {want} pair colors, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise PatternError("pair colors must be 0 or 1")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "code", sum(b << k for k, b in enumerate(reversed(bits))))

    # compared field by field, without building (size, code) tuples: `report`
    # takes least witnesses with min; `<=`, `>` and `>=` derive from `<` and
    # `==`, which are all that min and sorted call
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.code == other.code and self.size == other.size

    def __hash__(self):
        return hash((self.size, self.code))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.code < other.code if self.size == other.size else self.size < other.size

    def __reduce__(self):
        return _coded, (self.size, self.code)

    @property
    def bits(self) -> tuple[int, ...]:
        """The pair colors in lexicographic order."""
        n = self.size * (self.size - 1) // 2
        return tuple(self.code >> k & 1 for k in range(n - 1, -1, -1))

    @property
    def rows(self) -> tuple[int, ...]:
        """Row masks as in FiniteColoring: bit y of rows[x] is the color of (x, y)."""
        return _kernels._pattern_matrix(self.size, self.code)

    def __call__(self, x: int, y: int) -> int:
        if x == y:
            raise PatternError(f"no color for the degenerate pair ({x},{x})")
        if not (0 <= x < self.size and 0 <= y < self.size):
            raise PatternError(f"pair ({x},{y}) outside pattern of size {self.size}")
        return self.rows[x] >> y & 1

    def __len__(self) -> int:
        return self.size

    def __str__(self) -> str:
        return format_pattern(self)

    def __repr__(self) -> str:
        return f"Pattern({format_pattern(self)!r})"


def _coded(size: int, code: int) -> Pattern:
    """The pattern with a code known to fit its size; skips the bits check."""
    p = object.__new__(Pattern)
    _set_size(p, size)
    _set_code(p, code)
    return p


def _gather(rows: Sequence[int], vs: Sequence[int]) -> int:
    """Code of the pattern the row masks induce on vs, in the order listed."""
    code = 0
    for x, y in itertools.combinations(vs, 2):
        code = code << 1 | rows[x] >> y & 1
    return code


def integer(text: str, what: str = "value") -> int:
    """The integer spelled by text: an optional '-', then ASCII digits.  Every
    integer in argv or an input file is read here; callers check the range."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise PatternError(f"{what} must be an integer, got {text!r}")


def parse_pattern(text: str) -> Pattern:
    """Parse "l:bits" into a Pattern; inverse of format_pattern."""
    head, sep, bits = text.partition(":")
    if not sep:
        raise PatternError(f"expected 'l:bits', got {text!r}")
    size = integer(head, "pattern size")
    if size < 1:
        raise PatternError(f"pattern size must be >= 1, got {size}")
    want = size * (size - 1) // 2
    if len(bits) != want:
        raise PatternError(f"expected {want} bits for size {size}, got {len(bits)}")
    if bits.strip("01"):
        raise PatternError(f"pair colors must be 0/1 bits, got {bits!r}")
    return _coded(size, int("0" + bits, 2))


def format_pattern(p: Pattern) -> str:
    k = p.size * (p.size - 1) // 2
    return f"{p.size}:{p.code:0{k}b}" if k else "1:"


def pattern_from_colors(size: int, colors) -> Pattern:
    """Build a pattern from a callable giving the color of each pair i < j."""
    return Pattern(size, tuple(colors(i, j)
                               for i, j in itertools.combinations(range(size), 2)))


def dual(p: Pattern) -> Pattern:
    """Flip the color of every pair."""
    return _coded(p.size, p.code ^ ((1 << p.size * (p.size - 1) // 2) - 1))


def minus(p: Pattern) -> Pattern:
    """Drop the last vertex; defined for size >= 2."""
    if p.size < 2:
        raise PatternError("cannot drop the last vertex of a size-1 pattern")
    return restrict(p, range(p.size - 1))


def restrict(p: Pattern, vertices: Iterable[int]) -> Pattern:
    """Induced pattern on the given vertices, relabeled by rank."""
    vs = list(vertices)
    if not vs:
        raise PatternError("cannot restrict to the empty vertex set")
    if sorted(set(vs)) != vs:
        raise PatternError(f"vertex subset must be strictly increasing, got {vs}")
    if vs[0] < 0 or vs[-1] >= p.size:
        raise PatternError(f"vertex subset {vs} out of range for size {p.size}")
    return _coded(len(vs), _gather(p.rows, vs))


class FiniteColoring(_Record):
    """A symmetric 2-coloring of pairs over [0, window); bit y of rows[x] is f(x, y)."""

    __slots__ = _fields = ("window", "rows")

    def __init__(self, window: int, rows: tuple[int, ...]):
        if window < 0:
            raise PatternError("window must be >= 0")
        if not isinstance(rows, tuple) or len(rows) != window:
            raise PatternError(f"expected a tuple of {window} rows")
        if not all(isinstance(r, int) and 0 <= r < 1 << window and not r >> x & 1
                   for x, r in enumerate(rows)):
            raise PatternError(f"rows must be masks below 2^{window} with no diagonal bit")
        # character y of text[x] is f(x, y); symmetric: each column of the
        # joined text, above the diagonal, equals the row of the same index
        # left of it, so each unordered pair is compared once
        text = [format(r, f"0{window}b")[::-1] for r in rows]
        flat = "".join(text)
        if any(flat[x:x * window:window] != t[:x] for x, t in enumerate(text)):
            raise PatternError("pair colors must be symmetric")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "rows", rows)

    def __call__(self, x: int, y: int) -> int:
        if x == y:
            raise PatternError(f"no color for the degenerate pair ({x},{x})")
        if not (0 <= x < self.window and 0 <= y < self.window):
            raise PatternError(f"pair ({x},{y}) outside window [0,{self.window})")
        return self.rows[x] >> y & 1


# the slot descriptors' setters, bound once: _coded and _coloring fill a
# record through them, past the __setattr__ that keeps records frozen
_set_size, _set_code = Pattern.size.__set__, Pattern.code.__set__
_set_window, _set_rows = FiniteColoring.window.__set__, FiniteColoring.rows.__set__


def _coloring(window: int, rows: tuple[int, ...]) -> FiniteColoring:
    """The coloring with rows known to be symmetric masks below 2^window with
    no diagonal bit; skips the checks."""
    f = object.__new__(FiniteColoring)
    _set_window(f, window)
    _set_rows(f, rows)
    return f


def coloring_from_function(window: int, colors) -> FiniteColoring:
    """Calls colors(x, y) once per pair x < y, in lexicographic order."""
    rows = [0] * window
    for x, y in itertools.combinations(range(window), 2):
        c = colors(x, y)
        if c not in (0, 1):
            raise PatternError("pair colors must be 0 or 1")
        rows[x] |= c << y
        rows[y] |= c << x
    return FiniteColoring(window, tuple(rows))


def constant_coloring(window: int, color: int = 0) -> FiniteColoring:
    return coloring_from_function(window, lambda x, y: color)


def flip(f: FiniteColoring) -> FiniteColoring:
    """Invert the color of every edge of the window."""
    full = (1 << f.window) - 1
    return _coloring(f.window, tuple(r ^ full ^ 1 << x for x, r in enumerate(f.rows)))


class StableColoring(_Record):
    """A finite coloring plus a declared limit color per vertex.

    At this scale the limit of each column is data, not something computed
    from the window.
    """

    __slots__ = _fields = ("base", "limit")

    def __init__(self, base: FiniteColoring, limit: tuple[int, ...]):
        if len(limit) != base.window:
            raise PatternError("one limit bit per window vertex required")
        if any(b not in (0, 1) for b in limit):
            raise PatternError("limits must be 0 or 1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "limit", limit)


class PartialColoring(_Record):
    """A partial vertex 2-coloring, used as a stabilization witness."""

    __slots__ = _fields = ("assignments",)

    def __init__(self, assignments: Optional[dict[int, int]] = None):
        assignments = dict(assignments or {})
        if any(c not in (0, 1) for c in assignments.values()):
            raise PatternError("witness colors must be 0 or 1")
        object.__setattr__(self, "assignments", assignments)

    def __call__(self, x: int) -> int:
        try:
            return self.assignments[x]
        except KeyError:
            raise PatternError(f"witness undefined on vertex {x}") from None

    def __contains__(self, x: int) -> bool:
        return x in self.assignments

    def defined_on(self, vertices: Iterable[int]) -> bool:
        return all(x in self.assignments for x in vertices)

    def extended(self, x: int, color: int) -> "PartialColoring":
        d = dict(self.assignments)
        d[x] = color
        return PartialColoring(d)

    def __hash__(self):
        return hash(tuple(sorted(self.assignments.items())))

    def __eq__(self, other):
        return isinstance(other, PartialColoring) and self.assignments == other.assignments


# ---------------------------------------------------------------------------
# realization / avoidance


def _check_window_subset(f: FiniteColoring, vertices: Iterable[int]) -> list[int]:
    vs = sorted(set(vertices))
    _check_in_window(f, vs)
    return vs


def _check_in_window(f: FiniteColoring, vs: list[int]) -> None:
    """vs, increasing and without repeats, lies in f's window."""
    if vs and (vs[0] < 0 or vs[-1] >= f.window):
        raise PatternError(f"vertices {vs} outside window [0,{f.window})")


def _check_below(low: Collection[int], high: Collection[int],
                 message: str = "stem must lie entirely below the reservoir") -> None:
    """Every element of low lies below every element of high: a condition's
    stem below its whole reservoir, or a stabilized E below its F."""
    if low and high and max(low) >= min(high):
        raise PatternError(message)


def realizes(f: FiniteColoring, F: Iterable[int], p: Pattern) -> bool:
    """Does F, listed increasingly, match p edge-for-edge under f?"""
    xs = _check_window_subset(f, F)
    if len(xs) != p.size:
        raise PatternError(f"realization needs exactly {p.size} vertices, got {len(xs)}")
    return _gather(f.rows, xs) == p.code


def find_realizer(f: FiniteColoring, H: Iterable[int], p: Pattern) -> Optional[frozenset[int]]:
    """Lexicographically least subset of H realizing p, if any."""
    hit = _kernels.lex_least_realizer(f.rows, _check_window_subset(f, H), p.rows)
    return None if hit is None else frozenset(hit)


def avoids(f: FiniteColoring, H: Iterable[int], p: Pattern) -> bool:
    """No subset of H realizes p.  Nonempty sets never avoid the size-1 pattern."""
    return find_realizer(f, H, p) is None


def vertex_maps(k: int, n: int, mode: str) -> Iterable[tuple[int, ...]]:
    """Candidate maps [0,k) -> [0,n): the increasing ones in monotone mode,
    every injection in injective mode."""
    if mode == "monotone":
        return itertools.combinations(range(n), k)
    if mode == "injective":
        return itertools.permutations(range(n), k)
    raise PatternError(f"unknown embedding mode {mode!r}")


def is_subpattern(q: Pattern, p: Pattern, mode: str = "injective") -> bool:
    """Some map g of vertex_maps has q(x,y) = p(g(x),g(y)) for every pair."""
    rows = p.rows
    return any(_gather(rows, g) == q.code for g in vertex_maps(q.size, p.size, mode))


def strongly_realizes(sc: StableColoring, F: Iterable[int], p: Pattern) -> bool:
    """F realizes the truncation of p and every vertex's declared limit matches
    the last-column specification p(., |p|-1)."""
    if p.size < 2:
        raise PatternError("strong realization needs a pattern of size >= 2")
    xs = sorted(set(F))
    if len(xs) != p.size - 1:
        raise PatternError(f"strong realization needs {p.size - 1} vertices, got {len(xs)}")
    if not realizes(sc.base, xs, minus(p)):
        return False
    return sum(sc.limit[x] << i for i, x in enumerate(xs)) == p.rows[-1]


def strongly_appears(sc: StableColoring, H: Iterable[int], p: Pattern) -> bool:
    """Some (|p|-1)-subset of H strongly realizes p."""
    if p.size < 2:
        raise PatternError("strong appearance needs a pattern of size >= 2")
    hs = _check_window_subset(sc.base, H)
    return _kernels.lex_least_realizer(sc.base.rows, hs, p.rows,
                                       sum(c << x for x, c in enumerate(sc.limit))) is not None
