"""012-strings, Bruhat covers, the recursion oracle, and the quantum layer.

A Schubert class of the two-step flag variety Fl(a,b;n) is indexed by a
012-string: a sequence over {0,1,2} with ``a`` zeros, ``b-a`` ones and
``n-b`` twos.  The length ``l(u)`` is the inversion count.

The oracle computes structure constants from three identities -- the
closed product formula for the extreme case ``u = v = w`` and the
divisor-associativity recursions in ``u`` and in ``v`` -- and the
vanishing of every constant outside ``u <= w, v <= w``, entirely
independently of the puzzle enumeration, so the two routes cross-check
each other.  Each recursion step sums its right-hand side in one dict of
monomials, returns zero when that sum is zero, and otherwise divides it
exactly, in integers, by ``C_u - C_w`` with the deltas specialized to
``DELTA_SPEC``.

>>> length((1, 2, 0, 2, 1, 0))
8
>>> [fmt(c.after) for c in covers(parse("10221"))]
['20121', '11220', '12021']
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .algebra import Tower, YPoly, exact_divide, y

__all__ = [
    "parse",
    "fmt",
    "content",
    "identity_string",
    "all_strings",
    "contents_up_to",
    "length",
    "CoverEdge",
    "covers",
    "cocovers",
    "bruhat_leq",
    "c_form",
    "extreme_constant",
    "oracle_constant",
    "chevalley",
    "partition_to_string",
    "string_to_partition",
    "all_partitions",
    "jd_map",
    "contains_rect",
    "dual_partition_string",
    "gw_invariant",
    "quantum_product",
]

String012 = tuple[int, ...]

# the delta-specialization used to solve the recursions: injective on
# letters, so C_u - C_w is nonzero whenever u != w, and every cover's
# delta factor specializes to a positive integer
DELTA_SPEC = (2, 1, 0)


def parse(s: str | Iterable[int]) -> String012:
    """Parse a bare digit string into a 012-string tuple.

    >>> parse("01201")
    (0, 1, 2, 0, 1)
    """
    if isinstance(s, str):
        out = tuple(int(ch) for ch in s)
    else:
        out = tuple(int(x) for x in s)
    if any(x not in (0, 1, 2) for x in out):
        raise ValueError(f"not a 012-string: {s!r}")
    return out


def fmt(u: String012) -> str:
    return "".join(str(x) for x in u)


def content(u: String012) -> tuple[int, int, int]:
    """The (a, b, n) type of a 012-string.

    >>> content(parse("01201"))
    (2, 4, 5)
    """
    n = len(u)
    a = u.count(0)
    b = a + u.count(1)
    return (a, b, n)


def identity_string(a: int, b: int, n: int) -> String012:
    """The length-zero string ``0^a 1^(b-a) 2^(n-b)``."""
    return (0,) * a + (1,) * (b - a) + (2,) * (n - b)


def all_strings(a: int, b: int, n: int) -> list[String012]:
    """All 012-strings of type (a, b, n), sorted lexicographically: the
    positions of the 0s, then those of the 1s among the rest.

    >>> [fmt(w) for w in all_strings(1, 2, 3)]
    ['012', '021', '102', '120', '201', '210']
    """
    out = []
    for zeros in combinations(range(n), a):
        rest = [i for i in range(n) if i not in zeros]
        for ones in combinations(rest, b - a):
            w = [2] * n
            for i in zeros:
                w[i] = 0
            for i in ones:
                w[i] = 1
            out.append(tuple(w))
    return sorted(out)


def contents_up_to(max_n: int) -> Iterator[tuple[int, int, int]]:
    """All contents ``(a, b, n)`` with ``0 < a <= b < n`` and
    ``2 <= n <= max_n``.

    >>> list(contents_up_to(3))
    [(1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 2, 3)]
    """
    for n in range(2, max_n + 1):
        for b in range(1, n):
            for a in range(1, b + 1):
                yield (a, b, n)


def length(u: String012) -> int:
    """Number of inversions.

    >>> length(parse("012"))
    0
    >>> length(parse("210"))
    3
    """
    ones = twos = inversions = 0  # letters 1 and 2 seen so far
    for letter in u:
        if letter == 0:
            inversions += ones + twos
        elif letter == 1:
            inversions += twos
            ones += 1
        else:
            twos += 1
    return inversions


@dataclass(frozen=True)
class CoverEdge:
    """A Bruhat cover ``before -> after`` with ``l(after) = l(before)+1``.

    ``delta_letters = (s, t)`` encodes the factor ``delta_s - delta_t``
    read off at the smaller changed position.
    """

    before: String012
    after: String012
    i: int  # smaller changed position (0-based)
    j: int  # larger changed position (0-based)
    delta_letters: tuple[int, int]

    def delta_tower(self) -> Tower:
        s, t = self.delta_letters
        return Tower.delta(s) - Tower.delta(t)

    def delta_spec(self) -> int:
        s, t = self.delta_letters
        return DELTA_SPEC[s] - DELTA_SPEC[t]


def covers(u: String012) -> list[CoverEdge]:
    """All covers ``u -> u'`` (length increases by one).

    The three replacement patterns on a connected subsequence are
    ``(0,2^m,1) -> (1,2^m,0)``, ``(0,2) -> (2,0)`` and
    ``(1,0^m,2) -> (2,0^m,1)``.

    >>> [c.delta_letters for c in covers(parse("10221"))]
    [(1, 2), (0, 1), (0, 2)]
    """
    n = len(u)
    out: list[CoverEdge] = []
    for i in range(n):
        if u[i] == 0:
            # (0, 2^m, 1) -> (1, 2^m, 0)
            j = i + 1
            while j < n and u[j] == 2:
                j += 1
            if j < n and u[j] == 1:
                after = u[:i] + (1,) + u[i + 1 : j] + (0,) + u[j + 1 :]
                out.append(CoverEdge(u, after, i, j, (0, 1)))
            # (0, 2) -> (2, 0)
            if i + 1 < n and u[i + 1] == 2:
                after = u[:i] + (2, 0) + u[i + 2 :]
                out.append(CoverEdge(u, after, i, i + 1, (0, 2)))
        elif u[i] == 1:
            # (1, 0^m, 2) -> (2, 0^m, 1)
            j = i + 1
            while j < n and u[j] == 0:
                j += 1
            if j < n and u[j] == 2:
                after = u[:i] + (2,) + u[i + 1 : j] + (1,) + u[j + 1 :]
                out.append(CoverEdge(u, after, i, j, (1, 2)))
    return out


def cocovers(w: String012) -> list[CoverEdge]:
    """All covers ``w' -> w`` (i.e. ``w`` covers ``w'``), sorted by
    ``(i, j)``.

    Reversing a string turns the Bruhat order of its content upside
    down, with ``l(rev u) = N - l(u)`` for the largest length ``N`` (on
    the Weyl group, ``w -> w w0``; Bjorner-Brenti, *Combinatorics of
    Coxeter Groups*, Prop. 2.3.4).  So the covers into ``w`` are the
    covers out of ``rev w``, read backwards.

    >>> all(c.after == parse("12021") for c in cocovers(parse("12021")))
    True
    """
    n = len(w)
    out = [
        CoverEdge(c.after[::-1], w, n - 1 - c.j, n - 1 - c.i, c.delta_letters)
        for c in covers(w[::-1])
    ]
    out.sort(key=lambda c: (c.i, c.j))
    return out


def neighbours(u: String012, v: String012, w: String012) -> list[tuple]:
    """The Bruhat neighbours of ``(u, v, w)``: ``(border, cover,
    triple)`` for each cover out of ``u``, then out of ``v``, then into
    ``w``, where ``triple`` is ``(u, v, w)`` with that border's string
    moved to the cover's other end.

    >>> [(b, *map(fmt, t)) for b, _, t in neighbours(parse("01"), parse("01"), parse("10"))]
    [('u', '10', '01', '10'), ('v', '01', '10', '10'), ('w', '01', '01', '01')]
    """
    return (
        [("u", c, (c.after, v, w)) for c in covers(u)]
        + [("v", c, (u, c.after, w)) for c in covers(v)]
        + [("w", c, (u, v, c.before)) for c in cocovers(w)]
    )


def bruhat_leq(u: String012, w: String012) -> bool:
    """Bruhat order comparison by the tableau criterion, in O(n).

    Strings of different content are incomparable; otherwise ``u <= w``
    when every prefix of ``u`` has no more letters ``>= 1`` and no more
    ``2``s than the prefix of ``w`` of the same length.
    """
    if content(u) != content(w):
        return False
    high = twos = 0  # prefix counts of w minus those of u
    for a, b in zip(u, w):
        high += (b > 0) - (a > 0)
        twos += (b == 2) - (a == 2)
        if high < 0 or twos < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# The forms C_u and the recursion oracle


def c_form(u: String012) -> Tower:
    """``C_u = sum_i delta_(u_i) y_i`` as a tower element.

    >>> c = c_form(parse("01021"))
    >>> c == (Tower.delta(0) * Tower.from_ypoly(y(1) + y(3))
    ...       + Tower.delta(1) * Tower.from_ypoly(y(2) + y(5))
    ...       + Tower.delta(2) * Tower.from_ypoly(y(4)))
    True
    """
    return Tower(
        {(letter, (0,) * (i - 1) + (1,), 0): 1 for i, letter in enumerate(u, start=1)}
    )


def extreme_constant(w: String012) -> YPoly:
    """``C^w_(w,w) = prod over inversions i<j of (y_j - y_i)``.

    >>> extreme_constant(parse("012")) == YPoly.const(1)
    True
    >>> extreme_constant(parse("210")) == (y(2)-y(1))*(y(3)-y(1))*(y(3)-y(2))
    True
    """
    out = YPoly.const(1)
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] > w[j]:
                out = out * (y(j + 1) - y(i + 1))
    return out


@lru_cache(maxsize=None)
def oracle_constant(u: String012, v: String012, w: String012) -> YPoly:
    """The structure constant ``C^w_(u,v)`` from the recursion oracle.

    Descending induction on the degree ``l(u)+l(v)-l(w)``: negative
    degree gives 0, and so does a triple outside the support ``u <= w``,
    ``v <= w`` of the constants (Knutson-Tao), before any cover is
    built; ``u = v = w`` is the closed product formula; for
    ``u != w`` the associativity recursion in ``u`` is solved for
    ``C^w_(u,v)`` by specializing the deltas to ``(2,1,0)`` and dividing
    exactly by the specialization of ``C_u - C_w``; for ``u = w != v``
    the symmetric recursion in ``v`` is used.

    >>> u = parse("01201"); v = parse("10102")
    >>> oracle_constant(u, v, parse("12001")) == y(4) - y(1)
    True
    """
    type_u = content(u)
    if type_u != content(v) or type_u != content(w):
        raise ValueError("mismatched string types")
    deg = length(u) + length(v) - length(w)
    if deg < 0 or not (bruhat_leq(u, w) and bruhat_leq(v, w)):
        return YPoly.zero()
    if u == w and v == w:
        return extreme_constant(w)
    if u == w:
        # recurse in v instead
        u, v = v, u
    # recursion in u (Eq. in the first factor):
    #   (C_u - C_w) C^w_(u,v)
    #     = sum_(w'->w) delta(w'/w) C^(w')_(u,v)
    #       - sum_(u->u') delta(u/u') C^w_(u',v)
    parts = [(c.delta_spec(), oracle_constant(u, v, c.before)) for c in cocovers(w)]
    parts += [(-c.delta_spec(), oracle_constant(c.after, v, w)) for c in covers(u)]
    rhs = YPoly.combination(parts)
    if not rhs:
        return rhs
    # C_u - C_w at DELTA_SPEC, nonzero as u != w
    divisor = YPoly(
        {
            (0,) * i + (1,): DELTA_SPEC[a] - DELTA_SPEC[b]
            for i, (a, b) in enumerate(zip(u, w))
            if a != b
        }
    )
    return exact_divide(rhs, divisor)


def chevalley(u: String012) -> dict[String012, Tower]:
    """The divisor product expansion ``D . [X^u]``.

    Returns the map from 012-strings to tower coefficients:
    ``(C_u - C_0)`` on ``u`` itself plus ``delta(u/u')`` on each cover.

    >>> exp = chevalley(parse("012"))
    >>> exp[parse("012")] == Tower.zero()
    True
    """
    a, b, n = content(u)
    out: dict[String012, Tower] = {}
    diag = c_form(u) - c_form(identity_string(a, b, n))
    out[u] = diag
    for c in covers(u):
        out[c.after] = out.get(c.after, Tower.zero()) + c.delta_tower()
    return out


# ---------------------------------------------------------------------------
# Quantum layer: Grassmannian Gr(m,n) = Fl(m,m;n)


def partition_to_string(lam: tuple[int, ...], m: int, n: int) -> String012:
    """The 02-string of a partition in the m x (n-m) rectangle.

    The string traces the lattice path from the lower-left to the
    upper-right corner of the rectangle: step ``i`` is vertical (letter
    0) or horizontal (letter 2), and the diagram lies north-west of the
    path.  Hence the k-th zero sits at position ``lam_(m+1-k) + k``.

    >>> fmt(partition_to_string((), 2, 5))
    '00222'
    >>> fmt(partition_to_string((3, 1), 2, 5))
    '20220'
    >>> fmt(partition_to_string((4, 3, 1), 3, 8))
    '20220202'
    """
    parts = list(lam) + [0] * (m - len(lam))
    if len(parts) != m or any(
        parts[i] < parts[i + 1] for i in range(m - 1)
    ) or any(p < 0 or p > n - m for p in parts):
        raise ValueError(f"not a partition in the {m}x{n-m} rectangle: {lam!r}")
    s = [2] * n
    for k in range(1, m + 1):
        pos = parts[m - k] + k
        s[pos - 1] = 0
    return tuple(s)


def string_to_partition(s: String012) -> tuple[int, ...]:
    """Inverse of :func:`partition_to_string` (normalized, no trailing 0s).

    >>> string_to_partition(parse("20220"))
    (3, 1)
    >>> string_to_partition(parse("00222"))
    ()
    """
    if 1 in s:
        raise ValueError("not an 02-string")
    m = s.count(0)
    zero_pos = [pos for pos, letter in enumerate(s, start=1) if letter == 0]
    parts = [zero_pos[m - i] - (m + 1 - i) for i in range(1, m + 1)]
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def all_partitions(m: int, n: int) -> list[tuple[int, ...]]:
    """All partitions fitting in the m x (n-m) rectangle."""
    return sorted(
        string_to_partition(s) for s in all_strings(m, m, n)
    )


def dual_partition_string(s: String012) -> String012:
    """The complementary class: reverse the 02-string."""
    return tuple(reversed(s))


def contains_rect(s: String012, d: int) -> bool:
    """Whether the partition of the 02-string contains a d x d square.

    Criterion: the first ``d`` twos all come before the last ``d`` zeros.

    >>> contains_rect(parse("20220"), 1)
    True
    >>> contains_rect(parse("00222"), 1)
    False
    """
    if d == 0:
        return True
    twos = [i for i, x in enumerate(s) if x == 2]
    zeros = [i for i, x in enumerate(s) if x == 0]
    if len(twos) < d or len(zeros) < d:
        return False
    return twos[d - 1] < zeros[-d]


def jd_map(s: String012, d: int) -> String012:
    """Replace the first ``d`` twos and the last ``d`` zeros with ones.

    >>> fmt(jd_map(parse("20220202"), 2))
    '10121212'
    """
    twos = [i for i, x in enumerate(s) if x == 2]
    zeros = [i for i, x in enumerate(s) if x == 0]
    if len(twos) < d or len(zeros) < d:
        raise ValueError("not enough letters for the substitution")
    out = list(s)
    for i in twos[:d]:
        out[i] = 1
    for i in zeros[len(zeros) - d :]:
        out[i] = 1
    return tuple(out)


def gw_invariant(
    lam: tuple[int, ...],
    mu: tuple[int, ...],
    nu: tuple[int, ...],
    d: int,
    m: int,
    n: int,
    constant_fn,
) -> YPoly:
    """The degree-d Gromov-Witten invariant on Gr(m, n).

    Zero unless each of ``lam``, ``mu`` and the complement of ``nu``
    contains a d x d square; otherwise the two-step structure constant
    ``constant_fn(u, v, w)`` on Fl(m-d, m+d; n) after the letter
    substitution.
    """
    if d > min(m, n - m) or d < 0:
        return YPoly.zero()
    ls = partition_to_string(lam, m, n)
    ms = partition_to_string(mu, m, n)
    ns = partition_to_string(nu, m, n)
    nd = dual_partition_string(ns)
    if not (contains_rect(ls, d) and contains_rect(ms, d) and contains_rect(nd, d)):
        return YPoly.zero()
    wt = tuple(reversed(jd_map(nd, d)))
    return constant_fn(jd_map(ls, d), jd_map(ms, d), wt)


def quantum_product(
    lam: tuple[int, ...],
    mu: tuple[int, ...],
    m: int,
    n: int,
    constant_fn=None,
) -> dict[tuple[int, tuple[int, ...]], YPoly]:
    """The equivariant quantum product of two Schubert classes of Gr(m,n).

    Returns the map ``(d, nu) -> coefficient`` over all nonzero terms of
    ``sigma_lam * sigma_mu = sum q^d coeff * sigma_nu``.  The two-step
    constants come from ``constant_fn(u, v, w)`` if given, else from one
    ``product_expansion`` per degree, kept for the duration of the call.
    """
    if constant_fn is None:
        from .search import product_expansion  # noqa: PLC0415

        expansions: dict[tuple[String012, String012], dict] = {}

        def constant_fn(u: String012, v: String012, w: String012) -> YPoly:
            if (u, v) not in expansions:
                expansions[(u, v)] = product_expansion(u, v)
            return expansions[(u, v)].get(w, YPoly.zero())

    out: dict[tuple[int, tuple[int, ...]], YPoly] = {}
    for d in range(min(m, n - m) + 1):
        for nu in all_partitions(m, n):
            c = gw_invariant(lam, mu, nu, d, m, n, constant_fn)
            if c:
                out[(d, nu)] = c
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
