"""Exact rational arithmetic on symmetric matrices and integer vectors.

Symmetric matrices are stored by their upper triangle in a fixed coordinate
order: diagonal entries first, then off-diagonal entries row by row.  All
entries are ``fractions.Fraction``; nothing in this package ever rounds.
Integer vectors are plain tuples of ints.

Each SymMat computes its integer form ``den * coords`` (den the lcm of its
denominators) once; ``quad_form``, ``inner``, span rank and the LP read it.

Exact elimination, in ``int_rref`` and in the Phase-I LP of ``cones``, takes
one fraction-free step on integer rows, ``pivot`` (Edmonds, J. Res. NBS 71B,
1967; Bareiss).  Every exact solve is read off ``nullspace`` of one
augmented integer matrix: the simplex minimum on a support, the start cone
and lineality of the double description, the recovery of a matrix from its
minimal vectors and the embedding's inverse.  Elsewhere only the pivot
list of ``int_rref`` is read, for ranks and independent rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction


def coord_index(n: int, i: int, j: int) -> int:
    """Position of entry (i, j), i <= j, in the coordinate vector."""
    if i == j:
        return i
    # off-diagonal block starts at n; row i contributes (n-1-i) slots
    return n + i * (2 * n - i - 1) // 2 + (j - i - 1)


def dim_sym(n: int) -> int:
    """Dimension n(n+1)/2 of the space of symmetric n x n matrices."""
    return n * (n + 1) // 2


def _rational(x, name: str | None = None) -> Rat:
    """x as a Fraction; bools and inexact numbers like floats are refused.

    name is the argument x was passed as; without one x is a matrix entry.
    """
    if isinstance(x, bool) or not isinstance(x, (Rational, str)):
        if name is None:
            raise ValueError("matrix entries must be integers, fractions or "
                             "'p/q' strings, got %r" % (x,))
        raise ValueError("%s must be an integer, a fraction or a 'p/q' "
                         "string, got %r" % (name, x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("%s has a zero denominator: %r"
                         % (name or "matrix entry", x)) from None


@dataclass(frozen=True)
class SymMat:
    """Immutable symmetric matrix with Fraction entries.

    ``coords`` lists the diagonal first, then the strict upper triangle in
    row-major order, so ``len(coords) == n*(n+1)//2``.
    """

    n: int
    coords: tuple[Rat, ...]

    def __post_init__(self):
        if type(self.n) is not int or self.n <= 0:  # bool is refused too
            raise ValueError("n must be a positive integer, got %r"
                             % (self.n,))
        if len(self.coords) != dim_sym(self.n):
            raise ValueError(
                "expected %d coordinates for n=%d, got %d"
                % (dim_sym(self.n), self.n, len(self.coords))
            )
        if (type(self.coords) is not tuple
                or not all(isinstance(c, Fraction) for c in self.coords)):
            object.__setattr__(
                self, "coords", tuple(_rational(c) for c in self.coords)
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SymMat":
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix is not square")
        grid = [[_rational(x) for x in r] for r in rows]
        for i in range(n):
            for j in range(i + 1, n):
                if grid[i][j] != grid[j][i]:
                    raise ValueError(
                        "matrix is not symmetric at (%d, %d)" % (i, j)
                    )
        coords = [grid[i][i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                coords.append(grid[i][j])
        return cls(n, tuple(coords))

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], int]:
        """(den*coords, den), den the lcm of the denominators; not a field."""
        den = lcm(*(c.denominator for c in self.coords))
        return tuple(c.numerator * (den // c.denominator)
                     for c in self.coords), den

    def entry(self, i: int, j: int) -> Rat:
        if i > j:
            i, j = j, i
        return self.coords[coord_index(self.n, i, j)]

    def rows(self) -> list[list[Rat]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def scale(self, t) -> "SymMat":
        t = _rational(t)
        return SymMat(self.n, tuple(t * c for c in self.coords))

    def __add__(self, other: "SymMat") -> "SymMat":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return SymMat(
            self.n, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "SymMat") -> "SymMat":
        return self + other.scale(-1)

    def has_nonneg_entries(self) -> bool:
        return all(c >= 0 for c in self.coords)


def identity(n: int) -> SymMat:
    coords = [Fraction(1)] * n + [Fraction(0)] * (dim_sym(n) - n)
    return SymMat(n, tuple(coords))


def basis_e(n: int, i: int, j: int) -> SymMat:
    """E_ij with ones at (i, j) and (j, i), zero elsewhere."""
    coords = [Fraction(0)] * dim_sym(n)
    coords[coord_index(n, min(i, j), max(i, j))] = Fraction(1)
    return SymMat(n, tuple(coords))


def _exact(v) -> list:
    """The entries of v as ints and Fractions; floats and bools are refused."""
    return [x if type(x) is int else _rational(x, "vector entries") for x in v]


def _outer(v) -> list:
    """Coordinates of v v^T, in SymMat's order."""
    n = len(v)
    return [x * x for x in v] + [v[i] * v[j] for i in range(n)
                                 for j in range(i + 1, n)]


def quad_form(q: SymMat, v: Sequence) -> Rat:
    """Evaluate v^T Q v exactly; a rational v is scaled to integers first."""
    n = q.n
    if len(v) != n:
        raise ValueError("vector length %d does not match n=%d" % (len(v), n))
    s = 1
    if not all(type(x) is int for x in v):
        v = _exact(v)
        s = lcm(*(x.denominator for x in v))
        v = [x.numerator * (s // x.denominator) for x in v]
    ints, den = q._ints
    total = 0
    k = n  # row i's entries right of the diagonal are ints[k:k + n-1-i]
    for i, x in enumerate(v):
        if x:
            total += x * (ints[i] * x + 2 * sum(
                map(mul, ints[k:k + n - 1 - i], v[i + 1:])))
        k += n - 1 - i
    return Fraction(total, den * s * s)


def inner(a: SymMat, b: SymMat) -> Rat:
    """Trace inner product sum_ij a_ij b_ij (off-diagonals count twice)."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    (ai, da), (bi, db), n = a._ints, b._ints, a.n
    # the off-diagonal coordinates, those after the n-th, count twice
    return Fraction(sum(map(mul, ai, bi)) + sum(map(mul, ai[n:], bi[n:])),
                    da * db)


def rank_one(v: Sequence[int]) -> SymMat:
    """The matrix v v^T; v may have rational entries."""
    w = _exact(v)
    return SymMat(len(w), tuple(_outer(w)))


@dataclass(frozen=True)
class Inertia:
    n_pos: int
    n_zero: int
    n_neg: int

    @property
    def rank(self) -> int:
        return self.n_pos + self.n_neg

    def is_positive_definite(self) -> bool:
        return self.n_zero == 0 and self.n_neg == 0

    def is_positive_semidefinite(self) -> bool:
        return self.n_neg == 0


def inertia(q: SymMat) -> Inertia:
    """Signs of the eigenvalues, read off the characteristic polynomial.

    Faddeev-LeVerrier gives det(xI - A) for the integer matrix A = den*Q;
    its divisions by k are exact over the integers.  A symmetric matrix has
    only real eigenvalues, so Descartes' rule of signs counts the positive
    ones exactly, and the zero ones are the trailing zero coefficients.
    """
    n = q.n
    a = _int_form(q)[0]
    coeffs = [1]  # of x^n, x^(n-1), ..., x^0
    m = [[0] * n for _ in range(n)]  # A M_(k-1), with M_0 = 0
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = [[sum(map(mul, row, col)) for col in zip(*m)] for row in a]
        coeffs.append(-sum(m[i][i] for i in range(n)) // k)
    n_zero = n - max(i for i, c in enumerate(coeffs) if c)
    signs = [c > 0 for c in coeffs if c]
    n_pos = sum(s != t for s, t in zip(signs, signs[1:]))
    return Inertia(n_pos, n_zero, n - n_pos - n_zero)


# ---------------------------------------------------------------------------
# exact integer linear algebra

def _int_form(b: SymMat) -> tuple[list[list[int]], int]:
    """Integer matrix den*B together with the denominator den > 0."""
    (ints, den), n = b._ints, b.n
    return [[ints[coord_index(n, min(i, j), max(i, j))] for j in range(n)]
            for i in range(n)], den


def primitive(vec) -> tuple[int, ...]:
    """The integer vector of content 1 on the ray of a rational vector.

    The zero vector stays zero.
    """
    den = lcm(1, *(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def pivot(m: list[list[int]], r: int, c: int, prev: int) -> int:
    """One fraction-free pivot on m[r][c], in place; returns p = m[r][c].

    Every row other than r becomes (p*row - row[c]*m[r]) // prev, even where
    row[c] is 0: the rows stay over one common pivot, the previous one, so
    each division is exact.  p is the next prev (1 before the first pivot).
    """
    pr = m[r]
    p = pr[c]
    for i, row in enumerate(m):
        if i != r:
            f = row[c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
    return p


def int_rref(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) on integer rows.

    Returns (m, pivots).  Row i < len(pivots) of m holds the common pivot
    value d at column pivots[i] and 0 at every other pivot column; the
    rows after them are zero.  Each step is one ``pivot`` after a row swap.
    """
    m = [list(r) for r in rows]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prev = pivot(m, r, c, prev)
        pivots.append(c)
    return m, pivots


def nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of {x : rows . x = 0}, one per free column.

    The vector of free column f is positive at f and zero at every other
    free column.
    """
    m, pivots = int_rref(rows, ncols)
    d = m[0][pivots[0]] if pivots else 1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, c in zip(m, pivots):
            vec[c] = -row[f]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis


def row_rank(rows: list[list[Rat]]) -> int:
    """Rank of a rational matrix."""
    ints = [primitive(r) for r in rows]
    return len(int_rref(ints, len(ints[0]) if ints else 0)[1])


def span_rank(mats: Iterable[SymMat]) -> int:
    """Dimension of the linear span of the given symmetric matrices."""
    return row_rank([mat._ints[0] for mat in mats])


def span_rank_of_vectors(vectors: Iterable[Sequence[int]]) -> int:
    """Dimension of span{v v^T} for the given vectors."""
    return row_rank([_outer(_exact(v)) for v in vectors])


# ---------------------------------------------------------------------------
# serialization

def _fraction_to_str(x: Rat) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def mat_to_json(q: SymMat) -> dict:
    rows = q.rows()
    return {
        "n": q.n,
        "entries": [[_fraction_to_str(x) for x in row] for row in rows],
    }


def mat_from_json(obj) -> SymMat:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    if "n" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON needs 'n' and 'entries' fields")
    n = obj["n"]
    entries = obj["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise ValueError("'n' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise ValueError("'entries' must be a list of %d rows" % n)
    for r in entries:
        if not isinstance(r, list) or len(r) != n:
            raise ValueError("each row must be a list of %d entries" % n)
    return SymMat.from_rows(entries)


def mat_dumps(q: SymMat) -> str:
    return json.dumps(mat_to_json(q), indent=2, sort_keys=True)


def mat_loads(text: str) -> SymMat:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError("invalid JSON: %s" % e) from e
    return mat_from_json(obj)
