"""Exact rational arithmetic on symmetric matrices and integer vectors.

Symmetric matrices are stored by their upper triangle in a fixed coordinate
order: diagonal entries first, then off-diagonal entries row by row.  All
entries are ``fractions.Fraction``; nothing in this package ever rounds.
Integer vectors are plain tuples of ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
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


def _rational(x) -> Rat:
    """x as a Fraction; bools and inexact numbers like floats are refused."""
    if isinstance(x, bool) or not isinstance(x, (Rational, str)):
        raise ValueError("matrix entries must be integers, fractions or "
                         "'p/q' strings, got %r" % (x,))
    return Fraction(x)


@dataclass(frozen=True)
class SymMat:
    """Immutable symmetric matrix with Fraction entries.

    ``coords`` lists the diagonal first, then the strict upper triangle in
    row-major order, so ``len(coords) == n*(n+1)//2``.
    """

    n: int
    coords: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.coords) != dim_sym(self.n):
            raise ValueError(
                "expected %d coordinates for n=%d, got %d"
                % (dim_sym(self.n), self.n, len(self.coords))
            )
        if not all(isinstance(c, Fraction) for c in self.coords):
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

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def has_nonneg_entries(self) -> bool:
        return all(c >= 0 for c in self.coords)


def sym_from_coords(n: int, coords: Iterable) -> SymMat:
    return SymMat(n, tuple(coords))


def identity(n: int) -> SymMat:
    coords = [Fraction(1)] * n + [Fraction(0)] * (dim_sym(n) - n)
    return SymMat(n, tuple(coords))


def basis_e(n: int, i: int, j: int) -> SymMat:
    """E_ij with ones at (i, j) and (j, i), zero elsewhere."""
    coords = [Fraction(0)] * dim_sym(n)
    coords[coord_index(n, min(i, j), max(i, j))] = Fraction(1)
    return SymMat(n, tuple(coords))


def quad_form(q: SymMat, v: Sequence) -> Rat:
    """Evaluate v^T Q v exactly; v may have rational entries."""
    n = q.n
    if len(v) != n:
        raise ValueError("vector length %d does not match n=%d" % (len(v), n))
    w = [Fraction(x) for x in v]
    total = Fraction(0)
    for i in range(n):
        total += q.coords[i] * w[i] * w[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            total += 2 * q.coords[k] * w[i] * w[j]
            k += 1
    return total


def inner(a: SymMat, b: SymMat) -> Rat:
    """Trace inner product sum_ij a_ij b_ij (off-diagonals count twice)."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    n = a.n
    total = Fraction(0)
    for i in range(n):
        total += a.coords[i] * b.coords[i]
    for k in range(n, dim_sym(n)):
        total += 2 * a.coords[k] * b.coords[k]
    return total


def rank_one(v: Sequence[int]) -> SymMat:
    """The matrix v v^T."""
    n = len(v)
    w = [Fraction(x) for x in v]
    coords = [w[i] * w[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords.append(w[i] * w[j])
    return SymMat(n, tuple(coords))


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
    den = lcm(*(c.denominator for c in q.coords))
    a = [[int(x * den) for x in row] for row in q.rows()]
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

def primitive(vec) -> tuple[int, ...]:
    """The integer vector of content 1 on the ray of a rational vector.

    The zero vector stays zero.
    """
    den = lcm(1, *(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def int_rref(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) on integer rows.

    Returns (m, pivots).  Row i < len(pivots) of m holds the common pivot
    value d at column pivots[i] and 0 at every other pivot column; the
    rows after them are zero.  Every row other than the pivot row is
    updated at every pivot, even where its multiplier is 0, so each
    division by the previous pivot is exact.
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
        pr = m[r]
        p = pr[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        prev = p
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
        basis.append(primitive(vec if d > 0 else [-x for x in vec]))
    return basis


def row_rank(rows: list[list[Rat]]) -> int:
    """Rank of a rational matrix."""
    ints = [primitive(r) for r in rows]
    return len(int_rref(ints, len(ints[0]) if ints else 0)[1])


def span_rank(mats: Iterable[SymMat]) -> int:
    """Dimension of the linear span of the given symmetric matrices."""
    rows = [list(mat.coords) for mat in mats]
    return row_rank(rows)


def span_rank_of_vectors(vectors: Iterable[Sequence[int]]) -> int:
    """Dimension of span{v v^T} for the given vectors."""
    return span_rank(rank_one(v) for v in vectors)


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
    if not isinstance(n, int) or n <= 0:
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
