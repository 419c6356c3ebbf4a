"""Explicit matrix families, the lifting operator, and the embedding.

Everything here is a generator of concrete perfect copositive matrices: the
tridiagonal root-lattice forms, the rank-2 series P_k, row/column lifting
with an explicit validated witness, and the unimodular transform that turns
a Minkowski-reduced classically perfect matrix into a perfect copositive
one.  The fixed 3x3 and 5x5 matrices used throughout the test battery live
here too, transcribed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cop import classical_below, classical_min, copositive_min
from .core import (SymMat, dim_sym, inertia, nullspace, quad_form,
                   span_rank_of_vectors)
from .errors import PreconditionError
from .perfect import is_perfect_copositive


def q_an(n: int) -> SymMat:
    """Tridiagonal form of the A_n root lattice: 2 on, -1 next to, the diagonal."""
    if n < 1:
        raise PreconditionError("bad-dimension", "q_an needs n >= 1")
    return SymMat.from_rows(
        [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
         for i in range(n)])


def p_k(k: int) -> SymMat:
    """Rank-2 series [[2,-b,2],[-b,2a,-b],[2,-b,2]], a = k^2+k+1, b = 2k+1."""
    if k < 1:
        raise PreconditionError("bad-index", "p_k needs k >= 1")
    a = k * k + k + 1
    b = 2 * k + 1
    return SymMat.from_rows([[2, -b, 2], [-b, 2 * a, -b], [2, -b, 2]])


@dataclass(frozen=True)
class LiftWitness:
    """Minimal vector of the base whose last entry is at least 2."""

    base: SymMat
    witness_vector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "witness_vector",
                           tuple(int(x) for x in self.witness_vector))


def lift(q: SymMat, proof: LiftWitness) -> SymMat:
    """Duplicate the last row and column; perfect when the witness holds.

    The witness is validated against copositive_min(q): it must be a minimal
    vector with last entry >= 2, and q itself must be perfect.  The
    duplicated coordinate is always the last one; any reordering is the
    caller's explicit permutation step.
    """
    if proof.base != q:
        raise PreconditionError("witness-base-mismatch",
                                "lift witness was issued for another matrix")
    w = proof.witness_vector
    n = q.n
    if len(w) != n:
        raise PreconditionError("witness-dimension-mismatch",
                                "witness length %d for a %dx%d base"
                                % (len(w), n, n))
    if w[-1] < 2:
        raise PreconditionError(
            "witness-last-entry",
            "lifting needs a minimal vector with last entry >= 2, got %d"
            % w[-1])
    res = copositive_min(q)
    if w not in res.vectors:
        raise PreconditionError("witness-not-minimal",
                                "%s does not attain the copositive minimum"
                                % (w,))
    if span_rank_of_vectors(res.vectors) != dim_sym(n):
        raise PreconditionError("base-not-perfect",
                                "lifting is only defined on perfect matrices")
    return SymMat.from_rows(
        [[q.entry(min(i, n - 1), min(j, n - 1)) for j in range(n + 1)]
         for i in range(n + 1)])


# ---------------------------------------------------------------------------
# classical-to-copositive embedding

@dataclass(frozen=True)
class EmbeddingResult:
    """transformed = U^T Q U; u_inv is the lower-triangular power matrix."""

    u: tuple[tuple[int, ...], ...]
    u_inv: tuple[tuple[int, ...], ...]
    q_bound: int
    transformed: SymMat


def minkowski_reduced_check(q: SymMat) -> bool:
    """Q[v] >= q_ii whenever gcd(v_i, ..., v_n) = 1, checked exhaustively.

    Only vectors with Q[v] <= max_i q_ii can violate the inequality, so the
    check enumerates that finite set.
    """
    if not inertia(q).is_positive_definite():
        raise PreconditionError("not-positive-definite",
                                "reducedness is defined for positive "
                                "definite matrices")
    n = q.n
    cap = max(q.entry(i, i) for i in range(n))
    for v in classical_below(q, cap):
        val = quad_form(q, v)
        for i in range(n):
            g = 0
            for x in v[i:]:
                g = gcd(g, abs(x))
            if g == 1 and val < q.entry(i, i):
                return False
    return True


def _invert_unitriangular(l: list[list[int]]) -> list[list[int]]:
    """L^-1 for an integer L of determinant +-1.

    Column i of L^-1 is x in the kernel vector (x, e_i) of [L | -I]: L^-1
    is integral, so that vector is the primitive one.
    """
    n = len(l)
    kernel = nullspace([row + [-int(i == j) for j in range(n)]
                        for i, row in enumerate(l)], 2 * n)
    return [list(row) for row in zip(*(x[:n] for x in kernel))]


def embed_classical(q: SymMat) -> EmbeddingResult:
    """Unimodular transform making a classically perfect matrix copositive-perfect.

    q_bound is instance-specific: 1 + the largest minimal-vector entry in
    absolute value, the smallest bound the triangular construction accepts.
    Verification failures after the preconditions hold are internal errors,
    not input errors.
    """
    if not inertia(q).is_positive_definite():
        raise PreconditionError("not-positive-definite",
                                "embedding needs a positive definite matrix")
    if not minkowski_reduced_check(q):
        raise PreconditionError("not-minkowski-reduced",
                                "embedding requires a Minkowski reduced "
                                "matrix; reduce first")
    _, minvecs = classical_min(q)
    n = q.n
    if span_rank_of_vectors(minvecs) != dim_sym(n):
        raise PreconditionError("not-classically-perfect",
                                "minimal vectors do not span the space of "
                                "symmetric matrices")
    qb = 1 + max(abs(x) for v in minvecs for x in v)
    l = [[qb ** (i - j) if i >= j else 0 for j in range(n)] for i in range(n)]
    u = _invert_unitriangular(l)
    rows = [[sum(Fraction(u[a][i]) * q.entry(a, b) * u[b][j]
                 for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]
    transformed = SymMat.from_rows(rows)
    for v in minvecs:
        w = [sum(l[i][j] * v[j] for j in range(n)) for i in range(n)]
        if not (all(x >= 0 for x in w) or all(x <= 0 for x in w)):
            raise RuntimeError("transformed minimal vector %s leaves the "
                               "one-signed orthant" % (w,))
    if not is_perfect_copositive(transformed):
        raise RuntimeError("transformed matrix failed the perfectness check")
    return EmbeddingResult(tuple(tuple(r) for r in u),
                           tuple(tuple(r) for r in l), qb, transformed)


# ---------------------------------------------------------------------------
# fixed matrices

@dataclass(frozen=True)
class Fixtures:
    I: SymMat
    E: SymMat
    Q_dnn: SymMat
    minc_I: tuple[tuple[int, ...], ...]
    minc_E: tuple[tuple[int, ...], ...]


_I_ROWS = [[2, -5, 4], [-5, 14, -9], [4, -9, 6]]

_E_ROWS_3X = [[366, -300, 197, 147, -81],
              [-300, 246, -161, 123, 69],
              [197, -161, 106, -82, 39],
              [147, 123, -82, 66, -33],
              [-81, 69, 39, -33, 18]]

_Q_DNN_ROWS = [[1, 1, 0, 0, 1],
               [1, 2, 1, 0, 0],
               [0, 1, 2, 1, 0],
               [0, 0, 1, 2, 1],
               [1, 0, 0, 1, 6]]

_MINC_I = ((0, 1, 1), (0, 1, 2), (0, 2, 3), (1, 0, 0), (2, 1, 0), (3, 1, 0),
           (1, 1, 1))

_MINC_E = ((1, 0, 0, 0, 4), (2, 0, 0, 0, 9), (1, 0, 0, 0, 5),
           (1, 0, 0, 1, 6), (1, 2, 1, 0, 0), (0, 0, 1, 2, 2),
           (0, 0, 2, 4, 3), (0, 0, 1, 2, 1), (0, 2, 4, 1, 0),
           (0, 0, 0, 1, 2), (5, 6, 0, 0, 0), (0, 1, 3, 2, 0),
           (2, 0, 0, 1, 11), (2, 3, 1, 0, 0), (0, 3, 6, 2, 0),
           (0, 2, 3, 0, 0), (1, 1, 0, 0, 1), (4, 5, 0, 0, 0))


def fixtures() -> Fixtures:
    """The fixed 3x3 indefinite, 5x5 exceptional, and 5x5 witness matrices."""
    e = SymMat.from_rows([[Fraction(x, 3) for x in row] for row in _E_ROWS_3X])
    return Fixtures(SymMat.from_rows(_I_ROWS), e,
                    SymMat.from_rows(_Q_DNN_ROWS),
                    tuple(sorted(_MINC_I)), tuple(sorted(_MINC_E)))


def fixture_matrix(name: str) -> SymMat:
    """CLI lookup: I, E, Qdnn, QA:n, P:k."""
    if name == "I":
        return fixtures().I
    if name == "E":
        return fixtures().E
    if name == "Qdnn":
        return fixtures().Q_dnn
    if name.startswith("QA:"):
        return q_an(int(name[3:]))
    if name.startswith("P:"):
        return p_k(int(name[2:]))
    raise ValueError("unknown fixture name %r" % name)
