"""Polyhedral cones in the space of symmetric matrices.

Cones live in the n(n+1)/2-dimensional coordinate space (diagonal first, then
upper triangle).  An inequality given by a symmetric normal A means
inner(A, .) >= 0; in coordinates that is the dot product with the vector
(a_11 .. a_nn, 2a_12, 2a_13, ...), so the pairing stays the trace inner
product throughout.

extreme_rays is an incremental double description on primitive integer
rays: one nullspace of [B | -I], B the independent normals, gives the
lineality and a simplicial start cone, each further inequality splits the
current rays, and adjacent positive and negative rays are combined.  Adjacency is the exact
algebraic test: the common tight normals must have rank D - lineality - 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .core import (Rat, SymMat, dim_sym, inner, int_rref, nullspace, pivot,
                   primitive)
from .errors import PreconditionError


@dataclass(frozen=True)
class ConeHRep:
    """{ B : inner(A, B) >= 0 for every normal A }; zero normals dropped."""

    n: int
    normals: tuple[SymMat, ...]

    def __post_init__(self):
        kept = tuple(a for a in self.normals if any(c != 0 for c in a.coords))
        for a in kept:
            if a.n != self.n:
                raise PreconditionError("dimension-mismatch",
                                        "normal of size %d in a cone of size %d"
                                        % (a.n, self.n))
        object.__setattr__(self, "normals", kept)


@dataclass(frozen=True)
class ConeVRep:
    """Generators: extreme rays, plus a lineality basis when not pointed.

    Rays are integer matrices with content 1; the lineality basis is sign
    fixed by the first nonzero coordinate.
    """

    rays: tuple[SymMat, ...]
    lineality: tuple[SymMat, ...] = field(default=())


def pairing_coeffs(a: SymMat) -> tuple[Rat, ...]:
    """Coordinate vector c with c . coords(B) = inner(A, B)."""
    n = a.n
    return tuple(a.coords[k] if k < n else 2 * a.coords[k]
                 for k in range(dim_sym(n)))


def _sign_fixed(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def extreme_rays(cone: ConeHRep) -> ConeVRep:
    """Extreme rays and lineality of an H-represented cone, deterministic.

    Insertion order: normals sorted by increasing number of zero coordinates,
    ties lexicographic.  The normals independent of those before them form
    the start cone; the rest follow in that order.  Output rays sorted by
    coordinate vector.
    """
    D = dim_sym(cone.n)
    coeffs = sorted(
        (primitive(pairing_coeffs(a)) for a in cone.normals),
        key=lambda c: (sum(1 for x in c if x == 0), c))
    basis = int_rref(list(zip(*coeffs)), len(coeffs))[1]
    # the kernel of [B | -I] holds (x, y) with B x = y: first the lineality
    # (y = 0), then start ray i (y a positive multiple of e_i), each zero on
    # the free columns of B; x is primitive as B is integral
    kernel = nullspace([list(coeffs[b]) + [-int(c == b) for c in basis]
                        for b in basis], D + len(basis))
    lin = len(kernel) - len(basis)
    full = sum(1 << b for b in basis)
    # (primitive vector, bitmask of tight processed normals)
    rays = [(x[:D], full & ~(1 << b)) for x, b in zip(kernel[lin:], basis)]
    need = len(basis) - 2
    for idx in sorted(set(range(len(coeffs))) - set(basis)):
        a = coeffs[idx]
        pos, zer, neg = [], [], []
        for r, mask in rays:
            v = sum(x * y for x, y in zip(a, r))
            if v > 0:
                pos.append((r, mask, v))
            elif v < 0:
                neg.append((r, mask, v))
            else:
                zer.append((r, mask | (1 << idx)))
        combos = []
        for p, pmask, pv in pos:
            for q, qmask, qv in neg:
                common = pmask & qmask
                if common.bit_count() < need:
                    continue
                tight = [c for t, c in enumerate(coeffs) if (common >> t) & 1]
                if len(int_rref(tight, D)[1]) != need:
                    continue
                combos.append(
                    (primitive([pv * y - qv * x for x, y in zip(p, q)]),
                     common | (1 << idx)))
        rays = [(r, mask) for r, mask, _ in pos] + zer + combos
    rays = sorted(r for r, _ in rays)
    lineality = sorted(_sign_fixed(l[:D]) for l in kernel[:lin])
    return ConeVRep(tuple(SymMat(cone.n, r) for r in rays),
                    tuple(SymMat(cone.n, l) for l in lineality))


# ---------------------------------------------------------------------------
# exact linear programming

@dataclass(frozen=True)
class NonnegCombination:
    """Coefficients alpha >= 0 with sum alpha_i G_i = target."""

    coefficients: tuple[Rat, ...]


@dataclass(frozen=True)
class FarkasCertificate:
    """W with inner(W, G_i) >= 0 for all generators and inner(W, target) < 0."""

    matrix: SymMat


def lp_nonneg_solve(generators, target: SymMat):
    """Write target as a nonnegative combination of generators, or separate.

    Phase-I simplex with Bland's rule; exactly one of the two outcomes
    exists by LP duality, and whichever is found is verified by
    substitution before being returned.  The tableau, its last row the
    reduced costs, is held as integer rows over one common pivot d and
    updated by core's fraction-free ``pivot``.  d starts as the lcm of the
    target's denominators, and the generators are scaled by the lcm s of
    theirs, which leaves the pivots as they are; so every entry is an
    integer and every division exact.  Every pivot is positive, so signs
    and ratios are read off the integers, and a coefficient is s*x/d.
    """
    generators = list(generators)
    n = target.n
    for g in generators:
        if g.n != n:
            raise PreconditionError("dimension-mismatch",
                                    "generator size %d vs target size %d"
                                    % (g.n, n))
    D = dim_sym(n)
    m = len(generators)
    t, d = target._ints
    s = lcm(*(g._ints[1] for g in generators))
    cols = [[d * s // g._ints[1] * x for x in g._ints[0]] for g in generators]
    flips = [-1 if rhs < 0 else 1 for rhs in t]
    rows = [[f * col[k] for col in cols]
            + [d * (j == k) for j in range(D)] + [f * t[k]]
            for k, f in enumerate(flips)]
    # reduced costs for minimizing the artificial sum: r_j = c_j - 1^T A_j,
    # and minus the artificial sum on the right
    rows.append([-sum(col) for col in zip(*rows)])
    rows[D][m:m + D] = [0] * D
    basis = list(range(m, m + D))
    while True:
        enter = next((j for j in range(m + D) if rows[D][j] < 0), None)
        if enter is None:
            break
        leave = None
        for r in range(D):
            coef = rows[r][enter]
            # least ratio rhs/coef, by cross-multiplication; ties by basis
            if coef > 0 and (leave is None or
                             (rows[r][-1] * rows[leave][enter], basis[r])
                             < (rows[leave][-1] * coef, basis[leave])):
                leave = r
        if leave is None:
            raise RuntimeError("phase-I simplex claims unboundedness")
        d = pivot(rows, leave, enter, d)
        basis[leave] = enter
    if rows[D][-1] == 0:
        alpha = [Fraction(0)] * m
        for r in range(D):
            if basis[r] < m:
                alpha[basis[r]] = Fraction(s * rows[r][-1], d)
        check = [Fraction(0)] * D
        for a, g in zip(alpha, generators):
            if a < 0:
                raise RuntimeError("simplex produced a negative coefficient")
            for k in range(D):
                check[k] += a * g.coords[k]
        if tuple(check) != target.coords:
            raise RuntimeError("feasible solution failed substitution check")
        return NonnegCombination(tuple(alpha))
    # infeasible: read the dual off the artificial columns, y = c_B B^{-1}
    y = [flips[k] * sum(rows[r][m + k] for r in range(D) if basis[r] >= m)
         for k in range(D)]
    w = SymMat(n, tuple(Fraction(-y[k], d if k < n else 2 * d)
                        for k in range(D)))
    for g in generators:
        if inner(w, g) < 0:
            raise RuntimeError("Farkas certificate failed on a generator")
    if inner(w, target) >= 0:
        raise RuntimeError("Farkas certificate failed on the target")
    return FarkasCertificate(w)
