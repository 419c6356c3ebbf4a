"""Polyhedral cones in the space of symmetric matrices.

Cones live in the n(n+1)/2-dimensional coordinate space (diagonal first, then
upper triangle).  An inequality given by a symmetric normal A means
inner(A, .) >= 0; in coordinates that is the dot product with the vector
(a_11 .. a_nn, 2a_12, 2a_13, ...), so the pairing stays the trace inner
product throughout.

extreme_rays is an incremental double description: the cone starts as the
full coordinate space (lineality basis), each inequality either consumes one
lineality dimension or splits the current rays, and adjacent positive and
negative rays are combined.  Adjacency is the exact algebraic test: the
common tight normals must have rank D - lineality - 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Rat, SymMat, dim_sym, inner, int_rref, primitive
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
    ties lexicographic.  Output rays sorted by coordinate vector.
    """
    D = dim_sym(cone.n)
    coeffs = sorted(
        (primitive(pairing_coeffs(a)) for a in cone.normals),
        key=lambda c: (sum(1 for x in c if x == 0), c))
    lin = [tuple(Fraction(int(j == i)) for j in range(D)) for i in range(D)]
    rays = []  # (vector, bitmask of tight inequalities)
    for idx, a in enumerate(coeffs):
        lvals = [sum(x * y for x, y in zip(a, l)) for l in lin]
        j = next((k for k, v in enumerate(lvals) if v != 0), None)
        if j is not None:
            # project the lineality along this inequality; the consumed basis
            # vector reappears as a ray tight for everything before idx
            b, bv = lin[j], lvals[j]
            lin = [tuple(x - (v / bv) * y for x, y in zip(l, b))
                   for k, (l, v) in enumerate(zip(lin, lvals)) if k != j]
            projected = []
            for r, mask in rays:
                rv = sum(x * y for x, y in zip(a, r))
                projected.append(
                    (tuple(x - (rv / bv) * y for x, y in zip(r, b)),
                     mask | (1 << idx)))
            newray = b if bv > 0 else tuple(-x for x in b)
            projected.append((newray, (1 << idx) - 1))
            rays = projected
            continue
        pos, zer, neg = [], [], []
        for r, mask in rays:
            v = sum(x * y for x, y in zip(a, r))
            if v > 0:
                pos.append((r, mask, v))
            elif v < 0:
                neg.append((r, mask, v))
            else:
                zer.append((r, mask | (1 << idx)))
        need = D - len(lin) - 2
        combos = []
        for p, pmask, pv in pos:
            for m, mmask, mv in neg:
                common = pmask & mmask
                if common.bit_count() < need:
                    continue
                tight = [coeffs[t] for t in range(idx) if (common >> t) & 1]
                if len(int_rref(tight, D)[1]) != need:
                    continue
                combos.append(
                    (tuple(pv * x - mv * y for x, y in zip(m, p)),
                     common | (1 << idx)))
        rays = [(r, m) for r, m, _ in pos] + zer + combos
    seen = set()
    out = []
    for r, _ in rays:
        p = primitive(r)
        if p not in seen:
            seen.add(p)
            out.append(p)
    ray_mats = [SymMat(cone.n, tuple(Fraction(x) for x in p))
                for p in sorted(out)]
    lin_mats = [SymMat(cone.n, tuple(Fraction(x) for x in p))
                for p in sorted(_sign_fixed(primitive(l)) for l in lin)]
    return ConeVRep(tuple(ray_mats), tuple(lin_mats))


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

    Phase-I simplex with Bland's rule over the rationals; exactly one of the
    two outcomes exists by LP duality, and whichever is found is verified by
    substitution before being returned.
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
    flips = []
    rows = []
    for k in range(D):
        rhs = target.coords[k]
        flip = -1 if rhs < 0 else 1
        flips.append(flip)
        rows.append([flip * g.coords[k] for g in generators] + [Fraction(0)] * D
                    + [flip * rhs])
    for k in range(D):
        rows[k][m + k] = Fraction(1)
    basis = list(range(m, m + D))
    # reduced costs for minimizing the artificial sum: r_j = c_j - 1^T A_j
    red = [-sum(rows[k][j] for k in range(D)) for j in range(m)] \
        + [Fraction(0)] * D
    while True:
        enter = next((j for j in range(m + D) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(D):
            coef = rows[r][enter]
            if coef > 0:
                ratio = rows[r][-1] / coef
                if best is None or ratio < best or \
                        (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            raise RuntimeError("phase-I simplex claims unboundedness")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for r in range(D):
            if r != leave and rows[r][enter] != 0:
                f = rows[r][enter]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[leave])]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, rows[leave][:-1])]
        basis[leave] = enter
    objective = sum(rows[r][-1] for r in range(D) if basis[r] >= m)
    if objective == 0:
        alpha = [Fraction(0)] * m
        for r in range(D):
            if basis[r] < m:
                alpha[basis[r]] = rows[r][-1]
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
    y = []
    for k in range(D):
        y.append(flips[k] * sum(rows[r][m + k] for r in range(D)
                                if basis[r] >= m))
    coords = [-y[k] if k < n else -y[k] / 2 for k in range(D)]
    w = SymMat(n, tuple(Fraction(c) for c in coords))
    for g in generators:
        if inner(w, g) < 0:
            raise RuntimeError("Farkas certificate failed on a generator")
    if inner(w, target) >= 0:
        raise RuntimeError("Farkas certificate failed on the target")
    return FarkasCertificate(w)
