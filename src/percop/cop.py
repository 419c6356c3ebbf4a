"""Strict copositivity testing and copositive minima, all in exact arithmetic.

The minimum mu of B[x] = x^T B x over the standard simplex decides
everything: B is strictly copositive when mu > 0, copositive when mu >= 0,
and a minimiser is a witness otherwise.  mu is attained at a minimiser x of
least support S, and there B_S x_S = mu 1 with x_S > 0.  A kernel vector d
of B_S with 1^T d = 0 would keep the value along x + t d and shrink the
support, so B_S is nonsingular and x_S is proportional to B_S^-1 1; or B_S
is singular, mu = 0 and the kernel of B_S is spanned by the positive x_S
(Cottle, Habetler and Lemke, Linear Algebra Appl. 3, 1970; Bomze, J. Global
Optim. 13, 1998).  Either way the kernel of [B_S | 1] is one vector (y, t),
with B_S y = -t 1 and y one-signed, and then x_S = y/(1^T y) and
mu = -t/(1^T y).  One integer nullspace of [B_S | 1] per support S
therefore finds mu exactly, and a rational minimiser with it, for every
rational B: there is no depth limit and no budget, and a copositive matrix
that is not strictly copositive always has a rational zero.  The pass
walks all 2^n - 1 supports, so its cost doubles with each dimension: it
takes about 0.5 ms at n = 5, 3 ms at n = 7 and 40 ms at n = 10 (CPython
3.11, one core of a shared 2-vCPU host), the largest n the library
supports; n = 12 takes 0.25 s.

Minimal-vector enumeration turns mu into the search radius
|v|_1 <= sqrt(c/mu) via B[v] = |v|_1^2 * B[v/|v|_1] and walks the
coordinates depth first.  mu bounds the form on every trailing face
x_0 = ... = x_{k-1} = 0 too, so it prunes the subtrees of every level; the
innermost coordinate is resolved by an exact integer interval instead of a
scan, and the one before it is limited to the exact interval on which the
last two coordinates together can stay below c (when their 2x2 block is
positive definite).  The copositive minimum and the walk's survey run the
same search below a falling cap, which starts at the least diagonal entry
and at c respectively: each vector found below the cap lowers it to that
vector's value, drops the vectors kept so far and shrinks the radius
sqrt(cap/mu) with it, and the search goes on from there, each level
stopping at the shrunken radius (the shrinking-radius enumeration of
Schnorr and Euchner, Math. Programming 1994).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Union

from .core import (Rat, SymMat, _fraction_to_str, _int_form, _rational,
                   inertia, nullspace, primitive, quad_form)
from .errors import NotCopositiveError, PreconditionError


@dataclass(frozen=True)
class StrictlyCopositive:
    """B[x] >= mu_lb > 0 on the standard simplex; mu_lb is the minimum."""

    mu_lb: Rat


@dataclass(frozen=True)
class Copositive:
    """B[x] >= mu_lb >= 0 on the standard simplex; mu_lb is the minimum."""

    mu_lb: Rat


@dataclass(frozen=True)
class NotCopositive:
    """witness >= 0 with B[witness] < 0: a minimiser on the simplex."""

    witness: tuple[Rat, ...]


CopVerdict = Union[StrictlyCopositive, Copositive, NotCopositive]


@dataclass(frozen=True)
class MinResult:
    min_value: Rat
    vectors: tuple[tuple[int, ...], ...]


def minresult_to_json(result: MinResult) -> dict:
    return {"min": _fraction_to_str(result.min_value),
            "vectors": [list(v) for v in result.vectors]}


# ---------------------------------------------------------------------------
# the exact simplex minimum

def _bnb(bi):
    """(mu, x): the minimum of x^T bi x over the standard simplex.

    x is a minimiser of least support, as a tuple of Fractions summing to
    1.  Each support S is tried by one nullspace of [bi_S | 1] (see the
    module docstring): when it is a single vector (y, t) with y one-signed,
    S gives the value -t/(1^T y) at y/(1^T y).  Bit j of a support's mask
    stands for coordinate n-1-j; ties go to the smaller support, then to
    the lower mask.  The name is that of the simplex partition this kernel
    replaced, under which the benchmark's tracer times it.
    """
    n = len(bi)
    best = None  # (value, support size, support, y, 1^T y)
    for mask in range(1, 1 << n):
        sup = [i for i in range(n) if mask >> (n - 1 - i) & 1]
        k = len(sup)
        ker = nullspace([[bi[i][j] for j in sup] + [1] for i in sup], k + 1)
        if len(ker) != 1:
            continue
        *y, t = ker[0]
        tot = sum(y)
        if all(u * tot > 0 for u in y):
            cand = (Fraction(-t, tot), k, sup, y, tot)
            if best is None or cand[:2] < best[:2]:
                best = cand
    mu, _, sup, y, tot = best
    x = [Fraction(0)] * n
    for i, u in zip(sup, y):
        x[i] = Fraction(u, tot)
    return mu, tuple(x)


def _decide(b: SymMat, strict: bool) -> CopVerdict:
    bi, den = _int_form(b)
    mu, x = _bnb(bi)
    if mu < 0:
        return NotCopositive(x)
    if strict and mu > 0:
        return StrictlyCopositive(mu / den)
    return Copositive(mu / den)


def test_copositivity(b: SymMat) -> CopVerdict:
    """Decide strict copositivity exactly.

    StrictlyCopositive(mu) when the minimum mu of B over the standard
    simplex is positive, Copositive(0) when it is 0, and NotCopositive with
    a minimiser on the simplex when it is negative.
    """
    return _decide(b, True)


def certify_copositive(b: SymMat) -> CopVerdict:
    """Decide membership in the closed copositive cone exactly.

    Copositive(mu) with the minimum mu >= 0 of B over the standard simplex,
    or NotCopositive with a minimiser on the simplex.
    """
    return _decide(b, False)


# ---------------------------------------------------------------------------
# enumeration

def _suffix_bounds(kernel):
    """The enumeration's pruning bound: the simplex minimum mu of _bnb.

    The name, under which the benchmark's tracer times this step, is that
    of the per-face bounds mu replaced.
    """
    return kernel[0]


def _enumerate_scaled(bi, cnum, cden, radius, mu, least=False):
    """All nonzero v >= 0 with v^T bi v <= cnum/cden and |v|_1 <= radius.

    mu > 0 is the simplex minimum of bi, which bounds the form on every
    trailing face and so prunes every level.  With least=True the threshold
    is a cap and only the least value below it is kept: each vector found
    below the cap lowers the cap to its value, drops the vectors kept so far
    and shrinks the radius to sqrt(cap/mu), and the search goes on from
    that vector within the new radius.
    Returns (least value, its vectors) in that mode; the vectors found in
    search order otherwise.
    """
    n = len(bi)
    last = n - 1
    ann = bi[last][last]
    out = []
    v = [0] * n
    rad = radius
    # the next-to-last coordinate only takes values for which the innermost
    # interval is not empty, when the trailing 2x2 block is positive definite
    pen = last - 1
    pen_det = ann * bi[pen][pen] - bi[pen][last] ** 2 if n > 1 else 0
    a, b = mu.numerator, mu.denominator

    def descend(k, used, val, lin, nonzero):
        # val = bi[prefix], used = |prefix|_1; lin[j-k] = (bi . prefix)_j
        # for j >= k
        nonlocal cnum, cden, rad
        if k == last:
            lead = lin[0]
            # cden*(ann*t^2 + 2*lead*t + val) <= cnum, completed square:
            # cden*(ann*t + lead)^2 <= cden*lead^2 - ann*(cden*val - cnum)
            dq = cden * lead * lead - ann * (cden * val - cnum)
            if dq < 0:
                return
            s = isqrt(dq // cden) + 1
            lo = max(0 if nonzero else 1, (-lead - s) // ann - 1)
            hi = min(rad - used, (-lead + s) // ann + 1)
            for t in range(lo, hi + 1):
                u = ann * t + lead
                if cden * u * u <= dq:
                    v[last] = t
                    if least:
                        w = val + t * (2 * lead + ann * t)
                        if cden * w < cnum:
                            # lower the cap to w; every vector at or below
                            # it lies within the new radius, so the rest of
                            # this interval only needs the new dq
                            cnum, cden = w, 1
                            out.clear()
                            rad = _radius(Fraction(w), mu)
                            dq = lead * lead - ann * (val - w)
                    out.append(tuple(v))
            v[last] = 0
            return
        budget = rad - used
        lmin = min(lin)

        def feasible(s):
            # value of the convex underestimate val + 2*lmin*s + (a/b)*s^2
            return cden * (b * val + 2 * b * lmin * s + a * s * s) <= b * cnum

        # the convex underestimate is least on [0, budget] at s or s + 1
        s = min(max(0, (-b * lmin) // a), budget)
        if not (feasible(s) or s < budget and feasible(s + 1)):
            return
        row = bi[k]
        diag = row[k]
        lo, hi = 0, budget
        if k == pen and pen_det > 0:
            # the innermost dq at v[k] = t is a quadratic in t: dq >= 0 iff
            # cden*(p*t^2 + 2*q*t + e) <= ann*cnum with p = pen_det and
            # e = ann*val - lin[1]^2; completed square, as p > 0:
            # cden*(p*t + q)^2 <= cden*(q^2 - p*e) + p*ann*cnum
            r = row[last]
            q = ann * lin[0] - lin[1] * r
            dq = (cden * (q * q - pen_det * (ann * val - lin[1] * lin[1]))
                  + pen_det * ann * cnum)
            if dq < 0:
                return
            s = isqrt(dq // cden) + 1
            lo = max(0, (-q - s) // pen_det - 1)
            hi = min(budget, (-q + s) // pen_det + 1)
        # the radius can shrink inside the loop when the cap falls
        for t in range(lo, hi + 1):
            if used + t > rad:
                break
            v[k] = t
            descend(k + 1, used + t,
                    val + 2 * t * lin[0] + diag * t * t,
                    [lin[j - k] + t * row[j] for j in range(k + 1, n)],
                    nonzero or t > 0)
        v[k] = 0

    descend(0, 0, 0, [0] * n, False)
    if least:
        return Fraction(cnum, cden), out
    return out


def _radius(c_scaled: Fraction, mu_scaled: Fraction) -> int:
    ratio = c_scaled / mu_scaled
    return isqrt(ratio.numerator // ratio.denominator)


def enumerate_below(b: SymMat, c) -> tuple:
    """Exactly { v in Z^n_{>=0} nonzero : B[v] <= c }, sorted.

    B must be strictly copositive.  Completeness rests on the 1-norm bound
    |v|_1 <= sqrt(c/mu) with mu the exact minimum of B on the simplex.
    """
    c = _rational(c, "threshold c")
    if c <= 0:
        raise PreconditionError("c-not-positive",
                                "threshold c must be positive, got %s" % c)
    bi, den = _int_form(b)
    kernel = _bnb(bi)
    if kernel[0] <= 0:
        raise PreconditionError(
            "not-strictly-copositive",
            "enumeration needs a strictly copositive matrix, its simplex "
            "minimum is %s" % (kernel[0] / den))
    c_scaled = c * den
    mu = _suffix_bounds(kernel)
    found = _enumerate_scaled(bi, c_scaled.numerator, c_scaled.denominator,
                              _radius(c_scaled, mu), mu)
    return tuple(sorted(found))


def _least_below(bi, cap, kernel):
    """(least value <= cap, its vectors sorted); kernel = _bnb(bi), mu > 0."""
    mu = _suffix_bounds(kernel)
    best, found = _enumerate_scaled(bi, cap.numerator, cap.denominator,
                                    _radius(cap, mu), mu, least=True)
    return best, tuple(sorted(found))


def _survey_below(b: SymMat, c):
    """Test-then-enumerate in one call, the survey step of the walk.

    Returns ('not', vectors) or ('ok', vectors) for a threshold c > 0.
    'not' gives primitive integral v >= 0 with B[v] < c: the lattice point
    of the least-support minimiser when B is not strictly copositive (so
    B[v] <= 0), or else every vector of the least value below c.  'ok'
    gives every nonzero integral v >= 0 with B[v] <= c, sorted; all of them
    attain c.
    """
    c = _rational(c, "threshold c")
    if c <= 0:
        raise PreconditionError("c-not-positive",
                                "threshold c must be positive, got %s" % c)
    bi, den = _int_form(b)
    kernel = _bnb(bi)
    if kernel[0] <= 0:
        return ('not', (primitive(kernel[1]),))
    c_scaled = c * den
    best, found = _least_below(bi, c_scaled, kernel)
    return ('not' if best < c_scaled else 'ok', found)


@lru_cache(maxsize=4096)
def copositive_min(b: SymMat) -> MinResult:
    """minC B and MinC B for strictly copositive B.

    c0 = min_i B[e_i] is always attained by a unit vector, so the minimum
    lies at or below it.  The enumeration starts with c0 as its cap and
    lowers the cap, and the radius sqrt(cap/mu) with it, at each smaller
    value it finds; what is kept at the end is the minimum and its vectors.
    A matrix that is not copositive raises NotCopositiveError with a
    minimiser on the simplex; one with a zero on the simplex raises
    PreconditionError("not-strictly-copositive") carrying that zero.
    Results are cached; SymMat is immutable.
    """
    bi, den = _int_form(b)
    kernel = _bnb(bi)
    mu, x = kernel
    if mu < 0:
        raise NotCopositiveError(x)
    if mu == 0:
        raise PreconditionError(
            "not-strictly-copositive",
            "the copositive minimum needs a strictly copositive matrix; "
            "this one is 0 on the simplex",
            zero=[_fraction_to_str(t) for t in x])
    cap = Fraction(min(bi[i][i] for i in range(b.n)))
    best, found = _least_below(bi, cap, kernel)
    return MinResult(best / den, found)


def classical_below(q: SymMat, c) -> tuple:
    """{ v in Z^n nonzero : Q[v] <= c } up to sign, for positive definite Q.

    One representative per +-pair, first nonzero entry positive; runs the
    nonnegative enumeration on each of the 2^(n-1) sign conjugations.
    """
    if not inertia(q).is_positive_definite():
        raise PreconditionError(
            "not-positive-definite",
            "classical enumeration needs a positive definite matrix")
    c = _rational(c, "threshold c")
    if c <= 0:
        return ()
    n = q.n
    reps = set()
    for bits in range(1 << (n - 1)):
        signs = (1,) + tuple(-1 if (bits >> i) & 1 else 1
                             for i in range(n - 1))
        conj = SymMat.from_rows(
            [[signs[i] * signs[j] * q.entry(i, j) for j in range(n)]
             for i in range(n)])
        for v in enumerate_below(conj, c):
            w = tuple(s * x for s, x in zip(signs, v))
            for x in w:
                if x != 0:
                    if x < 0:
                        w = tuple(-y for y in w)
                    break
            reps.add(w)
    return tuple(sorted(reps))


def classical_min(q: SymMat):
    """Arithmetical minimum of a positive definite Q over Z^n minus 0.

    Every lattice minimum is at most the smallest diagonal entry, so the
    minimal vectors are the least-valued ones of classical_below at that
    bound: one representative per +-pair, first nonzero entry positive.
    """
    found = classical_below(q, min(q.entry(i, i) for i in range(q.n)))
    values = [quad_form(q, v) for v in found]
    best = min(values)
    return best, tuple(v for v, x in zip(found, values) if x == best)
