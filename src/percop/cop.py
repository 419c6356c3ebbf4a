"""Strict copositivity testing and copositive minima, all in exact arithmetic.

The test partitions the standard simplex.  A cell with vertex set {v_i} is
certified once min_{i<=j} v_i^T B v_j is positive: that minimum bounds B from
below on the whole cell.  Otherwise the longest edge is bisected.  Each
vertex is tested once, as it is created (the unit vectors, then each
midpoint), and the first whose lowest-terms lattice point lies below a
threshold refutes: the threshold is 0 for the copositivity test, so a
negative vertex refutes copositivity, and c for the survey of the walk,
which asks for a lattice point below c.  A cell at depth d stores its
vertices as integer tuples scaled by 2^d, and its pair values v_i^T B v_j
and squared edge lengths as flat integer lists scaled by 4^d, so every
comparison within a cell is an integer comparison and a split only shifts
what the children inherit.  A vertex leaves the partition (as a witness, or
to break a tie between equally long edges) in lowest terms: an integer tuple
plus a binary exponent.

Minimal-vector enumeration turns a simplex lower bound mu into the search
radius |v|_1 <= sqrt(c/mu) via B[v] = |v|_1^2 * B[v/|v|_1] and walks the
coordinates depth first.  Lower bounds for the trailing principal submatrices
prune subtrees; the innermost coordinate is resolved by an exact integer
interval instead of a scan, and the one before it is limited to the exact
interval on which the last two coordinates together can stay below c
(when their 2x2 block is positive definite).  The copositive minimum and
the walk's survey run the same search below a falling cap, which starts at
the least diagonal entry and at c respectively: each vector found below the
cap lowers it to that vector's value, drops the vectors kept so far and
shrinks the radius sqrt(cap/mu) with it, and the search goes on from there,
each level stopping at the shrunken radius (the shrinking-radius
enumeration of Schnorr and Euchner, Math. Programming 1994).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import isqrt, lcm
from operator import mul, or_, sub
from typing import Union

from .core import (Rat, SymMat, _fraction_to_str, _rational, inertia,
                   primitive, quad_form)
from .errors import NotCopositiveError, PreconditionError, UndecidedError

DEFAULT_DEPTH_LIMIT = 64
DEFAULT_CELL_BUDGET = 2_000_000


@dataclass(frozen=True)
class StrictlyCopositive:
    """B[x] >= mu_lb > 0 on the standard simplex."""

    mu_lb: Rat


@dataclass(frozen=True)
class Copositive:
    """B[x] >= mu_lb >= 0 on the standard simplex (non-strict test)."""

    mu_lb: Rat


@dataclass(frozen=True)
class NotCopositive:
    """witness >= 0 with B[witness] < 0."""

    witness: tuple[Rat, ...]


@dataclass(frozen=True)
class Undecided:
    depth: int


CopVerdict = Union[StrictlyCopositive, NotCopositive, Undecided]


@dataclass(frozen=True)
class MinResult:
    min_value: Rat
    vectors: tuple[tuple[int, ...], ...]


def minresult_to_json(result: MinResult) -> dict:
    return {"min": _fraction_to_str(result.min_value),
            "vectors": [list(v) for v in result.vectors]}


# ---------------------------------------------------------------------------
# simplex partition branch and bound

def _int_form(b: SymMat) -> tuple[list[list[int]], int]:
    """Integer matrix den*B together with the denominator den > 0."""
    den = 1
    for c in b.coords:
        den = lcm(den, c.denominator)
    rows = [[int(b.entry(i, j) * den) for j in range(b.n)] for i in range(b.n)]
    return rows, den


def _reduced(vec, depth):
    """The vertex vec/2^depth as (integer tuple, exponent) in lowest terms."""
    bits = reduce(or_, vec)
    k = min((bits & -bits).bit_length() - 1, depth)
    if k:
        vec = tuple([x >> k for x in vec])
    return (vec, depth - k)


def _bnb(bi, depth_limit, strict, cell_budget, below=(0, 1)):
    """Partition loop on an integer matrix.

    Returns ('strict'|'cop', (num, exp)) with the bound num/2^exp, or
    ('not', vertex) with the vertex as (integer tuple, exponent) in lowest
    terms, or ('undec', depth).  below = (num, den) is a threshold
    t = num/den >= 0, and every vertex is tested as it is created (the unit
    vectors, then each midpoint): if its lowest-terms integer point u has
    u^T bi u < t, that vertex comes back as 'not'.  The default t = 0
    refutes copositivity at a negative vertex; the walk's survey passes a
    positive t, and 'not' then means a partition vertex below t.
    """
    n = len(bi)
    root_verts = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    bnum, bden = below
    for i in range(n):
        if bi[i][i] * bden < bnum:
            return ('not', (root_verts[i], 0))
    if n == 1:
        v = bi[0][0]
        if v > 0 or not strict:
            return ('strict' if strict else 'cop', (v, 0))
        return ('undec', 0)
    # flat index tables: pair (i, j) for i <= j, edge (i, j) for i < j
    pair_at = [[0] * n for _ in range(n)]
    edge_at = [[0] * n for _ in range(n)]
    root_pairs = []
    edges = []
    for i in range(n):
        for j in range(i, n):
            pair_at[i][j] = pair_at[j][i] = len(root_pairs)
            root_pairs.append(bi[i][j])
            if j > i:
                edge_at[i][j] = edge_at[j][i] = len(edges)
                edges.append((i, j))
    diag = [pair_at[i][i] for i in range(n)]
    # the pair and edge entries that change when vertex i is replaced
    touched = [[(k, pair_at[i][k], edge_at[i][k]) for k in range(n) if k != i]
               for i in range(n)]
    floor = 1 if strict else 0  # pair values are integers: > 0 is >= 1
    stack = [(root_verts, root_pairs, [2] * len(edges), 0)]
    mu = None
    undecided = False
    cells = 0
    while stack:
        verts, pairs, d2, depth = stack.pop()
        cells += 1
        if cells > cell_budget:
            return ('undec', depth)
        low = min(pairs)
        if low >= floor:
            # the cell bound is low/4^depth, mu is mu[0]/2^mu[1]
            if mu is None or low << mu[1] < mu[0] << 2 * depth:
                mu = (low, 2 * depth)
            continue
        if depth >= depth_limit:
            undecided = True
            continue
        longest = max(d2)
        e = d2.index(longest)
        if d2.count(longest) > 1:
            # ties go to the least pair of vertices in lowest terms
            red = [_reduced(v, depth) for v in verts]
            e = min((k for k in range(e, len(d2)) if d2[k] == longest),
                    key=lambda k: (red[edges[k][0]], red[edges[k][1]]))
        # the children sit at depth + 1: inherited vertices double, inherited
        # pairs and lengths quadruple, the midpoint is v_si + v_sj, and its
        # squared distance to either end is the old longest length
        # (vertex tuples are built from lists: tuple(map(...)) resizes a
        # guessed-length tuple, so freed vertices would fill the interpreter's
        # tuple free list instead of being reused, about 0.2 MB per size)
        si, sj = edges[e]
        mid = tuple([a + b for a, b in zip(verts[si], verts[sj])])
        bmid = [sum(map(mul, row, mid)) for row in bi]
        mid_self = sum(map(mul, mid, bmid))
        # mid/2^(depth+1) = u/2^(depth+1-k) with u = mid >> k integral,
        # and u^T bi u = mid_self/4^k, which is below t only if
        # mid_self/4^(depth+1) is (t >= 0)
        if mid_self * bden < bnum << 2 * depth + 2:
            bits = reduce(or_, mid)
            k = (bits & -bits).bit_length() - 1
            if (mid_self >> 2 * k) * bden < bnum:
                return ('not', _reduced(mid, depth + 1))
        shifted = [tuple([x << 1 for x in v]) for v in verts]
        dots = [sum(map(mul, v, bmid)) for v in shifted]
        dist = []
        for k, v in enumerate(shifted):
            if k == si or k == sj:
                dist.append(longest)
            else:
                diff = list(map(sub, v, mid))
                dist.append(sum(map(mul, diff, diff)))
        pairs = [x << 2 for x in pairs]
        d2 = [x << 2 for x in d2]
        for repl in (si, sj):
            nverts = shifted.copy()
            nverts[repl] = mid
            npairs = pairs.copy()
            nd2 = d2.copy()
            for k, p, q in touched[repl]:
                npairs[p] = dots[k]
                nd2[q] = dist[k]
            npairs[diag[repl]] = mid_self
            stack.append((nverts, npairs, nd2, depth + 1))
    if undecided:
        return ('undec', depth_limit)
    return ('strict' if strict else 'cop', mu)


def _witness_vector(vert) -> tuple[Rat, ...]:
    vec, e = vert
    return tuple(Fraction(x, 1 << e) for x in vec)


def _decide(b: SymMat, depth_limit: int, cell_budget: int, strict: bool):
    if depth_limit < 0:
        raise PreconditionError("bad-depth-limit", "depth_limit must be >= 0")
    if cell_budget < 0:
        raise PreconditionError("bad-cell-budget", "cell_budget must be >= 0")
    bi, den = _int_form(b)
    tag, data = _bnb(bi, depth_limit, strict, cell_budget)
    if tag == 'not':
        return NotCopositive(_witness_vector(data))
    if tag == 'undec':
        return Undecided(data)
    num, e = data
    bound = Fraction(num, den << e)
    return StrictlyCopositive(bound) if strict else Copositive(bound)


def test_copositivity(b: SymMat,
                      depth_limit: int = DEFAULT_DEPTH_LIMIT,
                      cell_budget: int = DEFAULT_CELL_BUDGET) -> CopVerdict:
    """Decide strict copositivity where possible.

    Matrices in the interior or exterior of the copositive cone are decided;
    boundary matrices come back Undecided once the depth limit (or the cell
    budget) is reached.  Undecided is a legal outcome, not an error.
    """
    return _decide(b, depth_limit, cell_budget, True)


def certify_copositive(b: SymMat, depth_limit: int = DEFAULT_DEPTH_LIMIT):
    """Non-strict variant: cells certify at bound >= 0.

    Decides membership in the closed copositive cone for matrices that are
    not on its boundary, and for boundary matrices whose zero set is spanned
    by cell vertices (the E_ij directions certify at the root, for example).
    Other boundary matrices come back Undecided once the depth limit or
    DEFAULT_CELL_BUDGET cells are reached.
    """
    return _decide(b, depth_limit, DEFAULT_CELL_BUDGET, False)


# ---------------------------------------------------------------------------
# enumeration

def _suffix_bounds(bi, mu0: Fraction, depth_limit, cell_budget):
    """Simplex lower bounds for the trailing principal submatrices of bi.

    Entry k bounds the form on coordinates k..n-1.  The full-simplex bound
    mu0 is valid on every face, so it is both the k=0 entry and the fallback
    whenever a submatrix run is inconclusive.
    """
    n = len(bi)
    mus = [mu0]
    for k in range(1, n):
        sub = [row[k:] for row in bi[k:]]
        tag, data = _bnb(sub, depth_limit, True, cell_budget)
        if tag == 'strict':
            num, e = data
            mus.append(max(Fraction(num, 1 << e), mu0))
        else:
            mus.append(mu0)
    return mus


def _enumerate_scaled(bi, cnum, cden, radius, mus, least=False):
    """All nonzero v >= 0 with v^T bi v <= cnum/cden and |v|_1 <= radius.

    With least=True the threshold is a cap and only the least value below it
    is kept: each vector found below the cap lowers the cap to its value,
    drops the vectors kept so far and shrinks the radius to
    sqrt(cap/mus[0]) (mus[0] must be the simplex bound the radius came
    from), and the search goes on from that vector within the new radius.
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
                            rad = _radius(Fraction(w), mus[0])
                            dq = lead * lead - ann * (val - w)
                    out.append(tuple(v))
            v[last] = 0
            return
        budget = rad - used
        a, b = mus[k].numerator, mus[k].denominator
        lmin = min(lin)

        def feasible(s):
            # value of the convex underestimate val + 2*lmin*s + (a/b)*s^2
            return cden * (b * val + 2 * b * lmin * s + a * s * s) <= b * cnum

        if a > 0:
            cands = {0, budget}
            if lmin < 0:
                vertex = (-b * lmin) // a
                for s in (vertex, vertex + 1):
                    if 0 < s < budget:
                        cands.add(s)
            if not any(feasible(s) for s in cands):
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


def enumerate_below(b: SymMat, c, mu_lb,
                    depth_limit: int = DEFAULT_DEPTH_LIMIT) -> tuple:
    """Exactly { v in Z^n_{>=0} nonzero : B[v] <= c }, sorted.

    mu_lb must be a valid positive lower bound for B on the standard simplex
    (take it from a StrictlyCopositive verdict).  Submatrix bounds are
    computed internally as a pruning aid, each within depth_limit and
    DEFAULT_CELL_BUDGET cells; completeness rests only on the 1-norm bound
    |v|_1 <= sqrt(c/mu_lb).
    """
    c = _rational(c, "threshold c")
    mu_lb = _rational(mu_lb, "mu_lb")
    if mu_lb <= 0:
        raise PreconditionError("mu-not-positive",
                                "mu_lb must be positive, got %s" % mu_lb)
    if c <= 0:
        raise PreconditionError("c-not-positive",
                                "threshold c must be positive, got %s" % c)
    bi, den = _int_form(b)
    mu_scaled = mu_lb * den
    c_scaled = c * den
    mus = _suffix_bounds(bi, mu_scaled, depth_limit, DEFAULT_CELL_BUDGET)
    found = _enumerate_scaled(bi, c_scaled.numerator, c_scaled.denominator,
                              _radius(c_scaled, mu_scaled), mus)
    return tuple(sorted(found))


def _least_below(bi, cap, mu_scaled, depth_limit, cell_budget):
    """(least value <= cap, its vectors sorted); mu_scaled bounds bi > 0."""
    mus = _suffix_bounds(bi, mu_scaled, depth_limit, cell_budget)
    best, found = _enumerate_scaled(bi, cap.numerator, cap.denominator,
                                    _radius(cap, mu_scaled), mus, least=True)
    return best, tuple(sorted(found))


def _survey_below(b: SymMat, c,
                  depth_limit: int = DEFAULT_DEPTH_LIMIT,
                  cell_budget: int = DEFAULT_CELL_BUDGET):
    """Test-then-enumerate in one call, the survey step of the walk.

    Returns ('not', vectors), ('ok', vectors) or ('undec', None) for a
    threshold c > 0.  'not' gives primitive integral v >= 0 with B[v] < c:
    the first vertex of the strict test's simplex partition whose
    lowest-terms integer point lies below c (so a matrix that is not
    copositive, or whose boundary zero is a dyadic point, is refuted at a
    shallow depth), or, once the strict test has certified B, every vector
    of the least value below c.  'ok' gives every nonzero integral v >= 0
    with B[v] <= c, sorted; all of them attain c.  'undec' means the strict
    test ran out of depth or cells.
    """
    c = _rational(c, "threshold c")
    if c <= 0:
        raise PreconditionError("c-not-positive",
                                "threshold c must be positive, got %s" % c)
    bi, den = _int_form(b)
    c_scaled = c * den
    tag, data = _bnb(bi, depth_limit, True, cell_budget,
                     (c_scaled.numerator, c_scaled.denominator))
    if tag == 'not':
        return ('not', (primitive(data[0]),))
    if tag == 'undec':
        return ('undec', None)
    num, e = data
    best, found = _least_below(bi, c_scaled, Fraction(num, 1 << e),
                               depth_limit, cell_budget)
    return ('not' if best < c_scaled else 'ok', found)


@lru_cache(maxsize=4096)
def copositive_min(b: SymMat,
                   depth_limit: int = DEFAULT_DEPTH_LIMIT) -> MinResult:
    """minC B and MinC B for strictly copositive B.

    c0 = min_i B[e_i] is always attained by a unit vector, so the minimum
    lies at or below it.  The enumeration starts with c0 as its cap and
    lowers the cap, and the radius sqrt(cap/mu) with it, at each smaller
    value it finds; what is kept at the end is the minimum and its vectors.
    Results are cached; SymMat is immutable.
    """
    verdict = test_copositivity(b, depth_limit)
    if isinstance(verdict, NotCopositive):
        raise NotCopositiveError(verdict.witness)
    if isinstance(verdict, Undecided):
        raise UndecidedError(verdict.depth)
    bi, den = _int_form(b)
    cap = Fraction(min(bi[i][i] for i in range(b.n)))
    best, found = _least_below(bi, cap, verdict.mu_lb * den, depth_limit,
                               DEFAULT_CELL_BUDGET)
    return MinResult(best / den, found)


def classical_below(q: SymMat, c,
                    depth_limit: int = DEFAULT_DEPTH_LIMIT) -> tuple:
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
        verdict = test_copositivity(conj, depth_limit)
        if isinstance(verdict, Undecided):
            raise UndecidedError(verdict.depth)
        for v in enumerate_below(conj, c, verdict.mu_lb, depth_limit):
            w = tuple(s * x for s, x in zip(signs, v))
            for x in w:
                if x != 0:
                    if x < 0:
                        w = tuple(-y for y in w)
                    break
            reps.add(w)
    return tuple(sorted(reps))


def classical_min(q: SymMat,
                  depth_limit: int = DEFAULT_DEPTH_LIMIT):
    """Arithmetical minimum of a positive definite Q over Z^n minus 0.

    Every lattice minimum is at most the smallest diagonal entry, so the
    minimal vectors are the least-valued ones of classical_below at that
    bound: one representative per +-pair, first nonzero entry positive.
    """
    found = classical_below(q, min(q.entry(i, i) for i in range(q.n)),
                            depth_limit)
    best = min(quad_form(q, v) for v in found)
    return best, tuple(v for v in found if quad_form(q, v) == best)
