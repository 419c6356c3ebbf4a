"""Output checks computed apart from the program.

Nothing here calls percop.  Matrices are read through ``.n`` and
``.entry(i, j)`` only; quadratic forms, ranks and brute-force searches are
this module's own exact integer arithmetic.  Every check compares an output
with a closed form from the paper or tests a property the method must have;
none compares against a stored copy of an earlier output.

A check that fails raises CheckError: the output is wrong and the run fails.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm


class CheckError(AssertionError):
    """A program output disagrees with what the mathematics requires."""


def require(cond, message, *args):
    if not cond:
        raise CheckError(message % args if args else message)


# ---------------------------------------------------------------------------
# exact arithmetic of our own

def rows_of(m) -> list[list[Fraction]]:
    return [[Fraction(m.entry(i, j)) for j in range(m.n)] for i in range(m.n)]


def int_form(rows) -> tuple[list[list[int]], int]:
    """Integer matrix den*M and den > 0."""
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    return [[int(Fraction(x) * den) for x in row] for row in rows], den


def qf(rows, v) -> Fraction:
    """v^T M v, exact."""
    n = len(rows)
    return sum((rows[i][j] * v[i] * v[j] for i in range(n) for j in range(n)),
               Fraction(0))


def dim_sym(n: int) -> int:
    return n * (n + 1) // 2


def sym_coords(v) -> list[int]:
    """Coordinates of v v^T: the entries v_i v_j, i <= j."""
    n = len(v)
    return [v[i] * v[j] for i in range(n) for j in range(i, n)]


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                row = [pr[c] * a - f * b for a, b in zip(m[i], pr)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(m):
            break
    return rank


def span_dim(vectors) -> int:
    """Dimension of span{v v^T}."""
    return int_rank([sym_coords(v) for v in vectors])


def permute_rows(rows, perm):
    """Rows of P^T M P with (P^T M P)[i][j] = M[perm[i]][perm[j]]."""
    n = len(perm)
    return [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def permute_vector(v, perm):
    """The vector w with M'[w] = M[v] for M' = permute_rows(M, perm)."""
    return tuple(v[perm[i]] for i in range(len(perm)))


def box(n: int, side: int):
    """Nonzero vectors in {0..side}^n."""
    return [v for v in product(range(side + 1), repeat=n) if any(v)]


def min_on_box(rows, vectors) -> Fraction:
    m, den = int_form(rows)
    n = len(m)
    best = None
    for v in vectors:
        val = sum(m[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if best is None or val < best:
            best = val
    return Fraction(best, den)


def is_psd_3x3(rows) -> bool:
    """PSD iff every principal minor is nonnegative."""
    (a, b, c), (_, d, e), (_, _, f) = rows
    minors = [a, d, f, a * d - b * b, a * f - c * c, d * f - e * e,
              a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)]
    return all(x >= 0 for x in minors)


# ---------------------------------------------------------------------------
# copositive minimum and perfection

def check_expected_minimum(rows, value, vectors):
    """The closed form itself: value attained on every vector, full span."""
    n = len(rows)
    for v in vectors:
        require(len(v) == n and all(x >= 0 for x in v) and any(v),
                "expected vector %s is not a nonzero nonnegative %d-vector",
                v, n)
        require(qf(rows, v) == value,
                "expected vector %s gives %s, not the minimum %s",
                v, qf(rows, v), value)
    require(span_dim(vectors) == dim_sym(n),
            "expected minimal vectors span dimension %d < %d",
            span_dim(vectors), dim_sym(n))


def check_perfect(result, rows, value, vectors):
    """is_perfect_copositive output against the closed-form minimum."""
    n = len(rows)
    require(bool(result) and hasattr(result, "min_vectors"),
            "expected a perfection certificate, got %r", result)
    require(result.min_value == value, "minimum %s, expected %s",
            result.min_value, value)
    got = [tuple(v) for v in result.min_vectors]
    require(len(got) == len(set(got)), "repeated minimal vectors")
    require(set(got) == set(vectors),
            "minimal vectors differ: missing %s, extra %s",
            sorted(set(vectors) - set(got)), sorted(set(got) - set(vectors)))
    require(result.span_rank == dim_sym(n), "span rank %s, expected %d",
            result.span_rank, dim_sym(n))
    require(rows_of(result.matrix) == rows, "certificate is for another matrix")
    check_expected_minimum(rows, value, vectors)


# ---------------------------------------------------------------------------
# neighbourhood walk

def _direction(rows_n, rows_p, lam):
    return [[(a - b) / lam for a, b in zip(rn, rp)]
            for rn, rp in zip(rows_n, rows_p)]


def _check_primitive_integral(rows, what):
    require(all(x.denominator == 1 for row in rows for x in row),
            "%s is not integral", what)
    g = 0
    for row in rows:
        for x in row:
            g = gcd(g, int(x))
    require(g == 1, "%s is not primitive (content %d)", what, g)


def check_extreme_direction(r_rows, p_vectors):
    """R is an extreme ray of {R : R[v] >= 0 for v in Min P}.

    It must be nonnegative on every minimal vector of P and tight on a set of
    them whose rank-one forms span dimension D - 1.
    """
    n = len(r_rows)
    values = [qf(r_rows, v) for v in p_vectors]
    require(all(x >= 0 for x in values),
            "direction is negative on a minimal vector of P")
    tight = [v for v, x in zip(p_vectors, values) if x == 0]
    require(span_dim(tight) == dim_sym(n) - 1,
            "direction is tight on a set of rank %d, not %d",
            span_dim(tight), dim_sym(n) - 1)


def check_walk_step(step, p_rows, p_vectors, box_vectors):
    """One step of neighbors_all from the vertex P (minimum 1).

    Returns the kind: 'neighbor', 'ray' or 'undecided'.
    """
    kind = type(step).__name__
    if kind == "Neighbor":
        n_rows = rows_of(step.matrix)
        require(step.lam > 0, "neighbour step with lambda %s <= 0", step.lam)
        r_rows = _direction(n_rows, p_rows, step.lam)
        _check_primitive_integral(r_rows, "(N - P) / lambda")
        check_extreme_direction(r_rows, p_vectors)
        cert = step.certificate
        require(cert.min_value == 1 and rows_of(cert.matrix) == n_rows,
                "neighbour certificate is not for N with minimum 1")
        cvecs = [tuple(v) for v in cert.min_vectors]
        require(len(cvecs) == len(set(cvecs)), "repeated certificate vectors")
        for v in cvecs:
            require(all(x >= 0 for x in v) and any(v),
                    "certificate vector %s is not nonnegative", v)
            require(qf(n_rows, v) == 1, "N[%s] = %s, not 1", v, qf(n_rows, v))
        require(span_dim(cvecs) == dim_sym(len(p_rows)),
                "certificate vectors do not span full rank")
        new = set(tuple(v) for v in step.new_vectors)
        require(new and new <= set(cvecs), "new vectors not in the certificate")
        for v in cvecs:
            rv = qf(r_rows, v)
            if v in new:
                require(rv < 0, "new vector %s has R[v] = %s >= 0", v, rv)
            else:
                require(rv == 0, "kept vector %s has R[v] = %s != 0", v, rv)
        require(min_on_box(n_rows, box_vectors) >= 1,
                "a box vector has N[v] < 1")
        return "neighbor"
    if kind in ("PolyhedronRay", "UndecidedDirection"):
        r_rows = rows_of(step.direction)
        _check_primitive_integral(r_rows, "direction")
        check_extreme_direction(r_rows, p_vectors)
        if kind == "PolyhedronRay":
            require(min_on_box(r_rows, box_vectors) >= 0,
                    "ray direction negative on a box vector")
            return "ray"
        return "undecided"
    raise CheckError("unknown walk step %r" % (step,))


def check_neighbourhood(cert, p_rows, steps, box_vectors):
    """All steps from P; returns the list of step kinds in order."""
    require(cert.min_value == 1 and rows_of(cert.matrix) == p_rows,
            "normalized certificate is not for the input vertex")
    p_vectors = [tuple(v) for v in cert.min_vectors]
    for v in p_vectors:
        require(qf(p_rows, v) == 1, "P[%s] != 1", v)
    require(span_dim(p_vectors) == dim_sym(len(p_rows)),
            "vertex minimal vectors do not span full rank")
    require(min_on_box(p_rows, box_vectors) >= 1, "a box vector has P[v] < 1")
    require(len(steps) > 0, "a vertex with no walk steps")
    kinds = [check_walk_step(s, p_rows, p_vectors, box_vectors)
             for s in steps]
    seen = set()
    for s in steps:
        if type(s).__name__ == "Neighbor":
            key = tuple(tuple(r) for r in _direction(
                rows_of(s.matrix), p_rows, s.lam))
        else:
            key = tuple(tuple(r) for r in rows_of(s.direction))
        require(key not in seen, "two steps share a direction")
        seen.add(key)
    return kinds


def neighbour_matrices(steps):
    return [rows_of(s.matrix) for s in steps
            if type(s).__name__ == "Neighbor"]


# ---------------------------------------------------------------------------
# CP certification

def check_cp(verdict, q_rows, cp_by_construction, psd):
    """Returns 'cp', 'not-cp' or 'inconclusive'."""
    kind = type(verdict).__name__
    n = len(q_rows)
    if kind == "Factorization":
        total = [[Fraction(0)] * n for _ in range(n)]
        for alpha, x in verdict.pairs:
            require(alpha > 0, "factorization coefficient %s <= 0", alpha)
            require(len(x) == n and all(isinstance(t, int) and t >= 0
                                        for t in x),
                    "factor %s is not a nonnegative integer vector", x)
            for i in range(n):
                for j in range(n):
                    total[i][j] += alpha * x[i] * x[j]
        require(total == q_rows, "factorization does not rebuild Q")
        return "cp"
    if kind == "NotCp":
        require(not cp_by_construction,
                "NotCp for a matrix that is CP by construction")
        require(not psd, "NotCp for a positive semidefinite input")
        p_rows = rows_of(verdict.certificate)
        value = sum(p_rows[i][j] * q_rows[i][j]
                    for i in range(n) for j in range(n))
        require(value == verdict.value, "<P, Q> = %s, reported %s",
                value, verdict.value)
        require(value < 0, "separating value %s is not negative", value)
        require(min_on_box(p_rows, box(n, 4)) >= 1,
                "separating matrix is below 1 on a box vector")
        return "not-cp"
    if kind == "Inconclusive":
        return "inconclusive"
    raise CheckError("unknown CP verdict %r" % (verdict,))
