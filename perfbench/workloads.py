"""Inputs of the three workloads, each with the facts its output is checked by.

Every workload is a fixed list of pairwise-distinct inputs.  The seed draws
the in-cone cp matrices and the Q_A4 orders of copmin; inputs whose cost
depends strongly on a coordinate order or on the draw are fixed.  The expected outputs
come from the paper's closed forms, built here with this directory's own
arithmetic (see checks.py), never from a stored run of the program.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations, product
from math import isqrt
from pathlib import Path

import checks as ck

HERE = Path(__file__).resolve().parent
HALF = Fraction(1, 2)

# ---------------------------------------------------------------------------
# the paper's matrices and vectors, transcribed

E_ROWS_3X = [[366, -300, 197, 147, -81],
             [-300, 246, -161, 123, 69],
             [197, -161, 106, -82, 39],
             [147, 123, -82, 66, -33],
             [-81, 69, 39, -33, 18]]
MIN_E = ((1, 0, 0, 0, 4), (2, 0, 0, 0, 9), (1, 0, 0, 0, 5), (1, 0, 0, 1, 6),
         (1, 2, 1, 0, 0), (0, 0, 1, 2, 2), (0, 0, 2, 4, 3), (0, 0, 1, 2, 1),
         (0, 2, 4, 1, 0), (0, 0, 0, 1, 2), (5, 6, 0, 0, 0), (0, 1, 3, 2, 0),
         (2, 0, 0, 1, 11), (2, 3, 1, 0, 0), (0, 3, 6, 2, 0), (0, 2, 3, 0, 0),
         (1, 1, 0, 0, 1), (4, 5, 0, 0, 0))
I_ROWS = [[2, -5, 4], [-5, 14, -9], [4, -9, 6]]
MIN_I = ((0, 1, 1), (0, 1, 2), (0, 2, 3), (1, 0, 0), (2, 1, 0), (3, 1, 0),
         (1, 1, 1))
# the five neighbours of Q_A3 stated in the paper (at minimum 2)
QA3_NEIGHBOURS = ([[2, -1, -1], [-1, 2, 0], [-1, 0, 2]],
                  [[2, 0, -1], [0, 2, -1], [-1, -1, 2]],
                  [[4, -2, 0], [-2, 2, -1], [0, -1, 2]],
                  [[2, -1, 0], [-1, 2, -2], [0, -2, 4]],
                  [[2, -3, 2], [-3, 6, -3], [2, -3, 2]])
# the D4 root lattice (Cartan matrix): minimum 2 on the diagonal, so reduced
D4_ROWS = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

# E runs in the paper's order and in one fixed order of the 38 at the
# smallest enumeration radius of the current branch and bound (78, against
# 110 for the paper's order).  E's cost depends on the order by a
# factor of up to 50 (radius 78-271), so a seeded E order would decide most
# of the copmin time by itself.
E_ORDERS = ((0, 1, 2, 3, 4), (1, 0, 2, 4, 3))

# Coordinate orders of Q_A4, Q_A5 and Q_A6.  op_p50_s and op_tail_s (p75)
# both fall inside the cluster of Q_A5 ops, not at its edge.  An order
# changes the cost of a Q_A5 or Q_A6 op by up to 2x, so seeded orders
# there moved those percentiles by 20-30% from seed to seed; they are drawn
# once, the same in every run.  Only the Q_A4 orders follow the seed.
QAN_ORDERS = {4: 4, 5: 24, 6: 2}
QAN_SEEDED = (4,)
PK_RANGE = range(1, 7)
LIFT_RANGE = range(1, 5)

# walk: the first WALK_VERTICES vertices of walk_vertices.json, in their
# traverse order.  An order changes the cost of one vertex's neighbourhood by
# up to 4x (vertex 43: 6-23 s), so seeded orders moved op_p50_s and
# op_tail_s by 15-20% from seed to seed.  WALK_DROPPED fails in some
# coordinate orders only (two undecided directions in two of its six);
# vertex 36 takes 7 s in every order and is left out for run length.
WALK_VERTICES = 42
WALK_DROPPED = (27, 36)

# ---------------------------------------------------------------------------
# closed forms

def e_rows():
    return [[Fraction(x, 3) for x in row] for row in E_ROWS_3X]


def qan_rows(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def qan_vectors(n):
    """Interval vectors e_j + ... + e_k, the minimal vectors of Q_An."""
    return tuple(tuple(int(j <= i <= k) for i in range(n))
                 for j in range(n) for k in range(j, n))


def pk_rows(k):
    a, b = k * k + k + 1, 2 * k + 1
    return [[2, -b, 2], [-b, 2 * a, -b], [2, -b, 2]]


def pk_vectors(k):
    """The 2k+5 minimal vectors (s0 - t, s1, t) of the rank-2 series."""
    out = set()
    for s0, s1 in ((1, 0), (k, 1), (k + 1, 1)):
        out.update((s0 - t, s1, t) for t in range(s0 + 1))
    return tuple(sorted(out))


def lift_rows(rows):
    """Duplicate the last row and column."""
    n = len(rows)
    return [[rows[min(i, n - 1)][min(j, n - 1)] for j in range(n + 1)]
            for i in range(n + 1)]


def lift_vectors(vectors):
    """{(v_1..v_{n-1}, a, v_n - a)}: the lifting formula."""
    return tuple(sorted({v[:-1] + (a, v[-1] - a)
                         for v in vectors for a in range(v[-1] + 1)}))


def _inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def classical_min_vectors(rows):
    """Minimum and minimal vectors (up to sign) of a positive definite form.

    Cauchy-Schwarz gives v_i^2 <= Q[v] (Q^-1)_ii, so the box with
    |v_i| <= sqrt(max_j q_jj (Q^-1)_ii) holds every vector at or below the
    largest diagonal entry, hence every minimal vector.
    """
    n = len(rows)
    inv = _inverse(rows)
    cap = max(Fraction(rows[i][i]) for i in range(n))
    sides = []
    for i in range(n):
        x = cap * inv[i][i]
        sides.append(isqrt(x.numerator // x.denominator))
    best, found = None, []
    for v in product(*(range(-s, s + 1) for s in sides)):
        if not any(v) or next(x for x in v if x) < 0:
            continue
        val = ck.qf(rows, v)
        if best is None or val < best:
            best, found = val, [v]
        elif val == best:
            found.append(v)
    return best, found


def embedded(rows):
    """U^T Q U of the triangular construction, with its minimal vectors.

    L has entries qb^(i-j) on and below the diagonal, qb = 1 + the largest
    entry of a classical minimal vector in absolute value, and U = L^-1.
    The copositive minimal vectors are the classical ones mapped by L.
    """
    n = len(rows)
    value, classical = classical_min_vectors(rows)
    qb = 1 + max(abs(x) for v in classical for x in v)
    ell = [[qb ** (i - j) if i >= j else 0 for j in range(n)]
           for i in range(n)]
    u = _inverse(ell)
    m = [[sum(u[a][i] * rows[a][b] * u[b][j]
              for a in range(n) for b in range(n))
          for j in range(n)] for i in range(n)]
    vectors = []
    for v in classical:
        w = tuple(sum(ell[i][j] * v[j] for j in range(n)) for i in range(n))
        if all(x <= 0 for x in w):
            w = tuple(-x for x in w)
        if not all(x >= 0 for x in w):
            raise ValueError("L v is not one-signed for %s" % (v,))
        vectors.append(w)
    return m, value, tuple(sorted(vectors))


def fractions_of(rows):
    return [[Fraction(x) for x in row] for row in rows]


def halved(rows):
    return [[Fraction(x) * HALF for x in row] for row in rows]


# ---------------------------------------------------------------------------
# inputs

def _key(rows):
    return tuple(tuple(r) for r in fractions_of(rows))


def _distinct(items):
    keys = {_key(rows) for _, rows, *_ in items}
    if len(keys) != len(items):
        raise ValueError("workload inputs are not pairwise distinct")
    return items


def _orbit(rows):
    """One coordinate order per distinct matrix it gives, sorted."""
    out = {}
    for perm in permutations(range(len(rows))):
        out.setdefault(_key(ck.permute_rows(rows, perm)), perm)
    return sorted(out.values())


def _perm_label(perm):
    return "".join(map(str, perm))


def copmin_inputs(rng):
    """(label, rows, min, minimal vectors) for the copmin workload."""
    items = []
    for perm in E_ORDERS:
        items.append(("E[%s]" % _perm_label(perm),
                      ck.permute_rows(e_rows(), perm), 2,
                      tuple(ck.permute_vector(v, perm) for v in MIN_E)))
    for name, rows in (("Q_A4", qan_rows(4)), ("D4", D4_ROWS)):
        m, value, vectors = embedded(rows)
        items.append(("emb(%s)" % name, m, value, vectors))
    fixed = random.Random("copmin-orders")
    for n, count in QAN_ORDERS.items():
        pick = rng if n in QAN_SEEDED else fixed
        for perm in pick.sample(_orbit(qan_rows(n)), count):
            items.append(("Q_A%d[%s]" % (n, _perm_label(perm)),
                          ck.permute_rows(qan_rows(n), perm), 2,
                          tuple(ck.permute_vector(v, perm)
                                for v in qan_vectors(n))))
    for k in PK_RANGE:
        items.append(("P_%d" % k, pk_rows(k), 2, pk_vectors(k)))
    bases = [("I", I_ROWS, MIN_I)] + [("P_%d" % k, pk_rows(k), pk_vectors(k))
                                      for k in LIFT_RANGE]
    for i, (name, rows, vectors) in enumerate(bases):
        items.append(("lift(%s)" % name, lift_rows(rows), 2,
                      lift_vectors(vectors)))
        if i < 3:
            items.append(("lift2(%s)" % name, lift_rows(lift_rows(rows)), 2,
                          lift_vectors(lift_vectors(vectors))))
    return _distinct(items)


def walk_vertex_list():
    data = json.loads((HERE / "walk_vertices.json").read_text())
    out = []
    for entry in data["vertices"][:WALK_VERTICES]:
        rows = [[Fraction(x) for x in row] for row in entry["matrix"]["entries"]]
        out.append(rows)
    return out


def walk_inputs():
    """(label, rows, neighbours that must appear, (neighbours, rays) or None).

    The exact counts are the paper's for Q_A3/2: five neighbours, one ray.
    P_1/2 and P_2/2 are vertices of the Q_A3/2 graph too; they run once, as
    the fixed inputs they are.
    """
    items = [("Q_A4/2", halved(qan_rows(4)), [], None)]
    for k in range(1, 5):
        items.append(("P_%d/2" % k, halved(pk_rows(k)),
                      [halved(pk_rows(k + 1))], None))
    fixed_keys = {_key(rows) for _, rows, _, _ in items}
    qa3 = halved(qan_rows(3))
    for idx, rows in enumerate(walk_vertex_list()):
        if idx in WALK_DROPPED or _key(rows) in fixed_keys:
            continue
        must, counts = [], None
        for tau in permutations(range(3)):
            if ck.permute_rows(qa3, tau) == rows:
                must = [ck.permute_rows(halved(nb), tau)
                        for nb in QA3_NEIGHBOURS]
                counts = (5, 1)
                break
        items.append(("v%d" % idx, rows, must, counts))
    return _distinct(items)


def cp_inputs(rng, n_cp3=150, n_notpsd=14, n_cone=8):
    """(label, rows, cp_by_construction, psd) for the cp workload.

    The seed draws the in-cone matrices.  The 3x3 ones are drawn once, the
    same in every run: their cost varies by a factor of up to 100 from one
    matrix to the next, so seeded draws moved the whole pass by 5-10%.
    """
    fixed = random.Random("cp-3x3")
    items = []
    seen = set()

    def add(label, rows, cp, psd):
        key = tuple(tuple(r) for r in rows)
        if key in seen:
            return False
        seen.add(key)
        items.append((label, [[Fraction(x) for x in r] for r in rows],
                      cp, psd))
        return True

    def rank_one_sum(n, terms):
        rows = [[0] * n for _ in range(n)]
        for alpha, x in terms:
            for i in range(n):
                for j in range(n):
                    rows[i][j] += alpha * x[i] * x[j]
        return rows

    count = 0
    while count < n_cp3:
        terms = []
        for _ in range(fixed.randint(2, 4)):
            x = tuple(fixed.randint(0, 2) for _ in range(3))
            if any(x):
                terms.append((fixed.randint(1, 3), x))
        if terms and add("cp3", rank_one_sum(3, terms), True, True):
            count += 1
    count = 0
    while count < n_notpsd:
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                rows[i][j] = rows[j][i] = (fixed.randint(1, 6) if i == j
                                           else fixed.randint(0, 6))
        if not ck.is_psd_3x3(rows) and add("notpsd3", rows, False, False):
            count += 1
    for n in (5, 6):
        count = 0
        while count < n_cone:
            terms = [(rng.randint(1, 4), v) for v in qan_vectors(n)]
            if add("cone%d" % n, rank_one_sum(n, terms), True, True):
                count += 1
    return items
