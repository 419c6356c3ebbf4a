"""Acceptance gate: end-to-end checks of the headline behaviors.

Each numbered test is independent and prints as a single pass/fail line
under -v. All arithmetic is exact, so every comparison is exact equality;
random instances are seeded so failures reproduce deterministically.
"""

import random
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

import pytest

from percop.certify import Factorization, NotCp, cp_certify
from percop.cop import (NotCopositive, StrictlyCopositive, classical_min,
                        copositive_min, enumerate_below)
from percop.cop import test_copositivity as check_cop
from percop.core import (SymMat, basis_e, dim_sym, identity, inertia, inner,
                         quad_form, rank_one)
from percop.families import (LiftWitness, embed_classical, fixtures, lift,
                             minkowski_reduced_check, p_k, q_an)
from percop.perfect import (Imperfect, classify_component,
                            is_perfect_copositive, normalized_to_min_one)
from percop.walk import Neighbor, PolyhedronRay, contiguous_perfect, \
    neighbors_all, perm_canonical

HALF = Fraction(1, 2)


def _half_cert(q):
    return normalized_to_min_one(is_perfect_copositive(q))


def _steps(q):
    return neighbors_all(_half_cert(q))


def test_criterion_01_root_form_minima():
    for n in range(2, 6):
        res = copositive_min(q_an(n))
        assert res.min_value == 2
        expect = set()
        for j in range(n):
            for k in range(j, n):
                expect.add(tuple(1 if j <= i <= k else 0 for i in range(n)))
        assert set(res.vectors) == expect
        assert len(res.vectors) == n * (n + 1) // 2


def test_criterion_02_neighborhood_in_dimension_two():
    steps = _steps(q_an(2))
    neighbors = {s.matrix.coords: s for s in steps if isinstance(s, Neighbor)}
    rays = [s for s in steps if isinstance(s, PolyhedronRay)]
    assert len(neighbors) == 2 and len(rays) == 1
    a = SymMat.from_rows([[6, -3], [-3, 2]]).scale(HALF)
    b = SymMat.from_rows([[2, -3], [-3, 6]]).scale(HALF)
    assert neighbors[a.coords].new_vectors == ((1, 2),)
    assert neighbors[b.coords].new_vectors == ((2, 1),)
    direction = rays[0].direction
    assert direction.coords in (basis_e(2, 0, 1).coords,
                                basis_e(2, 0, 1).scale(2).coords)


def test_criterion_03_neighborhood_in_dimension_three():
    steps = _steps(q_an(3))
    neighbors = {s.matrix.coords for s in steps if isinstance(s, Neighbor)}
    rays = [s for s in steps if isinstance(s, PolyhedronRay)]
    assert len(neighbors) == 5 and len(rays) == 1
    stated = [
        [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]],
        [[2, 0, -1], [0, 2, -1], [-1, -1, 2]],
        [[4, -2, 0], [-2, 2, -1], [0, -1, 2]],
        [[2, -1, 0], [-1, 2, -2], [0, -2, 4]],
        [[2, -3, 2], [-3, 6, -3], [2, -3, 2]],
    ]
    for rows in stated:
        assert SymMat.from_rows(rows).scale(HALF).coords in neighbors
    assert rays[0].direction.coords == basis_e(3, 0, 2).coords
    # the first two stated neighbors are coordinate permutations of the start
    canon = perm_canonical(q_an(3))
    for rows in stated[:2]:
        assert perm_canonical(SymMat.from_rows(rows)) == canon


def test_criterion_04_psd_series():
    for k in range(1, 6):
        pk = p_k(k)
        cert = is_perfect_copositive(pk)
        assert cert and cert.min_value == 2
        expect = set()
        for seed in ((1, 0, 0), (k, 1, 0), (k + 1, 1, 0)):
            t = 0
            while seed[0] - t >= 0:
                expect.add((seed[0] - t, seed[1], t))
                t += 1
        assert set(cert.min_vectors) == expect
        assert len(cert.min_vectors) == 2 * k + 5
        ine = inertia(pk)
        assert (ine.n_pos, ine.n_zero, ine.n_neg) == (2, 1, 0)
        step_dir = SymMat.from_rows([[0, -2, 0], [-2, 4 * k + 4, -2],
                                     [0, -2, 0]]).scale(HALF)
        step = contiguous_perfect(_half_cert(pk), step_dir)
        assert isinstance(step, Neighbor)
        assert step.matrix == p_k(k + 1).scale(HALF)


def _dup(q):
    n = q.n
    rows = [[q.entry(min(i, n - 1), min(j, n - 1)) for j in range(n + 1)]
            for i in range(n + 1)]
    return SymMat.from_rows(rows)


def _lift_formula(minvecs):
    out = set()
    for v in minvecs:
        for a in range(v[-1] + 1):
            out.add(v[:-1] + (a, v[-1] - a))
    return out


def _shrink_witness(w):
    """B^T W B for the row-sum-halving map; keeps the lift pairing exact."""
    n = w.n
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            fi, fj = min(i, n - 1), min(j, n - 1)
            val = w.entry(fi, fj)
            if i >= n - 1:
                val /= 2
            if j >= n - 1:
                val /= 2
            rows[i][j] = val
    return SymMat.from_rows(rows)


@pytest.mark.slow
def test_criterion_05_lifting():
    base = SymMat.from_rows([[6, -3], [-3, 2]])
    lifted = lift(base, LiftWitness(base, (1, 2)))
    swap = (1, 0, 2)
    rows = [[lifted.entry(swap[i], swap[j]) for j in range(3)]
            for i in range(3)]
    assert SymMat.from_rows(rows) == p_k(1)

    fx = fixtures()
    cases = [(p_k(1), (0, 1, 2)), (fx.I, (0, 1, 2)), (fx.E, (1, 0, 0, 0, 4))]
    lifted_of = {}
    for q, w in cases:
        res = copositive_min(q)
        up = lift(q, LiftWitness(q, w))
        lifted_of[q.coords] = up
        up_res = copositive_min(up)
        assert up_res.min_value == res.min_value
        assert set(up_res.vectors) == _lift_formula(res.vectors)

    # the indefinite lineage stays inside (S + N) minus their union
    s_part = SymMat.from_rows([[2, -5, 3], [-5, 14, -9], [3, -9, 6]])
    n_part = basis_e(3, 0, 2)
    assert s_part + n_part == fx.I
    i_up = lifted_of[fx.I.coords]
    i_up2 = lift(i_up, LiftWitness(i_up, (0, 1, 0, 2)))
    stage_s, stage_n = s_part, n_part
    for stage in (i_up, i_up2):
        stage_s, stage_n = _dup(stage_s), _dup(stage_n)
        assert stage_s + stage_n == stage
        assert inertia(stage_s).is_positive_semidefinite()
        assert stage_n.has_nonneg_entries()
        assert not inertia(stage).is_positive_semidefinite()
        assert not stage.has_nonneg_entries()

    # the second lift of E is perfect too: its 233 minimal vectors are the
    # lifting formula's, and they span the 28-dimensional space
    e_up = lifted_of[fx.E.coords]
    e_up2 = lift(e_up, LiftWitness(e_up, (1, 0, 0, 0, 0, 4)))
    assert check_cop(e_up2) == StrictlyCopositive(Fraction(4, 451))
    up2_res = copositive_min(e_up2)
    assert up2_res.min_value == 2
    assert set(up2_res.vectors) == \
        _lift_formula(copositive_min(e_up).vectors)
    assert len(up2_res.vectors) == 233
    cert = is_perfect_copositive(e_up2)
    assert cert and cert.span_rank == 28 == dim_sym(7)

    # the exceptional lineage stays exceptional: the shrunk witness is still
    # doubly nonnegative and its inner product with the lift is unchanged
    witness = fx.Q_dnn
    target_value = inner(fx.E, fx.Q_dnn)
    for stage in (e_up, e_up2):
        witness = _shrink_witness(witness)
        assert inertia(witness).is_positive_semidefinite()
        assert witness.has_nonneg_entries()
        assert inner(stage, witness) == target_value
        assert target_value < 0


def test_criterion_06_indefinite_fixture():
    fx = fixtures()
    cert = is_perfect_copositive(fx.I)
    assert cert and cert.min_value == 2
    assert set(cert.min_vectors) == {
        (0, 1, 1), (0, 1, 2), (0, 2, 3), (1, 0, 0),
        (2, 1, 0), (3, 1, 0), (1, 1, 1)}
    ine = inertia(fx.I)
    assert (ine.n_pos, ine.n_zero, ine.n_neg) == (2, 0, 1)


def test_criterion_07_exceptional_fixture():
    fx = fixtures()
    cert = is_perfect_copositive(fx.E)
    assert cert
    assert cert.min_value == 2
    assert cert.min_vectors == fx.minc_E
    assert len(cert.min_vectors) == 18
    qd = fx.Q_dnn
    assert inertia(qd).is_positive_semidefinite()
    assert qd.has_nonneg_entries()
    label = classify_component(fx.E, witness=qd)
    assert label.exceptional_certified == qd
    assert inner(fx.E, qd) < 0


def test_criterion_08_nonnegative_matrices_are_never_perfect():
    rng = random.Random(101)
    for trial in range(100):
        n = 2 + trial % 3
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 5) \
                    if i != j else rng.randint(1, 6)
        b = SymMat.from_rows(rows)
        verdict = is_perfect_copositive(b)
        assert isinstance(verdict, Imperfect)
        dmin = min(b.entry(i, i) for i in range(n))
        allowed = {tuple(int(k == i) for k in range(n))
                   for i in range(n) if b.entry(i, i) == dmin}
        assert set(verdict.min_result.vectors) <= allowed


def _det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def _reduced_rep(q):
    """A Minkowski-reduced arithmetic representative, found by re-basing
    on classical minimal vectors; reduction proper is the caller's duty."""
    n = q.n
    if minkowski_reduced_check(q):
        return q
    _, vecs = classical_min(q)
    for cols in permutations(vecs, n):
        if _det([list(c) for c in zip(*cols)]) not in (1, -1):
            continue
        rows = [[sum(cols[i][a] * q.entry(a, b) * cols[j][b]
                     for a in range(n) for b in range(n))
                 for j in range(n)] for i in range(n)]
        candidate = SymMat.from_rows(rows)
        if minkowski_reduced_check(candidate):
            return candidate
    raise AssertionError("no reduced representative found")


def test_criterion_09_classical_embedding():
    catalog = [
        SymMat.from_rows([[2, 1], [1, 2]]),
        q_an(2),
        q_an(3),
        SymMat.from_rows([[4, -2, 0], [-2, 2, -1], [0, -1, 2]]),
        SymMat.from_rows([[2, -1, 0], [-1, 2, -2], [0, -2, 4]]),
    ]
    for q in catalog:
        reduced = _reduced_rep(q)
        out = embed_classical(reduced)
        assert _det([list(r) for r in out.u]) in (1, -1)
        cert = is_perfect_copositive(out.transformed)
        assert cert
        assert cert.min_value == classical_min(reduced)[0]
        best, vecs = classical_min(out.transformed)
        assert best == cert.min_value
        for v in vecs:
            assert all(x >= 0 for x in v) or all(x <= 0 for x in v)
    out = embed_classical(SymMat.from_rows([[2, 1], [1, 2]]))
    assert out.transformed == SymMat.from_rows([[6, -3], [-3, 2]])


def test_criterion_10_ray_recession():
    catalogs = []
    for n in (2, 3):
        steps = _steps(q_an(n))
        vertices = [q_an(n).scale(HALF)]
        ray_dirs = []
        for s in steps:
            if isinstance(s, Neighbor):
                vertices.append(s.matrix)
            elif isinstance(s, PolyhedronRay):
                ray_dirs.append(s.direction)
        catalogs.append((n, vertices, ray_dirs))
        start = q_an(n).scale(HALF)
        for r in ray_dirs:
            for mu in (1, 10, 100):
                res = copositive_min(start + r.scale(mu))
                assert res.min_value == 1
    for n, vertices, _ in catalogs:
        for p in vertices:
            for i in range(n):
                for j in range(i + 1, n):
                    for mu in (1, 10):
                        shifted = p + basis_e(n, i, j).scale(mu)
                        assert copositive_min(shifted).min_value >= 1


@pytest.mark.slow
def test_criterion_11_cp_certification():
    rng = random.Random(103)
    for _ in range(25):
        n = rng.choice([2, 3])
        q = identity(n).scale(rng.randint(1, 2))
        for _ in range(3):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            if any(v):
                q = q + rank_one(v).scale(rng.randint(1, 3))
        out = cp_certify(q)
        assert isinstance(out, Factorization), q
        total = SymMat.from_rows([[0] * n for _ in range(n)])
        for alpha, v in out.pairs:
            total = total + rank_one(v).scale(alpha)
        assert total == q

    fx = fixtures()
    out = cp_certify(fx.Q_dnn, step_budget=10_000)
    if isinstance(out, NotCp):
        assert out.value < 0
        assert inner(out.certificate, fx.Q_dnn) == out.value
        assert is_perfect_copositive(out.certificate)
    # fallback separation through the published exceptional matrix
    assert inner(fx.E, fx.Q_dnn) < 0
    assert inertia(fx.Q_dnn).is_positive_semidefinite()
    assert fx.Q_dnn.has_nonneg_entries()


def _box_vectors(b, c, mu_lb):
    ratio = Fraction(c) / Fraction(mu_lb)
    radius = isqrt(ratio.numerator // ratio.denominator)
    out = []
    for v in product(range(radius + 1), repeat=b.n):
        if any(v) and quad_form(b, v) <= c:
            out.append(v)
    return tuple(sorted(out))


def test_criterion_12_oracle_equivalence():
    rng = random.Random(107)
    done = 0
    while done < 50:
        n = 2 if done % 2 == 0 else 3
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 6) \
                    if i != j else rng.randint(1, 8)
        b = SymMat.from_rows(rows)
        verdict = check_cop(b)
        if not isinstance(verdict, StrictlyCopositive):
            continue
        c = max(b.entry(i, i) for i in range(n))
        if Fraction(c) / verdict.mu_lb > 625:
            continue
        assert enumerate_below(b, c) == _box_vectors(b, c, verdict.mu_lb)
        done += 1

    decided = 0
    while decided < 200:
        a = rng.randint(-6, 6)
        d = rng.randint(-6, 6)
        off = rng.randint(-6, 6)
        m = SymMat.from_rows([[a, off], [off, d]])
        det = a * d - off * off
        if a > 0 and d > 0 and (off >= 0 or det > 0):
            expect = StrictlyCopositive
        elif a < 0 or d < 0 or (off < 0 and det < 0):
            expect = NotCopositive
        else:
            continue
        got = check_cop(m)
        assert isinstance(got, expect), m
        if expect is NotCopositive:
            assert quad_form(m, got.witness) < 0
            assert all(x >= 0 for x in got.witness)
        decided += 1
