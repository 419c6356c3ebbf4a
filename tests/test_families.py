"""Named matrix families, dimension lifting, classical embedding, fixtures."""

from fractions import Fraction
from itertools import permutations

import pytest

from percop.cop import classical_min, copositive_min
from percop.core import SymMat, identity, inertia, quad_form, span_rank, \
    rank_one
from percop.errors import PreconditionError
from percop.families import (EmbeddingResult, Fixtures, LiftWitness,
                             embed_classical, fixture_matrix, fixtures, lift,
                             minkowski_reduced_check, p_k, q_an)
from percop.perfect import is_perfect_copositive


def test_q_an_entries():
    assert q_an(1) == SymMat.from_rows([[2]])
    assert q_an(2) == SymMat.from_rows([[2, -1], [-1, 2]])
    assert q_an(3) == SymMat.from_rows([[2, -1, 0], [-1, 2, -1],
                                        [0, -1, 2]])


def test_q_an_rejects_bad_dimension():
    with pytest.raises(PreconditionError) as exc:
        q_an(0)
    assert exc.value.reason == "bad-dimension"


def test_q_an_classical_minimum_count():
    for n in range(1, 5):
        best, vecs = classical_min(q_an(n))
        assert best == 2
        assert len(vecs) == n * (n + 1) // 2


def test_p_k_entries():
    assert p_k(1) == SymMat.from_rows([[2, -3, 2], [-3, 6, -3], [2, -3, 2]])
    assert p_k(2) == SymMat.from_rows([[2, -5, 2], [-5, 14, -5], [2, -5, 2]])
    with pytest.raises(PreconditionError):
        p_k(0)


def test_p_k_perfect_with_growing_minima():
    for k in (1, 2, 3):
        cert = is_perfect_copositive(p_k(k))
        assert cert
        assert cert.min_value == 2
        assert len(cert.min_vectors) == 2 * k + 5
        ine = inertia(p_k(k))
        assert (ine.n_pos, ine.n_zero, ine.n_neg) == (2, 1, 0)


def test_lift_small_base_gives_p1_up_to_permutation():
    base = SymMat.from_rows([[6, -3], [-3, 2]])
    lifted = lift(base, LiftWitness(base, (1, 2)))
    assert lifted.n == 3
    perms = []
    for perm in permutations(range(3)):
        rows = [[lifted.entry(perm[i], perm[j]) for j in range(3)]
                for i in range(3)]
        perms.append(SymMat.from_rows(rows))
    assert p_k(1) in perms


def test_lift_duplicates_last_row_and_column():
    base = SymMat.from_rows([[6, -3], [-3, 2]])
    lifted = lift(base, LiftWitness(base, (1, 2)))
    f = lambda i: min(i, 1)
    for i in range(3):
        for j in range(3):
            assert lifted.entry(i, j) == base.entry(f(i), f(j))


def test_lift_minima_split_the_witness_coordinate():
    base = SymMat.from_rows([[6, -3], [-3, 2]])
    lifted = lift(base, LiftWitness(base, (1, 2)))
    res = copositive_min(lifted)
    assert res.min_value == 2
    expect = set()
    for v in copositive_min(base).vectors:
        for a in range(v[-1] + 1):
            expect.add(v[:-1] + (a, v[-1] - a))
    assert set(res.vectors) == expect
    assert len(res.vectors) == 7


def test_lift_validation_errors():
    base = SymMat.from_rows([[6, -3], [-3, 2]])
    with pytest.raises(PreconditionError) as exc:
        lift(base, LiftWitness(q_an(2), (1, 2)))
    assert exc.value.reason == "witness-base-mismatch"
    with pytest.raises(PreconditionError) as exc:
        lift(base, LiftWitness(base, (1, 2, 0)))
    assert exc.value.reason == "witness-dimension-mismatch"
    with pytest.raises(PreconditionError) as exc:
        lift(base, LiftWitness(base, (1, 1)))
    assert exc.value.reason == "witness-last-entry"
    with pytest.raises(PreconditionError) as exc:
        lift(base, LiftWitness(base, (0, 2)))
    assert exc.value.reason == "witness-not-minimal"


@pytest.mark.parametrize("bad", [(1.0, 0, 0, 0, 4.9), (1, 0, 0, 0, 4.0),
                                 (True, 0, 0, 0, 4), (1, 0, 0, 0, "9/2"),
                                 (1, 0, 0, 0, Fraction(9, 2))])
def test_lift_witness_refuses_entries_that_are_not_integers(bad):
    with pytest.raises(ValueError):
        LiftWitness(fixtures().E, bad)


def test_lift_witness_keeps_integral_rationals_as_ints():
    w = LiftWitness(fixtures().E, (1, 0, 0, 0, Fraction(8, 2))).witness_vector
    assert w == (1, 0, 0, 0, 4)
    assert all(type(x) is int for x in w)


def test_lift_requires_perfect_base():
    base = SymMat.from_rows([[2, 0], [0, 2]])
    with pytest.raises(PreconditionError) as exc:
        lift(base, LiftWitness(base, (0, 2)))
    assert exc.value.reason in ("base-not-perfect", "witness-not-minimal")


def test_minkowski_reduction_check():
    assert minkowski_reduced_check(identity(2))
    assert minkowski_reduced_check(q_an(2))
    assert minkowski_reduced_check(SymMat.from_rows([[2, 1], [1, 2]]))
    # decreasing diagonal violates the reduction ordering
    assert not minkowski_reduced_check(SymMat.from_rows([[2, 0], [0, 1]]))
    assert not minkowski_reduced_check(
        SymMat.from_rows([[4, -2, 0], [-2, 2, -1], [0, -1, 2]]))


def test_minkowski_check_requires_positive_definite():
    with pytest.raises(PreconditionError):
        minkowski_reduced_check(p_k(1))


def test_embed_small_example():
    out = embed_classical(SymMat.from_rows([[2, 1], [1, 2]]))
    assert isinstance(out, EmbeddingResult)
    assert out.q_bound == 2
    assert out.u_inv == ((1, 0), (2, 1))
    assert out.transformed == SymMat.from_rows([[6, -3], [-3, 2]])


def test_embed_root_form():
    out = embed_classical(q_an(2))
    assert out.q_bound == 2
    assert out.transformed == SymMat.from_rows([[14, -5], [-5, 2]])


def test_embed_output_is_perfect_copositive():
    for q in (q_an(2), SymMat.from_rows([[2, 1], [1, 2]])):
        out = embed_classical(q)
        cert = is_perfect_copositive(out.transformed)
        assert cert
        assert cert.min_value == classical_min(q)[0]


def test_embed_transform_is_congruence():
    out = embed_classical(q_an(2))
    u = out.u
    q = q_an(2)
    n = q.n
    rows = [[sum(u[a][i] * q.entry(a, b) * u[b][j]
                 for a in range(n) for b in range(n))
             for j in range(n)] for i in range(n)]
    assert SymMat.from_rows(rows) == out.transformed
    # u and u_inv really are inverse to each other
    for i in range(n):
        for j in range(n):
            acc = sum(u[i][k] * out.u_inv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_embed_errors():
    with pytest.raises(PreconditionError) as exc:
        embed_classical(p_k(1))
    assert exc.value.reason == "not-positive-definite"
    with pytest.raises(PreconditionError) as exc:
        embed_classical(SymMat.from_rows([[2, 0], [0, 1]]))
    assert exc.value.reason == "not-minkowski-reduced"
    with pytest.raises(PreconditionError) as exc:
        embed_classical(SymMat.from_rows([[2, 0], [0, 3]]))
    assert exc.value.reason == "not-classically-perfect"


def test_fixture_matrices_match_published_values():
    fx = fixtures()
    assert isinstance(fx, Fixtures)
    assert fx.I == SymMat.from_rows([[2, -5, 4], [-5, 14, -9], [4, -9, 6]])
    assert fx.E.entry(0, 0) == 122
    assert fx.E.entry(0, 2) == Fraction(197, 3)
    for c in fx.E.scale(3).coords:
        assert c.denominator == 1
    assert fx.Q_dnn == SymMat.from_rows([[1, 1, 0, 0, 1],
                                         [1, 2, 1, 0, 0],
                                         [0, 1, 2, 1, 0],
                                         [0, 0, 1, 2, 1],
                                         [1, 0, 0, 1, 6]])
    assert len(fx.minc_I) == 7
    assert len(fx.minc_E) == 18
    assert (1, 0, 0, 0, 4) in fx.minc_E
    assert (5, 6, 0, 0, 0) in fx.minc_E


def test_fixture_minima_really_attain_the_minimum():
    fx = fixtures()
    for v in fx.minc_I:
        assert quad_form(fx.I, v) == 2
    for v in fx.minc_E:
        assert quad_form(fx.E, v) == 2


def test_fixture_minima_span_fully():
    fx = fixtures()
    assert span_rank([rank_one(v) for v in fx.minc_I]) == 6
    assert span_rank([rank_one(v) for v in fx.minc_E]) == 15


def test_fixture_matrix_lookup():
    assert fixture_matrix("I") == fixtures().I
    assert fixture_matrix("E") == fixtures().E
    assert fixture_matrix("Qdnn") == fixtures().Q_dnn
    assert fixture_matrix("QA:3") == q_an(3)
    assert fixture_matrix("P:2") == p_k(2)
    with pytest.raises(ValueError):
        fixture_matrix("nope")
