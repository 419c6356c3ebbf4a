"""Exact arithmetic layer: construction, pairings, inertia, the integer
kernel, serialization."""

import json
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from percop.core import (SymMat, basis_e, coord_index, dim_sym, identity,
                         inertia, inner, int_rref, mat_dumps, mat_from_json,
                         mat_loads, mat_to_json, nullspace, primitive,
                         quad_form, rank_one, row_rank, span_rank,
                         span_rank_of_vectors)
from percop.cop import enumerate_below
from percop.families import fixtures, q_an, p_k


def test_from_rows_requires_symmetry():
    with pytest.raises(ValueError):
        SymMat.from_rows([[1, 2], [3, 1]])


def test_from_rows_requires_square():
    with pytest.raises(ValueError):
        SymMat.from_rows([[1, 2, 3], [2, 1, 0]])


def test_coord_index_covers_upper_triangle():
    n = 5
    seen = sorted(coord_index(n, i, j) for i in range(n) for j in range(i, n))
    assert seen == list(range(dim_sym(n)))


def test_entry_round_trip():
    m = SymMat.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert m.entry(0, 1) == -1
    assert m.entry(1, 0) == -1
    assert m.entry(2, 2) == 2
    assert m.rows() == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_quad_form_examples():
    assert quad_form(q_an(2), (1, 1)) == 2
    assert quad_form(q_an(2), (0, 0)) == 0
    n = SymMat.from_rows([[4, -2, 0], [-2, 2, -1], [0, -1, 2]])
    assert quad_form(n, (1, 2, 1)) == 2


def test_quad_form_dimension_mismatch():
    with pytest.raises(ValueError):
        quad_form(q_an(2), (1, 0, 0))


def test_quad_form_accepts_rational_vectors():
    assert quad_form(q_an(2), (Fraction(1, 2), Fraction(1, 2))) == Fraction(1, 2)


def test_inner_examples():
    e12 = basis_e(2, 0, 1)
    assert inner(e12, rank_one((1, 1))) == 2
    assert inner(q_an(2), identity(2)) == 4
    fx = fixtures()
    assert inner(fx.E, fx.Q_dnn) < 0
    assert inner(fx.E, fx.Q_dnn) == Fraction(-4, 3)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(q_an(2), q_an(3))


def test_quad_form_is_inner_with_rank_one():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9),
                                                   rng.randint(1, 5))
        q = SymMat.from_rows(rows)
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        assert quad_form(q, v) == inner(q, rank_one(v))


def test_quad_form_linear_in_matrix():
    rng = random.Random(11)
    p = q_an(3)
    r = SymMat.from_rows([[0, -2, 0], [-2, 8, -2], [0, -2, 0]])
    for _ in range(20):
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        v = tuple(rng.randint(0, 5) for _ in range(3))
        combined = p + r.scale(lam)
        assert quad_form(combined, v) == \
            quad_form(p, v) + lam * quad_form(r, v)


def test_inertia_examples():
    assert inertia(q_an(3)) == inertia(q_an(3)).__class__(3, 0, 0)
    ine = inertia(p_k(1))
    assert (ine.n_pos, ine.n_zero, ine.n_neg) == (2, 1, 0)
    ine = inertia(fixtures().I)
    assert (ine.n_pos, ine.n_zero, ine.n_neg) == (2, 0, 1)


def test_inertia_zero_matrix():
    z = SymMat.from_rows([[0, 0], [0, 0]])
    ine = inertia(z)
    assert (ine.n_pos, ine.n_zero, ine.n_neg) == (0, 2, 0)


def test_inertia_zero_diagonal_pivot():
    # forces the off-diagonal handling: no nonzero diagonal pivot available
    m = SymMat.from_rows([[0, 1], [1, 0]])
    ine = inertia(m)
    assert (ine.n_pos, ine.n_zero, ine.n_neg) == (1, 0, 1)


@st.composite
def _congruent_to_diagonal(draw):
    """A diagonal D, zeros allowed, and P^T D P for a unimodular P."""
    diag = draw(st.lists(st.fractions(-5, 5, max_denominator=4),
                         min_size=1, max_size=6))
    n = len(diag)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                    st.integers(-3, 3))
    for i, j, k in draw(st.lists(ops, max_size=3 * n)):
        if i != j:
            p[i] = [a + k * b for a, b in zip(p[i], p[j])]
    m = [[sum(p[t][i] * diag[t] * p[t][j] for t in range(n))
          for j in range(n)] for i in range(n)]
    return diag, SymMat.from_rows(m)


@settings(deadline=None)
@given(_congruent_to_diagonal())
def test_inertia_sylvester_invariance(case):
    """Congruence by a unimodular matrix preserves the signature."""
    diag, m = case
    got = inertia(m)
    assert got.n_pos == sum(1 for x in diag if x > 0)
    assert got.n_zero == sum(1 for x in diag if x == 0)
    assert got.n_neg == sum(1 for x in diag if x < 0)


def test_inertia_rank_helpers():
    ine = inertia(p_k(2))
    assert ine.rank == 2
    assert ine.is_positive_semidefinite()
    assert not ine.is_positive_definite()
    assert inertia(q_an(4)).is_positive_definite()


def _int_matrices(max_rows, max_cols, bound=5):
    """(ncols, rows): up to max_rows integer rows of one length ncols."""
    return st.integers(1, max_cols).flatmap(lambda c: st.tuples(
        st.just(c),
        st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                 max_size=max_rows)))


@settings(deadline=None)
@given(_int_matrices(8, 8))
def test_int_rref_is_the_scaled_rref(case):
    """Rank and pivots agree with sympy; pivot rows are d times its RREF."""
    ncols, rows = case
    m, pivots = int_rref(rows, ncols)
    if not rows:
        assert (m, pivots) == ([], [])
        return
    want, want_pivots = sympy.Matrix(rows).rref()
    assert tuple(pivots) == want_pivots
    d = m[0][pivots[0]] if pivots else 1
    for i, row in enumerate(m):
        assert row == ([d * x for x in want.row(i)] if i < len(pivots)
                       else [0] * ncols)


@st.composite
def _dense_products(draw):
    """n x k times k x n integer matrices: dense, of rank at most k."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, n))

    def mat(r, c):
        return draw(st.lists(st.lists(st.integers(-9, 9), min_size=c,
                                      max_size=c), min_size=r, max_size=r))

    a, b = mat(n, k), mat(k, n)
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=25, deadline=None)
@given(_dense_products())
def test_int_rref_rank_on_dense_matrices(rows):
    n = len(rows)
    want = DomainMatrix([[QQ(x) for x in row] for row in rows], (n, n),
                        QQ).rank()
    assert len(int_rref(rows, n)[1]) == want


@settings(deadline=None)
@given(_int_matrices(8, 8, bound=3))
def test_nullspace_is_a_primitive_basis(case):
    ncols, rows = case
    _, pivots = int_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - len(pivots)
    for f, v in zip(free, basis):
        assert gcd(*v) == 1
        assert all(sum(map(mul, row, v)) == 0 for row in rows)
        assert v[f] > 0 and all(v[g] == 0 for g in free if g != f)


def test_primitive_examples():
    assert primitive((Fraction(1, 2), Fraction(-3, 4), 0)) == (2, -3, 0)
    assert primitive((6, -4)) == (3, -2)
    assert primitive((0, 0)) == (0, 0)


def test_row_rank_of_rational_rows():
    half = Fraction(1, 2)
    assert row_rank([[half, 1], [1, 2], [0, Fraction(1, 3)]]) == 2
    assert row_rank([[0, 0]]) == 0
    assert row_rank([]) == 0


@pytest.mark.parametrize("bad", [0.1, 1.5, True, False, None, 1j,
                                 Decimal("0.5")])
def test_symmat_refuses_inexact_entries(bad):
    with pytest.raises(ValueError):
        SymMat.from_rows([[bad]])
    with pytest.raises(ValueError):
        SymMat(1, (bad,))
    with pytest.raises(ValueError):
        q_an(2).scale(bad)


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2"])
def test_symmat_refuses_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        SymMat(n, ())
    with pytest.raises(ValueError, match="^n must be a positive integer"):
        SymMat.from_rows([])


def test_zero_denominator_is_refused_with_its_name():
    with pytest.raises(ValueError, match="^matrix entry has a zero denom"):
        SymMat.from_rows([["1/0"]])
    with pytest.raises(ValueError, match="^matrix entry has a zero denom"):
        mat_from_json({"n": 1, "entries": [["1/0"]]})
    with pytest.raises(ValueError, match="^threshold c has a zero denom"):
        enumerate_below(q_an(2), "1/0")


def test_symmat_accepts_rational_entries():
    m = SymMat.from_rows([[1, "1/3"], [Fraction(1, 3), sympy.Integer(2)]])
    assert m.coords == (1, 2, Fraction(1, 3))
    assert SymMat(1, ("3/6",)).coords == (Fraction(1, 2),)


def test_span_rank_examples():
    n = 4
    diags = [rank_one(tuple(int(k == i) for k in range(n))) for i in range(n)]
    assert span_rank(diags) == n
    assert span_rank([]) == 0
    fx = fixtures()
    assert span_rank_of_vectors(((1, 0), (0, 1), (1, 1))) == 3
    assert span_rank_of_vectors(fx.minc_E) == 15


def test_span_rank_matches_sympy():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 4)
        vecs = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 8))]
        mats = [rank_one(v) for v in vecs]
        stacked = sympy.Matrix([[sympy.Rational(c) for c in m.coords]
                                for m in mats])
        assert span_rank(mats) == stacked.rank()


def test_span_rank_bounded_by_dim():
    rng = random.Random(37)
    vecs = [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(40)]
    assert span_rank_of_vectors(vecs) <= dim_sym(3)


def test_json_round_trip():
    fx = fixtures()
    for m in (q_an(3), fx.E, fx.I, p_k(4).scale(Fraction(1, 2))):
        assert mat_from_json(mat_to_json(m)) == m
        assert mat_loads(mat_dumps(m)) == m


def test_json_reader_rejects_floats():
    with pytest.raises(ValueError):
        mat_from_json({"n": 1, "entries": [[1.5]]})
    with pytest.raises(ValueError):
        mat_from_json({"n": 1, "entries": [[True]]})


def test_json_reader_rejects_asymmetry():
    with pytest.raises(ValueError):
        mat_from_json({"n": 2, "entries": [["1", "2"], ["3", "1"]]})


def test_json_reader_rejects_bad_shape():
    with pytest.raises(ValueError):
        mat_from_json({"n": 2, "entries": [["1", "2"]]})
    with pytest.raises(ValueError):
        mat_from_json({"n": True, "entries": [[1]]})
    with pytest.raises(ValueError):
        mat_loads("[1, 2, 3]")
    with pytest.raises(ValueError):
        mat_loads("not json at all")


def test_json_writer_emits_reduced_fractions():
    m = SymMat.from_rows([[Fraction(2, 4)]])
    text = mat_dumps(m)
    assert json.loads(text)["entries"] == [["1/2"]]


def test_scale_and_add():
    a = q_an(2)
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a
    assert (a - a) == SymMat.from_rows([[0, 0], [0, 0]])


def test_nonneg_entry_check():
    assert SymMat.from_rows([[1, 0], [0, 2]]).has_nonneg_entries()
    assert not q_an(2).has_nonneg_entries()
