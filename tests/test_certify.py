"""Completely positive membership via the perfect-copositive walk."""

import random
from fractions import Fraction

import pytest

from percop.certify import (Factorization, Inconclusive, NotCp, cp_certify,
                            cp_to_json)
from percop.core import SymMat, identity, inner, rank_one
from percop.errors import PreconditionError
from percop.families import fixtures
from percop.perfect import is_perfect_copositive


def _rebuild(pairs, n):
    total = SymMat.from_rows([[0] * n for _ in range(n)])
    for alpha, v in pairs:
        assert alpha > 0
        assert all(x >= 0 for x in v)
        total = total + rank_one(v).scale(alpha)
    return total


def test_factorizes_diagonal_dominant_example():
    q = SymMat.from_rows([[2, 1], [1, 2]])
    out = cp_certify(q)
    assert isinstance(out, Factorization)
    assert _rebuild(out.pairs, 2) == q
    assert sorted(a for a, _ in out.pairs) == [1, 1, 1]


def test_factorizes_rank_one_example():
    q = SymMat.from_rows([[1, 2], [2, 4]])
    out = cp_certify(q)
    assert isinstance(out, Factorization)
    assert out.pairs == ((1, (1, 2)),)


def test_factorizes_identity():
    out = cp_certify(identity(3))
    assert isinstance(out, Factorization)
    assert _rebuild(out.pairs, 3) == identity(3)


def test_rejects_nonneg_but_not_psd():
    q = SymMat.from_rows([[1, 2], [2, 1]])
    out = cp_certify(q)
    assert isinstance(out, NotCp)
    assert out.value < 0
    assert inner(out.certificate, q) == out.value
    cert = is_perfect_copositive(out.certificate)
    assert cert and cert.min_value == 1


def test_random_cp_matrices_never_rejected():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.choice([2, 3])
        q = SymMat.from_rows([[0] * n for _ in range(n)])
        for _ in range(4):
            v = tuple(rng.randint(0, 3) for _ in range(n))
            if any(v):
                q = q + rank_one(v).scale(rng.randint(1, 3))
        out = cp_certify(q)
        assert isinstance(out, Factorization), q
        assert _rebuild(out.pairs, n) == q


def test_budget_zero_stops_before_first_move():
    q = SymMat.from_rows([[1, 2], [2, 1]])
    out = cp_certify(q, step_budget=0)
    assert isinstance(out, Inconclusive)
    assert out.reason == "budget-exhausted"
    assert out.steps_used == 0


def test_budget_zero_still_decides_trivial_cases():
    """The start vertex alone settles targets inside its Voronoi cone."""
    out = cp_certify(SymMat.from_rows([[2, 1], [1, 2]]), step_budget=0)
    assert isinstance(out, Factorization)


def test_precondition_errors():
    with pytest.raises(PreconditionError) as exc:
        cp_certify(SymMat.from_rows([[1, -1], [-1, 1]]))
    assert exc.value.reason == "not-entrywise-nonnegative"
    with pytest.raises(PreconditionError) as exc:
        cp_certify(identity(2), step_budget=-1)
    assert exc.value.reason == "bad-budget"


def test_not_cp_for_dnn_fixture():
    """The doubly nonnegative 5x5 fixture sits outside the CP cone; the walk
    must find a separating perfect copositive matrix."""
    fx = fixtures()
    out = cp_certify(fx.Q_dnn)
    assert isinstance(out, NotCp)
    assert out.value < 0
    assert inner(out.certificate, fx.Q_dnn) == out.value
    assert is_perfect_copositive(out.certificate)


def test_unresolved_direction_is_skipped(monkeypatch):
    # with no halving allowed the second vertex has no usable direction
    monkeypatch.setattr("percop.walk.BISECT_LIMIT", 0)
    out = cp_certify(fixtures().Q_dnn)
    assert out == Inconclusive(steps_used=1, reason="no-descent-direction")


def test_json_shapes():
    fac = cp_certify(SymMat.from_rows([[1, 2], [2, 4]]))
    body = cp_to_json(fac)
    assert body["verdict"] == "cp"
    assert body["factorization"] == [{"alpha": "1", "vector": [1, 2]}]

    not_cp = cp_certify(SymMat.from_rows([[1, 2], [2, 1]]))
    body = cp_to_json(not_cp)
    assert body["verdict"] == "not-cp"
    assert Fraction(body["value"]) < 0
    assert "certificate" in body

    stuck = cp_certify(SymMat.from_rows([[1, 2], [2, 1]]), step_budget=0)
    body = cp_to_json(stuck)
    assert body == {"verdict": "inconclusive", "steps": 0,
                    "reason": "budget-exhausted"}
