"""The benchmark's output checks reject corrupted results; they take seconds."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
from percop import certify, cop, perfect, walk  # noqa: E402
from percop.core import SymMat  # noqa: E402
from percop.families import p_k, q_an  # noqa: E402
from percop.perfect import is_perfect_copositive, normalized_to_min_one  # noqa: E402
from spans import Tracer  # noqa: E402


def _rows(m):
    return ck.rows_of(m)


def test_int_rank_and_span_dim():
    assert ck.int_rank([[1, 2], [2, 4]]) == 1
    assert ck.int_rank([[0, 0], [0, 0]]) == 0
    assert ck.int_rank([[2, 1, 0], [0, 3, 1], [2, 4, 1]]) == 2
    assert ck.span_dim(wl.qan_vectors(3)) == 6
    assert ck.span_dim(wl.qan_vectors(3)[:5]) == 5


def test_closed_forms_attain_their_minimum():
    for _, rows, value, vectors in wl.copmin_inputs(random.Random(0)):
        if len(rows) < 5:
            ck.check_expected_minimum(wl.fractions_of(rows), value, vectors)


def test_d4_brute_force_finds_its_roots():
    value, vectors = wl.classical_min_vectors(wl.D4_ROWS)
    assert value == 2 and len(vectors) == 12


def test_inputs_follow_the_seed():
    a = wl.cp_inputs(random.Random(1), 20, 5, 2)
    b = wl.cp_inputs(random.Random(1), 20, 5, 2)
    c = wl.cp_inputs(random.Random(2), 20, 5, 2)
    assert a == b and a != c
    assert len({str(rows) for _, rows, _, _ in a}) == len(a)
    copmin_a = wl.copmin_inputs(random.Random(3))
    assert copmin_a == wl.copmin_inputs(random.Random(3))
    assert copmin_a != wl.copmin_inputs(random.Random(4))
    walk = wl.walk_inputs()
    assert sum(counts is not None for *_, counts in walk) == 1


def test_perfect_check_rejects_a_dropped_minimal_vector():
    rows = wl.fractions_of(wl.pk_rows(2))
    cert = is_perfect_copositive(p_k(2))
    ck.check_perfect(cert, rows, 2, wl.pk_vectors(2))
    dropped = replace(cert, min_vectors=cert.min_vectors[1:])
    with pytest.raises(ck.CheckError):
        ck.check_perfect(dropped, rows, 2, wl.pk_vectors(2))
    with pytest.raises(ck.CheckError):
        ck.check_perfect(replace(cert, min_value=Fraction(1)), rows, 2,
                         wl.pk_vectors(2))
    with pytest.raises(ck.CheckError):
        ck.check_expected_minimum(rows, 2, wl.pk_vectors(2) + ((1, 1, 0),))


def _qa3_steps():
    cert = normalized_to_min_one(is_perfect_copositive(q_an(3)))
    return cert, walk.neighbors_all(cert)


def test_walk_check_accepts_the_paper_neighbourhood():
    cert, steps = _qa3_steps()
    box = ck.box(3, 6)
    kinds = ck.check_neighbourhood(cert, _rows(cert.matrix), steps, box)
    assert (kinds.count("neighbor"), kinds.count("ray")) == (5, 1)


def test_walk_check_rejects_an_altered_lambda():
    cert, steps = _qa3_steps()
    p_rows, box = _rows(cert.matrix), ck.box(3, 6)
    vecs = [tuple(v) for v in cert.min_vectors]
    nb = next(s for s in steps if isinstance(s, walk.Neighbor))
    for factor in (2, Fraction(1, 2), -1):
        with pytest.raises(ck.CheckError):
            ck.check_walk_step(replace(nb, lam=nb.lam * factor), p_rows,
                               vecs, box)
    with pytest.raises(ck.CheckError):
        ck.check_walk_step(replace(nb, new_vectors=()), p_rows, vecs, box)
    lower = replace(nb, matrix=nb.matrix.scale(Fraction(9, 10)))
    with pytest.raises(ck.CheckError):
        ck.check_walk_step(lower, p_rows, vecs, box)


def test_walk_check_rejects_a_direction_off_the_dual_cone():
    cert, steps = _qa3_steps()
    p_rows, box = _rows(cert.matrix), ck.box(3, 6)
    vecs = [tuple(v) for v in cert.min_vectors]
    ray = next(s for s in steps if isinstance(s, walk.PolyhedronRay))
    bad = SymMat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ck.CheckError):
        ck.check_walk_step(replace(ray, direction=bad), p_rows, vecs, box)
    with pytest.raises(ck.CheckError):
        ck.check_neighbourhood(cert, p_rows, steps + (ray,), box)


def test_cp_check_rejects_a_perturbed_alpha():
    q = SymMat.from_rows([[2, 1], [1, 2]])
    rows = _rows(q)
    verdict = certify.cp_certify(q)
    assert ck.check_cp(verdict, rows, True, True) == "cp"
    (alpha, x), *rest = verdict.pairs
    bumped = replace(verdict, pairs=((alpha + Fraction(1, 7), x), *rest))
    with pytest.raises(ck.CheckError):
        ck.check_cp(bumped, rows, True, True)
    negative = replace(verdict, pairs=((alpha, tuple(-t for t in x)), *rest))
    with pytest.raises(ck.CheckError):
        ck.check_cp(negative, rows, True, True)


def test_cp_check_rejects_a_nonnegative_separation():
    q = SymMat.from_rows([[1, 3, 0], [3, 1, 0], [0, 0, 1]])
    rows = _rows(q)
    verdict = certify.cp_certify(q)
    assert ck.check_cp(verdict, rows, False, False) == "not-cp"
    with pytest.raises(ck.CheckError):
        ck.check_cp(replace(verdict, value=Fraction(0)), rows, False, False)
    with pytest.raises(ck.CheckError):
        ck.check_cp(verdict, rows, True, True)
    start = q_an(3).scale(Fraction(1, 2))
    with pytest.raises(ck.CheckError):
        ck.check_cp(certify.NotCp(start, Fraction(2)), rows, False, False)


def test_tracer_counts_layers_and_restores_the_program():
    original = walk.contiguous_perfect
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        assert walk.contiguous_perfect is not original
        assert certify.contiguous_perfect is walk.contiguous_perfect
        assert walk._survey_below is cop._survey_below
        cop.copositive_min.cache_clear()
        cert = perfect.is_perfect_copositive(q_an(2))
        walk.neighbors_all(normalized_to_min_one(cert))
    finally:
        tracer.uninstall()
    assert walk.contiguous_perfect is original
    assert certify.contiguous_perfect is original
    metrics = tracer.layer_metrics()
    assert metrics["walk.edge.calls"][0] == 3
    assert metrics["cones.dd.calls"][0] == 1
    assert metrics["cop.survey.calls"][0] >= 2
    assert metrics["perfect.calls"][0] == 1
    assert metrics["cop.bnb.calls"][0] >= metrics["cop.survey.calls"][0]
