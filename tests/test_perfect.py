"""Perfection certificates, reconstruction from minima, component labels."""

import random
from fractions import Fraction

import pytest

from percop.core import (SymMat, basis_e, identity, inertia, inner, quad_form,
                         rank_one, span_rank, dim_sym)
from percop.errors import PreconditionError
from percop.families import fixtures, p_k, q_an
from percop.perfect import (Imperfect, PerfectCertificate, Underdetermined,
                            certificate_to_json, classify_component,
                            is_perfect_copositive, normalized_to_min_one,
                            recover_from_minvecs, voronoi_cone)


def test_root_lattice_forms_are_perfect():
    for n in range(1, 5):
        cert = is_perfect_copositive(q_an(n))
        assert isinstance(cert, PerfectCertificate)
        assert cert.min_value == 2
        assert cert.span_rank == dim_sym(n)


def test_fixture_certificates():
    fx = fixtures()
    ci = is_perfect_copositive(fx.I)
    assert ci and ci.min_value == 2 and ci.min_vectors == fx.minc_I
    ce = is_perfect_copositive(fx.E)
    assert ce and ce.min_value == 2 and ce.min_vectors == fx.minc_E
    ii, ie = inertia(fx.I), inertia(fx.E)
    assert (ii.n_pos, ii.n_zero, ii.n_neg) == (2, 0, 1)
    assert (ie.n_pos, ie.n_zero, ie.n_neg) == (3, 0, 2)


def test_imperfect_identity_in_dimension_two():
    """MinC(I_2) = {e1, e2} spans only 2 of the 3 symmetric dimensions."""
    verdict = is_perfect_copositive(identity(2))
    assert isinstance(verdict, Imperfect)
    assert not verdict
    assert verdict.reason == "span-deficient"
    assert verdict.span_rank == 2
    assert verdict.min_result.min_value == 1


def test_imperfect_not_strictly_copositive():
    bad = SymMat.from_rows([[1, -3], [-3, 1]])
    verdict = is_perfect_copositive(bad)
    assert isinstance(verdict, Imperfect)
    assert verdict.reason == "not-strictly-copositive"
    assert verdict.verdict is not None


def test_perfect_p_k_family():
    for k in range(1, 5):
        cert = is_perfect_copositive(p_k(k))
        assert cert
        assert cert.min_value == 2
        assert len(cert.min_vectors) == 2 * k + 5


def test_normalized_to_min_one():
    cert = is_perfect_copositive(q_an(2))
    half = normalized_to_min_one(cert)
    assert half.matrix == q_an(2).scale(Fraction(1, 2))
    assert half.min_value == 1
    assert half.min_vectors == cert.min_vectors
    again = normalized_to_min_one(half)
    assert again.matrix == half.matrix


def test_recover_round_trip():
    for q in (q_an(2), q_an(3), fixtures().I, fixtures().E):
        cert = is_perfect_copositive(q)
        got = recover_from_minvecs(cert.min_vectors, cert.min_value)
        assert got == q


def test_recover_underdetermined():
    out = recover_from_minvecs(((0, 1), (1, 0)), 1)
    assert isinstance(out, Underdetermined)
    assert out.dimension == 1


def test_recover_refuses_an_inexact_value():
    # 0.1 is not 1/10 in binary floating point; bools are not values either
    for value in (0.1, True):
        with pytest.raises(ValueError, match="^value must be"):
            recover_from_minvecs(((1, 0), (0, 1), (1, 1)), value)
    got = recover_from_minvecs(((1, 0), (0, 1), (1, 1)), "1/10")
    assert got == SymMat.from_rows([[2, -1], [-1, 2]]).scale(Fraction(1, 20))


def test_recover_from_rational_vectors():
    # each row pairs v v^T with the value, so Q[v] is the value also for a
    # rational v; (1/2, 0) forces q11 = 4
    vectors = ((Fraction(1, 2), 0), (0, 1), (1, 1))
    got = recover_from_minvecs(vectors, 1)
    assert got == SymMat.from_rows([[4, -2], [-2, 1]])
    assert all(quad_form(got, v) == 1 for v in vectors)


def test_recover_refuses_zero_length_vectors():
    with pytest.raises(PreconditionError) as exc:
        recover_from_minvecs([()], 1)
    assert exc.value.reason == "empty-vector"


def test_recover_inconsistent():
    with pytest.raises(PreconditionError) as exc:
        recover_from_minvecs(((0, 1), (1, 0), (1, 1), (1, 2)), 2)
    assert exc.value.reason == "inconsistent-minima"


def test_voronoi_cone_ray_counts():
    assert len(voronoi_cone(is_perfect_copositive(q_an(2))).rays) == 3
    assert len(voronoi_cone(is_perfect_copositive(q_an(3))).rays) == 6
    assert len(voronoi_cone(is_perfect_copositive(fixtures().I)).rays) == 7


def test_voronoi_cone_rays_are_rank_one_minima():
    cert = is_perfect_copositive(q_an(3))
    cone = voronoi_cone(cert)
    expect = sorted(rank_one(v).coords for v in cert.min_vectors)
    assert [r.coords for r in cone.rays] == expect
    assert cone.lineality == ()


def test_classify_definite_component():
    label = classify_component(q_an(3))
    assert label.definiteness == "positive-definite"
    assert label.nonnegative is False
    assert label.exceptional_certified is None


def test_classify_indefinite_and_psd_rank():
    fx = fixtures()
    assert classify_component(fx.I).definiteness == "indefinite"
    assert classify_component(fx.E).definiteness == "indefinite"
    assert classify_component(rank_one((1, 1))).definiteness == "psd-rank-1"
    assert classify_component(basis_e(2, 0, 1)).definiteness == "indefinite"
    assert classify_component(fx.Q_dnn).nonnegative is True


def test_classify_exceptional_with_witness():
    fx = fixtures()
    label = classify_component(fx.E, witness=fx.Q_dnn)
    assert label.exceptional_certified == fx.Q_dnn
    assert label.witness_rejected is None
    assert inner(fx.E, fx.Q_dnn) == Fraction(-4, 3)


def test_classify_witness_rejections():
    fx = fixtures()
    cases = [
        (fx.E, identity(3), "witness-dimension-mismatch"),
        (fx.E, SymMat.from_rows([[1, 2, 0, 0, 0],
                                 [2, 1, 0, 0, 0],
                                 [0, 0, 1, 0, 0],
                                 [0, 0, 0, 1, 0],
                                 [0, 0, 0, 0, 1]]), "witness-not-psd"),
        (fx.E, SymMat.from_rows([[1, -1, 0, 0, 0],
                                 [-1, 1, 0, 0, 0],
                                 [0, 0, 1, 0, 0],
                                 [0, 0, 0, 1, 0],
                                 [0, 0, 0, 0, 1]]),
         "witness-not-nonnegative"),
        (fx.E, identity(5), "witness-inner-product-not-negative"),
    ]
    for q, w, reason in cases:
        label = classify_component(q, witness=w)
        assert label.exceptional_certified is None
        assert label.witness_rejected == reason


def test_perfection_is_permutation_equivariant():
    rng = random.Random(71)
    q = fixtures().I
    for _ in range(5):
        perm = list(range(3))
        rng.shuffle(perm)
        rows = [[q.entry(perm[i], perm[j]) for j in range(3)]
                for i in range(3)]
        cert = is_perfect_copositive(SymMat.from_rows(rows))
        assert cert
        assert cert.min_value == 2
        inv = [perm.index(i) for i in range(3)]
        expect = tuple(sorted(tuple(v[perm[i]] for i in range(3))
                              for v in is_perfect_copositive(q).min_vectors))
        assert cert.min_vectors == expect


def test_dropping_a_minimum_loses_perfection_rank():
    cert = is_perfect_copositive(q_an(3))
    full = [rank_one(v) for v in cert.min_vectors]
    assert span_rank(full) == 6
    for leave_out in range(len(full)):
        rest = full[:leave_out] + full[leave_out + 1:]
        assert span_rank(rest) == 5


def test_n2_perfect_matches_classical_catalog():
    """For n = 2 with a negative off-diagonal entry, perfect copositive
    coincides with classically perfect; nonnegative off-diagonal kills it."""
    assert is_perfect_copositive(SymMat.from_rows([[2, -1], [-1, 2]]))
    assert is_perfect_copositive(SymMat.from_rows([[2, 1], [1, 2]])).reason \
        == "span-deficient"


def test_certificate_json():
    body = certificate_to_json(is_perfect_copositive(q_an(2)))
    assert body["min"] == "2"
    assert body["span_rank"] == 3
    assert body["matrix"]["entries"] == [["2", "-1"], ["-1", "2"]]
    assert body["vectors"] == [[0, 1], [1, 0], [1, 1]]
