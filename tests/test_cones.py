"""Double description over symmetric-matrix space and the exact Phase-I LP."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percop.certify import Factorization, cp_certify
from percop.cones import (ConeHRep, FarkasCertificate, NonnegCombination,
                          _sign_fixed, extreme_rays, lp_nonneg_solve,
                          pairing_coeffs)
from percop.core import (SymMat, basis_e, dim_sym, identity, inner, int_rref,
                         nullspace, primitive, quad_form, rank_one)
from percop.errors import PreconditionError
from percop.families import fixtures, p_k, q_an
from percop.perfect import is_perfect_copositive, voronoi_cone


def test_pairing_coeffs_reproduce_inner():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[0] * n for _ in range(n)]
        cols = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
                cols[i][j] = cols[j][i] = rng.randint(-5, 5)
        a, b = SymMat.from_rows(rows), SymMat.from_rows(cols)
        dot = sum(c * x for c, x in zip(pairing_coeffs(a), b.coords))
        assert dot == inner(a, b)


def test_diagonal_halfspaces_leave_offdiagonal_lineality():
    cone = ConeHRep(2, (basis_e(2, 0, 0), basis_e(2, 1, 1)))
    vrep = extreme_rays(cone)
    assert set(r.coords for r in vrep.rays) == {
        basis_e(2, 0, 0).coords, basis_e(2, 1, 1).coords}
    assert [l.coords for l in vrep.lineality] == [basis_e(2, 0, 1).coords]


def test_no_normals_is_all_of_space():
    vrep = extreme_rays(ConeHRep(2, ()))
    assert vrep.rays == ()
    assert len(vrep.lineality) == 3


def test_zero_normals_are_dropped():
    zero = SymMat.from_rows([[0, 0], [0, 0]])
    cone = ConeHRep(2, (zero, basis_e(2, 0, 0)))
    assert len(cone.normals) == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(PreconditionError):
        ConeHRep(2, (identity(3),))


def test_voronoi_cone_of_a2_dualizes_to_three_rays():
    cert = is_perfect_copositive(q_an(2))
    cone = voronoi_cone(cert)
    hrep = ConeHRep(2, cone.rays)
    vrep = extreme_rays(hrep)
    assert vrep.lineality == ()
    assert len(vrep.rays) == 3
    # every dual ray pairs nonnegatively with every generator
    for r in vrep.rays:
        for v in cert.min_vectors:
            assert quad_form(r, v) >= 0
    # and E_12 is among them: it kills both (1,0) and (0,1)
    assert basis_e(2, 0, 1).coords in {r.coords for r in vrep.rays}


def test_double_dualization_recovers_simplicial_cone():
    gens = (rank_one((1, 0)), rank_one((0, 1)), rank_one((1, 1)))
    first = extreme_rays(ConeHRep(2, gens))
    second = extreme_rays(ConeHRep(2, first.rays))
    want = sorted(g.coords for g in gens)
    assert [r.coords for r in second.rays] == want


def test_voronoi_cone_of_a3_has_expected_facet_count():
    cert = is_perfect_copositive(q_an(3))
    vrep = extreme_rays(ConeHRep(3, voronoi_cone(cert).rays))
    assert vrep.lineality == ()
    # Q_{A_3} is classically perfect; its Voronoi cone is simplicial
    assert len(vrep.rays) == 6


def test_cross_pattern_rays_survive_box_truncation():
    """E_ij stays an extreme ray of successively finer outer approximations
    of the copositive cone cut out by box vectors."""
    for n in (2, 3):
        for bound in (1, 2):
            vecs = [v for v in product(range(bound + 1), repeat=n) if any(v)]
            hrep = ConeHRep(n, tuple(rank_one(v) for v in vecs))
            rays = {r.coords for r in extreme_rays(hrep).rays}
            for i in range(n):
                for j in range(i + 1, n):
                    assert basis_e(n, i, j).coords in rays


def _oracle(cone):
    """Extreme rays and lineality of a cone, by brute force over tight sets.

    With A the normals and F the free columns of their RREF, every ray zero
    on F that is extreme is tight on D - |F| - 1 independent normals; such a
    subset together with the unit rows of F has a one-dimensional nullspace,
    and the ray is the orientation of it on which every normal is >= 0.
    """
    D = dim_sym(cone.n)
    coeffs = [primitive(pairing_coeffs(a)) for a in cone.normals]
    pivots = int_rref(coeffs, D)[1]
    units = [[int(j == f) for j in range(D)] for f in range(D)
             if f not in pivots]
    rays = set()
    for subset in combinations(coeffs, max(len(pivots) - 1, 0)):
        basis = nullspace(list(subset) + units, D)
        if len(basis) != 1:
            continue
        for sign in (1, -1):
            ray = tuple(sign * x for x in basis[0])
            if all(sum(c * x for c, x in zip(a, ray)) >= 0 for a in coeffs):
                rays.add(ray)
    return sorted(rays), sorted(_sign_fixed(l) for l in nullspace(coeffs, D))


def _assert_matches_oracle(cone):
    vrep = extreme_rays(cone)
    rays, lineality = _oracle(cone)
    assert [r.coords for r in vrep.rays] == rays
    assert [l.coords for l in vrep.lineality] == lineality
    # the output does not depend on the order the normals are given in
    normals = list(cone.normals)
    random.Random(len(normals)).shuffle(normals)
    assert extreme_rays(ConeHRep(cone.n, tuple(normals))) == vrep
    return vrep


def test_extreme_rays_match_the_oracle_on_random_cones():
    rng = random.Random(17)
    with_lineality = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        normals = tuple(SymMat(n, tuple(rng.randint(-2, 2)
                                        for _ in range(dim_sym(n))))
                        for _ in range(rng.randint(0, 7)))
        with_lineality += bool(_assert_matches_oracle(
            ConeHRep(n, normals)).lineality)
    assert with_lineality > 100


def test_extreme_rays_match_the_oracle_on_random_cones_in_dimension_4():
    rng = random.Random(29)
    with_lineality = 0
    for _ in range(80):
        normals = tuple(SymMat(4, tuple(rng.randint(-2, 2)
                                        for _ in range(dim_sym(4))))
                        for _ in range(rng.randint(6, 12)))
        with_lineality += bool(_assert_matches_oracle(
            ConeHRep(4, normals)).lineality)
    assert 20 < with_lineality < 60


def test_extreme_rays_match_the_oracle_on_the_dual_voronoi_cone_of_e():
    cone = ConeHRep(5, tuple(rank_one(v) for v in fixtures().minc_E))
    assert len(_assert_matches_oracle(cone).rays) == 188


def test_extreme_rays_match_the_oracle_on_the_4x4_box_cone():
    vecs = [v for v in product(range(2), repeat=4) if any(v)]
    cone = ConeHRep(4, tuple(rank_one(v) for v in vecs))
    assert len(_assert_matches_oracle(cone).rays) == 40


def test_cp_certify_pins_a_walk_over_seven_dual_voronoi_cones():
    """The walk on this 5x5 CP matrix lists the extreme rays of seven dual
    Voronoi cones; the factorization it ends with is pinned and checked by
    substitution."""
    rows = [[9, 7, 3, 12, 4], [7, 17, 1, 16, 3], [3, 1, 3, 4, 2],
            [12, 16, 4, 21, 4], [4, 3, 2, 4, 7]]
    out = cp_certify(SymMat.from_rows(rows))
    assert isinstance(out, Factorization)
    assert out.pairs == tuple((Fraction(a), v) for a, v in [
        ("1", (0, 0, 0, 0, 1)), ("1/2", (0, 1, 0, 0, 2)),
        ("1", (0, 1, 0, 1, 0)), ("1/2", (0, 3, 0, 2, 0)),
        ("2", (1, 0, 0, 1, 0)), ("2", (1, 0, 1, 1, 1)),
        ("2", (1, 1, 0, 1, 1)), ("1", (1, 1, 1, 2, 0)),
        ("2", (1, 2, 0, 2, 0))])
    assert [[sum(a * v[i] * v[j] for a, v in out.pairs) for j in range(5)]
            for i in range(5)] == rows


def test_walk_directions_of_p_family_live_in_dual_cone():
    for k in (1, 2, 3):
        cert = is_perfect_copositive(p_k(k))
        step = p_k(k + 1) + p_k(k).scale(-1)
        for v in cert.min_vectors:
            assert quad_form(step, v) >= 0


def test_lp_identity_from_diagonal_generators():
    gens = [rank_one((1, 0)), rank_one((0, 1))]
    out = lp_nonneg_solve(gens, identity(2))
    assert isinstance(out, NonnegCombination)
    assert out.coefficients == (1, 1)


def test_lp_combination_is_verified_by_substitution():
    gens = [rank_one((1, 0)), rank_one((0, 1)), rank_one((1, 1))]
    target = SymMat.from_rows([[3, 1], [1, 2]])
    out = lp_nonneg_solve(gens, target)
    assert isinstance(out, NonnegCombination)
    total = None
    for alpha, g in zip(out.coefficients, gens):
        assert alpha >= 0
        term = g.scale(alpha)
        total = term if total is None else total + term
    assert total == target


def test_lp_farkas_separates_off_diagonal_target():
    out = lp_nonneg_solve([rank_one((1, 0))], basis_e(2, 0, 1))
    assert isinstance(out, FarkasCertificate)
    w = out.matrix
    assert inner(w, rank_one((1, 0))) >= 0
    assert inner(w, basis_e(2, 0, 1)) < 0


def test_lp_farkas_for_target_outside_cp_cone():
    """[[1, 2], [2, 1]] is nonnegative but not PSD, so no combination of
    rank-one nonnegative generators can reach it."""
    vecs = [v for v in product(range(4), repeat=2) if any(v)]
    gens = [rank_one(v) for v in vecs]
    target = SymMat.from_rows([[1, 2], [2, 1]])
    out = lp_nonneg_solve(gens, target)
    assert isinstance(out, FarkasCertificate)
    for g in gens:
        assert inner(out.matrix, g) >= 0
    assert inner(out.matrix, target) < 0


def test_lp_zero_target_is_trivially_feasible():
    zero = SymMat.from_rows([[0, 0], [0, 0]])
    out = lp_nonneg_solve([rank_one((1, 1))], zero)
    assert isinstance(out, NonnegCombination)
    assert out.coefficients == (0,)


def test_lp_random_membership_round_trip():
    rng = random.Random(13)
    vecs = [v for v in product(range(3), repeat=3) if any(v)]
    gens = [rank_one(v) for v in vecs]
    for _ in range(10):
        picks = rng.sample(range(len(gens)), 5)
        coeffs = {i: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                  for i in picks}
        target = None
        for i, alpha in coeffs.items():
            term = gens[i].scale(alpha)
            target = term if target is None else target + term
        out = lp_nonneg_solve(gens, target)
        assert isinstance(out, NonnegCombination)
        rebuilt = None
        for alpha, g in zip(out.coefficients, gens):
            term = g.scale(alpha)
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt == target


_THREE = (rank_one((1, 0)), rank_one((0, 1)), rank_one((1, 1)))
_SMALL = SymMat.from_rows([[Fraction(1, 3), Fraction(1, 7)],
                           [Fraction(1, 7), Fraction(2, 5)]])
# (generators, target, "comb" or "farkas", coefficients or Farkas coords),
# recorded from the Fraction-tableau LP: the inputs of the tests above, two
# rational targets, no generators, and rational generators
_LP_PINS = [
    ([rank_one((1, 0)), rank_one((0, 1))], identity(2), "comb", ("1", "1")),
    (_THREE, SymMat.from_rows([[3, 1], [1, 2]]), "comb", ("2", "1", "1")),
    ([rank_one((1, 0))], basis_e(2, 0, 1), "farkas", ("0", "-1", "-1/2")),
    ([rank_one(v) for v in product(range(4), repeat=2) if any(v)],
     SymMat.from_rows([[1, 2], [2, 1]]), "farkas", ("2/5", "3/5", "-1/2")),
    ([rank_one((1, 1))], SymMat(2, (0, 0, 0)), "comb", ("0",)),
    (_THREE, _SMALL, "comb", ("4/21", "9/35", "1/7")),
    (_THREE, SymMat.from_rows([[1, -1], [-1, Fraction(1, 2)]]), "farkas",
     ("0", "0", "1/2")),
    ([], identity(2), "farkas", ("-1", "-1", "-1/2")),
    ([g.scale(Fraction(1, 2)) for g in _THREE], _SMALL, "comb",
     ("8/21", "18/35", "2/7")),
    ([rank_one((1, 0)).scale(Fraction(2, 3)),
      rank_one((1, 2)).scale(Fraction(1, 6)),
      rank_one((0, 1)).scale(Fraction(5, 4))], _SMALL, "comb",
     ("11/28", "3/7", "16/175")),
    ([rank_one((1, 0)).scale(Fraction(2, 3)),
      rank_one((0, 1)).scale(Fraction(3, 4))],
     SymMat.from_rows([[1, 3], [3, 1]]), "farkas", ("0", "0", "-1/2")),
]
# the nonzero coefficients of test_lp_random_membership_round_trip's targets
_ROUND_TRIP_PINS = [
    {9: "2/3", 12: "8/3", 14: "2/3", 18: "4/3", 21: "2/3"},
    {0: "5/3", 9: "7/3", 13: "19/6", 18: "4/3", 20: "4/3", 21: "4/3"},
    {3: "4", 8: "4/3", 11: "3/2", 12: "20/3", 15: "1/2"},
    {9: "116/21", 12: "124/21", 13: "16/21", 18: "2/7", 20: "16/21",
     21: "26/21"},
    {0: "3/2", 2: "2/3", 6: "3", 11: "1/3", 12: "3", 14: "1/6"},
    {3: "19/3", 6: "7/3", 8: "11/3", 9: "7/3", 11: "3", 12: "5/3"},
    {0: "4", 3: "28/3", 4: "1", 12: "10"},
    {0: "17/3", 3: "2/3", 8: "19/3", 9: "13/3", 11: "2/3", 12: "27"},
    {0: "8", 8: "3/2", 9: "3", 11: "13"},
    {9: "44/9", 12: "26/9", 13: "10/9", 18: "1/9", 21: "19/9", 22: "25/18"},
]


def test_lp_pinned_outputs():
    for gens, target, kind, want in _LP_PINS:
        out = lp_nonneg_solve(gens, target)
        if kind == "comb":
            assert isinstance(out, NonnegCombination)
            assert out.coefficients == tuple(Fraction(x) for x in want)
        else:
            assert isinstance(out, FarkasCertificate)
            assert out.matrix.coords == tuple(Fraction(x) for x in want)
    rng = random.Random(13)
    vecs = [v for v in product(range(3), repeat=3) if any(v)]
    gens = [rank_one(v) for v in vecs]
    for want in _ROUND_TRIP_PINS:
        picks = rng.sample(range(len(gens)), 5)
        coeffs = {i: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                  for i in picks}
        target = SymMat(3, (0,) * 6)
        for i, alpha in coeffs.items():
            target = target + gens[i].scale(alpha)
        out = lp_nonneg_solve(gens, target)
        assert out.coefficients == tuple(Fraction(want.get(i, 0))
                                         for i in range(len(gens)))


_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lp_agrees_with_double_description(data):
    """The target is a nonnegative combination of the generators exactly
    when it pairs nonnegatively with every extreme ray of their dual cone
    and to 0 with its lineality (the cone is closed: bipolar theorem)."""
    n = data.draw(st.integers(1, 3))
    vecs = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * n),
                              max_size=8))
    gens = [rank_one(v) for v in vecs]
    # half the targets are combinations of the generators, then perturbed
    target = SymMat(n, (0,) * dim_sym(n))
    for g in gens:
        target = target + g.scale(data.draw(
            st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))))
    if not gens or data.draw(st.booleans()):
        target = target + SymMat(n, tuple(
            data.draw(_fractions) for _ in range(dim_sym(n))))
    dual = extreme_rays(ConeHRep(n, tuple(gens)))
    inside = (all(inner(r, target) >= 0 for r in dual.rays)
              and all(inner(l, target) == 0 for l in dual.lineality))
    out = lp_nonneg_solve(gens, target)
    assert isinstance(out, NonnegCombination) == inside
