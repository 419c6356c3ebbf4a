"""Branch-and-bound copositivity, pruned enumeration, copositive minima.

The n=2 cases have a complete closed-form oracle (COP^2 is the union of the
PSD and the nonnegative matrices), which pins down every verdict; higher
dimensions are checked against brute-force box enumeration and fixed
worked examples.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from percop.cop import (Copositive, NotCopositive, StrictlyCopositive,
                        Undecided, _bnb, _enumerate_scaled, _int_form,
                        _radius, _suffix_bounds, _survey_below,
                        certify_copositive, classical_below, classical_min,
                        copositive_min, enumerate_below, minresult_to_json)
from percop.cop import test_copositivity as check_cop
from percop.core import SymMat, basis_e, identity, quad_form
from percop.errors import (NotCopositiveError, PreconditionError,
                           UndecidedError)
from percop.families import fixtures, p_k, q_an
from percop.walk import kernel_zero


def _sym2(a, b, c):
    return SymMat.from_rows([[Fraction(a), Fraction(b)],
                             [Fraction(b), Fraction(c)]])


def _oracle2(m):
    """'strict', 'boundary', or 'not' for a 2x2 via PSD-union-nonnegative."""
    a, c, b = m.coords[0], m.coords[1], m.coords[2]
    det = a * c - b * b
    if a > 0 and c > 0 and (b >= 0 or det > 0):
        return 'strict'
    if a < 0 or c < 0 or (b < 0 and det < 0):
        return 'not'
    return 'boundary'


def test_verdicts_on_fixed_matrices():
    assert isinstance(check_cop(identity(3)), StrictlyCopositive)
    assert isinstance(check_cop(fixtures().E), StrictlyCopositive)
    bad = _sym2(2, -3, 2)
    verdict = check_cop(bad)
    assert isinstance(verdict, NotCopositive)
    w = verdict.witness
    assert all(x >= 0 for x in w) and any(x > 0 for x in w)
    assert quad_form(bad, w) < 0


def test_strict_bound_is_a_simplex_lower_bound():
    verdict = check_cop(q_an(3))
    assert isinstance(verdict, StrictlyCopositive)
    assert verdict.mu_lb > 0
    # the bound must hold at a few simplex points
    rng = random.Random(3)
    for _ in range(50):
        cuts = sorted(rng.random() for _ in range(2))
        x = (cuts[0], cuts[1] - cuts[0], 1 - cuts[1])
        fx = tuple(Fraction(c).limit_denominator(64) for c in x)
        total = sum(fx)
        fx = tuple(c / total for c in fx)
        assert quad_form(q_an(3), fx) >= verdict.mu_lb


def test_boundary_matrix_is_undecided_strictly():
    e12 = basis_e(2, 0, 1)
    assert isinstance(check_cop(e12, depth_limit=6), Undecided)
    # but the non-strict certifier decides it at the root
    soft = certify_copositive(e12)
    assert isinstance(soft, Copositive)
    assert soft.mu_lb == 0


def test_depth_limit_zero_boundary():
    verdict = check_cop(basis_e(3, 0, 2), depth_limit=0)
    assert isinstance(verdict, Undecided)
    assert verdict.depth == 0


def test_negative_cell_budget_is_refused():
    with pytest.raises(PreconditionError) as exc:
        check_cop(identity(2), 64, -1)
    assert exc.value.reason == "bad-cell-budget"
    # budget 0 stays legal: the root cell is not split
    assert isinstance(check_cop(basis_e(3, 0, 2), 64, 0), Undecided)


# (integer matrix or SymMat, depth_limit, strict, cell_budget, tag, answer):
# the bound as a Fraction, the witness as a reduced (vector, exponent) pair,
# or the undecided depth.  The root simplex has all edges equally long, so
# every case with n >= 3 that splits, E and q_an(5) among them, pins the
# tie-break between longest edges.  _WALK_REFUTED is a survey matrix of a
# walk step, refuted by a vertex with denominator 2^8.
_WALK_REFUTED = [[2, -7, 5], [-7, 26, -18], [5, -18, 12]]
_BNB_PINS = [
    ([[-3]], 64, True, 100, 'not', ((1,), 0)),
    ([[-3]], 64, False, 100, 'not', ((1,), 0)),
    ([[5]], 64, True, 100, 'strict', Fraction(5)),
    ([[5]], 64, False, 100, 'cop', Fraction(5)),
    ([[0]], 64, True, 100, 'undec', 0),
    ([[0]], 64, False, 100, 'cop', Fraction(0)),
    (basis_e(2, 0, 1), 6, True, 2_000_000, 'undec', 6),
    (basis_e(3, 0, 2), 0, True, 2_000_000, 'undec', 0),
    (q_an(4), 64, True, 10, 'undec', 8),
    (q_an(4), 64, True, 100, 'undec', 7),
    (q_an(4), 64, True, 1000, 'strict', Fraction(1, 16)),
    (fixtures().E, 64, True, 2_000_000, 'strict', Fraction(3, 2048)),
    (fixtures().E, 1024, True, 2_000_000, 'strict', Fraction(3, 2048)),
    (q_an(5), 64, True, 2_000_000, 'strict', Fraction(1, 64)),
    (q_an(5), 1024, True, 2_000_000, 'strict', Fraction(1, 64)),
    (_WALK_REFUTED, 64, True, 200_000, 'not', ((89, 83, 84), 8)),
    (_WALK_REFUTED, 1024, True, 200_000, 'not', ((89, 83, 84), 8)),
    # refuted at a midpoint, strict and non-strict
    ([[7, 0, -4], [0, 1, -2], [-4, -2, 4]], 64, True, 1_000_000,
     'not', ((1, 2, 1), 2)),
    ([[1, -4, 6], [-4, 8, 2], [6, 2, 3]], 8, False, 1_000_000,
     'not', ((3, 1, 0), 2)),
    # the midpoint (1,1,0)/2, of value -1/4, is tested as the second cell
    # is split, so it refutes within a budget of two cells
    ([[0, -3, 3], [-3, 5, 9], [3, 9, 6]], 8, True, 2,
     'not', ((1, 1, 0), 1)),
]


@pytest.mark.parametrize("m,depth_limit,strict,budget,tag,answer", _BNB_PINS)
def test_bnb_pinned_outputs(m, depth_limit, strict, budget, tag, answer):
    bi = m if isinstance(m, list) else _int_form(m)[0]
    got_tag, data = _bnb(bi, depth_limit, strict, budget)
    assert got_tag == tag
    if tag in ('strict', 'cop'):
        num, e = data
        data = Fraction(num, 1 << e)
    assert data == answer


def test_random_n2_against_closed_form():
    rng = random.Random(41)
    for _ in range(300):
        m = _sym2(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        expect = _oracle2(m)
        got = check_cop(m, depth_limit=64)
        if expect == 'strict':
            assert isinstance(got, StrictlyCopositive), m
        elif expect == 'not':
            assert isinstance(got, NotCopositive), m
            assert quad_form(m, got.witness) < 0
        else:
            assert isinstance(got, Undecided), m


def test_scaling_law():
    rng = random.Random(43)
    for _ in range(10):
        m = q_an(3) + identity(3).scale(Fraction(rng.randint(0, 3)))
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        r1 = copositive_min(m)
        r2 = copositive_min(m.scale(t))
        assert r2.min_value == t * r1.min_value
        assert r2.vectors == r1.vectors


def test_entrywise_monotonicity():
    """Adding a nonnegative matrix cannot decrease the copositive minimum."""
    rng = random.Random(47)
    for _ in range(10):
        base = q_an(3)
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                rows[i][j] = rows[j][i] = rng.randint(0, 2)
        bigger = base + SymMat.from_rows(rows)
        assert copositive_min(bigger).min_value >= \
            copositive_min(base).min_value


def test_nonnegative_matrix_minimum_is_diagonal():
    """For entrywise-nonnegative B, MinC is the set of cheapest unit vectors."""
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 5) \
                    if i != j else rng.randint(1, 6)
        b = SymMat.from_rows(rows)
        res = copositive_min(b)
        dmin = min(b.entry(i, i) for i in range(n))
        assert res.min_value == dmin
        expect = tuple(sorted(tuple(int(k == i) for k in range(n))
                              for i in range(n) if b.entry(i, i) == dmin))
        assert res.vectors == expect


def test_copositive_min_examples():
    for n in range(1, 6):
        res = copositive_min(q_an(n))
        assert res.min_value == 2
        assert len(res.vectors) == n * (n + 1) // 2


def test_copositive_min_rejects_non_copositive():
    with pytest.raises(NotCopositiveError) as exc:
        copositive_min(_sym2(1, -5, 1))
    assert quad_form(_sym2(1, -5, 1), exc.value.witness) < 0


def test_copositive_min_boundary_raises_undecided():
    with pytest.raises(UndecidedError) as exc:
        copositive_min(basis_e(2, 0, 1), 8)
    assert "undecided at depth" in str(exc.value)


def test_enumerate_below_parameter_validation():
    with pytest.raises(PreconditionError):
        enumerate_below(q_an(2), 2, 0)
    with pytest.raises(PreconditionError):
        enumerate_below(q_an(2), 2, Fraction(-1, 2))
    with pytest.raises(PreconditionError):
        enumerate_below(q_an(2), 0, Fraction(1, 2))
    # thresholds and bounds are exact: floats and bools are refused, and the
    # message names the argument
    for c, mu_lb, name in ((2.1, Fraction(1, 2), "threshold c"),
                           (2, 0.5, "mu_lb"),
                           (True, Fraction(1, 2), "threshold c"),
                           (2, True, "mu_lb")):
        with pytest.raises(ValueError, match="^%s must be" % name):
            enumerate_below(q_an(2), c, mu_lb)
    with pytest.raises(ValueError, match="^threshold c must be"):
        classical_below(q_an(2), 2.5)
    with pytest.raises(ValueError, match="^threshold c must be"):
        _survey_below(q_an(2), 1.0)


def _box_brute_force(b, c, mu_lb):
    ratio = Fraction(c) / Fraction(mu_lb)
    radius = isqrt(ratio.numerator // ratio.denominator)
    out = []
    for v in product(range(radius + 1), repeat=b.n):
        if any(v) and quad_form(b, v) <= c:
            out.append(v)
    return tuple(sorted(out))


def test_enumerate_below_against_box():
    rng = random.Random(59)
    checked = 0
    while checked < 25:
        n = rng.choice([2, 3])
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
        if Fraction(c) / verdict.mu_lb > 400:
            continue
        assert enumerate_below(b, c, verdict.mu_lb) == \
            _box_brute_force(b, c, verdict.mu_lb)
        checked += 1


def _is_below(b, c, v):
    return (all(isinstance(x, int) and x >= 0 for x in v) and gcd(*v) == 1
            and quad_form(b, v) < c)


def test_survey_refutes_at_a_dyadic_zero():
    # PSD and singular, zero at (1,0,1)/2: the midpoint of an edge of the
    # partition is a lattice point with value 0
    half = Fraction(1, 2)
    b = SymMat.from_rows([[1, half, -1], [half, 1, -half], [-1, -half, 1]])
    tag, data = _survey_below(b, 1)
    assert tag == 'not'
    assert len(data) == 1 and _is_below(b, 1, data[0])


def test_survey_undecided_at_a_non_dyadic_zero():
    # PSD and singular, zero at (2,2,1)/5, which no bisection reaches
    half = Fraction(1, 2)
    b = SymMat.from_rows([[1, -half, -1], [-half, 1, -1], [-1, -1, 4]])
    assert _survey_below(b, 1) == ('undec', None)
    assert kernel_zero(b) == (2, 2, 1)


def test_survey_rejects_nonpositive_threshold():
    with pytest.raises(PreconditionError) as exc:
        _survey_below(identity(2), 0)
    assert exc.value.reason == "c-not-positive"


@st.composite
def _survey_cases(draw):
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 6) if i != j
                                           else st.integers(-1, 8))
    # a threshold above a positive diagonal entry refutes at the root, so
    # one at the least diagonal entry is what reaches the enumeration
    least = min(rows[i][i] for i in range(n))
    c = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    if least > 0 and draw(st.booleans()):
        c = Fraction(least)
    return SymMat.from_rows(rows), c


@settings(max_examples=150, deadline=None)
@given(_survey_cases())
def test_survey_against_box(case):
    b, c = case
    tag, data = _survey_below(b, c, 24, 20_000)
    if tag == 'not':
        assert data and all(_is_below(b, c, v) for v in data)
    elif tag == 'ok':
        verdict = check_cop(b, 24, 20_000)
        assert isinstance(verdict, StrictlyCopositive)
        assume(c / verdict.mu_lb <= 150)
        assert data == _box_brute_force(b, c, verdict.mu_lb)
        assert all(quad_form(b, v) == c for v in data)


def _least_part(found, b):
    best = min(quad_form(b, v) for v in found)
    return best, tuple(v for v in found if quad_form(b, v) == best)


@st.composite
def _strict_cases(draw):
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 6) if i != j
                                           else st.integers(1, 9))
    return SymMat.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(_strict_cases())
def test_copositive_min_against_box(b):
    verdict = check_cop(b, 24, 20_000)
    assume(isinstance(verdict, StrictlyCopositive))
    c0 = min(b.entry(i, i) for i in range(b.n))
    assume(c0 / verdict.mu_lb <= 150)
    res = copositive_min(b)
    best, vectors = _least_part(_box_brute_force(b, c0, verdict.mu_lb), b)
    assert (res.min_value, res.vectors) == (best, vectors)


def _cap_falls(b, c, radius):
    """The values at which a search in lexicographic order lowers cap c."""
    falls = []
    for v in product(range(radius + 1), repeat=b.n):
        if any(v) and sum(v) <= radius:
            value = quad_form(b, v)
            if value < min(falls, default=c):
                falls.append(value)
    return falls


# (integer matrix, cap numerator, cap denominator): caps above the least
# diagonal entry, so that the search order meets values below the cap
# before it meets the least one.  With [[6, -6], [-6, 9]] the cap falls to
# 9 at (0, 1), then twice inside the innermost interval of v[0] = 1: to 6
# at (1, 0) and to 3 at (1, 1).
_FALLING_CAPS = [
    ([[4, -3], [-3, 5]], 10, 1),
    ([[4, -3], [-3, 5]], 21, 2),
    ([[9, -4, 1], [-4, 6, -5], [1, -5, 7]], 12, 1),
    ([[6, -6], [-6, 9]], 18, 1),
]


@pytest.mark.parametrize("rows,cnum,cden", _FALLING_CAPS)
def test_least_enumeration_keeps_only_the_final_attainers(rows, cnum, cden):
    b = SymMat.from_rows(rows)
    mu = check_cop(b).mu_lb
    cap = Fraction(cnum, cden)
    radius = _radius(cap, mu)
    falls = _cap_falls(b, cap, radius)
    assert len(falls) >= 2
    best, found = _enumerate_scaled(rows, cnum, cden, radius, [mu] * b.n,
                                    least=True)
    below = _box_brute_force(b, cap, mu)
    assert best == falls[-1]
    assert (best, tuple(sorted(found))) == _least_part(below, b)
    # the default mode keeps every vector below the cap
    assert tuple(sorted(_enumerate_scaled(rows, cnum, cden, radius,
                                          [mu] * b.n))) == below


@st.composite
def _capped_cases(draw):
    """A strictly copositive integer matrix, its simplex bound and a cap
    above its least diagonal entry."""
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 6) if i != j
                                           else st.integers(1, 9))
    verdict = check_cop(SymMat.from_rows(rows), 24, 20_000)
    assume(isinstance(verdict, StrictlyCopositive))
    least = min(rows[i][i] for i in range(n))
    cap = least + Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 3)))
    assume(cap / verdict.mu_lb <= 400)
    return rows, verdict.mu_lb, cap


@settings(max_examples=150, deadline=None)
@given(_capped_cases())
def test_least_mode_keeps_the_least_part_of_the_default_mode(case):
    rows, mu, cap = case
    mus = _suffix_bounds(rows, mu, 24, 20_000)
    radius = _radius(cap, mu)
    every = _enumerate_scaled(rows, cap.numerator, cap.denominator, radius,
                              mus)
    best, found = _enumerate_scaled(rows, cap.numerator, cap.denominator,
                                    radius, mus, least=True)
    assert (best, tuple(sorted(found))) == \
        _least_part(every, SymMat.from_rows(rows))


def test_copositive_min_of_e_in_reversed_order():
    # radius 192 at the least diagonal entry 18/3 = 6, against 110 in the
    # paper's order
    fx = fixtures()
    perm = (4, 3, 2, 1, 0)
    m = SymMat.from_rows([[fx.E.entry(i, j) for j in perm] for i in perm])
    res = copositive_min(m)
    assert res.min_value == 2
    assert res.vectors == tuple(sorted(tuple(v[i] for i in perm)
                                       for v in fx.minc_E))


def test_infinity_norm_bound_invariant():
    """Every enumerated vector obeys |v|_inf <= sqrt(c / mu_lb)."""
    b = q_an(3)
    verdict = check_cop(b)
    c = 6
    ratio = Fraction(c) / verdict.mu_lb
    radius = isqrt(ratio.numerator // ratio.denominator)
    for v in enumerate_below(b, c, verdict.mu_lb):
        assert max(v) <= radius
        assert quad_form(b, v) <= c


def test_minresult_json():
    res = copositive_min(q_an(2))
    body = minresult_to_json(res)
    assert body == {"min": "2", "vectors": [[0, 1], [1, 0], [1, 1]]}


def test_classical_min_positive_definite_only():
    with pytest.raises(PreconditionError):
        classical_min(p_k(1))


def test_classical_min_examples():
    best, vecs = classical_min(q_an(2))
    assert best == 2
    assert vecs == ((0, 1), (1, 0), (1, 1))
    best, vecs = classical_min(SymMat.from_rows([[2, 1], [1, 2]]))
    assert best == 2
    assert vecs == ((0, 1), (1, -1), (1, 0))


def test_classical_min_against_brute_force():
    rng = random.Random(61)
    checked = 0
    while checked < 10:
        n = rng.choice([2, 3])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2) \
                    if i != j else rng.randint(2, 6)
        from percop.core import inertia
        q = SymMat.from_rows(rows)
        if not inertia(q).is_positive_definite():
            continue
        best, vecs = classical_min(q)
        values = {}
        for v in product(range(-6, 7), repeat=n):
            if any(v):
                values.setdefault(quad_form(q, v), set()).add(v)
        brute_best = min(values)
        assert best == brute_best
        reps = set()
        for v in values[brute_best]:
            for x in v:
                if x != 0:
                    if x < 0:
                        v = tuple(-y for y in v)
                    break
            reps.add(v)
        assert set(vecs) == reps
        checked += 1


def test_classical_below_collects_both_signs():
    vecs = classical_below(SymMat.from_rows([[2, 1], [1, 2]]), 2)
    assert (1, -1) in vecs
    assert (1, 0) in vecs and (0, 1) in vecs
