"""Contiguous-neighbor steps, canonical forms, and graph traversal."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest

from percop import walk
from percop.cop import _survey_below
from percop.core import SymMat, basis_e, identity, quad_form
from percop.errors import PreconditionError, WalkUndecidedError
from percop.families import fixtures, p_k, q_an
from percop.perfect import (PerfectCertificate, is_perfect_copositive,
                            normalized_to_min_one)
from percop.walk import (Neighbor, PolyhedronRay, contiguous_perfect,
                         graph_to_dot, graph_to_json, kernel_zero,
                         matrix_key, neighbors_all, perm_canonical, traverse)


def _half_cert(q):
    return normalized_to_min_one(is_perfect_copositive(q))


@lru_cache(maxsize=None)
def _an_neighbourhood(n):
    cert = _half_cert(q_an(n))
    return cert, neighbors_all(cert)


def test_kernel_zero_finds_null_vector():
    q = SymMat.from_rows([[1, -1], [-1, 1]])
    v = kernel_zero(q)
    assert v is not None
    assert quad_form(q, v) == 0
    assert all(x >= 0 for x in v) and any(x > 0 for x in v)


def test_kernel_zero_none_for_definite():
    assert kernel_zero(identity(3)) is None
    assert kernel_zero(q_an(2)) is None


def test_kernel_zero_uses_principal_submatrix():
    # the kernel vector of the top-left block extends by a zero coordinate
    q = SymMat.from_rows([[1, -1, 0], [-1, 1, 0], [0, 0, 5]])
    v = kernel_zero(q)
    assert v is not None and quad_form(q, v) == 0


def test_contiguous_requires_normalized_certificate():
    cert = is_perfect_copositive(q_an(2))
    with pytest.raises(PreconditionError) as exc:
        contiguous_perfect(cert, basis_e(2, 0, 1))
    assert exc.value.reason == "not-normalized"


def test_contiguous_rejects_directions_outside_dual_cone():
    cert = _half_cert(q_an(2))
    bad = basis_e(2, 0, 1).scale(-1)
    with pytest.raises(PreconditionError) as exc:
        contiguous_perfect(cert, bad)
    assert exc.value.reason == "direction-not-in-dual-cone"


# vertex 30 of the Q_A3/2 graph, a direction of its dual Voronoi cone whose
# surveys come near the copositive boundary, and the neighbour it reaches;
# vertex 27 of the same graph
VERTEX_30 = SymMat.from_rows([[6, -15, 6], [-15, 38, -15], [6, -15, 6]])
VERTEX_30_DIRECTION = SymMat.from_rows([[8, -32, 15], [-32, 120, -54],
                                        [15, -54, 24]])
VERTEX_30_NEIGHBOUR = SymMat.from_rows(
    [[Fraction(13, 3), Fraction(-77, 6), Fraction(11, 2)],
     [Fraction(-77, 6), 39, Fraction(-33, 2)],
     [Fraction(11, 2), Fraction(-33, 2), 7]])
VERTEX_27 = SymMat.from_rows([[1, Fraction(-7, 2), 1],
                              [Fraction(-7, 2), 13, Fraction(-7, 2)],
                              [1, Fraction(-7, 2), 1]])
VERTEX_27_DIRECTION = SymMat.from_rows([[0, -4, 2], [-4, 36, -15],
                                        [2, -15, 6]])


def test_vertex_30_direction_reaches_a_neighbour_or_ray():
    # by the paper every extreme ray of the dual Voronoi cone ends at a
    # neighbour or a polyhedron ray; this one ends at lam = 1/6
    step = contiguous_perfect(_half_cert(VERTEX_30.scale(Fraction(1, 2))),
                              VERTEX_30_DIRECTION)
    assert isinstance(step, Neighbor)
    assert step.lam == Fraction(1, 6)
    assert step.new_vectors == ((0, 3, 7),)
    assert step.matrix == VERTEX_30_NEIGHBOUR


def test_step_runs_one_copositivity_test_per_edge(monkeypatch):
    # the ray test is the only certify_copositive call of a step, and the
    # halving rule reaches vertex 30's neighbour in a few surveys
    tested = []
    surveys = []
    original = walk.certify_copositive
    original_survey = walk._survey_below

    def counted(b, *args):
        tested.append(b)
        return original(b, *args)

    def counted_survey(*args, **kwargs):
        surveys.append(args[0])
        return original_survey(*args, **kwargs)

    monkeypatch.setattr(walk, "certify_copositive", counted)
    monkeypatch.setattr(walk, "_survey_below", counted_survey)
    cert = _half_cert(VERTEX_30.scale(Fraction(1, 2)))
    step = contiguous_perfect(cert, VERTEX_30_DIRECTION)
    assert isinstance(step, Neighbor)
    assert step.matrix == VERTEX_30_NEIGHBOUR
    assert tested == [VERTEX_30_DIRECTION]
    assert len(surveys) <= 8


def test_survey_near_the_boundary_returns_the_least_violator():
    # P + lam R on vertex 27's edge is strictly copositive with least value
    # 49/4975 at (35, 6, 0); its simplex bound puts the 1-norm radius below 1
    # in the thousands, with 122 lattice points below 1, and the falling cap
    # keeps only the least of them
    q = VERTEX_27 + VERTEX_27_DIRECTION.scale(Fraction(2889, 4975))
    assert _survey_below(q, 1) == ('not', ((35, 6, 0),))
    assert quad_form(q, (35, 6, 0)) == Fraction(49, 4975)


def test_vertex_27_edge_needs_no_undecided_survey(monkeypatch):
    # every survey of this edge is decided, down to the near-boundary one
    tags = []
    original_survey = walk._survey_below

    def tagged_survey(*args, **kwargs):
        result = original_survey(*args, **kwargs)
        tags.append(result[0])
        return result

    monkeypatch.setattr(walk, "_survey_below", tagged_survey)
    step = contiguous_perfect(_half_cert(VERTEX_27), VERTEX_27_DIRECTION)
    assert isinstance(step, Neighbor)
    assert step.lam == Fraction(1, 2)
    assert step.new_vectors == ((4, 1, 1), (5, 1, 0), (6, 1, 0))
    assert step.matrix == SymMat.from_rows(
        [[1, Fraction(-11, 2), 2], [Fraction(-11, 2), 31, -11],
         [2, -11, 4]])
    assert tags and 'undec' not in tags


@pytest.mark.parametrize("vertex, neighbours",
                         [(VERTEX_27, 26), (VERTEX_30, 40)],
                         ids=["v27", "v30"])
def test_every_order_of_a_vertex_is_decided(vertex, neighbours):
    # each coordinate order walks every direction to a neighbour or a ray
    for perm in permutations(range(3)):
        q = walk._permuted(vertex, perm)
        kinds = [type(s).__name__ for s in neighbors_all(_half_cert(q))]
        assert kinds.count("Neighbor") == neighbours
        assert kinds.count("PolyhedronRay") == 1


def test_contiguous_rejects_zero_direction():
    cert = _half_cert(q_an(2))
    zero = SymMat.from_rows([[0, 0], [0, 0]])
    with pytest.raises(PreconditionError):
        contiguous_perfect(cert, zero)


def test_a2_neighborhood():
    cert = _half_cert(q_an(2))
    steps = neighbors_all(cert)
    kinds = [type(s).__name__ for s in steps]
    assert kinds.count("Neighbor") == 2
    assert kinds.count("PolyhedronRay") == 1
    mats = {s.matrix.coords for s in steps if isinstance(s, Neighbor)}
    assert SymMat.from_rows([[1, Fraction(-3, 2)],
                             [Fraction(-3, 2), 3]]).coords in mats
    assert SymMat.from_rows([[3, Fraction(-3, 2)],
                             [Fraction(-3, 2), 1]]).coords in mats
    ray = next(s for s in steps if isinstance(s, PolyhedronRay))
    assert ray.direction.coords == basis_e(2, 0, 1).coords


def test_neighbor_step_is_maximal():
    """Slightly larger lam along the same direction drops the minimum
    below one, so the returned lam is the exact pullback."""
    for n in (2, 3, 4):
        cert, steps = _an_neighbourhood(n)
        for step in steps:
            if not isinstance(step, Neighbor):
                continue
            direction = step.matrix + cert.matrix.scale(-1)
            r = direction.scale(Fraction(1, step.lam))
            for eps in (Fraction(1, 10), Fraction(1, 1000)):
                beyond = cert.matrix + r.scale(step.lam + eps)
                hit = False
                for v in step.certificate.min_vectors:
                    if quad_form(beyond, v) < 1:
                        hit = True
                assert hit


# lam and 2 x the neighbour matrix of every step of neighbors_all(Q_An/2),
# in its order (None is the ray); recorded before the step kept a running
# bound on lam
_NEIGHBOUR_PINS = {
    3: [
        (Fraction(1, 2), [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]),
        None,
        (Fraction(1, 2), [[2, 0, -1], [0, 2, -1], [-1, -1, 2]]),
        (Fraction(1, 2), [[2, -1, 0], [-1, 2, -2], [0, -2, 4]]),
        (Fraction(1), [[2, -3, 2], [-3, 6, -3], [2, -3, 2]]),
        (Fraction(1, 2), [[4, -2, 0], [-2, 2, -1], [0, -1, 2]]),
    ],
    4: [
        (Fraction(1, 2), [[2, -1, -1, 1], [-1, 2, 0, -1], [-1, 0, 2, -1],
                          [1, -1, -1, 2]]),
        (Fraction(1, 2), [[2, -1, 0, -1], [-1, 2, -1, 1], [0, -1, 2, -1],
                          [-1, 1, -1, 2]]),
        (Fraction(1, 2), [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                          [0, -1, 0, 2]]),
        None,
        (Fraction(1, 2), [[2, -1, 1, -1], [-1, 2, -1, 0], [1, -1, 2, -1],
                          [-1, 0, -1, 2]]),
        (Fraction(1, 2), [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1],
                          [0, 0, -1, 2]]),
        (Fraction(1, 2), [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2],
                          [0, 0, -2, 4]]),
        (Fraction(1, 2), [[2, -1, 0, 0], [-1, 2, -2, 1], [0, -2, 4, -2],
                          [0, 1, -2, 2]]),
        (Fraction(1, 2), [[2, -2, 1, 0], [-2, 4, -2, 0], [1, -2, 2, -1],
                          [0, 0, -1, 2]]),
        (Fraction(1, 2), [[4, -2, 0, 0], [-2, 2, -1, 0], [0, -1, 2, -1],
                          [0, 0, -1, 2]]),
    ],
}


@pytest.mark.parametrize("n", sorted(_NEIGHBOUR_PINS))
def test_an_neighbourhood_pinned(n):
    _, steps = _an_neighbourhood(n)
    got = []
    for step in steps:
        if isinstance(step, PolyhedronRay):
            got.append(None)
        else:
            assert isinstance(step, Neighbor)
            got.append((step.lam, step.matrix.scale(2)))
    want = [None if pin is None else (pin[0], SymMat.from_rows(pin[1]))
            for pin in _NEIGHBOUR_PINS[n]]
    assert got == want


def test_neighbor_certificates_are_normalized_perfect():
    cert = _half_cert(q_an(3))
    for step in neighbors_all(cert):
        if isinstance(step, Neighbor):
            assert step.certificate.min_value == 1
            assert step.certificate.matrix == step.matrix
            assert step.new_vectors
            for v in step.new_vectors:
                assert quad_form(step.matrix, v) == 1
                assert v not in cert.min_vectors


def test_a3_neighborhood_shape():
    steps = neighbors_all(_half_cert(q_an(3)))
    kinds = [type(s).__name__ for s in steps]
    assert kinds.count("Neighbor") == 5
    assert kinds.count("PolyhedronRay") == 1
    ray = next(s for s in steps if isinstance(s, PolyhedronRay))
    assert ray.direction.coords == basis_e(3, 0, 2).coords


def test_ray_scaling_does_not_change_the_verdict():
    cert = _half_cert(q_an(2))
    for mu in (1, 10, 100):
        step = contiguous_perfect(cert, basis_e(2, 0, 1).scale(mu))
        assert isinstance(step, PolyhedronRay)


def test_replacement_walk_in_dimension_two():
    """Repeatedly stepping along the non-ray directions visits classically
    perfect binary forms; minC stays 1 and exactly one vector is replaced."""
    cert = _half_cert(q_an(2))
    seen = {matrix_key(perm_canonical(cert.matrix))}
    for _ in range(10):
        steps = [s for s in neighbors_all(cert)
                 if isinstance(s, Neighbor)
                 and matrix_key(perm_canonical(s.matrix)) not in seen]
        if not steps:
            break
        step = steps[0]
        assert len(step.new_vectors) == 1
        assert len(step.certificate.min_vectors) == 3
        lost = set(cert.min_vectors) - set(step.certificate.min_vectors)
        assert len(lost) == 1
        cert = step.certificate
        seen.add(matrix_key(perm_canonical(cert.matrix)))
    assert len(seen) >= 6


def test_p_family_walk_direction_reaches_successor():
    for k in (1, 2):
        cert = _half_cert(p_k(k))
        target = p_k(k + 1).scale(Fraction(1, 2))
        direction = target + cert.matrix.scale(-1)
        step = contiguous_perfect(cert, direction)
        assert isinstance(step, Neighbor)
        assert step.lam == 1
        assert step.matrix == target


def test_perm_canonical_examples():
    diag = SymMat.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]])
    want = SymMat.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert perm_canonical(diag) == want
    # the lex-least upper triangle wins; here that swaps the first two rows
    m = SymMat.from_rows([[4, -2, 0], [-2, 2, -1], [0, -1, 2]])
    swapped = SymMat.from_rows([[2, -2, -1], [-2, 4, 0], [-1, 0, 2]])
    assert perm_canonical(m) == swapped
    assert perm_canonical(swapped) == swapped


def test_perm_canonical_is_idempotent_and_invariant():
    rng = random.Random(17)
    base = fixtures().I
    canon = perm_canonical(base)
    assert perm_canonical(canon) == canon
    for _ in range(6):
        perm = list(range(3))
        rng.shuffle(perm)
        rows = [[base.entry(perm[i], perm[j]) for j in range(3)]
                for i in range(3)]
        assert perm_canonical(SymMat.from_rows(rows)) == canon


def test_matrix_key_is_deterministic_and_injective_enough():
    k1 = matrix_key(q_an(2))
    assert k1 == matrix_key(q_an(2))
    assert k1 != matrix_key(q_an(2).scale(2))
    assert '"' in k1  # JSON text


def test_traverse_rejects_bad_inputs():
    with pytest.raises(PreconditionError) as exc:
        traverse(identity(2), 1)
    assert exc.value.reason == "start-not-perfect"
    with pytest.raises(PreconditionError) as exc:
        traverse(q_an(2), 1)
    assert exc.value.reason == "start-not-normalized"
    with pytest.raises(PreconditionError):
        traverse(q_an(2).scale(Fraction(1, 2)), -1)


def test_traverse_budget_zero_is_empty():
    graph = traverse(q_an(2).scale(Fraction(1, 2)), 0)
    assert graph.nodes == {}


def test_traverse_single_node():
    graph = traverse(q_an(3).scale(Fraction(1, 2)), 1)
    assert len(graph.nodes) == 1
    node = next(iter(graph.nodes.values()))
    assert len(node.edges) == 5
    assert node.rays == 1
    assert node.undecided == 0
    assert node.representatives >= 1


def test_traverse_two_nodes_shares_canonical_class():
    """In n = 2 both neighbors of (1/2)Q_{A_2} are the same class after
    permutation, so budget 2 expands the start plus that one class."""
    graph = traverse(q_an(2).scale(Fraction(1, 2)), 2)
    assert len(graph.nodes) == 2
    keys = set(graph.nodes)
    start_key = matrix_key(perm_canonical(q_an(2).scale(Fraction(1, 2))))
    assert start_key in keys
    start = graph.nodes[start_key]
    other_key = next(k for k in keys if k != start_key)
    assert list(start.edges).count(other_key) == 2
    assert start.rays == 1


def test_traverse_counts_representatives():
    graph = traverse(q_an(2).scale(Fraction(1, 2)), 3)
    total = sum(node.representatives for node in graph.nodes.values())
    assert total >= len(graph.nodes)


def test_graph_exports():
    graph = traverse(q_an(2).scale(Fraction(1, 2)), 2)
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    assert dot.count("ray") >= 1
    assert "(1,0,1)" in dot or "(2,0,0)" in dot
    body = graph_to_json(graph)
    assert set(body) == {"nodes"}
    assert len(body["nodes"]) == 2
    for node in body["nodes"]:
        assert set(node) == {"key", "canonical", "inertia", "representatives",
                             "edges", "rays", "undecided"}
    json.dumps(body)  # must be serializable as-is


def test_dot_marks_unexpanded_frontier():
    graph = traverse(q_an(3).scale(Fraction(1, 2)), 1)
    dot = graph_to_dot(graph)
    assert "frontier" in dot


def test_unresolved_step_raises_from_neighbors_all(monkeypatch):
    # with no halving allowed, two directions of (1/2)Q_A3 stay unresolved
    monkeypatch.setattr(walk, "BISECT_LIMIT", 0)
    with pytest.raises(WalkUndecidedError) as exc:
        neighbors_all(_half_cert(q_an(3)))
    assert exc.value.lam == 1


def test_traverse_counts_unresolved_steps_as_frontier_undecided(monkeypatch):
    monkeypatch.setattr(walk, "BISECT_LIMIT", 0)
    graph = traverse(q_an(3).scale(Fraction(1, 2)), 1)
    [node] = graph.nodes.values()
    assert (len(node.edges), node.rays, node.undecided) == (3, 1, 2)
    assert "frontier-undecided" in graph_to_dot(graph)


def test_descent_directions_refuse_a_cone_with_lineality():
    # e1 e1^T and e2 e2^T leave the off-diagonal coordinate free
    cert = PerfectCertificate(identity(2), Fraction(1), ((0, 1), (1, 0)), 2)
    with pytest.raises(RuntimeError):
        walk._descent_directions(cert)
