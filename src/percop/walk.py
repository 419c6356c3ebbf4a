"""Neighborhood walks on the copositive Ryshkov polyhedron.

From a vertex P (a perfect matrix with copositive minimum 1) and a direction
R taken from the dual of its Voronoi cone, contiguous_perfect either
certifies R copositive (then P + mu R stays a vertex-free face for every mu:
a polyhedron ray) or finds the exact maximal lambda with
minC(P + lambda R) = 1, which is the contiguous perfect matrix.

The iteration keeps a bracket lam_lo <= lambda* <= bound and doubles lambda
from lam_lo while the minimum stays at 1.  Every violator v (an integral
v >= 0 with (P + lambda R)[v] < 1) has R[v] < 0, so it stays a violator
exactly for lambda above its pullback (1 - P[v]) / R[v]; bound is the least
pullback seen and lambda is clipped to it, so each violator is evaluated
once.  The bound starts at the pullback of the minimiser w with R[w] < 0
that refuted the ray test, so lambda never runs off to infinity.  A survey
of P + lambda R returns the vectors of the least value below 1, if any, or,
when P + lambda R is not strictly copositive, the lattice point of its
least-support minimiser on the simplex.  Such a point has
(P + lambda R)[v] <= 0 and halves lambda toward lam_lo instead of lowering
the bound: its pullback lies just below the boundary of the copositive
cone, where lambda takes huge denominators and the next survey's radius
sqrt(1/mu) runs into the hundreds of millions.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from itertools import permutations

from .cones import ConeHRep, extreme_rays
from .cop import Copositive, _bnb, _survey_below, certify_copositive
from .core import (Rat, SymMat, _int_form, dim_sym, inertia, mat_to_json,
                   primitive, quad_form, rank_one, span_rank_of_vectors)
from .errors import PreconditionError, WalkUndecidedError
from .perfect import PerfectCertificate, is_perfect_copositive

BISECT_LIMIT = 64


@dataclass(frozen=True)
class Neighbor:
    """P + lam*R with minC exactly 1 again; lam is maximal."""

    matrix: SymMat
    lam: Rat
    new_vectors: tuple[tuple[int, ...], ...]
    certificate: PerfectCertificate


@dataclass(frozen=True)
class PolyhedronRay:
    """Direction certified copositive: no finite neighbor in this direction."""

    direction: SymMat


WalkStep = Neighbor | PolyhedronRay


def kernel_zero(q: SymMat):
    """A primitive integer v >= 0 with Q[v] = 0 for copositive Q, or None.

    None unless the minimum of Q over the standard simplex is 0; v is then
    the lattice point of the least-support minimiser of cop._bnb.  Nothing
    in percop calls it; perfbench's tracer times it by this name.
    """
    mu, x, _ = _bnb(_int_form(q)[0])
    return primitive(x) if mu == 0 else None


def contiguous_perfect(cert: PerfectCertificate, r: SymMat) -> WalkStep:
    """Walk one edge of the Ryshkov polyhedron; exact in every branch."""
    p = cert.matrix
    if cert.min_value != 1:
        raise PreconditionError(
            "not-normalized",
            "walk requires copositive minimum 1, certificate has %s"
            % cert.min_value)
    if r.n != p.n:
        raise PreconditionError("dimension-mismatch",
                                "direction size %d at a vertex of size %d"
                                % (r.n, p.n))
    if all(c == 0 for c in r.coords):
        raise PreconditionError("zero-direction",
                                "walk direction must be nonzero")
    for v in cert.min_vectors:
        if quad_form(r, v) < 0:
            raise PreconditionError(
                "direction-not-in-dual-cone",
                "direction is negative on minimal vector %s" % (v,),
                vector=list(v))
    verdict = certify_copositive(r)
    if isinstance(verdict, Copositive):
        return PolyhedronRay(r)
    # every violator v (integral, v >= 0, (P + lam R)[v] < 1) has R[v] < 0,
    # so it stays one exactly for lam above its pullback (1 - P[v]) / R[v];
    # lam_lo <= lam* <= bound, the least pullback seen, starting from the
    # ray test's witness
    w = primitive(verdict.witness)
    bound = (1 - quad_form(p, w)) / quad_form(r, w)
    lam = Fraction(1)
    lam_lo = Fraction(0)
    halvings = 0
    while True:
        lam = min(lam, bound)
        q = p + r.scale(lam)
        tag, data = _survey_below(q, 1)
        if tag == 'not' and quad_form(q, data[0]) <= 0:
            # q is not strictly copositive: halve toward lam_lo
            halvings += 1
            if halvings > BISECT_LIMIT:
                raise WalkUndecidedError(lam)
            lam = (lam_lo + lam) / 2
            continue
        if tag == 'not':
            # each pullback is below lam, so below the old bound too
            bound = min((1 - quad_form(p, v)) / quad_form(r, v)
                        for v in data)
            continue
        # every surveyed vector attains exactly 1 here
        new = tuple(sorted(v for v in data if quad_form(r, v) < 0))
        if new:
            rank = span_rank_of_vectors(data)
            if rank != dim_sym(p.n):
                raise RuntimeError(
                    "attainer set at the step end spans rank %d < %d"
                    % (rank, dim_sym(p.n)))
            ncert = PerfectCertificate(q, Fraction(1), tuple(sorted(data)),
                                       rank)
            return Neighbor(q, lam, new, ncert)
        lam_lo = lam
        lam *= 2


def _descent_directions(cert: PerfectCertificate, normals=None):
    """Extreme rays, sorted, of the dual Voronoi cone of a perfect matrix.

    normals, when given, are the rank-one forms of cert.min_vectors.
    """
    if normals is None:
        normals = [rank_one(v) for v in cert.min_vectors]
    vrep = extreme_rays(ConeHRep(cert.matrix.n, tuple(normals)))
    if vrep.lineality:
        raise RuntimeError("dual Voronoi cone of a perfect matrix "
                           "must be pointed")
    return vrep.rays


def neighbors_all(cert: PerfectCertificate) -> tuple[WalkStep, ...]:
    """One WalkStep per extreme ray of the dual Voronoi cone, sorted order.

    A direction that does not resolve raises WalkUndecidedError, which
    ends the whole neighborhood.
    """
    if cert.min_value != 1:
        raise PreconditionError(
            "not-normalized",
            "walk requires copositive minimum 1, certificate has %s"
            % cert.min_value)
    return tuple(contiguous_perfect(cert, direction)
                 for direction in _descent_directions(cert))


# ---------------------------------------------------------------------------
# canonical forms and graph traversal

def _best_permutation(q: SymMat):
    n = q.n
    best = None
    bestp = None
    for perm in permutations(range(n)):
        key = tuple(q.entry(perm[i], perm[j])
                    for i in range(n) for j in range(i, n))
        if best is None or key < best:
            best = key
            bestp = perm
    return bestp


def _permuted(q: SymMat, perm) -> SymMat:
    n = q.n
    return SymMat.from_rows([[q.entry(perm[i], perm[j]) for j in range(n)]
                             for i in range(n)])


def perm_canonical(q: SymMat) -> SymMat:
    """Lexicographic minimum of P^T Q P over all permutation matrices P.

    Matrices are compared by their upper triangles read row by row.
    """
    return _permuted(q, _best_permutation(q))


def matrix_key(q: SymMat) -> str:
    """Stable byte-level key for graph bookkeeping."""
    return json.dumps(mat_to_json(q), sort_keys=True, separators=(",", ":"))


def _canonical_certificate(cert: PerfectCertificate):
    perm = _best_permutation(cert.matrix)
    canonical = _permuted(cert.matrix, perm)
    vectors = tuple(sorted(tuple(v[p] for p in perm)
                           for v in cert.min_vectors))
    ccert = PerfectCertificate(canonical, cert.min_value, vectors,
                               cert.span_rank)
    return matrix_key(canonical), ccert


@dataclass(frozen=True)
class GraphNode:
    canonical: SymMat
    representatives: int
    edges: tuple[str, ...]
    rays: int
    undecided: int


@dataclass
class WalkGraph:
    """Expanded nodes only; edges may point at unexpanded frontier keys."""

    nodes: dict


def traverse(start: SymMat, node_budget: int) -> WalkGraph:
    """BFS over permutation-canonical vertices, expanding up to node_budget.

    Ray directions count on the node itself (self-loops in the export), and
    a direction whose step raises WalkUndecidedError is counted as
    frontier-undecided without stopping the traversal.
    """
    if node_budget < 0:
        raise PreconditionError("bad-budget", "node budget must be >= 0")
    res = is_perfect_copositive(start)
    if not res:
        raise PreconditionError("start-not-perfect",
                                "traversal must start at a perfect matrix",
                                reason_detail=res.reason)
    if res.min_value != 1:
        raise PreconditionError(
            "start-not-normalized",
            "traversal start must have copositive minimum 1, got %s"
            % res.min_value)
    if node_budget == 0:
        return WalkGraph({})
    key, cert = _canonical_certificate(res)
    reps = {key: {matrix_key(start)}}
    queue = deque([(key, cert)])
    expanded = {}
    while queue and len(expanded) < node_budget:
        key, cert = queue.popleft()
        edges = []
        rays = 0
        undecided = 0
        for direction in _descent_directions(cert):
            try:
                step = contiguous_perfect(cert, direction)
            except WalkUndecidedError:
                undecided += 1
                continue
            if isinstance(step, PolyhedronRay):
                rays += 1
                continue
            nkey, ncert = _canonical_certificate(step.certificate)
            if nkey not in reps:
                queue.append((nkey, ncert))
            reps.setdefault(nkey, set()).add(matrix_key(step.matrix))
            edges.append(nkey)
        expanded[key] = (cert.matrix, tuple(sorted(edges)), rays, undecided)
    nodes = {}
    for key, (canonical, edges, rays, undecided) in expanded.items():
        nodes[key] = GraphNode(canonical, len(reps[key]), edges, rays,
                               undecided)
    return WalkGraph(nodes)


def _short_hash(key: str) -> str:
    return sha256(key.encode()).hexdigest()[:16]


def graph_to_dot(graph: WalkGraph) -> str:
    """DOT text; node labels carry the canonical hash and the inertia."""
    lines = ["digraph percop {"]
    frontier = []
    for key, node in graph.nodes.items():
        ine = inertia(node.canonical)
        lines.append('  "%s" [label="%s\\ninertia (%d,%d,%d)"];'
                     % (_short_hash(key), _short_hash(key),
                        ine.n_pos, ine.n_zero, ine.n_neg))
        for target in node.edges:
            if target not in graph.nodes and target not in frontier:
                frontier.append(target)
    for key in frontier:
        lines.append('  "%s" [label="%s\\nfrontier"];'
                     % (_short_hash(key), _short_hash(key)))
    for key, node in graph.nodes.items():
        h = _short_hash(key)
        for target in node.edges:
            lines.append('  "%s" -> "%s";' % (h, _short_hash(target)))
        for _ in range(node.rays):
            lines.append('  "%s" -> "%s" [label="ray"];' % (h, h))
        for _ in range(node.undecided):
            lines.append('  "%s" -> "%s" [label="frontier-undecided"];'
                         % (h, h))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: WalkGraph) -> dict:
    """Adjacency with full matrices, keyed by the stable byte keys."""
    nodes = []
    for key, node in graph.nodes.items():
        ine = inertia(node.canonical)
        nodes.append({
            "key": key,
            "canonical": mat_to_json(node.canonical),
            "inertia": [ine.n_pos, ine.n_zero, ine.n_neg],
            "representatives": node.representatives,
            "edges": list(node.edges),
            "rays": node.rays,
            "undecided": node.undecided,
        })
    return {"nodes": nodes}
