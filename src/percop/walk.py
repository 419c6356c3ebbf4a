"""Neighborhood walks on the copositive Ryshkov polyhedron.

From a vertex P (a perfect matrix with copositive minimum 1) and a direction
R taken from the dual of its Voronoi cone, contiguous_perfect either
certifies R copositive (then P + mu R stays a vertex-free face for every mu:
a polyhedron ray) or finds the exact maximal lambda with
minC(P + lambda R) = 1, which is the contiguous perfect matrix.

The iteration doubles lambda while the minimum stays at 1 and pulls back
through the exact linear formula (1 - P[v]) / R[v] whenever a violator v
appears.  Two fallbacks handle surveys that fail near the copositive
boundary: extracting an exact zero of a singular copositive intermediate
matrix, and bisection with a running ceiling.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256
from itertools import combinations, permutations

from .cones import ConeHRep, extreme_rays
from .cop import (DEFAULT_DEPTH_LIMIT, Copositive, NotCopositive, Undecided,
                  _survey_below, certify_copositive)
from .core import (Rat, SymMat, dim_sym, inertia, mat_to_json, nullspace,
                   primitive, quad_form, rank_one, span_rank_of_vectors)
from .errors import PreconditionError, WalkUndecidedError
from .perfect import PerfectCertificate, is_perfect_copositive

RAY_CHECK_BUDGET = 50_000
WALK_CELL_BUDGET = 200_000
WALK_RADIUS_CAP = 600
BISECT_LIMIT = 64
LAMBDA_CAP = Fraction(1 << 64)


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


@dataclass(frozen=True)
class UndecidedDirection:
    """Partial result when a single direction could not be resolved."""

    direction: SymMat
    lam: Rat | None


WalkStep = Neighbor | PolyhedronRay | UndecidedDirection


def kernel_zero(q: SymMat):
    """A nonzero integer v >= 0 with Q[v] = 0, or None.

    Searches the kernels of all principal submatrices for a one-signed
    vector; for a rational copositive Q whose simplex zero set contains a
    rational point, the support of that point gives such a submatrix.
    """
    n = q.n
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            rows = [primitive([q.entry(i, j) for j in sub]) for i in sub]
            # each basis vector is positive at its free column, so a
            # one-signed one is nonnegative
            for vec in nullspace(rows, size):
                if min(vec) < 0:
                    continue
                v = [0] * n
                for idx, x in zip(sub, vec):
                    v[idx] = x
                if quad_form(q, v) == 0:
                    return tuple(v)
    return None


def contiguous_perfect(cert: PerfectCertificate, r: SymMat,
                       depth_limit: int = DEFAULT_DEPTH_LIMIT) -> WalkStep:
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
    verdict = certify_copositive(r, depth_limit, RAY_CHECK_BUDGET)
    if isinstance(verdict, Copositive):
        return PolyhedronRay(r)
    if isinstance(verdict, Undecided):
        raise WalkUndecidedError(None)
    lam = Fraction(1)
    lam_lo = Fraction(0)
    ceiling = None
    halvings = 0
    known = []  # every violator seen so far; each pullback is exact
    while True:
        q = p + r.scale(lam)
        hit = [v for v in known if quad_form(q, v) < 1]
        if hit:
            lam = min((1 - quad_form(p, v)) / quad_form(r, v) for v in hit)
            continue
        tag, data = _survey_below(q, 1, depth_limit,
                                  WALK_CELL_BUDGET, WALK_RADIUS_CAP)
        if tag == 'not':
            known.append(data)
            lam = (1 - quad_form(p, data)) / quad_form(r, data)
            continue
        if tag == 'undec':
            soft = certify_copositive(q, depth_limit, WALK_CELL_BUDGET)
            v = None
            if isinstance(soft, Copositive):
                v = kernel_zero(q)
            elif isinstance(soft, NotCopositive):
                v = primitive(soft.witness)
            if v is not None and quad_form(r, v) < 0 and quad_form(q, v) < 1:
                known.append(v)
                lam = (1 - quad_form(p, v)) / quad_form(r, v)
                continue
            halvings += 1
            if halvings > BISECT_LIMIT:
                raise WalkUndecidedError(lam)
            ceiling = lam if ceiling is None else min(ceiling, lam)
            lam = (lam_lo + lam) / 2
            continue
        violators = [v for v in data if quad_form(q, v) < 1]
        if violators:
            known.extend(violators)
            lam = min((1 - quad_form(p, v)) / quad_form(r, v)
                      for v in violators)
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
        if lam > LAMBDA_CAP:
            raise WalkUndecidedError(lam)
        lam_lo = lam
        lam = lam * 2 if ceiling is None else (lam + ceiling) / 2


def neighbors_all(cert: PerfectCertificate,
                  depth_limit: int = DEFAULT_DEPTH_LIMIT
                  ) -> tuple[WalkStep, ...]:
    """One WalkStep per extreme ray of the dual Voronoi cone, sorted order.

    Directions that fail to resolve come back as UndecidedDirection entries
    instead of aborting the whole neighborhood.
    """
    if cert.min_value != 1:
        raise PreconditionError(
            "not-normalized",
            "walk requires copositive minimum 1, certificate has %s"
            % cert.min_value)
    normals = tuple(rank_one(v) for v in cert.min_vectors)
    vrep = extreme_rays(ConeHRep(cert.matrix.n, normals))
    if vrep.lineality:
        raise RuntimeError("dual Voronoi cone of a perfect matrix "
                           "must be pointed")
    steps = []
    for direction in vrep.rays:
        try:
            steps.append(contiguous_perfect(cert, direction, depth_limit))
        except WalkUndecidedError as exc:
            steps.append(UndecidedDirection(direction, exc.lam))
    return tuple(steps)


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


def traverse(start: SymMat, node_budget: int,
             depth_limit: int = DEFAULT_DEPTH_LIMIT) -> WalkGraph:
    """BFS over permutation-canonical vertices, expanding up to node_budget.

    Ray directions count on the node itself (self-loops in the export), and
    unresolved directions are recorded as frontier-undecided without
    stopping the traversal.
    """
    if node_budget < 0:
        raise PreconditionError("bad-budget", "node budget must be >= 0")
    res = is_perfect_copositive(start, depth_limit)
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
    enqueued = {key}
    expanded = {}
    while queue and len(expanded) < node_budget:
        key, cert = queue.popleft()
        edges = []
        rays = 0
        undecided = 0
        for step in neighbors_all(cert, depth_limit):
            if isinstance(step, PolyhedronRay):
                rays += 1
            elif isinstance(step, UndecidedDirection):
                undecided += 1
            else:
                nkey, ncert = _canonical_certificate(step.certificate)
                reps.setdefault(nkey, set()).add(matrix_key(step.matrix))
                edges.append(nkey)
                if nkey not in enqueued:
                    enqueued.add(nkey)
                    queue.append((nkey, ncert))
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
