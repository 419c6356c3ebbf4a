"""Rational CP-factorization or a perfect copositive counterexample.

A walk over perfect matrices with copositive minimum 1, starting at half the
tridiagonal root form.  At each vertex P three things can happen: the inner
product with the input is already negative (a sound non-membership proof),
the input lies in the Voronoi cone of P (an exact nonnegative factorization
over the minimal vectors), or a descent direction with negative inner
product leads to the next vertex.  The inner product strictly decreases on
every move, so the walk cannot cycle; whether it always succeeds is open,
and running out of budget or directions is reported, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import NonnegCombination, lp_nonneg_solve
from .core import Rat, SymMat, inner, mat_to_json, rank_one, _fraction_to_str
from .errors import PreconditionError, WalkUndecidedError
from .families import q_an
from .perfect import is_perfect_copositive
from .walk import (Neighbor, PolyhedronRay, _descent_directions,
                   contiguous_perfect, matrix_key)

DEFAULT_STEP_BUDGET = 10_000


@dataclass(frozen=True)
class Factorization:
    """Q = sum alpha_i x_i x_i^T with alpha_i > 0, x_i >= 0 integral."""

    pairs: tuple[tuple[Rat, tuple[int, ...]], ...]


@dataclass(frozen=True)
class NotCp:
    """Perfect copositive certificate with inner(certificate, Q) = value < 0."""

    certificate: SymMat
    value: Rat


@dataclass(frozen=True)
class Inconclusive:
    steps_used: int
    reason: str


CpVerdict = Factorization | NotCp | Inconclusive


def cp_certify(q: SymMat,
               step_budget: int = DEFAULT_STEP_BUDGET) -> CpVerdict:
    """Decide complete positivity where the walk terminates.

    Directions whose walk step ends in a polyhedron ray or raises
    WalkUndecidedError are skipped in favor of the next-most-negative one;
    a vertex with no usable descent direction, an exhausted budget, or a
    revisited matrix ends the walk as Inconclusive.
    """
    if not q.has_nonneg_entries():
        raise PreconditionError(
            "not-entrywise-nonnegative",
            "completely positive matrices are entrywise nonnegative")
    if step_budget < 0:
        raise PreconditionError("bad-budget", "step budget must be >= 0")
    start = q_an(q.n).scale(Fraction(1, 2))
    cert = is_perfect_copositive(start)
    if not cert:
        raise RuntimeError("start matrix failed its perfectness check")
    steps = 0
    visited = {matrix_key(cert.matrix)}
    while True:
        value = inner(cert.matrix, q)
        if value < 0:
            return NotCp(cert.matrix, value)
        generators = [rank_one(v) for v in cert.min_vectors]
        outcome = lp_nonneg_solve(generators, q)
        if isinstance(outcome, NonnegCombination):
            pairs = tuple((a, v) for a, v in
                          zip(outcome.coefficients, cert.min_vectors) if a > 0)
            return Factorization(pairs)
        values = [(inner(r, q), r)
                  for r in _descent_directions(cert, generators)]
        candidates = sorted((t for t in values if t[0] < 0),
                            key=lambda t: (t[0], t[1].coords))
        moved = False
        for _, direction in candidates:
            if steps >= step_budget:
                return Inconclusive(steps, "budget-exhausted")
            try:
                step = contiguous_perfect(cert, direction)
            except WalkUndecidedError:
                continue
            if isinstance(step, PolyhedronRay):
                # a copositive direction cannot be a descent direction for a
                # CP input; skipping is sound either way
                continue
            assert isinstance(step, Neighbor)
            key = matrix_key(step.matrix)
            if key in visited:
                return Inconclusive(steps, "cycle-detected")
            visited.add(key)
            cert = step.certificate
            steps += 1
            moved = True
            break
        if not moved:
            return Inconclusive(steps, "no-descent-direction")


def cp_to_json(verdict: CpVerdict) -> dict:
    if isinstance(verdict, Factorization):
        return {"verdict": "cp",
                "factorization": [{"alpha": _fraction_to_str(a),
                                   "vector": list(v)}
                                  for a, v in verdict.pairs]}
    if isinstance(verdict, NotCp):
        return {"verdict": "not-cp",
                "certificate": mat_to_json(verdict.certificate),
                "value": _fraction_to_str(verdict.value)}
    return {"verdict": "inconclusive", "steps": verdict.steps_used,
            "reason": verdict.reason}
