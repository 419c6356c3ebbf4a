"""Perfectness certificates, matrix recovery, Voronoi cones, classification.

A strictly copositive matrix is perfect when the rank-1 forms of its minimal
vectors span the whole space of symmetric matrices; such a matrix is the
unique solution of Q[v] = min over its minimal vectors.  Certificates are
issued at whatever the minimum happens to be; rescaling to minimum 1 is a
separate explicit step because both conventions are in active use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import ConeVRep, pairing_coeffs
from .cop import Copositive, MinResult, NotCopositive, copositive_min
from .core import (Rat, SymMat, _fraction_to_str, _rational, dim_sym, inertia,
                   inner, mat_to_json, nullspace, primitive, rank_one,
                   span_rank_of_vectors)
from .errors import NotCopositiveError, PreconditionError


@dataclass(frozen=True)
class PerfectCertificate:
    matrix: SymMat
    min_value: Rat
    min_vectors: tuple[tuple[int, ...], ...]
    span_rank: int


@dataclass(frozen=True)
class Imperfect:
    """Refusal from is_perfect_copositive; falsy so the result can be gated.

    reason is "not-strictly-copositive" (verdict is NotCopositive with its
    witness, or Copositive(0) for a matrix with a zero on the simplex) or
    "span-deficient" (min_result and span_rank describe how far short).
    """

    reason: str
    verdict: object = None
    min_result: MinResult | None = None
    span_rank: int | None = None

    def __bool__(self) -> bool:
        return False


def is_perfect_copositive(q: SymMat):
    """PerfectCertificate, or a falsy Imperfect refusal."""
    try:
        res = copositive_min(q)
    except NotCopositiveError as exc:
        return Imperfect("not-strictly-copositive",
                         verdict=NotCopositive(exc.witness))
    except PreconditionError:
        # copositive_min's only refusal: a zero on the simplex
        return Imperfect("not-strictly-copositive",
                         verdict=Copositive(Fraction(0)))
    rank = span_rank_of_vectors(res.vectors)
    if rank == dim_sym(q.n):
        return PerfectCertificate(q, res.min_value, res.vectors, rank)
    return Imperfect("span-deficient", min_result=res, span_rank=rank)


def normalized_to_min_one(cert: PerfectCertificate) -> PerfectCertificate:
    """Rescale a certificate so the copositive minimum becomes 1."""
    if cert.min_value == 1:
        return cert
    return PerfectCertificate(cert.matrix.scale(Fraction(1, 1) / cert.min_value),
                              Fraction(1), cert.min_vectors, cert.span_rank)


@dataclass(frozen=True)
class Underdetermined:
    """The linear system fixes the matrix only up to this many dimensions."""

    dimension: int


def recover_from_minvecs(vectors, value: Rat):
    """Solve Q[v] = value over symmetric Q; SymMat if unique.

    Returns Underdetermined(d) when the solution space has dimension d > 0;
    raises PreconditionError when the system is inconsistent, since no matrix
    can then attain that value on all the vectors.
    """
    value = _rational(value, "value")
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise PreconditionError("empty-vector-set",
                                "need at least one minimal vector")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise PreconditionError("dimension-mismatch",
                                "minimal vectors of mixed dimension")
    if n == 0:
        raise PreconditionError("empty-vector",
                                "minimal vectors must have length >= 1")
    D = dim_sym(n)
    # the kernel of [A | -value] holds (x, t) with A x = t*value; t is 0 on
    # every vector but that of the -value column, the last, when that column
    # is free, which is exactly when the system is consistent
    kernel = nullspace([primitive(pairing_coeffs(rank_one(v)) + (-value,))
                        for v in vectors], D + 1)
    if not kernel or not kernel[-1][D]:
        raise PreconditionError(
            "inconsistent-minima",
            "no symmetric matrix attains the value on all vectors")
    if len(kernel) > 1:
        return Underdetermined(len(kernel) - 1)
    *x, t = kernel[0]
    return SymMat(n, tuple(Fraction(c, t) for c in x))


def voronoi_cone(cert: PerfectCertificate) -> ConeVRep:
    """cone{vv^T : v minimal}; generators in the sorted vector order."""
    return ConeVRep(tuple(rank_one(v) for v in cert.min_vectors))


# ---------------------------------------------------------------------------
# component classification

@dataclass(frozen=True)
class ComponentLabel:
    """Where a copositive matrix sits relative to the PSD + nonnegative sum.

    definiteness is "positive-definite", "psd-rank-k", or "indefinite".
    exceptional_certified holds the validated doubly nonnegative witness
    proving the matrix lies outside S_{>=0} + N; witness_rejected records why
    a supplied witness failed validation.
    """

    definiteness: str
    nonnegative: bool
    exceptional_certified: SymMat | None = None
    witness_rejected: str | None = None


def classify_component(q: SymMat, witness: SymMat | None = None
                       ) -> ComponentLabel:
    """Inertia-based definiteness, entrywise sign, optional exceptionality.

    A witness certifies exceptionality only if it is PSD, entrywise
    nonnegative, and has strictly negative trace inner product with q; a
    witness failing any of the three is rejected, never silently trusted.
    """
    ine = inertia(q)
    if ine.n_neg > 0:
        definiteness = "indefinite"
    elif ine.n_zero == 0:
        definiteness = "positive-definite"
    else:
        definiteness = "psd-rank-%d" % ine.rank
    nonneg = q.has_nonneg_entries()
    certified = None
    rejected = None
    if witness is not None:
        if witness.n != q.n:
            rejected = "witness-dimension-mismatch"
        elif not inertia(witness).is_positive_semidefinite():
            rejected = "witness-not-psd"
        elif not witness.has_nonneg_entries():
            rejected = "witness-not-nonnegative"
        elif inner(q, witness) >= 0:
            rejected = "witness-inner-product-not-negative"
        else:
            certified = witness
    return ComponentLabel(definiteness, nonneg, certified, rejected)


def certificate_to_json(cert: PerfectCertificate) -> dict:
    return {
        "matrix": mat_to_json(cert.matrix),
        "min": _fraction_to_str(cert.min_value),
        "vectors": [list(v) for v in cert.min_vectors],
        "span_rank": cert.span_rank,
    }
