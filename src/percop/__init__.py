"""Exact computations with perfect copositive matrices."""

from .cones import (ConeHRep, ConeVRep, FarkasCertificate, NonnegCombination,
                    extreme_rays, lp_nonneg_solve)
from .cop import (Copositive, MinResult, NotCopositive, StrictlyCopositive,
                  certify_copositive, classical_min, copositive_min,
                  enumerate_below, test_copositivity)
from .core import (Inertia, SymMat, dim_sym, inertia, inner, quad_form,
                   rank_one, span_rank, span_rank_of_vectors)
from .certify import (CpVerdict, Factorization, Inconclusive, NotCp,
                      cp_certify)
from .errors import (NotCopositiveError, PercopError, PreconditionError,
                     WalkUndecidedError)
from .families import (EmbeddingResult, LiftWitness, embed_classical,
                       fixture_matrix, fixtures, lift,
                       minkowski_reduced_check, p_k, q_an)
from .perfect import (ComponentLabel, Imperfect, PerfectCertificate,
                      Underdetermined, classify_component,
                      is_perfect_copositive, normalized_to_min_one,
                      recover_from_minvecs, voronoi_cone)
from .walk import (GraphNode, Neighbor, PolyhedronRay, WalkGraph,
                   contiguous_perfect, graph_to_dot, graph_to_json,
                   neighbors_all, perm_canonical, traverse)

__version__ = "0.1.0"

__all__ = [
    "ComponentLabel", "ConeHRep", "ConeVRep", "Copositive", "CpVerdict",
    "EmbeddingResult", "Factorization", "FarkasCertificate", "GraphNode",
    "Imperfect", "Inconclusive", "Inertia", "LiftWitness", "MinResult",
    "Neighbor", "NonnegCombination", "NotCopositive", "NotCopositiveError",
    "NotCp", "PercopError", "PerfectCertificate", "PolyhedronRay",
    "PreconditionError", "StrictlyCopositive", "SymMat", "Underdetermined",
    "WalkGraph", "WalkUndecidedError",
    "certify_copositive", "classical_min", "classify_component",
    "contiguous_perfect", "copositive_min", "cp_certify", "dim_sym",
    "embed_classical", "enumerate_below", "extreme_rays", "fixture_matrix",
    "fixtures", "graph_to_dot", "graph_to_json", "inertia", "inner",
    "is_perfect_copositive", "lift", "lp_nonneg_solve",
    "minkowski_reduced_check", "neighbors_all", "normalized_to_min_one",
    "p_k", "perm_canonical", "q_an", "quad_form", "rank_one",
    "recover_from_minvecs", "span_rank", "span_rank_of_vectors",
    "test_copositivity", "traverse", "voronoi_cone",
]
