"""Command-line surface.

All output is JSON on stdout with sorted keys, so identical inputs give
byte-identical bytes.  Exit codes: 0 success, 1 malformed input, 2
precondition violation (with a machine-readable reason), 3 negative
certificate from `certify`, 4 inconclusive or undecided.  A path of `-`
reads the matrix from stdin.  PERCOP_DEPTH_LIMIT overrides the default
subdivision depth; --depth-limit overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certify import cp_certify, cp_to_json, Factorization, NotCp
from .cop import DEFAULT_DEPTH_LIMIT, copositive_min, minresult_to_json
from .core import SymMat, mat_loads, mat_to_json, _fraction_to_str
from .errors import (NotCopositiveError, PreconditionError, UndecidedError,
                     WalkUndecidedError)
from .families import LiftWitness, embed_classical, fixture_matrix, lift
from .perfect import (certificate_to_json, classify_component,
                      is_perfect_copositive)
from .walk import (Neighbor, PolyhedronRay, UndecidedDirection, graph_to_dot,
                   graph_to_json, neighbors_all, perm_canonical, traverse)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_matrix(path: str) -> SymMat:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError("cannot read %s: %s" % (path, exc))
    return mat_loads(text)


def _depth_limit(args) -> int:
    if args.depth_limit is not None:
        return args.depth_limit
    env = os.environ.get("PERCOP_DEPTH_LIMIT")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError("PERCOP_DEPTH_LIMIT must be an integer, got %r"
                             % env)
    return DEFAULT_DEPTH_LIMIT


def _require_normalized_certificate(m: SymMat, depth: int):
    res = is_perfect_copositive(m, depth)
    if not res:
        raise PreconditionError("not-perfect",
                                "input matrix is not perfect copositive",
                                reason_detail=res.reason)
    if res.min_value != 1:
        raise PreconditionError(
            "not-normalized",
            "input must have copositive minimum 1, got %s"
            % _fraction_to_str(res.min_value))
    return res


def _step_json(step) -> dict:
    if isinstance(step, Neighbor):
        return {"kind": "neighbor", "matrix": mat_to_json(step.matrix),
                "lambda": _fraction_to_str(step.lam),
                "new_vectors": [list(v) for v in step.new_vectors]}
    if isinstance(step, PolyhedronRay):
        return {"kind": "ray", "direction": mat_to_json(step.direction)}
    assert isinstance(step, UndecidedDirection)
    return {"kind": "undecided", "direction": mat_to_json(step.direction),
            "lambda": None if step.lam is None
            else _fraction_to_str(step.lam)}


def _cmd_copmin(args) -> int:
    m = _read_matrix(args.matrix)
    _emit(minresult_to_json(copositive_min(m, _depth_limit(args))))
    return 0


def _cmd_perfect(args) -> int:
    m = _read_matrix(args.matrix)
    res = is_perfect_copositive(m, _depth_limit(args))
    if res:
        _emit({"perfect": True, "certificate": certificate_to_json(res)})
    else:
        body = {"perfect": False, "reason": res.reason}
        if res.span_rank is not None:
            body["span_rank"] = res.span_rank
        if res.min_result is not None:
            body["min"] = _fraction_to_str(res.min_result.min_value)
            body["vectors"] = [list(v) for v in res.min_result.vectors]
        if res.verdict is not None:
            body["witness"] = [_fraction_to_str(x)
                               for x in res.verdict.witness]
        _emit(body)
    return 0


def _cmd_neighbors(args) -> int:
    m = _read_matrix(args.matrix)
    depth = _depth_limit(args)
    cert = _require_normalized_certificate(m, depth)
    steps = neighbors_all(cert, depth)
    _emit({"steps": [_step_json(s) for s in steps]})
    return 0


def _cmd_walk(args) -> int:
    m = _read_matrix(args.matrix)
    graph = traverse(m, args.budget, _depth_limit(args))
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(graph_to_dot(graph))
        except OSError as exc:
            raise ValueError("cannot write %s: %s" % (args.dot, exc))
    _emit(graph_to_json(graph))
    return 0


def _cmd_lift(args) -> int:
    m = _read_matrix(args.matrix)
    try:
        vector = tuple(int(part) for part in args.witness.split(","))
    except ValueError:
        raise ValueError("witness must be comma-separated integers, got %r"
                         % args.witness)
    lifted = lift(m, LiftWitness(m, vector), _depth_limit(args))
    _emit(mat_to_json(lifted))
    return 0


def _cmd_embed(args) -> int:
    m = _read_matrix(args.matrix)
    result = embed_classical(m, _depth_limit(args))
    _emit({"u": [list(row) for row in result.u],
           "u_inv": [list(row) for row in result.u_inv],
           "q_bound": result.q_bound,
           "transformed": mat_to_json(result.transformed)})
    return 0


def _cmd_certify(args) -> int:
    m = _read_matrix(args.matrix)
    verdict = cp_certify(m, args.budget, _depth_limit(args))
    _emit(cp_to_json(verdict))
    if isinstance(verdict, Factorization):
        return 0
    if isinstance(verdict, NotCp):
        return 3
    return 4


def _cmd_classify(args) -> int:
    m = _read_matrix(args.matrix)
    witness = None if args.witness is None else _read_matrix(args.witness)
    label = classify_component(m, witness)
    _emit({"definiteness": label.definiteness,
           "nonnegative": label.nonnegative,
           "exceptional_certified":
               None if label.exceptional_certified is None
               else mat_to_json(label.exceptional_certified),
           "witness_rejected": label.witness_rejected})
    return 0


def _cmd_fixtures(args) -> int:
    _emit(mat_to_json(fixture_matrix(args.name)))
    return 0


def _cmd_canon(args) -> int:
    m = _read_matrix(args.matrix)
    _emit(mat_to_json(perm_canonical(m)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--depth-limit", type=int, default=None,
                        help="subdivision depth limit (default: "
                             "PERCOP_DEPTH_LIMIT or %d)"
                             % DEFAULT_DEPTH_LIMIT)
    parser = argparse.ArgumentParser(
        prog="percop",
        description="Exact computations with perfect copositive matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("copmin", parents=[common],
                       help="copositive minimum and minimal vectors")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_copmin)

    p = sub.add_parser("perfect", parents=[common],
                       help="perfectness certificate or refusal")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_perfect)

    p = sub.add_parser("neighbors", parents=[common],
                       help="all walk steps from a normalized perfect matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("walk", parents=[common],
                       help="BFS over the neighborhood graph")
    p.add_argument("matrix")
    p.add_argument("--budget", type=int, required=True,
                   help="number of nodes to expand")
    p.add_argument("--dot", default=None, help="also write a DOT file here")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("lift", parents=[common],
                       help="duplicate the last row/column given a witness")
    p.add_argument("matrix")
    p.add_argument("--witness", required=True,
                   help="comma-separated minimal vector, last entry >= 2")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("embed", parents=[common],
                       help="embed a classically perfect matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("certify", parents=[common],
                       help="CP factorization or counterexample")
    p.add_argument("matrix")
    p.add_argument("--budget", type=int, default=10_000,
                   help="walk step budget")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("classify", parents=[common],
                       help="cone component label, optional witness")
    p.add_argument("matrix")
    p.add_argument("--witness", default=None,
                   help="matrix JSON path for the exceptionality witness")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fixtures", parents=[common],
                       help="emit a named fixture matrix")
    p.add_argument("--name", required=True,
                   help="I, E, Qdnn, QA:n, or P:k")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("canon", parents=[common],
                       help="permutation-canonical form")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_canon)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except NotCopositiveError as exc:
        _emit({"error": "not-copositive",
               "witness": [_fraction_to_str(x) for x in exc.witness]})
        return 2
    except PreconditionError as exc:
        body = {"error": "precondition-violation", "reason": exc.reason,
                "detail": str(exc)}
        for key, value in sorted(exc.payload.items()):
            body[key] = value
        _emit(body)
        return 2
    except UndecidedError as exc:
        _emit({"error": "undecided", "depth": exc.depth, "detail": str(exc)})
        return 4
    except WalkUndecidedError as exc:
        _emit({"error": "walk-undecided",
               "lambda": None if exc.lam is None
               else _fraction_to_str(exc.lam)})
        return 4
    except ValueError as exc:
        _emit({"error": "malformed-input", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
