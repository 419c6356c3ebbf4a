"""Command-line surface.

All output is JSON on stdout with sorted keys, so identical inputs give
byte-identical bytes.  Exit codes: 0 success, 1 malformed input, 2
precondition violation (with a machine-readable reason), 3 negative
certificate from `certify`, 4 an inconclusive `certify` or a `neighbors`
step left unresolved (`walk` counts such a step as frontier-undecided and
`certify` skips it).  A path of `-` reads the matrix from stdin.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import cp_certify, cp_to_json, Factorization, NotCp
from .cop import NotCopositive, copositive_min, minresult_to_json
from .core import SymMat, mat_loads, mat_to_json, _fraction_to_str
from .errors import NotCopositiveError, PreconditionError, WalkUndecidedError
from .families import LiftWitness, embed_classical, fixture_matrix, lift
from .perfect import (certificate_to_json, classify_component,
                      is_perfect_copositive)
from .walk import (Neighbor, graph_to_dot, graph_to_json, neighbors_all,
                   perm_canonical, traverse)


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


def _require_normalized_certificate(m: SymMat):
    res = is_perfect_copositive(m)
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
    return {"kind": "ray", "direction": mat_to_json(step.direction)}


def _cmd_copmin(args) -> int:
    m = _read_matrix(args.matrix)
    _emit(minresult_to_json(copositive_min(m)))
    return 0


def _cmd_perfect(args) -> int:
    m = _read_matrix(args.matrix)
    res = is_perfect_copositive(m)
    if res:
        _emit({"perfect": True, "certificate": certificate_to_json(res)})
    else:
        body = {"perfect": False, "reason": res.reason}
        if res.span_rank is not None:
            body["span_rank"] = res.span_rank
        if res.min_result is not None:
            body["min"] = _fraction_to_str(res.min_result.min_value)
            body["vectors"] = [list(v) for v in res.min_result.vectors]
        if isinstance(res.verdict, NotCopositive):
            body["witness"] = [_fraction_to_str(x)
                               for x in res.verdict.witness]
        _emit(body)
    return 0


def _cmd_neighbors(args) -> int:
    m = _read_matrix(args.matrix)
    cert = _require_normalized_certificate(m)
    steps = neighbors_all(cert)
    _emit({"steps": [_step_json(s) for s in steps]})
    return 0


def _cmd_walk(args) -> int:
    m = _read_matrix(args.matrix)
    graph = traverse(m, args.budget)
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
    lifted = lift(m, LiftWitness(m, vector))
    _emit(mat_to_json(lifted))
    return 0


def _cmd_embed(args) -> int:
    m = _read_matrix(args.matrix)
    result = embed_classical(m)
    _emit({"u": [list(row) for row in result.u],
           "u_inv": [list(row) for row in result.u_inv],
           "q_bound": result.q_bound,
           "transformed": mat_to_json(result.transformed)})
    return 0


def _cmd_certify(args) -> int:
    m = _read_matrix(args.matrix)
    verdict = cp_certify(m, args.budget)
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
    parser = argparse.ArgumentParser(
        prog="percop",
        description="Exact computations with perfect copositive matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("copmin", help="copositive minimum and minimal vectors")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_copmin)

    p = sub.add_parser("perfect", help="perfectness certificate or refusal")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_perfect)

    p = sub.add_parser("neighbors",
                       help="all walk steps from a normalized perfect matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_neighbors)

    p = sub.add_parser("walk", help="BFS over the neighborhood graph")
    p.add_argument("matrix")
    p.add_argument("--budget", type=int, required=True,
                   help="number of nodes to expand")
    p.add_argument("--dot", default=None, help="also write a DOT file here")
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("lift",
                       help="duplicate the last row/column given a witness")
    p.add_argument("matrix")
    p.add_argument("--witness", required=True,
                   help="comma-separated minimal vector, last entry >= 2")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("embed", help="embed a classically perfect matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("certify", help="CP factorization or counterexample")
    p.add_argument("matrix")
    p.add_argument("--budget", type=int, default=10_000,
                   help="walk step budget")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("classify",
                       help="cone component label, optional witness")
    p.add_argument("matrix")
    p.add_argument("--witness", default=None,
                   help="matrix JSON path for the exceptionality witness")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("fixtures", help="emit a named fixture matrix")
    p.add_argument("--name", required=True,
                   help="I, E, Qdnn, QA:n, or P:k")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("canon", help="permutation-canonical form")
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
    except WalkUndecidedError as exc:
        _emit({"error": "walk-undecided",
               "lambda": _fraction_to_str(exc.lam)})
        return 4
    except ValueError as exc:
        _emit({"error": "malformed-input", "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
