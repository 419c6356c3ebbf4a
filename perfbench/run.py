"""Benchmark of percop: perfection tests, neighbourhood walks, CP certification.

    python3 perfbench/run.py --workload copmin|walk|cp --seed N \\
        --seconds S --trace 0|1

One process, one thread.  Each workload is a fixed list of pairwise-distinct
inputs; the seed draws some of them and the order the ops run in.  A pass
times every input once, one op each, and checks every output against facts
computed apart from the program (see checks.py).  A run makes PASSES whole
passes of its workload per PASS_SECONDS of --seconds (at least one such
group), so the clock never decides how many ops run, and takes each op's
time as the slowest of its passes (see op_times).
The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
PASS_SECONDS = 30
# passes per PASS_SECONDS; a walk pass takes about 23 s by itself
PASSES = {"copmin": 3, "walk": 2, "cp": 3}
SETUP_REPEATS = 5

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check`` raises CheckError on a wrong output and returns True when the
    op failed (an undecided or inconclusive answer).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def import_percop():
    """Import percop afresh, so that every set-up pays for its imports."""
    for name in [m for m in sys.modules
                 if m == "percop" or m.startswith("percop.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from percop import certify, cop, core, errors, families, perfect, walk
    return certify, cop, core, errors, families, perfect, walk


class Bench:
    def __init__(self):
        (self.certify, self.cop, self.core, self.errors, self.families,
         self.perfect, self.walk) = import_percop()

    # the program is always reached through module attributes, so that a
    # traced run sees the wrapped functions

    def copmin_ops(self, rng):
        ops = []
        for label, rows, value, vectors in wl.copmin_inputs(rng):
            m = self.core.SymMat.from_rows(rows)
            rows = wl.fractions_of(rows)

            def call(m=m):
                return self.perfect.is_perfect_copositive(m)

            def check(out, rows=rows, value=value, vectors=vectors):
                ck.check_perfect(out, rows, value, vectors)
                return False

            ops.append(Op(label, call, check))
        return ops

    def walk_ops(self, rng):
        ops = []
        for label, rows, must, counts in wl.walk_inputs():
            m = self.core.SymMat.from_rows(rows)
            rows = wl.fractions_of(rows)
            side = 6 if len(rows) == 3 else 3
            box = ck.box(len(rows), side)

            def call(m=m):
                cert = self.perfect.is_perfect_copositive(m)
                if not cert:
                    return cert, ()
                cert = self.perfect.normalized_to_min_one(cert)
                return cert, self.walk.neighbors_all(cert)

            def check(out, rows=rows, must=must, counts=counts, box=box):
                cert, steps = out
                ck.require(bool(cert), "vertex is not perfect: %r", cert)
                kinds = ck.check_neighbourhood(cert, rows, steps, box)
                found = ck.neighbour_matrices(steps)
                for nb in must:
                    ck.require(nb in found, "expected neighbour %s missing", nb)
                if counts is not None:
                    got = (kinds.count("neighbor"), kinds.count("ray"))
                    ck.require(got == counts, "%s neighbours and rays, "
                               "the paper has %s", got, counts)
                return "undecided" in kinds

            ops.append(Op(label, call, check))
        return ops

    def cp_ops(self, rng):
        ops = []
        inputs = wl.cp_inputs(rng)
        self.warm_sizes = sorted({len(rows) for _, rows, _, _ in inputs})
        for label, rows, cp, psd in inputs:
            q = self.core.SymMat.from_rows(rows)

            def call(q=q):
                return self.certify.cp_certify(q)

            def check(out, rows=rows, cp=cp, psd=psd):
                return ck.check_cp(out, rows, cp, psd) == "inconclusive"

            ops.append(Op(label, call, check))
        return ops

    def warm(self):
        """Start vertices of cp_certify; they stay in copositive_min's cache."""
        for n in self.warm_sizes:
            self.perfect.is_perfect_copositive(
                self.families.q_an(n).scale(Fraction(1, 2)))

    def setup(self, workload, seed):
        """Build the inputs and warm the caches; returns the ops."""
        build = {"copmin": self.copmin_ops, "walk": self.walk_ops,
                 "cp": self.cp_ops}[workload]
        self.cop.copositive_min.cache_clear()
        self.warm_sizes = ()
        rng = random.Random("%s:%d" % (workload, seed))
        ops = build(rng)
        # spread each kind of op over the pass, so that the ops near a
        # percentile do not all run in the same stretch of host speed
        rng.shuffle(ops)
        self.warm()
        return ops

    def time_ops(self, ops, rounds, tracer=None):
        """(label, wall, cpu, failed) per op, pass after pass of the list."""
        undecided = (self.errors.UndecidedError,
                     self.errors.WalkUndecidedError)
        records = []
        for r in range(rounds):
            if r:
                if tracer is not None:
                    tracer.op = -1  # the warm-up belongs to no op
                self.cop.copositive_min.cache_clear()
                self.warm()
            gc.collect()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = r * len(ops) + i
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except undecided as exc:
                    out = exc
                t1 = time.perf_counter()
                c1 = time.process_time()
                try:
                    failed = isinstance(out, undecided) or op.check(out)
                except ck.CheckError as exc:
                    raise ck.CheckError("%s: %s" % (op.label, exc)) from None
                records.append((op.label, t1 - t0, c1 - c0, bool(failed)))
        return records


def tail_quantile(n_ops: int) -> float:
    """Highest of p90/p75 with at least ten ops above it."""
    return 0.9 if n_ops >= 100 else 0.75


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def op_times(records, n_ops):
    """(wall, cpu) of each op: the most over its passes, each on its own.

    A shared host runs this code at its usual, contended speed most of the
    time, and up to 1.5x faster in quiet spells of a few seconds.  An op's
    slowest pass is nearly always at the usual speed; its fastest pass
    falls in a quiet spell in some runs and not in others, so the best of
    three passes spreads several times more from run to run than the worst
    (README.md, "Why the slowest pass").
    """
    return [(max(r[1] for r in records[i::n_ops]),
             max(r[2] for r in records[i::n_ops])) for i in range(n_ops)]


def end_to_end(times, setup_s):
    wall = sorted(w for w, _ in times)
    n = len(wall)
    return {
        "ops_per_s": (n / sum(wall), "1/s"),
        "op_p50_s": (statistics.median(wall), "s"),
        "op_tail_s": (percentile(wall, tail_quantile(n)), "s"),
        "cpu_s_per_op": (sum(c for _, c in times) / n, "s"),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("copmin", "walk", "cp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            bench = Bench()
        except ImportError as exc:
            print("cannot import percop from %s: %s" % (ROOT / "src", exc),
                  file=sys.stderr)
            return 2
        ops = bench.setup(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    rounds = (max(1, round(args.seconds / PASS_SECONDS))
              * PASSES[args.workload])

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    correct = True
    try:
        records = bench.time_ops(ops, rounds, tracer)
    except ck.CheckError as exc:
        print("wrong output: %s" % exc, file=sys.stderr)
        correct = False
        records = []
    if tracer is not None:
        tracer.uninstall()
    if not correct:
        print(json.dumps({"correct": False, "attempted": len(ops) * rounds,
                          "failed": 0, "metrics": {}}))
        return 1

    failed = sum(r[3] for r in records)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    RUNS.mkdir(exist_ok=True)
    if tracer is not None:
        metrics = tracer.layer_metrics()
        tracer.write(RUNS / ("spans-%s.tsv" % tag))
    else:
        metrics = end_to_end(op_times(records, len(ops)), setup_s)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "rounds": rounds, "setup_s": setup_s,
              "ops_wall_s": sum(r[1] for r in records),
              "ops": [{"label": r[0], "wall_s": r[1], "cpu_s": r[2],
                       "failed": r[3]} for r in records]}
    (RUNS / ("run-%s.json" % tag)).write_text(json.dumps(record) + "\n")
    for label, wall, _, bad in records:
        if bad:
            print("failed op: %s" % label, file=sys.stderr)
    print("%s seed %d: %d ops in %.2f s, %d failed, setup %.3f s"
          % (args.workload, args.seed, len(records), record["ops_wall_s"],
             failed, setup_s), file=sys.stderr)
    print(json.dumps({
        "correct": True, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
