"""Spans at percop's layer boundaries, recorded from the benchmark's side.

Tracer.install() wraps module-level functions of percop and rebinds every
module attribute that refers to the original function, so names taken with
``from ... import`` (extreme_rays in cones, walk and certify; _survey_below
in cop and walk; and so on) are traced as well.  src/ is not touched.

A span is [name, start_ns, end_ns, parent index, op id, outcome]; the
outcome is the survey tag, the returned type or the exception raised, and
for enumeration the 1-norm radius searched.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.  Spans of no op (op
id -1: the cache warm-up between passes) are written out but left out of
the metrics.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _tag(result, args):
    return result[0]


def _kind(result, args):
    return type(result).__name__


def _radius(result, args):
    return args[3]


# (module, function, span name, outcome reader or None)
LAYERS = (
    ("cop", "_bnb", "cop.bnb", _tag),
    ("cop", "_suffix_bounds", "cop.suffix", None),
    ("cop", "_enumerate_scaled", "cop.enum", _radius),
    ("cop", "_survey_below", "cop.survey", _tag),
    ("cop", "certify_copositive", "cop.certify_copositive", _kind),
    ("core", "row_rank", "core.rank", None),
    ("cones", "extreme_rays", "cones.dd", None),
    ("cones", "lp_nonneg_solve", "cones.lp", _kind),
    ("walk", "contiguous_perfect", "walk.edge", _kind),
    ("walk", "kernel_zero", "walk.kernel_zero", None),
    ("perfect", "is_perfect_copositive", "perfect", _kind),
    ("certify", "cp_certify", "certify", _kind),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, outcome):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                stack.pop()
                rec[5] = type(exc).__name__
                raise
            rec[2] = clock()
            stack.pop()
            if outcome is not None:
                rec[5] = outcome(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "percop" or name.startswith("percop.")]
        for mod_name, fn_name, span, outcome in LAYERS:
            original = getattr(sys.modules["percop." + mod_name], fn_name)
            wrapper = self._wrap(span, original, outcome)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -----------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        calls = Counter()
        self_ns = Counter()
        total_ns = Counter()
        outcomes = defaultdict(Counter)
        radius_max = 0
        tried = moved = 0
        for idx, rec in enumerate(spans):
            if rec[4] < 0:
                continue
            name = rec[0]
            calls[name] += 1
            total_ns[name] += rec[2] - rec[1]
            self_ns[name] += rec[2] - rec[1] - child_ns[idx]
            outcomes[name][rec[5]] += 1
            if name == "cop.enum":
                radius_max = max(radius_max, rec[5])
            elif name == "walk.edge" and rec[3] >= 0 \
                    and spans[rec[3]][0] == "certify":
                tried += 1
                moved += rec[5] == "Neighbor"
        s = 1e-9
        edges = calls["walk.edge"]
        return {
            "cop.bnb.calls": (calls["cop.bnb"], "count"),
            "cop.bnb.self_s": (self_ns["cop.bnb"] * s, "s"),
            "cop.bnb.undecided": (outcomes["cop.bnb"]["undec"], "count"),
            "cop.enum.calls": (calls["cop.enum"], "count"),
            "cop.enum.self_s": (self_ns["cop.enum"] * s, "s"),
            "cop.enum.radius_max": (radius_max, "count"),
            "cop.suffix.s": (total_ns["cop.suffix"] * s, "s"),
            "cop.survey.calls": (calls["cop.survey"], "count"),
            "cop.survey.ok": (outcomes["cop.survey"]["ok"], "count"),
            "cop.survey.not": (outcomes["cop.survey"]["not"], "count"),
            "cop.survey.undec": (outcomes["cop.survey"]["undec"], "count"),
            "walk.edge.calls": (edges, "count"),
            "walk.edge.self_s": (self_ns["walk.edge"] * s, "s"),
            "walk.edge.undecided":
                (outcomes["walk.edge"]["WalkUndecidedError"], "count"),
            "walk.surveys_per_edge":
                (calls["cop.survey"] / edges if edges else 0.0, "ratio"),
            "walk.kernel_zero.calls": (calls["walk.kernel_zero"], "count"),
            "walk.kernel_zero.self_s": (self_ns["walk.kernel_zero"] * s, "s"),
            "cones.lp.calls": (calls["cones.lp"], "count"),
            "cones.lp.self_s": (self_ns["cones.lp"] * s, "s"),
            "core.rank.calls": (calls["core.rank"], "count"),
            "core.rank.self_s": (self_ns["core.rank"] * s, "s"),
            "cones.dd.calls": (calls["cones.dd"], "count"),
            "cones.dd.self_s": (self_ns["cones.dd"] * s, "s"),
            "certify.moves": (moved, "count"),
            "certify.directions_tried": (tried, "count"),
            "certify.tries_per_move":
                (tried / moved if moved else 0.0, "ratio"),
            "perfect.calls": (calls["perfect"], "count"),
            "perfect.self_s": (self_ns["perfect"] * s, "s"),
        }

    def write(self, path):
        """One tab-separated line per span: name start end parent op outcome."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\toutcome\n")
            for rec in self.spans:
                out.write("%s\t%d\t%d\t%d\t%d\t%s\n" % tuple(rec))
