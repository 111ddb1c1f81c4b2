"""Per-layer tracing of torsep, applied from outside the package.

Every function named in ``TRACED`` is replaced, by identity, in every
loaded ``torsep`` module that binds it (as a module attribute or as a
value of a module-level dict such as a dispatch table), so calls made
through ``from .lp import lp_feasible`` are caught too.  A missing name
raises, so a rename cannot silently zero out a layer.

Each wrapper records a span.  A span's self time is its duration minus
the durations of the spans it directly encloses; the self times of all
spans therefore add up to the time spent inside the outermost traced
call (``cli.main``).  Work counts come from arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "lp": ("lp_feasible", "cone_member"),
    "cones": ("minimal_face", "enumerate_faces", "face_witness",
              "edge_conditions", "is_strictly_convex"),
    "separation": ("decide_affine_sp", "decide_affine_wsp", "decide_affine_ssp",
                   "decide_projective_sp", "decide_projective_wsp",
                   "decide_projective_ssp", "cone_hypothesis"),
    "strata": ("strata", "oracle_sp", "oracle_wsp", "characteristic_pairs",
               "ssp_coordinate_witness"),
    "ideals": ("binomial_generators", "octant_semigroup_generators",
               "verify_vanishing"),
    "linalg": ("rank", "kernel_lattice", "row_hnf", "lattice_equal",
               "solve_exact", "determinant", "independent_rows"),
    "verification": ("check_verdict",),
    "reports": ("parse_instance", "emit_report"),
    "cli": ("main",),
}

# Extra per-layer statistics: metric suffix -> (unit, better).
EXTRA_METRICS = {
    "lp.lp_feasible": {"rows_mean": ("count", "lower"), "cols_mean": ("count", "lower"),
                       "infeasible_frac": ("ratio", "lower")},
    "cones.minimal_face": {"repeat_frac": ("ratio", "lower")},
    "cones.enumerate_faces": {"repeat_frac": ("ratio", "lower")},
    "cones.face_witness": {"hit_frac": ("ratio", "higher")},
    "ideals.binomial_generators": {"binomials": ("count", "lower")},
    "reports.emit_report": {"bytes": ("B", "lower")},
}

TRACE_METRICS = {
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
}


def per_layer_metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, names in TRACED.items():
        for fname in names:
            key = f"{module}.{fname}"
            out.append((f"{key}.calls", "count", "lower"))
            out.append((f"{key}.self_s", "s", "lower"))
            for suffix, (unit, better) in EXTRA_METRICS.get(key, {}).items():
                out.append((f"{key}.{suffix}", unit, better))
    out.extend((name, unit, better) for name, (unit, better) in TRACE_METRICS.items())
    return out


class Span:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Stat:
    """Accumulated spans and counts of one traced function."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.rows = 0
        self.cols = 0
        self.hits = 0  # infeasible LPs, faces found, repeated arguments
        self.amount = 0  # binomials emitted, bytes emitted
        self.seen = set()


def _lp_shape(stat, args, kwargs, result):
    eqs, ineqs = args[0], args[1]
    num_vars = args[2] if len(args) > 2 else kwargs.get("num_vars")
    if num_vars is None:
        rows = list(eqs) + list(ineqs)
        num_vars = len(rows[0][0]) if rows else 0
    stat.rows += len(eqs) + len(ineqs)
    stat.cols += num_vars
    stat.hits += not result.feasible


def _repeat(stat, args, kwargs, result):
    key = (args, tuple(sorted(kwargs.items())))
    stat.hits += key in stat.seen
    stat.seen.add(key)


def _face_hit(stat, args, kwargs, result):
    stat.hits += result is not None


def _count_result(stat, args, kwargs, result):
    stat.amount += len(result)


def _count_bytes(stat, args, kwargs, result):
    stat.amount += len(result.encode("utf-8"))


_RECORDERS = {
    "lp.lp_feasible": _lp_shape,
    "cones.minimal_face": _repeat,
    "cones.enumerate_faces": _repeat,
    "cones.face_witness": _face_hit,
    "ideals.binomial_generators": _count_result,
    "reports.emit_report": _count_bytes,
}


class Tracer:
    """Installs the wrappers and accumulates per-function statistics."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "torsep" or name.startswith("torsep."))]
        for module, names in TRACED.items():
            home = sys.modules.get(f"torsep.{module}")
            if home is None:
                raise RuntimeError(f"module torsep.{module} is not loaded")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    raise RuntimeError(f"torsep.{module}.{fname} is missing")
                key = f"{module}.{fname}"
                wrapper = self._wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper

    def _wrap(self, key, original):
        stat = self.stats[key] = Stat()
        record = _RECORDERS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span()
            stack.append(span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child += duration
                stat.calls += 1
                stat.self_s += duration - span.child
            if record is not None:
                record(stat, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Raw per-function statistics, JSON-ready."""
        return {key: {"calls": s.calls, "self_s": s.self_s, "rows": s.rows,
                      "cols": s.cols, "hits": s.hits, "amount": s.amount}
                for key, s in self.stats.items()}


def layer_metrics(raw: dict, untraced_s: float) -> dict:
    """Named per-layer metrics from a traced worker's raw statistics."""
    out = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for key, s in raw.items():
        out[f"{key}.calls"] = s["calls"]
        out[f"{key}.self_s"] = s["self_s"]
        extras = EXTRA_METRICS.get(key, {})
        if "rows_mean" in extras:
            out[f"{key}.rows_mean"] = ratio(s["rows"], s["calls"])
            out[f"{key}.cols_mean"] = ratio(s["cols"], s["calls"])
            out[f"{key}.infeasible_frac"] = ratio(s["hits"], s["calls"])
        for suffix in ("repeat_frac", "hit_frac"):
            if suffix in extras:
                out[f"{key}.{suffix}"] = ratio(s["hits"], s["calls"])
        for suffix in ("binomials", "bytes"):
            if suffix in extras:
                out[f"{key}.{suffix}"] = s["amount"]
    self_sum = sum(s["self_s"] for s in raw.values())
    out["trace.overhead_frac"] = ratio(self_sum, untraced_s) - 1.0
    out["trace.self_sum_s"] = self_sum
    out["trace.untraced_s"] = untraced_s
    return out
