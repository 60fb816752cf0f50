"""Layer tracing from outside the library, for the benchmark's traced run.

``Tracer.install`` rebinds every traced function to a wrapper that records a
span: its name, start and end (``perf_counter_ns``), the index of the span
that was open when it was called, and the query it belongs to.  A function is
rebound in its defining module and at every module attribute of the package
that holds the same object, which covers the ``from .x import y`` bindings
(``pricing.grid_summary``, ``model.root_integer_neighbors``, ...) and the
package namespace; imports inside function bodies read the defining module at
call time and so reach the wrapper too.  ``TrajectoryTree.validate`` is
rebound on the class.  Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus the durations of the spans
opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# traced functions, by defining module
FUNCTIONS = {
    "fileformat": ["parse_tree", "parse_payoff", "parse_process", "parse_decomposition"],
    "analysis": ["analyze"],
    "pricing": ["sigma_bar", "sigma_bar_all", "i_bar", "i_bar_backward",
                "check_supermartingale", "is_null", "norm_j", "solve_step"],
    "poly": ["grid_summary", "root_integer_neighbors"],
    "lp": ["min_max_affine", "minimize"],
    "decomposition": ["doob_decompose", "verify_decomposition",
                      "decomposition_feasible", "decomposition_from_hedge"],
    "cli": ["main"],
}
METHODS = {"model": [("TrajectoryTree", "validate")]}

PARSE = ("fileformat.parse_tree", "fileformat.parse_payoff", "fileformat.parse_process",
         "fileformat.parse_decomposition")
DECOMPOSE = ("decomposition.doob_decompose", "decomposition.decomposition_feasible",
             "decomposition.decomposition_from_hedge")
DECOMPOSITION = DECOMPOSE + ("decomposition.verify_decomposition",)
DRIFT_NOTES = ("infimum approached", "one-sided harvest")

# per-layer metric -> unit; the order is the order of the report
LAYER_METRICS = {
    "fileformat.parse_s": "s",
    "fileformat.parse_calls": "count",
    "model.validate_s": "s",
    "model.validate_calls": "count",
    "analysis.analyze_s": "s",
    "analysis.analyze_calls": "count",
    "analysis.cache_hit_ratio": "ratio",
    "pricing.solve_step_s": "s",
    "pricing.solve_step_calls": "count",
    "pricing.exchange_rounds": "count",
    "pricing.rounds_per_solve": "ratio",
    "pricing.drift_exits": "count",
    "poly.grid_summary_s": "s",
    "poly.grid_summary_calls": "count",
    "poly.grid_summary_repeat_ratio": "ratio",
    "poly.root_isolation_s": "s",
    "poly.root_isolation_calls": "count",
    "lp.min_max_affine_s": "s",
    "lp.min_max_affine_calls": "count",
    "lp.minimize_s": "s",
    "lp.minimize_calls": "count",
    "lp.minimize_rows": "count",
    "lp.minimize_cols": "count",
    "decomposition.decompose_s": "s",
    "decomposition.verify_s": "s",
    "decomposition.calls": "count",
    "cli.self_s": "s",
}
# counts that do not depend on the machine, pinned for the default seed
PINNED_COUNTS = [m for m, unit in LAYER_METRICS.items() if unit == "count"]


def _grid_key(args, kwargs, result):
    p, n_lo = args[0], args[1]
    n_hi = args[2] if len(args) > 2 else kwargs.get("n_hi")
    return (p.coeffs, n_lo, n_hi)


def _lp_shape(args, kwargs, result):
    return (len(args[1]), len(args[0]))  # (rows, cols)


def _step_note(args, kwargs, result):
    return result.note


EXTRAS = {
    "poly.grid_summary": _grid_key,
    "lp.minimize": _lp_shape,
    "pricing.solve_step": _step_note,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, query, extra]
        self.query = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}  # span name -> traced function

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for short in (*FUNCTIONS, *METHODS):
            importlib.import_module(f"trajhedge.{short}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "trajhedge" or name.startswith("trajhedge.")]
        for short, names in FUNCTIONS.items():
            mod = sys.modules[f"trajhedge.{short}"]
            for fname in names:
                orig = getattr(mod, fname)
                self.originals[f"{short}.{fname}"] = orig
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for short, pairs in METHODS.items():
            mod = sys.modules[f"trajhedge.{short}"]
            for cls_name, meth in pairs:
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self.originals[f"{short}.{meth}"] = orig
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{short}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def run_query(self, index: int, fn):
        """Run one query under a root span named ``query``."""
        self.query = index
        return self._wrap("query", fn)()

    # -- aggregation -------------------------------------------------------
    def layer_metrics(self, first: int, last: int) -> dict:
        """Per-layer metrics of the spans[first:last] (one pass)."""
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for i in range(first, last):
            start, end, parent = spans[i][1:4]
            if parent >= first:
                child_ns[parent] += end - start
        for i in range(first, last):
            name, start, end = spans[i][:3]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]

        def secs(*names):
            return sum(self_ns[n] for n in names) / 1e9

        def count(*names):
            return sum(calls[n] for n in names)

        rounds = drift = validated = repeats = rows = cols = 0
        seen_grids = set()
        for i in range(first, last):
            name, parent, extra = spans[i][0], spans[i][3], spans[i][5]
            if name == "lp.min_max_affine" and self._under(i, "pricing.solve_step", first):
                rounds += 1
            elif name == "pricing.solve_step" and extra is not None:
                drift += extra.startswith(DRIFT_NOTES)
            elif name == "model.validate" and parent >= first \
                    and spans[parent][0] == "analysis.analyze":
                validated += 1
            elif name == "poly.grid_summary":
                repeats += extra in seen_grids
                seen_grids.add(extra)
            elif name == "lp.minimize" and extra is not None:
                rows += extra[0]
                cols += extra[1]

        solves, grids, analyzes = (count("pricing.solve_step"), count("poly.grid_summary"),
                                   count("analysis.analyze"))
        return {
            "fileformat.parse_s": secs(*PARSE),
            "fileformat.parse_calls": count(*PARSE),
            "model.validate_s": secs("model.validate"),
            "model.validate_calls": count("model.validate"),
            "analysis.analyze_s": secs("analysis.analyze"),
            "analysis.analyze_calls": analyzes,
            "analysis.cache_hit_ratio": (analyzes - validated) / analyzes if analyzes else 0.0,
            "pricing.solve_step_s": secs("pricing.solve_step"),
            "pricing.solve_step_calls": solves,
            "pricing.exchange_rounds": rounds,
            "pricing.rounds_per_solve": rounds / solves if solves else 0.0,
            "pricing.drift_exits": drift,
            "poly.grid_summary_s": secs("poly.grid_summary"),
            "poly.grid_summary_calls": grids,
            "poly.grid_summary_repeat_ratio": repeats / grids if grids else 0.0,
            "poly.root_isolation_s": secs("poly.root_integer_neighbors"),
            "poly.root_isolation_calls": count("poly.root_integer_neighbors"),
            "lp.min_max_affine_s": secs("lp.min_max_affine"),
            "lp.min_max_affine_calls": count("lp.min_max_affine"),
            "lp.minimize_s": secs("lp.minimize"),
            "lp.minimize_calls": count("lp.minimize"),
            "lp.minimize_rows": rows,
            "lp.minimize_cols": cols,
            "decomposition.decompose_s": secs(*DECOMPOSE),
            "decomposition.verify_s": secs("decomposition.verify_decomposition"),
            "decomposition.calls": count(*DECOMPOSITION),
            "cli.self_s": secs("cli.main"),
        }

    def _under(self, i: int, name: str, first: int) -> bool:
        parent = self.spans[i][3]
        while parent >= first:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def call_counts(self) -> dict:
        return dict(Counter(span[0] for span in self.spans))

    def dump(self) -> dict:
        """Spans as JSON-ready rows: name, start_ns, end_ns, parent, query."""
        return {"fields": ["name", "start_ns", "end_ns", "parent", "query"],
                "spans": [s[:5] for s in self.spans]}
