"""Span and counter recorder for the traced benchmark pass.

``install`` wraps the public functions of every shtlab module, plus the
methods and CLI internals named in ``NAMED``, and rebinds each wrapper
at every name a shtlab module binds the original to (``from .x import
y`` copies the function object into the caller's namespace, so
``shtlab.cli.verify_upper_bound_cb`` is patched as well as
``shtlab.verify.verify_upper_bound_cb``).  Nothing under src/ changes.

Spans stay in memory as [name, start, end, parent, rss0, rss1, tag] and
are reduced once by ``Tracer.metrics`` after the pass.  Times are self
times: a span's duration minus its child spans.  ``_mb`` values are the
rise of the process's RSS high-water mark during the outermost span of
that kind.  The recorder is single-threaded: the benchmark runs the CLI
with its default ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("space", "dyadic", "weights", "operators", "sparse", "verify", "config", "report", "cli")

# span name -> metric stem: the stem's self time is reported as
# "<stem>_s".  Public functions not listed here are still wrapped, so
# their self time lands in "<layer>.self_s" and not in their caller.
NAMED: Dict[str, str] = {
    "space.build_space": "space.build",
    "space.QuasiMetricSpace.canonical_balls": "space.canonical_balls",
    "space.QuasiMetricSpace.ball_mask": "space.ball_masks",
    "space.QuasiMetricSpace.ball_fmask": "space.ball_masks",
    "space.QuasiMetricSpace.ball_measures": "space.ball_masks",
    "space.QuasiMetricSpace.ball_slices": "space.ball_masks",
    "space.QuasiMetricSpace.ball_pointers": "space.ball_masks",
    "space.QuasiMetricSpace.measured_constants": "space.constants",
    "space.QuasiMetricSpace.strong_doubling_exponent": "space.constants",
    "space.QuasiMetricSpace.smallest_covering_ball": "space.covering_ball",
    "dyadic.build_dyadic_system": "dyadic.build_system",
    "dyadic.build_adjacent_systems": "dyadic.adjacent",
    "dyadic.verify_system": "dyadic.verify_system",
    "weights.bmo_norm": "weights.bmo_norm",
    "weights.ap_characteristic": "weights.ap",
    "operators.maximal_function": "operators.maximal",
    "operators.maximal_function_batch": "operators.maximal",
    "operators.CommutatorKernel.__init__": "operators.cb_init",
    "operators.CommutatorKernel.apply": "operators.cb_apply",
    "operators.commutator_bM": "operators.bm",
    "operators.operator_norm_estimate": "operators.norm_estimate",
    "operators.build_probes": "operators.norm_estimate",
    "operators.estimate_from_values": "operators.norm_estimate",
    "operators.region_grand_maximal": "operators.grand_maximal",
    "operators.local_grand_maximal": "operators.grand_maximal",
    "operators.sparse_operator": "operators.sparse_forms",
    "operators.sparse_commutator": "operators.sparse_forms",
    "operators.sparse_commutator_adjoint": "operators.sparse_forms",
    "sparse.build_domination": "sparse.domination",
    "sparse.cz_select": "sparse.cz_select",
    "sparse.certificate_to_dict": "sparse.roundtrip",
    "sparse.evaluate_bound_from_dict": "sparse.roundtrip",
    "sparse.save_certificate": "sparse.roundtrip",
    "verify.verify_upper_bound_cb": "verify.upper_cb",
    "verify.verify_upper_bound_bm": "verify.upper_bm",
    "verify.verify_duality_chain": "verify.duality",
    "verify.verify_lower_bound": "verify.lower",
    "verify.verify_bloom_jn": "verify.jn",
    "verify.fit_weight_exponent": "verify.exponent",
    "config.parse_config": "config.parse",
    "config.load_config": "config.parse",
    "report.write_report": "report.write",
    "report.rows_to_csv": "report.write",
    "report.rows_to_json": "report.write",
}

# (metric, unit), in the order BENCHMARK.json lists them.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("space.build_s", "s"),
    ("space.canonical_balls_s", "s"),
    ("space.ball_masks_s", "s"),
    ("space.constants_s", "s"),
    ("space.covering_ball_s", "s"),
    ("space.self_s", "s"),
    ("space.peak_mb", "MB"),
    ("space.balls", "count"),
    ("space.distinct_balls", "count"),
    ("space.distinct_ratio", "ratio"),
    ("dyadic.build_system_s", "s"),
    ("dyadic.adjacent_s", "s"),
    ("dyadic.verify_system_s", "s"),
    ("dyadic.self_s", "s"),
    ("dyadic.pool_size", "count"),
    ("dyadic.capture_failures", "count"),
    ("dyadic.capture_fraction", "ratio"),
    ("weights.bmo_norm_s", "s"),
    ("weights.bmo_norm_calls", "count"),
    ("weights.ap_s", "s"),
    ("weights.self_s", "s"),
    ("operators.maximal_s", "s"),
    ("operators.maximal_calls", "count"),
    ("operators.cb_init_s", "s"),
    ("operators.cb_inits", "count"),
    ("operators.cb_apply_s", "s"),
    ("operators.cb_applies", "count"),
    ("operators.bm_s", "s"),
    ("operators.bm_calls", "count"),
    ("operators.norm_estimate_s", "s"),
    ("operators.probes", "count"),
    ("operators.distinct_probes", "count"),
    ("operators.probe_dup_share", "ratio"),
    ("operators.grand_maximal_s", "s"),
    ("operators.grand_maximal_calls", "count"),
    ("operators.grand_maximal_mb", "MB"),
    ("operators.sparse_forms_s", "s"),
    ("operators.self_s", "s"),
    ("sparse.domination_s", "s"),
    ("sparse.domination_mb", "MB"),
    ("sparse.recursion_nodes", "count"),
    ("sparse.trees", "count"),
    ("sparse.emitted_cubes", "count"),
    ("sparse.cz_select_s", "s"),
    ("sparse.roundtrip_s", "s"),
    ("sparse.self_s", "s"),
    ("verify.upper_cb_s", "s"),
    ("verify.upper_bm_s", "s"),
    ("verify.duality_s", "s"),
    ("verify.lower_s", "s"),
    ("verify.jn_s", "s"),
    ("verify.exponent_s", "s"),
    ("verify.self_s", "s"),
    ("config.parse_s", "s"),
    ("config.self_s", "s"),
    ("report.write_s", "s"),
    ("report.rows", "count"),
    ("report.failed_rows", "count"),
    ("report.self_s", "s"),
    ("cli.longest_scenario_s", "s"),
    ("cli.parallel_headroom", "ratio"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),  # filled in by the runner
)

# call counts: metric -> stem whose spans are counted
CALL_COUNTS = {
    "weights.bmo_norm_calls": "weights.bmo_norm",
    "operators.maximal_calls": "operators.maximal",
    "operators.cb_inits": "operators.cb_init",
    "operators.cb_applies": "operators.cb_apply",
    "operators.bm_calls": "operators.bm",
    "operators.grand_maximal_calls": "operators.grand_maximal",
}
# high-water rises: metric -> stem (or layer) whose outermost spans count
RISES = {
    "space.peak_mb": "space",
    "operators.grand_maximal_mb": "operators.grand_maximal",
    "sparse.domination_mb": "sparse.domination",
}
BOOKKEEPING = "trace.bookkeeping"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._seen_spaces: "weakref.WeakSet" = weakref.WeakSet()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        tag: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_kb(), 0, None]
            if tag is not None:
                rec[6] = tag(args)
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[5] = _maxrss_kb()
                stack.pop()
            if after is not None:
                self._bookkeep(after, args, result)
            return result

        return wrapper

    def _bookkeep(self, hook: Callable, args, result) -> None:
        """Run a counter hook inside its own span, so the time it takes
        is charged to the tracer and not to the caller's self time."""
        rec = [BOOKKEEPING, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            hook(self, args, result)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- counter hooks ----------------------------------------------------------

    def _on_canonical_balls(self, args, balls) -> None:
        space = args[0]
        if space in self._seen_spaces:
            return
        self._seen_spaces.add(space)
        self.count("space.balls", len(balls))
        self.count("space.distinct_balls", len({hash(b.members.tobytes()) for b in balls}))

    def _on_adjacent(self, args, adj) -> None:
        balls = len(args[0].canonical_balls())
        self.count("dyadic.pool_size", adj.report["pool_size"])
        self.count("dyadic.capture_failures", len(adj.capture_failures))
        self.count("dyadic.scanned_balls", balls)

    def _on_probes(self, args, result) -> None:
        columns = np.ascontiguousarray(result[0].T)
        self.count("operators.probes", len(columns))
        self.count("operators.distinct_probes", len({hash(c.tobytes()) for c in columns}))

    def _on_domination(self, args, cert) -> None:
        self.count("sparse.recursion_nodes", len(cert.nodes))
        self.count("sparse.trees", len(cert.trees))
        self.count("sparse.emitted_cubes", sum(len(fam.cubes) for fam in cert.families))

    def _on_report(self, args, result) -> None:
        rows = args[0]
        self.count("report.rows", len(rows))
        self.count("report.failed_rows", sum(1 for r in rows if not r.passed))

    # -- reduction ----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every metric of METRICS; trace.overhead_share stays 0 here."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        stem_of = [NAMED.get(rec[0]) for rec in spans]
        layer_of = [rec[0].split(".", 1)[0] for rec in spans]

        out: Dict[str, float] = {name: 0.0 for name, _unit in METRICS}
        calls: Dict[str, int] = {}
        for i, rec in enumerate(spans):
            self_s = (rec[2] - rec[1]) - child[i]
            if layer_of[i] in LAYERS:
                out[f"{layer_of[i]}.self_s"] += self_s
            if stem_of[i] is not None:
                out[f"{stem_of[i]}_s"] += self_s
                calls[stem_of[i]] = calls.get(stem_of[i], 0) + 1
        for metric, stem in CALL_COUNTS.items():
            out[metric] = float(calls.get(stem, 0))

        def outermost(i: int, key: str) -> bool:
            p = spans[i][3]
            while p >= 0:
                if stem_of[p] == key or layer_of[p] == key:
                    return False
                p = spans[p][3]
            return True

        for metric, key in RISES.items():
            rise_kb = 0
            for i, rec in enumerate(spans):
                if (stem_of[i] == key or layer_of[i] == key) and outermost(i, key):
                    rise_kb += rec[5] - rec[4]
            out[metric] = rise_kb / 1024.0

        for name, value in self.counters.items():
            if name in out:
                out[name] = value
        balls = out["space.balls"]
        out["space.distinct_ratio"] = out["space.distinct_balls"] / balls if balls else 0.0
        scanned = self.counters.get("dyadic.scanned_balls", 0.0)
        out["dyadic.capture_fraction"] = 1.0 - out["dyadic.capture_failures"] / scanned if scanned else 0.0
        probes = out["operators.probes"]
        out["operators.probe_dup_share"] = 1.0 - out["operators.distinct_probes"] / probes if probes else 0.0

        per_scenario: Dict[str, float] = {}
        for rec in spans:
            if rec[6] is not None:
                per_scenario[rec[6]] = per_scenario.get(rec[6], 0.0) + (rec[2] - rec[1])
        if per_scenario:
            longest = max(per_scenario.values())
            out["cli.longest_scenario_s"] = longest
            out["cli.parallel_headroom"] = sum(per_scenario.values()) / longest if longest > 0 else 0.0
        out["trace.spans"] = float(len(spans))
        return out


# -- installation ---------------------------------------------------------------


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Replace original at every name a shtlab module binds it to."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "shtlab" or modname.startswith("shtlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _scenario_of_ctx(args) -> str:
    return args[0].sc.scenario


def _scenario_of_init(args) -> str:
    return args[1].scenario


def install(tracer: Tracer) -> None:
    """Wrap shtlab's public functions and the NAMED methods in place."""
    hooks = {
        "space.QuasiMetricSpace.canonical_balls": Tracer._on_canonical_balls,
        "dyadic.build_adjacent_systems": Tracer._on_adjacent,
        "operators.build_probes": Tracer._on_probes,
        "sparse.build_domination": Tracer._on_domination,
        "report.write_report": Tracer._on_report,
    }
    for layer in LAYERS:
        mod = importlib.import_module(f"shtlab.{layer}")
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            _rebind(fn, tracer.wrap(name, fn, after=hooks.get(name)))
    for name in NAMED:
        layer, rest = name.split(".", 1)
        if "." not in rest:
            continue
        cls_name, meth = rest.split(".")
        cls = getattr(importlib.import_module(f"shtlab.{layer}"), cls_name)
        fn = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(name, fn, after=hooks.get(name)))

    # per-scenario spans for cli.longest_scenario_s and cli.parallel_headroom
    cli = importlib.import_module("shtlab.cli")
    ctx_cls = cli._ScenarioContext
    ctx_cls.__init__ = tracer.wrap("cli.scenario_context", ctx_cls.__init__, tag=_scenario_of_init)
    for check, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[check] = tracer.wrap(f"cli.check_{check}", fn, tag=_scenario_of_ctx)
