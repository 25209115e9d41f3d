"""Command-line driver.

Subcommands
  gen-space     build a reference space and save it to JSON
  build-dyadic  build a dyadic cube system for a space and save it
  eval          probe norm estimates for the core operators per scenario
  dominate      sparse domination certificates per scenario
  verify        run the scenario check suites and write reports
  report-merge  merge previously written JSON reports into one

Reports are deterministic for a fixed seed: the CSV carries no
metadata, and the JSON metadata holds the wall-clock runtime under
``runtime_s`` only, so byte comparisons that drop that one field see
identical runs.  A check that raises becomes one failed ``<check>.error``
row (``context.error`` when the scenario's inputs cannot be built) and
the other checks still run.  Exit codes: 0 all checks passed, 1 at least
one check failed (reports are still written), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .config import (
    ConfigError,
    ScenarioConfig,
    default_suite,
    load_config,
    make_function,
    make_space,
    make_symbol,
    make_weight,
    parse_config,
)
from .dyadic import (
    build_adjacent_systems,
    build_dyadic_system,
    save_system,
    verify_system,
)
from .operators import (
    estimate_from_values,
    probe_images,
    sparse_commutator,
    sparse_commutator_adjoint,
    sparse_operator,
)
from .report import ReportRow, merge_rows, row_from_entry, rows_from_json, write_report
from .space import build_space, save_space
from .sparse import (
    build_domination,
    certificate_to_dict,
    cz_select,
    evaluate_bound_from_dict,
    oscillation_domination,
    save_certificate,
)
from .verify import (
    _eq_entry,
    fit_weight_exponent,
    verify_bloom_jn,
    verify_duality_chain,
    verify_lower_bound,
    verify_upper_bound_bm,
    verify_upper_bound_cb,
)
from .weights import ap_characteristic, bloom_weight, dual_weight

CHECK_ORDER = (
    "system",
    "domination",
    "oscillation",
    "upper",
    "lower",
    "jn",
    "exponent",
    "identities",
)
SUITE_CHOICES = ("all",) + CHECK_ORDER


class _ScenarioContext:
    """Deterministically derived inputs for one scenario, built lazily."""

    def __init__(self, sc: ScenarioConfig) -> None:
        self.sc = sc
        self.space = make_space(sc)
        self.lam1 = make_weight(self.space, sc, "lambda1")
        self.lam2 = make_weight(self.space, sc, "lambda2")
        self.nu = bloom_weight(self.lam1, self.lam2, sc.p)
        self.b = make_symbol(self.space, sc)
        self.f = make_function(self.space, sc)
        self._system = None
        self._adjacent = None
        self._cz = None

    @property
    def system(self):
        if self._system is None:
            self._system = build_dyadic_system(self.space, self.sc.delta, seed=self.sc.seed)
        return self._system

    @property
    def adjacent(self):
        if self._adjacent is None:
            self._adjacent = build_adjacent_systems(
                self.space, self.sc.delta, self.sc.t_count, seed=self.sc.seed
            )
        return self._adjacent

    @property
    def cz_family(self):
        """Stopping cubes of |f| at 0.8 times its global average."""
        if self._cz is None:
            absf = np.abs(self.f)
            mean = float((absf * self.space.mass).sum() / self.space.total_mass)
            self._cz = [] if mean <= 0 else cz_select(self.system, absf, 0.8 * mean)
        return self._cz


def _flag_row(scenario: str, check: str, ok: bool, witness: str = "") -> ReportRow:
    return ReportRow(scenario, check, "exact", 0.0 if ok else 1.0, 0.0, bool(ok), witness)


def _finite_row(
    scenario: str, check: str, value: float, witness: str = "", cap: float = math.inf
) -> ReportRow:
    value = float(value)
    ok = math.isfinite(value) and value <= cap
    return ReportRow(scenario, check, "ratio", value, cap, ok, witness)


def _deficit_row(
    scenario: str, check: str, quantity: float, floor: float, witness: str = ""
) -> ReportRow:
    """Pass when quantity >= floor, reported as deficit <= 0."""
    deficit = float(floor) - float(quantity)
    return ReportRow(scenario, check, "ratio", deficit, 0.0, deficit <= 0.0, witness)


def _check_system(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    rep = verify_system(ctx.system, ctx.space)
    nviol = len(rep["violations"])
    rows = [
        ReportRow(
            sc.scenario,
            "system.violations",
            "exact",
            float(nviol),
            0.0,
            nviol == 0,
            witness="" if nviol == 0 else repr(rep["violations"][:3]),
        ),
        _flag_row(sc.scenario, "system.sandwich", rep["sandwich_ok"]),
        _flag_row(sc.scenario, "system.monotone", rep["monotone_ok"]),
        _finite_row(sc.scenario, "system.c1", rep["c1"]),
        _finite_row(sc.scenario, "system.C1", rep["containment_C1"]),
        _finite_row(sc.scenario, "system.max_children", rep["M"]),
    ]
    adj = ctx.adjacent
    shortfall = 1.0 - adj.capture_fraction
    cap = sc.tol("capture_shortfall", 0.01)
    rows.append(
        ReportRow(
            sc.scenario,
            "adjacent.capture_shortfall",
            "ratio",
            shortfall,
            cap,
            shortfall <= cap,
            witness=f"failures={len(adj.capture_failures)}",
        )
    )
    rows.append(
        _finite_row(
            sc.scenario,
            "adjacent.capture_constant",
            adj.capture_constant,
            witness=f"t_count={adj.report['t_count']}",
        )
    )
    rows.append(
        _flag_row(
            sc.scenario,
            "adjacent.t_within_bound",
            bool(adj.report["within_bound"]),
            witness=f"bound={adj.report['bound']:.6g}",
        )
    )
    return rows


def _check_domination(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    space = ctx.space
    support = np.flatnonzero(ctx.f != 0.0)
    if support.size == 0:
        support = np.arange(space.n)
    root = space.smallest_covering_ball(support)
    cert = build_domination(space, ctx.adjacent, ctx.b, ctx.f, root)
    ctx.certificate = cert

    rows = [
        ReportRow(
            sc.scenario,
            "domination.exceptional",
            "exact",
            float(len(cert.exceptional)),
            0.0,
            len(cert.exceptional) == 0,
        ),
        _flag_row(sc.scenario, "domination.complete", not cert.partial),
        _finite_row(
            sc.scenario,
            "domination.c_emp",
            cert.c_emp,
            witness=f"trees={len(cert.trees)}",
        ),
    ]
    etas = [fam.eta_certified for fam in cert.families]
    min_eta = min(etas) if etas else 1.0
    rows.append(
        _deficit_row(
            sc.scenario,
            "domination.eta_deficit",
            min_eta,
            sc.tol("eta_floor", 0.05),
            witness=f"eta={min_eta:.6g} families={len(cert.families)}",
        )
    )

    # re-evaluate the certificate from its serialized form and confirm
    # both the bit-exact round trip and the pointwise domination
    doc = certificate_to_dict(cert)
    bound2 = evaluate_bound_from_dict(space, doc, ctx.b, ctx.f)
    drift = float(np.abs(bound2 - cert.bound).max()) if space.n else 0.0
    rows.append(
        ReportRow(
            sc.scenario,
            "domination.roundtrip",
            "exact",
            drift,
            0.0,
            drift == 0.0,
        )
    )
    cb = cert.cb
    rhs = cert.c_emp * bound2 if math.isfinite(cert.c_emp) else bound2
    live = ~np.isin(np.arange(space.n), cert.exceptional)
    scale = max(1.0, float(np.abs(cb).max()), float(np.abs(rhs[live]).max()) if live.any() else 0.0)
    overshoot = float(np.maximum(cb[live] - rhs[live], 0.0).max() / scale) if live.any() else 0.0
    tol = sc.tol("exact", 1e-12)
    rows.append(
        ReportRow(
            sc.scenario,
            "domination.pointwise",
            "exact",
            overshoot,
            tol,
            overshoot <= tol,
        )
    )
    return rows


def _check_oscillation(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    osc = oscillation_domination(ctx.system, ctx.cz_family, ctx.b)
    fam = osc["S_tilde"]
    keys = {(c.k, c.alpha) for c in fam.cubes}
    missing = sum(1 for c in ctx.cz_family if (c.k, c.alpha) not in keys)
    return [
        ReportRow(
            sc.scenario,
            "oscillation.contains_input",
            "exact",
            float(missing),
            0.0,
            missing == 0,
            witness=f"input={len(ctx.cz_family)} family={len(fam.cubes)}",
        ),
        _flag_row(
            sc.scenario,
            "oscillation.packing",
            bool(osc["packing_ok"]),
            witness=f"eta={fam.eta_certified:.6g} floor={osc['packing_floor']:.6g}",
        ),
        _finite_row(sc.scenario, "oscillation.c_emp", osc["c_emp"]),
    ]


def _check_upper(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    rows: List[ReportRow] = []
    rep_cb = verify_upper_bound_cb(
        ctx.space,
        ctx.b,
        ctx.lam1,
        ctx.lam2,
        sc.p,
        probes=sc.probes,
        seed=sc.seed,
        ball_cap=sc.ball_cap,
        rho_cap=sc.rho_cap,
    )
    witness = "vacuous" if rep_cb["vacuous"] else str(rep_cb["estimate_witness"])
    rows.extend(row_from_entry(sc.scenario, e, witness=witness) for e in rep_cb["entries"])
    rep_bm = verify_upper_bound_bm(
        ctx.space,
        ctx.b,
        ctx.lam1,
        ctx.lam2,
        sc.p,
        probes=sc.probes,
        seed=sc.seed,
        ball_cap=sc.ball_cap,
        rho_cap=sc.rho_cap,
        tol=sc.tol("exact", 1e-12),
    )
    rows.extend(row_from_entry(sc.scenario, e) for e in rep_bm["entries"])
    chain = verify_duality_chain(
        ctx.space,
        ctx.system,
        ctx.cz_family,
        ctx.b,
        ctx.lam2,
        ctx.nu,
        sc.p,
        g_probes=min(sc.probes, 6),
        seed=sc.seed,
        f=ctx.f,
        tol_exact=sc.tol("exact", 1e-12),
        tol_holder=sc.tol("holder", 1e-9),
    )
    chain_witness = "vacuous" if chain["vacuous"] else f"family={chain['family_size']}"
    rows.extend(row_from_entry(sc.scenario, e, witness=chain_witness) for e in chain["entries"])
    return rows


def _check_lower(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    rep = verify_lower_bound(
        ctx.space,
        ctx.b,
        ctx.lam1,
        ctx.lam2,
        sc.p,
        probes=sc.probes,
        seed=sc.seed,
        ball_cap=sc.ball_cap,
        tol_exact=sc.tol("exact", 1e-12),
        tol_holder=sc.tol("holder", 1e-9),
    )
    witness = (
        "vacuous"
        if rep["vacuous"]
        else f"balls={rep['probed_balls']}/{rep['ball_count']} est={rep['estimate_witness']}"
    )
    return [row_from_entry(sc.scenario, e, witness=witness) for e in rep["entries"]]


def _check_jn(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    rows = []
    for r in sc.r_values:
        rep = verify_bloom_jn(ctx.space, ctx.b, ctx.lam1, ctx.lam2, sc.p, r)
        witness = f"r={r:g} branch={rep['branch']} worst_ball={rep['worst_ball']}"
        rows.extend(row_from_entry(sc.scenario, e, witness=witness) for e in rep["entries"])
    return rows


def _check_exponent(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    cap48 = sc.ball_cap if sc.ball_cap is not None else 48
    fit = fit_weight_exponent(
        ctx.space,
        ctx.system,
        ctx.b,
        sc.p,
        seed=sc.seed,
        probes=sc.probes,
        ball_cap=cap48,
    )
    rows = []
    for op in ("sparse", "cb", "bm"):
        info = fit["ops"][op]
        fitted = info["status"] == "ok"
        rows.append(
            ReportRow(
                sc.scenario,
                f"exponent.{op}_slope",
                "fit",
                info["slope"] if fitted else (0.0 if info["passed"] else math.inf),
                fit["cap"],
                info["passed"],
                witness=(
                    f"stderr={info['stderr']:.3g} points={info['points']}"
                    if fitted
                    else info["status"]
                ),
            )
        )
    rows.append(
        _deficit_row(
            sc.scenario,
            "exponent.host_eta_deficit",
            fit["eta_host"],
            sc.tol("eta_floor", 0.05),
            witness=f"eta={fit['eta_host']:.6g} spread={fit['spread']:.3g}",
        )
    )
    return rows


def _check_identities(ctx: _ScenarioContext) -> List[ReportRow]:
    sc = ctx.sc
    space = ctx.space
    pprime = sc.p / (sc.p - 1.0)
    tol_dual = sc.tol("ap_duality", 1e-9)
    rows = []
    for role, w in (("lambda1", ctx.lam1), ("lambda2", ctx.lam2)):
        apv = ap_characteristic(space, w, sc.p).value
        dualv = ap_characteristic(space, dual_weight(w, sc.p), pprime).value
        expect = apv ** (pprime - 1.0)
        dev = abs(dualv - expect) / max(1.0, abs(expect))
        rows.append(
            ReportRow(
                sc.scenario,
                f"identities.ap_duality_{role}",
                "exact",
                dev,
                tol_dual,
                dev <= tol_dual,
                witness=f"ap={apv:.6g}",
            )
        )

    cubes = ctx.system.all_cubes()
    rng = np.random.default_rng([sc.seed, 9])
    u = rng.standard_normal(space.n)
    v = rng.standard_normal(space.n)
    m = space.mass
    tol = sc.tol("exact", 1e-12)

    Auv = sparse_operator(space, cubes, np.stack([u, v], axis=1)).values
    self_adjoint = _eq_entry(
        "identities.sparse_self_adjoint",
        float((Auv[:, 0] * v * m).sum()),
        float((u * Auv[:, 1] * m).sum()),
        tol,
    )
    pairing = _eq_entry(
        "identities.commutator_pairing",
        float((sparse_commutator(space, cubes, ctx.b, u).values * v * m).sum()),
        float((u * sparse_commutator_adjoint(space, cubes, ctx.b, v).values * m).sum()),
        tol,
    )
    rows += [row_from_entry(sc.scenario, e) for e in (self_adjoint, pairing)]
    return rows


def _check_eval(ctx: _ScenarioContext) -> List[ReportRow]:
    """Probe norm estimates for the four operators of interest."""
    sc = ctx.sc
    space = ctx.space
    cubes = ctx.system.all_cubes()
    F, labels, mf, cb, bm = probe_images(space, ctx.b, sc.probes, sc.seed, sc.ball_cap)
    images = {
        "maximal": mf,
        "commutator_kernel": cb,
        "commutator_bM": bm,
        "sparse": sparse_operator(space, cubes, F).values,
    }
    rows = []
    for name, values in images.items():
        est, idx = estimate_from_values(space, values, F, ctx.lam1, ctx.lam2, sc.p)
        witness = f"{labels[idx]} probes={F.shape[1]}"
        rows.append(_finite_row(sc.scenario, f"eval.{name}_norm", est, witness=witness))
    return rows


_RUNNERS: Dict[str, Callable[[_ScenarioContext], List[ReportRow]]] = {
    "system": _check_system,
    "domination": _check_domination,
    "oscillation": _check_oscillation,
    "upper": _check_upper,
    "lower": _check_lower,
    "jn": _check_jn,
    "exponent": _check_exponent,
    "identities": _check_identities,
}


# -- suite orchestration -------------------------------------------------------


def _resolve_scenarios(args) -> List[ScenarioConfig]:
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ConfigError("--seed", "must be nonnegative")
    if getattr(args, "config", None):
        scenarios = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            for i, sc in enumerate(scenarios):
                sc.seed = int(args.seed) + i
    else:
        seed = args.seed if getattr(args, "seed", None) is not None else 42
        scenarios = parse_config(default_suite(int(seed)))
    return scenarios


def _isolated(scenario: str, check: str, run: Callable[[], List[ReportRow]]) -> List[ReportRow]:
    """run()'s rows, or one failed ``<check>.error`` row naming the
    exception (its traceback goes to stderr)."""
    try:
        return run()
    except Exception as exc:
        traceback.print_exc()
        witness = f"{type(exc).__name__}: {exc}"
        return [ReportRow(scenario, f"{check}.error", "exact", 1.0, 0.0, False, witness)]


def _run_scenarios(
    scenarios: Sequence[ScenarioConfig],
    step: Callable[[_ScenarioContext], List[ReportRow]],
) -> List[ReportRow]:
    """Run step on each scenario's context in order; rows merge in
    scenario order.  Steps isolate their checks, so what raises here is
    the context."""
    return merge_rows(
        [_isolated(sc.scenario, "context", lambda: step(_ScenarioContext(sc))) for sc in scenarios]
    )


def _emit(rows: List[ReportRow], args, command: str, started: float) -> int:
    meta = {
        "command": command,
        "scenarios": sorted({r.scenario for r in rows}),
        "seed": getattr(args, "seed", None),
        "suite": getattr(args, "suite", None),
        "runtime_s": round(time.perf_counter() - started, 3),
    }
    out_dir = args.out if getattr(args, "out", None) else "reports"
    paths = write_report(rows, out_dir, name=command, meta=meta)
    failed = sum(1 for r in rows if not r.passed)
    print(f"{len(rows)} checks, {failed} failed -> {paths['csv']}")
    if failed:
        for r in rows:
            if not r.passed:
                print(f"FAIL {r.scenario} {r.check} value={r.value:.6g}")
        return 1
    return 0


# -- subcommands ---------------------------------------------------------------


def _cmd_gen_space(args) -> int:
    space = build_space(args.kind, args.n, seed=args.seed or 0)
    save_space(space, args.out)
    print(f"wrote {args.out}: kind={args.kind} points={space.n}")
    return 0


def _cmd_build_dyadic(args) -> int:
    space = build_space(args.kind, args.n, seed=args.seed or 0)
    system = build_dyadic_system(space, args.delta, seed=args.seed or 0)
    save_system(system, args.out)
    print(
        f"wrote {args.out}: levels={len(system.levels)} "
        f"c1={system.measured_c1:.6g} C1={system.containment_C1:.6g}"
    )
    return 0


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    scenarios = _resolve_scenarios(args)

    def step(ctx: _ScenarioContext) -> List[ReportRow]:
        return _isolated(ctx.sc.scenario, "eval", lambda: _check_eval(ctx))

    return _emit(_run_scenarios(scenarios, step), args, "eval", started)


def _cmd_dominate(args) -> int:
    started = time.perf_counter()
    scenarios = _resolve_scenarios(args)
    out_dir = args.out if args.out else "reports"
    os.makedirs(out_dir, exist_ok=True)

    def run(ctx: _ScenarioContext) -> List[ReportRow]:
        rows = _check_domination(ctx)
        path = os.path.join(out_dir, f"{ctx.sc.scenario}-certificate.json")
        save_certificate(ctx.certificate, path)
        return rows

    def step(ctx: _ScenarioContext) -> List[ReportRow]:
        return _isolated(ctx.sc.scenario, "domination", lambda: run(ctx))

    return _emit(_run_scenarios(scenarios, step), args, "dominate", started)


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    scenarios = _resolve_scenarios(args)
    wanted = set(CHECK_ORDER if args.suite == "all" else (args.suite,))

    def step(ctx: _ScenarioContext) -> List[ReportRow]:
        rows: List[ReportRow] = []
        for name in CHECK_ORDER:
            if name in ctx.sc.checks and name in wanted:
                rows.extend(_isolated(ctx.sc.scenario, name, lambda: _RUNNERS[name](ctx)))
        return rows

    return _emit(_run_scenarios(scenarios, step), args, "verify", started)


def _cmd_report_merge(args) -> int:
    started = time.perf_counter()
    groups = []
    for path in args.inputs:
        with open(path, "r", encoding="utf-8") as fh:
            groups.append(rows_from_json(fh.read()))
    rows = merge_rows(groups)
    return _emit(rows, args, "merged", started)


def _add_scenario_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (default: built-in suite)")
    sub.add_argument("--seed", type=int, default=None, help="override scenario seeds")
    sub.add_argument("--out", default=None, help="report directory (default: reports)")
    sub.add_argument(
        "--jobs", type=int, default=1, help="deprecated and ignored; scenarios run in order"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shtlab",
        description="finite homogeneous-type spaces: dyadic grids, maximal "
        "commutators, sparse domination, and two-weight verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-space", help="build and save a reference space")
    g.add_argument("--kind", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_space)

    d = subs.add_parser("build-dyadic", help="build and save a dyadic system")
    d.add_argument("--kind", required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--delta", type=float, default=0.5)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_build_dyadic)

    e = subs.add_parser("eval", help="probe norm estimates per scenario")
    _add_scenario_args(e)
    e.set_defaults(func=_cmd_eval)

    dom = subs.add_parser("dominate", help="sparse domination certificates")
    _add_scenario_args(dom)
    dom.set_defaults(func=_cmd_dominate)

    v = subs.add_parser("verify", help="run the verification suites")
    _add_scenario_args(v)
    v.add_argument("--suite", choices=SUITE_CHOICES, default="all")
    v.set_defaults(func=_cmd_verify)

    m = subs.add_parser("report-merge", help="merge JSON reports")
    m.add_argument("inputs", nargs="+", help="input report JSON files")
    m.add_argument("--out", default=None, help="report directory (default: reports)")
    m.set_defaults(func=_cmd_report_merge)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
