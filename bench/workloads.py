"""Workload definitions for the shtlab benchmark.

Three workloads, each chosen to load a different layer (see README.md):

  stock         the CLI ``verify`` on the built-in suite
  chains-mid    the CLI ``verify`` on a generated two-scenario config
  ladder-large  a library pipeline at large n, one kernel per rung

Inputs come from the workload seed.  The seed selects one of
``VARIANTS`` input variants, so every input the benchmark can generate
has a stored reference output (``reference/<workload>.json``, written by
``make_reference.py``): report rows for the CLI workloads, a few scalars
per rung for the ladder.  The program only sees the generated files: the
config, the CLI arguments and the ``.npz`` arrays.

This module is imported by the runner and by the child; it does not
import shtlab, so the runner's checks stay independent of the program.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("stock", "chains-mid", "ladder-large")
CLI_WORKLOADS = ("stock", "chains-mid")
VARIANTS = 8

# Peak RSS of one pass, measured on a 2-core, 7 GB machine.  line128
# domination alone reaches 4.9 GB, so the rungs and scenarios must not
# grow without re-measuring these.
PEAK_MB = {"stock": 70, "chains-mid": 2300, "ladder-large": 1200}
HEADROOM_MB = 512

# On a small shared VM the CPU's speed drifts by 15-25% over minutes, and
# the stock pass (2-3 s of interpreter and small-array numpy work) follows
# it, so its raw ten-run spread reaches the 0.25 bound.  For these
# workloads a pass's wall_s sample is its wall time times CAL_REF_S / cal_s,
# where cal_s is child.calibrate() timed just before and after the pass:
# seconds at the speed that gives the kernel CAL_REF_S.  The memory-bound
# ladder does not follow the kernel's swings, so it keeps raw wall time.
CALIBRATED = ("stock",)
CAL_REF_S = 0.12

# Reports print repr(float); a reordered sum legitimately moves a value
# by about 1e-15 relative, and "exact" rows hold deviations near 1e-16.
REL_TOL = 1e-6
ABS_TOL = 1e-12

LADDER_DELTA = 0.5
LADDER_T_COUNT = 3
LADDER_P = 2.0
LADDER_JN_R = 1.0
LADDER_CAPTURE_FLOOR = 0.99
LADDER_POINTWISE_TOL = 1e-12
# Scalars of a rung stored in reference/ladder-large.json and compared with
# values_close, so a rung's numbers are checked, not only their relations.
# capture_fraction exists only on the rungs that run the dyadic steps.
LADDER_VALUES = ("mf_sum", "cb_sum", "bm_sum", "c_jn", "capture_fraction")
# (name, space kind, n, points, run the dyadic steps, frozen canonical ball count)
LADDER_RUNGS: Tuple[Tuple[str, str, int, int, bool, int], ...] = (
    ("line256", "line", 256, 256, True, 49280),
    ("grid16", "grid2d", 16, 256, True, 22224),
    ("line384", "line", 384, 384, False, 133929),
)


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def chains_config(variant: int) -> Dict[str, object]:
    """Two scenarios: probe-driven chains at line48 and domination at line96."""
    return {
        "scenarios": [
            {
                "scenario": "line48-chains",
                "space": {"kind": "line", "n": 48},
                "seed": 42 + variant,
                "p": 2.0,
                "lambda1": {"kind": "lognormal", "sigma": 0.4},
                "lambda2": {"kind": "lognormal", "sigma": 0.4},
                "symbol": {"kind": "abs_wave"},
                "function": {"kind": "lognormal"},
                "checks": [
                    "system", "domination", "oscillation", "upper", "lower", "jn", "identities",
                ],
            },
            {
                "scenario": "line96-domination",
                "space": {"kind": "line", "n": 96},
                "seed": 142 + variant,
                "symbol": {"kind": "log_coord"},
                "function": {"kind": "lognormal"},
                "checks": ["system", "domination"],
            },
        ]
    }


def cli_argv(workload: str, variant: int, input_dir: str, out_dir: str) -> List[str]:
    """The ``shtlab`` arguments of one CLI pass (default --jobs)."""
    if workload == "stock":
        return ["verify", "--seed", str(42 + variant), "--out", out_dir]
    if workload == "chains-mid":
        return ["verify", "--config", os.path.join(input_dir, "config.json"), "--out", out_dir]
    raise ValueError(f"{workload} is not a CLI workload")


def write_inputs(workload: str, seed: int, input_dir: str) -> Dict[str, object]:
    """Generate the workload's inputs into input_dir; return the spec."""
    os.makedirs(input_dir, exist_ok=True)
    variant = variant_of(seed)
    spec: Dict[str, object] = {"workload": workload, "seed": int(seed), "variant": variant}
    if workload == "chains-mid":
        with open(os.path.join(input_dir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(chains_config(variant), fh, indent=1, sort_keys=True)
    elif workload == "ladder-large":
        import numpy as np

        rng = np.random.default_rng([20201201, variant])
        arrays = {}
        for name, _kind, _n, points, _dyadic, _balls in LADDER_RUNGS:
            arrays[f"{name}.b"] = np.exp(0.5 * rng.standard_normal(points))
            arrays[f"{name}.f"] = rng.lognormal(0.0, 1.0, points)
            arrays[f"{name}.lam1"] = rng.lognormal(0.0, 0.4, points)
            arrays[f"{name}.lam2"] = rng.lognormal(0.0, 0.4, points)
        np.savez(os.path.join(input_dir, "inputs.npz"), **arrays)
    elif workload != "stock":
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(input_dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    return spec


# -- output checks ---------------------------------------------------------------


def report_rows(report_path: str) -> List[Tuple[str, str, bool, float]]:
    with open(report_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    # float() also reads the "inf"/"nan" strings the report writes for non-finite values
    return [(r["scenario"], r["check"], bool(r["passed"]), float(r["value"])) for r in doc["rows"]]


def _keyed(rows: Sequence[Tuple[str, str, bool, float]]) -> Dict[Tuple[str, str, int], Tuple[bool, float]]:
    """(scenario, check, occurrence) -> (passed, value); a check name can
    repeat within a scenario (one jn row per r value)."""
    seen: Dict[Tuple[str, str], int] = {}
    out = {}
    for scenario, check, passed, value in rows:
        k = seen.get((scenario, check), 0)
        seen[(scenario, check)] = k + 1
        out[(scenario, check, k)] = (passed, value)
    return out


def values_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare_rows(
    rows: Sequence[Tuple[str, str, bool, float]],
    reference: Sequence[Sequence[object]],
) -> List[str]:
    """Mismatches between a report and its reference: the same
    (scenario, check, passed) rows, the same row count, and values within
    REL_TOL/ABS_TOL.  An empty list means the output is correct."""
    ref_rows = [(str(s), str(c), bool(p), float(v)) for s, c, p, v in reference]
    problems = []
    if len(rows) != len(ref_rows):
        problems.append(f"row count {len(rows)} != reference {len(ref_rows)}")
    got, want = _keyed(rows), _keyed(ref_rows)
    for key in sorted(set(got) | set(want)):
        if key not in got:
            problems.append(f"missing row {key[0]} {key[1]}")
        elif key not in want:
            problems.append(f"unexpected row {key[0]} {key[1]}")
        else:
            (gp, gv), (wp, wv) = got[key], want[key]
            if gp != wp:
                problems.append(f"{key[0]} {key[1]} passed={gp}, reference passed={wp}")
            elif not values_close(gv, wv):
                problems.append(f"{key[0]} {key[1]} value={gv!r}, reference {wv!r}")
    return problems


def load_reference(bench_dir: str, workload: str, variant: int) -> List[List[object]]:
    with open(os.path.join(bench_dir, "reference", f"{workload}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)["variants"][str(variant)]


def ladder_values(outcomes: Sequence[Dict[str, object]]) -> List[List[object]]:
    """The [rung, quantity, value] rows stored in reference/ladder-large.json."""
    return [[o["rung"], q, o[q]] for o in outcomes for q in LADDER_VALUES if q in o]


def ladder_checks(
    outcomes: Sequence[Dict[str, object]],
    reference: Sequence[Sequence[object]],
) -> List[Tuple[str, bool, str]]:
    """The benchmark's own assertions on the ladder-large pass, and its
    values against the reference rows.  A rung that raised fails every
    assertion it owns."""
    by_name = {o["rung"]: o for o in outcomes}
    refs: Dict[str, List[Tuple[str, float]]] = {}
    for rung, quantity, value in reference:
        refs.setdefault(str(rung), []).append((str(quantity), float(value)))
    checks: List[Tuple[str, bool, str]] = []
    for name, _kind, _n, _points, dyadic, balls in LADDER_RUNGS:
        o = by_name.get(name, {"error": "rung did not run"})
        owned = ["balls", "pointwise", "jn_finite"] + (["capture", "system"] if dyadic else [])
        owned += [f"value.{q}" for q, _want in refs.get(name, [])]
        if "error" in o:
            checks.extend((f"{name}.{c}", False, str(o["error"])) for c in owned)
            continue
        checks.append((f"{name}.balls", o["balls"] == balls, f"{o['balls']} (frozen {balls})"))
        checks.append(
            (
                f"{name}.pointwise",
                o["pointwise_overshoot"] <= LADDER_POINTWISE_TOL,
                f"|[b,M]f| - C_b(|f|) overshoot {o['pointwise_overshoot']!r}",
            )
        )
        checks.append((f"{name}.jn_finite", math.isfinite(o["c_jn"]), f"c_jn {o['c_jn']!r}"))
        if dyadic:
            checks.append(
                (
                    f"{name}.capture",
                    o["capture_fraction"] >= LADDER_CAPTURE_FLOOR,
                    f"capture_fraction {o['capture_fraction']!r}",
                )
            )
            checks.append(
                (f"{name}.system", o["violations"] == 0, f"{o['violations']} violations")
            )
        for q, want in refs.get(name, []):
            got = float(o.get(q, math.nan))
            checks.append(
                (f"{name}.value.{q}", values_close(got, want), f"{q} {got!r}, reference {want!r}")
            )
    return checks
