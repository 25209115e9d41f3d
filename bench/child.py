"""One benchmark child process: set-up, then (in pass mode) one pass.

    python3 bench/child.py --workload W --input DIR --result FILE
        --mode setup|pass --trace 0|1 --spawned T

The runner (run.py) starts a fresh interpreter per sample so that set-up time
and ru_maxrss belong to one pass.  ``--spawned`` is the runner's
``time.monotonic()`` just before the spawn; set-up ends when the first
scenario (CLI) or rung (ladder) is about to start.  The child writes
one JSON result file and exits 0, or 3 if the pass raised.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402  (bench/ is the script directory)


class _SetupDone(Exception):
    """Raised at the first scenario to end a set-up-only sample."""


def _import_program():
    sys.path.insert(0, SRC)
    import shtlab
    import shtlab.cli

    where = os.path.realpath(shtlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"shtlab imported from {where}, not from {SRC}")
    return shtlab


def calibrate() -> float:
    """Seconds of a fixed mix of interpreter and numpy work that does not
    touch shtlab.  Timed next to a pass, it tracks the speed the CPU runs
    at just then (see workloads.CALIBRATED)."""
    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc += (i * 7) % 13
        table[i & 1023] = acc
    a = np.random.default_rng(0).random((2048, 256))
    low = a <= 0.5
    for _ in range(12):
        c = np.cumsum(a, axis=1)
        c[low] = -np.inf
        c.max(axis=0)
    return time.perf_counter() - t0


def _run_cli(spec, args, result) -> None:
    import shtlab.cli as cli

    marks = {}
    run_scenarios = cli._run_scenarios
    calibrated = args.mode == "pass" and args.workload in workloads.CALIBRATED

    def marked(*a, **k):
        marks["ready"] = time.monotonic()
        if args.mode == "setup":
            raise _SetupDone
        if calibrated:
            marks["cal"] = [calibrate()]
        marks["t0"] = time.perf_counter()
        return run_scenarios(*a, **k)

    cli._run_scenarios = marked
    out_dir = os.path.join(args.input, "report")
    argv = workloads.cli_argv(args.workload, spec["variant"], args.input, out_dir)
    try:
        rc = cli.main(argv)
    except _SetupDone:
        rc = None
    end = time.perf_counter()
    if calibrated and "cal" in marks:
        marks["cal"].append(calibrate())
        result["cal_s"] = sum(marks["cal"]) / 2
    if "ready" not in marks:
        raise RuntimeError(f"the CLI returned {rc} before running any scenario")
    result["setup_s"] = marks["ready"] - args.spawned
    if args.mode == "pass":
        result["wall_s"] = end - marks["t0"]
        result["exit_code"] = rc
        result["report"] = os.path.join(out_dir, "verify.json")


def _ladder_rung(shtlab, np, rung, arrays, adjacent_seed):
    name, kind, n, _points, dyadic, _balls = rung
    b, f = arrays[f"{name}.b"], arrays[f"{name}.f"]
    lam1, lam2 = arrays[f"{name}.lam1"], arrays[f"{name}.lam2"]
    out = {"rung": name}
    t0 = time.perf_counter()
    space = shtlab.build_space(kind, n)
    out["balls"] = len(space.canonical_balls())
    space.measured_constants()
    space.smallest_covering_ball(np.arange(space.n))
    if dyadic:
        adj = shtlab.build_adjacent_systems(
            space, workloads.LADDER_DELTA, workloads.LADDER_T_COUNT, seed=adjacent_seed
        )
        out["capture_fraction"] = float(adj.capture_fraction)
        out["violations"] = len(shtlab.verify_system(adj.systems[0], space)["violations"])
    out["mf_sum"] = float(np.sum(shtlab.maximal_function(space, f).values))
    cb = shtlab.CommutatorKernel(space, b).apply(np.abs(f)).values
    bm = shtlab.commutator_bM(space, b, f)
    out["cb_sum"] = float(np.sum(cb))
    out["bm_sum"] = float(np.sum(bm))
    scale = max(1.0, float(np.abs(cb).max()))
    out["pointwise_overshoot"] = float(np.maximum(np.abs(bm) - cb, 0.0).max() / scale)
    jn = shtlab.verify_bloom_jn(space, b, lam1, lam2, workloads.LADDER_P, workloads.LADDER_JN_R)
    out["c_jn"] = float(jn["c_jn"])
    out["wall_s"] = time.perf_counter() - t0
    return out


def ladder_outcomes(shtlab, arrays, variant: int) -> list:
    """Run every ladder rung; a crashed rung is a failed rung, not a crashed pass."""
    import numpy as np

    outcomes = []
    for rung in workloads.LADDER_RUNGS:
        try:
            outcomes.append(_ladder_rung(shtlab, np, rung, arrays, variant))
        except Exception as exc:
            outcomes.append({"rung": rung[0], "error": f"{type(exc).__name__}: {exc}"})
    return outcomes


def _run_ladder(shtlab, spec, args, result) -> None:
    import numpy as np

    with np.load(os.path.join(args.input, "inputs.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    result["setup_s"] = time.monotonic() - args.spawned
    if args.mode == "setup":
        return
    t0 = time.perf_counter()
    result["outcomes"] = ladder_outcomes(shtlab, arrays, spec["variant"])
    result["wall_s"] = time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--input", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    result = {"mode": args.mode, "trace": args.trace}
    code = 0
    try:
        shtlab = _import_program()
        with open(os.path.join(args.input, "spec.json"), "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        if args.workload in workloads.CLI_WORKLOADS:
            _run_cli(spec, args, result)
        else:
            _run_ladder(shtlab, spec, args, result)
        if tracer is not None and args.mode == "pass":
            result["layers"] = tracer.metrics()
        result["blas_threads"] = _blas_threads()
    except Exception:
        result["error"] = traceback.format_exc()
        code = 3
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"library": os.path.basename(path), "threads": int(fn())}
    return None


if __name__ == "__main__":
    sys.exit(main())
