"""shtlab benchmark runner.

    python3 bench/run.py --workload {stock,chains-mid,ladder-large}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed or built).  One runner process runs the
workload's children one at a time:

* several set-up-only children, then whole passes, each a fresh
  interpreter, until ``--seconds`` is spent (at least one pass);
* every pass's output is checked (README.md, "Output checks") before
  its numbers count;
* with ``--trace 0`` the last stdout line holds the end-to-end metrics
  (medians over the run's samples); with ``--trace 1`` untraced and
  traced passes alternate and it holds the per-layer metrics.

The full result, with sample counts and the machine, library and commit
it ran on, goes to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0  # every child is stopped before the run's 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def mem_available_mb() -> float:
    with open("/proc/meminfo", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def child_env() -> Dict[str, str]:
    """The child's environment: the checkout's src/ on the path and no
    more BLAS/OpenMP threads than cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            requested = int(env.get(var, nproc))
        except ValueError:
            requested = nproc
        env[var] = str(max(1, min(requested, nproc)))
    return env


def environment(seed: int, variant: int) -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "mem_total_mb": None,
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "variant": variant,
        "thread_env": {k: v for k, v in sorted(child_env().items()) if k.endswith("_NUM_THREADS")},
    }
    with open("/proc/meminfo", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                info["mem_total_mb"] = int(line.split()[1]) // 1024
    with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    info["git"] = _git_state()
    return info


def _git_state() -> Dict[str, object]:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return {"commit": None, "dirty": None, "note": "not a git checkout"}
    head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
        capture_output=True,
        text=True,
    )
    return {"commit": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


class Run:
    """One workload run: spawns children, checks outputs, keeps samples."""

    def __init__(self, workload: str, seed: int, work: str, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.variant = workloads.variant_of(seed)
        self.reference = workloads.load_reference(HERE, workload, self.variant)
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setups: List[float] = []
        self.checks_attempted = 0
        self.checks_failed = 0
        self.blas_threads = None

    def child(self, mode: str, trace: int) -> Optional[dict]:
        """Run one child; return its result, or None if it failed."""
        self.attempted += 1
        need = workloads.PEAK_MB[self.workload] + workloads.HEADROOM_MB
        if mode == "pass" and mem_available_mb() < need:  # refuse rather than risk the OOM killer
            return self._fail(f"refused: MemAvailable below {need} MB (recorded peak + headroom)")
        tag = f"{self.attempted:03d}-{mode}-t{trace}"
        result_path = os.path.join(self.work, f"{tag}.json")
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--input", self.work, "--result", result_path,
            "--mode", mode, "--trace", str(trace),
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return self._fail(f"{tag}: no time left before the run deadline")
        with open(os.path.join(self.work, f"{tag}.log"), "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd + ["--spawned", repr(spawned)], env=self.env, cwd=ROOT,
                    stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return self._crashed(mode, f"{tag}: stopped at the run deadline")
        try:
            with open(result_path, "r", encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            return self._crashed(mode, f"{tag}: exit {proc.returncode}, no result (see {tag}.log)")
        if "error" in result:
            return self._crashed(mode, f"{tag}: {result['error'].strip().splitlines()[-1]}")
        self.setups.append(result["setup_s"])
        self.blas_threads = result.get("blas_threads")
        if mode == "pass" and not self._check_output(tag, result):
            self.failed += 1
            return None
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        return None

    def _crashed(self, mode: str, message: str) -> None:
        if mode == "pass":
            self._count_crashed_pass()
        return self._fail(message)

    def _count_crashed_pass(self) -> None:
        """A crashed pass fails every check it would have made."""
        if self.workload in workloads.CLI_WORKLOADS:
            n = len(self.reference)
        else:
            n = len(workloads.ladder_checks([], self.reference))
        self.checks_attempted += n
        self.checks_failed += n

    def _check_output(self, tag: str, result: dict) -> bool:
        if self.workload in workloads.CLI_WORKLOADS:
            if result.get("exit_code") not in (0, 1):  # 1 means "a check failed", not a crash
                self._count_crashed_pass()
                self.problems.append(f"{tag}: CLI exit code {result.get('exit_code')}")
                return False
            rows = workloads.report_rows(result["report"])
            self.checks_attempted += len(rows)
            self.checks_failed += sum(1 for r in rows if not r[2])
            problems = workloads.compare_rows(rows, self.reference)
        else:
            checks = workloads.ladder_checks(result["outcomes"], self.reference)
            self.checks_attempted += len(checks)
            self.checks_failed += sum(1 for _name, ok, _detail in checks if not ok)
            problems = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
        self.problems.extend(f"{tag}: {p}" for p in problems[:20])
        return not problems


def measure(run: Run, seconds: float, trace: int) -> Dict[str, object]:
    """Spend `seconds` on set-up samples and whole passes."""
    started = time.monotonic()
    for _ in range(SETUP_SAMPLES):
        run.child("setup", 0)
    walls, raw_walls, peaks, traced_walls, layer_runs, overheads, pass_cost = ([] for _ in range(7))
    while True:
        t0 = time.monotonic()
        res = run.child("pass", 0)
        if res is not None:
            raw_walls.append(res["wall_s"])
            walls.append(res["wall_s"] * workloads.CAL_REF_S / res["cal_s"]
                         if run.workload in workloads.CALIBRATED else res["wall_s"])
            peaks.append(res["peak_rss_mb"])
        if trace:
            traced = run.child("pass", 1)
            if traced is not None:
                traced_walls.append(traced["wall_s"])
                layer_runs.append(traced["layers"])
                if res is not None:  # a pair run back to back shares the CPU's current speed
                    overheads.append(traced["wall_s"] / res["wall_s"] - 1.0)
        pass_cost.append(time.monotonic() - t0)
        if run.failed and not walls:
            break
        if time.monotonic() - started + statistics.median(pass_cost) > seconds:
            break
    return {"walls": walls, "raw_walls": raw_walls, "peaks": peaks, "traced_walls": traced_walls,
            "layer_runs": layer_runs, "overheads": overheads}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shtlab", "__init__.py")):
        print(f"error: no shtlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(OUT, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(args.workload, args.seed, work)
    run = Run(args.workload, args.seed, work, deadline)

    samples = measure(run, args.seconds, args.trace)

    metrics: Dict[str, Dict[str, object]] = {}
    counts: Dict[str, int] = {}
    if samples["walls"]:
        values = {
            "setup_s": statistics.median(run.setups),
            "wall_s": statistics.median(samples["walls"]),
            "peak_rss_mb": statistics.median(samples["peaks"]),
        }
        counts = {"setup_s": len(run.setups), "wall_s": len(samples["walls"]),
                  "peak_rss_mb": len(samples["peaks"])}
        if not args.trace:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        elif samples["overheads"]:
            layers = {
                name: statistics.median([lr[name] for lr in samples["layer_runs"]])
                for name, _unit in tracing.METRICS
            }
            layers["trace.overhead_share"] = statistics.median(samples["overheads"])
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.METRICS}
            counts["layer_passes"] = len(samples["layer_runs"])
            counts["trace.overhead_share"] = len(samples["overheads"])
    fail_share = run.checks_failed / run.checks_attempted if run.checks_attempted else 1.0
    correct = run.failed == 0 and bool(metrics)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, run.variant),
        "blas_threads": run.blas_threads,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "fail_share": {"value": fail_share, "unit": "ratio",
                       "failed_checks": run.checks_failed, "checks": run.checks_attempted},
        "metrics": metrics,
        "samples": {"counts": counts, "setup_s": run.setups, **samples},
    }
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    result_file = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(f"workload {args.workload} seed {args.seed} (variant {run.variant}) -> {result_file}")
    for name, m in metrics.items():
        n = counts.get(name, counts.get("layer_passes", 1))
        note = ""
        if name == "trace.overhead_share":
            note = " traced/untraced pairs" + (
                "; unresolved: one pair cannot tell overhead from CPU speed drift" if n < 2 else ""
            )
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}  (n={n}{note})")
    if args.workload in workloads.CALIBRATED and samples["raw_walls"]:
        print(f"  {'wall_s uncalibrated':32s} {statistics.median(samples['raw_walls']):.6g} s  "
              f"(n={len(samples['raw_walls'])}; wall_s is scaled by the calibration kernel)")
    print(f"  {'fail_share':32s} {fail_share:.6g} ratio  "
          f"({run.checks_failed}/{run.checks_attempted} checks over the run's passes)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
