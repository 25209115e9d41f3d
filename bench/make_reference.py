"""Write the stored reference outputs of every workload.

    python3 bench/make_reference.py

Runs each workload once per input variant, in this process, and rewrites
every ``bench/reference/<workload>.json``: the CLI workloads store each
report row as [scenario, check, passed, value], ladder-large stores
[rung, quantity, value] for the scalars in ``workloads.LADDER_VALUES``.
Rerun it only in a change whose purpose is to change the output (a
fixed defect, a new check); the diff of the references then shows
exactly which rows moved.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import workloads  # noqa: E402


def _json_value(x: float) -> object:
    return x if math.isfinite(x) else repr(x)


def _cli_rows(workload: str, variant: int, work: str) -> list:
    import shtlab.cli

    report_dir = os.path.join(work, "report")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = shtlab.cli.main(workloads.cli_argv(workload, variant, work, report_dir))
    if rc not in (0, 1):
        raise SystemExit(f"{workload} variant {variant}: CLI exit code {rc}")
    rows = workloads.report_rows(os.path.join(report_dir, "verify.json"))
    failed = sum(1 for r in rows if not r[2])
    print(f"{workload} variant {variant}: {len(rows)} rows, {failed} failed")
    return [[s, c, p, _json_value(v)] for s, c, p, v in rows]


def _ladder_rows(variant: int, work: str) -> list:
    import numpy as np
    import shtlab

    with np.load(os.path.join(work, "inputs.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    outcomes = child.ladder_outcomes(shtlab, arrays, variant)
    failed = [name for name, ok, _detail in workloads.ladder_checks(outcomes, []) if not ok]
    if failed:
        raise SystemExit(f"ladder-large variant {variant}: failed {', '.join(failed)}")
    print(f"ladder-large variant {variant}: {len(outcomes)} rungs")
    return [[rung, q, _json_value(v)] for rung, q, v in workloads.ladder_values(outcomes)]


def reference_for(workload: str) -> dict:
    variants = {}
    for variant in range(workloads.VARIANTS):
        work = os.path.join(HERE, "out", "reference-work", f"{workload}-{variant}")
        shutil.rmtree(work, ignore_errors=True)
        workloads.write_inputs(workload, variant, work)
        if workload in workloads.CLI_WORKLOADS:
            variants[str(variant)] = _cli_rows(workload, variant, work)
        else:
            variants[str(variant)] = _ladder_rows(variant, work)
        gc.collect()
    return {
        "workload": workload,
        "rel_tol": workloads.REL_TOL,
        "abs_tol": workloads.ABS_TOL,
        "variants": variants,
    }


def _dumps(doc: dict) -> str:
    """JSON with one report row per line, so a diff shows the rows that moved."""
    head = {k: v for k, v in doc.items() if k != "variants"}
    parts = [json.dumps(head, sort_keys=True)[:-1] + ', "variants": {']
    blocks = []
    for key, rows in doc["variants"].items():
        body = ",\n  ".join(json.dumps(r) for r in rows)
        blocks.append(f'"{key}": [\n  {body}\n]')
    parts.append(",\n".join(blocks))
    parts.append("}}\n")
    return "\n".join(parts)


def main() -> int:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in workloads.WORKLOADS:
        doc = reference_for(workload)
        with open(os.path.join(HERE, "reference", f"{workload}.json"), "w", encoding="utf-8") as fh:
            fh.write(_dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
