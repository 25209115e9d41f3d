"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They check the harness, not shtlab: metric names, generated inputs,
the reference comparison, span self times and the shape of the result
line.  The last two tests run short stock passes (about 20 s).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_harness():
    doc = _benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_generated_configs_parse(variant):
    from shtlab.config import default_suite, parse_config

    scenarios = parse_config(workloads.chains_config(variant))
    assert [sc.scenario for sc in scenarios] == ["line48-chains", "line96-domination"]
    assert len(parse_config(default_suite(42 + variant))) == 7


def test_inputs_are_a_function_of_the_seed(tmp_path):
    import numpy as np

    workloads.write_inputs("ladder-large", 11, str(tmp_path / "a"))
    workloads.write_inputs("ladder-large", 11, str(tmp_path / "b"))
    workloads.write_inputs("ladder-large", 12, str(tmp_path / "c"))
    load = lambda d: np.load(tmp_path / d / "inputs.npz")  # noqa: E731
    a, b, c = load("a"), load("b"), load("c")
    assert all(np.array_equal(a[k], b[k]) for k in a.files)
    assert not np.array_equal(a["line256.f"], c["line256.f"])


def test_compare_rows_tolerates_rounding_but_not_changed_outcomes():
    ref = [["s", "a", True, 1.0], ["s", "b", False, "inf"], ["s", "a", True, 2e-17]]
    rows = [("s", "a", True, 1.0 + 1e-15), ("s", "b", False, float("inf")), ("s", "a", True, 3e-17)]
    assert workloads.compare_rows(rows, ref) == []
    flipped = [rows[0], ("s", "b", True, float("inf")), rows[2]]
    assert any("passed=True" in p for p in workloads.compare_rows(flipped, ref))
    drifted = [("s", "a", True, 1.001), rows[1], rows[2]]
    assert workloads.compare_rows(drifted, ref)
    assert workloads.compare_rows(rows[:2], ref)


def test_references_cover_every_variant():
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            assert workloads.load_reference(HERE, workload, variant)


def _ladder_outcomes_from(reference):
    """Outcomes that pass every ladder assertion and match `reference`."""
    outcomes = {
        name: {"rung": name, "balls": balls, "pointwise_overshoot": 0.0, "violations": 0}
        for name, _kind, _n, _points, _dyadic, balls in workloads.LADDER_RUNGS
    }
    for rung, quantity, value in reference:
        outcomes[rung][quantity] = float(value)
    return list(outcomes.values())


def test_ladder_values_are_checked_against_the_reference():
    reference = workloads.load_reference(HERE, "ladder-large", 0)
    outcomes = _ladder_outcomes_from(reference)
    checks = workloads.ladder_checks(outcomes, reference)
    assert all(ok for _name, ok, _detail in checks)
    assert len(checks) == 13 + len(reference)
    # C_b(|f|) and [b,M]f both gone to zero still satisfy |[b,M]f| <= C_b(|f|)
    outcomes[0]["cb_sum"] = outcomes[0]["bm_sum"] = 0.0
    failed = {name for name, ok, _detail in workloads.ladder_checks(outcomes, reference) if not ok}
    assert failed == {"line256.value.cb_sum", "line256.value.bm_sum"}
    crashed = workloads.ladder_checks([], reference)
    assert len(crashed) == len(checks) and not any(ok for _name, ok, _detail in crashed)


def test_self_time_subtracts_child_spans():
    import time

    tracer = tracing.Tracer()
    inner = tracer.wrap("operators.maximal_function", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    outer = tracer.wrap("verify.verify_lower_bound", outer_body)
    outer()
    m = tracer.metrics()
    assert m["operators.maximal_calls"] == 1
    assert 0.015 < m["operators.maximal_s"] < 0.2
    assert 0.005 < m["verify.lower_s"] < 0.05
    assert set(m) == {name for name, _unit in tracing.METRICS}


def _last_json_line(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_named_metric(trace):
    doc = _benchmark_json()
    cmd = doc["command"] + ["--workload", "stock", "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    result = _last_json_line(cmd, ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = doc["per_layer"] if trace else doc["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = _benchmark_json()["command"] + ["--workload", "stock", "--seed", "1", "--seconds", "1",
                                          "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
