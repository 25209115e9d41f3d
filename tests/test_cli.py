"""Command-line interface: subcommands, exit codes, report files, and
byte determinism of the emitted reports."""

import json
import math
import os
import subprocess
import sys

import pytest

from shtlab.cli import main
from shtlab.config import make_function, make_space, make_symbol, parse_config
from shtlab.dyadic import load_system
from shtlab.report import ReportRow, json_bytes_without_runtime, rows_from_json, rows_to_json
from shtlab.space import load_space
from shtlab.sparse import evaluate_bound_from_dict


def _small_config(tmp_path, **over):
    doc = {
        "scenarios": [
            {
                "scenario": "pair-a",
                "space": {"kind": "pair"},
                "seed": 3,
                "p": 2.0,
                "symbol": {"kind": "log_coord"},
                "function": {"kind": "ones"},
                "checks": ["system", "upper", "identities"],
            },
            {
                "scenario": "line16-b",
                "space": {"kind": "line", "n": 16},
                "seed": 4,
                "p": 2.0,
                "lambda1": {"kind": "lognormal", "sigma": 0.3},
                "lambda2": {"kind": "lognormal", "sigma": 0.3},
                "symbol": {"kind": "abs_wave"},
                "function": {"kind": "lognormal"},
                "checks": ["system", "domination", "oscillation", "jn"],
            },
        ]
    }
    for key, value in over.items():
        doc["scenarios"][1][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestVerifyCommand:
    def test_green_run_writes_reports_and_exits_zero(self, tmp_path, capsys):
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "0 failed" in stdout
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        assert rows and all(r.passed for r in rows)
        assert {r.scenario for r in rows} == {"pair-a", "line16-b"}
        csv_text = _read(os.path.join(out, "verify.csv")).decode()
        assert csv_text.startswith("scenario,check,kind,value,threshold,passed\n")
        assert f"{len(rows)} checks" in stdout

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = _small_config(tmp_path)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(["verify", "--config", cfg, "--out", out1]) == 0
        assert main(["verify", "--config", cfg, "--out", out2]) == 0
        assert _read(os.path.join(out1, "verify.csv")) == _read(
            os.path.join(out2, "verify.csv")
        )
        assert json_bytes_without_runtime(
            _read(os.path.join(out1, "verify.json")).decode()
        ) == json_bytes_without_runtime(_read(os.path.join(out2, "verify.json")).decode())

    @pytest.mark.parametrize("command", ["verify", "eval", "dominate"])
    def test_jobs_flag_exits_two(self, tmp_path, capsys, command):
        # the flag was ignored for a release after its thread pool went
        out = tmp_path / "reports"
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_suite_filter_limits_rows(self, tmp_path):
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--suite", "system", "--out", out]) == 0
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        assert rows
        assert all(
            r.check.startswith("system.") or r.check.startswith("adjacent.")
            for r in rows
        )

    def test_failing_threshold_exits_one_with_partial_report(self, tmp_path, capsys):
        cfg = _small_config(
            tmp_path,
            checks=["upper"],
            rho_cap=1e-9,  # impossible bar: force FAIL rows
        )
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--out", out]) == 1
        stdout = capsys.readouterr().out
        assert "FAIL line16-b" in stdout
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        assert any(not r.passed for r in rows)
        assert any(r.passed for r in rows)  # the healthy scenario still reports

    def test_raising_check_becomes_an_error_row(self, tmp_path, monkeypatch):
        import shtlab.cli as cli

        def broken(ctx):
            raise RuntimeError("jn exploded")

        monkeypatch.setitem(cli._RUNNERS, "jn", broken)
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--out", out]) == 1
        assert os.path.exists(os.path.join(out, "verify.csv"))
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        errors = [r for r in rows if r.check.endswith(".error")]
        assert [(r.scenario, r.check) for r in errors] == [("line16-b", "jn.error")]
        err = errors[0]
        assert (err.kind, err.value, err.threshold, err.passed) == ("exact", 1.0, 0.0, False)
        assert err.witness == "RuntimeError: jn exploded"
        checks = {r.check for r in rows if r.scenario == "line16-b"}
        assert {"system.violations", "domination.pointwise", "oscillation.c_emp"} <= checks
        assert all(r.passed for r in rows if r is not err)

    def test_context_failure_becomes_an_error_row(self, tmp_path, monkeypatch):
        import shtlab.cli as cli

        def broken(space, sc):
            raise ValueError(f"no symbol for {sc.scenario}")

        monkeypatch.setattr(cli, "make_symbol", broken)
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--out", out]) == 1
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        assert [(r.scenario, r.check, r.witness) for r in rows] == [
            ("line16-b", "context.error", "ValueError: no symbol for line16-b"),
            ("pair-a", "context.error", "ValueError: no symbol for pair-a"),
        ]

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"scenario": "x", "space": {"kind": "line", "n": 8}, "seed": 1, "p": 1.0}),
            encoding="utf-8",
        )
        assert main(["verify", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: scenario.p: must exceed 1"

    def test_non_finite_literal_exits_two(self, tmp_path, capsys):
        # json reads NaN as a float, which no range check alone rejects
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"scenario": "x", "space": {"kind": "line", "n": 8}, "seed": 1, "p": NaN}',
            encoding="utf-8",
        )
        out = tmp_path / "reports"
        assert main(["verify", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == "error: scenario.p: must be a finite number"
        assert not out.exists()

    def test_space_above_point_cap_exits_two(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        doc = {"scenario": "big", "space": {"kind": "grid2d", "n": 65}, "seed": 1}
        big.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "reports"
        assert main(["verify", "--config", str(big), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario.space.n: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "eval", "dominate"])
    @pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, command, content):
        path = tmp_path / "config.json"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        elif content is not None:
            path.write_bytes(content)
        out = tmp_path / "reports"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --config: cannot read ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, field", [({"checks": []}, "checks"), ({"r_values": []}, "r_values")]
    )
    def test_config_requesting_nothing_exits_two(self, tmp_path, capsys, over, field):
        cfg = _small_config(tmp_path, **over)
        out = tmp_path / "reports"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: scenarios[1].{field}: ")
        assert not out.exists()

    def test_unknown_space_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        doc = {"scenario": "x", "space": {"kind": "line", "n": 8, "file": "x.json"}, "seed": 1}
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "reports"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == "error: scenario.space.file: unknown field"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "eval", "dominate"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        out = tmp_path / "reports"
        assert main([command, "--seed", "-5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == "error: --seed: must be nonnegative"
        cfg = _small_config(tmp_path)
        assert main([command, "--config", cfg, "--seed", "-5", "--out", str(out)]) == 2
        assert not out.exists()

    def test_seed_override_is_recorded(self, tmp_path):
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--seed", "99", "--out", out]) == 0
        doc = json.loads(_read(os.path.join(out, "verify.json")).decode())
        assert doc["meta"]["seed"] == 99
        assert doc["meta"]["command"] == "verify"
        assert doc["meta"]["scenarios"] == ["line16-b", "pair-a"]
        assert "runtime_s" in doc["meta"]

    def test_constant_symbol_exponent_rows_are_vacuous(self, tmp_path):
        # C_b of a constant symbol is exactly 0 and [b, M] is 0 up to
        # rounding: neither has a slope to fit
        scenarios = [
            {
                "scenario": name,
                "space": space,
                "seed": seed,
                "p": 2.0,
                "symbol": symbol,
                "function": {"kind": "lognormal"},
                "checks": ["upper", "jn", "exponent", "lower"],
            }
            for name, space, seed, symbol in (
                ("line32-const", {"kind": "line", "n": 32}, 1, {"kind": "constant"}),
                ("grid-const", {"kind": "grid2d", "n": 6}, 2, {"kind": "constant", "value": 3}),
            )
        ]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
        out = str(tmp_path / "reports")
        main(["verify", "--config", str(path), "--out", out])
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        for scenario in ("line32-const", "grid-const"):
            by_check = {r.check: r for r in rows if r.scenario == scenario}
            assert by_check["exponent.sparse_slope"].passed
            for op in ("cb", "bm"):
                row = by_check[f"exponent.{op}_slope"]
                assert (row.value, row.witness, row.passed) == (0.0, "vacuous", True)
        # the default constant 1 passes every row
        assert all(r.passed for r in rows if r.scenario == "line32-const")

    def test_constant_symbol_lower_chain_passes(self, tmp_path):
        # on a constant 3 the oscillation sums are rounding noise while
        # the median residuals and the probe estimate are exactly 0
        scenario = {
            "scenario": "grid-const",
            "space": {"kind": "grid2d", "n": 6},
            "seed": 2,
            "p": 2.0,
            "symbol": {"kind": "constant", "value": 3},
            "function": {"kind": "lognormal"},
            "checks": ["lower"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenarios": [scenario]}), encoding="utf-8")
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", str(path), "--out", out]) == 0
        rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        by_check = {r.check: r for r in rows}
        for check in ("lower.median_doubling", "lower.bmo_vs_estimate"):
            assert (by_check[check].value, by_check[check].passed) == (0.0, True)
        assert all(r.passed for r in rows)


class TestOtherCommands:
    def test_gen_space_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "space.json")
        assert main(["gen-space", "--kind", "line", "--n", "8", "--out", out]) == 0
        assert "points=8" in capsys.readouterr().out
        space = load_space(out)
        assert space.n == 8

    def test_build_dyadic_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "system.json")
        assert main(
            ["build-dyadic", "--kind", "line", "--n", "8", "--delta", "0.5", "--out", out]
        ) == 0
        assert "levels=" in capsys.readouterr().out
        from shtlab.space import build_space

        system = load_system(build_space("line", 8), out)
        assert system.space.n == 8

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["gen-space", "--kind", "blob", "--n", "8"], "--kind"),
            (["gen-space", "--kind", "line", "--n", "1"], "--n"),
            (["gen-space", "--kind", "grid2d", "--n", "65"], "--n"),
            (["build-dyadic", "--kind", "blob", "--n", "8"], "--kind"),
            (["build-dyadic", "--kind", "tree", "--n", "5000"], "--n"),
            (["build-dyadic", "--kind", "line", "--n", "8", "--delta", "1.5"], "--delta"),
            (["build-dyadic", "--kind", "line", "--n", "8", "--delta", "0"], "--delta"),
        ],
    )
    def test_bad_flag_exits_two_naming_it(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out.json"
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects a --kind outside its choices
            code = exc.code
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_point_cap_is_checked_before_allocating(self, tmp_path, capsys):
        # a line of 10**6 points needs an 8 TB distance matrix
        out = tmp_path / "space.json"
        assert main(["gen-space", "--kind", "line", "--n", str(10**6), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: --n: 1000000 points exceed the cap 4096"
        )
        assert not out.exists()

    def test_eval_emits_norm_rows(self, tmp_path):
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["eval", "--config", cfg, "--out", out]) == 0
        rows = rows_from_json(_read(os.path.join(out, "eval.json")).decode())
        names = {r.check for r in rows}
        assert names == {
            "eval.maximal_norm",
            "eval.commutator_kernel_norm",
            "eval.commutator_bM_norm",
            "eval.sparse_norm",
        }
        assert len(rows) == 8  # four estimates for each of two scenarios

    def test_dominate_saves_certificates(self, tmp_path):
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["dominate", "--config", cfg, "--out", out]) == 0
        for scenario in ("pair-a", "line16-b"):
            path = os.path.join(out, f"{scenario}-certificate.json")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            assert {"families", "bound", "c_emp", "exceptional"} <= set(doc)
            assert doc["exceptional"] == []

    @pytest.mark.parametrize(
        "function", [{"kind": "ball", "center": 5, "radius": 0.2}, {"kind": "point", "index": 7}]
    )
    def test_dominate_covers_a_localized_function_with_several_trees(self, tmp_path, function):
        # f lives on one ball or one point, so the root ball is not the
        # whole space and the annulus cover adds trees around it
        doc = {
            "scenarios": [
                {
                    "scenario": "line32-local",
                    "space": {"kind": "line", "n": 32},
                    "seed": 5,
                    "p": 2.0,
                    "symbol": {"kind": "log_coord"},
                    "function": function,
                    "checks": ["domination"],
                }
            ]
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        texts = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["dominate", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append((out / "line32-local-certificate.json").read_text(encoding="utf-8"))
            rows = rows_from_json(_read(os.path.join(out, "dominate.json")).decode())
            assert all(r.passed for r in rows)
            assert any(r.check == "domination.roundtrip" for r in rows)
        assert texts[0] == texts[1]
        cert = json.loads(texts[0])
        assert len(cert["trees"]) > 1
        assert len({(t["trunc_center"], t["trunc_radius"]) for t in cert["trees"]}) > 1
        # the stored bound is recomputed bit for bit from the stored cubes
        (sc,) = parse_config(doc)
        space = make_space(sc)
        bound = evaluate_bound_from_dict(space, cert, make_symbol(space, sc), make_function(space, sc))
        assert [float(v) for v in bound] == cert["bound"]

    def test_report_merge(self, tmp_path):
        cfg = _small_config(tmp_path)
        out = str(tmp_path / "reports")
        assert main(["verify", "--config", cfg, "--suite", "system", "--out", out]) == 0
        assert main(["eval", "--config", cfg, "--out", out]) == 0
        merged_dir = str(tmp_path / "merged")
        assert (
            main(
                [
                    "report-merge",
                    os.path.join(out, "verify.json"),
                    os.path.join(out, "eval.json"),
                    "--out",
                    merged_dir,
                ]
            )
            == 0
        )
        verify_rows = rows_from_json(_read(os.path.join(out, "verify.json")).decode())
        eval_rows = rows_from_json(_read(os.path.join(out, "eval.json")).decode())
        merged = rows_from_json(_read(os.path.join(merged_dir, "merged.json")).decode())
        assert len(merged) == len(verify_rows) + len(eval_rows)
        assert [r.scenario for r in merged] == sorted(r.scenario for r in merged)

    @pytest.mark.parametrize(
        "row, content, message",
        [
            (None, None, "cannot read: "),
            (None, b"\xff\xfe", "cannot read: "),
            (None, "{not json", "not valid JSON: "),
            ({"check": None}, None, "rows[1].check: missing"),  # None drops the field
            ({"kind": "vibes"}, None, "rows[1].kind: must be one of"),
            ({"value": [0.5]}, None, "rows[1].value: must be a number"),
            # value 0.5 <= threshold 1.0 stored as failed, and the reverse
            ({"passed": False}, None, "rows[1].passed: stored false, but value 0.5 against threshold 1.0 passes"),
            ({"value": 2.0}, None, "rows[1].passed: stored true, but value 2.0 against threshold 1.0 fails"),
        ],
    )
    def test_report_merge_bad_input_exits_two(self, tmp_path, capsys, row, content, message):
        good = tmp_path / "good.json"
        good.write_text(rows_to_json([ReportRow("a", "c.one", "ratio", 0.5, 1.0)] * 2), encoding="utf-8")
        bad = tmp_path / "bad.json"
        if row is not None:
            doc = json.loads(good.read_text(encoding="utf-8"))
            doc["rows"][1].update(row)
            doc["rows"][1] = {k: v for k, v in doc["rows"][1].items() if v is not None}
            bad.write_text(json.dumps(doc), encoding="utf-8")
        elif isinstance(content, str):
            bad.write_text(content, encoding="utf-8")
        elif content is not None:
            bad.write_bytes(content)
        out = tmp_path / "merged"
        assert main(["report-merge", str(good), str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "eval", "dominate"])
def test_every_seed42_row_obeys_the_verdict_rule(tmp_path, capsys, command):
    """Each row passes exactly when its value is finite and at most its
    threshold, in the CSV and in the JSON; and report-merge of the JSON
    writes the same CSV byte for byte."""
    out, merged = tmp_path / "out", tmp_path / "merged"
    assert main([command, "--seed", "42", "--out", str(out)]) == 0
    csv_text = _read(os.path.join(out, f"{command}.csv")).decode()
    lines = csv_text.splitlines()[1:]
    doc = json.loads(_read(os.path.join(out, f"{command}.json")))
    assert lines and len(lines) == len(doc["rows"])
    for line, row in zip(lines, doc["rows"]):
        value, threshold, passed = line.split(",")[3:]
        value, threshold = float(value), float(threshold)
        assert passed == ("true" if math.isfinite(value) and value <= threshold else "false")
        value, threshold = float(row["value"]), float(row["threshold"])
        assert row["passed"] is (math.isfinite(value) and value <= threshold)
    assert main(["report-merge", os.path.join(out, f"{command}.json"), "--out", str(merged)]) == 0
    assert _read(os.path.join(merged, "merged.csv")).decode() == csv_text


# ROADMAP item 1: on a ball where the symbol is constant, deviation_sums
# leaves rounding noise over an exactly zero median residual.  Any other
# failed row is a plain failure, not this xfail.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="tree15-branching lower.median_doubling reports inf (ROADMAP item 1)",
)
@pytest.mark.parametrize("seed", [0, 1, 4, 5, 45])
def test_stock_suite_passes_at_seed(tmp_path, seed):
    code = main(["verify", "--seed", str(seed), "--out", str(tmp_path)])
    rows = rows_from_json(_read(os.path.join(tmp_path, "verify.json")).decode())
    failed = [(r.scenario, r.check) for r in rows if not r.passed]
    if set(failed) - {("tree15-branching", "lower.median_doubling")}:
        pytest.fail(f"unexpected failed rows {failed}")
    assert code == 0 and not failed


_NUMPY_MA_SCRIPT = """
import sys
from shtlab.cli import main
from shtlab.config import make_function, make_space, make_symbol, parse_config
code = main(["verify", "--seed", "42", "--out", sys.argv[1]])
print(code, "numpy.ma" in sys.modules)
"""


def test_verify_leaves_numpy_ma_unimported(tmp_path):
    # numpy's set routines import numpy.ma on first use, which costs
    # more than a whole small scenario
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if bare.stdout.strip() == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
