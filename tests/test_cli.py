"""Command-line interface: subcommands, exit codes, report files, and
byte determinism of the emitted reports."""

import json
import os

import pytest

from shtlab.cli import main
from shtlab.dyadic import load_system
from shtlab.report import json_bytes_without_runtime, rows_from_json
from shtlab.space import load_space


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

    def test_parallel_run_matches_serial_bytes(self, tmp_path):
        # --jobs is accepted and ignored: scenarios run in order either way
        cfg = _small_config(tmp_path)
        out1, out2 = str(tmp_path / "serial"), str(tmp_path / "par")
        assert main(["verify", "--config", cfg, "--out", out1]) == 0
        assert main(["verify", "--config", cfg, "--out", out2, "--jobs", "4"]) == 0
        assert _read(os.path.join(out1, "verify.csv")) == _read(
            os.path.join(out2, "verify.csv")
        )

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
