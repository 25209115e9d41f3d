"""Scenario configuration: strict parsing with field-path errors,
round trips, seeded generators, and the stock suite."""

import numpy as np
import pytest

from shtlab.config import (
    CHECK_NAMES,
    ConfigError,
    ScenarioConfig,
    config_to_dict,
    default_suite,
    load_config,
    make_function,
    make_space,
    make_symbol,
    make_weight,
    parse_config,
    save_config,
)
from shtlab.space import MAX_POINTS


def _minimal(**over):
    doc = {"scenario": "t", "space": {"kind": "line", "n": 8}, "seed": 1}
    doc.update(over)
    return doc


def _err(doc):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    return info.value


class TestParsing:
    def test_single_scenario_document(self):
        out = parse_config(_minimal())
        assert len(out) == 1
        sc = out[0]
        assert sc.scenario == "t" and sc.seed == 1
        assert sc.p == 2.0 and sc.delta == 0.5 and sc.t_count == 3
        assert sc.checks == [c for c in CHECK_NAMES if c != "exponent"]

    def test_missing_required_field(self):
        exc = _err({"scenario": "t", "space": {"kind": "pair"}})
        assert exc.field == "scenario.seed"
        assert str(exc) == "scenario.seed: required field is missing"

    def test_unknown_field(self):
        assert _err(_minimal(bogus=1)).field == "scenario.bogus"

    def test_wrong_type_and_bool_rejection(self):
        assert _err(_minimal(seed="7")).field == "scenario.seed"
        assert _err(_minimal(seed=True)).field == "scenario.seed"
        assert _err(_minimal(p=True)).field == "scenario.p"
        assert _err(_minimal(checks="system")).field == "scenario.checks"

    def test_numeric_ranges(self):
        assert _err(_minimal(p=1.0)).field == "scenario.p"
        assert _err(_minimal(delta=0.0)).field == "scenario.delta"
        assert _err(_minimal(delta=1.0)).field == "scenario.delta"
        assert _err(_minimal(t_count=0)).field == "scenario.t_count"
        assert _err(_minimal(probes=0)).field == "scenario.probes"

    def test_space_validation(self):
        assert _err(_minimal(space={"kind": "moebius"})).field == "scenario.space.kind"
        assert _err(_minimal(space={"kind": "line"})).field == "scenario.space.n"
        assert _err(_minimal(space={"kind": "line", "n": 1})).field == "scenario.space.n"
        # the two-point space needs no size
        assert parse_config(_minimal(space={"kind": "pair"}))[0].space["kind"] == "pair"

    def test_space_size_within_point_cap(self):
        assert _err(_minimal(space={"kind": "grid2d", "n": 65})).field == "scenario.space.n"
        too_long = {"kind": "line", "n": MAX_POINTS + 1}
        assert _err(_minimal(space=too_long)).field == "scenario.space.n"
        assert parse_config(_minimal(space={"kind": "grid2d", "n": 64}))[0].space["n"] == 64

    def test_scenario_id_characters(self):
        # ids name CSV rows and certificate files
        for bad in ("a,b\nc", "two words", "dir/name", ""):
            assert _err(_minimal(scenario=bad)).field == "scenario.scenario"
        assert parse_config(_minimal(scenario="line-16_v1.2"))[0].scenario == "line-16_v1.2"

    def test_role_kind_validation(self):
        assert _err(_minimal(lambda1={"kind": "cauchy"})).field == "scenario.lambda1.kind"
        assert _err(_minimal(symbol={"kind": "noise"})).field == "scenario.symbol.kind"
        assert _err(_minimal(function={"kind": "dirac"})).field == "scenario.function.kind"
        assert (
            _err(_minimal(symbol={"kind": "constant", "value": -1.0})).field
            == "scenario.symbol.value"
        )

    def test_r_values_bound_applies_only_with_jn_enabled(self):
        # p = 2 has conjugate exponent 2, so r = 2.5 overshoots the
        # allowed slack — but only scenarios running the jn check care.
        bad = _minimal(r_values=[1.0, 2.5], checks=["jn"])
        assert _err(bad).field == "scenario.r_values[1]"
        ok = parse_config(_minimal(r_values=[1.0, 2.5], checks=["system"]))
        assert ok[0].r_values == [1.0, 2.5]
        assert _err(_minimal(r_values=[0.5])).field == "scenario.r_values[0]"

    def test_checks_and_tolerances(self):
        assert _err(_minimal(checks=["system", "vibes"])).field == "scenario.checks[1]"
        assert (
            _err(_minimal(tolerances={"exact": 0.0})).field
            == "scenario.tolerances.exact"
        )

    # one entry per value the generators and checks cannot use: the
    # override and the field the error names
    REJECTED = [
        ({"seed": -3}, "scenario.seed"),
        ({"ball_cap": 0}, "scenario.ball_cap"),
        ({"ball_cap": -1}, "scenario.ball_cap"),
        ({"symbol": {"kind": "abs_wave", "frq": 3}}, "scenario.symbol.frq"),
        ({"lambda1": {"kind": "ones", "sigma": 0.4}}, "scenario.lambda1.sigma"),
        ({"function": {"kind": "point", "center": 0}}, "scenario.function.center"),
        ({"lambda2": {"kind": "power", "a": "half"}}, "scenario.lambda2.a"),
        ({"symbol": {"kind": "abs_wave", "freq": None}}, "scenario.symbol.freq"),
        ({"symbol": {"kind": "abs_wave", "freq": float("nan")}}, "scenario.symbol.freq"),
        ({"function": {"kind": "ball", "radius": True}}, "scenario.function.radius"),
        ({"symbol": {"kind": "constant", "value": "1"}}, "scenario.symbol.value"),
        ({"lambda1": {"kind": "lognormal", "sigma": -1}}, "scenario.lambda1.sigma"),
        ({"function": {"kind": "signed_lognormal", "sigma": -0.5}}, "scenario.function.sigma"),
        ({"function": {"kind": "point", "index": "x"}}, "scenario.function.index"),
        ({"function": {"kind": "point", "index": 2.0}}, "scenario.function.index"),
        ({"function": {"kind": "ball", "center": 1.5}}, "scenario.function.center"),
        ({"tolerances": {"exactt": 1e-10}}, "scenario.tolerances.exactt"),
        # JSON reads NaN and Infinity as floats
        ({"p": float("nan")}, "scenario.p"),
        ({"p": float("inf")}, "scenario.p"),
        ({"rho_cap": float("nan")}, "scenario.rho_cap"),
        ({"rho_cap": float("inf")}, "scenario.rho_cap"),
        ({"rho_cap": 0}, "scenario.rho_cap"),
        ({"rho_cap": -1.0}, "scenario.rho_cap"),
        ({"r_values": [float("nan")]}, "scenario.r_values[0]"),
        ({"r_values": [1.0, float("inf")], "checks": ["system"]}, "scenario.r_values[1]"),
        ({"r_values": [True]}, "scenario.r_values[0]"),
        ({"tolerances": {"exact": float("nan")}}, "scenario.tolerances.exact"),
        ({"tolerances": {"holder": float("inf")}}, "scenario.tolerances.holder"),
        # a JSON int beyond float range
        ({"p": 10**400}, "scenario.p"),
        ({"delta": -(10**400)}, "scenario.delta"),
    ]

    @pytest.mark.parametrize("over, field", REJECTED)
    def test_unusable_values_name_their_field(self, over, field):
        assert _err(_minimal(**over)).field == field

    def test_every_known_parameter_parses(self):
        sc = parse_config(
            _minimal(
                seed=0,
                ball_cap=1,
                lambda1={"kind": "lognormal", "mu": -0.5, "sigma": 0},
                lambda2={"kind": "power", "a": -0.3},
                symbol={"kind": "abs_wave", "freq": 2},
                function={"kind": "ball", "center": -1, "radius": 0.3},
                tolerances={
                    "exact": 1e-10,
                    "holder": 1e-8,
                    "ap_duality": 1e-8,
                    "capture_shortfall": 0.02,
                    "eta_floor": 0.1,
                },
            )
        )[0]
        assert sc.seed == 0 and sc.ball_cap == 1
        assert parse_config(_minimal(ball_cap=None))[0].ball_cap is None
        for kind, key, val in (("point", "index", -2), ("lognormal", "sigma", 1.5)):
            assert parse_config(_minimal(function={"kind": kind, key: val}))[0].function[key] == val
        assert parse_config(_minimal(symbol={"kind": "constant", "value": 0}))[0].symbol["value"] == 0

    def test_scenarios_wrapper(self):
        exc = _err({"scenarios": [_minimal(), _minimal(p=0.5)]})
        assert exc.field == "scenarios[1].p"
        assert _err({"scenarios": []}).field == "scenarios"
        assert _err({"scenarios": [_minimal()], "extra": 1}).field == "extra"

    def test_duplicate_scenario_ids(self):
        exc = _err({"scenarios": [_minimal(), _minimal()]})
        assert exc.field == "scenarios[1].scenario"
        assert "duplicate" in str(exc)

    def test_non_object_document(self):
        assert _err([1, 2]).field == "scenario"


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        first = parse_config(default_suite(42))
        doc = config_to_dict(first)
        second = parse_config(doc)
        assert [sc.to_dict() for sc in first] == [sc.to_dict() for sc in second]

    def test_file_round_trip(self, tmp_path):
        scenarios = parse_config(default_suite(7))
        path = tmp_path / "suite.json"
        save_config(scenarios, str(path))
        loaded = load_config(str(path))
        assert [sc.to_dict() for sc in loaded] == [sc.to_dict() for sc in scenarios]


class TestGenerators:
    def _sc(self, **over):
        return parse_config(_minimal(**over))[0]

    def test_space_factory(self):
        sc = self._sc(space={"kind": "grid2d", "n": 3})
        space = make_space(sc)
        assert space.n == 9  # grid side 3 -> 9 atoms

    def test_weight_kinds(self):
        sc = self._sc(
            lambda1={"kind": "lognormal", "sigma": 0.4},
            lambda2={"kind": "power", "a": 0.3},
        )
        space = make_space(sc)
        w1 = make_weight(space, sc, "lambda1")
        assert np.all(w1 > 0)
        assert np.array_equal(w1, make_weight(space, sc, "lambda1"))  # same stream
        w2 = make_weight(space, sc, "lambda2")
        assert np.array_equal(w2, (space.dist[0] + 1.0 / space.n) ** 0.3)
        ones = make_weight(space, self._sc(), "lambda1")
        assert np.array_equal(ones, np.ones(space.n))

    def test_role_streams_are_independent(self):
        # The lambda1 draw is keyed by role, so reseeding another role's
        # spec never shifts it.
        a = self._sc(lambda1={"kind": "lognormal"}, function={"kind": "point"})
        b = self._sc(lambda1={"kind": "lognormal"}, function={"kind": "lognormal"})
        space = make_space(a)
        assert np.array_equal(
            make_weight(space, a, "lambda1"), make_weight(space, b, "lambda1")
        )
        # distinct roles with identical specs still draw different values
        c = self._sc(lambda1={"kind": "lognormal"}, lambda2={"kind": "lognormal"})
        assert not np.array_equal(
            make_weight(space, c, "lambda1"), make_weight(space, c, "lambda2")
        )

    def test_symbol_kinds(self):
        space = make_space(self._sc())
        const = make_symbol(space, self._sc(symbol={"kind": "constant", "value": 2.5}))
        assert np.array_equal(const, np.full(space.n, 2.5))
        log_coord = make_symbol(space, self._sc(symbol={"kind": "log_coord"}))
        assert np.array_equal(log_coord, np.log1p(space.dist[0] * space.n))
        wave = make_symbol(space, self._sc(symbol={"kind": "abs_wave", "freq": 1.1}))
        assert np.array_equal(wave, np.abs(np.sin(1.1 * space.n * space.dist[0])))
        lognorm = make_symbol(space, self._sc(symbol={"kind": "abs_lognormal"}))
        assert np.all(lognorm > 0)

    def test_function_kinds(self):
        space = make_space(self._sc())
        point = make_function(space, self._sc(function={"kind": "point", "index": 10}))
        want = np.zeros(space.n)
        want[10 % space.n] = 1.0
        assert np.array_equal(point, want)
        ball = make_function(
            space, self._sc(function={"kind": "ball", "center": 0, "radius": 0.3})
        )
        members = space.ball_at(0, 0.3).members
        assert set(np.flatnonzero(ball).tolist()) == set(members.tolist())
        signed = make_function(
            space,
            parse_config(_minimal(space={"kind": "line", "n": 64},
                                  function={"kind": "signed_lognormal"}))[0],
        )
        assert (signed > 0).any() and (signed < 0).any()

    def test_seed_changes_draws(self):
        space = make_space(self._sc())
        one = make_function(space, self._sc(function={"kind": "lognormal"}))
        two = make_function(space, self._sc(function={"kind": "lognormal"}, seed=2))
        assert not np.array_equal(one, two)


class TestDefaultSuite:
    def test_parses_to_seven_scenarios(self):
        scenarios = parse_config(default_suite(42))
        assert [sc.scenario for sc in scenarios] == [
            "pair-smoke",
            "line16-core",
            "line32-two-weight",
            "sqline16-quasi",
            "tree15-branching",
            "grid4-euclidean",
            "line64-exponent",
        ]
        assert all(set(sc.checks) <= set(CHECK_NAMES) for sc in scenarios)
        assert scenarios[0].seed == 42 and scenarios[6].seed == 48

    def test_every_check_is_covered(self):
        scenarios = parse_config(default_suite(42))
        covered = set()
        for sc in scenarios:
            covered.update(sc.checks)
        assert covered == set(CHECK_NAMES)

    def test_tol_helper(self):
        sc = ScenarioConfig(
            scenario="t", space={"kind": "pair"}, seed=0, tolerances={"exact": 1e-10}
        )
        assert sc.tol("exact", 1e-12) == 1e-10
        assert sc.tol("other", 0.25) == 0.25
