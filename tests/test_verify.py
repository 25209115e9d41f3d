"""Verification harness: two-weight norm ratios, the duality-chain
audit, the testing-function lower bound, the weighted John-Nirenberg
comparison, and the power-weight exponent sweep."""

import numpy as np
import pytest

import oracles
from shtlab import (
    CommutatorKernel,
    ap_characteristic,
    bloom_weight,
    bmo_norm,
    build_dyadic_system,
    build_space,
    commutator_bM,
    cz_select,
    fit_weight_exponent,
    verify_bloom_jn,
    verify_duality_chain,
    verify_lower_bound,
    verify_upper_bound_bm,
    verify_upper_bound_cb,
)
from shtlab import verify
from shtlab.operators import _pair_min_ball_measure, estimate_from_values, probe_images
from shtlab.weights import deviation_sums


def _pair_setup():
    space = build_space("pair", 2)
    return space, np.array([0.0, 1.0]), np.ones(2)


class TestUpperCb:
    def test_pair_unit_weights_exact(self):
        # estimate = bmo = scale = 1/2, so rho is exactly 1.
        space, b, one = _pair_setup()
        rep = verify_upper_bound_cb(space, b, one, one, 2.0, probes=8, seed=0)
        assert rep["passed"] and not rep["vacuous"]
        assert rep["rho"] == pytest.approx(1.0, abs=1e-15)
        assert rep["estimate"] == pytest.approx(0.5, abs=1e-15)
        assert rep["bmo_nu"] == pytest.approx(0.5, abs=1e-15)
        assert rep["scale"] == pytest.approx(0.5, abs=1e-15)
        assert [e["check"] for e in rep["entries"]] == ["upper_cb.rho"]

    def test_symbol_homogeneity(self):
        # Doubling b doubles both the estimate and the BMO scale.
        space, b, one = _pair_setup()
        base = verify_upper_bound_cb(space, b, one, one, 2.0, probes=8, seed=0)
        scaled = verify_upper_bound_cb(space, 2.0 * b, one, one, 2.0, probes=8, seed=0)
        assert scaled["estimate"] == pytest.approx(2.0 * base["estimate"], rel=1e-12)
        assert scaled["rho"] == pytest.approx(base["rho"], rel=1e-12)

    def test_constant_symbol_is_vacuous(self):
        space, _, one = _pair_setup()
        rep = verify_upper_bound_cb(space, np.full(2, 5.0), one, one, 2.0, probes=8, seed=0)
        assert rep["vacuous"] and rep["passed"]
        assert rep["rho"] == 0.0

    def test_rejects_bad_inputs(self):
        space, b, one = _pair_setup()
        with pytest.raises(ValueError):
            verify_upper_bound_cb(space, b, one, one, 1.0)
        with pytest.raises(ValueError):
            verify_upper_bound_cb(space, b, np.array([1.0, -1.0]), one, 2.0)
        with pytest.raises(ValueError):
            verify_upper_bound_cb(space, b, np.ones(3), one, 2.0)


class TestUpperBm:
    def test_pair_matches_kernel_ratio(self):
        space, b, one = _pair_setup()
        rep = verify_upper_bound_bm(space, b, one, one, 2.0, probes=8, seed=0)
        assert rep["passed"]
        assert rep["rho"] == pytest.approx(1.0, abs=1e-15)
        assert rep["rho_cb"] == pytest.approx(1.0, abs=1e-15)
        assert [e["check"] for e in rep["entries"]] == [
            "upper_bm.pointwise_reduction",
            "upper_bm.rho_le_rho_cb",
            "upper_bm.rho",
        ]

    def test_rejects_signed_symbol(self):
        space, _, one = _pair_setup()
        with pytest.raises(ValueError):
            verify_upper_bound_bm(space, np.array([-0.5, 1.0]), one, one, 2.0)

    @pytest.mark.parametrize("seed", [0, 2, 6])
    def test_pointwise_reduction_on_seeded_data(self, seed):
        space = build_space("line", 16)
        rng = np.random.default_rng(seed)
        b = np.abs(rng.standard_normal(16))
        lam1 = np.exp(0.3 * rng.standard_normal(16))
        lam2 = np.exp(0.3 * rng.standard_normal(16))
        rep = verify_upper_bound_bm(space, b, lam1, lam2, 2.0, probes=12, seed=seed)
        by_name = {e["check"]: e for e in rep["entries"]}
        assert by_name["upper_bm.pointwise_reduction"]["passed"]
        assert by_name["upper_bm.rho_le_rho_cb"]["passed"]
        assert rep["rho"] <= rep["rho_cb"] * (1.0 + 1e-12)


def _chain_setup(seed=5):
    space = build_space("line", 16)
    system = build_dyadic_system(space, 0.5, seed=0)
    rng = np.random.default_rng(seed)
    b = np.exp(0.5 * rng.standard_normal(16))
    f = np.exp(0.5 * rng.standard_normal(16))
    lam1 = np.exp(0.3 * rng.standard_normal(16))
    lam2 = np.exp(0.3 * rng.standard_normal(16))
    nu = bloom_weight(lam1, lam2, 2.0)
    g = np.abs(f)
    S = cz_select(system, g, 0.8 * float((g * space.mass).sum()))
    if not S:
        S = [system.cubes[system.levels[0]][0]]
    return space, system, S, b, f, lam2, nu


CHAIN_ENTRY_NAMES = [
    "duality.osc_pointwise",
    "duality.c_cube",
    "duality.cube_transfer",
    "duality.stack_le_As",
    "duality.As_le_Ast",
    "duality.Ast_self_adjoint",
    "duality.T_Tstar_pairing",
    "duality.pairing_fubini",
    "duality.osc_integrated",
    "duality.sum_exchange",
    "duality.transfer_aggregate",
    "duality.stack_aggregate",
    "duality.Ast_monotone",
    "duality.self_adjoint_instance",
    "duality.holder",
    "duality.c_end",
    "duality.end_le_osc_cube",
]


class TestDualityChain:
    def test_frozen_line16_profile(self):
        space, system, S, b, f, lam2, nu = _chain_setup()
        rep = verify_duality_chain(space, system, S, b, lam2, nu, 2.0, g_probes=6, seed=5, f=f)
        assert rep["passed"] and not rep["vacuous"]
        assert [e["check"] for e in rep["entries"]] == CHAIN_ENTRY_NAMES
        assert all(e["passed"] for e in rep["entries"])
        assert rep["c_osc"] == pytest.approx(2.6161262428268786, rel=1e-12)
        assert rep["c_cube"] == pytest.approx(0.5752369197017787, rel=1e-12)
        assert rep["c_end"] == pytest.approx(0.38517217304897006, rel=1e-12)
        assert rep["eta_tilde"] == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert rep["family_size"] == 3
        assert rep["g_probes"] == 7  # 6 seeded + the Hölder-attaining probe

    def test_end_constant_below_factored_constants(self):
        space, system, S, b, f, lam2, nu = _chain_setup()
        rep = verify_duality_chain(space, system, S, b, lam2, nu, 2.0, g_probes=6, seed=5, f=f)
        assert rep["c_end"] <= rep["c_osc"] * rep["c_cube"] * (1.0 + 1e-9)

    def test_constant_symbol_chain_is_vacuous(self):
        space, system, S, _, f, lam2, nu = _chain_setup()
        rep = verify_duality_chain(
            space, system, S, np.full(16, 2.0), lam2, nu, 2.0, g_probes=3, seed=5, f=f
        )
        assert rep["vacuous"] and rep["passed"]
        assert rep["c_osc"] == 0.0 and rep["c_end"] == 0.0
        # the final comparison row is dropped when the scale is zero
        assert len(rep["entries"]) == len(CHAIN_ENTRY_NAMES) - 1

    def test_rejects_p_at_most_one(self):
        space, system, S, b, f, lam2, nu = _chain_setup()
        with pytest.raises(ValueError):
            verify_duality_chain(space, system, S, b, lam2, nu, 1.0)


LOWER_ENTRY_NAMES = [
    "lower.bloom_identity",
    "lower.mean_le_2median",
    "lower.median_le_pointpick",
    "lower.pointpick_le_weighted_avg",
    "lower.median_doubling",
    "lower.defn_minorant",
    "lower.holder_on_ball",
    "lower.restriction",
    "lower.testing_probe",
    "lower.testing_display",
    "lower.bmo_vs_estimate",
    "lower.aux_reverse_holder",
]

TESTING_STEPS = [
    "lower.defn_minorant",
    "lower.holder_on_ball",
    "lower.restriction",
    "lower.testing_probe",
]


def _testing_setup(kind, n):
    space = oracles.tied_quasi_grid(n) if kind == "ties" else build_space(kind, n)
    rng = np.random.default_rng(space.n)
    # a large symbol lifts the balls' scales above 1, so each ball's
    # overshoot is normalized by its own scale and the runs matter
    b = 40.0 * np.exp(0.5 * rng.standard_normal(space.n))
    lam1 = np.exp(0.3 * rng.standard_normal(space.n))
    lam2 = np.exp(0.3 * rng.standard_normal(space.n))
    return space, b, lam1, lam2


class TestLowerBound:
    def test_pair_unit_weights_exact(self):
        space, b, one = _pair_setup()
        rep = verify_lower_bound(space, b, one, one, 2.0, probes=8, seed=0)
        assert rep["passed"]
        assert [e["check"] for e in rep["entries"]] == LOWER_ENTRY_NAMES
        assert rep["c_meas"] == pytest.approx(1.0, abs=1e-15)
        assert rep["c_test"] == pytest.approx(1.0, abs=1e-15)
        assert rep["aux_max"] == pytest.approx(1.0, abs=1e-15)
        assert rep["aux_bound"] == pytest.approx(1.0, abs=1e-15)

    def test_constant_symbol_is_vacuous(self):
        space, _, one = _pair_setup()
        rep = verify_lower_bound(space, np.full(2, 3.0), one, one, 2.0, probes=8, seed=0)
        assert rep["vacuous"] and rep["passed"]
        assert rep["c_meas"] == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_seeded_two_weight_chain(self, p):
        space = build_space("line", 32)
        rng = np.random.default_rng(13)
        b = np.exp(0.5 * rng.standard_normal(32))
        lam1 = np.exp(0.3 * rng.standard_normal(32))
        lam2 = np.exp(0.3 * rng.standard_normal(32))
        rep = verify_lower_bound(space, b, lam1, lam2, p, probes=12, seed=13)
        assert rep["passed"]
        assert all(e["passed"] for e in rep["entries"])
        assert np.isfinite(rep["c_meas"]) and rep["c_meas"] >= 0.0
        assert rep["aux_max"] <= rep["aux_bound"] * (1.0 + 1e-9)
        assert rep["probed_balls"] >= 1
        assert "lower-bounds the true norm" in rep["note"]

    @pytest.mark.parametrize("ball_cap", [None, 60])
    @pytest.mark.parametrize("kind,n", [("line", 48), ("tree", 31), ("grid2d", 6), ("ties", 5)])
    def test_testing_chain_matches_the_per_ball_oracle(self, kind, n, ball_cap):
        space, b, lam1, lam2 = _testing_setup(kind, n)
        rep = verify_lower_bound(space, b, lam1, lam2, 1.5, probes=4, seed=5, ball_cap=ball_cap)
        _, labels, _, cb, _ = probe_images(space, b, 4, 5, ball_cap)
        want = oracles.lower_testing_chain(space, b, lam1, lam2, 1.5, labels, cb, rep["estimate"])
        got = {e["check"]: e["value"] for e in rep["entries"]}
        for name in TESTING_STEPS:
            assert got[name] == pytest.approx(want[name], rel=1e-12, abs=1e-15)
        assert rep["c_test"] == pytest.approx(want["c_test"], rel=1e-12)
        assert rep["probed_balls"] == sum(lab.startswith("ball:") for lab in labels)

    @pytest.mark.parametrize("kind,n", [("line", 48), ("tree", 31), ("ties", 5)])
    def test_bmo_and_witness_equal_bmo_norm(self, kind, n):
        # the chain reads the BMO_nu norm off its own oscillation sums
        space, b, lam1, lam2 = _testing_setup(kind, n)
        rep = verify_lower_bound(space, b, lam1, lam2, 1.5, probes=4, seed=5, ball_cap=60)
        want = bmo_norm(space, b, bloom_weight(lam1, lam2, 1.5))
        assert rep["bmo_nu"] == want.value
        assert rep["bmo_witness"] == want.ball

    def test_a_halved_testing_column_fails_with_the_oracle_value(self, monkeypatch):
        space, b, lam1, lam2 = _testing_setup("line", 48)
        t = space.ball_table()
        target = int(t.start[24] + np.argmax(t.count[t.start[24] : t.start[25]] >= 16))

        def halved(*args):
            F, labels, mf, cb, bm = probe_images(*args)
            cb = cb.copy()
            cb[:, labels.index(f"ball:{target}")] *= 0.5
            return F, labels, mf, cb, bm

        monkeypatch.setattr(verify, "probe_images", halved)
        rep = verify_lower_bound(space, b, lam1, lam2, 2.0, probes=4, seed=5)
        _, labels, _, cb, _ = halved(space, b, 4, 5, None)
        want = oracles.lower_testing_chain(space, b, lam1, lam2, 2.0, labels, cb, rep["estimate"])
        entry = next(e for e in rep["entries"] if e["check"] == "lower.defn_minorant")
        assert not entry["passed"] and entry["value"] > 1e-3
        assert entry["value"] == pytest.approx(want["lower.defn_minorant"], rel=1e-12)


class TestBloomJn:
    def test_unit_weights_r1_at_most_one(self):
        # With lam1 = lam2 = 1 and r = 1 the comparison collapses to
        # mean oscillation over BMO norm, whose maximum is exactly 1.
        space, b, one = _pair_setup()
        rep = verify_bloom_jn(space, b, one, one, 2.0, 1.0)
        assert rep["branch"] == 1 and rep["asserted"]
        assert rep["c_jn"] == 1.0
        assert rep["passed"]

    def test_pair_bloom_weights_at_conjugate_exponent(self):
        space, b, _ = _pair_setup()
        lam1 = np.array([1.0, 4.0])
        lam2 = np.array([4.0, 1.0])
        rep = verify_bloom_jn(space, b, lam1, lam2, 2.0, 2.0)
        assert rep["branch"] == 1
        assert rep["c_jn"] == pytest.approx(10.0 / 9.0, rel=1e-12)

    def test_overshoot_range_is_reported_not_asserted(self):
        space, b, _ = _pair_setup()
        lam1 = np.array([1.0, 4.0])
        lam2 = np.array([4.0, 1.0])
        rep = verify_bloom_jn(space, b, lam1, lam2, 2.0, 2.2)
        assert rep["branch"] == 2 and not rep["asserted"]
        assert np.isfinite(rep["c_jn"])
        assert rep["entries"][0]["check"] == "jn.branch2_constant"

    def test_rejects_r_outside_range(self):
        space, b, _ = _pair_setup()
        lam1 = np.array([1.0, 4.0])
        lam2 = np.array([4.0, 1.0])
        with pytest.raises(ValueError):
            verify_bloom_jn(space, b, lam1, lam2, 2.0, 2.3)
        with pytest.raises(ValueError):
            verify_bloom_jn(space, b, lam1, lam2, 2.0, 0.9)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_seeded_two_weight_battery(self, r):
        space = build_space("line", 16)
        rng = np.random.default_rng(21)
        b = np.exp(0.5 * rng.standard_normal(16))
        lam1 = np.exp(0.3 * rng.standard_normal(16))
        lam2 = np.exp(0.3 * rng.standard_normal(16))
        rep = verify_bloom_jn(space, b, lam1, lam2, 2.0, r)
        assert rep["branch"] == 1 and rep["passed"]
        assert np.isfinite(rep["c_jn"]) and rep["c_jn"] >= 0.0
        assert 0 <= rep["worst_ball"]

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_matches_two_call_reference(self, r):
        # the reference takes the BMO_nu norm and the left side from two
        # separate oscillation passes; at r = 1 the check shares one
        spaces = [build_space("line", 48), build_space("tree", 31)]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        rng = np.random.default_rng(23)
        p = 2.0
        for space in spaces:
            b = rng.standard_normal(space.n)
            lam1 = np.exp(0.4 * rng.standard_normal(space.n))
            lam2 = np.exp(0.4 * rng.standard_normal(space.n))
            bmo = bmo_norm(space, b, bloom_weight(lam1, lam2, p)).value
            ap2 = ap_characteristic(space, lam2, p).value
            lhs = deviation_sums(space, b, lam1 ** (-r / p) * space.mass, r)
            lhs /= space.ball_measures()
            rhs = bmo**r * ap2 ** (r / p) * space.ball_averages(lam2 ** (-1.0 / p)) ** r
            ratios = np.where(lhs > 0, lhs / rhs, 0.0)
            rep = verify_bloom_jn(space, b, lam1, lam2, p, r)
            assert rep["bmo_nu"] == bmo
            assert rep["c_jn"] == float(ratios.max())
            assert rep["worst_ball"] == int(ratios.argmax())


class TestExponentFit:
    def _setup64(self):
        space = build_space("line", 64)
        system = build_dyadic_system(space, 0.5, seed=0)
        rng = np.random.default_rng(9)
        b = np.exp(0.5 * rng.standard_normal(64))
        return space, system, b

    def test_line64_slopes_under_cap(self):
        space, system, b = self._setup64()
        rep = fit_weight_exponent(space, system, b, 2.0, seed=9)
        assert rep["passed"]
        assert rep["cap"] == pytest.approx(1.2, abs=1e-15)
        assert rep["eta_host"] == pytest.approx(1.0 / 7.0, rel=1e-12)
        for op in ("sparse", "cb", "bm"):
            assert rep["ops"][op]["status"] == "ok"
            assert rep["ops"][op]["slope"] <= rep["cap"]
        assert rep["ops"]["sparse"]["slope"] == pytest.approx(0.002884, abs=1e-4)
        assert rep["ops"]["cb"]["slope"] == pytest.approx(0.028489, abs=1e-4)

    @pytest.mark.parametrize("kind,n", [("line", 16), ("tree", 15)])
    def test_sparse_images_match_the_oracle(self, kind, n, monkeypatch):
        space = build_space(kind, n)
        system = build_dyadic_system(space, 0.5, seed=0)
        b = np.exp(0.5 * np.random.default_rng(n).standard_normal(n))
        seen = []

        def record(space_, values, F, *rest):
            seen.append((values, F))
            return estimate_from_values(space_, values, F, *rest)

        monkeypatch.setattr(verify, "estimate_from_values", record)
        fit_weight_exponent(space, system, b, 2.0, seed=9)
        # per weight the ops run as sparse, cb, bm
        values, F = seen[0]
        want = np.column_stack(
            [oracles.sparse_operator(space, system.all_cubes(), F[:, j]) for j in range(F.shape[1])]
        )
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-15)
        assert all(v is values for v, _ in seen[::3])

    def test_memoized_probe_images_are_bit_identical(self):
        space, system, b = self._setup64()
        first = fit_weight_exponent(space, system, b, 2.0, seed=9)
        images = probe_images(space, b, 8, 9, 48)
        again = fit_weight_exponent(space, system, b, 2.0, seed=9)
        fresh = fit_weight_exponent(build_space("line", 64), system, b, 2.0, seed=9)
        assert again["ops"] == first["ops"]
        assert fresh["ops"] == first["ops"]
        # The space memoizes the probe images, so a second sweep reuses them.
        assert probe_images(space, b, 8, 9, 48) is images

    def test_constant_symbol_has_no_commutator_spread(self):
        space, system, _ = self._setup64()
        rep = fit_weight_exponent(space, system, np.full(64, 1.5), 2.0, seed=9)
        # C_b and [b, M] vanish, so there is no slope to fit
        for op in ("cb", "bm"):
            assert rep["ops"][op] == {"status": "vacuous", "points": 6, "passed": True}
        assert rep["ops"]["sparse"]["status"] == "ok"
        assert rep["passed"]

    def test_rejects_p_at_most_one(self):
        space, system, b = self._setup64()
        with pytest.raises(ValueError):
            fit_weight_exponent(space, system, b, 1.0)


class TestClosedFormPointProbes:
    @pytest.mark.parametrize("kind,n", [("line", 8), ("tree", 7)])
    def test_pair_min_ball_measure_matches_brute_force(self, kind, n):
        space = build_space(kind, n)
        minmu = _pair_min_ball_measure(space)
        balls = space.canonical_balls()
        for x in range(n):
            for y in range(n):
                want = min(
                    space.measure(ball.members)
                    for ball in balls
                    if x in ball.members and y in ball.members
                )
                assert minmu[x, y] == pytest.approx(want, rel=1e-15)

    def test_point_probe_columns_match_direct_operators(self):
        space = build_space("line", 16)
        rng = np.random.default_rng(3)
        b = np.abs(rng.standard_normal(16))
        F, labels, _, cb, bm = probe_images(space, b, 8, 3, None)
        kernel = CommutatorKernel(space, b)
        point_cols = [j for j, lab in enumerate(labels) if lab.startswith("point:")]
        assert point_cols  # the probe set always includes point masses
        for j in point_cols:
            direct_cb = kernel.apply(F[:, j]).values
            direct_bm = commutator_bM(space, b, F[:, j])
            assert np.array_equal(cb[:, j], direct_cb)
            assert np.array_equal(bm[:, j], direct_bm)
