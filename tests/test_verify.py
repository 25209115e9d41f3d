"""Verification harness: two-weight norm ratios, the duality-chain
audit, the testing-function lower bound, the weighted John-Nirenberg
comparison, and the power-weight exponent sweep."""

import numpy as np
import pytest

import oracles
from shtlab import (
    CommutatorKernel,
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
from shtlab import operators, verify
from shtlab.operators import _pair_min_ball_measure, estimate_from_values, probe_images


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


def _leq_oracle(lhs, rhs, tol, starts, eq):
    """(value, passed) of ``_leq_entry`` from its definition, run by run.
    A NaN anywhere in a run makes its value NaN, and the entry's."""
    values = []
    for lo, hi in zip(starts, list(starts[1:]) + [len(lhs)]):
        d = np.abs(lhs[lo:hi] - rhs[lo:hi]) if eq else lhs[lo:hi] - rhs[lo:hi]
        gap = np.maximum.reduce(d)
        if not eq:
            gap = np.maximum(gap, 0.0)
        big = np.maximum(np.maximum.reduce(np.abs(lhs[lo:hi])), np.maximum.reduce(np.abs(rhs[lo:hi])))
        values.append(gap / np.maximum(1.0, big))
    value = values[0] if len(values) == 1 else np.maximum.reduce(values, initial=0.0)
    return float(value), all(v <= tol for v in values)


class TestLeqBlocks:
    @pytest.mark.parametrize("eq", [False, True])
    def test_blocks_cut_anywhere_match_the_runs(self, eq):
        # random runs cut into random blocks, cuts inside runs included;
        # every run's value is distinct, so a lost run moves the max
        rng = np.random.default_rng(11)
        for trial in range(60):
            size = int(rng.integers(1, 30))
            lhs = 3.0 * rng.standard_normal(size)
            rhs = 3.0 * rng.standard_normal(size)
            if trial % 7 == 3:
                lhs[rng.integers(size)] = np.nan
            starts = np.union1d([0], np.flatnonzero(rng.random(size) < 0.3))
            cuts = sorted(set(rng.integers(1, size, int(rng.integers(0, 4))).tolist())) if size > 1 else []
            blocks = []
            for lo, hi in zip([0] + cuts, cuts + [size]):
                inner = starts[(starts >= lo) & (starts < hi)] - lo
                blocks.append((lhs[lo:hi], rhs[lo:hi], inner))
            tol = 0.25
            value, passed = _leq_oracle(lhs, rhs, tol, starts, eq)
            for entry in (verify._leq_blocks("x", blocks, tol, eq), verify._leq_entry("x", lhs, rhs, tol, starts, eq)):
                assert repr(entry["value"]) == repr(value)
                assert entry["passed"] == passed

    def test_a_run_may_span_every_block(self):
        rng = np.random.default_rng(12)
        lhs, rhs = rng.standard_normal((2, 40))
        blocks = [(lhs[i : i + 3], rhs[i : i + 3], ()) for i in range(0, 40, 3)]
        assert verify._leq_blocks("x", blocks, 0.1) == verify._leq_entry("x", lhs, rhs, 0.1)

    @pytest.mark.parametrize(
        "lhs, rhs, eq",
        [
            ([1.0, np.nan], [2.0, 1.0], False),  # NaN on the left of a <=
            ([1.0, 0.5], [2.0, np.nan], False),  # NaN on the right
            ([1.0, np.nan], [1.0, 1.0], True),  # one NaN run among several of an ==
            ([0.5, np.nan, 0.25, 0.5], [1.0, 1.0, 1.0, 1.0], False),
            ([0.5, 0.5, 0.25, 0.5], [1.0, 1.0, 1.0, np.nan], False),
            ([1.0, 1.0, np.nan, 2.0], [1.0, 1.0, 1.0, 2.0], True),
        ],
    )
    def test_a_nan_run_makes_the_value_nan_and_fails(self, lhs, rhs, eq):
        # every other run holds: the NaN used to read as a gap of 0 on a
        # <= (and pass), or drop out of an =='s value (and fail)
        lhs, rhs = np.array(lhs), np.array(rhs)
        runs = np.arange(0, lhs.size, 2) if lhs.size > 2 else np.arange(lhs.size)
        entries = [verify._leq_entry("x", lhs, rhs, 1e-12, runs, eq)]
        for cut in range(1, lhs.size):  # one cut, inside a run where runs are two long
            head, tail = runs[runs < cut], runs[runs >= cut] - cut
            blocks = [(lhs[:cut], rhs[:cut], head), (lhs[cut:], rhs[cut:], tail)]
            entries.append(verify._leq_blocks("x", blocks, 1e-12, eq))
        for entry in entries:
            assert np.isnan(entry["value"]) and entry["passed"] is False

    def test_no_entries_read_as_one_zero_run(self):
        empty = np.empty(0)
        for entry in (verify._leq_blocks("x", [], 0.0), verify._leq_blocks("x", [(empty, empty, ())], 0.0)):
            assert entry == verify._leq_entry("x", empty, empty, 0.0)
            assert entry["value"] == 0.0 and entry["passed"]


class TestProbeBlocks:
    """The probe images are built and read per block of columns and of
    probed balls (``operators._spans``).  These spaces fit one default
    block, and the smallest blocks (two columns or balls, a tail of
    three) must give the same bits."""

    CASES = [("line", 16, None), ("tree", 15, None), ("ties", 5, 9), ("line", 24, 1)]

    @staticmethod
    def _reports(kind, n, cap):
        space, b, lam1, lam2 = _testing_setup(kind, n)
        F, labels, mf, cb, bm = probe_images(space, b, 4, 5, cap)
        lower = verify_lower_bound(space, b, lam1, lam2, 1.5, probes=4, seed=5, ball_cap=cap)
        upper = verify_upper_bound_bm(space, b, lam1, lam2, 1.5, probes=4, seed=5, ball_cap=cap)
        return {
            "blocks": len(operators._spans(F.shape[1], space.n)),
            "images": [a.tobytes() for a in (F, mf, cb, bm)],
            "estimates": [estimate_from_values(space, v, F, lam1, lam2, 1.5) for v in (F, mf, cb, bm)],
            "lower": repr(lower),
            "upper_bm": repr(upper),
            "probed_balls": lower["probed_balls"],
        }

    def test_spans_cover_in_order_with_no_lone_tail(self, monkeypatch):
        monkeypatch.setattr(operators, "KERNEL_BLOCK", 64 * 7 * 10)  # 7 per span at n = 10
        assert operators._spans(15, 10) == [slice(0, 7), slice(7, 15)]
        assert operators._spans(14, 10) == [slice(0, 7), slice(7, 14)]
        # whole units of 3 fit six to a span; a unit of 9 fits none
        assert operators._spans(13, 10, 3) == [slice(0, 6), slice(6, 13)]
        assert operators._spans(5, 10, 9) == [slice(0, 5)]
        assert operators._spans(1, 10) == [slice(0, 1)]
        assert operators._spans(0, 10) == []

    @pytest.mark.parametrize("kind,n,cap", CASES)
    def test_smallest_blocks_match_one_block(self, kind, n, cap, monkeypatch):
        want = self._reports(kind, n, cap)
        assert want["blocks"] == 1
        # a ball cap of 1 probes a single ball: each entry is one run
        assert (want["probed_balls"] == 1) == (cap == 1)
        monkeypatch.setattr(operators, "KERNEL_BLOCK", 1)
        assert operators._spans(5, n) == [slice(0, 2), slice(2, 5)]
        got = self._reports(kind, n, cap)
        assert got["blocks"] > 1
        assert got == dict(want, blocks=got["blocks"])

    def test_a_failing_ball_survives_the_smallest_blocks(self, monkeypatch):
        space, b, lam1, lam2 = _testing_setup("line", 24)
        t = space.ball_table()
        # every ball is probed, row i being ball i: a ball of id 5 mod 6
        # ends a block of two balls and a block of three
        target = next(i for i in range(int(t.start[12]), int(t.start[13])) if i % 6 == 5 and t.count[i] >= 6)

        def halved(*args):
            F, labels, mf, cb, bm = probe_images(*args)
            cb = cb.copy()
            cb[:, labels.index(f"ball:{target}")] *= 0.5
            return F, labels, mf, cb, bm

        monkeypatch.setattr(verify, "probe_images", halved)
        want = verify_lower_bound(space, b, lam1, lam2, 2.0, probes=4, seed=5)
        entry = next(e for e in want["entries"] if e["check"] == "lower.defn_minorant")
        assert not entry["passed"] and entry["value"] > 1e-3
        for rows in (2, 3):
            monkeypatch.setattr(operators, "KERNEL_BLOCK", 64 * rows * space.n)
            assert operators._spans(t.center.size, space.n)[0] == slice(0, rows)
            got = verify_lower_bound(build_space("line", 24), b, lam1, lam2, 2.0, probes=4, seed=5)
            assert repr(got) == repr(want)

    def test_estimate_ties_keep_the_lowest_column_across_blocks(self, monkeypatch):
        space = build_space("line", 12)
        rng = np.random.default_rng(4)
        F = rng.lognormal(0.0, 1.0, (12, 9))
        F[:, 7] = F[:, 2]
        values = F.copy()
        values[:, [2, 7]] *= 3.0
        w1, w2 = rng.lognormal(0.0, 0.4, (2, 12))

        def whole(v):
            # the one-shot form: one set of column sums over every column
            num = ((np.abs(v) ** 1.5 * (w2 * space.mass)[:, None]).sum(axis=0)) ** (1.0 / 1.5)
            den = ((np.abs(F) ** 1.5 * (w1 * space.mass)[:, None]).sum(axis=0)) ** (1.0 / 1.5)
            ratios = num / den
            return float(ratios[np.argmax(ratios)]), int(np.argmax(ratios))

        for block in (operators.KERNEL_BLOCK, 1):
            monkeypatch.setattr(operators, "KERNEL_BLOCK", block)
            for v in (values, F, np.abs(values - 1.0)):
                assert estimate_from_values(space, v, F, w1, w2, 1.5) == whole(v)
            assert estimate_from_values(space, values, F, w1, w2, 1.5)[1] == 2


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
        # full oscillation passes over every ball; the check evaluates
        # only the balls whose bounds can reach each maximum
        spaces = [build_space("line", 48), build_space("tree", 31)]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        rng = np.random.default_rng(23)
        p = 2.0
        for space in spaces:
            b = rng.standard_normal(space.n)
            lam1 = np.exp(0.4 * rng.standard_normal(space.n))
            lam2 = np.exp(0.4 * rng.standard_normal(space.n))
            rep = verify_bloom_jn(space, b, lam1, lam2, p, r)
            assert (rep["c_jn"], rep["worst_ball"], rep["bmo_nu"]) == oracles.jn_max(
                space, b, lam1, lam2, p, r
            )
            assert rep["bmo_nu"] == bmo_norm(space, b, bloom_weight(lam1, lam2, p)).value
            assert 0 < rep["exact_balls"] <= 2 * len(space.ball_table().center)

    def test_exponent_sequence_matches_one_call_per_exponent(self):
        # the r-free quantities are taken once for the whole sequence;
        # each report equals the one a single-exponent call returns
        space = build_space("line", 48)
        rng = np.random.default_rng(24)
        b = rng.lognormal(0.0, 0.5, space.n)
        lam1 = np.exp(0.4 * rng.standard_normal(space.n))
        lam2 = np.exp(0.4 * rng.standard_normal(space.n))
        rs = [1.0, 2, 1.5, 2.2]
        reports = verify_bloom_jn(space, b, lam1, lam2, 2.0, rs)
        assert [rep["branch"] for rep in reports] == [1, 1, 1, 2]
        assert reports == [verify_bloom_jn(space, b, lam1, lam2, 2.0, r) for r in rs]
        assert verify_bloom_jn(space, b, lam1, lam2, 2.0, []) == []
        with pytest.raises(ValueError):
            verify_bloom_jn(space, b, lam1, lam2, 2.0, [1.0, 2.3])


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


class TestReportVerdicts:
    REPORTS = (
        "verify_upper_bound_cb",
        "verify_upper_bound_bm",
        "verify_duality_chain",
        "verify_lower_bound",
        "verify_bloom_jn",
        "fit_weight_exponent",
    )

    def test_every_stock_report_passes_when_all_its_entries_pass(self, tmp_path, monkeypatch):
        from shtlab import cli

        reports = []
        for name in self.REPORTS:

            def record(*args, _fn=getattr(cli, name), **kwargs):
                out = _fn(*args, **kwargs)
                reports.extend(out if isinstance(out, list) else [out])
                return out

            monkeypatch.setattr(cli, name, record)
        cli.main(["verify", "--seed", "42", "--out", str(tmp_path)])
        names = {"upper_cb", "upper_bm", "duality_chain", "lower_bound", "bloom_jn", "exponent_fit"}
        assert {rep["name"] for rep in reports} == names
        for rep in reports:
            entries = list(rep["ops"].values() if rep["name"] == "exponent_fit" else rep["entries"])
            assert entries
            assert rep["passed"] is all(e["passed"] for e in entries)
