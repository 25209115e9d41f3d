"""Weight characteristics, BMO norms, and the Bloom weight."""

import math

import numpy as np
import pytest

import oracles
from shtlab import (
    ap_characteristic,
    bloom_weight,
    bmo_norm,
    build_space,
    dual_weight,
    maximal_function,
    reverse_holder_constant,
)
from shtlab.weights import deviation_sums


# line160 has centers whose balls alone exceed a deviation_sums block;
# tree31 and line48 put several centers in one block
KINDS = [("line", 48), ("line", 160), ("sqline", 32), ("grid2d", 8), ("tree", 31), ("pair", 2)]


def _seeded_weight(space, seed, sigma=0.4):
    rng = np.random.default_rng(seed)
    return np.exp(sigma * rng.standard_normal(space.n))


class TestApCharacteristic:
    def test_unit_weight_is_one(self):
        for kind, n in (("line", 16), ("tree", 15), ("pair", 2)):
            sp = build_space(kind, n)
            assert ap_characteristic(sp, np.ones(sp.n), 2.0).value == pytest.approx(1.0)

    def test_pair_closed_form(self):
        sp = build_space("pair", 2)
        w = np.array([1.0, 4.0])
        # full ball: avg w = 5/2; avg w^{-1} = 5/8; product 25/16
        got = ap_characteristic(sp, w, 2.0)
        assert got.value == pytest.approx(25.0 / 16.0)
        balls = sp.canonical_balls()
        assert len(balls[got.ball].members) == 2

    def test_matches_ball_oracle(self):
        for kind, n in (("line", 16), ("sqline", 9), ("grid2d", 3), ("tree", 15)):
            sp = build_space(kind, n)
            w = _seeded_weight(sp, 5)
            for p in (1.5, 2.0, 3.0):
                expect, _ = oracles.ap_characteristic(sp, w, p)
                assert ap_characteristic(sp, w, p).value == pytest.approx(expect)

    def test_power_weight_monotone_in_exponent(self):
        sp = build_space("line", 64)
        x = sp.dist[0] + 1.0 / 64.0
        vals = [ap_characteristic(sp, x**a, 2.0).value for a in (0.2, 0.5, 0.8)]
        assert vals[0] < vals[1] < vals[2]

    def test_rejects_p_at_most_one(self):
        sp = build_space("line", 4)
        with pytest.raises(ValueError):
            ap_characteristic(sp, np.ones(4), 1.0)

    def test_scale_invariance(self):
        sp = build_space("line", 16)
        w = _seeded_weight(sp, 8)
        a = ap_characteristic(sp, w, 2.0).value
        b = ap_characteristic(sp, 7.0 * w, 2.0).value
        assert a == pytest.approx(b)


class TestA1AndAinf:
    """[w]_{A_1} = max M w / w, at least 1 on atoms (singleton balls)."""

    def test_unit_weight(self):
        sp = build_space("line", 8)
        w = np.ones(8)
        assert (maximal_function(sp, w).values / w).max() == pytest.approx(1.0)

    def test_pair_one_three(self):
        sp = build_space("pair", 2)
        w = np.array([1.0, 3.0])
        # Mw = (2, 3): full-ball average 2 beats the first atom
        assert (maximal_function(sp, w).values / w).max() == pytest.approx(2.0)


class TestReverseHolder:
    def test_unit_weight_is_one(self):
        sp = build_space("line", 8)
        assert reverse_holder_constant(sp, np.ones(8), 0.5) == pytest.approx(1.0)

    def test_pair_closed_form(self):
        sp = build_space("pair", 2)
        got = reverse_holder_constant(sp, np.array([1.0, 4.0]), 0.5)
        # (5/2) / ((1 + 2)/2)^2 = 10/9
        assert got == pytest.approx(10.0 / 9.0)

    def test_at_least_one_by_jensen(self):
        for kind, n in (("line", 16), ("tree", 15)):
            sp = build_space(kind, n)
            w = _seeded_weight(sp, 9)
            for d in (0.25, 0.5, 0.75):
                assert reverse_holder_constant(sp, w, d) >= 1.0 - 1e-12

    def test_rejects_bad_exponent(self):
        sp = build_space("line", 4)
        with pytest.raises(ValueError):
            reverse_holder_constant(sp, np.ones(4), 1.0)


class TestWeightDoubling:
    """w(lB) <= l^{np} [w]_{A_p} w(B) with n the strong doubling
    exponent: a theorem for every positive weight, checked by the
    oracle over every canonical ball."""

    def test_unit_weight_ratio_at_most_one(self):
        sp = build_space("line", 16)
        assert oracles.weight_doubling_check(sp, np.ones(16), 2.0) <= 1.0 + 1e-12

    def test_pair_exact(self):
        sp = build_space("pair", 2)
        worst = oracles.weight_doubling_check(sp, np.array([1.0, 4.0]), 2.0, lams=(2.0,))
        assert worst <= 1.0 + 1e-12

    def test_random_weight_line32(self):
        sp = build_space("line", 32)
        w = _seeded_weight(sp, 12)
        assert oracles.weight_doubling_check(sp, w, 2.0) <= 1.0 + 1e-12


class TestStrongDoublingExponent:
    """n = strong_doubling_exponent is the least exponent with
    mu(B(x, lr)) <= l^n mu(B(x, r)) over canonical balls and the
    sampled scale factors."""

    @pytest.mark.parametrize("kind,n", [("line", 32), ("pair", 2)])
    def test_defining_inequality_holds_and_is_attained(self, kind, n):
        sp = build_space(kind, n)
        lams = (2.0, 4.0, 8.0)
        expo = sp.strong_doubling_exponent(lams)
        worst = 0.0
        for ball in sp.canonical_balls():
            mu = sp.measure(ball.members)
            for lam in lams:
                big = sp.measure(oracles.ball_members(sp, ball.center, lam * ball.radius))
                assert big <= lam**expo * mu * (1.0 + 1e-12)
                worst = max(worst, math.log(big / mu) / math.log(lam))
        assert expo == pytest.approx(worst, rel=1e-12, abs=1e-15)


class TestOscillation:
    def test_constant_symbol_zero(self):
        sp = build_space("line", 8)
        assert oracles.mean_oscillation(sp, np.full(8, 3.0), np.arange(8)) == pytest.approx(0.0)
        assert bmo_norm(sp, np.full(8, 3.0), np.ones(8)).value == pytest.approx(0.0)

    def test_pair_mean_oscillation_half(self):
        sp = build_space("pair", 2)
        # the brute-force oracle that test_sparse and test_acceptance use
        got = oracles.mean_oscillation(sp, np.array([0.0, 1.0]), np.array([0, 1]))
        assert got == pytest.approx(0.5)

    def test_pair_bmo_half(self):
        sp = build_space("pair", 2)
        got = bmo_norm(sp, np.array([0.0, 1.0]), np.ones(2))
        assert got.value == pytest.approx(0.5)
        assert len(sp.canonical_balls()[got.ball].members) == 2

    def test_bmo_matches_oracle(self):
        for kind, n in (("line", 16), ("sqline", 9), ("tree", 15)):
            sp = build_space(kind, n)
            rng = np.random.default_rng(4)
            b = rng.standard_normal(sp.n)
            w = _seeded_weight(sp, 6)
            assert bmo_norm(sp, b, w).value == pytest.approx(oracles.bmo_norm(sp, b, w))

    def test_deviation_sums_bit_identical_to_per_center_loop(self):
        spaces = [build_space(kind, n) for kind, n in KINDS]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        rng = np.random.default_rng(21)
        for sp in spaces:
            b = rng.standard_normal(sp.n)
            w = rng.lognormal(0.0, 1.0, sp.n)
            # a second weight column, drawn apart so w keeps its values
            W = np.stack([w, np.random.default_rng(sp.n).lognormal(0.0, 1.0, sp.n)], axis=1)
            for r in (1.0, 2.0, 0.7):
                got = deviation_sums(sp, b, w, r)
                assert np.array_equal(got, oracles.deviation_sums(sp, b, w, r))
                pair = deviation_sums(sp, b, W, r)
                assert pair.shape == (len(got), 2)
                for j in range(2):
                    assert np.array_equal(pair[:, j], oracles.deviation_sums(sp, b, W[:, j], r))

    def test_bmo_shift_invariance(self):
        sp = build_space("line", 16)
        rng = np.random.default_rng(7)
        b = rng.standard_normal(16)
        w = _seeded_weight(sp, 7)
        assert bmo_norm(sp, b, w).value == pytest.approx(bmo_norm(sp, b + 11.0, w).value)


class TestBloomAndDual:
    def test_equal_weights_give_unit_bloom(self):
        lam = np.array([2.0, 3.0, 4.0])
        assert np.allclose(bloom_weight(lam, lam, 2.0), 1.0)

    def test_bloom_identity(self):
        rng = np.random.default_rng(3)
        lam1 = np.exp(rng.standard_normal(16))
        lam2 = np.exp(rng.standard_normal(16))
        for p in (1.5, 2.0, 3.0):
            nu = bloom_weight(lam1, lam2, p)
            assert np.allclose(nu**p * lam2, lam1, rtol=1e-12)

    def test_dual_weight_formula(self):
        rng = np.random.default_rng(5)
        w = np.exp(rng.standard_normal(8))
        p = 2.5
        pprime = p / (p - 1.0)
        assert np.allclose(dual_weight(w, p), w ** (1.0 - pprime))

    def test_dual_characteristic_identity(self):
        sp = build_space("line", 16)
        w = _seeded_weight(sp, 10)
        for p in (1.5, 2.0, 3.0):
            pprime = p / (p - 1.0)
            lhs = ap_characteristic(sp, dual_weight(w, p), pprime).value
            rhs = ap_characteristic(sp, w, p).value ** (pprime - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            bloom_weight(np.ones(4), np.ones(4), 1.0)
        with pytest.raises(ValueError):
            dual_weight(np.ones(4), 0.5)
