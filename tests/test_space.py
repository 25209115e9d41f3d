"""Space construction, canonical balls, and measured constants."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

import oracles
from shtlab import (
    Ball,
    CommutatorKernel,
    QuasiMetricSpace,
    bmo_norm,
    build_adjacent_systems,
    build_domination,
    build_space,
    load_space,
    maximal_function,
    save_space,
    space_from_dict,
    space_to_dict,
    verify_bloom_jn,
    verify_lower_bound,
)
from shtlab import space as space_module
from shtlab.cli import main

KINDS = [("line", 16), ("sqline", 12), ("grid2d", 4), ("tree", 15), ("pair", 2)]


def _powered(sp, gamma):
    """sp with every distance raised to gamma: a quasi-metric."""
    return QuasiMetricSpace(sp.dist**gamma, sp.mass)


def spaces():
    return [(kind, n, build_space(kind, n)) for kind, n in KINDS]


class TestConstruction:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            build_space("line", 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_space("circle", 8)

    @pytest.mark.parametrize(
        "kind,n", [("line", 10**6), ("sqline", 4097), ("tree", 10**6), ("grid2d", 65)]
    )
    def test_point_cap_comes_before_any_allocation(self, kind, n):
        # line at 10**6 points would need an 8 TB distance matrix
        with pytest.raises(ValueError, match="exceed the cap 4096"):
            build_space(kind, n)

    def test_dist_symmetric_zero_diagonal(self):
        for kind, n, sp in spaces():
            assert np.array_equal(sp.dist, sp.dist.T)
            assert np.all(np.diag(sp.dist) == 0)
            off = sp.dist[~np.eye(sp.n, dtype=bool)]
            assert np.all(off > 0)

    def test_masses_positive_and_sized(self):
        for kind, n, sp in spaces():
            assert sp.mass.shape == (sp.n,)
            assert np.all(sp.mass > 0)

    def test_line_geometry(self):
        sp = build_space("line", 4)
        assert sp.n == 4
        assert sp.dist[0, 3] == pytest.approx(0.75)
        assert np.all(sp.mass == 0.25)

    def test_sqline_is_squared_line(self):
        line = build_space("line", 8)
        sq = build_space("sqline", 8)
        assert np.allclose(sq.dist, line.dist**2)

    def test_grid2d_param_is_side(self):
        sp = build_space("grid2d", 4)
        assert sp.n == 16
        assert np.all(sp.mass == pytest.approx(1.0 / 16.0))

    def test_pair_two_points_distance_one(self):
        sp = build_space("pair", 2)
        assert sp.n == 2
        assert sp.dist[0, 1] == 1.0
        assert np.all(sp.mass == 0.5)

    @pytest.mark.parametrize("mass", [[np.inf, 1.0], [np.nan, 1.0], [1e308, 1e308]])
    def test_rejects_non_finite_masses(self, tmp_path, mass):
        # 1e308 + 1e308 overflows to inf
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        message = "masses and their total must be finite"
        with pytest.raises(ValueError, match=message):
            QuasiMetricSpace(dist, np.array(mass))
        path = tmp_path / "space.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 2, "dist": dist.ravel().tolist(), "mass": mass}, fh)
        with pytest.raises(ValueError, match=message):
            load_space(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_distances_are_named_before_symmetry(self, tmp_path, bad):
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, bad], [2.0, bad, 0.0]])
        with pytest.raises(ValueError, match="distances must be finite"):
            QuasiMetricSpace(dist, np.full(3, 1.0 / 3))
        path = tmp_path / "space.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": 3, "dist": dist.ravel().tolist(), "mass": [1.0] * 3}, fh)
        with pytest.raises(ValueError, match="distances must be finite"):
            load_space(str(path))

    def test_tree_path_metric(self):
        sp = build_space("tree", 7)
        # heap order: children of node 0 are 1 and 2; leaf 3 under 1
        assert sp.dist[1, 2] == 2.0
        assert sp.dist[0, 3] == 2.0
        assert sp.dist[3, 4] == 2.0


class TestQuasiTriangle:
    def test_line_a0_is_one(self):
        for n in (4, 9, 16):
            assert build_space("line", n).a0 == pytest.approx(1.0)

    def test_sqline3_a0_is_two(self):
        # triple (0,1,2): d(0,2)=4 while d(0,1)+d(1,2)=2
        assert build_space("sqline", 3).a0 == pytest.approx(2.0)

    def test_sqline_a0_two_for_larger_n(self):
        for n in (5, 12):
            assert build_space("sqline", n).a0 == pytest.approx(2.0)

    def test_a0_matches_triple_oracle(self):
        for kind, n, sp in spaces():
            assert sp.a0 == pytest.approx(max(1.0, oracles.quasi_triangle_constant(sp)))

    @pytest.mark.parametrize("block", [space_module.A0_BLOCK, 5, 1])
    @pytest.mark.parametrize("kind", ["line70", "sqline33", "ties", "lognormal80"])
    def test_blocked_a0_equals_unblocked_min_plus(self, monkeypatch, kind, block):
        # n is no multiple of the block, so the last block is short;
        # lognormal80's one worst pair, points 19 and 71, lies in two
        # different blocks of 64 rows and of 5
        monkeypatch.setattr(space_module, "A0_BLOCK", block)
        sp = {
            "line70": lambda: build_space("line", 70),
            "sqline33": lambda: build_space("sqline", 33),
            "ties": oracles.tied_quasi_grid,
            "lognormal80": lambda: _powered(oracles.lognormal_plane(80, seed=7), 1.5),
        }[kind]()
        d = sp.dist
        best = d.copy()
        for z in range(sp.n):
            np.minimum(best, d[:, z][:, None] + d[z, :][None, :], out=best)
        off = ~np.eye(sp.n, dtype=bool)
        want = float(max(1.0, (d[off] / best[off]).max()))
        assert sp._measure_a0() == want

    @pytest.mark.parametrize("block", [space_module.A0_BLOCK, 3, 1])
    def test_a0_attained_only_through_the_last_point(self, monkeypatch, block):
        # d(0, 1) = 4 shortens to 2 only through point 3 (through point 2
        # it is 3), so a loop that skips the last z reports 4 / 3; a
        # block of 3 rows leaves a short last block
        monkeypatch.setattr(space_module, "A0_BLOCK", block)
        dist = np.array(
            [
                [0.0, 4.0, 1.5, 1.0],
                [4.0, 0.0, 1.5, 1.0],
                [1.5, 1.5, 0.0, 1.0],
                [1.0, 1.0, 1.0, 0.0],
            ]
        )
        sp = QuasiMetricSpace(dist, np.full(4, 0.25))
        assert sp._measure_a0() == 2.0
        assert oracles.quasi_triangle_constant(sp) == 2.0

    def test_a0_inequality_never_violated(self):
        for kind, n, sp in spaces():
            d = sp.dist
            lhs = d[:, None, :]  # d(x,y) broadcast over z
            rhs = d[:, :, None] + d.T[None, :, :]  # d(x,z)+d(z,y)
            assert np.all(lhs <= sp.a0 * np.transpose(rhs, (0, 2, 1)) + 1e-12)


class TestCanonicalBalls:
    def test_pair_has_exactly_four(self):
        sp = build_space("pair", 2)
        balls = sp.canonical_balls()
        sets = sorted((b.center, tuple(b.members.tolist())) for b in balls)
        assert sets == [(0, (0,)), (0, (0, 1)), (1, (0, 1)), (1, (1,))]

    def test_line2_per_center_singleton_and_full(self):
        sp = build_space("line", 2)
        balls = sp.canonical_balls()
        per_center = {}
        for b in balls:
            per_center.setdefault(b.center, []).append(tuple(b.members.tolist()))
        assert sorted(per_center[0]) == [(0,), (0, 1)]
        assert sorted(per_center[1]) == [(0, 1), (1,)]

    def test_every_point_in_some_ball(self):
        for kind, n, sp in spaces():
            covered = np.zeros(sp.n, dtype=bool)
            for ball in sp.canonical_balls():
                covered[ball.members] = True
            assert covered.all()

    def test_members_match_strict_radius(self):
        for kind, n, sp in spaces():
            for ball in sp.canonical_balls():
                expect = oracles.ball_at(sp, ball.center, ball.radius)
                assert np.array_equal(ball.members, expect)

    def test_exhaustive_against_random_radii(self):
        rng = np.random.default_rng(11)
        for kind, n, sp in spaces():
            canon = {
                (b.center, tuple(b.members.tolist())) for b in sp.canonical_balls()
            }
            rmax = float(sp.dist.max()) * 1.6
            for _ in range(1000):
                c = int(rng.integers(sp.n))
                r = float(rng.uniform(1e-9, rmax))
                mem = tuple(oracles.ball_at(sp, c, r).tolist())
                if mem:
                    assert (c, mem) in canon

    def test_nested_by_radius_per_center(self):
        for kind, n, sp in spaces():
            per_center = {}
            for b in sp.canonical_balls():
                per_center.setdefault(b.center, []).append(b)
            for c, balls in per_center.items():
                balls.sort(key=lambda b: b.radius)
                for small, big in zip(balls, balls[1:]):
                    assert set(small.members.tolist()) < set(big.members.tolist())

    def test_ball_at_strict_semantics(self):
        sp = build_space("line", 8)
        assert np.array_equal(oracles.ball_at(sp, 0, 0.25), [0, 1])  # 2/8 = 0.25 excluded
        got = sp.canonical_ball(int(sp.ball_ids(0, 0.25)))
        assert got.center == 0 and np.array_equal(got.members, [0, 1])

    def test_smallest_covering_ball(self):
        sp = build_space("line", 8)
        ball = sp.smallest_covering_ball(np.array([2, 5]))
        assert {2, 5} <= set(ball.members.tolist())
        # no strictly smaller canonical ball covers both points
        for other in sp.canonical_balls():
            if {2, 5} <= set(other.members.tolist()):
                assert len(other.members) >= len(ball.members) or other is ball

    def test_ball_pointers_smallest_containing(self):
        for kind, n, sp in spaces():
            balls = sp.canonical_balls()
            ptr = sp.ball_pointers()
            for c in range(sp.n):
                ids = [i for i, b in enumerate(balls) if b.center == c]
                for x in range(sp.n):
                    holding = [i for i in ids if x in set(balls[i].members.tolist())]
                    assert ptr[x, c] == min(holding)


BALL_ID_SPACES = {
    "line": lambda: build_space("line", 16),
    "sqline": lambda: build_space("sqline", 12),
    "tree": lambda: build_space("tree", 15),
    "grid2d": lambda: build_space("grid2d", 4),
    "tied_quasi_grid": oracles.tied_quasi_grid,
    "lognormal_plane": oracles.lognormal_plane,
}


class TestBallIds:
    """``ball_ids`` against the open ball read straight off a distance
    row, at every center and at radii on, between, below and above the
    space's distances."""

    @staticmethod
    def _radii(sp):
        d = np.unique(sp.dist[sp.dist > 0])
        # each distance exactly (it leaves its own points out), the
        # midpoints, below the smallest and above the diameter
        return np.concatenate([d, (d[:-1] + d[1:]) / 2.0, [d[0] / 2.0, 2.0 * d[-1]]])

    @pytest.mark.parametrize("name", sorted(BALL_ID_SPACES))
    @pytest.mark.parametrize("block", [None, 1])
    def test_every_center_and_radius_matches_the_open_ball(self, monkeypatch, name, block):
        sp = BALL_ID_SPACES[name]()
        if block is not None:
            # the table built one center per block
            monkeypatch.setattr(space_module, "TABLE_BLOCK", block)
        t = sp.ball_table()
        radii = self._radii(sp)
        # in shuffled order, so that each center's radii are scattered
        perm = np.random.default_rng(0).permutation(sp.n * len(radii))
        centers = np.repeat(np.arange(sp.n), len(radii))[perm]
        radii = np.tile(radii, sp.n)[perm]
        ids = sp.ball_ids(centers, radii)
        assert ids.dtype == np.int64 and ids.shape == centers.shape
        assert np.array_equal(t.center[ids], centers)
        for i, c, r in zip(ids.tolist(), centers.tolist(), radii.tolist()):
            assert np.array_equal(sp.canonical_ball(i).members, oracles.ball_at(sp, c, r))

    def test_inputs_broadcast(self):
        sp = build_space("line", 8)
        radii = np.array([[0.1], [0.3]])
        ids = sp.ball_ids(np.arange(3), radii)
        assert ids.shape == (2, 3)
        assert int(sp.ball_ids(2, 0.3)) == ids[1, 2]
        assert sp.ball_ids(2, 0.3).shape == ()

    @pytest.mark.parametrize("center", [-1, 8])
    def test_center_out_of_range_raises(self, center):
        sp = build_space("line", 8)
        with pytest.raises(IndexError, match="range"):
            sp.ball_ids(center, 0.5)
        with pytest.raises(IndexError, match="range"):
            sp.ball_ids([0, center], 0.5)

    @pytest.mark.parametrize("radius", [0.0, -0.25, float("nan")])
    def test_nonpositive_radius_raises(self, radius):
        sp = build_space("line", 8)
        with pytest.raises(ValueError, match="positive"):
            sp.ball_ids(0, radius)
        with pytest.raises(ValueError, match="positive"):
            sp.ball_ids([0, 1], [0.5, radius])


class TestCanonicalBallsView:
    def test_len_is_the_table_length(self):
        for sp in [s for _, _, s in spaces()] + [oracles.tied_quasi_grid()]:
            assert len(sp.canonical_balls()) == len(sp.ball_table().center)
        for kind, n, balls in (("line", 256, 49280), ("grid2d", 16, 22224), ("line", 384, 133929)):
            sp = build_space(kind, n)
            assert len(sp.canonical_balls()) == len(sp.ball_table().center) == balls

    def test_iteration_int_negative_and_slice_match_canonical_ball(self):
        def same(got, want):
            assert (got.center, got.radius, got.index) == (want.center, want.radius, want.index)
            assert np.array_equal(got.members, want.members)

        others = [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        for sp in [s for _, _, s in spaces()] + others:
            view = sp.canonical_balls()
            want = [sp.canonical_ball(i) for i in range(len(view))]
            assert len(list(view)) == len(want)
            for i, ball in enumerate(view):
                same(ball, want[i])
                same(view[i], want[i])
                same(view[np.int64(i)], want[i])
                same(view[i - len(view)], want[i])
            for part in (slice(None), slice(1, None, 3), slice(-3, None), slice(None, None, -2)):
                got = view[part]
                assert len(got) == len(want[part])
                for g, w in zip(got, want[part]):
                    same(g, w)

    def test_ids_outside_the_table_raise(self):
        sp = build_space("line", 8)
        balls = len(sp.ball_table().center)
        view = sp.canonical_balls()
        for i in (-1, balls):
            with pytest.raises(IndexError):
                sp.canonical_ball(i)
        for i in (balls, -balls - 1):
            with pytest.raises(IndexError):
                view[i]
        assert view[-1].index == balls - 1
        assert view[-balls].index == 0

    def test_view_stores_no_balls(self):
        sp = build_space("line", 384)
        sp.ball_table()
        tracemalloc.start()
        try:
            assert len(sp.canonical_balls()) == 133929
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMeasuredConstants:
    def test_pair_doubling_two(self):
        assert build_space("pair", 2).c_mu == pytest.approx(2.0)

    def test_line8_doubling_at_most_three(self):
        sp = build_space("line", 8)
        assert sp.c_mu <= 3.0 + 1e-12

    def test_doubling_matches_oracle(self):
        for kind, n, sp in spaces():
            assert sp.c_mu == pytest.approx(oracles.doubling_constant(sp))

    @pytest.mark.parametrize(
        "kind",
        ["line", "sqline", "grid2d", "tree", "pair", "ties", "lognormal"] + [f"random{seed}" for seed in range(20)],
    )
    def test_doubling_equals_the_per_scale_loop(self, kind):
        if kind.startswith("random"):
            sp = oracles.random_space(int(kind[len("random") :]))
        else:
            sp = {"ties": oracles.tied_quasi_grid, "lognormal": oracles.lognormal_plane}.get(
                kind, lambda: build_space(kind, dict(KINDS)[kind])
            )()
        assert sp._measure_doubling() == oracles.measured_doubling(sp)
        for lams in ((2.0, 4.0, 8.0), (1.5, 3.0)):
            assert sp.strong_doubling_exponent(lams) == oracles.strong_doubling_exponent(sp, lams)

    def test_doubling_inequality_valid(self):
        for kind, n, sp in spaces():
            for ball in sp.canonical_balls():
                small = oracles.ball_at(sp, ball.center, ball.radius)
                big = oracles.ball_at(sp, ball.center, 2 * ball.radius)
                assert sp.measure(big) <= sp.c_mu * sp.measure(small) + 1e-12

    def test_updim_inequality_valid(self):
        for kind, n, sp in spaces():
            for lam in (2.0, 4.0, 8.0):
                for ball in sp.canonical_balls():
                    small = oracles.ball_at(sp, ball.center, ball.radius)
                    big = oracles.ball_at(sp, ball.center, lam * ball.radius)
                    bound = sp.c_mu * lam**sp.updim * sp.measure(small)
                    assert sp.measure(big) <= bound * (1 + 1e-12)

    def test_measured_constants_tuple(self):
        sp = build_space("line", 8)
        a0, c_mu, updim = sp.measured_constants()
        assert (a0, c_mu, updim) == (sp.a0, sp.c_mu, sp.updim)


class TestAveragesAndMeasure:
    def test_pair_average_half(self):
        sp = build_space("pair", 2)
        assert sp.average(np.array([0.0, 1.0]), np.array([0, 1])) == pytest.approx(0.5)

    def test_line4_average_quarter(self):
        sp = build_space("line", 4)
        f = np.array([1.0, 0.0, 0.0, 0.0])
        assert sp.average(f, np.arange(4)) == pytest.approx(0.25)

    def test_constant_average(self):
        sp = build_space("tree", 7)
        f = np.full(7, 5.0)
        assert sp.average(f, np.array([1, 3, 4])) == pytest.approx(5.0)

    def test_empty_set_rejected(self):
        sp = build_space("line", 4)
        with pytest.raises(ValueError):
            sp.measure(np.array([], dtype=np.int64))

    def test_total_mass(self):
        for kind, n, sp in spaces():
            assert sp.total_mass == pytest.approx(float(sp.mass.sum()))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        for kind, n, sp in spaces():
            path = tmp_path / f"{kind}.json"
            save_space(sp, str(path))
            back = load_space(str(path))
            assert np.array_equal(back.dist, sp.dist)
            assert np.array_equal(back.mass, sp.mass)
            assert back.n == sp.n

    def test_dict_round_trip(self):
        sp = build_space("sqline", 6)
        doc = space_to_dict(sp)
        assert set(doc) == {"n", "dist", "mass", "meta"}
        assert doc["meta"] == {"kind": "sqline", "n": 6, "seed": 0}
        back = space_from_dict(doc)
        assert np.array_equal(back.dist, sp.dist)
        assert np.array_equal(back.mass, sp.mass)
        assert back.meta == sp.meta

    def test_loads_a_file_with_coords(self, tmp_path):
        # older space files carry a coords row per point, which is not read
        sp = build_space("grid2d", 3)
        doc = space_to_dict(sp)
        doc["coords"] = [[i / 3, j / 3] for i in range(3) for j in range(3)]
        path = tmp_path / "space.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        back = load_space(str(path))
        assert np.array_equal(back.dist, sp.dist)
        assert np.array_equal(back.mass, sp.mass)
        assert back.meta == sp.meta


def _cached_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for fld in dataclasses.fields(obj):
            yield from _cached_arrays(getattr(obj, fld.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _cached_arrays(item)


class TestBallTable:
    def test_ball_sums_match_member_sums_with_random_masses(self):
        rng = np.random.default_rng(31)
        pts = rng.random((20, 2))
        plane = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        dists = [build_space(kind, n).dist for kind, n in KINDS] + [plane]
        for dist in dists:
            sp = QuasiMetricSpace(dist, rng.lognormal(0.0, 1.0, len(dist)))
            vals = rng.lognormal(0.0, 1.0, (sp.n, 3))
            got = sp.ball_sums(vals)
            balls = sp.canonical_balls()
            assert got.shape == (len(balls), 3)
            for i, ball in enumerate(balls):
                want = vals[ball.members].sum(axis=0)
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=0)
                assert sp.ball_measures()[i] == pytest.approx(sp.measure(ball.members), rel=1e-12)
            assert np.array_equal(sp.ball_sums(vals[:, 1]), got[:, 1])

    @pytest.mark.parametrize("width", [None, 3])
    def test_blocks_concatenate_to_ball_sums(self, width):
        rng = np.random.default_rng(36)
        spaces = [build_space(kind, n) for kind, n in KINDS]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        for sp in spaces:
            t = sp.ball_table()
            vals = rng.lognormal(0.0, 1.0, (sp.n,) if width is None else (sp.n, width))
            want = sp.ball_sums(vals)
            k = 1 if width is None else width
            # one float (one center, one column at a time), one center
            # with every column, and every center at once
            for limit, blocks in ((1, sp.n), (sp.n * k, sp.n), (sp.n * sp.n * k, 1)):
                got = list(sp.ball_sum_blocks(vals, limit))
                assert len(got) == blocks
                ids = [i for i, _ in got]
                assert [i.start for i in ids] == [i.stop for i in [slice(0, 0)] + ids[:-1]]
                assert ids[-1].stop == len(t.center)
                assert set(i.start for i in ids) <= set(t.start.tolist())
                assert all(sums.shape == want[i].shape for i, sums in got)
                assert np.array_equal(np.concatenate([sums for _, sums in got]), want)

    def test_no_cached_array_grows_with_balls_times_points(self):
        sp = build_space("line", 64)
        rng = np.random.default_rng(8)
        b = np.exp(0.5 * rng.standard_normal(64))
        f = rng.lognormal(0.0, 1.0, 64)
        lam1, lam2 = rng.lognormal(0.0, 0.4, (2, 64))
        maximal_function(sp, f)
        CommutatorKernel(sp, b).apply(f)
        bmo_norm(sp, b, lam1)
        verify_lower_bound(sp, b, lam1, lam2, 2.0, probes=4, ball_cap=8)
        verify_bloom_jn(sp, b, lam1, lam2, 2.0, 1.0)
        limit = len(sp.canonical_balls()) * sp.n
        sizes = [a.size for a in _cached_arrays(list(sp._cache.values()))]
        assert sizes and max(sizes) < limit

    def test_library_reads_only_the_table(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the library must read canonical balls from the ball table")

        for name in ("canonical_balls", "ball_mask", "ball_fmask"):
            monkeypatch.setattr(QuasiMetricSpace, name, refuse)
        sp = build_space("line", 32)
        rng = np.random.default_rng(12)
        b = np.exp(0.5 * rng.standard_normal(sp.n))
        f = rng.lognormal(0.0, 1.0, sp.n)
        root = sp.smallest_covering_ball(np.arange(sp.n))
        adjacent = build_adjacent_systems(sp, 0.5, 3, seed=42)
        build_domination(sp, adjacent, b, f, root)
        CommutatorKernel(sp, b).apply(f, want_witness=True)
        assert not any(
            isinstance(v, list) and v and isinstance(v[0], Ball) for v in sp._cache.values()
        )
        out = str(tmp_path / "reports")
        assert main(["verify", "--seed", "42", "--out", out]) == 0
        with open(os.path.join(out, "verify.csv"), encoding="utf-8") as fh:
            assert ".error," not in fh.read()

    def test_canonical_ball_matches_the_table_row(self):
        for kind, n, sp in spaces():
            t = sp.ball_table()
            for i in range(len(t.center)):
                ball = sp.canonical_ball(i)
                assert (ball.center, ball.radius, ball.index) == (t.center[i], t.radius[i], i)
                assert np.array_equal(ball.members, oracles.ball_at(sp, ball.center, ball.radius))
