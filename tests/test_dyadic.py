"""Dyadic cube systems: construction, certification, adjacent families."""

import math

import numpy as np
import pytest

import oracles
from shtlab import (
    build_adjacent_systems,
    build_dyadic_system,
    build_space,
    load_system,
    save_system,
    system_from_dict,
    system_from_level_sets,
    system_to_dict,
    verify_system,
)
from shtlab.dyadic import (
    _ball_level,
    _ball_levels,
    _candidate_pool,
    _capture_mask,
    geometric_doubling,
)
from shtlab.space import QuasiMetricSpace

ALL_KINDS = [("line", 16), ("sqline", 12), ("grid2d", 4), ("tree", 15), ("pair", 2)]


class TestConstruction:
    def test_line4_shape(self):
        sp = build_space("line", 4)
        system = build_dyadic_system(sp, 0.5)
        sizes = [sorted(len(c.members) for c in system.cubes[k]) for k in system.levels]
        assert sizes[0] == [4]
        assert [4], [2, 2] == (sizes[0], sizes[1])
        assert sizes[1] == [2, 2]
        assert sizes[-1] == [1, 1, 1, 1]
        rep = verify_system(system, sp)
        assert rep["M"] == 2
        pair_sets = sorted(
            tuple(c.members.tolist()) for c in system.cubes[system.levels[1]]
        )
        assert pair_sets == [(0, 1), (2, 3)]

    def test_levels_partition_every_kind(self):
        for kind, n in ALL_KINDS:
            sp = build_space(kind, n)
            system = build_dyadic_system(sp, 0.5)
            for k in system.levels:
                ids = np.concatenate([c.members for c in system.cubes[k]])
                assert np.array_equal(np.sort(ids), np.arange(sp.n))

    def test_bottom_level_singletons(self):
        for kind, n in ALL_KINDS:
            sp = build_space(kind, n)
            system = build_dyadic_system(sp, 0.5)
            assert all(len(c.members) == 1 for c in system.cubes[system.levels[-1]])

    def test_deterministic(self):
        sp = build_space("line", 32)
        a = build_dyadic_system(sp, 0.5, seed=5)
        b = build_dyadic_system(sp, 0.5, seed=5)
        for k in a.levels:
            for ca, cb in zip(a.cubes[k], b.cubes[k]):
                assert ca.center == cb.center
                assert np.array_equal(ca.members, cb.members)

    def test_child_links_consistent(self):
        sp = build_space("line", 16)
        system = build_dyadic_system(sp, 0.5)
        for k in system.levels[:-1]:
            for cube in system.cubes[k]:
                child_ids = np.concatenate([c.members for c in cube.children])
                assert np.array_equal(np.sort(child_ids), cube.members)
                for child in cube.children:
                    assert child.parent is cube


class TestVerifySystem:
    def test_zero_violations_every_kind(self):
        for kind, n in ALL_KINDS:
            sp = build_space(kind, n)
            system = build_dyadic_system(sp, 0.5)
            rep = verify_system(system, sp)
            assert rep["violations"] == []
            assert rep["sandwich_ok"] and rep["monotone_ok"]
            assert math.isfinite(rep["c1"]) and rep["c1"] > 0
            assert math.isfinite(rep["C1"]) and rep["C1"] > 0

    def test_line16_no_violations(self):
        sp = build_space("line", 16)
        rep = verify_system(build_dyadic_system(sp, 0.5), sp)
        assert rep["violations"] == []

    def test_singleton_only_system(self):
        sp = build_space("line", 4)
        system = system_from_level_sets(
            sp, 0.5, {0: [(i, [i]) for i in range(4)]}
        )
        rep = verify_system(system, sp)
        assert rep["violations"] == []
        assert rep["M"] == 0
        assert math.isfinite(rep["c1"]) and math.isfinite(rep["C1"])

    def test_detects_partition_break(self):
        sp = build_space("line", 4)
        system = system_from_level_sets(
            sp,
            0.5,
            {
                0: [(0, [0, 1, 2, 3])],
                1: [(0, [0, 1]), (2, [2])],  # point 3 lost at level 1
            },
        )
        rep = verify_system(system, sp)
        assert any(v[0] == "partition" for v in rep["violations"])

    def test_detects_overlap_without_containment(self):
        sp = build_space("line", 4)
        system = system_from_level_sets(
            sp,
            0.5,
            {
                0: [(0, [0, 1, 2]), (3, [3])],
                1: [(0, [0, 1]), (2, [2, 3])],  # straddles the level-0 split
            },
        )
        rep = verify_system(system, sp)
        kinds = {v[0] for v in rep["violations"]}
        assert "nested" in kinds or "ancestor" in kinds

    def test_sandwich_constants_hold_by_recheck(self):
        for kind, n in (("line", 32), ("tree", 15)):
            sp = build_space(kind, n)
            system = build_dyadic_system(sp, 0.5)
            c1, C1 = system.measured_c1, system.measured_C1
            for k in system.levels:
                for cube in system.cubes[k]:
                    scale = 0.5**k
                    inner = np.flatnonzero(
                        sp.dist[cube.center] < c1 * scale * (1 - 1e-12)
                    )
                    assert set(inner.tolist()) <= set(cube.members.tolist())
                    far = sp.dist[cube.center, cube.members].max()
                    assert far <= C1 * scale * (1 + 1e-12)

    def test_monotone_containing_balls(self):
        sp = build_space("sqline", 16)
        system = build_dyadic_system(sp, 0.5)
        C1 = system.measured_C1
        for k in system.levels[:-1]:
            for cube in system.cubes[k]:
                parent_ball = sp.dist[cube.center] <= C1 * 0.5**k + 1e-12
                for child in cube.children:
                    child_ball = sp.dist[child.center] <= C1 * 0.5**child.k
                    assert not np.any(child_ball & ~parent_ball)


class TestFrozenCertification:
    """Measured constants for the two 64-point reference spaces, seed 42."""

    def test_line64(self):
        sp = build_space("line", 64)
        system = build_dyadic_system(sp, 0.5, seed=42)
        rep = verify_system(system, sp)
        assert rep["violations"] == []
        assert rep["sandwich_ok"] and rep["monotone_ok"]
        assert rep["c1"] == pytest.approx(0.0625)
        assert rep["containment_C1"] == pytest.approx(0.984375)
        assert rep["C1"] == pytest.approx(1.90625)
        assert rep["M"] == 3

    def test_sqline64(self):
        sp = build_space("sqline", 64)
        system = build_dyadic_system(sp, 0.5, seed=42)
        rep = verify_system(system, sp)
        assert rep["violations"] == []
        assert rep["sandwich_ok"] and rep["monotone_ok"]
        assert rep["c1"] == pytest.approx(0.001953125)
        assert rep["containment_C1"] == pytest.approx(1.876953125)
        assert rep["C1"] == pytest.approx(6.890625)
        assert rep["M"] == 3


class TestAdjacentSystems:
    def test_pair_single_system_captures_all(self):
        sp = build_space("pair", 2)
        adj = build_adjacent_systems(sp, 0.5, 1)
        assert adj.capture_failures == []
        assert adj.capture_constant <= 2.0 + 1e-12

    def test_line16_three_systems_capture_all(self):
        sp = build_space("line", 16)
        adj = build_adjacent_systems(sp, 0.5, 3)
        assert adj.capture_failures == []

    def test_singleton_balls_always_captured(self):
        for kind, n in ALL_KINDS:
            sp = build_space(kind, n)
            balls = sp.canonical_balls()
            adj = build_adjacent_systems(sp, 0.5, 1)
            singleton_fails = [
                rec for rec in adj.capture_failures if len(balls[rec["ball"]].members) <= 1
            ]
            assert singleton_fails == []

    def test_line64_seed42_full_capture(self):
        sp = build_space("line", 64)
        adj = build_adjacent_systems(sp, 0.5, 3, seed=42)
        assert len(adj.capture_failures) == 0
        assert adj.capture_fraction == 1.0
        assert adj.capture_constant == pytest.approx(44.0 / 3.0)

    def test_sqline64_seed42_capture_over_99_percent(self):
        sp = build_space("sqline", 64)
        adj = build_adjacent_systems(sp, 0.5, 3, seed=42)
        assert len(adj.capture_failures) == 16
        assert adj.capture_fraction >= 0.99
        assert adj.capture_fraction == pytest.approx(1.0 - 16.0 / 3104.0)
        assert adj.capture_constant == pytest.approx(40.0)
        for rec in adj.capture_failures:
            assert {"x", "r", "k"} <= set(rec)

    @pytest.mark.parametrize("kind,n", [("line", 64), ("grid2d", 8), ("tree", 63)])
    def test_table_capture_masks_match_per_ball_definition(self, kind, n):
        sp = build_space(kind, n)
        levels = _ball_levels(sp, 0.5)
        balls = sp.canonical_balls()
        for system in _candidate_pool(sp, 0.5, 3, 42):
            lo, hi = system.levels[0], system.levels[-1]
            want = []
            for ball in balls:
                lab = system.labels[_ball_level(ball.radius, 0.5, lo, hi)]
                want.append(bool(np.all(lab[ball.members] == lab[ball.center])))
            assert np.array_equal(_capture_mask(sp, system, levels), np.array(want))

    def test_every_pooled_system_certifies(self):
        sp = build_space("line", 32)
        adj = build_adjacent_systems(sp, 0.5, 3, seed=1)
        for system in adj.systems:
            rep = verify_system(system, sp)
            assert rep["violations"] == []

    def test_report_fields(self):
        sp = build_space("line", 16)
        adj = build_adjacent_systems(sp, 0.5, 2, seed=0)
        rep = adj.report
        assert rep["t_count"] == 2
        assert rep["a1"] >= 1
        assert rep["bound"] > 0

    def test_geometric_doubling_matches_the_per_ball_greedy(self):
        pts = np.random.default_rng(13).random((40, 2))
        plane = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        spaces = [build_space(kind, n) for kind, n in ALL_KINDS + [("grid2d", 6)]]
        spaces.append(QuasiMetricSpace(plane, np.full(40, 1.0 / 40)))
        grid = np.array([(i, j) for i in range(5) for j in range(5)], dtype=float)
        ties = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=2) ** 1.5
        spaces.append(QuasiMetricSpace(ties, np.full(25, 1.0 / 25)))
        for sp in spaces:
            for delta in (0.1, 0.3, 0.5, 0.9):
                assert geometric_doubling(sp, delta) == oracles.geometric_doubling(sp, delta)

    def test_deterministic(self):
        sp = build_space("sqline", 32)
        a = build_adjacent_systems(sp, 0.5, 2, seed=9)
        b = build_adjacent_systems(sp, 0.5, 2, seed=9)
        assert a.capture_fraction == b.capture_fraction
        for sa, sb in zip(a.systems, b.systems):
            for k in sa.levels:
                for ca, cb in zip(sa.cubes[k], sb.cubes[k]):
                    assert np.array_equal(ca.members, cb.members)


class TestSerialization:
    def test_round_trip_preserves_structure(self, tmp_path):
        sp = build_space("tree", 15)
        system = build_dyadic_system(sp, 0.5, seed=4)
        path = tmp_path / "system.json"
        save_system(system, str(path))
        back = load_system(sp, str(path))
        assert back.levels == system.levels
        assert back.delta == system.delta
        for k in system.levels:
            for ca, cb in zip(system.cubes[k], back.cubes[k]):
                assert ca.center == cb.center
                assert np.array_equal(ca.members, cb.members)

    def test_dict_round_trip_verifies(self):
        sp = build_space("line", 16)
        system = build_dyadic_system(sp, 0.5)
        back = system_from_dict(sp, system_to_dict(system))
        rep = verify_system(back, sp)
        assert rep["violations"] == []
