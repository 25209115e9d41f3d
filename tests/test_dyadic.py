"""Dyadic cube systems: construction, certification, adjacent families."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from shtlab import dyadic
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
    _assemble_system,
    _ball_level,
    _ball_levels,
    _candidate_pool,
    _capture_mask,
    _fps_nets,
    _greedy_nets,
    geometric_doubling,
)
from shtlab.space import QuasiMetricSpace

ALL_KINDS = [("line", 16), ("sqline", 12), ("grid2d", 4), ("tree", 15), ("pair", 2)]


def _assembly_spaces():
    spaces = [build_space(kind, n) for kind, n in ALL_KINDS]
    return spaces + [oracles.tied_quasi_grid(), oracles.lognormal_plane()]


def _up(cube):
    return None if cube.parent is None else (cube.parent.k, cube.parent.alpha)


def assert_same_system(got, want):
    """Labels, centers, alpha order, members and tree links agree."""
    assert got.levels == want.levels
    for k in want.levels:
        assert np.array_equal(got.labels[k], want.labels[k])
        assert len(got.cubes[k]) == len(want.cubes[k])
        assert got.centers[k].tolist() == [c.center for c in want.cubes[k]]
        for a, b in zip(got.cubes[k], want.cubes[k]):
            assert (a.k, a.alpha, a.center) == (b.k, b.alpha, b.center)
            assert np.array_equal(a.members, b.members)
            assert _up(a) == _up(b)
            assert [(c.k, c.alpha) for c in a.children] == [(c.k, c.alpha) for c in b.children]
            assert all(c.parent is a for c in a.children)


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


class TestAssembly:
    """Label-array assembly against the per-parent loop it replaced."""

    @pytest.mark.parametrize("space", _assembly_spaces(), ids=lambda sp: f"n{sp.n}")
    def test_greedy_nets_match_the_per_point_sweep(self, space):
        for delta in (0.3, 0.5):
            for scale in (1.0, delta ** (-1.0 / 3.0), delta ** (-2.0 / 3.0)):
                for seed in (0, 7, 42):
                    got = _greedy_nets(space, delta, seed, sep_scale=scale)
                    want = oracles.greedy_nets(space, delta, seed, sep_scale=scale)
                    assert list(got) == list(want)
                    for k in want:
                        assert np.array_equal(got[k], want[k])

    @pytest.mark.parametrize("space", _assembly_spaces(), ids=lambda sp: f"n{sp.n}")
    def test_assembly_matches_the_per_parent_loop(self, space):
        for delta in (0.3, 0.5):
            for seed in (0, 7, 42):
                nets = [_fps_nets(space, delta, seed % space.n, np.random.default_rng(seed))]
                for scale in (1.0, delta ** (-1.0 / 3.0), delta ** (-2.0 / 3.0)):
                    nets.append(oracles.greedy_nets(space, delta, seed, sep_scale=scale))
                for net in nets:
                    assert_same_system(
                        _assemble_system(space, delta, seed, net),
                        oracles.assemble_system(space, delta, seed, net),
                    )

    def test_net_that_misses_a_parent_cube_is_infeasible(self):
        sp = build_space("line", 8)
        # the level-2 net has no center in the level-1 cube around 4
        nets = {0: np.array([0]), 1: np.array([0, 4]), 2: np.array([0, 2])}
        for assemble in (_assemble_system, oracles.assemble_system):
            with pytest.raises(AssertionError, match="parent-consistent assignment infeasible"):
                assemble(sp, 0.5, 0, nets)

    def test_nets_that_shrink_are_refused(self):
        sp = build_space("line", 8)
        # every level refines the last, but point 4 leaves the level-2 net
        nets = {0: np.array([0]), 1: np.array([0, 4]), 2: np.array([0, 2, 5, 6])}
        with pytest.raises(AssertionError, match="nets must grow"):
            _assemble_system(sp, 0.5, 0, nets)

    def test_cubes_are_built_on_first_read(self):
        sp = build_space("line", 16)
        system = build_dyadic_system(sp, 0.5)
        assert "cubes" not in vars(system)
        cubes = system.cubes
        assert vars(system)["cubes"] is cubes

    def test_unchosen_pool_systems_never_build_cubes(self, monkeypatch):
        pools = []

        def keep_pool(*args):
            pools.append(_candidate_pool(*args))
            return pools[-1]

        monkeypatch.setattr(dyadic, "_candidate_pool", keep_pool)
        for kind, n in (("line", 64), ("sqline", 32), ("tree", 31)):
            adj = build_adjacent_systems(build_space(kind, n), 0.5, 3, seed=42)
            chosen = adj.report["chosen"]
            unchosen = [s for i, s in enumerate(pools[-1]) if i not in chosen]
            assert len(unchosen) == adj.report["pool_size"] - 3
            assert all("cubes" not in vars(s) for s in unchosen)


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

    def test_nesting_violations_match_the_pair_scan(self):
        rng = np.random.default_rng(3)
        for kind, n in (("line", 16), ("sqline", 12), ("tree", 15), ("grid2d", 4)):
            sp = build_space(kind, n)
            system = build_dyadic_system(sp, 0.5)
            for trial in range(12):
                sets = {
                    k: [(c.center, c.members.tolist()) for c in system.cubes[k]]
                    for k in system.levels
                }
                # move, copy or drop a few points, never emptying a cube
                for _ in range(1 + trial % 3):
                    k = system.levels[rng.integers(1, len(system.levels))]
                    big = [a for a, (_, m) in enumerate(sets[k]) if len(m) > 1]
                    if not big:
                        continue
                    src = sets[k][big[rng.integers(len(big))]][1]
                    x = src[rng.integers(len(src))]
                    how = trial % 3
                    if how != 1:
                        src.remove(x)
                    if how != 2:
                        dst = sets[k][rng.integers(len(sets[k]))][1]
                        if x not in dst:
                            dst.append(x)
                broken = system_from_level_sets(sp, 0.5, sets)
                rep = verify_system(broken, sp)
                got = [v for v in rep["violations"] if v[0] != "separation"]
                assert got == oracles.nesting_violations(broken, sp)
                assert rep == oracles.verify_system(broken, sp)

    def test_failing_systems_keep_the_whole_list(self):
        # a valid system builds only the adjacent level pairs; a system
        # with an empty cube, a point in two cubes or a point in none, or
        # a straddling cube, still reports every level pair's entries
        sp = build_space("line", 8)
        halves = [(0, [0, 1, 2, 3]), (4, [4, 5, 6, 7])]
        pairs = [(2 * i, [2 * i, 2 * i + 1]) for i in range(4)]
        cases = [
            # an empty cube under a level with one cube
            {0: [(0, list(range(8)))], 1: [(0, list(range(8))), (3, [])], 2: halves, 3: pairs},
            {0: [(0, list(range(8)))], 1: halves, 2: pairs + [(5, [])], 3: [(i, [i]) for i in range(8)]},
            # point 3 in two cubes, then in none
            {0: [(0, list(range(8)))], 1: halves, 2: pairs, 3: [(i, [i, 3]) for i in range(8)]},
            {0: halves, 1: pairs, 2: [(i, [i]) for i in range(8) if i != 3]},
            # a cube straddling two parents two levels up
            {0: halves, 1: [(0, [0, 1, 2]), (3, [3, 4, 5]), (6, [6, 7])], 2: [(i, [i]) for i in range(8)]},
        ]
        for sets in cases:
            system = system_from_level_sets(sp, 0.5, sets)
            rep = verify_system(system, sp)
            got = [v for v in rep["violations"] if v[0] != "separation"]
            assert got == oracles.nesting_violations(system, sp)
            if all(len(m) for level in sets.values() for _, m in level):
                # the per-cube oracle's sandwich reads each cube's members
                assert rep == oracles.verify_system(system, sp)
        # the second case's empty cube lies in each of the two halves
        system = system_from_level_sets(sp, 0.5, cases[1])
        assert ("ancestor", 2, 4, 1) in verify_system(system, sp)["violations"]

    def test_nesting_violations_order_on_a_straddling_cube(self):
        sp = build_space("line", 6)
        system = system_from_level_sets(
            sp,
            0.5,
            {
                0: [(0, [0, 1, 2]), (3, [3, 4, 5])],
                1: [(0, [0, 1]), (2, [2, 3, 4]), (5, [5])],
            },
        )
        want = [("nested", 1, 1, 0, 0), ("nested", 1, 1, 0, 1), ("ancestor", 1, 1, 0)]
        assert oracles.nesting_violations(system, sp) == want
        assert verify_system(system, sp)["violations"][:3] == want

    @pytest.mark.parametrize("space", _assembly_spaces(), ids=lambda sp: f"n{sp.n}")
    def test_report_matches_the_per_cube_scan(self, space):
        systems = [build_dyadic_system(space, 0.5, seed=42)]
        systems += _candidate_pool(space, 0.5, 3, 42)[1::6]
        systems.append(build_dyadic_system(space, 0.3))
        for system in systems:
            want = oracles.verify_system(system, space)
            assert verify_system(system, space) == want

    @staticmethod
    def _failing(n, level_sets):
        sp = build_space("line", n)
        system = system_from_level_sets(sp, 0.5, level_sets)
        return sp, system, oracles.verify_system(system, sp)

    def test_separation_failure_matches_the_per_cube_scan(self):
        # the level-1 centers 3 and 4 lie 1/8 apart, under delta
        sp, system, want = self._failing(
            8, {0: [(0, list(range(8)))], 1: [(3, [0, 1, 2, 3]), (4, [4, 5, 6, 7])]}
        )
        assert want["violations"] == [("separation", 0, 0)]
        assert verify_system(system, sp) == want

    def test_monotone_failures_match_the_per_cube_scan(self):
        # cubes (1, 2) and (1, 3) are centred in the other level-0 cube,
        # so their balls leave their containing cube's ball; the list goes
        # by containing cube first
        sp, system, want = self._failing(
            16,
            {
                0: [(0, list(range(8))), (15, list(range(8, 16)))],
                1: [
                    (0, [0, 1, 2, 3]), (5, [4, 5, 6]), (3, [8]),
                    (12, [7]), (10, [9, 10, 11]), (14, [12, 13, 14, 15]),
                ],
            },
        )
        assert want["monotone_violations"] == [(1, 3, 0, 0), (1, 2, 0, 1)]
        assert want["violations"] == [("separation", 0, 0), ("separation", 0, 1)]
        assert verify_system(system, sp) == want

    def test_moved_centers_match_the_per_cube_scan(self):
        rng = np.random.default_rng(5)
        for kind, n in (("line", 16), ("sqline", 12), ("tree", 15), ("grid2d", 4)):
            sp = build_space(kind, n)
            system = build_dyadic_system(sp, 0.5)
            for _ in range(3):
                sets = {
                    k: [(int(rng.integers(sp.n)), c.members.tolist()) for c in system.cubes[k]]
                    for k in system.levels
                }
                broken = system_from_level_sets(sp, 0.5, sets)
                want = oracles.verify_system(broken, sp)
                assert any(v[0] == "separation" for v in want["violations"])
                assert verify_system(broken, sp) == want

    def test_sandwich_failure_matches_the_per_cube_scan(self):
        # cube 0 lists 8 members, so its missing points 4..6 set no c1
        sp, system, want = self._failing(
            8, {0: [(0, list(range(8)))], 1: [(3, [0, 1, 2, 3] * 2), (7, [4, 5, 6, 7])]}
        )
        assert not want["sandwich_ok"]
        assert verify_system(system, sp) == want

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

    def test_sandwich_is_measured_on_first_read(self):
        sp = build_space("line", 32)
        system = build_dyadic_system(sp, 0.5)
        assert "_sandwich" not in vars(system) and "measured_C1" not in vars(system)
        c1, C1 = system.measured_c1, system.measured_C1
        assert "_sandwich" in vars(system) and vars(system)["measured_C1"] == C1
        assert (c1, system.containment_C1) == build_dyadic_system(sp, 0.5)._sandwich

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

    FROZEN_REPORTS = {
        ("line", 16): [
            ("t_count", 3), ("a0", 1.0), ("a1", 4), ("delta", 0.5), ("bound", 16384.0),
            ("within_bound", True), ("pool_size", 25), ("chosen", [20, 0, 1]),
        ],
        ("sqline", 64): [
            ("t_count", 3), ("a0", 2.0), ("a1", 3), ("delta", 0.5), ("bound", 177146.99999999994),
            ("within_bound", True), ("pool_size", 25), ("chosen", [20, 14, 15]),
        ],
        ("grid2d", 6): [
            ("t_count", 3), ("a0", 1.0000000000000002), ("a1", 12), ("delta", 0.5),
            ("bound", 35831808.00000011), ("within_bound", True), ("pool_size", 25),
            ("chosen", [1, 0, 2]),
        ],
        ("tree", 31): [
            ("t_count", 3), ("a0", 1.0), ("a1", 13), ("delta", 0.5), ("bound", 62748517.0),
            ("within_bound", True), ("pool_size", 25), ("chosen", [0, 1, 2]),
        ],
    }

    @staticmethod
    def _count_doubling(monkeypatch):
        calls = []
        real = dyadic.geometric_doubling

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dyadic, "geometric_doubling", counted)
        return calls

    def test_built_family_leaves_the_bound_and_capture_constant_unread(self, monkeypatch):
        calls = self._count_doubling(monkeypatch)
        sp = build_space("line", 16)
        adj = build_adjacent_systems(sp, 0.5, 3, seed=42)
        assert len(adj.systems) == 3 and adj.capture_fraction == 1.0 and adj.capture_failures == []
        assert [adj.report[key] for key in ("t_count", "delta", "pool_size", "chosen")] == [
            3, 0.5, 25, [20, 0, 1]
        ]
        assert "t_count" in adj.report and "ball" not in adj.report
        assert calls == []
        assert "constants" not in sp._cache
        assert "capture_constant" not in vars(adj)
        assert adj.capture_constant == 6.0
        assert calls == []

    @pytest.mark.parametrize("key", ["a0", "a1", "bound", "within_bound"])
    def test_any_bound_field_counts_doubling_once(self, monkeypatch, key):
        calls = self._count_doubling(monkeypatch)
        adj = build_adjacent_systems(build_space("line", 16), 0.5, 3, seed=42)
        assert adj.report[key] == dict(self.FROZEN_REPORTS[("line", 16)])[key]
        assert len(calls) == 1
        assert list(adj.report.items()) == self.FROZEN_REPORTS[("line", 16)]
        assert len(calls) == 1

    @pytest.mark.parametrize("kind,n", list(FROZEN_REPORTS))
    def test_report_items_are_frozen(self, kind, n):
        adj = build_adjacent_systems(build_space(kind, n), 0.5, 3, seed=42)
        assert list(adj.report.items()) == self.FROZEN_REPORTS[(kind, n)]
        assert len(adj.report) == 8 and dict(adj.report) == dict(self.FROZEN_REPORTS[(kind, n)])

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
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        # the open sets' 64-point word edges fall inside the balls of
        # line63 to line129, grid2d8 (64 points) and grid2d9 (81)
        spaces += [build_space("line", n) for n in (63, 64, 65, 127, 129)]
        spaces += [build_space("grid2d", 8), build_space("grid2d", 9)]
        # on tree15, 0.4 r and 0.8 r hit integer distances: a point at
        # exactly the separation is kept
        for sp in spaces:
            for delta in (0.1, 0.3, 0.4, 0.5, 0.8, 0.9):
                assert geometric_doubling(sp, delta) == oracles.geometric_doubling(sp, delta)

    @pytest.mark.parametrize("delta", [0.0, -0.5, 1.0, math.nan])
    def test_geometric_doubling_rejects_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            geometric_doubling(build_space("line", 32), delta)

    @pytest.mark.parametrize("kind", ["line48", "tree31", "ties", "lognormal"])
    def test_geometric_doubling_blocks_match_the_oracle(self, monkeypatch, kind):
        sp = {
            "line48": lambda: build_space("line", 48),
            "tree31": lambda: build_space("tree", 31),
            "ties": oracles.tied_quasi_grid,
            "lognormal": oracles.lognormal_plane,
        }[kind]()
        t = sp.ball_table()
        # one ball per block, a block edge one ball into center 1's list,
        # and every ball in one block; a ball's open set takes one 8-byte
        # word per 64 points
        assert t.start[2] - t.start[1] > 1
        for delta in (0.3, 0.5):
            want = oracles.geometric_doubling(sp, delta)
            for rows in (1, t.start[1] + 1, len(t.center)):
                monkeypatch.setattr(dyadic, "DOUBLING_BLOCK", int(rows) * 8 * -(-sp.n // 64))
                assert geometric_doubling(sp, delta) == want

    @pytest.mark.parametrize("rows", [16, 256])
    def test_geometric_doubling_scratch_follows_the_block_budget(self, monkeypatch, rows):
        sp = build_space("line", 64)
        want = geometric_doubling(sp, 0.5)  # the ball table stays out of the traced peak
        monkeypatch.setattr(dyadic, "DOUBLING_BLOCK", rows * sp.n)
        tracemalloc.start()
        try:
            assert geometric_doubling(sp, 0.5) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the word table, a chunk of prefix words and sorted distances,
        # the gather that fills the table, and temporaries
        assert peak < 16 * dyadic.DOUBLING_BLOCK + 16384

    @pytest.mark.parametrize("kind,n,a1", [("line", 256, 4), ("grid2d", 16, 14)])
    def test_geometric_doubling_on_the_ladder_spaces(self, kind, n, a1):
        assert geometric_doubling(build_space(kind, n), 0.5) == a1

    @pytest.mark.parametrize("kind,n,a1", [("line", 256, 4), ("grid2d", 16, 14)])
    def test_geometric_doubling_scratch_at_ladder_scale(self, kind, n, a1):
        # a full block's word table, a chunk of prefix words and sorted
        # distances within another, and either the gather that fills the
        # table or the sweep's per-word temporaries
        sp = build_space(kind, n)
        sp.ball_table()  # the ball table stays out of the traced peak
        tracemalloc.start()
        try:
            assert geometric_doubling(sp, 0.5) == a1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * dyadic.DOUBLING_BLOCK

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
