"""Sparse families: packing constants, stopping-time selection,
oscillation augmentation, and pointwise domination certificates."""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from shtlab import sparse
from shtlab import (
    CommutatorKernel,
    SparseFamily,
    build_adjacent_systems,
    build_domination,
    build_dyadic_system,
    build_space,
    certificate_to_dict,
    cz_select,
    evaluate_bound_from_dict,
    oscillation_domination,
    packing_constant,
    save_certificate,
    sparse_commutator,
    sparse_commutator_adjoint,
)
from shtlab.cli import main as cli_main
from shtlab.dyadic import DyadicSystem


def _all_cubes(system):
    return [c for k in system.levels for c in system.cubes[k]]


def _key(cube):
    return (cube.k, cube.alpha)


def _is_inside(inner, outer):
    """Ancestor-chain containment within one system."""
    node = inner
    while node is not None:
        if _key(node) == _key(outer):
            return True
        node = node.parent
    return False


class TestPackingConstant:
    def test_empty_family_is_one(self):
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        assert packing_constant(system, []) == 1.0

    def test_single_cube_is_one(self):
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        root = system.cubes[system.levels[0]][0]
        assert packing_constant(system, [root]) == 1.0

    def test_full_line4_tree_is_one_third(self):
        # Carleson sum at the root: 1 + 2*(1/2) + 4*(1/4) = 3.
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        fam = _all_cubes(system)
        eta = packing_constant(system, fam)
        assert eta == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert eta == pytest.approx(oracles.packing_constant(system, fam), abs=1e-15)

    @pytest.mark.parametrize("kind,n", [("line", 8), ("tree", 15), ("sqline", 8)])
    def test_random_subfamilies_match_oracle(self, kind, n):
        space = build_space(kind, n)
        system = build_dyadic_system(space, 0.5, seed=1)
        cubes = _all_cubes(system)
        rng = np.random.default_rng(11)
        for _ in range(6):
            take = rng.random(len(cubes)) < 0.4
            fam = [c for c, t in zip(cubes, take) if t]
            eta = packing_constant(system, fam)
            assert eta == pytest.approx(oracles.packing_constant(system, fam), abs=1e-12)
            assert 0.0 < eta <= 1.0


class TestCzSelect:
    def test_rejects_nonpositive_height(self):
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        with pytest.raises(ValueError):
            cz_select(system, np.ones(4), 0.0)

    def test_rejects_negative_values(self):
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        with pytest.raises(ValueError):
            cz_select(system, np.array([1.0, -1.0, 0.0, 0.0]), 0.5)

    def test_zero_function_selects_nothing(self):
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        assert cz_select(system, np.zeros(4), 0.3) == []

    def test_single_atom_spike(self):
        system = build_dyadic_system(build_space("line", 4), 0.5, seed=0)
        g = np.array([4.0, 0.0, 0.0, 0.0])
        # Global average 1.0 crosses height 0.6 already at the root.
        sel = cz_select(system, g, 0.6)
        assert [(__c.k, __c.alpha) for __c in sel] == [(0, 0)]
        # Height 1.2: the root average does not cross, the left half does.
        sel = cz_select(system, g, 1.2)
        assert [(__c.k, __c.alpha) for __c in sel] == [(1, 0)]

    @pytest.mark.parametrize("kind,n", [("line", 8), ("tree", 15), ("grid2d", 3)])
    def test_seeded_battery_matches_oracle_and_stopping(self, kind, n):
        space = build_space(kind, n)
        system = build_dyadic_system(space, 0.5, seed=2)
        rng = np.random.default_rng(23)
        for trial in range(8):
            g = np.abs(rng.standard_normal(space.n)) ** 2
            height = 0.25 + 0.5 * rng.random()
            sel = cz_select(system, g, height)
            want = oracles.cz_select(system, g, height)
            assert sorted(_key(c) for c in sel) == sorted(_key(c) for c in want)
            covered = np.zeros(space.n, dtype=bool)
            for cube in sel:
                # Selected cubes cross the height; their parents do not.
                assert space.average(g, cube.members) > height
                if cube.parent is not None:
                    assert space.average(g, cube.parent.members) <= height
                assert not covered[cube.members].any()  # pairwise disjoint
                covered[cube.members] = True
            # Away from the selection every atom sits below the height.
            assert np.all(g[~covered] <= height + 1e-15)


class TestOscillationDomination:
    def test_constant_symbol_adds_nothing(self):
        space = build_space("pair", 2)
        system = build_dyadic_system(space, 0.5, seed=0)
        root = system.cubes[system.levels[0]][0]
        res = oscillation_domination(system, [root], np.array([2.0, 2.0]))
        assert res["c_emp"] == 0.0
        assert [_key(c) for c in res["S_tilde"].cubes] == [_key(root)]
        assert res["packing_ok"]

    def test_pair_step_symbol(self):
        # b = (0, 1): osc at the root is 1/2, and |b(x) - b_root| = 1/2
        # pointwise, so the certified constant is exactly 1.
        space = build_space("pair", 2)
        system = build_dyadic_system(space, 0.5, seed=0)
        root = system.cubes[system.levels[0]][0]
        res = oscillation_domination(system, [root], np.array([0.0, 1.0]))
        assert res["c_emp"] == pytest.approx(1.0, abs=1e-15)
        assert res["eta_input"] == 1.0
        assert res["packing_ok"]
        fam = res["S_tilde"]
        assert isinstance(fam, SparseFamily)
        assert [_key(c) for c in fam.cubes] == [_key(root)]
        assert sorted(fam.witness.keys()) == [_key(root)]

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_seeded_pointwise_control(self, seed):
        space = build_space("line", 32)
        system = build_dyadic_system(space, 0.5, seed=3)
        rng = np.random.default_rng(seed)
        b = np.exp(0.5 * rng.standard_normal(32))
        g = np.abs(rng.standard_normal(32))
        base = cz_select(system, g, 0.8 * float((g * space.mass).sum()))
        if not base:
            base = [system.cubes[system.levels[0]][0]]
        res = oscillation_domination(system, base, b)
        fam = res["S_tilde"]
        in_keys = {_key(c) for c in base}
        out_keys = {_key(c) for c in fam.cubes}
        assert in_keys <= out_keys  # the input family survives
        assert np.isfinite(res["c_emp"]) and res["c_emp"] >= 0.0
        assert res["packing_ok"]
        assert fam.eta_certified >= res["packing_floor"] * (1.0 - 1e-12)
        # Witness sets live inside their cubes.
        for key, members in fam.witness.items():
            cube = system.cubes[key[0]][key[1]]
            assert set(members.tolist()) <= set(cube.members.tolist())
        # Brute-force recheck of the certified pointwise inequality on
        # every family cube: |b - b_Q| <= c_emp * sum of osc(R) chi_R
        # over family members R inside Q, with 0/0 treated as fine.
        cubes = {key: system.cubes[key[0]][key[1]] for key in out_keys}
        osc = {key: oracles.mean_oscillation(space, b, c.members) for key, c in cubes.items()}
        for key, cube in cubes.items():
            b_q = space.average(b, cube.members)
            for x in cube.members:
                num = abs(b[x] - b_q)
                denom = sum(
                    osc[rk]
                    for rk, r in cubes.items()
                    if x in r.members and _is_inside(r, cube)
                )
                if denom == 0.0:
                    assert num <= 1e-12
                else:
                    assert num <= res["c_emp"] * denom * (1.0 + 1e-9)

    @pytest.mark.parametrize("kind,n", [("line", 32), ("tree", 31)])
    def test_family_witnesses_and_constant_match_brute_force(self, kind, n):
        space = build_space(kind, n)
        system = build_dyadic_system(space, 0.5, seed=3)
        b = np.exp(2.0 * np.random.default_rng(0).standard_normal(n))
        # b is constant on the largest second-level cube, so its stopping
        # time has a zero threshold and selects nothing
        flat = max(system.cubes[system.levels[1]], key=lambda c: len(c.members))
        b[flat.members] = 2.0
        base = [system.cubes[system.levels[0]][0], flat]
        res = oscillation_domination(system, base, b)
        keys, witness, c_emp = oracles.oscillation_stopping_time(system, base, b)
        fam = res["S_tilde"]
        assert len(flat.members) > 1 and len(keys) > len(base)
        assert [_key(c) for c in fam.cubes] == keys
        assert set(fam.witness) == set(witness)
        for key, members in witness.items():
            assert np.array_equal(fam.witness[key], members)
        assert np.array_equal(fam.witness[_key(flat)], flat.members)
        assert res["c_emp"] == pytest.approx(c_emp, rel=1e-12)


def _seeded_certificate(n, seed, t_count=3):
    space = build_space("line", n)
    rng = np.random.default_rng(seed)
    b = np.exp(0.5 * rng.standard_normal(n))
    f = np.exp(0.5 * rng.standard_normal(n))
    adjacent = build_adjacent_systems(space, 0.5, t_count, seed=seed)
    root = space.smallest_covering_ball(np.arange(n))
    cert = build_domination(space, adjacent, b, f, root)
    return space, adjacent, b, f, cert


def _floor_spaces():
    return {
        "line96": lambda: build_space("line", 96),
        "tree31": lambda: build_space("tree", 31),
        "grid2d6": lambda: build_space("grid2d", 6),
        "lognormal": oracles.lognormal_plane,
        "ties": oracles.tied_quasi_grid,
    }


class TestDominationFloors:
    """The recursion passes its stopping floor 4 c' <.> to the grand
    maximal; every threshold is that floor times a power of 2, so the
    certificate is the one built from exact grand maximal values."""

    @pytest.mark.parametrize("kind", sorted(_floor_spaces()))
    @pytest.mark.parametrize("shape", ["lognormal", "point"])
    def test_certificate_matches_the_unfloored_grand_maximal(self, monkeypatch, kind, shape):
        space = _floor_spaces()[kind]()
        rng = np.random.default_rng(43)
        b = np.exp(0.5 * rng.standard_normal(space.n))
        if shape == "lognormal":
            f = rng.lognormal(0.0, 1.0, space.n)
        else:
            f = np.zeros(space.n)
            f[space.n // 3] = 1.0
        adjacent = build_adjacent_systems(space, 0.5, 3, seed=4)
        root = space.smallest_covering_ball(np.flatnonzero(f))
        floored = certificate_to_dict(build_domination(space, adjacent, b, f, root))
        exact = sparse.region_grand_maximal

        def unfloored(space, region, trunc, fs, floors=None, want_witness=False):
            return exact(space, region, trunc, fs, want_witness=want_witness)

        monkeypatch.setattr(sparse, "region_grand_maximal", unfloored)
        assert certificate_to_dict(build_domination(space, adjacent, b, f, root)) == floored


def _same_capture(got, want):
    return got[0] == want[0] and got[1] is want[1] and got[2] == want[2]


class TestCaptureCube:
    """The ``first_change`` lookup picks the cube the member scan picks."""

    @pytest.mark.parametrize("t_count,fallbacks", [(3, 15), (4, 3)])
    def test_every_canonical_ball_of_sqline64(self, t_count, fallbacks):
        space = build_space("sqline", 64)
        systems = build_adjacent_systems(space, 0.5, t_count, seed=0).systems
        matched = []
        for ball in space.canonical_balls():
            got = sparse._capture_cube(space, systems, ball)
            assert _same_capture(got, oracles.capture_cube(space, systems, ball))
            matched.append(got[2])
        assert matched.count(False) == fallbacks

    def test_every_recursion_call_of_the_stock_and_chains_configs(self, tmp_path, monkeypatch):
        calls, mismatches = [], []
        lookup = sparse._capture_cube

        def checked(space, systems, ball):
            got = lookup(space, systems, ball)
            calls.append(got)
            if not _same_capture(got, oracles.capture_cube(space, systems, ball)):
                mismatches.append((ball.center, ball.radius))
            return got

        monkeypatch.setattr(sparse, "_capture_cube", checked)
        # the domination scenarios of the chains-mid benchmark, variant 0
        chains = {
            "scenarios": [
                {
                    "scenario": "line48-chains",
                    "space": {"kind": "line", "n": 48},
                    "seed": 42,
                    "lambda1": {"kind": "lognormal", "sigma": 0.4},
                    "lambda2": {"kind": "lognormal", "sigma": 0.4},
                    "symbol": {"kind": "abs_wave"},
                    "checks": ["domination"],
                },
                {
                    "scenario": "line96-domination",
                    "space": {"kind": "line", "n": 96},
                    "seed": 142,
                    "symbol": {"kind": "log_coord"},
                    "checks": ["domination"],
                },
            ]
        }
        cfg = tmp_path / "chains.json"
        cfg.write_text(json.dumps(chains), encoding="utf-8")
        assert cli_main(["dominate", "--seed", "42", "--out", str(tmp_path / "stock")]) == 0
        assert cli_main(["dominate", "--config", str(cfg), "--out", str(tmp_path / "chains")]) == 0
        assert len(calls) >= 18 and mismatches == []

    def test_first_change_is_built_once_per_system(self, monkeypatch):
        built = []
        table = DyadicSystem.__dict__["first_change"]

        def counted(system):
            built.append(id(system))
            return table.func(system)

        prop = functools.cached_property(counted)
        prop.__set_name__(DyadicSystem, "first_change")
        monkeypatch.setattr(DyadicSystem, "first_change", prop)
        space, adjacent, _, _, cert = _seeded_certificate(16, 7)
        assert len(cert.nodes) > 1
        assert sorted(built) == sorted(set(built))
        assert {id(s) for s in adjacent.systems} <= set(built)


class TestBuildDomination:
    def test_constant_symbol_gives_zero_bound(self):
        space = build_space("line", 8)
        adjacent = build_adjacent_systems(space, 0.5, 2, seed=3)
        root = space.smallest_covering_ball(np.arange(8))
        f = np.linspace(1.0, 2.0, 8)
        cert = build_domination(space, adjacent, np.full(8, 3.25), f, root)
        assert cert.c_emp == 0.0
        assert list(cert.exceptional) == []
        assert not cert.partial
        assert np.all(cert.bound == 0.0)

    def test_zero_function_gives_zero_bound(self):
        space = build_space("line", 8)
        adjacent = build_adjacent_systems(space, 0.5, 2, seed=3)
        root = space.smallest_covering_ball(np.arange(8))
        cert = build_domination(space, adjacent, np.exp(np.linspace(0, 1, 8)), np.zeros(8), root)
        assert cert.c_emp == 0.0
        assert np.all(cert.bound == 0.0)
        assert list(cert.exceptional) == []

    def test_frozen_line16_profile(self):
        space, adjacent, b, f, cert = _seeded_certificate(16, 7)
        assert cert.c_emp == pytest.approx(2.092098983156588, abs=1e-12)
        assert list(cert.exceptional) == []
        assert not cert.partial
        assert cert.capture_misses == []
        assert len(cert.families) == 3
        assert [fam.eta_certified for fam in cert.families] == [1.0, 1.0, 1.0]
        assert len(cert.trees) == 1
        assert len(cert.nodes) == 2
        tree = cert.trees[0]
        assert sorted(tree.keys()) == [
            "cover_center",
            "cover_radius",
            "node_count",
            "trunc_center",
            "trunc_radius",
        ]
        assert tree["node_count"] == 2
        node = cert.nodes[0]
        assert sorted(node.keys()) == [
            "alpha",
            "c_prime",
            "capture_matched",
            "cube",
            "depth",
            "e_measure",
            "e_measures",
            "kind",
            "region_measure",
            "selected",
            "t",
            "target",
        ]
        assert node["kind"] == "top"
        assert node["cube"] == [1, 0]
        assert node["alpha"] == 4.0
        assert node["region_measure"] == pytest.approx(1.0, abs=1e-15)
        assert node["e_measure"] == pytest.approx(0.0625, abs=1e-15)
        assert node["selected"] == [[4, 2]]

    @pytest.mark.parametrize("n,seed", [(16, 0), (16, 3), (32, 5)])
    def test_recursion_identities_from_records(self, n, seed):
        space, adjacent, b, f, cert = _seeded_certificate(n, seed)
        assert list(cert.exceptional) == []
        assert not cert.partial
        assert np.isfinite(cert.c_emp)
        assert np.min(cert.cover_overlap) >= 1  # the covers reach every atom
        for node in cert.nodes:
            system = adjacent.systems[node["t"]]
            k, alpha = node["cube"]
            cube = system.cubes[k][alpha]
            mu_region = space.measure(cube.members)
            assert node["region_measure"] == pytest.approx(mu_region, rel=1e-12)
            # The set passed down to deeper recursion fills at most half
            # the region, and is covered by its four recorded pieces.
            assert node["e_measure"] <= 0.5 * mu_region * (1.0 + 1e-12)
            assert node["e_measure"] <= sum(node["e_measures"]) + 1e-12
            mu_sel = 0.0
            for sk, salpha in node["selected"]:
                sel = system.cubes[sk][salpha]
                assert _is_inside(sel, cube)
                mu_sel += space.measure(sel.members)
            assert mu_sel <= 0.5 * mu_region * (1.0 + 1e-12)
            assert node["target"] >= 0.0
            assert node["c_prime"] > 0.0

    @pytest.mark.parametrize("n,seed", [(16, 1), (16, 7), (32, 2)])
    def test_pointwise_domination(self, n, seed):
        space, adjacent, b, f, cert = _seeded_certificate(n, seed)
        kernel = CommutatorKernel(space, b)
        cb = kernel.apply(np.abs(f)).values
        rhs = cert.c_emp * cert.bound
        scale = max(1.0, float(rhs.max()))
        assert np.all(cb <= rhs + 1e-12 * scale)

    def test_bound_matches_direct_sparse_forms(self):
        space, adjacent, b, f, cert = _seeded_certificate(16, 7)
        absf = np.abs(f)
        direct = np.zeros(space.n)
        for fam in cert.families:
            members = [c.members for c in fam.cubes]
            if members:
                direct += sparse_commutator(space, members, b, absf).values
                direct += sparse_commutator_adjoint(space, members, b, absf).values
        assert np.array_equal(direct, cert.bound)

    def test_dict_roundtrip_is_bit_exact(self):
        space, adjacent, b, f, cert = _seeded_certificate(16, 7)
        doc = json.loads(json.dumps(certificate_to_dict(cert), sort_keys=True))
        again = evaluate_bound_from_dict(space, doc, b, f)
        assert np.array_equal(again, np.asarray(cert.bound, dtype=np.float64))
        assert doc["c_emp"] == cert.c_emp
        assert doc["exceptional"] == list(cert.exceptional)
        assert doc["partial"] == cert.partial

    def test_saved_certificate_roundtrip(self, tmp_path):
        space, adjacent, b, f, cert = _seeded_certificate(16, 4)
        path = tmp_path / "cert.json"
        save_certificate(cert, str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        again = evaluate_bound_from_dict(space, doc, b, f)
        assert np.array_equal(again, np.asarray(cert.bound, dtype=np.float64))
        assert [fam["eta_certified"] for fam in doc["families"]] == [
            fam.eta_certified for fam in cert.families
        ]


_OVERLAP_SCRIPT = """
import numpy as np
import shtlab.sparse as sparse
from shtlab import build_adjacent_systems, build_space

def overlapping(system, g, height, root=None):
    cube = root if root is not None else system.cubes[system.levels[0]][0]
    return [cube, cube]

sparse.cz_select = overlapping
sparse._node_checks_pass = lambda *args: True
space = build_space("line", 8)
adjacent = build_adjacent_systems(space, 0.5, 2, seed=0)
root = space.smallest_covering_ball(np.arange(8))
print("debug", __debug__)
try:
    sparse.build_domination(space, adjacent, np.linspace(0.0, 1.0, 8), np.ones(8), root)
except sparse.CertificateError as exc:
    print("CertificateError:", exc)
"""


def test_certificate_invariants_hold_under_optimize():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OVERLAP_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "debug False" in proc.stdout
    assert "CertificateError: selected cubes overlap" in proc.stdout
