"""Acceptance battery: each test runs one headline requirement end to
end at its stated tolerance and prints a single PASS/FAIL line.

Numbered criteria:
 1. dyadic certification on line(64)/sqline(64), adjacent capture >= 99%
 2. pointwise sparse domination certificates on 20 seeded scenarios
 3. |[b,M]f| <= C_b(|f|) pointwise, 50 seeded pairs per space
 4. oscillation-augmented families on 20 seeded scenarios
 5. power-weight exponent sweep on line(256), p in {3/2, 2, 3}
 6. testing-function lower-bound chain on 20 seeded scenarios
 7. weighted John-Nirenberg comparison, p = 2, r in {1, 2}
 8. exact algebraic identities (self-adjointness, pairing, duality)
 9. byte-identical default-suite reports across two runs
"""

import json
import os
import sys

import numpy as np

import _acceptance_log
import oracles
from shtlab import (
    CommutatorKernel,
    ap_characteristic,
    build_adjacent_systems,
    build_domination,
    build_dyadic_system,
    build_space,
    commutator_bM,
    cz_select,
    evaluate_bound_from_dict,
    certificate_to_dict,
    fit_weight_exponent,
    oscillation_domination,
    sparse_commutator,
    sparse_commutator_adjoint,
    sparse_operator,
    verify_bloom_jn,
    verify_lower_bound,
    verify_system,
)
from shtlab.cli import main as cli_main
from shtlab.report import json_bytes_without_runtime


def _announce(number: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}"
    _acceptance_log.record(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def test_criterion_1_dyadic_certification():
    ok = True
    details = []
    for kind in ("line", "sqline"):
        space = build_space(kind, 64)
        adjacent = build_adjacent_systems(space, 0.5, 3, seed=42)
        for system in adjacent.systems:
            rep = verify_system(system, space)
            ok = ok and not rep["violations"]
            ok = ok and rep["sandwich_ok"] and rep["monotone_ok"]
            ok = ok and np.isfinite(rep["c1"]) and np.isfinite(rep["C1"])
            ok = ok and rep["c1"] > 0
        ok = ok and adjacent.capture_fraction >= 0.99
        ok = ok and isinstance(adjacent.capture_failures, list)
        for rec in adjacent.capture_failures:
            ok = ok and {"ball", "x", "r", "k"} <= set(rec)
        ok = ok and adjacent.report["within_bound"]
        details.append(f"{kind}: capture={adjacent.capture_fraction:.4f}")
    _announce(1, ok, "dyadic certification + adjacent capture (" + "; ".join(details) + ")")
    assert ok


def test_criterion_2_sparse_domination():
    ok = True
    worst = 0.0
    sizes = [16] * 8 + [32] * 8 + [64] * 4
    spaces = {}
    for i, n in enumerate(sizes):
        seed = 100 + i
        space = spaces.setdefault(n, build_space("line", n))
        rng = np.random.default_rng(seed)
        b = np.exp(0.5 * rng.standard_normal(n))
        f = np.exp(0.5 * rng.standard_normal(n))
        adjacent = build_adjacent_systems(space, 0.5, 3, seed=seed)
        root = space.smallest_covering_ball(np.arange(n))
        cert = build_domination(space, adjacent, b, f, root)
        ok = ok and list(cert.exceptional) == [] and not cert.partial
        ok = ok and np.isfinite(cert.c_emp)
        ok = ok and all(fam.eta_certified >= 0.05 for fam in cert.families)
        # the recursion-level measures recorded by the construction
        for node in cert.nodes:
            system = adjacent.systems[node["t"]]
            k, alpha = node["cube"]
            mu_region = space.measure(system.cubes[k][alpha].members)
            ok = ok and node["e_measure"] <= 0.5 * mu_region * (1.0 + 1e-12)
            mu_sel = sum(
                space.measure(system.cubes[sk][sa].members)
                for sk, sa in node["selected"]
            )
            ok = ok and mu_sel <= 0.5 * mu_region * (1.0 + 1e-12)
        # independent recomputation of the right-hand side from the
        # serialized certificate, then the pointwise comparison
        doc = json.loads(json.dumps(certificate_to_dict(cert)))
        rhs = cert.c_emp * evaluate_bound_from_dict(space, doc, b, f)
        cb = CommutatorKernel(space, b).apply(np.abs(f)).values
        scale = max(1.0, float(rhs.max()))
        overshoot = float((cb - rhs).max()) / scale
        worst = max(worst, overshoot)
        ok = ok and overshoot <= 1e-12
    _announce(2, ok, f"sparse domination on 20 scenarios (worst overshoot {worst:.2e})")
    assert ok


def test_criterion_3_pointwise_reduction():
    ok = True
    worst = 0.0
    cases = [("line", 16), ("sqline", 16), ("grid2d", 4), ("tree", 15), ("pair", 2)]
    for kind, n in cases:
        space = build_space(kind, n)
        for seed in range(50):
            rng = np.random.default_rng([seed, hash(kind) % (2**32)])
            b = np.abs(rng.standard_normal(space.n))
            f = rng.standard_normal(space.n)
            lhs = np.abs(commutator_bM(space, b, f))
            rhs = CommutatorKernel(space, b).apply(np.abs(f)).values
            scale = max(1.0, float(rhs.max()))
            overshoot = float((lhs - rhs).max()) / scale
            worst = max(worst, overshoot)
            ok = ok and overshoot <= 1e-12
    _announce(3, ok, f"|[b,M]f| <= C_b(|f|) on 250 seeded pairs (worst {worst:.2e})")
    assert ok


def test_criterion_4_oscillation_domination():
    ok = True
    space = build_space("line", 32)
    for seed in range(20):
        system = build_dyadic_system(space, 0.5, seed=seed)
        rng = np.random.default_rng(200 + seed)
        b = np.exp(0.5 * rng.standard_normal(32))
        g = np.abs(rng.standard_normal(32))
        base = cz_select(system, g, 0.8 * float((g * space.mass).sum()))
        if not base:
            base = [system.cubes[system.levels[0]][0]]
        res = oscillation_domination(system, base, b)
        fam = res["S_tilde"]
        in_keys = {(c.k, c.alpha) for c in base}
        out_keys = {(c.k, c.alpha) for c in fam.cubes}
        ok = ok and in_keys <= out_keys
        ok = ok and res["packing_ok"]
        ok = ok and np.isfinite(res["c_emp"]) and res["c_emp"] >= 0.0
        # pointwise realization on every family cube
        cubes = {key: system.cubes[key[0]][key[1]] for key in out_keys}
        osc = {key: oracles.mean_oscillation(space, b, c.members) for key, c in cubes.items()}
        for key, cube in cubes.items():
            b_q = space.average(b, cube.members)
            for x in cube.members:
                denom = 0.0
                for rk, r in cubes.items():
                    if x not in r.members:
                        continue
                    node = r
                    while node is not None:
                        if (node.k, node.alpha) == key:
                            denom += osc[rk]
                            break
                        node = node.parent
                num = abs(b[x] - b_q)
                if denom == 0.0:
                    ok = ok and num <= 1e-12
                else:
                    ok = ok and num <= res["c_emp"] * denom * (1.0 + 1e-9)
    _announce(4, ok, "oscillation-augmented families on 20 scenarios")
    assert ok


def test_criterion_5_exponent_sweep():
    space = build_space("line", 256)
    system = build_dyadic_system(space, 0.5, seed=0)
    rng = np.random.default_rng(42)
    b = np.exp(0.5 * rng.standard_normal(256))
    ok = True
    details = []
    for p in (1.5, 2.0, 3.0):
        rep = fit_weight_exponent(space, system, b, p, seed=42)
        cap = max(1.0, 1.0 / (p - 1.0)) + 0.2
        ok = ok and rep["cap"] == cap
        for op in ("sparse", "cb", "bm"):
            cell = rep["ops"][op]
            ok = ok and cell.get("status") == "ok" and cell["slope"] <= cap
        details.append(
            f"p={p:g}: " + "/".join(f"{rep['ops'][o]['slope']:.3f}" for o in ("sparse", "cb", "bm"))
        )
    _announce(5, ok, "exponent sweep line(256) slopes (" + "; ".join(details) + ")")
    assert ok


def test_criterion_6_lower_bound_chain():
    ok = True
    worst_cmeas = 0.0
    for i in range(20):
        n = 16 if i % 2 == 0 else 32
        p = 1.5 if i % 4 < 2 else 2.0
        space = build_space("line", n)
        rng = np.random.default_rng(300 + i)
        b = np.exp(0.5 * rng.standard_normal(n))
        lam1 = np.exp(0.3 * rng.standard_normal(n))
        lam2 = np.exp(0.3 * rng.standard_normal(n))
        rep = verify_lower_bound(space, b, lam1, lam2, p, probes=12, seed=300 + i)
        ok = ok and rep["passed"] and all(e["passed"] for e in rep["entries"])
        ok = ok and np.isfinite(rep["c_meas"])
        ok = ok and rep["aux_max"] <= rep["aux_bound"] * (1.0 + 1e-9)
        worst_cmeas = max(worst_cmeas, rep["c_meas"])
    _announce(6, ok, f"lower-bound chain on 20 scenarios (max C_meas {worst_cmeas:.3f})")
    assert ok


def test_criterion_7_bloom_john_nirenberg():
    ok = True
    worst = 0.0
    space = build_space("line", 16)
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        b = np.exp(0.5 * rng.standard_normal(16))
        lam1 = np.exp(0.3 * rng.standard_normal(16))
        lam2 = np.exp(0.3 * rng.standard_normal(16))
        for r in (1.0, 2.0):
            rep = verify_bloom_jn(space, b, lam1, lam2, 2.0, r)
            ok = ok and rep["branch"] == 1 and rep["passed"]
            ok = ok and np.isfinite(rep["c_jn"])
            worst = max(worst, rep["c_jn"])
    pair = build_space("pair", 2)
    unit = verify_bloom_jn(pair, np.array([0.0, 1.0]), np.ones(2), np.ones(2), 2.0, 1.0)
    ok = ok and unit["c_jn"] <= 1.0
    _announce(7, ok, f"John-Nirenberg branch 1 finite (max {worst:.3f}); unit r=1 <= 1")
    assert ok


def test_criterion_8_exact_identities():
    ok = True
    space = build_space("line", 32)
    system = build_dyadic_system(space, 0.5, seed=0)
    cubes = [c for k in system.levels for c in system.cubes[k]]
    members = [c.members for c in cubes]
    m = space.mass
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        u = rng.standard_normal(32)
        v = rng.standard_normal(32)
        b = np.abs(rng.standard_normal(32))
        Au = sparse_operator(space, members, u).values
        Av = sparse_operator(space, members, v).values
        lhs = float((Au * v * m).sum())
        rhs = float((u * Av * m).sum())
        ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        Tu = sparse_commutator(space, members, b, u).values
        Tsv = sparse_commutator_adjoint(space, members, b, v).values
        lhs = float((Tu * v * m).sum())
        rhs = float((u * Tsv * m).sum())
        ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        for p in (1.5, 2.0, 3.0):
            pprime = p / (p - 1.0)
            w = np.exp(0.4 * rng.standard_normal(32))
            lhs = ap_characteristic(space, w ** (1.0 - pprime), pprime).value
            rhs = ap_characteristic(space, w, p).value ** (pprime - 1.0)
            ok = ok and abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
    _announce(8, ok, "self-adjointness, T/T* pairing, A_p duality identity")
    assert ok


def test_criterion_9_deterministic_reports(tmp_path):
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    rc1 = cli_main(["verify", "--out", out1])
    rc2 = cli_main(["verify", "--out", out2])
    ok = rc1 == 0 and rc2 == 0
    with open(os.path.join(out1, "verify.csv"), "rb") as fh:
        csv1 = fh.read()
    with open(os.path.join(out2, "verify.csv"), "rb") as fh:
        csv2 = fh.read()
    ok = ok and csv1 == csv2
    with open(os.path.join(out1, "verify.json"), encoding="utf-8") as fh:
        j1 = json_bytes_without_runtime(fh.read())
    with open(os.path.join(out2, "verify.json"), encoding="utf-8") as fh:
        j2 = json_bytes_without_runtime(fh.read())
    ok = ok and j1 == j2
    _announce(9, ok, "default suite reports byte-identical across two runs")
    assert ok
