"""Theorem-level verification harness.

Each operation returns a JSON-ready report dict: a list of named check
entries ({check, kind, value, threshold, passed}) plus measured
constants.  Exact finite-sum facts (Fubini exchanges, Hölder on finite
sums, pointwise dominations, self-adjointness) are asserted at tight
tolerances; every inequality whose sharp constant is unknown is
reported as a measured ratio, never asserted against an invented
number.  Operator norms are always probe lower bounds and are labelled
as such.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dyadic import DyadicSystem
from .operators import (
    estimate_from_values,
    probe_images,
    sparse_commutator,
    sparse_commutator_adjoint,
    sparse_operator,
    weighted_lp_norm,
)
from .space import QuasiMetricSpace
from .sparse import SparseFamily, _oscillation_terms, oscillation_domination, packing_constant
from .weights import (
    ap_characteristic,
    ball_max,
    bloom_weight,
    bmo_norm,
    deviation_sums,
    reverse_holder_constant,
)

NORM_NOTE = "probe estimate (lower bound)"


# -- report entry helpers ------------------------------------------------------


def _leq_entry(
    name: str, lhs, rhs, tol: float, runs: Sequence[int] = (0,), eq: bool = False
) -> Dict[str, object]:
    """Normalized overshoot of lhs <= rhs (elementwise), or deviation of
    lhs == rhs when eq.  The entries split into runs at the given
    offsets; each run is normalized by its own scale max(1, |lhs|,
    |rhs|), and over several runs the worst is kept, so a per-cube or
    per-probe check reads as one entry."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=np.float64))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
    values = np.zeros(1)
    if lhs.size:
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        gap = np.maximum.reduceat((np.abs(lhs - rhs) if eq else lhs - rhs).ravel(), runs)
        if not eq:
            gap = np.where(gap > 0.0, gap, 0.0)
        scale = np.ones(len(gap))
        for side in (lhs, rhs):
            scale = np.fmax(scale, np.maximum.reduceat(np.abs(side).ravel(), runs))
        values = gap / scale
    value = float(values[0]) if len(values) == 1 else float(np.fmax.reduce(values, initial=0.0))
    return {
        "check": name,
        "kind": "exact",
        "value": value,
        "threshold": tol,
        "passed": bool(np.all(values <= tol)),
    }


def _eq_entry(name: str, a, b, tol: float, runs: Sequence[int] = (0,)) -> Dict[str, object]:
    """Normalized absolute deviation of an identity a == b."""
    return _leq_entry(name, a, b, tol, runs, eq=True)


def _ratio_entry(
    name: str, value: float, threshold: float = math.inf
) -> Dict[str, object]:
    value = float(value)
    return {
        "check": name,
        "kind": "ratio",
        "value": value,
        "threshold": float(threshold),
        "passed": bool(math.isfinite(value) and value <= threshold),
    }


def _validate_weights(space: QuasiMetricSpace, lam1, lam2, p: float) -> None:
    if p <= 1:
        raise ValueError("p must exceed 1")
    for name, lam in (("lambda1", lam1), ("lambda2", lam2)):
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (space.n,):
            raise ValueError(f"{name} must have one value per point")
        if not np.all(np.isfinite(lam)) or lam.min() <= 0:
            raise ValueError(f"{name} must be positive and finite")


# -- upper bounds (norm ratios against the two-weight scale) ------------------


def _upper_scale(
    space: QuasiMetricSpace, b: np.ndarray, lam1, lam2, p: float
) -> Tuple[np.ndarray, float, float, float, float]:
    nu = bloom_weight(lam1, lam2, p)
    bmo = bmo_norm(space, b, nu).value
    ap1 = ap_characteristic(space, lam1, p).value
    ap2 = ap_characteristic(space, lam2, p).value
    scale = (ap1 * ap2) ** max(1.0, 1.0 / (p - 1.0)) * bmo
    return nu, bmo, ap1, ap2, scale


def verify_upper_bound_cb(
    space: QuasiMetricSpace,
    b: np.ndarray,
    lam1,
    lam2,
    p: float,
    probes: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = 4096,
    rho_cap: float = 100.0,
) -> Dict[str, object]:
    """Norm of the maximal commutator against the two-weight scale
    ([lam1]_{A_p}[lam2]_{A_p})^{max(1, 1/(p-1))} * ||b||_{BMO_nu}."""
    _validate_weights(space, lam1, lam2, p)
    b = np.asarray(b, dtype=np.float64)
    nu, bmo, ap1, ap2, scale = _upper_scale(space, b, lam1, lam2, p)
    F, labels, _, cb, _ = probe_images(space, b, probes, seed, ball_cap)
    est, idx = estimate_from_values(space, cb, F, lam1, lam2, p)
    vacuous = bmo == 0.0
    rho = 0.0 if vacuous else est / scale
    return {
        "name": "upper_cb",
        "vacuous": vacuous,
        "rho": rho,
        "rho_cap": float(rho_cap),
        "estimate": est,
        "estimate_kind": NORM_NOTE,
        "estimate_witness": labels[idx],
        "probe_count": F.shape[1],
        "bmo_nu": bmo,
        "ap_lambda1": ap1,
        "ap_lambda2": ap2,
        "scale": scale,
        "entries": [_ratio_entry("upper_cb.rho", rho, rho_cap)],
        "passed": bool(vacuous or rho <= rho_cap),
    }


def verify_upper_bound_bm(
    space: QuasiMetricSpace,
    b: np.ndarray,
    lam1,
    lam2,
    p: float,
    probes: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = 4096,
    rho_cap: float = 100.0,
    tol: float = 1e-12,
) -> Dict[str, object]:
    """Norm ratio for [b, M] plus the pointwise reduction
    |[b,M]f| <= C_b(|f|) on every probe (requires b >= 0)."""
    _validate_weights(space, lam1, lam2, p)
    b = np.asarray(b, dtype=np.float64)
    if b.min() < 0:
        raise ValueError("symbol b must be nonnegative for the [b, M] reduction")
    nu, bmo, ap1, ap2, scale = _upper_scale(space, b, lam1, lam2, p)
    F, _, _, cb, bm = probe_images(space, b, probes, seed, ball_cap)
    reduction = _leq_entry("upper_bm.pointwise_reduction", np.abs(bm), cb, tol)
    est_bm, _ = estimate_from_values(space, bm, F, lam1, lam2, p)
    est_cb, _ = estimate_from_values(space, cb, F, lam1, lam2, p)
    mono = _leq_entry("upper_bm.rho_le_rho_cb", est_bm, est_cb, tol)
    vacuous = bmo == 0.0
    rho = 0.0 if vacuous else est_bm / scale
    rho_cb = 0.0 if vacuous else est_cb / scale
    entries = [reduction, mono, _ratio_entry("upper_bm.rho", rho, rho_cap)]
    return {
        "name": "upper_bm",
        "vacuous": vacuous,
        "rho": rho,
        "rho_cb": rho_cb,
        "rho_cap": float(rho_cap),
        "estimate": est_bm,
        "estimate_kind": NORM_NOTE,
        "probe_count": F.shape[1],
        "bmo_nu": bmo,
        "ap_lambda1": ap1,
        "ap_lambda2": ap2,
        "scale": scale,
        "entries": entries,
        "passed": bool(all(e["passed"] for e in entries) or (vacuous and reduction["passed"] and mono["passed"])),
    }


# -- duality chain for the sparse commutator -----------------------------------


def verify_duality_chain(
    space: QuasiMetricSpace,
    system: DyadicSystem,
    S,
    b: np.ndarray,
    lam2,
    nu,
    p: float,
    g_probes: int = 6,
    seed: int = 0,
    f: Optional[np.ndarray] = None,
    tol_exact: float = 1e-12,
    tol_holder: float = 1e-9,
) -> Dict[str, object]:
    """Step-by-step audit of the duality argument bounding the sparse
    commutator pairing through the augmented sparse operator:

      <T_{S,b}|f|, |g| lam2>  ==  sum_Q |f|_Q int_Q |b-b_Q| |g| lam2
        <= c_osc * (oscillation sums)     [pointwise certificate]
        == exchanged sum over S-tilde     [Fubini]
        <= c_cube * ||b||_BMO_nu * (cube mass transfer)
        <= int A_S(|f|) A_St(|g|lam2) nu  <= int A_St(|f|) A_St(|g|lam2) nu
        == int A_St(A_St(|f|) nu) |g| lam2   [self-adjointness]
        <= ||A_St(A_St(|f|) nu)||_{p,lam2}   [Hölder, normalized g]

    Every per-cube quantity is an array over S-tilde's cube index (S is
    the subfamily ``in_S``), the oscillation sums and ancestor stacks
    come from its one containment relation, and all probes g go through
    each step at once as the columns of one matrix.  A check repeated
    per cube or per probe reports its worst instance.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    b = np.asarray(b, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    m = space.mass
    pprime = p / (p - 1.0)

    base = list(S.cubes) if isinstance(S, SparseFamily) else list(S)
    osc = oscillation_domination(system, base, b)
    family: SparseFamily = osc["S_tilde"]
    c_osc = float(osc["c_emp"])
    cubes_t = family.cubes
    base_keys = {(c.k, c.alpha) for c in base}
    in_S = np.array([(c.k, c.alpha) in base_keys for c in cubes_t], dtype=bool)

    bmo = bmo_norm(space, b, nu).value
    vacuous = bmo == 0.0

    # dom: per entry (Q, x) of S-tilde, sum_{R in S-tilde, R within Q} Omega(R) chi_R(x)
    index, dev, omega, inside, dom = _oscillation_terms(space, cubes_t, b)
    absf = np.abs(
        np.asarray(f, dtype=np.float64)
        if f is not None
        else np.random.default_rng(seed).lognormal(0.0, 1.0, size=space.n)
    )
    avgf = np.where(in_S, index.averages(absf), 0.0)  # |f|_Q on S, 0 elsewhere
    # ancestor stack per S-tilde cube: S_R = sum_{Q in S, Q contains R} |f|_Q
    stack = np.where(inside, avgf[:, None], 0.0).sum(axis=0)

    # cube-level transfer constant: Omega(R) mu(R) <= c_cube ||b||_BMO_nu nu(R)
    nu_t = index.sums(nu[index.ids] * index.mass)
    transfer = omega * index.mu
    c_cube = 0.0
    if not vacuous:
        with np.errstate(divide="ignore", invalid="ignore"):
            c_cube = float(np.where(transfer > 0, transfer / (bmo * nu_t), 0.0).max(initial=0.0))

    entries: List[Dict[str, object]] = [
        # pointwise oscillation certificate recheck on every S-tilde cube
        _leq_entry("duality.osc_pointwise", dev, c_osc * dom, tol_exact, index.start),
        _ratio_entry("duality.c_cube", c_cube),
        # per-cube transfer inequality (definition of c_cube as the max)
        _leq_entry("duality.cube_transfer", transfer, c_cube * bmo * nu_t, tol_exact),
    ]

    # operator values shared across probes
    T_absf = sparse_commutator(space, base, b, absf).values
    As_absf = sparse_operator(space, base, absf).values
    Ast_absf = sparse_operator(space, cubes_t, absf).values
    H = sparse_operator(space, cubes_t, Ast_absf * nu).values
    norm_H = weighted_lp_norm(space, H, lam2, p)

    # S_R <= min over R of A_S(|f|), pointwise ancestor-stack bound
    As_min = np.minimum.reduceat(As_absf[index.ids], index.start)
    entries.append(_leq_entry("duality.stack_le_As", stack, As_min, tol_exact, np.arange(len(stack))))
    # A_S <= A_St pointwise (S is contained in S-tilde, all terms nonnegative)
    entries.append(_leq_entry("duality.As_le_Ast", As_absf, Ast_absf, tol_exact))

    # self-adjointness on seeded random functions
    rng = np.random.default_rng(seed + 1)
    u = rng.lognormal(0.0, 1.0, size=space.n) * (rng.integers(0, 2, size=space.n) * 2 - 1)
    v = rng.lognormal(0.0, 1.0, size=space.n) * (rng.integers(0, 2, size=space.n) * 2 - 1)
    Auv = sparse_operator(space, cubes_t, np.stack([u, v], axis=1)).values
    entries.append(
        _eq_entry(
            "duality.Ast_self_adjoint",
            float((Auv[:, 0] * v * m).sum()),
            float((u * Auv[:, 1] * m).sum()),
            tol_exact,
        )
    )
    # adjoint pairing of the sparse commutator with its companion
    Tu = sparse_commutator(space, base, b, u).values
    Tsv = sparse_commutator_adjoint(space, base, b, v).values
    entries.append(
        _eq_entry(
            "duality.T_Tstar_pairing",
            float((Tu * v * m).sum()),
            float((u * Tsv * m).sum()),
            tol_exact,
        )
    )

    # probes g, one per column, normalized in L^{p'}(lam2)
    rng_g = np.random.default_rng(seed + 2)
    probes = [
        rng_g.lognormal(0.0, 1.0, size=space.n)
        * (rng_g.integers(0, 2, size=space.n) * 2 - 1)
        for _ in range(int(g_probes))
    ]
    if norm_H > 0:
        probes.append(H ** (p - 1.0))  # attains equality in the Hölder step
    gnorm = np.array([weighted_lp_norm(space, g, lam2, pprime) for g in probes])
    used = [g for g, gn in zip(probes, gnorm) if gn != 0.0]
    gabs = np.abs(np.stack(used, axis=1)) / gnorm[gnorm != 0.0] if used else np.zeros((space.n, 0))
    glam = gabs * lam2[:, None]
    mcol = m[:, None]
    runs = np.arange(gabs.shape[1])

    # pairing == Fubini-grouped sum over S
    lhs0 = (T_absf[:, None] * glam * mcol).sum(axis=0)
    g_dm = glam[index.ids] * index.mass[:, None]  # per entry (Q, x): glam(x) m(x)
    rhs0 = (avgf[:, None] * index.sums(dev[:, None] * g_dm)).sum(axis=0)
    # integrated oscillation certificate over the pairing family
    mid = (avgf[:, None] * index.sums(dom[:, None] * g_dm)).sum(axis=0)
    # Fubini exchange to S-tilde cubes
    g_int = index.sums(g_dm)
    rhs3 = ((omega * stack)[:, None] * g_int).sum(axis=0)
    mid4 = ((nu_t * stack)[:, None] * (g_int / index.mu[:, None])).sum(axis=0)
    # collapse the stacked sums into sparse-operator integrals
    Ast_g = sparse_operator(space, cubes_t, glam).values
    int_As = (As_absf[:, None] * Ast_g * nu[:, None] * mcol).sum(axis=0)
    int_Ast = (Ast_absf[:, None] * Ast_g * nu[:, None] * mcol).sum(axis=0)
    lhs6 = (H[:, None] * gabs * lam2[:, None] * mcol).sum(axis=0)
    entries += [
        _eq_entry("duality.pairing_fubini", lhs0, rhs0, tol_exact, runs),
        _leq_entry("duality.osc_integrated", rhs0, c_osc * mid, tol_exact, runs),
        _eq_entry("duality.sum_exchange", mid, rhs3, tol_exact, runs),
        _leq_entry("duality.transfer_aggregate", rhs3, c_cube * bmo * mid4, tol_exact, runs),
        _leq_entry("duality.stack_aggregate", mid4, int_As, tol_exact, runs),
        _leq_entry("duality.Ast_monotone", int_As, int_Ast, tol_exact, runs),
        _eq_entry("duality.self_adjoint_instance", int_Ast, lhs6, tol_exact, runs),
        _leq_entry("duality.holder", lhs6, norm_H, tol_holder, runs),
    ]
    c_end = float((lhs0 / (bmo * norm_H)).max(initial=0.0)) if bmo > 0 and norm_H > 0 else 0.0
    entries.append(_ratio_entry("duality.c_end", c_end))
    if not vacuous:
        entries.append(
            _leq_entry("duality.end_le_osc_cube", c_end, c_osc * c_cube, tol_holder)
        )

    passed = bool(all(e["passed"] for e in entries))
    return {
        "name": "duality_chain",
        "vacuous": vacuous,
        "c_osc": c_osc,
        "c_cube": c_cube,
        "c_end": c_end,
        "bmo_nu": bmo,
        "family_size": len(cubes_t),
        "eta_tilde": family.eta_certified,
        "g_probes": int(gabs.shape[1]),
        "entries": entries,
        "passed": passed,
    }


# -- lower bound via testing functions -----------------------------------------


def verify_lower_bound(
    space: QuasiMetricSpace,
    b: np.ndarray,
    lam1,
    lam2,
    p: float,
    probes: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = None,
    tol_exact: float = 1e-12,
    tol_holder: float = 1e-9,
) -> Dict[str, object]:
    """Testing-function chain bounding the Bloom BMO norm by the
    (probe-estimated) norm of the maximal commutator: per canonical
    ball B,

      int_B |b - b_B|  <=  2 min_c int_B |b - c|
                       <=  2 min_{y in B} int_B |b(x) - b(y)| dmu(x)
                       <=  2 (lam2-average over B of the same)
                       <=  2 (mu(B)/lam2(B)) int_B C_b(chi_B) lam2
      and Hölder + restriction + the testing probe turn the last
      integral into est * lam1(B)^{1/p} * (...).

    The auxiliary geometric factor mu(B) lam1(B)^{1/p} / (nu(B)
    lam2(B)^{1/p}) is certified against the reverse-Hölder constant of
    lam1 at exponent 1/(1+p).

    The median and point-pick steps take one pass over the centers.
    Each testing step (definition minorant, Hölder, restriction, testing
    probe) is one entry over all probed balls at once, one run per ball
    (per member of each ball for the minorant), each run normalized by
    its own scale; the worst ball is reported.
    """
    _validate_weights(space, lam1, lam2, p)
    b = np.asarray(b, dtype=np.float64)
    lam1 = np.asarray(lam1, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    m = space.mass
    pprime = p / (p - 1.0)
    nu = bloom_weight(lam1, lam2, p)

    entries: List[Dict[str, object]] = []
    entries.append(
        _eq_entry("lower.bloom_identity", nu**p * lam2, lam1, tol_exact)
    )

    t = space.ball_table()
    mu = t.measure
    nb = len(mu)

    lam1B = space.ball_sums(lam1 * m)
    lam2B = space.ball_sums(lam2 * m)
    nuB = space.ball_sums(nu * m)
    osc_int = deviation_sums(space, b, m)
    # the BMO_nu norm of b, as bmo_norm takes it
    bmo_bv = ball_max(osc_int / nuB)
    bmo = bmo_bv.value
    vacuous = bmo == 0.0

    # per-ball data, one center's balls at a time
    Km = np.abs(b[:, None] - b[None, :]) * m[:, None]
    min_tb = np.empty(nb)
    l2avg_tb = np.empty(nb)
    med_int = np.empty(nb)
    lam2m = lam2 * m
    for ids, order, inside in space.ball_prefixes():
        # tb[i, j] = int_{B_i} |b(x) - b(order[j])| dmu(x)
        tb = np.cumsum(Km[order][:, order], axis=0)[t.count[ids] - 1]
        min_tb[ids] = np.where(inside, tb, np.inf).min(axis=1)
        l2avg_tb[ids] = ((tb * inside) @ lam2m[order]) / lam2B[ids]
        # min over constants c of int_B |b - c| dmu, attained at a weighted median
        by_value = np.argsort(b[order], kind="stable")
        vals = b[order][by_value]
        wts = np.where(inside[:, by_value], m[order][by_value], 0.0)
        cum = np.cumsum(wts, axis=1)
        med = vals[(cum < 0.5 * cum[:, -1:]).sum(axis=1)]
        med_int[ids] = (np.abs(vals[None, :] - med[:, None]) * wts).sum(axis=1)

    entries.append(_leq_entry("lower.mean_le_2median", osc_int, 2.0 * med_int, tol_exact))
    entries.append(_leq_entry("lower.median_le_pointpick", med_int, min_tb, tol_exact))
    entries.append(_leq_entry("lower.pointpick_le_weighted_avg", min_tb, l2avg_tb, tol_exact))
    # a constant symbol leaves deviation_sums at rounding noise while
    # the median residuals and the probe estimate are exactly 0, so its
    # two ratios are vacuous, as in fit_weight_exponent
    constant = bool(np.ptp(b) == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        med_ratio = np.where(osc_int > 0, osc_int / med_int, 0.0)
    entries.append(
        _ratio_entry(
            "lower.median_doubling", float(med_ratio.max()) if nb and not constant else 0.0
        )
    )

    # probe estimate of the operator norm, testing columns included
    F, labels, _, cb, _ = probe_images(space, b, probes, seed, ball_cap)
    est, est_idx = estimate_from_values(space, cb, F, lam1, lam2, p)

    # testing chain on every probed ball at once, using honest kernel
    # values: row r is probed ball ids[r], whose testing column is cols[r]
    ids, cols = np.array(
        [(int(lab[5:]), j) for j, lab in enumerate(labels) if lab.startswith("ball:")],
        dtype=np.int64,
    ).reshape(-1, 2).T
    inside = t.rank[t.center[ids]] < t.count[ids, None]
    C = cb[:, cols].T  # C = C_b(chi_B), one row per probed ball
    # tb[r, y] = int_{B_r} |b(x) - b(y)| dmu(x)
    tb = inside.astype(np.float64) @ Km
    ball_int = np.where(inside, C * lam2 * m, 0.0).sum(axis=1)
    Cp = C**p * lam2 * m
    ball_p = np.where(inside, Cp, 0.0).sum(axis=1) ** (1.0 / p)
    full_p = Cp.sum(axis=1) ** (1.0 / p)
    # l3 runs over each ball's members, the others over the balls
    members = np.cumsum(t.count[ids]) - t.count[ids]
    each = np.arange(len(ids))
    minorant = (mu[ids, None] * C)[inside]
    holder = ball_p * lam2B[ids] ** (1.0 / pprime)
    probe = est * lam1B[ids] ** (1.0 / p)
    entries += [
        _leq_entry("lower.defn_minorant", tb[inside], minorant, tol_exact, members),
        _leq_entry("lower.holder_on_ball", ball_int, holder, tol_holder, each),
        _leq_entry("lower.restriction", ball_p, full_p, tol_exact, each),
        _leq_entry("lower.testing_probe", full_p, probe, tol_exact, each),
    ]
    denom = probe * mu[ids] / (nuB[ids] * lam2B[ids] ** (1.0 / p))
    ratio = np.divide(ball_int / nuB[ids], denom, out=np.zeros(len(ids)), where=denom > 0)
    c_test = float(ratio.max(initial=0.0))
    entries.append(_ratio_entry("lower.testing_display", c_test))

    # headline comparison: BMO quantity vs the probe estimate
    if vacuous or constant:
        c_meas = 0.0
    elif est > 0:
        c_meas = bmo / est
    else:
        c_meas = math.inf
    entries.append(_ratio_entry("lower.bmo_vs_estimate", c_meas))

    # auxiliary factor, certified by reverse Hölder at exponent 1/(1+p)
    aux = mu * lam1B ** (1.0 / p) / (nuB * lam2B ** (1.0 / p))
    c_rh = reverse_holder_constant(space, lam1, 1.0 / (1.0 + p))
    aux_bound = c_rh ** (1.0 / p)
    entries.append(_leq_entry("lower.aux_reverse_holder", aux, aux_bound, tol_holder))

    passed = bool(all(e["passed"] for e in entries))
    return {
        "name": "lower_bound",
        "vacuous": vacuous,
        "bmo_nu": bmo,
        "bmo_witness": bmo_bv.ball,
        "estimate": est,
        "estimate_kind": NORM_NOTE,
        "estimate_witness": labels[est_idx],
        "note": "the probe estimate lower-bounds the true norm, so "
        "lower.bmo_vs_estimate is an upper estimate of the sharp ratio",
        "c_meas": c_meas,
        "c_test": c_test,
        "aux_max": float(aux.max()) if nb else 0.0,
        "aux_bound": aux_bound,
        "probed_balls": len(ids),
        "ball_count": nb,
        "entries": entries,
        "passed": passed,
    }


# -- weighted John-Nirenberg comparison ----------------------------------------


def verify_bloom_jn(
    space: QuasiMetricSpace,
    b: np.ndarray,
    lam1,
    lam2,
    p: float,
    r: float,
    eps: float = 0.25,
) -> Dict[str, object]:
    """Per canonical ball B compare

      (1/mu(B)) int_B |b - b_B|^r lam1^{-r/p} dmu

    against ||b||^r_{BMO_nu} [lam2]_{A_p}^{r/p} ((1/mu(B)) int_B
    lam2^{-1/p})^r and report the least multiplicative constant.  The
    range 1 <= r <= p' is asserted-finite; p' < r <= p'+eps is
    measurement-only."""
    _validate_weights(space, lam1, lam2, p)
    b = np.asarray(b, dtype=np.float64)
    lam1 = np.asarray(lam1, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    pprime = p / (p - 1.0)
    if r < 1.0 - 1e-12 or r > pprime + eps + 1e-12:
        raise ValueError(f"r={r} outside [1, p'={pprime} + eps={eps}]")
    branch = 1 if r <= pprime + 1e-12 else 2
    nu = bloom_weight(lam1, lam2, p)
    ap2 = ap_characteristic(space, lam2, p).value
    m = space.mass
    jn_weight = lam1 ** (-r / p) * m
    if r == 1:
        # the BMO_nu oscillation and the left side share |b - b_B|
        osc, jn_sums = deviation_sums(space, b, np.stack([m, jn_weight], axis=1)).T
        bmo = ball_max(osc / space.ball_sums(nu * m)).value
    else:
        bmo = bmo_norm(space, b, nu).value
        jn_sums = deviation_sums(space, b, jn_weight, r)
    lhs = jn_sums / space.ball_measures()
    rhs_factor = space.ball_averages(lam2 ** (-1.0 / p))
    rhs = bmo**r * ap2 ** (r / p) * rhs_factor**r
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs > 0, lhs / rhs, 0.0)
    worst = ball_max(ratios)
    c_jn = worst.value
    entry = _ratio_entry(f"jn.branch{branch}_constant", c_jn)
    return {
        "name": "bloom_jn",
        "branch": branch,
        "asserted": branch == 1,
        "r": float(r),
        "p_conjugate": pprime,
        "c_jn": c_jn,
        "bmo_nu": bmo,
        "ap_lambda2": ap2,
        "vacuous": bmo == 0.0,
        "worst_ball": worst.ball,
        "entries": [entry],
        "passed": bool(entry["passed"]),
    }


# -- A_p exponent sweep ---------------------------------------------------------


def fit_weight_exponent(
    space: QuasiMetricSpace,
    system: DyadicSystem,
    b: np.ndarray,
    p: float,
    seed: int = 0,
    coeffs: Sequence[float] = (0.25, 0.4, 0.55, 0.7, 0.8, 0.9),
    probes: int = 8,
    ball_cap: Optional[int] = 48,
    slope_margin: float = 0.2,
) -> Dict[str, object]:
    """Power-weight sweep: for w_a = (d(x0, .) + 1/n)^{a} with
    a = coeff * (p-1), regress log(probe norm estimate) against
    log([w]_{A_p}^2) for A_S (full dyadic tree), C_b and [b, M]; the
    fitted slope must stay under max(1, 1/(p-1)) + margin.  A constant
    symbol makes C_b and [b, M] vanish, so their rows are vacuous."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    n = space.n
    cubes = system.all_cubes()
    F, _, _, cb, bm = probe_images(space, b, probes, seed, ball_cap)
    images = {"sparse": sparse_operator(space, cubes, F).values, "cb": cb, "bm": bm}

    coord = space.dist[0]
    cells = []
    xs: List[float] = []
    ests: Dict[str, List[float]] = {"sparse": [], "cb": [], "bm": []}
    for coeff in coeffs:
        a = coeff * (p - 1.0)
        w = (coord + 1.0 / n) ** a
        ap = ap_characteristic(space, w, p).value
        cells.append({"a": a, "ap": ap})
        xs.append(math.log(ap * ap))
        for op in ests:
            est, _ = estimate_from_values(space, images[op], F, w, w, p)
            ests[op].append(est)

    cap = max(1.0, 1.0 / (p - 1.0)) + slope_margin
    x = np.asarray(xs)
    spread = float(x.max() - x.min()) if x.size else 0.0
    ops: Dict[str, Dict[str, object]] = {}
    all_pass = True
    # the kernel's own test: C_b is then exactly 0, and [b, M] is 0 up
    # to rounding, which a fit would read as a slope
    constant = bool(np.ptp(b) == 0.0)
    for op, vals in ests.items():
        y = np.asarray(vals)
        if constant and op != "sparse":
            ops[op] = {"status": "vacuous", "points": int(y.size), "passed": True}
            continue
        keep = np.isfinite(x) & (y > 0) & np.isfinite(np.log(np.maximum(y, 1e-300)))
        xk, yk = x[keep], np.log(y[keep])
        if xk.size < 3:
            ops[op] = {"status": "insufficient spread", "points": int(xk.size), "passed": False}
            all_pass = False
            continue
        if float(xk.max() - xk.min()) < 1e-9:
            ops[op] = {"status": "vacuous", "points": int(xk.size), "passed": True}
            continue
        slope, intercept = np.polyfit(xk, yk, 1)
        resid = yk - (slope * xk + intercept)
        dof = xk.size - 2
        denom = float(((xk - xk.mean()) ** 2).sum())
        stderr = (
            math.sqrt(float((resid**2).sum()) / dof / denom) if dof > 0 and denom > 0 else math.inf
        )
        ok = bool(slope <= cap)
        ops[op] = {
            "status": "ok",
            "slope": float(slope),
            "intercept": float(intercept),
            "stderr": stderr,
            "band": [float(slope - 2 * stderr), float(slope + 2 * stderr)],
            "points": int(xk.size),
            "passed": ok,
        }
        all_pass = all_pass and ok
    return {
        "name": "exponent_fit",
        "p": float(p),
        "cap": cap,
        "spread": spread,
        "cells": cells,
        "eta_host": packing_constant(system, cubes),
        "estimate_kind": NORM_NOTE,
        "ops": ops,
        "passed": all_pass,
    }
