# src/shtlab/sparse.py
"""
Sparse cube families and the pointwise domination of the maximal
commutator.

``build_domination`` realizes, on a finite space, the stopping-time
recursion that bounds C_b f by sparse commutator forms: cover the
space by a root ball and annulus balls, capture each cover's enlarged
truncation ball in a dyadic cube, carve out the exceptional set where
f, its local grand maximal, or their symbol-weighted versions are
large, select the Calderon-Zygmund cubes of that set, and recurse.
Every measure identity the argument rests on is checked exactly on
atoms, also under ``python -O`` (the recursion raises
``CertificateError`` rather than emit a certificate built on a failed
inequality).  The final bound sum_t (T_{S_t,b}|f| +
T*_{S_t,b}|f|) is evaluated pointwise and compared against C_b f; the
certificate stores the measured constant c_emp instead of the
continuum's unnamed C.

``oscillation_domination`` grows a family S-tilde over S by the
mean-oscillation stopping time (threshold twice the oscillation) so
that |b - b_Q| is controlled by the oscillation sums over S-tilde;
the measured constant of that pointwise control is always finite: on
the stopped region the ratio is at most 2, and a vanishing
denominator forces a vanishing numerator atom by atom.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dyadic import AdjacentSystems, DyadicCube, DyadicSystem, _ball_level
from .operators import (
    CommutatorKernel,
    _CubeIndex,
    maximal_function,
    region_grand_maximal,
    sparse_commutator,
    sparse_commutator_adjoint,
    weak_type_11_constant,
)
from .space import Ball, QuasiMetricSpace


@dataclass
class SparseFamily:
    """Cubes of one dyadic system with a certified packing constant.

    eta_certified is the largest eta for which every host cube Q
    satisfies sum of mu(P) over family members P inside Q <= mu(Q)/eta.
    witness optionally maps (k, alpha) to the disjoint member sets E_Q
    produced by a stopping-time construction.
    """

    system: DyadicSystem
    cubes: List[DyadicCube]
    eta_certified: float
    witness: Optional[Dict[Tuple[int, int], np.ndarray]] = None


def packing_constant(system: DyadicSystem, cubes: Sequence[DyadicCube]) -> float:
    """Largest eta with sum_{P in S, P subseteq Q} mu(P) <= mu(Q)/eta
    for every cube Q of the system (P = Q included when Q is in S).

    Containment inside one system is the ancestor relation, so each
    family member adds its measure along its ancestor chain; hosts
    containing no member impose no constraint.  Empty family -> 1.
    """
    space = system.space
    unique = {(c.k, c.alpha): c for c in cubes}
    if not unique:
        return 1.0
    totals: Dict[Tuple[int, int], float] = {}
    for cube in unique.values():
        m = space.measure(cube.members)
        node: Optional[DyadicCube] = cube
        while node is not None:
            key = (node.k, node.alpha)
            totals[key] = totals.get(key, 0.0) + m
            node = node.parent
    eta = 1.0
    for (k, alpha), s in totals.items():
        host = system.cubes[k][alpha]
        eta = min(eta, space.measure(host.members) / s)
    return eta


def cz_select(
    system: DyadicSystem,
    g: np.ndarray,
    height: float,
    root: Optional[DyadicCube] = None,
) -> List[DyadicCube]:
    """Maximal cubes in the root's subtree with avg_Q g > height.

    Selection stops the descent, so the result is an antichain of
    pairwise disjoint cubes; below and outside them every average is
    <= height.  Because the hierarchy bottoms out at singletons, any
    atom with g(x) > height lies inside some selected cube.
    """
    values = np.asarray(g, dtype=np.float64)
    if height <= 0:
        raise ValueError("height must be positive")
    if np.any(values < 0):
        raise ValueError("g must be nonnegative")
    space = system.space
    if root is None:
        root = system.cubes[system.levels[0]][0]
    out: List[DyadicCube] = []
    stack = [root]
    while stack:
        cube = stack.pop()
        if space.average(values, cube.members) > height:
            out.append(cube)
        else:
            stack.extend(cube.children)
    out.sort(key=lambda c: (c.k, c.alpha))
    return out


# -- domination certificate ----------------------------------------------------


@dataclass
class DominationCertificate:
    families: List[SparseFamily]
    bound: np.ndarray
    cb: np.ndarray  # C_b f, the dominated values; not serialized
    c_emp: float
    exceptional: np.ndarray
    nodes: List[Dict[str, object]]
    trees: List[Dict[str, object]]
    partial: bool
    capture_misses: List[Dict[str, object]] = field(default_factory=list)
    cover_overlap: int = 1


class CertificateError(RuntimeError):
    """A domination recursion invariant failed; no certificate is built."""


def _smallest_ball_at(space: QuasiMetricSpace, center: int, members: np.ndarray) -> Ball:
    """Smallest canonical ball at the center containing the given ids."""
    return space.canonical_ball(int(space.ball_pointers()[members, center].max()))


def _capture_cube(
    space: QuasiMetricSpace, systems: Sequence[DyadicSystem], ball: Ball
) -> Tuple[int, DyadicCube, bool]:
    """A cube containing the ball: level-matched capture when some
    system provides it (lowest t wins), otherwise the smallest of each
    system's finest cube containing it (a root always contains
    everything); the flag reports which case occurred.  The ball is a
    prefix of its center's distance order, so a cube at the center
    holds it exactly when ``first_change`` reaches its count."""
    c, count = ball.center, len(ball.members)
    for t, sysm in enumerate(systems):
        lo, hi = sysm.levels[0], sysm.levels[-1]
        k = _ball_level(ball.radius, sysm.delta, lo, hi)
        if sysm.first_change[k - lo, c] >= count:
            return t, sysm.cubes[k][int(sysm.labels[k][c])], True  # type: ignore[index]
    found = []
    for t, sysm in enumerate(systems):
        # the levels reaching count are a prefix, and the root's entry is n
        k = sysm.levels[int(np.count_nonzero(sysm.first_change[:, c] >= count)) - 1]
        cube = sysm.cubes[k][int(sysm.labels[k][c])]  # type: ignore[index]
        found.append((space.measure(cube.members), t, cube))
    _, t, cube = min(found, key=lambda e: e[:2])
    return t, cube, False


def _truncation_ball(space: QuasiMetricSpace, ball: Ball) -> Ball:
    """B(c, 4 A0 r), the truncation ball around B(c, r)."""
    return space.ball_at(ball.center, 4.0 * space.a0 * ball.radius)


def _cover_balls(space: QuasiMetricSpace, b0: Ball) -> List[Ball]:
    """The root ball plus greedy covers of the dyadic annuli around it
    by balls of radius 2^(j-2) r0 centered in the annulus; their union
    covers the space, and each is the region of one recursion tree."""
    covers = [b0]
    j = 1
    while True:
        inner = space.ball_at(b0.center, 2.0 ** (j - 1) * b0.radius)
        if len(inner.members) == space.n:
            break
        outer = space.ball_at(b0.center, 2.0**j * b0.radius)
        annulus = np.setdiff1d(outer.members, inner.members)
        radius = 2.0 ** (j - 2) * b0.radius
        need = np.zeros(space.n, dtype=bool)
        need[annulus] = True
        while need.any():
            center = int(np.flatnonzero(need)[0])
            cover = space.ball_at(center, radius)
            covers.append(cover)
            need[cover.members] = False
        j += 1
        if j > 200:  # 2^j r0 exceeds any finite diameter long before this
            raise RuntimeError("annulus cover failed to exhaust the space")
    return covers


class _TreeContext:
    """Per-tree recursion state shared down the node stack."""

    def __init__(self) -> None:
        self.used = None  # E_Q disjointness accumulator, set per space
        self.nodes: List[Dict[str, object]] = []
        self.emitted: List[Tuple[int, DyadicCube]] = []


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CertificateError(what)


def _dominate_node(
    space: QuasiMetricSpace,
    systems: Sequence[DyadicSystem],
    b: np.ndarray,
    absf: np.ndarray,
    region: np.ndarray,
    trunc_ball: Ball,
    cz_system: DyadicSystem,
    cz_root: Optional[DyadicCube],
    kind: str,
    depth: int,
    updim: float,
    cprime: float,
    ctx: _TreeContext,
    misses: List[Dict[str, object]],
) -> None:
    max_depth = len(cz_system.levels) + 3
    if depth > max_depth:
        raise RuntimeError("domination recursion exceeded the tree height")

    t_ref, q_ref, matched = _capture_cube(space, systems, trunc_ball)
    if not matched:
        misses.append(
            {
                "kind": kind,
                "center": int(trunc_ball.center),
                "radius": float(trunc_ball.radius),
                "depth": depth,
            }
        )
    if kind == "top":
        # the whole tree recurses inside the system holding its top cube
        cz_system = systems[t_ref]
        cz_root = q_ref

    trunc = trunc_ball.members
    b_ref = space.average(b, q_ref.members)
    g2 = np.abs(b - b_ref) * absf
    avg_f = space.average(absf, trunc)
    avg_g = space.average(g2, trunc)
    # every threshold alpha * cprime * avg is this floor times a power
    # of 2, so values at or below it decide no comparison
    floors = [4.0 * cprime * avg_f, 4.0 * cprime * avg_g]
    (mf, mg), _, _ = region_grand_maximal(space, region, trunc, [absf, g2], floors=floors)

    region_mask = np.zeros(space.n, dtype=bool)
    region_mask[region] = True
    mu_region = space.measure(region)
    target = 2.0 ** (-(2.0 + updim)) * mu_region
    height = 2.0 ** (-(updim + 1.0))
    trunc_ind = np.zeros(space.n)
    trunc_ind[trunc] = 1.0

    alpha = 4.0
    selection: List[DyadicCube] = []
    e_mask = np.zeros(space.n, dtype=bool)
    e_sizes = [0.0, 0.0, 0.0, 0.0]
    doublings = 0
    while True:
        e1 = region_mask & (absf > alpha * avg_f)
        e2 = region_mask & (mf > alpha * cprime * avg_f)
        e3 = region_mask & (g2 > alpha * avg_g)
        e4 = region_mask & (mg > alpha * cprime * avg_g)
        e_mask = e1 | e2 | e3 | e4
        e_sizes = [float(space.mass[m].sum()) for m in (e1, e2, e3, e4)]
        if float(space.mass[e_mask].sum()) <= target * (1.0 + 1e-12):
            selection = cz_select(
                cz_system, e_mask.astype(np.float64), height, root=cz_root
            )
            child_truncs = _node_checks_pass(
                space, selection, e_mask, mu_region, absf, g2, trunc_ind,
                alpha, cprime, avg_f, avg_g,
            )
            if child_truncs is not None:
                break
        alpha *= 2.0
        doublings += 1
        if doublings > 200:
            raise RuntimeError("alpha search failed to terminate")

    # exactness of the stopped region: every exceptional atom was swept
    # into a selected cube, so the four threshold bounds hold verbatim
    # on the complement
    covered = np.zeros(space.n, dtype=bool)
    for cube in selection:
        _require(not covered[cube.members].any(), "selected cubes overlap")
        covered[cube.members] = True
    _require(not (e_mask & ~covered).any(), "exceptional atom escaped selection")
    comp = region_mask & ~covered
    _require(np.all(absf[comp] <= alpha * avg_f), "|f| above its threshold")
    _require(np.all(mf[comp] <= alpha * cprime * avg_f), "grand maximal above its threshold")
    _require(np.all(g2[comp] <= alpha * avg_g), "|b - b_Q| |f| above its threshold")
    _require(np.all(mg[comp] <= alpha * cprime * avg_g), "grand maximal of g above its threshold")

    mu_sel = sum(space.measure(c.members) for c in selection)
    _require(mu_sel <= 0.5 * mu_region * (1.0 + 1e-12), "selection measure too large")
    e_node = np.flatnonzero(comp)
    _require(
        float(space.mass[comp].sum()) >= 0.5 * mu_region * (1.0 - 1e-12),
        "stopped region below half the region",
    )
    _require(not ctx.used[e_node].any(), "stopped regions overlap inside a tree")
    ctx.used[e_node] = True

    ctx.emitted.append((t_ref, q_ref))
    ctx.nodes.append(
        {
            "kind": kind,
            "depth": depth,
            "t": t_ref,
            "cube": [int(q_ref.k), int(q_ref.alpha)],
            "capture_matched": bool(matched),
            "alpha": float(alpha),
            "c_prime": float(cprime),
            "region_measure": float(mu_region),
            "e_measures": [float(v) for v in e_sizes],
            "e_measure": float(space.mass[e_mask].sum()),
            "target": float(target),
            "selected": [[int(c.k), int(c.alpha)] for c in selection],
        }
    )

    for cube, child_trunc in zip(selection, child_truncs):
        _dominate_node(
            space, systems, b, absf, cube.members, child_trunc,
            cz_system, cube, "cube", depth + 1, updim, cprime, ctx, misses,
        )


def _node_checks_pass(
    space: QuasiMetricSpace,
    selection: List[DyadicCube],
    e_mask: np.ndarray,
    mu_region: float,
    absf: np.ndarray,
    g2: np.ndarray,
    trunc_ind: np.ndarray,
    alpha: float,
    cprime: float,
    avg_f: float,
    avg_g: float,
) -> Optional[List[Ball]]:
    """The post-selection identities the recursion step needs: each
    selected cube keeps an atom outside the exceptional set, the
    selected measures stay below half the region, and the truncated
    maximal function of f and (b - b_ref) f away from each selected
    cube's truncation ball stays below the alpha threshold on the cube.
    Returns those truncation balls, in selection order, when every
    identity holds, and None otherwise."""
    mu_sel = 0.0
    for cube in selection:
        inter = float(space.mass[cube.members[e_mask[cube.members]]].sum())
        if inter >= space.measure(cube.members) * (1.0 - 1e-15):
            return None  # no atom of E^c inside the cube
        mu_sel += space.measure(cube.members)
    if mu_sel > 0.5 * mu_region * (1.0 + 1e-12):
        return None
    truncs = [
        _truncation_ball(space, _smallest_ball_at(space, cube.center, cube.members))
        for cube in selection
    ]
    if selection:
        cols = []
        for trunc in truncs:
            keep = trunc_ind.copy()
            keep[trunc.members] = 0.0
            cols.append(absf * keep)
            cols.append(g2 * keep)
        mvals = maximal_function(space, np.stack(cols, axis=1)).values
        for j, cube in enumerate(selection):
            if mvals[cube.members, 2 * j].max() > alpha * cprime * avg_f:
                return None
            if mvals[cube.members, 2 * j + 1].max() > alpha * cprime * avg_g:
                return None
    return truncs


def build_domination(
    space: QuasiMetricSpace,
    adjacent: AdjacentSystems,
    b: np.ndarray,
    f: np.ndarray,
    root_ball: Ball,
) -> DominationCertificate:
    """Pointwise sparse domination of C_b f from the root ball of f.

    One recursion tree per cover ball (the root ball plus annulus
    covers).  Each tree's truncation ball is widened to the smallest
    canonical ball at the cover center containing both the 4 A0
    enlargement of the cover and the root ball, so the truncated
    commutator agrees with the full one on the tree and the emitted top
    cube contains the support of f.  That last containment is what
    makes the exceptional set provably empty: every point lies in its
    tree's top cube R, and if both commutator forms of R vanish at x,
    then b is constant on {x} union supp f and C_b f(x) = 0 exactly.
    """
    b = np.asarray(b, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    absf = np.abs(f)
    systems = adjacent.systems
    updim = space.updim
    cprime = weak_type_11_constant(space)
    covers = _cover_balls(space, root_ball)
    overlap = np.zeros(space.n, dtype=np.int64)
    for ball in covers:
        overlap[ball.members] += 1

    misses: List[Dict[str, object]] = []
    trees: List[Dict[str, object]] = []
    nodes: List[Dict[str, object]] = []
    emitted: Dict[int, List[DyadicCube]] = {t: [] for t in range(len(systems))}
    for ball in covers:
        needed = np.union1d(_truncation_ball(space, ball).members, root_ball.members)
        wide = _smallest_ball_at(space, ball.center, needed)
        ctx = _TreeContext()
        ctx.used = np.zeros(space.n, dtype=bool)
        _dominate_node(
            space, systems, b, absf, ball.members, wide,
            systems[0], None, "top", 0, updim, cprime, ctx, misses,
        )
        trees.append(
            {
                "cover_center": int(ball.center),
                "cover_radius": float(ball.radius),
                "trunc_center": int(wide.center),
                "trunc_radius": float(wide.radius),
                "node_count": len(ctx.nodes),
            }
        )
        nodes.extend(ctx.nodes)
        for t, cube in ctx.emitted:
            emitted[t].append(cube)

    families: List[SparseFamily] = []
    for t, sysm in enumerate(systems):
        unique: Dict[Tuple[int, int], DyadicCube] = {}
        for cube in emitted[t]:
            unique[(cube.k, cube.alpha)] = cube
        cubes = [unique[key] for key in sorted(unique)]
        families.append(SparseFamily(sysm, cubes, packing_constant(sysm, cubes)))
    bound = _family_bound(space, [fam.cubes for fam in families], b, absf)

    cb = CommutatorKernel(space, b).apply(f).values
    positive = bound > 0.0
    exceptional = np.flatnonzero(~positive & (cb > 0.0))
    c_emp = float((cb[positive] / bound[positive]).max()) if positive.any() else 0.0
    return DominationCertificate(
        families=families,
        bound=bound,
        cb=cb,
        c_emp=c_emp,
        exceptional=exceptional,
        nodes=nodes,
        trees=trees,
        partial=bool(misses),
        capture_misses=misses,
        cover_overlap=int(overlap.max()) if len(covers) else 1,
    )


def _family_bound(
    space: QuasiMetricSpace, families: Sequence[Sequence], b: np.ndarray, absf: np.ndarray
) -> np.ndarray:
    """sum over families S_t of T_{S_t,b}|f| + T*_{S_t,b}|f|, families
    given as cubes or as member arrays: the certificate and its round
    trip both evaluate the bound here, so they agree bit for bit."""
    bound = np.zeros(space.n)
    for cubes in families:
        bound += sparse_commutator(space, cubes, b, absf).values
        bound += sparse_commutator_adjoint(space, cubes, b, absf).values
    return bound


def certificate_to_dict(cert: DominationCertificate) -> Dict[str, object]:
    return {
        "c_emp": cert.c_emp,
        "exceptional": [int(x) for x in cert.exceptional],
        "partial": cert.partial,
        "cover_overlap": cert.cover_overlap,
        "capture_misses": cert.capture_misses,
        "trees": cert.trees,
        "nodes": cert.nodes,
        "families": [
            {
                "t": t,
                "eta_certified": fam.eta_certified,
                "cubes": [
                    {
                        "k": int(c.k),
                        "alpha": int(c.alpha),
                        "center": int(c.center),
                        "members": [int(m) for m in c.members],
                    }
                    for c in fam.cubes
                ],
            }
            for t, fam in enumerate(cert.families)
        ],
        "bound": [float(v) for v in cert.bound],
    }


def save_certificate(cert: DominationCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert), fh, sort_keys=True, indent=1)


def evaluate_bound_from_dict(
    space: QuasiMetricSpace, doc: Dict[str, object], b: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Recompute the certified bound from serialized member lists, in
    the stored cube order; matches the stored values bit for bit."""
    families = [
        [np.asarray(c["members"], dtype=np.int64) for c in fam["cubes"]]
        for fam in doc["families"]  # type: ignore[index]
    ]
    return _family_bound(
        space, families, np.asarray(b, dtype=np.float64), np.abs(np.asarray(f, dtype=np.float64))
    )


# -- oscillation stopping time --------------------------------------------------


def _oscillation_terms(space: QuasiMetricSpace, cubes: Sequence[DyadicCube], b: np.ndarray):
    """(index, dev, omega, inside, sums) of a family of one system's
    cubes: its ``_CubeIndex``, |b(x) - b_Q| per entry (Q, x), the mean
    oscillation Omega(Q) per cube, the containment relation
    inside[Q, R], and per entry the oscillation sum
    sum_{R in family, R within Q} Omega(R) chi_R(x).  Omega is the
    average of the entries' deviations, so it vanishes only where
    they do."""
    index = _CubeIndex(space, cubes)
    dev = index.deviation(b)
    omega = index.sums(dev * index.mass) / index.mu
    inside = index.inside(np.array([c.k for c in cubes], dtype=np.int64))
    return index, dev, omega, inside, index.oscillation_sums(inside, omega)



def oscillation_domination(
    system: DyadicSystem, S: Sequence[DyadicCube], b: np.ndarray
) -> Dict[str, object]:
    """Augment S so the symbol's deviation on each family cube is
    controlled by oscillation sums: starting from S (coarse to fine),
    each cube Q adds the maximal strict subcubes P with
    avg_P |b - b_Q| > 2 Omega(b, Q), recursing into additions.

    Returns the family with its measured packing constant, the witness
    sets E_Q = Q minus the cubes Q itself selected, and the least
    c with |b(x) - b_Q| <= c * sum_{R in S-tilde, R within Q}
    Omega(b, R) chi_R(x) on every Q (0/0 counts as 0; the constant is
    always finite because a zero denominator forces b to be constant
    on Q).
    """
    space = system.space
    b = np.asarray(b, dtype=np.float64)
    base = list(S)
    members_of: Dict[Tuple[int, int], DyadicCube] = {
        (c.k, c.alpha): c for c in base
    }
    queue = deque(sorted(members_of.values(), key=lambda c: (c.k, c.alpha)))
    processed: set = set()
    witness: Dict[Tuple[int, int], np.ndarray] = {}
    while queue:
        cube = queue.popleft()
        key = (cube.k, cube.alpha)
        if key in processed:
            continue
        processed.add(key)
        dev = np.abs(b - space.average(b, cube.members))
        threshold = 2.0 * space.average(dev, cube.members)
        # the root's own average is threshold/2, so it is never selected;
        # a zero threshold means b is constant on Q and nothing stops
        selected = cz_select(system, dev, threshold, root=cube) if threshold > 0 else []
        keep = np.ones(space.n, dtype=bool)
        for child in selected:
            keep[child.members] = False
            ckey = (child.k, child.alpha)
            if ckey not in members_of:
                members_of[ckey] = child
            queue.append(child)
        witness[key] = cube.members[keep[cube.members]]

    cubes = [members_of[k] for k in sorted(members_of)]
    eta = packing_constant(system, cubes)
    family = SparseFamily(system, cubes, eta, witness=witness)

    # minimal pointwise constant for the oscillation control
    _, dev, _, _, sums = _oscillation_terms(space, cubes, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dev > 0, dev / sums, 0.0)
    c_emp = float(ratio.max()) if len(ratio) else 0.0

    eta_in = packing_constant(system, base)
    floor = eta_in / (2.0 * (eta_in + 1.0))
    return {
        "S_tilde": family,
        "c_emp": float(c_emp),
        "eta_input": float(eta_in),
        "packing_floor": float(floor),
        "packing_ok": bool(eta >= floor * (1.0 - 1e-12)),
    }
