# src/shtlab/dyadic.py
"""
Dyadic cube systems and adjacent families on a finite space.

Construction is net-based.  A system is determined by a nested family
of nets, one per level: the level-k net is delta^k-separated and
covers the space within a comparable radius, and nets only grow as k
increases.  Cubes are assigned top-down: every point joins the nearest
level-k net center whose own cube at level k-1 is the point's current
cube, ties going to the lower center id.  That makes the partition,
nestedness and unique-ancestor properties true by construction;
``verify_system`` still certifies them exhaustively, because
hand-built or deserialized systems carry no such guarantee.

Two net samplers are used: a farthest-point traversal (the insertion
distances are nonincreasing, so every level's net is a prefix of one
visit order), and a randomized greedy sweep that admits a separation
scale factor.  The greedy variants exist for adjacent families: with
the desk-scale delta the continuum existence theorem for adjacent
systems is out of reach (it needs delta below 1/(96 A0^6)), so
``build_adjacent_systems`` generates a seeded pool of candidate
systems with varied net seeds and net pitches and keeps the t_count of
them that jointly capture the most canonical balls.  Capture is then
certified ball-by-ball and failures are reported as data.

Sandwich constants are measured, not the continuum ones.  c1 is the
worst ratio (largest ball around the center still inside the cube) /
delta^k.  For C1 two values are reported: the bare containment ratio
(smallest closed ball around the center holding the cube) / delta^k,
and measured_C1, the least enlargement of it for which the containing
balls are also monotone along the cube tree (child's ball inside
parent's).  Containing balls use the closed convention d <= r since
open-ball infima are not attained on atoms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .space import QuasiMetricSpace


@dataclass
class DyadicCube:
    k: int
    alpha: int
    center: int
    members: np.ndarray
    parent: Optional["DyadicCube"] = None
    children: List["DyadicCube"] = field(default_factory=list)

    def __repr__(self) -> str:  # avoid recursing through parent/children
        return f"DyadicCube(k={self.k}, alpha={self.alpha}, center={self.center}, size={len(self.members)})"


class DyadicSystem:
    """A nested hierarchy of cube partitions, one per level k."""

    def __init__(
        self,
        space: QuasiMetricSpace,
        delta: float,
        seed: int,
        levels: List[int],
        cubes: Dict[int, List[DyadicCube]],
        labels: Optional[Dict[int, np.ndarray]],
    ) -> None:
        self.space = space
        self.delta = float(delta)
        self.seed = int(seed)
        self.levels = list(levels)
        self.cubes = cubes
        self.labels = labels
        self.measured_c1, self.containment_C1 = self._measure_sandwich()
        self.measured_C1 = self._monotone_C1(self.containment_C1)
        self.max_children = max(
            (len(c.children) for k in self.levels for c in self.cubes[k]), default=0
        )

    def _measure_sandwich(self) -> Tuple[float, float]:
        dist = self.space.dist
        c1 = math.inf
        C1 = 0.0
        n = self.space.n
        for k in self.levels:
            scale = self.delta**k
            for cube in self.cubes[k]:
                inside = dist[cube.center, cube.members]
                C1 = max(C1, float(inside.max()) / scale)
                if len(cube.members) < n:
                    out = np.ones(n, dtype=bool)
                    out[cube.members] = False
                    c1 = min(c1, float(dist[cube.center, out].min()) / scale)
        return c1, C1

    def _monotone_C1(self, base: float) -> float:
        """Least C >= base with closed containing balls monotone along
        every parent-child edge (composition then covers all ancestor
        pairs).  For each edge and each prefix of points sorted by
        distance to the child center, C fails on the half-open interval
        [d_j / delta^child, H_j / delta^parent) where H_j is the prefix
        max of distances to the parent center; the answer is the first
        point at or above base not covered by any failing interval."""
        dist = self.space.dist
        intervals: List[Tuple[float, float]] = []
        for k in self.levels:
            for cube in self.cubes[k]:
                for child in cube.children:
                    order = np.argsort(dist[child.center], kind="stable")
                    d_child = dist[child.center][order]
                    h_parent = np.maximum.accumulate(dist[cube.center][order])
                    lo = d_child / self.delta**child.k
                    hi = h_parent / self.delta**cube.k
                    bad = hi > lo
                    intervals.extend(zip(lo[bad].tolist(), hi[bad].tolist()))
        intervals.sort()
        c = base
        for lo, hi in intervals:
            if lo > c:
                break
            c = max(c, hi)
        return c

    def cube_of(self, x: int, k: int) -> DyadicCube:
        if self.labels is None:
            for cube in self.cubes[k]:
                if x in cube.members:
                    return cube
            raise KeyError(f"point {x} not covered at level {k}")
        return self.cubes[k][int(self.labels[k][x])]

    def all_cubes(self) -> List[DyadicCube]:
        return [c for k in self.levels for c in self.cubes[k]]


# -- net samplers -------------------------------------------------------------


def _fps_nets(
    space: QuasiMetricSpace, delta: float, start: int, rng: np.random.Generator
) -> Dict[int, np.ndarray]:
    """Nets from one farthest-point traversal: the level-k net is the
    set of points inserted at distance >= delta^k (a prefix, since
    insertion distances never increase).  Ties among farthest
    candidates are broken by the rng."""
    n = space.n
    order = np.empty(n, dtype=np.int64)
    ins = np.empty(n, dtype=np.float64)
    order[0] = start
    ins[0] = np.inf
    mind = space.dist[start].copy()
    used = np.zeros(n, dtype=bool)
    used[start] = True
    for i in range(1, n):
        masked = np.where(used, -np.inf, mind)
        best = masked.max()
        cand = np.flatnonzero(masked == best)
        nxt = int(cand[rng.integers(len(cand))]) if len(cand) > 1 else int(cand[0])
        order[i] = nxt
        ins[i] = best
        used[nxt] = True
        np.minimum(mind, space.dist[nxt], out=mind)

    k_top, k_bot = _level_range(float(ins[1]), float(ins[1:].min()), delta, 1.0)
    return {k: np.sort(order[ins >= delta**k]) for k in range(k_top, k_bot + 1)}


def _greedy_nets(
    space: QuasiMetricSpace, delta: float, seed: int, sep_scale: float = 1.0
) -> Dict[int, np.ndarray]:
    """Nested maximal separated nets grown by a seeded random sweep.

    Level k admits points at least sep_scale * delta^k from the net;
    sep_scale > 1 coarsens every level (larger cubes, boundary lattice
    of a different pitch), which is what gives an adjacent pool its
    diversity."""
    rng = np.random.default_rng(seed)
    n = space.n
    perm = rng.permutation(n)
    start = int(perm[0])
    dmax = float(space.dist[start].max())
    d_all = space.dist + np.diag(np.full(n, np.inf))
    k_top, _ = _level_range(dmax, float(d_all.min()), delta, sep_scale)

    in_net = np.zeros(n, dtype=bool)
    in_net[start] = True
    mind = space.dist[start].copy()
    nets = {k_top: np.array([start], dtype=np.int64)}
    k = k_top
    while int(in_net.sum()) < n:
        k += 1
        thr = sep_scale * delta**k
        for x in perm:
            if not in_net[x] and mind[x] >= thr:
                in_net[x] = True
                np.minimum(mind, space.dist[x], out=mind)
        nets[k] = np.sort(np.flatnonzero(in_net))
    return nets


def _level_range(
    d_cover: float, d_min: float, delta: float, sep_scale: float
) -> Tuple[int, int]:
    """k_top = largest k at which a single net point covers (separation
    threshold above the covering distance); k_bot = smallest k whose
    threshold admits every point."""
    k = 0
    while sep_scale * delta**k <= d_cover:
        k -= 1
    while sep_scale * delta ** (k + 1) > d_cover:
        k += 1
    k_top = k
    while sep_scale * delta**k > d_min:
        k += 1
    return k_top, k


def _assemble_system(
    space: QuasiMetricSpace, delta: float, seed: int, nets: Dict[int, np.ndarray]
) -> DyadicSystem:
    levels = sorted(nets)
    n = space.n
    k_top = levels[0]
    root = DyadicCube(k_top, 0, int(nets[k_top][0]), np.arange(n, dtype=np.int64))
    cubes: Dict[int, List[DyadicCube]] = {k_top: [root]}
    labels: Dict[int, np.ndarray] = {k_top: np.zeros(n, dtype=np.int64)}
    for k in levels[1:]:
        net = np.sort(nets[k])
        center_parent = labels[k - 1][net]
        new_label = np.full(n, -1, dtype=np.int64)
        level_cubes: List[DyadicCube] = []
        for parent in cubes[k - 1]:
            centers = net[center_parent == parent.alpha]
            if len(centers) == 0:
                raise AssertionError(
                    "net does not refine the parent partition; "
                    "parent-consistent assignment infeasible"
                )
            pts = parent.members
            sub = space.dist[np.ix_(pts, centers)]
            pick = np.argmin(sub, axis=1)  # ties: first = lowest center id
            for j, c in enumerate(centers):
                mem = pts[pick == j]
                if len(mem) == 0:
                    continue
                cube = DyadicCube(k, len(level_cubes), int(c), mem, parent=parent)
                parent.children.append(cube)
                new_label[mem] = cube.alpha
                level_cubes.append(cube)
        cubes[k] = level_cubes
        labels[k] = new_label
    return DyadicSystem(space, delta, seed, levels, cubes, labels)


def build_dyadic_system(
    space: QuasiMetricSpace, delta: float, seed: int = 0, start: Optional[int] = None
) -> DyadicSystem:
    """Build one dyadic system from a farthest-point net family.

    The traversal starts at the lowest-id point unless a start is
    given; the seed only breaks exact ties among farthest candidates,
    so the result is fully deterministic per (space, delta, seed,
    start)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    nets = _fps_nets(space, delta, 0 if start is None else int(start), rng)
    return _assemble_system(space, delta, seed, nets)


def system_from_level_sets(
    space: QuasiMetricSpace,
    delta: float,
    level_sets: Dict[int, List[Tuple[int, Sequence[int]]]],
) -> DyadicSystem:
    """Assemble a system from raw (center, members) lists per level.

    Intended for tests and deserialization; performs no structural
    validation (that is verify_system's job), and links each cube to
    the previous-level cube containing its center when one exists."""
    levels = sorted(level_sets)
    cubes: Dict[int, List[DyadicCube]] = {}
    for k in levels:
        cubes[k] = [
            DyadicCube(k, a, int(c), np.asarray(m, dtype=np.int64))
            for a, (c, m) in enumerate(level_sets[k])
        ]
    for ki, k in enumerate(levels[1:], start=1):
        prev = cubes[levels[ki - 1]]
        for cube in cubes[k]:
            for cand in prev:
                if cube.center in cand.members:
                    cube.parent = cand
                    cand.children.append(cube)
                    break
    # labels only when every level is a genuine partition
    labels: Optional[Dict[int, np.ndarray]] = {}
    for k in levels:
        lab = np.full(space.n, -1, dtype=np.int64)
        counts = np.zeros(space.n, dtype=np.int64)
        for cube in cubes[k]:
            lab[cube.members] = cube.alpha
            counts[cube.members] += 1
        if not np.all(counts == 1):
            labels = None
            break
        labels[k] = lab  # type: ignore[index]
    return DyadicSystem(space, delta, 0, levels, cubes, labels)


def verify_system(system: DyadicSystem, space: QuasiMetricSpace) -> Dict[str, object]:
    """Exhaustive certification of the structural cube properties.

    violations collects exact set-identity failures as tuples:
      ("partition", k)                    level k is not a partition
      ("nested", l, beta, k, alpha)       cubes overlap without containment
      ("ancestor", l, beta, k)            not exactly one level-k ancestor
      ("separation", k, alpha)            children centers closer than delta^k
    The sandwich uses the measured constants; monotone_ok reports
    whether each child's containing ball sits inside its parent's at
    measured_C1 (closed balls, 1e-12 radius slack)."""
    levels = system.levels
    delta = system.delta
    n = space.n
    violations: List[Tuple] = []

    masks: Dict[int, np.ndarray] = {}
    for k in levels:
        mk = np.zeros((len(system.cubes[k]), n), dtype=bool)
        for cube in system.cubes[k]:
            mk[cube.alpha, cube.members] = True
        masks[k] = mk
        if not np.all(mk.sum(axis=0) == 1):
            violations.append(("partition", k))

    for i, k in enumerate(levels):
        for l in levels[i + 1 :]:
            inter = masks[k].astype(np.int64) @ masks[l].astype(np.int64).T
            sizes = masks[l].sum(axis=1)
            for beta in range(inter.shape[1]):
                hits = inter[:, beta]
                for alpha in np.flatnonzero(hits):
                    if 0 < hits[alpha] < sizes[beta]:
                        violations.append(("nested", l, beta, k, int(alpha)))
                if int((hits == sizes[beta]).sum()) != 1:
                    violations.append(("ancestor", l, beta, k))

    # children derived from adjacent-level containment, independent of links
    max_children = 0
    for i, k in enumerate(levels[:-1]):
        nxt = levels[i + 1]
        inter = masks[k].astype(np.int64) @ masks[nxt].astype(np.int64).T
        sizes = masks[nxt].sum(axis=1)
        contained = inter == sizes[None, :]
        if contained.size:
            max_children = max(max_children, int(contained.sum(axis=1).max()))
        sep = delta**nxt * (1.0 - 1e-12)
        for cube in system.cubes[k]:
            kids = np.flatnonzero(contained[cube.alpha])
            centers = np.array(
                [system.cubes[nxt][b].center for b in kids], dtype=np.int64
            )
            if len(centers) > 1:
                dd = space.dist[np.ix_(centers, centers)]
                off = dd + np.diag(np.full(len(centers), np.inf))
                if off.min() < sep:
                    violations.append(("separation", k, cube.alpha))

    c1, C1 = system.measured_c1, system.measured_C1
    sandwich_ok = True
    for k in levels:
        scale = delta**k
        for cube in system.cubes[k]:
            inner = np.flatnonzero(space.dist[cube.center] < c1 * scale * (1.0 - 1e-12))
            if not np.all(np.isin(inner, cube.members)):
                sandwich_ok = False
            if space.dist[cube.center, cube.members].max() > C1 * scale * (1.0 + 1e-12):
                sandwich_ok = False

    monotone_ok = True
    mono_violations: List[Tuple] = []
    for i, k in enumerate(levels[:-1]):
        nxt = levels[i + 1]
        inter = masks[k].astype(np.int64) @ masks[nxt].astype(np.int64).T
        sizes = masks[nxt].sum(axis=1)
        for cube in system.cubes[k]:
            for beta in np.flatnonzero(inter[cube.alpha] == sizes):
                child = system.cubes[nxt][beta]
                ball_child = space.dist[child.center] <= C1 * delta**nxt
                ball_parent = space.dist[cube.center] <= C1 * delta**k + 1e-12
                if np.any(ball_child & ~ball_parent):
                    monotone_ok = False
                    mono_violations.append((nxt, int(beta), k, cube.alpha))

    return {
        "c1": c1,
        "C1": C1,
        "containment_C1": system.containment_C1,
        "M": max_children,
        "violations": violations,
        "sandwich_ok": sandwich_ok,
        "monotone_ok": monotone_ok,
        "monotone_violations": mono_violations,
    }


# -- adjacent systems ---------------------------------------------------------


@dataclass
class AdjacentSystems:
    systems: List[DyadicSystem]
    capture_constant: float
    capture_failures: List[Dict[str, object]]
    capture_fraction: float
    report: Dict[str, object]


def geometric_doubling(space: QuasiMetricSpace, delta: float) -> int:
    """Greedy count of (delta * r)-separated points inside canonical
    balls of radius r; a lower bound for the doubling number, reported
    alongside the adjacent-family size bound."""
    t = space.ball_table()
    best = 1
    for c in range(space.n):
        ids = slice(t.start[c], t.start[c + 1])
        count, sep = t.count[ids], delta * t.radius[ids]
        # the greedy of every ball at c at once: in id order, each ball
        # holding x keeps it while x is still sep away from its kept points
        mind = np.full((len(count), space.n), np.inf)
        kept = np.zeros(len(count), dtype=np.int64)
        for x in range(space.n):
            rows = np.flatnonzero((t.rank[c, x] < count) & (mind[:, x] >= sep))
            kept[rows] += 1
            mind[rows] = np.minimum(mind[rows], space.dist[x])
        best = max(best, int(kept.max()))
    return best


def _ball_level(r: float, delta: float, k_lo: int, k_hi: int) -> int:
    """The k with delta^(k+3) < r <= delta^(k+2), clamped to the
    system's level range (finite spaces run out of scales)."""
    m = math.log(r) / math.log(delta)
    k = math.floor(m + 1e-12) - 2
    return min(max(k, k_lo), k_hi)


def _ball_levels(space: QuasiMetricSpace, delta: float) -> np.ndarray:
    """The unclamped ``_ball_level`` of every canonical ball, one log per
    distinct radius."""
    radii, inv = np.unique(space.ball_table().radius, return_inverse=True)
    raw = [_ball_level(r, delta, -math.inf, math.inf) for r in radii.tolist()]
    return np.asarray(raw, dtype=np.int64)[inv]


def _capture_mask(
    space: QuasiMetricSpace, system: DyadicSystem, levels: np.ndarray
) -> np.ndarray:
    """Per canonical ball: does the cube holding its center at the
    ball's clamped level hold the whole ball?  The ball is a prefix of
    its center's distance order, so it is captured exactly when the
    first label change along that order comes at or after its count."""
    t = space.ball_table()
    lo, hi = system.levels[0], system.levels[-1]
    first_change = np.zeros((hi - lo + 1, space.n), dtype=np.int64)
    for k in system.levels:
        lab = system.labels[k][t.order]  # type: ignore[index]
        # leading run of the center's own label (order[c, 0] is c itself)
        first_change[k - lo] = np.cumprod(lab == lab[:, :1], axis=1).sum(axis=1)
    return first_change[np.clip(levels, lo, hi) - lo, t.center] >= t.count


def _candidate_pool(
    space: QuasiMetricSpace, delta: float, t_count: int, seed: int
) -> List[DyadicSystem]:
    """Deterministic pool of candidate systems: the farthest-point
    system, randomized greedy nets, and greedy nets at two coarser
    pitches (delta^(-1/3), delta^(-2/3)) whose boundary lattices
    interleave with the base pitch."""
    pool: List[DyadicSystem] = [build_dyadic_system(space, delta, seed=seed)]
    n_perm = max(12, 2 * t_count)
    for j in range(n_perm):
        nets = _greedy_nets(space, delta, seed + 101 + j)
        pool.append(_assemble_system(space, delta, seed + 101 + j, nets))
    for si, scale in enumerate((delta ** (-1.0 / 3.0), delta ** (-2.0 / 3.0))):
        for j in range(6):
            s = seed + 211 + 10 * si + j
            nets = _greedy_nets(space, delta, s, sep_scale=scale)
            pool.append(_assemble_system(space, delta, s, nets))
    return pool


def build_adjacent_systems(
    space: QuasiMetricSpace, delta: float, t_count: int, seed: int = 0
) -> AdjacentSystems:
    """Select t_count systems from a seeded candidate pool by greedy
    joint-coverage maximization, then scan every canonical ball for
    capture inside a level-matched cube of some chosen system."""
    if t_count < 1:
        raise ValueError("t_count must be >= 1")
    pool = _candidate_pool(space, delta, t_count, seed)
    levels = _ball_levels(space, delta)
    masks = np.stack([_capture_mask(space, s, levels) for s in pool])
    chosen: List[int] = []
    covered = np.zeros(masks.shape[1], dtype=bool)
    for _ in range(min(t_count, len(pool))):
        gains = [
            -1 if i in chosen else int((masks[i] | covered).sum())
            for i in range(len(pool))
        ]
        best = int(np.argmax(gains))
        chosen.append(best)
        covered |= masks[best]
    systems = [pool[i] for i in chosen]

    # capture constant: per ball, the least reach / radius over the
    # chosen systems capturing it, where reach is the farthest member of
    # the cube holding the center at the ball's level
    t = space.ball_table()
    best_ratio = np.full(len(t.center), np.inf)
    for i in chosen:
        sysm = pool[i]
        lo, hi = sysm.levels[0], sysm.levels[-1]
        reach = np.zeros((hi - lo + 1, space.n))
        for k in sysm.levels:
            lab = sysm.labels[k]  # type: ignore[index]
            reach[k - lo] = np.where(lab[:, None] == lab[None, :], space.dist, 0.0).max(axis=1)
        ratio = reach[np.clip(levels, lo, hi) - lo, t.center] / t.radius
        best_ratio = np.where(masks[i], np.minimum(best_ratio, ratio), best_ratio)
    constant = float(best_ratio[covered].max()) if covered.any() else 0.0
    lo0, hi0 = systems[0].levels[0], systems[0].levels[-1]
    failures: List[Dict[str, object]] = []
    for idx in np.flatnonzero(~covered).tolist():
        k = int(np.clip(levels[idx], lo0, hi0))
        failures.append({"ball": idx, "x": int(t.center[idx]), "r": float(t.radius[idx]), "k": k})

    a0 = space.a0
    a1 = geometric_doubling(space, delta)
    bound = float(a1**6 * (a0**4 / delta) ** math.log2(max(a1, 1)))
    report = {
        "t_count": t_count,
        "a0": float(a0),
        "a1": int(a1),
        "delta": float(delta),
        "bound": bound,
        "within_bound": bool(t_count <= bound),
        "pool_size": len(pool),
        "chosen": chosen,
    }
    frac = 1.0 - len(failures) / len(t.center)
    return AdjacentSystems(systems, constant, failures, frac, report)


# -- serialization ------------------------------------------------------------


def system_to_dict(system: DyadicSystem) -> Dict[str, object]:
    cubes = []
    for k in system.levels:
        for cube in system.cubes[k]:
            cubes.append(
                {
                    "k": cube.k,
                    "alpha": cube.alpha,
                    "center": cube.center,
                    "members": [int(m) for m in cube.members],
                    "parent": None
                    if cube.parent is None
                    else [cube.parent.k, cube.parent.alpha],
                }
            )
    return {
        "delta": repr(system.delta),
        "seed": system.seed,
        "levels": system.levels,
        "cubes": cubes,
    }


def system_from_dict(space: QuasiMetricSpace, data: Dict[str, object]) -> DyadicSystem:
    level_sets: Dict[int, List[Tuple[int, Sequence[int]]]] = {}
    for entry in data["cubes"]:  # type: ignore[index]
        level_sets.setdefault(int(entry["k"]), []).append(
            (int(entry["center"]), entry["members"])
        )
    system = system_from_level_sets(space, float(data["delta"]), level_sets)  # type: ignore[arg-type]
    system.seed = int(data.get("seed", 0))  # type: ignore[union-attr]
    return system


def save_system(system: DyadicSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, sort_keys=True, indent=1)


def load_system(space: QuasiMetricSpace, path: str) -> DyadicSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_dict(space, json.load(fh))
