# src/shtlab/dyadic.py
"""
Dyadic cube systems and adjacent families on a finite space.

Construction is net-based.  A system is determined by a nested family
of nets, one per level: the level-k net is delta^k-separated and
covers the space within a comparable radius, and nets only grow as k
increases.  Assembly yields one label array per level, top-down:
every point joins the nearest level-k net center whose own cube at
level k-1 is the point's current cube, ties going to the lower center
id.  That is one masked argmin per level over the (n x net) distance
columns, with every center outside the point's parent cube masked to
inf.  The nonempty centers number the level's cubes in (parent alpha,
center id) order.  That makes the partition, nestedness and
unique-ancestor properties true by construction; ``verify_system``
still certifies them exhaustively, because hand-built or deserialized
systems carry no such guarantee.  The ``DyadicCube`` tree (members,
parent and child links) is built from the labels on first read of
``cubes``: capture only reads ``first_change``, a table built from the
labels, so the unchosen systems of an adjacent pool never build one.

Two net samplers are used: a farthest-point traversal (the insertion
distances are nonincreasing, so every level's net is a prefix of one
visit order), and a randomized greedy sweep that admits a separation
scale factor.  The greedy variants exist for adjacent families: with
the desk-scale delta the continuum existence theorem for adjacent
systems is out of reach (it needs delta below 1/(96 A0^6)), so
``build_adjacent_systems`` generates a seeded pool of candidate
systems with varied net seeds and net pitches and keeps the t_count of
them that jointly capture the most canonical balls.  Capture is then
certified ball-by-ball and failures are reported as data.  The
geometric doubling count a1 behind the family-size bound runs every
canonical ball's separated-point greedy in one sweep of the points,
on a boolean (balls x n) table taken in bounded blocks.

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
from functools import cached_property
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
    """A nested hierarchy of cube partitions, one per level k.

    An assembled system stores ``labels`` (per level, the alpha of the
    cube holding each point) and ``centers`` (per level, the center of
    each cube in alpha order); ``cubes`` is built from them on first
    read.  A system from raw level sets passes its own cubes, and its
    labels are None unless every level is a partition."""

    def __init__(
        self,
        space: QuasiMetricSpace,
        delta: float,
        seed: int,
        levels: List[int],
        cubes: Optional[Dict[int, List[DyadicCube]]],
        labels: Optional[Dict[int, np.ndarray]],
        centers: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        self.space = space
        self.delta = float(delta)
        self.seed = int(seed)
        self.levels = list(levels)
        if cubes is not None:
            self.cubes = cubes
        self.labels = labels
        self.centers = centers

    @cached_property
    def cubes(self) -> Dict[int, List[DyadicCube]]:
        """The cube tree from the labels: each level's members by one
        stable argsort of its labels, each cube's parent the previous
        level's cube holding its center, children in alpha order."""
        labels, centers = self.labels, self.centers
        cubes: Dict[int, List[DyadicCube]] = {}
        prev: Optional[int] = None
        for k in self.levels:
            lab = labels[k]  # type: ignore[index]
            order = np.argsort(lab, kind="stable")
            cuts = np.cumsum(np.bincount(lab, minlength=len(centers[k])))[:-1]  # type: ignore[index]
            level = [
                DyadicCube(k, alpha, int(c), mem)
                for alpha, (c, mem) in enumerate(zip(centers[k].tolist(), np.split(order, cuts)))
            ]
            if prev is not None:
                up = cubes[prev]
                for cube, a in zip(level, labels[prev][centers[k]].tolist()):
                    cube.parent = up[a]
                    up[a].children.append(cube)
            cubes[k] = level
            prev = k
        return cubes

    measured_c1 = property(lambda self: self._sandwich[0])
    containment_C1 = property(lambda self: self._sandwich[1])

    @cached_property
    def measured_C1(self) -> float:
        return self._monotone_C1(self.containment_C1)

    @cached_property
    def _sandwich(self) -> Tuple[float, float]:
        """(c1, C1), measured on first read: of an adjacent pool, only
        the systems that get verified need them."""
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

    @cached_property
    def first_change(self) -> np.ndarray:
        """(levels, n): row ``k - levels[0]``, entry c is the first
        position along c's distance order whose point lies outside c's
        level-k cube, or n when none does.  A ball B(c, r) is a prefix
        of that order, so the cube holds it exactly when the entry
        reaches the ball's count; entries only grow toward coarser
        levels.  Entries are at most n <= MAX_POINTS, so int16 holds them,
        at a quarter of the memory an adjacent pool's tables would take
        as int64."""
        t = self.space.ball_table()
        n = self.space.n
        out = np.empty((len(self.levels), n), dtype=np.int16)
        for i, k in enumerate(self.levels):
            lab = self.labels[k][t.order]  # type: ignore[index]
            # end of the leading run of the center's own label (order[c, 0]
            # is c itself): the first False, or n when there is none
            eq = lab == lab[:, :1]
            out[i] = np.where(eq.all(axis=1), n, np.argmin(eq, axis=1))
        return out

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
    size = 1
    while size < n:
        k += 1
        thr = sep_scale * delta**k
        # mind only falls during the sweep, so its candidates are the
        # points already far enough when it starts, taken in perm order
        for x in perm[~in_net[perm] & (mind[perm] >= thr)].tolist():
            if mind[x] >= thr:
                in_net[x] = True
                size += 1
                np.minimum(mind, space.dist[x], out=mind)
        nets[k] = np.flatnonzero(in_net)
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
    """Labels per level by one masked argmin over the net's distance
    columns: each point picks the nearest center inside its parent
    cube, the first minimum being the lowest center id.  The nonempty
    centers take alphas in (parent alpha, center id) order."""
    levels = sorted(nets)
    n = space.n
    k_top = levels[0]
    labels: Dict[int, np.ndarray] = {k_top: np.zeros(n, dtype=np.int64)}
    centers: Dict[int, np.ndarray] = {k_top: np.asarray(nets[k_top][:1], dtype=np.int64)}
    for k in levels[1:]:
        prev = labels[k - 1]
        net = np.sort(nets[k])
        cp = prev[net]
        if np.any(np.bincount(cp, minlength=len(centers[k - 1])) == 0):
            raise AssertionError(
                "net does not refine the parent partition; "
                "parent-consistent assignment infeasible"
            )
        sub = space.dist[:, net]
        sub[prev[:, None] != cp[None, :]] = np.inf
        pick = np.argmin(sub, axis=1)
        del sub
        order = np.argsort(cp, kind="stable")
        order = order[np.bincount(pick, minlength=len(net))[order] > 0]
        alpha = np.full(len(net), -1, dtype=np.int64)
        alpha[order] = np.arange(len(order))
        labels[k] = alpha[pick]
        centers[k] = net[order]
    return DyadicSystem(space, delta, seed, levels, None, labels, centers)


def build_dyadic_system(space: QuasiMetricSpace, delta: float, seed: int = 0) -> DyadicSystem:
    """Build one dyadic system from a farthest-point net family.

    The traversal starts at point 0; the seed only breaks exact ties
    among farthest candidates, so the result is fully deterministic per
    (space, delta, seed)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    nets = _fps_nets(space, delta, 0, rng)
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

    # containment between every level pair: inter[alpha, beta] counts the
    # points cube beta of the finer level l shares with cube alpha of k
    # (float64 products, exact for counts below 2^53)
    sizes = {k: masks[k].sum(axis=1) for k in levels}
    children: Dict[int, np.ndarray] = {}  # per k, containment of the next level
    for i, k in enumerate(levels):
        coarse = masks[k].astype(np.float64)
        for l in levels[i + 1 :]:
            inter = coarse @ masks[l].astype(np.float64).T
            contained = inter == sizes[l][None, :]
            if l == levels[i + 1]:
                children[k] = contained
            # per finer cube beta: its partial overlaps in alpha order,
            # then its ancestor entry
            nested = (0 < inter) & (inter < sizes[l][None, :])
            lost = contained.sum(axis=0) != 1
            for beta in np.flatnonzero(nested.any(axis=0) | lost).tolist():
                for alpha in np.flatnonzero(nested[:, beta]).tolist():
                    violations.append(("nested", l, beta, k, alpha))
                if lost[beta]:
                    violations.append(("ancestor", l, beta, k))

    # children derived from adjacent-level containment, independent of
    # links: their centers' separation and the monotone ball check
    c1, C1 = system.measured_c1, system.measured_C1
    max_children = 0
    mono_violations: List[Tuple] = []
    for i, k in enumerate(levels[:-1]):
        nxt = levels[i + 1]
        contained = children[k]
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
            ball_parent = space.dist[cube.center] <= C1 * delta**k + 1e-12
            for beta, center in zip(kids, centers):
                ball_child = space.dist[center] <= C1 * delta**nxt
                if np.any(ball_child & ~ball_parent):
                    mono_violations.append((nxt, int(beta), k, cube.alpha))

    sandwich_ok = True
    for k in levels:
        scale = delta**k
        for cube in system.cubes[k]:
            inner = np.flatnonzero(space.dist[cube.center] < c1 * scale * (1.0 - 1e-12))
            if not np.all(masks[k][cube.alpha, inner]):
                sandwich_ok = False
            if space.dist[cube.center, cube.members].max() > C1 * scale * (1.0 + 1e-12):
                sandwich_ok = False

    return {
        "c1": c1,
        "C1": C1,
        "containment_C1": system.containment_C1,
        "M": max_children,
        "violations": violations,
        "sandwich_ok": sandwich_ok,
        "monotone_ok": not mono_violations,
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


# (balls x n) entries per block of ``geometric_doubling``'s open table
DOUBLING_BLOCK = 1 << 21


def geometric_doubling(space: QuasiMetricSpace, delta: float) -> int:
    """Greedy count of (delta * r)-separated points inside canonical
    balls of radius r; a lower bound for the doubling number, reported
    alongside the adjacent-family size bound.

    Every ball runs the same greedy (its points in id order, each kept
    while at least delta * r from the points kept before), all in one
    sweep of the points: n steps, not one per (center, point) pair.
    ``open[B, y]`` says y is in B and still that far from every point
    B has kept, so the balls keeping x are the open rows of column x,
    which then close every y nearer x than their delta * r.  The balls
    go in blocks of at most ``DOUBLING_BLOCK`` table entries, so the
    scratch is one bool table of at most min(balls x n, DOUBLING_BLOCK)
    bytes; each block's table is filled in row chunks whose rank
    gather takes an eighth of that."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    t = space.ball_table()
    n = space.n
    best = 1
    step = max(1, DOUBLING_BLOCK // n)
    # rows per chunk of the int64 rank gather filling a block's table
    chunk = max(1, DOUBLING_BLOCK // (64 * n))
    for b0 in range(0, len(t.center), step):
        ids = np.arange(b0, min(len(t.center), b0 + step))
        open_ = np.empty((len(ids), n), dtype=bool)
        for r0 in range(0, len(ids), chunk):
            part = ids[r0 : r0 + chunk]
            np.less(t.rank[t.center[part]], t.count[part, None], out=open_[r0 : r0 + chunk])
        sep = delta * t.radius[ids, None]
        kept = np.zeros(len(open_), dtype=np.int64)
        for x in range(n):
            rows = np.flatnonzero(open_[:, x])
            kept[rows] += 1
            # columns up to x are never read again
            open_[rows, x + 1 :] &= space.dist[x, x + 1 :] >= sep[rows]
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
    ball's clamped level hold the whole ball?"""
    t = space.ball_table()
    lo, hi = system.levels[0], system.levels[-1]
    return system.first_change[np.clip(levels, lo, hi) - lo, t.center] >= t.count


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
