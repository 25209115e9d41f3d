# src/shtlab/dyadic.py
"""
Dyadic cube systems and adjacent families on a finite space.

Construction is net-based.  A system is determined by a nested family
of nets, one per level: the level-k net is delta^k-separated and
covers the space within a comparable radius, and nets only grow as k
increases.  Assembly yields one label array per level, top-down:
every point joins the nearest level-k net center whose own cube at
level k-1 is the point's current cube, ties going to the lower center
id.  A net point is its own nearest center, so that is one masked
argmin per level over the net's distance columns for the points
outside the net only, with every center outside the point's parent
cube masked to inf; ordered once by the level at which they join the
net, those points are one suffix per level.  The centers, all
nonempty, number the level's cubes in (parent alpha, center id)
order.  That makes the partition, nestedness and unique-ancestor
properties true by construction; ``verify_system`` still certifies
them exhaustively, because hand-built or deserialized systems carry
no such guarantee.  It runs each check per level over (cubes x n) or
(cubes x cubes) arrays, and so do the sandwich constants and the
monotone enlargement.  The ``DyadicCube`` tree (members,
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
family's capture constant, and the family-size bound in its report,
are computed on first read, as only the CLI ``system`` check reads
them.  The geometric doubling count a1 behind that bound runs every
canonical ball's separated-point greedy in one sweep of the points,
on a table of uint64 words, one bit per (ball, point), taken in
bounded blocks: the points a kept point closes are a prefix of its
distance order, whose words are one cumulative OR along that order.

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
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .space import QuasiMetricSpace, _distinct, _point_words, _prefix_words


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
    def _cube_masks(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per level: the cube centers in alpha order and the (cubes x n)
        membership mask, one row per cube.  Certification reads the
        cubes through these, one level at a time."""
        n = self.space.n
        out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for k in self.levels:
            level = self.cubes[k]
            centers = np.array([c.center for c in level], dtype=np.int64)
            mask = np.zeros((len(level), n), dtype=bool)
            if level:
                rows = np.repeat(np.arange(len(level)), [len(c.members) for c in level])
                mask[rows, np.concatenate([c.members for c in level])] = True
            out[k] = (centers, mask)
        return out

    @cached_property
    def _sandwich(self) -> Tuple[float, float]:
        """(c1, C1), measured on first read: of an adjacent pool, only
        the systems that get verified need them.  Per level, C1 takes the
        farthest member of any cube and c1 the nearest nonmember of any
        cube listing fewer than n members, each over delta^k; dividing
        by delta^k is monotone, so the level extremes give the same
        floats as the per-cube ones."""
        dist = self.space.dist
        n = self.space.n
        c1 = math.inf
        C1 = 0.0
        for k in self.levels:
            centers, mask = self._cube_masks[k]
            scale = self.delta**k
            d = dist[centers]
            C1 = max(C1, float(np.where(mask, d, 0.0).max(initial=0.0)) / scale)
            full = np.array([len(c.members) >= n for c in self.cubes[k]], dtype=bool)
            outside = np.where(mask | full[:, None], np.inf, d)
            c1 = min(c1, float(outside.min(initial=np.inf)) / scale)
        return c1, C1

    def _monotone_C1(self, base: float) -> float:
        """Least C >= base with closed containing balls monotone along
        every parent-child edge (composition then covers all ancestor
        pairs).  For each edge and each prefix of points sorted by
        distance to the child center, C fails on the half-open interval
        [d_j / delta^child, H_j / delta^parent) where H_j is the prefix
        max of distances to the parent center; the answer is the first
        point at or above base not covered by any failing interval.
        Each level's edges go as one (edges x n) array, and the sweep
        over the intervals, sorted by (lo, hi), is a running max of hi."""
        dist = self.space.dist
        orders = self.space.ball_table().order
        lows, highs = [], []
        for k, nxt in zip(self.levels, self.levels[1:]):
            kids = [c for c in self.cubes[nxt] if c.parent is not None]
            child = np.array([c.center for c in kids], dtype=np.int64)
            parent = np.array([c.parent.center for c in kids], dtype=np.int64)  # type: ignore[union-attr]
            # a center's distances along its stable order are its sorted distances
            lo = np.sort(dist[child], axis=1)
            lo /= self.delta**nxt
            hi = np.take_along_axis(dist[parent], orders[child], axis=1)
            np.maximum.accumulate(hi, axis=1, out=hi)
            hi /= self.delta**k
            bad = hi > lo
            lows.append(lo[bad])
            highs.append(hi[bad])
        lo = np.concatenate([np.empty(0), *lows])
        hi = np.concatenate([np.empty(0), *highs])
        by = np.lexsort((hi, lo))
        # reach[i]: C after the first i intervals; the sweep stops at the
        # first interval that starts above it
        reach = np.maximum.accumulate(np.concatenate(([base], hi[by])))
        stop = np.flatnonzero(lo[by] > reach[:-1])
        return float(reach[stop[0] if len(stop) else -1])

    @cached_property
    def first_change(self) -> np.ndarray:
        """(levels, n): row ``k - levels[0]``, entry c is the first
        position along c's distance order whose point lies outside c's
        level-k cube, or n when none does.  A ball B(c, r) is a prefix
        of that order, so the cube holds it exactly when the entry
        reaches the ball's count; entries only grow toward coarser
        levels.  Each entry is the least ``rank[c, y]`` over the points
        y of another label, so a level takes one (n x n) label compare
        and no gather; entries are at most n <= MAX_POINTS, so the table
        is int16 like the ball table's ranks."""
        t = self.space.ball_table()
        n = self.space.n
        out = np.empty((len(self.levels), n), dtype=np.int16)
        for i, k in enumerate(self.levels):
            lab = self.labels[k]  # type: ignore[index]
            outside = lab[None, :] != lab[:, None]
            np.minimum.reduce(np.where(outside, t.rank, n), axis=1, out=out[i])
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
    # the smallest positive distance: each point's nearest other point
    # is second in its distance order
    d_min = float(space.dist[np.arange(n), space.ball_table().order[:, 1]].min())
    k_top, _ = _level_range(dmax, d_min, delta, sep_scale)

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
    """Labels per level, top-down.  A net point is its own nearest
    center: its distance is 0 and its parent cube is its own.  So every
    center is nonempty, and only the points outside the net take the
    masked argmin over the net's distance columns: each picks the
    nearest center inside its parent cube, the first minimum being the
    lowest center id.  The nets only grow with k, so once the points are
    ordered by the level at which they join, each level's points outside
    the net are one suffix.  The centers take alphas in (parent alpha,
    center id) order."""
    levels = sorted(nets)
    n = space.n
    k_top = levels[0]
    joins = np.full(n, len(levels))
    for i in range(len(levels) - 1, -1, -1):
        joins[nets[levels[i]]] = i
    by_join = np.argsort(joins, kind="stable")
    # joined[i]: the points in the nets of levels[:i + 1]
    joined = np.searchsorted(joins[by_join], np.arange(len(levels)), side="right").tolist()
    labels: Dict[int, np.ndarray] = {k_top: np.zeros(n, dtype=np.int64)}
    centers: Dict[int, np.ndarray] = {k_top: np.asarray(nets[k_top][:1], dtype=np.int64)}
    for i, k in enumerate(levels[1:], start=1):
        prev = labels[k - 1]
        net = np.sort(nets[k])
        cp = prev[net]
        if np.any(np.bincount(cp, minlength=len(centers[k - 1])) == 0):
            raise AssertionError(
                "net does not refine the parent partition; "
                "parent-consistent assignment infeasible"
            )
        if joined[i] != len(net):
            raise AssertionError("nets must grow with the level")
        rest = by_join[joined[i] :, None]
        sub = space.dist[rest, net]
        sub[prev[rest] != cp] = np.inf
        order = np.argsort(cp, kind="stable")
        alpha = np.empty(len(net), dtype=np.int64)
        alpha[order] = np.arange(len(net))
        lab = np.empty(n, dtype=np.int64)
        lab[net] = alpha
        lab[rest[:, 0]] = alpha[np.argmin(sub, axis=1)]
        labels[k] = lab
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
    measured_C1 (closed balls, 1e-12 radius slack).  Every check runs
    per level over (cubes x n) or (cubes x cubes) arrays, and each
    list keeps the order of a scan over alpha, then beta."""
    levels = system.levels
    delta = system.delta
    dist = space.dist
    violations: List[Tuple] = []

    per_level = system._cube_masks
    masks = {k: per_level[k][1] for k in levels}
    for k in levels:
        if not np.all(masks[k].sum(axis=0) == 1):
            violations.append(("partition", k))

    # containment between level pairs: inter[alpha, beta] counts the
    # points cube beta of the finer level l shares with cube alpha of k
    # (float64 products, exact for counts below 2^53)
    sizes = {k: masks[k].sum(axis=1) for k in levels}

    def pair(k: int, l: int) -> Tuple[List[Tuple], np.ndarray]:
        """The entries of levels k and l, and which cubes of l lie in
        each cube of k."""
        inter = masks[k].astype(np.float64) @ masks[l].astype(np.float64).T
        contained = inter == sizes[l][None, :]
        # per finer cube beta: its partial overlaps in alpha order, then
        # its ancestor entry
        nested = (0 < inter) & (inter < sizes[l][None, :])
        lost = contained.sum(axis=0) != 1
        found: List[Tuple] = []
        for beta in np.flatnonzero(nested.any(axis=0) | lost).tolist():
            found.extend(("nested", l, beta, k, alpha) for alpha in np.flatnonzero(nested[:, beta]).tolist())
            if lost[beta]:
                found.append(("ancestor", l, beta, k))
        return found, contained

    adjacent = {k: pair(k, l) for k, l in zip(levels, levels[1:])}
    children = {k: contained for k, (_, contained) in adjacent.items()}
    # when every level partitions the points into nonempty cubes and
    # adjacent levels nest, each finer cube lies in one cube of the next
    # coarser level, hence in one chain of ancestors, and a partition's
    # cubes are disjoint: no other level pair can add an entry
    whole = not violations and all(sizes[k].all() for k in levels)
    whole = whole and not any(found for found, _ in adjacent.values())
    for i, k in enumerate(levels):
        for l in levels[i + 1 :]:
            if l == levels[i + 1]:
                violations.extend(adjacent[k][0])
            elif not whole:
                violations.extend(pair(k, l)[0])

    # per level: the sandwich, and each cube's closed containing ball at
    # C1 as a child (no slack) and as a parent (1e-12 slack)
    c1, C1 = system.measured_c1, system.measured_C1
    sandwich_ok = True
    as_child: Dict[int, np.ndarray] = {}
    as_parent: Dict[int, np.ndarray] = {}
    for k in levels:
        scale = delta**k
        d = dist[per_level[k][0]]
        if np.any((d < c1 * scale * (1.0 - 1e-12)) > masks[k]):
            sandwich_ok = False
        if np.any(np.where(masks[k], d, 0.0) > C1 * scale * (1.0 + 1e-12)):
            sandwich_ok = False
        as_child[k] = d <= C1 * scale
        as_parent[k] = d <= C1 * scale + 1e-12

    # children derived from adjacent-level containment, independent of
    # links: their centers' separation and the monotone ball check
    max_children = 0
    mono_violations: List[Tuple] = []
    for k, nxt in zip(levels, levels[1:]):
        contained = children[k]
        if contained.size:
            max_children = max(max_children, int(contained.sum(axis=1).max()))
        # a parent fails separation when two of its children have close
        # centers; only children with a close center can take part
        centers = per_level[nxt][0]
        close = dist[np.ix_(centers, centers)] < delta**nxt * (1.0 - 1e-12)
        np.fill_diagonal(close, False)
        near = np.flatnonzero(close.any(axis=1))
        kids = contained[:, near]
        pairs = kids.astype(np.float64) @ close[np.ix_(near, near)].astype(np.float64)
        for alpha in np.flatnonzero((kids & (pairs > 0)).any(axis=1)).tolist():
            violations.append(("separation", k, alpha))
        alpha, beta = np.nonzero(contained)
        escapes = (as_child[nxt][beta] > as_parent[k][alpha]).any(axis=1)
        mono_violations.extend(
            (nxt, b, k, a) for a, b in zip(alpha[escapes].tolist(), beta[escapes].tolist())
        )

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


class AdjacentSystems:
    """The t_count systems chosen from a candidate pool, and their
    capture of the canonical balls.

    ``systems``, ``capture_failures`` and ``capture_fraction`` are set
    when the family is built, and so are the report's t_count, delta,
    pool_size and chosen.  ``capture_constant`` (a reach table per
    chosen system) is measured on first read.  So are the report's a0,
    a1, bound and within_bound, all four together, by one
    ``geometric_doubling`` call: no ladder rung and no domination run
    reads them, and the CLI ``system`` check reads them all."""

    def __init__(
        self,
        space: QuasiMetricSpace,
        systems: List[DyadicSystem],
        captured: np.ndarray,
        levels: np.ndarray,
        capture_failures: List[Dict[str, object]],
        capture_fraction: float,
        report: "_AdjacentReport",
    ) -> None:
        self.systems = systems
        self.capture_failures = capture_failures
        self.capture_fraction = capture_fraction
        self.report = report
        self._space = space
        self._captured = captured  # (systems, balls): does system i capture the ball
        self._ball_levels = levels  # per ball, its unclamped level

    @cached_property
    def capture_constant(self) -> float:
        """Per ball, the least reach / radius over the chosen systems
        capturing it, where reach is the farthest member of the cube
        holding the center at the ball's level; the max over the
        captured balls, 0 when none is."""
        space = self._space
        t = space.ball_table()
        best_ratio = np.full(len(t.center), np.inf)
        for sysm, captured in zip(self.systems, self._captured):
            lo, hi = sysm.levels[0], sysm.levels[-1]
            reach = np.zeros((hi - lo + 1, space.n))
            for k in sysm.levels:
                lab = sysm.labels[k]  # type: ignore[index]
                reach[k - lo] = np.where(lab[:, None] == lab[None, :], space.dist, 0.0).max(axis=1)
            ratio = reach[np.clip(self._ball_levels, lo, hi) - lo, t.center] / t.radius
            best_ratio = np.where(captured, np.minimum(best_ratio, ratio), best_ratio)
        covered = self._captured.any(axis=0)
        return float(best_ratio[covered].max()) if covered.any() else 0.0


class _AdjacentReport(Mapping):
    """An adjacent family's report: t_count, a0, a1, delta, bound,
    within_bound, pool_size and chosen, in that order.  a0, a1, bound
    and within_bound are the family-size bound, computed on the first
    read of any of them; the others are stored."""

    _keys = ("t_count", "a0", "a1", "delta", "bound", "within_bound", "pool_size", "chosen")

    def __init__(self, space: QuasiMetricSpace, stored: Dict[str, object]) -> None:
        self._space = space
        self._stored = stored

    @cached_property
    def _bound(self) -> Dict[str, object]:
        delta = self._stored["delta"]
        a0 = self._space.a0
        a1 = geometric_doubling(self._space, delta)  # type: ignore[arg-type]
        bound = float(a1**6 * (a0**4 / delta) ** math.log2(max(a1, 1)))  # type: ignore[operator]
        within = bool(self._stored["t_count"] <= bound)  # type: ignore[operator]
        return {"a0": float(a0), "a1": int(a1), "bound": bound, "within_bound": within}

    def __getitem__(self, key: str) -> object:
        if key in self._stored:
            return self._stored[key]
        if key in self._keys:
            return self._bound[key]
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return repr(dict(self))


# bytes per block of ``geometric_doubling``'s open word table, and per
# chunk of centers of its prefix words
DOUBLING_BLOCK = 1 << 21


def _outside_words(
    space: QuasiMetricSpace, one: np.ndarray, c0: int, c1: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(outside, near) for the centers c0:c1.  outside[c - c0, j] is the
    complement of the words of the first j + 1 points of c's distance
    order; near[c - c0] is c's distances in ascending order, so
    ``searchsorted`` on near[c - c0, 1:] gives how many points other
    than c lie nearer c than a threshold."""
    outside = _prefix_words(one, space.ball_table().order[c0:c1])
    np.invert(outside, out=outside)
    return outside, np.sort(space.dist[c0:c1], axis=1)


def geometric_doubling(space: QuasiMetricSpace, delta: float) -> int:
    """Greedy count of (delta * r)-separated points inside canonical
    balls of radius r; a lower bound for the doubling number, reported
    alongside the adjacent-family size bound.

    Every ball runs the same greedy (its points in id order, each kept
    while at least delta * r from the points kept before), all in one
    sweep of the points: n steps, not one per (center, point) pair.
    Each ball's open set (its points still that far from every point it
    has kept) is a column of uint64 words, one bit per point, so the
    balls keeping x are the set bits of one contiguous word row.  The
    points nearer x than a ball's delta * r are a prefix of x's
    distance order, its length one ``searchsorted`` on x's sorted
    distances, so each keeping ball clears that prefix's words
    (``_outside_words``) from x's word on; earlier words are never read
    again.  A ball's column starts as its own prefix's words.  The
    balls go in blocks whose word table takes at most ``DOUBLING_BLOCK``
    bytes, and the prefix words and sorted distances in chunks of
    centers within as many bytes."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    t = space.ball_table()
    n = space.n
    one = _point_words(n)
    width = one.shape[1]
    step = max(1, DOUBLING_BLOCK // (8 * width))
    chunk = max(1, DOUBLING_BLOCK // (8 * (width + 1) * n))
    best = 1
    # the chunk of centers c0:c0 + chunk held in outside and near; each
    # is dropped before the next is built
    c0, outside, near = -1, None, None
    for b0 in range(0, len(t.center), step):
        b1 = min(len(t.center), b0 + step)
        open_ = np.empty((width, b1 - b0), dtype=np.uint64)
        for c in range(int(t.center[b0]) // chunk * chunk, int(t.center[b1 - 1]) + 1, chunk):
            if c != c0:
                c0, outside, near = c, None, None
                outside, near = _outside_words(space, one, c0, c0 + chunk)
            lo = max(t.start[c0], b0)
            hi = min(t.start[min(n, c0 + chunk)], b1)
            np.invert(
                outside[t.center[lo:hi] - c0, t.count[lo:hi] - 1].T,
                out=open_[:, lo - b0 : hi - b0],
            )
        sep = delta * t.radius[b0:b1]
        kept = np.zeros(b1 - b0, dtype=np.int64)
        for x in range(n):
            if x - x % chunk != c0:
                c0, outside, near = x - x % chunk, None, None
                outside, near = _outside_words(space, one, c0, c0 + chunk)
            w = x >> 6
            rows = (open_[w] & one[x, w]).nonzero()[0]
            if not len(rows):
                continue
            kept[rows] += 1
            # x itself is the first point of its order, and the nearest
            cut = near[x - c0, 1:].searchsorted(sep[rows])
            for i in range(w, width):
                open_[i, rows] &= outside[x - c0, cut, i]
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
    radius = space.ball_table().radius
    radii = _distinct(radius)
    raw = [_ball_level(r, delta, -math.inf, math.inf) for r in radii.tolist()]
    return np.asarray(raw, dtype=np.int64)[np.searchsorted(radii, radius)]


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
    t = space.ball_table()
    lo0, hi0 = pool[chosen[0]].levels[0], pool[chosen[0]].levels[-1]
    failures: List[Dict[str, object]] = []
    for idx in np.flatnonzero(~covered).tolist():
        k = int(np.clip(levels[idx], lo0, hi0))
        failures.append({"ball": idx, "x": int(t.center[idx]), "r": float(t.radius[idx]), "k": k})
    frac = 1.0 - len(failures) / len(t.center)
    report = _AdjacentReport(
        space, {"t_count": t_count, "delta": float(delta), "pool_size": len(pool), "chosen": chosen}
    )
    systems = [pool[i] for i in chosen]
    return AdjacentSystems(space, systems, masks[chosen], levels, failures, frac, report)


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
