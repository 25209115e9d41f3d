"""Independent brute-force reference implementations.

Everything here is written as plain loops straight from the
definitions, deliberately ignoring the library's vectorized code paths,
so tests can compare the two implementations on small spaces.
"""

import math
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from shtlab import QuasiMetricSpace, weights
from shtlab.dyadic import DyadicCube, DyadicSystem, _ball_level, _level_range


def tied_quasi_grid(side: int = 5, seed: int = 9) -> QuasiMetricSpace:
    """L1 grid distances to the power 1.5: a quasi-metric full of
    distance ties, with lognormal masses."""
    pts = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1) ** 1.5
    return QuasiMetricSpace(dist, np.random.default_rng(seed).lognormal(0.0, 1.0, len(pts)))


def lognormal_plane(n: int = 20, seed: int = 5) -> QuasiMetricSpace:
    """Euclidean distances between uniform random points of the unit
    square, with lognormal masses."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    return QuasiMetricSpace(dist, rng.lognormal(0.0, 1.0, n))


def random_space(seed: int) -> QuasiMetricSpace:
    """A seeded random space: 6 to 24 points in R^1 to R^3, half the
    time on a quarter grid (so distances tie), Euclidean distances
    rounded to 1e-3 (at least 1e-3 apart) and raised to gamma in {1, 2}
    (a quasi-metric for gamma 2), and lognormal masses with sigma in
    {0.1, 1, 2}."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    pts = rng.random((int(rng.integers(6, 25)), dim))
    if rng.random() < 0.5:
        grid = np.unique(np.round(4.0 * pts) / 4.0, axis=0)
        if len(grid) >= 4:
            pts = grid
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    dist = np.round(dist, 3)
    dist[dist == 0.0] = 1e-3
    np.fill_diagonal(dist, 0.0)
    dist **= float(rng.choice([1.0, 2.0]))
    sigma = float(rng.choice([0.1, 1.0, 2.0]))
    return QuasiMetricSpace(dist, rng.lognormal(0.0, sigma, len(pts)), {"kind": "random", "seed": seed})



def greedy_nets(space, delta: float, seed: int, sep_scale: float = 1.0) -> Dict[int, np.ndarray]:
    """Nested greedy nets by the per-point sweep: every level visits
    every point in the seeded order and admits it while it is still
    sep_scale * delta^k from the net."""
    rng = np.random.default_rng(seed)
    n = space.n
    perm = rng.permutation(n)
    start = int(perm[0])
    d_all = space.dist + np.diag(np.full(n, np.inf))
    k_top, _ = _level_range(float(space.dist[start].max()), float(d_all.min()), delta, sep_scale)
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


def assemble_system(space, delta: float, seed: int, nets: Dict[int, np.ndarray]):
    """The cube tree top-down, one parent cube at a time: the parent's
    points go to the nearest of the level's centers inside it (ties to
    the lowest center id), and each nonempty center makes the next
    cube of the level."""
    levels = sorted(nets)
    n = space.n
    k_top = levels[0]
    root = DyadicCube(k_top, 0, int(nets[k_top][0]), np.arange(n, dtype=np.int64))
    cubes = {k_top: [root]}
    labels = {k_top: np.zeros(n, dtype=np.int64)}
    for k in levels[1:]:
        net = np.sort(nets[k])
        center_parent = labels[k - 1][net]
        new_label = np.full(n, -1, dtype=np.int64)
        level_cubes = []
        for parent in cubes[k - 1]:
            centers = net[center_parent == parent.alpha]
            if len(centers) == 0:
                raise AssertionError(
                    "net does not refine the parent partition; "
                    "parent-consistent assignment infeasible"
                )
            pts = parent.members
            pick = np.argmin(space.dist[np.ix_(pts, centers)], axis=1)
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


def nesting_violations(system, space) -> List[Tuple]:
    """verify_system's partition, nested and ancestor violations by a
    scan of every (finer cube, coarser cube) pair: per finer cube, its
    partial overlaps in alpha order, then its ancestor count."""
    n = space.n
    levels = system.levels
    masks = {}
    violations: List[Tuple] = []
    for k in levels:
        mk = np.zeros((len(system.cubes[k]), n), dtype=bool)
        for cube in system.cubes[k]:
            mk[cube.alpha, cube.members] = True
        masks[k] = mk
        if not np.all(mk.sum(axis=0) == 1):
            violations.append(("partition", k))
    sizes = {k: masks[k].sum(axis=1) for k in levels}
    for i, k in enumerate(levels):
        for l in levels[i + 1 :]:
            inter = masks[k].astype(np.int64) @ masks[l].astype(np.int64).T
            contained = inter == sizes[l][None, :]
            for beta in range(inter.shape[1]):
                hits = inter[:, beta]
                for alpha in np.flatnonzero(hits):
                    if 0 < hits[alpha] < sizes[l][beta]:
                        violations.append(("nested", l, beta, k, int(alpha)))
                if int(contained[:, beta].sum()) != 1:
                    violations.append(("ancestor", l, beta, k))
    return violations

def sandwich(system) -> Tuple[float, float]:
    """(c1, containment C1) cube by cube: c1 the least nearest
    nonmember distance / delta^k over the cubes listing fewer than n
    members, C1 the largest farthest member distance / delta^k."""
    dist = system.space.dist
    n = system.space.n
    c1 = math.inf
    C1 = 0.0
    for k in system.levels:
        scale = system.delta**k
        for cube in system.cubes[k]:
            C1 = max(C1, float(dist[cube.center, cube.members].max()) / scale)
            if len(cube.members) < n:
                out = np.ones(n, dtype=bool)
                out[cube.members] = False
                c1 = min(c1, float(dist[cube.center, out].min()) / scale)
    return c1, C1


def monotone_C1(system, base: float) -> float:
    """The least C >= base with closed containing balls monotone along
    every tree edge, one edge at a time: each prefix of the child
    center's distance order makes a failing interval, and the sorted
    intervals are swept from base."""
    dist = system.space.dist
    orders = system.space.ball_table().order
    intervals: List[Tuple[float, float]] = []
    for k in system.levels:
        for cube in system.cubes[k]:
            for child in cube.children:
                order = orders[child.center]
                d_child = dist[child.center][order]
                h_parent = np.maximum.accumulate(dist[cube.center][order])
                lo = d_child / system.delta**child.k
                hi = h_parent / system.delta**cube.k
                bad = hi > lo
                intervals.extend(zip(lo[bad].tolist(), hi[bad].tolist()))
    intervals.sort()
    c = base
    for lo, hi in intervals:
        if lo > c:
            break
        c = max(c, hi)
    return c


def verify_system(system, space) -> Dict[str, object]:
    """verify_system's whole report cube by cube: the nesting scan of
    ``nesting_violations``, then per parent cube its children's
    separation and containing balls, then per cube its sandwich, with
    c1 and C1 from ``sandwich`` and ``monotone_C1``."""
    levels = system.levels
    delta = system.delta
    n = space.n
    violations = nesting_violations(system, space)
    masks: Dict[int, np.ndarray] = {}
    for k in levels:
        mk = np.zeros((len(system.cubes[k]), n), dtype=bool)
        for cube in system.cubes[k]:
            mk[cube.alpha, cube.members] = True
        masks[k] = mk
    c1, containment = sandwich(system)
    C1 = monotone_C1(system, containment)
    max_children = 0
    mono_violations: List[Tuple] = []
    for i, k in enumerate(levels[:-1]):
        nxt = levels[i + 1]
        sizes = masks[nxt].sum(axis=1)
        contained = masks[k].astype(np.int64) @ masks[nxt].astype(np.int64).T == sizes[None, :]
        if contained.size:
            max_children = max(max_children, int(contained.sum(axis=1).max()))
        sep = delta**nxt * (1.0 - 1e-12)
        for cube in system.cubes[k]:
            kids = np.flatnonzero(contained[cube.alpha])
            centers = [system.cubes[nxt][b].center for b in kids]
            if any(
                space.dist[a, b] < sep
                for i, a in enumerate(centers)
                for j, b in enumerate(centers)
                if i != j
            ):
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
        "containment_C1": containment,
        "M": max_children,
        "violations": violations,
        "sandwich_ok": sandwich_ok,
        "monotone_ok": not mono_violations,
        "monotone_violations": mono_violations,
    }


def ball_at(space, center: int, radius: float) -> np.ndarray:
    """Members of the open ball {y : d(center, y) < radius}, by
    definition: a strict comparison along the center's distance row."""
    return np.flatnonzero(space.dist[center] < radius)


def quasi_triangle_constant(space) -> float:
    """max d(x,y)/(d(x,z)+d(z,y)) over all triples with x != y."""
    best = 1.0
    d = space.dist
    for x in range(space.n):
        for y in range(space.n):
            if x == y:
                continue
            for z in range(space.n):
                den = d[x, z] + d[z, y]
                if den > 0:
                    best = max(best, d[x, y] / den)
    return best


def doubling_constant(space) -> float:
    """max mu(B(x, 2r))/mu(B(x, r)) over centers and every radius that
    can change a member set (all pairwise distances and midpoints)."""
    d = space.dist
    best = 0.0
    for c in range(space.n):
        thresholds = sorted(set(d[c].tolist()))
        radii = set()
        for i, t in enumerate(thresholds):
            if t > 0:
                radii.add(t)
            if i + 1 < len(thresholds):
                radii.add(t + (thresholds[i + 1] - t) / 2.0)
        radii.add(thresholds[-1] * 1.5)
        for r in radii:
            if r <= 0:
                continue
            small = ball_at(space, c, r)
            big = ball_at(space, c, 2.0 * r)
            if len(small):
                best = max(best, space.measure(big) / space.measure(small))
    return best


def mu_ball(space, center: int, radii: np.ndarray) -> np.ndarray:
    """mu(B(center, r)) for each r, from the cumulative mass along the
    center's stable distance order, as the library sums it."""
    order = np.argsort(space.dist[center], kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(space.mass[order])])
    return cum[np.searchsorted(space.dist[center, order], radii, side="left")]


def doubling_probe_radii(space, center: int) -> np.ndarray:
    """The sorted distinct doubling probe radii of one center from a
    sort of its distance row: every positive distance, the midpoints
    between consecutive distinct distances and 1.5 times the largest."""
    distinct = np.unique(space.dist[center])
    pos = distinct[distinct > 0]
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    top = np.array([1.5 * distinct[-1]]) if distinct[-1] > 0 else np.array([1.0])
    return np.unique(np.concatenate([pos, mids[mids > 0], top]))


def measured_doubling(space) -> Tuple[float, float]:
    """(c_mu, updim) as ``QuasiMetricSpace._measure_doubling`` gives
    them, by a per-center loop over ``doubling_probe_radii`` with one
    ``mu_ball`` search per scale."""
    lams = (2.0, 4.0, 8.0)
    c_mu = 1.0
    worst: List[Tuple[float, float]] = []  # (lambda, ratio) pairs
    for c in range(space.n):
        radii = doubling_probe_radii(space, c)
        base = mu_ball(space, c, radii)
        for lam in lams:
            ratio = mu_ball(space, c, lam * radii) / base
            peak = float(ratio.max())
            worst.append((lam, peak))
            if lam == 2.0:
                c_mu = max(c_mu, peak)
    n_req = 0.0
    for lam, peak in worst:
        if peak > c_mu:
            n_req = max(n_req, math.log(peak / c_mu) / math.log(lam))
    return c_mu, max(n_req, 1e-9)


def strong_doubling_exponent(space, lams: Sequence[float] = (2.0, 4.0, 8.0)) -> float:
    """``QuasiMetricSpace.strong_doubling_exponent`` by a per-center loop
    over the canonical radii with one ``mu_ball`` search per scale."""
    t = space.ball_table()
    n_req = 0.0
    for c in range(space.n):
        radii = t.radius[t.start[c] : t.start[c + 1]]
        base = mu_ball(space, c, radii)
        for lam in lams:
            peak = float((mu_ball(space, c, lam * radii) / base).max())
            if peak > 1.0:
                n_req = max(n_req, math.log(peak) / math.log(lam))
    return n_req


def ball_table_int64(space) -> SimpleNamespace:
    """The fields of ``QuasiMetricSpace.ball_table`` built over all
    (n x n) entries at once with every integer field int64, so no entry
    or product of entries can wrap: the reference for the stored table's
    16- and 32-bit fields."""
    n = space.n
    order = np.argsort(space.dist, axis=1, kind="stable")
    sorted_dist = np.take_along_axis(space.dist, order, axis=1)
    ends = np.ones((n, n), dtype=bool)
    ends[:, :-1] = sorted_dist[:, 1:] != sorted_dist[:, :-1]
    center, last = np.nonzero(ends)
    t = sorted_dist[center, last]
    nxt = sorted_dist[center, np.minimum(last + 1, n - 1)]
    radius = np.where(last + 1 < n, t + (nxt - t) / 2.0, np.where(t > 0, 1.5 * t, 1.0))
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ends.sum(axis=1), out=start[1:])
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(n), (n, n)), axis=1)
    measure = np.cumsum(space.mass[order], axis=1)[center, last]
    # ptr[x, c]: the first ball at c whose count exceeds x's position
    ptr = np.empty((n, n), dtype=np.int64)
    for c in range(n):
        counts = last[start[c] : start[c + 1]] + 1
        ptr[:, c] = start[c] + np.searchsorted(counts, rank[c], side="right")
    return SimpleNamespace(
        center=center,
        count=last + 1,
        radius=radius,
        measure=measure,
        start=start,
        order=order,
        rank=rank,
        ptr=ptr,
    )


def maximal_function_by_centers(space, f: np.ndarray, table) -> Tuple[np.ndarray, np.ndarray]:
    """(Mf, witnesses) from table (``ball_table_int64``) one center at a
    time: the averages of |f| over the center's balls (one cumulative
    sum along its order, read at each count), their suffix maxima along
    the radius-sorted list and the lowest ball attaining each, read at
    each point's first ball there holding it; then the max over centers,
    ties to the lowest ball id."""
    t = table
    n = space.n
    w = np.abs(f) * space.mass
    values = np.full(n, -np.inf)
    witnesses = np.full(n, -1, dtype=np.int64)
    for c in range(n):
        ids = np.arange(t.start[c], t.start[c + 1])
        avg = np.cumsum(w[t.order[c]])[t.count[ids] - 1] / t.measure[ids]
        suf = np.maximum.accumulate(avg[::-1])[::-1]
        # the lowest slot at or after j attaining suf[j] is the first slot
        # from j on whose average is its own suffix max
        records = np.flatnonzero(avg == suf)
        arg = records[np.searchsorted(records, np.arange(len(avg)))]
        first = np.searchsorted(t.count[ids], t.rank[c], side="right")
        here = suf[first]
        # centers ascend, and so do their ids: a tie keeps the earlier one
        better = here > values
        values[better] = here[better]
        witnesses[better] = ids[arg[first[better]]]
    return values, witnesses


def commutator_kernel_by_centers(space, b: np.ndarray, f: np.ndarray, table) -> np.ndarray:
    """C_b f from table (``ball_table_int64``) one center at a time: for
    every point x, the sums of |b(x) - b(y)| |f(y)| m(y) over each of the
    center's balls (cumulative sums along its order), over the ball's
    measure, maxed over the balls holding x; then the max over centers."""
    t = table
    n = space.n
    kernel = np.abs(b[:, None] - b[None, :]) * (np.abs(f) * space.mass)[None, :]
    out = np.zeros(n)
    for c in range(n):
        ids = np.arange(t.start[c], t.start[c + 1])
        sums = np.cumsum(kernel[:, t.order[c]], axis=1)[:, t.count[ids] - 1] / t.measure[ids]
        held = t.rank[c][:, None] < t.count[ids][None, :]
        np.maximum(out, np.where(held, sums, 0.0).max(axis=1), out=out)
    return out


def region_grand_maximal_by_centers(space, region, trunc, fs: Sequence[np.ndarray], table):
    """``region_grand_maximal`` (the oracle above) from table
    (``ball_table_int64``) for large spaces and small regions.  A ball
    lies in the region when its center's order leaves the region only
    after its count; the balls at c meeting B are those whose count
    exceeds the least position of B's members along c's order; the cut
    sums of every ball are one cumulative sum along each order.  The
    witnesses are picked within rtol 1e-12 of the max, as there."""
    t = table
    n = space.n
    inside = np.zeros(n, dtype=bool)
    inside[np.asarray(region, dtype=np.int64)] = True
    trunc_ind = np.zeros(n)
    trunc_ind[np.asarray(trunc, dtype=np.int64)] = 1.0
    sub = []
    for c in range(n):
        leaves = ~inside[t.order[c]]
        exit_at = int(np.argmax(leaves)) if leaves.any() else n
        ids = np.arange(t.start[c], t.start[c + 1])
        sub.extend(ids[t.count[ids] <= exit_at].tolist())
    values, witnesses = [], []
    for f in fs:
        w = np.abs(f) * space.mass * trunc_ind
        m = {}
        for i in sub:
            c = t.center[i]
            members = t.order[c, : t.count[i]]
            kept = w * (space.dist[c] >= 4.0 * space.a0 * t.radius[i])
            sums = np.cumsum(kept[t.order], axis=1)[t.center, t.count - 1] / t.measure
            meets = t.count > t.rank[:, members].min(axis=1)[t.center]
            m[i] = max(0.0, float(sums[meets].max()))
        vals = np.zeros(n)
        wits = np.full(n, -1, dtype=np.int64)
        for x in range(n):
            owners = [i for i in sub if t.rank[t.center[i], x] < t.count[i]]
            if owners:
                vals[x] = max(m[i] for i in owners)
                wits[x] = min(i for i in owners if np.isclose(m[i], vals[x], rtol=1e-12, atol=0))
        values.append(vals)
        witnesses.append(wits)
    return values, witnesses, np.array(sub, dtype=np.int64)


def maximal_function(space, f: np.ndarray) -> np.ndarray:
    """Mf(x) = sup over canonical balls containing x of avg |f|."""
    out = np.zeros(space.n)
    for ball in space.canonical_balls():
        mem = ball.members
        avg = float(np.sum(np.abs(f[mem]) * space.mass[mem])) / space.measure(mem)
        for x in mem:
            out[x] = max(out[x], avg)
    return out


def geometric_doubling(space, delta: float) -> int:
    """Max over canonical balls B(c, r) of the greedy count of points,
    in id order, kept while at distance >= delta * r from every point
    kept before; at least 1."""
    dist = space.dist.tolist()
    best = 1
    for ball in space.canonical_balls():
        sep = delta * ball.radius
        kept = []
        for x in ball.members.tolist():
            for y in kept:
                if dist[x][y] < sep:
                    break
            else:
                kept.append(x)
        best = max(best, len(kept))
    return best


def commutator_kernel(space, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """C_b f(x) = sup over balls containing x of avg |b(x)-b(.)||f|."""
    out = np.zeros(space.n)
    for ball in space.canonical_balls():
        mem = ball.members
        mu = space.measure(mem)
        for x in mem:
            s = 0.0
            for y in mem:
                s += abs(b[x] - b[y]) * abs(f[y]) * space.mass[y]
            out[x] = max(out[x], s / mu)
    return out


def kernel_rows(space, b: np.ndarray, table=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ball_ids, mu, bits) of ``CommutatorKernel(space, b)`` by the
    per-center construction: each center's balls as (balls x n) member
    masks in symbol order, packed by ``np.packbits``; the distinct rows
    from ``np.unique``, each kept at its lowest ball id with the least
    measure among its twins; bits[j] packs which kept rows hold the
    j-th point in symbol order.  The balls come from table (such as
    ``ball_table_int64``), or from the space's own ball table."""
    order = np.argsort(np.asarray(b, dtype=np.float64), kind="stable")
    t = space.ball_table() if table is None else table
    n = space.n
    rank_s = t.rank[:, order]
    packed = np.zeros((len(t.center), (n + 7) // 8), dtype=np.uint8)
    for c in range(n):
        ids = slice(t.start[c], t.start[c + 1])
        packed[ids] = np.packbits(rank_s[c] < t.count[ids, None], axis=1)
    _, first, twin = np.unique(packed, axis=0, return_index=True, return_inverse=True)
    mu = np.full(len(first), np.inf)
    np.minimum.at(mu, twin.reshape(-1), t.measure)
    keep = np.argsort(first)
    ball_ids = first[keep].astype(np.int64)
    members = rank_s[t.center[ball_ids]] < t.count[ball_ids, None]
    return ball_ids, mu[keep], np.packbits(members.T, axis=1)


def kernel_by_rows(space, b: np.ndarray, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(values, witnesses) of ``CommutatorKernel(space, b).apply(f,
    want_witness=True)`` for f (n,) or (n, k), by per-row running sums:
    one row per member class (``kernel_rows``); per position in symbol
    order, the rows holding it add u = m |f| and b u to their totals
    in a first pass and to their running sums in a second, and the
    position takes the max of (2 cA - TA) b + (TB - 2 cB) over mu among
    them, ties to the lowest row.  A constant symbol runs on u = 0."""
    b = np.asarray(b, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    n = space.n
    order = np.argsort(b, kind="stable")
    b_s = b[order]
    ball_ids, mu, bits = kernel_rows(space, b)
    holders = np.unpackbits(bits, axis=1, count=len(mu)).view(bool)
    u = np.abs(f.reshape(n, -1)[order])
    if np.ptp(b) == 0.0:
        u[:] = 0.0
    u *= space.mass[order, None]
    bu = b_s[:, None] * u
    shape = (len(mu), u.shape[1])
    TA, TB = np.zeros(shape), np.zeros(shape)
    for j, held in enumerate(holders):
        np.add(TA, u[j], out=TA, where=held[:, None])
        np.add(TB, bu[j], out=TB, where=held[:, None])
    cA, cB = np.zeros(shape), np.zeros(shape)
    values = np.empty(u.shape)
    witnesses = np.empty(u.shape, dtype=np.int64)
    for j, (x, held) in enumerate(zip(order, holders)):
        np.add(cA, u[j], out=cA, where=held[:, None])
        np.add(cB, bu[j], out=cB, where=held[:, None])
        idx = np.flatnonzero(held)
        here = cA[idx] * 2.0
        here -= TA[idx]
        here *= b_s[j]
        tail = TB[idx] - cB[idx] * 2.0
        here += tail
        here /= mu[idx][:, None]
        values[x] = here.max(axis=0)
        witnesses[x] = ball_ids[idx[here.argmax(axis=0)]]
    np.maximum(values, 0.0, out=values)
    return values.reshape(f.shape), witnesses.reshape(f.shape)


def by_lowest_id(first: np.ndarray, inverse: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique``'s (first, inverse) with the classes renumbered in
    the order of their lowest row: class j becomes the number of
    classes whose lowest row is below first[j]."""
    number = np.searchsorted(np.sort(first), first)
    return np.sort(first), number[inverse.reshape(-1)]


def member_classes(space) -> Tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the canonical balls' distinct member sets from
    ``np.unique`` over each ball's members packed in point order, the
    classes numbered by their lowest ball id."""
    t = space.ball_table()
    rows = np.packbits(t.rank[t.center] < t.count[:, None], axis=1)
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return by_lowest_id(first, inverse)


def sub_ball_classes(space, sub_ids) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, twin, enlarged) of the grand maximal's sub-ball classes by
    the packed construction: each sub-ball's members and its 4 A0
    enlargement packed into one row [members | enlargement], the
    distinct rows from ``np.unique``, each class at its lowest sub-ball
    and numbered by it; enlarged[j] is class j's enlargement as an (n,)
    bool."""
    t = space.ball_table()
    c = t.center[sub_ids]
    inside = t.rank[c] < t.count[sub_ids, None]
    near = space.dist[c] < (4.0 * space.a0 * t.radius[sub_ids])[:, None]
    rows = np.concatenate([np.packbits(inside, axis=1), np.packbits(near, axis=1)], axis=1)
    _, rep, twin = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    rep, twin = by_lowest_id(rep, twin)
    return rep, twin, near[rep]


def region_grand_maximal(space, region, trunc, fs: Sequence[np.ndarray]):
    """Localized grand maximal by definition.

    For each canonical ball B inside the region, m(B) is the max of 0
    and, over balls B' meeting B, the |f| mass of B' inside trunc and
    outside the 4 A0 enlargement of B, divided by mu(B').  The value at
    x is the max of m(B) over those B holding x, witnessed by the lowest
    such ball id within rtol 1e-12 of the max (0 and -1 off every B).
    Returns (values, witnesses, sub_ids) like the library.
    """
    balls = space.canonical_balls()
    region_set = set(np.asarray(region).tolist())
    trunc_ind = np.zeros(space.n)
    trunc_ind[np.asarray(trunc, dtype=np.int64)] = 1.0
    sub = [i for i, ball in enumerate(balls) if set(ball.members.tolist()) <= region_set]
    holds = np.zeros((len(balls), space.n), dtype=bool)
    for i, ball in enumerate(balls):
        holds[i, ball.members] = True
    mu = np.array([space.measure(ball.members) for ball in balls])
    values, witnesses = [], []
    for f in fs:
        m = {}
        for i in sub:
            ball = balls[i]
            outside = space.dist[ball.center] >= 4.0 * space.a0 * ball.radius
            w = np.abs(f) * space.mass * trunc_ind * outside
            meets = holds[:, ball.members].any(axis=1)
            m[i] = max(0.0, float(np.max(np.where(holds, w, 0.0).sum(axis=1)[meets] / mu[meets])))
        vals = np.zeros(space.n)
        wits = np.full(space.n, -1, dtype=np.int64)
        for x in range(space.n):
            owners = [i for i in sub if holds[i, x]]
            if owners:
                vals[x] = max(m[i] for i in owners)
                wits[x] = min(i for i in owners if np.isclose(m[i], vals[x], rtol=1e-12, atol=0))
        values.append(vals)
        witnesses.append(wits)
    return values, witnesses, np.array(sub, dtype=np.int64)


def ap_characteristic(space, w: np.ndarray, p: float) -> Tuple[float, int]:
    """sup_B avg_B(w) * (avg_B w^{-1/(p-1)})^{p-1}, with the ball id."""
    best, best_ball = 0.0, -1
    for bid, ball in enumerate(space.canonical_balls()):
        mem = ball.members
        mu = space.measure(mem)
        a1 = float(np.sum(w[mem] * space.mass[mem])) / mu
        a2 = float(np.sum(w[mem] ** (-1.0 / (p - 1.0)) * space.mass[mem])) / mu
        val = a1 * a2 ** (p - 1.0)
        if val > best:
            best, best_ball = val, bid
    return best, best_ball


def weight_doubling_check(space, w: np.ndarray, p: float, lams: Sequence[float] = (2.0, 4.0, 8.0)):
    """The worst ratio of w(lB) to l^{np} [w]_{A_p} w(B) over canonical
    balls B and the scale factors, with n the space's
    ``strong_doubling_exponent``.  Mass comparison inside lB plus the
    A_p characteristic on lB make it at most 1 for every positive
    weight, so it tests both library quantities."""
    w = np.asarray(w, dtype=np.float64)
    ap, _ = ap_characteristic(space, w, p)
    n = space.strong_doubling_exponent(tuple(lams))
    worst = 0.0
    for ball in space.canonical_balls():
        base = float(np.sum(w[ball.members] * space.mass[ball.members]))
        for lam in lams:
            big = ball_at(space, ball.center, lam * ball.radius)
            enlarged = float(np.sum(w[big] * space.mass[big]))
            worst = max(worst, enlarged / (lam ** (n * p) * ap * base))
    return worst


def bmo_norm(space, b: np.ndarray, w: np.ndarray) -> float:
    """sup_B (1/w(B)) integral_B |b - b_B| dmu."""
    best = 0.0
    for ball in space.canonical_balls():
        mem = ball.members
        mu = space.measure(mem)
        bB = float(np.sum(b[mem] * space.mass[mem])) / mu
        osc = float(np.sum(np.abs(b[mem] - bB) * space.mass[mem]))
        wB = float(np.sum(w[mem] * space.mass[mem]))
        if wB > 0:
            best = max(best, osc / wB)
    return best


def mean_oscillation(space, b: np.ndarray, members: np.ndarray) -> float:
    """avg over the set of |b - b_set| (plain mu-averages)."""
    b = np.asarray(b, dtype=np.float64)
    members = np.asarray(members, dtype=np.int64)
    m = space.mass[members]
    avg = float((b[members] * m).sum() / m.sum())
    return float((np.abs(b[members] - avg) * m).sum() / m.sum())


def deviation_sums(space, b: np.ndarray, weight: np.ndarray, r: float = 1.0) -> np.ndarray:
    """Per canonical ball, one center at a time: the sum over its
    members of |b - b_B|^r weight, in the library's arithmetic order so
    the result is bit-identical to ``weights.deviation_sums``."""
    b = np.asarray(b, dtype=np.float64)
    avg = space.ball_averages(b)
    out = np.empty(len(avg))
    for ids, order, inside in space.ball_prefixes():
        dev = np.abs(b[order][None, :] - avg[ids, None])
        if r != 1:
            dev **= r
        out[ids] = (dev * weight[order] * inside).sum(axis=1)
    return out


def bmo_max(space, b: np.ndarray, w: np.ndarray) -> Tuple[float, int]:
    """The BMO_w norm and its first ball from every ball's oscillation
    sum: the full pass that ``weights.bmo_norm`` must equal bit for bit."""
    vals = deviation_sums(space, b, space.mass) / space.ball_sums(np.asarray(w) * space.mass)
    best = int(np.argmax(vals))
    return float(vals[best]), best


def jn_max(space, b: np.ndarray, lam1, lam2, p: float, r: float) -> Tuple[float, int, float]:
    """(c_jn, worst ball, BMO_nu norm) of the weighted John-Nirenberg
    comparison from every ball's deviation sum, in the library's
    arithmetic order, so ``verify_bloom_jn`` must equal it bit for bit."""
    lam1 = np.asarray(lam1, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    bmo, _ = bmo_max(space, b, weights.bloom_weight(lam1, lam2, p))
    ap2 = weights.ap_characteristic(space, lam2, p).value
    lhs = deviation_sums(space, b, lam1 ** (-r / p) * space.mass, r) / space.ball_measures()
    rhs = bmo**r * ap2 ** (r / p) * space.ball_averages(lam2 ** (-1.0 / p)) ** r
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lhs > 0, lhs / rhs, 0.0)
    best = int(np.argmax(ratios))
    return float(ratios[best]), best, bmo


def sparse_operator(space, cubes: Sequence, f: np.ndarray) -> np.ndarray:
    """A_S f = sum over cubes of avg_Q f times the indicator of Q."""
    out = np.zeros(space.n)
    for cube in cubes:
        mem = cube.members
        avg = float(np.sum(f[mem] * space.mass[mem])) / space.measure(mem)
        out[mem] += avg
    return out


def sparse_commutator(space, cubes: Sequence, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """T_{S,b} f = sum over cubes of |b(x) - b_Q| avg_Q(f) chi_Q(x)."""
    out = np.zeros(space.n)
    for cube in cubes:
        mem = cube.members
        mu = space.measure(mem)
        b_q = float(np.sum(b[mem] * space.mass[mem])) / mu
        avg_f = float(np.sum(f[mem] * space.mass[mem])) / mu
        for x in mem:
            out[x] += abs(b[x] - b_q) * avg_f
    return out


def sparse_commutator_adjoint(space, cubes: Sequence, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """T*_{S,b} f = sum over cubes of avg_Q(|b - b_Q| f) chi_Q(x)."""
    out = np.zeros(space.n)
    for cube in cubes:
        mem = cube.members
        mu = space.measure(mem)
        b_q = float(np.sum(b[mem] * space.mass[mem])) / mu
        avg = float(np.sum(np.abs(b[mem] - b_q) * f[mem] * space.mass[mem])) / mu
        for x in mem:
            out[x] += avg
    return out


def oscillation_sums(space, cubes: Sequence, b: np.ndarray) -> List[np.ndarray]:
    """Per family cube Q, sum over family cubes R with Q on R's parent
    chain (R itself included) of Omega(R) chi_R, with Omega(R) the mean
    of |b - b_R| over R."""
    omega = []
    for r in cubes:
        mem = r.members
        mu = space.measure(mem)
        b_r = float(np.sum(b[mem] * space.mass[mem])) / mu
        omega.append(float(np.sum(np.abs(b[mem] - b_r) * space.mass[mem])) / mu)
    out = []
    for q in cubes:
        total = np.zeros(space.n)
        for r, om in zip(cubes, omega):
            node = r
            while node is not None and (node.k, node.alpha) != (q.k, q.alpha):
                node = node.parent
            if node is not None:
                total[r.members] += om
        out.append(total)
    return out


def packing_constant(system, cubes: Sequence) -> float:
    """eta = 1 / max over tree cubes Q of sum_{P in S, P inside Q}
    mu(P)/mu(Q); a single cube family yields 1."""
    worst = 0.0
    fam = [(set(c.members.tolist()), system.space.measure(c.members)) for c in cubes]
    for k in system.levels:
        for q in system.cubes[k]:
            qset = set(q.members.tolist())
            muq = system.space.measure(q.members)
            tot = sum(mu for mem, mu in fam if mem <= qset)
            worst = max(worst, tot / muq)
    return 1.0 / worst if worst > 0 else 1.0


def cz_select(system, g: np.ndarray, height: float, root=None) -> List:
    """Maximal cubes with avg_Q g > height inside the root's subtree,
    found by a top-down scan that stops at the first crossing."""
    levels = system.levels
    if root is None:
        root = system.cubes[levels[0]][0]
    chosen = []

    def descend(cube):
        mem = cube.members
        avg = float(np.sum(g[mem] * system.space.mass[mem])) / system.space.measure(mem)
        if avg > height:
            chosen.append(cube)
            return
        idx = levels.index(cube.k)
        if idx + 1 >= len(levels):
            return
        nxt = levels[idx + 1]
        memset = set(mem.tolist())
        for child in system.cubes[nxt]:
            if set(child.members.tolist()) <= memset:
                descend(child)

    descend(root)
    return chosen


def weighted_lp_norm(space, f: np.ndarray, w: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(f) ** p * w * space.mass) ** (1.0 / p))


def oscillation_stopping_time(system, base: Sequence, b: np.ndarray):
    """The mean-oscillation stopping time by definition: from the base
    cubes (coarse to fine), each cube Q adds the maximal strict subcubes
    P with avg_P |b - b_Q| > 2 Omega(b, Q), and the added cubes recurse.
    Returns (family keys in (k, alpha) order, witness sets E_Q = Q minus
    the cubes Q selected, c_emp) with c_emp the least c such that
    |b(x) - b_Q| <= c * (oscillation sum over the family inside Q) at
    every x of every family cube Q (0/0 counts as 0)."""
    space = system.space
    m = space.mass
    family = {(c.k, c.alpha): c for c in base}
    queue = sorted(family)
    witness = {}
    while queue:
        key = queue.pop(0)
        if key in witness:
            continue
        cube = family[key]
        mem = cube.members
        b_q = float(np.sum(b[mem] * m[mem])) / space.measure(mem)
        dev = np.abs(b - b_q)
        omega = float(np.sum(dev[mem] * m[mem])) / space.measure(mem)
        # Q's own average of dev is omega < 2 omega, so Q never stops
        chosen = cz_select(system, dev, 2.0 * omega, root=cube) if omega > 0 else []
        taken = set()
        for child in chosen:
            family.setdefault((child.k, child.alpha), child)
            queue.append((child.k, child.alpha))
            taken |= set(child.members.tolist())
        witness[key] = np.array([x for x in mem if x not in taken], dtype=np.int64)
    keys = sorted(family)
    cubes = [family[k] for k in keys]
    sums = oscillation_sums(space, cubes, b)
    c_emp = 0.0
    for cube, total in zip(cubes, sums):
        mem = cube.members
        b_q = float(np.sum(b[mem] * m[mem])) / space.measure(mem)
        for x in mem:
            if abs(b[x] - b_q) > 0:
                c_emp = max(c_emp, abs(b[x] - b_q) / total[x])
    return keys, witness, c_emp


def lower_testing_chain(space, b, lam1, lam2, p: float, labels, cb, est: float) -> Dict[str, float]:
    """The testing steps of the lower-bound chain, ball by ball.  Per
    probed canonical ball B (label ``ball:<id>``) with testing image
    C = C_b(chi_B) in its column of cb:

      defn_minorant   int_B |b(x) - b(y)| dmu(x) <= mu(B) C(y), y in B
      holder_on_ball  int_B C lam2 <= ||C 1_B||_{p,lam2} lam2(B)^{1/p'}
      restriction     ||C 1_B||_{p,lam2} <= ||C||_{p,lam2}
      testing_probe   ||C||_{p,lam2} <= est lam1(B)^{1/p}

    each step's value is its worst overshoot over the balls, a ball's
    overshoot normalized by max(1, |lhs|, |rhs|) over that ball; and
    c_test is the largest (int_B C lam2 / nu(B)) divided by
    est lam1(B)^{1/p} mu(B) / (nu(B) lam2(B)^{1/p}).
    """
    m = space.mass
    pprime = p / (p - 1.0)
    nu = lam1 ** (1.0 / p) * lam2 ** (-1.0 / p)
    balls = space.canonical_balls()
    worst = {
        "lower.defn_minorant": 0.0,
        "lower.holder_on_ball": 0.0,
        "lower.restriction": 0.0,
        "lower.testing_probe": 0.0,
    }
    c_test = 0.0
    for j, lab in enumerate(labels):
        if not lab.startswith("ball:"):
            continue
        mem = balls[int(lab[5:])].members
        col = cb[:, j]
        mu = space.measure(mem)
        lam1B = float(np.sum(lam1[mem] * m[mem]))
        lam2B = float(np.sum(lam2[mem] * m[mem]))
        nuB = float(np.sum(nu[mem] * m[mem]))
        tb = (np.abs(b[mem][:, None] - b[None, mem]) * m[mem][:, None]).sum(axis=0)
        ball_int = float(np.sum(col[mem] * lam2[mem] * m[mem]))
        ball_p = float(np.sum(col[mem] ** p * lam2[mem] * m[mem])) ** (1.0 / p)
        full_p = weighted_lp_norm(space, col, lam2, p)
        steps = {
            "lower.defn_minorant": (tb, mu * col[mem]),
            "lower.holder_on_ball": (ball_int, ball_p * lam2B ** (1.0 / pprime)),
            "lower.restriction": (ball_p, full_p),
            "lower.testing_probe": (full_p, est * lam1B ** (1.0 / p)),
        }
        for name, (lhs, rhs) in steps.items():
            lhs, rhs = np.atleast_1d(lhs), np.atleast_1d(rhs)
            gap = max(0.0, float((lhs - rhs).max()))
            scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
            worst[name] = max(worst[name], gap / scale)
        denom = est * lam1B ** (1.0 / p) * mu / (nuB * lam2B ** (1.0 / p))
        if denom > 0:
            c_test = max(c_test, (ball_int / nuB) / denom)
    return {**worst, "c_test": c_test}


def capture_cube(space, systems: Sequence[DyadicSystem], ball):
    """(t, cube, matched) by scanning the ball's members: the first
    system whose level-matched cube at the center holds every member,
    else the smallest of each system's finest cube holding them (the
    lowest t among equal measures)."""
    delta = systems[0].delta
    for t, sysm in enumerate(systems):
        k = _ball_level(ball.radius, delta, sysm.levels[0], sysm.levels[-1])
        lab = sysm.labels[k]
        ref = int(lab[ball.center])
        if np.all(lab[ball.members] == ref):
            return t, sysm.cubes[k][ref], True
    best = None
    for t, sysm in enumerate(systems):
        for k in reversed(sysm.levels):  # finest first -> smallest cube
            lab = sysm.labels[k]
            ref = int(lab[ball.center])
            if np.all(lab[ball.members] == ref):
                cube = sysm.cubes[k][ref]
                mu = space.measure(cube.members)
                if best is None or mu < best[0]:
                    best = (mu, t, cube)
                break
    return best[1], best[2], False


def cover_balls(space, center: int, r0: float) -> List[Tuple[int, float, np.ndarray]]:
    """(center, radius, members) of the root ball B(center, r0) and of
    the greedy covers of each annulus {2^(j-1) r0 <= d(center, .) < 2^j r0}
    by balls of radius 2^(j-2) r0, each centred at the lowest point of
    the annulus not yet covered, every ball read by ``ball_at``."""
    covers = [(center, r0, ball_at(space, center, r0))]
    j = 1
    while len(ball_at(space, center, 2.0 ** (j - 1) * r0)) < space.n:
        outer = set(ball_at(space, center, 2.0**j * r0).tolist())
        annulus = outer - set(ball_at(space, center, 2.0 ** (j - 1) * r0).tolist())
        radius = 2.0 ** (j - 2) * r0
        while annulus:
            c = min(annulus)
            members = ball_at(space, c, radius)
            covers.append((c, radius, members))
            annulus -= set(members.tolist())
        j += 1
    return covers


def smallest_ball_holding(space, center: int, points) -> np.ndarray:
    """Members of the smallest ball at center holding the given points:
    every point no farther from center than the farthest of them."""
    return np.flatnonzero(space.dist[center] <= space.dist[center, points].max())
