"""Independent brute-force reference implementations.

Everything here is written as plain loops straight from the
definitions, deliberately ignoring the library's vectorized code paths,
so tests can compare the two implementations on small spaces.
"""

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from shtlab import QuasiMetricSpace
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

def ball_members(space, center: int, radius: float) -> np.ndarray:
    """Open ball by definition: strict inequality."""
    return np.array(
        [x for x in range(space.n) if space.dist[center, x] < radius], dtype=np.int64
    )


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
            small = ball_members(space, c, r)
            big = ball_members(space, c, 2.0 * r)
            if len(small):
                best = max(best, space.measure(big) / space.measure(small))
    return best


def measured_doubling(space) -> Tuple[float, float]:
    """(c_mu, updim) as ``QuasiMetricSpace._measure_doubling`` gives
    them, by a per-center loop with one ``_mu_ball`` search per scale."""
    lams = (2.0, 4.0, 8.0)
    c_mu = 1.0
    worst: List[Tuple[float, float]] = []  # (lambda, ratio) pairs
    for c in range(space.n):
        radii = space._doubling_probe_radii(c)
        base = space._mu_ball(c, radii)
        for lam in lams:
            ratio = space._mu_ball(c, lam * radii) / base
            peak = float(ratio.max())
            worst.append((lam, peak))
            if lam == 2.0:
                c_mu = max(c_mu, peak)
    n_req = 0.0
    for lam, peak in worst:
        if peak > c_mu:
            n_req = max(n_req, math.log(peak / c_mu) / math.log(lam))
    return c_mu, max(n_req, 1e-9)


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
    best = 1
    for ball in space.canonical_balls():
        kept = []
        for x in ball.members:
            if all(space.dist[x, y] >= delta * ball.radius for y in kept):
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
            big = ball_members(space, ball.center, lam * ball.radius)
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
