"""Independent brute-force reference implementations.

Everything here is written as plain loops straight from the
definitions, deliberately ignoring the library's vectorized code paths,
so tests can compare the two implementations on small spaces.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from shtlab import QuasiMetricSpace


def tied_quasi_grid(side: int = 5, seed: int = 9) -> QuasiMetricSpace:
    """L1 grid distances to the power 1.5: a quasi-metric full of
    distance ties, with lognormal masses."""
    pts = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1) ** 1.5
    return QuasiMetricSpace(dist, np.random.default_rng(seed).lognormal(0.0, 1.0, len(pts)))


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
