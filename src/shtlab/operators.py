# src/shtlab/operators.py
"""
Maximal operators, commutators and sparse-form operators on a finite
space, plus probe-based operator norm estimation.

Evaluation strategy
-------------------
Every supremum ranges over the canonical ball family, read from the
space's ball table (each ball is a prefix of its center's distance
order).  Two exact reorganizations keep desk-scale evaluation fast:

* Balls at a fixed center are nested, so the balls containing a point
  form a suffix of the center's radius-sorted list.  The maximal
  function places the ball averages in a (centers x slots) table, takes
  a suffix maximum along each row with ``np.maximum.accumulate``, reads
  it at each point's pointer and maxes over centers
  (``maximal_function``).
* For the maximal commutator the integrand splits around the rank of
  b(x) in the sorted symbol values, so per-ball sums over
  |b(x) - b(y)| |f(y)| are two cumulative sums over the sorted order
  (``CommutatorKernel``).  The kernel keeps one row per distinct member
  set, read from the ball table, and takes the rows in blocks of
  ``KERNEL_BLOCK`` entries with a running max.
* Probe images of C_b and [b, M] are built once per (space, symbol,
  probe set) and memoized on the space (``probe_images``).  Each
  distinct probe column is evaluated once; a point mass at i has the
  closed forms C_b 1_i(x) = |b(x) - b(i)| m_i / mu and
  M 1_i(x) = m_i / mu with mu the smallest ball measure holding x and
  i; [b, M] of the remaining columns takes one maximal function call.
* Scratch stays O(balls x n) whatever the column or sub-ball count.
  M takes its columns in blocks of at most n/2.  The local grand
  maximal collapses sub-balls sharing member set and 4 A0 enlargement
  (twins have the same inner value), streams the distinct ones in
  blocks of n, shares each block's "B' misses B" mask across the
  functions and takes one outer sup for all of them
  (``region_grand_maximal``).
* The sparse forms A_S, T_{S,b} and T*_{S,b} run on one flat index of
  the cube family (concatenated member ids, each id's cube, each
  cube's measure): per-cube sums are one ``np.add.reduceat`` and
  ``np.add.at`` spreads them back to points, for (n,) or (n, k) input
  alike.  The same index gives the oscillation sums
  sum_{R in S, R within Q} Omega(R) chi_R through one containment
  relation over the family (``_CubeIndex``).

All paths are exact reorganizations of the defining finite sums, not
approximations.

Sign conventions
----------------
The commutator is [b, M]f = b * Mf - M(bf).  The pointwise domination
|[b, M]f| <= C_b(|f|) holds for nonnegative symbols b (for signed b it
fails already for constant negative b); the generators in this package
produce b >= 0 and the check is asserted under that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .space import Ball, QuasiMetricSpace


@dataclass
class OperatorResult:
    """Values per point plus, when the operator is a supremum, the
    canonical ball id attaining it at each point (lowest id on ties)."""

    values: np.ndarray
    witnesses: Optional[np.ndarray] = None


# -- maximal function --------------------------------------------------------


def _sup_over_balls(space: QuasiMetricSpace, per_ball: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per point x and column, the max of per_ball over the canonical
    balls containing x and the lowest ball id attaining it.

    per_ball is (balls, k).  The balls containing x at center c are the
    suffix of c's list from ptr[x, c] on, so a suffix max along each
    row of the (centers x slots x k) table, read at the pointers and
    maxed over centers, gives the sup.  Columns go in blocks so the
    (n x max(width, n) x columns) scratch stays within (balls x n).
    """
    t = space.ball_table()
    n = space.n
    nb, k = per_ball.shape
    slot = np.arange(nb) - t.start[t.center]
    width = int(slot.max()) + 1
    centers = np.arange(n)[None, :]
    pslot = t.ptr - t.start[None, :-1]  # (x, c): slot of the smallest ball at c holding x
    positions = np.arange(width)[None, :, None]
    values = np.empty((n, k))
    witnesses = np.empty((n, k), dtype=np.int64)
    step = max(1, min(k, nb // max(width, n)))
    for j0 in range(0, k, step):
        j1 = min(k, j0 + step)
        table = np.full((n, width, j1 - j0), -np.inf)
        table[t.center, slot] = per_ball[:, j0:j1]
        suf = np.maximum.accumulate(table[:, ::-1], axis=1)[:, ::-1]
        # the first slot at or after j holding its suffix max is the
        # earliest, hence lowest-id, argmax of that suffix
        first = np.where(table == suf, positions, width)
        arg = np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1]
        cand = suf[centers, pslot]  # (x, c, columns)
        best = cand.max(axis=1)
        ids = t.start[:-1][None, :, None] + arg[centers, pslot]
        ids[cand != best[:, None, :]] = np.iinfo(np.int64).max
        values[:, j0:j1] = best
        witnesses[:, j0:j1] = ids.min(axis=1)
    return values, witnesses


def maximal_function(space: QuasiMetricSpace, f: np.ndarray) -> OperatorResult:
    """M f(x) = max over balls containing x of avg_B |f|.

    f is (n,) or (n, k) with one function per column; values and
    witnesses take the same shape.  Columns go in blocks of at most
    n/2, so the (balls x columns) averages stay within (balls x n).
    """
    f = np.asarray(f, dtype=np.float64)
    cols = np.abs(f.reshape(len(f), -1))
    values = np.empty(cols.shape)
    witnesses = np.empty(cols.shape, dtype=np.int64)
    step = max(1, space.n // 2)
    for j in range(0, cols.shape[1], step):
        avg = space.ball_averages(cols[:, j : j + step])
        values[:, j : j + step], witnesses[:, j : j + step] = _sup_over_balls(space, avg)
    return OperatorResult(values.reshape(f.shape), witnesses.reshape(f.shape))


# -- maximal commutator ------------------------------------------------------


def _distinct_rows(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of a uint8 matrix, as
    ``np.unique(packed, axis=0, return_index=True, return_inverse=True)``
    gives them: classes in lexicographic row order, each with its
    lowest row id.  Rows are read as big-endian uint64 words, so a
    stable ``np.lexsort`` on the words orders them as the bytes do, and
    a class starts wherever a row differs from the one before it."""
    rows, width = packed.shape
    padded = np.zeros((rows, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = packed
    words = padded.view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])
    new = np.ones(rows, dtype=bool)
    new[1:] = np.any(words[order[1:]] != words[order[:-1]], axis=1)
    inverse = np.empty(rows, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


# float entries per (rows x n) block of ``CommutatorKernel.apply``
KERNEL_BLOCK = 1 << 19


class CommutatorKernel:
    """Reusable evaluator for C_b f(x) = sup_{B owns x} avg_B |b(x)-b(.)| |f|.

    Holds the distinct member sets of the canonical balls as rows with
    columns in symbol order; ``apply`` takes them in blocks of at most
    ``KERNEL_BLOCK`` entries with a running max.
    """

    def __init__(self, space: QuasiMetricSpace, b: np.ndarray) -> None:
        self.space = space
        self.b = np.asarray(b, dtype=np.float64)
        # a constant symbol annihilates the kernel exactly; apply runs
        # it on u = 0 so cancellation noise from the cumsum identity
        # cannot leak nonzero values into exact-zero comparisons
        self.constant = bool(np.ptp(self.b) == 0.0)
        self.order = np.argsort(self.b, kind="stable")
        self.b_s = self.b[self.order]
        t = space.ball_table()
        n = space.n
        # per center, its prefix rows with columns in symbol order
        packed = np.empty((len(t.center), (n + 7) // 8), dtype=np.uint8)
        for c in range(n):
            ids = slice(t.start[c], t.start[c + 1])
            packed[ids] = np.packbits(t.rank[c, self.order] < t.count[ids, None], axis=1)
        # the sup only sees member sets, so collapse duplicate balls;
        # ball_ids maps each surviving row back to the lowest canonical
        # id sharing its member set, keeping witness ids canonical; twins
        # summed in other centers' orders can differ in the last bit, and
        # the sup over all balls sees the least measure
        first, twin = _distinct_rows(packed)
        mu = np.full(len(first), np.inf)
        np.minimum.at(mu, twin, t.measure)
        keep = np.argsort(first)
        self.ball_ids = first[keep].astype(np.int64)
        self.mask_s = np.unpackbits(packed[self.ball_ids], axis=1, count=n).astype(bool)
        self.mu = mu[keep]

    def apply(self, f: np.ndarray, want_witness: bool = False) -> OperatorResult:
        n = self.space.n
        u = (self.space.mass * np.abs(np.asarray(f, dtype=np.float64)))[self.order]
        if self.constant:
            # every row then sums to exactly 0, so each point's witness
            # is the lowest ball owning it
            u[:] = 0.0
        bu = self.b_s * u
        vals = np.full(n, -np.inf)
        args = np.zeros(n, dtype=np.int64)
        step = max(1, KERNEL_BLOCK // n)
        for r0 in range(0, len(self.mu), step):
            mask = self.mask_s[r0 : r0 + step]
            A = np.multiply(mask, u)
            np.cumsum(A, axis=1, out=A)
            B = np.multiply(mask, bu)
            np.cumsum(B, axis=1, out=B)
            TA, TB = A[:, -1:].copy(), B[:, -1:].copy()
            # sum_{y in B} |b(x)-b(y)| u(y) = b(x)(2 cA - TA) + (TB - 2 cB)
            A *= 2.0
            A -= TA
            A *= self.b_s
            B *= 2.0
            np.subtract(TB, B, out=B)
            A += B
            A /= self.mu[r0 : r0 + step, None]
            A[~mask] = -np.inf
            best = A.max(axis=0)
            if want_witness:
                # ties keep the earlier, hence lower, row
                better = best > vals
                args[better] = r0 + A.argmax(axis=0)[better]
            np.maximum(vals, best, out=vals)
        values = np.empty(n)
        values[self.order] = np.maximum(vals, 0.0)
        witnesses = None
        if want_witness:
            witnesses = np.empty(n, dtype=np.int64)
            witnesses[self.order] = self.ball_ids[args]
        return OperatorResult(values, witnesses)


def maximal_commutator(space: QuasiMetricSpace, b: np.ndarray, f: np.ndarray) -> OperatorResult:
    return CommutatorKernel(space, b).apply(f, want_witness=True)


def commutator_bM(space: QuasiMetricSpace, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """[b, M]f = b * Mf - M(bf) (signed values); f is (n,) or (n, k)
    with one function per column, all through one maximal function."""
    b = np.asarray(b, dtype=np.float64)[:, None]
    f = np.asarray(f, dtype=np.float64)
    cols = f.reshape(len(f), -1)
    k = cols.shape[1]
    both = maximal_function(space, np.concatenate([cols, b * cols], axis=1)).values
    return (b * both[:, :k] - both[:, k:]).reshape(f.shape)


# -- local grand maximal -----------------------------------------------------


def _sub_balls(space: QuasiMetricSpace, region: np.ndarray) -> np.ndarray:
    """Ids of canonical balls whose member set lies inside the region."""
    t = space.ball_table()
    outside = np.ones(space.n, dtype=bool)
    outside[region] = False
    # per center, the first position of its order that leaves the region
    exit_at = np.where(outside[None, :], t.rank, space.n).min(axis=1)
    return np.flatnonzero(t.count <= exit_at[t.center])


def region_grand_maximal(
    space: QuasiMetricSpace,
    region: np.ndarray,
    trunc: np.ndarray,
    fs: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Grand maximal values on a region for several functions at once.

    For each sub-ball B of the region, the inner quantity is
    max over balls B' meeting B of avg_{B'}(|f| restricted to
    trunc minus the 4 A0 enlargement of B); the outer sup is over
    sub-balls containing x.  Returns per-function value arrays (full
    length, zero off the region), per-function witness arrays (the
    outer sub-ball id, -1 off the region), and the sub-ball id list.

    Sub-balls sharing their member set and their enlargement have the
    same inner value, so each such class is evaluated once, in blocks
    of at most n classes: scratch stays O(balls x n) whatever the
    number of sub-balls.
    """
    t = space.ball_table()
    n = space.n
    sub_ids = _sub_balls(space, np.asarray(region, dtype=np.int64))
    trunc_ind = np.zeros(n, dtype=np.float64)
    trunc_ind[np.asarray(trunc, dtype=np.int64)] = 1.0
    # per function, |f| mass inside trunc, and its sum over every ball
    w_t = np.stack([space.mass * np.abs(np.asarray(f, float)) * trunc_ind for f in fs], axis=1)
    s_full = space.ball_sums(w_t)

    centers = t.center[sub_ids]
    inside = t.rank[centers] < t.count[sub_ids, None]
    enlarged = space.dist[centers] < (4.0 * space.a0 * t.radius[sub_ids])[:, None]
    packed = np.packbits(np.concatenate([inside, enlarged], axis=1), axis=1)
    # one class per distinct row; rep holds its lowest sub-ball
    rep, twin = _distinct_rows(packed)

    # B' meets B exactly when B's first position in the order of B''s
    # center comes before count(B'); first[c, j] is that position for
    # class j, a running min of ranks along the class's own order
    ids = sub_ids[rep]
    first = np.empty((n, len(ids)), dtype=np.int64)
    for c in np.unique(t.center[ids]):
        cols = np.flatnonzero(t.center[ids] == c)
        reach = np.minimum.accumulate(t.rank[:, t.order[c]], axis=1)
        first[:, cols] = reach[:, t.count[ids[cols]] - 1]
    m_b = np.empty((len(ids), len(fs)))  # best over B' per class
    for j in range(0, len(ids), n):
        misses = first[t.center, j : j + n] >= t.count[:, None]
        cut = enlarged[rep[j : j + n]].T
        for i in range(len(fs)):
            # per (space ball, class): mass of |f| inside trunc minus the enlargement
            v = space.ball_sums(cut * w_t[:, i, None])
            np.subtract(s_full[:, i, None], v, out=v)
            v /= t.measure[:, None]
            v[misses] = -np.inf
            m_b[j : j + n, i] = np.maximum(v.max(axis=0), 0.0)
    # outer sup over sub-balls containing x, ties to the lowest ball id
    per_ball = np.full((len(t.center), len(fs)), -np.inf)
    per_ball[sub_ids] = m_b[twin]
    best, arg = _sup_over_balls(space, per_ball)
    on = best > -np.inf
    values = np.where(on, np.maximum(best, 0.0), 0.0).T.copy()
    witnesses = np.where(on, arg, -1).T.copy()
    return list(values), list(witnesses), sub_ids


def local_grand_maximal(space: QuasiMetricSpace, b0: Ball, f: np.ndarray) -> OperatorResult:
    """Grand maximal function localized to the ball b0.

    Values are meaningful on b0's members and zero elsewhere; queries
    off the ball are not defined by the operator.
    """
    trunc = space.ball_at(b0.center, 4.0 * space.a0 * b0.radius).members
    vals, wits, _ = region_grand_maximal(space, b0.members, trunc, [f])
    return OperatorResult(vals[0], wits[0])


def local_split_check(space: QuasiMetricSpace, b0: Ball, f: np.ndarray) -> Dict[str, object]:
    """Minimal c with M(f 1_{4A0 b0}) <= c |f| + (grand maximal) on b0.

    On atoms the constant is honestly +inf when f vanishes at a point
    where the truncated maximal function does not: the enlargement of a
    singleton ball always swallows its neighbors, so no excision keeps
    nearby support.  Suites drive this with strictly positive f.
    """
    f = np.asarray(f, dtype=np.float64)
    big = space.ball_at(b0.center, 4.0 * space.a0 * b0.radius)
    ind = np.zeros(space.n)
    ind[big.members] = 1.0
    lhs = maximal_function(space, f * ind).values
    grand = local_grand_maximal(space, b0, f).values
    c_emp = 0.0
    for x in b0.members:
        excess = lhs[x] - grand[x]
        if excess <= 1e-15:
            continue
        if f[x] == 0.0:
            c_emp = math.inf
            break
        c_emp = max(c_emp, excess / abs(f[x]))
    return {
        "c_emp": float(c_emp),
        "weak11": weak_type_11_constant(space),
        "pass": bool(math.isfinite(c_emp)),
    }


def weak_type_11_constant(space: QuasiMetricSpace, probes: int = 100, seed: int = 0) -> float:
    """Probe lower bound for the weak (1,1) constant of M.

    max over probes f of sup_t t * mu{M f >= t} / ||f||_1, the sup over
    t running through the distinct values of M f.
    """
    key = ("weak11", probes, seed)
    if key in space._cache:
        return space._cache[key]  # type: ignore[return-value]
    rng = np.random.default_rng(seed)
    F = np.concatenate(
        [np.eye(space.n), rng.lognormal(0.0, 1.0, size=(space.n, probes))], axis=1
    )
    MF = maximal_function(space, F).values
    best = 0.0
    l1 = np.abs(F).T @ space.mass
    for j in range(F.shape[1]):
        mf = MF[:, j]
        order = np.argsort(mf)
        tail = np.cumsum(space.mass[order][::-1])[::-1]  # mu{Mf >= mf[order[i]]}
        best = max(best, float((mf[order] * tail).max()) / float(l1[j]))
    space._cache[key] = best
    return best


# -- sparse-form operators ---------------------------------------------------


class _CubeIndex:
    """A cube family as one flat index: the concatenated member ids, each
    entry's cube and each cube's measure.  Per-cube sums are one
    ``np.add.reduceat`` over the entries (sequential, so a column of an
    (n, k) input sums exactly as the (n,) call does) and ``spread`` adds
    per-entry values back to points in family order.

    ``cubes`` holds cubes (anything with ``members``) or raw member arrays.
    """

    def __init__(self, space: QuasiMetricSpace, cubes: Sequence) -> None:
        members = [np.asarray(getattr(c, "members", c), dtype=np.int64) for c in cubes]
        size = np.array([len(m) for m in members], dtype=np.int64)
        if np.any(size == 0):
            raise ValueError("member set must be nonempty")
        self.n = space.n
        self.size = size
        self.start = np.cumsum(size) - size
        self.ids = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        self.cube = np.repeat(np.arange(len(size)), size)
        self.mass = space.mass[self.ids]
        self.mu = self.sums(self.mass)

    def sums(self, per_entry: np.ndarray) -> np.ndarray:
        """Per-cube sums of per-entry values, (entries,) or (entries, k)."""
        return np.add.reduceat(per_entry, self.start, axis=0)

    def averages(self, f: np.ndarray) -> np.ndarray:
        """avg_Q f per cube; f is (n,) or (n, k)."""
        tail = (1,) * (f.ndim - 1)
        return self.sums(f[self.ids] * self.mass.reshape(-1, *tail)) / self.mu.reshape(-1, *tail)

    def deviation(self, b: np.ndarray) -> np.ndarray:
        """|b(x) - b_Q| per entry (Q, x)."""
        return np.abs(b[self.ids] - self.averages(b)[self.cube])

    def spread(self, per_entry: np.ndarray) -> np.ndarray:
        """sum over entries (Q, x) of their values at x, in family order."""
        out = np.zeros((self.n,) + per_entry.shape[1:])
        np.add.at(out, self.ids, per_entry)
        return out

    def inside(self, levels: np.ndarray) -> np.ndarray:
        """inside[Q, R]: R lies in Q within one dyadic system, i.e. Q is
        R or an ancestor of R.  Levels are nested partitions, so that
        holds exactly when Q is no finer than R and holds a point of R;
        cubes of equal member sets on different levels keep the tree's
        direction."""
        holds = np.zeros((len(self.size), self.n), dtype=bool)
        holds[self.cube, self.ids] = True
        return holds[:, self.ids[self.start]] & (levels[:, None] <= levels[None, :])

    def oscillation_sums(self, inside: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """Per entry (Q, x): the sum of omega(R) over family cubes R
        inside Q holding x, added in family order."""
        q, r = np.nonzero(inside)
        size = self.size[r]
        offset = np.repeat(self.start[r] - (np.cumsum(size) - size), size)
        x = self.ids[offset + np.arange(int(size.sum()))]
        flat = np.repeat(q, size) * self.n + x
        sums = np.bincount(flat, np.repeat(omega[r], size), len(self.size) * self.n)
        return sums.reshape(len(self.size), self.n)[self.cube, self.ids]


def _sparse_input(space: QuasiMetricSpace, cubes: Sequence, f: np.ndarray):
    f = np.asarray(f, dtype=np.float64)
    return _CubeIndex(space, cubes), f, f.reshape(len(f), -1)


def sparse_operator(space: QuasiMetricSpace, cubes: Sequence, f: np.ndarray) -> OperatorResult:
    """A_S f = sum over cubes Q of avg_Q(f) 1_Q; f is (n,) or (n, k)."""
    index, f, cols = _sparse_input(space, cubes, f)
    values = index.spread(index.averages(cols)[index.cube])
    return OperatorResult(values.reshape(f.shape))


def sparse_commutator(
    space: QuasiMetricSpace, cubes: Sequence, b: np.ndarray, f: np.ndarray
) -> OperatorResult:
    """T_{S,b} f(x) = sum over Q of |b(x) - b_Q| avg_Q(f) 1_Q(x)."""
    index, f, cols = _sparse_input(space, cubes, f)
    dev = index.deviation(np.asarray(b, dtype=np.float64))
    values = index.spread(dev[:, None] * index.averages(cols)[index.cube])
    return OperatorResult(values.reshape(f.shape))


def sparse_commutator_adjoint(
    space: QuasiMetricSpace, cubes: Sequence, b: np.ndarray, f: np.ndarray
) -> OperatorResult:
    """T*_{S,b} f(x) = sum over Q of avg_Q(|b - b_Q| f) 1_Q(x)."""
    index, f, cols = _sparse_input(space, cubes, f)
    dev = index.deviation(np.asarray(b, dtype=np.float64))
    avg = index.sums(dev[:, None] * cols[index.ids] * index.mass[:, None]) / index.mu[:, None]
    return OperatorResult(index.spread(avg[index.cube]).reshape(f.shape))


# -- norms and norm estimation ------------------------------------------------


def weighted_lp_norm(space: QuasiMetricSpace, f: np.ndarray, w: np.ndarray, p: float) -> float:
    """(sum |f|^p w mass)^{1/p}."""
    f = np.asarray(f, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if p <= 0:
        raise ValueError("p must be positive")
    return float((np.abs(f) ** p * w * space.mass).sum() ** (1.0 / p))


def build_probes(
    space: QuasiMetricSpace,
    random_count: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = 4096,
) -> Tuple[np.ndarray, List[str]]:
    """Deterministic probe matrix: all singleton indicators, canonical
    ball indicators (an even-stride subsample when capped), then seeded
    signed lognormal draws.  Adding probes never lowers the estimate.
    """
    t = space.ball_table()
    nb = len(t.center)
    if ball_cap is None or nb <= ball_cap:
        ball_ids = np.arange(nb)
    else:
        stride = int(math.ceil(nb / ball_cap))
        ball_ids = np.arange(0, nb, stride)
    labels = [f"point:{i}" for i in range(space.n)]
    labels += [f"ball:{i}" for i in ball_ids]
    cols = [np.eye(space.n), (t.rank[t.center[ball_ids]] < t.count[ball_ids, None]).T]
    rng = np.random.default_rng(seed)
    for j in range(random_count):
        vals = rng.lognormal(0.0, 1.0, size=space.n)
        signs = rng.integers(0, 2, size=space.n) * 2 - 1
        cols.append((vals * signs)[:, None])
        labels.append(f"random:{j}")
    return np.concatenate(cols, axis=1), labels


def _pair_min_ball_measure(space: QuasiMetricSpace) -> np.ndarray:
    """minmu[x, y] = smallest measure of a canonical ball containing
    both x and y (per center, the containing balls are nested)."""
    ptr = space.ball_pointers()
    mu = space.ball_measures()
    out = np.full((space.n, space.n), np.inf)
    for c in range(space.n):
        np.minimum(out, mu[np.maximum(ptr[:, c, None], ptr[None, :, c])], out=out)
    return out


def probe_images(
    space: QuasiMetricSpace,
    b: np.ndarray,
    probes: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = 4096,
) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray, np.ndarray]:
    """(F, labels, cb, bm): ``build_probes``' matrix and labels and the
    read-only C_b and [b, M] images of every column, memoized on the
    space.  Duplicate columns copy the image of the lowest column
    holding the same values, so argmax witnesses keep their labels.
    Point masses use the closed forms through the smallest ball holding
    both points; other columns go through one ``CommutatorKernel`` and,
    for [b, M], one ``commutator_bM`` call."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    key = ("probe_images", b.tobytes(), probes, seed, ball_cap)
    if key in space._cache:
        return space._cache[key]  # type: ignore[return-value]
    F, labels = build_probes(space, probes, seed, ball_cap)
    _, first, inverse = np.unique(F, axis=1, return_index=True, return_inverse=True)
    m = space.mass
    cb = np.empty((space.n, len(first)))
    bm = np.empty_like(cb)
    # the leading n columns are the point masses, all distinct
    point = first < space.n
    i = first[point]
    minmu = _pair_min_ball_measure(space)[:, i]
    cb[:, point] = np.abs(b[:, None] * m[i] - b[i] * m[i]) / minmu
    bm[:, point] = b[:, None] * (m[i] / minmu) - (np.abs(b[i]) * m[i]) / minmu
    rest = np.flatnonzero(~point)
    kernel = CommutatorKernel(space, b)
    for j in rest:
        cb[:, j] = kernel.apply(F[:, first[j]]).values
    bm[:, rest] = commutator_bM(space, b, F[:, first[rest]])
    # take keeps the images C-ordered, so column sums over them add
    # row by row exactly as over the probe matrix
    cb, bm = (np.take(a, inverse.reshape(-1), axis=1) for a in (cb, bm))
    for arr in (F, cb, bm):
        arr.flags.writeable = False
    space._cache[key] = (F, tuple(labels), cb, bm)
    return space._cache[key]  # type: ignore[return-value]


def estimate_from_values(
    space: QuasiMetricSpace,
    op_values: np.ndarray,
    probe_matrix: np.ndarray,
    lam1: np.ndarray,
    lam2: np.ndarray,
    p: float,
) -> Tuple[float, int]:
    """max over probe columns of ||op f||_{lambda2,p} / ||f||_{lambda1,p}."""
    lam1 = np.asarray(lam1, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    num = ((np.abs(op_values) ** p * (lam2 * space.mass)[:, None]).sum(axis=0)) ** (1.0 / p)
    den = ((np.abs(probe_matrix) ** p * (lam1 * space.mass)[:, None]).sum(axis=0)) ** (1.0 / p)
    ratios = num / den
    best = int(np.argmax(ratios))
    return float(ratios[best]), best


def operator_norm_estimate(
    space: QuasiMetricSpace,
    apply_op: Callable[[np.ndarray], np.ndarray],
    lam1: np.ndarray,
    lam2: np.ndarray,
    p: float,
    probes: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = 4096,
) -> Dict[str, object]:
    """Probe lower bound for the L^p(lambda1) -> L^p(lambda2) norm."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    F, labels = build_probes(space, probes, seed, ball_cap)
    out = np.empty_like(F)
    for j in range(F.shape[1]):
        out[:, j] = apply_op(F[:, j])
    est, idx = estimate_from_values(space, out, F, lam1, lam2, p)
    return {"estimate": est, "witness": labels[idx], "probes": F.shape[1]}
