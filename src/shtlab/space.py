# src/shtlab/space.py
"""
Finite metric-measure spaces with a quasi-metric and strictly positive
atomic masses, together with the canonical ball family that every
supremum-over-balls quantity in this package ranges over.

Provides:

* ``QuasiMetricSpace`` -- validated (dist, mass) container with cached
  geometry (the ball table and measured constants).
* ``Ball`` -- a (center, radius, member set) triple.  Balls are open:
  ``B(x, r) = {y : d(x, y) < r}``.
* ``BallTable`` -- the canonical balls, one per (center, member set)
  pair.  Each is a prefix of its center's distance order; the stored
  radius is the midpoint between the realizing distance threshold and
  the next distinct distance, so strict comparisons are exact in
  floating point.  It is the only stored form of a canonical ball;
  ``canonical_ball(i)`` derives one, ``canonical_balls`` is a read-only
  sequence view that derives each ball only when it is read, and
  ``ball_mask`` and ``ball_fmask`` are rebuilt on each call for
  ``bench/tracing.py``.
* ``CanonicalBalls`` -- that view: O(1) length and indexing, no
  stored Balls.
* ``build_space`` -- the five reference generators (line, sqline,
  grid2d, tree, pair).
* ``QuasiMetricSpace.measured_constants`` -- quasi-triangle constant,
  measured doubling constant and upper dimension.  These are *measured*
  suprema over the finite ball family, reported rather than assumed.
* JSON (de)serialization that round-trips bit-exactly.

Evaluation strategy
-------------------
The ball table holds O(n^2) data: per-ball (center, count, radius),
each center's stable distance order and the cumulative mass along it.
A sum over every canonical ball is a cumulative sum along each
center's order read at each ball's count, so no operator stores a
(balls x n) membership matrix.  ``ball_sum_blocks`` yields those sums
per block of whole centers, with its cumsum scratch within a caller's
limit, so a caller that reduces the sums at once (the ball sups of
``operators``) never holds them for every ball; ``ball_sums`` gathers
the blocks into one (balls,) or (balls, k) array.

Notes
-----
The doubling scan probes radii at both the stored midpoint radii and
the exact distance thresholds.  Probing midpoints alone underestimates
the supremum over all radii: the worst ratio mu(B(x, 2r))/mu(B(x, r))
is attained with r equal to a distance value (the inner ball stays
closed under the strict inequality while the doubled ball jumps).
"""

from __future__ import annotations

import json
import math
import operator
from collections import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

MAX_POINTS = 4096
SPACE_KINDS = ("line", "sqline", "grid2d", "tree", "pair")

# rows per block of the min-plus loop in ``_measure_a0``
A0_BLOCK = 64


@dataclass
class Ball:
    """An open ball: center point id, radius, sorted member ids."""

    center: int
    radius: float
    members: np.ndarray
    index: int = -1  # position in the canonical list; -1 for ad hoc balls

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=np.int64)


@dataclass(frozen=True)
class BallTable:
    """The canonical balls as prefixes of each center's distance order.

    Ball ``i`` has the first ``count[i]`` entries of ``order[center[i]]``
    as members.  Ids run center-major and radius-ascending, so center
    c owns the ids ``start[c]:start[c + 1]``.
    """

    center: np.ndarray  # (balls,)
    count: np.ndarray  # (balls,)
    radius: np.ndarray  # (balls,)
    measure: np.ndarray  # (balls,)
    start: np.ndarray  # (n + 1,)
    order: np.ndarray  # (n, n): order[c] = argsort(dist[c], stable)
    rank: np.ndarray  # (n, n): rank[c, order[c, j]] = j
    cum_mass: np.ndarray  # (n, n): cumulative mass along order[c]
    ptr: np.ndarray  # (n, n): ptr[x, c] = smallest ball at c holding x


class CanonicalBalls(abc.Sequence):
    """Read-only view of a space's canonical balls in id order.

    Its length is the number of table rows; ``view[i]`` (negative i
    counts from the end) is ``space.canonical_ball(i)``, built when it
    is read, and a slice is a list of such balls.
    """

    def __init__(self, space: "QuasiMetricSpace") -> None:
        self._space = space
        self._len = len(space.ball_table().center)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: Union[int, slice]) -> Union[Ball, List[Ball]]:
        if isinstance(i, slice):
            return [self._space.canonical_ball(j) for j in range(*i.indices(self._len))]
        i = operator.index(i)
        return self._space.canonical_ball(i + self._len if i < 0 else i)


class QuasiMetricSpace:
    """A finite space of homogeneous type at desk scale.

    Parameters
    ----------
    dist : (n, n) array
        Symmetric, zero diagonal, strictly positive off the diagonal.
    mass : (n,) array
        Strictly positive atom masses.
    coords : optional (n, d) array
        Point coordinates when the generator has them; used by the
        coordinate-based weight generators.
    meta : optional dict
        Generator provenance, stored verbatim in serialized files.
    """

    def __init__(
        self,
        dist: np.ndarray,
        mass: np.ndarray,
        coords: Optional[np.ndarray] = None,
        meta: Optional[dict] = None,
    ) -> None:
        dist = np.asarray(dist, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("dist must be a square matrix")
        n = dist.shape[0]
        if n < 2:
            raise ValueError("a space needs at least two points")
        if n > MAX_POINTS:
            raise ValueError(f"n={n} exceeds the supported cap {MAX_POINTS}")
        if mass.shape != (n,):
            raise ValueError("mass must have one entry per point")
        if not np.allclose(dist, dist.T, rtol=0, atol=0):
            raise ValueError("dist must be exactly symmetric")
        if np.any(np.diag(dist) != 0.0):
            raise ValueError("dist must vanish on the diagonal")
        off = dist[~np.eye(n, dtype=bool)]
        if not np.all(off > 0):
            raise ValueError("distinct points must have positive distance")
        if not np.all(np.isfinite(dist)):
            raise ValueError("distances must be finite")
        if not np.all(mass > 0):
            raise ValueError("masses must be strictly positive")

        self.n = n
        self.dist = dist
        self.mass = mass
        self.coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self.meta = dict(meta or {})
        self._cache: Dict[str, object] = {}

    # -- basic measure helpers -------------------------------------------

    @property
    def total_mass(self) -> float:
        return float(self.mass.sum())

    def measure(self, members: np.ndarray) -> float:
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            raise ValueError("member set must be nonempty")
        return float(self.mass[members].sum())

    def average(self, f: np.ndarray, members: np.ndarray) -> float:
        """Integral average of f over a member set."""
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            raise ValueError("member set must be nonempty")
        m = self.mass[members]
        return float((np.asarray(f)[members] * m).sum() / m.sum())

    def ball_at(self, center: int, radius: float) -> Ball:
        """The open ball {y : d(center, y) < radius} as an ad hoc Ball."""
        members = np.flatnonzero(self.dist[center] < radius)
        return Ball(int(center), float(radius), members)

    # -- canonical balls ---------------------------------------------------

    def ball_table(self) -> BallTable:
        """The canonical balls, one per (center, member set) pair.

        Per center the distinct distance thresholds 0 = t_0 < t_1 < ...
        give strictly growing member sets {y : d(c, y) <= t_j}, each a
        prefix of the center's stable distance order; the stored radius
        is t_j + (t_{j+1} - t_j)/2, and 1.5 * t_max for the full ball.
        """
        if "table" not in self._cache:
            n = self.n
            order = np.argsort(self.dist, axis=1, kind="stable")
            sorted_dist = np.take_along_axis(self.dist, order, axis=1)
            # a ball ends at every position whose next distance is larger
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
            cum_mass = np.cumsum(self.mass[order], axis=1)
            # position j of c's order lies in c's ball number (ends before j)
            slot = np.cumsum(ends, axis=1) - ends
            ptr = start[:-1, None] + np.take_along_axis(slot, rank, axis=1)
            self._cache["table"] = BallTable(
                center=center,
                count=last + 1,
                radius=radius,
                measure=cum_mass[center, last],
                start=start,
                order=order,
                rank=rank,
                cum_mass=cum_mass,
                ptr=np.ascontiguousarray(ptr.T),
            )
        return self._cache["table"]  # type: ignore[return-value]

    def canonical_ball(self, i: int) -> Ball:
        """Canonical ball i as a Ball: its center, radius and sorted
        members (the first count[i] entries of its center's order).
        Raises IndexError unless 0 <= i < number of canonical balls."""
        t = self.ball_table()
        i = operator.index(i)
        if not 0 <= i < len(t.center):
            raise IndexError(f"canonical ball {i} out of range [0, {len(t.center)})")
        c = int(t.center[i])
        return Ball(c, float(t.radius[i]), np.sort(t.order[c, : t.count[i]]), index=i)

    def canonical_balls(self) -> CanonicalBalls:
        """Every canonical ball in id order, as a view over the ball
        table that builds each Ball only when it is read; only the tests
        and ``bench/`` call it."""
        return CanonicalBalls(self)

    def ball_mask(self) -> np.ndarray:
        """Boolean (balls x n) membership matrix, built on each call;
        kept only because ``bench/tracing.py`` wraps it by name."""
        t = self.ball_table()
        return t.rank[t.center] < t.count[:, None]

    def ball_fmask(self) -> np.ndarray:
        """Float64 (balls x n) membership matrix, built on each call;
        kept only because ``bench/tracing.py`` wraps it by name."""
        t = self.ball_table()
        return (t.rank[t.center] < t.count[:, None]).astype(np.float64)

    def ball_measures(self) -> np.ndarray:
        return self.ball_table().measure

    def ball_slices(self) -> List[Tuple[int, int]]:
        """Per center, the [start, end) range of its canonical balls;
        kept only because ``bench/tracing.py`` wraps it by name."""
        start = self.ball_table().start.tolist()
        return list(zip(start[:-1], start[1:]))

    def ball_pointers(self) -> np.ndarray:
        """ptr[x, c] = index of the smallest canonical ball at c containing x.

        The balls at a fixed center are nested, so the balls containing
        x form a suffix of the center's radius-sorted list.
        """
        return self.ball_table().ptr

    def ball_sum_blocks(
        self, values: np.ndarray, limit: int
    ) -> Iterator[Tuple[slice, np.ndarray]]:
        """Per block of whole centers: (ids, sums), the slice of the
        block's ball ids and the sums of values over those balls.

        values is (n,) or (n, k); sums is (balls in block,) or (balls in
        block, k).  Each center's cumulative sum along its distance
        order is read at its balls' counts.  Centers and columns go in
        blocks so the (centers x n x columns) cumsum scratch stays
        within limit floats, or one center and one column if more.
        """
        t = self.ball_table()
        v = np.asarray(values, dtype=np.float64)
        cols = v[:, None] if v.ndim == 1 else v
        n, k = cols.shape
        width = max(1, min(k, limit // n))
        rows = max(1, min(n, limit // (n * width)))
        for c0 in range(0, n, rows):
            c1 = min(n, c0 + rows)
            ids = slice(t.start[c0], t.start[c1])
            parts = []
            for j0 in range(0, k, width):
                cum = cols[t.order[c0:c1], j0 : j0 + width]
                np.cumsum(cum, axis=1, out=cum)
                parts.append(cum[t.center[ids] - c0, t.count[ids] - 1])
                del cum
            sums = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            del parts
            yield ids, sums[:, 0] if v.ndim == 1 else sums
            # hold no block while the next one is built
            del sums

    def ball_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of values over the members of every canonical ball.

        values is (n,) or (n, k); the result is (balls,) or (balls, k),
        assembled from ``ball_sum_blocks`` with its scratch within the
        output's size.
        """
        v = np.asarray(values, dtype=np.float64)
        out = np.empty((len(self.ball_table().center),) + v.shape[1:])
        for ids, sums in self.ball_sum_blocks(v, out.size):
            out[ids] = sums
        return out

    def ball_averages(self, values: np.ndarray) -> np.ndarray:
        """avg_B(values) = sum(values * mass) / mu(B) for every canonical
        ball; values is (n,) or (n, k)."""
        v = np.asarray(values, dtype=np.float64)
        shape = (-1,) + (1,) * (v.ndim - 1)
        return self.ball_sums(v * self.mass.reshape(shape)) / self.ball_measures().reshape(shape)

    def ball_prefixes(self) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
        """Per center c: (ids, order, inside).  ids is the slice of c's
        ball ids, order is c's distance order, and inside[i, j] tells
        whether order[j] belongs to ball ids.start + i."""
        t = self.ball_table()
        positions = np.arange(self.n)
        for c in range(self.n):
            ids = slice(int(t.start[c]), int(t.start[c + 1]))
            yield ids, t.order[c], positions[None, :] < t.count[ids, None]

    def smallest_covering_ball(self, support: np.ndarray) -> Ball:
        """The minimum-measure canonical ball containing the given ids."""
        support = np.asarray(support, dtype=np.int64)
        if support.size == 0:
            support = np.arange(self.n)
        # per center, the smallest ball there holding the whole support
        ids = self.ball_pointers()[support].max(axis=0)
        best = ids[np.argmin(self.ball_measures()[ids])]
        return self.canonical_ball(int(best))

    # -- measured geometric constants --------------------------------------

    def measured_constants(self) -> Tuple[float, float, float]:
        """(a0, c_mu, updim): quasi-triangle constant, doubling constant
        and upper dimension, all measured exhaustively.

        a0 is the max over pairs x != y of d(x,y)/min_z(d(x,z)+d(z,y)),
        clamped to >= 1.  c_mu is the max of mu(B(x,2r))/mu(B(x,r)) over
        the doubling probe radii.  updim is the smallest real n with
        mu(B(x, lr)) <= c_mu * l**n * mu(B(x, r)) over sampled
        l in {2, 4, 8}.
        """
        if "constants" not in self._cache:
            a0 = self._measure_a0()
            c_mu, updim = self._measure_doubling()
            self._cache["constants"] = (a0, c_mu, updim)
        return self._cache["constants"]  # type: ignore[return-value]

    @property
    def a0(self) -> float:
        return self.measured_constants()[0]

    @property
    def c_mu(self) -> float:
        return self.measured_constants()[1]

    @property
    def updim(self) -> float:
        return self.measured_constants()[2]

    def _measure_a0(self) -> float:
        """max over x != y of d(x, y) / min_z (d(x, z) + d(z, y)), at least 1.

        The min-plus loop runs over blocks of ``A0_BLOCK`` rows, so each
        block's (rows x n) planes stay in cache; every entry still takes
        the same ``np.minimum`` over z in the same order, so the result
        is exact.
        """
        d = self.dist
        n = self.n
        best = d.copy()  # min over z of d(x,z) + d(z,y)
        detour = np.empty((min(A0_BLOCK, n), n))
        for x0 in range(0, n, A0_BLOCK):
            rows = best[x0 : x0 + A0_BLOCK]
            scratch = detour[: len(rows)]
            for z in range(n):
                np.add(d[x0 : x0 + A0_BLOCK, z, None], d[z], out=scratch)
                np.minimum(rows, scratch, out=rows)
        off = ~np.eye(n, dtype=bool)
        ratios = d[off] / best[off]
        return float(max(1.0, ratios.max()))

    def _doubling_probe_radii(self, center: int) -> np.ndarray:
        """Distance thresholds plus canonical midpoints for one center."""
        distinct = np.unique(self.dist[center])
        pos = distinct[distinct > 0]
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        top = np.array([1.5 * distinct[-1]]) if distinct[-1] > 0 else np.array([1.0])
        return np.unique(np.concatenate([pos, mids[mids > 0], top]))

    def _mu_ball(self, center: int, radii: np.ndarray) -> np.ndarray:
        """mu(B(center, r)) for each r (any shape), by one
        ``searchsorted`` along the center's distance order."""
        t = self.ball_table()
        idx = np.searchsorted(self.dist[center, t.order[center]], radii, side="left")
        return np.where(idx > 0, t.cum_mass[center, np.maximum(idx - 1, 0)], 0.0)

    def _measure_doubling(self) -> Tuple[float, float]:
        """(c_mu, updim): per center, the peak of mu(B(c, l r)) / mu(B(c, r))
        over its probe radii r for l = 2, 4, 8, all four scales read by
        one ``_mu_ball`` call."""
        lams = (2.0, 4.0, 8.0)
        scales = np.array((1.0,) + lams)[:, None]
        peaks = np.empty((self.n, len(lams)))
        for c in range(self.n):
            mu = self._mu_ball(c, scales * self._doubling_probe_radii(c))
            peaks[c] = (mu[1:] / mu[0]).max(axis=1)
        c_mu = max(1.0, float(peaks[:, 0].max()))
        n_req = 0.0
        for lam, peak in zip(lams * self.n, peaks.ravel().tolist()):
            if peak > c_mu:
                n_req = max(n_req, math.log(peak / c_mu) / math.log(lam))
        return c_mu, max(n_req, 1e-9)

    def strong_doubling_exponent(self, lams: Sequence[float] = (2.0, 4.0, 8.0)) -> float:
        """Smallest n with mu(B(x, lr)) <= l**n * mu(B(x, r)) over canonical
        balls and the sampled scale factors (no c_mu prefactor); kept
        only because ``bench/tracing.py`` wraps it by name."""
        key = ("strong_n", tuple(lams))
        if key not in self._cache:
            t = self.ball_table()
            n_req = 0.0
            for c in range(self.n):
                radii = t.radius[t.start[c] : t.start[c + 1]]
                base = self._mu_ball(c, radii)
                for lam in lams:
                    ratio = self._mu_ball(c, lam * radii) / base
                    peak = float(ratio.max())
                    if peak > 1.0:
                        n_req = max(n_req, math.log(peak) / math.log(lam))
            self._cache[key] = n_req
        return self._cache[key]  # type: ignore[return-value]


# -- generators -------------------------------------------------------------


def build_space(
    kind: str,
    n: Optional[int] = None,
    params: Optional[dict] = None,
    seed: int = 0,
) -> QuasiMetricSpace:
    """Build one of the reference spaces.

    kind:
      line    -- points i/n on [0, 1), absolute-difference metric, mass 1/n
      sqline  -- same points, squared-difference quasi-metric (a0 = 2)
      grid2d  -- n x n grid (i/n, j/n), Euclidean metric, mass 1/n^2
      tree    -- complete binary tree on n nodes, path metric, mass 1/n
      pair    -- two points at distance 1, mass 1/2 each

    The kind, n and the point cap are checked before anything is
    allocated.
    """
    if kind not in SPACE_KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    params = dict(params or {})
    meta = {"kind": kind, "n": n, "params": params, "seed": seed}
    if kind == "pair":
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        mass = np.array([0.5, 0.5])
        coords = np.array([[0.0], [1.0]])
        return QuasiMetricSpace(dist, mass, coords, meta)
    if n is None or n < 2:
        raise ValueError(f"kind {kind!r} needs n >= 2")
    points = n * n if kind == "grid2d" else n
    if points > MAX_POINTS:
        raise ValueError(f"{points} points exceed the cap {MAX_POINTS}")
    if kind in ("line", "sqline"):
        x = np.arange(n, dtype=np.float64) / n
        diff = np.abs(x[:, None] - x[None, :])
        dist = diff if kind == "line" else diff**2
        mass = np.full(n, 1.0 / n)
        return QuasiMetricSpace(dist, mass, x[:, None], meta)
    if kind == "grid2d":
        side = n
        ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        pts = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.float64) / side
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        mass = np.full(side * side, 1.0 / (side * side))
        return QuasiMetricSpace(dist, mass, pts, meta)
    # tree: a complete binary tree in heap order, the parent of i at (i-1)//2
    depth = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        depth[i] = depth[(i - 1) // 2] + 1
    # path distance = depth(x) + depth(y) - 2 depth(lca); cur holds
    # each node's ancestor at depth d, and x, y share depth(lca) + 1
    cur = np.arange(n)
    common = np.zeros((n, n), dtype=np.int64)
    for d in range(int(depth.max()), -1, -1):
        at = depth >= d
        common += at[:, None] & at[None, :] & (cur[:, None] == cur[None, :])
        cur = np.where(at, (cur - 1) // 2, cur)
    dist = (depth[:, None] + depth[None, :] - 2 * (common - 1)).astype(np.float64)
    mass = np.full(n, 1.0 / n)
    coords = (depth / max(1, depth.max())).astype(np.float64)[:, None]
    return QuasiMetricSpace(dist, mass, coords, meta)


# -- serialization -----------------------------------------------------------


def space_to_dict(space: QuasiMetricSpace) -> dict:
    out = {
        "n": space.n,
        "dist": [float(v) for v in space.dist.ravel()],
        "mass": [float(v) for v in space.mass],
        "meta": space.meta,
    }
    if space.coords is not None:
        out["coords"] = [[float(v) for v in row] for row in space.coords]
    return out


def space_from_dict(doc: dict) -> QuasiMetricSpace:
    n = int(doc["n"])
    dist = np.array(doc["dist"], dtype=np.float64).reshape(n, n)
    mass = np.array(doc["mass"], dtype=np.float64)
    coords = np.array(doc["coords"], dtype=np.float64) if "coords" in doc else None
    return QuasiMetricSpace(dist, mass, coords, doc.get("meta"))


def save_space(space: QuasiMetricSpace, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_dict(space), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_space(path: str) -> QuasiMetricSpace:
    with open(path) as fh:
        return space_from_dict(json.load(fh))
