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
  ``canonical_ball(i)`` derives one, and ``canonical_balls``, ``ball_mask``
  and ``ball_fmask`` are rebuilt on each call for ``bench/tracing.py``.
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
A sum over every canonical ball (``ball_sums``) is a cumulative sum
along each center's order read at each ball's count, so no operator
stores a (balls x n) membership matrix.

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
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

MAX_POINTS = 4096


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
        members (the first count[i] entries of its center's order)."""
        t = self.ball_table()
        c = int(t.center[i])
        return Ball(c, float(t.radius[i]), np.sort(t.order[c, : t.count[i]]), index=int(i))

    def canonical_balls(self) -> List[Ball]:
        """Every canonical ball in id order, rebuilt on each call; only
        the tests and ``bench/tracing.py`` still call it."""
        return [self.canonical_ball(i) for i in range(len(self.ball_table().center))]

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
        """Per center, the [start, end) range of its canonical balls."""
        start = self.ball_table().start.tolist()
        return list(zip(start[:-1], start[1:]))

    def ball_pointers(self) -> np.ndarray:
        """ptr[x, c] = index of the smallest canonical ball at c containing x.

        The balls at a fixed center are nested, so the balls containing
        x form a suffix of the center's radius-sorted list.
        """
        return self.ball_table().ptr

    def ball_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of values over the members of every canonical ball.

        values is (n,) or (n, k); the result is (balls,) or (balls, k).
        Each center's cumulative sum along its distance order is read
        at its balls' counts.  Centers and columns go in blocks so the
        (centers x n x columns) scratch never exceeds the output.
        """
        t = self.ball_table()
        v = np.asarray(values, dtype=np.float64)
        cols = v[:, None] if v.ndim == 1 else v
        n, k = cols.shape
        out = np.empty((len(t.center), k))
        width = max(1, min(k, out.size // (n * n)))
        rows = max(1, min(n, out.size // (n * width)))
        for c0 in range(0, n, rows):
            c1 = min(n, c0 + rows)
            ids = slice(t.start[c0], t.start[c1])
            for j0 in range(0, k, width):
                j1 = min(k, j0 + width)
                cum = cols[t.order[c0:c1], j0:j1]
                np.cumsum(cum, axis=1, out=cum)
                out[ids, j0:j1] = cum[t.center[ids] - c0, t.count[ids] - 1]
        return out[:, 0] if v.ndim == 1 else out

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
        d = self.dist
        best = d.copy()  # min over z of d(x,z) + d(z,y)
        for z in range(self.n):
            detour = d[:, z][:, None] + d[z, :][None, :]
            np.minimum(best, detour, out=best)
        off = ~np.eye(self.n, dtype=bool)
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
        """mu(B(center, r)) for each r."""
        t = self.ball_table()
        idx = np.searchsorted(self.dist[center, t.order[center]], radii, side="left")
        return np.where(idx > 0, t.cum_mass[center, np.maximum(idx - 1, 0)], 0.0)

    def _measure_doubling(self) -> Tuple[float, float]:
        lams = (2.0, 4.0, 8.0)
        c_mu = 1.0
        worst: List[Tuple[float, float]] = []  # (lambda, ratio) pairs
        for c in range(self.n):
            radii = self._doubling_probe_radii(c)
            base = self._mu_ball(c, radii)
            for lam in lams:
                ratio = self._mu_ball(c, lam * radii) / base
                peak = float(ratio.max())
                worst.append((lam, peak))
                if lam == 2.0:
                    c_mu = max(c_mu, peak)
        n_req = 0.0
        for lam, peak in worst:
            if peak > c_mu:
                n_req = max(n_req, math.log(peak / c_mu) / math.log(lam))
        return c_mu, max(n_req, 1e-9)

    def strong_doubling_exponent(self, lams: Sequence[float] = (2.0, 4.0, 8.0)) -> float:
        """Smallest n with mu(B(x, lr)) <= l**n * mu(B(x, r)) over canonical
        balls and the sampled scale factors (no c_mu prefactor)."""
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


def scale_ball(space: QuasiMetricSpace, ball: Ball, factor: float) -> Ball:
    """Same center, radius scaled by factor, members recomputed."""
    radius = float(factor) * ball.radius
    members = np.flatnonzero(space.dist[ball.center] < radius)
    return Ball(ball.center, radius, members)


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
    """
    params = dict(params or {})
    meta = {"kind": kind, "n": n, "params": params, "seed": seed}
    if kind == "pair":
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        mass = np.array([0.5, 0.5])
        coords = np.array([[0.0], [1.0]])
        return QuasiMetricSpace(dist, mass, coords, meta)
    if n is None or n < 2:
        raise ValueError(f"kind {kind!r} needs n >= 2")
    if kind in ("line", "sqline"):
        x = np.arange(n, dtype=np.float64) / n
        diff = np.abs(x[:, None] - x[None, :])
        dist = diff if kind == "line" else diff**2
        mass = np.full(n, 1.0 / n)
        return QuasiMetricSpace(dist, mass, x[:, None], meta)
    if kind == "grid2d":
        side = n
        if side * side > MAX_POINTS:
            raise ValueError(f"grid2d side {side} exceeds the point cap")
        ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        pts = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.float64) / side
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        mass = np.full(side * side, 1.0 / (side * side))
        return QuasiMetricSpace(dist, mass, pts, meta)
    if kind == "tree":
        # complete binary tree in heap order: parent of i is (i-1)//2
        depth = np.zeros(n, dtype=np.int64)
        for i in range(1, n):
            depth[i] = depth[(i - 1) // 2] + 1
        # ancestor walk gives exact path distances
        dist = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                a, b_ = i, j
                da, db = depth[a], depth[b_]
                hops = 0
                while da > db:
                    a = (a - 1) // 2
                    da -= 1
                    hops += 1
                while db > da:
                    b_ = (b_ - 1) // 2
                    db -= 1
                    hops += 1
                while a != b_:
                    a = (a - 1) // 2
                    b_ = (b_ - 1) // 2
                    hops += 2
                dist[i, j] = dist[j, i] = float(hops)
        mass = np.full(n, 1.0 / n)
        coords = (depth / max(1, depth.max())).astype(np.float64)[:, None]
        return QuasiMetricSpace(dist, mass, coords, meta)
    raise ValueError(f"unknown space kind {kind!r}")


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
