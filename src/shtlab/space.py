# src/shtlab/space.py
"""
Finite metric-measure spaces with a quasi-metric and strictly positive
atomic masses, together with the canonical ball family that every
supremum-over-balls quantity in this package ranges over.

Provides:

* ``QuasiMetricSpace`` -- validated (dist, mass) container with cached
  geometry (the ball table and measured constants).
* ``Ball`` -- ``canonical_ball(i)``'s view of table id i.  Balls are
  open, ``B(x, r) = {y : d(x, y) < r}``; every ball is a table id, and
  ``ball_ids`` is the one lookup from (center, radius) to an id.
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
The ball table holds O(n^2) data: per-ball (center, count, radius,
measure), each center's stable distance order, its inverse and the
(point, center) -> smallest ball pointers.
A sum over every canonical ball is a cumulative sum along each
center's order read at each ball's count, so no operator stores a
(balls x n) membership matrix.  ``ball_sum_blocks`` yields those sums
per block of whole centers, with its cumsum scratch within a caller's
limit, so a caller that reduces the sums at once (the ball sups of
``operators``) never holds them for every ball; ``ball_sums`` gathers
the blocks into one (balls,) or (balls, k) array.  In the same way a
ball's members as bits are one cumulative OR of one-hot uint64 words
along its center's order (``_prefix_words``), which the geometric
doubling greedy reads per block of centers.  The table stores point
ids, positions and counts as int16 and ball ids as int32, and is built
per block of centers (``TABLE_BLOCK``): at line2048 it holds 96.5 MB,
where int64 fields would take 201 MB.  The doubling scan probes only
the distances t_1 < ... < t_m at which a center's balls end, after
t_0 = 0: balls are open, so any r in (t_j, t_{j+1}] has the inner ball
of t_{j+1} and, for l = 2, 4, 8 (l r is exact), an outer ball inside
its one; r > t_m gives ratio 1.
"""

from __future__ import annotations

import json
import math
import operator
from collections import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

MAX_POINTS = 4096
SPACE_KINDS = ("line", "sqline", "grid2d", "tree", "pair")

# rows per block of the min-plus loop in ``_measure_a0``
A0_BLOCK = 64
# (centers x n) entries per block of the ball table build
TABLE_BLOCK = 1 << 16


@dataclass
class Ball:
    """Canonical ball ``index`` as ``canonical_ball`` returns it."""

    center: int
    radius: float
    members: np.ndarray  # sorted int64 point ids
    index: int  # the ball's id in the ball table


@dataclass(frozen=True)
class BallTable:
    """The canonical balls as prefixes of each center's distance order.

    Ball ``i`` has the first ``count[i]`` entries of ``order[center[i]]``
    as members.  Ids run center-major and radius-ascending, so center
    c owns the ids ``start[c]:start[c + 1]``.

    Point ids, positions and counts are at most n <= ``MAX_POINTS``, so
    they are stored as int16, and ball ids (fewer than n^2) as int32.
    numpy keeps arithmetic between such an array and a Python int in
    the array's type, where it can wrap: widen before arithmetic that
    can leave the type's range (``count.astype(np.int64) * n``).
    Subtracting 1 from a count, or a center from another center, stays
    in range, as do comparisons.  No (n x n) float field is kept: the
    doubling probes take each block's cumulative masses themselves.
    """

    center: np.ndarray  # (balls,) int16
    count: np.ndarray  # (balls,) int16, from 1 to n
    radius: np.ndarray  # (balls,) float64
    measure: np.ndarray  # (balls,) float64
    start: np.ndarray  # (n + 1,) int64
    order: np.ndarray  # (n, n) int16: order[c] = argsort(dist[c], stable)
    rank: np.ndarray  # (n, n) int16: rank[c, order[c, j]] = j
    ptr: np.ndarray  # (n, n) int32: ptr[x, c] = smallest ball at c holding x


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
        Finite, strictly positive atom masses with a finite total.
    meta : optional dict
        Generator provenance, stored verbatim in serialized files.
    """

    def __init__(
        self,
        dist: np.ndarray,
        mass: np.ndarray,
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
        if not np.all(np.isfinite(dist)):
            raise ValueError("distances must be finite")
        if not np.array_equal(dist, dist.T):
            raise ValueError("dist must be exactly symmetric")
        if np.any(np.diag(dist) != 0.0):
            raise ValueError("dist must vanish on the diagonal")
        off = dist[~np.eye(n, dtype=bool)]
        if not np.all(off > 0):
            raise ValueError("distinct points must have positive distance")
        with np.errstate(all="ignore"):
            if not np.isfinite(mass.sum()):
                raise ValueError("masses and their total must be finite")
        if not np.all(mass > 0):
            raise ValueError("masses must be strictly positive")

        self.n = n
        self.dist = dist
        self.mass = mass
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

    # -- canonical balls ---------------------------------------------------

    def ball_table(self) -> BallTable:
        """The canonical balls, one per (center, member set) pair.

        Per center the distinct distance thresholds 0 = t_0 < t_1 < ...
        give strictly growing member sets {y : d(c, y) <= t_j}, each a
        prefix of the center's stable distance order; the stored radius
        is t_j + (t_{j+1} - t_j)/2, and 1.5 * t_max for the full ball.
        Centers go in blocks of ``TABLE_BLOCK // n``, so the build's
        int64 and float temporaries never span all (n x n) entries.
        """
        if "table" not in self._cache:
            n = self.n
            order = np.empty((n, n), dtype=np.int16)
            rank = np.empty((n, n), dtype=np.int16)
            ptr = np.empty((n, n), dtype=np.int32)
            start = np.zeros(n + 1, dtype=np.int64)
            positions = np.broadcast_to(np.arange(n, dtype=np.int16), (n, n))
            parts = []
            step = max(1, TABLE_BLOCK // n)
            for c0 in range(0, n, step):
                c1 = min(n, c0 + step)
                o = np.argsort(self.dist[c0:c1], axis=1, kind="stable")
                sorted_dist = np.take_along_axis(self.dist[c0:c1], o, axis=1)
                # a ball ends at every position whose next distance is larger
                ends = np.ones(o.shape, dtype=bool)
                ends[:, :-1] = sorted_dist[:, 1:] != sorted_dist[:, :-1]
                center, last = np.nonzero(ends)
                t = sorted_dist[center, last]
                nxt = sorted_dist[center, np.minimum(last + 1, n - 1)]
                radius = np.where(last + 1 < n, t + (nxt - t) / 2.0, np.where(t > 0, 1.5 * t, 1.0))
                np.cumsum(ends.sum(axis=1), out=start[c0 + 1 : c1 + 1])
                start[c0 + 1 : c1 + 1] += start[c0]
                order[c0:c1] = o
                np.put_along_axis(rank[c0:c1], o, positions[c0:c1], axis=1)
                cum_mass = np.cumsum(self.mass[o], axis=1)
                # position j of c's order lies in c's ball number (ends before j)
                slot = np.cumsum(ends, axis=1) - ends
                slot += start[c0:c1, None]
                ptr[:, c0:c1] = np.take_along_axis(slot, rank[c0:c1], axis=1).T
                measure = cum_mass[center, last]
                center += c0
                last += 1
                parts.append((center.astype(np.int16), last.astype(np.int16), radius, measure))
            # one field at a time, each field's parts dropped before the
            # next is joined, so at most one field exists twice
            fields = [list(p) for p in zip(*parts)]
            del parts
            center, count, radius, measure = (np.concatenate(fields.pop(0)) for _ in range(4))
            self._cache["table"] = BallTable(
                center=center,
                count=count,
                radius=radius,
                measure=measure,
                start=start,
                order=order,
                rank=rank,
                ptr=ptr,
            )
        return self._cache["table"]  # type: ignore[return-value]

    def ball_ids(self, centers, radii) -> np.ndarray:
        """int64 id of each open ball {y : d(c, y) < r}, centers c and
        radii r broadcast together: ptr[order[c, count - 1], c], count
        being the points nearer than r, one ``searchsorted`` of a
        center's radii on its sorted distances.  ValueError unless every
        r > 0, so that c is inside, and IndexError unless 0 <= c < n."""
        t = self.ball_table()
        c, r = np.broadcast_arrays(np.asarray(centers, dtype=np.int64), np.asarray(radii, dtype=np.float64))
        if not np.all(r > 0):
            raise ValueError("ball radii must be positive")
        if c.size and not 0 <= c.min() <= c.max() < self.n:
            raise IndexError(f"ball centers out of range [0, {self.n})")
        shape, c, r = c.shape, c.ravel(), r.ravel()
        count = np.empty(c.size, dtype=np.int64)
        by_center = np.argsort(c, kind="stable")
        bounds = np.searchsorted(c[by_center], np.arange(self.n + 1))
        for x in np.flatnonzero(bounds[1:] > bounds[:-1]).tolist():
            s = by_center[bounds[x] : bounds[x + 1]]
            count[s] = np.searchsorted(self.dist[x, t.order[x]], r[s])
        return t.ptr[t.order[c, count - 1], c].astype(np.int64).reshape(shape)

    def canonical_ball(self, i: int) -> Ball:
        """Canonical ball i as a Ball: its center, radius and sorted
        members (the first count[i] entries of its center's order).
        Raises IndexError unless 0 <= i < number of canonical balls."""
        t = self.ball_table()
        i = operator.index(i)
        if not 0 <= i < len(t.center):
            raise IndexError(f"canonical ball {i} out of range [0, {len(t.center)})")
        c = int(t.center[i])
        return Ball(c, float(t.radius[i]), np.sort(t.order[c, : t.count[i]]).astype(np.int64), i)

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

        ``dist`` is exactly symmetric and float addition commutes, so
        the detours d(x, z) + d(z, y) and d(y, z) + d(z, x) are the same
        numbers and the pair (x, y) has the same ratio both ways round;
        the min-plus loop runs over the triangle y >= x only.  It takes
        blocks of ``A0_BLOCK`` rows x, each against the columns y from
        the block's first row on, so each block's planes stay in cache;
        every entry still takes the same ``np.minimum`` over z in the
        same order, so the result is exact.
        """
        d = self.dist
        n = self.n
        best = 1.0
        detour = np.empty(min(A0_BLOCK, n) * n)
        for x0 in range(0, n, A0_BLOCK):
            x1 = min(n, x0 + A0_BLOCK)
            cols = d[:, x0:]
            rows = cols[x0:x1].copy()  # min over z of d(x,z) + d(z,y)
            scratch = detour[: rows.size].reshape(rows.shape)
            for z in range(n):
                np.add(d[x0:x1, z, None], cols[z], out=scratch)
                np.minimum(rows, scratch, out=rows)
            # x = y has no ratio: 0 / 1 leaves the max alone
            np.fill_diagonal(rows, 1.0)
            np.divide(cols[x0:x1], rows, out=rows)
            best = max(best, float(rows.max()))
        return best

    def _doubling_peaks(self, radii: Callable, lams: Sequence[float]) -> np.ndarray:
        """(n, len(lams)): per center c and l in lams, the peak of
        mu(B(c, l r)) / mu(B(c, r)) over the radii r = radii(c, near),
        near being c's distances in its order, all scales read by one
        ``searchsorted`` on near.  Per block of ``TABLE_BLOCK // n``
        centers it takes the sorted distances and the cumulative masses
        (the cumsum that gives ``measure``), read at idx - 1 where a
        ball of c ends, idx being the points nearer than the radius."""
        t = self.ball_table()
        n = self.n
        scales = np.array((1.0,) + tuple(lams))[:, None]
        peaks = np.empty((n, len(lams)))
        step = max(1, TABLE_BLOCK // n)
        for c0 in range(0, n, step):
            o = t.order[c0 : c0 + step]
            sorted_dist = np.take_along_axis(self.dist[c0 : c0 + step], o, axis=1)
            cum_mass = np.cumsum(self.mass[o], axis=1)
            for c, near, cum in zip(range(c0, n), sorted_dist, cum_mass):
                idx = np.searchsorted(near, scales * radii(c, near))
                mu = np.where(idx > 0, cum[idx - 1], 0.0)
                peaks[c] = (mu[1:] / mu[0]).max(axis=1)
        return peaks

    def _measure_doubling(self) -> Tuple[float, float]:
        """(c_mu, updim) from the per-center peaks of mu(B(c, l r)) /
        mu(B(c, r)), l = 2, 4, 8, over the positive distances r that c's
        balls end at, which attain the sup over all radii r > 0."""
        t = self.ball_table()

        def ends(c: int, near: np.ndarray) -> np.ndarray:
            # each ball's last member, from the second ball ({c} ends at 0)
            return near[t.count[t.start[c] + 1 : t.start[c + 1]] - 1]

        lams = (2.0, 4.0, 8.0)
        peaks = self._doubling_peaks(ends, lams)
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
            peaks = self._doubling_peaks(lambda c, _: t.radius[t.start[c] : t.start[c + 1]], lams)
            n_req = 0.0
            for lam, peak in zip(tuple(lams) * self.n, peaks.ravel().tolist()):
                if peak > 1.0:
                    n_req = max(n_req, math.log(peak) / math.log(lam))
            self._cache[key] = n_req
        return self._cache[key]  # type: ignore[return-value]


# -- generators -------------------------------------------------------------


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as ``np.unique`` gives them, from a
    sort and a neighbour comparison: ``np.unique`` imports ``numpy.ma``
    on its first call, which costs more than the sort at these sizes."""
    s = np.sort(values, axis=None)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _point_words(n: int) -> np.ndarray:
    """(n, words) uint64: row y has y's bit alone, bit 7 - y % 8 of byte
    y // 8 as ``np.packbits`` places it, so in word y // 64."""
    out = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(np.eye(n, dtype=bool), axis=1)
    return out.view(np.uint64)


def _prefix_words(bits: np.ndarray, order: np.ndarray) -> np.ndarray:
    """(centers, n, words) uint64: entry [i, j] is the OR of the rows
    bits[order[i, :j + 1]], one cumulative OR along each row of order.
    With order a block of distance orders and bits one point per row,
    a canonical ball of count points is its center's entry count - 1."""
    out = np.take(bits, order, axis=0)
    return np.bitwise_or.accumulate(out, axis=1, out=out)


def build_space(kind: str, n: Optional[int] = None, seed: int = 0) -> QuasiMetricSpace:
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
    meta = {"kind": kind, "n": n, "seed": seed}
    if kind == "pair":
        return QuasiMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]), meta)
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
        return QuasiMetricSpace(dist, mass, meta)
    if kind == "grid2d":
        side = n
        ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        pts = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.float64) / side
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        mass = np.full(side * side, 1.0 / (side * side))
        return QuasiMetricSpace(dist, mass, meta)
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
    return QuasiMetricSpace(dist, np.full(n, 1.0 / n), meta)


# -- serialization -----------------------------------------------------------


def space_to_dict(space: QuasiMetricSpace) -> dict:
    return {
        "n": space.n,
        "dist": [float(v) for v in space.dist.ravel()],
        "mass": [float(v) for v in space.mass],
        "meta": space.meta,
    }


def space_from_dict(doc: dict) -> QuasiMetricSpace:
    """The space of a ``space_to_dict`` document; any other key, such as
    the ``coords`` that older files carry, is ignored."""
    n = int(doc["n"])
    dist = np.array(doc["dist"], dtype=np.float64).reshape(n, n)
    mass = np.array(doc["mass"], dtype=np.float64)
    return QuasiMetricSpace(dist, mass, doc.get("meta"))


def save_space(space: QuasiMetricSpace, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_dict(space), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_space(path: str) -> QuasiMetricSpace:
    with open(path) as fh:
        return space_from_dict(json.load(fh))
