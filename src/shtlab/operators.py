# src/shtlab/operators.py
"""
Maximal operators, commutators and sparse-form operators on a finite
space, plus probe-based operator norm estimation.

Evaluation strategy
-------------------
Every supremum ranges over the canonical ball family, read from the
space's ball table (each ball is a prefix of its center's distance
order).  Two exact reorganizations keep desk-scale evaluation fast:

* Balls at a fixed center are nested, so the balls containing a point,
  or meeting a set, form a suffix of the center's radius-sorted list.
  One ``_suffix_max`` places per-ball values in a (slots x centers)
  table through one flat row index, as ``space.ball_sum_blocks`` yields
  them block by block of centers with the caller's transform applied
  (/ measure for M, (uncut - cut) / measure for the grand maximal), and
  takes the suffix max with one ``np.maximum`` per slot over whole
  (centers x columns) planes.  M reads it at each point's pointer and
  maxes over centers, a chunk of points at a time
  (``maximal_function``); both grand maximal sups use it too.
* Attaining balls cost a slot table, an id gather and a tie mask as
  large as the sup's own scratch, so M and ``region_grand_maximal``
  find them only with ``want_witness=True``, as ``CommutatorKernel``
  does; the values are the same either way.
* For the maximal commutator the integrand splits around the rank of
  b(x) in the sorted symbol values, so a ball's sum of
  |b(x) - b(y)| |f(y)| m(y) is b(x)(2 cA - TA) + (TB - 2 cB), with cA,
  cB the running sums of u = |f| m and b u in symbol order up to x and
  TA, TB the ball's totals (``CommutatorKernel``).  Twins (balls with
  equal member sets) have the same sums, so the sup is taken over
  member classes, each over its least measure.  A column goes through
  two stages:
  - Bounds.  Phi_B(t) = sum_B |t - b| u / mu(B) is convex and piecewise
    linear in t, and C_b f(x) = max over B owning x of Phi_B(b(x)).
    With breakpoints q_0 = min b < ... < q_Q = max b at the quantiles
    of b (``QUANTILES``), one ``ball_sum_blocks`` pass over the columns
    |q_i - b| u gives every Phi_B(q_i); on [q_i, q_{i+1}] Phi_B lies
    below its chord, and the max of the chords of the balls at c
    holding x below the chord of their suffix maxima, read at x's
    pointer as M reads it.  So each (point, center) pair is bounded in
    O(Q) work per ball, per block of centers.  The balls at x's own
    center, and then the best-bounded center of x, are summed directly
    (|b(x) - b| u along the center's order), which gives a lower bound
    L(x) of the sup; the pairs whose bound reaches L(x) are summed
    directly too, and each ball whose direct sum reaches L(x) is kept.
  - Exact balls.  Each kept ball is summed as above, in symbol order
    with one masked cumsum of u and one of b u, so its values carry the
    bits of the full sums, and each point takes the max over the kept
    balls holding it.  Every ball that can attain the sup is kept, so
    the values are those of all balls, and a witness is the lowest ball
    id of the lowest member class attaining the sup.  The class map is
    read for witnesses, and when the space already holds it the bounds
    run over one ball per class (its lowest) at the class's least
    measure, so twins are bounded once.
  Every stage works per block of centers, (point, center) pairs or
  (ball, column) pairs within ``KERNEL_BLOCK // 8`` floats, and (n, k)
  input goes in groups of columns whose chord columns fit one such
  block.  ``apply`` sends every column this way.
  The probe images' ball indicators (|f| in {0, 1}, so u = m 1_{B'})
  take a class path instead.  Their sums start at +0.0 and add only
  +-0.0 off B', which leaves their bits unchanged, so a class's sums
  depend only on r & B'.  They go through one running sum per distinct
  intersection, found by ``_distinct_rows`` a chunk of columns at a
  time (``CommutatorKernel._indicator_values``).  That path alone reads
  the kernel's (positions x classes) bits, built on its first use.
* Probe images of M, C_b and [b, M] are built once per (space,
  symbol, probe set) and memoized on the space (``probe_images``).
  Each distinct probe column is evaluated once; a point mass at i has
  the closed forms C_b 1_i(x) = |b(x) - b(i)| m_i / mu and
  M 1_i(x) = m_i / mu with mu the smallest ball measure holding x and
  i; the remaining columns go in blocks (``_spans``) through one
  kernel, the ball indicators through its class path and the random
  columns through ``apply``, and one maximal function call per block
  for both M and [b, M].
* Scratch stays O(balls x n) whatever the column or sub-ball count,
  and a ball sup holds one (balls x columns)-sized array: its suffix
  max table, whose rows it places and reads per block of balls and
  chunk of points.  No array of every ball's sums or averages is built,
  the blocks of ball sums stay within one (centers x columns) plane of
  the table, and the read-out gathers within one such plane per point.
  Blocks and chunks take at least ``KERNEL_BLOCK // 8`` floats, so a
  small space takes one of each.  M takes its columns in even blocks
  whose table stays within min(balls x n, 8 ``KERNEL_BLOCK``) floats.
  The local grand maximal collapses sub-balls sharing member set and
  4 A0 enlargement E (twins have the same inner value); E is a
  canonical ball too, its id read by ``space.ball_ids``, so a class is
  a pair of member classes.  Its cut sums depend only on E, so it
  takes one suffix max per block of distinct E (each table within
  ``GRAND_BLOCK`` bytes, E's members read from the ball table), filled
  from one ``ball_sum_blocks`` pass, and per class of B the max of n
  table entries, one per center, gathered for chunks of classes
  (``region_grand_maximal``).
  Given a floor per function, it first bounds each class by the uncut
  averages of the balls that meet B and leave E, read from one suffix
  max table of the uncut averages, and evaluates only the classes and
  enlargements whose bound exceeds a floor.  The rule is exact: a ball
  inside E has the same cut and uncut sums (one cumsum over the same
  values), so its cut average is exactly 0, never above a floor (floors
  are >= 0); for every other ball fl(a - b) <= a when b >= 0, and the
  division by its measure is monotone, so the bound is >= the exact
  inner value bit for bit.
  The probe images' consumers (the norm estimates here, the pointwise
  [b, M] reduction and the lower bound's testing chain in ``verify``)
  and their build take blocks of columns or probed balls of n entries
  each (``_spans``: within ``KERNEL_BLOCK // 64`` entries per array,
  or two columns or balls if more), so no consumer adds an (n x
  probes) array to the memoized images.
* The class map (``_member_classes``), which the kernel's class path
  (probe images only) and witnesses and the grand maximal read, is the
  one dedup of ball member sets, memoized per space.  Equal sets have
  equal counts, so it runs on chunks of whole count groups (each at
  most n balls, one per center), a chunk at most max(n, ``KERNEL_BLOCK
  // n``) balls.  A chunk's bits are its centers' prefix words at its
  counts, one running OR of one-hot words along each center's order
  carried from chunk to chunk, so its scratch stays within that many
  balls' n/8 bytes and no (balls x n/8) matrix is built.  Classes are
  numbered by their lowest ball id, so the kernel's rows come in id
  order with no sort.
* The sparse forms A_S, T_{S,b} and T*_{S,b} run on one flat index of
  the cube family (concatenated member ids, each id's cube, each
  cube's measure): per-cube sums are one ``np.add.reduceat`` and
  ``np.add.at`` spreads them back to points, for (n,) or (n, k) input
  alike.  The same index gives the oscillation sums
  sum_{R in S, R within Q} Omega(R) chi_R through one containment
  relation over the family (``_CubeIndex``).

All paths are exact reorganizations of the defining finite sums, not
approximations.  The one exception is a grand maximal value at or below
a floor given to ``region_grand_maximal``: it is reported as the floor.

Rounding margin of the C_b bounds
---------------------------------
A bound must dominate the *computed* kernel value, whose split form
cancels, so its error scales with A_B(x) = (|b(x)| G + H) / mu(B), G =
sum_B u and H = sum_B |b| u, not with the value.  With u = 2^-53 and
gamma_k = k u / (1 - k u): the computed running sums and totals miss
the exact ones by at most gamma_{n+1} G or gamma_{n+1} H, so the
computed value lies within 3 gamma_{n+3} A_B(x) + u Phi_B(b(x)) of
Phi_B(b(x)), taken over the same float measure (the final division
adds the relative u).  A direct sum of nonnegative terms along a
center's order lies within gamma_{n+3} Phi_B(b(x)) <= gamma_{n+3}
A_B(x) of it, so the kernel's value lies within 4 gamma_{n+3} A_B(x)
of the direct sum.
The computed Phi_B(q_i) of the chords are at least (1 - gamma_{n+3})
times the exact ones, and the computed chord of two suffix maxima S_lo,
S_hi misses the exact chord by at most gamma_6 max(S_lo, S_hi); with
beta = max(|q_i|, |q_{i+1}|) >= |b(x)|, both are at most gamma_{n+3}
(beta sG + sH), where sG and sH are the suffix maxima of G / mu(B) and
H / mu(B) from the same pass.  So bounds are raised, and lower values
lowered, by ``CB_MARGIN`` = 2^-36 times beta sG + sH or A_B(x): that is
more than 5 gamma_{n+9} (1 + gamma_{n+3}) for n <= MAX_POINTS
(gamma_{4105} is 4.6e-13, 2^-36 is 1.5e-11), which also covers the
rounding of the margin itself.  The analysis assumes that no step
underflows or overflows; a column whose input is not finite takes the
exact stage over every ball.

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
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .space import QuasiMetricSpace, _distinct, _point_words


@dataclass
class OperatorResult:
    """Values per point plus, when the operator is a supremum and the
    caller asks, the canonical ball id attaining it at each point
    (lowest id on ties)."""

    values: np.ndarray
    witnesses: Optional[np.ndarray] = None


# -- maximal function --------------------------------------------------------


def _ball_slots(space: QuasiMetricSpace) -> Tuple[int, np.ndarray]:
    """(width, pslot): the longest radius-sorted ball list, and
    pslot[x, c], the slot of the smallest ball at c holding x (int32,
    as the table's ball ids are)."""
    t = space.ball_table()
    return int(np.diff(t.start).max()), np.subtract(t.ptr, t.start[:-1], dtype=np.int32)


# float entries per (rows x columns) plane of the kernel's class path
# (``_indicator_values``); its and ``_distinct_rows``' set-up scratch
# goes in chunks of as many bytes, the ball sups' and the C_b bounds'
# blocks and chunks take at least an eighth as many floats, and the
# probe images' blocks (``_spans``) a sixty-fourth
KERNEL_BLOCK = 1 << 19


# breakpoints of the C_b chord bounds: q_0 = min b, the quantiles of b
# at i / QUANTILES, and q_QUANTILES = max b
QUANTILES = 32
# slots per group of the C_b chord tables' suffix maxima
GROUP = 8
# relative rounding margin of the C_b bounds (module docstring)
CB_MARGIN = 2.0**-36


def _floats(size: int) -> int:
    """A block or chunk size of size floats, raised to at least
    ``KERNEL_BLOCK // 8`` so that a small space takes one block."""
    return max(KERNEL_BLOCK // 8, size)


def _spans(count: int, n: int, unit: int = 1) -> List[slice]:
    """Slices covering range(count) in order, max(2, ``KERNEL_BLOCK //
    64 // n``) indices each, or the whole units that fit when unit is
    smaller: the blocks of probe columns and probed balls, n entries
    each, that the probe images are built and read in.  A lone last
    index joins the slice before it, since numpy sums and multiplies a
    one-row block as a contiguous vector (pairwise sums, gemv), which
    can round otherwise than the same row of a wider block."""
    step = max(2, KERNEL_BLOCK // 64 // max(1, n))
    if unit < step:
        step -= step % unit
    edges = list(range(0, count, step))
    if len(edges) > 1 and count - edges[-1] == 1:
        edges.pop()
    return [slice(a, b) for a, b in zip(edges, edges[1:] + [count])]


def _suffix_max(
    space: QuasiMetricSpace,
    blocks: Iterable[Tuple[slice, np.ndarray]],
    k: int,
    want_slot: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The suffix max of per-ball values along each center's list as a
    (slots x centers x k) table, -inf past a center's last ball, and
    with want_slot the lowest slot attaining each entry.  blocks yields
    (ids, per_ball): a slice of ball ids and their (balls, k) values,
    each placed in the table as it comes, so no (balls x k) array of
    every ball's values is needed.  The balls at c holding x are the
    suffix from pslot[x, c] on, so table[pslot[x, c], c] is their sup."""
    t = space.ball_table()
    n = space.n
    width = int(np.diff(t.start).max())  # the longest ball list
    table = np.full((width, n, k), -np.inf)
    # one flat row index scatters faster than the (slot, center) pair;
    # each block's rows come from its own ids, in int64 so that
    # slot * n (up to n^2) cannot wrap
    flat = table.reshape(width * n, k)
    for ids, per_ball in blocks:
        center = t.center[ids].astype(np.int64)
        row = np.arange(ids.start, ids.stop) - t.start[center]
        row *= n
        row += center
        flat[row] = per_ball
        del per_ball  # freed before the next block is built
    arg = None
    if want_slot:
        arg = np.empty(table.shape, dtype=np.int64)
        arg[-1] = width - 1
    for s in range(width - 2, -1, -1):
        if want_slot:
            # slot s attains its suffix max unless a later slot beats it
            arg[s] = np.where(table[s] >= table[s + 1], s, arg[s + 1])
        np.maximum(table[s], table[s + 1], out=table[s])
    return table, arg


def _sup_over_balls(
    space: QuasiMetricSpace,
    blocks: Iterable[Tuple[slice, np.ndarray]],
    k: int,
    want_witness: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per point x and column, the max of the per-ball values that
    blocks yields (as ``_suffix_max`` takes them, k columns) over the
    canonical balls containing x and, with want_witness, the lowest
    ball id attaining it (else None).  The table is read in chunks of
    points whose (points x centers x k) gather stays within one
    (centers x k) plane per point, or ``KERNEL_BLOCK // 8`` floats if
    more."""
    t = space.ball_table()
    n = space.n
    suf, arg = _suffix_max(space, blocks, k, want_slot=want_witness)
    starts = t.start[:-1]
    centers = np.arange(n)[None, :]
    values = np.empty((n, k))
    witnesses = np.empty((n, k), dtype=np.int64) if want_witness else None
    chunk = _floats(n * k) // (n * k)
    for x0 in range(0, n, chunk):
        x = slice(x0, min(n, x0 + chunk))
        # the chunk's rows of pslot (see ``_ball_slots``)
        pslot = np.subtract(t.ptr[x], starts, dtype=np.int32)
        cand = suf[pslot, centers]  # (x, c, columns)
        best = cand.max(axis=1)
        values[x] = best
        if want_witness:
            ids = arg[pslot, centers]
            ids += starts[None, :, None]
            ids[cand != best[:, None, :]] = np.iinfo(np.int64).max
            witnesses[x] = ids.min(axis=1)
    return values, witnesses


def _ball_averages(
    space: QuasiMetricSpace, w: np.ndarray, uncut: Optional[np.ndarray] = None
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Per block of ``ball_sum_blocks``: (ids, averages), the sums of w
    (n, k) over each ball, or with uncut (balls, functions) its sums
    minus them (w then holds k / functions columns per function), over
    the ball's measure.  The cumsum scratch stays within one (centers x
    k) plane of a suffix max table."""
    t = space.ball_table()
    for ids, v in space.ball_sum_blocks(w, _floats(space.n * w.shape[1])):
        if uncut is not None:
            cut = v.reshape(len(v), uncut.shape[1], -1)
            np.subtract(uncut[ids, :, None], cut, out=cut)
            del cut  # a view would keep the block alive
        v /= t.measure[ids, None]
        yield ids, v
        del v  # freed before the next block is built


def maximal_function(
    space: QuasiMetricSpace, f: np.ndarray, want_witness: bool = False
) -> OperatorResult:
    """M f(x) = max over balls containing x of avg_B |f|.

    f is (n,) or (n, k) with one function per column; values take the
    same shape, and so do the witnesses (the lowest canonical ball
    attaining each value) when asked for, else they are None.  Columns
    go in even blocks whose suffix max table stays within min(balls x
    n, 8 ``KERNEL_BLOCK``) floats, or one column if more; each block's
    averages come from ``ball_sum_blocks`` straight into the table, one
    block of centers at a time.
    """
    t = space.ball_table()
    n = space.n
    f = np.asarray(f, dtype=np.float64)
    w = np.abs(f.reshape(len(f), -1))
    w *= space.mass[:, None]
    k = w.shape[1]
    values = np.empty(w.shape)
    witnesses = np.empty(w.shape, dtype=np.int64) if want_witness else None
    width = int(np.diff(t.start).max())  # the longest ball list
    blocks = -(-k // max(1, _floats(min(len(t.center) * n, 8 * KERNEL_BLOCK)) // (width * n)))
    step = -(-k // blocks) if blocks else 1
    for j0 in range(0, k, step):
        j = slice(j0, min(k, j0 + step))
        values[:, j], arg = _sup_over_balls(
            space, _ball_averages(space, w[:, j]), j.stop - j0, want_witness
        )
        if want_witness:
            witnesses[:, j] = arg
    if want_witness:
        witnesses = witnesses.reshape(f.shape)
    return OperatorResult(values.reshape(f.shape), witnesses)


# -- maximal commutator ------------------------------------------------------


def _distinct_rows(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of a uint8 matrix, as
    ``np.unique(packed, axis=0, return_index=True, return_inverse=True)``
    gives them: classes in lexicographic row order, each with its
    lowest row id.  Rows are read as big-endian uint64 words, so
    ``np.lexsort`` on the words (``np.argsort`` on one) orders them as
    the bytes do, a class starts wherever a row differs from the one
    before it, and its lowest row is its least entry in the order.  A
    C-contiguous matrix whose width is a multiple of 8 is read in place;
    any other is first copied into zero-padded words.  Neighbours are
    compared in chunks of ``KERNEL_BLOCK`` bytes."""
    rows, width = packed.shape
    if width % 8 or not packed.flags.c_contiguous:
        padded = np.zeros((rows, -(-width // 8) * 8), dtype=np.uint8)
        padded[:, :width] = packed
        packed = padded
    keys = packed.view(">u8")
    new = np.ones(rows, dtype=bool)
    if keys.shape[1] == 1:
        # one word sorts several times faster unstably, and its sorted
        # copy marks the class starts; the lowest row of a class is then
        # its least entry in the order
        key = keys[:, 0].astype(np.uint64)
        order = np.argsort(key)
        key.sort()
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
    else:
        order = np.lexsort(keys.T[::-1])
        # equal rows have equal words in either byte order
        words = packed.view(np.uint64)
        step = max(1, KERNEL_BLOCK // packed.shape[1])
        for i in range(1, rows, step):
            here = order[i : i + step]
            before = order[i - 1 : i - 1 + len(here)]
            new[i : i + len(here)] = np.any(words[here] != words[before], axis=1)
    inverse = np.empty(rows, dtype=np.int64)
    ranks = np.cumsum(new)
    ranks -= 1
    inverse[order] = ranks
    del ranks
    return np.minimum.reduceat(order, np.flatnonzero(new)), inverse


def _member_classes(space: QuasiMetricSpace) -> Tuple[np.ndarray, np.ndarray]:
    """The class map (first, inverse), memoized on the space read-only:
    the canonical balls with equal member sets form a class, numbered
    by its lowest ball id, which first lists in ascending order, and
    inverse gives each ball's class.

    Equal sets have equal counts, and a count group has at most n balls
    (one per center), so the balls go in count order, in chunks of
    whole count groups of at most limit = max(n, ``KERNEL_BLOCK // n``)
    balls and limit // n counts, and ``_distinct_rows`` finds each
    chunk's classes.  A ball's members as bits are its center's prefix
    words at its count: for the chunk's counts, one-hot words of the
    next points along every center's order, ORed in running order onto
    each center's words at the count before, so the chunk's scratch
    stays within limit balls' words.  Ids ascend within a group, so a
    class's lowest row in its chunk is its lowest ball."""
    if "member_classes" not in space._cache:
        t = space.ball_table()
        n = space.n
        nb = len(t.center)
        by_count = np.argsort(t.count, kind="stable")
        edges = np.cumsum(np.bincount(t.count, minlength=n + 1)).tolist()
        limit = max(n, KERNEL_BLOCK // n)
        one = _point_words(n)
        prefix = np.zeros_like(one)  # each center's first k0 points
        lowest = np.empty(nb, dtype=np.int64)  # each ball's class at its lowest id
        k0 = 0
        while k0 < n:
            # counts k0 + 1 .. k1, whole groups within limit balls
            k1 = k0 + 1
            while k1 < n and k1 - k0 < limit // n and edges[k1 + 1] - edges[k0] <= limit:
                k1 += 1
            # words[j, c]: c's first k0 + j + 1 points (count-major, so the
            # running OR steps over whole planes)
            words = np.take(one, t.order[:, k0:k1].T, axis=0)
            words[0] |= prefix
            if k1 - k0 > 1:
                np.bitwise_or.accumulate(words, axis=0, out=words)
            ids = by_count[edges[k0] : edges[k1]]
            if len(ids):
                rows = words[t.count[ids] - 1 - k0, t.center[ids]]
                first, inverse = _distinct_rows(rows.view(np.uint8))
                lowest[ids] = ids[first][inverse]
            prefix = words[-1]
            k0 = k1
        del by_count, words, prefix
        head = lowest == np.arange(nb)
        number = np.cumsum(head)
        number -= 1
        first, inverse = np.flatnonzero(head), number[lowest]
        for a in (first, inverse):
            a.flags.writeable = False
        space._cache["member_classes"] = (first, inverse)
    return space._cache["member_classes"]  # type: ignore[return-value]


class CommutatorKernel:
    """Reusable evaluator for C_b f(x) = sup_{B owns x} avg_B |b(x)-b(.)| |f|.

    ``apply`` takes (n,) or (n, k) input and sends every column through
    the chord bounds and then exact balls (``_bounded``).  The probe
    images' ball indicators take the class path instead
    (``_indicator_values``), which alone reads the member classes of the
    canonical balls as packed bits: ``bits[j]`` is the ``np.packbits``
    of which rows hold the j-th point in symbol order, one row per
    member class at its lowest ball id (``ball_ids``) with the least
    measure of its twins (``mu``).  They are built on their first read,
    so ``apply`` builds no bit table.  The bounds carry the rounding
    margin stated in the module docstring.  ``exact_balls`` counts the
    (ball, column) pairs the last ``apply`` evaluated exactly after the
    bounds.
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
        self.exact_balls = 0

    @cached_property
    def ball_ids(self) -> np.ndarray:
        """The lowest ball id of each member class, ascending."""
        return _member_classes(self.space)[0]

    @cached_property
    def mu(self) -> np.ndarray:
        """Each class's least measure over its twins (summed in other
        centers' orders, the measures can differ)."""
        mu = np.full(len(self.ball_ids), np.inf)
        np.minimum.at(mu, _member_classes(self.space)[1], self.space.ball_table().measure)
        return mu

    @cached_property
    def bits(self) -> np.ndarray:
        """(positions x rows) membership bits, packed along the rows."""
        t = self.space.ball_table()
        n = self.space.n
        # rank_s[c, j]: the place of the j-th point in symbol order along
        # c's distance order, so ball i holds it when below count[i]
        # (C-ordered: the fancy index alone leaves each row strided)
        rank_s = np.ascontiguousarray(t.rank[:, self.order])
        # built through a (positions x rows) mask of at most KERNEL_BLOCK
        # bytes whose row count is a multiple of 8, so each chunk packs
        # into whole bytes; a center's rows are contiguous
        ids = self.ball_ids
        rows = len(ids)
        bits = np.empty((n, -(-rows // 8)), dtype=np.uint8)
        bounds = np.searchsorted(t.center[ids], np.arange(n + 1))
        step = max(8, KERNEL_BLOCK // n // 8 * 8)
        mask = np.empty((n, step), dtype=bool)
        for r0 in range(0, rows, step):
            r1 = min(rows, r0 + step)
            for c in range(t.center[ids[r0]], t.center[ids[r1 - 1]] + 1):
                lo, hi = max(bounds[c], r0), min(bounds[c + 1], r1)
                np.less(rank_s[c, :, None], t.count[ids[lo:hi]], out=mask[:, lo - r0 : hi - r0])
            bits[:, r0 // 8 : -(-r1 // 8)] = np.packbits(mask[:, : r1 - r0], axis=1)
        return bits

    def apply(self, f: np.ndarray, want_witness: bool = False) -> OperatorResult:
        """C_b |f| with f (n,) or (n, k), one function per column; the
        witness is the lowest canonical ball attaining the sup.

        Per ball, sum_{y in B} |b(x) - b(y)| u(y) splits at x's position
        in symbol order into b(x)(2 cA - TA) + (TB - 2 cB), with cA, cB
        the running sums of u and b u up to x and TA, TB the ball's
        totals, each added in symbol order as a cumsum would.  Twins
        (balls with the same members) have the same sums, so the sup
        over balls is the sup over member classes, each over its least
        measure, and ties go to the lowest ball id of the lowest class.
        Every column goes through the chord bounds and then exact balls
        (``_bounded``).
        """
        n = self.space.n
        f = np.asarray(f, dtype=np.float64)
        u = f.reshape(n, -1)[self.order]
        np.abs(u, out=u)
        if self.constant:
            # every ball then sums to exactly 0, so each point's witness
            # is the lowest ball owning it
            u[:] = 0.0
        u *= self.space.mass[self.order, None]
        self.exact_balls = 0
        best, arg = self._bounded(u, want_witness)
        values = np.empty_like(best)
        values[self.order] = np.maximum(best, 0.0)
        witnesses = None
        if want_witness:
            witnesses = np.empty_like(arg)
            witnesses[self.order] = arg
            witnesses = witnesses.reshape(f.shape)
        return OperatorResult(values.reshape(f.shape), witnesses)

    def _indicator_values(self, f: np.ndarray) -> np.ndarray:
        """``apply``'s values of the columns of f (n, k), each with |f|
        in {0, 1}, through one set of running sums per distinct
        intersection (the probe images' ball indicators).

        Such a column has u = m 1_{B'}.  Its sums start at +0.0 and only
        ever add +-0.0 off B', which leaves their bits alone, so a
        class's four sums depend only on r & B' and are the bits the
        per-ball sums of ``apply`` give.  The columns go in chunks of
        ``_chunk`` (``_by_classes``)."""
        n = self.space.n
        rows = len(self.mu)
        # each row's members in symbol order as whole words
        words = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
        words[:, : (n + 7) // 8] = _transposed_bits(self.bits, rows)
        words = words.view(np.uint64)
        # masses are positive, so B' is where f is nonzero; a constant
        # symbol annihilates the kernel, as in apply
        inside = (f[self.order] != 0.0) & (not self.constant)
        values = np.empty(inside.shape)
        chunk = self._chunk()
        for j0 in range(0, inside.shape[1], chunk):
            values[:, j0 : j0 + chunk] = self._by_classes(words, inside[:, j0 : j0 + chunk])
        np.maximum(values, 0.0, out=values)
        return values

    def _chunk(self) -> int:
        """The columns per chunk of ``_indicator_values``: their (row,
        column) intersections take at most one (rows x step) plane of
        words, step = min(``KERNEL_BLOCK`` // rows, n) columns, or
        ``KERNEL_BLOCK // 8`` floats if more."""
        rows, n = len(self.mu), self.space.n
        step = max(1, min(KERNEL_BLOCK // rows, n))
        return max(1, _floats(rows * step) // (rows * -(-n // 64)))

    def _bounded(self, u: np.ndarray, want_witness: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """C_b of the columns of u (n, k), in symbol order, per symbol
        position, and with want_witness each one's witness: the chord
        bounds, then exact balls.

        A zero column (also the constant symbol's) has every sum +0.0,
        so each point's witness is the lowest ball owning it, its
        pointer at center 0.  A column that is not finite takes the
        exact stage over every ball.  The others go in groups whose
        chord columns fit one center's block (``_chords``), or one
        column if more.  Per group, low[x, j], a lower bound of column
        j's sup at x, starts from the direct sums of the balls centered
        at x (``_direct``).  The chord bounds keep the (point, center,
        column) triples that can reach it; the best-bounded triple of
        each point and column is summed directly first, which raises
        low, and the rest that still reach it after.  Every ball whose
        upper value reached low[x, j] at some x is then evaluated
        exactly for column j at all its points (``_exact``)."""
        t = self.space.ball_table()
        n, k = u.shape
        best = np.empty((n, k))
        arg = np.empty((n, k), dtype=np.int64) if want_witness else None
        g = np.empty_like(u)
        g[self.order] = u
        zero = ~u.any(axis=0)
        best[:, zero] = 0.0
        if want_witness:
            arg[:, zero] = t.ptr[self.order, 0, None]
        finite = np.isfinite(g).all(axis=0) & bool(np.isfinite(self.b).all()) & ~zero
        # rows: each ball's divisor and the balls skipped.  With the class
        # map at hand, one ball per class (its lowest) over the class's
        # least measure; else every ball over its own
        if want_witness or "member_classes" in self.space._cache:
            dead = np.ones(len(t.center), dtype=bool)
            dead[self.ball_ids] = False
            rows = (self.mu[_member_classes(self.space)[1]], dead)
        else:
            rows = (t.measure, None)
        for j in np.flatnonzero(~(finite | zero)).tolist():
            needed = np.ones((len(t.center), 1), dtype=bool)
            best[:, j : j + 1], part = self._exact(u[:, j : j + 1], needed, rows, want_witness)
            if want_witness:
                arg[:, j : j + 1] = part
        live = np.flatnonzero(finite)
        q = _distinct(self.b_s[np.arange(QUANTILES + 1) * (n - 1) // QUANTILES])
        step = max(1, _floats(n * (len(q) + 2)) // (n * (len(q) + 2)))
        for j0 in range(0, len(live), step):
            cols = live[j0 : j0 + step]
            low = np.full((n, len(cols)), -np.inf)
            needed = np.zeros((len(t.center), len(cols)), dtype=bool)
            x, j = np.divmod(np.arange(n * len(cols)), len(cols))
            self._direct(g[:, cols], x, x, j, low, needed, rows)
            x, c, j, bound = self._chords(q, g[:, cols], low, rows)
            # the best-bounded center of each point and column first
            by_bound = np.lexsort((-bound, x * len(cols) + j))
            head = np.ones(len(x), dtype=bool)
            head[1:] = (x[by_bound[1:]] != x[by_bound[:-1]]) | (j[by_bound[1:]] != j[by_bound[:-1]])
            top = by_bound[head]
            self._direct(g[:, cols], x[top], c[top], j[top], low, needed, rows)
            head = bound >= low[x, j]
            head[top] = False
            self._direct(g[:, cols], x[head], c[head], j[head], low, needed, rows)
            del x, c, j, bound, by_bound, head, top
            best[:, cols], part = self._exact(u[:, cols], needed, rows, want_witness)
            if want_witness:
                arg[:, cols] = part
        return best, arg

    def _chords(self, q: np.ndarray, g: np.ndarray, low: np.ndarray, rows) -> Tuple[np.ndarray, ...]:
        """(x, c, j, bound): the (point, center, column) triples, c != x,
        whose chord bound for column j of g reaches low[x, j], and their
        bounds.

        With breakpoints q_0 = min b < ... < q_Q = max b, each ball's
        Phi_B(q_i) = sum_B |q_i - b| g / mu(B) comes from one
        ``ball_sum_blocks`` pass over the columns |q_i - b| g, plus g
        and |b| g for the margin.  Phi_B is convex, so on [q_i, q_{i+1}]
        around b(x) it lies below its chord, and a max of chords below
        the chord of the maxima: per center, the suffix max of each
        column over its radius-sorted balls, read at x's pointer as M
        reads it, bounds every ball there holding x.  The suffix max is
        taken within groups of ``GROUP`` slots and then over the groups,
        so its one sequential scan runs over a GROUP-th of the slots.
        Centers go in blocks whose cumulative sums stay within one
        center's columns, or ``KERNEL_BLOCK // 8`` floats if more."""
        space = self.space
        t = space.ball_table()
        n, k = g.shape
        b = self.b
        lo = np.searchsorted(q, b, side="right") - 1
        np.minimum(lo, len(q) - 2, out=lo)
        tau = ((b - q[lo]) / (q[lo + 1] - q[lo]))[:, None, None]
        beta = np.maximum(np.abs(q[lo]), np.abs(q[lo + 1]))[:, None, None]
        width = len(q) + 2
        w = np.empty((n, k, width))
        np.subtract(q, b[:, None, None], out=w[:, :, :-2])
        np.abs(w, out=w)
        w[:, :, -2] = 1.0
        w[:, :, -1] = np.abs(b)[:, None]
        w *= g[:, :, None]
        # per point and column, the table columns it reads: q_i and
        # q_{i+1} around b(x), then g and |b| g
        cols = np.stack([lo, lo + 1, np.full(n, width - 2), np.full(n, width - 1)], axis=1)
        cols = (cols[:, None, :] + (np.arange(k) * width)[:, None])[:, None]
        found: List[Tuple[np.ndarray, ...]] = []
        for ids, phi in space.ball_sum_blocks(w.reshape(n, -1), _floats(w.size)):
            phi /= rows[0][ids, None]
            if rows[1] is not None:
                phi[rows[1][ids]] = -np.inf
            c0, c1 = int(t.center[ids.start]), int(t.center[ids.stop - 1]) + 1
            first = t.start[c0:c1]
            # each center's balls in groups of GROUP slots, -inf past its
            # last ball and in one whole group after it
            groups = int((t.start[c0 + 1 : c1 + 1] - first).max()) // GROUP + 2
            table = np.full(((c1 - c0) * groups * GROUP, phi.shape[1]), -np.inf)
            row = np.arange(ids.start, ids.stop) - first[t.center[ids] - c0]
            row += (t.center[ids] - c0) * (groups * GROUP)
            table[row] = phi
            del phi, row
            # the suffix max within each group, then top[j]: the max over
            # the center's groups from j on
            within = table.reshape(-1, GROUP, table.shape[1])
            for i in range(GROUP - 2, -1, -1):
                np.maximum(within[:, i], within[:, i + 1], out=within[:, i])
            top = within[:, 0].copy()
            tail = top.reshape(c1 - c0, groups, -1)[:, ::-1]
            np.maximum.accumulate(tail, axis=1, out=tail)
            # the balls at c holding x are its slots from s on: the rest
            # of s's group and every later group
            s = t.ptr[:, c0:c1] - first
            s += np.arange(c1 - c0) * (groups * GROUP)
            here = np.take(table, (s * table.shape[1])[:, :, None, None] + cols)
            s //= GROUP
            s += 1
            np.maximum(here, np.take(top, (s * top.shape[1])[:, :, None, None] + cols), out=here)
            del table, top, s
            # (x, c, column) bounds: the chord plus the margin; a pair whose
            # balls are all skipped twins reads -inf, and its nan is no hit
            with np.errstate(invalid="ignore"):
                bound = here[..., 1] - here[..., 0]
                bound *= tau
                bound += here[..., 0]
                margin = here[..., 2] * beta
                margin += here[..., 3]
                margin *= CB_MARGIN
                bound += margin
            del here, margin
            keep = bound >= low[:, None, :]
            keep[np.arange(c0, c1), np.arange(c1 - c0)] = False
            x, c, j = np.nonzero(keep)
            bound = bound[x, c, j]
            # points and centers (below n) and columns kept narrow
            found.append((x.astype(np.int32), (c + c0).astype(np.int32), j.astype(np.int32), bound))
        return tuple(np.concatenate(a) for a in zip(*found))

    def _direct(self, g, xs, cs, js, low: np.ndarray, needed: np.ndarray, rows) -> None:
        """Sum |b(x) - b| g[:, j] over every ball at c holding x, for the
        triples (x, c, j) of xs, cs and js, along c's distance order:
        each sum within the rounding margin of the kernel's value, so
        below and above it once the margin is taken off or added.
        low[x, j] is raised to the best lower value, and each ball whose
        upper value reaches low[x, j] is marked in needed[:, j].
        Triples go in (center, column) order, in blocks whose cumulative
        sums stay within ``KERNEL_BLOCK // 16`` floats, or one triple if
        more, leaving as much again for the per-ball arrays; a block
        sums g and |b| g once per (center, column) pair, and |b(x) - b|
        g once per triple."""
        t = self.space.ball_table()
        n = self.space.n
        b = self.b
        k = low.shape[1]
        key = cs * k + js
        by_key = np.argsort(key, kind="stable")
        step = max(1, _floats(3 * n) // (6 * n))
        for p0 in range(0, len(xs), step):
            p = by_key[p0 : p0 + step]
            x, c, j = xs[p], cs[p], js[p]
            # the block's (center, column) pairs, and each triple's
            new = np.diff(key[p], prepend=-1) != 0
            pairs = np.flatnonzero(new)
            own = np.cumsum(new) - 1
            order = t.order[c[pairs]]
            mass = g[order, j[pairs, None]]
            sym = np.abs(b[order])
            sym *= mass
            dev = np.subtract(b[x, None], b[t.order[c]])
            np.abs(dev, out=dev)
            dev *= mass[own]
            for a in (dev, mass, sym):
                np.cumsum(a, axis=1, out=a)
            # the balls at c holding x: ids ptr[x, c] up to c's last
            first = t.ptr[x, c].astype(np.int64)
            size = t.start[c + 1] - first
            ends = np.cumsum(size)
            pair = np.repeat(np.arange(len(x)), size)
            ids = np.arange(int(ends[-1])) + np.repeat(first - (ends - size), size)
            at = t.count[ids] - 1
            measure = rows[0][ids]
            value = dev[pair, at] / measure
            if rows[1] is not None:
                value[rows[1][ids]] = -np.inf
            margin = np.abs(b[x])[pair] * mass[own[pair], at]
            margin += sym[own[pair], at]
            margin /= measure
            margin *= CB_MARGIN
            flat = x * k + j
            np.maximum.at(low.reshape(-1), flat, np.maximum.reduceat(value - margin, ends - size))
            value += margin
            hit = value >= low.reshape(-1)[flat][pair]
            needed[ids[hit], j[pair[hit]]] = True

    def _exact(
        self, u: np.ndarray, needed: np.ndarray, rows, want_witness: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The kernel's values of the columns of u (in symbol order), per
        symbol position, over the balls marked in needed (balls x
        columns), and with want_witness the lowest ball id of the
        lowest class attaining each.  Per marked (ball, column), the
        sums are one masked cumsum of u and one of b u in symbol order,
        with +0.0 added so that a sum is never -0.0 (the running sums
        start at +0.0), and the values (2 cA - TA) b + (TB - 2 cB) over
        the ball's divisor in rows: twins share the sums, so the least
        measure among them gives the largest value.  Pairs go in blocks
        whose (pairs x n) arrays stay within ``KERNEL_BLOCK // 8``
        floats, or one pair if more."""
        t = self.space.ball_table()
        n, k = u.shape
        j, ids = np.nonzero(needed.T)
        self.exact_balls += len(ids)
        u_t = np.ascontiguousarray(u.T)
        bu_t = u_t * self.b_s
        best = np.full((k, n), -np.inf)
        arg = np.full((k, n), np.iinfo(np.int64).max) if want_witness else None
        step = max(1, _floats(n) // n)
        for r0 in range(0, len(ids), step):
            r, col = ids[r0 : r0 + step], j[r0 : r0 + step]
            inside = t.rank[t.center[r]][:, self.order] < t.count[r, None]
            # off the ball, 0 * u is +0.0 and 0 * b u is +-0.0, and adding
            # +-0.0 leaves a sum's bits alone but for the sign of a zero
            here, cB = u_t[col], bu_t[col]
            for a in (here, cB):
                a *= inside
                np.cumsum(a, axis=1, out=a)
                a += 0.0
            # in the order (2 cA - TA) b + (TB - 2 cB)
            total = here[:, -1:].copy(), cB[:, -1:].copy()
            here *= 2.0
            here -= total[0]
            here *= self.b_s
            cB *= 2.0
            np.subtract(total[1], cB, out=cB)
            here += cB
            del cB
            here /= rows[0][r, None]
            here[~inside] = -np.inf
            # one segment of rows per column
            start = np.flatnonzero(np.diff(col, prepend=-1))
            seg = col[start]
            top = np.maximum.reduceat(here, start, axis=0)
            if want_witness:
                rep = np.repeat(np.arange(len(start)), np.diff(start, append=len(col)))
                mine = np.where(here == top[rep], r[:, None], np.iinfo(np.int64).max)
                mine = np.minimum.reduceat(mine, start, axis=0)
                was = best[seg]
                tie = np.where(top == was, np.minimum(arg[seg], mine), arg[seg])
                arg[seg] = np.where(top > was, mine, tie)
            best[seg] = np.maximum(best[seg], top)
        return best.T, (arg.T if want_witness else None)

    def _by_classes(self, words: np.ndarray, inside: np.ndarray) -> np.ndarray:
        """The values, per point and before the clamp at 0, of the
        indicator columns whose sets B' in symbol order are the columns
        of inside (n, k), through one set of running sums per distinct
        intersection r & B'; words holds each row's members as whole
        words."""
        n = self.space.n
        rows, width = words.shape
        k = inside.shape[1]
        packed = np.zeros((k, width * 8), dtype=np.uint8)
        packed[:, : (n + 7) // 8] = np.packbits(inside.T, axis=1)
        pairs = (words[:, None, :] & packed.view(np.uint64)[None, :, :]).reshape(rows * k, width)
        del packed
        first, cls = _distinct_rows(pairs.view(np.uint8))
        classes = len(first)
        # per position, which classes hold it, packed along the classes
        on = _transposed_bits(pairs[first].view(np.uint8), n)
        del pairs, first
        cls = cls.reshape(rows, k)
        m = self.space.mass[self.order]
        bm = self.b_s * m
        TA, TB = np.zeros(classes), np.zeros(classes)
        for j, there in enumerate(_unpacked(on, classes)):
            np.add(TA, m[j], out=TA, where=there)
            np.add(TB, bm[j], out=TB, where=there)
        # the running sums of a block of positions, one row each after
        # the row carried from the block before; each table stays within
        # one (rows x k) plane and becomes the block's values in place
        block = min(n, max(1, rows * k // classes - 1))
        cA, cB = np.zeros((block + 1, classes)), np.zeros((block + 1, classes))
        values = np.empty((n, k))
        # per position in symbol order, the (rows,) bool of which rows hold it
        holders = _unpacked(self.bits, rows)
        for j0 in range(0, n, block):
            j1 = min(n, j0 + block)
            A, B = cA[: j1 - j0 + 1], cB[: j1 - j0 + 1]
            there = np.unpackbits(on[j0:j1], axis=1, count=classes)
            np.multiply(there, m[j0:j1, None], out=A[1:])
            np.multiply(there, bm[j0:j1, None], out=B[1:])
            del there
            for i in range(1, len(A)):
                np.add(A[i - 1], A[i], out=A[i])
                np.add(B[i - 1], B[i], out=B[i])
            carry = A[-1].copy(), B[-1].copy()
            # per class, in the order (2 cA - TA) b + (TB - 2 cB)
            per, tail = A[1:], B[1:]
            per *= 2.0
            per -= TA
            per *= self.b_s[j0:j1, None]
            tail *= 2.0
            np.subtract(TB, tail, out=tail)
            per += tail
            for x, row, holding in zip(self.order[j0:j1], per, holders):
                idx = np.flatnonzero(holding)
                here = np.take(row, np.take(cls, idx, axis=0))
                here /= np.take(self.mu, idx)[:, None]
                values[x] = here.max(axis=0)
            cA[0], cB[0] = carry
        return values


def _unpacked(bits: np.ndarray, count: int) -> Iterator[np.ndarray]:
    """Each row of bits, packed along count entries, as a (count,) bool,
    unpacked in groups of at most ``KERNEL_BLOCK`` bytes."""
    group = max(1, KERNEL_BLOCK // max(1, count))
    for j0 in range(0, len(bits), group):
        yield from np.unpackbits(bits[j0 : j0 + group], axis=1, count=count).view(bool)


def _transposed_bits(bits: np.ndarray, count: int) -> np.ndarray:
    """The (count, ceil(rows / 8)) packed transpose of rows of bits,
    each packed along count entries, built in chunks of rows whose
    unpacked block stays within ``KERNEL_BLOCK`` bytes."""
    rows = len(bits)
    out = np.empty((count, -(-rows // 8)), dtype=np.uint8)
    step = max(8, KERNEL_BLOCK // max(1, count) // 8 * 8)
    for r0 in range(0, rows, step):
        block = np.unpackbits(bits[r0 : r0 + step], axis=1, count=count)
        out[:, r0 // 8 : -(-(r0 + len(block)) // 8)] = np.packbits(block.T, axis=1)
    return out


def _maximal_pair(
    space: QuasiMetricSpace, b: np.ndarray, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(Mf, M(bf)) for every column f of cols (n, k), through one
    maximal function call; b is (n, 1)."""
    k = cols.shape[1]
    both = maximal_function(space, np.concatenate([cols, b * cols], axis=1)).values
    return both[:, :k], both[:, k:]


def commutator_bM(space: QuasiMetricSpace, b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """[b, M]f = b * Mf - M(bf) (signed values); f is (n,) or (n, k)
    with one function per column, all through one maximal function."""
    b = np.asarray(b, dtype=np.float64)[:, None]
    f = np.asarray(f, dtype=np.float64)
    mf, mbf = _maximal_pair(space, b, f.reshape(len(f), -1))
    return (b * mf - mbf).reshape(f.shape)


# -- local grand maximal -----------------------------------------------------


def _sub_balls(space: QuasiMetricSpace, region: np.ndarray) -> np.ndarray:
    """Ids of canonical balls whose member set lies inside the region."""
    t = space.ball_table()
    outside = np.ones(space.n, dtype=bool)
    outside[region] = False
    # per center, the first position of its order that leaves the region
    exit_at = np.where(outside[None, :], t.rank, space.n).min(axis=1)
    return np.flatnonzero(t.count <= exit_at[t.center])


def _sub_ball_classes(space: QuasiMetricSpace, sub_ids: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(rep, twin, enl): each class of sub-balls sharing member set and
    4 A0 enlargement E at its lowest sub-ball, each sub-ball's class, and
    each class's E as the table id at that sub-ball's center, read by
    ``space.ball_ids``.  The pairs (member class, E's member class) are
    deduplicated as one big-endian word each, and the classes numbered
    by their lowest sub-ball, so rep ascends."""
    t = space.ball_table()
    first, member = _member_classes(space)
    enl = space.ball_ids(t.center[sub_ids], 4.0 * space.a0 * t.radius[sub_ids])
    pair = member[sub_ids].astype(np.uint64) * np.uint64(len(first)) + member[enl].astype(np.uint64)
    rep, twin = _distinct_rows(pair.astype(">u8").view(np.uint8).reshape(-1, 8))
    keep = np.argsort(rep)
    number = np.empty_like(keep)
    number[keep] = np.arange(len(keep))
    return rep[keep], number[twin], enl[rep[keep]]


# bytes per suffix max table of an enlargement block of ``region_grand_maximal``
GRAND_BLOCK = 1 << 26


def region_grand_maximal(
    space: QuasiMetricSpace,
    region: np.ndarray,
    trunc: np.ndarray,
    fs: Sequence[np.ndarray],
    floors: Optional[Sequence[float]] = None,
    want_witness: bool = False,
) -> Tuple[List[np.ndarray], Optional[List[np.ndarray]], np.ndarray]:
    """Grand maximal values on a region for several functions at once.

    For each sub-ball B of the region, the inner quantity is
    max over balls B' meeting B of avg_{B'}(|f| restricted to
    trunc minus the 4 A0 enlargement of B); the outer sup is over
    sub-balls containing x.  Returns per-function value arrays (full
    length, zero off the region), with want_witness per-function
    witness arrays (the outer sub-ball id, -1 off the region; else
    None), and the sub-ball id list.

    ``floors`` gives one finite, nonnegative floor per function.  Then
    a region point reports the max of its value and the floor: exact
    wherever it exceeds the floor, and the floor itself elsewhere, with
    witness -1 wherever the floor is reported.  Without floors values
    are exact, clipped below at 0.

    Sub-balls sharing their member set and their enlargement have the
    same inner value, so each such class is evaluated once.  The cut
    averages depend on a class only through its enlargement E, and the
    balls at c' meeting B are the suffix of c''s list from the smallest
    one meeting B, so each class reads n entries of the suffix max
    table of its E.

    Given floors, a class is evaluated only if its bound exceeds a
    floor.  The bound is the max of the uncut averages over the balls
    B' that meet B and are not inside E: at each center c' a suffix of
    its list, from the later of the smallest ball meeting B and the
    smallest ball holding a point outside E, so one read of the uncut
    suffix max table per center.  A B' inside E has cut average
    exactly 0 (its cut and uncut sums are one cumsum over the same
    values), never above a floor; any other B' has cut average at most
    its uncut one bit for bit (fl(a - b) <= a for b >= 0, and dividing
    by the measure is monotone).  If E is the whole space, no ball
    leaves it and the class is skipped.  So skipping changes no value
    or witness.  Enlargements go in blocks whose suffix max table
    stays within (balls x n) floats and ``GRAND_BLOCK`` bytes; the cut
    averages go into it one ``ball_sum_blocks`` block at a time.
    """
    t = space.ball_table()
    n = space.n
    nb = len(t.center)
    k = len(fs)
    if floors is None:
        lows = np.full(k, -np.inf)
    else:
        lows = np.asarray(floors, dtype=np.float64)
        if lows.shape != (k,):
            raise ValueError(f"floors has {lows.size} entries for {k} functions")
        if not np.all(np.isfinite(lows) & (lows >= 0.0)):
            raise ValueError("floors must be finite and nonnegative")
    region = np.asarray(region, dtype=np.int64)
    sub_ids = _sub_balls(space, region)
    trunc_ind = np.zeros(n, dtype=np.float64)
    trunc_ind[np.asarray(trunc, dtype=np.int64)] = 1.0
    # per function, |f| mass inside trunc, and its sum over every ball
    w_t = np.stack([space.mass * np.abs(np.asarray(f, float)) * trunc_ind for f in fs], axis=1)
    s_full = space.ball_sums(w_t)

    rep, twin, enl = _sub_ball_classes(space, sub_ids)

    # the balls at c meeting B are those from slot meet[c, j] on, the
    # slot of the smallest ball at c holding a member of class j: the
    # least such slot over B's members, a running min along the class's
    # own order.  Only the classes evaluated keep their meet column.
    ids = sub_ids[rep]
    width, pslot = _ball_slots(space)
    uncut, _ = _suffix_max(space, [(slice(0, nb), s_full / t.measure[:, None])], k)
    every = np.arange(n)[:, None]
    # kept in the narrowest integer type holding a slot
    slot_type = np.min_scalar_type(width)
    evaluated, meets = [np.empty(0, dtype=np.int64)], [np.empty((n, 0), dtype=slot_type)]
    for c in _distinct(t.center[ids]):
        cols = np.flatnonzero(t.center[ids] == c)
        along = pslot.T[:, t.order[c]]  # (centers, positions of c's order)
        meet = np.minimum.accumulate(along, axis=1)[:, t.count[ids[cols]] - 1]
        keep = (uncut[meet, every].max(axis=0) > lows).any(axis=1)
        if floors is not None and keep.any():
            # the balls at c' inside E (cut average exactly 0, never
            # above a floor) end before slot leave[c', q], that of the
            # smallest ball at c' holding a point of c's order at or
            # past E's count q: a suffix min along that order.  If E
            # is the whole space (q = n), no ball leaves it.
            q = t.count[enl[cols[keep]]]
            leave = np.minimum.accumulate(along[:, ::-1], axis=1)[:, ::-1]
            tight = uncut[np.maximum(meet[:, keep], leave[:, np.minimum(q, n - 1)]), every].max(axis=0)
            tight[q == n] = -np.inf
            keep[keep] = (tight > lows).any(axis=1)
        evaluated.append(cols[keep])
        meets.append(meet[:, keep].astype(slot_type))
    del uncut
    evaluated = np.concatenate(evaluated)
    meet = np.concatenate(meets, axis=1)
    del meets
    # the distinct enlargements in member class order, each read from
    # the table at the lowest ball of its class
    first, member = _member_classes(space)
    cut = member[enl[evaluated]]
    cuts = _distinct(cut)
    cut_of = np.searchsorted(cuts, cut)
    cuts = first[cuts]
    # the (slots x centers x columns) table stays within (balls x n)
    # floats and GRAND_BLOCK bytes
    step = max(1, min(nb, GRAND_BLOCK // (8 * n)) // width // k)
    m_b = np.full((len(ids), k), -np.inf)  # best over B' per class
    for e0 in range(0, len(cuts), step):
        e1 = min(len(cuts), e0 + step)
        e = cuts[e0:e1]
        inside = (t.rank[t.center[e]] < t.count[e, None]).T
        # per (space ball, function, enlargement): mass of |f| inside
        # trunc minus the enlargement, over the ball's measure
        w_cut = (w_t[:, :, None] * inside[:, None, :]).reshape(n, -1)
        suf, _ = _suffix_max(space, _ball_averages(space, w_cut, s_full), w_cut.shape[1])
        del w_cut
        # each class reads n entries per function, gathered for chunks
        # of classes within KERNEL_BLOCK // 8 entries
        cls = np.flatnonzero((cut_of >= e0) & (cut_of < e1))
        chunk = _floats(n) // n
        for c0 in range(0, len(cls), chunk):
            part = cls[c0 : c0 + chunk]
            col = cut_of[part] - e0
            for i in range(k):
                m_b[evaluated[part], i] = suf[meet[:, part], every, i * (e1 - e0) + col].max(axis=0)
        del suf
    # outer sup over sub-balls containing x, ties to the lowest ball id
    per_ball = np.full((nb, k), -np.inf)
    if floors is None:
        per_ball[sub_ids] = np.maximum(m_b, 0.0)[twin]
        best, arg = _sup_over_balls(space, [(slice(0, nb), per_ball)], k, want_witness)
        on = best > -np.inf
        values = np.where(on, np.maximum(best, 0.0), 0.0)
        witnessed = on
    else:
        per_ball[sub_ids] = m_b[twin]
        best, arg = _sup_over_balls(space, [(slice(0, nb), per_ball)], k, want_witness)
        on = np.zeros((n, 1), dtype=bool)
        on[region] = True
        values = np.where(on, np.maximum(best, lows), 0.0)
        witnessed = on & (best > lows)
    witnesses = list(np.where(witnessed, arg, -1).T.copy()) if want_witness else None
    return list(values.T.copy()), witnesses, sub_ids


def weak_type_11_constant(space: QuasiMetricSpace) -> float:
    """Probe lower bound for the weak (1,1) constant of M.

    max over probes f of sup_t t * mu{M f >= t} / ||f||_1, the sup over
    t running through the distinct values of M f.  The probes are the
    point masses and 100 lognormal columns drawn with seed 0.
    """
    if "weak11" in space._cache:
        return space._cache["weak11"]  # type: ignore[return-value]
    R = np.random.default_rng(0).lognormal(0.0, 1.0, size=(space.n, 100))
    F = np.concatenate([np.eye(space.n), R], axis=1)
    # M 1_i(x) = m_i / mu, mu the smallest ball measure holding x and i
    point = space.mass[None, :] / _pair_min_ball_measure(space)
    MF = np.concatenate([point, maximal_function(space, R).values], axis=1)
    best = 0.0
    l1 = np.abs(F).T @ space.mass
    for j in range(F.shape[1]):
        mf = MF[:, j]
        order = np.argsort(mf)
        tail = np.cumsum(space.mass[order][::-1])[::-1]  # mu{Mf >= mf[order[i]]}
        best = max(best, float((mf[order] * tail).max()) / float(l1[j]))
    space._cache["weak11"] = best
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
        # widened first, so the (n x n) index is built as intp, not converted
        at = ptr[:, c].astype(np.intp)
        np.minimum(out, mu[np.maximum(at[:, None], at[None, :])], out=out)
    return out


def probe_images(
    space: QuasiMetricSpace,
    b: np.ndarray,
    probes: int = 16,
    seed: int = 0,
    ball_cap: Optional[int] = 4096,
) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """(F, labels, mf, cb, bm): ``build_probes``' matrix and labels and
    the read-only M, C_b and [b, M] images of every column, memoized on
    the space.  Duplicate columns copy the image of the lowest column
    holding the same values, so argmax witnesses keep their labels.
    Point masses use the closed forms through the smallest ball holding
    both points.  The other distinct columns go in blocks (``_spans``)
    through one ``CommutatorKernel``, the ball indicators through its
    class path (``_indicator_values``) and the random columns through
    ``apply``, and one maximal function call per block for both M and
    [b, M]."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    key = ("probe_images", b.tobytes(), probes, seed, ball_cap)
    if key in space._cache:
        return space._cache[key]  # type: ignore[return-value]
    F, labels = build_probes(space, probes, seed, ball_cap)
    first, inverse = _distinct_rows(np.ascontiguousarray(F.T).view(np.uint8))
    m = space.mass
    mf = np.empty((space.n, len(first)))
    cb = np.empty_like(mf)
    bm = np.empty_like(mf)
    # the leading n columns are the point masses, all distinct
    point = first < space.n
    i = first[point]
    minmu = _pair_min_ball_measure(space)[:, i]
    mf[:, point] = m[i] / minmu
    cb[:, point] = np.abs(b[:, None] * m[i] - b[i] * m[i]) / minmu
    bm[:, point] = b[:, None] * mf[:, point] - (np.abs(b[i]) * m[i]) / minmu
    rest = np.flatnonzero(~point)
    # the ball indicators come before the `probes` random columns
    ball = first[rest] < F.shape[1] - probes
    kernel = CommutatorKernel(space, b)
    # whole class-path chunks per block of balls, so blocks add no
    # kernel pass
    for part, unit, image in (
        (rest[ball], kernel._chunk(), kernel._indicator_values),
        (rest[~ball], 1, lambda cols: kernel.apply(cols).values),
    ):
        for j in (part[s] for s in _spans(len(part), space.n, unit)):
            cols = F[:, first[j]]
            cb[:, j] = image(cols)
            mf[:, j], mbf = _maximal_pair(space, b[:, None], cols)
            bm[:, j] = b[:, None] * mf[:, j] - mbf
    # take keeps the images C-ordered, so column sums over them add
    # row by row exactly as over the probe matrix; one image at a time,
    # so each distinct-column array is freed before the next expands
    mf = np.take(mf, inverse, axis=1)
    cb = np.take(cb, inverse, axis=1)
    bm = np.take(bm, inverse, axis=1)
    for arr in (F, mf, cb, bm):
        arr.flags.writeable = False
    space._cache[key] = (F, tuple(labels), mf, cb, bm)
    return space._cache[key]  # type: ignore[return-value]


def estimate_from_values(
    space: QuasiMetricSpace,
    op_values: np.ndarray,
    probe_matrix: np.ndarray,
    lam1: np.ndarray,
    lam2: np.ndarray,
    p: float,
) -> Tuple[float, int]:
    """max over probe columns of ||op f||_{lambda2,p} / ||f||_{lambda1,p},
    and the lowest column attaining it.  The norms go per block of
    columns (``_spans``); each block's column sums add row by row, as
    over the whole matrix."""
    w2 = (np.asarray(lam2, dtype=np.float64) * space.mass)[:, None]
    w1 = (np.asarray(lam1, dtype=np.float64) * space.mass)[:, None]
    ratios = np.empty(probe_matrix.shape[1])
    for j in _spans(len(ratios), space.n):
        num = ((np.abs(op_values[:, j]) ** p * w2).sum(axis=0)) ** (1.0 / p)
        den = ((np.abs(probe_matrix[:, j]) ** p * w1).sum(axis=0)) ** (1.0 / p)
        ratios[j] = num / den
    best = int(np.argmax(ratios))
    return float(ratios[best]), best
