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
  b(x) in the sorted symbol values, so per-ball sums over
  |b(x) - b(y)| |f(y)| are two cumulative sums over the sorted order
  (``CommutatorKernel``).  The kernel keeps one row per distinct member
  set, read from the ball table, as (positions x rows) bits packed
  along the rows, one bit per entry.  It walks the positions in symbol
  order over (rows x columns) planes of at most ``KERNEL_BLOCK``
  entries, unpacking each position's rows, adding its mass only to the
  rows holding it (``where=``, so the sums match a cumsum bit for
  bit), and maxing over those rows there.  (n,) and (n, k) input take
  the same path.  A column with |f| in {0, 1} is u = m 1_{B'}: every
  sum starts at +0.0 and adds only +-0.0 off B', which leaves its bits
  unchanged, so a row's sums depend only on r & B'.  Such columns keep
  one running sum per distinct intersection, found by
  ``_distinct_rows`` a chunk of columns at a time, whenever those sums
  over n positions plus the gathers through each (row, column) pair's
  class touch no more entries than the per-row sums (``_classes_pay``).
* Probe images of M, C_b and [b, M] are built once per (space,
  symbol, probe set) and memoized on the space (``probe_images``).
  Each distinct probe column is evaluated once; a point mass at i has
  the closed forms C_b 1_i(x) = |b(x) - b(i)| m_i / mu and
  M 1_i(x) = m_i / mu with mu the smallest ball measure holding x and
  i; C_b of the remaining columns takes one kernel call, and M and
  [b, M] share one maximal function call.
* Scratch stays O(balls x n) whatever the column or sub-ball count,
  and a ball sup holds one (balls x columns)-sized array: its suffix
  max table.  No array of every ball's sums or averages is built, the
  blocks of ball sums stay within one (centers x columns) plane of the
  table, and the read-out gathers within one such plane per point.
  Blocks and chunks take at least ``KERNEL_BLOCK // 8`` floats, so a
  small space takes one of each.  M takes its columns in even blocks
  whose table stays within (balls x n) floats.  The local grand
  maximal collapses sub-balls sharing member set and 4 A0 enlargement
  (twins have the same inner value).  Its cut sums depend only on the
  enlargement E, so it takes one suffix max per block of distinct E
  (each table within ``GRAND_BLOCK`` bytes), filled from one
  ``ball_sum_blocks`` pass, and per class of B the max of n table
  entries, one per center (``region_grand_maximal``).  Given a floor
  per function, it first reads the same entries of the uncut averages,
  an upper bound of each class's value, and evaluates only the classes
  and enlargements whose bound exceeds a floor.
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
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .space import QuasiMetricSpace


@dataclass
class OperatorResult:
    """Values per point plus, when the operator is a supremum and the
    caller asks, the canonical ball id attaining it at each point
    (lowest id on ties)."""

    values: np.ndarray
    witnesses: Optional[np.ndarray] = None


# -- maximal function --------------------------------------------------------


def _ball_slots(space: QuasiMetricSpace) -> Tuple[np.ndarray, int, np.ndarray]:
    """(slot, width, pslot): each ball's place in its center's
    radius-sorted list, the longest list, and pslot[x, c], the slot of
    the smallest ball at c holding x."""
    t = space.ball_table()
    slot = np.arange(len(t.center)) - t.start[t.center]
    return slot, int(slot.max()) + 1, t.ptr - t.start[None, :-1]


# float entries per (rows x columns) plane of ``CommutatorKernel.apply``;
# the kernel's and ``_distinct_rows``' set-up scratch goes in chunks of
# as many bytes, and the ball sups' blocks and chunks take at least an
# eighth as many floats
KERNEL_BLOCK = 1 << 19


def _floats(size: int) -> int:
    """A block or chunk size of size floats, raised to at least
    ``KERNEL_BLOCK // 8`` so that a small space takes one block."""
    return max(KERNEL_BLOCK // 8, size)


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
    slot, width, _ = _ball_slots(space)
    table = np.full((width, n, k), -np.inf)
    # one flat row index scatters faster than the (slot, center) pair
    flat = table.reshape(width * n, k)
    row = slot * n + t.center
    for ids, per_ball in blocks:
        flat[row[ids]] = per_ball
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
    _, _, pslot = _ball_slots(space)
    suf, arg = _suffix_max(space, blocks, k, want_slot=want_witness)
    centers = np.arange(n)[None, :]
    values = np.empty((n, k))
    witnesses = np.empty((n, k), dtype=np.int64) if want_witness else None
    chunk = _floats(n * k) // (n * k)
    for x0 in range(0, n, chunk):
        x = slice(x0, min(n, x0 + chunk))
        cand = suf[pslot[x], centers]  # (x, c, columns)
        best = cand.max(axis=1)
        values[x] = best
        if want_witness:
            ids = arg[pslot[x], centers]
            ids += t.start[:-1][None, :, None]
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
    go in even blocks whose suffix max table stays within (balls x n)
    floats; each block's averages come from ``ball_sum_blocks`` straight
    into the table, one block of centers at a time.
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
    blocks = -(-k // max(1, _floats(len(t.center) * n) // (width * n)))
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


class CommutatorKernel:
    """Reusable evaluator for C_b f(x) = sup_{B owns x} avg_B |b(x)-b(.)| |f|.

    Holds the distinct member sets of the canonical balls as packed
    bits: ``bits[j]`` is the ``np.packbits`` of which rows hold the
    j-th point in symbol order, one bit per row.  ``apply`` walks the
    positions over (rows x columns) planes of at most ``KERNEL_BLOCK``
    entries, unpacking their rows a few positions at a time, for (n,)
    or (n, k) input alike; indicator columns may instead take one
    running sum per distinct intersection of a row with their set.
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
        # rank_s[c, j]: the place of the j-th point in symbol order along
        # c's distance order, so ball i holds it when below count[i]
        # (C-ordered: the fancy index alone leaves each row strided)
        rank_s = np.ascontiguousarray(t.rank[:, self.order])
        # per center, its prefix rows with columns in symbol order, zero
        # padded to whole 8-byte words so _distinct_rows reads them in place
        packed = np.zeros((len(t.center), -(-n // 64) * 8), dtype=np.uint8)
        for c in range(n):
            ids = slice(t.start[c], t.start[c + 1])
            packed[ids, : (n + 7) // 8] = np.packbits(rank_s[c] < t.count[ids, None], axis=1)
        # the sup only sees member sets, so collapse duplicate balls;
        # ball_ids maps each surviving row back to the lowest canonical
        # id sharing its member set, keeping witness ids canonical; twins
        # summed in other centers' orders can differ in the last bit, and
        # the sup over all balls sees the least measure
        first, twin = _distinct_rows(packed)
        del packed
        mu = np.full(len(first), np.inf)
        np.minimum.at(mu, twin, t.measure)
        keep = np.argsort(first)
        self.ball_ids = first[keep].astype(np.int64)
        self.mu = mu[keep]
        # (row, position) memberships: the entries one column's gathers read
        self.held = int(t.count[self.ball_ids].sum())
        # bits[j] packs the rows holding the j-th point in symbol order,
        # built through a (positions x rows) mask of at most KERNEL_BLOCK
        # bytes whose row count is a multiple of 8, so each chunk packs
        # into whole bytes; a center's rows are contiguous
        rows = len(self.ball_ids)
        self.bits = np.empty((n, -(-rows // 8)), dtype=np.uint8)
        bounds = np.searchsorted(t.center[self.ball_ids], np.arange(n + 1))
        step = max(8, KERNEL_BLOCK // n // 8 * 8)
        mask = np.empty((n, step), dtype=bool)
        for r0 in range(0, rows, step):
            r1 = min(rows, r0 + step)
            for c in range(t.center[self.ball_ids[r0]], t.center[self.ball_ids[r1 - 1]] + 1):
                lo, hi = max(bounds[c], r0), min(bounds[c + 1], r1)
                counts = t.count[self.ball_ids[lo:hi]]
                np.less(rank_s[c, :, None], counts, out=mask[:, lo - r0 : hi - r0])
            self.bits[:, r0 // 8 : -(-r1 // 8)] = np.packbits(mask[:, : r1 - r0], axis=1)

    def apply(self, f: np.ndarray, want_witness: bool = False) -> OperatorResult:
        """C_b |f| with f (n,) or (n, k), one function per column; the
        witness is the lowest canonical ball attaining the sup.

        Per row, sum_{y in B} |b(x) - b(y)| u(y) splits at x's position
        into b(x)(2 cA - TA) + (TB - 2 cB), with cA, cB the running sums
        of u and b u up to x and TA, TB the row totals.  One pass over
        the positions adds up the totals and a second the running sums,
        each in symbol order as a cumsum would, and at each position
        takes the max over the rows holding it, ties to the lowest row.

        A column with |f| in {0, 1} has u = m 1_{B'}.  Its sums start at
        +0.0 and only ever add +-0.0 off B', which leaves their bits
        alone, so a row's four sums depend only on r & B'.  Such columns
        go in chunks whose running sums are kept once per distinct
        intersection (``_by_classes``) when that is the cheaper pass:
        when n positions over the distinct intersections plus the
        holders' gathers touch no more entries than n positions over
        every (row, column) pair.  Every other column, and a chunk that
        fails that test, takes the per-row running sums
        (``_by_rows``).  The values are the same bits either way.
        """
        n = self.space.n
        f = np.asarray(f, dtype=np.float64)
        u = f.reshape(n, -1)[self.order]
        np.abs(u, out=u)
        if self.constant:
            # every row then sums to exactly 0, so each point's witness
            # is the lowest ball owning it
            u[:] = 0.0
        indicator = ((u == 0.0) | (u == 1.0)).all(axis=0)
        u *= self.space.mass[self.order, None]
        bu = self.b_s[:, None] * u
        k = u.shape[1]
        rows = len(self.mu)
        values = np.empty((n, k))
        witnesses = np.empty((n, k), dtype=np.int64) if want_witness else None
        # at most n columns, so a small space's planes stay within the
        # (rows x n) of one column's cumulative sums
        step = max(1, min(KERNEL_BLOCK // rows, n))
        others = np.flatnonzero(~indicator)
        indicator = np.flatnonzero(indicator)
        if len(indicator):
            # each row's members in symbol order as whole words
            words = np.zeros((rows, -(-n // 64) * 8), dtype=np.uint8)
            words[:, : (n + 7) // 8] = _transposed_bits(self.bits, rows)
            words = words.view(np.uint64)
            # a chunk's (row, column) intersections take at most one
            # plane of words, or KERNEL_BLOCK // 8 if more
            chunk = max(1, _floats(rows * step) // words.size)
            for j0 in range(0, len(indicator), chunk):
                cols = indicator[j0 : j0 + chunk]
                if not self._by_classes(words, u, cols, values, witnesses):
                    self._by_rows(u, bu, cols, values, witnesses)
        for j0 in range(0, len(others), step):
            self._by_rows(u, bu, others[j0 : j0 + step], values, witnesses)
        np.maximum(values, 0.0, out=values)
        if want_witness:
            witnesses = witnesses.reshape(f.shape)
        return OperatorResult(values.reshape(f.shape), witnesses)

    def _holders(self) -> Iterator[np.ndarray]:
        """Per position in symbol order, the (rows,) bool of which rows
        hold it."""
        return _unpacked(self.bits, len(self.mu))

    def _by_rows(self, u, bu, cols, values, witnesses) -> None:
        """C_b of columns cols of u (b u in bu) through per-row running
        sums over (rows x columns) planes, into values (and witnesses)."""
        shape = (len(self.mu), len(cols))
        TA, TB = np.zeros(shape), np.zeros(shape)
        for j, held in enumerate(self._holders()):
            on = held[:, None]
            np.add(TA, u[j, cols], out=TA, where=on)
            np.add(TB, bu[j, cols], out=TB, where=on)
        cA, cB = np.zeros(shape), np.zeros(shape)
        for j, (x, held) in enumerate(zip(self.order, self._holders())):
            on = held[:, None]
            np.add(cA, u[j, cols], out=cA, where=on)
            np.add(cB, bu[j, cols], out=cB, where=on)
            # whole-row gathers, in the order (2 cA - TA) b + (TB - 2 cB)
            idx = np.flatnonzero(held)
            here = np.take(cA, idx, axis=0)
            here *= 2.0
            here -= np.take(TA, idx, axis=0)
            here *= self.b_s[j]
            tail = np.take(TB, idx, axis=0)
            twice = np.take(cB, idx, axis=0)
            twice *= 2.0
            tail -= twice
            here += tail
            here /= np.take(self.mu, idx)[:, None]
            values[x, cols] = here.max(axis=0)
            if witnesses is not None:
                witnesses[x, cols] = self.ball_ids[idx[here.argmax(axis=0)]]

    def _by_classes(self, words, u, cols, values, witnesses) -> bool:
        """C_b of the indicator columns cols of u through one set of
        running sums per distinct intersection r & B', into values (and
        witnesses); words holds each row's members as whole words.
        Returns False, writing nothing, when the cost rule of ``apply``
        (``_classes_pay``) prefers the per-row sums for these columns."""
        n = self.space.n
        rows, width = words.shape
        k = len(cols)
        inside = np.zeros((k, width * 8), dtype=np.uint8)
        inside[:, : (n + 7) // 8] = np.packbits(u[:, cols].T != 0.0, axis=1)
        pairs = (words[:, None, :] & inside.view(np.uint64)[None, :, :]).reshape(rows * k, width)
        del inside
        first, cls = _distinct_rows(pairs.view(np.uint8))
        classes = len(first)
        if not _classes_pay(n, rows, self.held, k, classes):
            return False
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
        holders = self._holders()
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
            for x, row, held in zip(self.order[j0:j1], per, holders):
                idx = np.flatnonzero(held)
                here = np.take(row, np.take(cls, idx, axis=0))
                here /= np.take(self.mu, idx)[:, None]
                values[x, cols] = here.max(axis=0)
                if witnesses is not None:
                    witnesses[x, cols] = self.ball_ids[idx[here.argmax(axis=0)]]
            cA[0], cB[0] = carry
        return True


def _classes_pay(n: int, rows: int, held: int, k: int, classes: int) -> bool:
    """The cost rule of ``CommutatorKernel.apply`` for k indicator
    columns whose (row, column) intersections fall into classes: their
    sums over n positions plus the gathers over the held (row,
    position) entries of each column touch no more entries than the
    per-row running sums over n positions and every (row, column)
    pair."""
    return n * classes + held * k <= n * rows * k


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
    table of its E.  The same read of the uncut averages bounds a
    class's inner value from above (w >= 0, so cutting lowers each
    sum), and classes whose bound stays at or below every floor are
    not evaluated.  Enlargements go in blocks whose suffix max table
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

    # each sub-ball's members and 4 A0 enlargement as bits, built in
    # chunks of KERNEL_BLOCK bytes of distances
    nbytes = -(-n // 8)
    packed = np.empty((len(sub_ids), 2 * nbytes), dtype=np.uint8)
    chunk = _floats(n) // n
    for s0 in range(0, len(sub_ids), chunk):
        s = sub_ids[s0 : s0 + chunk]
        c = t.center[s]
        packed[s0 : s0 + chunk, :nbytes] = np.packbits(t.rank[c] < t.count[s, None], axis=1)
        near = space.dist[c] < (4.0 * space.a0 * t.radius[s])[:, None]
        packed[s0 : s0 + chunk, nbytes:] = np.packbits(near, axis=1)
    enlarged = packed[:, nbytes:]
    # one class per distinct row; rep holds its lowest sub-ball
    rep, twin = _distinct_rows(packed)

    # the balls at c meeting B are those from slot meet[c, j] on, the
    # slot of the smallest ball at c holding a member of class j: the
    # least such slot over B's members, a running min along the class's
    # own order.  Only the classes evaluated keep their meet column.
    ids = sub_ids[rep]
    _, width, pslot = _ball_slots(space)
    uncut, _ = _suffix_max(space, [(slice(0, nb), s_full / t.measure[:, None])], k)
    every = np.arange(n)[:, None]
    # kept in the narrowest integer type holding a slot
    slot_type = np.min_scalar_type(width)
    evaluated, meets = [np.empty(0, dtype=np.int64)], [np.empty((n, 0), dtype=slot_type)]
    for c in np.unique(t.center[ids]):
        cols = np.flatnonzero(t.center[ids] == c)
        reach = np.minimum.accumulate(pslot.T[:, t.order[c]], axis=1)
        meet = reach[:, t.count[ids[cols]] - 1]
        bound = uncut[meet, every].max(axis=0)  # (classes, functions)
        keep = (bound > lows).any(axis=1)
        evaluated.append(cols[keep])
        meets.append(meet[:, keep].astype(slot_type))
    del uncut
    evaluated = np.concatenate(evaluated)
    meet = np.concatenate(meets, axis=1)
    del meets
    cut_rep, cut_of = _distinct_rows(enlarged[rep[evaluated]])
    by_cut = np.argsort(cut_of, kind="stable")
    sorted_cut = cut_of[by_cut]
    # the (slots x centers x columns) table stays within (balls x n)
    # floats and GRAND_BLOCK bytes
    step = max(1, min(nb, GRAND_BLOCK // (8 * n)) // width // k)
    m_b = np.full((len(ids), k), -np.inf)  # best over B' per class
    for e0 in range(0, len(cut_rep), step):
        e1 = min(len(cut_rep), e0 + step)
        cut = np.unpackbits(enlarged[rep[evaluated[cut_rep[e0:e1]]]], axis=1, count=n).T
        # per (space ball, function, enlargement): mass of |f| inside
        # trunc minus the enlargement, over the ball's measure
        w_cut = (w_t[:, :, None] * cut[:, None, :]).reshape(n, -1)
        suf, _ = _suffix_max(space, _ball_averages(space, w_cut, s_full), w_cut.shape[1])
        del w_cut
        lo, hi = np.searchsorted(sorted_cut, [e0, e1])
        cls = by_cut[lo:hi]
        col = cut_of[cls] - e0
        for i in range(k):
            m_b[evaluated[cls], i] = suf[meet[:, cls], every, i * (e1 - e0) + col].max(axis=0)
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


def weak_type_11_constant(space: QuasiMetricSpace, probes: int = 100, seed: int = 0) -> float:
    """Probe lower bound for the weak (1,1) constant of M.

    max over probes f of sup_t t * mu{M f >= t} / ||f||_1, the sup over
    t running through the distinct values of M f.
    """
    key = ("weak11", probes, seed)
    if key in space._cache:
        return space._cache[key]  # type: ignore[return-value]
    rng = np.random.default_rng(seed)
    R = rng.lognormal(0.0, 1.0, size=(space.n, probes))
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
) -> Tuple[np.ndarray, Tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """(F, labels, mf, cb, bm): ``build_probes``' matrix and labels and
    the read-only M, C_b and [b, M] images of every column, memoized on
    the space.  Duplicate columns copy the image of the lowest column
    holding the same values, so argmax witnesses keep their labels.
    Point masses use the closed forms through the smallest ball holding
    both points; other columns go through one ``CommutatorKernel.apply``
    and one maximal function call for both M and [b, M]."""
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
    cb[:, rest] = CommutatorKernel(space, b).apply(F[:, first[rest]]).values
    mf[:, rest], mbf = _maximal_pair(space, b[:, None], F[:, first[rest]])
    bm[:, rest] = b[:, None] * mf[:, rest] - mbf
    # take keeps the images C-ordered, so column sums over them add
    # row by row exactly as over the probe matrix
    mf, cb, bm = (np.take(a, inverse, axis=1) for a in (mf, cb, bm))
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
    """max over probe columns of ||op f||_{lambda2,p} / ||f||_{lambda1,p}."""
    lam1 = np.asarray(lam1, dtype=np.float64)
    lam2 = np.asarray(lam2, dtype=np.float64)
    num = ((np.abs(op_values) ** p * (lam2 * space.mass)[:, None]).sum(axis=0)) ** (1.0 / p)
    den = ((np.abs(probe_matrix) ** p * (lam1 * space.mass)[:, None]).sum(axis=0)) ** (1.0 / p)
    ratios = num / den
    best = int(np.argmax(ratios))
    return float(ratios[best]), best
