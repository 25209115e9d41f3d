"""
Muckenhoupt characteristics, reverse Holder constants, weighted BMO
norms, Bloom and dual weights on a finite space.

Every supremum ranges over the canonical ball family of the space, so
it is a finite maximum, reported with the achieving ball where the
checks need one.

* ``ap_characteristic`` -- [w]_{A_p} = sup_B (avg_B w)(avg_B w^{-1/(p-1)})^{p-1}
* ``reverse_holder_constant`` -- smallest C with
  avg_B w <= C (avg_B w^d)^{1/d} for a given d in (0, 1)
* ``bmo_norm`` -- weighted bounded mean oscillation
  sup_B (1/w(B)) int_B |b - b_B| dmu
* ``deviation_sums`` -- per ball, int_B |b - b_B|^r weight
* ``deviation_max`` -- the largest of a ratio of those sums and its
  first ball, evaluating only the balls whose bounds can win
* ``bloom_weight`` -- nu = lambda1^{1/p} lambda2^{-1/p}
* ``dual_weight`` -- the conjugate weight w^{1 - p'}

Maxima of deviation sums
------------------------
``bmo_norm`` and the John-Nirenberg check of ``verify`` need only the
largest ratio of deviation sums and its first ball, so
``deviation_max`` takes them in two stages.

Bounds.  Per ball B let a be the mu-average that ``deviation_sums``
uses, d = b - a, W = sum_B weight, s = max_B |d| and

  Q = sum_B d^2 weight = S2 - 2 a S1 + a^2 W,

with S1 = sum_B b weight and S2 = sum_B b^2 weight.  Cauchy-Schwarz
and Holder give sum_B |d|^r weight <= Q^{r/2} W^{1 - r/2} for
1 <= r <= 2 and <= s^{r-2} Q for r > 2.  Both hold for any constant
a, with d, Q and s taken from it.  One ``ball_sum_blocks`` pass over
the columns (weight, b weight, |b| weight, b^2 weight) gives W, S1,
S1a = sum_B |b| weight and S2 block by block, so only (balls,) vectors
are kept.  For r > 2, s comes from the running max and min of b along
each center's order.

Rounding margin.  A bound must dominate the *computed* sum.  With
u = 2^-53 and gamma_k = k u / (1 - k u), the computed sum exceeds the
exact sum at the computed a by at most a factor 1 + gamma_{n+r+6}, the
computed Q misses the exact one by at most gamma_{n+5} A, with
A = S2 + 2 |a| S1a + a^2 W, and the powers, products and W add at most
gamma_{n/2+8}.  So Q is raised by 2^-36 A.  As A >= Q, this is also a
relative margin: it lifts the bound by at least a factor
1 + 2^-37 - gamma_{n+5}, more than 1 + gamma_{2n+16+2r} for
n <= MAX_POINTS (gamma_{8208} is 9.1e-13, 2^-37 is 7.3e-12) and
r <= 4096.  It also covers balls where b is constant or a single point,
whose computed sums are rounding noise of about 1e-17 rather than 0.
A computed s of 0 means b == a on the whole ball, where the computed
sum is exactly 0.  The analysis assumes that no step underflows or
overflows, which holds while the nonzero |b| and weights lie in
[2^-200, 2^200] and a positive s is floored so that s^{r-2} >= 2^-300;
an overflow shows as a bound that is not finite.

Exact stage.  The TOP_BALLS largest bound ratios (ties to the lower
id) are evaluated exactly.  Their best value L, first reached at ball
i, is a threshold: no ball's value exceeds its bound ratio, so a ball
can beat (L, i) only with a bound ratio above L, or equal to L at an
id below i.  Those balls are evaluated next, in blocks through
``_deviation_rows``, the row helper of ``deviation_sums``, so each
value carries the bits of the full pass and the first ball attaining
the maximum is the full pass's.

Full pass.  Every ball is evaluated directly when balls x n fits one
DEVIATION_BLOCK (the bounds would cost more than they save), when r is
outside [1, 4096] or the inputs outside the range above, and when a
bound ratio is not finite, as for a zero or non-finite denominator.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple, Union

import numpy as np

from .space import QuasiMetricSpace


class BallValue(NamedTuple):
    value: float
    ball: int  # canonical ball index achieving the value


def ball_max(vals: np.ndarray) -> BallValue:
    """The largest per-ball value and the first ball attaining it."""
    best = int(np.argmax(vals))
    return BallValue(float(vals[best]), best)


def ap_characteristic(space: QuasiMetricSpace, w: np.ndarray, p: float) -> BallValue:
    """[w]_{A_p} over canonical balls, with the achieving ball id."""
    w = np.asarray(w, dtype=np.float64)
    if p <= 1:
        raise ValueError("ap_characteristic requires p > 1")
    avg_w = space.ball_averages(w)
    avg_sigma = space.ball_averages(w ** (-1.0 / (p - 1.0)))
    return ball_max(avg_w * avg_sigma ** (p - 1.0))


def reverse_holder_constant(space: QuasiMetricSpace, w: np.ndarray, d: float) -> float:
    """Smallest C with avg_B w <= C (avg_B w^d)^{1/d} for all canonical B."""
    if not 0 < d < 1:
        raise ValueError("reverse Holder exponent must lie in (0, 1)")
    w = np.asarray(w, dtype=np.float64)
    avg_w = space.ball_averages(w)
    avg_pow = space.ball_averages(w**d) ** (1.0 / d)
    return float(np.max(avg_w / avg_pow))


def bmo_norm(space: QuasiMetricSpace, b: np.ndarray, w: np.ndarray) -> BallValue:
    """sup_B (1/w(B)) int_B |b - b_B| dmu over canonical balls.

    b_B is the plain mu-average; the weight enters only through the
    normalizing factor w(B).
    """
    return _bmo_max(space, b, space.ball_averages(b), w)[0]


def _bmo_max(
    space: QuasiMetricSpace, b: np.ndarray, avg: np.ndarray, w: np.ndarray
) -> Tuple[BallValue, int]:
    """``bmo_norm`` with the number of balls ``deviation_max`` evaluated;
    avg is ``space.ball_averages(b)``."""
    wb = space.ball_sums(np.asarray(w, dtype=np.float64) * space.mass)
    return deviation_max(space, b, avg, space.mass, 1.0, lambda ids, sums: sums / wb[ids])


# float entries per (balls x n) block of ``_deviation_rows``, unless one
# center's balls need more; blocks that stay in cache run faster than
# larger ones, and spaces whose balls fit one block skip the bounds
DEVIATION_BLOCK = 1 << 14
# balls with the largest bounds that ``deviation_max`` evaluates first
TOP_BALLS = 64


def deviation_sums(
    space: QuasiMetricSpace, b: np.ndarray, weight: np.ndarray, r: float = 1.0
) -> np.ndarray:
    """Per canonical ball B: sum over y in B of |b(y) - b_B|^r weight(y),
    with b_B the plain mu-average of b over B."""
    b = np.asarray(b, dtype=np.float64)
    avg = space.ball_averages(b)
    return _deviation_rows(space, b, np.asarray(weight, dtype=np.float64), r, avg, np.arange(len(avg)))


def _deviation_rows(
    space: QuasiMetricSpace,
    b: np.ndarray,
    weight: np.ndarray,
    r: float,
    avg: np.ndarray,
    ids: np.ndarray,
) -> np.ndarray:
    """``deviation_sums`` of the balls ids (ascending), in blocks of at
    least DEVIATION_BLOCK // n of them that split no center's ids.

    Each ball's masked |b - b_B|^r row is weighed and summed over its
    full n entries, so numpy's pairwise summation order, and with it
    every bit of the sum, does not depend on which other balls share
    the block."""
    t = space.ball_table()
    n = space.n
    out = np.empty(len(ids))
    positions = np.arange(n)
    step = max(1, DEVIATION_BLOCK // n)
    i = 0
    while i < len(ids):
        last = t.center[ids[min(len(ids), i + step) - 1]]
        j = int(np.searchsorted(ids, t.start[last + 1]))
        block = ids[i:j]
        centers = t.center[block]
        new = np.ones(len(block), dtype=bool)
        new[1:] = centers[1:] != centers[:-1]
        rows = np.cumsum(new) - 1
        order = t.order[centers[new]]
        dev = b[order][rows]
        dev -= avg[block, None]
        np.abs(dev, out=dev)
        if r != 1:
            dev **= r
        # dev >= 0, so masking before weighing gives the same products
        dev *= positions < t.count[block, None]
        dev *= weight[order][rows]
        out[i:j] = dev.sum(axis=1)
        i = j
    return out


def deviation_max(
    space: QuasiMetricSpace,
    b: np.ndarray,
    avg: np.ndarray,
    weight: np.ndarray,
    r: float,
    ratio: Callable[[Union[slice, np.ndarray], np.ndarray], np.ndarray],
) -> Tuple[BallValue, int]:
    """The largest ratio(ids, sums) over canonical balls, with sums the
    balls' ``deviation_sums(space, b, weight, r)``, and the first ball
    attaining it; also the number of balls whose sums were evaluated.
    avg is ``space.ball_averages(b)``, so maxima over one symbol share
    it.

    ratio(ids, sums) maps the sums of the balls ids (a slice or an id
    array) elementwise to their values, non-decreasing in each sum; each
    call gets sums of its own, which it may overwrite.
    The value and ball equal ``ball_max`` of ratio over every ball's
    sum, bit for bit (module docstring).
    """
    b = np.asarray(b, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if (
        len(avg) * space.n > DEVIATION_BLOCK
        and 1.0 <= r <= 4096.0
        and _in_bound_range(b)
        and _in_bound_range(weight)
    ):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound = ratio(slice(None), _deviation_bounds(space, b, weight, r, avg))
        if np.isfinite(bound).all():
            # the k largest bounds, ties broken toward lower ids
            k = min(TOP_BALLS, len(bound))
            kth = np.partition(bound, len(bound) - k)[len(bound) - k]
            top = np.flatnonzero(bound > kth)
            top = np.sort(np.concatenate([top, np.flatnonzero(bound == kth)[: k - len(top)]]))
            top_vals = ratio(top, _deviation_rows(space, b, weight, r, avg, top))
            best = top_vals.max()
            first = top[top_vals == best].min()
            # no value exceeds its bound, so a ball beats (best, first)
            # only with a bound above best, or equal to it below first
            reach = bound >= best
            reach[first:] = bound[first:] > best
            reach[top] = False
            rest = np.flatnonzero(reach)
            ids = np.concatenate([top, rest])
            vals = np.concatenate([top_vals, ratio(rest, _deviation_rows(space, b, weight, r, avg, rest))])
            best = vals.max()
            return BallValue(float(best), int(ids[vals == best].min())), len(ids)
    sums = _deviation_rows(space, b, weight, r, avg, np.arange(len(avg)))
    return ball_max(ratio(slice(None), sums)), len(avg)


def _in_bound_range(v: np.ndarray) -> bool:
    """Are the nonzero |v| within [2^-200, 2^200], where no step of the
    bounds underflows or overflows (module docstring)?"""
    mags = np.abs(v[v != 0])
    return not mags.size or bool(2.0**-200 <= mags.min() and mags.max() <= 2.0**200)


def _deviation_bounds(
    space: QuasiMetricSpace, b: np.ndarray, weight: np.ndarray, r: float, avg: np.ndarray
) -> np.ndarray:
    """Per canonical ball, a bound on its computed ``deviation_sums``
    (r >= 1), from one ``ball_sum_blocks`` pass over the columns
    (weight, b weight, |b| weight, b^2 weight) and, for r > 2, the
    running max and min of b along each center's order."""
    t = space.ball_table()
    cols = np.stack([weight, b * weight, np.abs(b) * weight, b * b * weight], axis=1)
    out = np.empty(len(avg))
    for ids, sums in space.ball_sum_blocks(cols, 4 * DEVIATION_BLOCK):
        w, s1, s1a, s2 = sums.T
        a = avg[ids]
        # sum_B (b - a)^2 weight, raised by the rounding margin 2^-36 times
        # a scale that dominates both it and the error its cancellation
        # can hide (module docstring)
        q = np.maximum(s2 - 2.0 * a * s1 + a * a * w, 0.0)
        q += 2.0**-36 * (s2 + 2.0 * np.abs(a) * s1a + a * a * w)
        if r <= 2:
            out[ids] = q ** (r / 2.0) * w ** (1.0 - r / 2.0)
            continue
        c0 = t.center[ids.start]
        along = b[t.order[c0 : t.center[ids.stop - 1] + 1]]
        at = (t.center[ids] - c0, t.count[ids] - 1)
        spread = np.maximum(
            np.maximum.accumulate(along, axis=1)[at] - a,
            a - np.minimum.accumulate(along, axis=1)[at],
        )
        # the floor keeps a positive spread^(r-2) >= 2^-300; a spread of
        # 0 means b == a on B, where every sum is exactly 0
        spread = np.maximum(spread, np.where(spread > 0, 2.0 ** (-300.0 / r), 0.0))
        out[ids] = spread ** (r - 2.0) * q
    return out


def bloom_weight(lambda1: np.ndarray, lambda2: np.ndarray, p: float) -> np.ndarray:
    """nu = lambda1^{1/p} * lambda2^{-1/p}, pointwise."""
    lambda1 = np.asarray(lambda1, dtype=np.float64)
    lambda2 = np.asarray(lambda2, dtype=np.float64)
    if p <= 1:
        raise ValueError("bloom_weight requires p > 1")
    return lambda1 ** (1.0 / p) * lambda2 ** (-1.0 / p)


def dual_weight(w: np.ndarray, p: float) -> np.ndarray:
    """The conjugate weight w^{1 - p'} with 1/p + 1/p' = 1."""
    if p <= 1:
        raise ValueError("dual_weight requires p > 1")
    pp = p / (p - 1.0)
    return np.asarray(w, dtype=np.float64) ** (1.0 - pp)
