# src/shtlab/weights.py
"""
Muckenhoupt characteristics, reverse Holder constants, Bloom weights and
weighted mean oscillation on a finite space.

All suprema range over the canonical ball family of the space and are
therefore finite maxima, reported together with the achieving ball.

* ``ap_characteristic`` -- [w]_{A_p} = sup_B (avg_B w)(avg_B w^{-1/(p-1)})^{p-1}
* ``a1_check``          -- [w]_{A_1} = max M w / w (always >= 1 on atoms)
* ``reverse_holder_constant`` -- smallest C with
  avg_B w <= C (avg_B w^d)^{1/d} for a given d in (0, 1)
* ``weight_doubling_check`` -- w(lB) <= l^{n p} [w]_{A_p} w(B) with the
  strong measured doubling exponent (see Notes)
* ``bmo_norm`` -- weighted bounded mean oscillation
* ``bloom_weight`` -- nu = lambda1^{1/p} lambda2^{-1/p}

Notes
-----
``weight_doubling_check`` measures the doubling exponent in the strong
form n = max over balls and sampled scale factors of
log_l mu(lB)/mu(B).  With that exponent the inequality
w(lB) <= l^{np} [w]_{A_p} w(B) is a theorem for every positive weight
(mass comparison inside lB plus the A_p characteristic on lB), so the
check doubles as a self-test of the characteristic computation.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

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


def a1_check(space: QuasiMetricSpace, w: np.ndarray) -> Dict[str, object]:
    """[w]_{A_1} = max_x M w(x) / w(x).

    On atoms M w >= w (singleton balls), so the constant is >= 1 and the
    classical pointwise form holds with that constant.  is_a1 records
    finiteness, which is automatic here and kept for report symmetry.
    """
    from .operators import maximal_function

    w = np.asarray(w, dtype=np.float64)
    mw = maximal_function(space, w).values
    ratios = mw / w
    best = int(np.argmax(ratios))
    value = float(ratios[best])
    return {"constant": value, "point": best, "is_a1": bool(np.isfinite(value))}


def reverse_holder_constant(space: QuasiMetricSpace, w: np.ndarray, d: float) -> float:
    """Smallest C with avg_B w <= C (avg_B w^d)^{1/d} for all canonical B."""
    if not 0 < d < 1:
        raise ValueError("reverse Holder exponent must lie in (0, 1)")
    w = np.asarray(w, dtype=np.float64)
    avg_w = space.ball_averages(w)
    avg_pow = space.ball_averages(w**d) ** (1.0 / d)
    return float(np.max(avg_w / avg_pow))


def weight_doubling_check(
    space: QuasiMetricSpace,
    w: np.ndarray,
    p: float,
    lams: Sequence[float] = (2.0, 4.0, 8.0),
) -> Dict[str, object]:
    """Scan w(lB) <= l^{np} [w]_{A_p} w(B) over canonical balls.

    Returns the worst ratio (must be <= 1 up to float slack), the
    exponent n used, and the achieving (ball, lambda) pair.
    """
    w = np.asarray(w, dtype=np.float64)
    ap = ap_characteristic(space, w, p).value
    n = space.strong_doubling_exponent(tuple(lams))
    t = space.ball_table()
    wm = w * space.mass
    base = space.ball_sums(wm)
    cum_w = np.cumsum(wm[t.order], axis=1)
    lam_arr = np.asarray(lams, dtype=np.float64)
    enlarged = np.empty((len(base), len(lam_arr)))
    for c in range(space.n):
        ids = slice(t.start[c], t.start[c + 1])
        # B(c, l r) is the prefix of c's order strictly closer than l r
        idx = np.searchsorted(space.dist[c, t.order[c]], t.radius[ids, None] * lam_arr[None, :])
        enlarged[ids] = cum_w[c, idx - 1]
    allowed = np.stack([lam ** (n * p) * ap * base for lam in lams], axis=1)
    ratios = enlarged / allowed
    best = int(np.argmax(ratios))  # row-major: the first (ball, lambda) pair at the max
    worst = float(ratios.flat[best])
    return {
        "max_ratio": worst,
        "exponent": float(n),
        "ap": float(ap),
        "ball": best // len(lams),
        "lambda": float(lams[best % len(lams)]),
        "pass": bool(worst <= 1.0 + 1e-9),
    }


def bmo_norm(space: QuasiMetricSpace, b: np.ndarray, w: np.ndarray) -> BallValue:
    """sup_B (1/w(B)) int_B |b - b_B| dmu over canonical balls.

    b_B is the plain mu-average; the weight enters only through the
    normalizing factor w(B).
    """
    b = np.asarray(b, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    wb = space.ball_sums(w * space.mass)
    return ball_max(deviation_sums(space, b, space.mass) / wb)


# float entries per (balls x n) block of ``deviation_sums``; blocks that
# stay in cache run faster than larger ones
DEVIATION_BLOCK = 1 << 14


def deviation_sums(
    space: QuasiMetricSpace, b: np.ndarray, weight: np.ndarray, r: float = 1.0
) -> np.ndarray:
    """Per canonical ball B: sum over y in B of |b(y) - b_B|^r weight(y),
    with b_B the plain mu-average of b over B.

    ``weight`` is (n,) or (n, k), one weight per column, and the result
    is (balls,) or (balls, k) to match.  Each block of centers takes the
    masked |b - b_B|^r rows once and then weighs them column by column,
    so k weights cost one deviation pass, and each column equals the
    sum for that weight alone.
    """
    b = np.asarray(b, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    t = space.ball_table()
    n = space.n
    avg = space.ball_averages(b)
    # one contiguous (n,) row per weight column
    columns = weight.reshape(n, -1).T.copy()
    out = np.empty((len(avg), len(columns)))
    positions = np.arange(n)
    c0 = 0
    while c0 < n:
        # whole centers whose (balls x n) rows fit the block, at least one
        c1 = int(np.searchsorted(t.start, t.start[c0] + DEVIATION_BLOCK // n, side="right")) - 1
        c1 = max(c0 + 1, c1)
        ids = slice(t.start[c0], t.start[c1])
        rows = t.center[ids] - c0
        order = t.order[c0:c1]
        dev = b[order][rows]
        dev -= avg[ids, None]
        np.abs(dev, out=dev)
        if r != 1:
            dev **= r
        # dev >= 0, so masking before weighing gives the same products
        dev *= positions < t.count[ids, None]
        for j, w in enumerate(columns):
            weighed = w[order][rows]
            weighed *= dev
            # full n-length rows keep numpy's pairwise summation order
            out[ids, j] = weighed.sum(axis=1)
        c0 = c1
    return out if weight.ndim > 1 else out[:, 0]


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
