"""Resource gates: each gate runs one pipeline in this process, prints
one line and exits 1 when the pipeline fails or passes its bound.

    python tests/resource_gates.py line4096-pipeline

Run one gate per process, since each reads its own peak RSS (or
tracemalloc peak).  With no argument the script lists the gates.
Bounds are in MB (10^6 bytes of traced peak for the doubling and
grand maximal gates, ru_maxrss MB for the rest).
"""

import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

from shtlab import dyadic  # noqa: E402

# the measured constants and the covering ball only up to this n:
# _measure_a0 is cubic in n
CONSTANTS_MAX = 2048


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def symbol_and_weights(n: int):
    rng = np.random.default_rng(0)
    b = np.exp(0.5 * rng.standard_normal(n))
    return b, rng.lognormal(0.0, 0.4, n), rng.lognormal(0.0, 0.4, n)


def domination(n: int, bound: float) -> dict:
    """``shtlab verify`` on the line96-domination scenario of
    ``bench/workloads.chains_config(2)`` at n points."""
    import workloads
    from shtlab.cli import main

    config = workloads.chains_config(2)
    config["scenarios"] = [s for s in config["scenarios"] if s["scenario"] == "line96-domination"]
    config["scenarios"][0]["space"]["n"] = n
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        start = time.perf_counter()
        code = main(["verify", "--config", path, "--out", tmp])
        wall = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    return dict(code=code, wall=wall, peak_mb=peak_mb, failed=code != 0 or peak_mb > bound)


def pipeline(n: int, bound: float) -> dict:
    """The library pipeline on line n: covering ball and measured
    constants (or only the ball table above ``CONSTANTS_MAX``), M, one
    ``C_b`` apply and ``[b, M]``."""
    from shtlab import CommutatorKernel, build_space, commutator_bM, maximal_function

    start = time.perf_counter()
    space = build_space("line", n)
    rng = np.random.default_rng(0)
    b = np.exp(0.5 * rng.standard_normal(space.n))
    f = rng.lognormal(0.0, 1.0, space.n)
    if n <= CONSTANTS_MAX:
        space.smallest_covering_ball(np.arange(space.n))
        space.measured_constants()
    else:
        space.ball_table()
    maximal_function(space, f)
    kernel = CommutatorKernel(space, b)
    cb_start = time.perf_counter()
    kernel.apply(np.abs(f))
    cb = time.perf_counter() - cb_start
    commutator_bM(space, b, f)
    wall = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    survivors = kernel.exact_balls / space.n
    return dict(wall=wall, cb=cb, survivors=survivors, peak_mb=peak_mb, failed=peak_mb > bound)


def geometric_doubling(n: int, bound: float) -> dict:
    """``dyadic.geometric_doubling`` at delta 0.5, which is 4 on a line,
    traced with the ball table built beforehand."""
    from shtlab import build_space

    space = build_space("line", n)
    space.ball_table()  # the ball table stays out of the traced peak
    tracemalloc.start()
    start = time.perf_counter()
    a1 = dyadic.geometric_doubling(space, 0.5)
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return dict(a1=a1, wall=wall, peak=peak / 1e6, failed=a1 != 4 or peak / 1e6 >= bound)


def adjacent_systems(n: int, bound: float) -> dict:
    """Three adjacent systems (delta 0.5, seed 0) and ``verify_system``
    on the first; fails on any violation or a capture below 0.99."""
    from shtlab import build_adjacent_systems, build_space, verify_system

    start = time.perf_counter()
    space = build_space("line", n)
    adj = build_adjacent_systems(space, 0.5, 3, seed=0)
    rep = verify_system(adj.systems[0], space)
    wall = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    bad = len(rep["violations"]) + len(rep["monotone_violations"]) + (not rep["sandwich_ok"])
    capture = adj.capture_fraction
    return dict(wall=wall, capture=capture, bad=bad, peak_mb=peak_mb, failed=bad or capture < 0.99 or peak_mb > bound)


def grand_maximal(n: int, bound: float) -> dict:
    """``region_grand_maximal`` of two functions over the full region,
    at the domination recursion's floors, traced with the ball table
    and a0 built beforehand."""
    from shtlab import build_space, region_grand_maximal

    space = build_space("line", n)
    space.measured_constants()  # the ball table and a0 stay out of the traced peak
    rng = np.random.default_rng(0)
    fs = [rng.lognormal(0.0, 1.0, space.n), np.abs(rng.standard_normal(space.n))]
    full = np.arange(space.n)
    floors = [4.0 * float(np.mean(f)) for f in fs]
    tracemalloc.start()
    start = time.perf_counter()
    region_grand_maximal(space, full, full, fs, floors=floors)
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return dict(wall=wall, peak=peak / 1e6, failed=peak / 1e6 > bound)


def john_nirenberg(n: int, bound: float) -> dict:
    """``verify_bloom_jn`` at p = 2, r = 1; fails unless it passes."""
    from shtlab import build_space, verify_bloom_jn

    space = build_space("line", n)
    b, lam1, lam2 = symbol_and_weights(space.n)
    start = time.perf_counter()
    rep = verify_bloom_jn(space, b, lam1, lam2, 2.0, 1.0)
    wall = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    return dict(wall=wall, exact=rep["exact_balls"], peak_mb=peak_mb, failed=not rep["passed"] or peak_mb > bound)


def probe_images(n: int, bound: float) -> dict:
    """``probe_images`` without a ball cap; fails unless an apply on
    every 200th ball column gives the images' ``C_b`` bit for bit."""
    from shtlab import CommutatorKernel, build_space
    from shtlab import probe_images as images

    space = build_space("line", n)
    b = np.exp(0.5 * np.random.default_rng(0).standard_normal(space.n))
    start = time.perf_counter()
    F, labels, mf, cb, bm = images(space, b, 16, 0, None)
    wall = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    # the images' class path against apply on every 200th ball column
    cols = [j for j, lab in enumerate(labels) if lab.startswith("ball:")][::200]
    start = time.perf_counter()
    got = CommutatorKernel(space, b).apply(F[:, cols]).values
    same = got.tobytes() == np.ascontiguousarray(cb[:, cols]).tobytes()
    check = time.perf_counter() - start
    return dict(
        columns=F.shape[1], wall=wall, peak_mb=peak_mb, cols=len(cols), check=check, same=same,
        failed=peak_mb > bound or not same,
    )


def lower_chain(n: int, bound: float) -> dict:
    """The probe images, then ``verify_lower_bound`` at p = 2 without a
    ball cap; fails on any failed entry."""
    from shtlab import build_space, verify_lower_bound
    from shtlab import probe_images as images

    space = build_space("line", n)
    b, lam1, lam2 = symbol_and_weights(space.n)
    start = time.perf_counter()
    images(space, b, 16, 0, None)
    image_s = time.perf_counter() - start
    start = time.perf_counter()
    rep = verify_lower_bound(space, b, lam1, lam2, 2.0, ball_cap=None)
    chain = time.perf_counter() - start
    failed = [e["check"] for e in rep["entries"] if not e["passed"]]
    peak_mb = peak_rss_mb()
    return dict(
        probed=rep["probed_balls"], images=image_s, chain=chain, failed_checks=failed, peak_mb=peak_mb,
        failed=bool(failed) or peak_mb > bound,
    )


# gate: (runner, n, bound in MB, printed line)
GATES = {
    "line96-domination": (domination, 96, 100, "exit {code}, peak RSS {peak_mb:.0f} MB"),
    "line256-domination": (domination, 256, 300, "exit {code}, peak RSS {peak_mb:.0f} MB"),
    "line384-domination": (domination, 384, 400, "exit {code}, {wall:.1f} s, peak RSS {peak_mb:.0f} MB"),
    "line512-domination": (domination, 512, 115, "exit {code}, {wall:.1f} s, peak RSS {peak_mb:.0f} MB"),
    "line384-pipeline": (pipeline, 384, 65, "line384 pipeline peak RSS {peak_mb:.0f} MB"),
    "line1024-pipeline": (pipeline, 1024, 180, "line1024 pipeline {wall:.1f} s, peak RSS {peak_mb:.0f} MB"),
    "line2048-pipeline": (
        pipeline, 2048, 345, "line2048 pipeline {wall:.1f} s (C_b {cb:.1f} s), peak RSS {peak_mb:.0f} MB",
    ),
    "line4096-pipeline": (
        pipeline, 4096, 1024,
        "line4096 table, M, C_b and [b, M]: {wall:.1f} s (C_b {cb:.1f} s, {survivors:.2f} exact balls per point),"
        " peak RSS {peak_mb:.0f} MB",
    ),
    "line384-doubling": (
        geometric_doubling, 384, 4 * dyadic.DOUBLING_BLOCK / 1e6,
        "line384 geometric doubling: a1 {a1}, {wall:.2f} s, traced peak {peak:.2f} MB",
    ),
    "line1024-adjacent": (
        adjacent_systems, 1024, 155,
        "line1024 adjacent systems: {wall:.1f} s, capture {capture:.6f}, {bad} violations, peak RSS {peak_mb:.0f} MB",
    ),
    "line256-grand-maximal": (
        grand_maximal, 256, 95, "line256 grand maximal over the full region: {wall:.1f} s, traced peak {peak:.1f} MB",
    ),
    "line1024-jn": (
        john_nirenberg, 1024, 163,
        "line1024 John-Nirenberg: {wall:.2f} s, {exact} balls evaluated exactly, peak RSS {peak_mb:.0f} MB",
    ),
    "line128-probe-images": (
        probe_images, 128, 111,
        "line128 probe images, {columns} columns: {wall:.1f} s, peak RSS {peak_mb:.0f} MB;"
        " apply on {cols} ball columns {check:.1f} s, same bits {same}",
    ),
    "line128-lower-chain": (
        lower_chain, 128, 114,
        "line128 lower chain, {probed} probed balls: images {images:.1f} s, chain {chain:.2f} s,"
        " failed {failed_checks}, peak RSS {peak_mb:.0f} MB",
    ),
}


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in GATES:
        print("usage: python tests/resource_gates.py GATE, one of:")
        for name, (runner, n, bound, _) in GATES.items():
            print(f"  {name}: {runner.__name__} at n = {n}, bound {bound:g} MB")
        return 2
    runner, n, bound, line = GATES[argv[0]]
    out = runner(n, bound)
    print(line.format(**out))
    return 1 if out["failed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
