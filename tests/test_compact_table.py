"""The compact ball table (int16 points, positions and counts, int32
ball ids) against int64 oracles, at sizes where a narrow type would
wrap: ball ids above 32767 (line256) and 65535 (line384), n >= 182
where n^2 exceeds 32767, and the tied grid and the lognormal plane."""

import dataclasses

import numpy as np
import pytest

import oracles
from shtlab import CommutatorKernel, build_space, maximal_function, region_grand_maximal
from shtlab.space import MAX_POINTS

SPACES = {
    "line256": lambda: build_space("line", 256),
    "line384": lambda: build_space("line", 384),
    "ties": oracles.tied_quasi_grid,
    "plane": oracles.lognormal_plane,
}


@pytest.fixture(scope="module", params=sorted(SPACES))
def case(request):
    sp = SPACES[request.param]()
    return request.param, sp, oracles.ball_table_int64(sp)


def test_the_sizes_reach_past_the_narrow_types():
    assert MAX_POINTS <= np.iinfo(np.int16).max
    assert len(build_space("line", 256).ball_table().center) == 49280 > np.iinfo(np.int16).max
    assert len(build_space("line", 384).ball_table().center) == 133929 > np.iinfo(np.uint16).max
    assert 182**2 > np.iinfo(np.int16).max


def test_table_equals_the_int64_oracle(case):
    _, sp, want = case
    t = sp.ball_table()
    for name in ("center", "count", "order", "rank"):
        assert getattr(t, name).dtype == np.int16
        assert np.array_equal(getattr(t, name), getattr(want, name))
    assert t.ptr.dtype == np.int32
    assert np.array_equal(t.ptr, want.ptr)
    assert np.array_equal(t.start, want.start)
    for name in ("radius", "measure"):
        assert getattr(t, name).tobytes() == getattr(want, name).tobytes()
    last = len(t.center) - 1
    assert np.array_equal(sp.canonical_ball(last).members, np.sort(want.order[want.center[-1]]))


def test_table_holds_no_square_float_field():
    sp = build_space("line", 256)
    t = sp.ball_table()
    n, balls = sp.n, len(t.center)
    fields = {f.name: getattr(t, f.name) for f in dataclasses.fields(t)}
    assert not [name for name, a in fields.items() if a.ndim == 2 and a.dtype.kind == "f"]
    # int16 center and count, float64 radius and measure per ball; int64
    # start; int16 order and rank and int32 ptr per (n x n) entry
    assert sum(a.nbytes for a in fields.values()) == (2 + 2 + 8 + 8) * balls + 8 * (n + 1) + (2 + 2 + 4) * n * n


def test_covering_ball_and_constants_read_the_whole_table(case):
    _, sp, want = case
    ball = sp.smallest_covering_ball(np.arange(sp.n))
    ids = want.ptr.max(axis=0)
    assert ball.index == ids[np.argmin(want.measure[ids])]
    assert sp.measured_constants()[1:] == oracles.measured_doubling(sp)


def test_maximal_function_equals_the_by_center_oracle(case):
    _, sp, want = case
    f = np.random.default_rng(41).lognormal(0.0, 1.0, sp.n)
    got = maximal_function(sp, f, want_witness=True)
    values, witnesses = oracles.maximal_function_by_centers(sp, f, want)
    assert got.values.tobytes() == values.tobytes()
    assert np.array_equal(got.witnesses, witnesses)


def test_kernel_equals_the_int64_oracles(case):
    _, sp, want = case
    rng = np.random.default_rng(42)
    b, f = rng.lognormal(0.0, 1.0, sp.n), rng.lognormal(0.0, 1.0, sp.n)
    kern = CommutatorKernel(sp, b)
    for got, rows in zip((kern.ball_ids, kern.mu, kern.bits), oracles.kernel_rows(sp, b, want)):
        assert (got.dtype, got.shape) == (rows.dtype, rows.shape)
        assert got.tobytes() == rows.tobytes()
    res = kern.apply(f, want_witness=True)
    values = oracles.commutator_kernel_by_centers(sp, b, f, want)
    np.testing.assert_allclose(res.values, values, rtol=1e-12, atol=0)
    # each witness holds its point and attains its value
    assert res.witnesses.dtype == np.int64
    w = res.witnesses
    assert np.all(want.rank[want.center[w], np.arange(sp.n)] < want.count[w])
    members = want.rank[want.center[w]] < want.count[w][:, None]
    own = (np.abs(b[:, None] - b[None, :]) * np.abs(f) * sp.mass * members).sum(axis=1)
    np.testing.assert_allclose(own / want.measure[w], values, rtol=1e-12, atol=0)


def test_grand_maximal_equals_the_by_center_oracle(case):
    name, sp, want = case
    rng = np.random.default_rng(43)
    fs = [rng.lognormal(0.0, 1.0, sp.n), np.abs(rng.standard_normal(sp.n))]
    full = np.arange(sp.n)
    # on the lines, the last points' sub-balls have the highest ids
    region = full[-8:] if name.startswith("line") else full[: sp.n // 2]
    vals, wits, sub_ids = region_grand_maximal(sp, region, full, fs, want_witness=True)
    want_vals, want_wits, want_sub = oracles.region_grand_maximal_by_centers(sp, region, full, fs, want)
    assert np.array_equal(sub_ids, want_sub)
    if name == "line384":
        assert sub_ids.min() > np.iinfo(np.uint16).max
    for i in range(len(fs)):
        np.testing.assert_allclose(vals[i], want_vals[i], rtol=1e-12, atol=0)
        assert wits[i].dtype == np.int64
        assert np.array_equal(wits[i], want_wits[i])
