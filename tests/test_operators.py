"""Maximal function, maximal commutator, localized variants, sparse operators."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from shtlab import (
    CommutatorKernel,
    QuasiMetricSpace,
    build_dyadic_system,
    build_probes,
    build_space,
    commutator_bM,
    estimate_from_values,
    maximal_function,
    probe_images,
    region_grand_maximal,
    sparse_commutator,
    sparse_commutator_adjoint,
    sparse_operator,
    weak_type_11_constant,
    weighted_lp_norm,
)
from shtlab import operators

SPACES = [("line", 12), ("sqline", 9), ("grid2d", 3), ("tree", 13), ("pair", 2)]


def _cube(system, k, alpha):
    return system.cubes[k][alpha]


def _indicator_columns(sp, rng, balls=6):
    """Columns with |f| in {0, 1}: indicators of up to `balls` canonical
    balls, two of random sets with random signs, and an empty one."""
    t = sp.ball_table()
    ids = rng.choice(len(t.center), size=min(balls, len(t.center)), replace=False)
    signed = np.where(rng.random((sp.n, 2)) < 0.5, -1.0, 1.0) * (rng.random((sp.n, 2)) < 0.6)
    inside = (t.rank[t.center[ids]] < t.count[ids, None]).T
    return np.concatenate([inside.astype(np.float64), signed, np.zeros((sp.n, 1))], axis=1)


class TestMaximalFunction:
    def test_constant_function(self):
        for kind, n in SPACES:
            sp = build_space(kind, n)
            got = maximal_function(sp, np.full(sp.n, -3.0)).values
            assert np.allclose(got, 3.0)

    def test_line4_point_mass(self):
        sp = build_space("line", 4)
        got = maximal_function(sp, np.array([1.0, 0.0, 0.0, 0.0])).values
        assert np.allclose(got, [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for kind, n in SPACES:
            sp = build_space(kind, n)
            f = rng.standard_normal(sp.n)
            got = maximal_function(sp, f).values
            assert np.allclose(got, oracles.maximal_function(sp, f), rtol=1e-12)

    def test_witness_attains_value(self):
        sp = build_space("line", 12)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(12)
        res = maximal_function(sp, f, want_witness=True)
        balls = sp.canonical_balls()
        for x in range(12):
            ball = balls[res.witnesses[x]]
            assert x in set(ball.members.tolist())
            avg = sp.average(np.abs(f), ball.members)
            assert avg == pytest.approx(res.values[x], rel=1e-12)

    def test_batch_matches_single(self):
        sp = build_space("tree", 13)
        rng = np.random.default_rng(4)
        F = rng.standard_normal((13, 5))
        batch = maximal_function(sp, F).values
        for j in range(5):
            assert np.allclose(batch[:, j], maximal_function(sp, F[:, j]).values)

    def test_columns_match_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for kind, n in SPACES:
            sp = build_space(kind, n)
            # 3n columns span several of M's column blocks
            F = rng.standard_normal((sp.n, 3 * sp.n))
            res = maximal_function(sp, F, want_witness=True)
            for j in range(F.shape[1]):
                one = maximal_function(sp, F[:, j], want_witness=True)
                assert np.array_equal(res.values[:, j], one.values)
                assert np.array_equal(res.witnesses[:, j], one.witnesses)

    def test_witness_is_lowest_id_at_the_max(self):
        rng = np.random.default_rng(24)
        spaces = [build_space(kind, n) for kind, n in SPACES] + [oracles.tied_quasi_grid()]
        for sp in spaces:
            # rounded values make exact ties between balls common; 3n
            # columns span several column blocks of M and of its sup
            F = np.round(rng.standard_normal((sp.n, 3 * sp.n)))
            avg = sp.ball_averages(np.abs(F))
            res = maximal_function(sp, F, want_witness=True)
            balls = sp.canonical_balls()
            for x in range(sp.n):
                ids = [i for i, b in enumerate(balls) if x in b.members]
                best = avg[ids].max(axis=0)
                assert np.array_equal(res.values[x], best)
                for j in range(F.shape[1]):
                    assert res.witnesses[x, j] == min(i for i in ids if avg[i, j] == best[j])

    def test_values_only_match_the_witness_path(self):
        rng = np.random.default_rng(25)
        spaces = [build_space(kind, n) for kind, n in SPACES]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        for sp in spaces:
            # 3n columns span several column blocks of M and of its sup;
            # rounded columns tie often
            F = rng.standard_normal((sp.n, 3 * sp.n))
            F[:, ::2] = np.round(F[:, ::2])
            res = maximal_function(sp, F)
            assert res.witnesses is None
            assert np.array_equal(res.values, maximal_function(sp, F, want_witness=True).values)

    def test_one_point_read_out_chunks_match(self, monkeypatch):
        rng = np.random.default_rng(26)
        spaces = [build_space(kind, n) for kind, n in SPACES] + [oracles.tied_quasi_grid()]
        for sp in spaces:
            F = np.round(rng.standard_normal((sp.n, 3 * sp.n)))
            fs = [np.abs(F[:, 0]), F[:, 1]]
            full = np.arange(sp.n)
            want = maximal_function(sp, F, want_witness=True)
            want_g = region_grand_maximal(sp, full, full, fs, want_witness=True)
            with monkeypatch.context() as m:
                # a floor of one float: each table is read one point at a
                # time and each block of ball sums is one center
                m.setattr(operators, "KERNEL_BLOCK", 8)
                got = maximal_function(sp, F, want_witness=True)
                got_g = region_grand_maximal(sp, full, full, fs, want_witness=True)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.witnesses, want.witnesses)
            for a, b in zip(got_g[0] + got_g[1], want_g[0] + want_g[1]):
                assert np.array_equal(a, b)

    def test_dominates_pointwise_value(self):
        sp = build_space("line", 12)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(12)
        assert np.all(maximal_function(sp, f).values >= np.abs(f) - 1e-15)

    def test_weak_type_constant_finite(self):
        sp = build_space("line", 16)
        c = weak_type_11_constant(sp)
        assert math.isfinite(c) and c >= 1.0 - 1e-12

    @pytest.mark.parametrize("kind", ["line48", "ties"])
    def test_weak_type_constant_matches_all_columns_through_m(self, kind):
        # the point-mass columns take M's closed form; the constant is
        # the one every column through maximal_function gives, bit for bit
        sp = oracles.tied_quasi_grid() if kind == "ties" else build_space("line", 48)
        rng = np.random.default_rng(0)
        F = np.concatenate([np.eye(sp.n), rng.lognormal(0.0, 1.0, (sp.n, 100))], axis=1)
        MF = maximal_function(sp, F).values
        l1 = np.abs(F).T @ sp.mass
        want = 0.0
        for j in range(F.shape[1]):
            order = np.argsort(MF[:, j])
            tail = np.cumsum(sp.mass[order][::-1])[::-1]
            want = max(want, float((MF[order, j] * tail).max()) / float(l1[j]))
        assert weak_type_11_constant(sp) == want


class TestCommutatorKernel:
    def test_constant_symbol_zero(self):
        for kind, n in SPACES:
            sp = build_space(kind, n)
            rng = np.random.default_rng(6)
            f = rng.standard_normal(sp.n)
            got = CommutatorKernel(sp, np.full(sp.n, 2.5)).apply(f).values
            assert np.array_equal(got, np.zeros(sp.n))

    def test_pair_closed_form(self):
        sp = build_space("pair", 2)
        got = CommutatorKernel(sp, np.array([0.0, 1.0])).apply(np.ones(2)).values
        assert np.allclose(got, [0.5, 0.5])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for kind, n in SPACES:
            sp = build_space(kind, n)
            b = rng.standard_normal(sp.n)
            f = rng.standard_normal(sp.n)
            got = CommutatorKernel(sp, b).apply(f).values
            assert np.allclose(got, oracles.commutator_kernel(sp, b, f), rtol=1e-12)

    @pytest.mark.parametrize("block", [operators.KERNEL_BLOCK, 1])
    def test_rows_equal_the_per_center_packing(self, monkeypatch, block):
        # a tied symbol leaves its symbol order to the stable sort's
        # tie-break; a block of 1 byte builds the rows one center at a time
        monkeypatch.setattr(operators, "KERNEL_BLOCK", block)
        spaces = [build_space(kind, n) for kind, n in SPACES]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        spaces += [build_space("line", 65), build_space("line", 129)]
        rng = np.random.default_rng(36)
        for sp in spaces:
            for b in (np.round(3.0 * rng.random(sp.n)), rng.lognormal(0.0, 1.0, sp.n)):
                kern = CommutatorKernel(sp, b)
                rows = (kern.ball_ids, kern.mu, kern.bits)
                for got, want in zip(rows, oracles.kernel_rows(sp, b)):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()

    def test_second_kernel_reads_the_memoized_class_map(self, monkeypatch):
        # probe images, then the domination's C_b: the second kernel on a
        # space finds its rows without another dedup
        sp = build_space("line", 48)
        rng = np.random.default_rng(39)
        CommutatorKernel(sp, rng.lognormal(0.0, 1.0, sp.n))
        calls = []
        dedup = operators._distinct_rows
        monkeypatch.setattr(operators, "_distinct_rows", lambda rows: calls.append(rows.shape) or dedup(rows))
        b = np.round(3.0 * rng.random(sp.n))
        kern = CommutatorKernel(sp, b)
        assert calls == []
        for got, want in zip((kern.ball_ids, kern.mu, kern.bits), oracles.kernel_rows(sp, b)):
            assert got.tobytes() == want.tobytes()

    def test_witness_is_canonical_and_attains(self):
        # the kernel collapses duplicate member sets internally; its
        # witnesses must still be valid canonical ball ids that attain
        # the supremum and contain the evaluation point
        rng = np.random.default_rng(9)
        for kind, n in (("line", 12), ("sqline", 9), ("tree", 13)):
            sp = build_space(kind, n)
            b, f = rng.standard_normal(sp.n), rng.standard_normal(sp.n)
            res = CommutatorKernel(sp, b).apply(f, want_witness=True)
            balls = sp.canonical_balls()
            for x in range(sp.n):
                ball = balls[res.witnesses[x]]
                mem = ball.members
                assert x in set(mem.tolist())
                avg = float(
                    np.sum(np.abs(b[x] - b[mem]) * np.abs(f[mem]) * sp.mass[mem])
                ) / sp.measure(mem)
                assert avg == pytest.approx(res.values[x], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("block", [1, 7 * 25, 40 * 25])
    def test_blocks_match_one_pass_on_a_tied_grid(self, monkeypatch, block):
        # lognormal masses and a quasi-metric full of distance ties give
        # many balls sharing a member set and many ties in the sup
        sp = oracles.tied_quasi_grid(5)
        rng = np.random.default_rng(33)
        bs = [rng.lognormal(0.0, 1.0, sp.n), np.round(3.0 * rng.random(sp.n))]
        fs = [rng.lognormal(0.0, 1.0, sp.n), np.round(2.0 * rng.random(sp.n))]
        whole = [[CommutatorKernel(sp, b).apply(f, want_witness=True) for f in fs] for b in bs]
        monkeypatch.setattr(operators, "KERNEL_BLOCK", block)
        balls = sp.canonical_balls()
        first = {}
        for i, ball in enumerate(balls):
            first.setdefault(ball.members.tobytes(), i)
        for b, want in zip(bs, whole):
            kern = CommutatorKernel(sp, b)
            for f, one in zip(fs, want):
                got = kern.apply(f, want_witness=True)
                assert np.array_equal(got.values, one.values)
                assert np.array_equal(got.witnesses, one.witnesses)
                assert np.array_equal(kern.apply(f).values, one.values)
                np.testing.assert_allclose(
                    got.values, oracles.commutator_kernel(sp, b, f), rtol=1e-12, atol=1e-15
                )
                for x, w in enumerate(got.witnesses):
                    mem = balls[w].members
                    assert x in set(mem.tolist())
                    assert first[mem.tobytes()] == w

    @pytest.mark.parametrize("width", [1, 3])
    def test_columns_match_single_column_calls(self, monkeypatch, width):
        # column blocks of `width` columns each, so the eight columns
        # span several blocks; ties and zeros exercise the witness rule
        rng = np.random.default_rng(34)
        spaces = [build_space(kind, n) for kind, n in SPACES]
        spaces += [oracles.lognormal_plane(), oracles.tied_quasi_grid()]
        for sp in spaces:
            F = np.concatenate(
                [rng.standard_normal((sp.n, 5)), np.round(2.0 * rng.random((sp.n, 3)))], axis=1
            )
            for b in (np.full(sp.n, 2.5), rng.standard_normal(sp.n)):
                kern = CommutatorKernel(sp, b)
                monkeypatch.setattr(operators, "KERNEL_BLOCK", width * len(kern.mu))
                got = kern.apply(F, want_witness=True)
                assert got.values.shape == got.witnesses.shape == F.shape
                assert np.array_equal(kern.apply(F).values, got.values)
                for j in range(F.shape[1]):
                    one = kern.apply(F[:, j], want_witness=True)
                    assert np.array_equal(got.values[:, j], one.values)
                    assert np.array_equal(got.witnesses[:, j], one.witnesses)

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_indicator_columns_match_the_running_sums(self, monkeypatch, block):
        # one input mixes indicator and lognormal columns; the class
        # path's sums per distinct r & B' (``_indicator_values``) must
        # agree bit for bit with apply's chord bounds and exact balls, on
        # the whole input and on each column alone.  A block of 1 or 3
        # rows' columns ends the class path's chunks mid-way through the
        # indicators.
        rng = np.random.default_rng(40)
        spaces = [build_space(kind, n) for kind, n in SPACES]
        spaces += [oracles.lognormal_plane(), oracles.tied_quasi_grid()]
        for sp in spaces:
            S = _indicator_columns(sp, rng, 12)
            F = np.concatenate([S, rng.lognormal(0.0, 1.0, (sp.n, 3))], axis=1)
            perm = rng.permutation(F.shape[1])
            F = F[:, perm]
            indicator = np.flatnonzero(perm < S.shape[1])
            for b in (np.full(sp.n, 2.5), rng.standard_normal(sp.n), rng.lognormal(0.0, 1.0, sp.n)):
                kern = CommutatorKernel(sp, b)
                if block:
                    monkeypatch.setattr(operators, "KERNEL_BLOCK", block * len(kern.mu))
                whole = kern.apply(F, want_witness=True)
                got = kern._indicator_values(F[:, indicator])
                assert got.tobytes() == whole.values[:, indicator].tobytes()
                for j in range(F.shape[1]):
                    one = kern.apply(F[:, j], want_witness=True)
                    assert one.values.tobytes() == whole.values[:, j].tobytes()
                    assert one.witnesses.tobytes() == whole.witnesses[:, j].tobytes()

    def test_bit_identical_to_row_cumsums(self):
        # the reference form: per row, two cumulative sums along the
        # symbol order, masked to the row's members; apply adds the same
        # terms in the same order, so it must agree exactly
        def reference(sp, kern, f):
            u = (sp.mass * np.abs(f))[kern.order]
            t = sp.ball_table()
            mask = t.rank[t.center[kern.ball_ids]][:, kern.order] < t.count[kern.ball_ids, None]
            A = np.cumsum(mask * u, axis=1)
            B = np.cumsum(mask * (kern.b_s * u), axis=1)
            vals = (2.0 * A - A[:, -1:]) * kern.b_s + (B[:, -1:] - 2.0 * B)
            vals /= kern.mu[:, None]
            vals[~mask] = -np.inf
            want = np.empty(sp.n)
            want[kern.order] = np.maximum(vals.max(axis=0), 0.0)
            wits = np.empty(sp.n, dtype=np.int64)
            wits[kern.order] = kern.ball_ids[vals.argmax(axis=0)]
            return want, wits

        rng = np.random.default_rng(36)
        # the (n, 3) and indicator inputs come from their own streams, so
        # the single columns keep their values
        wide = np.random.default_rng(37)
        sets = np.random.default_rng(38)
        for sp in (build_space("line", 24), oracles.lognormal_plane(), oracles.tied_quasi_grid()):
            for b in (rng.standard_normal(sp.n), np.round(3.0 * rng.random(sp.n))):
                kern = CommutatorKernel(sp, b)
                f = np.round(2.0 * rng.standard_normal(sp.n))
                want, wits = reference(sp, kern, f)
                got = kern.apply(f, want_witness=True)
                assert np.array_equal(got.values, want)
                assert np.array_equal(got.witnesses, wits)
                F = np.round(2.0 * wide.standard_normal((sp.n, 3)))
                got = kern.apply(F, want_witness=True)
                for j in range(3):
                    want, wits = reference(sp, kern, F[:, j])
                    assert np.array_equal(got.values[:, j], want)
                    assert np.array_equal(got.witnesses[:, j], wits)
                # indicator columns take the sums per distinct r & B'
                S = _indicator_columns(sp, sets)
                got = kern.apply(S, want_witness=True)
                for j in range(S.shape[1]):
                    want, wits = reference(sp, kern, S[:, j])
                    assert np.array_equal(got.values[:, j], want)
                    assert np.array_equal(got.witnesses[:, j], wits)

    @pytest.mark.parametrize(
        "kind", ["pair", "line48", "sqline32", "grid2d8", "tree31", "ties", "lognormal"]
    )
    def test_packed_rows_off_a_byte_edge(self, monkeypatch, kind):
        # the distinct-row count is no multiple of 8, so the last byte of
        # each position's bits is partly padding; a one-entry block packs
        # 8 rows per chunk and unpacks one position at a time
        sp = {
            "pair": lambda: build_space("pair", 2),
            "line48": lambda: build_space("line", 48),
            "sqline32": lambda: build_space("sqline", 32),
            "grid2d8": lambda: build_space("grid2d", 8),
            "tree31": lambda: build_space("tree", 31),
            "ties": oracles.tied_quasi_grid,
            "lognormal": oracles.lognormal_plane,
        }[kind]()
        t = sp.ball_table()
        rng = np.random.default_rng(37)
        F = np.concatenate([rng.lognormal(0.0, 1.0, (sp.n, 3)), np.round(2.0 * rng.random((sp.n, 2)))], axis=1)
        for b in (rng.lognormal(0.0, 1.0, sp.n), np.round(3.0 * rng.random(sp.n)), np.full(sp.n, 2.5)):
            kern = CommutatorKernel(sp, b)
            rows = len(kern.mu)
            assert rows % 8
            mask = t.rank[t.center[kern.ball_ids]][:, kern.order] < t.count[kern.ball_ids, None]
            assert kern.bits.shape == (sp.n, -(-rows // 8))
            assert np.array_equal(np.unpackbits(kern.bits, axis=1, count=rows).view(bool), mask.T)
            assert not np.unpackbits(kern.bits, axis=1)[:, rows:].any()
            want = kern.apply(F, want_witness=True)
            monkeypatch.setattr(operators, "KERNEL_BLOCK", 1)
            small = CommutatorKernel(sp, b)
            for name in ("bits", "ball_ids", "mu"):
                assert np.array_equal(getattr(small, name), getattr(kern, name))
            got = small.apply(F, want_witness=True)
            monkeypatch.undo()
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.witnesses, want.witnesses)
            # the reference form: masked cumulative sums per row
            for j in range(F.shape[1]):
                u = (sp.mass * F[:, j])[kern.order] * (not kern.constant)
                A = np.cumsum(mask * u, axis=1)
                B = np.cumsum(mask * (kern.b_s * u), axis=1)
                vals = (2.0 * A - A[:, -1:]) * kern.b_s + (B[:, -1:] - 2.0 * B)
                vals /= kern.mu[:, None]
                vals[~mask] = -np.inf
                assert np.array_equal(want.values[kern.order, j], np.maximum(vals.max(axis=0), 0.0))
                assert np.array_equal(want.witnesses[kern.order, j], kern.ball_ids[vals.argmax(axis=0)])

    def test_line384_membership_stays_packed(self):
        # the class path's set-up, built on its first read: one bit per
        # (position, distinct ball), 384 x 55901 entries in 2.7 MB, where
        # one byte each would take 21.5 MB; the class map dedups one
        # chunk of count groups at a time (5.6 MB traced peak)
        sp = build_space("line", 384)
        sp.ball_table()  # cached set-up stays out of the traced peak
        b = np.exp(0.5 * np.random.default_rng(38).standard_normal(sp.n))
        tracemalloc.start()
        try:
            kern = CommutatorKernel(sp, b)
            kern.bits
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kern.bits.nbytes == sp.n * -(-len(kern.mu) // 8)
        assert kept < 6e6
        assert peak < 7e6

    def test_no_columns(self):
        sp = build_space("line", 12)
        res = CommutatorKernel(sp, np.arange(12.0)).apply(np.empty((12, 0)), want_witness=True)
        assert res.values.shape == res.witnesses.shape == (12, 0)

    def test_applies_to_absolute_value(self):
        sp = build_space("line", 12)
        rng = np.random.default_rng(10)
        b, f = rng.standard_normal(12), rng.standard_normal(12)
        kern = CommutatorKernel(sp, b)
        assert np.allclose(kern.apply(f).values, kern.apply(np.abs(f)).values)

    def test_reuse_across_functions(self):
        sp = build_space("line", 12)
        rng = np.random.default_rng(11)
        b = rng.standard_normal(12)
        kern = CommutatorKernel(sp, b)
        for _ in range(3):
            f = rng.standard_normal(12)
            assert np.allclose(kern.apply(f).values, oracles.commutator_kernel(sp, b, f))


def _differential_spaces():
    """Every generator kind, the tied quasi-grid, the lognormal plane
    and 20 seeded random spaces."""
    named = [(f"{kind}{n}", lambda kind=kind, n=n: build_space(kind, n)) for kind, n in SPACES]
    named += [("ties", oracles.tied_quasi_grid), ("lognormal", oracles.lognormal_plane)]
    return named + [(f"random{seed}", lambda seed=seed: oracles.random_space(seed)) for seed in range(20)]


def _hard_inputs(sp, seed):
    """Symbols and an (n, 7) input: a monotone symbol, a lognormal one,
    a binary, a three-valued and a constant one; f lognormal, signed,
    identically 1, a point mass, lognormal with zeros, a ball's
    indicator and a rounded signed column (ties at every breakpoint)."""
    rng = np.random.default_rng(seed)
    n = sp.n
    t = sp.ball_table()
    point = np.zeros(n)
    point[n // 3] = 1.0
    ball = len(t.center) // 2
    F = np.stack(
        [
            rng.lognormal(0.0, 1.0, n),
            rng.standard_normal(n),
            np.ones(n),
            point,
            np.where(rng.random(n) < 0.5, 0.0, rng.lognormal(0.0, 1.0, n)),
            (t.rank[t.center[ball]] < t.count[ball]).astype(np.float64),
            np.round(2.0 * rng.standard_normal(n)),
        ],
        axis=1,
    )
    bs = [
        np.linspace(1.0, 2.0, n),
        rng.lognormal(0.0, 1.0, n),
        (rng.random(n) < 0.5).astype(np.float64),
        np.round(2.0 * rng.random(n)),
        np.full(n, 1.5),
    ]
    return bs, F


class TestBoundedCommutator:
    """The chord bounds and exact balls against the per-row running sums
    of ``oracles.kernel_by_rows``: values and witnesses bit for bit."""

    @pytest.mark.parametrize("name,make", _differential_spaces(), ids=[a for a, _ in _differential_spaces()])
    def test_matches_the_row_oracle(self, name, make):
        sp = make()
        bs, F = _hard_inputs(sp, sp.n)
        for b in bs:
            want_v, want_w = oracles.kernel_by_rows(sp, b, F)
            # one column at a time, values only, on a space with no class
            # map: the bounds run over every ball
            fresh = QuasiMetricSpace(sp.dist, sp.mass)
            kern = CommutatorKernel(fresh, b)
            for j in range(F.shape[1]):
                assert kern.apply(F[:, j]).values.tobytes() == want_v[:, j].tobytes()
            assert "member_classes" not in fresh._cache and "bits" not in kern.__dict__
            # the whole input with witnesses, then values and single
            # columns once the class map is at hand
            kern = CommutatorKernel(sp, b)
            got = kern.apply(F, want_witness=True)
            assert got.values.tobytes() == want_v.tobytes()
            assert got.witnesses.tobytes() == want_w.tobytes()
            assert kern.apply(F).values.tobytes() == want_v.tobytes()
            for j in range(F.shape[1]):
                one = kern.apply(F[:, j], want_witness=True)
                assert one.values.tobytes() == want_v[:, j].tobytes()
                assert one.witnesses.tobytes() == want_w[:, j].tobytes()

    @pytest.mark.parametrize("block", [1, 64 * 40])
    def test_small_blocks_match_the_row_oracle(self, monkeypatch, block):
        # a block of one float takes one center, triple and (ball,
        # column) pair at a time; 64 * 40 floats splits the chord pass
        # and the column groups of the larger spaces
        monkeypatch.setattr(operators, "KERNEL_BLOCK", block)
        spaces = [build_space("line", 24), build_space("tree", 31), oracles.tied_quasi_grid()]
        spaces += [oracles.random_space(seed) for seed in (3, 7)]
        for sp in spaces:
            bs, F = _hard_inputs(sp, 2 * sp.n)
            for b in bs[:4]:
                want_v, want_w = oracles.kernel_by_rows(sp, b, F)
                got = CommutatorKernel(sp, b).apply(F, want_witness=True)
                assert got.values.tobytes() == want_v.tobytes()
                assert got.witnesses.tobytes() == want_w.tobytes()

    def test_breakpoint_ties_on_the_squared_line(self):
        # a binary symbol puts every b(x) on a breakpoint and f = 1 ties
        # many balls; without the rounding margin the bounds prune the
        # winning balls at points 3 and 5
        sp = build_space("sqline", 9)
        b = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 2.0])
        for f in (np.ones(sp.n), np.arange(1.0, 10.0)):
            want_v, want_w = oracles.kernel_by_rows(sp, b, f)
            got = CommutatorKernel(sp, b).apply(f, want_witness=True)
            assert got.values.tobytes() == want_v.tobytes()
            assert got.witnesses.tobytes() == want_w.tobytes()

    def test_ball_indicators_take_the_bounds(self):
        # apply has one path: twelve ball indicators with witnesses go
        # through the chord bounds and exact balls, with no bit table
        sp = build_space("line", 48)
        t = sp.ball_table()
        rng = np.random.default_rng(41)
        ids = rng.choice(len(t.center), size=12, replace=False)
        F = (t.rank[t.center[ids]] < t.count[ids, None]).T.astype(np.float64)
        for b in (rng.lognormal(0.0, 1.0, sp.n), np.round(3.0 * rng.random(sp.n))):
            kern = CommutatorKernel(sp, b)
            got = kern.apply(F, want_witness=True)
            assert "bits" not in kern.__dict__
            want_v, want_w = oracles.kernel_by_rows(sp, b, F)
            assert got.values.tobytes() == want_v.tobytes()
            assert got.witnesses.tobytes() == want_w.tobytes()

    def test_single_column_builds_no_class_map(self):
        # the ladder's apply at line384: no class map and no bit table,
        # within 3 MB traced (the class path's set-up alone takes 5.6 MB)
        sp = build_space("line", 384)
        sp.ball_table()  # cached set-up stays out of the traced peak
        rng = np.random.default_rng(38)
        b = np.exp(0.5 * rng.standard_normal(sp.n))
        f = rng.lognormal(0.0, 1.0, sp.n)
        kern = CommutatorKernel(sp, b)
        assert _traced_peak(lambda: kern.apply(f)) <= 3e6
        assert "member_classes" not in sp._cache
        assert not {"ball_ids", "mu", "bits"} & set(kern.__dict__)


class TestCommutatorBM:
    def test_pair_closed_form(self):
        sp = build_space("pair", 2)
        b = np.array([0.0, 1.0])
        f = np.ones(2)
        assert np.allclose(maximal_function(sp, f).values, [1.0, 1.0])
        assert np.allclose(maximal_function(sp, b * f).values, [0.5, 1.0])
        assert np.allclose(commutator_bM(sp, b, f), [-0.5, 0.0])

    def test_constant_symbol_nonneg_f_zero(self):
        sp = build_space("line", 12)
        rng = np.random.default_rng(12)
        f = np.abs(rng.standard_normal(12))
        got = commutator_bM(sp, np.full(12, 3.0), f)
        assert np.allclose(got, 0.0, atol=1e-14)

    def test_pointwise_reduction_seeded(self):
        # |[b,M]f| <= C_b(|f|) for nonnegative symbols
        rng = np.random.default_rng(13)
        for kind, n in SPACES:
            sp = build_space(kind, n)
            for _ in range(10):
                b = np.abs(rng.standard_normal(sp.n))
                f = rng.standard_normal(sp.n)
                lhs = np.abs(commutator_bM(sp, b, f))
                rhs = CommutatorKernel(sp, b).apply(f).values
                scale = max(1.0, float(rhs.max()))
                assert np.all(lhs <= rhs + 1e-12 * scale)


def _grand_on_ball(sp, b0, f):
    """The grand maximal operator localized to b0, truncated to its
    4 A0 enlargement."""
    trunc = oracles.ball_at(sp, b0.center, 4.0 * sp.a0 * b0.radius)
    vals, _, _ = region_grand_maximal(sp, b0.members, trunc, [f])
    return vals[0]


class TestLocalizedMaximal:
    def test_vanishing_outside_enlargement_gives_zero(self):
        sp = build_space("line", 8)
        b0 = sp.smallest_covering_ball(np.array([0, 1]))
        big = np.flatnonzero(sp.dist[b0.center] < 4.0 * sp.a0 * b0.radius)
        f = np.ones(8)
        f[big] = 0.0
        assert np.allclose(_grand_on_ball(sp, b0, f), 0.0)

    def test_line8_right_indicator_matches_brute_force(self):
        sp = build_space("line", 8)
        b0 = sp.smallest_covering_ball(np.arange(4))
        f = np.zeros(8)
        f[7] = 1.0
        trunc = np.flatnonzero(sp.dist[b0.center] < 4.0 * sp.a0 * b0.radius)
        vals, wits, sub_ids = region_grand_maximal(sp, b0.members, trunc, [f], want_witness=True)
        want_vals, want_wits, want_sub = oracles.region_grand_maximal(sp, b0.members, trunc, [f])
        assert np.array_equal(sub_ids, want_sub)
        assert np.array_equal(wits[0], want_wits[0])
        for x in b0.members:
            assert vals[0][x] == pytest.approx(want_vals[0][x], abs=1e-15)

    def test_split_indicator_at_supporting_atom(self):
        sp = build_space("line", 8)
        b0 = sp.smallest_covering_ball(np.arange(8))
        f = np.zeros(8)
        f[2] = 1.0
        mf = maximal_function(sp, f).values
        grand = _grand_on_ball(sp, b0, f)
        # at the supporting atom |f| = 1 absorbs the maximal function
        excess = mf[2] - grand[2]
        assert excess <= mf[2] + 1e-15


class TestSparseOperators:
    def test_single_cube_gives_global_average(self):
        sp = build_space("line", 4)
        system = build_dyadic_system(sp, 0.5)
        root = system.cubes[system.levels[0]][0]
        rng = np.random.default_rng(15)
        f = rng.standard_normal(4)
        got = sparse_operator(sp, [root], f).values
        assert np.allclose(got, sp.average(f, np.arange(4)))

    def test_all_singletons_identity(self):
        sp = build_space("line", 4)
        system = build_dyadic_system(sp, 0.5)
        leaves = system.cubes[system.levels[-1]]
        assert all(len(c.members) == 1 for c in leaves)
        f = np.array([3.0, -1.0, 2.0, 0.5])
        assert np.allclose(sparse_operator(sp, leaves, f).values, f)

    def test_line4_two_cube_family(self):
        sp = build_space("line", 4)
        system = build_dyadic_system(sp, 0.5)
        root = system.cubes[system.levels[0]][0]
        pairs = system.cubes[system.levels[1]]
        left = next(c for c in pairs if set(c.members.tolist()) == {0, 1})
        f = np.array([1.0, 0.0, 0.0, 0.0])
        got = sparse_operator(sp, [root, left], f).values
        assert np.allclose(got, [0.75, 0.75, 0.25, 0.25])

    def test_matches_oracle(self):
        sp = build_space("line", 16)
        system = build_dyadic_system(sp, 0.5)
        cubes = [c for k in system.levels for c in system.cubes[k]][::2]
        rng = np.random.default_rng(16)
        f = rng.standard_normal(16)
        assert np.allclose(
            sparse_operator(sp, cubes, f).values, oracles.sparse_operator(sp, cubes, f)
        )

    def test_commutator_pair_single_cube(self):
        sp = build_space("pair", 2)
        system = build_dyadic_system(sp, 0.5)
        root = system.cubes[system.levels[0]][0]
        b = np.array([0.0, 1.0])
        f = np.ones(2)
        tv = sparse_commutator(sp, [root], b, f).values
        ta = sparse_commutator_adjoint(sp, [root], b, f).values
        assert tv[0] == pytest.approx(0.5)
        assert ta[0] == pytest.approx(0.5)

    def test_commutator_matches_oracle(self):
        sp = build_space("line", 12)
        system = build_dyadic_system(sp, 0.5)
        cubes = [c for k in system.levels for c in system.cubes[k]]
        rng = np.random.default_rng(17)
        b, f = rng.standard_normal(12), rng.standard_normal(12)
        assert np.allclose(
            sparse_commutator(sp, cubes, b, f).values,
            oracles.sparse_commutator(sp, cubes, b, f),
        )

    def test_constant_symbol_commutators_vanish(self):
        sp = build_space("line", 12)
        system = build_dyadic_system(sp, 0.5)
        cubes = [c for k in system.levels for c in system.cubes[k]]
        f = np.random.default_rng(18).standard_normal(12)
        b = np.full(12, 4.0)
        assert np.allclose(sparse_commutator(sp, cubes, b, f).values, 0.0, atol=1e-13)
        assert np.allclose(
            sparse_commutator_adjoint(sp, cubes, b, f).values, 0.0, atol=1e-13
        )

    def test_adjoint_pairing(self):
        sp = build_space("tree", 13)
        system = build_dyadic_system(sp, 0.5)
        cubes = [c for k in system.levels for c in system.cubes[k]]
        rng = np.random.default_rng(19)
        b = rng.standard_normal(13)
        u, v = rng.standard_normal(13), rng.standard_normal(13)
        lhs = float((sparse_commutator(sp, cubes, b, u).values * v * sp.mass).sum())
        rhs = float((u * sparse_commutator_adjoint(sp, cubes, b, v).values * sp.mass).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _family_spaces():
    """line16, tree15 and a lognormal-mass tied grid, each with its
    dyadic system."""
    for sp in (build_space("line", 16), build_space("tree", 15), oracles.tied_quasi_grid(4)):
        yield sp, build_dyadic_system(sp, 0.5)


class TestCubeFamilyIndex:
    FORMS = {
        "A_S": lambda sp, cubes, b, f: sparse_operator(sp, cubes, f).values,
        "T": lambda sp, cubes, b, f: sparse_commutator(sp, cubes, b, f).values,
        "T*": lambda sp, cubes, b, f: sparse_commutator_adjoint(sp, cubes, b, f).values,
    }
    ORACLES = {
        "A_S": lambda sp, cubes, b, f: oracles.sparse_operator(sp, cubes, f),
        "T": oracles.sparse_commutator,
        "T*": oracles.sparse_commutator_adjoint,
    }

    @pytest.mark.parametrize("form", ["A_S", "T", "T*"])
    def test_columns_are_per_column_calls_bit_for_bit(self, form):
        for sp, system in _family_spaces():
            rng = np.random.default_rng(sp.n)
            b = rng.lognormal(0.0, 1.0, sp.n)
            F = rng.standard_normal((sp.n, 5))
            cubes = system.all_cubes()
            for family in (cubes, cubes[1::3]):
                for given in (family, [c.members for c in family]):
                    block = self.FORMS[form](sp, given, b, F)
                    assert block.shape == F.shape
                    for j in range(F.shape[1]):
                        col = self.FORMS[form](sp, given, b, F[:, j])
                        assert np.array_equal(block[:, j], col)
                        want = self.ORACLES[form](sp, family, b, F[:, j])
                        np.testing.assert_allclose(col, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("form", ["A_S", "T", "T*"])
    def test_empty_family_is_zero(self, form):
        sp = build_space("line", 16)
        F = np.random.default_rng(3).standard_normal((16, 3))
        assert np.array_equal(self.FORMS[form](sp, [], np.ones(16), F), np.zeros((16, 3)))
        assert np.array_equal(self.FORMS[form](sp, [], np.ones(16), F[:, 0]), np.zeros(16))

    def test_member_arrays_match_cubes(self):
        for sp, system in _family_spaces():
            rng = np.random.default_rng(4)
            b, f = rng.lognormal(0.0, 1.0, sp.n), rng.lognormal(0.0, 1.0, sp.n)
            cubes = system.all_cubes()[::2]
            raw = [list(c.members) for c in cubes]
            for form in self.FORMS.values():
                assert np.array_equal(form(sp, cubes, b, f), form(sp, raw, b, f))

    def test_oscillation_sums_match_oracle(self):
        from shtlab.sparse import _oscillation_terms

        for sp, system in _family_spaces():
            b = np.random.default_rng(sp.n + 1).lognormal(0.0, 1.0, sp.n)
            all_cubes = system.all_cubes()
            for cubes in (all_cubes, all_cubes[::2], all_cubes[-3:]):
                index, dev, omega, inside, sums = _oscillation_terms(sp, cubes, b)
                want = oracles.oscillation_sums(sp, cubes, b)
                for q, cube in enumerate(cubes):
                    got = sums[index.start[q] : index.start[q] + len(cube.members)]
                    np.testing.assert_allclose(got, want[q][cube.members], rtol=1e-12, atol=0)
                    b_q = sp.average(b, cube.members)
                    np.testing.assert_allclose(
                        dev[index.start[q] : index.start[q] + len(cube.members)],
                        np.abs(b[cube.members] - b_q),
                        rtol=1e-12,
                        atol=1e-15,
                    )

    def test_member_classes_match_numpy_unique(self):
        spaces = [build_space(kind, n) for kind, n in SPACES]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        spaces += [build_space("line", 65), build_space("line", 129)]
        for sp in spaces:
            got = operators._member_classes(sp)
            for a, b in zip(got, oracles.member_classes(sp)):
                assert np.array_equal(a, b)
            assert operators._member_classes(sp) is got

    def test_member_classes_in_chunks_of_whole_count_groups(self, monkeypatch):
        # a block of 1 byte caps each dedup chunk at n balls, so chunks end
        # between count groups; a chunk that split a group would part twins
        monkeypatch.setattr(operators, "KERNEL_BLOCK", 1)
        calls = []
        dedup = operators._distinct_rows
        monkeypatch.setattr(operators, "_distinct_rows", lambda rows: calls.append(len(rows)) or dedup(rows))
        spaces = [build_space("line", 48), build_space("grid2d", 6), oracles.tied_quasi_grid()]
        for sp in spaces + [oracles.lognormal_plane()]:
            calls.clear()
            got = operators._member_classes(sp)
            assert len(calls) > 1 and max(calls) <= sp.n
            assert sum(calls) == len(sp.ball_table().center)
            for a, b in zip(got, oracles.member_classes(sp)):
                assert np.array_equal(a, b)

    def test_distinct_rows_match_numpy_unique(self):
        rng = np.random.default_rng(5)
        for rows, width in [(1, 1), (7, 1), (60, 3), (300, 8), (500, 13)]:
            packed = rng.integers(0, 3, size=(rows, width)).astype(np.uint8)
            packed[rows // 2 :] = packed[: rows - rows // 2]
            _, first, inverse = np.unique(packed, axis=0, return_index=True, return_inverse=True)
            got_first, got_inverse = operators._distinct_rows(packed)
            assert np.array_equal(got_first, first)
            assert np.array_equal(got_inverse, inverse.reshape(-1))


class TestNormsAndProbes:
    def test_unit_function_unit_weight(self):
        sp = build_space("line", 4)  # total mass 1
        assert weighted_lp_norm(sp, np.ones(4), np.ones(4), 2.0) == pytest.approx(1.0)

    def test_homogeneous(self):
        sp = build_space("line", 8)
        rng = np.random.default_rng(20)
        f = rng.standard_normal(8)
        w = np.exp(rng.standard_normal(8))
        for p in (1.5, 2.0, 3.0):
            assert weighted_lp_norm(sp, 2.0 * f, w, p) == pytest.approx(
                2.0 * weighted_lp_norm(sp, f, w, p)
            )

    def test_identity_operator_estimate_one(self):
        sp = build_space("line", 16)
        w = np.exp(np.random.default_rng(21).standard_normal(16))
        F, _ = build_probes(sp, random_count=8, seed=0)
        est, _ = estimate_from_values(sp, F, F, w, w, 2.0)
        assert est == pytest.approx(1.0)

    def test_constant_symbol_estimate_zero(self):
        sp = build_space("line", 16)
        F, _, _, cb, _ = probe_images(sp, np.full(16, 2.0), probes=4)
        est, _ = estimate_from_values(sp, cb, F, np.ones(16), np.ones(16), 2.0)
        assert est == 0.0

    def test_probe_labels_and_shapes(self):
        sp = build_space("line", 16)
        F, labels = build_probes(sp, random_count=5, seed=3, ball_cap=10)
        assert F.shape[0] == 16 and F.shape[1] == len(labels)
        kinds = {lab.split(":")[0] for lab in labels}
        assert kinds == {"point", "ball", "random"}

    def test_estimate_is_max_over_probes(self):
        sp = build_space("line", 16)
        rng = np.random.default_rng(22)
        w1 = np.exp(rng.standard_normal(16))
        w2 = np.exp(rng.standard_normal(16))
        F, labels = build_probes(sp, random_count=4, seed=1, ball_cap=8)
        vals = maximal_function(sp, F).values
        est, idx = estimate_from_values(sp, vals, F, w1, w2, 2.0)
        ratios = []
        for j in range(F.shape[1]):
            den = weighted_lp_norm(sp, F[:, j], w1, 2.0)
            num = weighted_lp_norm(sp, vals[:, j], w2, 2.0)
            ratios.append(num / den if den > 0 else 0.0)
        assert est == pytest.approx(max(ratios))
        assert idx == int(np.argmax(ratios))


class TestProbeImages:
    @pytest.mark.parametrize(
        "kind,n",
        [("line", 48), ("sqline", 32), ("tree", 31), ("grid2d", 6), ("lognormal", 20), ("ties", 5)],
    )
    def test_bit_identical_to_per_column_operators(self, kind, n):
        if kind == "lognormal":
            sp = oracles.lognormal_plane(n)
        elif kind == "ties":
            sp = oracles.tied_quasi_grid(n)
        else:
            sp = build_space(kind, n)
        rng = np.random.default_rng(23)
        for b in (np.full(sp.n, 1.5), rng.standard_normal(sp.n)):
            F, labels, mf, cb, bm = probe_images(sp, b, 4, 7, 600)
            F_ref, labels_ref = build_probes(sp, 4, 7, 600)
            assert np.array_equal(F, F_ref) and labels == tuple(labels_ref)
            # singleton balls repeat point columns: M over every column,
            # duplicates and point masses included, is the memoized image
            assert np.unique(F, axis=1).shape[1] < F.shape[1]
            assert np.array_equal(mf, maximal_function(sp, F).values)
            kernel = CommutatorKernel(sp, b)
            mf_ref, cb_ref, bm_ref = np.empty_like(F), np.empty_like(F), np.empty_like(F)
            for j in range(F.shape[1]):
                mf_ref[:, j] = maximal_function(sp, F[:, j]).values
                cb_ref[:, j] = kernel.apply(F[:, j]).values
                bm_ref[:, j] = commutator_bM(sp, b, F[:, j])
            assert np.array_equal(mf, mf_ref)
            assert np.array_equal(cb, cb_ref) and np.array_equal(bm, bm_ref)
            # the norm estimates sum over the same memory order, bit for bit
            w = np.linspace(0.5, 2.0, sp.n)
            for got, want in ((mf, mf_ref), (cb, cb_ref), (bm, bm_ref)):
                assert estimate_from_values(sp, got, F, w, w[::-1], 1.5) == (
                    estimate_from_values(sp, want, F_ref, w, w[::-1], 1.5)
                )

    def test_singleton_ball_copies_its_point_column(self):
        sp = oracles.lognormal_plane()
        b = np.abs(np.random.default_rng(24).standard_normal(sp.n))
        F, labels, mf, cb, bm = probe_images(sp, b, 2, 0, None)
        t = sp.ball_table()
        singles = [
            (j, int(t.center[int(lab[5:])]))
            for j, lab in enumerate(labels)
            if lab.startswith("ball:") and t.count[int(lab[5:])] == 1
        ]
        assert singles
        kernel = CommutatorKernel(sp, b)
        for j, c in singles:
            assert np.array_equal(F[:, j], F[:, c])
            assert np.array_equal(mf[:, j], mf[:, c])
            assert np.array_equal(cb[:, j], cb[:, c])
            assert np.array_equal(bm[:, j], bm[:, c])
            assert np.array_equal(cb[:, j], kernel.apply(F[:, j]).values)
            assert np.array_equal(bm[:, j], commutator_bM(sp, b, F[:, j]))

    def test_repeat_call_returns_the_read_only_memo(self):
        sp = build_space("line", 16)
        b = np.linspace(0.0, 1.0, 16)
        images = probe_images(sp, b, 4, 1, 32)
        assert probe_images(sp, b.copy(), 4, 1, 32) is images
        assert probe_images(sp, b, 4, 2, 32) is not images
        F, labels, mf, cb, bm = images
        assert isinstance(labels, tuple)
        for arr in (F, mf, cb, bm):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_rejects_no_random_probes(self):
        with pytest.raises(ValueError):
            probe_images(build_space("line", 8), np.ones(8), probes=0)


def _twin_sub_balls(sp, sub_ids):
    """Number of sub-balls sharing both their member set and their
    4 A0 enlargement with a lower sub-ball."""
    balls = sp.canonical_balls()
    keys = {
        (
            tuple(balls[i].members.tolist()),
            tuple(np.flatnonzero(sp.dist[balls[i].center] < 4.0 * sp.a0 * balls[i].radius)),
        )
        for i in sub_ids
    }
    return len(sub_ids) - len(keys)


class TestGrandMaximalOracle:
    def _check(self, sp, region, trunc, fs):
        vals, wits, sub_ids = region_grand_maximal(sp, region, trunc, fs, want_witness=True)
        want_vals, want_wits, want_sub = oracles.region_grand_maximal(sp, region, trunc, fs)
        assert np.array_equal(sub_ids, want_sub)
        for i in range(len(fs)):
            np.testing.assert_allclose(vals[i], want_vals[i], rtol=1e-12, atol=0)
            assert np.array_equal(wits[i], want_wits[i])
        return sub_ids

    @pytest.mark.parametrize(
        "kind,n", [("line", 48), ("sqline", 32), ("tree", 31), ("grid2d", 6), ("ties", 5)]
    )
    def test_matches_brute_force_on_full_and_partial_regions(self, kind, n):
        sp = oracles.tied_quasi_grid(n) if kind == "ties" else build_space(kind, n)
        rng = np.random.default_rng(29)
        f = rng.lognormal(0.0, 1.0, sp.n)
        g = rng.standard_normal(sp.n)
        g[rng.random(sp.n) < 0.4] = 0.0
        full = np.arange(sp.n)
        b0 = sp.smallest_covering_ball(np.arange(sp.n // 3))
        enlarged = np.flatnonzero(sp.dist[b0.center] < 4.0 * sp.a0 * b0.radius)
        scattered = np.sort(rng.choice(sp.n, sp.n // 2, replace=False))
        for region, trunc in ((full, full), (b0.members, enlarged), (scattered, full)):
            self._check(sp, region, trunc, [f, g])

    def _check_classes(self, sp, region):
        sub_ids = operators._sub_balls(sp, region)
        rep, twin, enl = operators._sub_ball_classes(sp, sub_ids)
        want_rep, want_twin, want_enlarged = oracles.sub_ball_classes(sp, sub_ids)
        assert np.array_equal(rep, want_rep)
        assert np.array_equal(twin, want_twin)
        t = sp.ball_table()
        assert np.array_equal(t.center[enl], t.center[sub_ids[rep]])
        assert np.array_equal(t.rank[t.center[enl]] < t.count[enl, None], want_enlarged)
        return rep, enl

    @pytest.mark.parametrize(
        "kind,n", [("line", 48), ("sqline", 32), ("tree", 31), ("grid2d", 6), ("ties", 5)]
    )
    def test_sub_ball_classes_match_the_packed_rows(self, kind, n):
        sp = oracles.tied_quasi_grid(n) if kind == "ties" else build_space(kind, n)
        rng = np.random.default_rng(29)
        b0 = sp.smallest_covering_ball(np.arange(sp.n // 3))
        scattered = np.sort(rng.choice(sp.n, sp.n // 2, replace=False))
        for region in (np.arange(sp.n), b0.members, scattered):
            self._check_classes(sp, region)

    def test_classes_sharing_an_enlargement_match_brute_force(self, monkeypatch):
        sp = build_space("line", 48)
        t = sp.ball_table()
        inside = t.rank[t.center] < t.count[:, None]
        enlarged = sp.dist[t.center] < 4.0 * sp.a0 * t.radius[:, None]
        classes = np.unique(np.concatenate([inside, enlarged], axis=1), axis=0)
        # every ball lies in the full region; far fewer enlargements than classes
        assert (len(classes), len(np.unique(classes[:, sp.n :], axis=0))) == (1017, 280)
        rep, enl = self._check_classes(sp, np.arange(sp.n))
        assert (len(rep), len(np.unique(operators._member_classes(sp)[1][enl]))) == (1017, 280)
        calls = []
        blocks = sp.ball_sum_blocks
        monkeypatch.setattr(
            sp, "ball_sum_blocks", lambda v, limit: calls.append(v.shape) or blocks(v, limit)
        )
        rng = np.random.default_rng(33)
        f = rng.lognormal(0.0, 1.0, sp.n)
        g = np.where(rng.random(sp.n) < 0.3, 0.0, rng.standard_normal(sp.n))
        full = np.arange(sp.n)
        self._check(sp, full, full, [f, g])
        # one call for the full sums, then one per block of enlargements
        assert len(calls) > 2

    def test_twin_sub_balls_match_brute_force(self):
        sp = build_space("tree", 31)
        region = sp.smallest_covering_ball(np.arange(16)).members
        f = np.random.default_rng(30).lognormal(0.0, 1.0, sp.n)
        g = np.where(np.arange(sp.n) % 3 == 0, 0.0, f)
        sub_ids = self._check(sp, region, np.arange(sp.n), [f, g])
        assert _twin_sub_balls(sp, sub_ids) > 0

    @pytest.mark.parametrize(
        "kind,n",
        [
            ("line", 48),
            ("sqline", 32),
            ("tree", 31),
            ("grid2d", 6),
            ("ties", 5),
            # some or all enlargements are the whole space
            ("pair", 2),
            ("line", 4),
        ],
    )
    def test_floors_report_exact_values_above_them(self, kind, n):
        sp = oracles.tied_quasi_grid(n) if kind == "ties" else build_space(kind, n)
        rng = np.random.default_rng(29)
        f = rng.lognormal(0.0, 1.0, sp.n)
        g = rng.standard_normal(sp.n)
        g[rng.random(sp.n) < 0.4] = 0.0
        full = np.arange(sp.n)
        b0 = sp.smallest_covering_ball(np.arange(max(1, sp.n // 3)))
        enlarged = np.flatnonzero(sp.dist[b0.center] < 4.0 * sp.a0 * b0.radius)
        scattered = np.sort(rng.choice(sp.n, sp.n // 2, replace=False))
        for region, trunc in ((full, full), (b0.members, enlarged), (scattered, full)):
            want_vals, want_wits, _ = oracles.region_grand_maximal(sp, region, trunc, [f, g])
            on = np.zeros(sp.n, dtype=bool)
            on[region] = True
            # floors between the region's values decide which classes
            # the bounds may skip
            for level in [
                lambda v: 0.0,
                lambda v: float(np.median(v[region])),
                lambda v: 1.5 * float(v.max()) + 1.0,
            ] + [lambda v, q=q: float(np.quantile(v[region], q)) for q in (0.1, 0.3, 0.7, 0.9, 0.97)]:
                floors = [level(v) for v in want_vals]
                vals, wits, _ = region_grand_maximal(
                    sp, region, trunc, [f, g], floors=floors, want_witness=True
                )
                for i, floor in enumerate(floors):
                    # the oracle sums in another order, so leave out its
                    # values within rounding of the floor
                    above = want_vals[i] > floor * (1.0 + 1e-12)
                    below = on & (want_vals[i] < floor * (1.0 - 1e-12))
                    np.testing.assert_allclose(vals[i][above], want_vals[i][above], rtol=1e-12, atol=0)
                    assert np.array_equal(wits[i][above], want_wits[i][above])
                    assert np.all(vals[i][below] == floor)
                    assert np.all(vals[i][on] >= floor)
                    assert np.all(vals[i][~on] == 0.0)
                    assert np.array_equal(wits[i] == -1, ~on | (vals[i] == floor))

    def test_one_enlargement_per_block_is_bit_identical(self, monkeypatch):
        for sp in (build_space("line", 48), oracles.tied_quasi_grid()):
            rng = np.random.default_rng(34)
            fs = [rng.lognormal(0.0, 1.0, sp.n), np.where(rng.random(sp.n) < 0.3, 0.0, 1.0)]
            full = np.arange(sp.n)
            region = sp.smallest_covering_ball(np.arange(sp.n // 2)).members
            for floors in (None, [0.0, 0.0], [2.0 * np.mean(v) for v in fs]):
                want = region_grand_maximal(sp, region, full, fs, floors=floors, want_witness=True)
                with monkeypatch.context() as m:
                    m.setattr(operators, "GRAND_BLOCK", 1)
                    got = region_grand_maximal(sp, region, full, fs, floors=floors, want_witness=True)
                assert np.array_equal(got[2], want[2])
                for a, b in zip(got[0] + got[1], want[0] + want[1]):
                    assert np.array_equal(a, b)

    def test_values_only_match_the_witness_path(self):
        rng = np.random.default_rng(37)
        spaces = [build_space(kind, n) for kind, n in SPACES]
        spaces += [oracles.tied_quasi_grid(), oracles.lognormal_plane()]
        for sp in spaces:
            # 3n functions, rounded ones tie often
            fs = list(rng.lognormal(0.0, 1.0, (3 * sp.n, sp.n)))
            fs[::2] = [np.round(f) for f in fs[::2]]
            full = np.arange(sp.n)
            region = sp.smallest_covering_ball(np.arange(max(1, sp.n // 2))).members
            for floors in (None, [0.0] * len(fs), [float(np.mean(f)) for f in fs]):
                vals, wits, sub_ids = region_grand_maximal(sp, region, full, fs, floors=floors)
                assert wits is None
                want = region_grand_maximal(sp, region, full, fs, floors=floors, want_witness=True)
                assert np.array_equal(sub_ids, want[2])
                for a, b in zip(vals, want[0]):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("floors", [[1.0], [1.0, 2.0, 3.0], [1.0, -0.5], [1.0, np.inf], [np.nan, 1.0]])
    def test_rejects_bad_floors(self, floors):
        sp = build_space("line", 8)
        full = np.arange(sp.n)
        with pytest.raises(ValueError):
            region_grand_maximal(sp, full, full, [np.ones(sp.n), np.ones(sp.n)], floors=floors)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratchBounds:
    """The ball sups fill one suffix max table at a time straight from
    blocks of ball sums and read it in chunks of points: on line96 the
    grand maximal keeps its traced scratch below two (balls x n) float
    arrays, M with witnesses below two and a half and values-only M
    below one and a quarter.  The maximal commutator kernel keeps its
    own within its (rows x columns) planes, on indicator columns too."""

    def _space(self, n=96):
        sp = build_space("line", n)
        sp.measured_constants()  # cached set-up stays out of the traced peak
        return sp, len(sp.ball_table().center) * sp.n * 8

    def test_grand_maximal_over_the_full_region(self):
        sp, unit = self._space()
        rng = np.random.default_rng(31)
        fs = [rng.lognormal(0.0, 1.0, sp.n), rng.standard_normal(sp.n)]
        full = np.arange(sp.n)
        assert _traced_peak(lambda: region_grand_maximal(sp, full, full, fs)) < 2 * unit

    def test_grand_maximal_with_floors(self):
        sp, unit = self._space()
        rng = np.random.default_rng(31)
        fs = [rng.lognormal(0.0, 1.0, sp.n), rng.standard_normal(sp.n)]
        full = np.arange(sp.n)
        # floors at 0 evaluate every class, so every meet column is kept
        for floors in ([0.0, 0.0], [4.0 * np.mean(np.abs(v)) for v in fs]):
            peak = _traced_peak(lambda: region_grand_maximal(sp, full, full, fs, floors=floors))
            assert peak < 2 * unit

    def test_maximal_function_on_more_columns_than_points(self):
        sp, unit = self._space()
        F = np.random.default_rng(32).standard_normal((sp.n, sp.n + 100))
        assert _traced_peak(lambda: maximal_function(sp, F, want_witness=True)) < 2.5 * unit

    def test_values_only_maximal_function_skips_the_witness_scratch(self):
        # no slot table and no id gather: the witness path measures 1.85
        sp, unit = self._space()
        F = np.random.default_rng(32).standard_normal((sp.n, sp.n + 100))
        assert _traced_peak(lambda: maximal_function(sp, F)) < 1.25 * unit

    def test_maximal_function_of_the_weak_type_probes(self):
        # weak_type_11_constant's 100 lognormal columns (5.13 MB traced)
        sp, _ = self._space()
        R = np.random.default_rng(0).lognormal(0.0, 1.0, (sp.n, 100))
        assert _traced_peak(lambda: maximal_function(sp, R)) < 7e6

    def test_kernel_on_more_columns_than_points(self, monkeypatch):
        sp, _ = self._space(64)
        rng = np.random.default_rng(35)
        F = rng.standard_normal((sp.n, sp.n + 100))
        kern = CommutatorKernel(sp, rng.lognormal(0.0, 1.0, sp.n))
        # blocks of 64 x 35 x 8 floats: the chord pass's 35 columns per
        # input column (32 quantiles plus 3) take groups of 8 columns,
        # so the 164 columns take 21 groups; the scratch is a few blocks
        # of each stage and the (n x k) input copies and outputs
        monkeypatch.setattr(operators, "KERNEL_BLOCK", 64 * 35 * 8 * 8)
        bound = (8 * operators.KERNEL_BLOCK + 7 * F.size) * 8
        assert _traced_peak(lambda: kern.apply(F, want_witness=True)) < bound

    def test_kernel_on_ball_indicator_probes(self, monkeypatch):
        # line48's distinct ball columns take the sums per distinct r & B'
        # in several chunks, within the same bound as the general columns
        # above
        sp, _ = self._space(48)
        F, labels = build_probes(sp, 16, 0, 4096)
        F = np.unique(F[:, [lab.startswith("ball:") for lab in labels]], axis=1)
        kern = CommutatorKernel(sp, np.random.default_rng(35).lognormal(0.0, 1.0, sp.n))
        monkeypatch.setattr(operators, "KERNEL_BLOCK", 32 * len(kern.mu))
        chunks = []
        by_classes = kern._by_classes

        def counted(words, inside):
            chunks.append(inside.shape[1])
            return by_classes(words, inside)

        monkeypatch.setattr(kern, "_by_classes", counted)
        bound = (8 * operators.KERNEL_BLOCK + 7 * F.size) * 8
        assert _traced_peak(lambda: kern._indicator_values(F)) < bound
        assert len(chunks) > 1 and sum(chunks) == F.shape[1]
