"""Array plumbing: finite matrices, softmax stability, the central-difference
kernel and its one-point oracle, counter-based randomness and the ordered
thread map."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptical import numerics
from elliptical.estimators import sparse_sinusoid
from elliptical.numerics import (
    EvaluationError,
    ParameterError,
    ShapeError,
    as_matrix,
    central_differences,
    derive_rng,
    make_rng,
    ordered_map,
    softmax_rows,
)

from oracles import finite_diff_jacobian, linear_function


class TestAsMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ShapeError):
            as_matrix([[np.inf, 1.0]])


class TestSoftmaxRows:
    def test_equal_entries_give_uniform(self):
        out = softmax_rows(np.full((3, 5), 2.7))
        np.testing.assert_allclose(out, 1.0 / 5.0, atol=1e-15)

    def test_hand_case(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self):
        rng = make_rng(2)
        z = rng.standard_normal((4, 6))
        shifted = z + rng.standard_normal((4, 1))
        np.testing.assert_allclose(softmax_rows(z), softmax_rows(shifted), atol=1e-12)

    def test_masked_entries_become_exact_zeros(self):
        out = softmax_rows(np.array([[1.0, -np.inf, 0.5]]))
        assert out[0, 1] == 0.0
        assert abs(out[0].sum() - 1.0) < 1e-12

    def test_where_mask_matches_additive_inf_mask_bitwise(self):
        # the old masked path: -inf above the diagonal, then exp of every entry
        rng = make_rng(4)
        t_len = 7
        z = rng.uniform(-30.0, 30.0, (3 * t_len, t_len))
        keep = np.tile(np.tri(t_len, dtype=bool), (3, 1))  # row 0 of a block: one live entry
        keep[4] = np.arange(t_len) == t_len - 1  # one live entry, in the last column
        masked = np.where(keep, z, -np.inf)
        e = np.exp(masked - np.max(masked, axis=1, keepdims=True))
        old = e / np.sum(e, axis=1, keepdims=True)
        for logits in (z, masked):  # -inf entries outside where change nothing
            new = softmax_rows(logits, where=keep)
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
        assert np.all(old[::t_len, 0] == 1.0) and old[4, -1] == 1.0
        e = np.exp(z - np.max(z, axis=1, keepdims=True))
        assert np.array_equal(softmax_rows(z), e / np.sum(e, axis=1, keepdims=True))

    def test_stack_with_broadcast_where_matches_its_rows_bitwise(self):
        # rows are the last axis: a (batch, heads, t, n) stack with one (n, n)
        # mask is the 2-D call on its rows with the mask repeated for each slice
        rng = make_rng(5)
        n = 9
        z = rng.uniform(-30.0, 30.0, (3, 2, n, n))
        keep = np.tri(n, dtype=bool)
        full = np.broadcast_to(keep, z.shape).reshape(-1, n)
        for where, rows_where in ((keep, full), (None, None)):
            got = softmax_rows(z, where=where)
            ref = softmax_rows(z.reshape(-1, n), where=rows_where).reshape(z.shape)
            assert got.shape == z.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_vector_is_the_one_row_call(self):
        z = make_rng(6).uniform(-30.0, 30.0, 11)
        one_row = softmax_rows(z[None, :])[0]
        assert np.array_equal(softmax_rows(z).view(np.int64), one_row.view(np.int64))
        with pytest.raises(ShapeError):
            softmax_rows(np.float64(1.0))

    def test_row_without_a_live_entry_raises(self):
        keep = np.array([[True, False], [False, False]])
        with pytest.raises(ParameterError):
            softmax_rows(np.zeros((2, 2)), where=keep)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_distributions(self, seed):
        rng = make_rng(seed)
        z = rng.uniform(-50.0, 50.0, (int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        out = softmax_rows(z)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_many_random_rows_sum_to_one(self):
        rng = make_rng(3)
        for _ in range(1000):
            z = rng.uniform(-30, 30, (2, 5))
            out = softmax_rows(z)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert np.all((out >= 0.0) & (out <= 1.0))


class TestFiniteDiffJacobian:
    def test_identity_function(self):
        x = make_rng(4).standard_normal(5)
        jac = finite_diff_jacobian(lambda v: v, x)
        np.testing.assert_allclose(jac, np.eye(5), atol=1e-10)

    def test_linear_map_recovered(self):
        rng = make_rng(5)
        a = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        jac = finite_diff_jacobian(lambda v: a @ v, x)
        np.testing.assert_allclose(jac, a, atol=1e-10)

    def test_hand_case(self):
        jac = finite_diff_jacobian(lambda v: np.array([v[0] ** 2, v[1]]), np.array([3.0, 1.0]))
        np.testing.assert_allclose(jac, [[6.0, 0.0], [0.0, 1.0]], atol=1e-6)

    def test_non_finite_output_raises(self):
        with pytest.raises(EvaluationError):
            finite_diff_jacobian(lambda v: np.array([np.nan, 0.0]), np.ones(2))

    def test_result_is_c_contiguous(self):
        # a transposed view would make a later np.sum over it add in another order
        jac = finite_diff_jacobian(lambda v: np.array([v[0] * v[1], v[1], v[2]]), np.ones(3))
        assert jac.shape == (3, 3) and jac.flags["C_CONTIGUOUS"]


def _per_row(f):
    """``f`` evaluated one point at a time, so a row's bits do not depend on the batch."""
    return lambda pts: np.stack([f(p) for p in pts])


class TestCentralDifferences:
    def test_each_point_matches_the_one_point_oracle_bitwise(self):
        rng = derive_rng(2, 0, 0)
        truths = {
            "linear-17": linear_function(rng.standard_normal((17, 4))),
            "sparse-sinusoid": sparse_sinusoid(5, [0, 3], [1.0, 0.4], [2, 1]),
        }
        for name, f in truths.items():
            pts = rng.uniform(-3.0, 3.0, (6, f.dim))
            # sparse_sinusoid is elementwise, so its rows keep their bits in a batch;
            # a many-row matrix product rounds differently from a one-row one
            batched = f if name == "sparse-sinusoid" else _per_row(f)
            jac = central_differences(batched, pts)
            assert jac.shape == (6, f.dim, f.out_dim)
            for p, x in enumerate(pts):
                assert jac[p].T.tobytes() == finite_diff_jacobian(f, x).tobytes(), name

    def test_three_calls_whatever_the_point_count(self):
        calls = []
        central_differences(lambda x: calls.append(x.shape) or x, np.ones((5, 3)))
        assert calls == [(5, 3), (15, 3), (15, 3)]

    def test_stack_matches_each_item_bitwise_in_three_calls(self):
        def f(x):
            # exactly rounded arithmetic alone, so a row's bits do not depend on the batch
            x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
            return np.stack([x0 * x1, x1 * x1 * x2, x0 / (1.0 + x2 * x2), x2 - x0], axis=-1)

        pts = derive_rng(3, 0, 0).uniform(-3.0, 3.0, (4, 6, 3))
        calls = []
        jac = central_differences(lambda x: calls.append(x.shape) or f(x), pts)
        assert calls == [(4, 6, 3), (4, 18, 3), (4, 18, 3)]
        assert jac.shape == (4, 6, 3, 4)
        for g in range(4):
            assert jac[g].tobytes() == central_differences(f, pts[g]).tobytes()


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(100)
        b = make_rng(123).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = make_rng(1).standard_normal(100)
        b = make_rng(2).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_derived_streams_are_independent(self):
        a = derive_rng(7, 1, 0).standard_normal(100)
        b = derive_rng(7, 1, 1).standard_normal(100)
        c = derive_rng(7, 2, 0).standard_normal(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.35

    def test_key_holds_each_field_unmasked(self):
        # the largest valid fields fill all 128 key bits
        got = derive_rng(2**64 - 1, 2**32 - 1, 2**32 - 1).integers(0, 2**63, 4)
        want = np.random.Generator(np.random.Philox(key=2**128 - 1)).integers(0, 2**63, 4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("args", [(-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 2**32, 0),
                                      (0, 0, -1), (0, 0, 2**32)])
    def test_out_of_range_fields_raise_instead_of_aliasing(self, args):
        # masking would map 2**64 to seed 0 and -1 to seed 2**64 - 1
        with pytest.raises(ParameterError):
            derive_rng(*args)

    def test_derivation_is_stable(self):
        assert np.array_equal(
            derive_rng(42, 3, 9).standard_normal(8),
            derive_rng(42, 3, 9).standard_normal(8),
        )


class TestOrderedMap:
    def test_order_is_kept_when_later_items_finish_first(self):
        finished = []
        last_done = threading.Event()

        def job(i):
            if i == 0:
                assert last_done.wait(timeout=10)  # item 0 ends after item 2
            finished.append(i)
            if i == 2:
                last_done.set()
            return 10 * i

        assert ordered_map(job, range(3), 3) == [0, 10, 20]
        assert finished.index(2) < finished.index(0)

    def test_a_workers_exception_is_raised_in_the_caller(self):
        def job(i):
            if i == 1:
                raise KeyError(f"item {i}")
            return i

        with pytest.raises(KeyError, match="item 1"):
            ordered_map(job, range(4), 2)

    def test_every_call_runs_when_one_fails(self):
        # the first raises at once; the pool still runs the calls queued behind it
        ran = []

        def job(i):
            ran.append(i)
            if i == 0:
                raise KeyError("item 0")

        with pytest.raises(KeyError, match="item 0"):
            ordered_map(job, range(6), 2)
        assert sorted(ran) == list(range(6))

    @pytest.mark.parametrize("workers", [1, 0])
    def test_one_worker_runs_on_the_callers_thread(self, workers):
        caller = threading.get_ident()
        assert ordered_map(lambda _: threading.get_ident(), range(3), workers) == [caller] * 3

    def test_workers_run_off_the_callers_thread(self):
        caller = threading.get_ident()
        assert caller not in ordered_map(lambda _: threading.get_ident(), range(3), 2)

    def test_callers_errstate_reaches_the_workers(self):
        def job(x):
            return np.geterr()["over"], x * np.float64(1e308)

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                ordered_map(job, [np.float64(10.0)] * 2, 2)
            assert ordered_map(job, [np.float64(0.5)] * 2, 2) == [("raise", 5e307)] * 2

    def test_a_job_that_maps_again_maps_inline(self):
        # every pool thread runs an outer job and maps again: on the pool, the inner
        # calls would wait behind the outer jobs that wait on them
        both_running = threading.Barrier(2)

        def job(i):
            both_running.wait(timeout=10)
            outer = threading.get_ident()
            return ordered_map(lambda j: (i, j, threading.get_ident() == outer), range(3), 2)

        assert ordered_map(job, range(2), 2) == [[(i, j, True) for j in range(3)] for i in range(2)]

    def test_consecutive_calls_run_on_the_same_threads(self, monkeypatch):
        monkeypatch.setattr(numerics, "_pool", (0, 0, None))  # this process has no pool yet
        both_running = threading.Barrier(2)

        def job(_):
            both_running.wait(timeout=10)  # so the two calls run on two threads at once
            return threading.get_native_id()

        first = set(ordered_map(job, range(2), 2))
        assert len(first) == 2
        assert set(ordered_map(job, range(2), 2)) == first
        # a larger call grows the pool: each four calls must run at once
        all_running = threading.Barrier(4)

        def wide_job(i):
            all_running.wait(timeout=10)
            return i

        assert ordered_map(wide_job, range(8), 4) == list(range(8))

    def test_concurrent_callers_each_get_their_own_results(self):
        # callers on plain threads race to make and grow the pool; each call keeps
        # the pool it read
        def caller(k):
            results[k] = [ordered_map(lambda x: (k, x), range(5), 2 + (k + r) % 3) for r in range(20)]

        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {k: [[(k, x) for x in range(5)]] * 20 for k in range(6)}

    def test_a_forked_child_maps_on_a_pool_of_its_own(self):
        ordered_map(abs, range(4), 2)  # the parent's pool exists when the child forks
        ctx = multiprocessing.get_context("fork")
        received, sent = ctx.Pipe(duplex=False)
        # the child inherits the parent's pool but not its threads
        child = ctx.Process(target=lambda: sent.send(ordered_map(lambda x: 10 * x, range(4), 2)))
        child.start()
        try:
            child.join(timeout=30)
            assert child.exitcode == 0
            assert received.recv() == [0, 10, 20, 30]
        finally:
            if child.is_alive():
                child.kill()
                child.join()
