import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstest
from scipy.stats import t as student_t

from spheretail import (
    ChiSquare,
    FDist,
    PointConfiguration,
    delta_exact,
    estimate_delta,
    log_delta_asymptotic,
    p_exact,
    sample_tmax,
    simulate_pmax,
)
from spheretail import geometry, montecarlo
from spheretail.montecarlo import CHUNK_TRIALS


def _random_config(n, n_points):
    points = np.random.default_rng([n, n_points]).standard_normal((n_points, n))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    return PointConfiguration.from_points(points)


def _digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


FROZEN_GRID = np.arange(0.25, 8.01, 0.25)


class _LastChunkFails(ChiSquare):
    def sample(self, rng, size=None):
        if size != CHUNK_TRIALS:
            raise RuntimeError("sampler failed in the last chunk")
        return super().sample(rng, size)


class TestDeterminism:
    def test_same_seed_identical_results(self, benchmark_config, t_law):
        grid = np.arange(1.0, 5.01, 1.0)
        a = simulate_pmax(benchmark_config, t_law, grid, 2 * CHUNK_TRIALS + 17, seed=5)
        b = simulate_pmax(benchmark_config, t_law, grid, 2 * CHUNK_TRIALS + 17, seed=5)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.standard_errors, b.standard_errors)
        assert (a.trials, a.seed, a.law_digest, a.config_digest) == (
            b.trials, b.seed, b.law_digest, b.config_digest
        )

    def test_different_seeds_differ(self, benchmark_config, t_law):
        grid = np.array([1.0, 2.0])
        a = simulate_pmax(benchmark_config, t_law, grid, 10**4, seed=1)
        b = simulate_pmax(benchmark_config, t_law, grid, 10**4, seed=2)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_metadata(self, benchmark_config, t_law, gauss_law):
        grid = np.array([1.0])
        a = simulate_pmax(benchmark_config, t_law, grid, 100, seed=9)
        b = simulate_pmax(benchmark_config, gauss_law, grid, 100, seed=9)
        assert a.trials == 100 and a.seed == 9
        assert a.config_digest == b.config_digest
        assert a.law_digest != b.law_digest

    def test_config_digest_is_pinned(self):
        # the first 16 hex digits of the sha256 of the points' bytes; literal
        # points keep the digest free of any factorisation's rounding
        config = PointConfiguration.from_points(
            [[1, 0, 0, 0, 0], [0.6, 0.8, 0, 0, 0], [0, 0.6, 0.8, 0, 0], [0, 0, 0, 0.6, 0.8]]
        )
        result = simulate_pmax(config, ChiSquare(5.0), [1.0], 100, seed=1)
        assert result.config_digest == "b9dcfbea765fd13d"


class TestFrozenBits:
    # sha256 of the draws as computed when the chunks still ran one after
    # another: no worker count or scheduling may move a bit.  The digests
    # rest on the BLAS product as well as on the generator;
    # test_raw_draws_are_pinned separates the two.  The pmax digests draw a
    # Gaussian row only for the radii that reach FROZEN_GRID[0]
    CASES = [
        (2, 2, ChiSquare(2.0), "df30fdd9762fc928", "4ff9fe033a61546d"),
        (2, 2, FDist(3.0, 3.0), "94149f80d8234f4e", "3467345da0c67baa"),
        (3, 3, ChiSquare(3.0), "e8442481242d7941", "5e87cee35ec24324"),
        (3, 3, FDist(3.0, 3.0), "5a6451ff8cbfd744", "f9602a1ac091077d"),
        (5, 10, ChiSquare(5.0), "7234de0bac1fcd98", "68379cdc5cf44793"),
        (5, 10, FDist(3.0, 3.0), "6218e44ff1dc2357", "4a796764710bf532"),
        (10, 50, ChiSquare(10.0), "20115821b9d1cd9d", "94627cccde36c5a5"),
        (10, 50, FDist(3.0, 3.0), "7b54b601befc97f3", "87fd0335cff51ace"),
    ]

    @pytest.mark.parametrize(
        "n, n_points, law, tmax_digest, pmax_digest", CASES,
        ids=[f"{n}-{n_points}-{law.family}" for n, n_points, law, _, _ in CASES],
    )
    def test_digests(self, n, n_points, law, tmax_digest, pmax_digest):
        config = _random_config(n, n_points)
        tmax = [sample_tmax(config, law, trials, seed=7) for trials in (1, 16384, 16385, 50000)]
        sim = simulate_pmax(config, law, FROZEN_GRID, 300000, seed=7)
        assert (_digest(tmax), _digest([sim.estimates])) == (tmax_digest, pmax_digest)

    def test_raw_draws_are_pinned(self):
        # chunk 0's squared radii and Gaussian rows for seed 7, in draw order
        # and before any product: where a digest above differs on another
        # host and this one holds, only the BLAS product moved, not the draws
        generator = montecarlo._chunk_generator(7, 0)
        r_sq = FDist(3.0, 3.0).sample(generator, CHUNK_TRIALS)
        z = generator.standard_normal((CHUNK_TRIALS, 10))
        assert _digest([r_sq, z]) == "9695819f0e6695ea"

    def test_directions_are_drawn_only_where_the_radius_reaches_the_grid(self):
        # one chunk rebuilt by hand: every squared radius, then one Gaussian
        # row for each radius that reaches the first threshold, in trial order
        config, law = _random_config(3, 3), FDist(3.0, 3.0)
        grid = np.array([1.5, 2.0, 4.0])
        generator = montecarlo._chunk_generator(7, 0)
        r_sq = law.sample(generator, CHUNK_TRIALS)
        r_sq = r_sq[r_sq >= grid[0] ** 2]
        z = generator.standard_normal((r_sq.size, config.dim))
        tmax = np.max(config.points @ z.T, axis=0) * np.sqrt(r_sq / np.einsum("ij,ij->i", z, z))
        counts = np.sum(tmax[:, None] >= grid, axis=0)
        assert 0 < r_sq.size < CHUNK_TRIALS / 2
        sim = simulate_pmax(config, law, grid, CHUNK_TRIALS, seed=7)
        assert np.array_equal(sim.estimates, counts / CHUNK_TRIALS)

    def test_a_grid_above_every_radius_draws_no_direction(self, monkeypatch):
        rows = []

        class RecordingGenerator:
            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, name):
                return getattr(self._generator, name)

            def standard_normal(self, size):
                rows.append(size[0])
                return self._generator.standard_normal(size)

        chunk_generator = montecarlo._chunk_generator
        monkeypatch.setattr(montecarlo, "_chunk_generator",
                            lambda seed, j: RecordingGenerator(chunk_generator(seed, j)))
        # a chi-square(3) radius exceeds 100 with probability about e**-5000
        sim = simulate_pmax(_random_config(3, 3), ChiSquare(3.0), [100.0, 200.0],
                            3 * CHUNK_TRIALS + 5, seed=7)
        assert np.array_equal(sim.estimates, [0.0, 0.0])
        assert rows == [0, 0, 0, 0]

    def test_worker_count_moves_no_bit(self, monkeypatch):
        config, law = _random_config(5, 10), FDist(3.0, 3.0)
        trials = 5 * CHUNK_TRIALS + 3
        expected = None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 3, 16):
                monkeypatch.setattr(montecarlo, "_available_cpus", lambda: workers)
                tmax = sample_tmax(config, law, trials, seed=2)
                sim = simulate_pmax(config, law, FROZEN_GRID, trials, seed=2)
                if expected is None:
                    expected = (tmax, sim.estimates)
                assert np.array_equal(tmax, expected[0])
                assert np.array_equal(sim.estimates, expected[1])
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, n_points", [(2, 2), (3, 1), (3, 3), (5, 10), (10, 50)])
    @pytest.mark.parametrize("law", [ChiSquare(3.0), FDist(3.0, 3.0)], ids=repr)
    def test_scaling_once_matches_normalising_every_coordinate(self, n, n_points, law):
        # one chunk rebuilt the old way: each row of z normalised before the
        # product, the maximum scaled by R afterwards
        config = _random_config(n, n_points)
        generator = montecarlo._chunk_generator(7, 0)
        r_sq = law.sample(generator, CHUNK_TRIALS)
        z = generator.standard_normal((CHUNK_TRIALS, n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        oracle = np.max(config.points @ z.T, axis=0) * np.sqrt(r_sq)
        tmax = sample_tmax(config, law, CHUNK_TRIALS, seed=7)
        assert np.all(np.abs(tmax - oracle) <= 4.0 * np.finfo(float).eps * np.sqrt(r_sq))

    @pytest.mark.parametrize("n_points", [1, 3, 50, 1000])
    def test_block_size_moves_no_estimate(self, monkeypatch, n_points):
        config, law = _random_config(3, n_points), FDist(3.0, 3.0)
        trials = 2 * CHUNK_TRIALS + 5
        expected = None
        for budget in (1 << 8, 1 << 12, 1 << 18, 1 << 22):
            monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", budget)
            estimates = simulate_pmax(config, law, FROZEN_GRID, trials, seed=3).estimates
            if expected is None:
                expected = estimates
            assert np.array_equal(estimates, expected)

    def test_block_sizes(self, monkeypatch):
        assert [geometry._block_columns(n) for n in (1, 16, 17, 50, 1000)] == [
            131072, 8192, 4096, 2048, 128]
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 1 << 8)
        assert [geometry._block_columns(n) for n in (1, 3, 256, 257, 1000)] == [
            256, 64, 1, 1, 1]

    def test_chunk_exception_reaches_caller(self, benchmark_config):
        law = _LastChunkFails(3.0)
        with pytest.raises(RuntimeError, match="last chunk"):
            sample_tmax(benchmark_config, law, 3 * CHUNK_TRIALS + 5, seed=0)
        with pytest.raises(RuntimeError, match="last chunk"):
            simulate_pmax(benchmark_config, law, FROZEN_GRID, 3 * CHUNK_TRIALS + 5, seed=0)


class TestChunkStreams:
    """Chunk j of seed s draws from SFC64 seeded by the j-th child of
    ``SeedSequence(s)``; these tests hold apart from any digest."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("chunk_index", [0, 1, 5])
    def test_chunk_draws_from_the_spawned_child(self, seed, chunk_index):
        child = np.random.SeedSequence(seed).spawn(chunk_index + 1)[chunk_index]
        oracle = np.random.Generator(np.random.SFC64(child))
        generator = montecarlo._chunk_generator(seed, chunk_index)
        assert np.array_equal(generator.standard_normal(1000), oracle.standard_normal(1000))
        assert np.array_equal(generator.gamma(1.5, 2.0, 1000), oracle.gamma(1.5, 2.0, 1000))

    def test_chunks_and_seeds_draw_apart(self):
        def draws(seed, chunk_index):
            return montecarlo._chunk_generator(seed, chunk_index).standard_normal(64)

        assert not np.any(draws(0, 0) == draws(0, 1))
        assert not np.any(draws(0, 0) == draws(2**64 - 1, 0))

    @pytest.mark.parametrize("law, marginal", [
        # one point: the field is <u, xi>, standard normal under chi-square(3)
        # and t_3 / sqrt(3) under F(3, 3), whose xi is g / sqrt(chi-square(3))
        (ChiSquare(3.0), ndtr),
        (FDist(3.0, 3.0), lambda x: student_t.cdf(math.sqrt(3.0) * x, 3.0)),
    ], ids=["chi_square", "f"])
    def test_multi_chunk_sample_has_the_exact_marginal(self, law, marginal):
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0]])
        tmax = sample_tmax(config, law, 5 * CHUNK_TRIALS + 3, seed=7)
        assert kstest(tmax, marginal).pvalue >= 1e-3


class TestAvailableCpus:
    def test_without_cpu_affinity_the_cpu_count_is_used(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert montecarlo._available_cpus() == 7
        # os.cpu_count() is None where the count cannot be found
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._available_cpus() == 1


class TestChunkWindow:
    @staticmethod
    def _peak_traced_bytes(trials):
        total = 0
        lock = threading.Lock()

        def chunk_fn(j, size):
            nonlocal total
            with lock:
                total += size

        tracemalloc.start()
        try:
            montecarlo._run_chunks(chunk_fn, trials)
            return total, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_trials(self):
        # 611 and 61 036 chunks; every chunk queued at once would hold about
        # 2 KB each, 115 MB at 1e9 trials
        small, small_peak = self._peak_traced_bytes(10**7)
        large, large_peak = self._peak_traced_bytes(10**9)
        assert (small, large) == (10**7, 10**9)
        assert large_peak <= small_peak + 64 * 1024

    def test_sample_tmax_holds_one_copy_of_its_output(self, monkeypatch, benchmark_config):
        # the chunks are written into one preallocated array, so the peak is
        # the output and the chunks in flight (1.2x here); joining a list of
        # the chunks held every trial twice (2.05x)
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
        trials = 2 * 10**6
        tracemalloc.start()
        try:
            tmax = sample_tmax(benchmark_config, FDist(3.0, 3.0), trials, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tmax.shape == (trials,)
        assert peak <= 1.5 * tmax.nbytes

    @pytest.mark.parametrize("workers", [2, 3])
    def test_first_failure_stops_taking_chunks(self, monkeypatch, workers):
        # a helper's chunk raises once the calling thread holds a chunk; that
        # chunk waits until every helper has ended, each after its failure
        # or on seeing one, and then no thread may take a further chunk
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: workers)
        caller, before = threading.current_thread(), set(threading.enumerate())
        caller_holds_a_chunk = threading.Event()
        started = []

        def chunk_fn(j, size):
            started.append(threading.current_thread())
            if threading.current_thread() is not caller:
                caller_holds_a_chunk.wait(timeout=30)
                raise RuntimeError("helper chunk failed")
            caller_holds_a_chunk.set()
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=30)
                assert not thread.is_alive()

        with pytest.raises(RuntimeError, match="helper chunk"):
            montecarlo._run_chunks(chunk_fn, 10**9)
        assert started.count(caller) == 1
        assert 2 <= len(started) == len(set(started)) <= workers

    def test_an_interrupt_leaves_no_thread_running(self, monkeypatch):
        # the calling thread is interrupted while a helper is inside a chunk:
        # the helper finishes that chunk, takes no other, and has ended by the
        # time the interrupt reaches the caller
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
        caller, before = threading.current_thread(), set(threading.enumerate())
        helper_in_chunk = threading.Event()
        finished = []

        def chunk_fn(j, size):
            if threading.current_thread() is caller:
                assert helper_in_chunk.wait(timeout=30)
                raise KeyboardInterrupt
            helper_in_chunk.set()
            time.sleep(0.1)
            finished.append(j)

        with pytest.raises(KeyboardInterrupt):
            montecarlo._run_chunks(chunk_fn, 10 * CHUNK_TRIALS)
        assert len(finished) == 1
        assert set(threading.enumerate()) <= before

    def test_one_chunk_starts_no_thread(self, monkeypatch, benchmark_config):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 16)
        seen = []
        chunk_tmax = montecarlo._chunk_tmax

        def recording(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return chunk_tmax(*args)

        monkeypatch.setattr(montecarlo, "_chunk_tmax", recording)
        before = threading.active_count()
        sample_tmax(benchmark_config, FDist(3.0, 3.0), CHUNK_TRIALS, seed=1)
        simulate_pmax(benchmark_config, FDist(3.0, 3.0), FROZEN_GRID, 10**4, seed=1)
        assert seen == [(threading.current_thread(), before)] * 2

    def test_concurrent_counts_lose_no_update(self, monkeypatch, benchmark_config):
        # 16 threads add 64 chunks' histograms into one total, with a thread
        # switch forced about every microsecond: a lost update would show as
        # a count below the one-thread count
        law, trials = FDist(3.0, 3.0), 64 * CHUNK_TRIALS
        grid = np.linspace(0.05, 8.0, 600)
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        expected = simulate_pmax(benchmark_config, law, grid, trials, seed=4).estimates
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                sim = simulate_pmax(benchmark_config, law, grid, trials, seed=4)
                assert np.array_equal(sim.estimates, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_chunks_finishing_out_of_order_move_no_bit(self, monkeypatch):
        # the even chunks are held back, so the odd ones finish first
        config, law = _random_config(5, 10), FDist(3.0, 3.0)
        trials = 5 * CHUNK_TRIALS + 3
        chunk_tmax = montecarlo._chunk_tmax
        finished = []

        def delayed(config, law, seed, chunk_index, size, reach):
            if chunk_index % 2 == 0:
                time.sleep(0.05)
            tmax = chunk_tmax(config, law, seed, chunk_index, size, reach)
            finished.append(chunk_index)
            return tmax

        monkeypatch.setattr(montecarlo, "_chunk_tmax", delayed)
        expected = None
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda: workers)
            finished.clear()
            tmax = sample_tmax(config, law, trials, seed=2)
            sim = simulate_pmax(config, law, FROZEN_GRID, trials, seed=2)
            if expected is None:
                expected = (tmax, sim.estimates)
            else:
                assert finished != sorted(finished)
            assert np.array_equal(tmax, expected[0])
            assert np.array_equal(sim.estimates, expected[1])


class TestAgainstAnalytic:
    def test_single_point_gaussian(self, gauss_law):
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0]])
        sim = simulate_pmax(config, gauss_law, np.array([2.0]), 10**6, seed=17)
        oracle = 1.0 - ndtr(2.0)
        assert abs(sim.estimates[0] - oracle) <= 3.0 * sim.standard_errors[0]

    def test_single_point_deep_tail(self, gauss_law):
        # a chi-square(3) radius reaches c = 4 with probability 1.1e-3, so
        # more than 99.9 % of the trials draw no direction
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0]])
        sim = simulate_pmax(config, gauss_law, np.array([4.0]), 10**6, seed=17)
        assert abs(sim.estimates[0] - ndtr(-4.0)) <= 3.0 * sim.standard_errors[0]

    def test_benchmark_t_grid(self, benchmark_config, t_law):
        grid = np.arange(1.0, 8.01, 1.0)
        sim = simulate_pmax(benchmark_config, t_law, grid, 10**4, seed=2)
        for j, c in enumerate(grid):
            assert abs(sim.estimates[j] - p_exact(benchmark_config, t_law, c)) <= (
                3.0 * sim.standard_errors[j]
            )

    def test_estimates_nonincreasing_and_se_formula(self, benchmark_config, t_law):
        grid = np.arange(0.5, 6.01, 0.5)
        sim = simulate_pmax(benchmark_config, t_law, grid, 10**5, seed=4)
        assert np.all(np.diff(sim.estimates) <= 0.0)
        expected_se = np.sqrt(sim.estimates * (1.0 - sim.estimates) / sim.trials)
        assert np.allclose(sim.standard_errors, expected_se, rtol=1e-14)

    def test_coverage_over_seeds(self, benchmark_config, t_law):
        # 95% nominal intervals from 200 independent seeds should cover the
        # exact probability at least 90% of the time
        c = 2.0
        exact = p_exact(benchmark_config, t_law, c)
        hits = 0
        for seed in range(200):
            sim = simulate_pmax(benchmark_config, t_law, np.array([c]), 4000, seed=seed)
            half = 1.96 * sim.standard_errors[0]
            hits += abs(sim.estimates[0] - exact) <= half
        assert hits / 200 >= 0.90

    def test_coverage_over_seeds_where_few_radii_reach_the_grid(self, benchmark_config, t_law):
        # an F(3, 3) radius reaches c = 2.3 with probability 0.10: nine in ten
        # trials draw no direction, and the intervals must cover as before
        c = 2.3
        exact = p_exact(benchmark_config, t_law, c)
        hits = 0
        for seed in range(200):
            sim = simulate_pmax(benchmark_config, t_law, np.array([c]), 4000, seed=seed)
            hits += abs(sim.estimates[0] - exact) <= 1.96 * sim.standard_errors[0]
        assert hits / 200 >= 0.90


class TestDeltaEstimation:
    def test_single_point_is_noise_around_zero(self, gauss_law):
        config = PointConfiguration.from_points([[1.0, 0.0, 0.0]])
        est, se = estimate_delta(config, gauss_law, 1.0, 10**5, seed=3)
        assert se > 0.0
        assert abs(est) <= 3.0 * se

    def test_benchmark_t_matches_exact(self, benchmark_config, t_law):
        est, se = estimate_delta(benchmark_config, t_law, 6.0, 10**5, seed=6)
        assert abs(est - delta_exact(benchmark_config, t_law, 6.0)) <= 3.0 * se

    def test_gaussian_consistent_with_prediction(self, benchmark_config, gauss_law):
        est, se = estimate_delta(benchmark_config, gauss_law, 3.0, 10**6, seed=8)
        predicted = math.exp(log_delta_asymptotic(benchmark_config, gauss_law, 3.0))
        assert abs(est - predicted) <= 3.0 * se

    def test_warns_when_underpowered(self, benchmark_config, gauss_law):
        with pytest.warns(UserWarning, match="below 100"):
            estimate_delta(benchmark_config, gauss_law, 4.0, 10**4, seed=1)

    def test_underflowing_tube_is_refused_before_simulating(
        self, benchmark_config, gauss_law, monkeypatch
    ):
        # the Gaussian P_tube underflows to 0 at c = 40, where delta_exact
        # refuses with the same message; no warning and no simulation come first
        def never(*args, **kwargs):
            raise AssertionError("simulate_pmax was called")

        monkeypatch.setattr(montecarlo, "simulate_pmax", never)
        message = "P_tube underflows to 0 at c=40; the relative error is undefined"
        with pytest.raises(FloatingPointError, match=message):
            delta_exact(benchmark_config, gauss_law, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=message):
                estimate_delta(benchmark_config, gauss_law, 40.0, 10**4, seed=1)


class TestSymmetries:
    def test_antithetic_pairs(self):
        # for a symmetric configuration {u, -u} the maximum is invariant
        # under eta -> -eta, draw by draw
        u = np.array([3.0, 1.0, -2.0])
        u /= np.linalg.norm(u)
        points = np.vstack([u, -u])
        rng = np.random.default_rng(123)
        eta = rng.standard_normal((1000, 3))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        forward = (eta @ points.T).max(axis=1)
        reverse = ((-eta) @ points.T).max(axis=1)
        assert np.array_equal(forward, reverse)

    def test_rotation_invariance_in_distribution(self, benchmark_config, t_law):
        rng = np.random.default_rng(31)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        rotated = PointConfiguration.from_points(benchmark_config.points @ q.T)
        a = sample_tmax(benchmark_config, t_law, 10**5, seed=100)
        b = sample_tmax(rotated, t_law, 10**5, seed=200)
        assert ks_2samp(a, b).pvalue > 1e-3


class TestValidation:
    def test_grid_must_be_sorted_positive(self, benchmark_config, t_law):
        with pytest.raises(ValueError):
            simulate_pmax(benchmark_config, t_law, np.array([2.0, 1.0]), 10, seed=0)
        with pytest.raises(ValueError):
            simulate_pmax(benchmark_config, t_law, np.array([-1.0, 1.0]), 10, seed=0)
        with pytest.raises(ValueError):
            simulate_pmax(benchmark_config, t_law, np.array([]), 10, seed=0)
        # NaN compares false both ways, so it must fail the checks, not pass them
        with pytest.raises(ValueError, match="^threshold must be positive$"):
            simulate_pmax(benchmark_config, t_law, np.array([1.0, np.nan]), 10, seed=0)
        with pytest.raises(ValueError, match="^threshold must be positive$"):
            simulate_pmax(benchmark_config, t_law, np.array([np.nan]), 10, seed=0)

    @pytest.mark.parametrize("grid", [[True, 2.0], ["1", "2"], [1.0, None], np.array([True])],
                             ids=repr)
    def test_grid_entries_must_be_numbers(self, benchmark_config, t_law, grid):
        # np.asarray(grid, dtype=float) once simulated [True, 2.0] and
        # ["1", "2"] at c = 1 and 2
        with pytest.raises(ValueError, match="^threshold must be a number, got "):
            simulate_pmax(benchmark_config, t_law, grid, 10, seed=0)

    def test_trials_must_be_positive(self, benchmark_config, t_law):
        with pytest.raises(ValueError):
            simulate_pmax(benchmark_config, t_law, np.array([1.0]), 0, seed=0)
        with pytest.raises(ValueError):
            sample_tmax(benchmark_config, t_law, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_seed_must_lie_in_the_64_bit_range(self, benchmark_config, t_law, seed):
        # [0, 2**64) is the command line's seed range, for the library as well
        message = rf"seed must lie in \[0, 2\*\*64\), got {seed}"
        with pytest.raises(ValueError, match=message):
            simulate_pmax(benchmark_config, t_law, np.array([1.0]), 10, seed=seed)
        with pytest.raises(ValueError, match=message):
            sample_tmax(benchmark_config, t_law, 10, seed=seed)
        largest = simulate_pmax(benchmark_config, t_law, np.array([1.0]), 10, seed=2**64 - 1)
        assert type(largest.seed) is int and largest.seed == 2**64 - 1


class TestDrawRule:
    """One rule reads a trial count and a seed, for every library entry point:
    an int or an integral float, never a bool, a string or None."""

    @staticmethod
    def _calls(config, law):
        return {
            "simulate_pmax": lambda trials, seed: simulate_pmax(
                config, law, np.array([1.0, 2.0]), trials, seed).estimates,
            "sample_tmax": lambda trials, seed: sample_tmax(config, law, trials, seed),
            "estimate_delta": lambda trials, seed: estimate_delta(
                config, law, 1.0, trials, seed),
        }

    @pytest.mark.parametrize("entry", ["simulate_pmax", "sample_tmax", "estimate_delta"])
    @pytest.mark.parametrize("trials, seed, name, bad", [
        (1000, 1.5, "seed", 1.5),
        (1000, True, "seed", True),
        (1000, "7", "seed", "7"),
        (1000, None, "seed", None),
        (True, 7, "trials", True),
        (2.5, 7, "trials", 2.5),
        ("10", 7, "trials", "10"),
    ])
    def test_refused(self, benchmark_config, t_law, entry, trials, seed, name, bad):
        call = self._calls(benchmark_config, t_law)[entry]
        with pytest.raises(ValueError) as err:
            call(trials, seed)
        assert str(err.value) == f"{name} must be an integer, got {bad!r}"

    @pytest.mark.parametrize("entry", ["simulate_pmax", "sample_tmax", "estimate_delta"])
    @pytest.mark.parametrize("trials, seed", [(1000.0, 7), (np.int64(1000), 7), (1000, 7.0)])
    def test_integral_values_draw_as_ints(self, benchmark_config, t_law, entry, trials, seed):
        call = self._calls(benchmark_config, t_law)[entry]
        assert np.array_equal(call(trials, seed), call(1000, 7))

    def test_result_holds_python_ints(self, benchmark_config, t_law):
        grid = np.array([1.0])
        sim = simulate_pmax(benchmark_config, t_law, grid, np.int64(1000), 7.0)
        assert type(sim.trials) is int and type(sim.seed) is int
        assert (sim.trials, sim.seed) == (1000, 7)
