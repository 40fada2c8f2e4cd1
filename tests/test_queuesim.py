import math
import os
import tracemalloc

import numpy as np
import pytest

from effcap import engine, queuesim
from effcap.channels import (CHUNK, FixedMatrix, IidComplexGaussian,
                             KroneckerCorrelated)
from effcap.engine import (FixedCovariance, QosScenario, StatisticalOptimized,
                           UniformIdentity)
from effcap.errors import DomainError, FitError
from effcap.queuesim import (_CSV_GROUP_ROWS, QueueTrace,
                             estimate_tail_exponent, lindley_path,
                             simulate_queue, validate_theta, write_trace_csv)
from oracles import write_trace_csv as write_trace_csv_rows

T, B = 1e-3, 1e5


def scen(theta_hat, n_r=1, n_t=1):
    return QosScenario.from_theta_hat(theta_hat, T, B, n_r, n_t)


def loop_lindley(arrival, services):
    q = np.empty(len(services))
    cur = 0.0
    for i, s in enumerate(services):
        cur = max(cur + arrival - s, 0.0)
        q[i] = cur
    return q


def reflected_lindley(arrival, services):
    """The reflection identity in whole-array form, the bits that
    lindley_path must reproduce."""
    s = np.cumsum(arrival - services)
    return s - np.minimum.accumulate(np.minimum(s, 0.0))


def make_trace(queue, warmup=0, arrival=1.0):
    queue = np.asarray(queue, dtype=float)
    return QueueTrace(queue_lengths=queue, service_min=1.0, service_max=1.0,
                      arrival_per_block=arrival, n_blocks=len(queue),
                      warmup_blocks=warmup)


def joined_services(model, strategy, n_blocks, seed, snr=10.0):
    """The services simulate_queue draws, as one array of T*B*chunk_rates."""
    return np.concatenate([
        T * B * engine.chunk_rates(ev, strategy, snr, model.n_r, model.n_t)
        for ev in engine.strategy_spectra(model, strategy, n_blocks, seed)])


class TestLindleyPath:
    def test_matches_loop_recursion_bitwise(self):
        rng = np.random.default_rng(0)
        services = rng.exponential(1.0, size=5000)
        got = lindley_path(0.9, services)
        want = loop_lindley(0.9, services)
        assert np.max(np.abs(got - want)) < 1e-9
        assert np.all(got >= 0.0)

    # 3 CHUNKs plus a partial one, so the running minimum is carried
    # across three block boundaries
    @pytest.mark.parametrize("where", ["first", "last", "never"])
    def test_blocked_minimum_matches_whole_array_bitwise(self, where):
        n = 3 * CHUNK + 123
        rng = np.random.default_rng(4)
        services = rng.exponential(1.0, size=n)
        arrival = 1.0
        if where == "first":
            # drains half a block, then refills for good
            services[:CHUNK // 2] += 2.0
            services[CHUNK // 2:] *= 0.5
        elif where == "last":
            services *= 0.5
            services[-100:] += 3 * CHUNK  # the minimum falls in the tail
        else:
            arrival = 0.5 * services.min()  # S only falls: Q stays 0
        got = lindley_path(arrival, services)
        want = reflected_lindley(arrival, services)
        s = np.cumsum(arrival - services)
        at = int(np.argmin(s))
        assert {"first": at < CHUNK, "last": at >= 3 * CHUNK,
                "never": s.max() < 0}[where]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_service_dominates_arrival(self):
        assert np.all(lindley_path(1.0, np.full(100, 2.0)) == 0.0)

    def test_zero_arrival(self):
        rng = np.random.default_rng(1)
        assert np.all(lindley_path(0.0, rng.exponential(1.0, 100)) == 0.0)

    def test_deterministic_growth(self):
        # arrival 2, service 1: queue grows by exactly 1 per block
        got = lindley_path(2.0, np.ones(5))
        assert np.array_equal(got, np.arange(1.0, 6.0))


class TestSimulateQueue:
    def test_positive_recurrent_siso(self):
        sc = scen(1.0)
        model = IidComplexGaussian(1, 1)
        trace = simulate_queue(sc, model, UniformIdentity(), 10.0,
                               0.95 * T * B * 2.0, 200_000, 0)
        services = joined_services(model, UniformIdentity(), 200_000, 0)
        # arrival below E{service} (about 290 bits/block at snr 10):
        # the queue keeps returning to zero
        assert services.mean() > trace.arrival_per_block
        assert float((trace.stationary == 0.0).mean()) > 0.01
        want = loop_lindley(trace.arrival_per_block, services)
        assert np.max(np.abs(trace.queue_lengths - want)) < 1e-6

    def test_replay_is_deterministic(self):
        sc = scen(1.0)
        model = IidComplexGaussian(1, 1)
        a = simulate_queue(sc, model, UniformIdentity(), 10.0, 100.0,
                           150_000, 3)
        b = simulate_queue(sc, model, UniformIdentity(), 10.0, 100.0,
                           150_000, 3)
        assert np.array_equal(a.queue_lengths, b.queue_lengths)
        assert (a.service_min, a.service_max) \
            == (b.service_min, b.service_max)

    # the Lindley pass run chunk by chunk inside the service loop gives the
    # bits of lindley_path over the joined services, for the small-gram
    # spectra and for a fixed K's eigvalsh(H K H^dagger)
    @pytest.mark.parametrize("model", [IidComplexGaussian(1, 1),
                                       IidComplexGaussian(2, 2)])
    def test_services_match_concatenated_chunks_bitwise(self, model):
        sc = scen(1.0, model.n_r, model.n_t)
        n = 7 * CHUNK + 5
        k = np.diag(np.linspace(2.0, 1.0, model.n_t))
        for strategy in (UniformIdentity(), FixedCovariance(k / k.trace())):
            services = joined_services(model, strategy, n, 2)
            # below the mean service, so the queue both grows and empties
            arrival = 0.9 * services.mean()
            trace = simulate_queue(sc, model, strategy, 10.0, arrival, n, 2)
            want = lindley_path(arrival, services)
            assert np.array_equal(trace.queue_lengths.view(np.uint64),
                                  want.view(np.uint64))
            assert 0.01 < float((trace.queue_lengths > 0).mean()) < 0.99
            assert (trace.service_min, trace.service_max) \
                == (services.min(), services.max())

    def test_peak_memory_per_block(self):
        # the queue is the one array, 8 bytes per block; the rest is one
        # chunk. Keeping the services beside the queue peaked at 2.05 x 8,
        # and whole-array temporaries in the Lindley pass with a list of
        # service chunks joined by np.concatenate at 4 x 8.
        n = 1_000_000
        args = (scen(1.0), IidComplexGaussian(1, 1), UniformIdentity(),
                10.0, 300.0)
        simulate_queue(*args, 100_000, 0)  # warm imports and caches
        tracemalloc.start()
        try:
            simulate_queue(*args, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n

    def test_block_count_validated(self):
        with pytest.raises(DomainError):
            simulate_queue(scen(1.0), IidComplexGaussian(1, 1),
                           UniformIdentity(), 1.0, 1.0, 1000, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            simulate_queue(scen(1.0, 2, 2), IidComplexGaussian(1, 1),
                           UniformIdentity(), 1.0, 1.0, 200_000, 0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(DomainError):
            simulate_queue(scen(1.0), IidComplexGaussian(1, 1),
                           UniformIdentity(), 1.0, -1.0, 200_000, 0)


class TestEstimateTailExponent:
    def test_synthetic_exponential_tail(self):
        # P(Q >= q) = e^{-2q}: the fitted exponent recovers 2
        rng = np.random.default_rng(5)
        trace = make_trace(rng.exponential(0.5, size=500_000))
        fit = estimate_tail_exponent(trace)
        assert abs(fit.theta_est - 2.0) < 0.05
        assert fit.r_squared > 0.999
        assert fit.n_points >= 20

    def test_all_zero_queue_raises(self):
        with pytest.raises(FitError):
            estimate_tail_exponent(make_trace(np.zeros(10_000)))

    def test_exact_exponential_quantiles_recover_theta(self):
        # q_p = 3 - log(1 - p) / theta lies on the fitted line, whatever the
        # weights
        levels = queuesim._TAIL_LEVELS
        fit = queuesim._fit_tail(3.0 - np.log(1.0 - levels) / 0.25)
        assert abs(fit.theta_est - 0.25) <= 1e-12 * 0.25
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == len(levels)

    def test_quantiles_weighted_by_inverse_standard_deviation(self):
        # the closed-form weighted least squares of q on y = log(1 - p),
        # weights w^2 = (1 - p) / p, on noisy quantiles; an unweighted fit
        # of the same points gives another theta
        levels = queuesim._TAIL_LEVELS
        y = np.log(1.0 - levels)
        rng = np.random.default_rng(11)
        qs = -y / 0.5 + 0.05 * np.sqrt(levels / (1.0 - levels)) \
            * rng.standard_normal(len(levels))
        qs.sort()
        v = (1.0 - levels) / levels
        ybar, qbar = v @ y / v.sum(), v @ qs / v.sum()
        slope = v @ ((y - ybar) * (qs - qbar)) / (v @ (y - ybar) ** 2)
        fit = queuesim._fit_tail(qs)
        assert fit.theta_est == pytest.approx(-1.0 / slope, rel=1e-12)
        resid = qs - qbar - slope * (y - ybar)
        r2 = 1.0 - v @ resid ** 2 / (v @ (qs - qbar) ** 2)
        assert fit.r_squared == pytest.approx(r2, rel=1e-12)
        unweighted = -1.0 / np.polyfit(y, qs, 1)[0]
        assert abs(fit.theta_est - unweighted) > 1e-3 * unweighted

    def test_warmup_excluded(self):
        rng = np.random.default_rng(7)
        tail = rng.exponential(1.0, size=100_000)
        corrupt = np.concatenate([np.full(10_000, 1e9), tail])
        trace = make_trace(corrupt, warmup=10_000)
        fit = estimate_tail_exponent(trace)
        assert abs(fit.theta_est - 1.0) < 0.05

    # the quantile buffer's > cut filter would drop a NaN that np.quantile
    # propagates, and an infinite queue length is no sample path either
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace_raises(self, bad):
        rng = np.random.default_rng(8)
        queue = rng.exponential(1.0, size=50_000)
        queue[30_000] = bad
        with pytest.raises(FitError, match="not finite"):
            estimate_tail_exponent(make_trace(queue, warmup=5_000))

    def test_peak_memory_per_block(self):
        # above the trace, the fit holds at most 2k + CHUNK values, with k
        # the top 10% of the stationary trace; the np.quantile copy of the
        # stationary 90% peaked at 0.9 x 8 bytes per block
        n = 1_000_000
        rng = np.random.default_rng(9)
        queue = rng.exponential(1.0, size=n)
        queue[rng.random(n) < 0.5] = 0.0
        trace = make_trace(queue, warmup=n // 10)
        estimate_tail_exponent(make_trace(queue[:100_000]))  # warm caches
        tracemalloc.start()
        try:
            estimate_tail_exponent(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * n


class TestValidateTheta:
    def test_siso_rayleigh_passes(self):
        res = validate_theta(scen(1.0), IidComplexGaussian(1, 1),
                             UniformIdentity(), 10.0, 400_000, 0)
        assert not res.vacuous
        assert res.passed
        assert abs(res.theta_est - res.theta_target) \
            <= 0.15 * res.theta_target
        assert 0.9 <= res.tail_r_squared <= 1.0
        assert res.tail_n_points >= 20

    def test_inflated_arrival_slower_decay(self):
        # pushing the arrival above the effective capacity for theta means
        # the queue can only support a smaller decay exponent
        base = validate_theta(scen(1.0), IidComplexGaussian(1, 1),
                              UniformIdentity(), 10.0, 400_000, 0)
        hot = validate_theta(scen(1.0), IidComplexGaussian(1, 1),
                             UniformIdentity(), 10.0, 400_000, 0,
                             arrival_scale=1.1)
        cold = validate_theta(scen(1.0), IidComplexGaussian(1, 1),
                              UniformIdentity(), 10.0, 400_000, 0,
                              arrival_scale=0.9)
        assert hot.theta_est < base.theta_est < cold.theta_est

    def test_deterministic_service_is_vacuous(self):
        res = validate_theta(scen(1.0), FixedMatrix(np.array([[2.0 + 0j]])),
                             UniformIdentity(), 1.0, 200_000, 0)
        assert res.vacuous
        assert res.passed
        assert math.isnan(res.theta_est)
        assert math.isnan(res.tail_r_squared)
        assert res.tail_n_points == 0

    def test_service_spread_only_for_a_queue_that_never_grew(self):
        # deterministic service below the arrival: the queue grows, so the
        # run is fitted, not vacuous
        fixed = FixedMatrix(np.array([[2.0 + 0j]]))
        res = validate_theta(scen(1.0), fixed, UniformIdentity(), 1.0,
                             200_000, 0, arrival_scale=1.1)
        trace = simulate_queue(scen(1.0), fixed, UniformIdentity(), 1.0,
                               res.arrival_per_block, 200_000, 1)
        assert trace.service_max == trace.service_min
        assert trace.stationary.max() > 0.0
        assert not res.vacuous
        assert res.tail_n_points >= 20
        # no arrivals and random service: the queue never grew, but the
        # service spread, so the run is not vacuous and has no tail to fit
        with pytest.raises(FitError):
            validate_theta(scen(1.0), IidComplexGaussian(1, 1),
                           UniformIdentity(), 10.0, 100_000, 0,
                           arrival_scale=0.0, n_samples=20_000)

    def test_theta_zero_rejected(self):
        with pytest.raises(DomainError):
            validate_theta(scen(0.0), IidComplexGaussian(1, 1),
                           UniformIdentity(), 1.0, 200_000, 0)

    def test_statistical_optimized_runs_optimizer_once(self, monkeypatch,
                                                       tmp_path):
        # the K that serves the queue is the one that set its arrival rate
        calls = []
        optimize = engine.optimize_covariance_statistical

        def counted(scenario, model, snr, n_samples, seed):
            calls.append((n_samples, seed))
            return optimize(scenario, model, snr, n_samples, seed)

        monkeypatch.setattr(engine, "optimize_covariance_statistical",
                            counted)
        monkeypatch.setattr(queuesim, "optimize_covariance_statistical",
                            counted)
        lag = np.abs(np.subtract.outer(np.arange(2), np.arange(2)))
        model = KroneckerCorrelated(np.eye(2, dtype=complex), 0.9 ** lag)
        sc = scen(1.0, 2, 2)
        path = tmp_path / "trace.csv"
        res = validate_theta(sc, model, StatisticalOptimized(), 10.0,
                             100_000, 0, n_samples=5000, trace_path=str(path))
        assert calls == [(5000, 0)]
        assert res.arrival_per_block > 0
        assert path.read_bytes().count(b"\n") == 100_001
        with pytest.raises(DomainError):
            simulate_queue(sc, model, StatisticalOptimized(), 10.0, 1.0,
                           100_000, 0)


class TestStreamedTrace:
    """validate_theta with trace_path: the queue goes chunk by chunk to the
    tail fit and the trace CSV, and no whole-trace array is held."""

    # 7 CHUNKs plus 5 blocks, and a length whose warm-up (15,000 blocks)
    # ends mid-CHUNK and whose last trace group is one row; the fixed K runs
    # through eigvalsh(H K H^dagger)
    @pytest.mark.parametrize("n_blocks", [7 * CHUNK + 5, 150_001])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_whole_trace_bytes_and_fit(self, n_blocks, n, tmp_path):
        model = IidComplexGaussian(n, n)
        k = np.diag(np.linspace(2.0, 1.0, n))
        strategy = UniformIdentity() if n == 1 \
            else FixedCovariance(k / k.trace())
        args = (scen(1.0, n, n), model, strategy, 10.0)
        streamed = tmp_path / "streamed.csv"
        res = validate_theta(*args, n_blocks, 4, n_samples=20_000,
                             trace_path=str(streamed))
        trace = simulate_queue(*args, res.arrival_per_block, n_blocks, 5)
        whole = tmp_path / "whole.csv"
        write_trace_csv(trace, str(whole))
        assert streamed.read_bytes() == whole.read_bytes()
        fit = estimate_tail_exponent(trace)
        assert (res.theta_est, res.tail_r_squared, res.tail_n_points) \
            == (fit.theta_est, fit.r_squared, fit.n_points)
        # the mode a plain open(path, "wb") gives, not mkstemp's 0600
        assert os.stat(streamed).st_mode == os.stat(whole).st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["streamed.csv", "whole.csv"]

    def test_peak_memory_per_block(self, tmp_path):
        # one chunk of queue lengths, the quantile buffer (2k + CHUNK values
        # for the top 10% k of the stationary queue) and one trace group.
        # Simulating the whole trace, then exporting it, peaked at 1.23 x 8
        # bytes per block
        n = 1_000_000
        path = str(tmp_path / "trace.csv")
        args = (scen(1.0), IidComplexGaussian(1, 1), UniformIdentity(), 10.0)
        validate_theta(*args, 100_000, 0, n_samples=20_000,
                       trace_path=path)  # warm imports and caches
        tracemalloc.start()
        try:
            validate_theta(*args, n, 3, n_samples=20_000, trace_path=path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * n

    def test_failed_fit_leaves_the_path_as_it_was(self, tmp_path):
        # no arrivals and random service: the queue never grew, so there is
        # no tail to fit, after the whole trace went out
        path = tmp_path / "trace.csv"
        for before in (None, b"earlier"):
            if before is not None:
                path.write_bytes(before)
            with pytest.raises(FitError):
                validate_theta(scen(1.0), IidComplexGaussian(1, 1),
                               UniformIdentity(), 10.0, 100_000, 0,
                               arrival_scale=0.0, n_samples=20_000,
                               trace_path=str(path))
            assert list(tmp_path.iterdir()) == ([] if before is None
                                                else [path])
        assert path.read_bytes() == b"earlier"


def test_write_trace_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    trace = make_trace(rng.exponential(1.0, 500))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "block_index,queue_bits"
    assert len(lines) == 501
    idx, q = lines[3].split(",")
    assert int(idx) == 2
    assert abs(float(q) - trace.queue_lengths[2]) \
        <= 1e-11 * abs(trace.queue_lengths[2])


def _trace_csv_cases():
    rng = np.random.default_rng(3)
    zeros = rng.exponential(1.0, 3000)
    zeros[rng.random(3000) < 0.6] = 0.0
    wide = np.concatenate([
        10.0 ** rng.uniform(-300, 15, 2000), [1e-300, 1e15, -0.0, 0.5]])
    ragged = rng.exponential(1e6, 2 * _CSV_GROUP_ROWS + 17)
    # past 1e5 rows, so the index crosses 999/1000, 9999/10000 and
    # 99999/100000; runs of +0.0 span those group edges, a whole group is
    # +0.0, and the values that are not +0.0 but read as zero or are not
    # finite sit on both sides of the edges
    long = rng.exponential(1e3, 100_700)
    long[rng.random(len(long)) < 0.5] = 0.0
    for edge in (1000, 2000, 10_000, 100_000):
        long[edge - 4:edge + 4] = 0.0
    long[5000:6000] = 0.0
    specials = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310,
                -1e-310, -0.0]
    long[[998, 1001, 9_999, 10_005, 99_994, 99_999, 100_004, 100_699]] = \
        specials
    long[[1999, 2004, 4999, 6000]] = [-0.0, math.nan, 1e-320, math.inf]
    return {"many_zeros": zeros, "1e-300_to_1e15": wide,
            "ragged_length": ragged, "whole_blocks": ragged[:_CSV_GROUP_ROWS],
            "one_row": np.array([12.5]), "empty": np.array([]),
            "long_with_zero_runs_and_specials": long}


@pytest.mark.parametrize("name", sorted(_trace_csv_cases()))
def test_write_trace_csv_bytes_match_row_writer(tmp_path, name):
    trace = make_trace(_trace_csv_cases()[name])
    write_trace_csv(trace, str(tmp_path / "blocked.csv"))
    write_trace_csv_rows(trace, str(tmp_path / "rows.csv"))
    assert (tmp_path / "blocked.csv").read_bytes() \
        == (tmp_path / "rows.csv").read_bytes()
