import math

import numpy as np
import pytest

from effcap import engine, queuesim
from effcap.channels import FixedMatrix, IidComplexGaussian, KroneckerCorrelated
from effcap.engine import QosScenario, StatisticalOptimized, UniformIdentity
from effcap.errors import DomainError, FitError
from effcap.queuesim import (_CSV_BLOCK_ROWS, QueueTrace,
                             estimate_tail_exponent, lindley_path,
                             simulate_queue, validate_and_trace,
                             validate_theta, write_trace_csv)
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


def make_trace(queue, warmup=0, services=None, arrival=1.0):
    queue = np.asarray(queue, dtype=float)
    if services is None:
        services = np.ones_like(queue)
    return QueueTrace(queue_lengths=queue, services=services,
                      arrival_per_block=arrival, n_blocks=len(queue),
                      warmup_blocks=warmup)


class TestLindleyPath:
    def test_matches_loop_recursion_bitwise(self):
        rng = np.random.default_rng(0)
        services = rng.exponential(1.0, size=5000)
        got = lindley_path(0.9, services)
        want = loop_lindley(0.9, services)
        assert np.max(np.abs(got - want)) < 1e-9
        assert np.all(got >= 0.0)

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
        # arrival below E{service} (about 290 bits/block at snr 10):
        # the queue keeps returning to zero
        assert trace.service_mean > trace.arrival_per_block
        assert float((trace.stationary == 0.0).mean()) > 0.01
        want = loop_lindley(trace.arrival_per_block, trace.services)
        assert np.max(np.abs(trace.queue_lengths - want)) < 1e-6

    def test_replay_is_deterministic(self):
        sc = scen(1.0)
        model = IidComplexGaussian(1, 1)
        a = simulate_queue(sc, model, UniformIdentity(), 10.0, 100.0,
                           150_000, 3)
        b = simulate_queue(sc, model, UniformIdentity(), 10.0, 100.0,
                           150_000, 3)
        assert np.array_equal(a.queue_lengths, b.queue_lengths)
        assert np.array_equal(a.services, b.services)

    def test_block_count_validated(self):
        with pytest.raises(DomainError):
            simulate_queue(scen(1.0), IidComplexGaussian(1, 1),
                           UniformIdentity(), 1.0, 1.0, 1000, 0)

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

    def test_quantile_window_validated(self):
        trace = make_trace(np.random.default_rng(0).exponential(1.0, 10_000))
        with pytest.raises(DomainError):
            estimate_tail_exponent(trace, quantile_lo=0.4)
        with pytest.raises(DomainError):
            estimate_tail_exponent(trace, quantile_lo=0.95, quantile_hi=0.9)
        with pytest.raises(DomainError):
            estimate_tail_exponent(trace, quantile_hi=0.9999)

    def test_warmup_excluded(self):
        rng = np.random.default_rng(7)
        tail = rng.exponential(1.0, size=100_000)
        corrupt = np.concatenate([np.full(10_000, 1e9), tail])
        trace = make_trace(corrupt, warmup=10_000)
        fit = estimate_tail_exponent(trace)
        assert abs(fit.theta_est - 1.0) < 0.05


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

    def test_theta_zero_rejected(self):
        with pytest.raises(DomainError):
            validate_theta(scen(0.0), IidComplexGaussian(1, 1),
                           UniformIdentity(), 1.0, 200_000, 0)

    def test_statistical_optimized_runs_optimizer_once(self, monkeypatch):
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
        res, trace = validate_and_trace(sc, model, StatisticalOptimized(),
                                        10.0, 100_000, 0, n_samples=5000)
        assert calls == [(5000, 0)]
        assert res.arrival_per_block > 0
        assert trace.n_blocks == 100_000
        with pytest.raises(DomainError):
            simulate_queue(sc, model, StatisticalOptimized(), 10.0, 1.0,
                           100_000, 0)


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
    ragged = rng.exponential(1e6, 2 * _CSV_BLOCK_ROWS + 17)
    return {"many_zeros": zeros, "1e-300_to_1e15": wide,
            "ragged_length": ragged, "whole_blocks": ragged[:_CSV_BLOCK_ROWS],
            "one_row": np.array([12.5]), "empty": np.array([])}


@pytest.mark.parametrize("name", sorted(_trace_csv_cases()))
def test_write_trace_csv_bytes_match_row_writer(tmp_path, name):
    trace = make_trace(_trace_csv_cases()[name])
    write_trace_csv(trace, str(tmp_path / "blocked.csv"))
    write_trace_csv_rows(trace, str(tmp_path / "rows.csv"))
    assert (tmp_path / "blocked.csv").read_bytes() \
        == (tmp_path / "rows.csv").read_bytes()
