import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from effcap import asymptotics, channels, cli, engine
from effcap.asymptotics import (SparseWidebandConfig, _quadratic_objective,
                                _sparse_objective, sparse_ebmin)
from effcap.channels import (CHUNK, FixedMatrix, IidComplexGaussian,
                             KroneckerCorrelated, iter_sample_chunks)
from effcap.engine import (SIMPLEX_GAP_TOL, BeamformingCsit, FixedCovariance,
                           QosScenario, StatisticalOptimized, UniformIdentity,
                           WaterfillingCsit, _LogMeanExp,
                           _statistical_estimate, _statistical_factor,
                           chunk_rates, effective_rate_mc, ergodic_rate_mc,
                           optimize_covariance_statistical, rate_estimator,
                           simplex_maximize)
from effcap.errors import DomainError, NumericError
from effcap.figures import SWEEP_COLUMNS, sweep_rows
from oracles import (central_gradient, log_det_rate,
                     min_simplex_quadratic_2, statistical_estimate_lu,
                     statistical_estimate_mp, two_plane_lp, waterfill)

T, B = 1e-3, 1e5

# SISO i.i.d. Rayleigh closed forms at SNR = 10, frozen from the
# incomplete-Gamma / exponential-integral oracles run before the build:
#   MGF(theta_hat=1) = 0.1 * e^{0.1} * E1(0.1)
#   E{log2(1 + 10|h|^2)} = e^{0.1} * E1(0.1) / ln2
SISO_EFFRATE_TH1_SNR10 = 2.31140420885056
SISO_ERGODIC_SNR10 = 2.90651480841481


def scen(theta_hat, n_r=1, n_t=1):
    return QosScenario.from_theta_hat(theta_hat, T, B, n_r, n_t)


class TestQosScenario:
    def test_theta_hat_roundtrip(self):
        sc = scen(2.5, 2, 3)
        assert abs(sc.theta_hat - 2.5) < 1e-12
        assert abs(sc.theta * T * B * math.log2(math.e) - sc.theta_hat) \
            < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            QosScenario(theta=-1.0, t=T, b=B, n_r=1, n_t=1)
        with pytest.raises(DomainError):
            QosScenario(theta=0.1, t=0.0, b=B, n_r=1, n_t=1)
        with pytest.raises(DomainError):
            QosScenario(theta=0.1, t=T, b=B, n_r=0, n_t=1)

    @pytest.mark.parametrize("bad", [
        dict(theta=math.nan), dict(theta=math.inf), dict(t=math.nan),
        dict(t=math.inf), dict(b=math.nan), dict(b=math.inf),
        # finite theta, T and B whose product is not
        dict(theta=1e300, t=1e10)])
    def test_non_finite_refused(self, bad):
        with pytest.raises(DomainError):
            QosScenario(**{**dict(theta=0.1, t=T, b=B, n_r=1, n_t=1), **bad})


class TestLogDetRate:
    def test_zero_snr(self):
        h = np.ones((2, 2), dtype=complex)
        assert log_det_rate(h, np.eye(2) / 2, 0.0, 2) == 0.0

    def test_scalar(self):
        assert abs(log_det_rate(np.array([[1.0 + 0j]]), np.eye(1), 3.0, 1)
                   - math.log2(4.0)) < 1e-12

    def test_diagonal(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        got = log_det_rate(h, np.eye(2) / 2, 1.0, 2)
        assert abs(got - math.log2(10.0)) < 1e-12


class TestWaterfill:
    def test_single_mode(self):
        d, degenerate = waterfill(np.array([2.0]), 1.0)
        assert np.allclose(d, [1.0])
        assert not degenerate

    def test_equal_modes(self):
        d, _ = waterfill(np.array([3.0, 3.0]), 0.7)
        assert np.allclose(d, [0.5, 0.5])

    def test_two_mode_oracle(self):
        # eigs {4,1}, gain 1: both modes active, mu = (1 + 1/4 + 1)/2
        d, _ = waterfill(np.array([4.0, 1.0]), 1.0)
        assert np.allclose(d, [0.875, 0.125], atol=1e-12)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            eigs = rng.uniform(0.0, 5.0, size=4)
            eigs[rng.integers(4)] = 0.0
            if np.all(eigs <= 0):
                continue
            gain = rng.uniform(0.1, 10.0)
            d, _ = waterfill(eigs, gain)
            assert abs(d.sum() - 1.0) < 1e-12
            marg = gain * eigs / (1.0 + gain * eigs * d)
            active = d > 0
            mu = marg[active].max()
            assert np.all(np.abs(marg[active] - mu) < 1e-9)
            assert np.all(marg[~active] <= mu + 1e-9)

    def test_all_zero_degenerate(self):
        d, degenerate = waterfill(np.zeros(3), 1.0)
        assert degenerate
        assert np.allclose(d, 1.0 / 3)

    def test_batch_rates_match_oracle(self):
        rng = np.random.default_rng(3)
        ev = rng.uniform(0.0, 5.0, size=(50, 3))
        ev[rng.random((50, 3)) < 0.2] = 0.0
        ev[0] = 0.0
        got = chunk_rates(ev, WaterfillingCsit(), 0.7, 2, 3)
        for row, rate in zip(ev, got):
            d, _ = waterfill(row, 2 * 0.7)
            want = np.log2(1.0 + 2 * 0.7 * row * d).sum()
            assert abs(rate - want) <= 1e-12 * max(1.0, want)


class TestEffectiveRate:
    def test_deterministic_channel_rate_is_theta_free(self):
        h = np.array([[1.0 + 0j, 0.5], [0.2j, 1.5]])
        model = FixedMatrix(h)
        expected = log_det_rate(h, np.eye(2) / 2, 2.0, 2) / 2
        for th in (0.3, 1.0, 4.0):
            est = effective_rate_mc(scen(th, 2, 2), model, UniformIdentity(),
                                    2.0, 2000, 0)
            assert abs(est.value - expected) < 1e-9

    def test_small_theta_approaches_ergodic(self):
        model = IidComplexGaussian(2, 2)
        eff = effective_rate_mc(scen(1e-4, 2, 2), model, UniformIdentity(),
                                5.0, 100_000, 3)
        erg = ergodic_rate_mc(model, UniformIdentity(), 5.0, 100_000, 3)
        assert abs(eff.value - erg.value) <= 2 * erg.std_err + 1e-3

    def test_siso_closed_form_oracle(self):
        est = effective_rate_mc(scen(1.0), IidComplexGaussian(1, 1),
                                UniformIdentity(), 10.0, 400_000, 2)
        assert abs(est.value - SISO_EFFRATE_TH1_SNR10) <= 3 * est.std_err

    def test_monotone_in_theta(self):
        model = IidComplexGaussian(2, 2)
        vals = [effective_rate_mc(scen(th, 2, 2), model, UniformIdentity(),
                                  10.0, 50_000, 1)
                for th in (0.1, 0.5, 1.0, 2.0, 5.0)]
        for a, b in zip(vals, vals[1:]):
            assert b.value <= a.value + 2 * a.std_err

    def test_jensen_bound(self):
        model = IidComplexGaussian(2, 3)
        erg = ergodic_rate_mc(model, UniformIdentity(), 10.0, 50_000, 4)
        eff = effective_rate_mc(scen(2.0, 2, 3), model, UniformIdentity(),
                                10.0, 50_000, 4)
        assert eff.value <= erg.value

    def test_large_theta_hat_stays_finite(self):
        est = effective_rate_mc(scen(50.0), IidComplexGaussian(1, 1),
                                UniformIdentity(), 10.0, 1000, 0)
        assert math.isfinite(est.value)
        assert est.value >= 0.0

    def test_theta_zero_rejected(self):
        with pytest.raises(DomainError):
            effective_rate_mc(scen(0.0), IidComplexGaussian(1, 1),
                              UniformIdentity(), 1.0, 2000, 0)


class TestShapeRefused:
    """A scenario whose n_R x n_T is not the model's is refused, not
    evaluated on the model's shape."""

    def test_effective_rate(self):
        with pytest.raises(DomainError):
            effective_rate_mc(scen(1.0, 2, 2), IidComplexGaussian(1, 1),
                              UniformIdentity(), 1.0, 2000, 0)

    @pytest.mark.parametrize("theta_hat", [0.0, 1.0])
    def test_rate_estimator(self, theta_hat):
        estimate = rate_estimator(IidComplexGaussian(2, 2),
                                  UniformIdentity(), 2000, 0)
        with pytest.raises(DomainError):
            estimate(scen(theta_hat, 1, 2), 1.0)
        with pytest.raises(DomainError):
            estimate(scen(theta_hat, 2, 3), 1.0)

    def test_statistical_optimizer(self):
        model = _kronecker(2, 0.7, 0.5)
        with pytest.raises(DomainError):
            optimize_covariance_statistical(scen(1.0, 2, 3), model, 1.0,
                                            2000, 0)
        with pytest.raises(DomainError):
            effective_rate_mc(scen(1.0, 3, 2), model, StatisticalOptimized(),
                              1.0, 2000, 0)

    def test_highsnr_metrics(self):
        with pytest.raises(DomainError):
            asymptotics.highsnr_metrics(scen(1.0, 2, 5),
                                        IidComplexGaussian(1, 1))


class TestFixedCovarianceRefused:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite(self, bad, where):
        # a NaN passes the Hermitian, PSD and trace comparisons
        k = np.diag([0.5, 0.5]).astype(complex)
        k[where] = k[where[::-1]] = bad
        with pytest.raises(DomainError, match="K must be finite"):
            FixedCovariance(k)


class TestErgodicRate:
    def test_deterministic(self):
        h = np.array([[2.0 + 0j]])
        est = ergodic_rate_mc(FixedMatrix(h), UniformIdentity(), 1.0, 1000, 0)
        assert abs(est.value - math.log2(5.0)) < 1e-12
        assert est.std_err < 1e-12

    def test_siso_oracle(self):
        est = ergodic_rate_mc(IidComplexGaussian(1, 1), UniformIdentity(),
                              10.0, 400_000, 2)
        assert abs(est.value - SISO_ERGODIC_SNR10) <= 3 * est.std_err


def test_strategy_ordering_waterfilling_dominates_fixed():
    model = IidComplexGaussian(2, 2)
    k = np.diag([0.7, 0.3]).astype(complex)
    for snr in (0.1, 1.0, 10.0):
        wf = ergodic_rate_mc(model, WaterfillingCsit(), snr, 20_000, 5)
        fx = ergodic_rate_mc(model, FixedCovariance(k), snr, 20_000, 5)
        assert wf.value >= fx.value


def test_beamforming_vs_waterfilling_low_snr():
    # at low SNR waterfilling concentrates on the top mode, so the two
    # CSIT strategies coincide to leading order
    model = IidComplexGaussian(2, 2)
    bf = ergodic_rate_mc(model, BeamformingCsit(), 1e-3, 50_000, 6)
    wf = ergodic_rate_mc(model, WaterfillingCsit(), 1e-3, 50_000, 6)
    assert abs(bf.value - wf.value) <= 1e-3 * wf.value


class TestStatisticalOptimization:
    def test_iid_optimum_is_uniform(self):
        sc = scen(1.0, 2, 2)
        k, _ = optimize_covariance_statistical(sc, IidComplexGaussian(2, 2),
                                               1.0, 50_000, 0)
        assert np.max(np.abs(k - np.eye(2) / 2)) < 0.05

    def test_rank_one_channel_gets_all_power(self):
        h = np.array([[1.0, 2.0]], dtype=complex)  # 1x2, rank one
        sc = scen(1.0, 1, 2)
        k, _ = optimize_covariance_statistical(sc, FixedMatrix(h), 1.0,
                                               5_000, 0)
        u = h.conj().T / np.linalg.norm(h)
        expected = u @ u.conj().T
        assert np.max(np.abs(k - expected)) < 0.02

    def test_correlated_channel_prefers_strong_direction(self):
        r_t = np.diag([2.0, 1.0]).astype(complex) / 1.5
        model = KroneckerCorrelated(np.eye(2, dtype=complex), r_t)
        sc = scen(1.0, 2, 2)
        k, est = optimize_covariance_statistical(sc, model, 1.0, 50_000, 0)
        w = np.linalg.eigvalsh(k)
        assert w[-1] >= 0.5 - 1e-9
        uni = effective_rate_mc(sc, model, UniformIdentity(), 1.0, 50_000, 0)
        assert est.value >= uni.value - 2 * uni.std_err

    def test_objective_and_gradient(self):
        # on the draws, which come in the eigenbasis U of E{H^dag H}, the
        # objective is the effective rate of K = U diag(p) U^dagger, and its
        # exact gradient matches central differences
        lag = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        model = KroneckerCorrelated(0.7 ** lag, 0.5 ** lag)
        sc = scen(4.0, 3, 3)
        n = 20_000  # two chunks, so the accumulator rescales
        factors = [_statistical_factor(h)
                   for h in iter_sample_chunks(model, n, 0)]
        p = np.array([0.5, 0.3, 0.2])
        est, grad = _statistical_estimate(sc, 10.0, factors, p, n)
        u = model.mean_gram_eig[1]
        ref = effective_rate_mc(sc, model,
                                FixedCovariance((u * p) @ u.conj().T), 10.0,
                                n, 0)
        assert est.value == pytest.approx(ref.value, rel=1e-12)
        assert est.std_err == pytest.approx(ref.std_err, rel=1e-9)
        fd = central_gradient(
            lambda q: _statistical_estimate(sc, 10.0, factors, q, n)[0].value,
            p)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


def _kronecker(n, rho_r, rho_t, n_t=None):
    """Exponential correlation rho^|i-j| on each side of an n x n_t
    channel (n_t = n by default)."""
    def lag(m):
        return np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    return KroneckerCorrelated(rho_r ** lag(n), rho_t ** lag(n_t or n))


class _OneTangentTie(Exception):
    """Raised by `_full_search_optimize`'s one-plane stop."""


def _full_search_optimize(scenario, model, snr, n_samples, seed,
                          fw_stop=False):
    """The statistical optimizer without its early stop: the whole simplex
    search over the factors of the draws, which come in the eigenbasis U of
    the exact E{H^dagger H}, then the two-standard-error tie-break, and K
    rotated back by U. With `fw_stop`, the one-plane stop that preceded the
    two-plane bound: the uniform K as soon as one evaluated p's Frank-Wolfe
    bound f(p) + max_i g_i - g.p is at most the uniform tie bar."""
    factors = [_statistical_factor(h)
               for h in iter_sample_chunks(model, n_samples, seed)]
    estimates = {}
    uniform = np.full(scenario.n_t, 1.0 / scenario.n_t)

    def fg(p):
        est, grad = _statistical_estimate(scenario, snr, factors, p,
                                          n_samples)
        estimates[p.tobytes()] = est
        tie = estimates[uniform.tobytes()]
        if fw_stop and (est.value + float(grad.max() - grad @ p)
                        <= tie.value + 2.0 * tie.std_err
                        - 1e-9 * max(1.0, abs(tie.value))):
            raise _OneTangentTie
        return est.value, grad

    try:
        p, _, _ = simplex_maximize(fg, uniform)
    except _OneTangentTie:
        p = uniform
    best = estimates[p.tobytes()]
    uniform_est = estimates[uniform.tobytes()]
    if best.value <= uniform_est.value + 2.0 * uniform_est.std_err:
        p, best = uniform, uniform_est
    u = model.mean_gram_eig[1]
    return (u * p) @ u.conj().T, best


def _fw_stop_optimize(scenario, model, snr, n_samples, seed):
    """The statistical optimizer with the one-plane Frank-Wolfe stop."""
    return _full_search_optimize(scenario, model, snr, n_samples, seed,
                                 fw_stop=True)


def _count_draws(monkeypatch) -> list:
    """Patch every effcap binding of iter_sample_chunks to record the size
    of each chunk it draws."""
    original = channels.iter_sample_chunks
    drawn = []

    def counting(model, n_samples, seed):
        for h in original(model, n_samples, seed):
            drawn.append(h.shape[0])
            yield h
    for mod in (channels, engine, asymptotics):
        if getattr(mod, "iter_sample_chunks", None) is original:
            monkeypatch.setattr(mod, "iter_sample_chunks", counting)
    return drawn


@pytest.mark.parametrize("call", ["effective", "estimator"])
def test_statistical_point_runs_the_module_optimizer_once(monkeypatch, call):
    # a rate of StatisticalOptimized is one call of
    # engine.optimize_covariance_statistical, looked up as the module
    # attribute, and is that call's estimate
    model, sc = _kronecker(2, 0.7, 0.5), scen(2.0, 2, 2)
    runs = []
    optimize = engine.optimize_covariance_statistical

    def counted(*args, **kwargs):
        runs.append(optimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(engine, "optimize_covariance_statistical", counted)
    if call == "effective":
        est = effective_rate_mc(sc, model, StatisticalOptimized(), 10.0,
                                4096, 0)
    else:
        est = rate_estimator(model, StatisticalOptimized(), 4096, 0)(sc, 10.0)
    assert len(runs) == 1
    assert (est.value, est.std_err, est.n_samples) == \
        (runs[0][1].value, runs[0][1].std_err, runs[0][1].n_samples)


# (rho_t, linear SNR) of the optimizer comparisons; an id names rho_t, and
# the SNR where it is not 10 dB
_OPTIMIZER_CASES = [(0.5, 10.0), (0.9, 10.0), (0.0, 10.0), (0.3, 10.0),
                    (0.5, 100.0)]
_OPTIMIZER_IDS = ["0.5", "0.9", "0.0", "0.3", "0.5-20dB"]


class TestStatisticalDrawsOnce:
    MODEL = _kronecker(2, 0.7, 0.5)

    def test_optimizer_draws_each_sample_once(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        optimize_covariance_statistical(scen(2.0, 2, 2), self.MODEL, 10.0,
                                        4096, 0)
        assert sum(drawn) == 4096

    def test_sparse_statistical_draws_each_sample_once(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        sparse_ebmin(SparseWidebandConfig(4, 1e4),
                     [scen(2.0, 2, 2), scen(0.5, 2, 2)], self.MODEL,
                     StatisticalOptimized(), 4096, 0)
        assert sum(drawn) == 4096

    # the benchmark's optimize cases (rho_t = 0.5 at 10 dB, uniform
    # optimum), cases where the two-plane bound proves the uniform tie
    # early, often at the first or second evaluation (rho_t = 0 and 0.3 at
    # 10 dB, rho_t = 0.5 at 20 dB), and a stronger transmit correlation
    # whose optimum is not uniform. The oracle always runs the whole search.
    # A stop that drops the gap term (f(p) <= bar, without max_i g_i - g.p)
    # returns the uniform K at rho_t = 0.9 and fails here. A bound that is
    # too low only between the vertices, such as the lower plane's largest
    # vertex value max_k min(V_u,k, V_p,k), passes here on these draws;
    # TestTwoPlaneBound fails it against an LP.
    @pytest.mark.parametrize("rho_t,snr", _OPTIMIZER_CASES,
                             ids=_OPTIMIZER_IDS)
    @pytest.mark.parametrize("n,n_samples", [(2, 4096), (4, 2048)])
    @pytest.mark.parametrize("seed", range(5))
    def test_optimizer_matches_two_pass_bitwise(self, rho_t, snr, n,
                                                n_samples, seed):
        model = _kronecker(n, 0.7, rho_t)
        sc = scen(2.0, n, n)
        k, est = optimize_covariance_statistical(sc, model, snr, n_samples,
                                                 seed)
        k_ref, est_ref = _full_search_optimize(sc, model, snr, n_samples, seed)
        assert np.array_equal(k, k_ref)
        assert (est.value, est.std_err) == (est_ref.value, est_ref.std_err)
        if rho_t == 0.9:
            # the comparison must cover an optimum off the uniform K
            assert not np.allclose(k, np.eye(n) / n)

    @pytest.mark.parametrize("rho_t,snr", _OPTIMIZER_CASES,
                             ids=_OPTIMIZER_IDS)
    @pytest.mark.parametrize("n,n_samples", [(2, 4096), (4, 2048)])
    def test_optimizer_stops_early_only_on_a_uniform_tie(
            self, monkeypatch, rho_t, snr, n, n_samples):
        # objective evaluations: fewer than the whole search's where the
        # result is the uniform K, the same number where it is not
        calls, estimate = [], _statistical_estimate

        def counting(*args, **kwargs):
            calls.append(args[3])
            return estimate(*args, **kwargs)

        model, sc = _kronecker(n, 0.7, rho_t), scen(2.0, n, n)
        monkeypatch.setattr(engine, "_statistical_estimate", counting)
        k, _ = optimize_covariance_statistical(sc, model, snr, n_samples, 0)
        n_opt = len(calls)
        monkeypatch.setitem(globals(), "_statistical_estimate", counting)
        _full_search_optimize(sc, model, snr, n_samples, 0)
        n_ref = len(calls) - n_opt
        assert np.array_equal(calls[0], np.full(n, 1.0 / n))
        if rho_t == 0.9:
            assert not np.allclose(k, np.eye(n) / n)
            assert n_opt == n_ref
        else:
            assert np.allclose(k, np.eye(n) / n)
            assert n_opt < n_ref

    @pytest.mark.parametrize("rho_t,snr", _OPTIMIZER_CASES,
                             ids=_OPTIMIZER_IDS)
    @pytest.mark.parametrize("n,n_samples", [(2, 4096), (4, 2048)])
    def test_two_planes_stop_no_later_than_one(self, monkeypatch, rho_t, snr,
                                               n, n_samples):
        # objective evaluations per call, seeds 0-4, against the one-plane
        # Frank-Wolfe stop and the whole search. Which evaluation first
        # clears the bar can move with the BLAS's rounding, so the counts
        # are compared, not pinned. On these draws the benchmark's cases
        # take 12 -> 10 (2x2) and 20 -> 14 (4x4) evaluations in total; a
        # bound loosened back to one plane fails both here.
        calls, estimate = [], _statistical_estimate

        def counting(*args, **kwargs):
            calls.append(None)
            return estimate(*args, **kwargs)

        model, sc = _kronecker(n, 0.7, rho_t), scen(2.0, n, n)
        monkeypatch.setattr(engine, "_statistical_estimate", counting)
        monkeypatch.setitem(globals(), "_statistical_estimate", counting)

        def evaluations(optimize, seed):
            calls.clear()
            optimize(sc, model, snr, n_samples, seed)
            return len(calls)

        counts = np.array([[evaluations(run, seed) for run in (
            optimize_covariance_statistical, _fw_stop_optimize,
            _full_search_optimize)] for seed in range(5)])
        two, one, full = counts.T
        assert np.all(two <= one)
        if rho_t == 0.9:
            assert np.array_equal(two, full)
        if (rho_t, snr) == (0.5, 10.0):
            assert two.sum() < one.sum()

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_statistical_matches_two_pass_bitwise(self, seed):
        config = SparseWidebandConfig(4, 1e4)
        sc = scen(2.0, 2, 2)
        rho = sc.theta * sc.t * config.p_over_n0 / config.m
        # the per-direction gains of the draws, which come in the
        # eigenbasis of the exact E{H^dag H}
        gains = np.concatenate([(np.abs(h) ** 2).sum(axis=1) for h in
                                iter_sample_chunks(self.MODEL, 4096, seed)])
        _, best, _ = simplex_maximize(_sparse_objective(gains, rho),
                                      np.full(2, 0.5))
        (eb,), _ = sparse_ebmin(config, [sc], self.MODEL,
                                StatisticalOptimized(), 4096, seed)
        assert eb == rho / best


def _plane_pairs():
    """(v, w) vertex values of two planes on the simplex of n = 1..6
    vertices: random pairs at several scales, equal planes, parallel
    planes (d = v - w constant, every crossing 0/0 or c/0), pairs whose
    lines share a slope d_i = d_j, and planes that meet at a vertex
    (v_k = w_k) or whose lines cross at lam = 0 or 1 (w_i = w_j or
    v_i = v_j). Values lie on a grid of 2^-20, so that each of these
    sums and differences is exact."""
    rng = np.random.default_rng(33)

    def grid(x):
        return np.ldexp(np.round(np.ldexp(x, 20)), -20)

    for n in range(1, 7):
        for _ in range(15):
            scale = 10.0 ** rng.uniform(-3, 2)
            v = grid(rng.uniform(-5, 5) + scale * rng.standard_normal(n))
            w = grid(rng.uniform(-5, 5) + scale * rng.standard_normal(n))
            yield v, w
            yield v, v.copy()
            yield v, v + grid(rng.standard_normal())
            if n > 1:
                i, j = rng.choice(n, 2, replace=False)
                shared, met, w_tie = w.copy(), w.copy(), w.copy()
                v_tie = v.copy()
                shared[j] = w[i] + v[j] - v[i]
                met[i] = v[i]
                w_tie[j] = w[i]
                v_tie[j] = v[i]
                yield v, shared
                yield v, met
                yield v, w_tie
                yield v_tie, w


class TestTwoPlaneBound:
    def test_equals_the_lp_and_stays_below_either_plane(self):
        # HiGHS's optimum is off the exact rational one by up to 5e-13 of
        # the scale on these pairs, the bound by 3e-16; the vertex values
        # of the lower plane alone, max_k min(v_k, w_k), lie below the LP
        # wherever the planes cross and fail here
        for v, w in _plane_pairs():
            bound = engine._two_plane_bound(v, w)
            lp = two_plane_lp(v, w)
            tol = 1e-12 * max(1.0, np.abs(v).max(), np.abs(w).max())
            assert lp - tol <= bound <= lp + tol, (v, w)
            assert bound <= min(v.max(), w.max())

    def test_equal_planes_give_the_one_plane_bound(self):
        # the optimizer's first call compares the uniform plane with itself
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            v = rng.standard_normal(n)
            assert engine._two_plane_bound(v, v.copy()) == v.max()


def test_log_mean_exp_gradient_survives_rescaling():
    # the second chunk holds the largest exponent, so the gradient sum of
    # the first is rescaled; the result must equal one add of all samples
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 20.0, 1000)
    x[-1] = x.max() + 5.0
    dx = rng.standard_normal((1000, 3))
    whole, split = _LogMeanExp(), _LogMeanExp()
    whole.add(x, dx)
    split.add(x[:500], dx[:500])
    split.add(x[500:], dx[500:])
    w = np.exp(x - x.max())
    np.testing.assert_allclose(whole.d_log_mean(), w @ dx / w.sum(),
                               rtol=1e-12)
    np.testing.assert_allclose(split.d_log_mean(), whole.d_log_mean(),
                               rtol=1e-12)


# the objective's channel shapes, drawn in the eigenbasis of each model's
# E{H^dagger H} as in the optimizer; 8x2 and 5x2 take the QR factor
_OBJECTIVE_CASES = {
    "1x1": IidComplexGaussian(1, 1),
    "2x2": _kronecker(2, 0.7, 0.9),
    "4x4": _kronecker(4, 0.7, 0.9),
    "2x5": _kronecker(2, 0.5, 0.8, n_t=5),
    "5x2": _kronecker(5, 0.5, 0.8, n_t=2),
    "8x2": _kronecker(8, 0.7, 0.9, n_t=2),
    "rank1-3x2": FixedMatrix(np.outer([1.0, 0.5j, -2.0], [1.0 - 1.0j, 0.5])),
}


def _simplex_point(kind, n_t):
    """e_1, a point whose first entry is zero, or an interior point; on the
    one-point simplex of n_t = 1 all three are [1]."""
    if kind == "vertex" or n_t == 1:
        return np.eye(n_t)[0]
    w = np.arange(n_t, dtype=float) + (kind == "interior")
    return w / w.sum()


class TestStatisticalObjective:
    """The Householder objective on per-draw factors against the LU form on
    rotated grams, on CHUNK + 123 draws so that the accumulator rescales,
    and against 40-digit mpmath at high SNR, where the LU form is itself
    off by up to 1e-11 of the gradient."""

    N = CHUNK + 123
    N_MP = 64

    @pytest.fixture(scope="class", params=sorted(_OBJECTIVE_CASES))
    def draws(self, request):
        model = _OBJECTIVE_CASES[request.param]
        rotated = list(iter_sample_chunks(model, self.N, 0))
        return scen(2.0, model.n_r, model.n_t), rotated

    @staticmethod
    def _assert_close(est, grad, value, ref_grad):
        assert est.value == pytest.approx(value, rel=1e-12)
        assert np.max(np.abs(grad - ref_grad)) \
            <= 1e-12 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("snr", [0.01, 10.0])
    @pytest.mark.parametrize("kind", ["vertex", "zero", "interior"])
    def test_matches_lu_oracle(self, draws, kind, snr):
        sc, rotated = draws
        p = _simplex_point(kind, sc.n_t)
        factors = [_statistical_factor(b) for b in rotated]
        grams = [b.conj().transpose(0, 2, 1) @ b for b in rotated]
        est, grad = _statistical_estimate(sc, snr, factors, p, self.N)
        ref, ref_grad = statistical_estimate_lu(sc, snr, grams, p, self.N)
        self._assert_close(est, grad, ref.value, ref_grad)

    @pytest.mark.parametrize("kind", ["vertex", "zero", "interior"])
    def test_matches_mpmath_at_high_snr(self, draws, kind):
        sc, rotated = draws
        p = _simplex_point(kind, sc.n_t)
        b = rotated[0][:self.N_MP]
        est, grad = _statistical_estimate(
            sc, 1e6, [_statistical_factor(b)], p, self.N_MP)
        self._assert_close(est, grad, *statistical_estimate_mp(sc, 1e6, b, p))

    def test_gram_shaped_input_refused(self):
        # (n, n_T, n_T) grams would be read as n-row factors
        grams = np.ones((50, 2, 2), dtype=complex)
        with pytest.raises(DomainError):
            _statistical_estimate(scen(2.0, 2, 2), 10.0, [grams],
                                  np.full(2, 0.5), 50)



def test_statistical_sweep_on_4x2_through_the_qr_factor(tmp_path):
    # with n_R > n_T each draw's factor is the R of its QR decomposition;
    # a whole sweep of it through the CLI writes the header and 5 rows
    out = tmp_path / "stat.csv"
    assert cli.main([
        "sweep", "--set", "strategy.name=statistical",
        "--set", "model.variant=kronecker", "--set", "model.rho_r=0.7",
        "--set", "model.rho_t=0.9", "--set", "scenario.theta_hat=2.0",
        "--set", "scenario.n_r=4", "--set", "scenario.n_t=2",
        "--set", "sweep.snr_db_start=0", "--set", "sweep.snr_db_stop=20",
        "--set", "sweep.n_points=5", "--samples", "50000", "--seed", "3",
        "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes().count(b"\n") == 6

def _optimize_bytes(n_r, n_t, n_samples, rho_t=0.5):
    """K, value and std_err of one statistical optimizer call, as bytes."""
    k, est = optimize_covariance_statistical(
        scen(2.0, n_r, n_t), _kronecker(n_r, 0.7, rho_t, n_t=n_t), 10.0,
        n_samples, 0)
    return k.tobytes() + np.array([est.value, est.std_err]).tobytes()


class TestObjectiveScratch:
    """The statistical objective and the fixed-K gains work in the
    per-thread `engine._SCRATCH`: no chunk-sized allocation once it has
    grown, and bitwise the results of a fresh scratch whatever ran before
    it in the thread, and whatever runs beside it in another."""

    # (n_R, n_T, draws): 4x2 takes the QR factor; 4x4 grows the scratch
    # that the cases after it reuse
    SHAPES = [(2, 2, 4096), (4, 4, 2048), (4, 2, 4096), (1, 3, 4096),
              (2, 2, 4096)]

    def test_repeated_evaluation_allocates_no_chunk(self):
        model = _kronecker(4, 0.7, 0.5)
        factors = [_statistical_factor(h)
                   for h in iter_sample_chunks(model, 2048, 0)]
        args = (scen(2.0, 4, 4), 10.0, factors, np.array([0.4, 0.3, 0.2, 0.1]),
                2048)
        first = _statistical_estimate(*args)
        tracemalloc.start()
        try:
            again = _statistical_estimate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factors[0].nbytes / 2
        assert again[0] == first[0]
        assert again[1].tobytes() == first[1].tobytes()

    def test_interleaved_shapes_equal_a_fresh_scratch(self, monkeypatch):
        fresh = []
        for shape in self.SHAPES:
            monkeypatch.setattr(engine, "_SCRATCH", engine._Scratch())
            fresh.append(_optimize_bytes(*shape))
        monkeypatch.setattr(engine, "_SCRATCH", engine._Scratch())
        assert [_optimize_bytes(*shape) for shape in self.SHAPES] == fresh

    def test_threads_equal_serial(self):
        # more threads than cores, each running its own shape several times
        # at rho_t = 0.9, so that the whole search runs, while the others
        # run theirs; a short switch interval interleaves them finely
        shapes = [(4, 4, 2048), (2, 2, 4096), (4, 2, 4096)]
        serial = [_optimize_bytes(*shape, rho_t=0.9) for shape in shapes]
        barrier = threading.Barrier(len(shapes))
        got = [[] for _ in shapes]

        def run(i):
            barrier.wait(timeout=60)
            for _ in range(4):
                got[i].append(_optimize_bytes(*shapes[i], rho_t=0.9))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(shapes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want] * 4 for want in serial]

    @pytest.mark.parametrize("squares", [False, True])
    def test_fixed_k_gains_keep_expression_bits(self, squares):
        # after a larger chunk has grown the scratch and left its values
        rng = np.random.default_rng(5)
        k = FixedCovariance(np.array([[0.5, 0.1j], [-0.1j, 0.3]]))
        engine.chunk_gains(rng.standard_normal((CHUNK, 4, 2)) + 0j, k,
                           squares)
        h = (rng.standard_normal((1000, 3, 2))
             + 1j * rng.standard_normal((1000, 3, 2)))
        g = h @ k.k @ h.conj().transpose(0, 2, 1)
        q = np.real(np.einsum("nii->n", g))
        got = engine.chunk_gains(h, k, squares)
        if squares:
            r = (g.real ** 2 + g.imag ** 2).sum(axis=(1, 2))
            assert (got[0].tobytes(), got[1].tobytes()) == (q.tobytes(),
                                                            r.tobytes())
        else:
            assert got.tobytes() == q.tobytes()


@pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", ["effective", "statistical", "ergodic",
                                  "estimator", "optimizer"])
def test_bad_snr_refused(call, snr):
    model, sc = _kronecker(2, 0.7, 0.5), scen(1.0, 2, 2)
    calls = {
        "effective": lambda: effective_rate_mc(sc, model, UniformIdentity(),
                                               snr, 2000, 0),
        "statistical": lambda: effective_rate_mc(
            sc, model, StatisticalOptimized(), snr, 2000, 0),
        "ergodic": lambda: ergodic_rate_mc(model, UniformIdentity(), snr,
                                           2000, 0),
        "estimator": lambda: rate_estimator(model, UniformIdentity(), 2000,
                                            0)(sc, snr),
        "optimizer": lambda: optimize_covariance_statistical(sc, model, snr,
                                                             2000, 0),
    }
    with pytest.raises(DomainError, match="snr"):
        calls[call]()


class TestLogMeanExpNaN:
    def test_nan_after_finite_chunk(self):
        acc = _LogMeanExp()
        acc.add(np.array([1.0, 2.0]))
        with pytest.raises(NumericError, match="NaN exponent"):
            acc.add(np.array([np.nan]))

    def test_nan_first_chunk(self):
        with pytest.raises(NumericError, match="NaN exponent"):
            _LogMeanExp().add(np.array([np.nan]))

    @pytest.mark.parametrize("bad,match", [(np.nan, "NaN exponent"),
                                           (np.inf, "infinite exponent")])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_in_one_row(self, bad, match, first):
        # one bad entry in the middle row of three, in the first chunk or
        # after a finite one
        x = -np.arange(12.0).reshape(3, 4)
        acc = _LogMeanExp()
        if not first:
            acc.add(x)
        x[1, 2] = bad
        with pytest.raises(NumericError, match=match):
            acc.add(x)


# i.i.d. 2x2 at seed 2 over 3 * CHUNK + 5 draws: at every SNR and strategy
# below, a later chunk holds a lower rate than the first, so it raises the
# running maximum of the exponents and the sums of the first are rescaled
_BATCH_DRAWS, _BATCH_SEED = 3 * CHUNK + 5, 2


@pytest.mark.parametrize("strategy", [UniformIdentity(), WaterfillingCsit()])
@pytest.mark.parametrize("snr", [1e-4, 1.0, 1e3])
def test_batched_scenarios_equal_one_call_each_bitwise(strategy, snr,
                                                       monkeypatch):
    model = IidComplexGaussian(2, 2)
    mins = [chunk_rates(ev, strategy, snr, 2, 2).min() for ev in
            engine.strategy_spectra(model, strategy, _BATCH_DRAWS,
                                    _BATCH_SEED)]
    assert len(mins) == 4 and min(mins[1:]) < mins[0]
    estimate = rate_estimator(model, strategy, _BATCH_DRAWS, _BATCH_SEED)
    scenarios = [scen(th, 2, 2) for th in (0.5, 0.0, 2.0, 8.0, 0.0, 0.5)]
    batch = estimate(scenarios, snr)

    def bits(est):
        return est.value.hex(), est.std_err.hex(), est.n_samples
    assert [bits(e) for e in batch] == \
        [bits(estimate(sc, snr)) for sc in scenarios]
    # no scenario, no pass over the draws
    monkeypatch.setattr(engine, "chunk_rates", None)
    assert estimate([], snr) == []


@pytest.mark.parametrize("k", range(1, 13))
def test_sum_columns_is_numpy_row_sum_bitwise(k):
    # NumPy sums a row from 0.0 left to right for k < 8 and pairwise from 8
    # on; a release that changes either order fails here
    rng = np.random.default_rng(k)
    a = rng.standard_normal((4096, k)) * 10.0 ** rng.integers(-300, 300,
                                                              (4096, k))
    a[rng.random((4096, k)) < 0.2] = 0.0
    a[rng.random((4096, k)) < 0.1] = -0.0
    a[rng.random((4096, k)) < 0.1] = 5e-324
    a[rng.random((4096, k)) < 0.1] = 1e300
    a[:8] = -0.0
    got = channels.sum_columns(a)
    assert got.tobytes() == a.sum(axis=1).tobytes()


@pytest.mark.parametrize("strategy", [
    UniformIdentity(), BeamformingCsit(), FixedCovariance(np.eye(2) / 2)])
def test_chunk_rates_keep_expression_bits(strategy):
    # per eigenvalue log2(1 + gain * clip(ev)), in that order, summed over
    # the eigenvalues, or of the largest only for beamforming
    rng = np.random.default_rng(4)
    ev = np.sort(rng.exponential(1.0, (CHUNK + 7, 2)), axis=1)
    ev[::5, 0] = -1e-17
    eig = np.clip(ev, 0.0, None)
    want = {UniformIdentity: lambda: np.log2(1.0 + 2 * 0.7 / 3 * eig).sum(1),
            BeamformingCsit: lambda: np.log2(1.0 + 2 * 0.7 * eig[:, -1]),
            FixedCovariance: lambda: np.log2(1.0 + 2 * 0.7 * eig).sum(1)}
    got = chunk_rates(ev, strategy, 0.7, 2, 3)
    assert got.tobytes() == want[type(strategy)]().tobytes()


class TestSimplexMaximize:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_point_quadratic_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 1 + seed % 2))
        q = a @ a.T
        _, f, _ = simplex_maximize(_quadratic_objective(q), np.full(2, 0.5))
        ref = min_simplex_quadratic_2(q)
        assert abs(-f - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_vertex_optimum_is_exact(self):
        # f(t) = 2t^2 - 6t + 5 on [0, 1] is smallest at the vertex t = 1
        q = np.array([[1.0, 2.0], [2.0, 5.0]])
        p, f, gap = simplex_maximize(_quadratic_objective(q),
                                     np.full(2, 0.5))
        assert np.array_equal(p, [1.0, 0.0])
        assert f == -1.0 and gap == 0.0

    def test_huge_barzilai_borwein_step_stays_on_the_simplex(self):
        # f(p) = p_3 - (p_1 - 2 p_2 - 2 p_3)^2 is flat along (0, 1, -1), so
        # the fourth projection is of a point with entries near 5.6e28,
        # where u_1 - 1 rounds to u_1 and the projection found no support
        c = np.array([0.0, 0.0, 1.0])
        a = np.array([1.0, -2.0, -2.0])
        p, f, gap = simplex_maximize(
            lambda p: (float(c @ p - (a @ p) ** 2), c - 2.0 * (a @ p) * a),
            np.full(3, 1.0 / 3.0))
        assert np.allclose(p, [11 / 18, 0.0, 7 / 18], rtol=0, atol=1e-12)
        assert f == pytest.approx(13 / 36, rel=1e-12)
        assert gap <= SIMPLEX_GAP_TOL

    def test_projection_of_huge_entries(self):
        # a common shift leaves the projection unchanged
        p = np.array([1.39e28, -2.78e28, 5.56e28])
        assert np.array_equal(engine._simplex_project(p), [0.0, 0.0, 1.0])
        q = np.array([3e20, 3e20 - 1e6, -1e21])
        assert np.array_equal(engine._simplex_project(q), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_gap_within_tolerance(self, l):
        rng = np.random.default_rng(l)
        for _ in range(20):
            a = rng.standard_normal((l, int(rng.integers(1, l + 1))))
            q = a @ a.T
            fg = _quadratic_objective(q)
            p, f, gap = simplex_maximize(fg, np.full(l, 1.0 / l))
            assert gap <= SIMPLEX_GAP_TOL * max(1.0, abs(f))
            assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-12
            assert fg(p)[0] == f
            # the gap bounds how far any vertex can be above f
            assert max(-q[i, i] for i in range(l)) <= f + gap


class TestBitEnergyCurve:
    def test_deterministic_siso_awgn_limit(self):
        # the sweep rows' E_b/N0 on h = 1 is snr / log2(1 + snr)
        model = FixedMatrix(np.array([[1.0 + 0j]]))
        rows = [dict(zip(SWEEP_COLUMNS, row)) for row in sweep_rows(
            scen(1.0), model, UniformIdentity(), [-40.0, -30.0, -20.0],
            2000, 0)]
        assert [r["snr_linear"] for r in rows] == [1e-4, 1e-3, 1e-2]
        for r in rows:
            snr = r["snr_linear"]
            expected = 10 * math.log10(snr / math.log2(1.0 + snr))
            assert abs(r["eb_n0_db"] - expected) < 1e-9
        # scalar AWGN: E_b/N0 -> ln2 = -1.59 dB from above as snr -> 0
        assert rows[0]["eb_n0_db"] == pytest.approx(
            10 * math.log10(math.log(2)), abs=1e-3)


def test_determinism_same_seed():
    model = IidComplexGaussian(2, 2)
    a = effective_rate_mc(scen(1.0, 2, 2), model, UniformIdentity(), 3.0,
                          40_000, 17)
    b = effective_rate_mc(scen(1.0, 2, 2), model, UniformIdentity(), 3.0,
                          40_000, 17)
    assert a == b
