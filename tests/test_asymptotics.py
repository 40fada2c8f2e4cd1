import math

import numpy as np
import pytest

from effcap import asymptotics
from effcap.asymptotics import (SparseWidebandConfig, _quadratic_objective,
                                _sparse_objective, derivs_csit,
                                derivs_statistical, derivs_uniform,
                                energy_metrics, hankel_effective_rate,
                                hankel_mgf, highsnr_metrics,
                                highsnr_slope_empirical, sparse_ebmin_bounded,
                                sparse_ebmin_sublinear)
from effcap.channels import (FixedMatrix, IidComplexGaussian,
                             KroneckerCorrelated, MomentEstimates,
                             iter_sample_chunks, spectral_moments_mc)
from effcap.engine import (FixedCovariance, QosScenario, StatisticalOptimized,
                           UniformIdentity, WaterfillingCsit,
                           effective_rate_mc, ergodic_rate_mc)
from effcap.errors import DomainError, NumericError
from effcap.validation import siso_mgf_exact
from oracles import (central_gradient, hankel_entry_closed, hankel_log_entry,
                     hankel_log_mgf, hankel_log_mgf_per_pair,
                     upper_incomplete_gamma)

T, B = 1e-3, 1e5
LN2 = math.log(2.0)

# Bounded-subchannel bit energy for the 2x2 i.i.d. case with K = I/2 and
# rho = 1: sum |h_ij|^2 / 2 is Gamma(4, 1/2), so
# E{exp(-q/ln2)} = (1 + 1/(2 ln2))^{-4} and E_b/N0 = 1/(4 ln(1 + 1/(2 ln2))).
SPARSE_2X2_RHO1 = 0.460314088766755


def scen(theta_hat, n_r=1, n_t=1):
    return QosScenario.from_theta_hat(theta_hat, T, B, n_r, n_t)


def exact_moments(e1, e2, et, et2, eg2, n=10**9):
    zeros = {k: 0.0 for k in ("e_lambda_max", "e_lambda_max_sq", "e_trace",
                              "e_trace_sq", "e_trace_gram_sq")}
    return MomentEstimates(e1, e2, et, et2, eg2, zeros, n)


class TestLowSnrDerivatives:
    def test_deterministic_siso(self):
        # |h|^2 = 1 with certainty: C'(0) = 1/ln2 and, at theta = 0,
        # C''(0) = -E{|h|^4}/ln2 = -1/ln2
        m = exact_moments(1.0, 1.0, 1.0, 1.0, 1.0)
        d = derivs_csit(m, scen(0.0))
        assert abs(d.first_deriv - 1.0 / LN2) < 1e-12
        assert abs(d.second_deriv + 1.0 / LN2) < 1e-12
        du = derivs_uniform(m, scen(0.0))
        assert abs(du.first_deriv - d.first_deriv) < 1e-12
        assert abs(du.second_deriv - d.second_deriv) < 1e-12

    def test_exponential_gain_theta_zero(self):
        # SISO Rayleigh: E{|h|^2} = 1, E{|h|^4} = 2 -> C''(0) = -2/ln2
        m = exact_moments(1.0, 2.0, 1.0, 2.0, 2.0)
        d = derivs_uniform(m, scen(0.0))
        assert abs(d.first_deriv - 1.0 / LN2) < 1e-12
        assert abs(d.second_deriv + 2.0 / LN2) < 1e-12

    def test_theta_term_lowers_second_deriv(self):
        m = exact_moments(1.0, 2.0, 1.0, 2.0, 2.0)
        d0 = derivs_uniform(m, scen(0.0))
        d1 = derivs_uniform(m, scen(1.0))
        # extra -theta_tb * n_r * Var{trace}/(n_t^2 ln^2 2) term
        extra = scen(1.0).theta_tb * 1.0 / LN2 ** 2 * (2.0 - 1.0)
        assert abs((d0.second_deriv - d1.second_deriv) - extra) < 1e-12
        assert d1.second_deriv < d0.second_deriv

    def test_uniform_first_deriv_iid(self):
        # E{tr} = n_R n_T so the first derivative is n_R/ln2 regardless of n_T
        for n_r, n_t in [(2, 2), (2, 5), (3, 1)]:
            m = exact_moments(0.0, 0.0, n_r * n_t,
                              n_r * n_t * (n_r * n_t + 1),
                              n_r * n_t * (n_r + n_t))
            d = derivs_uniform(m, scen(1.0, n_r, n_t))
            assert abs(d.first_deriv - n_r / LN2) < 1e-12

    def test_statistical_first_deriv_rank_one(self):
        r_t = np.diag([1.5, 0.5]).astype(complex)
        model = KroneckerCorrelated(np.eye(2, dtype=complex), r_t)
        # E{H^dag H} = tr(R_r) * R_t = 2 R_t -> lambda_max = 3, l = 1
        d = derivs_statistical(2.0 * np.asarray(r_t), model, scen(1.0, 2, 2),
                               n_samples=50_000, seed=0)
        assert abs(d.first_deriv - 3.0 / LN2) < 1e-12
        assert d.second_deriv < 0.0

    def test_statistical_deterministic_matches_csit(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        model = FixedMatrix(h)
        sc = scen(1.0, 2, 2)
        ds = derivs_statistical(h.conj().T @ h, model, sc, n_samples=2_000,
                                seed=0)
        m = spectral_moments_mc(model, 2_000, 0)
        dc = derivs_csit(m, sc)
        assert abs(ds.first_deriv - dc.first_deriv) < 1e-9
        assert abs(ds.second_deriv - dc.second_deriv) < 1e-9

    def test_statistical_iid_matches_uniform(self):
        model = IidComplexGaussian(2, 2)
        sc = scen(1.0, 2, 2)
        ds = derivs_statistical(model.exact_mean_gram(), model, sc,
                                n_samples=500_000, seed=0)
        m = spectral_moments_mc(model, 500_000, 0)
        du = derivs_uniform(m, sc)
        # statistical uses the exact mean Gram, so its first derivative is
        # exact; uniform's comes from Monte Carlo moments
        assert ds.first_deriv == pytest.approx(2.0 / LN2, abs=1e-12)
        assert abs(ds.first_deriv - du.first_deriv) \
            <= 0.01 * abs(du.first_deriv)
        assert abs(ds.second_deriv - du.second_deriv) \
            <= 0.01 * abs(du.second_deriv)

    def test_quadratic_objective_gradient(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        fg = _quadratic_objective(a @ a.T)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        _, grad = fg(p)
        fd = central_gradient(lambda x: fg(x)[0], p)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


class TestEnergyMetrics:
    def test_siso_minimum_bit_energy(self):
        m = exact_moments(1.0, 2.0, 1.0, 2.0, 2.0)
        em = energy_metrics(derivs_uniform(m, scen(0.0)))
        assert abs(em.eb_min_linear - LN2) < 1e-12
        assert abs(em.eb_min_db - 10 * math.log10(LN2)) < 1e-12
        assert abs(em.eb_min_db + 1.5917) < 1e-3

    def test_deterministic_siso_slope_two(self):
        m = exact_moments(1.0, 1.0, 1.0, 1.0, 1.0)
        em = energy_metrics(derivs_uniform(m, scen(0.0)))
        assert abs(em.wideband_slope_s0 - 2.0) < 1e-12

    def test_iid_slope_closed_form(self):
        # exact i.i.d. moments: S0 = 2 / ((n_R + n_T)/n_T + theta_tb/(n_T ln2))
        for n_r, n_t, th in [(2, 2, 0.0), (2, 4, 1.0), (3, 2, 2.0)]:
            sc = scen(th, n_r, n_t)
            m = exact_moments(0.0, 0.0, n_r * n_t,
                              n_r * n_t * (n_r * n_t + 1),
                              n_r * n_t * (n_r + n_t))
            em = energy_metrics(derivs_uniform(m, sc))
            expect = 2.0 * n_t / (n_r + n_t + sc.theta_hat)
            assert abs(em.wideband_slope_s0 - expect) < 1e-10

    def test_invalid_derivatives_rejected(self):
        from effcap.asymptotics import LowSnrDerivatives
        with pytest.raises(DomainError):
            energy_metrics(LowSnrDerivatives(0.0, -1.0, "x"))
        with pytest.raises(DomainError):
            energy_metrics(LowSnrDerivatives(1.0, 0.5, "x"))


class TestSparseWideband:
    def cfg(self, m=5, p=1e4, b_c=1e5):
        return SparseWidebandConfig(m=m, p_over_n0=p, b_c=b_c)

    def test_deterministic_channel_any_theta(self):
        # q = 1 deterministic: E_b = rho/( -ln e^{-rho/ln2}) = ln2 always
        model = FixedMatrix(np.array([[1.0 + 0j]]))
        for th in (0.1, 1.0, 5.0):
            eb, eb_db = sparse_ebmin_bounded(self.cfg(), scen(th), model,
                                             UniformIdentity(), 1000, 0)
            assert abs(eb - LN2) < 1e-12
            assert abs(eb_db - 10 * math.log10(LN2)) < 1e-12

    def test_iid_2x2_frozen_oracle(self):
        # choose (theta, m, P/N0) so that rho = theta*T*P/(m N0) = 1
        sc = QosScenario(theta=1.0, t=1e-3, b=1e5, n_r=2, n_t=2)
        cfg = self.cfg(m=10, p=1e4)
        assert abs(sc.theta * sc.t * cfg.p_over_n0 / cfg.m - 1.0) < 1e-12
        eb, _ = sparse_ebmin_bounded(cfg, sc, IidComplexGaussian(2, 2),
                                     UniformIdentity(), 400_000, 2)
        assert abs(eb - SPARSE_2X2_RHO1) < 0.01 * SPARSE_2X2_RHO1

    def test_theta_to_zero_recovers_mean_limit(self):
        model = IidComplexGaussian(2, 2)
        eb, _ = sparse_ebmin_bounded(self.cfg(m=100), scen(1e-4, 2, 2), model,
                                     UniformIdentity(), 100_000, 0)
        eb_lim, _ = sparse_ebmin_sublinear(model, UniformIdentity(),
                                           100_000, 0)
        assert abs(eb - eb_lim) < 1e-3 * eb_lim

    def test_monotone_in_theta(self):
        model = IidComplexGaussian(2, 2)
        ebs = [sparse_ebmin_bounded(self.cfg(), scen(th, 2, 2), model,
                                    UniformIdentity(), 50_000, 0)[0]
               for th in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(ebs, ebs[1:]))

    def test_bounded_exceeds_sublinear(self):
        model = IidComplexGaussian(2, 3)
        eb_b, _ = sparse_ebmin_bounded(self.cfg(), scen(1.0, 2, 3), model,
                                       UniformIdentity(), 50_000, 0)
        eb_s, _ = sparse_ebmin_sublinear(model, UniformIdentity(), 50_000, 0)
        assert eb_b > eb_s

    def test_sublinear_statistical_iid_exact(self):
        # lambda_max(E{H^dag H}) = n_R exactly for the i.i.d. model
        for n_r, n_t in [(2, 2), (3, 2)]:
            model = IidComplexGaussian(n_r, n_t)
            eb, eb_db = sparse_ebmin_sublinear(model, StatisticalOptimized(),
                                               1000, 0)
            assert eb == LN2 / n_r
            assert abs(eb_db - 10 * math.log10(LN2 / n_r)) < 1e-12

    def test_sublinear_deterministic_siso(self):
        eb, _ = sparse_ebmin_sublinear(FixedMatrix(np.array([[1.0 + 0j]])),
                                       UniformIdentity(), 1000, 0)
        assert abs(eb - LN2) < 1e-12

    def test_statistical_bounded_beats_uniform_when_correlated(self):
        r_t = np.diag([1.6, 0.4]).astype(complex)
        model = KroneckerCorrelated(np.eye(2, dtype=complex), r_t)
        sc = scen(1.0, 2, 2)
        eb_s, _ = sparse_ebmin_bounded(self.cfg(), sc, model,
                                       StatisticalOptimized(), 50_000, 0)
        eb_u, _ = sparse_ebmin_bounded(self.cfg(), sc, model,
                                       UniformIdentity(), 50_000, 0)
        assert eb_s <= eb_u * (1.0 + 1e-6)

    def test_statistical_objective_and_gradient(self):
        # with U = I the objective at p is -log E{exp(-rho q / ln2)} for
        # K = diag(p), and its exact gradient matches central differences
        lag = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        model = KroneckerCorrelated(np.eye(2, dtype=complex), 0.5 ** lag)
        sc, cfg = scen(1.0, 2, 3), self.cfg(m=1, p=1.5e5)
        rho = sc.theta * sc.t * cfg.p_over_n0 / cfg.m
        gains = np.concatenate([(np.abs(h) ** 2).sum(axis=1)
                                for h in iter_sample_chunks(model, 5000, 0)])
        fg = _sparse_objective(gains, rho)
        p = np.array([0.5, 0.3, 0.2])
        f, grad = fg(p)
        eb, _ = sparse_ebmin_bounded(cfg, sc, model,
                                     FixedCovariance(np.diag(p)), 5000, 0)
        assert rho / f == pytest.approx(eb, rel=1e-12)
        fd = central_gradient(lambda x: fg(x)[0], p)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))

    def test_zero_channel_raises_numeric(self):
        model = FixedMatrix(np.zeros((1, 1), dtype=complex))
        with pytest.raises(NumericError):
            sparse_ebmin_bounded(self.cfg(), scen(1.0), model,
                                 UniformIdentity(), 1000, 0)

    def test_config_validated(self):
        with pytest.raises(DomainError):
            SparseWidebandConfig(m=0, p_over_n0=1.0, b_c=1.0)


class TestHankelMgf:
    def test_theta_zero_is_one(self):
        for n_r, n_t in [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2)]:
            assert abs(hankel_mgf(scen(0.0, n_r, n_t), 10.0) - 1.0) < 1e-10

    def test_siso_closed_form(self):
        # SISO: MGF = snr^{-th} e^{1/snr} Gamma(1 - th, 1/snr)
        for th, snr in [(0.5, 1.0), (1.0, 10.0), (2.0, 5.0), (5.0, 100.0)]:
            expect = snr ** (-th) * math.exp(1.0 / snr) \
                * upper_incomplete_gamma(1.0 - th, 1.0 / snr)
            got = hankel_mgf(scen(th), snr)
            assert abs(got - expect) < 1e-12 * expect

    def test_matches_monte_carlo_2x2(self):
        sc = scen(1.0, 2, 2)
        rate_q = hankel_effective_rate(sc, 10.0)
        est = effective_rate_mc(sc, IidComplexGaussian(2, 2),
                                UniformIdentity(), 10.0, 400_000, 2)
        assert abs(rate_q - est.value * sc.n_r) <= 3 * est.std_err * sc.n_r

    def test_rate_nonincreasing_in_theta(self):
        sc_by_th = [scen(th, 2, 3) for th in (0.25, 0.5, 1.0, 2.0)]
        rates = [hankel_effective_rate(sc, 10.0) for sc in sc_by_th]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_small_theta_approaches_ergodic(self):
        sc = scen(1e-6, 2, 2)
        rate = hankel_effective_rate(sc, 10.0)
        erg = ergodic_rate_mc(IidComplexGaussian(2, 2), UniformIdentity(),
                              10.0, 200_000, 2)
        assert abs(rate - erg.value * 2) <= 4 * erg.std_err * 2

    def test_snr_validated(self):
        with pytest.raises(DomainError):
            hankel_mgf(scen(1.0), 0.0)
        with pytest.raises(DomainError):
            hankel_effective_rate(scen(0.0), 1.0)

    @pytest.mark.parametrize("snr", [math.inf, math.nan])
    def test_non_finite_snr_refused(self, snr):
        with pytest.raises(DomainError):
            hankel_mgf(scen(1.0), snr)

    def test_non_finite_entry_refused(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_hankel_integrand_entry",
                            lambda th, orders, c: np.full(len(orders),
                                                          np.nan))
        with pytest.raises(NumericError):
            hankel_mgf(scen(1.5, 2, 2), 10.0)

    @pytest.mark.parametrize("snr", [0.01, 10.0, 1e5, 1e8])
    @pytest.mark.parametrize("theta_hat", [0.5, 1.5, 8.0])
    @pytest.mark.parametrize("n_r,n_t", [(1, 1), (2, 2), (2, 5), (5, 2),
                                         (3, 3), (4, 4)])
    def test_rate_matches_mpmath(self, n_r, n_t, theta_hat, snr):
        pytest.importorskip("mpmath")
        sc = scen(theta_hat, n_r, n_t)
        want = -hankel_log_mgf(sc, snr) / sc.theta_tb
        got = hankel_effective_rate(sc, snr)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("snr", [0.01, 10.0, 1e5])
    @pytest.mark.parametrize("theta_hat", [0.5, 1.5, 8.0])
    @pytest.mark.parametrize("n_r,n_t", [(1, 1), (2, 2), (2, 5), (5, 2),
                                         (3, 3), (4, 4)])
    def test_bitwise_equal_to_per_pair_loop(self, n_r, n_t, theta_hat, snr):
        sc = scen(theta_hat, n_r, n_t)
        want = hankel_log_mgf_per_pair(sc, snr)
        assert asymptotics._hankel_log_mgf(sc, snr) == want
        assert hankel_mgf(sc, snr) == math.exp(want)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_entry_per_anti_diagonal(self, k, monkeypatch):
        # one call evaluates all 2k - 1 orders
        calls = []
        entry = asymptotics._hankel_integrand_entry

        def counted(theta_hat, orders, c):
            calls.append(list(orders))
            return entry(theta_hat, orders, c)

        monkeypatch.setattr(asymptotics, "_hankel_integrand_entry", counted)
        hankel_mgf(scen(1.5, k, k), 10.0)
        assert calls == [list(range(2 * k - 1))]


class TestHankelIntegrandEntry:
    # integer theta_hat makes theta_hat - p an integer, which is no pole of
    # the integral
    @pytest.mark.parametrize("theta_hat", [0.01, 0.5, 1.0, 2.0, 8.0, 12.3,
                                           30.0])
    def test_matches_tricomi_u_mpmath(self, theta_hat):
        # measured worst relative error on this grid: 1.1e-13
        mpmath = pytest.importorskip("mpmath")
        orders = np.arange(21)
        for c in [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]:
            got = asymptotics._hankel_integrand_entry(theta_hat, orders, c)
            with mpmath.workdps(40):
                want = [float(hankel_log_entry(theta_hat, p, c))
                        for p in orders]
            rel = np.abs(np.expm1(got - np.array(want)))
            assert rel.max() <= 1e-12, (c, int(rel.argmax()))

    @pytest.mark.parametrize("theta_hat", [0.01, 1.5, 5.0, 30.0])
    def test_top_order_accurate(self, theta_hat):
        # measured worst relative error at the top order: 8.5e-13
        mpmath = pytest.importorskip("mpmath")
        top = asymptotics._HANKEL_MAX_ORDER
        for c in [1e-6, 10 ** -2.5, 1.0, 1e3, 1e12]:
            got = asymptotics._hankel_integrand_entry(theta_hat, [top], c)
            with mpmath.workdps(40):
                want = float(hankel_log_entry(theta_hat, top, c))
            assert abs(math.expm1(got[0] - want)) <= 1e-12, c
        # 1 x (top + 1) has the one entry of order top; its log-MGF error
        # is that entry's error
        sc = scen(theta_hat, 1, top + 1)
        for snr in [1e-4, 1.0, 1e4]:
            got = asymptotics._hankel_log_mgf(sc, snr)
            assert abs(got - hankel_log_mgf(sc, snr)) <= 1e-12

    @pytest.mark.parametrize("n_r,n_t", [(1, 62), (62, 1), (31, 32)])
    def test_order_above_bound_refused(self, n_r, n_t):
        assert n_r + n_t - 2 == asymptotics._HANKEL_MAX_ORDER + 1
        with pytest.raises(NumericError):
            hankel_mgf(scen(1.5, n_r, n_t), 10.0)


class TestSisoMgfExact:
    # the reference of the closed-form checks of `validate highsnr`
    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 1e3])
    @pytest.mark.parametrize("theta_hat", [0.5, 0.7, 1.0, 2.0, 3.0])
    def test_matches_mpmath_and_hankel(self, theta_hat, snr):
        pytest.importorskip("mpmath")
        got = siso_mgf_exact(theta_hat, snr)
        want = math.exp(hankel_log_mgf(scen(theta_hat), snr))
        assert abs(got - want) <= 1e-12 * want
        assert abs(got - hankel_mgf(scen(theta_hat), snr)) <= 1e-12 * want

    @pytest.mark.parametrize("theta_hat", [0.0, 1.5, -1.0])
    def test_other_theta_refused(self, theta_hat):
        with pytest.raises(DomainError):
            siso_mgf_exact(theta_hat, 10.0)


class TestHankelEntryClosed:
    def test_matches_quadrature(self):
        sc = scen(1.5, 2, 3)
        c = sc.n_r / sc.n_t * 5.0
        quad = np.exp(asymptotics._hankel_integrand_entry(1.5, [1, 2, 3], c))
        for i in range(2):
            for j in range(2):
                closed = hankel_entry_closed(i, j, sc, 5.0)
                assert abs(closed - quad[i + j]) < 1e-12 * quad[i + j]

    def test_high_snr_power_laws(self):
        # at large snr the entry behaves like A c^{-th} + B c^{-(1+p)}:
        # the dominant log-log slope is -min(th, 1+p)
        sc = scen(0.3, 1, 1)  # p = 0, dominant slope -0.3
        snrs = np.array([1e3, 1e4, 1e5])
        vals = np.array([hankel_entry_closed(0, 0, sc, s) for s in snrs])
        slope = np.polyfit(np.log10(snrs), np.log10(vals), 1)[0]
        assert abs(slope + 0.3) < 0.02

        sc2 = scen(2.5, 1, 1)  # th > 1 + p = 1, dominant slope -1
        vals2 = np.array([hankel_entry_closed(0, 0, sc2, s) for s in snrs])
        slope2 = np.polyfit(np.log10(snrs), np.log10(vals2), 1)[0]
        assert abs(slope2 + 1.0) < 0.02

    def test_integer_gap_pole_rejected(self):
        sc = scen(1.0, 1, 1)  # theta_hat - p = 1, an integer
        with pytest.raises(DomainError) as exc:
            hankel_entry_closed(0, 0, sc, 5.0)
        assert "1" in str(exc.value)

    def test_index_range_validated(self):
        with pytest.raises(DomainError):
            hankel_entry_closed(0, 2, scen(0.5, 2, 2), 5.0)

    @pytest.mark.parametrize("snr", [0.01, 0.03, 0.1, 0.3, 1.0, 10.0,
                                     1e2, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("theta_hat", [0.5, 1.5, 2.5,
                                           6.5, 7.9, 10.0, 12.3])
    def test_accurate_or_refused_against_mpmath(self, theta_hat, snr):
        # g_ij = Gamma(p+1) c^{-(p+1)} U(p+1, p+2-theta_hat, 1/c) with
        # p = d+i+j and c = (n_R/n_T)*snr; the two-term form cancels
        # catastrophically below c = 1 and has a pole at integer
        # theta_hat - p, so both are refused
        mpmath = pytest.importorskip("mpmath")
        for n_r, n_t in [(1, 1), (3, 3), (4, 4), (2, 5), (5, 2), (7, 7)]:
            k, d = min(n_r, n_t), abs(n_r - n_t)
            c = n_r / n_t * snr
            sc = scen(theta_hat, n_r, n_t)
            for i in range(k):
                for j in range(i, k):
                    p = d + i + j
                    if theta_hat == round(theta_hat):
                        with pytest.raises(DomainError):
                            hankel_entry_closed(i, j, sc, snr)
                        continue
                    try:
                        val = hankel_entry_closed(i, j, sc, snr)
                    except NumericError:
                        assert c < 1.0
                        continue
                    assert c >= 1.0
                    with mpmath.workdps(40):
                        ref = float(mpmath.exp(
                            hankel_log_entry(theta_hat, p, c)))
                    assert abs(val - ref) <= 1e-8 * abs(ref), (n_r, n_t, i, j)


class TestHighSnrMetrics:
    def test_full_slope_band(self):
        m = highsnr_metrics(scen(2.0, 2, 5), IidComplexGaussian(2, 5))
        assert m.s_inf == 2.0

    def test_siso_reduced_slope(self):
        m = highsnr_metrics(scen(2.0), IidComplexGaussian(1, 1))
        assert m.s_inf == pytest.approx(0.5, abs=1e-12)
        assert math.isnan(m.l_inf)

    def test_heuristic_band_flagged(self):
        m = highsnr_metrics(scen(10.0, 2, 2), IidComplexGaussian(2, 2))
        assert m.s_inf == pytest.approx(0.4, abs=1e-12)
        assert "reduced slope" in m.regime_note
        assert math.isnan(m.l_inf)

    @pytest.mark.parametrize("n_r,n_t,theta_hat", [
        (1, 4, 6.0), (2, 5, 8.0), (3, 4, 7.5), (2, 2, 2.0), (2, 5, 5.0)])
    def test_reduced_slope_matches_hankel_rate(self, n_r, n_t, theta_hat):
        # S_inf = (1/theta_hat) sum_i min(theta_hat, 2i-1+d); the 60-80 dB
        # regression of the Hankel rate is within 6e-5 of it on these shapes
        sc = scen(theta_hat, n_r, n_t)
        snrs = 10.0 ** (np.arange(60.0, 81.0, 5.0) / 10.0)
        slope = highsnr_slope_empirical(
            [(s, hankel_effective_rate(sc, s)) for s in snrs])
        m = highsnr_metrics(sc, IidComplexGaussian(n_r, n_t))
        assert abs(m.s_inf - slope) <= 2e-4
        assert math.isnan(m.l_inf)

    def test_siso_ergodic_power_offset(self):
        # L_inf = gamma * log2(e) for the ergodic SISO Rayleigh channel;
        # mpmath at 40 digits: 0.83274617727686715...
        m = highsnr_metrics(scen(0.0), IidComplexGaussian(1, 1))
        expect = 0.8327461772768672
        assert m.s_inf == 1.0
        assert abs(m.l_inf - expect) <= 1e-12

    @pytest.mark.parametrize("n_r,n_t,theta_hat", [
        (1, 1, 0.5), (1, 4, 3.0), (2, 3, 0.25), (2, 3, 0.5), (2, 3, 1.0),
        (2, 5, 2.0), (4, 2, 1.5)])
    def test_offset_matches_hankel_rate(self, n_r, n_t, theta_hat):
        # below the reduced-slope band the rate per dimension approaches
        # log2(SNR) - L_inf; at 100 dB the gap is under 1e-5 on these cases
        sc = scen(theta_hat, n_r, n_t)
        snr = 1e10
        implied = (math.log2(snr)
                   - hankel_effective_rate(sc, snr) / min(n_r, n_t))
        m = highsnr_metrics(sc, IidComplexGaussian(n_r, n_t))
        assert m.s_inf == min(n_r, n_t)
        assert abs(m.l_inf - implied) <= 1e-4

    def test_offset_nondecreasing_in_theta(self):
        model = IidComplexGaussian(2, 3)
        vals = [highsnr_metrics(scen(th, 2, 3), model).l_inf
                for th in (0.25, 0.5, 1.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_non_iid_rejected(self):
        with pytest.raises(DomainError):
            highsnr_metrics(scen(1.0), FixedMatrix(np.eye(1, dtype=complex)))


class TestHighSnrSlopeEmpirical:
    def test_exact_line(self):
        pts = [(s, 3.0 * math.log2(s) - 5.0)
               for s in (1e3, 3e3, 1e4, 3e4, 1e5)]
        assert abs(highsnr_slope_empirical(pts) - 3.0) < 1e-10

    def test_preconditions(self):
        line = [(s, math.log2(s)) for s in (1e3, 1e4, 1e5)]
        with pytest.raises(DomainError):
            highsnr_slope_empirical(line)  # too few points
        low = [(s, math.log2(s)) for s in (1.0, 10.0, 100.0, 1000.0)]
        with pytest.raises(DomainError):
            highsnr_slope_empirical(low)  # snr below 1e3
        narrow = [(s, math.log2(s)) for s in (1e3, 2e3, 4e3, 8e3)]
        with pytest.raises(DomainError):
            highsnr_slope_empirical(narrow)  # span under 20 dB
