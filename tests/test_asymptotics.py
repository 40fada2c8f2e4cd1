import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from effcap import asymptotics
from effcap.asymptotics import (SparseWidebandConfig, ZeroSnrMoments,
                                _quadratic_objective, _sparse_objective,
                                energy_metrics, hankel_effective_rate,
                                hankel_mgf, highsnr_metrics,
                                highsnr_slope_empirical, sparse_ebmin,
                                zero_snr_derivs, zero_snr_moments)
from effcap.channels import (CHUNK, FixedMatrix, IidComplexGaussian,
                             KroneckerCorrelated, iter_sample_chunks)
from effcap.engine import (BeamformingCsit, FixedCovariance, QosScenario,
                           StatisticalOptimized, UniformIdentity,
                           WaterfillingCsit, chunk_gains, effective_rate_mc,
                           ergodic_rate_mc, in_eigenbasis, rate_estimator,
                           simplex_maximize)
from effcap.errors import DomainError, NumericError
from effcap.validation import _fd_checks, siso_mgf_exact
from oracles import (_sparse_exponent_chunks, central_gradient, derivs_csit,
                     derivs_statistical, derivs_uniform, hankel_entry_closed,
                     hankel_log_entry, hankel_log_mgf, hankel_log_mgf_per_pair,
                     hankel_log_mgf_rebuilt, hermitian_eig,
                     sparse_ebmin_bounded, sparse_ebmin_sublinear,
                     spectral_moments_mc, statistical_moments_mc,
                     upper_incomplete_gamma, zero_snr_derivs_scalar)

T, B = 1e-3, 1e5
LN2 = math.log(2.0)
# the benchmark's oracle: i.i.d. effective rates from mpmath at 40 digits
REFERENCE_JSON = Path(__file__).resolve().parents[1] / "perfbench" \
    / "reference.json"

# Bounded-subchannel bit energy for the 2x2 i.i.d. case with K = I/2 and
# rho = 1: sum |h_ij|^2 / 2 is Gamma(4, 1/2), so
# E{exp(-q/ln2)} = (1 + 1/(2 ln2))^{-4} and E_b/N0 = 1/(4 ln(1 + 1/(2 ln2))).
SPARSE_2X2_RHO1 = 0.460314088766755


def scen(theta_hat, n_r=1, n_t=1):
    return QosScenario.from_theta_hat(theta_hat, T, B, n_r, n_t)


def iid_uniform_moments(n_r, n_t):
    """Exact ZeroSnrMoments of the uniform gain q = tr(HH^dagger)/n_T on
    the i.i.d. model: E{tr} = n_R n_T, E{tr^2} = n_R n_T (n_R n_T + 1) and
    E{tr (HH^dagger)^2} = n_R n_T (n_R + n_T)."""
    return ZeroSnrMoments(n_r, n_r * (n_r * n_t + 1) / n_t,
                          n_r * (n_r + n_t) / n_t, "uniform")


class TestLowSnrDerivatives:
    def test_deterministic_siso(self):
        # |h|^2 = 1 with certainty: C'(0) = 1/ln2 and, at theta = 0,
        # C''(0) = -E{|h|^4}/ln2 = -1/ln2; uniform and beamforming put the
        # one antenna's power on the one mode, so their gains coincide
        model = FixedMatrix(np.array([[1.0 + 0j]]))
        mu, mb = zero_snr_moments(model, [UniformIdentity(),
                                          BeamformingCsit()], 1000, 0)
        assert (mu.e_q, mu.e_q_sq, mu.e_r) == (1.0, 1.0, 1.0)
        d = zero_snr_derivs(mb, scen(0.0))
        assert abs(d.first_deriv - 1.0 / LN2) < 1e-12
        assert abs(d.second_deriv + 1.0 / LN2) < 1e-12
        du = zero_snr_derivs(mu, scen(0.0))
        assert abs(du.first_deriv - d.first_deriv) < 1e-12
        assert abs(du.second_deriv - d.second_deriv) < 1e-12
        assert (du.regime, d.regime) == ("uniform", "csit")

    def test_exponential_gain_theta_zero(self):
        # SISO Rayleigh: E{|h|^2} = 1, E{|h|^4} = 2 -> C''(0) = -2/ln2
        m = iid_uniform_moments(1, 1)
        d = zero_snr_derivs(m, scen(0.0))
        assert abs(d.first_deriv - 1.0 / LN2) < 1e-12
        assert abs(d.second_deriv + 2.0 / LN2) < 1e-12

    def test_theta_term_lowers_second_deriv(self):
        m = iid_uniform_moments(1, 1)
        d0 = zero_snr_derivs(m, scen(0.0))
        d1 = zero_snr_derivs(m, scen(1.0))
        # extra -theta_tb * n_r * Var{q}/ln^2 2 term
        extra = scen(1.0).theta_tb * 1.0 / LN2 ** 2 * (2.0 - 1.0)
        assert abs((d0.second_deriv - d1.second_deriv) - extra) < 1e-12
        assert d1.second_deriv < d0.second_deriv

    def test_uniform_first_deriv_iid(self):
        # E{tr} = n_R n_T so the first derivative is n_R/ln2 regardless of n_T
        for n_r, n_t in [(2, 2), (2, 5), (3, 1)]:
            d = zero_snr_derivs(iid_uniform_moments(n_r, n_t),
                                scen(1.0, n_r, n_t))
            assert abs(d.first_deriv - n_r / LN2) < 1e-12

    def test_statistical_first_deriv_rank_one(self):
        r_t = np.diag([1.5, 0.5]).astype(complex)
        model = KroneckerCorrelated(np.eye(2, dtype=complex), r_t)
        # E{H^dag H} = tr(R_r) * R_t = 2 R_t -> lambda_max = 3, l = 1
        (mom,) = zero_snr_moments(model, [StatisticalOptimized()], 50_000, 0)
        d = zero_snr_derivs(mom, scen(1.0, 2, 2))
        # lambda_max is that of the exact mean, with no Monte Carlo error
        want = hermitian_eig(model.exact_mean_gram())[0][0]
        assert mom.e_q == want
        assert want == 3.0
        assert mom.e_r.shape == (1, 1)
        assert (mom.regime, mom.std_errs) == ("statistical", None)
        assert d.first_deriv == mom.e_q / LN2
        assert d.second_deriv < 0.0

    def test_statistical_deterministic_matches_csit(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        model = FixedMatrix(h)
        sc = scen(1.0, 2, 2)
        ms, m = zero_snr_moments(model, [StatisticalOptimized(),
                                         BeamformingCsit()], 2_000, 0)
        ds, dc = zero_snr_derivs(ms, sc), zero_snr_derivs(m, sc)
        assert abs(ds.first_deriv - dc.first_deriv) < 1e-9
        assert abs(ds.second_deriv - dc.second_deriv) < 1e-9

    def test_statistical_iid_matches_uniform(self):
        model = IidComplexGaussian(2, 2)
        sc = scen(1.0, 2, 2)
        ms, m = zero_snr_moments(model, [StatisticalOptimized(),
                                         UniformIdentity()], 500_000, 0)
        ds, du = zero_snr_derivs(ms, sc), zero_snr_derivs(m, sc)
        # statistical uses the exact mean Gram, so its first derivative is
        # exact; uniform's comes from Monte Carlo moments
        assert ds.first_deriv == pytest.approx(2.0 / LN2, abs=1e-12)
        assert abs(ds.first_deriv - du.first_deriv) \
            <= 0.01 * abs(du.first_deriv)
        assert abs(ds.second_deriv - du.second_deriv) \
            <= 0.01 * abs(du.second_deriv)

    @pytest.mark.parametrize("strategy", [UniformIdentity(),
                                          StatisticalOptimized()])
    def test_overflowing_second_deriv_weight_refused(self, strategy):
        # at theta_hat = 1e308 the weight theta T B n_R/ln2^2 of E{q^2}
        # overflows: uniform reported C''(0) = -inf and a wideband slope
        # of 0, and statistical CSI died with an IndexError traceback from
        # the simplex projection
        (m,) = zero_snr_moments(IidComplexGaussian(2, 2), [strategy],
                                2_000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="second derivative not finite"):
                zero_snr_derivs(m, scen(1e308, 2, 2))

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
        em = energy_metrics(zero_snr_derivs(iid_uniform_moments(1, 1),
                                            scen(0.0)))
        assert abs(em.eb_min_linear - LN2) < 1e-12
        assert abs(em.eb_min_db - 10 * math.log10(LN2)) < 1e-12
        assert abs(em.eb_min_db + 1.5917) < 1e-3

    def test_deterministic_siso_slope_two(self):
        m = ZeroSnrMoments(1.0, 1.0, 1.0, "uniform")
        em = energy_metrics(zero_snr_derivs(m, scen(0.0)))
        assert abs(em.wideband_slope_s0 - 2.0) < 1e-12

    def test_iid_slope_closed_form(self):
        # exact i.i.d. moments: S0 = 2 / ((n_R + n_T)/n_T + theta_tb/(n_T ln2))
        for n_r, n_t, th in [(2, 2, 0.0), (2, 4, 1.0), (3, 2, 2.0)]:
            sc = scen(th, n_r, n_t)
            em = energy_metrics(zero_snr_derivs(iid_uniform_moments(n_r, n_t),
                                                sc))
            expect = 2.0 * n_t / (n_r + n_t + sc.theta_hat)
            assert abs(em.wideband_slope_s0 - expect) < 1e-10

    def test_invalid_derivatives_rejected(self):
        from effcap.asymptotics import LowSnrDerivatives
        with pytest.raises(DomainError):
            energy_metrics(LowSnrDerivatives(0.0, -1.0, "x"))
        with pytest.raises(DomainError):
            energy_metrics(LowSnrDerivatives(1.0, 0.5, "x"))

    @pytest.mark.parametrize("first,second", [(math.nan, -1.0),
                                              (1.0, math.nan)])
    def test_nan_derivatives_rejected(self, first, second):
        from effcap.asymptotics import LowSnrDerivatives
        with pytest.raises(DomainError):
            energy_metrics(LowSnrDerivatives(first, second, "x"))


# the models of the sparse one-pass comparison, i.i.d. in three shapes and
# one Kronecker, and its strategies; fixed K is a decreasing diagonal
_SPARSE_MODELS = {
    "iid1x1": IidComplexGaussian(1, 1),
    "iid2x2": IidComplexGaussian(2, 2),
    "iid2x3": IidComplexGaussian(2, 3),
    "kron2x2": KroneckerCorrelated(
        np.array([[1.0, 0.7], [0.7, 1.0]], dtype=complex),
        np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)),
}
_SPARSE_STRATEGIES = ("uniform", "waterfilling", "beamforming", "fixed",
                      "statistical")


def _sparse_strategy(name, n_t):
    if name == "fixed":
        w = np.arange(n_t, 0, -1, dtype=float)
        return FixedCovariance(np.diag(w / w.sum()).astype(complex))
    return {"uniform": UniformIdentity, "waterfilling": WaterfillingCsit,
            "beamforming": BeamformingCsit,
            "statistical": StatisticalOptimized}[name]()


def _low_snr_derivs(model, strategy, scenario, n_samples, seed):
    """The low-SNR derivatives of `effcap low-snr` for any strategy."""
    (m,) = zero_snr_moments(model, [strategy], n_samples, seed)
    return zero_snr_derivs(m, scenario)


# a 2x2 channel with no zero entry and no symmetry
_H_FIXED = np.array([[1.0 + 0.5j, 0.3], [-0.2j, 0.8 - 0.1j]])


def _kron(n, rho_r, rho_t):
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return KroneckerCorrelated((rho_r ** lag).astype(complex),
                               (rho_t ** lag).astype(complex))


class TestZeroSnrGain:
    @pytest.mark.parametrize("model", ["iid2x2", "kron2x2", "kron3x3",
                                       "fixed2x2"])
    def test_one_pass_bitwise_against_statistical_reference(self, model):
        # statistical CSI's matrices and lambda_max from the one pass of
        # every strategy, and its derivatives from the one formula, keep the
        # bits of its own pass and formula; the scalar strategies'
        # derivatives keep the closed formula's bits
        model = {"iid2x2": _SPARSE_MODELS["iid2x2"],
                 "kron2x2": _SPARSE_MODELS["kron2x2"],
                 "kron3x3": _kron(3, 0.7, 0.5),
                 "fixed2x2": FixedMatrix(_H_FIXED)}[model]
        n, seed = CHUNK + 123, 5
        strategies = [_sparse_strategy(name, model.n_t) for name in
                      ("uniform", "waterfilling", "beamforming", "fixed",
                       "statistical")]
        *scalar, stat = zero_snr_moments(model, strategies, n, seed)
        ref = statistical_moments_mc(model, n, seed)
        assert stat.e_q == ref.lambda_max
        assert np.array_equal(stat.e_q_sq, ref.e_diag_products)
        assert np.array_equal(stat.e_r, ref.e_abs_sq)
        for th in (0.0, 0.5, 2.0):
            sc = scen(th, model.n_r, model.n_t)
            assert zero_snr_derivs(stat, sc) == derivs_statistical(ref, sc)
            for m in scalar:
                assert zero_snr_derivs(m, sc) == zero_snr_derivs_scalar(m, sc)

    @pytest.mark.parametrize("strategy", _SPARSE_STRATEGIES)
    @pytest.mark.parametrize("model", ["iid2x2", "kron2x2", "fixed2x2"])
    def test_low_snr_eb_min_equals_sparse_sublinear(self, model, strategy):
        # E_b/N0_min = 1/C'(0) = ln2/E{q} is the sublinear sparse value:
        # both read one E{q} (statistical: one lambda_max of E{H^dag H}),
        # as 1/(E{q}/ln2) and as ln2/E{q}, two roundings apart
        model = (FixedMatrix(_H_FIXED) if model == "fixed2x2"
                 else _SPARSE_MODELS[model])
        strategy = (FixedCovariance(np.diag([0.7, 0.3]).astype(complex))
                    if strategy == "fixed" else _sparse_strategy(strategy, 2))
        n, seed = CHUNK + 123, 5
        d = _low_snr_derivs(model, strategy, scen(1.0, 2, 2), n, seed)
        eb = energy_metrics(d).eb_min_linear
        _, sublinear = sparse_ebmin(SparseWidebandConfig(m=5, p_over_n0=1e4),
                                    [], model, strategy, n, seed)
        assert abs(eb - sublinear) <= 2 * math.ulp(sublinear)

    def test_fixed_k_on_fixed_matrix_by_hand(self):
        # one draw's G = H K H^dag: C'(0) = q/ln2 and, with no spread in q,
        # C''(0) = -n_R r/ln2 at any theta
        k = [0.7, 0.3]
        h = _H_FIXED
        q = sum(k[j] * abs(h[a, j]) ** 2 for a in range(2) for j in range(2))
        r = sum(abs(sum(h[a, j] * k[j] * h[b, j].conjugate()
                        for j in range(2))) ** 2
                for a in range(2) for b in range(2))
        (m,) = zero_snr_moments(FixedMatrix(h),
                                [FixedCovariance(np.diag(k))], 2000, 0)
        for th in (0.0, 1.0, 8.0):
            d = zero_snr_derivs(m, scen(th, 2, 2))
            assert d.first_deriv == pytest.approx(q / LN2, rel=1e-14)
            assert d.second_deriv == pytest.approx(-2 * r / LN2, rel=1e-12)
            assert d.regime == "fixed"

    def test_fixed_k_matches_finite_differences(self):
        # the fixed-K derivatives against finite differences of the
        # fixed-K effective rate at SNR 1e-3 and 5e-4, with the bounds of
        # the low-SNR suite's checks: 2% first, 10% second
        model = IidComplexGaussian(2, 2)
        strategies = [FixedCovariance(np.diag(k).astype(complex))
                      for k in ((0.7, 0.3), (1.0, 0.0), (0.5, 0.5))]
        snr0, thetas = 1e-3, (0.5, 2.0)
        moments = zero_snr_moments(model, strategies, 1_000_000, 0)
        seconds = []
        for strategy, m in zip(strategies, moments):
            estimate = rate_estimator(model, strategy, 200_000, 0)
            scs = [scen(th, 2, 2) for th in thetas]
            rate = {("fixed", snr, th): e.value for snr in (snr0, snr0 / 2)
                    for th, e in zip(thetas, estimate(scs, snr))}
            for th, sc in zip(thetas, scs):
                d = zero_snr_derivs(m, sc)
                checks = _fd_checks("fixed", rate, d, snr0, th)
                assert all(c.passed for c in checks), checks
            seconds.append(zero_snr_derivs(m, scs[0]).second_deriv)
        # the second derivative follows K
        assert len(set(seconds)) == 3

    @pytest.mark.parametrize("strategy", ["uniform", "waterfilling",
                                          "beamforming", "fixed"])
    @pytest.mark.parametrize("model", sorted(_SPARSE_MODELS))
    def test_gains_bitwise_sparse_reference(self, model, strategy):
        # every sparse-wideband gain keeps the reference's expression, a
        # fixed K acting on the draws in their eigenbasis
        model = _SPARSE_MODELS[model]
        strategy = _sparse_strategy(strategy, model.n_t)
        n = CHUNK + 123
        want = list(_sparse_exponent_chunks(model, strategy, n, 4))
        chunks = list(iter_sample_chunks(model, n, 4))
        drawn = in_eigenbasis(model, strategy)
        assert len(chunks) == len(want) == 2
        for h, w in zip(chunks, want):
            assert np.array_equal(chunk_gains(h, drawn), w)
            assert np.array_equal(chunk_gains(h, drawn, squares=True)[0], w)

    @pytest.mark.parametrize("model", sorted(_SPARSE_MODELS))
    def test_moments_match_spectral_reference(self, model):
        # the moments of the uniform and the beamforming gain move from the
        # spectral reference's by rounding only: the trace is ||H||^2 where
        # it was the eigenvalue sum, and each chunk is summed pairwise where
        # the reference summed draw by draw. Each moment is within 1e-14
        # relative, and the second derivative's terms carry those moves
        model = _SPARSE_MODELS[model]
        n, n_t = CHUNK + 123, model.n_t
        ref = spectral_moments_mc(model, n, 4)
        mu, mb = zero_snr_moments(model, [UniformIdentity(),
                                          BeamformingCsit()], n, 4)
        for got, want in ((mu.e_q, ref.e_trace / n_t),
                          (mu.e_q_sq, ref.e_trace_sq / n_t ** 2),
                          (mu.e_r, ref.e_trace_gram_sq / n_t ** 2),
                          (mb.e_q, ref.e_lambda_max),
                          (mb.e_q_sq, ref.e_lambda_max_sq),
                          (mb.e_r, ref.e_lambda_max_sq)):
            assert abs(got - want) <= 1e-14 * want
        for th in (0.01, 0.5, 2.0, 8.0):
            sc = scen(th, model.n_r, n_t)
            for m, want in ((mu, derivs_uniform(ref, sc)),
                            (mb, derivs_csit(ref, sc))):
                d = zero_snr_derivs(m, sc)
                assert d.regime == want.regime
                assert abs(d.first_deriv - want.first_deriv) \
                    <= 1e-14 * want.first_deriv
                terms = (sc.theta_tb * sc.n_r / LN2 ** 2
                         * (m.e_q ** 2 + m.e_q_sq) + sc.n_r / LN2 * m.e_r)
                assert abs(d.second_deriv - want.second_deriv) \
                    <= 3e-14 * terms


class TestSparseWideband:
    def cfg(self, m=5, p=1e4):
        return SparseWidebandConfig(m=m, p_over_n0=p)

    @pytest.mark.parametrize("strategy", _SPARSE_STRATEGIES)
    @pytest.mark.parametrize("model", sorted(_SPARSE_MODELS))
    def test_one_pass_matches_per_scenario_oracles(self, model, strategy):
        # sparse_ebmin's one pass against the two per-scenario functions it
        # replaced, one pass each, on two chunks. The sublinear value keeps
        # its bits. A bounded value is rho / d, d = -log E{exp(-rho q/ln2)};
        # its exponents are now -(rho/ln2) q, not -rho q / ln2, so d moves
        # by rounding: relative where d >= 1, and absolute below, where d is
        # the log of a mean near 1 and carries that mean's absolute error
        model = _SPARSE_MODELS[model]
        strategy = _sparse_strategy(strategy, model.n_t)
        cfg = SparseWidebandConfig(m=2, p_over_n0=1e5)
        n = CHUNK + 123
        scenarios = [scen(th, model.n_r, model.n_t)
                     for th in (0.01, 0.5, 2.0, 8.0)]
        bounded, sublinear = sparse_ebmin(cfg, scenarios, model, strategy,
                                          n, 4)
        ref = sparse_ebmin_sublinear(model, strategy, n, 4)[0]
        statistical = isinstance(strategy, StatisticalOptimized)
        if statistical:
            # lambda_max of the exact E{H^dag H} is the model's first
            # eigenvalue, as the low-SNR derivatives read it; the reference
            # takes eigvalsh of the exact mean, which agrees to rounding
            lam = float(model.mean_gram_eig[0][0])
            assert sublinear == LN2 / lam
            assert abs(sublinear - ref) <= 1e-14 * ref
            # the per-direction gains |H u_i|^2 of the draws, over whose
            # mixtures the bounded values are optimized
            gains = np.concatenate([(np.abs(h) ** 2).sum(axis=1) for h in
                                    iter_sample_chunks(model, n, 4)])
            se = gains.std(axis=0).max() / math.sqrt(n)
        else:
            assert sublinear == ref
        assert len(bounded) == len(scenarios)
        for eb, sc in zip(bounded, scenarios):
            ref = sparse_ebmin_bounded(cfg, sc, model, strategy, n, 4)[0]
            rho = sc.theta * sc.t * cfg.p_over_n0 / cfg.m
            assert abs(rho / eb - rho / ref) <= 4e-16 * max(1.0, rho / ref)
            if not statistical:
                # Jensen on the same draws: -log E{exp(-a q)} < a E{q}
                assert eb > sublinear
                continue
            # eb is Monte Carlo and sublinear the exact ln2 / lambda_max, so
            # on 1x1 eb > sublinear held on only 128 of seeds 0-199. Jensen
            # on the same draws bounds eb by ln2 over the mean of the gain
            # q = gains.p of the mixture p it chose, on every seed; the
            # optimizer is deterministic, so a second run gives that p
            p, best, _ = simplex_maximize(_sparse_objective(gains, rho),
                                          np.full(model.n_t, 1.0 / model.n_t))
            assert eb == rho / best
            assert eb > LN2 / (gains @ p).mean()
            # and a one-sided z-test against the exact value: ln2/eb is below
            # that mean, at most the largest per-direction mean, and each
            # direction's mean is at most lambda_max in
            # expectation with standard error at most se, so z > 4 has
            # probability at most n_T * 3.2e-5 (normal approximation), and
            # 2.5e-4 over the four models (n_T 1, 2, 3 and 2)
            assert (LN2 / eb - lam) / se <= 4.0

    def test_deterministic_channel_any_theta(self):
        # q = 1 deterministic: E_b = rho/( -ln e^{-rho/ln2}) = ln2 always
        model = FixedMatrix(np.array([[1.0 + 0j]]))
        ebs, _ = sparse_ebmin(self.cfg(), [scen(th) for th in (0.1, 1.0, 5.0)],
                              model, UniformIdentity(), 1000, 0)
        assert len(ebs) == 3
        for eb in ebs:
            assert abs(eb - LN2) < 1e-12
            assert abs(10 * math.log10(eb) - 10 * math.log10(LN2)) < 1e-12

    def test_iid_2x2_frozen_oracle(self):
        # choose (theta, m, P/N0) so that rho = theta*T*P/(m N0) = 1
        sc = QosScenario(theta=1.0, t=1e-3, b=1e5, n_r=2, n_t=2)
        cfg = self.cfg(m=10, p=1e4)
        assert abs(sc.theta * sc.t * cfg.p_over_n0 / cfg.m - 1.0) < 1e-12
        (eb,), _ = sparse_ebmin(cfg, [sc], IidComplexGaussian(2, 2),
                                UniformIdentity(), 400_000, 2)
        assert abs(eb - SPARSE_2X2_RHO1) < 0.01 * SPARSE_2X2_RHO1

    def test_theta_to_zero_recovers_mean_limit(self):
        model = IidComplexGaussian(2, 2)
        (eb,), eb_lim = sparse_ebmin(self.cfg(m=100), [scen(1e-4, 2, 2)],
                                     model, UniformIdentity(), 100_000, 0)
        assert abs(eb - eb_lim) < 1e-3 * eb_lim

    def test_monotone_in_theta(self):
        model = IidComplexGaussian(2, 2)
        ebs, _ = sparse_ebmin(self.cfg(),
                              [scen(th, 2, 2) for th in (0.1, 0.5, 1.0, 2.0)],
                              model, UniformIdentity(), 50_000, 0)
        assert all(a < b for a, b in zip(ebs, ebs[1:]))

    def test_bounded_exceeds_sublinear(self):
        model = IidComplexGaussian(2, 3)
        (eb_b,), eb_s = sparse_ebmin(self.cfg(), [scen(1.0, 2, 3)], model,
                                     UniformIdentity(), 50_000, 0)
        assert eb_b > eb_s

    def test_sublinear_statistical_iid_exact(self):
        # lambda_max(E{H^dag H}) = n_R exactly for the i.i.d. model
        for n_r, n_t in [(2, 2), (3, 2)]:
            model = IidComplexGaussian(n_r, n_t)
            _, eb = sparse_ebmin(self.cfg(), [], model, StatisticalOptimized(),
                                 1000, 0)
            assert eb == LN2 / n_r
            assert abs(10 * math.log10(eb) - 10 * math.log10(LN2 / n_r)) \
                < 1e-12

    def test_sublinear_deterministic_siso(self):
        _, eb = sparse_ebmin(self.cfg(), [],
                             FixedMatrix(np.array([[1.0 + 0j]])),
                             UniformIdentity(), 1000, 0)
        assert abs(eb - LN2) < 1e-12

    def test_statistical_bounded_beats_uniform_when_correlated(self):
        r_t = np.diag([1.6, 0.4]).astype(complex)
        model = KroneckerCorrelated(np.eye(2, dtype=complex), r_t)
        sc = scen(1.0, 2, 2)
        (eb_s,), _ = sparse_ebmin(self.cfg(), [sc], model,
                                  StatisticalOptimized(), 50_000, 0)
        (eb_u,), _ = sparse_ebmin(self.cfg(), [sc], model,
                                  UniformIdentity(), 50_000, 0)
        assert eb_s <= eb_u * (1.0 + 1e-6)

    def test_statistical_objective_and_gradient(self):
        # on the draws, which come in the eigenbasis U of E{H^dag H}, the
        # objective at p is -log E{exp(-rho q / ln2)} for
        # K = U diag(p) U^dagger, and its exact gradient matches central
        # differences
        lag = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        model = KroneckerCorrelated(np.eye(2, dtype=complex), 0.5 ** lag)
        sc, cfg = scen(1.0, 2, 3), self.cfg(m=1, p=1.5e5)
        rho = sc.theta * sc.t * cfg.p_over_n0 / cfg.m
        gains = np.concatenate([(np.abs(h) ** 2).sum(axis=1)
                                for h in iter_sample_chunks(model, 5000, 0)])
        fg = _sparse_objective(gains, rho)
        p = np.array([0.5, 0.3, 0.2])
        f, grad = fg(p)
        u = model.mean_gram_eig[1]
        (eb,), _ = sparse_ebmin(cfg, [sc], model,
                                FixedCovariance((u * p) @ u.conj().T), 5000,
                                0)
        assert rho / f == pytest.approx(eb, rel=1e-12)
        fd = central_gradient(lambda x: fg(x)[0], p)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))

    def test_zero_channel_raises_numeric(self):
        model = FixedMatrix(np.zeros((1, 1), dtype=complex))
        with pytest.raises(NumericError):
            sparse_ebmin(self.cfg(), [scen(1.0)], model, UniformIdentity(),
                         1000, 0)

    @pytest.mark.parametrize("strategy", [UniformIdentity(),
                                          StatisticalOptimized()])
    def test_zero_channel_bounded_then_sublinear_refused(self, strategy):
        # a bounded value is refused before the sublinear one; statistical
        # once divided by the zero decay and died with ZeroDivisionError
        model = FixedMatrix(np.zeros((1, 1), dtype=complex))
        with pytest.raises(NumericError, match="did not decay"):
            sparse_ebmin(self.cfg(), [scen(1.0)], model, strategy, 1000, 0)
        with pytest.raises(DomainError, match="zero mean gain"):
            sparse_ebmin(self.cfg(), [], model, strategy, 1000, 0)

    def test_zero_theta_refused(self):
        with pytest.raises(DomainError, match="theta > 0"):
            sparse_ebmin(self.cfg(), [scen(1.0), scen(0.0)],
                         IidComplexGaussian(1, 1), UniformIdentity(), 1000, 0)

    def test_config_validated(self):
        with pytest.raises(DomainError):
            SparseWidebandConfig(m=0, p_over_n0=1.0)
        with pytest.raises(DomainError):
            SparseWidebandConfig(m=1, p_over_n0=0.0)

    @pytest.mark.parametrize("m,p", [(2.5, 1e4), ("5", 1e4), (5, math.nan),
                                     (5, math.inf)])
    def test_non_integer_m_and_non_finite_power_refused(self, m, p):
        with pytest.raises(DomainError):
            SparseWidebandConfig(m=m, p_over_n0=p)


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

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    @pytest.mark.parametrize("theta_hat", [0.01, 0.5, 1.5, 8.0, 30.0])
    @pytest.mark.parametrize("n_r,n_t", [(1, 1), (2, 2), (2, 5), (5, 2),
                                         (3, 3), (4, 4), (6, 6), (1, 61)])
    def test_bitwise_equal_to_rebuilt_lattice(self, n_r, n_t, theta_hat,
                                              order):
        # the shared node table and the in-place rows keep the bits of the
        # rule that rebuilt its lattice per call, in either SNR order, and
        # its refusals: 3x3 to 6x6 at theta_hat 8 and 30 and SNR 1e300
        # have a determinant that is not positive
        snrs = [1e-6, 1e-2, 1.0, 1e3, 1e8, 1e12, 1e300]
        if order == "descending":
            snrs.reverse()
        sc = scen(theta_hat, n_r, n_t)
        for snr in snrs:
            try:
                want = hankel_log_mgf_rebuilt(sc, snr)
            except NumericError as exc:
                with pytest.raises(NumericError, match=re.escape(str(exc))):
                    asymptotics._hankel_log_mgf(sc, snr)
                continue
            assert asymptotics._hankel_log_mgf(sc, snr) == want, snr

    def test_reference_json_within_1e12(self):
        # every point of the benchmark's hankel workload against its mpmath
        # oracle; SNRs as the workload forms them from dB
        with open(REFERENCE_JSON, encoding="utf-8") as fh:
            rows = json.load(fh)["hankel"]
        assert len(rows) == 260
        worst = 0.0
        for n_r, n_t, theta_hat, snr_db, want in rows:
            got = hankel_effective_rate(scen(theta_hat, n_r, n_t),
                                        10.0 ** (snr_db / 10.0))
            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-12, worst

    @pytest.mark.parametrize("n_r,n_t,snr", [(2, 1, 1e308), (1, 2, 5e-324)])
    def test_unusable_c_refused(self, n_r, n_t, snr):
        # c = (n_R/n_T) snr overflows to inf or underflows to 0 for a
        # finite snr > 0: the rule has no first node for it
        with pytest.raises(DomainError, match="c = "):
            hankel_effective_rate(scen(1.0, n_r, n_t), snr)

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
