"""Low-SNR derivatives, energy-efficiency metrics, sparse-wideband minimum
bit energies, and high-SNR slope / power-offset computations.

The closed-form low-SNR results take Monte Carlo spectral moments as inputs.
The high-SNR path evaluates the Hankel-matrix MGF of the i.i.d. Rayleigh
log-det rate; all 2k - 1 distinct entries come from one trapezoidal rule in
t = ln z, to about 1e-13 relative, the one place a Hankel entry is
evaluated; shapes whose top entry order n_R + n_T - 2 exceeds 60 are
refused. The slope S_inf is exact in every band;
the power offset L_inf is exact (complex-Wishart determinant moments) below
the reduced-slope band theta_hat >= max - min + 1 and NaN in it.

The module `__getattr__` at the end exists only for the benchmark tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (ChannelModel, IidComplexGaussian, MomentEstimates,
                       hermitian_eig, iter_sample_chunks, iter_spectra,
                       max_eig_subspace, mean_gram, mean_gram_and_chunks)
from .engine import (CovarianceStrategy, BeamformingCsit, FixedCovariance,
                     QosScenario, StatisticalOptimized, UniformIdentity,
                     WaterfillingCsit, _LogMeanExp, check_shape,
                     simplex_maximize, LN2)
from .errors import DomainError, NumericError


@dataclass(frozen=True)
class LowSnrDerivatives:
    first_deriv: float
    second_deriv: float
    regime: str


@dataclass(frozen=True)
class EnergyMetrics:
    eb_min_linear: float
    eb_min_db: float
    wideband_slope_s0: float


@dataclass(frozen=True)
class HighSnrMetrics:
    s_inf: float
    l_inf: float
    regime_note: str


@dataclass(frozen=True)
class SparseWidebandConfig:
    m: int
    p_over_n0: float

    def __post_init__(self):
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 1):
            raise DomainError(f"SparseWidebandConfig requires an integer "
                              f"m >= 1, got {self.m!r}")
        if not 0 < self.p_over_n0 < math.inf:
            raise DomainError(f"SparseWidebandConfig requires a finite "
                              f"p_over_n0 > 0, got {self.p_over_n0!r}")


# ---------------------------------------------------------------------------
# low-SNR derivatives

def derivs_csit(moments: MomentEstimates,
                scenario: QosScenario) -> LowSnrDerivatives:
    """Derivatives at SNR=0 with per-realization channel knowledge."""
    e1 = moments.e_lambda_max
    e2 = moments.e_lambda_max_sq
    a = scenario.theta_tb
    n_r = scenario.n_r
    first = e1 / LN2
    second = a * n_r / LN2 ** 2 * (e1 ** 2 - e2) - n_r / LN2 * e2
    return LowSnrDerivatives(first, second, "csit")


def derivs_uniform(moments: MomentEstimates,
                   scenario: QosScenario) -> LowSnrDerivatives:
    """Derivatives at SNR=0 for K_x = I/n_T."""
    et = moments.e_trace
    et2 = moments.e_trace_sq
    eg2 = moments.e_trace_gram_sq
    a = scenario.theta_tb
    n_r, n_t = scenario.n_r, scenario.n_t
    first = et / (n_t * LN2)
    second = (a * n_r / (n_t ** 2 * LN2 ** 2) * (et ** 2 - et2)
              - n_r / (n_t ** 2 * LN2) * eg2)
    return LowSnrDerivatives(first, second, "uniform")


def _quadratic_objective(q: np.ndarray):
    """fg(a) = (-a^T Q a, -2 Q a) for symmetric Q; its simplex maximum is
    minus the minimum of a^T Q a."""
    return lambda a: (-float(a @ q @ a), -2.0 * (q @ a))


@dataclass(frozen=True)
class StatisticalMoments:
    """The theta-independent inputs of `derivs_statistical`: the largest
    eigenvalue of E{H^dagger H} and, for M = U^dagger H^dagger H U with U a
    basis of its maximal eigenspace, Monte Carlo E{M_ii M_jj} and
    E{|M_ij|^2}."""

    lambda_max: float
    e_diag_products: np.ndarray
    e_abs_sq: np.ndarray


def statistical_moments_mc(model: ChannelModel, n_samples: int,
                           seed: int) -> StatisticalMoments:
    """`StatisticalMoments` of model; one draw of each sample gives both
    E{H^dagger H} and the moments (`mean_gram_and_chunks`)."""
    g, chunks = mean_gram_and_chunks(model, n_samples, seed)
    summ = max_eig_subspace(g)
    l = summ.multiplicity_l
    u = summ.max_eig_basis
    a_sum = np.zeros((l, l))
    b_sum = np.zeros((l, l))
    n = 0
    for h in chunks:
        c = h @ u
        m = c.conj().transpose(0, 2, 1) @ c
        diag = np.real(np.einsum("nii->ni", m))
        a_sum += np.einsum("ni,nj->ij", diag, diag)
        b_sum += np.einsum("nij,nij->ij", m, m.conj()).real
        n += h.shape[0]
    return StatisticalMoments(summ.lambda_max, a_sum / n, b_sum / n)


def derivs_statistical(moments: StatisticalMoments,
                       scenario: QosScenario) -> LowSnrDerivatives:
    """Derivatives at SNR=0 when only E{H^dagger H} is known.

    The second derivative minimizes a quadratic form over the simplex of
    power fractions in the maximal-eigenvalue eigenspace of E{H^dagger H};
    only its weight c1 depends on theta.
    """
    lam = moments.lambda_max
    first = lam / LN2
    c1 = scenario.theta_tb * scenario.n_r / LN2 ** 2
    c2 = scenario.n_r / LN2
    q = c1 * moments.e_diag_products + c2 * moments.e_abs_sq
    l = len(q)
    _, neg_min, _ = simplex_maximize(_quadratic_objective(q),
                                     np.full(l, 1.0 / l))
    second = c1 * lam ** 2 + neg_min
    return LowSnrDerivatives(first, second, "statistical")


def energy_metrics(derivs: LowSnrDerivatives) -> EnergyMetrics:
    """Minimum bit energy and wideband slope from the zero-SNR derivatives."""
    if not derivs.first_deriv > 0:
        raise DomainError("energy_metrics requires first_deriv > 0")
    if not derivs.second_deriv < 0:
        raise DomainError("energy_metrics requires second_deriv < 0")
    eb = 1.0 / derivs.first_deriv
    s0 = 2.0 * derivs.first_deriv ** 2 / (-derivs.second_deriv) * LN2
    return EnergyMetrics(eb_min_linear=eb, eb_min_db=10.0 * math.log10(eb),
                         wideband_slope_s0=s0)


# ---------------------------------------------------------------------------
# sparse wideband

def _sparse_exponent_chunks(model, strategy, n_samples, seed):
    """Per-sample quantity whose scaled exponential MGF sets the bit energy."""
    if isinstance(strategy, (WaterfillingCsit, BeamformingCsit)):
        for ev in iter_spectra(model, n_samples, seed):
            yield ev[:, -1]
        return
    for h in iter_sample_chunks(model, n_samples, seed):
        if isinstance(strategy, UniformIdentity):
            yield (np.abs(h) ** 2).sum(axis=(1, 2)) / h.shape[2]
        elif isinstance(strategy, FixedCovariance):
            m = h @ strategy.k @ h.conj().transpose(0, 2, 1)
            yield np.real(np.einsum("nii->n", m))
        else:
            raise DomainError(f"unsupported strategy {strategy!r}")


def sparse_ebmin_bounded(config: SparseWidebandConfig, scenario: QosScenario,
                         model: ChannelModel, strategy: CovarianceStrategy,
                         n_samples: int, seed: int):
    """Bounded-subchannel minimum bit energy; returns (linear, dB).

    rho = theta*T*P/(m*N0); E_b/N0 = rho / (-log E{exp(-rho*q/ln2)}) with
    q the strategy-appropriate quadratic channel gain.
    """
    if scenario.theta <= 0:
        raise DomainError("sparse_ebmin_bounded requires theta > 0")
    rho = scenario.theta * scenario.t * config.p_over_n0 / config.m

    if isinstance(strategy, StatisticalOptimized):
        return _sparse_ebmin_statistical(model, rho, n_samples, seed)
    acc = _LogMeanExp()
    for q in _sparse_exponent_chunks(model, strategy, n_samples, seed):
        acc.add(-rho * q / LN2)
    denom = -acc.log_mean()
    if denom <= 0:
        raise NumericError(
            f"MGF mean did not decay; max exponent {acc.m}")
    eb = rho / denom
    return eb, 10.0 * math.log10(eb)


def _sparse_objective(gains: np.ndarray, rho: float):
    """fg(p) of -log E{exp(-rho/ln2 * gains.p)} over per-sample,
    per-direction gains; the exponent is linear in p, so its gradient is
    -rho/ln2 * gains."""
    def fg(p):
        acc = _LogMeanExp()
        acc.add(-rho / LN2 * (gains @ p), -rho / LN2 * gains)
        return -acc.log_mean(), -acc.d_log_mean()
    return fg


def _sparse_ebmin_statistical(model, rho, n_samples, seed):
    """Minimize the bounded-m bit energy over K in the E{H^dag H} eigenbasis."""
    g, chunks = mean_gram_and_chunks(model, n_samples, seed)
    _, u = hermitian_eig(g)
    # per-sample per-direction gains |H u_i|^2
    gains = np.concatenate([(np.abs(h @ u) ** 2).sum(axis=1) for h in chunks])
    _, best, _ = simplex_maximize(_sparse_objective(gains, rho),
                                  np.full(model.n_t, 1.0 / model.n_t))
    eb = rho / best
    return eb, 10.0 * math.log10(eb)


def sparse_ebmin_sublinear(model: ChannelModel,
                           strategy: CovarianceStrategy,
                           n_samples: int, seed: int):
    """Sublinear-growth (m -> inf) minimum bit energy; returns (linear, dB)."""
    if isinstance(strategy, StatisticalOptimized):
        lam = float(np.linalg.eigvalsh(mean_gram(model, n_samples, seed))[-1])
        denom = lam
    else:
        total = 0.0
        n = 0
        for q in _sparse_exponent_chunks(model, strategy, n_samples, seed):
            total += float(q.sum())
            n += len(q)
        denom = total / n
    if denom <= 0:
        raise DomainError("degenerate channel: zero mean gain")
    eb = LN2 / denom
    return eb, 10.0 * math.log10(eb)


# ---------------------------------------------------------------------------
# high-SNR Hankel MGF

# step and upper end of the trapezoidal rule in t = ln z, and the highest
# order p it resolves: against mpmath over theta_hat 0.01-30 and c
# 1e-6-1e12 the worst relative error is 1.1e-13 for p <= 55, 8.5e-13 at
# p = 60 and 1.3e-12 at p = 61, rising to 2e-3 at p = 300. This bounds the
# entries only: the Hankel determinant of a large shape can lose more digits
# to conditioning (7x7 is already off by about 4e-9)
_LOG_Z_STEP = 0.1
_LOG_Z_MAX = math.log(800.0)
_HANKEL_MAX_ORDER = 60


def _hankel_integrand_entry(theta_hat: float, orders, c: float) -> np.ndarray:
    """log g_p for each p in orders, where
    g_p = int_0^inf (1+c z)^{-theta_hat} z^p e^{-z} dz.

    Substituting z = e^t makes the integrand smooth on the whole line, with
    exponential decay as t -> -inf and doubly exponential decay as
    t -> +inf, so the plain trapezoidal rule converges geometrically
    (Trefethen & Weideman, SIAM Review 2014). The range starts 40 e-folds
    below the smaller of z = 1 and the corner z = 1/c.
    """
    # integer multiples of the step: np.arange with a float step drifts
    # from it by about 1e-13 relative, a bias on every entry
    lo = math.floor((-math.log(max(c, 1.0)) - 40.0) / _LOG_Z_STEP)
    t = _LOG_Z_STEP * np.arange(lo, math.ceil(_LOG_Z_MAX / _LOG_Z_STEP) + 1)
    shared = -theta_hat * np.logaddexp(0.0, math.log(c) + t) - np.exp(t)
    log_f = (np.asarray(orders, dtype=float)[:, None] + 1.0) * t + shared
    top = log_f.max(axis=1)
    return top + np.log(_LOG_Z_STEP
                        * np.exp(log_f - top[:, None]).sum(axis=1))


def _hankel_log_mgf(scenario: QosScenario, snr: float) -> float:
    if not (snr > 0 and math.isfinite(snr)):
        raise DomainError(f"hankel MGF requires finite snr > 0, got {snr}")
    th = scenario.theta_hat
    if th == 0:
        return 0.0
    k = min(scenario.n_r, scenario.n_t)
    d = abs(scenario.n_r - scenario.n_t)
    c = scenario.n_r / scenario.n_t * snr
    if d + 2 * k - 2 > _HANKEL_MAX_ORDER:
        raise NumericError(
            f"Hankel entry order {d + 2 * k - 2} of {scenario.n_r}x"
            f"{scenario.n_t} exceeds {_HANKEL_MAX_ORDER}, the highest "
            f"order whose entries the trapezoidal grid resolves to 1e-12; "
            f"the bound is on entry order only, not on the determinant")
    # g[i, j] depends only on i + j: one call evaluates the 2k - 1 orders
    log_g = _hankel_integrand_entry(th, np.arange(d, d + 2 * k - 1), c)
    if not np.all(np.isfinite(log_g)):
        raise NumericError(f"hankel entry not finite for theta_hat={th}, "
                           f"c={c}")
    log_g = log_g[np.add.outer(np.arange(k), np.arange(k))]
    # factor out row scales so slogdet sees O(1) numbers
    scales = log_g.max(axis=1)
    sign, logdet = np.linalg.slogdet(np.exp(log_g - scales[:, None]))
    if sign <= 0:
        raise NumericError("Hankel MGF determinant not positive")
    # normalization det(G)|_{theta=0} = prod_i Gamma(d+i)*Gamma(i), so the
    # MGF is exactly 1 when theta = 0
    log_norm = sum(math.lgamma(d + i) + math.lgamma(i)
                   for i in range(1, k + 1))
    return logdet + float(scales.sum()) - log_norm


def hankel_mgf(scenario: QosScenario, snr: float) -> float:
    """MGF E{exp(-theta*T*B*log2 det(I + (n_R/n_T) SNR H H^dag))}, i.i.d."""
    return math.exp(_hankel_log_mgf(scenario, snr))


def hankel_effective_rate(scenario: QosScenario, snr: float) -> float:
    """Effective rate in bits/s/Hz, unnormalized, from the Hankel MGF."""
    if scenario.theta <= 0:
        raise DomainError("hankel_effective_rate requires theta > 0")
    return -_hankel_log_mgf(scenario, snr) / scenario.theta_tb


# ---------------------------------------------------------------------------
# high-SNR slope and power offset

def highsnr_slope_empirical(rate_points) -> float:
    """Least-squares slope of rate against log2(SNR)."""
    pts = sorted(rate_points)
    if len(pts) < 4:
        raise DomainError("need at least 4 rate points")
    snrs = np.array([p[0] for p in pts])
    rates = np.array([p[1] for p in pts])
    if snrs[0] < 1e3:
        raise DomainError("slope regression requires snr >= 1e3")
    if snrs[-1] / snrs[0] < 100.0:
        raise DomainError("rate points must span at least 20 dB")
    x = np.log2(snrs)
    slope, _ = np.polyfit(x, rates, 1)
    return float(slope)


def highsnr_metrics(scenario: QosScenario,
                    model: ChannelModel) -> HighSnrMetrics:
    """High-SNR slope and power offset for the i.i.d. Gaussian model.

    The slope is exact in every band. Below the reduced-slope band
    (theta_hat < max - min + 1) the offset is exact too, from the
    determinant moments of the complex Wishart matrix W (Goodman 1963;
    Tulino & Verdu 2004): E{ln det W} = sum_i psi(max-i+1) and
    E{det W^-theta_hat} = prod_i Gamma(max-i+1-theta_hat)/Gamma(max-i+1).
    In the band the offset is NaN.
    """
    if not isinstance(model, IidComplexGaussian):
        raise DomainError("highsnr_metrics requires the i.i.d. Gaussian model")
    check_shape(scenario, model)
    n_r, n_t = scenario.n_r, scenario.n_t
    mn, mx = min(n_r, n_t), max(n_r, n_t)
    th = scenario.theta_hat
    # the Wishart degrees max - i + 1 of the moments above, i = 1..min
    dof = range(mx - mn + 1, mx + 1)

    if th == 0:
        # imported here so that `import effcap` does not load SciPy
        from scipy.special import digamma
        e_ln_det = float(sum(digamma(k) for k in dof))
        l_inf = math.log2(n_t / n_r) - e_ln_det / (mn * LN2)
        return HighSnrMetrics(float(mn), l_inf, "ergodic (theta = 0)")

    if th < mx - mn + 1:
        ln_moment = sum(math.lgamma(k - th) - math.lgamma(k) for k in dof)
        l_inf = math.log2(n_t / n_r) + ln_moment / (scenario.theta_tb * mn)
        return HighSnrMetrics(float(mn), l_inf,
                              "full slope (theta_hat < max - min + 1)")

    # E{det(I + cW)^{-theta_hat}} decays as c^{-sum_i min(theta_hat,
    # 2i-1+d)}: the outage exponent of Zheng & Tse (IEEE TIT 2003)
    d = mx - mn
    s_inf = sum(min(th, 2 * i - 1 + d) for i in range(1, mn + 1)) / th
    return HighSnrMetrics(s_inf, math.nan,
                          "reduced slope (theta_hat >= max - min + 1)")


def __getattr__(name):
    """`asymptotics.integrate`, loaded on first access (PEP 562). Nothing in
    effcap reads it; it exists only because perfbench/tracing.py patches
    `asymptotics.integrate.quad`, and goes with `special.py` once the tracer
    stops doing so (ROADMAP item 3)."""
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
