"""Low-SNR derivatives, energy-efficiency metrics, sparse-wideband minimum
bit energies, and high-SNR slope / power-offset computations.

The low-SNR derivatives and the sparse-wideband bit energies read one
per-draw zero-SNR gain (`engine.chunk_gains`).
The high-SNR path evaluates the Hankel-matrix MGF of the i.i.d. Rayleigh
log-det rate; all 2k - 1 distinct entries come from one trapezoidal rule in
t = ln z on one read-only node table, to about 1e-13 relative, the one
place a Hankel entry is evaluated; shapes whose top entry order
n_R + n_T - 2 exceeds 60 are refused. The slope S_inf is exact in every band;
the power offset L_inf is exact (complex-Wishart determinant moments) below
the reduced-slope band theta_hat >= max - min + 1 and NaN in it.

The module `__getattr__` at the end exists only for the benchmark tracer.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (ChannelModel, IidComplexGaussian, iter_sample_chunks,
                       max_eig_multiplicity)
from .engine import (CovarianceStrategy, BeamformingCsit, FixedCovariance,
                     QosScenario, StatisticalOptimized, UniformIdentity,
                     WaterfillingCsit, _LogMeanExp, _estimate, check_shape,
                     chunk_gains, in_eigenbasis, simplex_maximize, LN2)
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

@dataclass(frozen=True)
class ZeroSnrMoments:
    """E{q}, E{q^2} and E{r} of a strategy's per-draw gains q = tr G and
    r = tr G^2 (`engine.chunk_gains`), all that its zero-SNR derivatives
    read, their regime label, and, if sampled, each field's std error.

    For statistical CSI, K = U diag(p) U^dagger with U a basis of the
    maximal eigenspace of E{H^dagger H}, of multiplicity l: E{q} is the
    exact largest eigenvalue for every p, and E{q^2} and E{r} are the l x l
    matrices E{M_ii M_jj} and E{|M_ij|^2}, M = U^dagger H^dagger H U, whose
    quadratic forms in p are K's E{q^2} and E{r}; a scalar is the l = 1
    case."""

    e_q: float
    e_q_sq: float | np.ndarray
    e_r: float | np.ndarray
    regime: str
    std_errs: dict | None = None


_REGIMES = {UniformIdentity: "uniform", WaterfillingCsit: "csit",
            BeamformingCsit: "csit", FixedCovariance: "fixed",
            StatisticalOptimized: "statistical"}


def _chunk_sums(h: np.ndarray, strategy: CovarianceStrategy, l: int):
    """One chunk's sums for `zero_snr_moments`: of (q, q^2, r) and of their
    squares, or for statistical CSI of M_ii M_jj and |M_ij|^2, M = C^dagger
    C for C the first l columns of each draw, which come in the eigenbasis
    of E{H^dagger H}, descending, and so span its maximal eigenspace."""
    if isinstance(strategy, StatisticalOptimized):
        c = h[:, :, :l]
        m = c.conj().transpose(0, 2, 1) @ c
        diag = np.real(np.einsum("nii->ni", m))
        return (np.einsum("ni,nj->ij", diag, diag),
                np.einsum("nij,nij->ij", m, m.conj()).real)
    q, r = chunk_gains(h, strategy, squares=True)
    stats = np.stack([q, q * q, r])
    return stats.sum(axis=1), (stats * stats).sum(axis=1)


def zero_snr_moments(model: ChannelModel, strategies, n_samples: int,
                     seed: int) -> list:
    """Monte Carlo `ZeroSnrMoments` of each strategy, all from one pass of
    draws; a gain, or a square behind a standard error, that overflows or
    is NaN raises NumericError. Statistical CSI's E{q} is exact, and its
    matrices carry no standard errors."""
    if n_samples < 1000:
        raise DomainError("zero_snr_moments needs n_samples >= 1000")
    stat = [isinstance(s, StatisticalOptimized) for s in strategies]
    w = model.mean_gram_eig[0]
    l = max_eig_multiplicity(w) if any(stat) else 0
    drawn = [in_eigenbasis(model, strategy) for strategy in strategies]
    sums = [np.zeros((2, l, l) if st else (2, 3)) for st in stat]
    with np.errstate(over="ignore", invalid="ignore"):
        for h in iter_sample_chunks(model, n_samples, seed):
            for strategy, acc in zip(drawn, sums):
                acc += _chunk_sums(h, strategy, l)
        # both statistical sums are moments; a scalar strategy's second
        # row holds the squares behind its standard errors
        moments = [acc if st else acc[0] for acc, st in zip(sums, stat)]
        if not all(np.isfinite(m).all() for m in moments):
            raise NumericError(f"per-draw gain not finite: sums "
                               f"{[m.tolist() for m in moments]}")
        squares = [acc[1] for acc, st in zip(sums, stat) if not st]
        if not all(np.isfinite(sq).all() for sq in squares):
            raise NumericError(f"per-draw gain not finite in the squares "
                               f"behind its standard error: sums of "
                               f"squares {[sq.tolist() for sq in squares]}")
        records = []
        for strategy, acc, st in zip(strategies, sums, stat):
            means = acc / n_samples
            regime = _REGIMES[type(strategy)]
            if st:
                records.append(ZeroSnrMoments(float(w[0]), *means, regime))
            else:
                se = np.sqrt(np.maximum(means[1] - means[0] ** 2, 0.0)
                             / n_samples)
                records.append(ZeroSnrMoments(
                    *means[0].tolist(), regime,
                    dict(zip(("e_q", "e_q_sq", "e_r"), se.tolist()))))
    return records


def _quadratic_objective(q: np.ndarray):
    """fg(a) = (-a^T Q a, -2 Q a) for symmetric Q; its simplex maximum is
    minus the minimum of a^T Q a."""
    return lambda a: (-float(a @ q @ a), -2.0 * (q @ a))


def zero_snr_derivs(moments: ZeroSnrMoments,
                    scenario: QosScenario) -> LowSnrDerivatives:
    """First and second derivative of the effective rate per receive
    dimension at SNR = 0: C'(0) = E{q}/ln2 and
    C''(0) = c1 (E{q}^2 - E{q^2}) - c2 E{r}, c1 = theta T B n_R/ln2^2 and
    c2 = n_R/ln2. E{q^2} and E{r} are read as l x l matrices A and B
    (`ZeroSnrMoments`) at the p on the simplex that minimizes
    p^T (c1 A + c2 B) p, the power spread that maximizes C''(0); a scalar
    is the l = 1 case, p = [1]. A weighted form that overflows raises
    NumericError."""
    c1 = scenario.theta_tb * scenario.n_r / LN2 ** 2
    c2 = scenario.n_r / LN2
    a, b = np.atleast_2d(moments.e_q_sq), np.atleast_2d(moments.e_r)
    with np.errstate(over="ignore", invalid="ignore"):
        form = c1 * a + c2 * b
    if not np.isfinite(form).all():
        raise NumericError(f"second derivative not finite: theta*T*B = "
                           f"{scenario.theta_tb:g} weights E{{q^2}} = "
                           f"{a.tolist()} and E{{r}} = {b.tolist()}")
    p, _, _ = simplex_maximize(_quadratic_objective(form),
                               np.full(len(a), 1.0 / len(a)))
    e_q = moments.e_q
    second = (c1 * (e_q ** 2 - float(p @ a @ p)) - c2 * float(p @ b @ p))
    return LowSnrDerivatives(e_q / LN2, second, moments.regime)


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

def _sparse_objective(gains: np.ndarray, rho: float):
    """fg(p) of -log E{exp(-rho/ln2 * gains.p)} over per-sample,
    per-direction gains; the exponent is linear in p, so its gradient is
    -rho/ln2 * gains."""
    def fg(p):
        acc = _LogMeanExp()
        acc.add(-rho / LN2 * (gains @ p), -rho / LN2 * gains)
        return -acc.log_mean(), -acc.d_log_mean()
    return fg


def sparse_ebmin(config: SparseWidebandConfig, scenarios,
                 model: ChannelModel, strategy: CovarianceStrategy,
                 n_samples: int, seed: int):
    """(bounded E_b/N0 of each scenario, sublinear E_b/N0), linear, from
    one pass of draws.

    With rho = theta*T*P/(m*N0) and q the strategy's per-draw zero-SNR
    gain (`engine.chunk_gains`), the bounded-subchannel value is
    rho / (-log E{exp(-rho*q/ln2)}) and the sublinear-growth (m -> inf)
    value ln2 / E{q}: the effective reading of q at theta*T*B = rho/ln2
    and its ergodic reading, both taken by `engine._estimate`.
    StatisticalOptimized minimizes each bounded value over K in the
    eigenbasis of the exact E{H^dagger H}, the basis of the draws, whose
    largest eigenvalue sets its sublinear value.
    """
    rhos = []
    for sc in scenarios:
        if sc.theta <= 0:
            raise DomainError("sparse_ebmin requires theta > 0")
        rhos.append(sc.theta * sc.t * config.p_over_n0 / config.m)
    if isinstance(strategy, StatisticalOptimized):
        # as `zero_snr_moments` reads it
        mean_gain = float(model.mean_gram_eig[0][0])
        if not math.isfinite(mean_gain):
            raise NumericError(f"largest eigenvalue of E{{H^dagger H}} not "
                               f"finite: {mean_gain}")
        if rhos:  # with none, nothing is drawn
            # per-sample per-direction gains |H u_i|^2, u_i the columns of
            # the drawn basis
            gains = np.concatenate(
                [(np.abs(h) ** 2).sum(axis=1)
                 for h in iter_sample_chunks(model, n_samples, seed)])
        p0 = np.full(model.n_t, 1.0 / model.n_t)
        ratios = [(rho, simplex_maximize(_sparse_objective(gains, rho), p0)[1])
                  for rho in rhos]
    else:
        drawn = in_eigenbasis(model, strategy)
        *effective, ergodic = _estimate(
            [rho / LN2 for rho in rhos] + [0.0], 1,
            (chunk_gains(h, drawn)
             for h in iter_sample_chunks(model, n_samples, seed)),
            n_samples, what="gain")
        ratios = [(LN2, est.value) for est in effective]
        mean_gain = ergodic.value
    # each bounded value is num / den: rho over -log E{exp(-rho q / ln2)},
    # or ln2 over the effective reading, which is that log times ln2 / rho
    for rho, (_, den) in zip(rhos, ratios):
        if not den > 0:
            raise NumericError(f"MGF mean did not decay at rho = {rho:g}")
    if not mean_gain > 0:
        raise DomainError("degenerate channel: zero mean gain")
    return [num / den for num, den in ratios], LN2 / mean_gain


# ---------------------------------------------------------------------------
# high-SNR Hankel MGF

# step and upper end of the trapezoidal rule in t = ln z, and the highest
# order p it resolves: against mpmath over theta_hat 0.01-30 and c
# 1e-6-1e12 the worst relative error is 1.1e-13 for p <= 55, 8.5e-13 at
# p = 60 and 1.3e-12 at p = 61, rising to 2e-3 at p = 300. This bounds the
# entries only: the Hankel determinant of a large shape can lose more digits
# to conditioning. At theta_hat = 8 and SNR 1e8, against mpmath at 400
# digits, 6x6 is off by 1.6e-10, 7x7 raises NumericError, and 8x8 to 10x10
# are off by 0.70-0.88% with no error raised (ROADMAP item 1). The nodes
# t = step * i for integer i (np.arange with a float step drifts from them
# by about 1e-13 relative, a bias on every entry) and exp(t) are one
# read-only table, and each call reads its tail from the call's first node.
# That node falls as c grows, and _hankel_log_mgf refuses any c that is not
# finite and > 0, so the first node of the largest finite c,
# _LOG_Z_LO_MIN = -7,498, bounds the table: 7,566 nodes, 60 KB per array
_LOG_Z_STEP = 0.1
_LOG_Z_MAX = math.log(800.0)
_HANKEL_MAX_ORDER = 60


def _first_node(c: float) -> int:
    """Index i of the rule's first node t = i * step for c: 40 e-folds
    below the smaller of z = 1 and the corner z = 1/c."""
    return math.floor((-math.log(max(c, 1.0)) - 40.0) / _LOG_Z_STEP)


_LOG_Z_LO_MIN = _first_node(sys.float_info.max)
_LOG_Z_NODES = _LOG_Z_STEP * np.arange(
    _LOG_Z_LO_MIN, math.ceil(_LOG_Z_MAX / _LOG_Z_STEP) + 1)
_EXP_LOG_Z_NODES = np.exp(_LOG_Z_NODES)
_LOG_Z_NODES.flags.writeable = False
_EXP_LOG_Z_NODES.flags.writeable = False


def _hankel_integrand_entry(theta_hat: float, orders, c: float) -> np.ndarray:
    """log g_p for each p in orders, where
    g_p = int_0^inf (1+c z)^{-theta_hat} z^p e^{-z} dz.

    Substituting z = e^t makes the integrand smooth on the whole line, with
    exponential decay as t -> -inf and doubly exponential decay as
    t -> +inf, so the plain trapezoidal rule converges geometrically
    (Trefethen & Weideman, SIAM Review 2014). The range starts 40 e-folds
    below the smaller of z = 1 and the corner z = 1/c.
    """
    first = _first_node(c) - _LOG_Z_LO_MIN
    t, exp_t = _LOG_Z_NODES[first:], _EXP_LOG_Z_NODES[first:]
    # -theta_hat * logaddexp(0, ln c + t) - exp(t), in one buffer
    shared = np.add(t, math.log(c))
    np.logaddexp(0.0, shared, out=shared)
    shared *= -theta_hat
    shared -= exp_t
    log_f = np.multiply.outer(np.asarray(orders, dtype=float) + 1.0, t)
    log_f += shared
    top = log_f.max(axis=1)
    log_f -= top[:, None]
    return top + np.log(_LOG_Z_STEP
                        * np.exp(log_f, out=log_f).sum(axis=1))


@functools.lru_cache(maxsize=None)
def _hankel_shape(d: int, k: int):
    """What a k x k Hankel matrix of offset d fixes: its entry orders
    d..d+2k-2, the index i + j that spreads them over the anti-diagonals,
    and log det(G)|_{theta=0} = sum_i lgamma(d+i) + lgamma(i). Called only
    for shapes within _HANKEL_MAX_ORDER, of which there are 961."""
    orders = np.arange(d, d + 2 * k - 1)
    anti_diagonal = np.add.outer(np.arange(k), np.arange(k))
    orders.flags.writeable = False
    anti_diagonal.flags.writeable = False
    log_norm = sum(math.lgamma(d + i) + math.lgamma(i)
                   for i in range(1, k + 1))
    return orders, anti_diagonal, log_norm


def _hankel_log_mgf(scenario: QosScenario, snr: float) -> float:
    if not (snr > 0 and math.isfinite(snr)):
        raise DomainError(f"hankel MGF requires finite snr > 0, got {snr}")
    th = scenario.theta_hat
    if th == 0:
        return 0.0
    k = min(scenario.n_r, scenario.n_t)
    d = abs(scenario.n_r - scenario.n_t)
    c = scenario.n_r / scenario.n_t * snr
    if not (c > 0 and math.isfinite(c)):
        raise DomainError(f"hankel MGF requires a finite c = (n_R/n_T) snr "
                          f"> 0, got c = {c}")
    if d + 2 * k - 2 > _HANKEL_MAX_ORDER:
        raise NumericError(
            f"Hankel entry order {d + 2 * k - 2} of {scenario.n_r}x"
            f"{scenario.n_t} exceeds {_HANKEL_MAX_ORDER}, the highest "
            f"order whose entries the trapezoidal grid resolves to 1e-12; "
            f"the bound is on entry order only, not on the determinant")
    orders, anti_diagonal, log_norm = _hankel_shape(d, k)
    # g[i, j] depends only on i + j: one call evaluates the 2k - 1 orders
    log_g = _hankel_integrand_entry(th, orders, c)
    if not np.isfinite(log_g).all():
        raise NumericError(f"hankel entry not finite for theta_hat={th}, "
                           f"c={c}")
    log_g = log_g[anti_diagonal]
    # factor out row scales so slogdet sees O(1) numbers
    scales = log_g.max(axis=1)
    log_g -= scales[:, None]
    sign, logdet = np.linalg.slogdet(np.exp(log_g, out=log_g))
    if sign <= 0:
        raise NumericError("Hankel MGF determinant not positive")
    # log_norm makes the MGF exactly 1 when theta = 0
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
