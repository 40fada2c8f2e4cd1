"""Reference implementations the tests compare against.

The library evaluates rates in batches over chunks of spectra; the scalar
one-matrix versions here are their references. The incomplete Gamma
function, the two-variable quadratic minimum and the confluent
hypergeometric form of a Hankel entry (with its Gamma and 1F1 helpers) are
closed forms that no library code needs. The Hankel entries and log-MGF
use mpmath's Tricomi U function at 40 digits, imported only when called;
the per-pair Hankel log-MGF is the loop the library's one call for all
orders must reproduce exactly, and the rebuilt Hankel entry and log-MGF,
which build their node lattice and shape constants on every call, are the
forms whose bits the library's shared node table and in-place rows keep.
`hermitian_eig`, the descending eigenpairs of a Hermitian matrix, checks
the model eigenbases that the library takes from `mean_gram_eig`. The
statistical optimizer's objective has
two references: the LU form, a batched `slogdet` and a batched `solve` on
rotated grams, and the same sums per draw in 40-digit mpmath, which stands
in at high SNR, where the LU form loses digits. The Kronecker draw has two
references, both from the G of the two-draw complex Gaussian formula, the
sampler's reference: R_r^{1/2} G R_t^{1/2} by one einsum of the Hermitian
square roots, the definition of the law that the sampler's draws must
follow, and U_r (L_r^{1/2} o G o L_t^{1/2}) U_t^dagger by one einsum of
the eigendecompositions, whose bits the sampler's public draws keep. The
queue trace writer is the
one-`csv.writer`-row-per-block version whose bytes the blocked library
writer must reproduce. The gram spectra are those of the exact gram
of the float entries, from mpmath's Hermitian eigensolver at 50 digits,
the reference of the library's closed form for two eigenvalues. The
zero-rate bit-energy intercept reads the minimum E_b/N0 off a figure curve
for the acceptance checks. The sparse-wideband minimum bit energies are
the two per-scenario functions that `sparse_ebmin` replaced, one pass of
draws each, with the exact E{H^dagger H} their sublinear value reads and
the per-draw gains `_sparse_exponent_chunks` that both read, whose bits
`engine.chunk_gains` keeps (a fixed K acting on the draws in their
eigenbasis, as `engine.in_eigenbasis` forms it). The zero-SNR
derivatives of the uniform and
the per-realization-CSI strategies are the spectral-moment estimator
`spectral_moments_mc`, with its `MomentEstimates`, and the two formulas
`derivs_uniform` and `derivs_csit` that `zero_snr_moments` and
`zero_snr_derivs` replaced. Statistical CSI's zero-SNR derivatives are
`statistical_moments_mc`, with its `StatisticalMoments`, and
`derivs_statistical`, the pass and the formula that became one more
strategy of `zero_snr_moments` and `zero_snr_derivs`; the closed formula
for scalar moments, `zero_snr_derivs_scalar`, is the one `zero_snr_derivs`
was before it read them as 1 x 1 matrices. The optimizer's two-plane bound
has the linear program it is the dual of, solved by
`scipy.optimize.linprog`.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy import special as sps

from effcap.asymptotics import (_HANKEL_MAX_ORDER, _LOG_Z_MAX, _LOG_Z_STEP,
                                LowSnrDerivatives, SparseWidebandConfig,
                                ZeroSnrMoments, _hankel_integrand_entry,
                                _quadratic_objective, _sparse_objective)
from effcap.channels import (_HERMITICITY_TOL, ChannelModel,
                             KroneckerCorrelated,
                             iter_sample_chunks, iter_spectra,
                             max_eig_multiplicity, sum_columns)
from effcap.engine import (LN2, BeamformingCsit, CovarianceStrategy,
                           EffCapEstimate, FixedCovariance, QosScenario,
                           StatisticalOptimized, UniformIdentity,
                           WaterfillingCsit, _LogMeanExp, in_eigenbasis,
                           simplex_maximize)
from effcap.errors import ConfigError, DomainError, NumericError


def log_det_rate(h: np.ndarray, k: np.ndarray, snr: float, n_r: int) -> float:
    """log2 det(I + n_R*snr*H K H^dag) in bits/s/Hz, via PSD eigenvalues."""
    if snr < 0:
        raise DomainError("log_det_rate requires snr >= 0")
    if snr == 0:
        return 0.0
    m = h @ k @ h.conj().T
    ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(np.log2(1.0 + n_r * snr * np.clip(ev.real, 0.0, None)).sum())


def waterfill(gram_eigs: np.ndarray, gain: float):
    """Water-filling fractions d_i maximizing sum log(1 + gain*eig_i*d_i).

    Returns (d, degenerate). An all-zero spectrum yields the uniform
    allocation with degenerate=True.
    """
    eigs = np.asarray(gram_eigs, dtype=float)
    if gain <= 0:
        raise DomainError("waterfill requires gain > 0")
    k = len(eigs)
    if np.all(eigs <= 0):
        return np.full(k, 1.0 / k), True
    order = np.argsort(eigs)[::-1]
    lam = eigs[order]
    pos = lam > 0
    inv = np.where(pos, 1.0 / (gain * np.where(pos, lam, 1.0)), np.inf)
    cums = np.cumsum(np.where(pos, inv, 0.0))
    counts = np.arange(1, k + 1)
    mu = (1.0 + cums) / counts
    active = int(np.sum(mu > inv))
    mu_star = (1.0 + cums[active - 1]) / active
    d_sorted = np.maximum(0.0, mu_star - inv)
    d = np.empty(k)
    d[order] = d_sorted
    return d, False


def upper_incomplete_gamma(alpha: float, x: float) -> float:
    """Upper incomplete Gamma function Gamma(alpha, x) for x > 0.

    alpha may be zero or negative; that branch is evaluated through the
    integral representation Gamma(alpha, x) = x^alpha e^{-x}
    * int_0^inf e^{-x t} (1+t)^{alpha-1} dt, which is stable where upward
    recurrences are not.
    """
    if not (x > 0):
        raise DomainError(f"upper_incomplete_gamma requires x > 0, got {x}")
    if alpha > 0:
        return float(sps.gammaincc(alpha, x) * sps.gamma(alpha))

    def integrand(t: float) -> float:
        return math.exp(-x * t) * (1.0 + t) ** (alpha - 1.0)

    val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0,
                              epsrel=1e-12, limit=300)
    if not math.isfinite(val):
        raise NumericError(
            f"upper_incomplete_gamma integral diverged for alpha={alpha}, x={x}")
    return float(x ** alpha * math.exp(-x) * val)


def gamma_fn(x: float) -> float:
    """Gamma function for real x away from the poles at 0, -1, -2, ..."""
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires finite x, got {x}")
    if x <= 0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at x={x}")
    return math.gamma(x)


def confluent_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric series 1F1(a, b, z), summed until a term
    falls below 1e-13 of the total; no Kummer transformation."""
    if b <= 0 and b == math.floor(b):
        raise DomainError(f"confluent_1f1 pole at b={b}")
    total = 1.0
    term = 1.0
    for n in range(10_000):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        if abs(term) <= 1e-13 * abs(total):
            return total
    raise NumericError(
        f"confluent_1f1 did not converge for a={a}, b={b}, z={z}")


def hankel_entry_closed(i: int, j: int, scenario: QosScenario,
                        snr: float) -> float:
    """Two-term confluent-hypergeometric form of the Hankel entry g_{i,j};
    refused below c = (n_R/n_T)*snr = 1, where the two terms cancel, and at
    integer theta_hat - (d+i+j), where it has a pole."""
    th = scenario.theta_hat
    k = min(scenario.n_r, scenario.n_t)
    d = abs(scenario.n_r - scenario.n_t)
    if not (0 <= i < k and 0 <= j < k):
        raise DomainError("entry indices out of range")
    p = d + i + j
    if abs((th - p) - round(th - p)) < 1e-9:
        raise DomainError(
            f"closed form invalid: theta_hat - (d+i+j) = {th - p} is the "
            f"integer {int(round(th - p))}")
    c = scenario.n_r / scenario.n_t * snr
    if not c >= 1.0:
        raise NumericError(f"closed form inaccurate at c = (n_R/n_T)*snr = "
                           f"{c:.3g} < 1")
    x = 1.0 / c
    pref = math.pi / (gamma_fn(th) * math.sin(math.pi * (p - th)))
    term1 = (c ** (-1.0 - p) * gamma_fn(1.0 + p) / gamma_fn(2.0 + p - th)
             * confluent_1f1(1.0 + p, 2.0 + p - th, x))
    term2 = (c ** (-th) * gamma_fn(th) / gamma_fn(th - p)
             * confluent_1f1(th, th - p, x))
    return pref * (term1 - term2)


def statistical_estimate_lu(scenario: QosScenario, snr: float, grams,
                            p: np.ndarray, n_samples: int):
    """Effective rate of K = U diag(p) U^dagger and its gradient in p, on
    per-chunk rotated grams G = U^dagger H^dagger H U.

    The rate is log2 det(I + g G P) and its derivative in p_i is
    g/ln2 [(I + g G P)^{-1} G]_ii, with g = n_R * snr and P = diag(p).
    """
    a = scenario.theta_tb
    gain = scenario.n_r * snr
    denom = a * scenario.n_r
    eye = np.eye(len(p))
    acc = _LogMeanExp()
    for gm in grams:
        m = eye + gain * (gm * p)
        _, logdet = np.linalg.slogdet(m)
        d_rate = gain * np.einsum("nii->ni", np.linalg.solve(m, gm)).real
        acc.add(-a / LN2 * logdet, -a / LN2 * d_rate)
    est = EffCapEstimate(value=-acc.log_mean() / denom,
                         std_err=acc.se_log() / denom, n_samples=n_samples)
    return est, -acc.d_log_mean() / denom


def statistical_estimate_mp(scenario: QosScenario, snr: float,
                            draws: np.ndarray, p: np.ndarray):
    """(value, gradient) of `statistical_estimate_lu` on rotated draws
    B = H U of shape (n, n_R, n_T), each draw's determinant and inverse
    taken in mpmath at 40 digits."""
    import mpmath
    a = scenario.theta_tb
    denom = a * scenario.n_r
    with mpmath.workdps(40):
        gain = scenario.n_r * mpmath.mpf(snr)
        pm = mpmath.diag([mpmath.mpf(float(x)) for x in p])
        scale = -a / mpmath.log(2)
        xs, dxs = [], []
        for b in draws:
            bm = mpmath.matrix(b.tolist())
            gm = bm.H * bm
            m = mpmath.eye(len(p)) + gain * gm * pm
            s = mpmath.inverse(m) * gm
            xs.append(scale * mpmath.log(mpmath.re(mpmath.det(m))))
            dxs.append([scale * gain * mpmath.re(s[i, i])
                        for i in range(len(p))])
        top = max(xs)
        w = [mpmath.exp(x - top) for x in xs]
        s1 = mpmath.fsum(w)
        value = -(top + mpmath.log(s1 / len(xs))) / denom
        grad = [-mpmath.fsum(wi * d[i] for wi, d in zip(w, dxs)) / s1 / denom
                for i in range(len(p))]
        return float(value), np.array([float(g) for g in grad])


def min_simplex_quadratic_2(q: np.ndarray) -> float:
    """Minimum of a^T Q a over the two-point simplex a = (t, 1 - t)."""
    # f(t) = (Q00 - 2Q01 + Q11) t^2 + 2(Q01 - Q11) t + Q11
    a2 = q[0, 0] - 2 * q[0, 1] + q[1, 1]
    a1 = 2 * (q[0, 1] - q[1, 1])
    cands = [0.0, 1.0]
    if a2 > 0:
        cands.append(min(1.0, max(0.0, -a1 / (2 * a2))))
    return float(min(a2 * t * t + a1 * t + q[1, 1] for t in cands))


def two_plane_lp(v: np.ndarray, w: np.ndarray) -> float:
    """max over the simplex of min(v.x, w.x), the lower of two planes with
    the values v_k and w_k at the vertices e_k, as the LP max t subject to
    t <= v.x, t <= w.x, sum x = 1, x >= 0."""
    n = len(v)
    res = optimize.linprog(
        np.r_[np.zeros(n), -1.0],
        A_ub=np.c_[-np.stack([v, w]), np.ones(2)], b_ub=np.zeros(2),
        A_eq=np.r_[np.ones(n), 0.0][None], b_eq=[1.0],
        bounds=[(0.0, None)] * n + [(None, None)], method="highs")
    assert res.status == 0, res.message
    return -res.fun


def central_gradient(f, p: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function f at p."""
    grad = np.empty(len(p))
    for i in range(len(p)):
        e = np.zeros(len(p))
        e[i] = h
        grad[i] = (f(p + e) - f(p - e)) / (2.0 * h)
    return grad


def hankel_log_entry(theta_hat: float, p: int, c: float):
    """log g_p, g_p = int_0^inf (1+c z)^{-theta_hat} z^p e^{-z} dz
    = Gamma(p+1) c^{-(p+1)} U(p+1, p+2-theta_hat, 1/c), as an mpmath
    number at the caller's working precision."""
    import mpmath

    c, th = mpmath.mpf(c), mpmath.mpf(theta_hat)
    return (mpmath.loggamma(p + 1) - (p + 1) * mpmath.log(c)
            + mpmath.log(mpmath.hyperu(p + 1, p + 2 - th, 1 / c)))


def hankel_log_mgf(scenario: QosScenario, snr: float,
                   digits: int = 40) -> float:
    """log E{det(I + c W)^{-theta_hat}} from the Hankel determinant of
    mpmath entries, c = (n_R/n_T) snr."""
    import mpmath

    k = min(scenario.n_r, scenario.n_t)
    d = abs(scenario.n_r - scenario.n_t)
    c = scenario.n_r / scenario.n_t * snr
    with mpmath.workdps(digits):
        g = [mpmath.exp(hankel_log_entry(scenario.theta_hat, d + s, c))
             for s in range(2 * k - 1)]
        det = mpmath.det(mpmath.matrix(
            [[g[i + j] for j in range(k)] for i in range(k)]))
        log_norm = mpmath.fsum(mpmath.loggamma(d + i) + mpmath.loggamma(i)
                               for i in range(1, k + 1))
        return float(mpmath.log(det) - log_norm)


def hankel_log_mgf_per_pair(scenario: QosScenario, snr: float) -> float:
    """The library's Hankel log-MGF with one entry call per (i, j) pair of
    the upper triangle, each for a single order; the library's one call
    for all 2k - 1 orders must reproduce its values exactly."""
    th = scenario.theta_hat
    k = min(scenario.n_r, scenario.n_t)
    d = abs(scenario.n_r - scenario.n_t)
    c = scenario.n_r / scenario.n_t * snr
    log_g = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            log_g[i, j] = log_g[j, i] = _hankel_integrand_entry(
                th, [d + i + j], c)[0]
    scales = log_g.max(axis=1)
    sign, logdet = np.linalg.slogdet(np.exp(log_g - scales[:, None]))
    if sign <= 0:
        raise NumericError("Hankel MGF determinant not positive")
    log_norm = sum(math.lgamma(d + i) + math.lgamma(i)
                   for i in range(1, k + 1))
    return logdet + float(scales.sum()) - log_norm


def hankel_integrand_entry_rebuilt(theta_hat: float, orders,
                                   c: float) -> np.ndarray:
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


def hankel_log_mgf_rebuilt(scenario: QosScenario, snr: float) -> float:
    """The library's Hankel log-MGF as it was when every call rebuilt its
    node lattice, orders, anti-diagonal index and normalization; the
    library's shared node table and in-place rows must reproduce its values
    exactly."""
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
    log_g = hankel_integrand_entry_rebuilt(th, np.arange(d, d + 2 * k - 1),
                                           c)
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


def hermitian_eig(a: np.ndarray):
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""
    a = np.asarray(a)
    scale = max(1.0, np.abs(a).max())
    if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_TOL * scale:
        raise DomainError("hermitian_eig requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def write_trace_csv(trace, path: str) -> None:
    """Export the queue sample path as (block_index, queue_bits) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["block_index", "queue_bits"])
        for i, q in enumerate(trace.queue_lengths):
            w.writerow([i, "%.12g" % q])


def gram_eigvalsh(h: np.ndarray, digits: int = 50) -> np.ndarray:
    """Ascending eigenvalues of the smaller gram, HH^dagger or H^dagger H,
    of each H in a stack: the gram of the float entries formed exactly and
    eigensolved by mpmath at the given digits, then rounded to float."""
    import mpmath

    out = []
    with mpmath.workdps(digits):
        for m in h:
            a = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                               for row in m.tolist()])
            if a.rows > a.cols:
                a = a.H
            w = mpmath.eigh(a * a.H, eigvals_only=True)
            out.append(sorted(float(mpmath.re(x)) for x in w))
    return np.array(out)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussians as the literal formula: two
    draws, one per part, divided by sqrt(2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def _descending_eigh(a: np.ndarray):
    w, v = np.linalg.eigh(np.asarray(a, dtype=complex))
    return np.clip(w[::-1], 0.0, None), v[:, ::-1]


def kronecker_sample(model: KroneckerCorrelated, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """n draws R_r^{1/2} G R_t^{1/2} mixed by one unoptimized einsum of the
    Hermitian square roots U L^{1/2} U^dagger: the definition of the
    Kronecker law."""
    def sqrt(a):
        w, v = _descending_eigh(a)
        return (v * np.sqrt(w)) @ v.conj().T
    g = complex_gaussian(rng, (n, model.n_r, model.n_t))
    return np.einsum("ij,njk,kl->nil", sqrt(model.r_r), g, sqrt(model.r_t))


def kronecker_eigen_sample(model: KroneckerCorrelated, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """n draws U_r (L_r^{1/2} o G o L_t^{1/2}) U_t^dagger, from the same G
    that `model.sample_batch(n, rng)` draws: G scaled entrywise by
    sqrt(l_r,i l_t,j), eigenvalues descending, then rotated by one
    unoptimized einsum."""
    l_r, u_r = _descending_eigh(model.r_r)
    l_t, u_t = _descending_eigh(model.r_t)
    g = complex_gaussian(rng, (n, model.n_r, model.n_t))
    g = g * np.sqrt(np.outer(l_r, l_t))
    return np.einsum("ij,njk,kl->nil", u_r, g, u_t.conj().T)


def extrapolated_eb_min_db(rows) -> float:
    """Zero-rate intercept of the E_b/N0 (dB) vs rate curve.

    Linear extrapolation through the two smallest-rate points of a sweep
    dataset (rows in the sweep schema).
    """
    pts = sorted((r[2], r[5]) for r in rows if math.isfinite(r[5]))
    if len(pts) < 2:
        raise ConfigError("need at least two finite bit-energy points")
    (r1, e1), (r2, e2) = pts[0], pts[1]
    return e1 - r1 * (e2 - e1) / (r2 - r1)


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
            f"MGF mean did not decay; max exponent {acc.m[0]}")
    eb = rho / denom
    return eb, 10.0 * math.log10(eb)


def _sparse_ebmin_statistical(model, rho, n_samples, seed):
    """Minimize the bounded-m bit energy over K in the E{H^dag H} eigenbasis,
    the basis of the draws."""
    # per-sample per-direction gains |H u_i|^2
    gains = np.concatenate([(np.abs(h) ** 2).sum(axis=1) for h in
                            iter_sample_chunks(model, n_samples, seed)])
    _, best, _ = simplex_maximize(_sparse_objective(gains, rho),
                                  np.full(model.n_t, 1.0 / model.n_t))
    eb = rho / best
    return eb, 10.0 * math.log10(eb)


def sparse_ebmin_sublinear(model: ChannelModel,
                           strategy: CovarianceStrategy,
                           n_samples: int, seed: int):
    """Sublinear-growth (m -> inf) minimum bit energy; returns (linear, dB)."""
    if isinstance(strategy, StatisticalOptimized):
        denom = float(np.linalg.eigvalsh(model.exact_mean_gram())[-1])
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
            k = in_eigenbasis(model, strategy).k
            m = h @ k @ h.conj().transpose(0, 2, 1)
            yield np.real(np.einsum("nii->n", m))
        else:
            raise DomainError(f"unsupported strategy {strategy!r}")


@dataclass(frozen=True)
class MomentEstimates:
    e_lambda_max: float
    e_lambda_max_sq: float
    e_trace: float
    e_trace_sq: float
    e_trace_gram_sq: float
    std_errs: dict
    n_samples: int


def spectral_moments_mc(model: ChannelModel, n_samples: int,
                        seed: int) -> MomentEstimates:
    """Monte Carlo moments of the gram spectrum feeding the low-SNR formulas."""
    if n_samples < 1000:
        raise DomainError("spectral_moments_mc needs n_samples >= 1000")
    sums = np.zeros(5)
    sqsums = np.zeros(5)
    for ev in iter_spectra(model, n_samples, seed):
        lam = ev[:, -1]
        tr = sum_columns(ev)
        tr2 = sum_columns(ev ** 2)
        stats = np.stack([lam, lam ** 2, tr, tr ** 2, tr2], axis=1)
        sums += stats.sum(axis=0)
        sqsums += (stats ** 2).sum(axis=0)
    means = sums / n_samples
    var = np.maximum(sqsums / n_samples - means ** 2, 0.0)
    se = np.sqrt(var / n_samples)
    names = ["e_lambda_max", "e_lambda_max_sq", "e_trace", "e_trace_sq",
             "e_trace_gram_sq"]
    return MomentEstimates(*means, std_errs=dict(zip(names, se)),
                           n_samples=n_samples)


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


def zero_snr_derivs_scalar(moments,
                           scenario: QosScenario) -> LowSnrDerivatives:
    """The zero-SNR derivatives of scalar E{q}, E{q^2} and E{r}, as the
    closed formula C'(0) = E{q}/ln2 and
    C''(0) = (theta T B n_R/ln2^2)(E{q}^2 - E{q^2}) - (n_R/ln2) E{r}."""
    a, n_r, e_q = scenario.theta_tb, scenario.n_r, moments.e_q
    second = (a * n_r / LN2 ** 2 * (e_q ** 2 - moments.e_q_sq)
              - n_r / LN2 * moments.e_r)
    return LowSnrDerivatives(e_q / LN2, second, moments.regime)


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
    """`StatisticalMoments` of model. E{H^dagger H} is the model's exact one
    (`mean_gram_eig`), and its draws come in its eigenbasis, descending, so
    the maximal eigenspace is spanned by their first l columns."""
    w, _ = model.mean_gram_eig
    l = max_eig_multiplicity(w)
    a_sum = np.zeros((l, l))
    b_sum = np.zeros((l, l))
    for h in iter_sample_chunks(model, n_samples, seed):
        c = h[:, :, :l]
        m = c.conj().transpose(0, 2, 1) @ c
        diag = np.real(np.einsum("nii->ni", m))
        a_sum += np.einsum("ni,nj->ij", diag, diag)
        b_sum += np.einsum("nij,nij->ij", m, m.conj()).real
    return StatisticalMoments(float(w[0]), a_sum / n_samples,
                              b_sum / n_samples)


def derivs_statistical(moments: StatisticalMoments,
                       scenario: QosScenario) -> LowSnrDerivatives:
    """Derivatives at SNR=0 when only E{H^dagger H} is known:
    `zero_snr_derivs_scalar` of K = U diag(p) U^dagger, whose
    E{q} = lambda_max, E{q^2} = p^T E{M_ii M_jj} p and
    E{r} = p^T E{|M_ij|^2} p, at the p on the simplex that minimizes the
    quadratic form of the second derivative; only its weight c1 depends on
    theta.
    """
    a, b = moments.e_diag_products, moments.e_abs_sq
    c1 = scenario.theta_tb * scenario.n_r / LN2 ** 2
    c2 = scenario.n_r / LN2
    l = len(a)
    p, _, _ = simplex_maximize(_quadratic_objective(c1 * a + c2 * b),
                               np.full(l, 1.0 / l))
    return zero_snr_derivs_scalar(
        ZeroSnrMoments(moments.lambda_max, float(p @ a @ p),
                       float(p @ b @ p), "statistical"), scenario)
