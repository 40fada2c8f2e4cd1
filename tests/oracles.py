"""Reference implementations the tests compare against.

The library evaluates rates in batches over chunks of spectra; the scalar
one-matrix versions here are their references. The incomplete Gamma
function, the two-variable quadratic minimum and the confluent
hypergeometric form of a Hankel entry (with its Gamma and 1F1 helpers) are
closed forms that no library code needs. The Hankel entries and log-MGF use mpmath's Tricomi U
function at 40 digits, imported only when called; the per-pair Hankel
log-MGF is the loop the library's one call for all orders must reproduce
exactly. The queue trace writer is the one-`csv.writer`-row-per-block
version whose bytes the blocked library writer must reproduce.
"""

import csv
import math

import numpy as np
from scipy import integrate
from scipy import special as sps

from effcap.asymptotics import _hankel_integrand_entry
from effcap.engine import QosScenario
from effcap.errors import DomainError, NumericError


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


def min_simplex_quadratic_2(q: np.ndarray) -> float:
    """Minimum of a^T Q a over the two-point simplex a = (t, 1 - t)."""
    # f(t) = (Q00 - 2Q01 + Q11) t^2 + 2(Q01 - Q11) t + Q11
    a2 = q[0, 0] - 2 * q[0, 1] + q[1, 1]
    a1 = 2 * (q[0, 1] - q[1, 1])
    cands = [0.0, 1.0]
    if a2 > 0:
        cands.append(min(1.0, max(0.0, -a1 / (2 * a2))))
    return float(min(a2 * t * t + a1 * t + q[1, 1] for t in cands))


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


def write_trace_csv(trace, path: str) -> None:
    """Export the queue sample path as (block_index, queue_bits) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["block_index", "queue_bits"])
        for i, q in enumerate(trace.queue_lengths):
            w.writerow([i, "%.12g" % q])
