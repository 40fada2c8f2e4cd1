"""Reference implementations the tests compare against.

The library evaluates rates in batches over chunks of spectra; the scalar
one-matrix versions here are their references. The incomplete Gamma
function and the two-variable quadratic minimum are closed forms that no
library code needs. The Hankel log-MGF evaluates the entry once per (i, j)
pair of the upper triangle; the library's one call per anti-diagonal must
reproduce its values exactly. The queue trace writer is the
one-`csv.writer`-row-per-block version whose bytes the blocked library
writer must reproduce.
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


def hankel_log_mgf(scenario: QosScenario, snr: float,
                   quad_order: int = 32) -> float:
    if snr <= 0:
        raise DomainError("hankel MGF requires snr > 0")
    th = scenario.theta_hat
    if th == 0:
        return 0.0
    k = min(scenario.n_r, scenario.n_t)
    d = abs(scenario.n_r - scenario.n_t)
    c = scenario.n_r / scenario.n_t * snr
    g = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            g[i, j] = g[j, i] = _hankel_integrand_entry(th, i + j + d, c,
                                                        quad_order)
    # factor out row scales so slogdet sees O(1) numbers
    scales = g.max(axis=1)
    sign, logdet = np.linalg.slogdet(g / scales[:, None])
    if sign <= 0:
        raise NumericError("Hankel MGF determinant not positive")
    # normalization det(G)|_{theta=0} = prod_i Gamma(d+i)*Gamma(i), so the
    # MGF is exactly 1 when theta = 0
    log_norm = sum(math.lgamma(d + i) + math.lgamma(i)
                   for i in range(1, k + 1))
    return logdet + float(np.log(scales).sum()) - log_norm


def write_trace_csv(trace, path: str) -> None:
    """Export the queue sample path as (block_index, queue_bits) rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["block_index", "queue_bits"])
        for i, q in enumerate(trace.queue_lengths):
            w.writerow([i, "%.12g" % q])
