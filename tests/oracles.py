"""Scalar per-realization reference implementations.

The library evaluates rates in batches over chunks of spectra; these
one-matrix versions are the references the tests compare against.
"""

import numpy as np

from effcap.errors import DomainError


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
