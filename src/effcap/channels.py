"""Random MIMO channel models and spectral Monte Carlo machinery.

Samples are produced in fixed-size chunks whose RNG streams are derived
from (seed, chunk index), so estimates are identical no matter how the
chunks are distributed over workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

CHUNK = 1 << 14

_HERMITICITY_TOL = 1e-10


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    # unit total variance per entry: real/imag parts have variance 1/2
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def _psd_sqrt(a: np.ndarray, name: str) -> np.ndarray:
    # a NaN passes every comparison below and eigh returns NaNs for it
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} must be finite")
    if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_TOL * max(1.0, np.abs(a).max()):
        raise DomainError(f"{name} must be Hermitian")
    w, v = np.linalg.eigh(a)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise DomainError(f"{name} must be positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


@dataclass(frozen=True)
class IidComplexGaussian:
    """Zero-mean unit-variance circularly symmetric i.i.d. entries."""

    n_r: int
    n_t: int

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _complex_gaussian(rng, (n, self.n_r, self.n_t))

    # exact mean of the n_t x n_t gram: n_r * I
    def exact_mean_gram(self) -> np.ndarray:
        return self.n_r * np.eye(self.n_t)


@dataclass(frozen=True)
class FixedMatrix:
    """Deterministic channel: every draw returns the same matrix."""

    h: np.ndarray

    @property
    def n_r(self) -> int:
        return self.h.shape[0]

    @property
    def n_t(self) -> int:
        return self.h.shape[1]

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.h, dtype=complex),
                               (n,) + self.h.shape).copy()


@dataclass(frozen=True)
class KroneckerCorrelated:
    """Separable correlation: draws R_r^{1/2} G R_t^{1/2} with G i.i.d."""

    r_r: np.ndarray
    r_t: np.ndarray
    _sq_r: np.ndarray = field(init=False, repr=False, compare=False)
    _sq_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_sq_r", _psd_sqrt(np.asarray(self.r_r, complex), "r_r"))
        object.__setattr__(self, "_sq_t", _psd_sqrt(np.asarray(self.r_t, complex), "r_t"))

    @property
    def n_r(self) -> int:
        return self.r_r.shape[0]

    @property
    def n_t(self) -> int:
        return self.r_t.shape[0]

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of R_r^{1/2} G R_t^{1/2}, mixed as the sum over (j, k),
        in C order, of the outer products
        (G_jk * R_r^{1/2}[:, j]) R_t^{1/2}[k]. That is the order and the
        products of the naive einsum("ij,njk,kl->nil"), so with real
        correlation matrices the draws are bitwise those of the einsum; with
        complex ones they can differ in the last bits."""
        g = _complex_gaussian(rng, (n, self.n_r, self.n_t))
        sq_r, sq_t = self._sq_r, self._sq_t
        out = np.zeros((n, self.n_r, self.n_t), dtype=complex)
        for j in range(self.n_r):
            for k in range(self.n_t):
                out += (g[:, j, k, None] * sq_r[:, j])[:, :, None] * sq_t[k]
        return out


ChannelModel = IidComplexGaussian | FixedMatrix | KroneckerCorrelated


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def iter_sample_chunks(model: ChannelModel, n_samples: int, seed: int):
    """Yield (n, n_r, n_t) chunks; chunk RNG depends only on (seed, index)."""
    idx = 0
    for start in range(0, n_samples, CHUNK):
        m = min(CHUNK, n_samples - start)
        yield model.sample_batch(m, chunk_rng(seed, idx))
        idx += 1


def iter_spectra(model: ChannelModel, n_samples: int, seed: int):
    """Yield the raw (unclipped, ascending) eigenvalues of the smaller gram,
    HH^dagger or H^dagger H, one (n, min(n_r, n_t)) array per chunk of
    `iter_sample_chunks`; callers apply their own clip or floor."""
    for h in iter_sample_chunks(model, n_samples, seed):
        yield _gram_eigvalsh(h)


def _gram_eigvalsh(h: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of the smaller gram of each H in a stack.

    Two shapes skip work and keep the bits. A 1x1 H gives re*re + im*im,
    bitwise the gram matmul followed by zheevd, without forming the gram.
    Any other single-eigenvalue gram (1xn, nx1, whose matmul sums in
    another order) gives the real part of its entry, which is what LAPACK
    zheevd returns for N = 1 (W(1) = DBLE(A(1,1))), without the call.
    """
    if h.shape[1:] == (1, 1):
        x = h[:, :, 0]
        return x.real * x.real + x.imag * x.imag
    hh = h.conj().transpose(0, 2, 1)
    g = h @ hh if h.shape[1] <= h.shape[2] else hh @ h
    if g.shape[-1] == 1:
        return np.ascontiguousarray(g[..., 0].real)
    return np.linalg.eigvalsh(g)


def hermitian_eig(a: np.ndarray):
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""
    a = np.asarray(a)
    scale = max(1.0, np.abs(a).max())
    if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_TOL * scale:
        raise DomainError("hermitian_eig requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray
    lambda_max: float
    multiplicity_l: int
    max_eig_basis: np.ndarray


# eigenvalues within this fraction of the largest count as maximal: it
# absorbs the Monte Carlo error of an estimated E{H^dagger H}
MAX_EIG_REL_TOL = 1e-2


def max_eig_subspace(a: np.ndarray) -> SpectralSummary:
    """Maximum eigenvalue, its numerical multiplicity (eigenvalues within
    MAX_EIG_REL_TOL of it, relative) and eigenspace basis."""
    w, v = hermitian_eig(a)
    lam = float(w[0])
    if lam <= 0.0:
        # zero (or numerically zero) matrix: the whole space is maximal
        return SpectralSummary(w, 0.0, len(w), v)
    mask = (lam - w) / lam <= MAX_EIG_REL_TOL
    l = int(np.sum(mask))
    return SpectralSummary(w, lam, l, v[:, :l])


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
        tr = ev.sum(axis=1)
        tr2 = (ev ** 2).sum(axis=1)
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


def _mean_gram_of(chunks, n_t: int, n_samples: int) -> np.ndarray:
    """E{H^dagger H} averaged over chunks of n_samples draws in total, each
    chunk's sum added in turn; the one Monte Carlo estimator of it."""
    acc = np.zeros((n_t, n_t), dtype=complex)
    for h in chunks:
        acc += np.einsum("nij,nik->jk", h.conj(), h)
    g = acc / n_samples
    return 0.5 * (g + g.conj().T)


def mean_gram_mc(model: ChannelModel, n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of E{H^dagger H}."""
    return _mean_gram_of(iter_sample_chunks(model, n_samples, seed),
                         model.n_t, n_samples)


def mean_gram(model: ChannelModel, n_samples: int, seed: int) -> np.ndarray:
    """E{H^dagger H}: exact for the i.i.d. model, else `mean_gram_mc`."""
    if isinstance(model, IidComplexGaussian):
        return model.exact_mean_gram()
    return mean_gram_mc(model, n_samples, seed)


def mean_gram_and_chunks(model: ChannelModel, n_samples: int, seed: int):
    """(E{H^dagger H}, chunks): bitwise `mean_gram` and an iterator over
    the chunks of `iter_sample_chunks`, each drawn once.

    The i.i.d. model's mean is exact and its chunks are drawn lazily. Any
    other model's chunks are drawn and held for the Monte Carlo mean, and
    the iterator drops each held chunk as it yields it.
    """
    chunks = iter_sample_chunks(model, n_samples, seed)
    if isinstance(model, IidComplexGaussian):
        return model.exact_mean_gram(), chunks
    held = list(chunks)
    return _mean_gram_of(held, model.n_t, n_samples), _drain(held)


def _drain(held: list):
    """Yield the held chunks in order, dropping each from the list."""
    held.reverse()
    while held:
        yield held.pop()
