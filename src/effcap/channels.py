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


# the factor NumPy's complex division by sqrt(2) multiplies each part by
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries of unit total variance: real/imag parts have variance 1/2.

    Bitwise (standard_normal(shape) + 1j * standard_normal(shape)) /
    sqrt(2): one draw of both parts is the same stream as the two draws,
    and the division scales each part by fl(1/sqrt(2)).
    """
    parts = rng.standard_normal((2,) + tuple(shape))
    parts *= _INV_SQRT2
    out = np.empty(parts.shape[1:], dtype=complex)
    out.real, out.imag = parts
    return out


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

    def __post_init__(self):
        if not np.all(np.isfinite(self.h)):
            raise DomainError("FixedMatrix h must be finite")

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

    A two-eigenvalue gram (2xn, nx2) comes from H in closed form, see
    `_two_eigvalsh`, whose values differ from LAPACK's by rounding only.
    Three or more eigenvalues go to LAPACK.
    """
    if h.shape[1:] == (1, 1):
        x = h[:, :, 0]
        return x.real * x.real + x.imag * x.imag
    if min(h.shape[1:]) == 2:
        return _two_eigvalsh(h)
    hh = h.conj().transpose(0, 2, 1)
    g = h @ hh if h.shape[1] <= h.shape[2] else hh @ h
    if g.shape[-1] == 1:
        return np.ascontiguousarray(g[..., 0].real)
    return np.linalg.eigvalsh(g)


def _two_eigvalsh(h: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues (n, 2) of the 2x2 gram of each H in a stack
    with two rows or two columns, without forming the gram.

    With h1, h2 the two rows of H (its two columns when n_R > n_T), the
    gram is [[a, b], [b*, d]] with a = |h1|^2, d = |h2|^2 and b = <h1, h2>,
    so the eigenvalues are (a + d)/2 -+ hypot((a - d)/2, |b|). Against the
    exact spectrum of the entries, lambda_max is within 4 eps relative and
    lambda_min within 4 eps * lambda_max absolute (eps = 2**-52); LAPACK's
    zheevd on the formed gram is within about 5 eps of both. hypot keeps
    entries up to about 1e150 finite wherever the formed gram is.
    """
    # the two columns of an n x 2 H taken contiguous, so that the einsums
    # walk the same memory as for a 2 x n H
    v = h if h.shape[1] == 2 else np.ascontiguousarray(h.transpose(0, 2, 1))
    norms = (np.einsum("nik,nik->ni", v.real, v.real)
             + np.einsum("nik,nik->ni", v.imag, v.imag))
    a, d = norms[:, 0], norms[:, 1]
    b = np.abs(np.einsum("nk,nk->n", v[:, 0], v[:, 1].conj()))
    mid = (a + d) / 2
    r = np.hypot((a - d) / 2, b)
    return np.stack([mid - r, mid + r], axis=1)


def sum_columns(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of an (n, k) array, bitwise, by adding its columns.

    For k < 8 NumPy sums each row from 0.0 left to right, one inner-loop
    call per row; 0.0 + column 0, then each later column added in turn,
    makes the same roundings (a row of -0.0 included) in k vectorized
    passes. From k = 8 NumPy sums pairwise, so that case is its own sum.
    """
    k = a.shape[1]
    if not 0 < k < 8:
        return a.sum(axis=1)
    out = a[:, 0] + 0.0
    for j in range(1, k):
        out += a[:, j]
    return out


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


def mean_gram_and_chunks(model: ChannelModel, n_samples: int, seed: int):
    """(E{H^dagger H}, chunks): the mean and an iterator over the chunks
    of `iter_sample_chunks`, each drawn once.

    The i.i.d. model's mean is exact and its chunks are drawn lazily. Any
    other model's chunks are drawn and held for the Monte Carlo mean,
    bitwise `mean_gram_mc`, and the iterator drops each held chunk as it
    yields it.
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
