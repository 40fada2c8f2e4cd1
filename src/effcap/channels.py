"""Random MIMO channel models and spectral Monte Carlo machinery.

Samples are produced in fixed-size chunks whose RNG streams are derived
from (seed, chunk index), so estimates are identical no matter how the
chunks are distributed over workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError

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


def _psd_eig(a: np.ndarray, name: str):
    """Eigenvalues, descending and clipped at 0, and matching eigenvectors
    of a finite Hermitian positive semidefinite matrix; refuses any other."""
    # a NaN passes every comparison below and eigh returns NaNs for it
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} must be finite")
    if np.max(np.abs(a - a.conj().T)) > _HERMITICITY_TOL * max(1.0, np.abs(a).max()):
        raise DomainError(f"{name} must be Hermitian")
    w, v = np.linalg.eigh(a)
    if w.min() < -1e-10 * max(1.0, w.max()):
        raise DomainError(f"{name} must be positive semidefinite")
    return np.clip(w[::-1], 0.0, None), v[:, ::-1]


# Every model draws its channels in the eigenbasis U of E{H^dagger H}: each
# draw of `sample_eigenbasis` is V^dagger H U in law, for some unitary V,
# and `mean_gram_eig` is (the eigenvalues, descending, U). Whatever reads a
# draw reads it through H^dagger H or H K H^dagger, whose spectra a left
# unitary V keeps, so only a transmit covariance K changes: it acts on the
# draws as U^dagger K U (`engine.in_eigenbasis`).

@dataclass(frozen=True)
class IidComplexGaussian:
    """Zero-mean unit-variance circularly symmetric i.i.d. entries."""

    n_r: int
    n_t: int

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _complex_gaussian(rng, (n, self.n_r, self.n_t))

    # E{H^dagger H} = n_R I has every basis as eigenbasis: U = I
    sample_eigenbasis = sample_batch

    def exact_mean_gram(self) -> np.ndarray:
        return self.n_r * np.eye(self.n_t)

    @property
    def mean_gram_eig(self):
        return np.full(self.n_t, float(self.n_r)), np.eye(self.n_t)


@dataclass(frozen=True)
class FixedMatrix:
    """Deterministic channel: every draw returns the same matrix."""

    h: np.ndarray
    mean_gram_eig: tuple = field(init=False, repr=False, compare=False)
    _rotated: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.h)):
            raise DomainError("FixedMatrix h must be finite")
        h = np.asarray(self.h, dtype=complex)
        # the eigenvectors of H^dagger H from the SVD of H, which does not
        # square the entries; an eigenvalue s^2 may overflow to inf
        _, s, vh = np.linalg.svd(h)
        w = np.zeros(self.n_t)
        with np.errstate(over="ignore"):
            w[:len(s)] = s * s
        u = vh.conj().T
        object.__setattr__(self, "mean_gram_eig", (w, u))
        object.__setattr__(self, "_rotated", h @ u)

    @property
    def n_r(self) -> int:
        return self.h.shape[0]

    @property
    def n_t(self) -> int:
        return self.h.shape[1]

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.h, dtype=complex),
                               (n,) + self.h.shape).copy()

    def sample_eigenbasis(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.broadcast_to(self._rotated, (n,) + self.h.shape).copy()

    def exact_mean_gram(self) -> np.ndarray:
        h = np.asarray(self.h, dtype=complex)
        return h.conj().T @ h


@dataclass(frozen=True)
class KroneckerCorrelated:
    """Separable correlation: H = R_r^{1/2} G R_t^{1/2} with G i.i.d.

    With R_r = U_r L_r U_r^dagger and R_t = U_t L_t U_t^dagger,
    U_r^dagger H U_t = L_r^{1/2} (U_r^dagger G U_t) L_t^{1/2}, and
    U_r^dagger G U_t has the law of G: an i.i.d. complex Gaussian matrix is
    unitarily invariant (Tulino & Verdu, Random Matrix Theory and Wireless
    Communications, 2004, Sec. 2). So a draw in the eigenbasis is G scaled
    entrywise by sqrt(l_r,i l_t,j), O(n_R n_T) work, and
    E{H^dagger H} = tr(R_r) R_t is diagonal there.
    """

    r_r: np.ndarray
    r_t: np.ndarray
    mean_gram_eig: tuple = field(init=False, repr=False, compare=False)
    _u_r: np.ndarray = field(init=False, repr=False, compare=False)
    _scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam_r, u_r = _psd_eig(np.asarray(self.r_r, complex), "r_r")
        lam_t, u_t = _psd_eig(np.asarray(self.r_t, complex), "r_t")
        object.__setattr__(self, "_u_r", u_r)
        object.__setattr__(self, "_scale", np.sqrt(np.outer(lam_r, lam_t)))
        object.__setattr__(self, "mean_gram_eig",
                           (np.trace(self.r_r).real * lam_t, u_t))

    @property
    def n_r(self) -> int:
        return self.r_r.shape[0]

    @property
    def n_t(self) -> int:
        return self.r_t.shape[0]

    def sample_eigenbasis(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of U_r^dagger H U_t = L_r^{1/2} o G o L_t^{1/2}, its
        columns in descending order of the eigenvalues of R_t."""
        g = _complex_gaussian(rng, (n, self.n_r, self.n_t))
        g *= self._scale
        return g

    def sample_batch(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of H: the draws of `sample_eigenbasis` rotated back,
        U_r D U_t^dagger = R_r^{1/2} G' R_t^{1/2} with G' = U_r G U_t^dagger,
        which has the law of G."""
        return np.einsum("ij,njk,kl->nil", self._u_r,
                         self.sample_eigenbasis(n, rng),
                         self.mean_gram_eig[1].conj().T)

    def exact_mean_gram(self) -> np.ndarray:
        """E{H^dagger H} = tr(R_r) R_t, since E{G^dagger A G} = tr(A) I."""
        return np.trace(self.r_r).real * np.asarray(self.r_t, complex)


ChannelModel = IidComplexGaussian | FixedMatrix | KroneckerCorrelated


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def iter_sample_chunks(model: ChannelModel, n_samples: int, seed: int):
    """Yield (n, n_r, n_t) chunks of draws in the eigenbasis of
    E{H^dagger H} (`sample_eigenbasis`); chunk RNG depends only on
    (seed, index)."""
    idx = 0
    for start in range(0, n_samples, CHUNK):
        m = min(CHUNK, n_samples - start)
        yield model.sample_eigenbasis(m, chunk_rng(seed, idx))
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


# eigenvalues within this fraction of the largest count as maximal: a
# rounding tolerance. Every E{H^dagger H} is exact (`mean_gram_eig`), and
# its computed eigenvalues are off by a few n_T eps of the largest, so a
# true near-tie, such as 2.008 against 1.992, is no tie
MAX_EIG_REL_TOL = 1e-12


def max_eig_multiplicity(w: np.ndarray) -> int:
    """How many of the descending eigenvalues w are within MAX_EIG_REL_TOL
    of w[0], relative: all of them for a zero (or numerically zero)
    matrix, whose whole space is maximal. An infinite or NaN w[0], such as
    the squared singular value of a huge fixed channel, raises
    NumericError."""
    lam = float(w[0])
    if not math.isfinite(lam):
        raise NumericError(f"largest eigenvalue of E{{H^dagger H}} not "
                           f"finite: {lam}")
    if lam <= 0.0:
        return len(w)
    return int(np.sum((lam - w) / lam <= MAX_EIG_REL_TOL))


def mean_gram_mc(model: ChannelModel, n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo estimate of E{H^dagger H}, whose exact value is the
    model's `exact_mean_gram`: the mean gram of the draws, rotated from
    their eigenbasis U back to the model's basis. Nothing in effcap calls
    it; it stays because perfbench/tracing.py rebinds it, and goes once the
    tracer stops doing so (ROADMAP item 3)."""
    acc = np.zeros((model.n_t, model.n_t), dtype=complex)
    for h in iter_sample_chunks(model, n_samples, seed):
        acc += np.einsum("nij,nik->jk", h.conj(), h)
    u = model.mean_gram_eig[1]
    g = u @ (acc / n_samples) @ u.conj().T
    return 0.5 * (g + g.conj().T)
