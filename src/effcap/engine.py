"""Finite-SNR effective rate / effective capacity by Monte Carlo.

The effective rate for QoS exponent theta is
    -(1 / (theta*T*B*n_R)) * log E{ exp(-theta*T*B * log2 det(I + n_R*SNR*H K H^dag)) }
in bits/s/Hz/dimension. The expectation is estimated with a streaming
log-mean-exp so that large theta*T*B products never overflow.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .channels import (ChannelModel, IidComplexGaussian, _gram_eigvalsh,
                       iter_sample_chunks, iter_spectra, sum_columns)
from .errors import DomainError, NumericError

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)


@dataclass(frozen=True)
class QosScenario:
    """QoS exponent theta (1/bit), block duration T (s), bandwidth B (Hz)."""

    theta: float
    t: float
    b: float
    n_r: int
    n_t: int

    def __post_init__(self):
        # written so that NaN fails every bound; finite factors can still
        # overflow theta_hat
        if not (0 <= self.theta < math.inf and 0 < self.t < math.inf
                and 0 < self.b < math.inf and self.theta_hat < math.inf):
            raise DomainError("QosScenario requires finite theta >= 0, "
                              "T > 0, B > 0 and theta*T*B")
        if self.n_r < 1 or self.n_t < 1:
            raise DomainError("QosScenario requires n_R, n_T >= 1")

    @property
    def theta_hat(self) -> float:
        """Dimensionless exponent theta * T * B * log2(e)."""
        return self.theta * self.t * self.b * LOG2E

    @property
    def theta_tb(self) -> float:
        """theta * T * B, the exponent applied to a bits/s/Hz rate."""
        return self.theta * self.t * self.b

    @classmethod
    def from_theta_hat(cls, theta_hat: float, t: float, b: float,
                       n_r: int, n_t: int) -> "QosScenario":
        return cls(theta=theta_hat / (t * b * LOG2E), t=t, b=b,
                   n_r=n_r, n_t=n_t)


def check_shape(scenario: QosScenario, model: ChannelModel) -> None:
    """Refuse a scenario whose n_R x n_T differs from the model's."""
    if (scenario.n_r, scenario.n_t) != (model.n_r, model.n_t):
        raise DomainError(
            f"scenario is {scenario.n_r}x{scenario.n_t} but the channel "
            f"model is {model.n_r}x{model.n_t}")


# ---------------------------------------------------------------------------
# covariance strategies

@dataclass(frozen=True)
class UniformIdentity:
    """K_x = I / n_T."""


@dataclass(frozen=True)
class WaterfillingCsit:
    """Per-realization log-det maximizer under tr(K_x) <= 1."""


@dataclass(frozen=True)
class BeamformingCsit:
    """Rank-one K_x on the per-realization maximum-eigenvalue direction."""


@dataclass(frozen=True)
class FixedCovariance:
    """A given PSD covariance with tr(K) <= 1."""

    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k)
        # a NaN passes every comparison below
        if not np.all(np.isfinite(k)):
            raise DomainError("FixedCovariance K must be finite")
        if np.max(np.abs(k - k.conj().T)) > 1e-10:
            raise DomainError("FixedCovariance K must be Hermitian")
        w = np.linalg.eigvalsh(k)
        if w.min() < -1e-10:
            raise DomainError("FixedCovariance K must be PSD")
        if w.sum() > 1.0 + 1e-12:
            raise DomainError("FixedCovariance requires tr(K) <= 1")


@dataclass(frozen=True)
class StatisticalOptimized:
    """K maximizing the effective rate given only E{H^dagger H}."""


CovarianceStrategy = (UniformIdentity | WaterfillingCsit | BeamformingCsit |
                      FixedCovariance | StatisticalOptimized)


def _batch_waterfill_rates(eigs: np.ndarray, gain: float) -> np.ndarray:
    """Vectorized water-filling rate over a batch of descending spectra."""
    lam = np.sort(eigs, axis=1)[:, ::-1]
    pos = lam > 0
    inv = np.where(pos, 1.0 / (gain * np.where(pos, lam, 1.0)), np.inf)
    cums = np.cumsum(np.where(pos, inv, 0.0), axis=1)
    counts = np.arange(1, lam.shape[1] + 1)
    mu = (1.0 + cums) / counts
    n_active = np.maximum(np.sum(mu > inv, axis=1), 1)
    mu_star = (1.0 + np.take_along_axis(cums, n_active[:, None] - 1, 1)[:, 0]) \
        / n_active
    d = np.maximum(0.0, mu_star[:, None] - inv)
    rate = np.where(d > 0, np.log2(1.0 + gain * np.where(pos, lam, 0.0) * d),
                    0.0)
    return sum_columns(rate)


def in_eigenbasis(model: ChannelModel, strategy: CovarianceStrategy):
    """The strategy as it acts on the draws of `iter_sample_chunks`, which
    come in the eigenbasis U of E{H^dagger H} (the model's
    `mean_gram_eig`): a fixed K becomes U^dagger K U, formed once per run,
    and stays K on the i.i.d. model, whose U is I; every other strategy
    reads only what that basis keeps."""
    if (not isinstance(strategy, FixedCovariance)
            or isinstance(model, IidComplexGaussian)):
        return strategy
    u = model.mean_gram_eig[1]
    return FixedCovariance(u.conj().T @ strategy.k @ u)


def strategy_spectra(model: ChannelModel, strategy: CovarianceStrategy,
                     n_samples: int, seed: int):
    """Per-chunk eigenvalues that set the strategy's rate: those of the
    small gram (`iter_spectra`), or of H K H^dagger for a fixed K."""
    if not isinstance(strategy, FixedCovariance):
        return iter_spectra(model, n_samples, seed)
    k = in_eigenbasis(model, strategy).k
    return (np.linalg.eigvalsh(h @ k @ h.conj().transpose(0, 2, 1))
            for h in iter_sample_chunks(model, n_samples, seed))


def chunk_rates(ev: np.ndarray, strategy: CovarianceStrategy, snr: float,
                n_r: int, n_t: int) -> np.ndarray:
    """Per-sample log-det service rates (bits/s/Hz) of one chunk of
    `strategy_spectra`."""
    if snr == 0:
        return np.zeros(ev.shape[0])
    gain = n_r * snr
    # a product that overflows makes an infinite rate, which `_estimate`
    # refuses from the sum
    if isinstance(strategy, WaterfillingCsit):
        with np.errstate(over="ignore"):
            return _batch_waterfill_rates(np.clip(ev, 0.0, None), gain)
    if isinstance(strategy, UniformIdentity):
        gain = gain / n_t
    elif isinstance(strategy, BeamformingCsit):
        ev = ev[:, -1:]
    elif not isinstance(strategy, FixedCovariance):
        raise DomainError(f"unsupported strategy {strategy!r}")
    # log2(1 + gain * clip(ev)) per eigenvalue, its steps in that order and
    # in place on one array, then summed over the eigenvalues
    t = np.clip(ev, 0.0, None)
    with np.errstate(over="ignore"):
        t *= gain
    t += 1.0
    np.log2(t, out=t)
    return sum_columns(t)


class _Scratch(threading.local):
    """Work buffers of one thread: one flat complex and one flat float
    array, each grown to the largest need seen and never shrunk, out of
    which `views` carves the arrays of one chunk. A chunk-sized temporary
    that is freed on return sits at the allocator's mmap threshold, so its
    pages would be mapped, faulted in and returned on every call. The views
    of one call share no memory, and none is used after its chunk."""

    def __init__(self):
        self.c = np.empty(0, complex)
        self.f = np.empty(0)

    def views(self, c_shapes, f_shapes):
        return self._carve("c", c_shapes) + self._carve("f", f_shapes)

    def _carve(self, name, shapes):
        ends = list(accumulate(math.prod(s) for s in shapes))
        buf = getattr(self, name)
        if ends and buf.size < ends[-1]:
            buf = np.empty(ends[-1], buf.dtype)
            setattr(self, name, buf)
        return [buf[end - math.prod(s):end].reshape(s)
                for s, end in zip(shapes, ends)]


_SCRATCH = _Scratch()


def _abs2(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """x.real ** 2 + x.imag ** 2 into out, with tmp of the same shape."""
    return np.add(np.square(x.real, out=out), np.square(x.imag, out=tmp),
                  out=out)


def chunk_gains(h: np.ndarray, strategy: CovarianceStrategy,
                squares: bool = False):
    """Per-draw zero-SNR gains q = tr G of a chunk of draws h, G = H K
    H^dagger at the strategy's K as SNR -> 0: I/n_T for uniform, the given
    K, or the top eigenvector of H^dagger H for beamforming and for
    water-filling, which opens one mode. A draw's rate is
    (n_R snr/ln2) q - ((n_R snr)^2/(2 ln2)) r + O(snr^3), r = tr G^2;
    with squares, (q, r). A product that overflows makes an infinite gain,
    which its callers refuse from the sums."""
    with np.errstate(over="ignore"):
        if isinstance(strategy, (WaterfillingCsit, BeamformingCsit)):
            q = _gram_eigvalsh(h)[:, -1]
            return (q, q * q) if squares else q
        if isinstance(strategy, UniformIdentity):
            q = (np.abs(h) ** 2).sum(axis=(1, 2)) / h.shape[2]
            if squares:  # from the small gram's spectrum, G = HH^dagger/n_T
                r = sum_columns(_gram_eigvalsh(h) ** 2) / h.shape[2] ** 2
        elif isinstance(strategy, FixedCovariance):
            # G and its factors in the thread's scratch, as in
            # `_statistical_estimate`; q and r are new arrays
            n, n_r, n_t = h.shape
            hk, hc, g, *sq = _SCRATCH.views(
                [(n, n_r, n_t), (n, n_r, n_t), (n, n_r, n_r)],
                [(n, n_r, n_r)] * (2 if squares else 0))
            np.matmul(np.matmul(h, strategy.k, out=hk),
                      np.conjugate(h, out=hc).transpose(0, 2, 1), out=g)
            q = np.real(np.einsum("nii->n", g))
            if squares:  # ||G||_F^2 of the Hermitian G
                r = _abs2(g, *sq).sum(axis=(1, 2))
        else:
            raise DomainError(f"unsupported strategy {strategy!r}")
    return (q, r) if squares else q


@dataclass(frozen=True)
class EffCapEstimate:
    value: float
    std_err: float
    n_samples: int


class _LogMeanExp:
    """Streaming log-mean-exp of each row of the exponents added, with its
    delta-method standard error and, for one row given per-sample
    derivatives of its exponents, its gradient.

    `add` takes a chunk of exponents, (rows, n), or (n,) for one row, in
    which case the results are floats rather than lists of one per row.
    Row i keeps its running maximum m[i] and the sums s1[i] of e^(x - m[i])
    and s2[i] of e^(2(x - m[i])); a chunk that raises m[i] first scales
    them by math.exp(old m[i] - new m[i]).
    """

    def __init__(self):
        self.m = np.full(1, -np.inf)
        self.s1, self.s2 = np.zeros((2, 1))
        self.sd = 0.0
        self.n = 0
        self.one_row = True
        self._buf = None

    def add(self, x: np.ndarray, dx: np.ndarray | None = None):
        xs = x.reshape(-1, x.shape[-1])
        cm = xs.max(axis=1)
        top = float(cm.max())  # NaN if any exponent is
        if math.isnan(top):
            raise NumericError("NaN exponent in log-mean-exp")
        if top == math.inf:
            raise NumericError(f"infinite exponent in log-mean-exp: {top}")
        if self.n == 0:
            self.m = cm
            self.s1, self.s2 = np.zeros((2, len(cm)))
            self.one_row = x.ndim == 1
        else:
            for i in np.flatnonzero(cm > self.m):
                if math.isfinite(self.m[i]):
                    r = math.exp(self.m[i] - cm[i])
                    self.s1[i] *= r
                    self.s2[i] *= r * r
                    self.sd *= r
                self.m[i] = cm[i]
        # one buffer for the weights of every chunk: a new (rows x n) array
        # per chunk, freed beside the exponents, can cost more than the
        # arithmetic when the allocator returns the memory each time
        if self._buf is None or self._buf.size < xs.size:
            self._buf = np.empty(xs.size)
        w = self._buf[:xs.size].reshape(xs.shape)
        np.subtract(xs, self.m[:, None], out=w)
        np.exp(w, out=w)
        self.s1 += w.sum(axis=1)
        if dx is not None:
            self.sd += w[0] @ dx
        w *= w
        self.s2 += w.sum(axis=1)
        self.n += xs.shape[1]

    def _rows(self, values: list):
        return values[0] if self.one_row else values

    def log_mean(self):
        out = []
        for m, s1 in zip(self.m.tolist(), self.s1.tolist()):
            if s1 <= 0.0 or not math.isfinite(m):
                raise NumericError(
                    f"MGF sample mean underflowed; max exponent was {m}")
            out.append(m + math.log(s1 / self.n))
        return self._rows(out)

    def d_log_mean(self) -> np.ndarray:
        """Gradient of log_mean of one row: the exp-weighted mean of the
        added dx."""
        return self.sd / self.s1[0]

    def se_log(self):
        out = []
        for s1, s2 in zip(self.s1.tolist(), self.s2.tolist()):
            mean_w = s1 / self.n
            var_w = max(s2 / self.n - mean_w ** 2, 0.0)
            out.append(math.sqrt(var_w / self.n) / mean_w)
        return self._rows(out)


def effective_rate_mc(scenario: QosScenario, model: ChannelModel,
                      strategy: CovarianceStrategy, snr: float,
                      n_samples: int, seed: int) -> EffCapEstimate:
    """Monte Carlo effective rate in bits/s/Hz/dimension."""
    if scenario.theta <= 0:
        raise DomainError("effective_rate_mc requires theta > 0; "
                          "use ergodic_rate_mc for theta = 0")
    check_shape(scenario, model)
    return rate_estimator(model, strategy, n_samples, seed)(scenario, snr)


def ergodic_rate_mc(model: ChannelModel, strategy: CovarianceStrategy,
                    snr: float, n_samples: int, seed: int) -> EffCapEstimate:
    """Sample-mean log-det rate per receive dimension (theta -> 0 limit);
    at theta = 0, T and B do not enter."""
    scenario = QosScenario(0.0, 1.0, 1.0, model.n_r, model.n_t)
    return rate_estimator(model, strategy, n_samples, seed)(scenario, snr)


def _check_snr(snr: float) -> None:
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be finite and >= 0, got {snr}")


def _estimate(theta_tbs: list, n_r: int, rates, n_samples: int,
              what: str = "rate") -> list:
    """Per theta_tb, the effective rate per receive dimension, or the
    sample-mean (ergodic) rate where theta_tb = 0, in one pass over the
    per-chunk rates: the exponents -theta_tb * rate of every positive
    theta_tb form one (curves x draws) matrix per chunk, and the ergodic
    sums are taken once for all theta_tb = 0. An overflowed or NaN value
    (`what`: rate, or gain) raises NumericError, which -theta_tb * inf
    would otherwise weight e^-inf = 0."""
    if not theta_tbs:
        return []
    pos = [a for a in theta_tbs if a > 0]
    neg = np.array([-a for a in pos])
    ergodic = len(pos) < len(theta_tbs)
    acc = _LogMeanExp()
    s = sq = 0.0
    for r in rates:
        rn = r / n_r if ergodic else r
        total = float(rn.sum())
        if not math.isfinite(total):
            raise NumericError(f"per-draw {what} not finite: sum {total}")
        s += total
        if ergodic:
            sq += float((rn * rn).sum())
        if pos:
            acc.add(np.multiply.outer(neg, r))
    if ergodic:
        mean = s / n_samples
        var = max(sq / n_samples - mean ** 2, 0.0)
        zero = EffCapEstimate(mean, math.sqrt(var / n_samples), n_samples)
    effective = iter(
        [EffCapEstimate(-log_mean / (a * n_r), se / (a * n_r), n_samples)
         for a, log_mean, se in zip(pos, acc.log_mean(), acc.se_log())]
        if pos else [])
    return [zero if a == 0 else next(effective) for a in theta_tbs]


def rate_estimator(model: ChannelModel, strategy: CovarianceStrategy,
                   n_samples: int, seed: int):
    """Return estimate(scenarios, snr): the effective rates (ergodic where
    theta = 0) of a sequence of scenarios at one snr, as a list, or of one
    scenario, as an estimate, on the draws of (model, n_samples, seed).
    It is the one path from draws to a rate; effective_rate_mc and
    ergodic_rate_mc call it for a single scenario.

    The draws are eigensolved once, here. Each call makes one pass over
    those spectra: the rates of a chunk depend on snr and not on theta, so
    they are computed once and reduced for every scenario of the call
    together (`_estimate`); the theta curves of one SNR are asked in one
    call for that reason. StatisticalOptimized runs its optimizer once per
    scenario. A scenario whose shape is not the model's is refused. The
    spectra, k floats per draw for k eigenvalues, live as long as the
    returned function, so a single-point call holds them until it returns.
    """
    if isinstance(strategy, StatisticalOptimized):
        def evaluate(batch, snr):
            # looked up at call time, so that a wrapped optimizer is run
            return [optimize_covariance_statistical(
                sc, model, snr, n_samples, seed)[1] for sc in batch]
    else:
        spectra = list(strategy_spectra(model, strategy, n_samples, seed))

        def evaluate(batch, snr):
            for sc in batch:
                check_shape(sc, model)
            _check_snr(snr)
            rates = (chunk_rates(ev, strategy, snr, model.n_r, model.n_t)
                     for ev in spectra)
            return _estimate([sc.theta_tb for sc in batch], model.n_r, rates,
                             n_samples)

    def estimate(scenarios, snr: float):
        if isinstance(scenarios, QosScenario):
            return evaluate([scenarios], snr)[0]
        return evaluate(list(scenarios), snr)
    return estimate


def _simplex_project(p: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex. A common shift of
    p leaves it unchanged, so where the largest entry is so far from 0 that
    subtracting the simplex's 1 from it rounds to nothing (a Barzilai-Borwein
    step of 1e28 on a nearly flat direction), p is shifted to make that
    entry 0 first."""
    u = np.sort(p)[::-1]
    if u[0] - 1.0 == u[0]:
        p, u = p - u[0], u - u[0]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(p) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(p - tau, 0.0)


# relative Frank-Wolfe gap at which simplex_maximize stops, its cap on
# objective evaluations, the Armijo constant and the number of recent values
# the nonmonotone Armijo test compares against
SIMPLEX_GAP_TOL = 1e-6
SIMPLEX_MAX_EVALS = 200
_ARMIJO = 1e-4
_NONMONOTONE = 10


def simplex_maximize(fg, p0: np.ndarray):
    """Maximize a concave f over the probability simplex from p0 on it.

    fg(p) returns (f(p), grad f(p)). Spectral projected-gradient ascent
    (Birgin, Martinez & Raydan, SIAM J. Optim. 2000): each direction points
    to the projection of p + step * grad, the step alternating the two
    Barzilai-Borwein steps, and backtracking halves the move until f beats
    the smallest of the last _NONMONOTONE accepted values by the Armijo
    margin. Stops once the Frank-Wolfe gap max_i g_i - g.p, which bounds
    f* - f(p) for concave f, is at most SIMPLEX_GAP_TOL * max(1, |f|), or
    after SIMPLEX_MAX_EVALS calls of fg. Returns (p, f(p), gap); p is p0 or
    an array that was passed to fg.
    """
    p = p0
    f, g = fg(p)
    recent = deque([f], maxlen=_NONMONOTONE)
    step, d, bb2 = 1.0, None, False
    for _ in range(SIMPLEX_MAX_EVALS - 1):
        if g.max() - g @ p <= SIMPLEX_GAP_TOL * max(1.0, abs(f)):
            break
        if d is None:
            d = _simplex_project(p + step * g) - p
            lam = 1.0
        cand = p + lam * d
        if np.array_equal(cand, p):
            break
        fc, gc = fg(cand)
        if not fc >= min(recent) + _ARMIJO * lam * float(g @ d):
            lam *= 0.5
            continue
        s_k, y_k = cand - p, g - gc
        sy = float(s_k @ y_k)
        if sy > 0:
            step = sy / float(y_k @ y_k) if bb2 else float(s_k @ s_k) / sy
            bb2 = not bb2
        p, f, g, d = cand, fc, gc, None
        recent.append(f)
    return p, f, float(g.max() - g @ p)


@np.errstate(over="ignore", invalid="ignore")
def _statistical_estimate(scenario: QosScenario, snr: float, factors,
                          p: np.ndarray, n_samples: int):
    """Effective rate of K = U diag(p) U^dagger and its gradient in p, on
    per-chunk factors F (`_statistical_factor`), batch last.

    With g = n_R * snr, X = F (g diag(p))^{1/2} and the Cholesky factor L of
    C = I + X X^dagger, the rate is log2 det C = 2 sum_j log2 L_jj and its
    derivative in p_i is g/ln2 |L^{-1} f_i|^2, f_i the i-th column of F.
    L^dagger is the R of a Householder QR of [I; X^dagger], built entry by
    entry, each entry a vector over the chunk: every L_jj^2 = 1 + |z_j|^2
    is a sum of squares, where factoring a formed C would cancel digits at
    high SNR. The gradient divides by no p_i, so vertices are fine.

    Every per-chunk array is a view of the thread's `_SCRATCH`, about
    3 k n_T n complex values for a (k, n_T, n) factor, each written through
    `out=` with the operands of the plain expression in its order.

    A draw whose log det overflows, or turns NaN on the way, raises
    NumericError from its chunk's sum of the per-draw log dets, before its
    exponent -inf could be weighted e^-inf = 0.
    """
    a = scenario.theta_tb
    gain = scenario.n_r * snr
    denom = a * scenario.n_r
    acc = _LogMeanExp()
    for f in factors:
        k, n_t, n = f.shape
        if k > len(p):
            raise DomainError(f"a factor has {k} rows, more than n_T = "
                              f"{len(p)}; pass (k, n_T, n) factors")
        # cols[off[j] + i - j - 1] = L_ij for i > j
        off = [j * (2 * k - j - 1) // 2 for j in range(k)]
        (z, zc, prods, ip, cols, ys, sq, sq2, d_rate, q, logdet, t, r,
         inv) = _SCRATCH.views(
            [(k, n_t, n), (n_t, n), (k - 1, n_t, n), (k - 1, n),
             (off[-1], n), (k, n_t, n)],
            [(n_t, n), (n_t, n), (n_t, n), (n,), (n,), (n,), (n,), (k, n)])
        np.conjugate(f, out=z)  # z[j]: column j of X^dagger, then reflected
        z *= np.sqrt(gain * p)[:, None]
        logdet.fill(0.0)
        for j in range(k):
            zj = z[j]
            np.sum(_abs2(zj, sq, sq2), axis=0, out=q)
            logdet += np.log1p(q, out=t)
            np.add(1.0, q, out=r)
            np.sqrt(r, out=r)
            np.divide(1.0, r, out=inv[j])
            if j + 1 < k:
                rest, prod = z[j + 1:], prods[:k - j - 1]
                ipj, colj = ip[:k - j - 1], cols[off[j]:off[j] + k - j - 1]
                np.multiply(np.conjugate(zj, out=zc), rest, out=prod)
                np.sum(prod, axis=1, out=ipj)
                np.multiply(np.conjugate(ipj, out=colj), inv[j], out=colj)
                np.add(1.0, r, out=t)
                np.multiply(r, t, out=t)
                np.divide(ipj, t, out=ipj)
                rest -= np.multiply(zj, ipj[:, None], out=prod)
        total = float(logdet.sum())
        if not math.isfinite(total):
            raise NumericError(f"per-draw rate not finite: log det sum "
                               f"{total}")
        # rows y_j of L^{-1} F by forward substitution
        d_rate.fill(0.0)
        for j in range(k):
            y, rhs = ys[j], f[j]
            for m in range(j):
                np.subtract(rhs, np.multiply(cols[off[m] + j - m - 1], ys[m],
                                             out=prods[0]), out=y)
                rhs = y
            np.multiply(rhs, inv[j], out=y)
            d_rate += _abs2(y, sq, sq2)
        acc.add(np.multiply(-a / LN2, logdet, out=logdet),
                np.multiply(-a / LN2 * gain, d_rate, out=d_rate).T)
    est = EffCapEstimate(value=-acc.log_mean() / denom,
                         std_err=acc.se_log() / denom, n_samples=n_samples)
    return est, -acc.d_log_mean() / denom


def _statistical_factor(h: np.ndarray) -> np.ndarray:
    """Per-draw factors F of a chunk h of draws in the eigenbasis of
    E{H^dagger H}, batch last (k, n_T, n), with F^dagger F = H^dagger H and
    k = min(n_R, n_T): H itself, or the R of its QR decomposition when
    n_R > n_T."""
    if h.shape[1] > h.shape[2]:
        h = np.linalg.qr(h, mode="r")
    return np.ascontiguousarray(h.transpose(1, 2, 0))


def _two_plane_bound(v: np.ndarray, w: np.ndarray) -> float:
    """Maximum over the simplex of the lower of two planes whose values at
    the vertices e_k are v_k and w_k: by LP duality the minimum over lam in
    [0, 1] of max_k (lam v + (1 - lam) w)_k. That maximum is convex and
    piecewise linear in lam, so it is smallest at lam = 0, at lam = 1 or
    where two of its lines cross, lam = (w_j - w_i) / (d_i - d_j) for
    d = v - w. At most max(v) and max(w), and equal to both when v = w."""
    d = v - w
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (w - w[:, None]) / (d[:, None] - d)
    lam = np.concatenate(([0.0, 1.0], lam[(lam > 0.0) & (lam < 1.0)]))
    return float((lam[:, None] * v + (1.0 - lam)[:, None] * w).max(axis=1)
                 .min())


class _UniformTie(Exception):
    """Raised by the optimizer's objective once a cutting-plane bound shows
    that the tie-break will return the uniform allocation."""


def optimize_covariance_statistical(scenario: QosScenario, model: ChannelModel,
                                    snr: float, n_samples: int, seed: int):
    """Maximize the effective rate over K in the eigenbasis of E{H^dagger H}.

    `simplex_maximize` over the power fractions with common random numbers;
    ties within two standard errors are broken toward the uniform allocation.
    E{H^dagger H} is the model's exact one, and the draws of (model,
    n_samples, seed) come in its eigenbasis U (`iter_sample_chunks`), so
    each chunk is its own factors F with F^dagger F = U^dagger H^dagger H U
    (`_statistical_factor`), and every candidate K = U diag(p) U^dagger
    reuses those factors; K is returned in the model's basis.

    The search stops early when the tie is already decided. The sample
    objective is concave in p (minus a log-sum-exp of convex functions), so
    each evaluated p's tangent plane, with the value f(p) + g_i - g.p at the
    vertex e_i, lies above it, and so does the lower of two such planes. At
    every evaluated p the optimum, and so the value the search would end
    on, is at most the maximum over the simplex of the lower of the planes
    at u and at p (`_two_plane_bound`, Kelley's cutting-plane bound), which
    is at most the Frank-Wolfe bound f(p) + max_i g_i - g.p of either. Once
    it is at most f(u) + 2 se(u) - 1e-9 max(1, |f(u)|) at the uniform u,
    the tie-break must return u, and u is returned at once; the 1e-9
    margin covers rounding in f, g and the bound. Where the optimum beats
    the uniform K by more, the bound never gets that low and the search
    runs to its end.
    """
    if scenario.theta <= 0:
        raise DomainError("optimize_covariance_statistical requires theta > 0")
    _check_snr(snr)
    check_shape(scenario, model)
    factors = [_statistical_factor(h)
               for h in iter_sample_chunks(model, n_samples, seed)]
    estimates = {}
    uniform = np.full(scenario.n_t, 1.0 / scenario.n_t)
    v_u = None

    def fg(p):
        nonlocal v_u
        est, grad = _statistical_estimate(scenario, snr, factors, p,
                                          n_samples)
        estimates[p.tobytes()] = est
        v = est.value + (grad - grad @ p)  # the tangent plane at each e_k
        if v_u is None:  # the first call is at uniform
            v_u = v
        tie = estimates[uniform.tobytes()]
        if (_two_plane_bound(v_u, v) <= tie.value + 2.0 * tie.std_err
                - 1e-9 * max(1.0, abs(tie.value))):
            raise _UniformTie
        return est.value, grad

    try:
        p, _, _ = simplex_maximize(fg, uniform)
    except _UniformTie:
        p = uniform
    best = estimates[p.tobytes()]
    uniform_est = estimates[uniform.tobytes()]
    if best.value <= uniform_est.value + 2.0 * uniform_est.std_err:
        p, best = uniform, uniform_est
    u = model.mean_gram_eig[1]
    return (u * p) @ u.conj().T, best
