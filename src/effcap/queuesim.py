"""Discrete-time fluid queue driven by the block-fading service process.

The buffer follows the Lindley recursion Q[i+1] = max(Q[i] + a - R[i], 0)
with constant per-block arrivals a and i.i.d. service draws R[i]. Fitting
the tail of the stationary queue distribution recovers the QoS exponent
that the effective-capacity computation promises.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .channels import CHUNK, ChannelModel
from .engine import (CovarianceStrategy, FixedCovariance, QosScenario,
                     StatisticalOptimized, check_shape, chunk_rates,
                     effective_rate_mc, optimize_covariance_statistical,
                     strategy_spectra)
from .errors import DomainError, FitError, NumericError
from .figures import _claim

_MIN_BLOCKS = 100_000
_WARMUP_FRACTION = 0.10
# rows per formatted trace-CSV write: the last three digits of the index,
# so a group's rows share one leading index text
_CSV_GROUP_ROWS = 1000
# the quantile window of the stationary queue that the tail slope is fitted
# over, and the relative error in theta that validate_theta accepts
TAIL_QUANTILES = (0.90, 0.999)
THETA_TOLERANCE = 0.15


@dataclass(frozen=True)
class QueueTrace:
    """Sample path of the buffer occupancy, one entry per block boundary,
    with the smallest and largest service of the run."""

    queue_lengths: np.ndarray  # bits
    service_min: float  # bits per block
    service_max: float  # bits per block
    arrival_per_block: float
    n_blocks: int
    warmup_blocks: int

    @property
    def stationary(self) -> np.ndarray:
        return self.queue_lengths[self.warmup_blocks:]


@dataclass(frozen=True)
class TailFit:
    theta_est: float  # 1/bit
    r_squared: float
    q_range: tuple
    n_points: int


def _lindley_chunk(d: np.ndarray, s: float, low: float):
    """Turn d, one chunk of (arrival - service), into queue lengths in place.

    s is the running sum S and low the running minimum of min(S, 0) carried
    from the blocks before the chunk; the chunk's last ones are returned.
    Adding s to the first entry before the in-place cumsum gives each S the
    bits of one whole-array cumsum, which also adds in order; a minimum is
    exact, so the chunks move no bit.
    """
    d[0] += s
    np.cumsum(d, out=d)
    s = d[-1]
    floor = np.minimum(d, low)
    np.minimum.accumulate(floor, out=floor)
    d -= floor
    return s, floor[-1]


def lindley_path(arrival: float, services: np.ndarray) -> np.ndarray:
    """Queue lengths after each block, starting from an empty buffer.

    Uses the reflection identity Q[n] = S[n] - min(0, min_{k<=n} S[k]) with
    S the cumulative sum of (arrival - service), which is the Lindley
    recursion unrolled. The output array holds (arrival - service) and is
    turned into the queue one CHUNK of blocks at a time (`_lindley_chunk`,
    the step `simulate_queue` also runs); the result is bitwise that of the
    whole-array formula.
    """
    q = np.subtract(arrival, services)
    # -0.0 is the additive identity, so the first block keeps its bits
    s, low = -0.0, 0.0
    for start in range(0, len(q), CHUNK):
        s, low = _lindley_chunk(q[start:start + CHUNK], s, low)
    return q


class _QueueChunks:
    """The queue of simulate_queue, iterated one CHUNK of blocks at a time.

    Each chunk's services are drawn into one reused buffer, which the next
    chunk overwrites, and turned there into queue lengths, with the running
    sum and minimum carried (`_lindley_chunk`): the joined chunks are
    bitwise lindley_path over the joined services. service_min and
    service_max hold the extremes of the services drawn so far; a chunk
    with a service that overflowed or is NaN raises NumericError.
    """

    def __init__(self, scenario: QosScenario, model: ChannelModel,
                 strategy: CovarianceStrategy, snr: float,
                 arrival_per_block: float, n_blocks: int, seed: int):
        if n_blocks < _MIN_BLOCKS:
            raise DomainError(
                f"n_blocks must be >= {_MIN_BLOCKS}, got {n_blocks}")
        if arrival_per_block < 0:
            raise DomainError("arrival_per_block must be >= 0")
        check_shape(scenario, model)
        self.args = (scenario, model, strategy, snr, arrival_per_block,
                     n_blocks, seed)
        self.service_min, self.service_max = math.inf, -math.inf

    def __iter__(self):
        scenario, model, strategy, snr, arrival, n_blocks, seed = self.args
        bits_per_block = scenario.t * scenario.b
        buf = np.empty(CHUNK)
        # -0.0 is the additive identity, so the first block keeps its bits
        s, low = -0.0, 0.0
        for ev in strategy_spectra(model, strategy, n_blocks, seed):
            rates = chunk_rates(ev, strategy, snr, scenario.n_r, model.n_t)
            d = buf[:len(rates)]
            np.multiply(bits_per_block, rates, out=d)
            lo, hi = d.min(), d.max()  # NaN if any service is
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise NumericError(f"per-block service not finite: chunk "
                                   f"min {lo}, max {hi}")
            self.service_min = min(self.service_min, lo)
            self.service_max = max(self.service_max, hi)
            np.subtract(arrival, d, out=d)
            s, low = _lindley_chunk(d, s, low)
            yield d


def simulate_queue(scenario: QosScenario, model: ChannelModel,
                   strategy: CovarianceStrategy, snr: float,
                   arrival_per_block: float, n_blocks: int,
                   seed: int) -> QueueTrace:
    """Run the Lindley recursion over n_blocks i.i.d. fading blocks;
    StatisticalOptimized is refused, resolve it to a FixedCovariance.

    The chunks of `_QueueChunks` are copied into the queue array, the one
    whole-trace array; it is bitwise lindley_path over the joined services.
    """
    chunks = _QueueChunks(scenario, model, strategy, snr, arrival_per_block,
                          n_blocks, seed)
    q = np.empty(n_blocks)
    start = 0
    for d in chunks:
        q[start:start + len(d)] = d
        start += len(d)
    return QueueTrace(queue_lengths=q, service_min=float(chunks.service_min),
                      service_max=float(chunks.service_max),
                      arrival_per_block=arrival_per_block, n_blocks=n_blocks,
                      warmup_blocks=int(n_blocks * _WARMUP_FRACTION))


def _tail_quantiles(chunks, n: int, levels: np.ndarray) -> np.ndarray:
    """np.quantile(q, levels) for ascending levels, bitwise, from the top of
    q only, q being the n values of chunks (arrays of any lengths) joined.

    The 'linear' rule reads ranks floor((n-1)*levels[0]) to n-1, k values.
    A buffer of at most 2k + CHUNK keeps the k largest seen so far: each
    CHUNK of values adds those above the k-th largest at the last cut, and
    the buffer is cut back to its k largest when it reaches 2k. A dropped
    value is no larger than k values the buffer holds, so the k largest
    values of q survive, whatever the partition. Then NumPy's
    interpolation: v = (n-1)*level, gamma = v - floor(v), a + (b-a)*gamma,
    or b - (b-a)*(1-gamma) where gamma >= 0.5. A non-finite q is refused
    with FitError, since the cut would drop a NaN, not propagate it.
    """
    v = (n - 1) * levels
    prev = np.floor(v)
    lo = int(prev[0])
    k = n - lo
    buf = np.empty(min(n, 2 * k + CHUNK))
    m, cut = 0, -math.inf
    for chunk in chunks:
        for start in range(0, len(chunk), CHUNK):
            block = chunk[start:start + CHUNK]
            # min and max propagate NaN
            if not np.isfinite([block.min(), block.max()]).all():
                raise FitError("queue trace is not finite")
            keep = block[block > cut]
            buf[m:m + len(keep)] = keep
            m += len(keep)
            if m >= 2 * k:
                buf[:m].partition(m - k)
                cut = buf[m - k]
                buf[:k] = buf[m - k:m]
                m = k
    top = buf[:m]
    top.partition(m - k)
    top = top[m - k:]
    top.sort()
    i = prev.astype(np.intp) - lo
    a, b = top[i], top[np.minimum(i + 1, k - 1)]
    gamma = v - prev
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


_TAIL_LEVELS = np.linspace(*TAIL_QUANTILES, 60)
# under a tail P(Q >= q) = c e^{-theta q}, the sample quantile at level p
# has standard deviation proportional to sqrt(p / (1 - p)) (independent
# samples), 10.5 times larger at 0.999 than at 0.90; each quantile is
# weighted by the inverse. On the SISO queue at theta_hat 1, SNR 10 dB,
# the fitted theta's spread fell from 5.4% to 3.9% of theta at 1e5
# blocks (2,000 seeds) and from 1.6% to 1.1% at 1e6 (100 seeds)
_TAIL_WEIGHTS = np.sqrt((1.0 - _TAIL_LEVELS) / _TAIL_LEVELS)


def _fit_tail(qs: np.ndarray) -> TailFit:
    """Weighted least-squares fit of the quantiles qs of the stationary
    queue at _TAIL_LEVELS to q = c - log P(Q >= q) / theta, weights
    _TAIL_WEIGHTS; r_squared is the fit's weighted R^2."""
    # collapse duplicate quantile values (flat CDF regions carry no slope
    # information and would just be repeated points)
    qs_round = np.round(qs, 12)
    _, keep = np.unique(qs_round, return_index=True)
    keep.sort()
    if len(keep) < 20:
        raise FitError(
            f"only {len(keep)} distinct tail points in the quantile window")
    # x rises and y falls strictly, so the slope is negative
    x = qs[keep]
    y = np.log(1.0 - _TAIL_LEVELS[keep])
    w = _TAIL_WEIGHTS[keep]
    slope, intercept = np.polyfit(y, x, 1, w=w)
    w2 = w * w
    resid = x - (slope * y + intercept)
    ss_tot = float(w2 @ (x - (w2 @ x) / w2.sum()) ** 2)
    r2 = 1.0 - float(w2 @ resid ** 2) / ss_tot if ss_tot > 0 else 0.0
    return TailFit(theta_est=float(-1.0 / slope),
                   r_squared=max(0.0, min(1.0, r2)),
                   q_range=(float(x[0]), float(x[-1])), n_points=len(keep))


def estimate_tail_exponent(trace: QueueTrace) -> TailFit:
    """Weighted least-squares tail exponent over the TAIL_QUANTILES window
    (`_fit_tail`).

    Its quantiles are bitwise np.quantile's, from a buffer of the top values
    (`_tail_quantiles`); a non-finite trace is refused with FitError.
    """
    q = trace.stationary
    if len(q) == 0:
        raise FitError("stationary segment is empty")
    return _fit_tail(_tail_quantiles([q], len(q), _TAIL_LEVELS))


@dataclass(frozen=True)
class ThetaValidation:
    theta_target: float
    theta_est: float
    passed: bool
    vacuous: bool
    arrival_per_block: float
    tail_r_squared: float  # R^2 of the tail fit; NaN when vacuous
    tail_n_points: int  # distinct tail points fitted; 0 when vacuous


def _past(chunks, warmup: int):
    """Each chunk's part from block `warmup` on."""
    at = 0
    for q in chunks:
        if at + len(q) > warmup:
            yield q[max(warmup - at, 0):]
        at += len(q)


def validate_theta(scenario: QosScenario, model: ChannelModel,
                   strategy: CovarianceStrategy, snr: float, n_blocks: int,
                   seed: int, arrival_scale: float = 1.0,
                   n_samples: int = 200_000,
                   trace_path: str | None = None) -> ThetaValidation:
    """Check that the queue built at arrival rate T*B*n_R*C_E(theta)
    decays with exponent theta, to within THETA_TOLERANCE relative.

    The queue, seeded seed + 1, is one stream of chunks: each goes to the
    tail fit's quantile buffer past the warm-up and, with trace_path, to
    the trace CSV there (`write_trace_csv`'s bytes), so no array of n_blocks
    entries is held. trace_path is claimed before any draw, and is written
    in full or left as it was. For the statistically optimized strategy,
    one optimizer run sets both the arrival rate and the K that serves the
    queue.
    """
    if scenario.theta <= 0:
        raise DomainError("validate_theta requires theta > 0")
    with _claim(trace_path) as tmp:
        if isinstance(strategy, StatisticalOptimized):
            k, est = optimize_covariance_statistical(scenario, model, snr,
                                                     n_samples, seed)
            strategy = FixedCovariance(k)
        else:
            est = effective_rate_mc(scenario, model, strategy, snr,
                                    n_samples, seed)
        arrival = arrival_scale * scenario.t * scenario.b * scenario.n_r \
            * est.value
        queue = _QueueChunks(scenario, model, strategy, snr, arrival,
                             n_blocks, seed + 1)
        warmup = int(n_blocks * _WARMUP_FRACTION)
        # the quantile at level 1 is the stationary queue's maximum
        levels = np.append(_TAIL_LEVELS, 1.0)
        with open(tmp, "wb") if tmp else contextlib.nullcontext() as fh:
            chunks = queue if fh is None else _write_trace(fh, queue)
            qs = _tail_quantiles(_past(chunks, warmup), n_blocks - warmup,
                                 levels)
        # deterministic service above the arrival rate: the tail law holds
        # trivially (the queue never grows), nothing to fit
        if qs[-1] == 0.0 and queue.service_max - queue.service_min \
                <= 1e-10 * max(1.0, queue.service_max):
            return ThetaValidation(scenario.theta, math.nan, True, True,
                                   arrival, math.nan, 0)
        fit = _fit_tail(qs[:-1])
    rel = abs(fit.theta_est - scenario.theta) / scenario.theta
    return ThetaValidation(scenario.theta, fit.theta_est,
                           rel <= THETA_TOLERANCE, False, arrival, fit.r_squared,
                           fit.n_points)


def _row_templates(offset_fmt: bytes):
    """(value, +0.0) row formats of one trace-CSV group, by row offset."""
    offsets = [offset_fmt % i for i in range(_CSV_GROUP_ROWS)]
    return (np.array([o + b",%.12g\r\n" for o in offsets], dtype=object),
            np.array([o + b",0\r\n" for o in offsets], dtype=object))


def _write_trace(fh, chunks):
    """Write the trace CSV of chunks, arrays of queue lengths of any lengths
    joined, to the binary file fh, and yield each chunk on once its rows
    are out.

    Rows go out in groups of _CSV_GROUP_ROWS, each written with one bytes
    format whose index digits are literal text: the group number, then
    the row's three-digit offset. A group that a chunk leaves short is
    carried, at most _CSV_GROUP_ROWS - 1 rows, into the next. A +0.0 value,
    an empty buffer, is the literal 0, so only the other values are
    formatted.
    """
    # group 0's offsets are its whole index, so they are not padded
    first, later = _row_templates(b"%d"), _row_templates(b"%03d")

    def put(g, block):
        n = len(block)
        value_row, zero_row = later if g else first
        zero = block.view(np.uint64) == 0
        rows = np.where(zero, zero_row[:n], value_row[:n]).tolist()
        lead = b"%d" % g if g else b""
        fh.write(lead.join([b"", *rows]) % tuple(block[~zero].tolist()))

    fh.write(b"block_index,queue_bits\r\n")
    g, rest = 0, np.empty(0)
    for chunk in chunks:
        q = np.concatenate((rest, chunk)) if len(rest) else chunk
        whole = len(q) - len(q) % _CSV_GROUP_ROWS
        for start in range(0, whole, _CSV_GROUP_ROWS):
            put(g, q[start:start + _CSV_GROUP_ROWS])
            g += 1
        # a copy: chunk may be a buffer its source reuses
        rest = q[whole:].copy()
        yield chunk
    if len(rest):
        put(g, rest)


def write_trace_csv(trace: QueueTrace, path: str) -> None:
    """Export the queue sample path as (block_index, queue_bits) rows: the
    0-based index, the value as %.12g, CRLF line ends (`_write_trace`)."""
    # binary mode: encoding each str block through a text wrapper left the
    # resident set 8 MB higher, and growing, over repeated 1e6-block traces
    with open(path, "wb") as fh:
        for _ in _write_trace(fh, [np.asarray(trace.queue_lengths,
                                              dtype=float)]):
            pass
