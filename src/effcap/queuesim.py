"""Discrete-time fluid queue driven by the block-fading service process.

The buffer follows the Lindley recursion Q[i+1] = max(Q[i] + a - R[i], 0)
with constant per-block arrivals a and i.i.d. service draws R[i]. Fitting
the tail of the stationary queue distribution recovers the QoS exponent
that the effective-capacity computation promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelModel
from .engine import (CovarianceStrategy, FixedCovariance, QosScenario,
                     StatisticalOptimized, chunk_rates, effective_rate_mc,
                     optimize_covariance_statistical, strategy_spectra)
from .errors import DomainError, FitError

_MIN_BLOCKS = 100_000
_WARMUP_FRACTION = 0.10
# rows per formatted trace-CSV write; bounds the formatting step's memory
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class QueueTrace:
    """Sample path of the buffer occupancy, one entry per block boundary."""

    queue_lengths: np.ndarray  # bits
    services: np.ndarray  # bits per block
    arrival_per_block: float
    n_blocks: int
    warmup_blocks: int

    @property
    def stationary(self) -> np.ndarray:
        return self.queue_lengths[self.warmup_blocks:]

    @property
    def service_mean(self) -> float:
        return float(self.services.mean())

    @property
    def service_variance(self) -> float:
        return float(self.services.var())


@dataclass(frozen=True)
class TailFit:
    theta_est: float  # 1/bit
    r_squared: float
    q_range: tuple
    n_points: int


def lindley_path(arrival: float, services: np.ndarray) -> np.ndarray:
    """Queue lengths after each block, starting from an empty buffer.

    Uses the reflection identity Q[n] = S[n] - min(0, min_{k<=n} S[k]) with
    S the cumulative sum of (arrival - service), which is the Lindley
    recursion unrolled.
    """
    s = np.cumsum(arrival - services)
    return s - np.minimum.accumulate(np.minimum(s, 0.0))


def simulate_queue(scenario: QosScenario, model: ChannelModel,
                   strategy: CovarianceStrategy, snr: float,
                   arrival_per_block: float, n_blocks: int,
                   seed: int) -> QueueTrace:
    """Run the Lindley recursion over n_blocks i.i.d. fading blocks;
    StatisticalOptimized is refused, resolve it to a FixedCovariance."""
    if n_blocks < _MIN_BLOCKS:
        raise DomainError(f"simulate_queue needs n_blocks >= {_MIN_BLOCKS}")
    if arrival_per_block < 0:
        raise DomainError("arrival_per_block must be >= 0")
    bits_per_block = scenario.t * scenario.b
    services = np.concatenate([
        bits_per_block * chunk_rates(ev, strategy, snr, scenario.n_r,
                                     model.n_t)
        for ev in strategy_spectra(model, strategy, n_blocks, seed)])
    q = lindley_path(arrival_per_block, services)
    return QueueTrace(queue_lengths=q, services=services,
                      arrival_per_block=arrival_per_block, n_blocks=n_blocks,
                      warmup_blocks=int(n_blocks * _WARMUP_FRACTION))


def estimate_tail_exponent(trace: QueueTrace, quantile_lo: float = 0.90,
                           quantile_hi: float = 0.999) -> TailFit:
    """Least-squares slope of log P(Q >= q) over the given quantile window."""
    if not (0.5 <= quantile_lo < quantile_hi <= 0.999):
        raise DomainError("quantile window must satisfy "
                          "0.5 <= lo < hi <= 0.999")
    q = trace.stationary
    if len(q) == 0:
        raise FitError("stationary segment is empty")
    levels = np.linspace(quantile_lo, quantile_hi, 60)
    qs = np.quantile(q, levels)
    # collapse duplicate quantile values (flat CDF regions carry no slope
    # information and would just be repeated points)
    qs_round = np.round(qs, 12)
    _, keep = np.unique(qs_round, return_index=True)
    keep.sort()
    if len(keep) < 20:
        raise FitError(
            f"only {len(keep)} distinct tail points in the quantile window")
    x = qs[keep]
    y = np.log(1.0 - levels[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return TailFit(theta_est=float(-slope), r_squared=max(0.0, min(1.0, r2)),
                   q_range=(float(x[0]), float(x[-1])), n_points=len(keep))


@dataclass(frozen=True)
class ThetaValidation:
    theta_target: float
    theta_est: float
    passed: bool
    vacuous: bool
    arrival_per_block: float
    tail_r_squared: float  # R^2 of the tail fit; NaN when vacuous
    tail_n_points: int  # distinct tail points fitted; 0 when vacuous


def validate_theta(scenario: QosScenario, model: ChannelModel,
                   strategy: CovarianceStrategy, snr: float, n_blocks: int,
                   seed: int, arrival_scale: float = 1.0,
                   n_samples: int = 200_000,
                   tolerance: float = 0.15) -> ThetaValidation:
    """Check that the queue built at arrival rate T*B*n_R*C_E(theta)
    decays with exponent theta."""
    return validate_and_trace(scenario, model, strategy, snr, n_blocks, seed,
                              arrival_scale, n_samples, tolerance)[0]


def validate_and_trace(scenario: QosScenario, model: ChannelModel,
                       strategy: CovarianceStrategy, snr: float, n_blocks: int,
                       seed: int, arrival_scale: float = 1.0,
                       n_samples: int = 200_000, tolerance: float = 0.15
                       ) -> tuple[ThetaValidation, QueueTrace]:
    """validate_theta plus the QueueTrace it simulated (with seed + 1)."""
    if scenario.theta <= 0:
        raise DomainError("validate_theta requires theta > 0")
    if isinstance(strategy, StatisticalOptimized):
        # one optimizer run sets both the arrival rate and the serving K
        k, est = optimize_covariance_statistical(scenario, model, snr,
                                                 n_samples, seed)
        strategy = FixedCovariance(k)
    else:
        est = effective_rate_mc(scenario, model, strategy, snr, n_samples,
                                seed)
    arrival = arrival_scale * scenario.t * scenario.b * scenario.n_r \
        * est.value
    trace = simulate_queue(scenario, model, strategy, snr, arrival,
                           n_blocks, seed + 1)
    q = trace.stationary
    if trace.service_variance < 1e-20 * max(1.0, trace.service_mean ** 2) \
            and float(q.max(initial=0.0)) == 0.0:
        # deterministic service above the arrival rate: the tail law holds
        # trivially (the queue never grows), nothing to fit
        return ThetaValidation(scenario.theta, math.nan, True, True, arrival,
                               math.nan, 0), trace
    fit = estimate_tail_exponent(trace)
    rel = abs(fit.theta_est - scenario.theta) / scenario.theta
    return ThetaValidation(scenario.theta, fit.theta_est,
                           rel <= tolerance, False, arrival, fit.r_squared,
                           fit.n_points), trace


def write_trace_csv(trace: QueueTrace, path: str) -> None:
    """Export the queue sample path as (block_index, queue_bits) rows: the
    0-based index, the value as %.12g, CRLF line ends."""
    q = trace.queue_lengths
    # binary mode: encoding each str block through a text wrapper left the
    # resident set 8 MB higher, and growing, over repeated 1e6-block traces
    with open(path, "wb") as fh:
        fh.write(b"block_index,queue_bits\r\n")
        for start in range(0, len(q), _CSV_BLOCK_ROWS):
            block = q[start:start + _CSV_BLOCK_ROWS].tolist()
            cells = [None] * (2 * len(block))
            cells[::2] = range(start, start + len(block))
            cells[1::2] = block
            fh.write(b"%d,%.12g\r\n" * len(block) % tuple(cells))
