"""Effective capacity of MIMO block-fading links under statistical
queueing constraints."""

from .channels import (FixedMatrix, IidComplexGaussian, KroneckerCorrelated,
                       mean_gram_mc)
from .engine import (BeamformingCsit, EffCapEstimate, FixedCovariance,
                     QosScenario, StatisticalOptimized, UniformIdentity,
                     WaterfillingCsit, effective_rate_mc, ergodic_rate_mc,
                     optimize_covariance_statistical)
from .asymptotics import (EnergyMetrics, HighSnrMetrics, LowSnrDerivatives,
                          SparseWidebandConfig, ZeroSnrMoments, energy_metrics,
                          hankel_effective_rate, hankel_mgf, highsnr_metrics,
                          highsnr_slope_empirical, sparse_ebmin,
                          zero_snr_derivs, zero_snr_moments)
from .queuesim import (QueueTrace, TailFit, ThetaValidation,
                       estimate_tail_exponent, simulate_queue, validate_theta,
                       write_trace_csv)
from .config import RunConfig, parse_config, serialize_config
from .figures import reproduce_figure, run_sweep
from .validation import run_validation
from .errors import (ConfigError, DomainError, EffcapError, FitError,
                     NumericError)

__version__ = "0.1.0"
