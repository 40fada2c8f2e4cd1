"""Effective capacity of MIMO block-fading links under statistical
queueing constraints."""

from .channels import (FixedMatrix, IidComplexGaussian, KroneckerCorrelated,
                       MomentEstimates, SpectralSummary, hermitian_eig,
                       max_eig_subspace, mean_gram_mc, spectral_moments_mc)
from .engine import (BeamformingCsit, EffCapEstimate, FixedCovariance,
                     QosScenario, StatisticalOptimized, UniformIdentity,
                     WaterfillingCsit, bit_energy_curve, effective_rate_mc,
                     ergodic_rate_mc, optimize_covariance_statistical)
from .asymptotics import (EnergyMetrics, HighSnrMetrics, LowSnrDerivatives,
                          SparseWidebandConfig, derivs_csit,
                          derivs_statistical, derivs_uniform, energy_metrics,
                          hankel_effective_rate, hankel_mgf,
                          highsnr_metrics, highsnr_slope_empirical,
                          sparse_ebmin_bounded, sparse_ebmin_sublinear)
from .queuesim import (QueueTrace, TailFit, ThetaValidation,
                       estimate_tail_exponent, simulate_queue, validate_theta,
                       write_trace_csv)
from .config import RunConfig, parse_config, serialize_config
from .figures import reproduce_figure, run_sweep
from .validation import run_validation
from .errors import (ConfigError, DomainError, EffcapError, FitError,
                     NumericError)

__version__ = "0.1.0"
