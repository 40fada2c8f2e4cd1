"""Flat dotted key=value run configuration.

Example:

    scenario.theta_hat = 1.0
    scenario.t = 1e-3
    scenario.b = 1e5
    scenario.n_r = 2
    scenario.n_t = 2
    strategy.name = uniform
    sweep.snr_db_start = -20
    sweep.snr_db_stop = 20
    sweep.n_points = 21
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (FixedMatrix, IidComplexGaussian, KroneckerCorrelated)
from .engine import (BeamformingCsit, FixedCovariance, QosScenario,
                     StatisticalOptimized, UniformIdentity, WaterfillingCsit)
from .errors import ConfigError

# every key that some code reads; any other key is refused, so that a
# misspelt one cannot leave its default running without a word
_KEYS = (
    "scenario.theta", "scenario.theta_hat", "scenario.t", "scenario.b",
    "scenario.n_r", "scenario.n_t",
    "model.variant", "model.h_real", "model.h_imag", "model.rho_r",
    "model.rho_t",
    "strategy.name", "strategy.k_diag",
    "sweep.snr_db_start", "sweep.snr_db_stop", "sweep.n_points",
    "mc.n_samples", "mc.seed",
    "sparse.m", "sparse.p_over_n0",
    "output.path",
)
_SECTIONS = tuple(dict.fromkeys(k.split(".", 1)[0] for k in _KEYS))

_STRATEGIES = ("uniform", "waterfilling", "beamforming", "fixed",
               "statistical")

_DEFAULTS = {
    "scenario.t": 1e-3,
    "scenario.b": 1e5,
    "scenario.n_r": 1,
    "scenario.n_t": 1,
    "model.variant": "iid",
    "strategy.name": "uniform",
    "mc.n_samples": 200_000,
    "mc.seed": 0,
    "output.path": "out.csv",
}


def _parse_scalar(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _format_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _check_key(key: str, where: str = "") -> None:
    """Refuse, naming it, a key that no code reads."""
    if key not in _KEYS:
        raise ConfigError(f"{where}unknown config key {key!r} "
                          f"(keys: {', '.join(_KEYS)})")


def parse_kv_text(text: str) -> dict:
    """Parse 'section.key = value' lines into a flat dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        _check_key(key, f"line {lineno}: ")
        out[key] = _parse_scalar(raw)
    return out


def apply_overrides(kv: dict, overrides) -> dict:
    out = dict(kv)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        _check_key(key, "override: ")
        out[key] = _parse_scalar(raw)
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration; section accessors build domain objects."""

    kv: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.kv:
            _check_key(key)
        merged = dict(_DEFAULTS)
        merged.update(self.kv)
        object.__setattr__(self, "kv", merged)
        self._validate()

    def _validate(self):
        bad = []
        has_theta = "scenario.theta" in self.kv
        has_hat = "scenario.theta_hat" in self.kv
        if has_theta == has_hat:
            bad.append("scenario.theta / scenario.theta_hat "
                       "(exactly one required)")
        # numbers that are read as floats; their ranges are the domain
        # objects' to check
        for k in ("scenario.theta", "scenario.theta_hat", "model.rho_r",
                  "model.rho_t", "sweep.snr_db_start", "sweep.snr_db_stop"):
            if k in self.kv and not _is_number(self.kv[k]):
                bad.append(k)
        for k in ("scenario.t", "scenario.b"):
            if not (_is_number(self.kv[k]) and self.kv[k] > 0):
                bad.append(k)
        for k in ("scenario.n_r", "scenario.n_t"):
            if not (isinstance(self.kv[k], int) and self.kv[k] >= 1):
                bad.append(k)
        if self.kv["strategy.name"] not in _STRATEGIES:
            bad.append("strategy.name")
        if self.kv["model.variant"] not in ("iid", "fixed", "kronecker"):
            bad.append("model.variant")
        if any(k.startswith("sweep.") for k in self.kv):
            for k in ("sweep.snr_db_start", "sweep.snr_db_stop",
                      "sweep.n_points"):
                if k not in self.kv:
                    bad.append(k + " (missing)")
            if not bad:
                lo = self.kv["sweep.snr_db_start"]
                hi = self.kv["sweep.snr_db_stop"]
                n = self.kv["sweep.n_points"]
                if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                    bad.append("sweep bounds (need finite start < stop)")
                if not (isinstance(n, int) and n >= 1):
                    bad.append("sweep.n_points")
        if not (isinstance(self.kv["mc.n_samples"], int)
                and self.kv["mc.n_samples"] >= 1000):
            bad.append("mc.n_samples")
        if not (isinstance(self.kv["mc.seed"], int)
                and self.kv["mc.seed"] >= 0):
            bad.append("mc.seed")
        if "sparse.m" in self.kv and not (
                isinstance(self.kv["sparse.m"], int)
                and self.kv["sparse.m"] >= 1):
            bad.append("sparse.m (an integer >= 1)")
        if "sparse.p_over_n0" in self.kv and not (
                _is_number(self.kv["sparse.p_over_n0"])
                and 0 < self.kv["sparse.p_over_n0"] < np.inf):
            bad.append("sparse.p_over_n0 (finite, > 0)")
        if bad:
            raise ConfigError("invalid config fields: " + "; ".join(bad))

    # ------------------------------------------------------------------
    def scenario(self) -> QosScenario:
        kv = self.kv
        common = dict(t=float(kv["scenario.t"]), b=float(kv["scenario.b"]),
                      n_r=kv["scenario.n_r"], n_t=kv["scenario.n_t"])
        if "scenario.theta" in kv:
            return QosScenario(theta=float(kv["scenario.theta"]), **common)
        return QosScenario.from_theta_hat(float(kv["scenario.theta_hat"]),
                                          **common)

    def model(self):
        kv = self.kv
        n_r, n_t = kv["scenario.n_r"], kv["scenario.n_t"]
        variant = kv["model.variant"]
        if variant == "iid":
            return IidComplexGaussian(n_r, n_t)
        if variant == "fixed":
            re = self._float_list("model.h_real", n_r * n_t)
            im = self._float_list("model.h_imag", n_r * n_t,
                                  default=[0.0] * (n_r * n_t))
            h = (np.array(re) + 1j * np.array(im)).reshape(n_r, n_t)
            return FixedMatrix(h)
        # kronecker: exponential correlation rho^{|i-j|} on each side
        rho_r = float(kv.get("model.rho_r", 0.0))
        rho_t = float(kv.get("model.rho_t", 0.0))
        idx_r = np.arange(n_r)
        idx_t = np.arange(n_t)
        r_r = rho_r ** np.abs(idx_r[:, None] - idx_r[None, :])
        r_t = rho_t ** np.abs(idx_t[:, None] - idx_t[None, :])
        return KroneckerCorrelated(r_r.astype(complex), r_t.astype(complex))

    def strategy(self):
        name = self.kv["strategy.name"]
        if name == "uniform":
            return UniformIdentity()
        if name == "waterfilling":
            return WaterfillingCsit()
        if name == "beamforming":
            return BeamformingCsit()
        if name == "statistical":
            return StatisticalOptimized()
        n_t = self.kv["scenario.n_t"]
        diag = self._float_list("strategy.k_diag", n_t)
        return FixedCovariance(np.diag(diag).astype(complex))

    def _float_list(self, key: str, n: int, default=None):
        if key not in self.kv:
            if default is not None:
                return default
            raise ConfigError(f"{key} required (comma-separated, {n} values)")
        raw = str(self.kv[key])
        try:
            vals = [float(x) for x in raw.split(",")]
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated numbers, "
                              f"got {raw!r}") from None
        if len(vals) != n:
            raise ConfigError(f"{key} must have {n} values, got {len(vals)}")
        return vals

    def sweep_grid_db(self) -> np.ndarray:
        if "sweep.snr_db_start" not in self.kv:
            raise ConfigError("sweep block missing")
        return np.linspace(self.kv["sweep.snr_db_start"],
                           self.kv["sweep.snr_db_stop"],
                           self.kv["sweep.n_points"])

    @property
    def n_samples(self) -> int:
        return self.kv["mc.n_samples"]

    @property
    def seed(self) -> int:
        return self.kv["mc.seed"]


def parse_config(text: str) -> RunConfig:
    return RunConfig(parse_kv_text(text))


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for section in _SECTIONS:
        for key in sorted(k for k in cfg.kv if k.startswith(section + ".")):
            lines.append(f"{key} = {_format_scalar(cfg.kv[key])}")
    return "\n".join(lines) + "\n"
