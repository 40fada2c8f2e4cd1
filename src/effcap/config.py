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

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .channels import (FixedMatrix, IidComplexGaussian, KroneckerCorrelated)
from .engine import (BeamformingCsit, FixedCovariance, QosScenario,
                     StatisticalOptimized, UniformIdentity, WaterfillingCsit)
from .errors import ConfigError

_FLOAT_MAX = sys.float_info.max
_STRATEGIES = {"uniform": UniformIdentity, "waterfilling": WaterfillingCsit,
               "beamforming": BeamformingCsit, "fixed": FixedCovariance,
               "statistical": StatisticalOptimized}


def _number(v) -> bool:
    # NaN and inf pass: QosScenario, KroneckerCorrelated and the sweep
    # bounds rule refuse them under their own names. An integer beyond the
    # largest float does not: converting it raises OverflowError
    return isinstance(v, float) or _integer(-_FLOAT_MAX, _FLOAT_MAX)(v)


def finite_snr(db: float) -> bool:
    """Whether the linear SNR 10^(db/10) of db is finite; it overflows
    above about 3082.5 dB, and NaN fails."""
    try:
        return 10.0 ** (db / 10.0) < math.inf
    except OverflowError:
        return False


def _positive(v) -> bool:
    return _number(v) and v > 0


def _finite_positive(v) -> bool:
    return _number(v) and 0 < v < math.inf


def _integer(least, most=math.inf) -> Callable:
    return lambda v: (isinstance(v, int) and not isinstance(v, bool)
                      and least <= v <= most)


def _one_of(*names) -> Callable:
    return names.__contains__


class Key(NamedTuple):
    default: object  # None: no default
    check: Callable | None  # None: a list checked by _float_list, or a path
    note: str = ""  # added to the key's name when its value is refused


# every key that some code reads, in the order the unknown-key refusal
# lists them; any other key is refused, so that a misspelt one cannot
# leave its default running without a word. The range checks are
# comparisons that NaN fails.
KEYS = {
    "scenario.theta": Key(None, _number),
    "scenario.theta_hat": Key(None, _number),
    "scenario.t": Key(1e-3, _positive),  # the paper's block duration, s
    "scenario.b": Key(1e5, _positive),  # the paper's bandwidth, Hz
    "scenario.n_r": Key(1, _integer(1)),
    "scenario.n_t": Key(1, _integer(1)),
    "model.variant": Key("iid", _one_of("iid", "fixed", "kronecker")),
    "model.h_real": Key(None, None),
    "model.h_imag": Key(None, None),
    "model.rho_r": Key(None, _number),
    "model.rho_t": Key(None, _number),
    "strategy.name": Key("uniform", _one_of(*_STRATEGIES)),
    "strategy.k_diag": Key(None, None),
    "sweep.snr_db_start": Key(None, _number),
    "sweep.snr_db_stop": Key(None, _number),
    "sweep.n_points": Key(None, _integer(1)),
    "mc.n_samples": Key(200_000, _integer(1000)),
    "mc.seed": Key(0, _integer(0)),
    "sparse.m": Key(None, _integer(1, _FLOAT_MAX), "an integer >= 1"),
    "sparse.p_over_n0": Key(None, _finite_positive, "finite, > 0"),
    "output.path": Key("out.csv", None),
}
_SECTIONS = tuple(dict.fromkeys(k.split(".", 1)[0] for k in KEYS))
# the keys that only one model variant or strategy reads
_ONLY_FOR = {("model.variant", "fixed"): ("model.h_real", "model.h_imag"),
             ("model.variant", "kronecker"): ("model.rho_r", "model.rho_t"),
             ("strategy.name", "fixed"): ("strategy.k_diag",)}


def _parse_scalar(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def _format_scalar(v) -> str:
    # str of a float is its repr, the shortest text that reads back equal
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _check_key(key: str, where: str = "") -> None:
    """Refuse, naming it, a key that no code reads."""
    if key not in KEYS:
        raise ConfigError(f"{where}unknown config key {key!r} "
                          f"(keys: {', '.join(KEYS)})")


def _parse_item(item: str, where: str, malformed: str):
    """One 'key = value' item as (key, value), its key checked."""
    if "=" not in item:
        raise ConfigError(malformed)
    key, raw = item.split("=", 1)
    key = key.strip()
    _check_key(key, where)
    return key, _parse_scalar(raw)


def parse_kv_text(text: str) -> dict:
    """Parse 'section.key = value' lines into a flat dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = _parse_item(line, f"line {lineno}: ",
                                     f"line {lineno}: expected key = value")
            out[key] = value
    return out


def apply_overrides(kv: dict, overrides) -> dict:
    return {**kv, **dict(_parse_item(item, "override: ",
                                     f"override {item!r} is not key=value")
                         for item in overrides)}


@dataclass(frozen=True)
class RunConfig:
    """Validated flat configuration; section accessors build domain objects."""

    kv: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.kv:
            _check_key(key)
        defaults = {k: spec.default for k, spec in KEYS.items()
                    if spec.default is not None}
        kv = {**defaults, **self.kv}
        object.__setattr__(self, "kv", kv)
        bad = []
        if ("scenario.theta" in kv) == ("scenario.theta_hat" in kv):
            bad.append("scenario.theta / scenario.theta_hat "
                       "(exactly one required)")
        for key, (_, check, note) in KEYS.items():
            if key in kv and check is not None and not check(kv[key]):
                bad.append(f"{key} ({note})" if note else key)
        for (key, value), only in _ONLY_FOR.items():
            bad += [f"{k} (needs {key} = {value})" for k in only
                    if k in kv and kv[key] != value]
        sweep = [k for k in KEYS if k.startswith("sweep.")]
        if any(k in kv for k in sweep):
            bad += [k + " (missing)" for k in sweep if k not in kv]
            lo = kv.get("sweep.snr_db_start")
            hi = kv.get("sweep.snr_db_stop")
            # start < stop, so a finite linear SNR at stop bounds the grid
            if _number(lo) and _number(hi) and not (
                    -math.inf < lo < hi < math.inf and finite_snr(hi)):
                bad.append("sweep bounds (need finite start < stop, and a "
                           "finite 10^(stop/10): stop below about 3082.5)")
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
            im = (self._float_list("model.h_imag", n_r * n_t)
                  if "model.h_imag" in kv else 0.0)
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
        cls = _STRATEGIES[self.kv["strategy.name"]]
        if cls is not FixedCovariance:
            return cls()
        diag = self._float_list("strategy.k_diag", self.kv["scenario.n_t"])
        return cls(np.diag(diag).astype(complex))

    def _float_list(self, key: str, n: int):
        if key not in self.kv:
            raise ConfigError(f"{key} required (comma-separated, {n} values)")
        raw = str(self.kv[key])
        try:
            vals = [float(x) for x in raw.split(",")]
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated numbers, "
                              f"got {raw!r}") from None
        if len(vals) != n:
            raise ConfigError(f"{key} must have {n} values, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            # a NaN entry would run a whole Monte Carlo pass before failing
            raise ConfigError(f"{key} entries must be finite, got {raw!r}")
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
