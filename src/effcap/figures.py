"""CSV dataset generation: SNR sweeps and the six reference figure grids.

Each figure is emitted as one CSV file per curve so downstream plotting
stays trivial. All numeric cells use 12 significant digits.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .channels import IidComplexGaussian
from .config import KEYS, RunConfig
from .engine import QosScenario, UniformIdentity, rate_estimator
from .errors import ConfigError

SWEEP_COLUMNS = ["snr_db", "snr_linear", "rate_bits_s_hz", "rate_per_dim",
                 "std_err", "eb_n0_db", "strategy", "theta_hat", "n_R",
                 "n_T", "n_samples", "seed"]

_FIG_THETA_HAT_SISO = (0.0, 0.5, 1.0, 2.0, 5.0)
_FIG3_THETA_HAT = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
_FIG4_NT = (2, 3, 4, 8, 15)
_FIG56_THETA = (0.0, 0.1, 0.5, 1.0, 2.0)

_T, _B = KEYS["scenario.t"].default, KEYS["scenario.b"].default


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def sweep_rows(scenario: QosScenario, model, strategy, snr_db_grid,
               n_samples: int, seed: int):
    """One row per SNR grid point in the stable sweep schema."""
    estimate = rate_estimator(model, strategy, n_samples, seed)
    name = type(strategy).__name__
    return [_sweep_row(scenario, name, db, estimate, n_samples, seed)
            for db in snr_db_grid]


def _sweep_row(scenario: QosScenario, name: str, db, estimate,
               n_samples: int, seed: int):
    snr = 10.0 ** (db / 10.0)
    est = estimate(scenario, snr)
    unnorm = est.value * scenario.n_r
    eb_db = 10.0 * math.log10(snr / unnorm) if unnorm > 0 else math.inf
    return (float(db), snr, unnorm, est.value, est.std_err, eb_db, name,
            scenario.theta_hat, scenario.n_r, scenario.n_t, n_samples, seed)


def run_sweep(cfg: RunConfig, out_path: str | None = None) -> str:
    """Execute the config's SNR sweep and write the CSV dataset."""
    grid = cfg.sweep_grid_db()
    rows = sweep_rows(cfg.scenario(), cfg.model(), cfg.strategy(), grid,
                      cfg.n_samples, cfg.seed)
    path = out_path or cfg.kv["output.path"]
    _write_csv(path, SWEEP_COLUMNS, rows)
    return path


@dataclass(frozen=True)
class FigureCurve:
    label: str
    path: str
    header: list
    rows: list


def _antenna_figure(name, out_dir, n_samples, seed, curves, snr_db_grid):
    """Figures 1-4 share the sweep schema; one file per curve."""
    strategy = UniformIdentity()
    estimators = {}
    points = []
    for label, theta_hat, n_r, n_t in curves:
        if (n_r, n_t) not in estimators:
            estimators[n_r, n_t] = rate_estimator(
                IidComplexGaussian(n_r, n_t), strategy, n_samples, seed)
        scenario = QosScenario.from_theta_hat(theta_hat, _T, _B, n_r, n_t)
        points.append((label, scenario, estimators[n_r, n_t], []))
    # SNR outside, curves inside: the curves of one shape share the rates
    # their estimator keeps for the current SNR
    for db in snr_db_grid:
        for _, scenario, estimate, rows in points:
            rows.append(_sweep_row(scenario, type(strategy).__name__, db,
                                   estimate, n_samples, seed))
    out = []
    for label, _, _, rows in points:
        path = os.path.join(out_dir, f"{name}_{label}.csv")
        _write_csv(path, SWEEP_COLUMNS, rows)
        out.append(FigureCurve(label, path, SWEEP_COLUMNS, rows))
    return out


_SPARSE_COLUMNS = ["b_c_hz", "m", "snr_linear", "theta", "rate_bits_s_hz",
                   "eb_n0_db", "n_samples", "seed"]


def _sparse_figure(name, out_dir, n_samples, seed, m_schedule, n_points,
                   thetas):
    b_c_grid = np.logspace(4.0, 7.0, n_points)
    n_r = n_t = 2
    p_over_n0 = 1e4
    estimate = rate_estimator(IidComplexGaussian(n_r, n_t), UniformIdentity(),
                              n_samples, seed)
    rows = [[] for _ in thetas]
    # B_c outside, theta inside: the SNR depends on B_c only, so every
    # theta of one B_c shares its rates
    for b_c in b_c_grid:
        m = m_schedule(b_c)
        snr = p_over_n0 / (n_r * m * b_c)
        for theta, curve_rows in zip(thetas, rows):
            # unnormalized rate of one subchannel of bandwidth b_c
            scenario = QosScenario(theta, _T, float(b_c), n_r, n_t)
            rate = estimate(scenario, snr).value * n_r
            eb_db = 10.0 * math.log10(snr / rate) if rate > 0 else math.inf
            curve_rows.append((float(b_c), m, snr, theta, rate, eb_db,
                               n_samples, seed))
    out = []
    for theta, curve_rows in zip(thetas, rows):
        label = ("theta%g" % theta).replace(".", "p")
        path = os.path.join(out_dir, f"{name}_{label}.csv")
        _write_csv(path, _SPARSE_COLUMNS, curve_rows)
        out.append(FigureCurve(label, path, _SPARSE_COLUMNS, curve_rows))
    return out


def reproduce_figure(name: str, out_dir: str = ".", n_samples: int = 200_000,
                     seed: int = 0, theta_values=None, snr_db=None,
                     n_points: int = 25):
    """Emit the per-curve CSV datasets for one of the reference figures.

    theta_values / snr_db override the default parameter grids (useful for
    cheap partial reproductions); figures 5/6 ignore snr_db because their
    SNR is set by the coherence-bandwidth schedule.
    """
    os.makedirs(out_dir, exist_ok=True)

    def _lab(th):
        return ("thetahat%g" % th).replace(".", "p")

    if name == "fig1":
        ths = theta_values if theta_values is not None else _FIG_THETA_HAT_SISO
        grid = snr_db if snr_db is not None else np.linspace(-20, 30, 26)
        curves = [(_lab(th), th, 1, 1) for th in ths]
        return _antenna_figure(name, out_dir, n_samples, seed, curves, grid)
    if name == "fig2":
        ths = theta_values if theta_values is not None else _FIG_THETA_HAT_SISO
        grid = snr_db if snr_db is not None else np.linspace(-40, 10, 26)
        curves = [(_lab(th), th, 1, 1) for th in ths]
        return _antenna_figure(name, out_dir, n_samples, seed, curves, grid)
    if name == "fig3":
        ths = theta_values if theta_values is not None else _FIG3_THETA_HAT
        grid = snr_db if snr_db is not None else np.linspace(-40, 10, 26)
        curves = [(_lab(th), th, 2, 5) for th in ths]
        return _antenna_figure(name, out_dir, n_samples, seed, curves, grid)
    if name == "fig4":
        nts = theta_values if theta_values is not None else _FIG4_NT
        grid = snr_db if snr_db is not None else np.linspace(-40, 10, 26)
        curves = [(f"nT{int(nt)}", 1.0, 2, int(nt)) for nt in nts]
        return _antenna_figure(name, out_dir, n_samples, seed, curves, grid)
    if name == "fig5":
        ths = theta_values if theta_values is not None else _FIG56_THETA
        return _sparse_figure(name, out_dir, n_samples, seed,
                              lambda b_c: 5, n_points, ths)
    if name == "fig6":
        ths = theta_values if theta_values is not None else _FIG56_THETA
        # m grows from 5 to 100 as B_c sweeps 10 kHz -> 10 MHz; the growth
        # schedule is geometric in B_c (the source grid is log-spaced)
        def m_of(b_c):
            frac = (math.log10(b_c) - 4.0) / 3.0
            return max(5, int(round(5.0 * (100.0 / 5.0) ** frac)))
        return _sparse_figure(name, out_dir, n_samples, seed, m_of,
                              n_points, ths)
    raise ConfigError(f"unknown figure name {name!r} (use fig1..fig6)")

