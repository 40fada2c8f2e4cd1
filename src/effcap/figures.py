"""CSV dataset generation: SNR sweeps and the six reference figure grids.

Each figure is emitted as one CSV file per curve so downstream plotting
stays trivial. All numeric cells use 12 significant digits.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
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

_T, _B = KEYS["scenario.t"].default, KEYS["scenario.b"].default


@contextlib.contextmanager
def _claim(path: str | None):
    """Yield a new empty file beside path for the block to write in full,
    then move it onto path; yield None for no path (None or empty).

    Making the file first refuses an unwritable path before any work. A
    block that raises leaves no file of its own, and path as it was. The
    file gets the mode of a plain open(path, "wb"), 0666 less the umask,
    not mkstemp's 0600.
    """
    if not path:
        yield None
        return
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        open(tmp, "xb").close()
    except OSError as exc:
        # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header, rows) -> None:
    """Write a CSV of header and rows, floats to 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(["%.12g" % v if isinstance(v, float) else str(v)
                     for v in row] for row in rows)


def sweep_rows(scenario: QosScenario, model, strategy, snr_db_grid,
               n_samples: int, seed: int):
    """One row per SNR grid point in the stable sweep schema."""
    estimate = rate_estimator(model, strategy, n_samples, seed)
    name = type(strategy).__name__
    rows = []
    for db in snr_db_grid:
        snr = 10.0 ** (db / 10.0)
        rows.append(_sweep_row(scenario, name, db, snr,
                               estimate(scenario, snr), n_samples, seed))
    return rows


def _sweep_row(scenario: QosScenario, name: str, db, snr, est,
               n_samples: int, seed: int):
    unnorm = est.value * scenario.n_r
    return (float(db), snr, unnorm, est.value, est.std_err,
            _eb_db(snr, unnorm), name, scenario.theta_hat, scenario.n_r,
            scenario.n_t, n_samples, seed)


def _eb_db(snr, rate) -> float:
    """E_b/N0 in dB of an unnormalized rate at a linear SNR."""
    return 10.0 * math.log10(snr / rate) if rate > 0 else math.inf


def config_rows(cfg: RunConfig):
    """The sweep rows of the config's SNR grid: `sweep` writes them whole,
    `bit-energy` two of their columns, so both read one E_b/N0."""
    return sweep_rows(cfg.scenario(), cfg.model(), cfg.strategy(),
                      cfg.sweep_grid_db(), cfg.n_samples, cfg.seed)


def run_sweep(cfg: RunConfig, out_path: str | None = None) -> str:
    """Execute the config's SNR sweep and write the CSV dataset."""
    path = out_path or cfg.kv["output.path"]
    _write_csv(path, SWEEP_COLUMNS, config_rows(cfg))
    return path


@dataclass(frozen=True)
class FigureCurve:
    label: str
    path: str
    header: list
    rows: list


def _write_figure(name, out_dir, header, grid, labels, rows_at):
    """Write one CSV per curve, rows_at(x) being the curves' rows at grid
    point x, in curve order."""
    curves = [[] for _ in labels]
    for x in grid:
        for curve, row in zip(curves, rows_at(x)):
            curve.append(row)
    out = []
    for label, curve in zip(labels, curves):
        path = os.path.join(out_dir, f"{name}_{label}.csv")
        _write_csv(path, header, curve)
        out.append(FigureCurve(label, path, header, curve))
    return out


def _estimates(estimates, scenarios, snr):
    """estimates[i](scenarios[i], snr) for each curve i, asked once per
    estimator for all of its curves, which so share one pass over its
    draws."""
    out = [None] * len(scenarios)
    curves_of = {}
    for i, estimate in enumerate(estimates):
        curves_of.setdefault(estimate, []).append(i)
    for estimate, curves in curves_of.items():
        for i, est in zip(curves, estimate([scenarios[i] for i in curves],
                                           snr)):
            out[i] = est
    return out


def _antenna(values, snr_db, n_points, n_samples, seed, db_range, shape):
    """Figures 1-4 in the sweep schema, over snr_db or 26 points across
    db_range: one curve per value, at (theta_hat, n_R, n_T) = shape(value);
    the curves of one n_R x n_T share an estimator."""
    estimator = functools.cache(lambda n_r, n_t: rate_estimator(
        IidComplexGaussian(n_r, n_t), UniformIdentity(), n_samples, seed))
    scenarios = [QosScenario.from_theta_hat(th, _T, _B, n_r, n_t)
                 for th, n_r, n_t in map(shape, values)]
    estimates = [estimator(sc.n_r, sc.n_t) for sc in scenarios]

    def rows_at(db):
        snr = 10.0 ** (db / 10.0)
        return [_sweep_row(sc, "UniformIdentity", db, snr, est, n_samples,
                           seed)
                for sc, est in zip(scenarios,
                                   _estimates(estimates, scenarios, snr))]
    grid = np.linspace(*db_range, 26) if snr_db is None else snr_db
    return SWEEP_COLUMNS, grid, rows_at


_SPARSE_COLUMNS = ["b_c_hz", "m", "snr_linear", "theta", "rate_bits_s_hz",
                   "eb_n0_db", "n_samples", "seed"]


def _sparse(values, snr_db, n_points, n_samples, seed, m_of):
    """Figures 5-6: one curve per theta over n_points log-spaced B_c, on
    2x2 at P/N0 = 1e4 with m_of(B_c) subchannels."""
    n_r = n_t = 2
    estimate = rate_estimator(IidComplexGaussian(n_r, n_t), UniformIdentity(),
                              n_samples, seed)

    def rows_at(b_c):
        m = m_of(b_c)
        snr = 1e4 / (n_r * m * b_c)  # set by B_c alone
        # unnormalized rate of one subchannel of bandwidth b_c
        ests = estimate([QosScenario(theta, _T, float(b_c), n_r, n_t)
                         for theta in values], snr)
        rows = []
        for theta, est in zip(values, ests):
            rate = est.value * n_r
            rows.append((float(b_c), m, snr, theta, rate, _eb_db(snr, rate),
                         n_samples, seed))
        return rows
    return _SPARSE_COLUMNS, np.logspace(4.0, 7.0, n_points), rows_at


_SISO, _FIG56 = (0.0, 0.5, 1.0, 2.0, 5.0), (0.0, 0.1, 0.5, 1.0, 2.0)
# name -> (default curve values, label format of a value, row builder, and
# its own arguments: the dB range and value -> (theta_hat, n_R, n_T) of figs
# 1-4, m(B_c) of figs 5-6, which for fig6 grows geometrically in B_c (the
# source grid is log-spaced) from 5 at 10 kHz to 100 at 10 MHz)
_FIGURES = {
    "fig1": (_SISO, "thetahat%g", _antenna, (-20, 30), lambda th: (th, 1, 1)),
    "fig2": (_SISO, "thetahat%g", _antenna, (-40, 10), lambda th: (th, 1, 1)),
    "fig3": ((0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), "thetahat%g",
             _antenna, (-40, 10), lambda th: (th, 2, 5)),
    "fig4": ((2, 3, 4, 8, 15), "nT%d", _antenna, (-40, 10),
             lambda nt: (1.0, 2, int(nt))),
    "fig5": (_FIG56, "theta%g", _sparse, lambda b_c: 5),
    "fig6": (_FIG56, "theta%g", _sparse, lambda b_c: max(5, int(round(
        5.0 * (100.0 / 5.0) ** ((math.log10(b_c) - 4.0) / 3.0))))),
}


def reproduce_figure(name: str, out_dir: str = ".", n_samples: int = 200_000,
                     seed: int = 0, theta_values=None, snr_db=None,
                     n_points: int = 25):
    """Emit the per-curve CSV datasets for one of the reference figures.

    theta_values / snr_db override the default curve values and SNR grid
    (useful for cheap partial reproductions). The curve values are
    theta_hat for figures 1-3, n_T for figure 4 and theta for figures 5-6.
    Figures 5-6 ignore snr_db, because their SNR is set by the
    coherence-bandwidth schedule over n_points values of B_c; figures 1-4
    ignore n_points. An unknown name is refused before out_dir is made.
    """
    if name not in _FIGURES:
        raise ConfigError(f"unknown figure name {name!r} (use fig1..fig6)")
    values, fmt, build, *args = _FIGURES[name]
    values = tuple(values if theta_values is None else theta_values)
    os.makedirs(out_dir, exist_ok=True)
    header, grid, rows_at = build(values, snr_db, n_points, n_samples, seed,
                                  *args)
    labels = [(fmt % v).replace(".", "p") for v in values]
    return _write_figure(name, out_dir, header, grid, labels, rows_at)
