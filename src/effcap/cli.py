"""Command-line entry point, and the one module of effcap that prints.

Exit codes: 0 success, 1 validation failure, 2 config error (an unread
key or an unreadable config or unwritable output path), 3 numeric error.
"""

from __future__ import annotations

import argparse
import math
import sys
from fnmatch import fnmatchcase
from typing import Callable, NamedTuple

from . import asymptotics as asy
from .config import (KEYS, RunConfig, apply_overrides, finite_snr,
                     parse_kv_text)
from .errors import ConfigError, DomainError, FitError, NumericError
from .figures import (SWEEP_COLUMNS, _claim, _write_csv, config_rows,
                      reproduce_figure, run_sweep)
from .queuesim import validate_theta
from .validation import SUITES, run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(args) -> RunConfig:
    """The run config of --config, then --set, then the flags, refusing any
    key the command does not read; args.out becomes output.path if any of
    them names it, so that all three reach a one-row report alike."""
    kv = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            kv = parse_kv_text(fh.read())
    kv = apply_overrides(kv, args.set)
    cmd = COMMANDS[args.command]
    unread = [k for k in kv if not cmd.reads(k)]
    if unread:
        raise ConfigError(f"{args.command} reads only {', '.join(cmd.keys)}; "
                          f"refused {', '.join(unread)}")
    for key, flag in _FLAGS.items():
        if getattr(args, flag, None) is not None:
            kv[key] = getattr(args, flag)
    args.out = kv.get("output.path")
    if not cmd.reads("scenario.theta_hat"):
        kv["scenario.theta_hat"] = 0.0  # the grids carry their own scenarios
    return RunConfig(kv)


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _report(args, fields, out=None):
    """Print each (key, value) field as `key = value`, floats as %.12g,
    and write the same fields to out as a one-row CSV."""
    for key, val in fields:
        _say(args, f"{key} = {val:.12g}" if isinstance(val, float) else
             f"{key} = {val}")
    if out:
        _write_csv(out, [key for key, _ in fields], [[v for _, v in fields]])


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    path = cfg.kv["output.path"]
    with _claim(path) as tmp:
        run_sweep(cfg, tmp)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_bit_energy(args) -> int:
    cfg = _load_config(args)
    path = cfg.kv["output.path"]
    with _claim(path) as tmp:
        rows = [dict(zip(SWEEP_COLUMNS, row)) for row in config_rows(cfg)]
        # the sweep's points whose rate is positive and at least 10 of its
        # standard errors, both unnormalized
        rows = [(r["eb_n0_db"], rate) for r in rows
                if (rate := r["rate_bits_s_hz"]) > 0
                and rate >= 10.0 * (r["std_err"] * r["n_R"])]
        _write_csv(tmp, ["eb_n0_db", "rate_bits_s_hz"], rows)
    _say(args, f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def cmd_low_snr(args) -> int:
    cfg = _load_config(args)
    sc = cfg.scenario()
    model = cfg.model()
    strategy = cfg.strategy()
    with _claim(args.out) as out:
        d = asy.zero_snr_derivs(asy.zero_snr_moments(
            model, [strategy], cfg.n_samples, cfg.seed)[0], sc)
        em = asy.energy_metrics(d)
        _report(args, [("regime", d.regime), ("first_deriv", d.first_deriv),
                       ("second_deriv", d.second_deriv),
                       ("eb_n0_min_db", em.eb_min_db),
                       ("wideband_slope_s0", em.wideband_slope_s0)], out)
    return EXIT_OK


def cmd_high_snr(args) -> int:
    cfg = _load_config(args)
    # the slope and offset are the uniform input's
    if cfg.kv["strategy.name"] != "uniform":
        raise ConfigError(f"high-snr has metrics only for strategy.name = "
                          f"uniform; refused {cfg.kv['strategy.name']}")
    with _claim(args.out) as out:
        m = asy.highsnr_metrics(cfg.scenario(), cfg.model())
        _report(args, [("s_inf", m.s_inf), ("l_inf", m.l_inf),
                       ("regime", m.regime_note)], out)
    return EXIT_OK


def cmd_sparse_wideband(args) -> int:
    cfg = _load_config(args)
    for key in ("sparse.m", "sparse.p_over_n0"):
        if key not in cfg.kv:
            raise ConfigError(f"{key} required for sparse-wideband")
    swc = asy.SparseWidebandConfig(m=cfg.kv["sparse.m"],
                                   p_over_n0=float(cfg.kv["sparse.p_over_n0"]))
    sc = cfg.scenario()
    model = cfg.model()
    strategy = cfg.strategy()
    with _claim(args.out) as out:
        (eb_b,), eb_s = asy.sparse_ebmin(swc, [sc], model, strategy,
                                         cfg.n_samples, cfg.seed)
        _report(args, [("ebmin_bounded", eb_b),
                       ("ebmin_bounded_db", 10.0 * math.log10(eb_b)),
                       ("ebmin_sublinear", eb_s),
                       ("ebmin_sublinear_db", 10.0 * math.log10(eb_s))], out)
    return EXIT_OK


def cmd_queue_validate(args) -> int:
    cfg = _load_config(args)
    if not finite_snr(args.snr_db):
        raise ConfigError(f"--snr-db {args.snr_db} has no finite linear "
                          f"SNR 10^(dB/10)")
    snr = 10.0 ** (args.snr_db / 10.0)
    res = validate_theta(cfg.scenario(), cfg.model(), cfg.strategy(), snr,
                         args.blocks, cfg.seed, n_samples=cfg.n_samples,
                         trace_path=args.trace_out)
    # the rate in full, so that it and the seed rebuild the trace
    _report(args, [("theta_target", res.theta_target),
                   ("theta_est", res.theta_est),
                   ("tail_r_squared", res.tail_r_squared),
                   ("tail_n_points", res.tail_n_points),
                   ("vacuous", res.vacuous), ("passed", res.passed),
                   ("arrival_per_block", f"{res.arrival_per_block:.17g}"),
                   ("trace_seed", cfg.seed + 1)])
    if args.trace_out:
        _say(args, f"wrote {args.trace_out}")
    return EXIT_OK if res.passed else EXIT_VALIDATION


def cmd_reproduce_fig(args) -> int:
    cfg = _load_config(args)
    curves = reproduce_figure(args.name, out_dir=args.out_dir or ".",
                              n_samples=cfg.n_samples, seed=cfg.seed)
    for c in curves:
        _say(args, f"wrote {c.path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    ok, checks = run_validation(args.suite, n_samples=cfg.n_samples,
                                seed=cfg.seed)
    for c in checks:
        _say(args, f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    _say(args, f"{'OK' if ok else 'FAILED'} "
               f"({sum(c.passed for c in checks)}/{len(checks)} checks)")
    return EXIT_OK if ok else EXIT_VALIDATION


class Command(NamedTuple):
    fn: Callable
    help: str
    keys: tuple  # the config keys, and sections as "name.*", that fn reads

    def reads(self, key) -> bool:
        return any(fnmatchcase(key, k) for k in self.keys)


# the keys of one Monte Carlo run and of the figure and validation grids,
# and the flag of each key that has one, taken where the key is read
_RUN = ("scenario.*", "model.*", "strategy.*", "mc.*")
_GRID = ("mc.seed", "mc.n_samples")
_FLAGS = {"output.path": "out", "mc.seed": "seed", "mc.n_samples": "samples"}

COMMANDS = {
    "sweep": Command(cmd_sweep, "SNR sweep CSV per the config grid",
                     _RUN + ("sweep.*", "output.path")),
    "bit-energy": Command(cmd_bit_energy, "E_b/N0 vs rate curve",
                          _RUN + ("sweep.*", "output.path")),
    "low-snr": Command(cmd_low_snr, "zero-SNR derivatives and energy "
                                    "metrics", _RUN + ("output.path",)),
    # the slope and offset are exact: nothing is drawn
    "high-snr": Command(cmd_high_snr, "high-SNR slope and power offset",
                        ("scenario.*", "model.*", "strategy.name",
                         "output.path")),
    "sparse-wideband": Command(cmd_sparse_wideband,
                               "sparse-multipath minimum bit energies",
                               _RUN + ("sparse.*", "output.path")),
    "queue-validate": Command(cmd_queue_validate,
                              "queue-tail exponent check", _RUN),
    "reproduce-fig": Command(cmd_reproduce_fig, "emit a reference figure "
                                                "dataset (fig1..fig6)", _GRID),
    "validate": Command(cmd_validate, "run a self-check suite", _GRID),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="effcap",
        description="Effective capacity of MIMO block-fading links under "
                    "statistical queueing constraints.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="config override (dotted key, repeatable)")
        for key, flag in _FLAGS.items():
            if cmd.reads(key):
                p.add_argument("--" + flag, type=type(KEYS[key].default),
                               help=f"sets {key}")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=cmd.fn)
    p = sub.choices["queue-validate"]
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--blocks", type=int, default=1_000_000)
    p.add_argument("--trace-out", help="also export the queue trace CSV")
    sub.choices["reproduce-fig"].add_argument("name")
    sub.choices["reproduce-fig"].add_argument("--out", dest="out_dir",
                                              help="output directory")
    sub.choices["validate"].add_argument("suite", choices=[*SUITES, "all"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, OSError) as exc:
        # an OSError is a config or output path that cannot be read or
        # written, and its message names the path
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FitError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
