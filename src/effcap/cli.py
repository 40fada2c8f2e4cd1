"""Command-line entry point.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numeric
error.
"""

from __future__ import annotations

import argparse
import sys

from . import asymptotics as asy
from .channels import spectral_moments_mc, mean_gram
from .config import RunConfig, apply_overrides, parse_kv_text
from .engine import (StatisticalOptimized, WaterfillingCsit, BeamformingCsit,
                     bit_energy_curve)
from .errors import ConfigError, DomainError, FitError, NumericError
from .figures import _write_csv, reproduce_figure, run_sweep
from .queuesim import validate_and_trace, write_trace_csv
from .validation import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _add_common(p):
    p.add_argument("--config", help="path to a key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override (dotted key, repeatable)")
    p.add_argument("--out", help="output path")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--samples", type=int, help="MC samples per point")
    p.add_argument("--quiet", action="store_true")


def _load_config(args, needs_scenario: bool = True) -> RunConfig:
    kv = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            kv = parse_kv_text(fh.read())
    kv = apply_overrides(kv, args.set)
    if args.seed is not None:
        kv["mc.seed"] = args.seed
    if args.samples is not None:
        kv["mc.n_samples"] = args.samples
    if args.out is not None:
        kv["output.path"] = args.out
    if not needs_scenario and "scenario.theta" not in kv \
            and "scenario.theta_hat" not in kv:
        # figure/validation grids carry their own scenarios
        kv["scenario.theta_hat"] = 0.0
    return RunConfig(kv)


def _say(args, msg):
    if not args.quiet:
        print(msg)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    path = run_sweep(cfg)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_bit_energy(args) -> int:
    cfg = _load_config(args)
    grid = 10.0 ** (cfg.sweep_grid_db() / 10.0)
    rows = bit_energy_curve(cfg.scenario(), cfg.model(), cfg.strategy(),
                            grid, cfg.n_samples, cfg.seed,
                            normalized_per_rx=False)
    path = cfg.kv["output.path"]
    _write_csv(path, ["eb_n0_db", "rate_bits_s_hz"], rows)
    _say(args, f"wrote {path} ({len(rows)} points)")
    return EXIT_OK


def cmd_low_snr(args) -> int:
    cfg = _load_config(args)
    sc = cfg.scenario()
    model = cfg.model()
    strategy = cfg.strategy()
    if isinstance(strategy, (WaterfillingCsit, BeamformingCsit)):
        mom = spectral_moments_mc(model, cfg.n_samples, cfg.seed)
        d = asy.derivs_csit(mom, sc)
    elif isinstance(strategy, StatisticalOptimized):
        d = asy.derivs_statistical(mean_gram(model, cfg.n_samples, cfg.seed),
                                   model, sc, n_samples=cfg.n_samples,
                                   seed=cfg.seed)
    else:
        mom = spectral_moments_mc(model, cfg.n_samples, cfg.seed)
        d = asy.derivs_uniform(mom, sc)
    em = asy.energy_metrics(d)
    for key, val in (("regime", d.regime),
                     ("first_deriv", d.first_deriv),
                     ("second_deriv", d.second_deriv),
                     ("eb_n0_min_db", em.eb_min_db),
                     ("wideband_slope_s0", em.wideband_slope_s0)):
        _say(args, f"{key} = {val:.12g}" if isinstance(val, float) else
             f"{key} = {val}")
    if args.out:
        _write_csv(args.out,
                   ["regime", "first_deriv", "second_deriv", "eb_n0_min_db",
                    "wideband_slope_s0"],
                   [(d.regime, d.first_deriv, d.second_deriv, em.eb_min_db,
                     em.wideband_slope_s0)])
    return EXIT_OK


def cmd_high_snr(args) -> int:
    cfg = _load_config(args)
    m = asy.highsnr_metrics(cfg.scenario(), cfg.model())
    _say(args, f"s_inf = {m.s_inf:.12g}")
    _say(args, f"l_inf = {m.l_inf:.12g}")
    _say(args, f"regime = {m.regime_note}")
    if args.out:
        _write_csv(args.out, ["s_inf", "l_inf", "regime"],
                   [(m.s_inf, m.l_inf, m.regime_note)])
    return EXIT_OK


def cmd_sparse_wideband(args) -> int:
    cfg = _load_config(args)
    for key in ("sparse.m", "sparse.p_over_n0", "sparse.b_c"):
        if key not in cfg.kv:
            raise ConfigError(f"{key} required for sparse-wideband")
    swc = asy.SparseWidebandConfig(m=cfg.kv["sparse.m"],
                                   p_over_n0=float(cfg.kv["sparse.p_over_n0"]),
                                   b_c=float(cfg.kv["sparse.b_c"]))
    sc = cfg.scenario()
    model = cfg.model()
    strategy = cfg.strategy()
    eb_b, eb_b_db = asy.sparse_ebmin_bounded(swc, sc, model, strategy,
                                             cfg.n_samples, cfg.seed)
    eb_s, eb_s_db = asy.sparse_ebmin_sublinear(model, strategy,
                                               cfg.n_samples, cfg.seed)
    _say(args, f"ebmin_bounded_db = {eb_b_db:.12g}")
    _say(args, f"ebmin_sublinear_db = {eb_s_db:.12g}")
    if args.out:
        _write_csv(args.out,
                   ["ebmin_bounded", "ebmin_bounded_db", "ebmin_sublinear",
                    "ebmin_sublinear_db"],
                   [(eb_b, eb_b_db, eb_s, eb_s_db)])
    return EXIT_OK


def cmd_queue_validate(args) -> int:
    cfg = _load_config(args)
    snr = 10.0 ** (args.snr_db / 10.0)
    res, trace = validate_and_trace(cfg.scenario(), cfg.model(),
                                    cfg.strategy(), snr, args.blocks,
                                    cfg.seed, n_samples=cfg.n_samples)
    _say(args, f"theta_target = {res.theta_target:.12g}")
    _say(args, f"theta_est = {res.theta_est:.12g}")
    _say(args, f"tail_r_squared = {res.tail_r_squared:.12g}")
    _say(args, f"tail_n_points = {res.tail_n_points}")
    _say(args, f"vacuous = {res.vacuous}")
    _say(args, f"passed = {res.passed}")
    _say(args, f"arrival_per_block = {res.arrival_per_block:.17g}")
    _say(args, f"trace_seed = {cfg.seed + 1}")
    if args.trace_out:
        write_trace_csv(trace, args.trace_out)
        _say(args, f"wrote {args.trace_out}")
    return EXIT_OK if res.passed else EXIT_VALIDATION


def cmd_reproduce_fig(args) -> int:
    cfg = _load_config(args, needs_scenario=False)
    curves = reproduce_figure(args.name, out_dir=args.out or ".",
                              n_samples=cfg.n_samples, seed=cfg.seed)
    for c in curves:
        _say(args, f"wrote {c.path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_config(args, needs_scenario=False)
    ok, _ = run_validation(args.suite, n_samples=cfg.n_samples,
                           seed=cfg.seed, quiet=args.quiet)
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="effcap",
        description="Effective capacity of MIMO block-fading links under "
                    "statistical queueing constraints.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="SNR sweep CSV per the config grid")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("bit-energy", help="E_b/N0 vs rate curve")
    _add_common(p)
    p.set_defaults(fn=cmd_bit_energy)

    p = sub.add_parser("low-snr", help="zero-SNR derivatives and "
                                       "energy metrics")
    _add_common(p)
    p.set_defaults(fn=cmd_low_snr)

    p = sub.add_parser("high-snr", help="high-SNR slope and power offset")
    _add_common(p)
    p.set_defaults(fn=cmd_high_snr)

    p = sub.add_parser("sparse-wideband", help="sparse-multipath minimum "
                                               "bit energies")
    _add_common(p)
    p.set_defaults(fn=cmd_sparse_wideband)

    p = sub.add_parser("queue-validate", help="queue-tail exponent check")
    _add_common(p)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--blocks", type=int, default=1_000_000)
    p.add_argument("--trace-out", help="also export the queue trace CSV")
    p.set_defaults(fn=cmd_queue_validate)

    p = sub.add_parser("reproduce-fig", help="emit a reference figure "
                                             "dataset (fig1..fig6)")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(fn=cmd_reproduce_fig)

    p = sub.add_parser("validate", help="run a self-check suite")
    p.add_argument("suite",
                   choices=["lowsnr", "highsnr", "wideband", "queue", "all"])
    _add_common(p)
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FitError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
