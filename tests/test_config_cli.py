import csv
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from effcap import asymptotics, channels, cli, figures, queuesim
from effcap.channels import IidComplexGaussian, KroneckerCorrelated
from effcap.config import (KEYS, RunConfig, apply_overrides, parse_config,
                           parse_kv_text, serialize_config)
from effcap.engine import (LN2, QosScenario, UniformIdentity,
                           WaterfillingCsit)
from effcap.errors import ConfigError, FitError, NumericError
from effcap.validation import lowsnr_suite, run_validation
from oracles import derivs_statistical, statistical_moments_mc

# the keys that every command running one scenario reads
SCENARIO = """
scenario.theta_hat = 1.0
scenario.n_r = 2
scenario.n_t = 2
"""
# keys that only some of those commands read: sweep and bit-energy read
# all of BASE, the other commands that draw read SCENARIO + MC
SWEEP_KEYS = """
sweep.snr_db_start = -10
sweep.snr_db_stop = 10
sweep.n_points = 5
"""
MC = "mc.n_samples = 2000\n"
BASE = SCENARIO + SWEEP_KEYS + MC


class TestParsing:
    def test_defaults_applied(self):
        cfg = parse_config(BASE)
        assert cfg.kv["scenario.t"] == 1e-3
        assert cfg.kv["strategy.name"] == "uniform"
        assert cfg.n_samples == 2000
        assert cfg.seed == 0
        assert "output.format" not in cfg.kv

    def test_roundtrip_identity(self):
        cfg = parse_config(BASE)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again.kv == cfg.kv
        assert serialize_config(again) == text

    def test_comments_and_blank_lines(self):
        kv = parse_kv_text("# comment\n\nscenario.theta = 0.1  # trailing\n")
        assert kv == {"scenario.theta": 0.1}

    def test_theta_xor_theta_hat(self):
        with pytest.raises(ConfigError):
            parse_config("scenario.n_r = 1\n")  # neither given
        with pytest.raises(ConfigError):
            parse_config("scenario.theta = 0.1\nscenario.theta_hat = 1.0\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("bogus.key = 1\n")
        with pytest.raises(ConfigError):
            parse_kv_text("nodots = 1\n")

    def test_unknown_key_rejected(self):
        # a misspelt key in a known section used to leave its default
        with pytest.raises(ConfigError, match="'scenario.nr'"):
            parse_kv_text("scenario.nr = 4\n")
        with pytest.raises(ConfigError, match="'mc.n_sample'"):
            apply_overrides({}, ["mc.n_sample=5"])
        with pytest.raises(ConfigError, match="'sparse.b_c'"):
            RunConfig({"scenario.theta_hat": 1.0, "sparse.b_c": 1e5})

    def test_readme_config_loads(self, tmp_path):
        # README's run.cfg loads with every command shown with it
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(readme.split("```ini\n", 1)[1].split("```")[0])
        shown = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1]
        loaded = {}
        for line in shown.split("```")[0].replace("\\\n", " ").splitlines():
            if line.startswith("effcap "):
                argv = [str(run_cfg) if a == "run.cfg" else a
                        for a in shlex.split(line)[1:]]
                args = cli.build_parser().parse_args(argv)
                loaded[argv[0]] = cli._load_config(args)
        assert list(loaded) == list(cli.COMMANDS)
        cfg = loaded["sweep"]
        assert (cfg.kv["scenario.n_r"], cfg.kv["sweep.n_points"]) == (2, 41)

    @pytest.mark.parametrize("kv,key,needs", [
        ({"model.rho_r": 0.9}, "model.rho_r", "model.variant = kronecker"),
        ({"model.variant": "fixed", "model.h_real": 1.0, "model.rho_t": 0.9},
         "model.rho_t", "model.variant = kronecker"),
        ({"model.h_real": 1.0}, "model.h_real", "model.variant = fixed"),
        ({"model.variant": "kronecker", "model.h_imag": 0.0},
         "model.h_imag", "model.variant = fixed"),
        ({"strategy.k_diag": 0.5}, "strategy.k_diag", "strategy.name = fixed"),
        ({"strategy.name": "statistical", "strategy.k_diag": 0.5},
         "strategy.k_diag", "strategy.name = fixed"),
    ])
    def test_key_of_another_variant_or_strategy_rejected(self, kv, key,
                                                          needs):
        # it used to be ignored: model.rho_r on the default i.i.d. model
        # gave uncorrelated rates
        with pytest.raises(ConfigError) as exc:
            RunConfig({"scenario.theta_hat": 1.0, **kv})
        assert str(exc.value) == (f"invalid config fields: {key} "
                                  f"(needs {needs})")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("scenario.theta 0.1\n")

    def test_bad_sweep_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("sweep.snr_db_stop = 10",
                                      "sweep.snr_db_stop = -20"))
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("sweep.n_points = 5",
                                      "sweep.n_points = 0"))

    @pytest.mark.parametrize("stop,ok", [(3082.0, True), (3082.6, False),
                                         (4000.0, False)])
    def test_sweep_stop_needs_finite_linear_snr(self, stop, ok):
        # 10^(stop/10) overflows above about 3082.5 dB
        text = BASE.replace("sweep.snr_db_stop = 10",
                            f"sweep.snr_db_stop = {stop}")
        if ok:
            assert parse_config(text).kv["sweep.snr_db_stop"] == stop
            return
        with pytest.raises(ConfigError, match=r"sweep bounds \(need finite "
                                              r"start < stop, and a finite "
                                              r"10\^\(stop/10\)"):
            parse_config(text)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(BASE + "strategy.name = magic\n")

    def test_overrides(self):
        kv = parse_kv_text(BASE)
        kv = apply_overrides(kv, ["mc.seed=7", "strategy.name=waterfilling"])
        cfg = RunConfig(kv)
        assert cfg.seed == 7
        assert isinstance(cfg.strategy(), WaterfillingCsit)
        with pytest.raises(ConfigError):
            apply_overrides(kv, ["noequals"])
        with pytest.raises(ConfigError):
            apply_overrides(kv, ["bogus.key=1"])


class TestDomainObjects:
    def test_scenario_theta_vs_theta_hat(self):
        a = parse_config("scenario.theta_hat = 1.0\n").scenario()
        b = parse_config(
            f"scenario.theta = {a.theta!r}\n").scenario()
        assert abs(a.theta - b.theta) < 1e-18

    def test_iid_model(self):
        m = parse_config(BASE).model()
        assert isinstance(m, IidComplexGaussian)
        assert (m.n_r, m.n_t) == (2, 2)

    def test_fixed_model_from_lists(self):
        cfg = parse_config(
            "scenario.theta_hat = 1.0\n"
            "scenario.n_r = 1\nscenario.n_t = 2\n"
            "model.variant = fixed\n"
            "model.h_real = 1.0, 2.0\n"
            "model.h_imag = 0.0, -1.0\n")
        h = cfg.model().h
        assert np.array_equal(h, np.array([[1.0, 2.0 - 1.0j]]))

    def test_fixed_model_wrong_length(self):
        cfg = parse_config(
            "scenario.theta_hat = 1.0\nscenario.n_r = 2\nscenario.n_t = 2\n"
            "model.variant = fixed\nmodel.h_real = 1.0, 2.0\n")
        with pytest.raises(ConfigError):
            cfg.model()

    def test_kronecker_model(self):
        cfg = parse_config(BASE + "model.variant = kronecker\n"
                                  "model.rho_t = 0.5\n")
        m = cfg.model()
        assert isinstance(m, KroneckerCorrelated)
        assert m.r_t[0, 1] == 0.5
        assert np.array_equal(m.r_r, np.eye(2))

    def test_sweep_grid(self):
        grid = parse_config(BASE).sweep_grid_db()
        assert np.array_equal(grid, np.linspace(-10, 10, 5))
        with pytest.raises(ConfigError):
            parse_config("scenario.theta_hat = 1.0\n").sweep_grid_db()


SWEEP3 = ("--samples", "2000", "--set", "sweep.snr_db_start=0",
          "--set", "sweep.snr_db_stop=10", "--set", "sweep.n_points=3")
FIXED_H2 = ("--samples", "2000", "--set", "model.variant=fixed",
            "--set", "scenario.n_t=2")
HUGE = "9" * 400  # an integer beyond the largest float
SPARSE = ("--set", "sparse.m=5", "--set", "sparse.p_over_n0=1e4")
# an SNR grid whose top point, 3082 dB, is a finite SNR that overflows
# n_R * snr * lambda, and a finite channel whose |h|^2 overflows
HUGE_SNR_SWEEP = ("--set", "sweep.snr_db_start=3000",
                  "--set", "sweep.snr_db_stop=3082",
                  "--set", "sweep.n_points=2")
HUGE_CHANNEL = ("--set", "model.variant=fixed", "--set", "model.h_real=1e200")


# one small run of each subcommand, in the order of cli.COMMANDS
QUIET_ARGV = [
    ("sweep", "--set", "scenario.theta_hat=1", "--out", "out.csv") + SWEEP3,
    ("bit-energy", "--set", "scenario.theta_hat=1",
     "--out", "out.csv") + SWEEP3,
    ("low-snr", "--set", "scenario.theta_hat=1", "--samples", "2000",
     "--out", "out.csv"),
    ("high-snr", "--set", "scenario.theta_hat=1", "--out", "out.csv"),
    ("sparse-wideband", "--set", "scenario.theta_hat=1", "--samples", "2000",
     "--out", "out.csv") + SPARSE,
    ("queue-validate", "--set", "scenario.theta_hat=1", "--samples", "20000",
     "--blocks", "100000", "--trace-out", "trace.csv"),
    ("reproduce-fig", "fig1", "--samples", "2000", "--out", "fig"),
    ("validate", "wideband", "--samples", "20000"),
]


# a valid value of each config key, offered to the commands that do not
# read it
OFFER = {"scenario.theta": 0.01, "scenario.theta_hat": 1.0,
         "scenario.t": 1e-3, "scenario.b": 1e5, "scenario.n_r": 4,
         "scenario.n_t": 3, "model.variant": "kronecker",
         "model.h_real": 1.0, "model.h_imag": 0.0, "model.rho_r": 0.5,
         "model.rho_t": 0.5, "strategy.name": "waterfilling",
         "strategy.k_diag": 1.0, "sweep.snr_db_start": 0,
         "sweep.snr_db_stop": 10, "sweep.n_points": 2,
         "mc.n_samples": 5000, "mc.seed": 1, "sparse.m": 5,
         "sparse.p_over_n0": 1e4, "output.path": "o.csv"}
# every (command, key) pair of a key that the command does not read
UNREAD = [(name, key) for name, c in cli.COMMANDS.items() for key in KEYS
          if not c.reads(key)]


# the commands that write one file, by the flag that names it: --out of
# every command that reads output.path, and queue-validate's --trace-out
ONE_FILE = {**{name: "--out" for name, c in cli.COMMANDS.items()
               if "output.path" in c.keys},
            "queue-validate": "--trace-out"}


def quiet_argv(name):
    return next(a for a in QUIET_ARGV if a[0] == name)


def one_file_argv(name, path):
    """The command's QUIET_ARGV run, writing its one file to path."""
    argv = list(quiet_argv(name))
    argv[argv.index(ONE_FILE[name]) + 1] = path
    return argv


def run_cli(*argv):
    return cli.main(list(argv))


def count_draws(monkeypatch):
    """Patch every effcap binding of iter_sample_chunks to record the size
    of each chunk it draws; returns the record."""
    original = channels.iter_sample_chunks
    drawn = []

    def counting(model, n_samples, seed):
        for h in original(model, n_samples, seed):
            drawn.append(h.shape[0])
            yield h
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "effcap" \
                and getattr(mod, "iter_sample_chunks", None) is original:
            monkeypatch.setattr(mod, "iter_sample_chunks", counting)
    return drawn


class TestCli:
    def write_cfg(self, tmp_path, text=BASE):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_sweep_schema_and_determinism(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(out1),
                       "--quiet") == 0
        assert run_cli("sweep", "--config", cfg, "--out", str(out2),
                       "--quiet") == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["snr_db", "snr_linear", "rate_bits_s_hz",
                              "rate_per_dim", "std_err", "eb_n0_db"]
        assert len(lines) == 6  # header + 5 grid points

    def test_missing_scenario_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli("sweep", "--out", str(out), "--quiet") == 2

    def test_bad_sweep_is_config_error(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        assert run_cli("sweep", "--config", cfg, "--quiet",
                       "--set", "sweep.n_points=0",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_bogus_override_is_config_error(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        assert run_cli("sweep", "--config", cfg, "--quiet",
                       "--set", "nonsense.key=1",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_misspelt_key_is_config_error(self, tmp_path, capsys):
        assert run_cli("high-snr", "--set", "scenario.theta_hat=1",
                       "--set", "scenario.nr=4",
                       "--set", "mc.n_sample=5") == 2
        out = capsys.readouterr()
        assert "'scenario.nr'" in out.err and out.out == ""
        cfg = self.write_cfg(tmp_path, BASE + "mc.sed = 3\n")
        assert run_cli("low-snr", "--config", cfg, "--quiet") == 2
        assert "'mc.sed'" in capsys.readouterr().err

    def test_low_snr(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SCENARIO + MC)
        assert run_cli("low-snr", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "eb_n0_min_db" in out
        assert "wideband_slope_s0" in out

    @pytest.mark.parametrize("argv", [
        ("high-snr", "--set", "scenario.theta_hat=nan",
         "--set", "scenario.n_r=2", "--set", "scenario.n_t=2"),
        ("high-snr", "--set", "scenario.theta_hat=inf"),
        ("high-snr", "--set", "scenario.theta=1", "--set", "scenario.t=inf"),
        ("high-snr", "--set", "scenario.theta=1e300",
         "--set", "scenario.t=1e10"),
        ("low-snr", "--set", "scenario.theta_hat=nan", "--samples", "2000"),
    ])
    def test_non_finite_scenario_is_config_error(self, argv, capsys):
        assert run_cli(*argv) == 2
        out = capsys.readouterr()
        assert "QosScenario" in out.err and out.out == ""

    @pytest.mark.parametrize("k_diag", ["1,0", "0.5,0.5", "0.1,0.1"])
    def test_low_snr_fixed_covariance_values(self, k_diag, capsys):
        # the derivatives of the given K, which were refused: on the i.i.d.
        # model q = tr(HKH^dag) has E{q} = n_R tr K,
        # E{q^2} = n_R^2 (tr K)^2 + n_R tr K^2 and
        # E{r} = tr G^2 = n_R (tr K)^2 + n_R^2 tr K^2
        argv = ("--set", "strategy.name=fixed",
                "--set", f"strategy.k_diag={k_diag}",
                "--set", "scenario.theta_hat=1",
                "--set", "scenario.n_r=2", "--set", "scenario.n_t=2",
                "--samples", "20000")
        assert run_cli("low-snr", *argv) == 0
        cfg = cli._load_config(cli.build_parser().parse_args(
            ("low-snr",) + argv))
        (m,) = asymptotics.zero_snr_moments(cfg.model(), [cfg.strategy()],
                                            20_000, 0)
        d = asymptotics.zero_snr_derivs(m, cfg.scenario())
        em = asymptotics.energy_metrics(d)
        assert capsys.readouterr().out.splitlines() == [
            "regime = fixed", f"first_deriv = {d.first_deriv:.12g}",
            f"second_deriv = {d.second_deriv:.12g}",
            f"eb_n0_min_db = {em.eb_min_db:.12g}",
            f"wideband_slope_s0 = {em.wideband_slope_s0:.12g}"]
        k = [float(x) for x in k_diag.split(",")]
        tr, tr2 = sum(k), sum(x * x for x in k)
        exact = {"e_q": 2 * tr, "e_q_sq": 4 * tr ** 2 + 2 * tr2,
                 "e_r": 2 * tr ** 2 + 4 * tr2}
        for name, want in exact.items():
            assert abs(getattr(m, name) - want) <= 4 * m.std_errs[name]

    @pytest.mark.parametrize("argv", [
        ("sweep", "--set", "scenario.theta_hat=0", *HUGE_SNR_SWEEP),
        ("sweep", "--set", "scenario.theta_hat=1", *HUGE_SNR_SWEEP),
        ("bit-energy", "--set", "scenario.theta_hat=1", *HUGE_SNR_SWEEP),
        ("queue-validate", "--set", "scenario.theta_hat=1",
         "--snr-db", "3082", "--blocks", "100000"),
        ("low-snr", "--set", "scenario.theta_hat=1", *HUGE_CHANNEL),
        ("sparse-wideband", "--set", "scenario.theta_hat=1", *HUGE_CHANNEL,
         *SPARSE),
        ("sweep", "--set", "scenario.theta_hat=1",
         "--set", "strategy.name=waterfilling", *HUGE_SNR_SWEEP),
        ("low-snr", "--set", "scenario.theta_hat=1",
         "--set", "strategy.name=beamforming", *HUGE_CHANNEL),
        ("sparse-wideband", "--set", "scenario.theta_hat=1",
         "--set", "strategy.name=fixed", "--set", "strategy.k_diag=1",
         *HUGE_CHANNEL, *SPARSE),
        ("sweep", "--set", "scenario.theta_hat=1",
         "--set", "strategy.name=statistical", *HUGE_SNR_SWEEP),
        ("sweep", "--set", "scenario.theta_hat=1",
         "--set", "strategy.name=statistical", "--set", "scenario.n_r=4",
         "--set", "model.variant=kronecker", "--set", "model.rho_r=0.7",
         "--set", "model.rho_t=0.9", *HUGE_SNR_SWEEP),
        ("low-snr", "--set", "scenario.theta_hat=1",
         "--set", "model.variant=fixed", "--set", "model.h_real=1e60"),
        ("low-snr", "--set", "scenario.theta_hat=1",
         "--set", "strategy.name=statistical", "--set", "scenario.n_r=1",
         "--set", "scenario.n_t=2", "--set", "model.variant=fixed",
         "--set", "model.h_real=1e100,1"),
    ], ids=["sweep-0", "sweep-1", "bit-energy", "queue-validate", "low-snr",
            "sparse-wideband", "sweep-waterfilling", "low-snr-beamforming",
            "sparse-wideband-fixed", "sweep-statistical",
            "sweep-statistical-qr", "low-snr-squares",
            "low-snr-statistical"])
    def test_non_finite_rate_or_gain_numeric_error(self, argv, tmp_path,
                                                   capsys):
        # a finite SNR or channel whose per-draw rate or gain overflows:
        # the ergodic sweep died with a ValueError, the effective sweep and
        # bit-energy wrote values with the overflowed draws weighted
        # e^-inf = 0, and low-snr and sparse-wideband failed on what
        # followed from the infinite gain. Each also printed NumPy's
        # overflow RuntimeWarning before the refusal; a warning now fails
        # the run, and the refusal is all that stderr holds. The
        # statistical sweep (its objective's log det) and low-snr at a
        # channel whose gain is finite but whose squares behind the
        # standard errors overflow are refused the same way, and so is
        # statistical low-snr at a channel whose largest eigenvalue of
        # E{H^dag H} is finite but whose E{M_ii M_jj} overflows, which died
        # with an IndexError traceback from the simplex projection
        out = tmp_path / "out.csv"
        if argv[0] in ("sweep", "bit-energy"):
            argv += ("--out", str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--samples", "2000", "--quiet") == 3
        err = capsys.readouterr().err
        what = "gain" if argv[0] in ("low-snr", "sparse-wideband") else "rate"
        assert err.startswith(f"numeric error: per-draw {what} not finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("low-snr",), ("sparse-wideband", *SPARSE)],
        ids=["low-snr", "sparse-wideband"])
    def test_huge_channel_statistical_numeric_error(self, argv, capsys):
        # statistical CSI reads the exact E{H^dag H} = H^dag H, whose
        # largest eigenvalue overflows for this channel: low-snr died with
        # a ZeroDivisionError traceback
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--set", "scenario.theta_hat=1",
                           "--set", "strategy.name=statistical",
                           *HUGE_CHANNEL, "--samples", "2000",
                           "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: largest eigenvalue of "
                              "E{H^dagger H} not finite")
        assert err.count("\n") == 1

    def test_non_finite_service_numeric_error(self):
        # a finite SNR whose per-block service overflows: simulate_queue
        # returned NaN queue lengths and raised nothing. No CLI command
        # reaches it, since queue-validate's rate estimate refuses first
        sc = QosScenario.from_theta_hat(1.0, 1e-3, 1e5, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="per-block service not finite"):
                queuesim.simulate_queue(sc, IidComplexGaussian(1, 1),
                                        UniformIdentity(), 1e308, 1.0,
                                        100_000, 0)

    @pytest.mark.parametrize("key,argv", [
        ("sparse.m", ("sparse-wideband", "--set", "sparse.m=abc",
                      "--set", "sparse.p_over_n0=1e4")),
        ("sparse.m", ("sparse-wideband", "--set", "sparse.m=2.5",
                      "--set", "sparse.p_over_n0=1e4")),
        ("sparse.p_over_n0", ("sparse-wideband", "--set", "sparse.m=5",
                              "--set", "sparse.p_over_n0=nan")),
        ("sparse.p_over_n0", ("sparse-wideband", "--set", "sparse.m=5",
                              "--set", "sparse.p_over_n0=x")),
        ("model.rho_t", ("high-snr", "--set", "model.variant=kronecker",
                         "--set", "model.rho_t=abc")),
        ("model.h_imag", ("high-snr", "--set", "model.variant=fixed",
                          "--set", "scenario.n_t=2",
                          "--set", "model.h_real=1,1",
                          "--set", "model.h_imag=a,b")),
        ("strategy.k_diag", ("low-snr", "--set", "strategy.name=fixed",
                             "--set", "scenario.n_t=2",
                             "--set", "strategy.k_diag=1,x")),
        ("sweep.snr_db_start", ("sweep", "--set", "sweep.snr_db_start=abc",
                                "--set", "sweep.snr_db_stop=10",
                                "--set", "sweep.n_points=3")),
        # True is an int to isinstance; n_r = true used to run as 1
        ("scenario.n_r", ("high-snr", "--set", "scenario.n_r=true")),
        ("scenario.n_t", ("high-snr", "--set", "scenario.n_t=true")),
        ("sweep.n_points", ("sweep", "--set", "sweep.snr_db_start=0",
                            "--set", "sweep.snr_db_stop=10",
                            "--set", "sweep.n_points=true")),
        ("mc.n_samples", ("low-snr", "--set", "mc.n_samples=true")),
        ("mc.seed", ("low-snr", "--set", "mc.seed=true")),
        ("sparse.m", ("sparse-wideband", "--set", "sparse.m=true",
                      "--set", "sparse.p_over_n0=1e4")),
        # non-finite list entries used to run a whole pass and exit 3
        ("model.h_real", ("sweep",) + SWEEP3 + FIXED_H2 + (
            "--set", "model.h_real=nan,1")),
        ("model.h_imag", ("sweep",) + SWEEP3 + FIXED_H2 + (
            "--set", "model.h_real=1,1", "--set", "model.h_imag=0,inf")),
        ("strategy.k_diag", ("sweep",) + SWEEP3 + (
            "--set", "strategy.name=fixed", "--set", "scenario.n_t=2",
            "--set", "strategy.k_diag=nan,0.5")),
        ("model.h_real", ("low-snr",) + FIXED_H2 + (
            "--set", "model.h_real=inf,1")),
        ("model.h_imag", ("low-snr",) + FIXED_H2 + (
            "--set", "model.h_real=1,1", "--set", "model.h_imag=nan,0")),
        ("strategy.k_diag", ("low-snr", "--samples", "2000",
                             "--set", "strategy.name=fixed",
                             "--set", "scenario.n_t=2",
                             "--set", "strategy.k_diag=0.5,-inf")),
        # integers too large for a float used to crash float() or NumPy
        # with exit 1 and a traceback
        ("scenario.theta", ("high-snr", "--set", f"scenario.theta={HUGE}")),
        ("scenario.t", ("high-snr", "--set", f"scenario.t={HUGE}")),
        ("model.rho_r", ("high-snr", "--set", "model.variant=kronecker",
                         "--set", f"model.rho_r={HUGE}")),
        ("sweep.snr_db_start", ("sweep",
                                "--set", f"sweep.snr_db_start=-{HUGE}",
                                "--set", "sweep.snr_db_stop=10",
                                "--set", "sweep.n_points=3")),
        ("sparse.p_over_n0", ("sparse-wideband", "--set", "sparse.m=5",
                              "--set", f"sparse.p_over_n0={HUGE}")),
        ("sparse.m", ("sparse-wideband", "--set", f"sparse.m={HUGE}",
                      "--set", "sparse.p_over_n0=1e4")),
        # keys that only another model variant or strategy reads used to
        # be ignored: the i.i.d. model ran uncorrelated
        ("model.rho_r", ("sweep", "--set", "model.rho_r=0.9") + SWEEP3),
        ("strategy.k_diag", ("low-snr", "--set", "strategy.k_diag=0.5",
                             "--samples", "2000")),
    ])
    def test_malformed_value_is_config_error(self, key, argv, capsys,
                                             tmp_path, monkeypatch):
        # exit 1 would read as a failed check; a malformed value is a
        # config error that names its key
        monkeypatch.chdir(tmp_path)  # where a sweep let through would write
        if key != "scenario.theta":  # theta and theta_hat exclude each other
            argv += ("--set", "scenario.theta_hat=1")
        assert run_cli(*argv) == 2
        out = capsys.readouterr()
        assert key in out.err and out.out == ""
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["sweep", "low-snr"])
    @pytest.mark.parametrize("side,value", [("rho_t", "nan"),
                                            ("rho_r", "inf")])
    def test_non_finite_correlation_is_config_error(self, command, side,
                                                    value, tmp_path, capsys):
        # refused when the model is built, before any draw; it used to run
        # a whole pass and exit 3 with a NaN in the log-mean-exp
        argv = [command, "--set", "scenario.theta_hat=1",
                "--set", "model.variant=kronecker",
                "--set", f"model.{side}={value}",
                "--set", "scenario.n_r=2", "--set", "scenario.n_t=2",
                "--samples", "2000"]
        if command == "sweep":
            argv += ["--set", "sweep.n_points=2",
                     "--set", "sweep.snr_db_start=0",
                     "--set", "sweep.snr_db_stop=10",
                     "--out", str(tmp_path / "x.csv")]
        assert run_cli(*argv) == 2
        out = capsys.readouterr()
        name = "r_t" if side == "rho_t" else "r_r"
        assert f"{name} must be finite" in out.err and out.out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_high_snr(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SCENARIO)
        assert run_cli("high-snr", "--config", cfg,
                       "--set", "scenario.theta_hat=0.5") == 0
        assert "s_inf = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["beamforming", "waterfilling",
                                      "fixed", "statistical"])
    def test_high_snr_refuses_all_but_uniform(self, name, tmp_path, capsys):
        # its slope and offset are the uniform input's: beamforming on 2x2
        # at theta_hat = 0.5 printed s_inf = 2, though its rate rises by 1
        # bit/s/Hz per 3 dB
        cfg = self.write_cfg(tmp_path, SCENARIO)
        assert run_cli("high-snr", "--config", cfg,
                       "--set", "scenario.theta_hat=0.5",
                       "--set", f"strategy.name={name}") == 2
        out = capsys.readouterr()
        assert out.err.startswith("config error: ") and out.out == ""
        assert f"strategy.name = uniform; refused {name}" in out.err

    def test_bit_energy(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "be.csv"
        assert run_cli("bit-energy", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eb_n0_db,rate_bits_s_hz"
        assert len(lines) >= 2

    @pytest.mark.parametrize("theta_hat", ["0", "1"])
    def test_bit_energy_zero_channel_header_only(self, theta_hat, tmp_path,
                                                 capsys):
        # a zero channel has rate 0 at every SNR, so no point is kept
        out = tmp_path / "be.csv"
        assert run_cli("bit-energy", "--set", f"scenario.theta_hat={theta_hat}",
                       "--set", "model.variant=fixed",
                       "--set", "model.h_real=0.0", *SWEEP3,
                       "--out", str(out)) == 0
        assert capsys.readouterr().out == f"wrote {out} (0 points)\n"
        assert out.read_text().splitlines() == ["eb_n0_db,rate_bits_s_hz"]

    def test_sparse_wideband(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SCENARIO + MC + "sparse.m = 5\n"
                             "sparse.p_over_n0 = 1e4\n")
        assert run_cli("sparse-wideband", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "ebmin_bounded_db" in out
        assert "ebmin_sublinear_db" in out

    def test_sparse_wideband_missing_block(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SCENARIO + MC)
        assert run_cli("sparse-wideband", "--config", cfg, "--quiet") == 2
        assert "sparse.m required" in capsys.readouterr().err

    def test_sparse_wideband_zero_channel_numeric_error(self, tmp_path):
        cfg = self.write_cfg(
            tmp_path,
            "scenario.theta_hat = 1.0\n"
            "scenario.n_r = 1\nscenario.n_t = 1\n"
            "model.variant = fixed\nmodel.h_real = 0.0\n"
            "mc.n_samples = 2000\n"
            "sparse.m = 5\nsparse.p_over_n0 = 1e4\n")
        assert run_cli("sparse-wideband", "--config", cfg, "--quiet") == 3

    def test_sparse_wideband_statistical_zero_channel_numeric_error(
            self, capsys):
        # the optimized decay of a zero channel is 0; the bounded value was
        # rho / 0, an uncaught ZeroDivisionError
        assert run_cli("sparse-wideband", "--set", "scenario.theta_hat=1",
                       "--set", "model.variant=fixed", "--set",
                       "model.h_real=0.0", "--set", "strategy.name=statistical",
                       *SPARSE, "--samples", "2000", "--quiet") == 3
        assert capsys.readouterr().err.startswith(
            "numeric error: MGF mean did not decay at rho = ")

    @pytest.mark.parametrize("name", ["sweep", "bit-energy"])
    def test_sweep_stop_without_finite_snr_refused_before_any_draw(
            self, name, tmp_path, monkeypatch, capsys):
        # the first points were drawn, then 10^(db/10) overflowed with a
        # NumPy RuntimeWarning before the refusal
        monkeypatch.chdir(tmp_path)
        drawn = count_draws(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(name, "--set", "scenario.theta_hat=1",
                           "--set", "sweep.snr_db_start=-10",
                           "--set", "sweep.snr_db_stop=4000",
                           "--set", "sweep.n_points=3", "--samples", "2000",
                           "--out", "s.csv")
        assert code == 2
        assert drawn == []
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "config error: invalid config fields: sweep bounds (need finite "
            "start < stop, and a finite 10^(stop/10): stop below about "
            "3082.5)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("db", ["4000", "inf", "nan"])
    def test_queue_validate_snr_db_without_finite_snr_refused(
            self, db, monkeypatch, capsys):
        # 4000 dB died with an uncaught OverflowError, exit 1 in a shell,
        # which reads as a failed check
        drawn = count_draws(monkeypatch)
        assert run_cli("queue-validate", "--set", "scenario.theta_hat=1",
                       "--snr-db", db, "--samples", "2000", "--quiet") == 2
        assert drawn == []
        assert capsys.readouterr().err == (
            f"config error: --snr-db {float(db)} has no finite linear SNR "
            f"10^(dB/10)\n")

    def test_queue_validate_short_run_names_n_blocks(self, capsys):
        assert run_cli("queue-validate", "--set", "scenario.theta_hat=1",
                       "--blocks", "1000", "--samples", "2000",
                       "--quiet") == 2
        assert capsys.readouterr().err == (
            "config error: n_blocks must be >= 100000, got 1000\n")

    def test_queue_validate(self, tmp_path):
        cfg = self.write_cfg(tmp_path,
                             "scenario.theta_hat = 1.0\n"
                             "mc.n_samples = 100000\n")
        trace = tmp_path / "trace.csv"
        code = run_cli("queue-validate", "--config", cfg, "--quiet",
                       "--snr-db", "10", "--blocks", "400000",
                       "--trace-out", str(trace))
        assert code == 0
        assert trace.read_text().startswith("block_index,queue_bits")

    def test_queue_validate_reports_tail_fit(self, tmp_path, capsys):
        code = run_cli("queue-validate", "--set", "scenario.theta_hat=1.0",
                       "--samples", "20000", "--blocks", "100000")
        printed = dict(line.split(" = ", 1)
                       for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert 0.9 <= float(printed["tail_r_squared"]) <= 1.0
        assert int(printed["tail_n_points"]) >= 20

    def test_queue_validate_simulates_once(self, tmp_path, capsys,
                                           monkeypatch):
        # one pass of the queue's chunk generator feeds both the tail fit
        # and the trace
        calls = []
        iterate = queuesim._QueueChunks.__iter__

        def counted(self):
            calls.append(self.args)
            return iterate(self)

        monkeypatch.setattr(queuesim._QueueChunks, "__iter__", counted)
        got = tmp_path / "trace.csv"
        code = run_cli("queue-validate", "--set", "scenario.theta_hat=1.0",
                       "--samples", "20000", "--blocks", "100000",
                       "--seed", "5", "--trace-out", str(got))
        printed = dict(line.split(" = ", 1)
                       for line in capsys.readouterr().out.splitlines()
                       if " = " in line)
        assert code == 0
        assert len(calls) == 1
        assert calls[0][-1] == 6  # the trace seed, seed + 1
        monkeypatch.undo()

        cfg = parse_config("scenario.theta_hat = 1.0\n")
        args = (cfg.scenario(), cfg.model(), cfg.strategy(), 10.0)
        res = queuesim.validate_theta(*args, 100_000, 5, n_samples=20_000)
        assert type(res) is queuesim.ThetaValidation
        assert printed["theta_est"] == f"{res.theta_est:.12g}"
        want = tmp_path / "want.csv"
        queuesim.write_trace_csv(queuesim.simulate_queue(
            *args, res.arrival_per_block, 100_000, 6), str(want))
        assert got.read_bytes() == want.read_bytes()

        # the printed rate and seed alone rebuild the same trace
        assert float(printed["arrival_per_block"]) == res.arrival_per_block
        again = tmp_path / "again.csv"
        queuesim.write_trace_csv(queuesim.simulate_queue(
            *args, float(printed["arrival_per_block"]), 100_000,
            int(printed["trace_seed"])), str(again))
        assert got.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("argv", [
        # high-snr draws nothing; queue-validate writes only --trace-out;
        # validate writes nothing
        ("high-snr", "--set", "scenario.theta_hat=1.0", "--seed", "1"),
        ("high-snr", "--set", "scenario.theta_hat=1.0", "--samples", "5000"),
        ("queue-validate", "--set", "scenario.theta_hat=1.0", "--out", "x"),
        ("validate", "wideband", "--out", "x"),
    ])
    def test_flags_without_effect_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_huge_seed_still_runs(self, capsys):
        assert run_cli("low-snr", "--set", "scenario.theta_hat=1",
                       "--samples", "2000", "--seed", HUGE) == 0
        assert "eb_n0_min_db" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("low-snr", "--set", "strategy.name=statistical",
         "--samples", "2000"),
        ("high-snr",),
        ("sparse-wideband", "--samples", "2000") + SPARSE,
    ])
    def test_printed_fields_are_the_csv(self, argv, tmp_path, capsys):
        # every scalar subcommand prints exactly what its --out CSV holds
        out = tmp_path / "r.csv"
        assert run_cli(*argv, "--set", "scenario.theta_hat=1",
                       "--set", "scenario.n_r=2", "--set", "scenario.n_t=2",
                       "--out", str(out)) == 0
        printed = [line.split(" = ", 1)
                   for line in capsys.readouterr().out.splitlines()]
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == [k for k, _ in printed]
        assert row == [v for _, v in printed]

    @pytest.mark.parametrize("argv", [
        ("low-snr", "--samples", "2000"),
        ("high-snr",),
        ("sparse-wideband", "--samples", "2000") + SPARSE,
    ])
    @pytest.mark.parametrize("via", ["set", "config"])
    def test_report_written_to_output_path(self, argv, via, tmp_path,
                                           monkeypatch, capsys):
        # output.path names the one-row CSV however it is set, as --out does
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o.csv"
        if via == "set":
            given = ("--set", f"output.path={out}")
        else:
            given = ("--config", self.write_cfg(
                tmp_path, f"output.path = {out}\n"))
        assert run_cli(*argv, "--set", "scenario.theta_hat=1", *given) == 0
        printed = [line.split(" = ", 1)
                   for line in capsys.readouterr().out.splitlines()]
        with open(out, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == [k for k, _ in printed]
        assert row == [v for _, v in printed]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["o.csv"] + (["run.cfg"] if via == "config" else []))

    @pytest.mark.parametrize("argv", [
        ("low-snr", "--samples", "2000"),
        ("high-snr",),
        ("sparse-wideband", "--samples", "2000") + SPARSE,
    ])
    def test_report_without_output_path_writes_nothing(self, argv, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--set", "scenario.theta_hat=1",
                       "--quiet") == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("validate", "wideband", "--samples", "20000", "--seed", "0"),
        ("reproduce-fig", "fig1", "--samples", "2000"),
    ])
    @pytest.mark.parametrize("key", ["scenario.n_r=4", "scenario.n_t=3",
                                     "strategy.name=waterfilling",
                                     "model.variant=kronecker",
                                     "output.path=o.csv"])
    def test_grid_commands_refuse_keys_they_do_not_read(
            self, argv, key, tmp_path, monkeypatch, capsys):
        # the figure and validation grids fix their own scenarios, so any
        # key but mc.seed and mc.n_samples would be ignored without a word
        self.assert_refused(argv, *key.split("="), tmp_path, monkeypatch,
                            capsys)

    def assert_refused(self, argv, key, value, tmp_path, monkeypatch,
                       capsys):
        """argv given key = value, by --set and by --config, exits 2 and
        names the key, before any draw and with no file made."""
        monkeypatch.chdir(tmp_path)
        drawn = count_draws(monkeypatch)
        cfg = self.write_cfg(tmp_path, f"{key} = {value}\n")
        for given in (("--set", f"{key}={value}"), ("--config", cfg)):
            assert run_cli(*argv, *given, "--quiet") == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {argv[0]} reads only ")
            assert err.endswith(f"; refused {key}\n")
        assert drawn == []
        assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]

    @pytest.mark.parametrize("name,key", UNREAD)
    def test_unread_key_is_refused(self, name, key, tmp_path, monkeypatch,
                                   capsys):
        # a key that the command does not read would leave it reporting a
        # scenario that was not asked for, without a word
        self.assert_refused(quiet_argv(name), key, OFFER[key], tmp_path,
                            monkeypatch, capsys)

    def test_declared_keys_are_config_keys(self):
        for c in cli.COMMANDS.values():
            for declared in c.keys:
                assert any(c._replace(keys=(declared,)).reads(k)
                           for k in KEYS), declared

    @pytest.mark.parametrize("argv", QUIET_ARGV, ids=lambda a: a[0])
    def test_flags_are_the_keys_read(self, argv):
        # --out, --seed and --samples exist exactly where the command reads
        # output.path, mc.seed and mc.n_samples
        args = cli.build_parser().parse_args(argv)
        c = cli.COMMANDS[argv[0]]
        assert ({k for k, flag in cli._FLAGS.items() if hasattr(args, flag)}
                == {k for k in cli._FLAGS if c.reads(k)})

    def test_grid_commands_take_mc_keys(self, tmp_path, capsys):
        assert run_cli("validate", "wideband", "--set", "mc.n_samples=20000",
                       "--set", "mc.seed=0") == 0
        by_set = capsys.readouterr().out
        assert run_cli("validate", "wideband", "--samples", "20000",
                       "--seed", "0") == 0
        assert by_set == capsys.readouterr().out
        assert run_cli("reproduce-fig", "fig1", "--out", str(tmp_path),
                       "--set", "mc.n_samples=2000", "--quiet") == 0
        assert list(tmp_path.glob("*.csv"))

    def test_quiet_cases_cover_every_command(self):
        assert [argv[0] for argv in QUIET_ARGV] == list(cli.COMMANDS)

    @pytest.mark.parametrize("name", list(ONE_FILE))
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_output_refused_before_any_draw(
            self, name, where, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / ("missing/x.csv" if where == "missing-dir"
                           else "x.csv")
        if where == "a-dir":
            path.mkdir()
        drawn = count_draws(monkeypatch)
        assert run_cli(*one_file_argv(name, str(path)), "--quiet") == 2
        assert drawn == []
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err
        assert list(tmp_path.iterdir()) == ([path] if where == "a-dir"
                                            else [])
        assert where == "missing-dir" or list(path.iterdir()) == []

    @pytest.mark.parametrize("name", list(ONE_FILE))
    def test_run_that_raises_leaves_the_path_as_it_was(
            self, name, tmp_path, monkeypatch, capsys):
        # each writer writes part of its file, then fails
        def partial_csv(path, header, rows):
            with open(path, "w") as fh:
                fh.write(",".join(header))
            raise FitError("partial write")

        def partial_trace(fh, chunks):
            fh.write(b"block_index,queue_bits\r\n")
            raise FitError("partial write")
            yield

        monkeypatch.setattr(cli, "_write_csv", partial_csv)
        monkeypatch.setattr(figures, "_write_csv", partial_csv)
        monkeypatch.setattr(queuesim, "_write_trace", partial_trace)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "x.csv"
        for before in (None, b"earlier"):
            if before is not None:
                path.write_bytes(before)
            assert run_cli(*one_file_argv(name, str(path)), "--quiet") == 3
            assert "partial write" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == ([] if before is None
                                                else [path])
        assert path.read_bytes() == b"earlier"

    @pytest.mark.parametrize("argv", QUIET_ARGV)
    def test_quiet_prints_nothing(self, argv, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--quiet") == 0
        assert capsys.readouterr().out == ""

    def test_validate_suite(self):
        assert run_cli("validate", "wideband", "--samples", "20000",
                       "--quiet") == 0

    def test_run_validation_prints_nothing(self, capsys):
        ok, checks = run_validation("wideband", 20000, 0)
        assert ok and checks
        assert capsys.readouterr().out == ""

    def test_validate_prints_each_check(self, capsys):
        assert run_cli("validate", "wideband", "--samples", "20000") == 0
        lines = capsys.readouterr().out.splitlines()
        _, checks = run_validation("wideband", 20000, 0)
        assert lines == [f"PASS {c.name}: {c.detail}" for c in checks] + [
            f"OK ({len(checks)}/{len(checks)} checks)"]

    def test_reproduce_fig(self, tmp_path):
        assert run_cli("reproduce-fig", "fig1", "--out", str(tmp_path),
                       "--samples", "2000", "--quiet") == 0
        made = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert made  # one CSV per curve
        for p in tmp_path.glob("*.csv"):
            assert p.read_text().splitlines()[0].startswith("snr_db")

    def test_reproduce_fig_unknown_name(self, tmp_path):
        # the name is refused before the output directory is made
        assert run_cli("reproduce-fig", "fig99", "--out",
                       str(tmp_path / "new"), "--quiet") == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("sweep", "--config", "{tmp}/missing.cfg"),
        ("queue-validate", "--set", "scenario.theta_hat=1.0", "--blocks",
         "100000", "--samples", "2000", "--trace-out",
         "{tmp}/nodir/trace.csv"),
        ("reproduce-fig", "fig1", "--samples", "2000", "--out",
         "{tmp}/taken"),
    ], ids=["missing-config", "trace-out-dir", "out-is-a-file"])
    def test_unusable_path_is_a_config_error(self, argv, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run_cli(*argv, "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and argv[-1] in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert (tmp_path / "taken").read_text() == ""


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    import effcap
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert effcap.__version__ == meta["project"]["version"]


KRONECKER_STATISTICAL = (
    "--set", "scenario.theta_hat=1.0", "--set", "scenario.n_r=2",
    "--set", "scenario.n_t=2", "--set", "model.variant=kronecker",
    "--set", "model.rho_r=0.7", "--set", "model.rho_t=0.5",
    "--set", "strategy.name=statistical")


class TestLowSnrStatistical:
    def test_near_tie_first_deriv_is_chosen_k_gain(self, capsys):
        # Kronecker 2x2, rho_r 0.7, rho_t 0.004: E{H^dag H} = tr(R_r) R_t
        # has eigenvalues 2.008 and 1.992, no tie, so the chosen K is the
        # top eigenvector's, whose E{q} = tr(K E{H^dag H}) is 2.008, and
        # C'(0) = E{q}/ln2. The Monte Carlo mean (2.0026 and 1.9877) under
        # a 1% tie tolerance merged the two, spread the power over both
        # and reported 2.0026/ln2, above the E{q}/ln2 of the K it chose
        argv = ("--set", "scenario.theta_hat=1.0", "--set", "scenario.n_r=2",
                "--set", "scenario.n_t=2", "--set", "model.variant=kronecker",
                "--set", "model.rho_r=0.7", "--set", "model.rho_t=0.004",
                "--set", "strategy.name=statistical",
                "--samples", "200000", "--seed", "0")
        assert run_cli("low-snr", *argv) == 0
        got = dict(line.split(" = ")
                   for line in capsys.readouterr().out.splitlines())
        cfg = cli._load_config(cli.build_parser().parse_args(
            ("low-snr",) + argv))
        model = cfg.model()
        mean = np.trace(model.r_r).real * model.r_t
        lam = np.linalg.eigvalsh(mean)[-1]
        # printed to 12 significant digits
        assert float(got["first_deriv"]) == pytest.approx(lam / LN2,
                                                          rel=1e-11)
        (mom,) = asymptotics.zero_snr_moments(model, [cfg.strategy()],
                                              200_000, 0)
        assert mom.e_r.shape == (1, 1)
        u = model.mean_gram_eig[1][:, :1]  # p = [1] on the maximal space
        e_q = np.trace(u @ u.conj().T @ mean).real
        d = asymptotics.zero_snr_derivs(mom, cfg.scenario())
        assert d.first_deriv == pytest.approx(e_q / LN2, rel=1e-14)

    def test_draws_each_sample_once(self, monkeypatch, capsys):
        drawn = count_draws(monkeypatch)
        assert run_cli("low-snr", *KRONECKER_STATISTICAL,
                       "--samples", "20000", "--quiet") == 0
        assert sum(drawn) == 20_000

    def test_validate_lowsnr_draws_iid_2x2_moments_once(self, monkeypatch):
        # uniform, beamforming and statistical CSI read their i.i.d. 2x2
        # moments from one pass of 1e6 draws, and the 2x5 uniform moments
        # take another; each of the three rate estimators takes one pass
        # of its 20k draws. The statistical moments took a third 1e6 pass
        drawn = count_draws(monkeypatch)
        lowsnr_suite(20_000, 0)
        assert sum(drawn) == 2 * 1_000_000 + 3 * 20_000

    @pytest.mark.parametrize("n_samples,seed", [(20_000, 0), (30_000, 4)])
    def test_values_equal_two_pass_bitwise(self, n_samples, seed, capsys):
        # the command prints the derivatives of the statistical moments'
        # own pass and formula, bit for bit
        argv = KRONECKER_STATISTICAL + ("--samples", str(n_samples),
                                        "--seed", str(seed))
        cfg = cli._load_config(cli.build_parser().parse_args(
            ("low-snr",) + argv))
        ref = statistical_moments_mc(cfg.model(), n_samples, seed)
        d = derivs_statistical(ref, cfg.scenario())
        em = asymptotics.energy_metrics(d)
        want = [f"regime = {d.regime}",
                f"first_deriv = {d.first_deriv:.12g}",
                f"second_deriv = {d.second_deriv:.12g}",
                f"eb_n0_min_db = {em.eb_min_db:.12g}",
                f"wideband_slope_s0 = {em.wideband_slope_s0:.12g}"]
        assert run_cli("low-snr", *argv) == 0
        assert capsys.readouterr().out.splitlines() == want


class TestSparseWidebandOnePass:
    @pytest.mark.parametrize("argv", [
        ("--set", "scenario.theta_hat=1.0", "--set", "scenario.n_r=2",
         "--set", "scenario.n_t=2"),
        KRONECKER_STATISTICAL], ids=["uniform-iid", "statistical-kronecker"])
    def test_draws_each_sample_once(self, argv, monkeypatch, capsys):
        # the bounded and the sublinear bit energy read one pass of draws;
        # each took its own pass once
        drawn = count_draws(monkeypatch)
        assert run_cli("sparse-wideband", *argv, *SPARSE,
                       "--samples", "20000", "--quiet") == 0
        assert sum(drawn) == 20_000

    def test_validate_wideband_draws_each_grid_once(self, monkeypatch):
        # two theta grids of five scenarios each, one pass per grid; the
        # statistical sublinear check reads the exact i.i.d. mean and
        # draws nothing
        drawn = count_draws(monkeypatch)
        ok, _ = run_validation("wideband", n_samples=20_000, seed=0)
        assert ok
        assert sum(drawn) == 2 * 20_000
