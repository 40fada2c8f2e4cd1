import sys
from pathlib import Path

import numpy as np
import pytest

from effcap import asymptotics, channels, cli, queuesim
from effcap.asymptotics import StatisticalMoments
from effcap.channels import (IidComplexGaussian, KroneckerCorrelated,
                             iter_sample_chunks, max_eig_subspace, mean_gram)
from effcap.config import (RunConfig, apply_overrides, parse_config,
                           parse_kv_text, serialize_config)
from effcap.engine import UniformIdentity, WaterfillingCsit
from effcap.errors import ConfigError

BASE = """
scenario.theta_hat = 1.0
scenario.n_r = 2
scenario.n_t = 2
sweep.snr_db_start = -10
sweep.snr_db_stop = 10
sweep.n_points = 5
mc.n_samples = 2000
"""


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

    def test_readme_config_loads(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("```ini\n", 1)[1].split("```")[0]
        cfg = parse_config(block)
        assert (cfg.kv["scenario.n_r"], cfg.kv["sweep.n_points"]) == (2, 41)

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


def run_cli(*argv):
    return cli.main(list(argv))


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
        cfg = self.write_cfg(tmp_path)
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
    def test_low_snr_refuses_fixed_covariance(self, k_diag, capsys):
        # derivs_uniform would report the same numbers for every K
        assert run_cli("low-snr", "--set", "strategy.name=fixed",
                       "--set", f"strategy.k_diag={k_diag}",
                       "--set", "scenario.theta_hat=1",
                       "--set", "scenario.n_r=2", "--set", "scenario.n_t=2",
                       "--samples", "20000") == 2
        out = capsys.readouterr()
        assert "FixedCovariance" in out.err and out.out == ""

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
        ("mc.n_samples", ("high-snr", "--set", "mc.n_samples=true")),
        ("mc.seed", ("high-snr", "--set", "mc.seed=true")),
        ("sparse.m", ("sparse-wideband", "--set", "sparse.m=true",
                      "--set", "sparse.p_over_n0=1e4")),
    ])
    def test_malformed_value_is_config_error(self, key, argv, capsys,
                                             tmp_path, monkeypatch):
        # exit 1 would read as a failed check; a malformed value is a
        # config error that names its key
        monkeypatch.chdir(tmp_path)  # where a sweep let through would write
        assert run_cli(*argv, "--set", "scenario.theta_hat=1") == 2
        out = capsys.readouterr()
        assert key in out.err and out.out == ""

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
        cfg = self.write_cfg(tmp_path)
        assert run_cli("high-snr", "--config", cfg,
                       "--set", "scenario.theta_hat=0.5") == 0
        assert "s_inf = 2" in capsys.readouterr().out

    def test_bit_energy(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "be.csv"
        assert run_cli("bit-energy", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eb_n0_db,rate_bits_s_hz"
        assert len(lines) >= 2

    def test_sparse_wideband(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, BASE + "sparse.m = 5\n"
                                              "sparse.p_over_n0 = 1e4\n")
        assert run_cli("sparse-wideband", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "ebmin_bounded_db" in out
        assert "ebmin_sublinear_db" in out

    def test_sparse_wideband_missing_block(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        assert run_cli("sparse-wideband", "--config", cfg, "--quiet") == 2

    def test_sparse_wideband_zero_channel_numeric_error(self, tmp_path):
        cfg = self.write_cfg(
            tmp_path,
            "scenario.theta_hat = 1.0\n"
            "scenario.n_r = 1\nscenario.n_t = 1\n"
            "model.variant = fixed\nmodel.h_real = 0.0\n"
            "mc.n_samples = 2000\n"
            "sparse.m = 5\nsparse.p_over_n0 = 1e4\n")
        assert run_cli("sparse-wideband", "--config", cfg, "--quiet") == 3

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
        calls = []
        simulate = queuesim.simulate_queue

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        for mod in (queuesim, cli):  # wherever it is bound
            if getattr(mod, "simulate_queue", None) is simulate:
                monkeypatch.setattr(mod, "simulate_queue", counted)
        got = tmp_path / "trace.csv"
        code = run_cli("queue-validate", "--set", "scenario.theta_hat=1.0",
                       "--samples", "20000", "--blocks", "100000",
                       "--seed", "5", "--trace-out", str(got))
        printed = dict(line.split(" = ", 1)
                       for line in capsys.readouterr().out.splitlines()
                       if " = " in line)
        assert code == 0
        assert len(calls) == 1
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

    def test_validate_suite(self):
        assert run_cli("validate", "wideband", "--samples", "20000",
                       "--quiet") == 0

    def test_reproduce_fig(self, tmp_path):
        assert run_cli("reproduce-fig", "fig1", "--out", str(tmp_path),
                       "--samples", "2000", "--quiet") == 0
        made = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert made  # one CSV per curve
        for p in tmp_path.glob("*.csv"):
            assert p.read_text().splitlines()[0].startswith("snr_db")

    def test_reproduce_fig_unknown_name(self, tmp_path):
        assert run_cli("reproduce-fig", "fig99", "--out", str(tmp_path),
                       "--quiet") == 2


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


def _two_pass_statistical_moments(model, n_samples, seed):
    """statistical_moments_mc as it was with a caller-supplied E{H^dag H}:
    one pass of draws for the mean, a second for the moments."""
    summ = max_eig_subspace(mean_gram(model, n_samples, seed))
    l, u = summ.multiplicity_l, summ.max_eig_basis
    a_sum = np.zeros((l, l))
    b_sum = np.zeros((l, l))
    n = 0
    for h in iter_sample_chunks(model, n_samples, seed):
        c = h @ u
        m = c.conj().transpose(0, 2, 1) @ c
        diag = np.real(np.einsum("nii->ni", m))
        a_sum += np.einsum("ni,nj->ij", diag, diag)
        b_sum += np.einsum("nij,nij->ij", m, m.conj()).real
        n += h.shape[0]
    return StatisticalMoments(summ.lambda_max, a_sum / n, b_sum / n)


class TestLowSnrStatistical:
    def test_draws_each_sample_once(self, monkeypatch, capsys):
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
        assert run_cli("low-snr", *KRONECKER_STATISTICAL,
                       "--samples", "20000", "--quiet") == 0
        assert sum(drawn) == 20_000

    @pytest.mark.parametrize("n_samples,seed", [(20_000, 0), (30_000, 4)])
    def test_values_equal_two_pass_bitwise(self, n_samples, seed, capsys):
        argv = KRONECKER_STATISTICAL + ("--samples", str(n_samples),
                                        "--seed", str(seed))
        cfg = cli._load_config(cli.build_parser().parse_args(
            ("low-snr",) + argv))
        model = cfg.model()
        mom = asymptotics.statistical_moments_mc(model, n_samples, seed)
        ref = _two_pass_statistical_moments(model, n_samples, seed)
        assert mom.lambda_max == ref.lambda_max
        assert np.array_equal(mom.e_diag_products, ref.e_diag_products)
        assert np.array_equal(mom.e_abs_sq, ref.e_abs_sq)

        d = asymptotics.derivs_statistical(ref, cfg.scenario())
        em = asymptotics.energy_metrics(d)
        want = [f"regime = {d.regime}",
                f"first_deriv = {d.first_deriv:.12g}",
                f"second_deriv = {d.second_deriv:.12g}",
                f"eb_n0_min_db = {em.eb_min_db:.12g}",
                f"wideband_slope_s0 = {em.wideband_slope_s0:.12g}"]
        assert run_cli("low-snr", *argv) == 0
        assert capsys.readouterr().out.splitlines() == want
