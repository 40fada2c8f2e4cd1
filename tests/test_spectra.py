"""Spectrum reuse pins: sweeps and figures evaluate every point from one
eigensolve of the draws, and the theta curves of one SNR from one pass of
rates; all must equal the per-point Monte Carlo estimators bit for bit, and
the `bit-energy` CSV is two columns of the sweep rows. The spectra
themselves are pinned against LAPACK and, for the closed form of two
eigenvalues, against a 50-digit oracle."""

import csv
import math
from collections import Counter

import numpy as np
import pytest

from effcap import asymptotics, cli, engine, validation
from effcap.channels import (CHUNK, IidComplexGaussian, _gram_eigvalsh,
                             iter_sample_chunks, iter_spectra)
from effcap.engine import (BeamformingCsit, QosScenario, UniformIdentity,
                           WaterfillingCsit, _LogMeanExp, chunk_rates,
                           effective_rate_mc, ergodic_rate_mc, rate_estimator)
from effcap.errors import ConfigError
from effcap.figures import reproduce_figure, sweep_rows
from oracles import complex_gaussian, gram_eigvalsh

T, B = 1e-3, 1e5
N = 2 * CHUNK + 123  # three chunks, the last one partial
SEED = 5
STRATEGIES = [UniformIdentity(), BeamformingCsit(), WaterfillingCsit()]
# strategy.name of each strategy class in a run config
NAMES = {UniformIdentity: "uniform", BeamformingCsit: "beamforming",
         WaterfillingCsit: "waterfilling"}


def per_point(scenario, model, strategy, snr):
    if scenario.theta == 0:
        return ergodic_rate_mc(model, strategy, snr, N, SEED)
    return effective_rate_mc(scenario, model, strategy, snr, N, SEED)


def test_iter_spectra_chunks_and_orientation():
    for n_r, n_t in ((2, 3), (3, 2)):
        model = IidComplexGaussian(n_r, n_t)
        spectra = list(iter_spectra(model, N, SEED))
        assert [len(ev) for ev in spectra] == [CHUNK, CHUNK, 123]
        for ev, h in zip(spectra, iter_sample_chunks(model, N, SEED)):
            assert ev.shape == (len(h), min(n_r, n_t))
            full = np.linalg.eigvalsh(h.conj().transpose(0, 2, 1) @ h)
            np.testing.assert_allclose(ev, full[:, -min(n_r, n_t):],
                                       atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1)])
def test_single_eigenvalue_spectra_equal_eigvalsh(shape, seed):
    # one eigenvalue is read off H (1x1) or off the 1x1 gram; it must be
    # eigvalsh's bits
    model = IidComplexGaussian(*shape)
    for ev, h in zip(iter_spectra(model, N, seed),
                     iter_sample_chunks(model, N, seed)):
        hh = h.conj().transpose(0, 2, 1)
        want = np.linalg.eigvalsh(h @ hh if shape[0] == 1 else hh @ h)
        assert ev.dtype == want.dtype and ev.flags.c_contiguous
        assert np.array_equal(ev, want)


# the shapes whose smaller gram is 2x2, and the bounds of the closed form
# against the exact spectrum: lambda_max relative, lambda_min absolute in
# units of lambda_max. LAPACK on the formed gram is itself up to 4.6 eps
# off the exact spectrum (4.2 eps on these draws), so agreement with it is
# asserted to the sum of the two errors.
TWO = [(2, 2), (2, 3), (3, 2), (2, 5), (5, 2), (2, 15), (15, 2)]
EPS = np.finfo(float).eps
EXACT_TOL, LAPACK_TOL = 4 * EPS, 10 * EPS


def two_row_stack(m, rng):
    """2 x m draws, then rows that are parallel (rank one), one zero, and
    orthogonal of equal norm, each set also scaled by 1e-100, 1e100 and
    1e150."""
    g = complex_gaussian(rng, (48, 2, m))
    x = g[:3, 0]
    parallel = np.stack([x, (0.3 - 0.7j) * x], axis=1)
    zero = np.stack([x, np.zeros_like(x)], axis=1)
    # (p, q, 0...) and (-q*, p*, 0...): b is exactly 0 and a == d
    ortho = np.zeros((3, 2, m), dtype=complex)
    ortho[:, 0, :2] = g[3:6, 0, :2]
    ortho[:, 1, 0] = -ortho[:, 0, 1].conj()
    ortho[:, 1, 1] = ortho[:, 0, 0].conj()
    h = np.concatenate([g, parallel, zero, ortho])
    return np.concatenate([h * s for s in (1.0, 1e-100, 1e100, 1e150)])


def assert_spectra_close(got, want, tol):
    lam = want[:, 1]
    assert np.all(np.abs(got[:, 1] - lam) <= tol * lam)
    assert np.all(np.abs(got[:, 0] - want[:, 0]) <= tol * lam)


@pytest.mark.parametrize("shape", TWO)
def test_two_eigenvalue_spectra_closed_form(shape):
    m = max(shape)
    h = two_row_stack(m, np.random.default_rng(m))
    if shape[0] > shape[1]:
        h = h.transpose(0, 2, 1).copy()
    got = _gram_eigvalsh(h)
    assert got.shape == (len(h), 2) and got.dtype == np.float64
    assert got.flags.c_contiguous
    assert np.all(np.isfinite(got)) and np.all(got[:, 0] <= got[:, 1])
    assert_spectra_close(got, gram_eigvalsh(h), EXACT_TOL)
    hh = h.conj().transpose(0, 2, 1)
    lapack = np.linalg.eigvalsh(h @ hh if shape[0] == 2 else hh @ h)
    assert_spectra_close(got, lapack, LAPACK_TOL)


@pytest.mark.parametrize("shape", [s for s in TWO if s[0] > s[1]])
def test_two_eigenvalue_spectra_of_transpose_bitwise(shape):
    # an m x 2 stack is taken as its contiguous 2 x m transpose, so its
    # spectra are those bits
    h = two_row_stack(shape[0], np.random.default_rng(shape[0]))
    ht = h.transpose(0, 2, 1).copy()
    assert ht.shape[1:] == shape
    assert np.array_equal(_gram_eigvalsh(ht), _gram_eigvalsh(h))


@pytest.mark.parametrize("shape", TWO)
def test_two_eigenvalue_spectra_call_no_eigvalsh(shape, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spectra = list(iter_spectra(IidComplexGaussian(*shape), N, SEED))
    assert [ev.shape for ev in spectra] == [(CHUNK, 2)] * 2 + [(123, 2)]
    assert calls == []


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
@pytest.mark.parametrize("theta_hat", [0.0, 2.0])
@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=lambda s: type(s).__name__)
def test_sweep_rows_equal_per_point_estimates(strategy, theta_hat, shape):
    n_r, n_t = shape
    sc = QosScenario.from_theta_hat(theta_hat, T, B, n_r, n_t)
    model = IidComplexGaussian(n_r, n_t)
    grid = [-10.0, 0.0, 10.0, 20.0]
    rows = sweep_rows(sc, model, strategy, grid, N, SEED)
    for row, db in zip(rows, grid):
        est = per_point(sc, model, strategy, 10.0 ** (db / 10.0))
        assert (row[3], row[4]) == (est.value, est.std_err)


@pytest.mark.parametrize("theta_hat", [0.0, 1.0])
@pytest.mark.parametrize("strategy", STRATEGIES,
                         ids=lambda s: type(s).__name__)
def test_bit_energy_cli_equals_per_point_loop(strategy, theta_hat, tmp_path):
    # the unnormalized rate of each point at SNR 1e-3 .. 1, kept where it is
    # positive and at least 10 standard errors
    sc = QosScenario.from_theta_hat(theta_hat, T, B, 2, 2)
    model = IidComplexGaussian(2, 2)
    expected = []
    for db in np.linspace(-30.0, 0.0, 4):
        snr = 10.0 ** (db / 10.0)
        est = per_point(sc, model, strategy, snr)
        rate, err = est.value * 2, est.std_err * 2
        if rate > 0 and rate >= 10.0 * err:
            expected.append(["%.12g" % (10.0 * math.log10(snr / rate)),
                             "%.12g" % rate])
    out = tmp_path / "be.csv"
    assert cli.main([
        "bit-energy", "--set", f"scenario.theta_hat={theta_hat}",
        "--set", "scenario.n_r=2", "--set", "scenario.n_t=2",
        "--set", f"strategy.name={NAMES[type(strategy)]}",
        "--set", "sweep.snr_db_start=-30", "--set", "sweep.snr_db_stop=0",
        "--set", "sweep.n_points=4", "--samples", str(N),
        "--seed", str(SEED), "--out", str(out), "--quiet"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["eb_n0_db", "rate_bits_s_hz"]] + expected
    assert len(expected) >= 3


def test_fig5_curve_equals_sparse_rate_formula(tmp_path):
    n_points = 3
    curves = reproduce_figure("fig5", out_dir=str(tmp_path), n_samples=N,
                              seed=SEED, theta_values=(0.0, 0.5),
                              n_points=n_points)
    model = IidComplexGaussian(2, 2)
    for curve, theta in zip(curves, (0.0, 0.5)):
        for row, b_c in zip(curve.rows, np.logspace(4.0, 7.0, n_points)):
            snr = 1e4 / (2 * 5 * b_c)
            if theta == 0:
                rate = ergodic_rate_mc(model, UniformIdentity(), snr, N,
                                       SEED).value * 2
            else:
                # the unnormalized rate -log E{e^{-theta T b_c R}}/(theta T
                # b_c), with R the uniform-power log-det rate
                a = theta * T * b_c
                acc = _LogMeanExp()
                for ev in iter_spectra(model, N, SEED):
                    ev = np.clip(ev, 0.0, None)
                    acc.add(-a * np.log2(1.0 + 2 * snr / 2 * ev).sum(axis=1))
                rate = -acc.log_mean() / a
            assert (row[2], row[4]) == (snr, rate)


def test_uniform_rate_keeps_expression_order():
    # per draw, log2(1 + (n_R*snr/n_T) * eig) in that order; with n_T = 3 a
    # reordered product rounds differently on many draws
    model = IidComplexGaussian(2, 3)
    snr = 0.7
    for ev in iter_spectra(model, N, SEED):
        eig = np.clip(ev, 0.0, None)
        want = np.log2(1.0 + 2 * snr / 3 * eig).sum(axis=1)
        assert np.array_equal(
            chunk_rates(ev, UniformIdentity(), snr, 2, 3), want)


def antenna_row(theta_hat, n_r, n_t, db):
    sc = QosScenario.from_theta_hat(theta_hat, T, B, n_r, n_t)
    snr = 10.0 ** (db / 10.0)
    est = per_point(sc, IidComplexGaussian(n_r, n_t), UniformIdentity(), snr)
    unnorm = est.value * n_r
    eb_db = 10.0 * math.log10(snr / unnorm) if unnorm > 0 else math.inf
    return (db, snr, unnorm, est.value, est.std_err, eb_db, "UniformIdentity",
            sc.theta_hat, n_r, n_t, N, SEED)


@pytest.mark.parametrize("name,n_r,n_t", [("fig1", 1, 1), ("fig2", 1, 1),
                                          ("fig3", 2, 5)])
def test_antenna_figure_rows_equal_per_point_estimates(name, n_r, n_t,
                                                       tmp_path):
    thetas, grid = (0.0, 0.5, 5.0), [-10.0, 0.0, 10.0]
    curves = reproduce_figure(name, out_dir=str(tmp_path), n_samples=N,
                              seed=SEED, theta_values=thetas, snr_db=grid)
    assert len(curves) == len(thetas)
    for curve, th in zip(curves, thetas):
        assert curve.rows == [antenna_row(th, n_r, n_t, db) for db in grid]


def test_fig4_rows_equal_per_point_estimates(tmp_path):
    # fig4's curve values are n_T, at theta_hat = 1 on n_R = 2
    grid = [-10.0, 0.0, 10.0]
    curves = reproduce_figure("fig4", out_dir=str(tmp_path), n_samples=N,
                              seed=SEED, theta_values=(2, 3), snr_db=grid)
    assert [c.label for c in curves] == ["nT2", "nT3"]
    for curve, n_t in zip(curves, (2, 3)):
        assert curve.rows == [antenna_row(1.0, 2, n_t, db) for db in grid]


def test_unknown_figure_creates_nothing(tmp_path):
    with pytest.raises(ConfigError, match="fig99"):
        reproduce_figure("fig99", out_dir=str(tmp_path / "new"))
    assert list(tmp_path.iterdir()) == []


def test_fig6_rows_equal_per_point_estimates(tmp_path):
    thetas, n_points = (0.0, 0.5, 2.0), 3
    curves = reproduce_figure("fig6", out_dir=str(tmp_path), n_samples=N,
                              seed=SEED, theta_values=thetas,
                              n_points=n_points)
    model = IidComplexGaussian(2, 2)
    assert len(curves) == len(thetas)
    for curve, theta in zip(curves, thetas):
        want = []
        for b_c, row in zip(np.logspace(4.0, 7.0, n_points), curve.rows):
            m = row[1]
            snr = 1e4 / (2 * m * b_c)
            sc = QosScenario(theta, T, float(b_c), 2, 2)
            rate = per_point(sc, model, UniformIdentity(), snr).value * 2
            want.append((float(b_c), m, snr, theta, rate,
                         10.0 * math.log10(snr / rate), N, SEED))
        assert curve.rows == want


def test_fig3_computes_rates_once_per_snr_and_chunk(tmp_path, monkeypatch):
    calls = Counter()

    def counted(ev, strategy, snr, n_r, n_t):
        calls[snr, len(ev)] += 1
        return chunk_rates(ev, strategy, snr, n_r, n_t)

    monkeypatch.setattr(engine, "chunk_rates", counted)
    grid = [-10.0, 0.0, 10.0]
    reproduce_figure("fig3", out_dir=str(tmp_path), n_samples=N, seed=SEED,
                     theta_values=(0.0, 1.0, 5.0), snr_db=grid)
    # per SNR, one call for each of the two full chunks and the last of
    # 123 draws, whatever the number of theta curves
    assert calls == {(10.0 ** (db / 10.0), n): (2 if n == CHUNK else 1)
                     for db in grid for n in (CHUNK, 123)}


def test_estimator_memo_keeps_fresh_estimator_bits():
    model = IidComplexGaussian(2, 2)
    estimate = rate_estimator(model, UniformIdentity(), N, SEED)
    points = [(QosScenario.from_theta_hat(th, T, B, 2, 2), snr)
              for th, snr in [(1.0, 0.5), (0.0, 0.5), (1.0, 3.0),
                              (2.0, 0.5), (0.0, 0.5)]]
    for sc, snr in points:
        fresh = rate_estimator(model, UniformIdentity(), N, SEED)(sc, snr)
        assert estimate(sc, snr) == fresh


@pytest.fixture
def fewer_moment_draws(monkeypatch):
    # the moment checks draw at least 1e6 samples; they call neither
    # strategy_spectra nor chunk_rates, so fewer draws keep these tests fast
    moments = asymptotics.zero_snr_moments
    monkeypatch.setattr(
        asymptotics, "zero_snr_moments",
        lambda model, strategies, n_samples, seed:
        moments(model, strategies, 20_000, seed))


def test_lowsnr_suite_eigensolves_each_strategy_once(monkeypatch,
                                                     fewer_moment_draws):
    # the wideband-slope secants read the suite's own uniform estimator
    calls = Counter()
    spectra = engine.strategy_spectra

    def counted(model, strategy, n_samples, seed):
        calls[type(strategy).__name__] += 1
        return spectra(model, strategy, n_samples, seed)

    monkeypatch.setattr(engine, "strategy_spectra", counted)
    checks = validation.lowsnr_suite(20_000, 0)
    assert calls == {"UniformIdentity": 1, "WaterfillingCsit": 1,
                     "BeamformingCsit": 1}
    assert sum(c.name.startswith("wideband slope") for c in checks) == 4


def test_lowsnr_suite_one_rate_pass_per_strategy_and_snr(monkeypatch,
                                                         fewer_moment_draws):
    # the finite differences at 1e-3 and 5e-4, the secants at 1e-3 and
    # 2e-3 and the water-filling comparison at 1 read each (strategy, SNR)
    # from one pass of chunk_rates
    calls = Counter()

    def counted(ev, strategy, snr, n_r, n_t):
        calls[type(strategy).__name__, snr] += 1
        return chunk_rates(ev, strategy, snr, n_r, n_t)

    monkeypatch.setattr(engine, "chunk_rates", counted)
    validation.lowsnr_suite(N, 0)
    snr0 = 1e-3
    pairs = [(name, snr) for name in ("UniformIdentity", "WaterfillingCsit",
                                      "BeamformingCsit")
             for snr in (snr0 / 2, snr0, 1.0)] \
        + [("UniformIdentity", 2 * snr0)]
    assert calls == {pair: math.ceil(N / CHUNK) for pair in pairs}


def test_check_names_unique_across_all_suites(suite_checks):
    # the CLI prints checks by name; run_validation("all") runs the suites
    # in SUITES order
    names = [c.name for suite in validation.SUITES
             for c in suite_checks(suite)]
    assert len(names) == len(set(names))
