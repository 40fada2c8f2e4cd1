"""Self-check suites wiring the analytic formulas against Monte Carlo.

Each suite returns a list of named checks and prints nothing; the CLI
prints them and turns any failure into a nonzero exit status. The suites
are the acceptance checks of criteria 3-5 and 7-9: a check's `criterion`
names the one it is a cell of, and tests/test_acceptance.py asserts those
checks at the suites' defaults. Sample counts are sized for
minutes-not-hours turnaround, so tolerances follow the acceptance numbers
rather than machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asy
from .channels import FixedMatrix, IidComplexGaussian
from .config import KEYS
from .engine import (BeamformingCsit, QosScenario, StatisticalOptimized,
                     UniformIdentity, WaterfillingCsit, rate_estimator)
from .errors import DomainError
from .queuesim import validate_theta

_T, _B = KEYS["scenario.t"].default, KEYS["scenario.b"].default

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str
    # the number of the acceptance criterion this check is one cell of, or
    # None; tests/test_acceptance.py reads a criterion's checks by it
    criterion: int | None = None


def _check(name, cond, detail="", criterion=None):
    return Check(name, bool(cond), detail, criterion)


def _scenario(theta_hat, n_r, n_t):
    return QosScenario.from_theta_hat(theta_hat, _T, _B, n_r, n_t)


def siso_mgf_exact(theta_hat, snr):
    """E{(1 + snr |h|^2)^-theta_hat} for Rayleigh h: e^x x E_theta_hat(x),
    x = 1/snr, E the generalized exponential integral. theta_hat must be an
    integer >= 1 (scipy's expn) or in (0, 1) (through gammaincc). SciPy is
    imported here, not at module level, so that `import effcap` does not
    load it."""
    from scipy import special as sps
    x = 1.0 / snr
    if theta_hat >= 1 and theta_hat == int(theta_hat):
        return math.exp(x) * x * float(sps.expn(int(theta_hat), x))
    if not 0 < theta_hat < 1:
        raise DomainError(f"siso_mgf_exact needs theta_hat in (0, 1) or an "
                          f"integer >= 1, got {theta_hat}")
    return (snr ** -theta_hat * math.exp(x) * math.gamma(1.0 - theta_hat)
            * float(sps.gammaincc(1.0 - theta_hat, x)))


# ---------------------------------------------------------------------------

def _fd_checks(label, rate, d, snr0, th):
    """Finite differences of label's rates at snr0 and snr0/2, rate[label,
    snr, th], against the closed-form derivatives d: first and second
    deriv checks, in that order."""
    rp, rm = rate[label, snr0, th], rate[label, snr0 / 2, th]
    fd1 = rp / snr0  # rate(0) = 0 exactly
    # second difference on nodes 0, h, 2h with h = snr0/2
    fd2 = (rp - 2.0 * rm) / (snr0 / 2) ** 2
    return [_check(f"{label} first deriv fd theta_hat={th}",
                   abs(fd1 - d.first_deriv) <= 0.02 * abs(d.first_deriv),
                   f"fd {fd1:.5g} vs closed {d.first_deriv:.5g}", 4),
            _check(f"{label} second deriv fd theta_hat={th}",
                   abs(fd2 - d.second_deriv) <= 0.10 * abs(d.second_deriv),
                   f"fd {fd2:.5g} vs closed {d.second_deriv:.5g}", 4)]


def lowsnr_suite(n_samples=200_000, seed=0):
    checks = []
    # identity checks are 3-sigma tests; run them at the full 1e6 draws so
    # a single unlucky smaller batch cannot trip them
    n_big = max(n_samples, 1_000_000)
    # one pass for uniform's gain, lambda_max, which water-filling shares,
    # and the statistical moments
    model = IidComplexGaussian(2, 2)
    mom, csit_mom, stat_mom = asy.zero_snr_moments(
        model, [UniformIdentity(), BeamformingCsit(), StatisticalOptimized()],
        n_big, seed)
    (mom_2x5,) = asy.zero_snr_moments(IidComplexGaussian(2, 5),
                                      [UniformIdentity()], n_big, seed)
    for n_r, n_t, m in ((2, 2, mom), (2, 5, mom_2x5)):
        # the uniform gain is q = tr(HH^dagger)/n_T, so the gram's trace
        # moments are n_T E{q}, n_T^2 E{q^2} and n_T^2 E{r}
        ids = {
            "e_trace": ("e_q", n_t, n_r * n_t),
            "e_trace_sq": ("e_q_sq", n_t ** 2, n_r * n_t * (n_r * n_t + 1)),
            "e_trace_gram_sq": ("e_r", n_t ** 2, n_r * n_t * (n_r + n_t)),
        }
        for key, (name, scale, exact) in ids.items():
            got = scale * getattr(m, name)
            se = scale * m.std_errs[name]
            checks.append(_check(
                f"moments {n_r}x{n_t} {key}",
                abs(got - exact) <= 3.0 * se,
                f"got {got:.5g}, exact {exact}, se {se:.2g}", 3))

    # one eigensolve of the draws per strategy, shared by every theta and SNR
    estimators = {label: rate_estimator(model, strategy, n_samples, seed)
                  for label, strategy in (("uniform", UniformIdentity()),
                                          ("csit", WaterfillingCsit()),
                                          ("beamforming", BeamformingCsit()))}
    snr0, fd_thetas, s0_thetas = 1e-3, (0.5, 2.0), (0.0, 1.0, 4.0)
    # water-filling opens its second mode on none of the draws at snr0 and
    # snr0/2, where its cells equal beamforming's, and on 43% of them at
    # snr_two (200k draws, seed 0)
    snr_two = 1.0
    # every theta read at one (strategy, SNR) is asked in one call, so that
    # each pair is one pass over the draws
    asks = {(label, snr): fd_thetas for label in estimators
            for snr in (snr0 / 2, snr0, snr_two)}
    asks["uniform", snr0] = fd_thetas + s0_thetas
    asks["uniform", 2 * snr0] = s0_thetas
    est = {}
    for (label, snr), thetas in asks.items():
        got = estimators[label]([_scenario(th, 2, 2) for th in thetas], snr)
        est.update(((label, snr, th), e) for th, e in zip(thetas, got))
    rate = {key: e.value for key, e in est.items()}

    for th in fd_thetas:
        sc = _scenario(th, 2, 2)
        d = asy.zero_snr_derivs(mom, sc)
        dcsit = asy.zero_snr_derivs(csit_mom, sc)
        dstat = asy.zero_snr_derivs(stat_mom, sc)
        checks += _fd_checks("uniform", rate, d, snr0, th)
        for attr, which in (("second_deriv", ""),
                            ("first_deriv", " first deriv")):
            want, got = getattr(d, attr), getattr(dstat, attr)
            checks.append(_check(
                f"statistical equals uniform{which} theta_hat={th}",
                abs(got - want) <= 0.01 * abs(want),
                f"stat {got:.5g} vs unif {want:.5g}", 4))
        checks += _fd_checks("csit", rate, dcsit, snr0, th)
        checks += _fd_checks("beamforming", rate, dcsit, snr0, th)

    # water-filling maximizes the rate of each draw and the strategies share
    # their draws, so its effective rate is at least uniform's, and above
    # beamforming's once a second mode opens
    cells = [(th, *(rate[label, snr_two, th]
                    for label in ("csit", "uniform", "beamforming")))
             for th in fd_thetas]
    checks.append(_check(
        f"csit above uniform and beamforming snr={snr_two}",
        all(csit >= unif and csit > beam for _, csit, unif, beam in cells),
        "; ".join(f"theta_hat={th}: csit {csit:.6g}, uniform {unif:.6g}, "
                  f"beamforming {beam:.6g}"
                  for th, csit, unif, beam in cells)))

    # wideband slope: closed form vs a secant through two bit-energy points,
    # E_b/N0 = snr / rate per receive dimension, in dB
    s0_values = []
    for th in s0_thetas:
        em = asy.energy_metrics(asy.zero_snr_derivs(mom, _scenario(th, 2, 2)))
        s0_values.append(em.wideband_slope_s0)
        r1, r2 = rate["uniform", snr0, th], rate["uniform", 2 * snr0, th]
        e1, e2 = (10.0 * math.log10(snr0 / r1),
                  10.0 * math.log10(2 * snr0 / r2))
        # S0 = slope of rate against E_b/N0 in dB, scaled by 10 log10(2)
        secant = (r2 - r1) / (e2 - e1) * (10.0 * math.log10(2.0))
        checks.append(_check(
            f"wideband slope secant theta_hat={th}",
            abs(secant - em.wideband_slope_s0)
            <= 0.10 * em.wideband_slope_s0,
            f"secant {secant:.4g} vs closed {em.wideband_slope_s0:.4g}", 5))
    checks.append(_check(
        "wideband slope decreasing in theta",
        s0_values[0] > s0_values[1] > s0_values[2],
        f"S0 over theta_hat 0,1,4: {['%.4g' % v for v in s0_values]}", 5))
    return checks


def highsnr_suite(n_samples=200_000, seed=0):
    checks = []
    # 3-sigma agreement checks run at >= 1e6 draws, same reasoning as the
    # moment identities in the low-SNR suite
    n_big = max(n_samples, 1_000_000)
    for n_r, n_t in ((1, 1), (2, 2), (2, 3)):
        estimate = rate_estimator(IidComplexGaussian(n_r, n_t),
                                  UniformIdentity(), n_big, seed)
        thetas = (0.5, 1.0)
        scenarios = [_scenario(th, n_r, n_t) for th in thetas]
        for th, sc, est in zip(thetas, scenarios,
                               estimate(scenarios, 10.0)):
            quad = asy.hankel_effective_rate(sc, 10.0)
            diff = abs(quad - est.value * n_r)
            tol = 3.0 * est.std_err * n_r
            checks.append(_check(
                f"hankel vs mc {n_r}x{n_t} theta_hat={th}",
                diff <= tol, f"|{quad:.5g} - {est.value * n_r:.5g}| "
                f"vs 3se {tol:.2g}"))

    snrs = 10.0 ** (np.array([30.0, 35.0, 40.0, 45.0, 50.0]) / 10.0)
    for n_r, n_t, label, want in ((2, 5, "2x5", 2.0), (1, 1, "siso", 0.5)):
        sc = _scenario(2.0, n_r, n_t)
        slope = asy.highsnr_slope_empirical(
            [(s, asy.hankel_effective_rate(sc, s)) for s in snrs])
        checks.append(_check(f"slope {label} theta_hat=2",
                             abs(slope - want) <= 0.05, f"slope {slope:.4g}",
                             7))

    for th in (0.7, 1.0):
        closed = siso_mgf_exact(th, 10.0)
        quad = asy.hankel_mgf(_scenario(th, 1, 1), 10.0)
        checks.append(_check(
            f"closed-form entry theta_hat={th}",
            abs(closed - quad) <= 1e-12 * abs(quad),
            f"closed {closed:.12g} vs quad {quad:.12g}"))

    m = asy.highsnr_metrics(_scenario(0.0, 1, 1), IidComplexGaussian(1, 1))
    target = EULER_GAMMA * math.log2(math.e)
    checks.append(_check(
        "siso ergodic power offset",
        abs(m.l_inf - target) <= 1e-12 * target,
        f"L_inf {m.l_inf:.12g} vs gamma*log2e {target:.12g}", 7))
    return checks


def wideband_suite(n_samples=200_000, seed=0):
    checks = []
    model = IidComplexGaussian(2, 2)
    cfg = asy.SparseWidebandConfig(m=5, p_over_n0=1e4)
    rich = math.log(2.0) / (2 * 2 / 2)  # ln2 / (E{tr}/n_T) per dimension
    ref_theta = 1.0 / (_T * 1e4 / 5)  # rho = 1 at the reference scale
    # two grids, each a theta near 0 and four multiples of a reference
    # theta, each grid one pass of draws
    for zero_name, up_name, theta0, theta_ref in (
            ("bounded theta->0 matches rich multipath",
             "bounded eb increasing in theta", 1e-4 * ref_theta, ref_theta),
            ("bounded theta_hat=0.0001 matches rich multipath",
             "bounded eb increasing in theta around theta_hat=0.5",
             _scenario(1e-4, 2, 2).theta, _scenario(0.5, 2, 2).theta)):
        thetas = [theta0] + [mult * theta_ref for mult in (0.1, 0.5, 1.0, 2.0)]
        (eb0, *ebs), _ = asy.sparse_ebmin(
            cfg, [QosScenario(theta=th, t=_T, b=_B, n_r=2, n_t=2)
                  for th in thetas],
            model, UniformIdentity(), n_samples, seed)
        checks.append(_check(
            zero_name, abs(eb0 - rich) <= 0.01 * rich,
            f"eb {eb0:.5g} vs ln2/E{{tr K}} {rich:.5g}", 8))
        checks.append(_check(
            up_name, all(a < b for a, b in zip(ebs, ebs[1:])),
            f"ebs {['%.4g' % e for e in ebs]}", 8))
    _, eb_sub = asy.sparse_ebmin(cfg, [], model, StatisticalOptimized(),
                                 n_samples, seed)
    checks.append(_check(
        "sublinear statistical equals ln2/n_R",
        eb_sub == math.log(2.0) / 2,
        f"eb {eb_sub!r} vs ln2/2 {math.log(2.0) / 2!r}", 8))
    return checks


def queue_suite(n_samples=200_000, seed=0):
    checks = []
    sc = _scenario(1.0, 1, 1)
    model = IidComplexGaussian(1, 1)
    ests = []
    for scale in (0.9, 1.0, 1.1):
        res = validate_theta(sc, model, UniformIdentity(), 10.0, 1_000_000,
                             seed, arrival_scale=scale, n_samples=n_samples)
        ests.append(res.theta_est)
        if scale == 1.0:
            checks.append(_check(
                "siso tail exponent within 15%",
                res.passed and not res.vacuous,
                f"theta_est {res.theta_est:.5g} vs theta "
                f"{res.theta_target:.5g}", 9))
    checks.append(_check(
        "tail exponent decreasing in arrival rate",
        ests[0] > ests[1] > ests[2],
        f"estimates {['%.4g' % e for e in ests]}", 9))

    det = FixedMatrix(np.array([[2.0 + 0j]]))
    res = validate_theta(sc, det, UniformIdentity(), 10.0, 200_000, seed,
                         arrival_scale=0.5, n_samples=10_000)
    checks.append(_check("deterministic channel vacuous pass",
                         res.passed and res.vacuous,
                         "queue never grows; nothing to fit"))
    return checks


SUITES = {
    "lowsnr": lowsnr_suite,
    "highsnr": highsnr_suite,
    "wideband": wideband_suite,
    "queue": queue_suite,
}


def run_validation(suite: str, n_samples=200_000, seed=0):
    """Run one (or all) of the check suites; returns (all_passed, checks)."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise DomainError(
            f"unknown suite {suite!r}; use one of "
            f"{', '.join(list(SUITES) + ['all'])}")
    checks = []
    for name in names:
        checks.extend(SUITES[name](n_samples=n_samples, seed=seed))
    return all(c.passed for c in checks), checks
