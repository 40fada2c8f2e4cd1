"""Self-check suites wiring the analytic formulas against Monte Carlo.

Each suite returns a list of named checks; the CLI turns any failure into
a nonzero exit status. Sample counts are sized for minutes-not-hours
turnaround, so tolerances follow the acceptance numbers rather than
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asy
from .channels import FixedMatrix, IidComplexGaussian, spectral_moments_mc
from .engine import (QosScenario, StatisticalOptimized, UniformIdentity,
                     WaterfillingCsit, bit_energy_points, rate_estimator)
from .errors import DomainError
from .queuesim import validate_theta

_T = 1e-3
_B = 1e5

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name, cond, detail=""):
    return Check(name, bool(cond), detail)


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

def lowsnr_suite(n_samples=200_000, seed=0):
    checks = []
    # identity checks are 3-sigma tests; run them at the full 1e6 draws so
    # a single unlucky smaller batch cannot trip them
    n_big = max(n_samples, 1_000_000)
    moments = {}
    for n_r, n_t in ((2, 2), (2, 5)):
        model = IidComplexGaussian(n_r, n_t)
        mom = moments[n_r, n_t] = spectral_moments_mc(model, n_big, seed)
        ids = {
            "e_trace": n_r * n_t,
            "e_trace_sq": n_r * n_t * (n_r * n_t + 1),
            "e_trace_gram_sq": n_r * n_t * (n_r + n_t),
        }
        for key, exact in ids.items():
            got = getattr(mom, key)
            se = mom.std_errs[key]
            checks.append(_check(
                f"moments {n_r}x{n_t} {key}",
                abs(got - exact) <= 3.0 * se,
                f"got {got:.5g}, exact {exact}, se {se:.2g}"))

    model = IidComplexGaussian(2, 2)
    mom = moments[2, 2]
    stat_mom = asy.statistical_moments_mc(model, n_big, seed)
    # one eigensolve of the draws per strategy, shared by every theta and SNR
    uniform = rate_estimator(model, UniformIdentity(), n_samples, seed)
    csit = rate_estimator(model, WaterfillingCsit(), n_samples, seed)
    snr0 = 1e-3
    for th in (0.5, 2.0):
        sc = _scenario(th, 2, 2)
        d = asy.derivs_uniform(mom, sc)
        rp, rm = uniform(sc, snr0).value, uniform(sc, snr0 / 2).value
        fd1 = rp / snr0  # rate(0) = 0 exactly
        # second difference on nodes 0, h, 2h with h = snr0/2
        fd2 = (rp - 2.0 * rm) / (snr0 / 2) ** 2
        checks.append(_check(
            f"uniform first deriv fd theta_hat={th}",
            abs(fd1 - d.first_deriv) <= 0.02 * abs(d.first_deriv),
            f"fd {fd1:.5g} vs closed {d.first_deriv:.5g}"))
        checks.append(_check(
            f"uniform second deriv fd theta_hat={th}",
            abs(fd2 - d.second_deriv) <= 0.10 * abs(d.second_deriv),
            f"fd {fd2:.5g} vs closed {d.second_deriv:.5g}"))
        dstat = asy.derivs_statistical(stat_mom, sc)
        checks.append(_check(
            f"statistical equals uniform theta_hat={th}",
            abs(dstat.second_deriv - d.second_deriv)
            <= 0.01 * abs(d.second_deriv),
            f"stat {dstat.second_deriv:.5g} vs unif {d.second_deriv:.5g}"))

        dc = asy.derivs_csit(mom, sc)
        rcp, rcm = csit(sc, snr0).value, csit(sc, snr0 / 2).value
        fd1c = rcp / snr0
        fd2c = (rcp - 2.0 * rcm) / (snr0 / 2) ** 2
        checks.append(_check(
            f"csit first deriv fd theta_hat={th}",
            abs(fd1c - dc.first_deriv) <= 0.02 * abs(dc.first_deriv),
            f"fd {fd1c:.5g} vs closed {dc.first_deriv:.5g}"))
        checks.append(_check(
            f"csit second deriv fd theta_hat={th}",
            abs(fd2c - dc.second_deriv) <= 0.10 * abs(dc.second_deriv),
            f"fd {fd2c:.5g} vs closed {dc.second_deriv:.5g}"))

    # wideband slope: closed form vs a secant from the bit-energy curve
    s0_values = []
    for th in (0.0, 1.0, 4.0):
        sc = _scenario(th, 2, 2)
        em = asy.energy_metrics(asy.derivs_uniform(mom, sc))
        s0_values.append(em.wideband_slope_s0)
        pts = bit_energy_points(uniform, sc, [1e-3, 2e-3])
        (e1, r1), (e2, r2) = pts
        # S0 = slope of rate against E_b/N0 in dB, scaled by 10 log10(2)
        secant = (r2 - r1) / (e2 - e1) * (10.0 * math.log10(2.0))
        checks.append(_check(
            f"wideband slope secant theta_hat={th}",
            abs(secant - em.wideband_slope_s0)
            <= 0.10 * em.wideband_slope_s0,
            f"secant {secant:.4g} vs closed {em.wideband_slope_s0:.4g}"))
    checks.append(_check(
        "wideband slope decreasing in theta",
        s0_values[0] > s0_values[1] > s0_values[2],
        f"S0 over theta_hat 0,1,4: {['%.4g' % v for v in s0_values]}"))
    return checks


def highsnr_suite(n_samples=200_000, seed=0):
    checks = []
    # 3-sigma agreement checks run at >= 1e6 draws, same reasoning as the
    # moment identities in the low-SNR suite
    n_big = max(n_samples, 1_000_000)
    for n_r, n_t in ((1, 1), (2, 2), (2, 3)):
        estimate = rate_estimator(IidComplexGaussian(n_r, n_t),
                                  UniformIdentity(), n_big, seed)
        for th in (0.5, 1.0):
            sc = _scenario(th, n_r, n_t)
            quad = asy.hankel_effective_rate(sc, 10.0)
            est = estimate(sc, 10.0)
            diff = abs(quad - est.value * n_r)
            tol = 3.0 * est.std_err * n_r
            checks.append(_check(
                f"hankel vs mc {n_r}x{n_t} theta_hat={th}",
                diff <= tol, f"|{quad:.5g} - {est.value * n_r:.5g}| "
                f"vs 3se {tol:.2g}"))

    snrs = 10.0 ** (np.array([30.0, 35.0, 40.0, 45.0, 50.0]) / 10.0)
    sc25 = _scenario(2.0, 2, 5)
    slope25 = asy.highsnr_slope_empirical(
        [(s, asy.hankel_effective_rate(sc25, s)) for s in snrs])
    checks.append(_check("slope 2x5 theta_hat=2",
                         abs(slope25 - 2.0) <= 0.05,
                         f"slope {slope25:.4g}"))
    sc11 = _scenario(2.0, 1, 1)
    slope11 = asy.highsnr_slope_empirical(
        [(s, asy.hankel_effective_rate(sc11, s)) for s in snrs])
    checks.append(_check("slope siso theta_hat=2",
                         abs(slope11 - 0.5) <= 0.05,
                         f"slope {slope11:.4g}"))

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
        f"L_inf {m.l_inf:.12g} vs gamma*log2e {target:.12g}"))
    return checks


def wideband_suite(n_samples=200_000, seed=0):
    checks = []
    model = IidComplexGaussian(2, 2)
    cfg = asy.SparseWidebandConfig(m=5, p_over_n0=1e4)
    ref_theta = 1.0 / (_T * 1e4 / 5)  # rho = 1 at the reference scale
    ebs = []
    for scale in (1e-4, 0.1, 0.5, 1.0, 2.0):
        sc = QosScenario(theta=scale * ref_theta, t=_T, b=_B, n_r=2, n_t=2)
        eb, _ = asy.sparse_ebmin_bounded(cfg, sc, model, UniformIdentity(),
                                         n_samples, seed)
        ebs.append(eb)
    rich = math.log(2.0) / (2 * 2 / 2)  # ln2 / (E{tr}/n_T) per dimension
    checks.append(_check(
        "bounded theta->0 matches rich multipath",
        abs(ebs[0] - rich) <= 0.01 * rich,
        f"eb {ebs[0]:.5g} vs ln2/E{{tr K}} {rich:.5g}"))
    checks.append(_check(
        "bounded eb increasing in theta",
        all(a < b for a, b in zip(ebs[1:], ebs[2:])),
        f"ebs {['%.4g' % e for e in ebs[1:]]}"))
    eb_sub, _ = asy.sparse_ebmin_sublinear(model, StatisticalOptimized(),
                                           n_samples, seed)
    checks.append(_check(
        "sublinear statistical equals ln2/n_R",
        eb_sub == math.log(2.0) / 2,
        f"eb {eb_sub!r} vs ln2/2 {math.log(2.0) / 2!r}"))
    return checks


def queue_suite(n_samples=200_000, seed=0, n_blocks=1_000_000):
    checks = []
    sc = _scenario(1.0, 1, 1)
    model = IidComplexGaussian(1, 1)
    ests = []
    for scale in (0.9, 1.0, 1.1):
        res = validate_theta(sc, model, UniformIdentity(), 10.0, n_blocks,
                             seed, arrival_scale=scale, n_samples=n_samples)
        ests.append(res.theta_est)
        if scale == 1.0:
            checks.append(_check(
                "siso tail exponent within 15%",
                res.passed and not res.vacuous,
                f"theta_est {res.theta_est:.5g} vs theta "
                f"{res.theta_target:.5g}"))
    checks.append(_check(
        "tail exponent decreasing in arrival rate",
        ests[0] > ests[1] > ests[2],
        f"estimates {['%.4g' % e for e in ests]}"))

    det = FixedMatrix(np.array([[2.0 + 0j]]))
    res = validate_theta(sc, det, UniformIdentity(), 10.0, 200_000, seed,
                         arrival_scale=0.5, n_samples=10_000)
    checks.append(_check("deterministic channel vacuous pass",
                         res.passed and res.vacuous,
                         "queue never grows; nothing to fit"))
    return checks


_SUITES = {
    "lowsnr": lowsnr_suite,
    "highsnr": highsnr_suite,
    "wideband": wideband_suite,
    "queue": queue_suite,
}


def run_validation(suite: str, n_samples=200_000, seed=0, quiet=False):
    """Run one (or all) of the check suites; returns (all_passed, checks)."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise DomainError(
            f"unknown suite {suite!r}; use one of "
            f"{', '.join(list(_SUITES) + ['all'])}")
    checks = []
    for name in names:
        checks.extend(_SUITES[name](n_samples=n_samples, seed=seed))
    ok = all(c.passed for c in checks)
    if not quiet:
        for c in checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
        print(f"{'OK' if ok else 'FAILED'} "
              f"({sum(c.passed for c in checks)}/{len(checks)} checks)")
    return ok, checks
