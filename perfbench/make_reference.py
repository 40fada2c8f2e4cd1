"""Regenerate reference.json, the accuracy oracle of the benchmark.

    python3 perfbench/make_reference.py

For each point it evaluates the i.i.d. Rayleigh effective rate
-ln(det G / det G|_{theta=0}) / (theta_hat ln 2) in bits/s/Hz, where G is
the Hankel matrix with entries
    g_p = int_0^inf (1 + c z)^(-theta_hat) z^p e^(-z) dz
        = Gamma(p+1) c^(-(p+1)) U(p+1, p+2-theta_hat, 1/c),
c = (n_R/n_T) SNR and p = |n_R - n_T| + i + j. U is mpmath's Tricomi
function at 40 digits, checked against 60 digits. The points are the
`hankel` workload grid and the theta_hat > 0 rows of the `sweep` workload
(fig3: 2x5, K = I/n_T). Nothing here uses effcap.
"""

from __future__ import annotations

import json

import mpmath as mp

from workloads import (REFERENCE_PATH, SWEEP_N_R, SWEEP_N_T, db_to_linear,
                       hankel_jobs, sweep_oracle_jobs)

DIGITS = 40
CHECK_DIGITS = 60
# agreement required between the 40- and 60-digit evaluations
SELF_CHECK_TOL = 1e-25


def hankel_rate(n_r: int, n_t: int, theta_hat: float, snr: float):
    k = min(n_r, n_t)
    d = abs(n_r - n_t)
    th = mp.mpf(theta_hat)
    c = mp.mpf(n_r) / n_t * mp.mpf(snr)
    g = {p: mp.gamma(p + 1) * c ** (-(p + 1))
         * mp.hyperu(p + 1, p + 2 - th, 1 / c)
         for p in range(d, d + 2 * k - 1)}
    det = mp.det(mp.matrix([[g[d + i + j] for j in range(k)]
                            for i in range(k)]))
    log_norm = mp.fsum(mp.loggamma(d + i) + mp.loggamma(i)
                       for i in range(1, k + 1))
    return -(mp.log(det) - log_norm) / (th * mp.log(2))


def rate(n_r: int, n_t: int, theta_hat: float, snr_db: float) -> float:
    snr = db_to_linear(snr_db)
    with mp.workdps(DIGITS):
        value = hankel_rate(n_r, n_t, theta_hat, snr)
    with mp.workdps(CHECK_DIGITS):
        check = hankel_rate(n_r, n_t, theta_hat, snr)
        if abs(value - check) > SELF_CHECK_TOL * abs(check):
            raise ArithmeticError(
                f"mpmath precision check failed at {n_r}x{n_t}, "
                f"theta_hat={theta_hat}, {snr_db} dB")
    return float(value)


def main():
    table = {
        "about": "i.i.d. Rayleigh effective rate in bits/s/Hz from the "
                 "Hankel determinant, mpmath at %d digits; regenerate with "
                 "make_reference.py" % DIGITS,
        "hankel": [[n_r, n_t, th, db, rate(n_r, n_t, th, db)]
                   for n_r, n_t, th, db in hankel_jobs()],
        "sweep": [[th, db, rate(SWEEP_N_R, SWEEP_N_T, th, db)]
                  for th, db in sweep_oracle_jobs()],
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"about": %s' % json.dumps(table["about"]))
        for key in ("hankel", "sweep"):
            rows = ",\n  ".join(json.dumps(r) for r in table[key])
            fh.write(',\n"%s": [\n  %s]' % (key, rows))
        fh.write("}\n")
    print(f"wrote {REFERENCE_PATH}: {len(table['hankel'])} hankel and "
          f"{len(table['sweep'])} sweep points")


if __name__ == "__main__":
    main()
