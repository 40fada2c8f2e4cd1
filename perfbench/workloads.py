"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the run seed, runs one job list per
pass with one client (closed loop, one job at a time) and checks what
effcap returned or wrote. It reaches effcap only through `effcap.cli.main`,
`effective_rate_mc`, `validate_theta` and `hankel_effective_rate`.

Why these four:

- sweep: fig3 re-samples and re-eigensolves the same seeded draws at all
  260 (theta_hat, SNR) points, so sampling, Gram formation and `eigvalsh`
  do nearly all the work and spectrum reuse would show here.
- optimize: the statistical-covariance optimizer samples once and then
  eigensolves the same draws about 200 times in its finite-difference
  loop; sampling is small, Gram formation and `eigvalsh` dominate.
- queue: the Lindley recursion, the tail fit and the trace CSV dominate,
  the eigensolve is 1x1, and each draw is used about once over a large
  working set, so a draw or spectrum cache would show its cost here.
- hankel: no Monte Carlo at all; Gauss-Laguerre rule construction and the
  `quad` fallback are the whole cost, so MC changes must show nothing.

This module imports only the standard library at the top, so that the
set-up time measured by `run.py` includes importing effcap.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "_out"
REFERENCE_PATH = HERE / "reference.json"

T, B = 1e-3, 1e5

SWEEP_FIGURE = "fig3"
SWEEP_THETA_HATS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
SWEEP_SNR_DB = tuple(-40.0 + 2.0 * i for i in range(26))
SWEEP_N_R, SWEEP_N_T = 2, 5
SWEEP_SAMPLES = 2048

# (n, draws): 4x4 gets half the draws of 2x2 so that both calls take
# about the same time and the op-latency percentiles are not bimodal
OPT_CASES = ((2, 4096), (4, 2048))
OPT_RHO_R, OPT_RHO_T = 0.7, 0.5
OPT_THETA_HAT, OPT_SNR_DB = 2.0, 10.0
# tolerances of the check that K is Hermitian PSD with tr K <= 1
OPT_K_TOL = 1e-10

QUEUE_THETA_HAT, QUEUE_SNR_DB = 1.0, 10.0
QUEUE_BLOCKS = 1_000_000
QUEUE_SAMPLES = 200_000
# arrival scales of the two extra validations; each gets its own seed
# offset so that every draw is used about once
QUEUE_SCALES = ((0.9, 2), (1.1, 4))

HANKEL_SHAPES = ((1, 1), (2, 2), (2, 5), (4, 4))
HANKEL_THETA_HATS = (0.5, 1.0, 2.0, 4.0, 8.0)
HANKEL_SNR_DB = tuple(-10.0 + 5.0 * i for i in range(13))
# the quadrature entry is accurate to about 1e-8 relative; the rate is a
# log-determinant of up to 4x4 such entries divided by theta_hat*ln 2
HANKEL_REL_TOL = 1e-6


class EffcapMissing(RuntimeError):
    """The effcap sources are not next to the benchmark."""


def import_effcap():
    """Import effcap from the `src/` tree beside the benchmark, never from
    anywhere else on the path."""
    if not (SRC / "effcap" / "__init__.py").is_file():
        raise EffcapMissing(f"no effcap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import effcap
    if Path(effcap.__file__).resolve().parent != SRC / "effcap":
        raise EffcapMissing(f"effcap imported from {effcap.__file__}")
    return effcap


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def hankel_jobs():
    """(n_r, n_t, theta_hat, snr_db) in canonical order."""
    return [(n_r, n_t, th, db) for n_r, n_t in HANKEL_SHAPES
            for th in HANKEL_THETA_HATS for db in HANKEL_SNR_DB]


def sweep_oracle_jobs():
    """(theta_hat, snr_db) of the fig3 rows that the Hankel oracle covers."""
    return [(th, db) for th in SWEEP_THETA_HATS if th > 0
            for db in SWEEP_SNR_DB]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    hankel = {tuple(r[:4]): r[4] for r in ref["hankel"]}
    sweep = {tuple(r[:2]): r[2] for r in ref["sweep"]}
    if set(hankel) != set(hankel_jobs()) or \
            set(sweep) != set(sweep_oracle_jobs()):
        raise ValueError(f"{REFERENCE_PATH} does not match the job grids; "
                         "regenerate it with make_reference.py")
    return hankel, sweep


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


class PassResult:
    """One pass over a workload's job list.

    `wall` is the time inside effcap calls only; `latencies` has one entry
    per op (an op inside a CLI call gets the call's time divided by its op
    count). Checks run after the timed calls.
    """

    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.accuracy = {}

    def add_ops(self, seconds: float, n_ops: int):
        self.wall += seconds
        self.latencies.extend([seconds / n_ops] * n_ops)
        self.attempted += n_ops


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""

    def __init__(self, tiny: bool):
        self.effcap = import_effcap()
        self.out = _fresh_dir(OUT_DIR / self.name)

    def warm_up(self):
        raise NotImplementedError

    def run_pass(self, seed: int) -> PassResult:
        raise NotImplementedError


class Sweep(Workload):
    """`effcap reproduce-fig fig3` through `cli.main`; one op per CSV row."""

    name = "sweep"

    def __init__(self, tiny: bool):
        super().__init__(tiny)
        from effcap import cli
        self.cli = cli
        self.samples = 1000 if tiny else SWEEP_SAMPLES
        _, self.oracle = load_reference()

    def warm_up(self):
        self.cli.main(["sweep", "--set", "scenario.theta_hat=1.0",
                       "--set", f"scenario.n_r={SWEEP_N_R}",
                       "--set", f"scenario.n_t={SWEEP_N_T}",
                       "--set", "sweep.snr_db_start=0",
                       "--set", "sweep.snr_db_stop=10",
                       "--set", "sweep.n_points=2", "--samples", "1000",
                       "--out", str(self.out / "warm_up.csv"), "--quiet"])

    def run_pass(self, seed: int) -> PassResult:
        res = PassResult()
        fig_dir = _fresh_dir(self.out / "fig")
        argv = ["reproduce-fig", SWEEP_FIGURE, "--out", str(fig_dir),
                "--samples", str(self.samples), "--seed", str(seed),
                "--quiet"]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except self.effcap.EffcapError:
            rc = -1
        res.add_ops(time.perf_counter() - t0, len(SWEEP_THETA_HATS)
                    * len(SWEEP_SNR_DB))
        failed, max_err = self.check(fig_dir, res.digest)
        res.failed = max(failed, 1 if rc != 0 else 0)
        res.accuracy["max_rel_err"] = max_err
        return res

    def check(self, fig_dir: Path, digest=None):
        """(failed rows, max relative error against the oracle) of the
        fig3 CSVs in fig_dir."""
        rates = {}
        for path in sorted(fig_dir.glob(f"{SWEEP_FIGURE}_*.csv")):
            data = path.read_bytes()
            if digest is not None:
                digest.update(data)
            lines = data.decode("utf-8").splitlines()
            header = lines[0].split(",")
            i_th = header.index("theta_hat")
            i_db = header.index("snr_db")
            i_rate = header.index("rate_bits_s_hz")
            for line in lines[1:]:
                cells = line.split(",")
                rates[(float(cells[i_th]), float(cells[i_db]))] = \
                    float(cells[i_rate])
        failed = sweep_row_failures(rates)
        errs = [rel_err(rates[k], ref) for k, ref in self.oracle.items()
                if math.isfinite(rates.get(k, math.nan))]
        return failed, max(errs, default=math.nan)


def sweep_row_failures(rates: dict) -> int:
    """Rows of the fig3 grid that are missing, not finite, lower than the
    previous SNR of their curve, or higher than the previous theta_hat at
    their SNR. With common random numbers both orders hold exactly."""
    failed = 0
    for i, th in enumerate(SWEEP_THETA_HATS):
        for j, db in enumerate(SWEEP_SNR_DB):
            v = rates.get((th, db), math.nan)
            prev_snr = rates.get((th, SWEEP_SNR_DB[j - 1]), math.nan) \
                if j > 0 else math.nan
            prev_th = rates.get((SWEEP_THETA_HATS[i - 1], db), math.nan) \
                if i > 0 else math.nan
            if not math.isfinite(v) or v < prev_snr or v > prev_th:
                failed += 1
    return failed


def _kronecker(n: int, rho_r: float, rho_t: float):
    import numpy as np
    from effcap import KroneckerCorrelated
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return KroneckerCorrelated(rho_r ** lag, rho_t ** lag)


class Optimize(Workload):
    """`effective_rate_mc(..., StatisticalOptimized())` on Kronecker 2x2 and
    4x4; one op per optimizer call."""

    name = "optimize"

    def __init__(self, tiny: bool):
        super().__init__(tiny)
        from effcap import QosScenario, StatisticalOptimized, engine
        self.engine = engine
        self.strategy = StatisticalOptimized()
        self.snr = db_to_linear(OPT_SNR_DB)
        self.cases = [(QosScenario.from_theta_hat(OPT_THETA_HAT, T, B, n, n),
                       _kronecker(n, OPT_RHO_R, OPT_RHO_T),
                       256 if tiny else draws) for n, draws in OPT_CASES]
        # effective_rate_mc returns only the rate; keep the K that the
        # optimizer chose so that it can be checked
        self.chosen = []
        optimize = engine.optimize_covariance_statistical

        def keep_k(*args, **kwargs):
            k, est = optimize(*args, **kwargs)
            self.chosen.append(k)
            return k, est

        engine.optimize_covariance_statistical = keep_k

    def warm_up(self):
        sc, model, _ = self.cases[0]
        self.engine.effective_rate_mc(sc, model, self.strategy, self.snr, 64,
                                      0)

    def run_pass(self, seed: int) -> PassResult:
        import numpy as np
        res = PassResult()
        for sc, model, draws in self.cases:
            self.chosen.clear()
            t0 = time.perf_counter()
            try:
                est = self.engine.effective_rate_mc(sc, model, self.strategy,
                                                    self.snr, draws, seed)
            except self.effcap.EffcapError:
                est = None
            res.add_ops(time.perf_counter() - t0, 1)
            if est is None or len(self.chosen) != 1:
                res.failed += 1
                continue
            k = self.chosen[0]
            res.digest.update(np.array([est.value, est.std_err]).tobytes())
            res.digest.update(np.ascontiguousarray(k).tobytes())
            if not (math.isfinite(est.value) and covariance_ok(k)):
                res.failed += 1
        return res


def covariance_ok(k) -> bool:
    """K is Hermitian positive semidefinite with tr K <= 1."""
    import numpy as np
    k = np.asarray(k)
    if not np.all(np.isfinite(k)):
        return False
    if np.max(np.abs(k - k.conj().T)) > OPT_K_TOL:
        return False
    w = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
    return bool(w.min() >= -OPT_K_TOL and w.sum() <= 1.0 + OPT_K_TOL)


class Queue(Workload):
    """`effcap queue-validate --trace-out` (one validation op plus one
    export op) and `validate_theta` at two more arrival scales."""

    name = "queue"

    def __init__(self, tiny: bool):
        super().__init__(tiny)
        from effcap import (IidComplexGaussian, QosScenario, UniformIdentity,
                            cli, queuesim)
        self.cli = cli
        self.queuesim = queuesim
        self.blocks = 100_000 if tiny else QUEUE_BLOCKS
        self.samples = 10_000 if tiny else QUEUE_SAMPLES
        self.scenario = QosScenario.from_theta_hat(QUEUE_THETA_HAT, T, B, 1, 1)
        self.model = IidComplexGaussian(1, 1)
        self.strategy = UniformIdentity()
        self.snr = db_to_linear(QUEUE_SNR_DB)
        self.trace_path = self.out / "trace.csv"

    def warm_up(self):
        self.queuesim.validate_theta(self.scenario, self.model, self.strategy,
                                     self.snr, 100_000, 0, n_samples=1000)

    def run_pass(self, seed: int) -> PassResult:
        res = PassResult()
        self.trace_path.unlink(missing_ok=True)
        argv = ["queue-validate", "--set",
                f"scenario.theta_hat={QUEUE_THETA_HAT!r}",
                "--snr-db", repr(QUEUE_SNR_DB), "--blocks", str(self.blocks),
                "--samples", str(self.samples), "--seed", str(seed),
                "--trace-out", str(self.trace_path)]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = self.cli.main(argv)
        except self.effcap.EffcapError:
            rc = -1
        res.add_ops(time.perf_counter() - t0, 2)
        printed = dict(line.split(" = ", 1)
                       for line in stdout.getvalue().splitlines()
                       if " = " in line)
        theta = float(printed.get("theta_target", "nan"))
        theta_est = float(printed.get("theta_est", "nan"))
        if not (rc == 0 and printed.get("passed") == "True"
                and printed.get("vacuous") == "False"
                and math.isfinite(theta_est)):
            res.failed += 1
        res.accuracy["theta_rel_err"] = abs(theta_est - theta) / theta
        if self.trace_lines(res.digest) != self.blocks + 1:
            res.failed += 1

        for scale, offset in QUEUE_SCALES:
            t0 = time.perf_counter()
            try:
                val = self.queuesim.validate_theta(
                    self.scenario, self.model, self.strategy, self.snr,
                    self.blocks, seed + offset, arrival_scale=scale,
                    n_samples=self.samples)
            except self.effcap.EffcapError:
                val = None
            res.add_ops(time.perf_counter() - t0, 1)
            if val is None:
                res.failed += 1
                continue
            res.digest.update(repr(val.theta_est).encode())
            # a lower arrival rate gives a faster-decaying tail; the gap
            # between scales 0.9, 1.0 and 1.1 is about 40% of theta
            ordered = (val.theta_est > theta_est if scale < 1.0
                       else val.theta_est < theta_est)
            if val.vacuous or not math.isfinite(val.theta_est) \
                    or val.theta_est <= 0 or not ordered:
                res.failed += 1
        res.digest.update(repr(theta_est).encode())
        return res


    def trace_lines(self, digest) -> int:
        """Lines of the exported trace, read in small pieces so that the
        check leaves the allocator as effcap left it; -1 if missing."""
        if not self.trace_path.is_file():
            return -1
        lines = 0
        with open(self.trace_path, "rb") as fh:
            for piece in iter(lambda: fh.read(1 << 16), b""):
                digest.update(piece)
                lines += piece.count(b"\n")
        return lines


class Hankel(Workload):
    """`hankel_effective_rate` over 4 shapes x 5 theta_hat x 13 SNRs; one op
    per call, in an order shuffled by the seed."""

    name = "hankel"

    def __init__(self, tiny: bool):
        super().__init__(tiny)
        from effcap import QosScenario, asymptotics
        self.asymptotics = asymptotics
        reference, _ = load_reference()
        jobs = hankel_jobs()
        if tiny:
            jobs = [j for j in jobs if j[0] <= 2 and j[2] <= 1.0
                    and j[3] in (-10.0, 20.0, 50.0)]
        self.jobs = [(QosScenario.from_theta_hat(th, T, B, n_r, n_t),
                      db_to_linear(db), reference[(n_r, n_t, th, db)])
                     for n_r, n_t, th, db in jobs]

    def warm_up(self):
        sc, snr, _ = self.jobs[0]
        self.asymptotics.hankel_effective_rate(sc, snr)

    def run_pass(self, seed: int) -> PassResult:
        import numpy as np
        res = PassResult()
        order = list(range(len(self.jobs)))
        random.Random(seed).shuffle(order)
        values = np.full(len(self.jobs), np.nan)
        for i in order:
            sc, snr, _ = self.jobs[i]
            t0 = time.perf_counter()
            try:
                values[i] = self.asymptotics.hankel_effective_rate(sc, snr)
            except self.effcap.EffcapError:
                pass
            res.add_ops(time.perf_counter() - t0, 1)
        errs = [rel_err(v, ref) for v, (_, _, ref) in zip(values, self.jobs)]
        res.failed = sum(not (e <= HANKEL_REL_TOL) for e in errs)
        res.accuracy["max_rel_err"] = max(
            (float(e) for e in errs if math.isfinite(e)), default=math.nan)
        res.digest.update(values.tobytes())
        return res


WORKLOADS = {cls.name: cls for cls in (Sweep, Optimize, Queue, Hankel)}
