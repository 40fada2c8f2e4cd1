"""effcap benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for why each exists): sweep, optimize, queue,
hankel. A run imports effcap from `src/` beside this directory, builds the
workload's inputs from --seed, warms up, then repeats the workload's job
list until --seconds have passed. Pass k uses its own seed, drawn from
--seed, so that no pass can reuse work cached by an earlier one.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median time of one job-list pass
  setup_s      median over SETUP_ROUNDS processes of import + input
               construction + one tiny warm-up job
  ops_per_s    ops completed per second of pass time
  peak_rss_mb  peak resident memory of the run
  op_p50_ms    median over passes of the median op latency of the pass
               (queue's ops are 2 short and 2 long per pass, so a median
               over all ops would fall between the two groups)
  op_p95_ms    the highest percentile up to p95 with at least 10 ops beyond
These times are in reference seconds: each pass (and each set-up) is
timed, then scaled by HOST_REF_S / t_host, where t_host is the time of a
fixed NumPy + Python kernel that shares no code with effcap, run right
before and after the pass. On a shared VM the same work takes up to 1.5x
longer from one minute to the next, in CPU time as well as wall time;
the kernel slows with it, so the ratio stays steady. The unscaled values
are printed as *_raw and kept in the result file.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (tracing.py): counts from the first traced pass, which repeat
exactly for a given seed, and times as medians over the traced passes,
unscaled except trace.overhead_s, the difference of the scaled medians.

Both modes run the output checks. Each failed op (a raised EffcapError or
a failed check) counts in `failed`; fail_frac, max_rel_err and
theta_rel_err are printed with the other metrics and kept in the result
file, but are not gated: fail_frac is 0 when all is well and the accuracy
figures move with the Monte Carlo seed. The last line of stdout is the
JSON result; the full result, with provenance and the sha256 digest of
the first pass's outputs, is written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl

SETUP_ROUNDS = 3
SETUP_ROUNDS_TINY = 2
# at least this many ops must lie beyond the reported tail percentile
TAIL_OPS = 10
PROBE_TIMEOUT_S = 120
# reference time of the host-speed kernel; scaled times read as if the
# kernel had taken this long
HOST_REF_S = 0.05
HOST_REPS = 30


def pass_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


def set_up(name: str, tiny: bool):
    """Import effcap, build the inputs and run one tiny job; returns the
    workload and the seconds it took."""
    t0 = time.perf_counter()
    workload = wl.WORKLOADS[name](tiny)
    workload.warm_up()
    return workload, time.perf_counter() - t0


class HostSpeed:
    """A fixed NumPy + Python kernel, independent of effcap, timed to follow
    the speed of a shared host."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.eigvalsh = np.linalg.eigvalsh
        self.a = rng.standard_normal((512, 4, 4)) \
            + 1j * rng.standard_normal((512, 4, 4))
        self.seconds()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(HOST_REPS):
            self.eigvalsh(self.a @ self.a.conj().transpose(0, 2, 1))
            s = 0.0
            for i in range(3000):
                s += i * 0.5
        return time.perf_counter() - t0


def probe_setup(args):
    """(set-up seconds, host kernel seconds) of a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S)
    probe = json.loads(out.stdout.splitlines()[-1])
    return probe["setup_s"], probe["host_s"]


def tail_percentile(latencies):
    """(q, value): q up to 0.95 with at least TAIL_OPS ops beyond it."""
    vals = sorted(latencies)
    n = len(vals)
    idx = min(math.ceil(0.95 * n) - 1, n - 1 - TAIL_OPS)
    if idx < 0:
        idx = n - 1
    return (idx + 1) / n, vals[idx]


def provenance(seed: int):
    import numpy as np
    import scipy
    import effcap
    git_sha = None
    if (wl.ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                                 capture_output=True, text=True, timeout=30)
            git_sha = sha.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((wl.SRC / "effcap").rglob("*.py")):
        src.update(path.relative_to(wl.SRC).as_posix().encode())
        src.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "effcap": effcap.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("blas"),
        "lapack": blas.get("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_passes(workload, args, host):
    """Run passes until --seconds have passed, timing the host kernel
    between them. With --trace 1, every second pass runs under a tracer."""
    from tracing import Tracer, traced
    passes, tracers = [], []
    seeds = pass_seeds(args.seed)
    host_s = [host.seconds()]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds \
            or (args.trace and not tracers):
        if args.trace and len(passes) % 2 == 1:
            tracer = Tracer(run_id=len(passes))
            with traced(tracer):
                cpu0 = time.process_time()
                res = workload.run_pass(next(seeds))
                tracer.cpu_s = time.process_time() - cpu0
            tracers.append(tracer)
            res.traced = True
        else:
            res = workload.run_pass(next(seeds))
            res.traced = False
        passes.append(res)
        res.rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        host_s.append(host.seconds())
    for p, before, after in zip(passes, host_s, host_s[1:]):
        p.scale = HOST_REF_S / (0.5 * (before + after))
    return passes, tracers


def timing_metrics(walls, latencies, setups):
    """latencies holds one list of op latencies per pass."""
    q95, p95 = tail_percentile([x for lat in latencies for x in lat])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(map(len, latencies)) / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(
            statistics.median(lat) for lat in latencies), "ms"),
        "op_p95_ms": (1e3 * p95, "ms"),
    }, q95


def end_to_end(passes, setups):
    """Scaled end-to-end metrics, and the unscaled ones for the record.
    setups holds (set-up seconds, host kernel seconds) per process."""
    metrics, q95 = timing_metrics(
        [p.wall * p.scale for p in passes],
        [[x * p.scale for x in p.latencies] for p in passes],
        [s * HOST_REF_S / h for s, h in setups])
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw, _ = timing_metrics([p.wall for p in passes],
                            [p.latencies for p in passes],
                            [s for s, _ in setups])
    notes = {"ops": sum(len(p.latencies) for p in passes),
             "op_p95_ms.percentile": q95,
             "pass_walls_s": [p.wall for p in passes],
             "pass_scales": [p.scale for p in passes],
             "pass_rss_mb": [p.rss for p in passes],
             "setups_s_host_s": setups}
    return metrics, raw, notes


def per_layer(passes, tracers):
    from tracing import layer_metrics
    each = [layer_metrics(t) for t in tracers]
    scaled = [p.wall * p.scale for p in passes if p.traced]
    plain = [p.wall * p.scale for p in passes if not p.traced]
    metrics = {}
    for name, (value, unit) in each[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in each)
        metrics[name] = (value, unit)
    cpu = statistics.median(t.cpu_s for t in tracers)
    metrics["proc.cpu_s"] = (cpu, "s")
    metrics["proc.cpu_util"] = (
        cpu / statistics.median(p.wall for p in passes if p.traced), "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(scaled) - statistics.median(plain), "s")
    return metrics


def write_outputs(args, result, tracers):
    wl.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(wl.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracers:
        with open(wl.OUT_DIR / f"{stem}-spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op",
                                   "run_id"],
                       "counters": [dict(t.counters) for t in tracers],
                       "spans": [s for t in tracers for s in t.spans()]}, fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload, own_setup = set_up(args.workload, args.tiny)
    except wl.EffcapMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    host = HostSpeed()
    own_host = host.seconds()
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup, "host_s": own_host}))
        return 0

    passes, tracers = run_passes(workload, args, host)
    raw = {}
    if args.trace:
        metrics = per_layer(passes, tracers)
        notes = {"passes": len(passes), "traced_passes": len(tracers)}
    else:
        rounds = SETUP_ROUNDS_TINY if args.tiny else SETUP_ROUNDS
        setups = [(own_setup, own_host)] + [probe_setup(args)
                                            for _ in range(rounds - 1)]
        metrics, raw, notes = end_to_end(passes, setups)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    acc = passes[0].accuracy
    report = dict(metrics)
    for k, (v, u) in raw.items():
        report[k + "_raw"] = (v, u)
    report["fail_frac"] = (failed / attempted, "ratio")
    for k, v in acc.items():
        report[k] = (v, "ratio")
    prov = provenance(args.seed)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "output_sha256": passes[0].digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "notes": notes,
    }
    if tracers:
        from tracing import span_times
        result["self_s"] = {name: s for name, (_, _, s)
                            in sorted(span_times(tracers[0]).items())}
    write_outputs(args, result, tracers)

    for k, (v, u) in report.items():
        print(f"{args.workload} {k} = {v!r} {u}")
    print(f"{args.workload} output_sha256 = {result['output_sha256']}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
