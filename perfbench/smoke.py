"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

- Runs every workload at tiny size, untraced and traced, and checks that
  the last line of output carries exactly the metrics of BENCHMARK.json
  with their units, and that the report lines name fail_frac and the
  accuracy figures.
- Corrupts one row of a real fig3 output and checks that the sweep check
  counts exactly that row as failed.
- Runs the benchmark in a copy that holds only BENCHMARK.json and the
  benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import workloads as wl

BENCH = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ACCURACY = {"sweep": "max_rel_err", "queue": "theta_rel_err",
            "hankel": "max_rel_err"}
TIMEOUT_S = 170


def run(cwd, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_metrics(workload: str, trace: int):
    out = run(wl.ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared, (workload, trace, emitted)
    for name, v in result["metrics"].items():
        assert math.isfinite(v["value"]), (workload, name, v)
    printed = {line.split()[1] for line in lines[:-1]
               if line.startswith(workload + " ")}
    assert {"fail_frac", ACCURACY.get(workload, "fail_frac")} <= printed


def corrupt(path, row: int, value: str):
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("rate_bits_s_hz")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_corrupted_row():
    sweep = wl.Sweep(tiny=True)
    res = sweep.run_pass(5)
    assert res.failed == 0 and res.attempted == 260, vars(res)
    fig_dir = sweep.out / "fig"
    path = fig_dir / "fig3_thetahat2.csv"
    original = path.read_text(encoding="utf-8")
    corrupt(path, 10, "nan")
    assert sweep.check(fig_dir)[0] == 1
    path.write_text(original, encoding="utf-8")
    # the last SNR row of the theta_hat = 2 curve, raised above the
    # theta_hat = 1 curve at the same SNR
    corrupt(path, 26, "1e6")
    assert sweep.check(fig_dir)[0] == 1


def check_bare_copy():
    bare = wl.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
    for path in wl.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    out = run(bare, "hankel", 0)
    assert out.returncode != 0 and not out.stdout.strip(), out
    shutil.rmtree(bare)


def main():
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace)
            print(f"ok {workload} --trace {trace}")
    check_corrupted_row()
    print("ok corrupted fig3 rows are counted")
    check_bare_copy()
    print("ok fails without the effcap sources")


if __name__ == "__main__":
    main()
