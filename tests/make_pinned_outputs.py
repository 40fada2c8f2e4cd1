"""Pinned outputs: every value that each effcap subcommand prints or
writes, at small sizes, kept in tests/pinned_outputs.json.

Regenerate the file after a change that moves a value on purpose, and
state the largest move in CHANGES.md:

    PYTHONPATH=src python tests/make_pinned_outputs.py

tests/test_pinned_outputs.py re-runs the same commands (`RUNS`) and
compares them with the file (`mismatches`).

Each run is kept under its name in `RUNS`: its exit status when not 0, its
stdout and stderr lines, with the run's output directory written {out},
and every file it writes. A CSV is kept as one header line and one line
per row. A header cell `col=value` is a column with that value on every
row of a file of two rows or more, and `col^` a column that every CSV of
the run has alike (a figure's SNR grid), kept once as the run's `shared`
table; the rows hold the other cells. A queue trace, 10^5 rows, is kept
as its line count, the sum of its values and every `TRACE_EVERY`-th row.
The two encodings keep the file under the test's 100 KB cap: with every
CSV stored verbatim (header and rows, traces still sampled) it is 122 KB,
with constant columns only 99.9 KB, and with both 86 KB; the six figures'
CSVs are 97 KB of the verbatim 122. The comparison undoes both first
(`_rows`) and compares full rows cell by cell, so a constant or shared
column that moves on one row is named at that row.

Tolerances. Text must match exactly, and each number in it within
`VALUE_RTOL` relative, or `STD_ERR_RTOL` in a `STD_ERR_COLUMNS` column of
a CSV. Monte Carlo values were bitwise equal across five OpenBLAS kernels
(OPENBLAS_CORETYPE), but not across NumPy's SIMD targets: with its AVX-512
loops switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"), one fig2 rate moved by one unit in its 12th printed digit,
6.5e-12 relative, and five standard errors at -40 and -38 dB by up to
1.8e-8. A standard error subtracts two nearly equal moments
(`engine._LogMeanExp.se_log`), which is why it moves most. Both
tolerances leave a wide margin over those moves and are far below any
change of draws or formulas.

Left out: Hankel values at 7x7 and up, which move between OpenBLAS kernels
or flip between a value and a refusal. No run below reads one; the Hankel
values of `validate all` are at 1x1 to 2x5.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import pathlib
import re
import sys
import tempfile

PINNED = pathlib.Path(__file__).with_name("pinned_outputs.json")
VALUE_RTOL = 1e-10
STD_ERR_COLUMNS = frozenset({"std_err"})
STD_ERR_RTOL = 1e-6
# files kept as a sample of their rows
TRACES = frozenset({"trace.csv"})
TRACE_EVERY = 10_000
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_SMALL = ("--samples", "4096", "--seed", "3")
_GRID = ("sweep.snr_db_start=-10", "sweep.snr_db_stop=20",
         "sweep.n_points=4")
_MODELS = {"iid": (),
           "kronecker": ("model.variant=kronecker", "model.rho_r=0.7",
                         "model.rho_t=0.5"),
           "fixed": ("model.variant=fixed", "model.h_real=1,0.5,-0.2,0.8",
                     "model.h_imag=0.5,0,-1,0.1")}
_STRATEGIES = ("uniform", "waterfilling", "beamforming", "fixed",
               "statistical")


def _sets(*items):
    return tuple(a for item in items for a in ("--set", item))


def _shape(n_r, n_t, theta_hat=1.0):
    return (f"scenario.n_r={n_r}", f"scenario.n_t={n_t}",
            f"scenario.theta_hat={theta_hat:g}")


def _strategy(name, n_t):
    if name != "fixed":
        return (f"strategy.name={name}",)
    return ("strategy.name=fixed", "strategy.k_diag=" + ",".join(
        "%g" % (w / sum(range(1, n_t + 1))) for w in range(n_t, 0, -1)))


def _runs():
    """{name: argument list} of every pinned run, in file order."""
    runs = {f"reproduce-fig {fig}": ("reproduce-fig", fig, "--out", "{out}")
            + _SMALL for fig in ("fig1", "fig2", "fig3", "fig4", "fig5",
                                 "fig6")}
    # at its defaults, 200k draws and seed 0: the suites dominate the cost,
    # and the test shares their one run with the acceptance tests
    runs["validate all"] = ("validate", "all")
    # the Monte Carlo commands; 4x4 takes LAPACK's eigensolve, every
    # smaller gram a closed form
    for model, (n_r, n_t), strategies in (
            ("iid", (1, 1), ("uniform", "fixed", "statistical")),
            ("iid", (2, 2), _STRATEGIES),
            ("iid", (2, 5), ("uniform",)),
            ("iid", (4, 4), ("uniform", "waterfilling")),
            ("kronecker", (1, 1), ("uniform",)),
            ("kronecker", (2, 2), ("uniform", "statistical")),
            ("fixed", (2, 2), ("uniform", "beamforming"))):
        for name in strategies:
            cfg = _shape(n_r, n_t) + _MODELS[model] + _strategy(name, n_t)
            what = f"{model} {n_r}x{n_t} {name}"
            runs[f"sweep {what}"] = (("sweep", "--out", "{out}/sweep.csv")
                                     + _SMALL + _sets(*cfg, *_GRID))
            runs[f"low-snr {what}"] = ("low-snr",) + _SMALL + _sets(*cfg)
            runs[f"sparse-wideband {what}"] = (
                ("sparse-wideband",) + _SMALL
                + _sets(*cfg, "sparse.m=5", "sparse.p_over_n0=1e4"))
    for n_r, n_t in ((1, 1), (2, 2)):
        runs[f"bit-energy iid {n_r}x{n_t} uniform"] = (
            ("bit-energy", "--out", "{out}/eb.csv") + _SMALL
            + _sets(*_shape(n_r, n_t), *_GRID))
    runs["low-snr iid 2x2 uniform theta_hat=0.5 --out"] = (
        ("low-snr", "--out", "{out}/low.csv") + _SMALL
        + _sets(*_shape(2, 2, 0.5)))
    for n_r, n_t, thetas in ((1, 1, (0, 0.5, 2)), (2, 2, (0.5, 2)),
                             (2, 5, (2, 4)), (6, 6, (1, 8))):
        for th in thetas:
            runs[f"high-snr iid {n_r}x{n_t} theta_hat={th:g}"] = (
                ("high-snr",) + _sets(*_shape(n_r, n_t, th)))
    runs["high-snr iid 2x3 theta_hat=0.5 --out"] = (
        ("high-snr", "--out", "{out}/high.csv") + _sets(*_shape(2, 3, 0.5)))
    blocks = ("--blocks", "100000")
    runs["queue-validate iid 1x1 uniform --trace-out"] = (
        ("queue-validate", "--trace-out", "{out}/trace.csv") + blocks
        + _SMALL + _sets(*_shape(1, 1)))
    for what, snr_db, cfg in (
            ("iid 1x1 uniform theta_hat=2 snr_db=0", "0", _shape(1, 1, 2)),
            ("iid 2x2 uniform", "10", _shape(2, 2)),
            ("kronecker 1x1 uniform", "10", _shape(1, 1) + _MODELS["kronecker"]),
            ("iid 2x2 beamforming", "10",
             _shape(2, 2) + _strategy("beamforming", 2))):
        runs[f"queue-validate {what}"] = (("queue-validate", "--snr-db", snr_db)
                                          + blocks + _SMALL + _sets(*cfg))
    # refusals: an exit status and one stderr line
    runs["refused high-snr fixed strategy"] = (
        ("high-snr",) + _sets(*_shape(2, 2), "strategy.name=fixed"))
    runs["refused low-snr sweep key"] = (
        ("low-snr",) + _SMALL + _sets(*_shape(1, 1), "sweep.n_points=3"))
    runs["refused queue-validate snr_db=4000"] = (
        ("queue-validate", "--snr-db", "4000") + _SMALL
        + _sets(*_shape(1, 1)))
    runs["refused sparse-wideband zero channel"] = (
        ("sparse-wideband",) + _SMALL
        + _sets(*_shape(1, 1), "model.variant=fixed", "model.h_real=0",
                "strategy.name=statistical", "sparse.m=5",
                "sparse.p_over_n0=1e4"))
    return runs


RUNS = _runs()


def _join(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


def _split(line: str) -> list:
    return next(csv.reader([line])) if line else []


def _read_csv(path: pathlib.Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _table(header, rows, shared=()) -> dict:
    const = {}
    if len(rows) >= 2:
        const = {col: rows[0][i] for i, col in enumerate(header)
                 if col not in shared
                 and all(r[i] == rows[0][i] for r in rows)}
    keep = [i for i, col in enumerate(header)
            if col not in const and col not in shared]
    cells = [f"{col}={const[col]}" if col in const else
             f"{col}^" if col in shared else col for col in header]
    return {"header": _join(cells),
            "rows": [_join([r[i] for i in keep]) for r in rows]}


def _shared_columns(tables) -> list:
    """The columns that every CSV of a run (two or more) has alike, with
    two rows or more, in the first one's order."""
    if len(tables) < 2 or len({len(rows) for _, rows in tables}) > 1 \
            or len(tables[0][1]) < 2:
        return []
    first_header, first_rows = tables[0]
    out = []
    for i, col in enumerate(first_header):
        column = [r[i] for r in first_rows]
        if len(set(column)) > 1 and all(
                col in header and [r[header.index(col)] for r in rows]
                == column for header, rows in tables[1:]):
            out.append(col)
    return out


def _files_record(paths) -> tuple:
    """(the files' records, the run's shared table or None)."""
    tables = {p.name: _read_csv(p) for p in paths}
    tables = {name: (t[0], t[1:]) for name, t in tables.items()}
    csvs = [t for name, t in tables.items() if name not in TRACES]
    shared = _shared_columns(csvs)
    files = {}
    for name, (header, rows) in tables.items():
        if name in TRACES:
            files[name] = {**_table(header, rows[::TRACE_EVERY]),
                           "lines": len(rows) + 1,
                           "sum": repr(sum(float(r[-1]) for r in rows))}
        else:
            files[name] = _table(header, rows, shared)
    table = None
    if shared:
        header, rows = csvs[0]
        idx = [header.index(col) for col in shared]
        table = {"header": _join(shared),
                 "rows": [_join([r[i] for i in idx]) for r in rows]}
    return files, table


def capture(argv) -> dict:
    """Run one command through `effcap.cli.main` in a fresh directory and
    return its record."""
    from effcap.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{out}", tmp) for a in argv])
        files, shared = _files_record(sorted(pathlib.Path(tmp).iterdir()))
    rec = {"exit": code,
           "stdout": out.getvalue().replace(tmp, "{out}").splitlines(),
           "stderr": err.getvalue().replace(tmp, "{out}").splitlines(),
           "files": files, "shared": shared}
    return {key: val for key, val in rec.items() if val}


def _rows(rec: dict, shared: dict | None) -> tuple:
    """(header, full rows as {column: cell} dicts) of a CSV record."""
    cells = _split(rec["header"])
    base = [c.rstrip("^").split("=", 1)[0] for c in cells]
    shared_rows = ([dict(zip(_split(shared["header"]), _split(r)))
                    for r in shared["rows"]] if shared else None)
    rows = []
    for i, line in enumerate(rec["rows"]):
        own = iter(_split(line))
        row = {}
        for cell, col in zip(cells, base):
            if "=" in cell:
                row[col] = cell.split("=", 1)[1]
            elif cell.endswith("^"):
                row[col] = shared_rows[i][col]
            else:
                row[col] = next(own)
        rows.append(row)
    return base, rows


def _text_matches(want: str, got: str, rtol: float = VALUE_RTOL) -> bool:
    """Whether got is the text want with each number within rtol of want's,
    relative."""
    if want == got:
        return True
    if _NUMBER.sub("#", want) != _NUMBER.sub("#", got):
        return False
    return all(abs(float(g) - float(w)) <= rtol * abs(float(w))
               for w, g in zip(_NUMBER.findall(want), _NUMBER.findall(got)))


def _lines_mismatch(want: list, got: list) -> bool:
    return len(want) != len(got) or not all(map(_text_matches, want, got))


def _file_mismatches(name, want, got, want_shared, got_shared) -> list:
    # a trace's line count and sum
    out = [f"{name}: {key} {got.get(key)} != pinned {want.get(key)}"
           for key in ("lines", "sum") if (key in want or key in got)
           and not _text_matches(str(want.get(key)), str(got.get(key)))]
    (wcols, wrows), (gcols, grows) = (_rows(want, want_shared),
                                      _rows(got, got_shared))
    if wcols != gcols:
        return out + [f"{name}: header {gcols} != pinned {wcols}"]
    if len(wrows) != len(grows):
        return out + [f"{name}: {len(grows)} rows, pinned {len(wrows)}"]
    return out + [
        f"{name} row {i} {col}: {g[col]} != pinned {w[col]}"
        for i, (w, g) in enumerate(zip(wrows, grows)) for col in wcols
        if not _text_matches(w[col], g[col], STD_ERR_RTOL
                             if col in STD_ERR_COLUMNS else VALUE_RTOL)]


def mismatches(name: str, want: dict, got: dict) -> list:
    """Messages naming each value of run `name` that moved."""
    out = [f"{name}: exit {got.get('exit')} != pinned {want.get('exit')}"
           ] if got.get("exit") != want.get("exit") else []
    out += [f"{name}: {key} {got.get(key, [])} != pinned {want.get(key, [])}"
            for key in ("stdout", "stderr")
            if _lines_mismatch(want.get(key, []), got.get(key, []))]
    wfiles, gfiles = want.get("files", {}), got.get("files", {})
    if set(wfiles) != set(gfiles):
        out.append(f"{name}: files {sorted(gfiles)} != pinned "
                   f"{sorted(wfiles)}")
    for fname in sorted(set(wfiles) & set(gfiles)):
        out += _file_mismatches(f"{name} {fname}", wfiles[fname],
                                gfiles[fname], want.get("shared"),
                                got.get("shared"))
    return out


def load() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def main() -> int:
    records = {name: capture(argv) for name, argv in RUNS.items()}
    text = json.dumps(records, indent=0, ensure_ascii=False) + "\n"
    PINNED.write_text(text, encoding="utf-8")
    print(f"wrote {PINNED} ({len(text.encode())} bytes, {len(RUNS)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
