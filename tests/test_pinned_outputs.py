"""Every value that each subcommand prints or writes, at small sizes,
against tests/pinned_outputs.json: a value that moves fails here, whether
or not some bound covers it. A change that moves values on purpose
regenerates the file with tests/make_pinned_outputs.py, which also states
the tolerances."""

import make_pinned_outputs as pinned
from effcap import cli
from effcap.validation import SUITES


def test_outputs_match_pinned_file(monkeypatch, suite_checks):
    assert pinned.PINNED.stat().st_size < 100_000
    want = pinned.load()
    assert list(want) == list(pinned.RUNS)

    def shared_suites(suite, n_samples, seed):
        # `validate all` at its defaults prints the checks of the suites
        # that the acceptance tests run once per session
        assert (suite, n_samples, seed) == ("all", 200_000, 0)
        checks = [c for name in SUITES for c in suite_checks(name)]
        return all(c.passed for c in checks), checks

    monkeypatch.setattr(cli, "run_validation", shared_suites)
    moved = [msg for name, argv in pinned.RUNS.items()
             for msg in pinned.mismatches(name, want[name],
                                          pinned.capture(argv))]
    assert not moved, "\n".join(moved[:50])


def test_moved_cell_of_an_encoded_column_is_named(tmp_path):
    # the file keeps a column alike on every row (theta_hat) in its header
    # and one alike in every CSV of a run (snr_db) once per run; a cell
    # that leaves either is named at its row, not only as a header change
    def record(rows_a, rows_b):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        for name, rows in (("a.csv", rows_a), ("b.csv", rows_b)):
            (out / name).write_text("snr_db,theta_hat,rate\n" + "".join(
                ",".join(map(str, r)) + "\n" for r in rows))
        files, shared = pinned._files_record(sorted(out.iterdir()))
        return {"files": files, "shared": shared}

    a = [(-10, 1, 0.5), (0, 1, 0.9), (10, 1, 1.2)]
    b = [(-10, 2, 0.4), (0, 2, 0.8), (10, 2, 1.1)]
    want = record(a, b)
    assert want["files"]["a.csv"]["header"] == "snr_db^,theta_hat=1,rate"
    assert pinned.mismatches("run", want, record(a, b)) == []
    moved = pinned.mismatches("run", want, record(
        a[:2] + [(10, 1.5, 1.2)], [b[0], (1, 2, 0.8), b[2]]))
    assert "run a.csv row 2 theta_hat: 1.5 != pinned 1" in moved
    assert "run b.csv row 1 snr_db: 1 != pinned 0" in moved
