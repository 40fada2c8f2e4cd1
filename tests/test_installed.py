"""What installing adds to the package in src/: effcap imports from outside
the source tree without loading SciPy, and the `effcap` console script
passes the exit status of `cli.main` to the shell.

Which effcap is tested follows from the one this process imported. If it
is not the tree's src/effcap, it is an installed package (CI runs this
module after `pip install .`, with no PYTHONPATH): the fresh processes
find it as this one did, and the commands run through the `effcap`
console script on PATH. Otherwise the tests copy src/effcap to a
temporary directory outside the tree and run `python -m effcap.cli` on
the copy."""

import pathlib
import shutil
import sys

import pytest

import effcap
from conftest import SRC, run_fresh


@pytest.fixture(scope="module")
def installed(tmp_path_factory):
    """(root, command): the directory to put ahead of PYTHONPATH, None for
    the installed package, and the command that runs the effcap CLI."""
    package = pathlib.Path(effcap.__file__).resolve().parent
    if package != SRC / "effcap":
        script = shutil.which("effcap")
        assert script, f"effcap imported from {package}, but no console script"
        return None, [script]
    root = tmp_path_factory.mktemp("site")
    shutil.copytree(package, root / "effcap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root, [sys.executable, "-m", "effcap.cli"]


def test_imports_outside_the_tree_without_scipy(installed, tmp_path):
    root, _ = installed
    out = run_fresh([sys.executable, "-c",
                     "import sys, effcap, effcap.cli\n"
                     "print(effcap.__file__)\n"
                     "print(sorted(m for m in sys.modules"
                     " if m.split('.')[0] == 'scipy'))"], tmp_path, root)
    assert out.returncode == 0, out.stderr
    where, scipy = out.stdout.splitlines()
    where = pathlib.Path(where).resolve()
    assert SRC not in where.parents
    assert root is None or root.resolve() in where.parents
    assert scipy == "[]"


@pytest.mark.parametrize("code,argv,err", [
    (0, ("high-snr", "--set", "scenario.theta_hat=0.5"), ""),
    (2, ("high-snr", "--set", "scenario.theta_hat=nan"),
     "config error: "),
    (3, ("low-snr", "--set", "scenario.theta_hat=1",
         "--set", "model.variant=fixed", "--set", "model.h_real=1e60",
         "--samples", "2000", "--quiet"),
     "numeric error: per-draw gain not finite"),
], ids=["ok", "config-error", "numeric-error"])
def test_command_exit_status_reaches_the_shell(installed, code, argv, err,
                                               tmp_path):
    root, command = installed
    out = run_fresh(command + list(argv), tmp_path, root)
    assert out.returncode == code, out.stderr
    assert out.stderr.startswith(err) and out.stderr.count("\n") == (
        1 if err else 0)
    assert (out.stdout != "") == (code == 0)
