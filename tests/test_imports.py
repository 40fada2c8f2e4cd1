"""Every name a library module imports is used in that module, and the
package starts without SciPy: it is imported only inside the functions
that call it."""

import ast
import sys

import pytest

from conftest import SRC, run_fresh

PACKAGE = SRC / "effcap"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


# __init__.py is skipped whole: its imports are the package exports
@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_import_loads_no_scipy(tmp_path):
    # SciPy was most of the start-up time of every effcap process
    out = run_fresh([sys.executable, "-c",
                     "import sys, effcap, effcap.cli\n"
                     "print(sorted(m for m in sys.modules"
                     " if m.split('.')[0] == 'scipy'))"], tmp_path, SRC)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("reproduce-fig", "fig1", "--samples", "2000", "--seed", "0",
     "--out", "fig", "--quiet"),
    ("sweep", "--set", "scenario.theta_hat=1", "--set", "sweep.n_points=3",
     "--set", "sweep.snr_db_start=0", "--set", "sweep.snr_db_stop=10",
     "--samples", "2000", "--out", "sweep.csv", "--quiet"),
    ("queue-validate", "--set", "scenario.theta_hat=1.0",
     "--blocks", "100000", "--samples", "20000", "--seed", "0", "--quiet"),
    ("high-snr", "--set", "scenario.theta_hat=1"),
], ids=lambda argv: argv[0])
def test_commands_run_without_scipy(argv, tmp_path):
    # None in sys.modules makes every `import scipy...` raise ImportError
    out = run_fresh([sys.executable, "-c",
                     "import sys\n"
                     "sys.modules['scipy'] = None\n"
                     "from effcap import cli\n"
                     f"sys.exit(cli.main({list(argv)!r}))"], tmp_path, SRC)
    assert out.returncode == 0, out.stderr


def test_asymptotics_integrate_is_loaded_on_demand():
    from scipy import integrate

    from effcap import asymptotics
    assert asymptotics.integrate is integrate
    with pytest.raises(AttributeError, match="no_such_name"):
        asymptotics.no_such_name
