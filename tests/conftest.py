import functools
import os
import pathlib
import subprocess

import pytest

ACCEPTANCE_LINES = []
# the directory that holds the package's source tree, src/effcap
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append((number, line))
    print(line)


def run_fresh(argv, cwd, root=None):
    """Run argv in a fresh process whose `import effcap` finds the package
    in the directory root, ahead of any PYTHONPATH; with root None the
    process finds it as an installed package would be found."""
    env = dict(os.environ)
    if root is not None:
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
    return subprocess.run(list(argv), cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def suite_checks():
    """suite_checks(name) -> the checks of `run_validation(name)` at its
    defaults (200k draws, seed 0), the checks `effcap validate <name>`
    prints. Each suite runs at most once per session, when first asked for.
    """
    from effcap.validation import run_validation
    return functools.cache(lambda name: run_validation(name)[1])
