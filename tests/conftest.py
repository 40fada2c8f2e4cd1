import functools

import pytest

ACCEPTANCE_LINES = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append((number, line))
    print(line)


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
