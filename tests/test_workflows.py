"""The CI workflows run checks that live in tests/, not inline programs: a
Python program in a workflow file runs in CI only, never in a Tier-1 run,
and repeats or drifts from the test that owns its behaviour. One-line
guards stay allowed."""

import pathlib
import re

import pytest

WORKFLOWS = pathlib.Path(__file__).resolve().parent.parent / ".github" \
    / "workflows"
# a Python that reads its program from stdin: `python -` or a heredoc
_STDIN_PROGRAM = re.compile(r"\bpython3?(\s+-[A-Za-z]\S*)*\s+-(\s|$)"
                            r"|\bpython3?\b.*<<-?\s*['\"]?\w+['\"]?\s*$")
# `python -c` and the quote that opens its program
_DASH_C = re.compile(r"\bpython3?\b(?:.*\s)?-c\s+(['\"])")


def inline_programs(text):
    """The line numbers of each Python program given inline in a workflow:
    read from stdin, or a `python -c` whose quote does not close on the
    line where it opens."""
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("#"):
            continue
        dash_c = _DASH_C.search(line)
        if _STDIN_PROGRAM.search(line) or (
                dash_c and dash_c.group(1) not in line[dash_c.end():]):
            found.append(number)
    return found


@pytest.mark.parametrize("path", sorted(WORKFLOWS.glob("*.yml")),
                         ids=lambda p: p.name)
def test_workflow_holds_no_inline_program(path):
    assert inline_programs(path.read_text(encoding="utf-8")) == []


def test_inline_programs_are_found():
    text = "\n".join([
        "          python -m pip install .",                           # 1
        "          python -c \"import sys, effcap; sys.exit(0)\"",     # 2
        "          python -m pytest -q tests/test_installed.py",       # 3
        "          python - \"$RUNNER_TEMP\" <<'PY'",                  # 4
        "          python3 - <<'PY'",                                  # 5
        "          python -c 'import sys",                             # 6
        "          nines=$(python -c 'print(\"9\" * 400)')",           # 7
        "          python3 -c \"",                                     # 8
        "          python3 perfbench/smoke.py",                        # 9
        "          python <<EOF",                                      # 10
        "          # python - is no program in a comment",             # 11
        "          python -c \"print(1 - 2, 1 << 2)\"",                # 12
        "          python -u - <<EOF",                                 # 13
    ])
    assert inline_programs(text) == [4, 5, 6, 8, 10, 13]
