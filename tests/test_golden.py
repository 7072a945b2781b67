"""Golden corpus: recorded CLI invocations replayed in process, and a few
of them through the ``python -m entroplab`` entry point.

``golden/cases.json`` maps a case name to its argv, in which ``@name``
stands for the file ``golden/inputs/name``, and to the expected exit code;
``golden/<case>.out`` holds the expected stdout bytes.  After an intended
change of output, rewrite the recordings with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from entroplab.cli import run

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))

# Cases replayed in a fresh interpreter too: the entry point runs with the
# cyclic collector off and freezes the heap before exit, which no in-process
# replay exercises, and returns the command's exit code (0, 1 under --strict,
# 2 on a malformed input) as the process's.
ENTRY_POINT_CASES = ["info-disjoint-sets", "check-all-field-lines-b", "fuzz-theorem1",
                     "graph-bcc-exact", "graph-min-partition-random-5x5",
                     "check-strict-distinct-pairs", "verify-malformed"]


def _argv(argv):
    inputs = GOLDEN / "inputs"
    return [str(inputs / a[1:]) if a.startswith("@") else a for a in argv]


def _replay(argv):
    return run(_argv(argv))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    case = CASES[name]
    outcome = _replay(case["argv"])
    assert outcome.exit_code == case["exit_code"]
    assert outcome.text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ENTRY_POINT_CASES)
def test_golden_through_the_entry_point(name):
    case = CASES[name]
    result = subprocess.run([sys.executable, "-m", "entroplab", *_argv(case["argv"])],
                            capture_output=True)
    assert result.returncode == case["exit_code"]
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, case in CASES.items():
        outcome = _replay(case["argv"])
        case["exit_code"] = outcome.exit_code
        (GOLDEN / f"{name}.out").write_text(outcome.text, encoding="utf-8")
    lines = [f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in CASES.items()]
    (GOLDEN / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
