"""Replay every case of cases.json through a command line.

    python tests/golden/replay.py edgelift
    PYTHONPATH=src python tests/golden/replay.py python -m edgelift.cli

Runs the given command with each case's argv, compares stdout byte for byte
with <name>.out, stderr with <name>.err where that file exists, and the exit
code with the case's, and exits 1 when any case differs, when a case name
repeats, or when a .out or .err file has no case.
"""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent


def main(command):
    cases = json.loads((GOLDEN / "cases.json").read_text())
    names = [case["name"] for case in cases]
    repeated = sorted({name for name in names if names.count(name) > 1})
    orphaned = sorted(path.name for pattern in ("*.out", "*.err")
                      for path in GOLDEN.glob(pattern) if path.stem not in names)
    for name in repeated:
        print(f"REPEATED case name {name}")
    for name in orphaned:
        print(f"ORPHANED {name} has no case")
    failed = 0
    for case in cases:
        run = subprocess.run(command + case["argv"], capture_output=True)
        expected = (GOLDEN / f"{case['name']}.out").read_bytes()
        err = GOLDEN / f"{case['name']}.err"
        stderr_ok = not err.exists() or run.stderr == err.read_bytes()
        if run.stdout != expected or not stderr_ok or run.returncode != case["exit"]:
            failed += 1
            print(f"FAIL {case['name']}: exit {run.returncode} (expected {case['exit']}), "
                  f"stdout {'matches' if run.stdout == expected else 'differs'}, "
                  f"stderr {'matches' if stderr_ok else 'differs'}")
    print(f"{len(cases) - failed} of {len(cases)} golden cases match")
    return 1 if failed or repeated or orphaned else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
