"""`tools/gc_phase.py` on the `lab` workload, run for its minimum rounds.

Each run is a child process, so the benchmark's modules never enter the test
process.  `lab` sets up five times, then five more times before each round
after the first, and makes five rounds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A child that makes every `lab` round start with one full collection.
FORCED = """
import gc, sys
sys.path[:0] = ["tools", "benchmarks"]
import gc_phase, run
run._import_program()
import lab
plain = lab.Lab.run_round
def collecting(self, *args):
    gc.collect()
    return plain(self, *args)
lab.Lab.run_round = collecting
sys.exit(gc_phase.main(["lab", "1", "0"]))
"""


def _phases(argv):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "lab seed 1, 0 s: correct=True failed=0/95"
    return json.loads(lines[-1])


def test_the_calls_of_each_phase_are_counted():
    found = _phases(["tools/gc_phase.py", "lab", "1", "0"])
    setups, rounds = found["phases"]["setup"], found["phases"]["run_round"]
    assert setups[0] == 25 and rounds[0] == 5
    for calls, holding, full in (setups, rounds):
        assert 0 <= holding <= calls and holding <= full


def test_a_full_collection_is_counted_in_its_phase():
    found = _phases(["-c", FORCED])
    calls, holding, full = found["phases"]["run_round"]
    assert (calls, holding) == (5, 5) and full >= 5
