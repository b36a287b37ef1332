"""Count CPython's full collections in a benchmark's set-ups and rounds.

    python tools/gc_phase.py WORKLOAD SEED [SECONDS]

Runs the committed `benchmarks/run.py` of this checkout in this process, as
`--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0` would (SECONDS
defaults to 8), with a `gc.callbacks` probe that counts the full (generation
2) collections starting inside each call of the workload's `setup` and
`run_round`.  Prints one line per phase: its calls, how many of them held a
full collection, and the full collections in it; collections between the
calls (the run's own bookkeeping) are counted apart.  The checks run in
forked children, whose collections are not counted.  Nothing under
`benchmarks/` is changed: the probe wraps the workload class in memory.
"""

import argparse
import contextlib
import gc
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("setup", "run_round")


def count(workload, seed, seconds):
    """({phase: (calls, calls holding a full collection, full collections)},
    full collections outside both phases, the run's result object)."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run

    run._import_program()
    classes = run._workloads()
    calls = {phase: [] for phase in PHASES}  # phase -> full collections per call
    current = [None]  # the phase running now, or None between calls
    outside = [0]

    def probe(stage, info):
        if stage == "start" and info["generation"] == 2:
            if current[0] is None:
                outside[0] += 1
            else:
                calls[current[0]][-1] += 1

    def probed(phase, method):
        def call(self, *args):
            current[0] = phase
            calls[phase].append(0)
            try:
                return method(self, *args)
            finally:
                current[0] = None
        return call

    base = classes[workload]
    wrapped = type(base.__name__, (base,),
                   {phase: probed(phase, getattr(base, phase)) for phase in PHASES})
    run._workloads = lambda: {**classes, workload: wrapped}
    gc.callbacks.append(probe)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.measure(workload, seed, seconds, False)
    finally:
        gc.callbacks.remove(probe)
    phases = {phase: (len(made), sum(map(bool, made)), sum(made))
              for phase, made in calls.items()}
    return phases, outside[0], result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("district", "lab", "small_markets"))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float, nargs="?", default=8.0)
    args = parser.parse_args(argv)
    phases, outside, result = count(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s: correct="
          f"{result['correct']} failed={result['failed']}/{result['attempted']}")
    for phase, (made, holding, full) in phases.items():
        print(f"{phase}: {made} calls, {holding} holding a full collection, "
              f"{full} full collections")
    print(f"between calls: {outside} full collections")
    print(json.dumps({"phases": phases, "outside": outside}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
