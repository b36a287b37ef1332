"""Benchmark of bundlechoice: one workload per process, seeded, checked.

Usage (from the repository root):

    python3 benchmarks/run.py --workload district --seed 1 --seconds 20 --trace 0

Workloads: `district`, `lab`, `small_markets` (see README.md).  The run
generates its inputs from `--seed`, sets them up several times, then runs
whole rounds of the workload's operations until `--seconds` of rounds have
been measured, and checks every output against independent computations.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1`
rounds alternate between untraced and traced; the traced ones record a span
around each call from these files into a layer of the program, and the run
reports each layer's self time, the engines' work counters, one CLI process
per subcommand, and the tracing overhead.  The spans are written to
`.bench_out/` when the run ends.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import pickle
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from math import fsum
from statistics import median

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

LAYER_SPANS = (
    "model.validate", "model.simplicity", "model.bundle_matching",
    "io.parse", "io.serialize",
    "engines.simple", "engines.general",
    "audit.bundle_stability", "audit.seat_stability", "audit.oracle",
    "audit.properties",
    "implementation.implement", "implementation.enumerate",
    "experiments.profiles", "experiments.simulate_exp1",
    "experiments.simulate_exp2", "experiments.sample_scores",
    "experiments.exact", "experiments.verify",
)
SETUP_SPANS = ("io.parse", "experiments.profiles")
ENGINE_COUNTS = ("rounds", "admits", "rejects", "releases", "overdemand",
                 "trace_events")

# One process per subcommand, on the fixtures the acceptance tests use.
CLI_CASES = (
    ("validate", "two_hierarchy_market.json", "two_hierarchy_market_rols.json"),
    ("run-bundle-da", "two_hierarchy_market.json", "two_hierarchy_market_rols.json",
     "--implement", "det"),
    ("implement", "five_student_market.json", "five_student_matching.json"),
    ("check-stability", "five_student_market.json", "five_student_market_rols.json",
     "five_student_matching.json"),
    ("oracle", "pusm", "five_student_market.json", "five_student_market_rols.json",
     "five_student_matching.json"),
    ("improve", "five_student_market.json", "five_student_market_rols.json",
     "five_student_matching.json"),
    ("audit-rol", "two_hierarchy_market.json", "two_hierarchy_market_rols.json"),
    ("simulate-experiment", "--exp", "1", "--treatment", "strict-bundle",
     "--rounds", "400", "--seed", "21"),
    ("trace", "nested_bundle_market.json", "nested_bundle_market_rols.json",
     "--tiebreak", "i1,i2,i3,i4,i5,i6,i7,i8"),
)
INTERPRETER_RUNS = 5


def _import_program():
    """Import the package from this checkout's `src/`, or exit 1."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import bundlechoice
        import checks  # noqa: F401  (needs tests/stability_oracle, tests/exp1_oracle)
    except ImportError as err:
        sys.exit(f"benchmark: cannot import the program from {ROOT}: {err}")
    origin = Path(bundlechoice.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"benchmark: imported bundlechoice from {origin}, outside {ROOT}")


def _workloads():
    from district import District
    from lab import Lab
    from small import SmallMarkets

    return {"district": District, "lab": Lab, "small_markets": SmallMarkets}


class _PartTimer:
    """Named stopwatches summed within a round, one list entry per round."""

    def __init__(self):
        self.parts = {}
        self._round = {}

    def __call__(self, name):
        return _Stopwatch(self._round, name)

    def close_round(self):
        for name, value in self._round.items():
            self.parts.setdefault(name, []).append(value)
        self._round = {}


class _Stopwatch:
    __slots__ = ("sums", "name", "start")

    def __init__(self, sums, name):
        self.sums = sums
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.sums[self.name] = self.sums.get(self.name, 0.0) + (
            time.perf_counter() - self.start)
        return False


class _EngineCounts:
    """Work counters read from each `EngineTrace` of one traced round."""

    KINDS = {"admit": "admits", "reject": "rejects", "release": "releases",
             "overdemand": "overdemand"}

    def __init__(self):
        self.counts = dict.fromkeys(ENGINE_COUNTS, 0)
        self.matched = 0

    def __call__(self, trace):
        self.counts["rounds"] += len(trace.rounds)
        self.matched += len(trace.final)
        for event in trace.events():
            self.counts["trace_events"] += 1
            name = self.KINDS.get(event[1])
            if name:
                self.counts[name] += 1

    def result(self):
        admits = self.counts["admits"]
        return dict(self.counts, admit_yield=self.matched / admits if admits else 0.0)


def _ignore(trace):
    pass


def _cli_times():
    """(median seconds per CLI process, median bare interpreter, problems)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    command = [sys.executable, "-c", "from bundlechoice.cli import main; main()"]
    fixtures = ROOT / "fixtures"
    times, problems = [], []
    for case in CLI_CASES:
        args = [str(fixtures / a) if a.endswith(".json") else a for a in case]
        start = time.perf_counter()
        done = subprocess.run([*command, *args], capture_output=True, env=env,
                              cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or not done.stdout:
            problems.append(f"cli {case[0]}: exit {done.returncode}, "
                            f"{done.stderr.decode()[-200:]}")
    bare = []
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=ROOT,
                       capture_output=True, timeout=120, check=True)
        bare.append(time.perf_counter() - start)
    return median(times), median(bare), problems


def _in_child(fn, *args):
    """`fn(*args)` computed in a forked child process.

    The checks run this way, so that the memory they use never reaches this
    process's peak resident memory, which `peak_rss_mb` reports.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except BaseException:
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as pipe:
            payload = pipe.read()
    finally:
        os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError("the check process ended without a result")
    done, value = pickle.loads(payload)
    if not done:
        raise RuntimeError(f"the check raised:\n{value}")
    return value


def measure(workload, seed, seconds, trace):
    from tracing import NULL, Tracer

    tracer = Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        wl = _workloads()[workload](seed, Path(workdir), ROOT)

        setup_times, setup_segments = [], []

        def set_up(state):
            first = len(tracer.spans) if trace else 0
            start = time.perf_counter()
            state = wl.setup(tracer or NULL, state)
            setup_times.append(time.perf_counter() - start)
            if trace:
                setup_segments.append(tracer.self_times(first))
            return state

        state = None
        for _ in range(wl.setups):
            state = set_up(state)
        validate_segment = {}
        if trace:
            first = len(tracer.spans)
            wl.validate_directly(tracer)
            validate_segment = tracer.self_times(first)

        timer = _PartTimer()
        round_times = {False: [], True: []}  # traced? -> seconds per round
        traced_segments, counts = [], []
        first_outputs = None
        failed_per_round, problems = None, []
        measured = 0.0
        rounds = 0
        while measured < seconds or rounds < wl.min_rounds or (
                trace and rounds < 2 * wl.min_rounds):
            if rounds:
                for _ in range(wl.setups_per_round):
                    state = set_up(state)
            traced = trace and rounds % 2 == 1
            first = len(tracer.spans) if traced else 0
            engine_counts = _EngineCounts() if traced else _ignore
            start = time.perf_counter()
            outputs = wl.run_round(tracer if traced else NULL, state, timer,
                                   rounds, engine_counts)
            elapsed = time.perf_counter() - start
            timer.close_round()
            round_times[traced].append(elapsed)
            measured += elapsed
            if traced:
                traced_segments.append(tracer.self_times(first))
                counts.append(engine_counts.result())
            if first_outputs is None or not wl.same_outputs_each_round:
                failed, found = _in_child(wl.check, outputs)
                problems += found
                if failed_per_round not in (None, failed):
                    problems.append(f"round {rounds}: {failed} failed operations, "
                                    f"round 0 had {failed_per_round}")
                failed_per_round = failed
                if first_outputs is None:
                    first_outputs = outputs if wl.same_outputs_each_round else True
            elif outputs != first_outputs:
                problems.append(f"round {rounds}: outputs differ from round 0")
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "correct": not problems,
        "attempted": rounds * wl.ops_per_round,
        "failed": rounds * failed_per_round,
    }
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if not trace:
        for name, (value, unit) in wl.details(timer.parts).items():
            print(f"{workload} {name} = {value:.6g} {unit}")
        result["metrics"] = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "round_s": {"value": fsum(round_times[False]) / len(round_times[False]),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return result

    metrics = {}
    for name in LAYER_SPANS:
        if name == "model.validate":
            value = validate_segment.get(name, 0.0)
        elif name in SETUP_SPANS:
            value = median(seg.get(name, 0.0) for seg in setup_segments)
        else:
            value = median(seg.get(name, 0.0) for seg in traced_segments)
        metrics[f"{name}_s"] = {"value": value, "unit": "s"}
    for name in ENGINE_COUNTS:
        metrics[f"engines.{name}"] = {"value": median(c[name] for c in counts),
                                      "unit": "count"}
    metrics["engines.admit_yield"] = {
        "value": median(c["admit_yield"] for c in counts), "unit": "ratio"}
    metrics["bench.glue_s"] = {
        "value": median(fsum(v for k, v in seg.items() if k.startswith("op."))
                        for seg in traced_segments), "unit": "s"}
    untraced, traced = (fsum(round_times[k]) / len(round_times[k]) for k in (False, True))
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0),
                                     "unit": "%"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    process_s, interpreter_s, cli_problems = _cli_times()
    metrics["cli.process_s"] = {"value": process_s, "unit": "s"}
    metrics["cli.interpreter_s"] = {"value": interpreter_s, "unit": "s"}
    for problem in cli_problems:
        print(f"CHECK FAILED: {problem}")
    result["correct"] = result["correct"] and not cli_problems
    result["metrics"] = metrics
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(path)
    print(f"{workload}: {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("district", "lab", "small_markets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    _import_program()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
