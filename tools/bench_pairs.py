"""Alternating benchmark pairs of two revisions, judged by the gain and regression rules.

    python tools/bench_pairs.py BASE CHANGE --workload small_markets --pairs 10 --seconds 20

Exports both revisions of this repository with `git archive` into a
temporary directory and refuses to go on unless their `benchmarks/` and
`BENCHMARK.json` are byte-identical.  Pair k runs `benchmarks/run.py`, as
committed, once on each side with seed `--first-seed` + k, untraced; the
base runs first in even pairs and the change in odd ones.  Prints every run,
then for each end-to-end metric of `BENCHMARK.json` each side's median and
quartiles, the change's median against the base's in percent, the pairs the
change won (ties count for neither), and whether a
gain may be claimed: the change wins at least nine tenths of the pairs, the
medians differ by more than the distance between the base's quartiles, and
no change run is incorrect or fails a larger share of its operations than
its pair's base run.  It also prints the pairs the change lost and whether
the change is worse: it loses at least nine tenths of the pairs and its
median is worse than the base's by more than that quartile distance.  The
temporary directory is removed when the tool ends, and every run has ended
by then.
"""

import argparse
import io
import json
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("benchmarks", "BENCHMARK.json")  # must not differ between the sides


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)


def _object_id(revision, path=""):
    """The git object id of `revision:path` (of the commit when no path is
    given), or None if there is none.  Equal ids mean equal bytes."""
    name = f"{revision}:{path}" if path else f"{revision}^{{commit}}"
    done = _git("rev-parse", "--verify", "--quiet", name)
    return done.stdout if done.returncode == 0 else None


def _export(revision, into):
    """Write the revision's committed files under `into`."""
    done = _git("archive", revision)
    done.check_returncode()
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, filter="data")


def _run(tree, workload, seed, seconds):
    """The result object `benchmarks/run.py` prints last, run in `tree`."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def _spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return median(values), q1, q3


def sound(base_run, change_run):
    """Whether a pair's change run may count towards a gain: it is correct,
    and no larger a share of its operations fails than of the base run's."""
    return change_run["correct"] and (
        change_run["failed"] * base_run["attempted"]
        <= base_run["failed"] * change_run["attempted"])


def _rule(base, change, sign):
    """(pairs where `sign * (base - change)` is positive, whether they are at
    least nine tenths of the pairs and the medians differ that way by more
    than the distance between the base's quartiles)."""
    won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    mid, q1, q3 = _spread(base)
    gap = sign * (mid - median(change))
    return won, 10 * won >= 9 * len(base) and gap > q3 - q1


def verdict(base, change, lower_is_better, all_sound=True):
    """(pairs won by the change, whether the gain rule holds) for one metric
    over paired runs; the rule never holds unless every pair is `sound`."""
    won, holds = _rule(base, change, 1 if lower_is_better else -1)
    return won, all_sound and holds


def regression(base, change, lower_is_better):
    """(pairs lost by the change, whether it is worse) for one metric: the
    gain rule turned round, so the change loses at least nine tenths of the
    pairs and its median is worse than the base's by more than the distance
    between the base's quartiles."""
    return _rule(base, change, -1 if lower_is_better else 1)


def median_change(base, change):
    """How far the change's median lies from the base's, in percent of the
    base's; None when the base's median is zero."""
    mid = median(base)
    return None if mid == 0 else 100 * (median(change) - mid) / mid


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent revision")
    parser.add_argument("change", help="the revision claiming a gain")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    unknown = [rev for rev in (args.base, args.change) if _object_id(rev) is None]
    if unknown:
        parser.error(f"unknown revision {unknown[0]}")
    ids = {path: [_object_id(rev, path) for rev in (args.base, args.change)]
           for path in SHARED}
    differing = [path for path, (base, change) in ids.items()
                 if base is None or base != change]
    if differing:
        sys.stderr.write(f"refused: {', '.join(differing)} differ between "
                         f"{args.base} and {args.change}\n")
        return 1
    # A terminated tool still stops its run and removes its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in runs}
        for side, revision in (("base", args.base), ("change", args.change)):
            _export(revision, trees[side])
        declared = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        metrics = declared["end_to_end"]
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                result = _run(trees[side], args.workload, seed, args.seconds)
                runs[side].append(result)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"pair {k + 1} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}",
                      flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}")
    print(f"{'metric':<14}{'base median [q1, q3]':<34}{'change median [q1, q3]':<34}"
          f"{'median':<10}{'won':<8}{'gain rule':<16}{'lost':<8}worse")
    all_sound = all(map(sound, runs["base"], runs["change"]))
    for metric in metrics:
        name = metric["name"]
        base, change = ([run["metrics"][name]["value"] for run in runs[side]]
                        for side in ("base", "change"))
        lower = metric["better"] == "lower"
        won, holds = verdict(base, change, lower, all_sound)
        lost, worse = regression(base, change, lower)
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(*_spread(values))
                 for values in (base, change)]
        shift = median_change(base, change)
        shift = "n/a" if shift is None else f"{shift:+.1f}%"
        print(f"{name:<14}{cells[0]:<34}{cells[1]:<34}{shift:<10}{f'{won}/{args.pairs}':<8}"
              f"{'holds' if holds else 'does not hold':<16}{f'{lost}/{args.pairs}':<8}"
              f"{'worse' if worse else 'not worse'}")
    for side, results in runs.items():
        bad = sum(not r["correct"] or r["failed"] for r in results)
        if bad:
            print(f"{side}: {bad} runs not correct or with failed operations")
    if not all_sound:
        print("no gain holds: some change runs are not correct or fail a "
              "larger share of operations than their base runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
