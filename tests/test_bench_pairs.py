"""The gain and regression rules of `tools/bench_pairs.py`, on made-up
paired runs.

The gain rule: the change wins at least nine tenths of the pairs, ties
counting for neither, and the medians differ by more than the distance
between the base's quartiles, in the metric's better direction, and no
change run is incorrect or fails a larger share of its operations than its
base run.  The regression rule is the same turned round: the change loses at
least nine tenths of the pairs and its median is worse by more than that
distance.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

BASE = [0.40, 0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48, 0.49]


def test_a_clear_gain_holds():
    change = [b - 0.06 for b in BASE]
    assert bench_pairs.verdict(BASE, change, lower_is_better=True) == (10, True)
    assert bench_pairs.verdict(change, BASE, lower_is_better=False) == (10, True)


def test_a_gain_inside_the_base_spread_does_not_hold():
    change = [b - 0.01 for b in BASE]  # wins every pair, gap 0.01 < IQR 0.045
    assert bench_pairs.verdict(BASE, change, lower_is_better=True) == (10, False)


def test_ties_and_losses_count_against_the_change():
    change = [b - 0.2 for b in BASE]
    change[3] = BASE[3]  # a tie wins nothing: 9 of 10 still hold
    assert bench_pairs.verdict(BASE, change, lower_is_better=True) == (9, True)
    change[4] = BASE[4] + 0.01  # a loss: 8 of 10
    assert bench_pairs.verdict(BASE, change, lower_is_better=True) == (8, False)


def test_the_wrong_direction_never_holds():
    change = [b - 0.06 for b in BASE]
    assert bench_pairs.verdict(BASE, change, lower_is_better=False) == (0, False)


def test_an_unsound_change_run_spoils_the_gain():
    change = [b - 0.06 for b in BASE]
    assert bench_pairs.verdict(BASE, change, True, all_sound=False) == (10, False)
    base_run = {"correct": True, "failed": 4, "attempted": 100}
    assert bench_pairs.sound(base_run, {"correct": True, "failed": 6,
                                        "attempted": 150})
    assert not bench_pairs.sound(base_run, {"correct": True, "failed": 5,
                                            "attempted": 100})
    assert not bench_pairs.sound(base_run, {"correct": False, "failed": 0,
                                            "attempted": 100})


def test_a_clear_regression_is_worse():
    change = [b + 0.06 for b in BASE]
    assert bench_pairs.regression(BASE, change, lower_is_better=True) == (10, True)
    assert bench_pairs.regression(change, BASE, lower_is_better=False) == (10, True)
    assert bench_pairs.verdict(BASE, change, lower_is_better=True) == (0, False)


def test_a_regression_inside_the_base_spread_is_not_worse():
    change = [b + 0.01 for b in BASE]  # loses every pair, gap 0.01 < IQR 0.045
    assert bench_pairs.regression(BASE, change, lower_is_better=True) == (10, False)


def test_ties_and_wins_count_for_the_change():
    change = [b + 0.2 for b in BASE]
    change[3] = BASE[3]  # a tie loses nothing: 9 of 10 lost is still worse
    assert bench_pairs.regression(BASE, change, lower_is_better=True) == (9, True)
    change[4] = BASE[4] - 0.01  # a win: 8 of 10 lost
    assert bench_pairs.regression(BASE, change, lower_is_better=True) == (8, False)


def test_the_better_direction_decides_what_is_worse():
    change = [b - 0.06 for b in BASE]
    assert bench_pairs.regression(BASE, change, lower_is_better=True) == (0, False)
    assert bench_pairs.regression(BASE, change, lower_is_better=False) == (10, True)


def test_the_median_change_is_in_percent_of_the_base_median():
    change = [b * 0.7 for b in BASE]  # medians 0.445 and 0.3115
    assert bench_pairs.median_change(BASE, change) == pytest.approx(-30.0)
    assert bench_pairs.median_change(change, BASE) == pytest.approx(100 * 0.3 / 0.7)
    assert bench_pairs.median_change(BASE, BASE) == 0
    assert bench_pairs.median_change([0.0, 0.0], [1.0, 2.0]) is None
