"""Lab-experiment layer: exact expectations, equilibrium checks, Monte Carlo.

Exact numbers are cross-checked against exp1_oracle.py, an independent
implementation of the participant-instructions mechanism that never imports
the package under test.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from math import prod
from pathlib import Path

import exp1_oracle as oracle
import numpy as np
import pytest
from conftest import FIXTURES
from score_oracle import reference_sample_scores

import bundlechoice
from bundlechoice import (
    Exp1Config,
    Exp2Config,
    StrategyProfile,
    check_standard_stability,
    compute_metrics,
    content_digest,
    equilibrium_profile,
    equilibrium_verify,
    exp1_deviation_value,
    exp1_exact_expectation,
    experiment_matching_for_instance,
    experiment_rols_for_instance,
    feasible_rols,
    parse_profile,
    play_fixed_round,
    round_instance,
    sample_scores,
    simulate_rounds,
)
from bundlechoice.experiments import assignment_branches

F = Fraction

TABLE_1 = {
    "nobundle-one": (F(385, 6), F(7, 12), F(1, 4), F(110)),
    "indiff-bundle": (F(70), F(2, 3), F(0), F(105)),
    "strict-bundle": (F(385, 6), F(7, 12), F(1, 4), F(110)),
    "nobundle-two": (F(215, 3), F(2, 3), F(0), F(215, 2)),
}


@pytest.mark.parametrize("treatment", sorted(TABLE_1))
def test_equilibrium_expectations(treatment):
    config = Exp1Config(treatment)
    metrics = exp1_exact_expectation(config, equilibrium_profile(config))
    avg, match, mismatch, given = TABLE_1[treatment]
    assert metrics.exact["avg_payoff"] == avg
    assert metrics.exact["match_rate"] == match
    assert metrics.exact["mismatch_rate"] == mismatch
    assert metrics.exact["payoff_given_match"] == given
    assert metrics.avg_payoff == pytest.approx(float(avg))


@pytest.mark.parametrize("treatment", sorted(TABLE_1))
def test_exact_expectations_match_reference_mechanism(treatment):
    config = Exp1Config(treatment)
    metrics = exp1_exact_expectation(config, equilibrium_profile(config))
    ref_profile = oracle.pure(oracle.EQUILIBRIUM[treatment])
    payoff, match, mismatch = oracle.exact_metrics(treatment, ref_profile)
    assert metrics.exact["avg_payoff"] == payoff
    assert metrics.exact["match_rate"] == match
    assert metrics.exact["mismatch_rate"] == mismatch


@pytest.mark.parametrize("treatment", sorted(TABLE_1))
def test_every_deviation_value_matches_reference(treatment):
    config = Exp1Config(treatment)
    profile = equilibrium_profile(config)
    ref_profile = oracle.pure(oracle.EQUILIBRIUM[treatment])
    ours = feasible_rols(config)
    assert set(ours) == set(oracle.feasible_rols(treatment))
    for t in config.types:
        for rol in ours:
            assert exp1_deviation_value(config, profile, t, rol) == (
                oracle.deviation_value(treatment, ref_profile, t, rol)
            ), (treatment, t, rol)


def _per_list_deviation_value(config, profile, deviant_type, deviant_rol):
    """A deviation value by enumerating every terminal state of the group
    with student 0's type and list pinned, once per (type, list)."""
    students = tuple(range(config.n_students))
    orders = list(permutations(students))
    value = F(0)
    for others in product(config.types, repeat=len(students) - 1):
        type_weight = prod(config.type_weights[t] for t in others)
        branch_sets = [[(F(1), tuple(deviant_rol))]]
        branch_sets += [profile.branches(t) for t in others]
        for combo in product(*branch_sets):
            weight = type_weight * prod(p for p, _ in combo) / len(orders)
            rols = {i: rol for i, (_, rol) in zip(students, combo)}
            for order in orders:
                for w, seats in assignment_branches(config, rols, order):
                    value += weight * w * config.payoff(deviant_type, seats[0])
    return value


def _per_list_verify(config):
    """The best-response table built from `_per_list_deviation_value`."""
    profile = equilibrium_profile(config)
    report = {"treatment": config.treatment, "types": {}, "confirmed": True}
    for t in config.types:
        (_, equilibrium_rol), = profile.branches(t)
        values = {rol: _per_list_deviation_value(config, profile, t, rol)
                  for rol in feasible_rols(config)}
        best_value = max(values.values())
        is_best = values[equilibrium_rol] == best_value
        report["types"][t] = {
            "equilibrium": equilibrium_rol,
            "equilibrium_value": values[equilibrium_rol],
            "best": sorted(rol for rol, v in values.items() if v == best_value),
            "best_value": best_value,
            "values": values,
            "is_best_response": is_best,
        }
        report["confirmed"] = report["confirmed"] and is_best
    return report


@pytest.mark.parametrize("treatment", sorted(TABLE_1))
def test_equilibrium_verify_equals_the_per_list_enumeration(treatment):
    config = Exp1Config(treatment)
    report = equilibrium_verify(config)
    assert report == _per_list_verify(config)
    assert list(report["types"]["A"]["values"]) == feasible_rols(config)


def test_deviation_values_under_the_mixed_empirical_profile():
    """Both types list AC with positive probability, so the other students'
    draws of different types share lists; every deviation value still
    matches the reference mechanism and the per-list enumeration."""
    config = Exp1Config("strict-bundle")
    profile = parse_profile(str(FIXTURES / "profiles" / "strict_bundle_empirical.json"))
    profile.validate(config)
    lists = [{rol for _, rol in profile.branches(t)} for t in config.types]
    assert set.intersection(*lists)
    ref_profile = {t: list(profile.branches(t)) for t in config.types}
    for t in config.types:
        for rol in feasible_rols(config):
            value = exp1_deviation_value(config, profile, t, rol)
            assert value == oracle.deviation_value(
                "strict-bundle", ref_profile, t, rol), (t, rol)
            assert value == _per_list_deviation_value(config, profile, t, rol)


def test_two_slot_treatment_deviation_table():
    config = Exp1Config("nobundle-two")
    profile = equilibrium_profile(config)
    values = {
        rol: exp1_deviation_value(config, profile, "A", rol)
        for rol in feasible_rols(config)
    }
    assert values == {
        ("A", "B"): F(215, 3), ("B", "A"): F(205, 3),
        ("A", "C"): F(65), ("B", "C"): F(60),
        ("C", "A"): F(20), ("C", "B"): F(20),
        ("A",): F(55), ("B",): F(50), ("C",): F(20),
    }


def test_strict_bundle_listing_underperforms():
    config = Exp1Config("strict-bundle")
    profile = equilibrium_profile(config)
    assert exp1_deviation_value(config, profile, "A", ("AC",)) == F(125, 4)
    assert exp1_deviation_value(config, profile, "A", ("A",)) == F(385, 6)


def test_equilibrium_verification_report():
    confirmed = {}
    for treatment in sorted(TABLE_1):
        report = equilibrium_verify(Exp1Config(treatment))
        confirmed[treatment] = report["confirmed"]
        for t, row in report["types"].items():
            assert row["is_best_response"] == (
                row["equilibrium_value"] == row["best_value"]
            )
    assert confirmed == {
        "nobundle-one": True,
        "indiff-bundle": False,
        "strict-bundle": True,
        "nobundle-two": True,
    }


def test_joint_listing_is_not_an_equilibrium_under_indifference():
    """Against everyone else listing the A/B bundle, naming your favourite
    school outright is strictly better than joining the bundle pool."""
    report = equilibrium_verify(Exp1Config("indiff-bundle"))
    row_a = report["types"]["A"]
    assert row_a["equilibrium"] == ("AB",)
    assert row_a["equilibrium_value"] == F(70)
    assert row_a["values"][("A",)] == F(220, 3)
    assert row_a["values"][("B",)] == F(200, 3)
    assert row_a["values"][("C",)] == F(20)
    assert row_a["best"] == [("A",)]
    row_b = report["types"]["B"]
    assert row_b["best"] == [("B",)]
    assert row_b["best_value"] == F(220, 3)


def test_reporting_the_equilibrium_rol_is_the_null_deviation():
    for treatment in sorted(TABLE_1):
        config = Exp1Config(treatment)
        profile = equilibrium_profile(config)
        for t in config.types:
            ((_, rol),) = profile.branches(t)
            value = exp1_deviation_value(config, profile, t, rol)
            assert value == TABLE_1[treatment][0]


def test_degenerate_profile_everyone_lists_one_school():
    config = Exp1Config("nobundle-one")
    profile = StrategyProfile(
        "per-type", {"A": [(1, ("A",))], "B": [(1, ("A",))]}
    ).validate(config)
    metrics = exp1_exact_expectation(config, profile)
    assert metrics.exact["match_rate"] == F(1, 3)
    assert metrics.exact["avg_payoff"] == F(35)
    assert metrics.exact["mismatch_rate"] == F(1, 2)

    mc, _ = simulate_rounds(config, profile, rounds=2000, seed=5)
    assert mc.match_rate == pytest.approx(1 / 3)
    assert mc.mismatch_rate == pytest.approx(1 / 2)
    assert mc.avg_payoff == pytest.approx(35, abs=0.25)


def test_monte_carlo_is_reproducible_and_consistent():
    config = Exp1Config("nobundle-two")
    profile = equilibrium_profile(config)
    first, log1 = simulate_rounds(config, profile, rounds=500, seed=99)
    second, log2 = simulate_rounds(config, profile, rounds=500, seed=99)
    assert first == second
    assert log1[0] == log2[0] and len(log1) == 100
    assert first.rounds == 500
    assert first.match_rate == pytest.approx(2 / 3, abs=0.05)
    assert first.avg_payoff == pytest.approx(215 / 3, abs=2.0)
    with pytest.raises(ValueError, match="rounds must be at least 1"):
        simulate_rounds(config, profile, rounds=0, seed=99)


# Components and round counts of seeded Monte Carlo runs, recorded once and
# frozen: any change to the RNG stream, the per-round quantities or their
# fold shows here as an exact mismatch.
ABC_LISTING = [("D", "ABC"), ("ABC", "D"), ("ABC", "E"), ("D", "ABC"),
               ("ABC", "F"), ("E", "F")]
DEF_LISTING = [("A", "DEF"), ("DEF", "A"), ("DEF", "B"), ("A", "DEF"),
               ("B", "DEF"), ("C", "F")]
E1 = ("payoff", "students", "matched", "top2", "mismatch")
E2 = ("payoff", "students", "matched", "envy", "pairs", "potential")
FROZEN_MONTE_CARLO = [
    (1, "nobundle-one", "equilibrium", 1000, (191400, 3000, 1740, 2000, 508)),
    (1, "indiff-bundle", "equilibrium", 1000, (209780, 3000, 2000, 2000, 0)),
    (1, "strict-bundle", "equilibrium", 1000, (191400, 3000, 1740, 2000, 508)),
    (1, "nobundle-two", "equilibrium", 1000, (214920, 3000, 2000, 2000, 0)),
    (1, "strict-bundle", "empirical", 1000, (191300, 3000, 2151, 2000, 640)),
    (2, "nobundle", "by-rank", 500, (90000, 3000, 2000, 500, 7500, 132500)),
    (2, "indiff-bundle", "by-rank", 500, (90000, 3000, 2000, 500, 7500, 132500)),
    (2, "strict-bundle", "by-rank", 500, (90000, 3000, 2000, 500, 7500, 132500)),
    (2, "indiff-bundle", "abc", 500, (132500, 3000, 3000, 1273, 7500, 132500)),
    (2, "strict-bundle", "def", 500, (132500, 3000, 3000, 3273, 7500, 132500)),
]


# `content_digest` of each frozen run's log (its first 100 round records:
# priorities, seats, payoffs, ROLs, types and scores), in FROZEN_MONTE_CARLO
# order, recorded when Monte Carlo still played its rounds one at a time.
FROZEN_LOG_DIGESTS = [
    "a9f7128098ae9aceb4369224be1b3676686cea51872ee94446761c604f305d19",
    "25cc9458f6c05a8db7e176cc989eadc1cde84186316f48b85c6df1216dfe66ff",
    "a9f7128098ae9aceb4369224be1b3676686cea51872ee94446761c604f305d19",
    "2aaa190d678456293c71c8dfd68f915e87a7809873847a6920edead13c2cea25",
    "fd92cfd0928a715df071faa5b10f4efdc7b1d1395b4bf12aa9604f84a2dc8d7e",
    "0b36d75da3fdb225f63643fb3e067a4c20ddd6b141d35ae9d7e08b8328545c33",
    "0b36d75da3fdb225f63643fb3e067a4c20ddd6b141d35ae9d7e08b8328545c33",
    "0b36d75da3fdb225f63643fb3e067a4c20ddd6b141d35ae9d7e08b8328545c33",
    "8f8c9c14fb78825a9ea6efa6b85530050dc2ec11cabf803cf9623360f34b552d",
    "001cd59b1b0a95f138f53b91ca173653de426d365870b69075ad304e6ae6c853",
]


def _frozen_run(exp, treatment, name):
    """The config and validated profile of one FROZEN_MONTE_CARLO case."""
    config = (Exp1Config if exp == 1 else Exp2Config)(treatment)
    profile = {
        "equilibrium": lambda: equilibrium_profile(config),
        "empirical": lambda: parse_profile(
            FIXTURES / "profiles" / "strict_bundle_empirical.json"),
        "by-rank": lambda: parse_profile(FIXTURES / "profiles" / "exp2_by_rank.json"),
        "abc": lambda: StrategyProfile("by-rank", ABC_LISTING),
        "def": lambda: StrategyProfile("by-rank", DEF_LISTING),
    }[name]().validate(config)
    return config, profile


@pytest.mark.parametrize("exp, treatment, name, rounds, components",
                         FROZEN_MONTE_CARLO)
def test_seeded_monte_carlo_is_frozen(exp, treatment, name, rounds, components):
    config, profile = _frozen_run(exp, treatment, name)
    metrics, _ = simulate_rounds(config, profile, rounds=rounds, seed=2025)
    assert metrics.rounds == rounds
    assert metrics.components == dict(zip(E1 if exp == 1 else E2, components))


@pytest.mark.parametrize(
    "exp, treatment, name, rounds, digest",
    [case[:4] + (digest,)
     for case, digest in zip(FROZEN_MONTE_CARLO, FROZEN_LOG_DIGESTS)],
    ids=[f"{case[0]}-{case[1]}-{case[2]}" for case in FROZEN_MONTE_CARLO],
)
def test_seeded_monte_carlo_logs_are_frozen(exp, treatment, name, rounds, digest):
    config, profile = _frozen_run(exp, treatment, name)
    _, log = simulate_rounds(config, profile, rounds=rounds, seed=2025)
    assert len(log) == 100
    assert content_digest(log) == digest


@pytest.mark.parametrize("exp, treatment, name, rounds, components",
                         FROZEN_MONTE_CARLO)
def test_counted_fold_equals_the_fold_of_the_logged_records(
        exp, treatment, name, rounds, components):
    """Monte Carlo folds counted outcome cells; `compute_metrics` folds round
    records one by one.  Whenever the log holds every round they agree."""
    config, profile = _frozen_run(exp, treatment, name)
    for count, log_cap in ((rounds, rounds), (1, 100), (37, 100), (rounds, 0)):
        metrics, log = simulate_rounds(config, profile, rounds=count, seed=2025,
                                       log_cap=log_cap)
        assert metrics.rounds == count
        assert len(log) == min(count, log_cap)
        if count <= log_cap:
            assert compute_metrics(log, exp) == metrics


def test_simulated_rounds_replay_as_stable_matchings():
    config = Exp1Config("nobundle-two")
    profile = equilibrium_profile(config)
    _, log = simulate_rounds(config, profile, rounds=25, seed=17)
    for record in log:
        instance = round_instance(config, record["priority"])
        rols = experiment_rols_for_instance(record["rols"])
        mu = experiment_matching_for_instance(instance, record["assignment"])
        assert check_standard_stability(mu, rols).stable


WORKED_ROLS = [
    ("D", "A"), ("D", "A"), ("A", "E"), ("D", "E"), ("A", "F"), ("E", "F")
]


def test_fixed_score_round_replays_the_worked_example():
    config = Exp2Config("nobundle")
    branches = play_fixed_round(config, WORKED_ROLS, (99, 95, 90, 85, 80, 75))
    ((weight, record),) = branches
    assert weight == 1
    assert record["priority"] == (0, 1, 2, 3, 4, 5)
    assert record["assignment"] == {0: "D", 1: "A", 2: "E", 3: None, 4: "F", 5: None}
    assert record["payoffs"] == {0: 80, 1: 50, 2: 30, 3: 0, 4: 20, 5: 0}

    metrics = compute_metrics([record], 2)
    assert metrics.avg_payoff == pytest.approx(30.0)
    assert metrics.match_rate == pytest.approx(4 / 6)
    assert metrics.envy_share == pytest.approx(1 / 15)
    assert metrics.payoff_loss == pytest.approx(1 - F(180, 265))
    assert metrics.components == {
        "payoff": 180, "students": 6, "matched": 4,
        "envy": 1, "pairs": 15, "potential": 265,
    }


def test_worked_example_envy_is_the_rank4_rank5_pair():
    config = Exp2Config("nobundle")
    ((_, record),) = play_fixed_round(config, WORKED_ROLS, (99, 95, 90, 85, 80, 75))
    order, payoffs = record["priority"], record["payoffs"]
    envious = [
        (a + 1, b + 1)
        for a in range(6)
        for b in range(a + 1, 6)
        if payoffs[order[a]] < payoffs[order[b]]
    ]
    assert envious == [(4, 5)]


def test_score_order_not_student_index_drives_the_round():
    config = Exp2Config("nobundle")
    scores = (75, 80, 85, 90, 95, 99)  # student 5 has the top score
    ((_, record),) = play_fixed_round(config, WORKED_ROLS, scores)
    assert record["priority"] == (5, 4, 3, 2, 1, 0)
    assert record["assignment"][5] == "D" and record["assignment"][0] is None


def test_bundle_admission_enumerates_seat_branches():
    config = Exp2Config("strict-bundle")
    by_rank = [("DEF",), ("A",), ("B",), ("C",), ("A", "B"), ("B", "C")]
    branches = play_fixed_round(config, by_rank, (99, 95, 90, 85, 80, 75))
    assert len(branches) == 3
    assert sum(w for w, _ in branches) == 1
    seats = sorted(record["assignment"][0] for _, record in branches)
    assert seats == ["D", "E", "F"]


def test_by_rank_profile_simulates_with_zero_variance():
    config = Exp2Config("nobundle")
    profile = parse_profile(FIXTURES / "profiles" / "exp2_by_rank.json")
    metrics, log = simulate_rounds(config, profile, rounds=40, seed=11)
    assert metrics.rounds == 40
    assert metrics.avg_payoff == pytest.approx(30.0)
    assert metrics.envy_share == pytest.approx(1 / 15)
    assert metrics.payoff_loss == pytest.approx(float(1 - F(180, 265)))
    ranked = sorted(log[0]["scores"].values(), reverse=True)
    assert [log[0]["scores"][i] for i in log[0]["priority"]] == ranked


def test_exp2_rounds_replay_as_stable_matchings():
    config = Exp2Config("strict-bundle")
    profile = StrategyProfile(
        "by-rank",
        [("DEF", "A"), ("DEF", "B"), ("A", "B"), ("B", "C"), ("C", "A"), ("DEF",)],
    ).validate(config)
    _, log = simulate_rounds(config, profile, rounds=25, seed=23)
    for record in log:
        instance = round_instance(config, record["priority"])
        rols = experiment_rols_for_instance(record["rols"])
        mu = experiment_matching_for_instance(instance, record["assignment"])
        assert check_standard_stability(mu, rols).stable


def test_score_sampler_is_deterministic_and_in_range():
    assert sample_scores(6, 42) == (73, 60, 78, 79, 50, 57)
    assert sample_scores(6, 42) == sample_scores(6, 42)
    for seed in range(25):
        draw = sample_scores(6, seed)
        assert len(set(draw)) == 6
        assert all(1 <= x <= 100 for x in draw)
    with pytest.raises(ValueError, match="more than 100"):
        sample_scores(101, 0)


def test_score_stream_matches_the_numpy_sampler():
    """Same groups and same generator state afterwards as the numpy array
    sampler, over seeds that reach both the out-of-range and the collision
    redraw."""
    redraws = {}
    for n in (1, 2, 6, 12):
        for seed in range(200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                assert sample_scores(n, ours) == reference_sample_scores(n, ref, redraws)
            assert ours.bit_generator.state == ref.bit_generator.state
            assert ours.normal() == ref.normal()
    assert redraws["range"] >= 50
    assert redraws["collision"] >= 1000


def test_python_round_breaks_ties_like_numpy_rint():
    for x in (0.5, 1.5, 2.5, 69.5, 70.5, 99.5, 100.5, -0.5, -1.5):
        assert round(x) == int(np.rint(x)), x


def test_distinctness_inflates_group_score_spread():
    """Whole-group redraws condition on all-distinct draws, which widens
    the realized spread of grouped scores; single draws keep the plain
    truncated-normal spread near 10."""
    rng = np.random.default_rng(2026)
    groups = np.array([sample_scores(6, rng) for _ in range(12000)])
    singles = np.array([sample_scores(1, rng)[0] for _ in range(20000)])
    assert groups.std() > 10.15
    assert 9.7 < singles.std() < 10.15
    assert abs(singles.mean() - 70) < 0.3


def test_profile_validation_rejects_malformed_strategies():
    config = Exp1Config("nobundle-one")
    with pytest.raises(ValueError, match="length limit"):
        StrategyProfile("per-type", {"A": [(1, ("A", "B"))], "B": [(1, ("B",))]}
                        ).validate(config)
    with pytest.raises(ValueError, match="not on the menu"):
        StrategyProfile("per-type", {"A": [(1, ("AB",))], "B": [(1, ("B",))]}
                        ).validate(config)
    with pytest.raises(ValueError, match="sum to 1"):
        StrategyProfile("per-type", {"A": [(0.5, ("A",))], "B": [(1, ("B",))]})
    with pytest.raises(ValueError, match="repeats an option"):
        StrategyProfile(
            "by-rank", [("A", "A")] + [("B",)] * 5
        ).validate(Exp2Config("nobundle"))
    with pytest.raises(ValueError, match="every score rank"):
        StrategyProfile("by-rank", [("A",)]).validate(Exp2Config("nobundle"))
    with pytest.raises(ValueError, match="unknown profile kind"):
        StrategyProfile("mixed", {})
    per_type = StrategyProfile("per-type", {"A": [(1, ("A",))]})
    with pytest.raises(ValueError, match="not keyed by score rank"):
        per_type.rol_by_rank(0)
    by_rank = StrategyProfile("by-rank", [("A",)] * 6)
    with pytest.raises(ValueError, match="not keyed by payoff type"):
        by_rank.branches("A")


def test_treatment_names_are_canonicalized():
    assert Exp1Config("NoBundle_One").treatment == "nobundle-one"
    assert Exp2Config(" Strict Bundle ").treatment == "strict-bundle"
    with pytest.raises(ValueError, match="unknown experiment-1 treatment"):
        Exp1Config("bundle-everything")
    with pytest.raises(ValueError, match="^unknown experiment-2 treatment 'bogus' "):
        Exp2Config("bogus")


def test_no_closed_form_equilibrium_for_score_experiment():
    with pytest.raises(ValueError, match="no closed-form equilibrium"):
        equilibrium_profile(Exp2Config("nobundle"))


def test_empty_record_streams_yield_bare_metrics():
    metrics = compute_metrics([], 1)
    assert metrics.rounds == 0 and metrics.avg_payoff is None
    with pytest.raises(ValueError, match="unknown experiment kind"):
        compute_metrics([], 3)


def test_rate_range_is_enforced_under_optimisation():
    """The rate check is an explicit exception, so `python -O` keeps it."""
    source = str(Path(bundlechoice.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    probe = (
        "from bundlechoice import OutcomeMetrics\n"
        "try:\n"
        "    OutcomeMetrics(match_rate=1.5)\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rate 1.5 out of [0,1]\n"
