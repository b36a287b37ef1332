"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Every test prints "criterion N: PASS/FAIL (detail)" before asserting, so a
red criterion still reports its full clause-by-clause breakdown.  Two
criteria check the package against the independent oracles where the
paper's worked claims and the documented definitions disagree: criterion 1
asserts the verdicts of `stability_oracle` on the five-student example (the
swapped matching nu' draws one justified envy, and no stable improvement
over nu exists), and criterion 3 asserts the best-response table of
`exp1_oracle` (three treatments confirmed, the joint listing under the
indifference bundle refuted at 220/3 vs 70, the AC deviation worth 125/4).
Each printed line names the paper's claim beside the verified value.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import exp1_oracle as oracle
import numpy as np
import pytest
import score_oracle
import stability_oracle
from conftest import FIXTURES, load_json
from random_markets import check_instance, generate

import bundlechoice
from bundlechoice import (
    BundleMatching,
    Exp1Config,
    Exp2Config,
    ImplementationPolicy,
    check_bundle_stability,
    equilibrium_profile,
    equilibrium_verify,
    exp1_deviation_value,
    exp1_exact_expectation,
    find_stable_pareto_improvement,
    implement,
    parse_profile,
    play_fixed_round,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    simulate_rounds,
)

F = Fraction


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _five_student_oracle():
    """Oracle verdicts on the five-student example, in the fixtures' ids.

    Returns (market agrees with the fixtures, violations of nu', stable
    Pareto improvements over nu), all computed by `stability_oracle`.
    """
    schools, bundles, rols, nu, nu_prime = stability_oracle.example_4()
    market = load_json("five_student_market.json")
    ids = {frozenset(b["schools"]): b["id"] for b in market["bundles"]}
    ids.update((frozenset({s}), s) for s in schools)

    def label(key):
        return None if key is None else ids[key]

    def labelled(matching):
        return {i: label(key) for i, key in matching.items()}

    same_market = (
        {s["id"]: (s["quota"], tuple(s["priority"])) for s in market["schools"]}
        == schools
        and set(ids) == set(bundles)
        and {i: [label(k) for k in rol] for i, rol in rols.items()}
        == load_json("five_student_market_rols.json")["rols"]
        and labelled(nu) == load_json("five_student_matching.json")["matching"]
        and labelled(nu_prime)
        == load_json("five_student_swapped_matching.json")["matching"]
    )
    violations = {
        tuple(label(x) if isinstance(x, frozenset) else x for x in violation)
        for violation in stability_oracle.stability_violations(
            schools, bundles, rols, nu_prime
        )
    }
    improvements = stability_oracle.weak_improvements(schools, bundles, rols, nu)
    stable_better = [
        labelled(m)
        for m in stability_oracle.stable_matchings(schools, bundles, rols)
        if m in improvements
    ]
    return same_market, violations, stable_better


def test_criterion_1_worked_examples(capsys, walkthrough, walkthrough_rols,
                                     nested, nested_rols, swap_market,
                                     swap_rols, contested_market):
    same_market, oracle_violations, oracle_better = _five_student_oracle()
    start = time.perf_counter()
    clauses = {}

    nu41, trace41 = run_bundle_da_simple(walkthrough, walkthrough_rols)
    clauses["two-hierarchy bundle-matching"] = nu41.as_dict() == {
        "i1": "s1", "i2": "b1234", "i3": "s3", "i4": None,
        "i5": "s5", "i6": "b567", "i7": "b56", "i8": "b1234",
    } and len(trace41.rounds) == 4
    mu41 = implement(nu41, ImplementationPolicy("det"))
    clauses["two-hierarchy final matching"] = mu41.as_dict() == {
        "i1": "s1", "i2": "s2", "i3": "s3", "i4": None,
        "i5": "s5", "i6": "s7", "i7": "s6", "i8": "s4",
    }

    nud, traced = run_bundle_da_general(nested, nested_rols)
    clauses["nested bundle-matching"] = nud.as_dict() == {
        "i1": "s2", "i2": "b23", "i3": None, "i4": "s1",
        "i5": "b123", "i6": "s4", "i7": "s1", "i8": "b123",
    } and len(traced.rounds) == 5
    mud = implement(nud, ImplementationPolicy("det"))
    clauses["nested printed implementation"] = mud.as_dict() == {
        "i1": "s2", "i2": "s2", "i3": None, "i4": "s1",
        "i5": "s3", "i6": "s4", "i7": "s1", "i8": "s3",
    }

    nu = BundleMatching(swap_market, load_json("five_student_matching.json")["matching"])
    nu_prime = BundleMatching(
        swap_market, load_json("five_student_swapped_matching.json")["matching"]
    )
    clauses["five-student nu stable"] = check_bundle_stability(nu, swap_rols).stable
    # The paper claims nu' (i3 -> B, i5 -> s3) is a stable Pareto improvement
    # over nu.  Under the audit's documented definition it is not; the
    # brute-force oracle supplies the expected verdicts on the same market.
    prime_verdict = check_bundle_stability(nu_prime, swap_rols)
    clauses["five-student nu-prime verdict matches oracle"] = (
        same_market and set(prime_verdict.violations) == oracle_violations
    )
    better = find_stable_pareto_improvement(nu, swap_rols)
    clauses["five-student improvement search matches oracle"] = same_market and (
        better is None if not oracle_better else better.as_dict() in oracle_better
    )

    baseline = load_json("three_student_overdemand_baseline_rols.json")["rols"]
    deviation = load_json("three_student_overdemand_deviation_rols.json")["rols"]
    tiebreak = ["i3", "i1", "i2"]
    base_nu, _ = run_bundle_da_general(contested_market, baseline, tiebreak=tiebreak)
    dev_nu, _ = run_bundle_da_general(contested_market, deviation, tiebreak=tiebreak)
    clauses["overdemand baseline"] = base_nu.as_dict() == {
        "i1": "s1", "i2": None, "i3": "B"
    }
    clauses["overdemand deviation leaves i1 unmatched"] = dev_nu.as_dict() == {
        "i1": None, "i2": "s2", "i3": "B"
    }

    rols = [("D", "A"), ("D", "A"), ("A", "E"), ("D", "E"), ("A", "F"), ("E", "F")]
    ((_, record),) = play_fixed_round(
        Exp2Config("nobundle"), rols, (99, 95, 90, 85, 80, 75)
    )
    clauses["worked admission payoffs"] = tuple(
        record["payoffs"][i] for i in record["priority"]
    ) == (80, 50, 30, 0, 20, 0)

    elapsed = time.perf_counter() - start
    failed = [name for name, ok in clauses.items() if not ok]
    ok = not failed and elapsed < 1.0
    claim = (
        "the paper's stable improvement nu' (i3 -> B, i5 -> s3) draws "
        f"justified envy {prime_verdict.violations} (oracle: "
        f"{sorted(oracle_violations)}); stable improvements over nu found: "
        f"{0 if better is None else 1} (oracle: {len(oracle_better)})"
    )
    detail = (
        f"all {len(clauses)} worked examples reproduced, {elapsed:.2f}s; {claim}"
        if ok
        else (
            f"{len(clauses) - len(failed)}/{len(clauses)} clauses hold; failed: "
            + "; ".join(failed)
            + f"; {elapsed:.2f}s -- {claim}"
        )
    )
    report(capsys, 1, ok, detail)
    assert ok, detail


TABLE_1_ROUNDED = {
    "nobundle-one": (64.17, 58.33, 25.0),
    "indiff-bundle": (70.00, 66.67, 0.0),
    "strict-bundle": (64.17, 58.33, 25.0),
    "nobundle-two": (71.67, 66.67, 0.0),
}


def test_criterion_2_expected_outcomes_table(capsys):
    start = time.perf_counter()
    problems = []
    for treatment, (pay, match, mismatch) in TABLE_1_ROUNDED.items():
        config = Exp1Config(treatment)
        exact = exp1_exact_expectation(config, equilibrium_profile(config)).exact
        got = (
            round(float(exact["avg_payoff"]), 2),
            round(float(exact["match_rate"]) * 100, 2),
            round(float(exact["mismatch_rate"]) * 100, 2),
        )
        for name, value, target in zip(("payoff", "match%", "mismatch%"),
                                       got, (pay, match, mismatch)):
            if abs(value - target) > 0.005:
                problems.append(f"{treatment} {name}: {value} != {target}")

    config = Exp1Config("nobundle-two")
    profile = equilibrium_profile(config)
    deviations = {
        ("B", "A"): F(205, 3), ("A", "C"): F(65),
        ("B", "C"): F(60), ("C", "A"): F(20), ("C", "B"): F(20),
    }
    for rol, want in deviations.items():
        got = exp1_deviation_value(config, profile, "A", rol)
        if got != want:
            problems.append(f"deviation {rol}: {got} != {want}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    detail = (
        f"four treatments and the 68.33/65/60/20 deviation ladder exact, "
        f"{elapsed:.2f}s" if ok else "; ".join(problems)
    )
    report(capsys, 2, ok, detail)
    assert ok, detail


def _oracle_best_responses(treatment):
    """{type: (equilibrium ROL, value of every feasible ROL)} from `exp1_oracle`."""
    profile = oracle.pure(oracle.EQUILIBRIUM[treatment])
    return {
        t: (oracle.EQUILIBRIUM[treatment][t],
            oracle.best_responses(treatment, profile, t)[0])
        for t in "AB"
    }


def _is_best(rol, values):
    return values[rol] == max(values.values())


def test_criterion_3_equilibrium_verification(capsys):
    # The paper reports all four profiles as equilibria.  Under the
    # indifference bundle the joint listing earns 70 against 220/3 for the
    # favourite school alone, so the expected verdicts come from the oracle.
    reports = {
        treatment: equilibrium_verify(Exp1Config(treatment))
        for treatment in TABLE_1_ROUNDED
    }
    confirmed = {t: report["confirmed"] for t, report in reports.items()}
    package_table = {
        treatment: {
            t: (row["equilibrium"], row["values"])
            for t, row in report["types"].items()
        }
        for treatment, report in reports.items()
    }
    oracle_table = {t: _oracle_best_responses(t) for t in TABLE_1_ROUNDED}
    oracle_confirmed = {
        treatment: all(_is_best(rol, values) for rol, values in rows.values())
        for treatment, rows in oracle_table.items()
    }

    config = Exp1Config("strict-bundle")
    ac_value = exp1_deviation_value(
        config, equilibrium_profile(config), "A", ("AC",)
    )
    ac_oracle = oracle.deviation_value(
        "strict-bundle", oracle.pure(oracle.EQUILIBRIUM["strict-bundle"]),
        "A", ("AC",),
    )
    clauses = {
        "confirmed flags match oracle": confirmed == oracle_confirmed,
        "best-response values match oracle": package_table == oracle_table,
        "AC deviation strictly below equilibrium": ac_value < F(385, 6),
        "AC deviation matches oracle": ac_value == ac_oracle,
    }
    failed = [name for name, ok in clauses.items() if not ok]
    ok = not failed
    refuted = ", ".join(
        f"{treatment} type {t} ({max(values.values())} vs {values[rol]} for {rol})"
        for treatment, rows in package_table.items()
        for t, (rol, values) in rows.items()
        if not _is_best(rol, values)
    ) or "none"
    claim = (
        f"verified {sum(confirmed.values())}/4 treatments as oracle finds "
        f"{sum(oracle_confirmed.values())}/4, refuted: {refuted}; the paper's "
        f"AC deviation band [35, 45] vs exactly {ac_value} = {float(ac_value)} "
        f"(oracle {ac_oracle}), below the equilibrium 385/6"
    )
    detail = claim if ok else f"failed: {'; '.join(failed)} -- {claim}"
    report(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_4_property_battery(capsys):
    start = time.perf_counter()
    markets = generate(500, 20250815)
    failures = []
    divergent = []
    for idx, (instance, rols) in enumerate(markets):
        found, agree = check_instance(instance, rols)
        failures.extend((idx, f) for f in found)
        if not agree:
            divergent.append(idx)
    for idx in divergent:
        instance, rols = markets[idx]
        for run in (run_bundle_da_simple, run_bundle_da_general):
            nu, _ = run(instance, rols)
            if not check_bundle_stability(nu, rols).stable:
                failures.append((idx, "divergent-outcome-unstable"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    detail = (
        f"500 random simple markets in {elapsed:.1f}s: engine outcomes stable "
        f"and undominated, implementations seat-stable, reporting properties "
        f"hold; tie-break order split the engines on {len(divergent)} markets, "
        "every outcome stable"
        if ok else f"{len(failures)} failures, e.g. {failures[:3]}"
    )
    report(capsys, 4, ok, detail)
    assert ok, detail


def _exact_round_moments(treatment):
    """Per-round first/second moments of (payoff sum, matched, mismatch)."""
    profile = oracle.pure(oracle.EQUILIBRIUM[treatment])
    keys = ("A", "A2", "B", "B2", "M", "M2", "AB")
    stats = dict.fromkeys(keys, F(0))
    perms = list(itertools.permutations(range(3)))
    for types in itertools.product("AB", repeat=3):
        p_t = F(1, 8)
        for p_r, rols in oracle.profile_draws(profile, types):
            for perm in perms:
                base = p_t * p_r * F(1, len(perms))
                for p_b, assign in oracle.run_mechanism(treatment, rols, perm):
                    w = base * p_b
                    a = sum(oracle.UTIL[t][x] for t, x in zip(types, assign))
                    b = sum(x is not None for x in assign)
                    m = sum(assign[i] not in ("A", "B") for i in perm[:2])
                    stats["A"] += w * a
                    stats["A2"] += w * a * a
                    stats["B"] += w * b
                    stats["B2"] += w * b * b
                    stats["M"] += w * m
                    stats["M2"] += w * m * m
                    stats["AB"] += w * a * b
    return stats


def _three_se_bounds(stats, rounds):
    """(exact value, 3 standard errors) per reported metric."""
    mu_a, mu_b, mu_m = (float(stats[k]) for k in ("A", "B", "M"))
    var_a = float(stats["A2"]) - mu_a**2
    var_b = float(stats["B2"]) - mu_b**2
    var_m = float(stats["M2"]) - mu_m**2
    cov_ab = float(stats["AB"]) - mu_a * mu_b
    g = mu_a / mu_b  # payoff conditional on matching, a ratio of means
    var_g = (var_a - 2 * g * cov_ab + g * g * var_b) / (mu_b * mu_b)
    return {
        "avg_payoff": (mu_a / 3, 3 * (var_a / 9 / rounds) ** 0.5),
        "match_rate": (mu_b / 3, 3 * (var_b / 9 / rounds) ** 0.5),
        "mismatch_rate": (mu_m / 2, 3 * (var_m / 4 / rounds) ** 0.5),
        "payoff_given_match": (g, 3 * (max(var_g, 0.0) / rounds) ** 0.5),
    }


def test_criterion_5_monte_carlo_consistency(capsys):
    start = time.perf_counter()
    rounds = 10**6
    problems = []
    worst = 0.0
    for treatment in TABLE_1_ROUNDED:
        config = Exp1Config(treatment)
        metrics, _ = simulate_rounds(
            config, equilibrium_profile(config), rounds, seed=2026
        )
        for name, (target, band) in _three_se_bounds(
            _exact_round_moments(treatment), rounds
        ).items():
            diff = abs(getattr(metrics, name) - target)
            worst = max(worst, diff / band if band else 0.0)
            if diff > band + 1e-9:
                problems.append(
                    f"{treatment} {name}: |{getattr(metrics, name):.5f} - "
                    f"{target:.5f}| > 3se={band:.5f}"
                )

    rng = np.random.default_rng(20250815)
    singles = np.fromiter(
        (sample_scores_one(rng) for _ in range(10**6)), dtype=np.int64
    )
    mean, std = singles.mean(), singles.std()
    ref_mean, ref_std = score_oracle.rounded_moments()
    if not 69.9 <= mean <= 70.1:
        problems.append(f"score mean {mean:.4f} outside 70 +- 0.1")
    if not 9.8 <= std <= 10.2:
        problems.append(f"score std {std:.4f} outside 10 +- 0.2")

    elapsed = time.perf_counter() - start
    ok = not problems
    detail = (
        f"10^6 rounds per treatment, all 16 metrics within 3 standard errors "
        f"(worst {worst:.2f} se); 10^6 score draws mean {mean:.3f} / std "
        f"{std:.3f} vs oracle {ref_mean:.3f} / {ref_std:.3f}, {elapsed:.0f}s"
        if ok else "; ".join(problems)
    )
    report(capsys, 5, ok, detail)
    assert ok, detail


def sample_scores_one(rng):
    from bundlechoice import sample_scores

    return sample_scores(1, rng)[0]


def test_criterion_6_conservative_reports_raise_match_rate(capsys):
    config = Exp1Config("strict-bundle")
    pure = exp1_exact_expectation(config, equilibrium_profile(config)).exact
    mixed_profile = parse_profile(
        FIXTURES / "profiles" / "strict_bundle_empirical.json"
    ).validate(config)
    mixed = exp1_exact_expectation(config, mixed_profile).exact
    clauses = {
        "match rate rises": mixed["match_rate"] > pure["match_rate"],
        "expected payoff falls": mixed["avg_payoff"] < pure["avg_payoff"],
    }
    failed = [name for name, ok in clauses.items() if not ok]
    ok = not failed
    detail = (
        f"24.5% bundle reports move match rate {float(pure['match_rate']):.4f}"
        f" -> {float(mixed['match_rate']):.4f} while payoff drops "
        f"{float(pure['avg_payoff']):.2f} -> {float(mixed['avg_payoff']):.2f}"
        if ok else "; ".join(failed)
    )
    report(capsys, 6, ok, detail)
    assert ok, detail


# Criterion 7's command forms, with paths relative to the repository root.
CLI_FORMS = [
    ("validate", "fixtures/two_hierarchy_market.json"),
    ("run-bundle-da", "fixtures/two_hierarchy_market.json",
     "fixtures/two_hierarchy_market_rols.json", "--implement", "det"),
    ("run-bundle-da", "fixtures/nested_bundle_market.json",
     "fixtures/nested_bundle_market_rols.json",
     "--tiebreak", "i1,i2,i3,i4,i5,i6,i7,i8",
     "--implement", "random", "--seed", "11"),
    ("oracle", "pusm", "fixtures/five_student_market.json",
     "fixtures/five_student_market_rols.json",
     "fixtures/five_student_matching.json"),
    ("simulate-experiment", "--exp", "1", "--treatment", "strict-bundle",
     "--rounds", "400", "--seed", "21"),
    ("simulate-experiment", "--exp", "2", "--treatment", "nobundle",
     "--profile", "fixtures/profiles/exp2_by_rank.json",
     "--rounds", "150", "--seed", "3"),
    ("trace", "fixtures/nested_bundle_market.json",
     "fixtures/nested_bundle_market_rols.json",
     "--tiebreak", "i1,i2,i3,i4,i5,i6,i7,i8"),
]


def _run_cli_process(args):
    """Run the `bundlechoice` console-script entry point without an install,
    from the repository root, with the source tree this process imported the
    package from."""
    command = [sys.executable, "-c", "from bundlechoice.cli import main; main()"]
    source = str(Path(bundlechoice.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH")))
    )
    return subprocess.run([*command, *args], capture_output=True, env=env,
                          cwd=FIXTURES.parent, timeout=120)


def test_criterion_7_cli_byte_identity(capsys):
    problems = []
    for args in CLI_FORMS:
        runs = [_run_cli_process(args) for _ in range(2)]
        if runs[0].returncode != 0 or runs[1].returncode != 0:
            problems.append(f"{args[0]}: exit {runs[0].returncode}/{runs[1].returncode}"
                            f" {runs[0].stderr.decode()[:80]}")
        elif runs[0].stdout != runs[1].stdout or not runs[0].stdout:
            problems.append(f"{args[0]}: outputs differ across identical runs")
    ok = not problems
    detail = (
        f"{len(CLI_FORMS)} command forms repeated byte-identically"
        if ok else "; ".join(problems)
    )
    report(capsys, 7, ok, detail)
    assert ok, detail


# sha256 of each CLI_FORMS command's stdout, recorded before the engines
# shared one round loop and serialization became one json.dumps pass; the
# `trace` form's when the general engine came to clear over a fixed order;
# the exp-2 --profile form's when its digest came to cover the profile's
# parsed content instead of its path.
CLI_STDOUT_SHA256 = [
    "4da809d4dfad80bfe74733b56261b64b6ffea47b3b2fe6726a2bc530b0b828f0",
    "c320a772382f07a5e8ad67c87215c5d8c309ed6fb358c335dbec8a0b882e6c78",
    "6332bbb223a83d89ac403f9de6325b1e31c5c42e95005800a1c89d092d42f428",
    "b6d5f6062da896ac6f284628209ced5f87863f375d1164e9d5871452324b1959",
    "c37ec36174763c9849266dcd2aa821adcd0aa5eadfceacd2892bf0ad6e34cdbe",
    "ef18fbcdb1314b43ff9d3ab766ccc09f945a6a248e0738e24f25ef3da659a1dd",
    "1accee1b8acb3c6e006b551218c570875f59e3d930eab2cc54472d43eefc2d61",
]


def test_cli_stdout_is_pinned():
    runs = [_run_cli_process(args) for args in CLI_FORMS]
    assert [run.returncode for run in runs] == [0] * len(CLI_FORMS)
    assert [hashlib.sha256(run.stdout).hexdigest()
            for run in runs] == CLI_STDOUT_SHA256
