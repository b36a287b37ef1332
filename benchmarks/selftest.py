"""Self-tests: each workload's output check reports a corrupted output.

Run from the repository root with either of

    python3 benchmarks/selftest.py
    python3 -m pytest -q benchmarks/selftest.py

Every test first shows that the check passes the program's own output on a
small input, then corrupts one field of that output and requires the check
to report it.
"""

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src"), str(ROOT / "tests")]

from bundlechoice import (  # noqa: E402
    Exp1Config,
    Exp2Config,
    StrategyProfile,
    equilibrium_profile,
    equilibrium_verify,
    exp1_exact_expectation,
    simulate_rounds,
    validate_instance,
)

import checks  # noqa: E402
from district import clear_market  # noqa: E402
from lab import BUNDLE_PROFILES  # noqa: E402
from markets import (  # noqa: E402
    grouped_market,
    reproducer_market,
    rng_for,
    small_simple_market,
    small_spanning_market,
)
from small import _supbundle_cases, pipeline  # noqa: E402
from tracing import NULL  # noqa: E402


def _cleared(spanning):
    instance_doc, rols_doc, tiebreak = grouped_market(
        rng_for(5, int(spanning)), 48, 8, spanning=spanning)
    instance = validate_instance(instance_doc)
    _, document, _ = clear_market(NULL, instance, rols_doc["rols"], tiebreak, 3)
    return checks.Market(instance_doc, rols_doc), json.loads(document)


def _district_problems(market, result):
    return checks.district_problems(market, result)[1]


def test_district_passes_program_output():
    for spanning in (False, True):
        market, result = _cleared(spanning)
        assert _district_problems(market, result) == []


def test_district_student_moved_off_rol():
    market, result = _cleared(False)
    student = next(i for i, b in result["bundle_matching"].items() if b is not None)
    off = next(b for b in market.key if b not in market.rol_ids[student])
    result["bundle_matching"][student] = off
    result["standard_matching"][student] = sorted(market.key[off])[0]
    assert any("not on the ROL" in p for p in _district_problems(market, result))


def test_district_seat_outside_bundle():
    market, result = _cleared(False)
    student = next(i for i, b in result["bundle_matching"].items() if b is not None)
    bundle = market.key[result["bundle_matching"][student]]
    result["standard_matching"][student] = next(
        s for s in market.quota if s not in bundle)
    assert any("outside bundle" in p for p in _district_problems(market, result))


def test_district_over_quota():
    market, result = _cleared(False)
    school = next(iter(market.quota))
    for i in market.students:
        if school in market.rol_ids[i]:
            result["bundle_matching"][i] = school
            result["standard_matching"][i] = school
    assert any("quota" in p for p in _district_problems(market, result))


def test_district_wrong_verdict():
    market, result = _cleared(False)
    result["stability"]["stable"] = False
    assert any("oracle finds 0" in p for p in _district_problems(market, result))


def test_district_wrong_seat_verdict():
    market, result = _cleared(False)
    result["seat_stability"]["stable"] = False
    assert any("0 seat violations" in p for p in _district_problems(market, result))


def test_district_unstable_outcome_is_flagged():
    market, result = _cleared(False)
    unmatched = {i: None for i in market.students}
    result["bundle_matching"], result["standard_matching"] = unmatched, dict(unmatched)
    unstable, problems = checks.district_problems(market, result)
    assert unstable and any("document says stable=True" in p for p in problems)


def _small(generator, key):
    instance_doc, rols_doc, tiebreak = generator(rng_for(*key))
    instance = validate_instance(instance_doc)
    market = checks.Market(instance_doc, rols_doc)
    out, _ = pipeline(NULL, instance, rols_doc["rols"], tiebreak=tiebreak,
                      supbundle=_supbundle_cases(market))
    return market, out


def _first_small_with(predicate, generator=small_simple_market):
    for k in range(200):
        market, out = _small(generator, (7, k))
        if predicate(market, out):
            return market, out
    raise AssertionError("no generated market fits the test")


def _reported(out, kind):
    return [k for k, (case, result) in enumerate(out["properties"])
            if case[0] == kind and result is not None]


def test_small_passes_program_output():
    for k in range(20):
        for generator in (small_simple_market, small_spanning_market):
            market, out = _small(generator, (3, k))
            unstable, problems = checks.small_market_problems(
                market, out, simple=generator is small_simple_market)
            assert problems == [] and not unstable


def test_small_reproducer_is_unstable_under_general_engine():
    instance_doc, rols_doc, tiebreak = reproducer_market()
    instance = validate_instance(instance_doc)
    out, _ = pipeline(NULL, instance, rols_doc["rols"], "general", tiebreak)
    unstable, problems = checks.small_market_problems(
        checks.Market(instance_doc, rols_doc), out, simple=False)
    assert unstable and problems == []
    assert out["matching"]["i1"] == "s2" and out["matching"]["i5"] is None


def test_small_student_moved_off_stable_matching():
    market, out = _first_small_with(
        lambda m, o: any(o["matching"][i] is not None for i in m.students))
    student = next(i for i in market.students if out["matching"][i] is not None)
    out["matching"][student] = None
    unstable, problems = checks.small_market_problems(market, out, simple=True)
    assert unstable and problems


def test_small_oracle_verdict_flipped():
    market, out = _small(small_simple_market, (3, 0))
    holds, witness = out["size_max"]
    out["size_max"] = (not holds, witness)
    _, problems = checks.small_market_problems(market, out, simple=True)
    assert any("size_max says" in p for p in problems)


def test_small_implementation_dropped():
    market, out = _first_small_with(lambda m, o: len(o["implementations"]) > 1)
    out["implementations"].pop()
    out["seat_stable"].pop()
    _, problems = checks.small_market_problems(market, out, simple=True)
    assert any("implementations" in p for p in problems)


def test_small_seat_outside_bundle():
    market, out = _first_small_with(
        lambda m, o: any(len(m.key[b]) < len(m.quota)
                         for b in o["matching"].values() if b is not None))
    mu = out["implementations"][0]
    student = next(i for i, b in out["matching"].items()
                   if b is not None and len(market.key[b]) < len(market.quota))
    mu[student] = next(s for s in market.quota
                       if s not in market.key[out["matching"][student]])
    _, problems = checks.small_market_problems(market, out, simple=True)
    assert any("implementations" in p for p in problems)


def test_small_property_violation_on_simple_market():
    market, out = _first_small_with(lambda m, o: o["properties"])
    case, _ = out["properties"][0]
    out["properties"][0] = (case, case + ("made up",))
    _, problems = checks.small_market_problems(market, out, simple=True)
    assert any("on a simple market" in p for p in problems)


def test_small_spanning_violations_checked_against_oracle():
    for kind in ("truthtelling", "supbundle"):
        market, out = _first_small_with(lambda m, o: _reported(o, kind),
                                        small_spanning_market)
        assert checks.small_market_problems(market, out, simple=False) == (False, [])
        k = _reported(out, kind)[0]
        case, result = out["properties"][k]
        i = case[1]
        reached = {b for b in market.key if market.key[b] in {
            m[i] for m in checks.stability_oracle.stable_matchings(
                market.schools, market.bundles, market.rols)}}
        unreachable = next(b for b in [*market.key, None] if b not in reached)
        if kind == "truthtelling":
            bad = [result[:3] + (unreachable,)]
        else:
            bad = [result[:3] + (unreachable,) + result[4:],
                   result[:2] + (3 if result[2] != 3 else 1,) + result[3:]]
        for wrong in bad:
            out["properties"][k] = (case, wrong)
            _, problems = checks.small_market_problems(market, out, simple=False)
            assert any(str(case) in p for p in problems), (kind, wrong)


def test_small_fabricated_improvement():
    market, out = _small(small_simple_market, (3, 1))
    assert out["improvement"] is None
    out["improvement"] = {i: None for i in market.students}
    _, problems = checks.small_market_problems(market, out, simple=True)
    assert any("improvement" in p for p in problems)


def _exp1(treatment, rounds=4000, seed=9):
    config = Exp1Config(treatment)
    metrics, _ = simulate_rounds(config, equilibrium_profile(config), rounds, seed)
    figures = checks.exp1_figures(checks.exp1_reference(
        treatment, checks.exp1_oracle.pure(checks.exp1_oracle.EQUILIBRIUM[treatment])))
    return figures, {n: getattr(metrics, n) for n in figures}, rounds


def test_lab_monte_carlo_passes_and_shifted_mean_fails():
    for treatment in ("nobundle-one", "indiff-bundle", "strict-bundle", "nobundle-two"):
        figures, got, rounds = _exp1(treatment)
        assert checks.monte_carlo_problems(treatment, figures, got, rounds) == []
        expected, var = figures["avg_payoff"]
        shifted = dict(got, avg_payoff=expected + 7 * (var / rounds) ** 0.5 + 1e-6)
        assert checks.monte_carlo_problems(treatment, figures, shifted, rounds)


def test_lab_exp2_expectation_and_shift():
    for treatment, profile in (("nobundle", "exp2_by_rank"),
                               ("indiff-bundle", "exp2_abc"),
                               ("strict-bundle", "exp2_def")):
        if profile == "exp2_by_rank":
            rols = json.loads((ROOT / "fixtures" / "profiles" / "exp2_by_rank.json")
                              .read_text())["rols"]
        else:
            rols = BUNDLE_PROFILES[profile]["rols"]
        config = Exp2Config(treatment)
        metrics, log = simulate_rounds(
            config, StrategyProfile("by-rank", rols).validate(config), 3000, 4)
        figures = checks.exp2_figures(treatment, rols)
        got = {n: getattr(metrics, n) for n in figures}
        assert checks.monte_carlo_problems(treatment, figures, got, 3000) == []
        worse = dict(got, match_rate=got["match_rate"] - 0.01)
        assert checks.monte_carlo_problems(treatment, figures, worse, 3000)
        scores = [tuple(r["scores"].values()) for r in log]
        assert checks.score_problems(treatment, scores) == []
        assert checks.score_problems(treatment, scores[:1] + [(70, 70, 1, 2, 3, 4)])
        assert checks.score_problems(treatment, [(0, 50, 51, 52, 53, 54)])


def test_lab_exact_and_verify():
    config = Exp1Config("strict-bundle")
    exact = exp1_exact_expectation(config, equilibrium_profile(config)).exact
    assert checks.exp1_exact_problems("strict-bundle", exact) == []
    bad = dict(exact, match_rate=exact["match_rate"] + checks.Fraction(1, 10**9))
    assert checks.exp1_exact_problems("strict-bundle", bad)
    report = equilibrium_verify(config)
    assert checks.exp1_verify_problems("strict-bundle", report) == []
    flipped = copy.deepcopy(report)
    flipped["confirmed"] = not report["confirmed"]
    assert checks.exp1_verify_problems("strict-bundle", flipped)


def main():
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as err:
            failed += 1
            print(f"FAIL {name}: {err}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
