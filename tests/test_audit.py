"""Stability checks, maximality oracles, and incentive property harnesses.

The five-student market here doubles as a cross-check against the
brute-force reference in stability_oracle.py, which speaks in school-set
keyed matchings; a small adapter translates between the two vocabularies.
"""

from itertools import permutations

import numpy as np
import pytest
import stability_oracle as ref
from audit_helpers import EnvyPairReport, induced_preference
from conftest import load_json
from random_markets import (
    _supbundle_cases,
    exhaustive_stable_set,
    generate,
    random_simple_market,
    random_spanning_market,
    spanning_market,
)

from bundlechoice import (
    BundleMatching,
    ImplementationPolicy,
    Instance,
    OracleBoundExceeded,
    StandardMatching,
    audit_rol_dominance,
    check_bundle_stability,
    check_standard_stability,
    find_stable_pareto_improvement,
    implement,
    oracle_pareto_undominated_size_maximal,
    oracle_size_maximal,
    property_supbundle_monotone,
    property_truthtelling,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    run_standard_da,
    validate_instance,
)
from bundlechoice import audit
from bundlechoice.audit import _prefers_on_all, _rol_rank


def to_school_sets(instance, assignment):
    return {
        i: (instance.bundles[bid].schools if bid is not None else None)
        for i, bid in assignment.items()
    }


@pytest.fixture(scope="module")
def swap_nu(swap_market):
    raw = load_json("five_student_matching.json")["matching"]
    return BundleMatching(swap_market, raw)


@pytest.fixture(scope="module")
def swap_nu_prime(swap_market):
    raw = load_json("five_student_swapped_matching.json")["matching"]
    return BundleMatching(swap_market, raw)


def test_five_student_matching_is_stable(swap_nu, swap_rols, swap_market):
    verdict = check_bundle_stability(swap_nu, swap_rols)
    assert verdict.stable
    assert bool(verdict) is True
    assert verdict.violations == ()


def test_swapped_matching_fails_with_one_oversized_envy(
    swap_nu_prime, swap_rols, swap_market
):
    """Swapping i3 and i5 up creates envy through the two-school bundle:
    i4 outranks i3 at both of its schools and every bundle between i4's
    seat and the big one is under quota."""
    verdict = check_bundle_stability(swap_nu_prime, swap_rols)
    assert not verdict.stable
    assert verdict.violations == (("envy", "i4", "i3", "s2", 3),)
    assert tuple(EnvyPairReport(verdict)) == (("i4", "i3", 3),)


def test_no_stable_improvement_over_five_student_matching(
    swap_nu, swap_rols, swap_market
):
    assert find_stable_pareto_improvement(swap_nu, swap_rols) is None


def test_five_student_matching_is_size_maximal(swap_nu, swap_rols, swap_market):
    ok, witness = oracle_size_maximal(swap_nu, swap_rols)
    assert ok and witness is None
    ok, witness = oracle_pareto_undominated_size_maximal(swap_nu, swap_rols)
    assert ok and witness is None


def test_five_student_stable_set_matches_brute_force(swap_market, swap_rols):
    ours = exhaustive_stable_set(swap_market, swap_rols)
    assert ours is not None
    schools, bundles, rols, nu, _ = ref.example_4()
    theirs = ref.stable_matchings(schools, bundles, rols)
    lhs = {tuple(sorted(to_school_sets(swap_market, m).items())) for m in ours}
    rhs = {tuple(sorted(m.items())) for m in theirs}
    assert lhs == rhs
    assert len(lhs) == 2
    assert tuple(sorted(nu.items())) in rhs
    other = {"i1": "s4", "i2": "B", "i3": "s3", "i4": "s2", "i5": "s1"}
    assert tuple(sorted(to_school_sets(swap_market, other).items())) in lhs


@pytest.mark.parametrize("check", [
    lambda nu, rols: check_bundle_stability(nu, rols),
    lambda nu, rols: check_standard_stability(
        implement(nu, ImplementationPolicy("det")), rols),
    lambda nu, rols: oracle_size_maximal(nu, rols),
    lambda nu, rols: oracle_pareto_undominated_size_maximal(nu, rols),
    lambda nu, rols: find_stable_pareto_improvement(nu, rols),
], ids=["bundle_stability", "standard_stability", "size_maximal",
        "pareto_undominated_size_maximal", "stable_pareto_improvement"])
def test_audits_name_an_unknown_listed_bundle(check, swap_nu, swap_rols):
    rols = {**swap_rols, "i1": ["nope"]}
    with pytest.raises(ValueError, match="^student i1: unknown bundle nope$"):
        check(swap_nu, rols)


def test_size_and_stability_can_disagree(tiny_market, tiny_rols):
    """Stable outcome seats one student; an unstable one seats both."""
    nu, _ = run_bundle_da_simple(tiny_market, tiny_rols)
    assert check_bundle_stability(nu, tiny_rols).stable

    both = BundleMatching(tiny_market, {"i": "sp", "ip": "s"})
    verdict = check_bundle_stability(both, tiny_rols)
    assert verdict.violations == (("envy", "i", "ip", "s", 1),)

    ok, witness = oracle_size_maximal(nu, tiny_rols)
    assert not ok
    assert witness == {"i": "sp", "ip": "s"}

    # but nothing larger keeps student i weakly as happy
    ok, witness = oracle_pareto_undominated_size_maximal(nu, tiny_rols)
    assert ok and witness is None


def test_everyone_unmatched_is_not_size_maximal(walkthrough, walkthrough_rols):
    empty = BundleMatching(walkthrough, {})
    ok, witness = oracle_size_maximal(empty, walkthrough_rols)
    assert not ok and witness


def test_oracle_refuses_oversized_searches(walkthrough, walkthrough_rols):
    empty = BundleMatching(walkthrough, {})
    with pytest.raises(OracleBoundExceeded):
        oracle_size_maximal(empty, walkthrough_rols, bound=1)


def test_waste_exemption_through_full_parent(walkthrough, walkthrough_rols):
    """i4 desires the two-school bundle, which has a seat left, but the
    four-school bundle above it is full; that exempts the desire, keeping
    the outcome non-wasteful."""
    nu, _ = run_bundle_da_simple(walkthrough, walkthrough_rols)
    assert nu["i4"] is None and "b12" in walkthrough_rols["i4"]
    assert nu.occupancy("b12") < walkthrough.bundle_quota("b12")
    assert nu.occupancy("b1234") == walkthrough.bundle_quota("b1234")
    verdict = check_bundle_stability(nu, walkthrough_rols)
    assert verdict.stable


def test_engine_outcomes_pass_their_own_audit(nested, nested_rols):
    nu, _ = run_bundle_da_general(nested, nested_rols)
    assert check_bundle_stability(nu, nested_rols).stable


def test_standard_stability_on_seat_assignments(tiny_market, tiny_rols):
    from bundlechoice import StandardMatching

    nu, _ = run_standard_da(tiny_market, tiny_rols)
    mu = StandardMatching(tiny_market, nu.as_dict())  # trivial ids are school ids
    assert check_standard_stability(mu, tiny_rols).stable

    swapped = StandardMatching(tiny_market, {"i": "sp", "ip": "s"})
    verdict = check_standard_stability(swapped, tiny_rols)
    assert ("envy", "i", "ip", "s") in verdict.violations


def _seat_violations_by_full_scan(mu, rols, instance):
    """Reference: ask about every (student, school) pair in school order."""
    induced = {i: induced_preference(rols.get(i, ()), instance)
               for i in instance.students}
    out = [("ir", i) for i in instance.students
           if mu[i] is not None and not induced[i].acceptable(mu[i])]
    for i in instance.students:
        for s in instance.school_order:
            if not induced[i].strictly_prefers(s, mu[i]):
                continue
            if mu.seated(s) < instance.schools[s].quota:
                out.append(("waste", i, s))
                continue
            out += [("envy", i, j, s) for j in mu.students_at(s)
                    if instance.prefers(s, i, j)]
    return tuple(out)


def _with_ineligible_entries(rng, instance, rols):
    """The ROLs with a bundle the student may not list put into each list at
    a random slot, for about half of the students who have one off their
    menu.  Library callers may pass such lists unvalidated."""
    changed = dict(rols)
    for i in instance.students:
        off_menu = [b for b in instance.bundle_order
                    if i not in instance.bundles[b].targets]
        if off_menu and rng.random() < 0.5:
            entries = list(rols.get(i, ()))
            slot = int(rng.integers(len(entries) + 1))
            entries.insert(slot, off_menu[int(rng.integers(len(off_menu)))])
            changed[i] = entries
    return changed


def _desired(rol, held):
    """The entries a list ranks above the held one, or all when none is."""
    return rol[: rol.index(held)] if held in rol else rol


def test_seat_audit_matches_the_full_scan_on_random_seatings():
    """The audit reads each student's better schools off her list and walks a
    full school's occupants only when she outranks the worst of them; its
    violations, and their order, are those of the scan over every school,
    also on lists naming bundles their students may not list.  A student
    never sits at a school she ranks above her seat, so she is never among
    the occupants she is compared with."""
    rng = np.random.default_rng(4242)
    extra = np.random.default_rng(4343)
    unstable = ineligible = 0
    for instance, rols in generate(150, 4242):
        unvalidated = _with_ineligible_entries(extra, instance, rols)
        for _ in range(3):
            left = {s: instance.schools[s].quota for s in instance.school_order}
            seats = {}
            for i in instance.students:
                options = [s for s in instance.school_order if left[s]] + [None]
                seats[i] = options[int(rng.integers(len(options)))]
                if seats[i] is not None:
                    left[seats[i]] -= 1
            mu = StandardMatching(instance, seats)
            verdict = check_standard_stability(mu, rols)
            expected = _seat_violations_by_full_scan(mu, rols, instance)
            assert verdict.violations == expected
            unstable += not verdict.stable
            verdict = check_standard_stability(mu, unvalidated)
            expected = _seat_violations_by_full_scan(mu, unvalidated, instance)
            assert verdict.violations == expected
            for i in instance.students:
                entries = unvalidated.get(i, ())
                holding = next((b for b in entries
                                if mu[i] in instance.bundles[b].schools), None)
                ineligible += any(i not in instance.bundles[b].targets
                                  for b in _desired(entries, holding))
    assert unstable > 300
    assert ineligible >= 90


def _bundle_violations_by_full_scan(nu, rols, instance):
    """Reference: compare every (student, desired bundle) with every other
    student, whatever she holds."""
    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    chains = instance.tree.chain
    full = {b for b in instance.bundle_order
            if nu.occupancy(b) == instance.bundle_quota(b)}

    def desired(i):
        return rol[i][: rol[i].index(nu[i]) if nu[i] in rol[i] else None]

    out = [("ir", i) for i in instance.students
           if nu[i] is not None and nu[i] not in rol[i]]
    out += [("waste", i, d) for i in instance.students for d in desired(i)
            if not any(sup in full for sup in chains[d])]
    for i in instance.students:
        for d in desired(i):
            want = instance.bundles[d].schools
            for j in instance.students:
                held = nu[j]
                if j == i or held is None:
                    continue
                if held == d:
                    if _prefers_on_all(instance, want, i, j):
                        out.append(("envy", i, j, d, 1))
                elif d in chains[held]:
                    have = instance.bundles[held].schools
                    if _prefers_on_all(instance, have, i, j):
                        out.append(("envy", i, j, d, 2))
                elif held in chains[d]:
                    between = set(chains[d]) - set(chains[held])
                    if not between & full and _prefers_on_all(instance, want, i, j):
                        out.append(("envy", i, j, d, 3))
    return tuple(out)


def _seats_left(instance, assignment):
    left = dict(instance.tree.quota)
    for bid in assignment.values():
        if bid is not None:
            for sup in instance.tree.chain[bid]:
                left[sup] -= 1
    return left


def _place(rng, instance, rols, assignment, i):
    """Give i a random bundle with a seat left: one she lists with
    probability 3/4 when any has room, else one on her menu; or nothing."""
    assignment[i] = None
    left = _seats_left(instance, assignment)
    open_ = [b for b in instance.menu(i)
             if all(left[sup] > 0 for sup in instance.tree.chain[b])]
    listed = [b for b in rols.get(i, ()) if b in open_]
    pool = listed if listed and rng.random() < 0.75 else open_ + [None]
    assignment[i] = pool[int(rng.integers(len(pool)))]


def _random_bundle_matching(rng, instance, rols):
    assignment = {}
    for k in rng.permutation(len(instance.students)):
        _place(rng, instance, rols, assignment, instance.students[k])
    return BundleMatching(instance, assignment)


def _perturbed(rng, nu, rols, moves):
    """The matching with `moves` random students unseated or moved."""
    instance = nu.instance
    assignment = nu.as_dict()
    for k in rng.choice(len(instance.students), size=moves, replace=False):
        i = instance.students[k]
        if rng.random() < 0.5:
            assignment[i] = None
        else:
            _place(rng, instance, rols, assignment, i)
    return BundleMatching(instance, assignment)


def _worst_rival_claims(nu, rols):
    """How many (student, desired bundle) claims come from a student who
    holds a bundle strictly inside or around the desired one, is one of its
    rivals, and ranks at or below every rival compared on her school set at
    each of its schools: her own rank is then the bar she is held to."""
    instance = nu.instance
    full = {b for b in instance.bundle_order
            if nu.occupancy(b) == instance.bundle_quota(b)}
    holders = {}
    for j in instance.students:
        if nu[j] is not None:
            holders.setdefault(nu[j], []).append(j)
    count = 0
    for i in instance.students:
        rol = tuple(rols.get(i, ()))
        if nu[i] is None or nu[i] not in rol:
            continue
        for d in _desired(rol, nu[i]):
            rivals = audit._rivals(instance, holders, full, d)
            mine = [schools for j, case, schools in rivals if j == i and case > 1]
            if not mine:
                continue
            group = [j for j, _, schools in rivals if schools == mine[0]]
            count += all(instance.rank(s, i) >= instance.rank(s, j)
                         for s in mine[0] for j in group)
    return count


def _audit_against_full_scan(pairs):
    """Assert equal violations, in order; count each kind and envy case, the
    claims `_worst_rival_claims` counts, and the claims on a bundle the
    claimant may not list."""
    kinds = dict.fromkeys(("ir", "waste", 1, 2, 3, "worst rival", "ineligible"), 0)
    for nu, rols in pairs:
        instance = nu.instance
        verdict = check_bundle_stability(nu, rols)
        assert verdict.violations == _bundle_violations_by_full_scan(
            nu, rols, instance
        )
        for v in verdict.violations:
            kinds[v[-1] if v[0] == "envy" else v[0]] += 1
        kinds["worst rival"] += _worst_rival_claims(nu, rols)
        kinds["ineligible"] += sum(
            i not in instance.bundles[d].targets
            for i in instance.students
            for d in _desired(tuple(rols.get(i, ())), nu[i])
        )
    return kinds


def test_bundle_audit_matches_the_full_scan_on_random_assignments():
    """The audit rules claims out against one bar per compared school set
    and compares a desired bundle's rivals one by one only on a hit; its
    violations, and their order, are those of the scan over every student.
    The battery holds claimants who are the worst rival of the bundle they
    desire, and, audited a second time, lists naming bundles their students
    may not list."""
    rng = np.random.default_rng(5151)
    markets = generate(150, 5151)
    markets += [random_spanning_market(rng) for _ in range(150)]
    pairs = [(_random_bundle_matching(rng, instance, rols), rols)
             for instance, rols in markets
             for _ in range(3)]
    kinds = _audit_against_full_scan(pairs)
    assert kinds["ir"] >= 400 and kinds["waste"] >= 200
    assert kinds[1] >= 400 and kinds[2] >= 200 and kinds[3] >= 150
    assert kinds["worst rival"] >= 80

    extra = np.random.default_rng(5252)
    kinds = _audit_against_full_scan(
        (nu, _with_ineligible_entries(extra, nu.instance, rols))
        for nu, rols in pairs
    )
    assert kinds["ineligible"] >= 600


@pytest.fixture(scope="module")
def large_markets():
    """Two 800-student grouped markets: per market, the engine outcome and
    the outcome with 5 and with 40 students unseated or moved."""
    rng = np.random.default_rng(6262)
    markets = []
    for _ in range(2):
        instance, rols = spanning_market(rng, 800, [4] * 8, 25, 40, 3)
        tiebreak = [instance.students[k] for k in rng.permutation(800)]
        nu, _ = run_bundle_da(instance, rols, tiebreak)
        perturbed = [_perturbed(rng, nu, rols, moves) for moves in (5, 40)]
        markets.append((rols, nu, perturbed))
    return markets


def test_bundle_audit_matches_the_full_scan_on_perturbed_large_markets(
    large_markets,
):
    """800-student grouped markets: each engine outcome, then the outcome
    with students unseated or moved."""
    pairs = []
    for rols, nu, perturbed in large_markets:
        pairs.append((nu, rols))
        pairs += [(moved, rols) for moved in perturbed]
    kinds = _audit_against_full_scan(pairs)
    assert kinds["waste"] >= 50
    assert kinds[1] >= 200 and kinds[2] >= 200 and kinds[3] >= 200


def test_audits_scan_for_witnesses_only_on_a_hit(large_markets, monkeypatch):
    """On the engine outcomes, and on their seatings, neither audit lists a
    rival or compares two students one by one: every claim falls at its bar.
    The moved students of the perturbed outcomes beat some bar in each audit.
    The seat audit's per-occupant loop is its only `Instance.prefers` call."""
    calls = dict.fromkeys(("_rivals", "_prefers_on_all", "prefers"), 0)

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in ("_rivals", "_prefers_on_all"):
        monkeypatch.setattr(audit, name, counted(name, getattr(audit, name)))
    monkeypatch.setattr(Instance, "prefers", counted("prefers", Instance.prefers))

    def scans(nu, rols):
        """(bundle-audit scan entries, seat-audit scan entries)."""
        calls.update(dict.fromkeys(calls, 0))
        check_bundle_stability(nu, rols)
        bundle = calls["_rivals"] + calls["_prefers_on_all"]
        calls.update(dict.fromkeys(calls, 0))
        check_standard_stability(implement(nu, ImplementationPolicy("det")), rols)
        return bundle, calls["prefers"]

    for rols, nu, perturbed in large_markets:
        assert scans(nu, rols) == (0, 0)
        for moved in perturbed:
            bundle, seat = scans(moved, rols)
            assert bundle >= 1 and seat >= 1


def test_truthtelling_holds_for_walkthrough_students(walkthrough, walkthrough_rols):
    for student in walkthrough.students:
        assert property_truthtelling(walkthrough, walkthrough_rols, student) is None


def test_listing_a_parent_can_cost_the_student(contested_market):
    """The overdemanded-bundle market: swapping i1's school for the bundle
    above it drops i1 from matched to unmatched, a clause-2 failure."""
    rols = load_json("three_student_overdemand_baseline_rols.json")["rols"]
    report = property_supbundle_monotone(contested_market, rols, "i1", "s1", "B")
    assert report == ("supbundle", "i1", 2, "s1", None)


def test_supbundle_check_validates_inputs(contested_market):
    rols = load_json("three_student_overdemand_baseline_rols.json")["rols"]
    with pytest.raises(ValueError, match="not in the student's ROL"):
        property_supbundle_monotone(contested_market, rols, "i2", "s1", "B")
    with pytest.raises(ValueError, match="already listed"):
        property_supbundle_monotone(contested_market, rols, "i3", "B", "B")
    with pytest.raises(ValueError, match="student i2: not eligible to list bundle B"):
        property_supbundle_monotone(contested_market, rols, "i2", "s2", "B")
    with pytest.raises(ValueError, match="unknown student i9"):
        property_supbundle_monotone(contested_market, rols, "i9", "s1", "B")
    with pytest.raises(ValueError, match="unknown bundle s9"):
        property_supbundle_monotone(contested_market, rols, "i1", "s9", "B")
    with pytest.raises(ValueError, match="unknown bundle Z"):
        property_supbundle_monotone(contested_market, rols, "i1", "s1", "Z")
    with pytest.raises(ValueError, match="^s2 does not strictly contain s1$"):
        property_supbundle_monotone(contested_market, rols, "i1", "s1", "s2")
    with pytest.raises(ValueError, match="unknown student i9"):
        property_truthtelling(contested_market, rols, "i9")


def _truthtelling_by_rerun(instance, rols, student):
    """Reference: rerun the truthful outcome on every call and try every
    reordering, whatever the student gets."""
    rol = tuple(rols[student])
    baseline, _ = run_bundle_da(instance, rols)
    base_rank = _rol_rank(rol, baseline[student])
    for reordered in permutations(rol):
        if reordered == rol:
            continue
        trial = dict(rols)
        trial[student] = list(reordered)
        outcome, _ = run_bundle_da(instance, trial)
        if _rol_rank(rol, outcome[student]) < base_rank:
            return ("truthtelling", student, reordered, outcome[student])
    return None


def _supbundle_by_rerun(instance, rols, student, b, b_sup):
    """Reference: rerun the truthful outcome on every call."""
    rol = tuple(rols[student])
    baseline, _ = run_bundle_da(instance, rols)
    trial = dict(rols)
    trial[student] = [b_sup if bid == b else bid for bid in rol]
    outcome, _ = run_bundle_da(instance, trial)

    old, new = baseline[student], outcome[student]
    slot = rol.index(b)
    if _rol_rank(rol, old) < slot:
        if new != old:
            return ("supbundle", student, 1, old, new)
    elif old == b:
        if new != b_sup:
            return ("supbundle", student, 2, old, new)
    else:
        if new not in (b_sup, old):
            return ("supbundle", student, 3, old, new)
    if old is not None and new is None:
        return ("supbundle", student, "matched-stays-matched", old, new)
    return None


def test_property_checks_match_the_rerun_references():
    """Both checks return what rerunning the truthful outcome on every call
    and trying every reordering returns, market by market, as the battery
    and the benchmark call them.  The engines are strategy-proof, so no
    reordering helps; a sup-bundle swap can still hurt, first on the 533rd
    spanning market."""
    rng = np.random.default_rng(2)
    markets = [random_simple_market(rng) for _ in range(200)]
    markets += [random_spanning_market(rng) for _ in range(600)]
    found = {"truthtelling": 0, "supbundle": 0}
    for instance, rols in markets:
        for i in instance.students:
            if len(rols[i]) >= 2:
                result = property_truthtelling(instance, rols, i)
                assert result == _truthtelling_by_rerun(instance, rols, i)
                found["truthtelling"] += result is not None
        for i, b, sup in _supbundle_cases(instance, rols):
            result = property_supbundle_monotone(instance, rols, i, b, sup)
            assert result == _supbundle_by_rerun(instance, rols, i, b, sup)
            found["supbundle"] += result is not None
    assert found["truthtelling"] == 0 and found["supbundle"] >= 1


@pytest.fixture
def engine_runs(monkeypatch):
    """Every engine run the property checks make, as (instance, ROLs), with
    the truthful-outcome memo emptied first."""
    runs = []

    def counted(instance, rols):
        runs.append((instance, {i: tuple(r) for i, r in rols.items()}))
        return run_bundle_da(instance, rols)

    audit._truthful_matching.cache_clear()
    monkeypatch.setattr(audit, "run_bundle_da", counted)
    return runs


def test_memo_reads_no_stale_outcome(contested_market, engine_runs):
    """Mutating the ROL dict between calls, or checking a second instance
    built from the same document, reaches the engine again."""
    rols = load_json("three_student_overdemand_baseline_rols.json")["rols"]
    failing = ("supbundle", "i1", 2, "s1", None)
    assert property_supbundle_monotone(contested_market, rols, "i1", "s1", "B") == failing
    rols["i3"] = ["s1"]  # i1 now loses s1 to i3 whatever she lists
    assert property_supbundle_monotone(contested_market, rols, "i1", "s1", "B") is None
    rols["i3"] = ["B"]
    assert property_supbundle_monotone(contested_market, rols, "i1", "s1", "B") == failing

    twin = validate_instance(load_json("three_student_overdemand.json"))
    del engine_runs[:]
    assert property_supbundle_monotone(twin, rols, "i1", "s1", "B") == failing
    assert [instance for instance, _ in engine_runs] == [twin, twin]


def test_property_checks_run_the_truthful_outcome_once(walkthrough, engine_runs):
    """Every check on one market shares one truthful-outcome run, and a
    student who gets her first entry makes no trial run.  Every student here
    lists two entries, so any other student makes one."""
    rols = load_json("two_hierarchy_market_rols.json")["rols"]
    submitted = {i: tuple(r) for i, r in rols.items()}
    nu, _ = run_bundle_da(walkthrough, rols)
    first = {i for i in walkthrough.students if nu[i] == rols[i][0]}
    assert 0 < len(first) < len(walkthrough.students)
    for i in walkthrough.students:
        before = len(engine_runs)
        assert property_truthtelling(walkthrough, rols, i) is None
        trials = [r for _, r in engine_runs[before:] if r != submitted]
        assert len(trials) == (0 if i in first else 1)
    for i, b, sup in _supbundle_cases(walkthrough, rols):
        property_supbundle_monotone(walkthrough, rols, i, b, sup)
    assert [r for _, r in engine_runs].count(submitted) == 1


def test_dominated_rol_patterns_are_flagged(walkthrough):
    assert audit_rol_dominance(["b1234", "b12"], walkthrough) == [
        ("dominated", 2, "b12", "b1234")
    ]
    assert audit_rol_dominance(["b12", "b1234"], walkthrough) == []
    assert audit_rol_dominance(["s1"], walkthrough) == []
    flagged = audit_rol_dominance(
        ["s1"], walkthrough, indifference_classes=[{"s1", "s2"}]
    )
    assert flagged == [("indifferent-sub-report", 1, "s1", "b12")]
