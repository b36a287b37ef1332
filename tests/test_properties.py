"""Seeded random-market battery: engines, audits, and oracles in concert.

Five hundred generated simple markets are pushed through every property we
claim: engine outcomes are stable and undominated, every seat realization is
seat-stable, truthtelling and sup-bundle swaps never help, and the whole
auditor agrees with the independent brute-force checker on complete stable
sets.  On a simple system the two bundle engines order applications the same
way, so they agree on every market, including the two on which an earlier
general engine's tie-break order once split them.
"""

import pytest
import stability_oracle as ref
from random_markets import (
    check_instance,
    exhaustive_stable_set,
    generate,
    school_sets,
    to_ref,
)

from bundlechoice import (
    check_bundle_stability,
    run_bundle_da_general,
    run_bundle_da_simple,
)

SEED = 20250815
COUNT = 500
DIVERGENT = []


@pytest.fixture(scope="module")
def markets():
    return generate(COUNT, SEED)


def test_battery_holds_every_property(markets):
    failures = {}
    disagreements = []
    for idx, (instance, rols) in enumerate(markets):
        found, agree = check_instance(instance, rols)
        if found:
            failures[idx] = found
        if not agree:
            disagreements.append(idx)
    assert failures == {}
    assert disagreements == DIVERGENT


def test_engines_agree_on_the_formerly_divergent_markets(markets):
    for idx in (33, 265):
        instance, rols = markets[idx]
        via_common, _ = run_bundle_da_simple(instance, rols)
        via_tiebreak, _ = run_bundle_da_general(instance, rols)
        assert via_common == via_tiebreak
        assert check_bundle_stability(via_common, rols, instance).stable


def test_stable_sets_match_the_brute_force_checker(markets):
    enumerable = 0
    for instance, rols in markets:
        ours = exhaustive_stable_set(instance, rols)
        if ours is None:
            continue
        enumerable += 1
        schools, bundles, ref_rols = to_ref(instance, rols)
        theirs = ref.stable_matchings(schools, bundles, ref_rols)
        lhs = {
            tuple(sorted(school_sets(instance, m).items())) for m in ours
        }
        rhs = {tuple(sorted(m.items())) for m in theirs}
        assert lhs == rhs

        nu, _ = run_bundle_da_simple(instance, rols)
        assert tuple(sorted(school_sets(instance, nu.as_dict()).items())) in rhs
    assert enumerable == COUNT - 1  # one market exceeds the enumeration cap


def test_structural_invariants_on_random_instances(markets):
    for instance, rols in markets[:80]:
        for i in instance.students:
            menu = set(instance.menu(i))
            for bundle in instance.bundles.values():
                if bundle.trivial:
                    assert bundle.id in menu
                else:
                    assert (bundle.id in menu) == (i in bundle.targets)

        # nesting forms a forest: at most one minimal strict sup-bundle
        for bundle in instance.bundles.values():
            sups = [
                other
                for other in instance.bundles.values()
                if bundle.schools < other.schools
            ]
            minimal = [
                a
                for a in sups
                if not any(b.schools < a.schools for b in sups)
            ]
            assert len(minimal) <= 1

        nu, _ = run_bundle_da_simple(instance, rols)
        for bundle in instance.bundles.values():
            assert nu.occupancy(bundle.id) <= instance.bundle_quota(bundle.id)
            for other in instance.bundles.values():
                if bundle.schools < other.schools:
                    assert nu.occupancy(bundle.id) <= nu.occupancy(other.id)
