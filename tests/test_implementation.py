"""Second stage: turning bundle admissions into seat assignments.

A seeded battery checks `prefs` seating against the within-bundle deferred
acceptance in `seating_reference` and pins `det` and `random` seating by
digest.
"""

import numpy as np
import pytest
from random_markets import random_simple_market, random_spanning_market, spanning_market
from seating_reference import reference_prefs_seating

from bundlechoice import (
    ImplementationPolicy,
    content_digest,
    enumerate_implementations,
    implement,
    implements,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
)

DET = ImplementationPolicy(mode="det")

MU_41_DET = {
    "i1": "s1", "i2": "s2", "i3": "s3", "i4": None,
    "i5": "s5", "i6": "s7", "i7": "s6", "i8": "s4",
}

MU_D_DET = {
    "i1": "s2", "i2": "s2", "i3": None, "i4": "s1",
    "i5": "s3", "i6": "s4", "i7": "s1", "i8": "s3",
}


@pytest.fixture(scope="module")
def nu_41(walkthrough, walkthrough_rols):
    nu, _ = run_bundle_da_simple(walkthrough, walkthrough_rols)
    return nu


@pytest.fixture(scope="module")
def nu_d(nested, nested_rols):
    nu, _ = run_bundle_da_general(nested, nested_rols)
    return nu


def test_deterministic_seats_on_walkthrough(nu_41):
    mu = implement(nu_41, DET)
    assert mu.as_dict() == MU_41_DET
    assert implements(mu, nu_41)


def test_deterministic_seats_on_nested_walkthrough(nu_d):
    mu = implement(nu_d, DET)
    assert mu.as_dict() == MU_D_DET
    assert implements(mu, nu_d)


def test_enumeration_on_walkthrough(nu_41):
    mus, truncated = enumerate_implementations(nu_41)
    assert not truncated
    assert len(mus) == 2
    assert all(implements(mu, nu_41) for mu in mus)
    seats = {(mu["i2"], mu["i8"]) for mu in mus}
    assert seats == {("s2", "s4"), ("s4", "s2")}
    assert implement(nu_41, DET) in mus


def test_enumeration_on_nested_walkthrough(nu_d):
    mus, truncated = enumerate_implementations(nu_d)
    assert not truncated
    # three students chase one free seat at s2 and two at s3
    assert len(mus) == 3
    seats = {(mu["i2"], mu["i5"], mu["i8"]) for mu in mus}
    assert seats == {
        ("s2", "s3", "s3"), ("s3", "s2", "s3"), ("s3", "s3", "s2")
    }
    assert implement(nu_d, DET) in mus


def test_enumeration_cap_truncates(nu_d):
    mus, truncated = enumerate_implementations(nu_d, cap=1)
    assert truncated
    assert len(mus) == 1


def test_trivial_assignments_are_forced(tiny_market, tiny_rols):
    nu, _ = run_bundle_da_simple(tiny_market, tiny_rols)
    mus, truncated = enumerate_implementations(nu)
    assert not truncated and len(mus) == 1
    assert mus[0].as_dict() == {"i": "s", "ip": None}
    assert implement(nu, DET) == mus[0]


def test_everyone_unmatched_has_one_realization(walkthrough):
    nu, _ = run_bundle_da_simple(walkthrough, {})
    mus, truncated = enumerate_implementations(nu)
    assert not truncated and len(mus) == 1
    assert all(s is None for s in mus[0].as_dict().values())


def test_seeded_random_is_reproducible(nu_41, nu_d):
    for nu in (nu_41, nu_d):
        policy = ImplementationPolicy(mode="random", seed=7)
        first = implement(nu, policy)
        second = implement(nu, policy)
        assert first == second
        mus, _ = enumerate_implementations(nu)
        assert first in mus


BRANCH_PREFS = {"i7": ["s6", "s5"], "i6": ["s7", "s6", "s5"]}


def test_preference_stage_follows_rankings(nu_41):
    order = ["s2", "s4", "s1", "s3"]
    prefs = dict(BRANCH_PREFS)
    prefs.update({"i2": order, "i8": ["s4", "s2", "s1", "s3"]})
    mu = implement(nu_41, ImplementationPolicy(mode="prefs", preferences=prefs))
    assert mu["i2"] == "s2" and mu["i8"] == "s4"
    assert mu["i7"] == "s6" and mu["i6"] == "s7"

    # contested first choice goes to the higher-priority student
    prefs["i8"] = list(order)
    mu = implement(nu_41, ImplementationPolicy(mode="prefs", preferences=prefs))
    assert mu["i2"] == "s2" and mu["i8"] == "s4"
    assert implements(mu, nu_41)


def test_preference_stage_validates_rankings(nu_41):
    prefs = dict(BRANCH_PREFS)
    prefs["i2"] = ["s2", "s4", "s1", "s3"]
    with pytest.raises(ValueError, match="no second-stage ranking"):
        implement(nu_41, ImplementationPolicy(mode="prefs", preferences=prefs))
    for short_or_repeated in (["s4", "s2"], ["s4", "s2", "s1", "s3", "s3"]):
        prefs["i8"] = short_or_repeated
        with pytest.raises(ValueError, match="cover exactly"):
            implement(nu_41, ImplementationPolicy(mode="prefs", preferences=prefs))


def test_policy_validation():
    with pytest.raises(ValueError, match="unknown implementation mode"):
        ImplementationPolicy(mode="lottery")
    with pytest.raises(ValueError, match="needs a seed"):
        ImplementationPolicy(mode="random")
    with pytest.raises(ValueError, match="per-student rankings"):
        ImplementationPolicy(mode="prefs")


# `det` and `random` (seed = case index) seating over the whole battery.
BATTERY_DET_DIGEST = "9975c5da304e312ecf9164591b775a3055d4e8f5b2f386b212a1680b94288e69"
BATTERY_RANDOM_DIGEST = "94fa70d6837f7e8db87891b2e94b2a0edfb6480c9e64b8f2dff3a65e04fa5905"


def _stage_rankings(rng, nu):
    """A random ranking of her bundle's schools for every bundle admit."""
    instance = nu.instance
    rankings = {}
    for i in instance.students:
        bid = nu[i]
        if bid is None or instance.bundles[bid].trivial:
            continue
        schools = [s for s in instance.school_order if s in instance.bundles[bid].schools]
        rankings[i] = [schools[k] for k in rng.permutation(len(schools))]
    return rankings


@pytest.fixture(scope="module")
def seating_battery():
    """(bundle-matching, stage rankings) cases: 2,500 random simple markets,
    1,000 random spanning markets and one 800-student grouped market, each
    with three random stage rankings -- 10,503 cases."""
    rng = np.random.default_rng(2026)
    markets = [random_simple_market(rng) for _ in range(2500)]
    markets += [random_spanning_market(rng) for _ in range(1000)]
    markets.append(spanning_market(rng, 800, [4] * 8, 25, 40, 3))
    cases = []
    for instance, rols in markets:
        nu, _ = run_bundle_da(instance, rols)
        cases += [(nu, _stage_rankings(rng, nu)) for _ in range(3)]
    return cases


def test_preference_seating_equals_within_bundle_deferred_acceptance(seating_battery):
    bumped = 0  # cases where some admit misses her first choice
    for nu, rankings in seating_battery:
        mu = implement(nu, ImplementationPolicy("prefs", preferences=rankings))
        assert mu == reference_prefs_seating(nu, rankings)
        bumped += any(mu[i] != ranking[0] for i, ranking in rankings.items())
    assert len(seating_battery) == 10503
    assert bumped >= 2500


def test_det_and_random_seating_on_the_battery_are_pinned(seating_battery):
    det = [implement(nu, DET).as_dict() for nu, _ in seating_battery]
    rand = [
        implement(nu, ImplementationPolicy("random", seed=k)).as_dict()
        for k, (nu, _) in enumerate(seating_battery)
    ]
    assert content_digest(det) == BATTERY_DET_DIGEST
    assert content_digest(rand) == BATTERY_RANDOM_DIGEST
