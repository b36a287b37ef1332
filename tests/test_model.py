"""Instance validation, simplicity detection, and induced preferences."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from audit_helpers import induced_preference
from clearing_reference import admit, close
from conftest import FIXTURES, build, load_json
from random_markets import random_simple_market, random_spanning_market
from tree_reference import ReferenceTree, layout

import bundlechoice
from bundlechoice import (
    BundleMatching,
    Exp1Config,
    Exp2Config,
    StandardMatching,
    ValidationReport,
    detect_simplicity,
    run_bundle_da_simple,
    validate_instance,
    validate_rols,
)
from bundlechoice.model import BundleTree


def problems_of(raw):
    report = validate_instance(raw)
    assert isinstance(report, ValidationReport), "expected validation to fail"
    return "\n".join(report.problems)


def test_seven_school_system_valid_but_not_simple():
    instance = build(load_json("seven_school_system.json"))
    info = detect_simplicity(instance)
    assert not info.simple
    assert "ball" in info.reason
    with pytest.raises(ValueError, match="^bundle system is not simple"):
        run_bundle_da_simple(instance, {})


def test_seven_school_system_without_spanning_bundle_is_simple(walkthrough):
    info = detect_simplicity(walkthrough)
    assert info.simple
    branches = [walkthrough.bundles[r].schools for r in walkthrough.tree.roots]
    branches = [schools for schools in branches if len(schools) > 1]
    assert sorted(sorted(schools) for schools in branches) == [
        ["s1", "s2", "s3", "s4"],
        ["s5", "s6", "s7"],
    ]
    orders = {
        tuple(sorted(schools)): {walkthrough.schools[s].priority for s in schools}
        for schools in branches
    }
    (order,) = orders[("s1", "s2", "s3", "s4")]
    assert order[:4] == ("i1", "i2", "i3", "i8")
    (order,) = orders[("s5", "s6", "s7")]
    assert order[:4] == ("i6", "i7", "i5", "i4")


def test_overlapping_bundles_must_nest():
    text = problems_of(load_json("bad_overlap.json"))
    assert "overlap without nesting" in text


def test_equal_school_sets_rejected():
    raw = load_json("bad_overlap.json")
    raw["bundles"] = [
        {"id": "x", "schools": ["s1", "s2"], "targets": "all"},
        {"id": "y", "schools": ["s2", "s1"], "targets": ["i1"]},
    ]
    assert "merge them into one" in problems_of(raw)


def test_explicit_singleton_bundle_rejected():
    raw = load_json("bad_overlap.json")
    raw["bundles"] = [{"id": "solo", "schools": ["s1"], "targets": "all"}]
    assert "one-school bundles are implicit" in problems_of(raw)


def test_target_monotonicity_enforced():
    raw = load_json("bad_overlap.json")
    raw["bundles"] = [
        {"id": "small", "schools": ["s1", "s2"], "targets": ["i1"]},
        {"id": "big", "schools": ["s1", "s2", "s3"], "targets": ["i1", "i2"]},
    ]
    assert "targets students outside" in problems_of(raw)


def test_priority_uniformity_checked_inside_bundles():
    raw = load_json("bad_overlap.json")
    raw["schools"][1]["priority"] = ["i2", "i1"]
    raw["bundles"] = [{"id": "x", "schools": ["s1", "s2"], "targets": "all"}]
    assert "rank targeted students i1 and i2 differently" in problems_of(raw)


def test_rol_length_must_stay_below_school_count():
    raw = load_json("bad_overlap.json")
    raw["bundles"] = []
    raw["rol_length"] = 3
    assert "must be smaller than the number of schools" in problems_of(raw)


def test_quota_and_priority_shape_errors():
    raw = load_json("bad_overlap.json")
    raw["bundles"] = []
    raw["schools"][0]["quota"] = 0
    raw["schools"][2]["priority"] = ["i1"]
    text = problems_of(raw)
    assert "quota must be at least 1" in text
    assert "not a permutation" in text


def test_validate_rols_flags_each_problem(swap_market):
    report = validate_rols(
        swap_market,
        {
            "i1": ["s1", "s4", "s3"],  # over the cap
            "i2": ["B", "B"],  # repeated entry
            "i3": ["nope"],  # unknown bundle
            "i4": [],
            "i5": ["s1"],
            "ghost": ["s1"],  # unknown student
        },
    )
    text = "\n".join(report.problems)
    assert "exceed the cap" in text
    assert "repeated bundle" in text
    assert "unknown bundle nope" in text
    assert "unknown student ghost" in text


def test_ineligible_bundle_listing_rejected(contested_market):
    report = validate_rols(contested_market, {"i2": ["B"]})
    assert "not eligible to list bundle B" in "\n".join(report.problems)


def test_trivial_bundles_synthesized_and_on_every_menu(walkthrough):
    for school in walkthrough.school_order:
        bundle = walkthrough.bundle_for_schools({school})
        assert bundle.id == school
        assert bundle.targets == frozenset(walkthrough.students)
    for student in walkthrough.students:
        menu = walkthrough.menu(student)
        assert all(s in menu for s in walkthrough.school_order)


def test_trivial_only_system_is_simple_with_one_branch_per_school(tiny_market):
    info = detect_simplicity(tiny_market)
    assert info.simple
    roots = [sorted(tiny_market.bundles[r].schools) for r in tiny_market.tree.roots]
    assert sorted(roots) == [[s] for s in sorted(tiny_market.school_order)]


def test_nesting_is_a_forest(walkthrough, nested):
    for instance in (walkthrough, nested):
        for bid in instance.bundle_order:
            own = instance.bundles[bid].schools
            sups = [
                other
                for other in instance.bundle_order
                if own < instance.bundles[other].schools
            ]
            minimal = [
                s
                for s in sups
                if not any(
                    instance.bundles[t].schools < instance.bundles[s].schools
                    for t in sups
                )
            ]
            assert len(minimal) <= 1


def test_bundle_tree_admit_charges_ancestors_and_close_zeroes_descendants(nested):
    tree = nested.tree
    assert tree.chain["s2"] == ("s2", "b23", "b123")
    raw = load_json("nested_bundle_market.json")
    reordered = build(dict(raw, bundles=raw["bundles"][::-1])).tree
    assert reordered.chain["s2"] == ("s2", "b23", "b123")
    assert tree.descendants["b123"] == ("s1", "s2", "s3", "b23", "b123")
    assert tree.roots == ("s4", "s5", "b123")
    assert tree.root["s3"] == "b123" and tree.root["s5"] == "s5"
    assert tree.quota == {"s1": 2, "s2": 2, "s3": 2, "s4": 1, "s5": 1,
                          "b23": 4, "b123": 6}

    # The tests' seat replay charges along the chains.
    remaining = dict(tree.quota)
    for _ in range(2):
        admit(tree, remaining, "s2")
    # s2 ran out, so it is closed; its ancestors were only charged
    assert remaining == {"s1": 2, "s2": 0, "s3": 2, "s4": 1, "s5": 1,
                         "b23": 2, "b123": 4}
    for _ in range(2):
        admit(tree, remaining, "b23")
    # b23 ran out: closing it zeroes s3 although s3 itself was never charged
    assert remaining == {"s1": 2, "s2": 0, "s3": 0, "s4": 1, "s5": 1,
                         "b23": 0, "b123": 2}
    with pytest.raises(ValueError, match="bundle s3 has no seat left"):
        admit(tree, remaining, "s3")
    close(tree, remaining, "b123")
    assert remaining["s1"] == remaining["b123"] == 0 and remaining["s4"] == 1


def _tree_inputs():
    """(quotas, school sets) of every fixture market, every experiment
    treatment and two random batteries."""
    markets = []
    for path in sorted(FIXTURES.glob("*.json")):
        instance = validate_instance(json.loads(path.read_text(encoding="utf-8")))
        if not isinstance(instance, ValidationReport):
            markets.append(instance)
    assert len(markets) >= 6
    simple_rng, spanning_rng = np.random.default_rng(5), np.random.default_rng(6)
    markets += [random_simple_market(simple_rng)[0] for _ in range(300)]
    markets += [random_spanning_market(spanning_rng)[0] for _ in range(300)]
    for instance in markets:
        quotas = {s: instance.schools[s].quota for s in instance.school_order}
        yield quotas, {b: instance.bundles[b].schools for b in instance.bundle_order}
    for config in ([Exp1Config(t) for t in Exp1Config.TREATMENTS]
                   + [Exp2Config(t) for t in Exp2Config.TREATMENTS]):
        sets = {s: frozenset({s}) for s in config.schools}
        sets.update((b, frozenset(members)) for b, members in config.bundles.items())
        assert layout(config.tree) == layout(ReferenceTree(config.quota, sets))
        yield config.quota, sets


def test_bundle_tree_from_school_chains_equals_the_pairwise_build():
    """Every field, orders included, with the bundles in their given order,
    reversed and shuffled."""
    rng = np.random.default_rng(18)
    differ = []
    for k, (quotas, sets) in enumerate(_tree_inputs()):
        items = list(sets.items())
        shuffled = [items[p] for p in rng.permutation(len(items))]
        for order in map(dict, (items, items[::-1], shuffled)):
            if layout(BundleTree(quotas, order)) != layout(ReferenceTree(quotas, order)):
                differ.append(k)
    assert differ == []


def test_induced_preference_groups_by_first_occurrence(walkthrough):
    pref = induced_preference(["b12", "b1234"], walkthrough)
    assert pref.classes == (frozenset({"s1", "s2"}), frozenset({"s3", "s4"}))
    assert pref.strictly_prefers("s1", "s3")
    assert not pref.strictly_prefers("s2", "s1")
    assert not pref.acceptable("s5")


def test_induced_preference_of_school_then_bundle(nested):
    pref = induced_preference(["s2", "b123"], nested)
    assert pref.classes == (frozenset({"s2"}), frozenset({"s1", "s3"}))


def test_induced_preference_empty_rol(walkthrough):
    pref = induced_preference([], walkthrough)
    assert pref.classes == ()
    assert not pref.acceptable("s1")
    assert not pref.strictly_prefers("s1", None)


def test_induced_preference_ignores_fully_covered_entries(walkthrough):
    base = induced_preference(["b1234"], walkthrough)
    extended = induced_preference(["b1234", "b12"], walkthrough)
    assert base.classes == extended.classes


def test_occupancy_counts_nested_assignments(walkthrough, walkthrough_rols):
    nu, _ = run_bundle_da_simple(walkthrough, walkthrough_rols)
    # i2 and i8 sit in b1234; i1 (s1) and i3 (s3) count toward it as well
    assert nu.occupancy("b1234") == 4
    assert nu.occupancy("b12") == 1
    assert nu.occupancy("s1") == 1
    for bid in walkthrough.bundle_order:
        assert nu.occupancy(bid) <= walkthrough.bundle_quota(bid)
    # occupancy is monotone along nesting
    for a in walkthrough.bundle_order:
        for b in walkthrough.bundle_order:
            schools_a = walkthrough.bundles[a].schools
            schools_b = walkthrough.bundles[b].schools
            if schools_a <= schools_b:
                assert nu.occupancy(a) <= nu.occupancy(b)


def test_bundle_matching_rejects_overfill_and_ineligibility(contested_market):
    with pytest.raises(ValueError, match="over capacity"):
        BundleMatching(
            contested_market, {"i1": "B", "i2": "s2", "i3": "s1"}
        )
    with pytest.raises(ValueError, match="not eligible"):
        BundleMatching(contested_market, {"i2": "B"})
    with pytest.raises(ValueError, match="^student i1 assigned to unknown bundle Z$"):
        BundleMatching(contested_market, {"i1": "Z"})
    with pytest.raises(ValueError, match="^student i1 assigned to unknown school Z$"):
        StandardMatching(contested_market, {"i1": "Z"})
    with pytest.raises(ValueError, match="^school s1 is over capacity$"):
        StandardMatching(contested_market, {"i1": "s1", "i2": "s1"})


def test_bundle_quota_is_sum_of_member_quotas(nested):
    assert nested.bundle_quota("b23") == 4
    assert nested.bundle_quota("b123") == 6
    assert nested.bundle_quota("s4") == 1


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    """`python -O` strips `assert`, so the package checks with explicit raises,
    and none of them raises `AssertionError`, which reads as a failed assert."""
    found = []
    for module in sorted(Path(bundlechoice.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        found += [f"{module.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and _raises_assertion_error(node)]
    assert found == []
