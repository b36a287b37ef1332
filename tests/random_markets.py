"""Seeded generator of small random simple markets, plus the property battery.

The generator builds instances that are simple by construction: schools are
carved into disjoint hierarchy branches, every school in a branch shares one
priority order, and each branch carries at most one nontrivial bundle plus
optionally one sup-bundle spanning the branch (two nesting levels).  Sizes
stay within 6 students / 5 schools / ROL cap 3 so the brute-force oracles
stay fast.
"""

import numpy as np

from bundlechoice import (
    BundleMatching,
    check_bundle_stability,
    check_standard_stability,
    enumerate_implementations,
    oracle_pareto_undominated_size_maximal,
    property_supbundle_monotone,
    property_truthtelling,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    validate_instance,
)


def _subset(rng, pool, p=0.75):
    chosen = [x for x in pool if rng.random() < p]
    if not chosen:
        chosen = [pool[int(rng.integers(len(pool)))]]
    return sorted(chosen)


def random_simple_market(rng):
    """One random valid simple instance plus random ROLs for its students."""
    n_students = int(rng.integers(2, 7))
    n_schools = int(rng.integers(2, 6))
    students = [f"i{k}" for k in range(1, n_students + 1)]
    school_ids = [f"s{k}" for k in range(1, n_schools + 1)]

    shuffled = [school_ids[k] for k in rng.permutation(n_schools)]
    branches = []
    at = 0
    while at < len(shuffled):
        take = int(rng.integers(1, len(shuffled) - at + 1))
        branches.append(shuffled[at : at + take])
        at += take

    order_of = {}
    for branch in branches:
        order = [students[k] for k in rng.permutation(n_students)]
        for s in branch:
            order_of[s] = order
    schools = [
        {"id": s, "quota": int(rng.integers(1, 3)), "priority": order_of[s]}
        for s in school_ids
    ]

    bundles = []
    for bn, branch in enumerate(branches):
        if len(branch) < 2 or rng.random() < 0.25:
            continue
        inner_size = int(rng.integers(2, len(branch) + 1))
        inner_targets = _subset(rng, students)
        bundles.append(
            {"id": f"b{bn}x", "schools": sorted(branch[:inner_size]),
             "targets": inner_targets}
        )
        if inner_size < len(branch) and rng.random() < 0.5:
            bundles.append(
                {"id": f"b{bn}y", "schools": sorted(branch),
                 "targets": _subset(rng, inner_targets)}
            )

    raw = {
        "students": students,
        "schools": schools,
        "bundles": bundles,
        "rol_length": int(rng.integers(1, min(3, n_schools - 1) + 1)),
    }
    instance = validate_instance(raw)
    assert not hasattr(instance, "problems"), f"generator produced {instance}"

    rols = {}
    for i in students:
        menu = instance.menu(i)
        if rng.random() < 0.08:
            rols[i] = []
            continue
        length = int(rng.integers(1, instance.rol_length + 1))
        length = min(length, len(menu))
        picks = rng.choice(len(menu), size=length, replace=False)
        rols[i] = [menu[k] for k in picks]
    return instance, rols


def spanning_market(rng, n_students, group_sizes, quota, tier_size, rol_length):
    """A non-simple market with a bundle over every school for a top tier.

    Each group of schools shares one priority order and carries a bundle over
    the group, plus a pair bundle over its first two schools when it has four
    or more; one more bundle over every school is open to `tier_size`
    students whom every school ranks in the same relative order.  The groups'
    orders differ, so the general engine must clear it.  Every student lists
    between one and `rol_length` distinct menu entries.
    """
    students = [f"i{k}" for k in range(1, n_students + 1)]
    tier = [students[k] for k in rng.choice(n_students, size=tier_size,
                                           replace=False)]
    schools, bundles = [], []
    for g, size in enumerate(group_sizes):
        order = [students[k] for k in rng.permutation(n_students)]
        slots = [pos for pos, i in enumerate(order) if i in tier]
        for pos, i in zip(slots, tier):
            order[pos] = i
        members = [f"s{len(schools) + k}" for k in range(1, size + 1)]
        schools += [{"id": s, "quota": quota, "priority": order} for s in members]
        if size >= 4:
            bundles.append({"id": f"p{g + 1}", "schools": members[:2],
                            "targets": "all"})
        bundles.append({"id": f"g{g + 1}", "schools": members, "targets": "all"})
    bundles.append({"id": "span", "schools": [s["id"] for s in schools],
                    "targets": sorted(tier)})
    instance = validate_instance({"students": students, "schools": schools,
                                  "bundles": bundles, "rol_length": rol_length})
    assert not hasattr(instance, "problems"), f"generator produced {instance}"
    rols = {}
    for i in students:
        menu = instance.menu(i)
        length = min(int(rng.integers(1, rol_length + 1)), len(menu))
        rols[i] = [menu[k] for k in rng.choice(len(menu), size=length,
                                               replace=False)]
    return instance, rols


def random_spanning_market(rng):
    """A small `spanning_market`: 5-8 students, two or three groups of two or
    three one-seat schools, a tier of two or three, ROLs of up to two."""
    n_students = int(rng.integers(5, 9))
    tier_size = int(rng.integers(2, 4))
    sizes = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
    return spanning_market(rng, n_students, sizes, 1, tier_size, 2)


def _supbundle_cases(instance, rols):
    """(student, listed bundle, unlisted strict sup-bundle) triples, if any."""
    cases = []
    for i, rol in rols.items():
        for b in rol:
            inner = instance.bundles[b].schools
            for sup in instance.bundle_order:
                if sup in rol or i not in instance.bundles[sup].targets:
                    continue
                if inner < instance.bundles[sup].schools:
                    cases.append((i, b, sup))
    return cases


def to_ref(instance, rols):
    """(schools, bundles, rols) of a market in `stability_oracle`'s plain form."""
    schools = {
        s: (school.quota, tuple(school.priority))
        for s, school in instance.schools.items()
    }
    bundles = {
        bundle.schools: set(bundle.targets)
        for bundle in instance.bundles.values()
    }
    ref_rols = {
        i: tuple(instance.bundles[bid].schools for bid in rols.get(i, []))
        for i in instance.students
    }
    return schools, bundles, ref_rols


def school_sets(instance, assignment):
    """A {student: bundle id or None} assignment as `stability_oracle` keys."""
    return {
        i: (instance.bundles[bid].schools if bid is not None else None)
        for i, bid in assignment.items()
    }


def check_instance(instance, rols):
    """Run every engine-level property on one instance.

    Returns (failures, agree) where failures is a list of violation tuples
    and agree reports whether the two bundle engines coincided under the
    canonical tie-break order.
    """
    failures = []
    nu, _ = run_bundle_da(instance, rols)

    verdict = check_bundle_stability(nu, rols)
    if not verdict.stable:
        failures.append(("engine-unstable", verdict.violations))

    ok, witness = oracle_pareto_undominated_size_maximal(nu, rols)
    if not ok:
        failures.append(("engine-dominated", witness))

    matchings, truncated = enumerate_implementations(nu)
    assert not truncated
    for mu in matchings:
        seat_verdict = check_standard_stability(mu, rols)
        if not seat_verdict.stable:
            failures.append(("implementation-unstable", mu.as_dict(),
                             seat_verdict.violations))

    agree = (
        run_bundle_da_simple(instance, rols)[0]
        == run_bundle_da_general(instance, rols)[0]
    )

    for i in instance.students:
        if len(rols.get(i, [])) < 2:
            continue
        violation = property_truthtelling(instance, rols, i)
        if violation:
            failures.append(violation)

    for i, b, sup in _supbundle_cases(instance, rols)[:2]:
        violation = property_supbundle_monotone(instance, rols, i, b, sup)
        if violation:
            failures.append(violation)

    return failures, agree


def exhaustive_stable_set(instance, rols, cap=1500):
    """Every feasible IR-or-unmatched assignment that the auditor calls stable.

    Returns None when the candidate space exceeds `cap`.
    """
    students = list(instance.students)
    total = 1
    for i in students:
        total *= len(rols.get(i, [])) + 1
        if total > cap:
            return None
    stable = []

    def fill(idx, assignment):
        if idx == len(students):
            try:
                nu = BundleMatching(instance, dict(assignment))
            except ValueError:
                return
            if check_bundle_stability(nu, rols).stable:
                stable.append(dict(assignment))
            return
        i = students[idx]
        for choice in list(rols.get(i, [])) + [None]:
            assignment[i] = choice
            fill(idx + 1, assignment)
        del assignment[i]

    fill(0, {})
    return stable


def generate(count, seed):
    rng = np.random.default_rng(seed)
    return [random_simple_market(rng) for _ in range(count)]
