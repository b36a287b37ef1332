"""Turning bundle assignments into seat assignments.

A bundle-matching tells each student *which group of schools* admitted her; a
second stage must still pick the seat.  Seats are handed out by ascending
bundle size: students admitted by single schools are forced, then two-school
bundles fill from their remaining seats, then three-school bundles, and so
on.  Nested quotas guarantee this never runs out of seats; a shortfall
raises `RuntimeError` rather than being patched.

Three seat-picking policies are provided: a deterministic lexicographic one
(reproducible goldens), a seeded-random one (uniform over free seat slots,
drawn with numpy's default generator), and one that follows
student-submitted school rankings.  The last seats a bundle's admits one at
a time in the bundle's priority order, each at her best school with a seat
left.  Priority uniformity makes every school of a bundle rank its admits
alike, and under one common priority order this serial pass is the unique
stable outcome, the one within-bundle deferred acceptance would reach.
"""

from dataclasses import dataclass

import numpy as np

from .model import StandardMatching


@dataclass(frozen=True)
class ImplementationPolicy:
    mode: str  # "det", "random", or "prefs"
    seed: int = None
    preferences: dict = None  # student -> ordered schools, for "prefs"

    def __post_init__(self):
        if self.mode not in ("det", "random", "prefs"):
            raise ValueError(f"unknown implementation mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random implementation needs a seed")
        if self.mode == "prefs" and self.preferences is None:
            raise ValueError("prefs implementation needs per-student rankings")


def _stage_plan(nu):
    """Forced seats, remaining free seats, and bundle groups by size, each
    group in canonical student order."""
    instance = nu.instance
    seats = {i: None for i in instance.students}
    free = {s: school.quota for s, school in instance.schools.items()}
    groups = {}  # bundle id -> students, nontrivial only
    for i in instance.students:
        bid = nu[i]
        if bid is None:
            continue
        bundle = instance.bundles[bid]
        if bundle.trivial:
            (school,) = bundle.schools
            seats[i] = school
            free[school] -= 1
            if free[school] < 0:
                raise RuntimeError(f"school {school} oversubscribed")
        else:
            groups.setdefault(bid, []).append(i)
    ordered = sorted(
        groups.items(),
        key=lambda kv: (
            len(instance.bundles[kv[0]].schools),
            instance.bundle_order.index(kv[0]),
        ),
    )
    return seats, free, ordered


def _bundle_pool(instance, free, bundle_id):
    """Free schools of a bundle, canonically ordered."""
    schools = instance.bundles[bundle_id].schools
    return [s for s in instance.school_order if s in schools and free[s] > 0]


def implement(nu, policy):
    """Assign every bundle-admitted student a seat inside her bundle.

    `det` and `prefs` seat each bundle's admits in one serial pass: one
    student at a time takes the first school in her ranking with a seat
    left.  Under `det` students go in canonical order and all rank the
    bundle's free schools canonically; under `prefs` they go in the bundle's
    shared priority order and use their submitted rankings, which is the
    unique stable within-bundle outcome.  `random` deals each bundle's
    admits a uniform draw of its free seat slots.
    """
    instance = nu.instance
    rng = np.random.default_rng(policy.seed) if policy.mode == "random" else None
    seats, free, ordered = _stage_plan(nu)
    for bid, students in ordered:
        pool = _bundle_pool(instance, free, bid)
        if policy.mode == "random":
            slots = [s for s in pool for _ in range(free[s])]
            if len(slots) < len(students):
                raise RuntimeError(f"no free seat left in bundle {bid}")
            picks = rng.permutation(len(slots))[: len(students)]
            for i, k in zip(students, picks):
                seats[i] = slots[k]
                free[slots[k]] -= 1
            continue
        if policy.mode == "prefs":
            schools = instance.bundles[bid].schools
            for i in students:
                ranking = policy.preferences.get(i)
                if ranking is None:
                    raise ValueError(f"no second-stage ranking for student {i}")
                if len(ranking) != len(schools) or set(ranking) != schools:
                    raise ValueError(
                        f"student {i}: ranking must cover exactly the schools of "
                        f"bundle {bid}"
                    )
            anchor = min(schools)  # all of the bundle's schools agree on admits
            students = sorted(students, key=lambda i: instance.rank(anchor, i))
        for i in students:
            ranking = pool if policy.mode == "det" else policy.preferences[i]
            school = next((s for s in ranking if free[s] > 0), None)
            if school is None:
                raise RuntimeError(f"no free seat left in bundle {bid}")
            seats[i] = school
            free[school] -= 1
    return StandardMatching(instance, seats)


def enumerate_implementations(nu, cap=10000):
    """All seat assignments realizing a bundle-matching.

    Returns (matchings, truncated); `truncated` is True when more than `cap`
    assignments exist, in which case exactly `cap` of them are returned.
    The roaming students (those admitted by a bundle) are seated one at a
    time, each at every free school of her bundle in canonical order, in a
    loop over the roaming students, not a recursion, so the enumeration's
    depth is not bounded by the interpreter's recursion limit.
    """
    instance = nu.instance
    seats, free, ordered = _stage_plan(nu)
    roaming = [(i, bid) for bid, students in ordered for i in students]
    results, untried, idx = [], [None] * len(roaming), 0
    while len(results) < cap:
        if idx == len(roaming):
            results.append(StandardMatching(instance, dict(seats)))
            idx -= 1
        else:
            _, bid = roaming[idx]
            pool = _bundle_pool(instance, free, bid)
            if not pool:
                raise RuntimeError(f"no free seat left in bundle {bid}")
            untried[idx] = iter(pool)
        while idx >= 0:  # the deepest roaming student's next school
            i, _ = roaming[idx]
            if seats[i] is not None:
                free[seats[i]] += 1
            seats[i] = school = next(untried[idx], None)
            if school is not None:
                free[school] -= 1
                idx += 1
                break
            idx -= 1
        else:
            return results, False
    return results, True
