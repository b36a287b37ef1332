"""Reference second stage: within-bundle deferred acceptance.

`reference_prefs_seating` seats bundle admits by student-proposing deferred
acceptance over the rankings they submit for the stage, one bundle at a
time in ascending size and then canonical position.  The package seats them
by one serial pass in each bundle's shared priority order instead; under one
common priority order the two give the same seats, and the battery in
`test_implementation.py` compares them.  The code here is self-contained so
that it shares nothing with the code it checks.
"""

from bundlechoice import StandardMatching


def _stage_plan(nu):
    """Forced seats, remaining free seats, and bundle groups by size."""
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


def reference_prefs_seating(nu, preferences):
    """Seat bundle admits by deferred acceptance over their own rankings.

    Students admitted by the same bundle compete for its remaining seats
    using the school rankings they submit for this stage; schools apply
    their common priority order restricted to the bundle's admittees, so
    the outcome inherits stability within each bundle.
    """
    instance = nu.instance
    seats, free, ordered = _stage_plan(nu)
    for bid, students in ordered:
        schools = instance.bundles[bid].schools
        for i in students:
            ranking = preferences.get(i)
            if ranking is None:
                raise ValueError(f"no second-stage ranking for student {i}")
            if set(ranking) != schools:
                raise ValueError(
                    f"student {i}: ranking must cover exactly the schools of "
                    f"bundle {bid}"
                )
        anchor = min(schools)  # all of the bundle's schools agree on admittees
        capacity = {s: free[s] for s in schools}
        pointer = {i: 0 for i in students}
        held = {s: [] for s in schools}
        placed = {}
        while True:
            waiting = [
                i for i in students if i not in placed and pointer[i] < len(schools)
            ]
            if not waiting:
                break
            for i in waiting:
                school = preferences[i][pointer[i]]
                held[school].append(i)
            for s, pool in held.items():
                pool.sort(key=lambda i: instance.rank(anchor, i))
                for loser in pool[capacity[s] :]:
                    pointer[loser] += 1
                del pool[capacity[s] :]
            placed = {i: s for s, pool in held.items() for i in pool}
            held = {s: list(pool) for s, pool in held.items()}
            for s in held:
                held[s] = [i for i in held[s] if placed.get(i) == s]
        if len(placed) != len(students):
            raise RuntimeError(f"no free seat left in bundle {bid}")
        for i, s in placed.items():
            seats[i] = s
            free[s] -= 1
    return StandardMatching(instance, seats)
