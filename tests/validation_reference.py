"""The package's structural validation as it was before it ran in linear
passes, kept to check the linear passes against.

`validate_instance` here checks nesting and monotonicity on every pair of
bundles, sorts every priority to check it is a permutation, and walks every
bundle's projected order at every school.  It differs from the original in
two lines only:

* it builds the rank maps itself and hands them to `Instance`, which no
  longer builds them;
* its uniformity loop skips bundles with fewer than two schools, not only
  one-school bundles.  The original unpacked the school set of an empty
  bundle and raised `ValueError` after reporting "empty school set"; the
  package now reports the problem instead.
"""

from bundlechoice.model import Bundle, Instance, School, _check_shape


def validate_instance(raw):
    """Check a parsed instance description against all structural rules.

    `raw` is a mapping with keys `students`, `schools`, `bundles`,
    `rol_length` (see the README for the document schema).  Returns a
    validated `Instance` on success and a `ValidationReport` listing every
    violated condition otherwise.  The input is never mutated.
    """
    report = _check_shape(raw)
    if not report.ok:
        return report

    students = list(raw.get("students", []))
    if not students:
        report.add("instance lists no students")
    if len(students) != len(set(students)):
        report.add("duplicate student ids")

    roster = sorted(students)
    schools = []
    for entry in raw.get("schools", []):
        sid = entry["id"]
        quota = entry["quota"]
        priority = tuple(entry["priority"])
        if quota < 1:
            report.add(f"school {sid}: quota must be at least 1")
        if sorted(priority) != roster:
            report.add(
                f"school {sid}: priority order is not a permutation of the students"
            )
        schools.append(School(sid, quota, priority))
    school_ids = [s.id for s in schools]
    if not schools:
        report.add("instance lists no schools")
    if len(school_ids) != len(set(school_ids)):
        report.add("duplicate school ids")

    student_set = frozenset(students)
    school_set = set(school_ids)

    # Trivial bundles are implicit: one per school, open to everyone.
    bundles = [
        Bundle(sid, frozenset({sid}), student_set) for sid in school_ids
    ]
    for entry in raw.get("bundles", []):
        bid = entry["id"]
        bschools = frozenset(entry["schools"])
        targets = entry.get("targets", "all")
        if targets == "all":
            targets = student_set
        else:
            targets = frozenset(targets)
        if bid in school_set:
            report.add(
                f"bundle {bid}: id collides with a school id "
                "(one-school bundles are implicit; do not list them)"
            )
        if len(bschools) == 1:
            report.add(
                f"bundle {bid}: one-school bundles are implicit; do not list them"
            )
        if not bschools:
            report.add(f"bundle {bid}: empty school set")
        if not bschools <= school_set:
            report.add(f"bundle {bid}: unknown schools {sorted(bschools - school_set)}")
        if not targets:
            report.add(f"bundle {bid}: empty target set")
        if not targets <= student_set:
            report.add(f"bundle {bid}: unknown students {sorted(targets - student_set)}")
        bundles.append(Bundle(bid, bschools, targets))

    bundle_ids = [b.id for b in bundles]
    if len(bundle_ids) != len(set(bundle_ids)):
        report.add("duplicate bundle ids")
    by_schools = {}
    for b in bundles:
        other = by_schools.get(b.schools)
        if other is not None:
            report.add(
                f"bundles {other.id} and {b.id} share the school set "
                f"{sorted(b.schools)}; merge them into one"
            )
        by_schools[b.schools] = b

    for a in bundles:
        for b in bundles:
            if a.id >= b.id or a.schools.isdisjoint(b.schools):
                continue
            if not (a.schools < b.schools or b.schools < a.schools):
                report.add(
                    f"bundles {a.id} and {b.id} overlap without nesting "
                    f"(shared schools {sorted(a.schools & b.schools)})"
                )
        # monotonicity: growing the school set may only shrink the audience
        for b in bundles:
            if a.schools < b.schools and not a.targets >= b.targets:
                report.add(
                    f"bundle {b.id} targets students outside the smaller "
                    f"bundle {a.id}'s target set: "
                    f"{sorted(b.targets - a.targets)}"
                )

    # Built before the last checks so they can read its rank maps; it is
    # returned only if every check passes.
    rol_length = raw.get("rol_length", 1)
    rank_maps = {s.id: {i: r for r, i in enumerate(s.priority)} for s in schools}
    instance = Instance(students, schools, bundles, rol_length, rank_maps)
    for b in bundles:
        if len(b.schools) < 2 or not b.schools <= school_set:
            continue
        if any(not b.targets <= rank_maps[s].keys() for s in b.schools):
            continue  # unreadable priorities were already reported above
        base, *others = sorted(b.schools)
        targeted = sorted(b.targets, key=rank_maps[base].__getitem__)
        for other in others:
            ranks = rank_maps[other]
            for pair in zip(targeted, targeted[1:]):
                if ranks[pair[0]] > ranks[pair[1]]:
                    i, j = sorted(pair)
                    report.add(
                        f"bundle {b.id}: schools {base} and {other} rank "
                        f"targeted students {i} and {j} differently"
                    )
                    break

    if rol_length < 1:
        report.add("rol_length must be a positive integer")
    elif schools and rol_length >= len(schools):
        report.add(
            f"rol_length {rol_length} must be smaller than the number of "
            f"schools ({len(schools)})"
        )

    return instance if report.ok else report
