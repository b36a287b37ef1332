"""Seeded market generators for the benchmark.

Every generator returns plain JSON-ready documents (an instance document and
a ROL document in the formats the README describes); the program under test
only ever sees them through `bundlechoice.io`.  Nothing here imports the
package.

Shapes:

* `grouped_market(rng, n, m, spanning=False)` -- the district shape.  Schools
  come in groups of four that share one priority order, each group carrying
  a pair bundle and a quad bundle open to every student.  With `spanning`,
  one more bundle covers every school and is open only to a top tier whose
  members every school ranks in the same relative order; the groups'
  orders differ, so the system is not simple.
* `small_simple_market(rng)` -- disjoint branches, each under one order, with
  at most two nested bundles per branch (up to 6 students / 5 schools).
* `small_spanning_market(rng)` -- two or three groups under different orders
  plus a bundle over every school open to a top tier (up to 8 students).
* `reproducer_market()` -- five students, three schools: the smallest known
  market on which the general engine returns an unstable matching.
"""

import numpy as np

# Share of the students in the top tier of a spanning district market.
TIER_SHARE = 0.05


def _ids(prefix, count):
    return [f"{prefix}{k}" for k in range(1, count + 1)]


def _order_with_tier(rng, students, tier):
    """A random priority order in which `tier` keeps its listed order."""
    order = [students[k] for k in rng.permutation(len(students))]
    members = set(tier)
    slots = [pos for pos, i in enumerate(order) if i in members]
    for pos, i in zip(slots, tier):
        order[pos] = i
    return order


def _draw_rols(rng, menus, rol_length, empty_share=0.0):
    """Independent uniform ROLs of up to `rol_length` distinct menu entries."""
    rols = {}
    for i, menu in menus.items():
        if empty_share and rng.random() < empty_share:
            rols[i] = []
            continue
        length = min(int(rng.integers(1, rol_length + 1)), len(menu))
        picks = rng.choice(len(menu), size=length, replace=False)
        rols[i] = [menu[int(k)] for k in picks]
    return rols


def _menus(students, schools, bundles):
    """Every option a student may list: schools first, then bundles."""
    menus = {}
    for i in students:
        menu = [s["id"] for s in schools]
        for b in bundles:
            if b["targets"] == "all" or i in b["targets"]:
                menu.append(b["id"])
        menus[i] = menu
    return menus


def grouped_market(rng, n, m, spanning=False):
    """The district shape: (instance document, ROL document, tie-break).

    Every student ranks three distinct options drawn uniformly from their
    menu.
    """
    if m % 4:
        raise ValueError("the grouped shape needs a multiple of four schools")
    students = _ids("i", n)
    tier = []
    if spanning:
        size = max(2, int(n * TIER_SHARE))
        tier = [students[k] for k in sorted(rng.choice(n, size=size, replace=False))]
        tier = [tier[k] for k in rng.permutation(len(tier))]
    quota = max(1, n // m)
    schools, bundles = [], []
    for g in range(m // 4):
        order = _order_with_tier(rng, students, tier)
        members = [f"s{4 * g + k}" for k in range(1, 5)]
        schools += [{"id": s, "quota": quota, "priority": order} for s in members]
        bundles.append({"id": f"p{g + 1}", "schools": members[:2], "targets": "all"})
        bundles.append({"id": f"q{g + 1}", "schools": members, "targets": "all"})
    if spanning:
        bundles.append({
            "id": "span",
            "schools": [s["id"] for s in schools],
            "targets": sorted(tier),
        })
    instance = {
        "students": students,
        "schools": schools,
        "bundles": bundles,
        "rol_length": 3,
    }
    menus = _menus(students, schools, bundles)
    rols = {i: [menu[int(k)] for k in rng.choice(len(menu), size=3, replace=False)]
            for i, menu in menus.items()}
    tiebreak = [students[k] for k in rng.permutation(n)]
    return instance, {"rols": rols}, tiebreak


def _subset(rng, pool, p=0.75):
    chosen = [x for x in pool if rng.random() < p]
    return sorted(chosen) if chosen else [pool[int(rng.integers(len(pool)))]]


def small_simple_market(rng):
    """A random simple market: (instance document, ROL document, None).

    The shape of `tests/random_markets.random_simple_market`, built as
    documents: that generator validates through the package, and the
    program must meet these inputs only through `io`.
    """
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 6))
    students, school_ids = _ids("i", n), _ids("s", m)
    shuffled = [school_ids[k] for k in rng.permutation(m)]
    branches, at = [], 0
    while at < m:
        take = int(rng.integers(1, m - at + 1))
        branches.append(shuffled[at:at + take])
        at += take
    order_of = {}
    for branch in branches:
        order = [students[k] for k in rng.permutation(n)]
        for s in branch:
            order_of[s] = order
    schools = [{"id": s, "quota": int(rng.integers(1, 3)), "priority": order_of[s]}
               for s in school_ids]
    bundles = []
    for k, branch in enumerate(branches):
        if len(branch) < 2 or rng.random() < 0.25:
            continue
        inner = int(rng.integers(2, len(branch) + 1))
        targets = _subset(rng, students)
        bundles.append({"id": f"b{k}x", "schools": sorted(branch[:inner]),
                        "targets": targets})
        if inner < len(branch) and rng.random() < 0.5:
            bundles.append({"id": f"b{k}y", "schools": sorted(branch),
                            "targets": _subset(rng, targets)})
    rol_length = int(rng.integers(1, min(3, m - 1) + 1))
    instance = {"students": students, "schools": schools, "bundles": bundles,
                "rol_length": rol_length}
    rols = _draw_rols(rng, _menus(students, schools, bundles), rol_length, 0.08)
    return instance, {"rols": rols}, None


def small_spanning_market(rng):
    """A small non-simple market with a spanning top-tier bundle.

    Two or three groups of two or three one-seat schools, each group under
    its own order and carrying a bundle over the group; one more bundle over
    every school is open to a tier of two or three students ranked alike
    everywhere.  Returns (instance document, ROL document, tie-break).
    """
    n = int(rng.integers(5, 9))
    students = _ids("i", n)
    tier = [students[k] for k in rng.choice(n, size=int(rng.integers(2, 4)),
                                           replace=False)]
    schools, bundles, sid = [], [], 0
    for g in range(int(rng.integers(2, 4))):
        order = _order_with_tier(rng, students, tier)
        members = []
        for _ in range(int(rng.integers(2, 4))):
            sid += 1
            members.append(f"s{sid}")
            schools.append({"id": f"s{sid}", "quota": 1, "priority": order})
        bundles.append({"id": f"g{g + 1}", "schools": members, "targets": "all"})
    bundles.append({"id": "span", "schools": [s["id"] for s in schools],
                    "targets": sorted(tier)})
    instance = {"students": students, "schools": schools, "bundles": bundles,
                "rol_length": 2}
    rols = _draw_rols(rng, _menus(students, schools, bundles), 2)
    tiebreak = [students[k] for k in rng.permutation(n)]
    return instance, {"rols": rols}, tiebreak


def reproducer_market():
    """Five students, three one-seat schools, bundle b23 = {s2, s3}.

    The general engine with tie-break i1..i5 seats i1 at s2 and leaves i5
    unmatched although s2 ranks i5 above i1; the simple engine seats i5.
    """
    low = ["i2", "i5", "i4", "i1", "i3"]
    instance = {
        "students": ["i1", "i2", "i3", "i4", "i5"],
        "schools": [
            {"id": "s1", "quota": 1, "priority": ["i4", "i1", "i5", "i3", "i2"]},
            {"id": "s2", "quota": 1, "priority": low},
            {"id": "s3", "quota": 1, "priority": low},
        ],
        "bundles": [{"id": "b23", "schools": ["s2", "s3"], "targets": ["i2", "i3"]}],
        "rol_length": 2,
    }
    rols = {"i1": ["s3", "s2"], "i2": ["b23", "s1"], "i3": ["b23", "s1"],
            "i4": ["s3"], "i5": ["s2"]}
    return instance, {"rols": rols}, ["i1", "i2", "i3", "i4", "i5"]


def rng_for(*key):
    """An independent numpy Generator for a tuple of non-negative ints."""
    return np.random.default_rng(list(key))
