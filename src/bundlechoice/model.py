"""Domain model for school choice with bundled applications.

A *bundle* groups several schools into a single rank-order-list option: a
student who lists a bundle asks for a seat at any school inside it.  A bundle
system must satisfy three structural conditions:

1. hierarchy -- any two overlapping bundles are nested;
2. monotonicity in target -- a bigger bundle is open to weakly fewer students;
3. every individual school stays available as a one-school (trivial) bundle.

Additionally every bundle must be *priority-uniform*: all schools in the
bundle rank the bundle's eligible students in the same relative order.
Validation checks this in one pass per bundle, which names the first
reversed pair of each school that disagrees with the bundle's first.

Identifiers are strings throughout; canonical order is file order.  Trivial
bundles are synthesized automatically (one per school, id = school id,
targeting everyone) and must not be spelled out in the input.

A laminar bundle system is a forest under containment.  `BundleTree`, built
once per market from the bundles containing each school, holds every
bundle's chain (it and the bundles containing it), descendants, root and
nested quota (its schools' total quota).  It only describes containment:
the engines' `_Seats` counts seats along its chains, for the engines and
the experiment games alike.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise


UNMATCHED = None


@dataclass(frozen=True)
class School:
    id: str
    quota: int
    priority: tuple  # strict order over all student ids, best first


@dataclass(frozen=True)
class Bundle:
    id: str
    schools: frozenset  # school ids
    targets: frozenset  # student ids eligible to list this bundle

    @property
    def trivial(self):
        return len(self.schools) == 1


@dataclass
class ValidationReport:
    """Outcome of structural validation; `ok` iff no problems were found."""

    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    def add(self, message):
        self.problems.append(message)

    def __str__(self):
        return "\n".join(self.problems) if self.problems else "ok"


class BundleTree:
    """The containment forest of a laminar bundle system.

    `quotas` maps school ids to seat counts; `school_sets` maps bundle ids,
    in canonical order, to their school sets, one-school bundles included.
    `chain` lists a bundle and the bundles containing it, smallest first;
    `descendants` (the bundles inside one, itself included) and `roots` are
    in canonical order; `root` maps each bundle to its maximal container.
    """

    def __init__(self, quotas, school_sets):
        self.quota = {
            b: sum(quotas[s] for s in schools) for b, schools in school_sets.items()
        }
        # The bundles containing one school nest, so a bundle's chain is the
        # end of any of its schools' lists, from the bundle on.
        containing = _school_chains(school_sets)
        self.chain = {}
        down = {b: [] for b in school_sets}
        for b, schools in school_sets.items():
            around = containing[next(iter(schools))]
            self.chain[b] = chain = tuple(around[around.index(b):])
            for a in chain:
                down[a].append(b)
        self.descendants = {b: tuple(below) for b, below in down.items()}
        self.roots = tuple(b for b, chain in self.chain.items() if len(chain) == 1)
        self.root = {d: r for r in self.roots for d in down[r]}


class Instance:
    """A fully validated market: students, schools, bundle system, ROL cap.

    Construction is reserved for `validate_instance`; everything here is
    immutable after that and safe to share.
    """

    def __init__(self, students, schools, bundles, rol_length, ranks):
        self.students = tuple(students)
        self.schools = {s.id: s for s in schools}
        self.school_order = tuple(s.id for s in schools)
        self.bundles = {b.id: b for b in bundles}
        self.bundle_order = tuple(b.id for b in bundles)
        self.rol_length = rol_length
        self._ranks = ranks  # {school id: {student: priority position}}
        self._by_schools = {b.schools: b for b in bundles}
        self._student_index = {i: k for k, i in enumerate(self.students)}

    @cached_property
    def tree(self):
        """The bundle tree, built on first use."""
        return BundleTree(
            {s: self.schools[s].quota for s in self.school_order},
            {b: self.bundles[b].schools for b in self.bundle_order},
        )

    @cached_property
    def simplicity(self):
        """The bundle system's `SimplicityInfo`, computed on first use."""
        return _find_simplicity(self)

    def rank(self, school_id, student):
        """Priority position of a student at a school (0 = best)."""
        return self._ranks[school_id][student]

    def ranks(self, school_id):
        """Every student's priority position at a school; read-only."""
        return self._ranks[school_id]

    def prefers(self, school_id, i, j):
        """True if school ranks student i strictly above student j."""
        ranks = self._ranks[school_id]
        return ranks[i] < ranks[j]

    def bundle_quota(self, bundle_id):
        return self.tree.quota[bundle_id]

    def bundle_for_schools(self, school_set):
        return self._by_schools.get(frozenset(school_set))

    def menu(self, student):
        """Bundle ids the student is eligible to list, in canonical order."""
        return [
            b for b in self.bundle_order if student in self.bundles[b].targets
        ]

    def student_key(self, student):
        return self._student_index[student]


def _is_ids(value):
    return isinstance(value, list) and set(map(type, value)) <= {str}


# The fields of each listed entry (all required but `targets`): the test a
# value must pass and what the message says it must be.
_ENTRY_FIELDS = {
    "schools": {
        "id": (lambda v: isinstance(v, str), "a string"),
        "quota": (lambda v: type(v) is int, "a positive integer"),
        "priority": (_is_ids, "a list of student ids"),
    },
    "bundles": {
        "id": (lambda v: isinstance(v, str), "a string"),
        "schools": (_is_ids, "a list of school ids"),
        "targets": (lambda v: v == "all" or _is_ids(v), '"all" or a list of ids'),
    },
}


def _label(kind, entry, index):
    return f"{kind} {entry['id'] if isinstance(entry.get('id'), str) else index}"


def _check_shape(raw):
    """Report missing and ill-typed fields before any structural rule runs."""
    report = ValidationReport()
    if not _is_ids(raw.get("students", [])):
        report.add("students must be a list of student ids")
    if type(raw.get("rol_length", 1)) is not int:
        report.add("rol_length must be a positive integer")
    for key, fields in _ENTRY_FIELDS.items():
        kind = key[:-1]
        entries = raw.get(key, [])
        if not isinstance(entries, list):
            report.add(f"{key} must be a list of objects")
            continue
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                report.add(f"{kind} {k}: expected an object")
                continue
            for name, (valid, expected) in fields.items():
                if name in entry:
                    if not valid(entry[name]):
                        label = _label(kind, entry, k)
                        report.add(f"{label}: {name} must be {expected}")
                elif name != "targets":
                    report.add(f'{_label(kind, entry, k)}: missing field "{name}"')
    return report


def validate_instance(raw):
    """Check a parsed instance description against all structural rules.

    `raw` is a mapping with keys `students`, `schools`, `bundles`,
    `rol_length` (see the README for the document schema).  Returns a
    validated `Instance` on success and a `ValidationReport` listing every
    violated condition otherwise.  The input is never mutated.  A valid
    document passes in linear passes.  The pairwise nesting scan that names
    each violation runs only when a pass fails or a problem was already
    reported; the uniformity pass walks a school's adjacent pairs only for a
    school that fails it.
    """
    report = _check_shape(raw)
    if not report.ok:
        return report

    students = list(raw.get("students", []))
    student_set = frozenset(students)
    if not students:
        report.add("instance lists no students")
    distinct = len(students) == len(student_set)
    if not distinct:
        report.add("duplicate student ids")

    schools, rank_maps = [], {}
    read = {}  # priority -> (the first equal tuple, its rank map, a permutation?)
    for entry in raw.get("schools", []):
        sid = entry["id"]
        quota = entry["quota"]
        priority = tuple(entry["priority"])
        if priority not in read:
            rank = dict(zip(priority, range(len(priority))))
            if distinct:
                permutation = rank.keys() == student_set and len(priority) == len(rank)
            else:
                permutation = sorted(priority) == sorted(students)
            read[priority] = priority, rank, permutation
        # Schools with one priority share one tuple and one rank map.
        priority, rank_maps[sid], permutation = read[priority]
        if quota < 1:
            report.add(f"school {sid}: quota must be at least 1")
        if not permutation:
            report.add(
                f"school {sid}: priority order is not a permutation of the students"
            )
        schools.append(School(sid, quota, priority))
    school_ids = [s.id for s in schools]
    if not schools:
        report.add("instance lists no schools")
    if len(school_ids) != len(set(school_ids)):
        report.add("duplicate school ids")

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

    # The chains see every pair of overlapping bundles only when ids are
    # distinct and school sets distinct, known and non-empty.
    if not report.ok or not _chains_nest(bundles):
        _scan_nesting(report, bundles)

    # Unless a problem was reported, every priority is a permutation and
    # every bundle's targets are known students, so each rank map reads them.
    suspect = not report.ok
    for b in bundles:
        if len(b.schools) < 2 or not b.schools <= school_set:
            continue
        if suspect and any(not b.targets <= rank_maps[s].keys() for s in b.schools):
            continue  # unreadable priorities were already reported above
        _check_uniformity(report, b, rank_maps)

    rol_length = raw.get("rol_length", 1)
    if rol_length < 1:
        report.add("rol_length must be a positive integer")
    elif schools and rol_length >= len(schools):
        report.add(
            f"rol_length {rol_length} must be smaller than the number of "
            f"schools ({len(schools)})"
        )

    if not report.ok:
        return report
    return Instance(students, schools, bundles, rol_length, rank_maps)


def _school_chains(school_sets):
    """The ids of the bundles containing each school, smallest first and
    in the given order among equals."""
    containing = {}
    for b, schools in school_sets.items():
        for s in schools:
            containing.setdefault(s, []).append(b)
    for chain in containing.values():
        chain.sort(key=lambda b: len(school_sets[b]))
    return containing


def _chains_nest(bundles):
    """True if the bundles containing each school, smallest first, nest
    strictly and narrow their targets.  Containment and target inclusion are
    transitive, so adjacent pairs decide every pair."""
    by_id = {b.id: b for b in bundles}
    containing = _school_chains({b.id: b.schools for b in bundles})
    return all(
        small.schools < big.schools
        and (small.targets is big.targets or small.targets >= big.targets)
        for chain in containing.values()
        for small, big in pairwise(map(by_id.get, chain))
    )


def _scan_nesting(report, bundles):
    """Report every overlapping pair that does not nest, and every bundle
    that targets students outside a smaller bundle's targets."""
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


def _check_uniformity(report, bundle, rank_maps):
    """Name, for each school of the bundle that orders its targets unlike
    the first school (in id order), the first adjacent pair of the first
    school's order that it reverses.  A school sharing the first school's
    rank map agrees outright; any other agrees iff it ranks the first
    school's order of the targets increasingly, and is walked pair by pair
    only when it does not."""
    base, *others = sorted(bundle.schools)
    first = rank_maps[base]
    others = [(s, rank_maps[s]) for s in others if rank_maps[s] is not first]
    targeted = sorted(bundle.targets, key=first.__getitem__) if others else ()
    for other, ranks in others:
        projected = list(map(ranks.__getitem__, targeted))
        if projected == sorted(projected):
            continue
        k = next(k for k, pair in enumerate(pairwise(projected)) if pair[0] > pair[1])
        i, j = sorted(targeted[k:k + 2])
        report.add(
            f"bundle {bundle.id}: schools {base} and {other} rank "
            f"targeted students {i} and {j} differently"
        )


def validate_rols(instance, rols):
    """Check a {student: [bundle ids]} mapping against the instance.

    Returns a ValidationReport; every student must appear (possibly with an
    empty list), entries must be distinct bundles the student may list, and
    lists must respect the length cap.
    """
    report = ValidationReport()
    for i in rols:
        if i not in instance._student_index:
            report.add(f"unknown student {i} in ROL file")
    for i in instance.students:
        entries = rols.get(i, [])
        if not _is_ids(entries):
            report.add(f"student {i}: ROL must be a list of bundle ids")
            continue
        if len(entries) > instance.rol_length:
            report.add(
                f"student {i}: {len(entries)} entries exceed the cap of "
                f"{instance.rol_length}"
            )
        if len(entries) != len(set(entries)):
            report.add(f"student {i}: repeated bundle in ROL")
        for b in entries:
            if b not in instance.bundles:
                report.add(f"student {i}: unknown bundle {b}")
            elif i not in instance.bundles[b].targets:
                report.add(f"student {i}: not eligible to list bundle {b}")
    return report


def _read_rols(instance, rols):
    """Every student's ROL as a tuple, in canonical student order.

    Raises ValueError on the first entry naming a bundle the instance lacks;
    entries a student is not eligible for pass, as library callers may run
    and audit unvalidated lists.
    """
    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    bundles = instance.bundles
    if not bundles.keys() >= set().union(*rol.values()):
        i, bid = next((i, bid) for i, entries in rol.items()
                      for bid in entries if bid not in bundles)
        raise ValueError(f"student {i}: unknown bundle {bid}")
    return rol


@dataclass(frozen=True)
class SimplicityInfo:
    simple: bool
    reason: str = ""


def detect_simplicity(instance):
    """Decide whether every bundle's schools share one full priority order.

    When they do, each root of the bundle tree (`instance.tree.roots`) and
    every bundle inside it is governed by its schools' single order over
    students.  Returns a SimplicityInfo either way, the same one on every
    call for the same instance (`Instance.simplicity`); `reason` names the
    first bundle whose schools disagree.
    """
    return instance.simplicity


def _find_simplicity(instance):
    for bid in instance.bundle_order:
        bundle = instance.bundles[bid]
        if bundle.trivial:
            continue
        first, *others = (instance.schools[s].priority for s in bundle.schools)
        if not all(p is first or p == first for p in others):
            return SimplicityInfo(
                False, reason=f"schools in bundle {bid} use different priority orders"
            )
    return SimplicityInfo(True)


class _Matching:
    """What both matchings share: the instance, and each of its students'
    assignment (None when unmatched), refusing students it does not have."""

    def __init__(self, instance, assignment):
        if not instance._student_index.keys() >= assignment.keys():
            i = next(i for i in assignment if i not in instance._student_index)
            raise ValueError(f"unknown student {i} in matching")
        self.instance = instance
        self.assignment = {i: assignment.get(i) for i in instance.students}

    def __getitem__(self, student):
        return self.assignment[student]

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.assignment == other.assignment

    def as_dict(self):
        return dict(self.assignment)


class BundleMatching(_Matching):
    """Assignment of students to bundles (or unmatched) with seat accounting.

    The occupancy of a bundle counts every student sitting in it or in any
    nested sub-bundle; construction rejects assignments that overfill any
    bundle or hand a student a bundle she is not eligible for.
    """

    def __init__(self, instance, assignment):
        super().__init__(instance, assignment)
        self._occupancy = dict.fromkeys(instance.bundle_order, 0)
        for i, bid in self.assignment.items():
            if bid is None:
                continue
            if bid not in instance.bundles:
                raise ValueError(f"student {i} assigned to unknown bundle {bid}")
            if i not in instance.bundles[bid].targets:
                raise ValueError(f"student {i} is not eligible for bundle {bid}")
            for a in instance.tree.chain[bid]:
                self._occupancy[a] += 1
        for bid in instance.bundle_order:
            if self._occupancy[bid] > instance.bundle_quota(bid):
                raise ValueError(f"bundle {bid} is over capacity")

    def occupancy(self, bundle_id):
        """Students who must occupy seats inside this bundle's schools."""
        return self._occupancy[bundle_id]


class StandardMatching(_Matching):
    """Assignment of students to individual schools (or unmatched)."""

    def __init__(self, instance, assignment):
        super().__init__(instance, assignment)
        self._occupants = {sid: [] for sid in instance.schools}
        for i, sid in self.assignment.items():
            if sid is None:
                continue
            if sid not in instance.schools:
                raise ValueError(f"student {i} assigned to unknown school {sid}")
            self._occupants[sid].append(i)
        for sid, school in instance.schools.items():
            if self.seated(sid) > school.quota:
                raise ValueError(f"school {sid} is over capacity")

    def seated(self, school_id):
        return len(self._occupants.get(school_id, ()))

    def students_at(self, school_id):
        """Occupants of a school in canonical student order."""
        return list(self._occupants.get(school_id, ()))


def implements(mu, nu):
    """True if seat assignment `mu` realizes bundle assignment `nu`."""
    for i in nu.instance.students:
        bid = nu[i]
        if bid is None:
            if mu[i] is not None:
                return False
        elif mu[i] not in nu.instance.bundles[bid].schools:
            return False
    return True
