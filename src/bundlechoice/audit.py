"""Stability checkers, size-maximality oracles, and property harnesses.

Bundle-matching stability is checked clause by clause: individual
rationality, non-wastefulness (a desired bundle is exempt when some bundle
containing its schools is full), and justified envy in its three shapes —
same bundle, strictly smaller bundle, strictly larger bundle with every
intermediate bundle under quota.  Envy needs the claimant to outrank the
holder at every school of the compared set (the desired bundle's, or the
smaller held one's), read off the raw per-school orders.  Only a desired
bundle's rivals can witness envy of it: the holders of the bundle itself, of
a bundle inside it and of a bundle containing it, its branch of the bundle
tree.  They are kept as one bar per compared school set: the worst rank one
school of the set gives any rival compared there.  A claimant ranked at or
below every bar outranks no rival at that school, so envies none; the rivals
are listed and compared one by one only when she beats a bar.  The bar is a
necessary condition at one school, so it is sound whatever the ROLs list and
whether or not a bundle's schools rank alike: validation makes it tight, not
correct.  Violations list every IR failure, then every waste, then every
envy, each by student and ROL slot, and an envious student's witnesses in
student order.

Seat-level (standard) stability is checked against the preferences a ROL
induces over individual schools: schools sharing a first-listed bundle form
one indifference class, and unlisted schools are unacceptable.  A student's
better schools are read straight off her ROL, and each full school's bar is
the rank it gives its worst occupant; its occupants are compared one by one
only with a student who outranks that one.

The oracles answer size-maximality questions by exhaustive backtracking over
individually rational assignments, with an explicit refusal above a
candidate-count bound — never a silent approximation.  A size-maximality
witness must place a student the matching leaves out, so the search stops
below any node past the last such student where none of them is placed.
Every search frees its state by reference counting when it returns: its
recursion is a module-level function, not a closure that refers to itself.

The reporting-property checks compare a student's seat under a changed ROL
with her seat under the submitted ROLs.  Callers check one market student by
student, so that truthful outcome is memoised for the last market seen: the
instance by identity, the ROLs by value.
"""

from functools import lru_cache
from itertools import permutations

from .engines import run_bundle_da
from .model import UNMATCHED, _read_rols


class OracleBoundExceeded(Exception):
    """Raised when an exhaustive search would exceed its candidate bound."""


DEFAULT_ORACLE_BOUND = 10**7


class StabilityVerdict:
    """Outcome of a stability check: `stable` iff `violations` is empty.

    Violations are tuples: ("ir", i), ("waste", i, bundle),
    ("envy", i, j, bundle, case) with case in {1, 2, 3} for bundle
    matchings, and ("envy", i, j, school) for standard matchings.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        self.stable = not self.violations

    def __bool__(self):
        return self.stable

    def __repr__(self):
        word = "stable" if self.stable else "unstable"
        return f"StabilityVerdict({word}, {len(self.violations)} violations)"


def _rol_rank(rol, bundle_id):
    """Position of a bundle in a ROL; unmatched sits below everything."""
    if bundle_id is not UNMATCHED and bundle_id in rol:
        return rol.index(bundle_id)
    return len(rol)


def _prefers_on_all(instance, schools, i, j):
    """True iff i outranks j at every one of the given schools."""
    return all(instance.prefers(s, i, j) for s in schools)


def _rivals(instance, holders, full, desired):
    """(j, case, schools) for every holder who could witness envy of `desired`.

    Only holders of the bundle itself (case 1), of a bundle inside it
    (case 2) or of a bundle containing it (case 3) can; a case-3 holder is
    dropped when `desired` or a bundle between the two is full, so the
    chain is walked up to its first full bundle.  `schools` are the
    schools at which the envious student must outrank j.  Sorted by student.
    """
    tree = instance.tree
    want = instance.bundles[desired].schools
    rivals = [(j, 1, want) for j in holders.get(desired, ())]
    for held in tree.descendants[desired]:
        if held != desired:
            have = instance.bundles[held].schools
            rivals += [(j, 2, have) for j in holders.get(held, ())]
    for held in tree.chain[desired]:
        if held != desired:
            rivals += [(j, 3, want) for j in holders.get(held, ())]
        if held in full:
            break
    rivals.sort(key=lambda rival: instance.student_key(rival[0]))
    return rivals


def _bars(instance, holders, full, desired, lead, worsts):
    """(ranks, bar) pairs, one per compared school, for `desired`'s rivals.

    The rivals `_rivals` finds fall into groups by the school set they are
    compared on: the desired bundle's for cases 1 and 3, each held bundle's
    for case 2.  Each group is read at one school s of its set, the `lead`
    of the bundle whose set it is, and its bar is the worst rank s gives a
    member; groups read at the same school share the larger bar.  Envy of a
    member needs the claimant to outrank it at s, so a claimant ranked at or
    below every bar envies no rival.  That holds at any school of the set,
    whatever the ROLs list and whether or not the bundle's schools rank
    alike.  `worsts` memoises, per (held bundle, school), the rank the school
    gives the bundle's worst holder.
    """
    tree = instance.tree
    bar = {}

    def lift(s, held):
        if (held, s) not in worsts:
            worsts[held, s] = max(map(instance.ranks(s).get, holders[held]))
        bar[s] = max(bar.get(s, -1), worsts[held, s])

    s = lead[desired]
    for held in tree.chain[desired]:
        if held in holders:
            lift(s, held)
        if held in full:
            break
    for held in tree.descendants[desired]:
        if held != desired and held in holders:
            lift(lead[held], held)
    return [(instance.ranks(s), rank) for s, rank in bar.items()]


def check_bundle_stability(nu, rols):
    """Check IR, non-wastefulness, and three-case justified envy.

    Violations come as every ("ir", i), then every ("waste", i, d), then
    every ("envy", i, j, d, case), each group by student and then by ROL
    slot, and envy witnesses j in student order.  A desired bundle d is
    compared only with its rivals: the holders of d, of the bundles inside
    it and of the bundles containing it, found through an index of holders
    by bundle built once per call; nobody else can witness envy of d.  A
    claim on d is ruled out by one rank comparison per bar of `_bars`, and
    d's rivals are listed and compared one by one only when a bar is beaten.
    """
    instance = nu.instance
    rol = _read_rols(instance, rols)
    seat = nu.as_dict()
    violations = []

    for i in instance.students:
        if seat[i] is not UNMATCHED and seat[i] not in rol[i]:
            violations.append(("ir", i))

    chains = instance.tree.chain
    full = {
        bid
        for bid in instance.bundle_order
        if nu.occupancy(bid) == instance.bundle_quota(bid)
    }
    desires = []
    for i in instance.students:
        current = _rol_rank(rol[i], seat[i])
        for desired in rol[i][:current]:
            desires.append((i, desired))
            if not any(sup in full for sup in chains[desired]):
                violations.append(("waste", i, desired))
    if not desires:
        return StabilityVerdict(violations)

    holders = {}
    for j, held in seat.items():
        if held is not UNMATCHED:
            holders.setdefault(held, []).append(j)
    position = {s: k for k, s in enumerate(instance.school_order)}
    lead = {  # each bundle's first school in canonical order
        bid: min(bundle.schools, key=position.get)
        for bid, bundle in instance.bundles.items()
    }
    bars, rivals, worsts = {}, {}, {}
    for i, desired in desires:
        if desired not in bars:
            bars[desired] = _bars(instance, holders, full, desired, lead, worsts)
        if not any(ranks[i] < bar for ranks, bar in bars[desired]):
            continue
        if desired not in rivals:
            rivals[desired] = _rivals(instance, holders, full, desired)
        for j, case, schools in rivals[desired]:
            if j != i and _prefers_on_all(instance, schools, i, j):
                violations.append(("envy", i, j, desired, case))
    return StabilityVerdict(violations)


def check_standard_stability(mu, rols):
    """Classic stability under the school preferences a ROL induces.

    A student's better schools are those of her entries before the first
    that holds her seat, or every listed school when none does; a seat no
    entry holds fails individual rationality.  Violations come as every
    ("ir", i), then per student, over her better schools in canonical order,
    ("waste", i, s) or ("envy", i, j, s) with witnesses j in student order.
    A full school's occupants are walked only when the student outranks the
    worst of them.
    """
    instance = mu.instance
    rol = _read_rols(instance, rols)
    bundles = instance.bundles
    seat = mu.as_dict()
    violations, claims = [], []
    for i in instance.students:
        better = set()
        for bid in rol[i]:
            schools = bundles[bid].schools
            if seat[i] in schools:
                break
            better |= schools
        else:
            if seat[i] is not UNMATCHED:
                violations.append(("ir", i))
        if better:
            claims.append((i, better))
    if not claims:
        return StabilityVerdict(violations)

    bars = {}  # school -> (its ranks, its worst occupant's rank); None if not full
    for s in instance.school_order:
        occupants = mu.students_at(s)
        ranks = instance.ranks(s)
        bars[s] = ((ranks, max(map(ranks.get, occupants)))
                   if len(occupants) == instance.schools[s].quota else None)
    position = {s: k for k, s in enumerate(instance.school_order)}
    for i, better in claims:
        for s in sorted(better, key=position.get):
            if bars[s] is None:
                violations.append(("waste", i, s))
                continue
            ranks, worst = bars[s]
            if ranks[i] < worst:
                violations += [("envy", i, j, s) for j in mu.students_at(s)
                               if instance.prefers(s, i, j)]
    return StabilityVerdict(violations)


def _search_assignments(instance, options, accept=None, needed=None):
    """Backtrack over per-student bundle options with quota pruning.

    `options` maps each student to the bundle ids (or UNMATCHED) to try, in
    scan order; the first complete assignment that satisfies `accept` (when
    given) and places a student of `needed` (when given) is returned, so the
    witness is deterministic.  Past the last student of `needed` with none of
    them placed, no leaf below can qualify and the search does not descend.
    The caller checks the option product against its bound first.
    """
    students = list(instance.students)
    chains = instance.tree.chain
    levels = [
        (i, needed is not None and i in needed,
         [(bid, () if bid is UNMATCHED else chains[bid]) for bid in options[i]])
        for i in students
    ]
    last = max((k for k, (_, counts, _) in enumerate(levels) if counts),
               default=-1)
    remaining = dict(instance.tree.quota)
    return _descend(levels, 0, last, needed is None, remaining, {}, accept)


def _descend(levels, idx, last, placed, remaining, assignment, accept):
    """The first qualifying completion of `assignment` from level idx on.

    A module-level function, not a closure over the search, so that nothing
    refers to itself and every call's state is freed when it returns.
    `placed` is whether a needed student holds a bundle already.
    """
    if idx > last and not placed:
        return None
    if idx == len(levels):
        if accept is None or accept(assignment):
            return dict(assignment)
        return None
    i, counts, choices = levels[idx]
    for choice, sups in choices:
        if any(remaining[sup] == 0 for sup in sups):
            continue
        for sup in sups:
            remaining[sup] -= 1
        assignment[i] = choice
        found = _descend(levels, idx + 1, last,
                         placed or (counts and choice is not UNMATCHED),
                         remaining, assignment, accept)
        del assignment[i]
        for sup in sups:
            remaining[sup] += 1
        if found is not None:
            return found
    return None


def _check_bound(options, bound):
    total = 1
    for choices in options.values():
        total *= max(len(choices), 1)
        if total > bound:
            raise OracleBoundExceeded(
                f"{total}+ candidate assignments exceed the bound of {bound}"
            )


def _larger_assignment(nu, rols, bound, options_if_matched):
    """(True, None), or (False, the first IR assignment in canonical scan
    order that matches a student nu leaves out).  Every student nu matches
    keeps one of `options_if_matched(rol, bundle)`; the others may stay out.
    """
    instance = nu.instance
    rol = _read_rols(instance, rols)
    matched = {i for i in instance.students if nu[i] in rol[i]}
    options = {
        i: options_if_matched(rol[i], nu[i]) if i in matched
        else [UNMATCHED, *rol[i]]
        for i in instance.students
    }
    _check_bound(options, bound)
    unmatched = set(instance.students) - matched
    witness = _search_assignments(instance, options, needed=unmatched)
    return (witness is None), witness


def oracle_size_maximal(nu, rols, bound=DEFAULT_ORACLE_BOUND):
    """Is no IR assignment matching a strict superset of students?

    Returns (True, None) when nu is size-maximal, else (False, witness)
    where the witness is the first strictly-larger IR assignment found in
    canonical scan order.
    """
    return _larger_assignment(nu, rols, bound, lambda rol, held: list(rol))


def oracle_pareto_undominated_size_maximal(nu, rols, bound=DEFAULT_ORACLE_BOUND):
    """Is no IR assignment both strictly larger and weakly better for all?

    A dominating assignment must match every currently matched student to
    her old bundle or one she ranks higher, and match at least one
    additional student.  Returns (True, None) or (False, witness).
    """
    return _larger_assignment(
        nu, rols, bound, lambda rol, held: list(rol[: rol.index(held) + 1])
    )


def find_stable_pareto_improvement(nu, rols, bound=DEFAULT_ORACLE_BOUND):
    """Search for a stable assignment that Pareto-improves on nu.

    Every student must end weakly better by her own ROL (unmatched counts
    as worst) and at least one strictly better; the result must itself pass
    check_bundle_stability.  Returns the first such assignment in scan
    order, or None.  Exhaustive search; refuses above the candidate bound.
    """
    instance = nu.instance
    rol = _read_rols(instance, rols)
    options = {}
    for i in instance.students:
        current = _rol_rank(rol[i], nu[i])
        weakly_better = list(rol[i][:current])
        if nu[i] is not UNMATCHED and nu[i] in rol[i]:
            weakly_better.append(nu[i])
        else:
            weakly_better.append(UNMATCHED)
        options[i] = weakly_better
    _check_bound(options, bound)

    def accept(assignment):
        if all(assignment[i] == nu[i] for i in instance.students):
            return False
        candidate = type(nu)(instance, assignment)
        return check_bundle_stability(candidate, rols).stable

    found = _search_assignments(instance, options, accept)
    if found is None:
        return None
    return type(nu)(instance, found)


def _listed(instance, rols, student):
    """The student's ROL as a tuple, once the student is known to exist."""
    if student not in instance.students:
        raise ValueError(f"unknown student {student}")
    return tuple(rols.get(student, ()))


@lru_cache(maxsize=1)
def _truthful_matching(instance, rol_key):
    """The engine's matching under one market's submitted ROLs.

    One slot, since callers check a market student by student before moving
    on.  The instance is keyed by identity (it defines no equality) and held
    by the memo, so its id cannot be reused; the ROLs are keyed by value, so
    a ROL dict mutated between calls never reads a stale entry.  The matching
    stays private: callers read one student's seat from it.
    """
    nu, _ = run_bundle_da(instance, dict(zip(instance.students, rol_key)))
    return nu


def _truthful_seat(instance, rols, student):
    """The student's bundle under the submitted ROLs, through the memo."""
    rol_key = tuple(tuple(rols.get(i, ())) for i in instance.students)
    return _truthful_matching(instance, rol_key)[student]


def property_truthtelling(instance, rols, student):
    """Can reordering a fixed bundle set ever beat the submitted order?

    Judges every other order of the student's ROL by the *submitted* order:
    the check fails when some reordering wins her a bundle she ranks above
    the one she gets by reporting truthfully.  A student who already gets
    her first entry cannot do better, so no reordering is tried; otherwise
    the engine runs once per reordering.  The truthful outcome comes from a
    one-market memo shared with `property_supbundle_monotone`.  Returns None
    on pass, or a violation tuple ("truthtelling", student, reordering, new
    assignment).
    """
    rol = _listed(instance, rols, student)
    base_rank = _rol_rank(rol, _truthful_seat(instance, rols, student))
    if base_rank == 0:
        return None
    for reordered in permutations(rol):
        if reordered == rol:
            continue
        trial = dict(rols)
        trial[student] = list(reordered)
        outcome, _ = run_bundle_da(instance, trial)
        if _rol_rank(rol, outcome[student]) < base_rank:
            return ("truthtelling", student, reordered, outcome[student])
    return None


def property_supbundle_monotone(instance, rols, student, b, b_sup):
    """Does replacing a listed bundle with an unlisted sup-bundle behave?

    Expected movement: an assignment above b is untouched; an assignment
    at b moves to b_sup; an assignment below b (or none) moves to b_sup or
    stays.  The sup-bundle must be one the student may list.  Returns None
    on pass, or ("supbundle", student, clause, old assignment, new
    assignment).
    """
    rol = _listed(instance, rols, student)
    for bid in (b, b_sup):
        if bid not in instance.bundles:
            raise ValueError(f"unknown bundle {bid}")
    if b not in rol:
        raise ValueError(f"bundle {b} is not in the student's ROL")
    if b_sup in rol:
        raise ValueError(f"sup-bundle {b_sup} is already listed")
    if student not in instance.bundles[b_sup].targets:
        raise ValueError(f"student {student}: not eligible to list bundle {b_sup}")
    if not instance.bundles[b].schools < instance.bundles[b_sup].schools:
        raise ValueError(f"{b_sup} does not strictly contain {b}")

    trial = dict(rols)
    trial[student] = [b_sup if bid == b else bid for bid in rol]
    outcome, _ = run_bundle_da(instance, trial)

    old, new = _truthful_seat(instance, rols, student), outcome[student]
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
    if old is not UNMATCHED and new is UNMATCHED:
        return ("supbundle", student, "matched-stays-matched", old, new)
    return None


def audit_rol_dominance(rol, instance, indifference_classes=None):
    """Flag dominated ROL patterns.

    Warns when a bundle appears below a bundle containing all its schools
    (the lower entry can never be reached with a seat to give), and, given
    the student's declared indifference classes, when a listed bundle sits
    strictly inside a class whose exact bundle exists.  Slots are reported
    1-indexed.
    """
    rol = list(rol)
    chains = instance.tree.chain
    warnings = []
    for later, bid in enumerate(rol):
        chain = chains[bid]
        upper = next((sup for sup in rol[:later] if sup != bid and sup in chain),
                     None)
        if upper is not None:
            warnings.append(("dominated", later + 1, bid, upper))
    for classes in indifference_classes or ():
        classes = frozenset(classes)
        whole = instance.bundle_for_schools(classes)
        if whole is None:
            continue
        for slot, bid in enumerate(rol):
            if instance.bundles[bid].schools < classes:
                warnings.append(("indifferent-sub-report", slot + 1, bid, whole.id))
    return warnings
