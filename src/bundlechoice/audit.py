"""Stability checkers, size-maximality oracles, and property harnesses.

Bundle-matching stability is checked clause by clause: individual
rationality, non-wastefulness (a desired bundle is exempt when some bundle
containing its schools is full), and justified envy in its three shapes —
same bundle, strictly smaller bundle, strictly larger bundle with every
intermediate bundle under quota.  Envy needs the claimant to outrank the
holder at every school of the compared set (the desired bundle's, or the
smaller held one's), read off the raw per-school orders.  Only the holders
in a desired bundle's branch of the bundle tree (`_branch`) can witness envy
of it, and a claim is ruled out against their bars (`_bars`) before any of
them is compared one by one.  Violations list every IR failure, then every
waste, then every envy, each by student and ROL slot, and an envious
student's witnesses in student order.

Seat-level (standard) stability is checked against the preferences a ROL
induces over individual schools: schools sharing a first-listed bundle form
one indifference class, and unlisted schools are unacceptable.  A student's
better schools are read straight off her ROL, and each full school's bar is
the rank it gives its worst occupant; its occupants are compared one by one
only with a student who outranks that one.

The oracles decide by augmenting path.  Seatings that keep every nested
quota are the flows of a network source -> student -> each bundle she may
take -> up the bundle's chain (each bundle an edge of capacity its quota)
-> sink, so a seating can take one more student, every seated one keeping
one of her options, iff its residual network holds a path from that student
to the sink (Ford-Fulkerson 1956; Edmonds-Fulkerson 1965).  The size
oracles ask this of the students the matching leaves out, the improvement
oracle of each student with an entry above her seat, unseated and held to
those entries.  When no path exists the verdict is reached without a search.  Only a witness is searched
for, by exhaustive backtracking over individually rational assignments, so
that it is the first in canonical scan order; the candidate-count bound
guards that search alone, and a verdict that needs a witness above it is
refused, never approximated.  A size-maximality witness must place a student
the matching leaves out, so the search stops below any node past the last
such student where none of them is placed.  The search is a loop over the
levels of its path, not a recursion, so its depth is not bounded by the
interpreter's recursion limit.

The reporting-property checks compare a student's seat under a changed ROL
with her seat under the submitted ROLs.  Callers check one market student by
student, so the last market seen is prepared once (the instance by identity,
the ROLs by value): its ROL table, its application key, the keys computed so
far and the truthful seats.  The key ignores the reports, so every changed
list is settled on that one preparation through the engines' loop, without
a trace or a matching.  The engine never reads an entry below a student's
final seat, so a change there is not run.
"""

from itertools import permutations

from .engines import _application_key, _settle
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


def _branch(tree, full, desired):
    """(held bundle, case) for every bundle whose holders could witness envy
    of `desired`: the bundle itself (case 1), each bundle containing it up
    the chain (case 3) until a full bundle cuts it, since a case-3 holder is
    dropped when `desired` or a bundle between the two is full, and each
    bundle inside it (case 2)."""
    for held in tree.chain[desired]:
        yield held, 1 if held == desired else 3
        if held in full:
            break
    for held in tree.descendants[desired]:
        if held != desired:
            yield held, 2


def _rivals(instance, holders, full, desired):
    """(j, case, schools) for every holder in `desired`'s branch, sorted by
    student: `schools` are the schools at which the envious student must
    outrank j: the held bundle's for case 2, the desired bundle's otherwise."""
    want = instance.bundles[desired].schools
    rivals = [(j, case, instance.bundles[held].schools if case == 2 else want)
              for held, case in _branch(instance.tree, full, desired)
              for j in holders.get(held, ())]
    rivals.sort(key=lambda rival: instance.student_key(rival[0]))
    return rivals


def _bars(instance, holders, full, desired, lead, worsts):
    """(ranks, bar) pairs, one per compared school, for `desired`'s rivals.

    The rivals fall into groups by the school set they are compared on: the
    desired bundle's for cases 1 and 3, each held bundle's for case 2.  Each
    group is read at one school s of its set, the `lead` of the bundle whose
    set it is, and its bar is the worst rank s gives a member; groups read
    at the same school share the larger bar.  Envy of a member needs the
    claimant to outrank it at s, so a claimant ranked at or below every bar
    envies no rival.  This needs only that the bars and `_rivals` cover the
    same holders, which `_branch` gives both.  It holds at any school of the
    set, whatever the ROLs list and whether or not the bundle's schools rank
    alike, so validation makes a bar tight, not correct.  `worsts` memoises,
    per (held bundle, school), the rank the school gives the bundle's worst
    holder.
    """
    bar = {}
    for held, case in _branch(instance.tree, full, desired):
        if held in holders:
            s = lead[held if case == 2 else desired]
            if (held, s) not in worsts:
                worsts[held, s] = max(map(instance.ranks(s).get, holders[held]))
            bar[s] = max(bar.get(s, -1), worsts[held, s])
    return [(instance.ranks(s), rank) for s, rank in bar.items()]


def check_bundle_stability(nu, rols):
    """Check IR, non-wastefulness, and three-case justified envy.

    Violations come as every ("ir", i), then every ("waste", i, d), then
    every ("envy", i, j, d, case), each group by student and then by ROL
    slot, and envy witnesses j in student order.  The holders are indexed by
    bundle once per call, and a desired bundle's rivals are listed and
    compared one by one only when a claim on it beats one of its bars.
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
    remaining, assignment = dict(instance.tree.quota), {}
    # Per level of the path: its untried choices, the chain its choice took,
    # and whether a needed student was placed above it.
    untried, taken = [None] * len(levels), [()] * len(levels)
    placed = [needed is None] * (len(levels) + 1)
    idx = 0
    while True:
        found, choices = _descend(levels, idx, last, placed[idx], assignment, accept)
        if found is not None:
            return found
        if choices:
            untried[idx], taken[idx] = iter(choices), ()
        else:
            idx -= 1
        while idx >= 0:  # the deepest level's next choice that fits
            for sup in taken[idx]:
                remaining[sup] += 1
            for choice, sups in untried[idx]:
                if all(map(remaining.__getitem__, sups)):
                    break
            else:
                idx -= 1
                continue
            for sup in sups:
                remaining[sup] -= 1
            i, counts, _ = levels[idx]
            assignment[i], taken[idx] = choice, sups
            placed[idx + 1] = placed[idx] or (counts and choice is not UNMATCHED)
            idx += 1
            break
        else:
            return None


def _descend(levels, idx, last, placed, assignment, accept):
    """Visit the node at level idx: (the witness it is, or None; the
    choices to try below it, in scan order).  `placed` is whether a needed
    student holds a bundle already; `assignment` holds the choices above
    the node, and below it only stale ones, which no leaf reads."""
    if idx > last and not placed:
        return None, ()
    if idx == len(levels):
        found = accept is None or accept(assignment)
        return (dict(assignment) if found else None), ()
    return None, levels[idx][2]


def _check_bound(options, bound):
    total = 1
    for choices in options.values():
        total *= max(len(choices), 1)
        if total > bound:
            raise OracleBoundExceeded(
                f"{total}+ candidate assignments exceed the bound of {bound}"
            )


def _move(chains, load, at, student, bundle, step):
    """Seat the student at the bundle (step 1), or take that seat away (step
    -1), in the seat counts `load` of every bundle and the lists `at` of the
    students each bundle holds."""
    for a in chains[bundle]:
        load[a] = load.get(a, 0) + step
    if step > 0:
        at.setdefault(bundle, []).append(student)
    else:
        at[bundle].remove(student)


def _occupancy(tree, seated):
    """(`load`, `at`) of `_move` for the seating `seated`."""
    load, at = {}, {}
    for i, b in seated.items():
        _move(tree.chain, load, at, i, b, 1)
    return load, at


def _augments(tree, load, at, options, tries):
    """True iff one more student can take one of the bundles `tries` while
    every student seated in `at` keeps one of her `options`.

    `load` and `at` describe a seating within every quota (`_occupancy`);
    UNMATCHED among the options is no seat.  In the residual network of the
    module docstring, a path from a bundle climbs its chain to the sink
    unless a bundle on it is full; from the smallest full one it reaches
    every student seated inside it, and through her each of her options.
    So the search visits each full bundle, and each seated student's
    options, at most once.
    """
    chains, quota, inside = tree.chain, tree.quota, tree.descendants
    tries = list(tries)
    reached, emptied = set(), set()
    while tries:
        b = tries.pop()
        if b is UNMATCHED:
            continue
        for full in chains[b]:
            if load.get(full) == quota[full]:
                break
        else:
            return True  # nothing on b's chain is full: the sink is reached
        if full not in reached:
            reached.add(full)
            for d in inside[full]:
                if d in at and d not in emptied:
                    emptied.add(d)
                    for j in at[d]:
                        tries += options[j]
    return False


def _larger_assignment(nu, rols, bound, options_if_matched):
    """(True, None), or (False, the first IR assignment in canonical scan
    order that matches a student nu leaves out).  Every student nu matches
    keeps one of `options_if_matched(rol, bundle)`; the others may stay out.
    The verdict is "holds" without a bound check or a search when no student
    left out has an augmenting path (`_augments`).
    """
    instance = nu.instance
    rol = _read_rols(instance, rols)
    seated = {i: nu[i] for i in instance.students if nu[i] in rol[i]}
    left_out = {i: entries for i, entries in rol.items()
                if entries and i not in seated}
    if not left_out:
        return True, None
    options = {
        i: options_if_matched(entries, seated[i]) if i in seated
        else [UNMATCHED, *entries]
        for i, entries in rol.items()
    }
    load, at = _occupancy(instance.tree, seated)
    if not _augments(instance.tree, load, at, options,
                     [b for entries in left_out.values() for b in entries]):
        return True, None
    _check_bound(options, bound)
    witness = _search_assignments(instance, options,
                                  needed=rol.keys() - seated.keys())
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


def _anyone_moves_up(tree, seated, options, better):
    """True iff some student k can take one of her entries `better[k]`
    while every other seated student keeps one of her `options` (`_augments`
    with k's own seat taken away)."""
    load, at = _occupancy(tree, seated)
    for k, tries in better.items():
        seat = seated.get(k)
        if seat is not None:
            _move(tree.chain, load, at, k, seat, -1)
        found = _augments(tree, load, at, options, tries)
        if seat is not None:
            _move(tree.chain, load, at, k, seat, 1)
        if found:
            return True
    return False


def find_stable_pareto_improvement(nu, rols, bound=DEFAULT_ORACLE_BOUND):
    """Search for a stable assignment that Pareto-improves on nu.

    Every student must end weakly better by her own ROL (unmatched counts
    as worst) and at least one strictly better; the result must itself pass
    check_bundle_stability.  Returns the first such assignment in scan
    order, or None.  When nobody holds a seat her ROL does not list, an
    assignment other than nu moves some student k to an entry she ranks
    above her own, so None is returned without a bound check or a search
    when no such k has an augmenting path (`_anyone_moves_up`, every other
    seated student kept on her weakly better entries).  Otherwise the
    search is exhaustive and refuses above the candidate bound.
    """
    instance = nu.instance
    rol = _read_rols(instance, rols)
    options, better, seated, non_ir = {}, {}, {}, False
    for i in instance.students:
        current = _rol_rank(rol[i], nu[i])
        if current:
            better[i] = rol[i][:current]
        if nu[i] in rol[i]:
            seated[i] = nu[i]
        elif nu[i] is not UNMATCHED:
            non_ir = True
        options[i] = [*rol[i][:current], seated.get(i, UNMATCHED)]
    if not non_ir and not _anyone_moves_up(instance.tree, seated, options,
                                           better):
        return None
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
    if student not in instance._student_index:
        raise ValueError(f"unknown student {student}")
    return tuple(rols.get(student, ()))


# The market the property checks last prepared, as one tuple so that no
# reader mixes two markets: (instance, ROL table, key, keys, truthful seats).
_prepared = (None, None, None, None, None)


def _market(instance, rols):
    """The prepared market of `instance` under `rols`, prepared once.

    One slot, since callers check a market student by student before moving
    on.  The instance is compared by identity and held by the slot, so its id
    cannot be reused; the ROLs by value, as the `_read_rols` table, so a ROL
    dict mutated between calls is prepared again.  The key is the one
    `run_bundle_da(instance, rols)` uses, and it ignores the reports, so
    every trial, the table with one student's list replaced, is settled on
    it and shares the keys it has computed.
    """
    global _prepared
    market = _prepared
    table = {i: tuple(rols.get(i, ())) for i in instance.students}
    if market[0] is not instance or market[1] != table:
        table = _read_rols(instance, rols)
        key, keys = _application_key(instance, instance.students), {}
        market = _prepared = (instance, table, key, keys,
                              _settle(instance, table, key, keys))
    return market


def property_truthtelling(instance, rols, student):
    """Can reordering a fixed bundle set ever beat the submitted order?

    Judges every other order of the student's ROL by the *submitted* order:
    the check fails when some reordering wins her a bundle she ranks above
    the one she gets by reporting truthfully.  A student who already gets
    her first entry cannot do better, so no reordering is tried; otherwise
    each reordering is settled on the market prepared once for all checks
    of these ROLs (`_market`), without a trace.  Returns None on pass, or a
    violation tuple ("truthtelling", student, reordering, new assignment).
    """
    rol = _listed(instance, rols, student)
    _, table, key, keys, truthful = _market(instance, rols)
    base_rank = _rol_rank(rol, truthful.get(student))
    if base_rank == 0:
        return None
    for reordered in permutations(rol):
        if reordered == rol:
            continue
        seat = _settle(instance, {**table, student: reordered}, key, keys).get(student)
        if _rol_rank(rol, seat) < base_rank:
            return ("truthtelling", student, reordered, seat)
    return None


def property_supbundle_monotone(instance, rols, student, b, b_sup):
    """Does replacing a listed bundle with an unlisted sup-bundle behave?

    Expected movement: an assignment above b is untouched; an assignment
    at b moves to b_sup; an assignment below b (or none) moves to b_sup or
    stays.  The first clause holds without a run, since the engine never
    reads an entry below the student's final seat; any other settles the
    swapped list once on the market `property_truthtelling` prepares.  The
    sup-bundle must be one the student may list.  Returns None on pass, or
    ("supbundle", student, clause, old assignment, new assignment).
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

    _, table, key, keys, truthful = _market(instance, rols)
    old = truthful.get(student)
    if _rol_rank(rol, old) < rol.index(b):
        return None
    swapped = tuple(b_sup if bid == b else bid for bid in rol)
    new = _settle(instance, {**table, student: swapped}, key, keys).get(student)
    if old == b:
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
    1-indexed.  An entry naming a bundle the instance lacks is a ValueError.
    """
    rol = list(rol)
    for bid in rol:
        if bid not in instance.bundles:
            raise ValueError(f"unknown bundle {bid}")
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
