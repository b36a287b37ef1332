"""Matching engines: standard deferred acceptance and two bundle variants.

All three engines consume a validated instance plus a ROL mapping
{student: sequence of bundle ids} and return a (BundleMatching, EngineTrace)
pair.  They share one deferred-acceptance loop, `_deferred_acceptance`, which
keeps each student's place in her list and the seats held after the last
round, stops once every student with an entry left holds a seat, and moves
each rejected student one entry down; an engine supplies only how one round
clears.  Rejection always consumes one ROL slot, so every engine halts within
|students| * rol_length rounds.

*Standard DA* pools each school's holders with its new proposers and keeps
the quota's best by priority.

The *simple* engine requires every bundle's schools to share one full
priority order; it then processes each sub-hierarchy sequentially by that
order, recomputing all tentative admissions from scratch every round.

The *general* engine handles arbitrary nested bundles.  Each round it frees
the seats of every tentatively held student whose bundle touches a school in
play, then repeatedly admits the set of students who top the priority order
at every live school of the bundle they ask for.  The round's applicants are
queued once per school, worst first, so each school's top is read off the
tail of its queue after dropping students already resolved.  When the nested
quota of a larger bundle cannot cover all sub-bundles about to admit, the
shortfall is resolved by an exogenous tie-break order over students.

Both bundle engines keep one round's remaining seats per bundle and change
them only through the instance's `BundleTree`: `admit` charges the requested
bundle and every bundle containing it, closing any that runs out, and the
general engine's tie-break `close`s the overdemanded bundle once its
contenders are seated.  A closed bundle has zeroed everything inside it, so a
bundle (or school) has a seat left exactly when its own count is positive.
"""

from dataclasses import dataclass, field
from itertools import count

from .model import BundleMatching, detect_simplicity


@dataclass
class Round:
    number: int
    applications: dict  # student -> bundle asked for (or held) this round
    admitted: dict  # holdings at the end of the round
    rejected: list
    events: list = field(default_factory=list)


@dataclass
class EngineTrace:
    engine: str
    rounds: list = field(default_factory=list)

    @property
    def final(self):
        return self.rounds[-1].admitted if self.rounds else {}

    def events(self):
        """Flat (round, kind, *detail) event stream for logging/CSV export."""
        for rnd in self.rounds:
            for ev in rnd.events:
                yield (rnd.number,) + ev


def _deferred_acceptance(instance, rols, name, clear):
    """The student-proposing loop all three engines share.

    Each round, every student with an entry left is pending on that entry, in
    canonical order; a holder's pending entry is the bundle she holds.
    `clear(number, pending, held)` returns the round; its `admitted` map
    becomes the next `held`, so `clear` must not mutate `held`, which the
    trace keeps.
    """
    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    pointer = dict.fromkeys(instance.students, 0)
    held = {}
    trace = EngineTrace(name)
    for number in count(1):
        pending = {
            i: rol[i][pointer[i]]
            for i in instance.students
            if pointer[i] < len(rol[i])
        }
        if all(i in held for i in pending):
            return BundleMatching(instance, held), trace
        if number > len(instance.students) * instance.rol_length + 1:
            raise RuntimeError("round limit exceeded; engine failed to settle")
        rnd = clear(number, pending, held)
        for i in rnd.rejected:
            pointer[i] += 1
        trace.rounds.append(rnd)
        held = rnd.admitted


def run_standard_da(instance, rols):
    """Student-proposing deferred acceptance over one-school bundles only."""
    for i, entries in rols.items():
        for bid in entries:
            if not instance.bundles[bid].trivial:
                raise ValueError(
                    f"student {i} lists bundle {bid}; standard DA accepts "
                    "one-school entries only"
                )

    def clear(number, pending, held):
        rnd = Round(number, {}, {}, [])
        pools = {}  # school id -> its holders, then this round's proposers
        for i, s in held.items():
            pools.setdefault(s, []).append(i)
        for i, bid in pending.items():
            if i not in held:
                school = next(iter(instance.bundles[bid].schools))
                rnd.applications[i] = school
                pools.setdefault(school, []).append(i)
        for s, pool in pools.items():
            pool.sort(key=lambda i: instance.rank(s, i))
            for loser in pool[instance.schools[s].quota :]:
                rnd.rejected.append(loser)
                rnd.events.append(("reject", loser, s))
            del pool[instance.schools[s].quota :]
            for i in pool:
                rnd.events.append(("hold", i, s))
                rnd.admitted[i] = s
        return rnd

    return _deferred_acceptance(instance, rols, "standard-da", clear)


def run_bundle_da_simple(instance, rols):
    """Bundle deferred acceptance for systems with a shared priority order.

    Every round resets all quotas and reprocesses, per sub-hierarchy, the
    carried-over tentative admits together with the round's new applicants,
    one by one in the hierarchy's common order: a student is admitted exactly
    when her requested bundle still has a seat, and each admission charges
    the bundle and all of its sup-bundles, closing (zeroing, with everything
    nested inside) any bundle that hits zero.
    """
    info = detect_simplicity(instance)
    if not info.simple:
        raise ValueError(
            "bundle system is not simple ({}); use the general engine".format(
                info.reason
            )
        )
    tree = instance.tree
    # A simple system's schools under one root share one priority order.
    ranks = {
        root: instance.ranks(min(instance.bundles[root].schools))
        for root in tree.roots
    }

    def clear(number, targets, held):
        rnd = Round(number, targets, {}, [])
        remaining = dict(tree.quota)
        queues = {root: [] for root in tree.roots}
        for i, bid in targets.items():
            queues[tree.root[bid]].append(i)
        for root, queue in queues.items():
            queue.sort(key=ranks[root].__getitem__)
            for i in queue:
                bid = targets[i]
                if remaining[bid] > 0:
                    tree.admit(remaining, bid)
                    rnd.admitted[i] = bid
                    rnd.events.append(("admit", i, bid, dict(remaining)))
                else:
                    rnd.rejected.append(i)
                    rnd.events.append(("reject", i, bid))
        return rnd

    return _deferred_acceptance(instance, rols, "bundle-da-simple", clear)


def run_bundle_da_general(instance, rols, tiebreak=None):
    """Bundle deferred acceptance for arbitrary nested bundle systems.

    Each round builds one applicant queue per school of the requested
    bundles, sorted worst first by the school's priority.  A batch admits
    every student who is the top of each school with a seat left in their
    bundle; the queues only lose students, so every top is read by popping
    resolved students off a queue's tail.  The batch's order is immaterial:
    tie-break contenders are sorted by `tiebreak`, admits by the canonical
    student order, and the overdemanded bundle is picked by bundle order.

    `tiebreak` is a strict order over students (best first) consulted only
    when a bundle lacks the seats to cover every sub-bundle about to admit;
    it defaults to the instance's canonical student order.
    """
    if tiebreak is None:
        tiebreak = instance.students
    if sorted(tiebreak) != sorted(instance.students):
        raise ValueError("tie-break order must be a permutation of the students")
    tb_rank = {i: k for k, i in enumerate(tiebreak)}
    tree = instance.tree

    def clear(number, pending, held):
        targets = {i: bid for i, bid in pending.items() if i not in held}
        rnd = Round(number, targets, {}, [])
        remaining = dict(tree.quota)

        fresh_schools = set()
        for bid in targets.values():
            fresh_schools |= instance.bundles[bid].schools
        active_bundles = {a for s in fresh_schools for a in tree.ancestors[s]}
        active_schools = set()
        for bid in active_bundles:
            active_schools |= instance.bundles[bid].schools

        # Holders untouched by this round's applications keep their seats;
        # everyone else is released back into the competition.
        admitted = rnd.admitted
        for i, bid in held.items():
            if instance.bundles[bid].schools & active_schools:
                targets[i] = bid
                rnd.events.append(("release", i, bid))
            else:
                tree.admit(remaining, bid)
                admitted[i] = bid
                rnd.events.append(("stay", i, bid))
        unresolved = set(targets)
        queues = {}
        for i, bid in targets.items():
            for s in instance.bundles[bid].schools:
                queues.setdefault(s, []).append(i)
        for s, queue in queues.items():
            queue.sort(key=lambda i: instance.rank(s, i), reverse=True)

        while True:
            tops = {}
            for s, queue in queues.items():
                if remaining[s] > 0:
                    while queue and queue[-1] not in unresolved:
                        queue.pop()
                    if queue:
                        tops[s] = queue[-1]
            if not tops:
                break
            batch = [
                i
                for i in dict.fromkeys(tops.values())
                if all(
                    tops.get(s) == i
                    for s in instance.bundles[targets[i]].schools
                    if remaining[s] > 0
                )
            ]
            if not batch:
                raise RuntimeError(
                    "no admissible applicant despite waiting applicants"
                )
            claimed = set()
            for i in batch:
                schools = instance.bundles[targets[i]].schools
                if not claimed.isdisjoint(schools):
                    raise RuntimeError(
                        "simultaneous admits with overlapping bundles"
                    )
                claimed |= schools

            batch_bundles = {targets[i] for i in batch}
            nested = {}  # active bundle -> batch bundles strictly inside it
            for tb in batch_bundles:
                for bid in tree.ancestors[tb]:
                    if bid != tb and bid in active_bundles:
                        nested.setdefault(bid, set()).add(tb)
            overdemanded = {
                bid: tbs for bid, tbs in nested.items() if remaining[bid] < len(tbs)
            }
            if overdemanded:
                deficits = {
                    bid: len(inside) - remaining[bid]
                    for bid, inside in overdemanded.items()
                }
                maximal = [
                    bid
                    for bid in overdemanded
                    if not any(
                        other != bid
                        and other in deficits
                        and deficits[bid] <= deficits[other]
                        for other in tree.ancestors[bid]
                    )
                ]
                bid = min(maximal, key=instance.bundle_order.index)
                contenders = sorted(
                    (i for i in batch if targets[i] in overdemanded[bid]),
                    key=lambda i: tb_rank[i],
                )
                taken = []
                for i in contenders:
                    if remaining[bid] == 0:
                        break
                    if remaining[targets[i]] == 0:
                        continue
                    tree.admit(remaining, targets[i])
                    admitted[i] = targets[i]
                    unresolved.discard(i)
                    taken.append(i)
                    rnd.events.append(("admit", i, targets[i], dict(remaining)))
                tree.close(remaining, bid)
                rnd.events.append(
                    ("overdemand", bid, sorted(overdemanded[bid]), taken)
                )
                continue

            for i in sorted(batch, key=instance.student_key):
                tree.admit(remaining, targets[i])
                admitted[i] = targets[i]
                unresolved.discard(i)
                rnd.events.append(("admit", i, targets[i], dict(remaining)))

        for i in sorted(unresolved, key=instance.student_key):
            rnd.rejected.append(i)
            rnd.events.append(("reject", i, targets[i]))
        return rnd

    return _deferred_acceptance(instance, rols, "bundle-da-general", clear)


def run_bundle_da(instance, rols, tiebreak=None, engine="auto"):
    """Dispatch to the simple or general engine; `auto` prefers simple."""
    if engine == "simple":
        return run_bundle_da_simple(instance, rols)
    if engine == "general":
        return run_bundle_da_general(instance, rols, tiebreak)
    if engine != "auto":
        raise ValueError(f"unknown engine {engine!r}")
    if detect_simplicity(instance).simple:
        return run_bundle_da_simple(instance, rols)
    return run_bundle_da_general(instance, rols, tiebreak)
