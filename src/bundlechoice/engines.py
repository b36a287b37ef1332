"""Matching engines: standard deferred acceptance and two bundle variants.

All three engines consume a validated instance plus a ROL mapping
{student: sequence of bundle ids} and return a (BundleMatching, EngineTrace)
pair.  Rejection always consumes one ROL slot, so every engine halts within
|students| * rol_length rounds.

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


def _round_limit(instance):
    return len(instance.students) * instance.rol_length + 1


def run_standard_da(instance, rols):
    """Student-proposing deferred acceptance over one-school bundles only."""
    for i, entries in rols.items():
        for bid in entries:
            if not instance.bundles[bid].trivial:
                raise ValueError(
                    f"student {i} lists bundle {bid}; standard DA accepts "
                    "one-school entries only"
                )
    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    pointer = {i: 0 for i in instance.students}
    held = {}  # school id -> list of students, kept sorted by priority
    admitted = {}  # student -> school held
    trace = EngineTrace("standard-da")

    for number in range(1, _round_limit(instance) + 1):
        proposers = [
            i
            for i in instance.students
            if i not in admitted and pointer[i] < len(rol[i])
        ]
        if not proposers:
            break
        rnd = Round(number, {}, {}, [])
        pools = {s: list(pool) for s, pool in held.items()}
        for i in proposers:
            school = next(iter(instance.bundles[rol[i][pointer[i]]].schools))
            rnd.applications[i] = school
            pools.setdefault(school, []).append(i)
        for s, pool in pools.items():
            pool.sort(key=lambda i: instance.rank(s, i))
            for loser in pool[instance.schools[s].quota :]:
                rnd.rejected.append(loser)
                rnd.events.append(("reject", loser, s))
                pointer[loser] += 1
            del pool[instance.schools[s].quota :]
            for i in pool:
                rnd.events.append(("hold", i, s))
        held = {s: pool for s, pool in pools.items() if pool}
        admitted = {i: s for s, pool in held.items() for i in pool}
        rnd.admitted = dict(admitted)
        trace.rounds.append(rnd)
        if not rnd.rejected:
            break
    else:
        raise AssertionError("round limit exceeded; engine failed to settle")

    return BundleMatching(instance, admitted), trace


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
    ranks = {
        root: {i: r for r, i in enumerate(sub.order)}
        for root, sub in zip(tree.roots, info.hierarchies)
    }

    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    pointer = {i: 0 for i in instance.students}
    held = {}
    trace = EngineTrace("bundle-da-simple")

    for number in range(1, _round_limit(instance) + 1):
        targets = {
            i: rol[i][pointer[i]]
            for i in instance.students
            if pointer[i] < len(rol[i])
        }
        if not targets:
            break
        rnd = Round(number, dict(targets), {}, [])
        remaining = dict(tree.quota)
        admitted = {}
        queues = {root: [] for root in tree.roots}
        for i, bid in targets.items():
            queues[tree.root[bid]].append(i)
        for root, queue in queues.items():
            queue.sort(key=ranks[root].__getitem__)
            for i in queue:
                bid = targets[i]
                if remaining[bid] > 0:
                    tree.admit(remaining, bid)
                    admitted[i] = bid
                    rnd.events.append(("admit", i, bid, dict(remaining)))
                else:
                    rnd.rejected.append(i)
                    rnd.events.append(("reject", i, bid))
        for i in rnd.rejected:
            pointer[i] += 1
        held = admitted
        rnd.admitted = dict(admitted)
        trace.rounds.append(rnd)
        if all(
            i in admitted or pointer[i] >= len(rol[i]) for i in instance.students
        ):
            break
    else:
        raise AssertionError("round limit exceeded; engine failed to settle")

    return BundleMatching(instance, held), trace


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

    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    pointer = {i: 0 for i in instance.students}
    held = {}
    trace = EngineTrace("bundle-da-general")

    for number in range(1, _round_limit(instance) + 1):
        new = {
            i: rol[i][pointer[i]]
            for i in instance.students
            if i not in held and pointer[i] < len(rol[i])
        }
        if not new:
            break
        rnd = Round(number, {}, {}, [])
        remaining = dict(tree.quota)

        fresh_schools = set()
        for bid in new.values():
            fresh_schools |= instance.bundles[bid].schools
        active_bundles = {a for s in fresh_schools for a in tree.ancestors[s]}
        active_schools = set()
        for bid in active_bundles:
            active_schools |= instance.bundles[bid].schools

        # Holders untouched by this round's applications keep their seats;
        # everyone else is released back into the competition.
        admitted = {}
        targets = dict(new)
        for i, bid in held.items():
            if instance.bundles[bid].schools & active_schools:
                targets[i] = bid
                rnd.events.append(("release", i, bid))
            else:
                tree.admit(remaining, bid)
                admitted[i] = bid
                rnd.events.append(("stay", i, bid))
        rnd.applications = dict(targets)
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
            pointer[i] += 1
        held = admitted
        rnd.admitted = dict(admitted)
        trace.rounds.append(rnd)
        if all(
            i in admitted or pointer[i] >= len(rol[i]) for i in instance.students
        ):
            break
    else:
        raise AssertionError("round limit exceeded; engine failed to settle")

    return BundleMatching(instance, held), trace


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
