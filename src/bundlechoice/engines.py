"""Matching engines: standard deferred acceptance and bundle deferred acceptance.

Every engine consumes a validated instance plus a ROL mapping {student:
sequence of bundle ids} and returns a (BundleMatching, EngineTrace) pair.
They share one deferred-acceptance loop, `_deferred_acceptance`, which keeps
each student's place in her list and the seats held after the last round,
stops once every student with an entry left holds a seat, and moves each
rejected student one entry down; an engine supplies only how one round
clears.  Rejection always consumes one ROL slot, so every engine halts within
|students| * rol_length rounds.

*Standard DA* pools each school's holders with its new proposers and keeps
the quota's best by priority.

Both *bundle* engines clear a round the same way, in `_bundle_clearing`.  An
application is a pair (student i, bundle b).  Each round, per root of the
bundle tree, the pending applications, held and new alike, are sorted by a
key that depends on the instance alone; each is admitted exactly when its
bundle still has a seat (`BundleTree.admit` charges the bundle and every
bundle containing it, closing any that runs out), and the rest are rejected.

The key of (i, b) under root r:

* if every school under r has the same priority order, i's rank in it;
* otherwise, with s the first school of b in canonical order: for each
  strict ancestor a of b, largest first, (number of a's targets that s ranks
  above i, 0); then (number of b's targets that s ranks above i, 1); last
  (i's rank in the tie-break order, b's canonical position).

The simple engine requires every bundle's schools to share one priority
order, so every root is of the first kind; the general engine accepts any
nested system and is the same engine, only with the tie-break order.

Why the outcome is stable and strategy-proof for students (a proof sketch):

* Every envy clause of the stability audit compares two students on the
  smaller of two nested bundles, and both are targets of it, since
  validation lets an audience only shrink as a bundle grows.
* Validation also makes a bundle's schools rank its targets alike, so each
  clause is one comparison in one order, and the key orders every such pair
  the way the clause needs.
* Greedy admission in a fixed order under nested quotas is the greedy
  algorithm of a laminar matroid, so each round's choice is substitutable
  and obeys the law of aggregate demand.
* Deferred acceptance over such choices ends stable, and it is
  strategy-proof for students because the order ignores the reports
  (Hatfield-Milgrom 2005, AER 95(4); laminar quotas in Kamada-Kojima 2015,
  AER 105(1)).

A round stores only its decisions, ("admit", i, b) and ("reject", i, b).
`Round.events` adds to each admit the seats left in every bundle after it,
rebuilt by replaying the round's admits from the full quotas.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count

from .model import BundleMatching, detect_simplicity


@dataclass
class Round:
    number: int
    applications: dict  # student -> bundle asked for (or held) this round
    admitted: dict  # holdings at the end of the round
    rejected: list
    decisions: list = field(default_factory=list)  # (kind, student, option)
    tree: object = field(default=None, repr=False)  # replays admit snapshots

    @property
    def events(self):
        """The decisions in order, each admit followed by a fresh copy of
        every bundle's seats left after it."""
        remaining = dict(self.tree.quota) if self.tree else None
        events = []
        for decision in self.decisions:
            if decision[0] == "admit":
                self.tree.admit(remaining, decision[2])
                decision += (dict(remaining),)
            events.append(decision)
        return events


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
                rnd.decisions.append(("reject", loser, s))
            del pool[instance.schools[s].quota :]
            for i in pool:
                rnd.decisions.append(("hold", i, s))
                rnd.admitted[i] = s
        return rnd

    return _deferred_acceptance(instance, rols, "standard-da", clear)


def _application_key(instance, tiebreak):
    """The key of an application (i, b) under a root whose schools' priority
    orders differ, computed once per application."""
    tree, bundles = instance.tree, instance.bundles
    tb_rank = {i: k for k, i in enumerate(tiebreak)}
    shape = {}  # bundle -> (its first school, its chain largest first, position)
    above = {}  # (bundle, school) -> the school's ranks of the bundle's targets
    keys = {}

    def count_above(a, s, rank):
        ranks = above.get((a, s))
        if ranks is None:
            at = instance.ranks(s)
            ranks = above[a, s] = sorted(at[t] for t in bundles[a].targets)
        return bisect_left(ranks, rank)

    def key(i, b):
        found = keys.get((i, b))
        if found is None:
            if b not in shape:
                chain = sorted(tree.ancestors[b],
                               key=lambda a: -len(bundles[a].schools))
                first = next(s for s in instance.school_order
                             if s in bundles[b].schools)
                shape[b] = first, chain, instance.bundle_order.index(b)
            s, chain, position = shape[b]
            rank = instance.rank(s, i)
            counts = []
            for a in chain:
                counts += (count_above(a, s, rank), a == b)
            found = keys[i, b] = (*counts, tb_rank[i], position)
        return found

    return key


def _bundle_clearing(instance, tiebreak):
    """The round both bundle engines clear with, as `_deferred_acceptance`'s
    `clear`: per root, admit the pending applications in key order while
    their bundle has a seat, and reject the rest."""
    tree = instance.tree
    simple = detect_simplicity(instance).simple  # then every root qualifies
    shared = {}  # root whose schools share one priority order -> rank lookup
    for root in tree.roots:
        s, *others = instance.bundles[root].schools
        order = instance.schools[s].priority
        if simple or all(instance.schools[o].priority == order for o in others):
            shared[root] = instance.ranks(s).__getitem__
    key = None
    if len(shared) < len(tree.roots):
        key = _application_key(instance, tiebreak)

    def clear(number, pending, held):
        def application_key(i):
            return key(i, pending[i])

        rnd = Round(number, pending, {}, [], tree=tree)
        remaining = dict(tree.quota)
        queues = {root: [] for root in tree.roots}
        for i, bid in pending.items():
            queues[tree.root[bid]].append(i)
        for root, queue in queues.items():
            queue.sort(key=shared.get(root, application_key))
            for i in queue:
                bid = pending[i]
                if remaining[bid] > 0:
                    tree.admit(remaining, bid)
                    rnd.admitted[i] = bid
                    rnd.decisions.append(("admit", i, bid))
                else:
                    rnd.rejected.append(i)
                    rnd.decisions.append(("reject", i, bid))
        return rnd

    return clear


def run_bundle_da_simple(instance, rols):
    """Bundle deferred acceptance for systems with a shared priority order:
    every round admits each sub-hierarchy's applicants in its common order."""
    info = detect_simplicity(instance)
    if not info.simple:
        raise ValueError(
            "bundle system is not simple ({}); use the general engine".format(
                info.reason
            )
        )
    clear = _bundle_clearing(instance, instance.students)
    return _deferred_acceptance(instance, rols, "bundle-da-simple", clear)


def run_bundle_da_general(instance, rols, tiebreak=None):
    """Bundle deferred acceptance for arbitrary nested bundle systems.

    `tiebreak` is a strict order over students (best first) that orders the
    applications left equal by their counts; it defaults to the instance's
    canonical student order and is never read on a simple system.
    """
    if tiebreak is None:
        tiebreak = instance.students
    if sorted(tiebreak) != sorted(instance.students):
        raise ValueError("tie-break order must be a permutation of the students")
    clear = _bundle_clearing(instance, tiebreak)
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
