"""Reference engines: deferred acceptance that clears every round afresh.

Each round here collects every pending application, held and new alike,
sorts them per root of the bundle tree by the instance-only key and admits
them greedily while their bundle has a seat; standard deferred acceptance
pools each school's holders with its proposers and keeps the quota's best.
Each round is stored whole: its applications, holdings, rejections and
decisions.  The package places only each round's new applications into the
seats held so far, and derives these views when read; `test_engines.py`
compares the two round by round.  The code here shares nothing with the
engines it checks but the validated instance and its bundle tree.

Seats are counted here by `admit` and `close` over the tree's chains and
descendants, and `events` replays them over a round's decisions: each admit
followed by a copy of every bundle's seats left after it.  The tests that
pin those snapshots read them from this replay.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import count

from bundlechoice import detect_simplicity


def admit(tree, remaining, bundle_id):
    """Seat one student in a bundle with a seat left: charge it and every
    bundle containing it, and close each one that runs out."""
    if remaining[bundle_id] < 1:
        raise ValueError(f"bundle {bundle_id} has no seat left")
    chain = tree.chain[bundle_id]
    for a in chain:
        remaining[a] -= 1
    for a in chain:
        if remaining[a] == 0:
            close(tree, remaining, a)


def close(tree, remaining, bundle_id):
    """Take every seat of a bundle and of every bundle inside it."""
    for d in tree.descendants[bundle_id]:
        remaining[d] = 0


def events(instance, decisions):
    """A round's decisions in order, each admit followed by a fresh copy of
    every bundle's seats left after it, replayed from the full quotas."""
    remaining = dict(instance.tree.quota)
    replayed = []
    for decision in decisions:
        if decision[0] == "admit":
            admit(instance.tree, remaining, decision[2])
            decision += (dict(remaining),)
        replayed.append(decision)
    return replayed


@dataclass
class Round:
    number: int
    applications: dict  # student -> bundle asked for (or held) this round
    admitted: dict  # holdings at the end of the round
    rejected: list
    decisions: list = field(default_factory=list)  # (kind, student, option)


def _deferred_acceptance(instance, rols, clear):
    """(matching dict, rounds): each round sends every student with an entry
    left to it, and stops once all of them hold a seat."""
    rol = {i: tuple(rols.get(i, ())) for i in instance.students}
    pointer = dict.fromkeys(instance.students, 0)
    held = {}
    rounds = []
    for number in count(1):
        pending = {
            i: rol[i][pointer[i]]
            for i in instance.students
            if pointer[i] < len(rol[i])
        }
        if all(i in held for i in pending):
            return {i: held.get(i) for i in instance.students}, rounds
        if number > len(instance.students) * instance.rol_length + 1:
            raise RuntimeError("round limit exceeded; engine failed to settle")
        rnd = clear(number, pending, held)
        for i in rnd.rejected:
            pointer[i] += 1
        rounds.append(rnd)
        held = rnd.admitted


def reference_standard_da(instance, rols):
    """Standard deferred acceptance over one-school entries."""

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

    return _deferred_acceptance(instance, rols, clear)


def _application_key(instance, tiebreak):
    """The key of (i, b) under a root whose schools' orders differ."""
    tree, bundles = instance.tree, instance.bundles
    tb_rank = {i: k for k, i in enumerate(tiebreak)}
    shape = {}
    above = {}
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
                chain = sorted(tree.chain[b],
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


def reference_bundle_da(instance, rols, tiebreak=None):
    """Bundle deferred acceptance: per root, admit the pending applications
    in key order while their bundle has a seat.  The simple engine is this
    with the canonical student order as tie-break."""
    if tiebreak is None:
        tiebreak = instance.students
    tree = instance.tree
    simple = detect_simplicity(instance).simple
    shared = {}
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

        rnd = Round(number, pending, {}, [])
        remaining = dict(tree.quota)
        queues = {root: [] for root in tree.roots}
        for i, bid in pending.items():
            queues[tree.root[bid]].append(i)
        for root, queue in queues.items():
            queue.sort(key=shared.get(root, application_key))
            for i in queue:
                bid = pending[i]
                if remaining[bid] > 0:
                    admit(tree, remaining, bid)
                    rnd.admitted[i] = bid
                    rnd.decisions.append(("admit", i, bid))
                else:
                    rnd.rejected.append(i)
                    rnd.decisions.append(("reject", i, bid))
        return rnd

    return _deferred_acceptance(instance, rols, clear)
