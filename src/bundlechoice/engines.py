"""Matching engines: standard deferred acceptance and bundle deferred acceptance.

Every engine consumes a validated instance plus a ROL mapping {student:
sequence of bundle ids} and returns a (BundleMatching, EngineTrace) pair.
They share one deferred-acceptance loop, the generator `_rounds`, which
`_deferred_acceptance` records as a trace and `_settle` only drains.  Its first
round sends every student to the first entry of her list; each later round
sends only the students the round before rejected, each to her next entry,
and the run stops once a round leaves no rejected student with an entry
left.  Rejection always consumes one ROL slot, so every engine halts within
|students| * rol_length rounds.

Seats are held across rounds in `_Seats`; a round places only its new
applications, one at a time in canonical student order.  An application is
a pair (student i, bundle b); b's chain is b and every bundle containing
it, and every bundle keeps the holders inside it sorted by key.

* *Admit:* if every bundle on b's chain has a seat left, (i, b) takes one.
* *Exchange:* otherwise (i, b) meets the worst-keyed holder of the smallest
  full bundle on the chain, and of the two the one later in key order is
  rejected.

This is the greedy pass that admits all of a round's pending applications
in key order while their bundle has a seat.  Nested quotas define a laminar
matroid, whose independent sets are the seatings that keep every quota, and
the greedy pass picks its basis of least keys (keys are distinct within a
root).  Adding one application e to a set whose best basis is B, either
B + e is independent, or it holds exactly one circuit, e plus the holders of
the smallest full bundle on e's chain, and the best basis of the larger set
is B + e less that circuit's worst element.  A round's pending applications
are the last round's holders plus its new applications, and the basis does
not depend on the order they arrive in, so placing the new ones into the
held seats gives the greedy pass's outcome.  Standard DA is the same with
each school its own chain, keyed by its priority.

The key of (i, b) under root r of the bundle tree:

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

A round stores only what changed in it: the applications made anew and the
students rejected, with links to the round before and to the run's lists
and keys.  Everything else is derived when read.  Its `decisions` are, per
root in tree order, the round's pending applications in key order, each
("admit", i, b) unless rejected; standard DA's are, per school in the order
schools were first proposed to, its losers and then its holders by priority.
`applications`, `admitted` and `rejected` follow from them, and the
trace's `events` flattens them with their round numbers.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .model import BundleMatching, _read_rols, detect_simplicity


@dataclass(eq=False)
class _Run:
    """What every round of one run shares: each student's list, the key of
    every application placed, and how a round lays out its views."""

    rol: dict  # student -> her entries, in canonical student order
    tree: object  # gives `_bundle_decisions` the roots; None for standard DA
    applications: object  # Round -> its `applications` view
    decisions: object  # Round -> its `decisions` view
    keys: dict = field(default_factory=dict)  # (student, bundle) -> key


class Round:
    """One deferred-acceptance round, stored as what changed in it."""

    __slots__ = ("number", "proposals", "losers", "previous", "run")

    def __init__(self, number, proposals, losers, previous, run):
        self.number = number
        self.proposals = proposals  # student -> entry applied to anew
        self.losers = losers  # frozenset of the students rejected
        self.previous = previous  # the round before, or None
        self.run = run

    def pending(self):
        """Every student's entry this round, held or new, in canonical order."""
        pointer = dict.fromkeys(self.run.rol, 0)
        rnd = self.previous
        while rnd is not None:
            for i in rnd.losers:
                pointer[i] += 1
            rnd = rnd.previous
        return {i: entries[pointer[i]] for i, entries in self.run.rol.items()
                if pointer[i] < len(entries)}

    @property
    def applications(self):
        return self.run.applications(self)

    @property
    def decisions(self):
        """(kind, student, option) in the order the round decided them."""
        return self.run.decisions(self)

    @property
    def admitted(self):
        """Holdings at the end of the round."""
        return {i: option for kind, i, option in self.decisions
                if kind != "reject"}

    @property
    def rejected(self):
        return [i for kind, i, _ in self.decisions if kind == "reject"]


@dataclass
class EngineTrace:
    engine: str
    rounds: list = field(default_factory=list)

    @property
    def final(self):
        return self.rounds[-1].admitted if self.rounds else {}

    def events(self):
        """Flat (round, kind, student, option) stream for logging/CSV export."""
        for rnd in self.rounds:
            for decision in rnd.decisions:
                yield (rnd.number, *decision)


class _Seats:
    """The applications holding seats, kept as the best basis of the laminar
    matroid the quotas define (see the module docstring)."""

    def __init__(self, quota, chains, keys):
        self.quota = quota  # bundle -> seats
        self.chains = chains  # bundle -> it and the bundles around it, smallest first
        self.keys = keys
        self.holders = {b: [] for b in quota}  # (key, student) inside b, by key
        self.held = {}  # student -> bundle

    def place(self, i, b):
        """Place application (i, b); return the student it leaves without a
        seat, or None."""
        key = self.keys[i, b]
        chain = self.chains[b]
        worst = None
        for a in chain:
            holders = self.holders[a]
            if len(holders) == self.quota[a]:
                worst_key, worst = holders[-1]
                if key > worst_key:
                    return i
                self._drop(worst)
                break
        self.held[i] = b
        for a in chain:
            insort(self.holders[a], (key, i))
        return worst

    def _drop(self, i):
        b = self.held.pop(i)
        entry = (self.keys[i, b], i)
        for a in self.chains[b]:
            holders = self.holders[a]
            del holders[bisect_left(holders, entry)]


def _rounds(instance, rol, seats, key, keys):
    """The student-proposing loop every run shares, one round at a time.

    Each round places its new applications, in canonical order, into
    `seats`, keyed by `key(i, b)` unless `keys` holds the key already, and
    yields (applications, the students it rejected); those move one entry
    down, and the ones with an entry left make the next round's applications.
    A run that has not settled within the round limit raises RuntimeError.
    """
    pointer = {}  # student -> her entry now, once a round has rejected her
    proposals = {i: entries[0] for i, entries in rol.items() if entries}
    for _ in range(len(instance.students) * instance.rol_length + 1):
        if not proposals:
            return
        losers = set()
        for i, b in proposals.items():
            if (i, b) not in keys:
                keys[i, b] = key(i, b)
            losers.add(seats.place(i, b))
        losers.discard(None)
        yield proposals, losers
        proposals = {}
        for i in sorted(losers, key=instance.student_key):
            k = pointer[i] = pointer.get(i, 0) + 1
            if k < len(rol[i]):
                proposals[i] = rol[i][k]
    if proposals:
        raise RuntimeError("round limit exceeded; engine failed to settle")


def _deferred_acceptance(instance, name, seats, key, run):
    """Run `_rounds` to the end, recording each round in the trace."""
    trace, rnd = EngineTrace(name), None
    for proposals, losers in _rounds(instance, run.rol, seats, key, run.keys):
        rnd = Round(len(trace.rounds) + 1, proposals, frozenset(losers), rnd, run)
        trace.rounds.append(rnd)
    return BundleMatching(instance, seats.held), trace


def _settle(instance, rol, key, keys):
    """The seats bundle deferred acceptance holds at the end, {student:
    bundle}, with no trace or matching recorded.

    `rol` is a table as `_read_rols` returns it, and `keys` may be shared by
    every run with the same `key`.  Raises what the run's `BundleMatching`
    would: a seat held by a student not eligible for it, the first such
    student in canonical order.
    """
    seats = _Seats(instance.tree.quota, instance.tree.chain, keys)
    for _ in _rounds(instance, rol, seats, key, keys):
        pass
    held, bundles = seats.held, instance.bundles
    ineligible = [i for i in held if i not in bundles[held[i]].targets]
    if ineligible:
        i = min(ineligible, key=instance.student_key)
        raise ValueError(f"student {i} is not eligible for bundle {held[i]}")
    return held


def _standard_decisions(rnd):
    """Per school, in the order schools were first proposed to, the round's
    losers and then its holders, each in priority order."""
    keys, losers = rnd.run.keys, rnd.losers
    proposals = []
    at = rnd
    while at is not None:
        proposals.append(at.proposals)
        at = at.previous
    pools = {s: [] for made in reversed(proposals) for s in made.values()}
    for i, s in rnd.pending().items():
        pools[s].append((keys[i, s], i))
    decisions = []
    for s, pool in pools.items():
        pool.sort()
        decisions += [("reject", i, s) for _, i in pool if i in losers]
        decisions += [("hold", i, s) for _, i in pool if i not in losers]
    return decisions


def run_standard_da(instance, rols):
    """Student-proposing deferred acceptance over one-school bundles only."""
    rol = _read_rols(instance, rols)
    for i, entries in rol.items():
        for bid in entries:
            if not instance.bundles[bid].trivial:
                raise ValueError(
                    f"student {i} lists bundle {bid}; standard DA accepts "
                    "one-school entries only"
                )
    # A one-school bundle's id is its school's id.
    quota = {s: school.quota for s, school in instance.schools.items()}
    run = _Run(rol, None,
               lambda rnd: dict(rnd.proposals), _standard_decisions)
    seats = _Seats(quota, {s: (s,) for s in quota}, run.keys)

    def key(i, s):
        return instance.rank(s, i)

    return _deferred_acceptance(instance, "standard-da", seats, key, run)


def _application_key(instance, tiebreak):
    """The key of an application (i, b), computed once per application."""
    tree, bundles = instance.tree, instance.bundles
    shared = {}  # root whose schools share one priority order -> its ranks
    simple = instance.simplicity.simple  # then every root's schools do
    for root in tree.roots:
        s, *others = bundles[root].schools
        order = instance.schools[s].priority
        if simple or all(p is order or p == order
                         for p in (instance.schools[o].priority for o in others)):
            shared[root] = instance.ranks(s)
    tb_rank = (instance._student_index if tiebreak is instance.students
               else {i: k for k, i in enumerate(tiebreak)})
    everyone = len(instance.students)
    shape = {}  # bundle -> (its first school's ranks, its chain's levels, position)
    above = {}  # (bundle, school) -> the school's ranks of the bundle's targets

    def targeted(a, s):
        """The sorted ranks school s gives a's targets; None when a targets
        every student, as the targets s ranks above i then number i's rank."""
        if len(bundles[a].targets) == everyone:
            return None
        if (a, s) not in above:
            at = instance.ranks(s)
            above[a, s] = sorted(at[t] for t in bundles[a].targets)
        return above[a, s]

    def key(i, b):
        ranks = shared.get(tree.root[b])
        if ranks is not None:
            return ranks[i]
        found = shape.get(b)
        if found is None:
            s = next(s for s in instance.school_order if s in bundles[b].schools)
            found = shape[b] = (instance.ranks(s),
                                [(targeted(a, s), a == b) for a in tree.chain[b][::-1]],
                                instance.bundle_order.index(b))
        ranks, levels, position = found
        rank = ranks[i]
        counts = []
        for below, last in levels:
            counts += (rank if below is None else bisect_left(below, rank), last)
        return (*counts, tb_rank[i], position)

    return key


def _bundle_decisions(rnd):
    """Per root, in tree order, the round's pending applications in key
    order, each admitted unless the round rejected it."""
    tree, keys = rnd.run.tree, rnd.run.keys
    queues = {root: [] for root in tree.roots}
    for i, b in rnd.pending().items():
        queues[tree.root[b]].append((keys[i, b], i, b))
    return [("reject" if i in rnd.losers else "admit", i, b)
            for queue in queues.values() for _, i, b in sorted(queue)]


def _bundle_da(instance, rols, tiebreak, name):
    """The run both bundle engines make."""
    tree = instance.tree
    run = _Run(_read_rols(instance, rols), tree, Round.pending, _bundle_decisions)
    seats = _Seats(tree.quota, tree.chain, run.keys)
    key = _application_key(instance, tiebreak)
    return _deferred_acceptance(instance, name, seats, key, run)


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
    return _bundle_da(instance, rols, instance.students, "bundle-da-simple")


def run_bundle_da_general(instance, rols, tiebreak=None):
    """Bundle deferred acceptance for arbitrary nested bundle systems.

    `tiebreak` is a strict order over students (best first) that orders the
    applications left equal by their counts; it defaults to the instance's
    canonical student order and is never read on a simple system.
    """
    if tiebreak is None:
        tiebreak = instance.students
    elif sorted(tiebreak) != sorted(instance.students):
        raise ValueError("tie-break order must be a permutation of the students")
    return _bundle_da(instance, rols, tiebreak, "bundle-da-general")


def run_bundle_da(instance, rols, tiebreak=None, engine="auto"):
    """Dispatch to the simple or general engine; `auto` prefers simple."""
    if engine == "auto":
        engine = "simple" if detect_simplicity(instance).simple else "general"
    if engine == "simple":
        return run_bundle_da_simple(instance, rols)
    if engine == "general":
        return run_bundle_da_general(instance, rols, tiebreak)
    raise ValueError(f"unknown engine {engine!r}")
