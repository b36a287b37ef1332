"""Lab-style school-choice experiments: exact expectations and Monte Carlo.

Two environments are modeled.  The first is a three-student, three-school
market (schools A, B, C, one seat each) with two payoff types and a uniform
random priority order drawn after submission; treatments vary the menu
(bundle AB, bundle AC, or no bundle) and the list length (one or two).  The
second is a six-student, six-school market (A..F, one seat each) with common
utilities, integer exam scores drawn from a rounded normal(70, 10) on
[1, 100], priorities descending in score, and two-slot lists; treatments add
bundle ABC or DEF.

Admission is bundle deferred acceptance under the round's common priority,
which is serial dictatorship: students are placed in priority order into the
engines' `_Seats`, each holding the best listed option every bundle around
which still has a seat (a bundle's seats are the total seats of its schools,
taken by bundle admits and by individual admits inside it alike).  Bundle
admits are then assigned to the open seats inside their bundle uniformly at
random.

Admission reads only the lists in priority order, so both games are
computed in rank space: one admission run per distinct tuple of lists by
priority rank (`_ranked_branches`), relabelled for every round, order and
student that puts the same lists in the same ranks.  The memo of those runs
lives for one call.  Exact expectations price student 0's (seat, priority
position) distribution, whose weights are integers over one common
denominator; the students are exchangeable, so that prices the whole group.
The Monte Carlo sampler draws from the same enumerated outcome
distributions, so the two agree by construction up to sampling error.
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import factorial, lcm, prod
from numbers import Real

import numpy as np

from .engines import _Seats
from .model import BundleTree, ValidationReport, validate_instance

EXP1_UTILITIES = {
    "A": {"A": 110, "B": 100, "C": 20, None: 0},
    "B": {"B": 110, "A": 100, "C": 20, None: 0},
}
EXP2_UTILITIES = {
    "D": 80, "A": 50, "B": 45, "C": 40, "E": 30, "F": 20, None: 0,
}

HALF = Fraction(1, 2)
EXP1_COMPONENTS = ("payoff", "students", "matched", "top2", "mismatch")
SCORE_GROUP_LIMIT = 25


def _canon(name):
    return str(name).strip().lower().replace("_", "-").replace(" ", "-")


class _ExperimentMarket:
    """What both experiment configs share: the treatment lookup, one seat
    per school, the menu and the bundle tree.  A subclass's `TREATMENTS`
    maps each treatment to its (bundles, list length)."""

    def __init__(self, treatment):
        key = _canon(treatment)
        if key not in self.TREATMENTS:
            raise ValueError(f"unknown experiment-{self.exp} treatment {treatment!r} "
                             f"(expected one of {', '.join(self.TREATMENTS)})")
        self.treatment = key
        self.bundles, self.rol_length = self.TREATMENTS[key]
        self.quota = {s: 1 for s in self.schools}

    def menu(self):
        return self.schools + tuple(self.bundles)

    @cached_property
    def tree(self):
        """The bundle tree of the market, built on first use."""
        sets = {s: frozenset({s}) for s in self.schools}
        sets.update((bid, frozenset(members)) for bid, members in self.bundles.items())
        return BundleTree(self.quota, sets)


class Exp1Config(_ExperimentMarket):
    """Three students, schools A/B/C, payoff types A/B, random priority."""

    TREATMENTS = {
        "nobundle-one": ({}, 1),
        "indiff-bundle": ({"AB": ("A", "B")}, 1),
        "strict-bundle": ({"AC": ("A", "C")}, 1),
        "nobundle-two": ({}, 2),
    }
    exp = 1
    schools = ("A", "B", "C")
    n_students = 3
    types = ("A", "B")
    type_weights = {"A": HALF, "B": HALF}
    utilities = EXP1_UTILITIES

    def payoff(self, payoff_type, school):
        return self.utilities[payoff_type][school]


class Exp2Config(_ExperimentMarket):
    """Six students, schools A..F, common utilities, score priorities."""

    TREATMENTS = {
        "nobundle": ({}, 2),
        "indiff-bundle": ({"ABC": ("A", "B", "C")}, 2),
        "strict-bundle": ({"DEF": ("D", "E", "F")}, 2),
    }
    exp = 2
    schools = ("A", "B", "C", "D", "E", "F")
    n_students = 6
    utilities = EXP2_UTILITIES

    def payoff(self, _score, school):
        return self.utilities[school]


class StrategyProfile:
    """Maps private information to a (possibly mixed) rank-order list.

    Two kinds: "per-type" assigns each payoff type a list of
    (probability, ROL) branches; "by-rank" assigns a fixed ROL to each
    score rank (0 = highest score).  Probabilities are parsed exactly via
    `Fraction(str(p))`, integers directly, so exact expectations stay exact.
    """

    def __init__(self, kind, strategies):
        if kind not in ("per-type", "by-rank"):
            raise ValueError(f"unknown profile kind {kind!r}")
        self.kind = kind
        if kind == "per-type":
            self.strategies = {
                key: tuple(
                    (Fraction(p if type(p) is int else str(p)), tuple(rol))
                    for p, rol in branches
                )
                for key, branches in strategies.items()
            }
            for key, branches in self.strategies.items():
                if any(p.numerator < 0 for p, _ in branches):
                    raise ValueError(f"probabilities for {key!r} must not be negative")
                if sum(p for p, _ in branches) != 1:
                    raise ValueError(f"probabilities for {key!r} do not sum to 1")
        else:
            self.strategies = tuple(tuple(rol) for rol in strategies)

    def branches(self, payoff_type):
        """(probability, ROL) branches for a payoff type."""
        if self.kind != "per-type":
            raise ValueError("profile is not keyed by payoff type")
        return self.strategies[payoff_type]

    def rol_by_rank(self, rank):
        if self.kind != "by-rank":
            raise ValueError("profile is not keyed by score rank")
        return self.strategies[rank]

    def validate(self, config):
        if self.kind != ("per-type" if config.exp == 1 else "by-rank"):
            raise ValueError(
                f"experiment {config.exp} does not take a {self.kind} profile"
            )
        rols = []
        if self.kind == "per-type":
            if set(self.strategies) != set(config.types):
                raise ValueError(
                    "per-type profile must give a strategy for each payoff "
                    f"type {', '.join(config.types)} and no other"
                )
            for branches in self.strategies.values():
                rols += [rol for _, rol in branches]
        else:
            if len(self.strategies) != config.n_students:
                raise ValueError("by-rank profile must cover every score rank")
            rols = list(self.strategies)
        menu = set(config.menu())
        for rol in rols:
            if not rol or len(rol) > config.rol_length:
                raise ValueError(f"ROL {rol!r} violates the length limit")
            if len(set(rol)) != len(rol):
                raise ValueError(f"ROL {rol!r} repeats an option")
            for option in rol:
                if option not in menu:
                    raise ValueError(f"option {option!r} is not on the menu")
        return self


def equilibrium_profile(config):
    """The reported equilibrium profiles of the first experiment.

    These are the profiles the paper reports, one pure ROL per payoff type.
    `equilibrium_verify` confirms three of the four as best responses; under
    `indiff-bundle` listing the favourite school alone beats the joint listing.
    """
    if config.exp != 1:
        raise ValueError(
            "no closed-form equilibrium profile exists for experiment 2; "
            "supply a by-rank or per-type profile instead"
        )
    pure = {
        "nobundle-one": {"A": ("A",), "B": ("B",)},
        "indiff-bundle": {"A": ("AB",), "B": ("AB",)},
        "strict-bundle": {"A": ("A",), "B": ("B",)},
        "nobundle-two": {"A": ("A", "B"), "B": ("B", "A")},
    }[config.treatment]
    strategies = {t: [(1, rol)] for t, rol in pure.items()}
    return StrategyProfile("per-type", strategies).validate(config)


@dataclass
class OutcomeMetrics:
    avg_payoff: float = None
    match_rate: float = None
    mismatch_rate: float = None
    payoff_given_match: float = None
    envy_share: float = None
    payoff_loss: float = None
    rounds: int = None
    components: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)

    def __post_init__(self):
        for rate in (self.match_rate, self.mismatch_rate, self.envy_share,
                     self.payoff_loss):
            if rate is not None and not 0 <= rate <= 1:
                raise ValueError(f"rate {rate} out of [0,1]")

    def rows(self):
        """(metric, value) pairs for CSV emission, stable order."""
        names = ("avg_payoff", "match_rate", "mismatch_rate",
                 "payoff_given_match", "envy_share", "payoff_loss")
        return [(n, getattr(self, n)) for n in names if getattr(self, n) is not None]


def serial_admission(config, lists):
    """Bundle deferred acceptance under one common priority order.

    `lists[r]` is the list of the student ranked r (0 = first).  Each rank's
    entries are placed, in order, into the engines' `_Seats`, keyed by the
    rank.  Keys rise with rank, so a placement is admitted or refused and
    never displaces a holder: placing rank after rank is deferred acceptance
    under the common priority, which is serial dictatorship.
    Returns (held, free): held maps each seated rank to its school or bundle,
    in rank order; free maps each bundle to its schools with a seat still
    open for the within-bundle assignment.
    """
    tree = config.tree
    keys = {(r, option): r for r, entries in enumerate(lists) for option in entries}
    seats = _Seats(tree.quota, tree.chain, keys)
    for r, entries in enumerate(lists):
        for option in entries:
            if seats.place(r, option) is None:
                break
    free = {
        bid: tuple(s for s in members if len(seats.holders[s]) < tree.quota[s])
        for bid, members in config.bundles.items()
    }
    return seats.held, free


def _ranked_branches(config, lists, memo):
    """The seat branches of one tuple of lists in priority rank.

    `lists[r]` is the list of the student ranked r (0 = first).  Admission
    reads only the lists in priority order, so every round, priority order
    and student that puts the same lists in the same ranks shares this
    result: a round under order `order` seats student `order[r]` where rank
    r is seated.  Each bundle's admits, in rank order, take every ordered
    choice of its open seats with equal chance, and the bundles choose
    independently, in menu order.  Returns [(probability, {rank:
    school|None})], and runs admission once per tuple `memo` has not seen;
    the caller keeps `memo` for one call.
    """
    branches = memo.get(lists)
    if branches is None:
        held, free = serial_admission(config, lists)
        seated = {r: held.get(r) for r in range(len(lists))}  # bundles get seats below
        admits = []
        for bid in config.bundles:
            ranks = [r for r, option in held.items() if option == bid]
            if ranks:
                admits.append((ranks, list(permutations(free[bid], len(ranks)))))
        weight = Fraction(1, prod(len(choices) for _, choices in admits))
        branches = memo[lists] = []
        for combo in product(*(choices for _, choices in admits)):
            seats = dict(seated)
            for (ranks, _), schools in zip(admits, combo):
                seats.update(zip(ranks, schools))
            branches.append((weight, seats))
    return branches


def _exp1_seat_distribution(config, profile, rol, memo):
    """Student 0's exact (seat, priority position) distribution under `rol`.

    Everyone else draws a type fairly and plays the profile.  Admission reads
    lists, never payoff types, so one other student's (type, branch) draws
    fold into one weight per list.  The order is uniform, so student 0 holds
    each position with equal chance and the others' lists fill the other
    ranks in every arrangement.  Returns ({(seat, position): count}, total):
    integer weights over one common denominator, the `lcm` of the list
    weights' denominators to the power of the other students, times the
    positions, times `spread`.  A run's seat branches are equally likely; a
    bundle of m schools places its a admits on f <= m open seats in
    f!/(f - a)! ways, a divisor of m!, so their count divides `spread`.
    """
    marginal = {}
    for t in config.types:
        for p, other in profile.branches(t):
            marginal[other] = marginal.get(other, 0) + config.type_weights[t] * p
    scale = lcm(*(p.denominator for p in marginal.values()))
    weights = [(other, int(p * scale)) for other, p in marginal.items()]
    spread = prod(factorial(len(members)) for members in config.bundles.values())
    n = config.n_students
    counts = {}
    for combo in product(weights, repeat=n - 1):
        weight = prod(w for _, w in combo) * spread
        lists = tuple(other for other, _ in combo)
        for position in range(n):
            branches = _ranked_branches(
                config, lists[:position] + (rol,) + lists[position:], memo)
            for _, seats in branches:
                key = seats[position], position
                counts[key] = counts.get(key, 0) + weight // len(branches)
    return counts, scale ** (n - 1) * n * spread


def _exp1_price(config, payoff_type, distribution):
    """Expected payoff of a seat distribution to one payoff type."""
    counts, total = distribution
    return Fraction(sum(w * config.payoff(payoff_type, seat)
                        for (seat, _), w in counts.items()), total)


def exp1_exact_expectation(config, profile):
    """Exact group metrics over all randomness: every student draws a payoff
    type fairly and plays the profile.

    The students are exchangeable, so each round component is the group
    size times student 0's expected share, priced from her (seat, priority
    position) distribution under each list she may play.
    """
    profile.validate(config)
    memo, distributions = {}, {}
    totals = dict.fromkeys(EXP1_COMPONENTS, 0)
    for t in config.types:
        for p, rol in profile.branches(t):
            if rol not in distributions:
                distributions[rol] = _exp1_seat_distribution(config, profile, rol, memo)
            counts, total = distributions[rol]
            parts = ([w * x for x in _exp1_share(config.payoff(t, seat), seat, position)]
                     for (seat, position), w in counts.items())
            mass = config.type_weights[t] * p * config.n_students
            for name, share in zip(EXP1_COMPONENTS, map(sum, zip(*parts))):
                totals[name] += mass * Fraction(share, total)
    weight = totals["students"] / config.n_students
    if weight != 1:
        raise ValueError("terminal-state weights must sum to one")
    return _metrics(1, weight, totals)


def exp1_deviation_value(config, profile, deviant_type, deviant_rol):
    """Exact expected payoff to one student deviating from the profile.

    Prices student 0's seat distribution under the deviation list
    (`_exp1_seat_distribution`) for her payoff type.
    """
    profile.validate(config)
    if deviant_type not in config.types:
        raise ValueError(f"unknown payoff type {deviant_type!r} "
                         f"(expected one of {', '.join(config.types)})")
    deviant_rol = tuple(deviant_rol)
    deviation = {t: [(1, deviant_rol)] for t in config.types}
    StrategyProfile("per-type", deviation).validate(config)
    seats = _exp1_seat_distribution(config, profile, deviant_rol, {})
    return _exp1_price(config, deviant_type, seats)


def feasible_rols(config):
    """Every nonempty ROL the menu and list length allow, canonical order."""
    menu = config.menu()
    rols = []
    for length in range(1, config.rol_length + 1):
        rols += list(permutations(menu, length))
    return rols


def equilibrium_verify(config):
    """Best-response table for each payoff type against the equilibrium.

    Enumerates every feasible ROL, computes its exact deviation value, and
    reports whether the equilibrium strategy attains the maximum.  Each list
    is enumerated once: student 0's seat distribution under it does not
    depend on her payoff type, so it is priced for both types.  The lists
    share one admission memo.
    """
    profile = equilibrium_profile(config)
    memo = {}
    seats = {rol: _exp1_seat_distribution(config, profile, rol, memo)
             for rol in feasible_rols(config)}
    report = {"treatment": config.treatment, "types": {}, "confirmed": True}
    for t in config.types:
        (_, equilibrium_rol), = profile.branches(t)
        values = {rol: _exp1_price(config, t, dist) for rol, dist in seats.items()}
        best_value = max(values.values())
        best = sorted(rol for rol, v in values.items() if v == best_value)
        is_best = values[equilibrium_rol] == best_value
        report["types"][t] = {
            "equilibrium": equilibrium_rol,
            "equilibrium_value": values[equilibrium_rol],
            "best": best,
            "best_value": best_value,
            "values": values,
            "is_best_response": is_best,
        }
        report["confirmed"] = report["confirmed"] and is_best
    return report


def sample_scores(n, seed):
    """n pairwise-distinct integer scores, rounded normal(70,10) on [1,100].

    Out-of-range draws are resampled together, in index order, until all are
    in range; a within-group collision redraws the whole group.  `seed` may
    be an int or a Generator.  Draws are rounded half to even by Python's
    `round` and checked as a list: a six-student group is too small for
    numpy's per-call overhead to pay.

    `n` is at most `SCORE_GROUP_LIMIT` (25).  A group is redrawn until all
    its scores differ, about 1/P(all n distinct) times: some 2.8e4 times at
    n = 25, 7.1e4 at 26, 4.4e9 at 35 and 1.9e13 at 40.
    """
    if n > SCORE_GROUP_LIMIT:
        if n > 100:
            raise ValueError("cannot draw more than 100 distinct scores")
        raise ValueError(f"cannot draw more than {SCORE_GROUP_LIMIT} distinct scores "
                         "in one group: redrawing it until all differ takes too long")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _distinct_scores(n, rng.normal)


def _distinct_scores(n, normal):
    """The draws of `sample_scores` from `normal`, a Generator's `normal`
    or a `_normal_stream`."""
    while True:
        draw = list(map(round, normal(70.0, 10.0, n).tolist()))
        bad = [k for k, x in enumerate(draw) if not 1 <= x <= 100]
        while bad:
            for k, x in zip(bad, normal(70.0, 10.0, len(bad)).tolist()):
                draw[k] = round(x)
            bad = [k for k in bad if not 1 <= draw[k] <= 100]
        if len(set(draw)) == n:
            return tuple(draw)


def _normal_stream(rng, block):
    """`rng.normal` read from blocks of at least `block` draws, for callers
    that always pass the same mean and deviation.  `Generator.normal` draws
    the same values however a run of draws is split into calls."""
    buffer, start = np.empty(0), 0

    def normal(loc, scale, size):
        nonlocal buffer, start
        if start + size > len(buffer):
            fresh = rng.normal(loc, scale, max(block, size))
            buffer, start = np.concatenate((buffer[start:], fresh)), 0
        start += size
        return buffer[start - size:start]

    return normal


def _payoffs(config, types, seats):
    """Each student's payoff from her seat; `types` gives experiment-1
    payoff types by student, and is None in experiment 2."""
    return {i: config.payoff(None if types is None else types[i], seat)
            for i, seat in seats.items()}


def _round_record(config, types, priority, assignment, scores=None):
    """One round: priority (best first), seats and the payoff they give.

    Experiment-1 records keep the drawn payoff types, experiment-2 records
    the scores.
    """
    record = {
        "priority": tuple(priority),
        "assignment": dict(assignment),
        "payoffs": _payoffs(config, types, assignment),
    }
    if scores is not None:
        record["scores"] = dict(enumerate(scores))
    if types is not None:
        record["types"] = types
    return record


def _exp1_share(payoff, seat, position):
    """One student's share of an experiment-1 round's components, from her
    payoff, her seat and her priority position (0 = first)."""
    top2 = position < 2
    return payoff, 1, seat is not None, top2, top2 and seat not in ("A", "B")


def _exp1_contribution(priority, seats, payoffs):
    """An experiment-1 round's components: the sums of the students' shares."""
    shares = [_exp1_share(payoffs[i], seats[i], r) for r, i in enumerate(priority)]
    return tuple(zip(EXP1_COMPONENTS, map(sum, zip(*shares))))


def _exp2_contribution(priority, seats, payoffs):
    """An experiment-2 round's components; `priority` descends in score."""
    n = len(priority)
    envy = sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        if payoffs[priority[a]] < payoffs[priority[b]]
    )
    realized = sum(payoffs.values())
    taken = set(seats.values())
    free = [s for s in EXP2_UTILITIES if s is not None and s not in taken]
    potential = realized
    for i in priority:
        if seats[i] is None and free:
            best = max(free, key=EXP2_UTILITIES.get)
            potential += EXP2_UTILITIES[best]
            free.remove(best)
    return (
        ("payoff", realized),
        ("students", n),
        ("matched", sum(1 for s in seats.values() if s is not None)),
        ("envy", envy),
        ("pairs", n * (n - 1) // 2),
        ("potential", potential),
    )


def _fold(kind, rounds):
    """Weighted totals of the rounds' contributions, and the summed weight.

    `rounds` yields (count, priority, seats, payoffs).  Counts are summed per
    distinct contribution first, so each component is multiplied once per
    distinct contribution, not once per round.
    """
    contribution = _exp1_contribution if kind == 1 else _exp2_contribution
    weights = {}
    for count, priority, seats, payoffs in rounds:
        key = contribution(priority, seats, payoffs)
        weights[key] = weights.get(key, 0) + count
    totals = {}
    for key, weight in weights.items():
        for name, value in key:
            totals[name] = totals.get(name, 0) + weight * value
    return sum(weights.values()), totals


def _metrics(kind, weight, totals):
    """OutcomeMetrics from folded totals.

    Exact `Fraction` totals give the `exact` table and its floats; counted
    totals give float rates with the round count and the raw components.
    """
    if not weight:
        return OutcomeMetrics(rounds=0)
    exact = isinstance(weight, Fraction)

    def rate(numer, denom):
        if not denom:
            return Fraction(0) if exact else 0.0
        return numer / denom

    rates = {
        "avg_payoff": rate(totals["payoff"], totals["students"]),
        "match_rate": rate(totals["matched"], totals["students"]),
    }
    if kind == 1:
        rates["mismatch_rate"] = rate(totals["mismatch"], totals["top2"])
    rates["payoff_given_match"] = rate(totals["payoff"], totals["matched"])
    if kind == 2:
        rates["envy_share"] = rate(totals["envy"], totals["pairs"])
        rates["payoff_loss"] = 1 - rate(totals["payoff"], totals["potential"])
    if exact:
        return OutcomeMetrics(**{k: float(v) for k, v in rates.items()}, exact=rates)
    return OutcomeMetrics(**rates, rounds=weight, components=totals)


def compute_metrics(records, kind):
    """Aggregate per-round records into OutcomeMetrics.

    `kind` is 1 or 2.  Records need priority (best first), assignment, and
    payoffs; experiment-2 records use the common utility table for the
    unmatch payoff-loss decomposition, whose raw components are exposed.
    """
    if kind not in (1, 2):
        raise ValueError(f"unknown experiment kind {kind!r}")
    return _metrics(kind, *_fold(kind, (
        (1, record["priority"], record["assignment"], record["payoffs"])
        for record in records)))


def _cut_points(branches):
    """Float cut points and outcomes of (probability, outcome) branches."""
    probabilities, outcomes = zip(*branches)
    cuts = list(accumulate(float(p) for p in probabilities))
    cuts[-1] = 1.0
    return cuts, outcomes


def _pick_branches(cut_lists, keys, draws):
    """Each draw's branch under the cut points its key selects, and the width.

    A branch index is the number of cut points at or below the draw, which is
    what `bisect_right` returns; the padding at infinity is never counted.
    """
    width = max(map(len, cut_lists))
    table = np.full((len(cut_lists), width), np.inf)
    for k, cuts in enumerate(cut_lists):
        table[k, :len(cuts)] = cuts
    return (table[keys] <= draws[..., None]).sum(axis=-1), width


def _by_rank(rols_by_rank, scores):
    """Priority order by descending score, and each student's ROL by rank."""
    order = tuple(sorted(range(len(scores)), key=scores.__getitem__, reverse=True))
    rols = [None] * len(order)
    for rank, i in enumerate(order):
        rols[i] = tuple(rols_by_rank[rank])
    return order, tuple(rols)


def _exp1_cells(config, profile, rounds, rng):
    """Experiment-1 draws grouped into cells of (types, lists) by rank.

    A round's cell is its students' payoff types and lists read in priority
    order.  Returns the distinct cells, each round's cell index, each round's
    seat draw, and `replay(count)`, which yields the first `count` rounds'
    payoff types, priority orders and lists by student, rebuilt from the
    draws.
    """
    n = config.n_students
    perms = list(permutations(range(n)))
    type_draws = rng.integers(0, len(config.types), size=(rounds, n))
    branch_draws = rng.random((rounds, n))
    perm_draws = rng.integers(0, len(perms), size=rounds)
    seat_draws = rng.random(rounds)
    samplers = [_cut_points(profile.branches(t)) for t in config.types]
    branches, width = _pick_branches(
        [cuts for cuts, _ in samplers], type_draws, branch_draws)
    orders = np.array(perms)[perm_draws]
    dims = (len(config.types),) * n + (width,) * n
    codes = np.ravel_multi_index((*np.take_along_axis(type_draws, orders, 1).T,
                                  *np.take_along_axis(branches, orders, 1).T), dims)
    unique, cell_of = np.unique(codes, return_inverse=True)

    def cell(types, picks):
        return (tuple(config.types[k] for k in types),
                tuple(samplers[k][1][b] for k, b in zip(types, picks)))

    cells = [cell(index[:n], index[n:])
             for index in zip(*(part.tolist() for part in np.unravel_index(unique, dims)))]

    def replay(count):
        for types, picks, p in zip(type_draws[:count].tolist(), branches[:count].tolist(),
                                   perm_draws[:count].tolist()):
            types, rols = cell(types, picks)
            yield types, perms[p], rols, None

    return cells, cell_of, seat_draws, replay


def _exp2_cells(config, profile, rounds, rng):
    """Experiment 2 in rank space: every round is one cell.

    Priorities follow the scores and payoffs are common, so a round seen by
    score rank is always the by-rank ROLs under the identity priority.
    `replay` draws the logged rounds' scores after the seat draws, from one
    stream of the generator's normal draws.
    """
    n = config.n_students
    rols = tuple(tuple(profile.rol_by_rank(rank)) for rank in range(n))
    seat_draws = rng.random(rounds)

    def replay(count):
        normal = _normal_stream(rng, 2 * n * count)
        for _ in range(count):
            scores = _distinct_scores(n, normal)
            yield (None, *_by_rank(rols, scores), scores)

    return [(None, rols)], np.zeros(rounds, dtype=np.intp), seat_draws, replay


def simulate_rounds(config, profile, rounds, seed, log_cap=100):
    """Monte Carlo of independent group-rounds; reproducible from the seed.

    Returns (OutcomeMetrics, log) where the log keeps the first `log_cap`
    full round records.  Experiment 1 draws types, mixed-strategy branches,
    a uniform priority order, and the within-bundle assignment; experiment 2
    draws distinct scores and plays the by-rank profile with priorities
    descending in score.

    Rounds are folded by priority rank: a round's cell is its payoff types
    and lists in priority order, and admission runs once per distinct tuple
    of lists (`_ranked_branches`).  Rounds are counted per cell and seat
    branch, and each distinct (cell, branch) is folded once by its
    contribution, weighted by its count.  No experiment-2 metric reads a
    score, so all its rounds share one cell.  Logged rounds are rebuilt by
    student: experiment 1's from its draws, experiment 2's from scores drawn
    after the seat draws, as those rounds always drew them.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    profile.validate(config)
    rng = np.random.default_rng(seed)
    cells, cell_of, seat_draws, replay = (
        _exp1_cells if config.exp == 1 else _exp2_cells)(config, profile, rounds, rng)
    memo = {}
    tables = [_cut_points(_ranked_branches(config, lists, memo)) for _, lists in cells]
    branch_of, width = _pick_branches([cuts for cuts, _ in tables], cell_of, seat_draws)
    ranks = range(config.n_students)
    counted = []
    for code, count in enumerate(np.bincount(cell_of * width + branch_of).tolist()):
        if count:
            c, branch = divmod(code, width)
            seats = tables[c][1][branch]
            counted.append((count, ranks, seats, _payoffs(config, cells[c][0], seats)))
    metrics = _metrics(config.exp, *_fold(config.exp, counted))

    log = []
    logged = max(0, min(rounds, log_cap))
    for (types, priority, rols, scores), c, branch in zip(
            replay(logged), cell_of[:logged].tolist(), branch_of[:logged].tolist()):
        seats = tables[c][1][branch].values()
        record = _round_record(config, types, priority, dict(zip(priority, seats)), scores)
        record["rols"] = dict(enumerate(rols))
        log.append(record)
    return metrics, log


def play_fixed_round(config, rols_by_rank, scores):
    """Replay one experiment-2 round from fixed scores and by-rank ROLs.

    `scores` gives each student's score by index; they must be
    `n_students` distinct numbers.  Bundle admits with several open seats
    are enumerated, so the return is the list of (probability, record)
    branches; deterministic draws yield a single branch.
    """
    lists = StrategyProfile("by-rank", rols_by_rank).validate(config).strategies
    n = config.n_students
    if len(scores) == n:
        scores = [scores[i] for i in range(n)]
    if (len(scores) != n or len(set(scores)) != n
            or not all(isinstance(x, Real) for x in scores)):
        raise ValueError(f"scores must be {n} distinct numbers")
    order, rols = _by_rank(lists, scores)
    out = []
    for weight, seats in _ranked_branches(config, lists, {}):
        assignment = {order[r]: seat for r, seat in seats.items()}
        record = _round_record(config, None, order, assignment, scores)
        record["rols"] = dict(enumerate(rols))
        out.append((weight, record))
    return out


def round_instance(config, priority):
    """A validated model instance for one round's realized priority order.

    Students are named p1..pn in experiment index order; every school gets
    the round's common priority; bundles target everyone.
    """
    names = {i: f"p{i + 1}" for i in range(config.n_students)}
    order = [names[i] for i in priority]
    raw = {
        "students": list(names.values()),
        "schools": [
            {"id": s, "quota": config.quota[s], "priority": order}
            for s in config.schools
        ],
        "bundles": [
            {"id": bid, "schools": list(members), "targets": "all"}
            for bid, members in config.bundles.items()
        ],
        "rol_length": config.rol_length,
    }
    instance = validate_instance(raw)
    if isinstance(instance, ValidationReport):
        raise ValueError(f"bad experiment instance: {instance}")
    return instance


def experiment_rols_for_instance(rols):
    """Experiment ROLs ({index: options}) renamed for `round_instance`."""
    return {f"p{i + 1}": list(entries) for i, entries in rols.items()}


def experiment_matching_for_instance(instance, assignment):
    """Experiment seat assignment renamed into a model StandardMatching."""
    from .model import StandardMatching

    seats = {f"p{i + 1}": s for i, s in assignment.items()}
    return StandardMatching(instance, seats)
