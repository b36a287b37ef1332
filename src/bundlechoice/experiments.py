"""Lab-style school-choice experiments: exact expectations and Monte Carlo.

Two environments are modeled.  The first is a three-student, three-school
market (schools A, B, C, one seat each) with two payoff types and a uniform
random priority order drawn after submission; treatments vary the menu
(bundle AB, bundle AC, or no bundle) and the list length (one or two).  The
second is a six-student, six-school market (A..F, one seat each) with common
utilities, integer exam scores drawn from a rounded normal(70, 10) on
[1, 100], priorities descending in score, and two-slot lists; treatments add
bundle ABC or DEF.

Admission follows the experimental instructions literally: students are
processed in priority order, each takes her best listed option that still
has a slot, a bundle's slots equal the total seats of its schools and are
consumed both by bundle admits and by individual admits inside it (a bundle
reaching zero blocks its schools outright), and bundle admits are assigned
to the remaining seats inside their bundle uniformly at random at the end.

Exact expectations enumerate every source of randomness with `Fraction`
weights; the Monte Carlo sampler draws from the same enumerated outcome
distributions, so the two agree by construction up to sampling error.
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import permutations, product
from math import prod

import numpy as np

from .model import BundleTree, ValidationReport, validate_instance

EXP1_UTILITIES = {
    "A": {"A": 110, "B": 100, "C": 20, None: 0},
    "B": {"B": 110, "A": 100, "C": 20, None: 0},
}
EXP2_UTILITIES = {
    "D": 80, "A": 50, "B": 45, "C": 40, "E": 30, "F": 20, None: 0,
}

HALF = Fraction(1, 2)


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


def serial_admission(config, rols, order):
    """Process students in priority order, each taking her best open option.

    Returns (outcome, holders, free) where outcome maps student -> school id,
    bundle id, or None; holders maps bundle id -> admitted students in order;
    free maps bundle id -> schools whose seat is still open for the final
    within-bundle assignment.
    """
    chains = config.tree.chain
    left = dict(config.tree.quota)
    outcome = {}
    holders = {bid: [] for bid in config.bundles}
    for i in order:
        outcome[i] = None
        for option in rols.get(i, ()):
            chain = chains[option]
            if all(map(left.get, chain)):  # no bundle around it is full
                for a in chain:
                    left[a] -= 1
                if option in holders:
                    holders[option].append(i)
                outcome[i] = option
                break
    seated = list(outcome.values())
    free = {
        bid: tuple(s for s in members if config.quota[s] > seated.count(s))
        for bid, members in config.bundles.items()
    }
    return outcome, holders, free


def assignment_branches(config, rols, order):
    """Every final seat assignment of one admission run, with probabilities.

    Enumerates the uniform within-bundle assignments of bundle admits to the
    open seats of their bundle; yields (probability, {student: school|None}).
    """
    outcome, holders, free = serial_admission(config, rols, order)
    base = {
        i: (opt if opt not in config.bundles else None)
        for i, opt in outcome.items()
    }
    per_bundle = []
    for bid, admitted in holders.items():
        if not admitted:
            continue
        choices = list(permutations(free[bid], len(admitted)))
        if not choices:
            raise ValueError(f"bundle {bid} admitted more students than open seats")
        per_bundle.append((admitted, choices))
    weight = Fraction(1)
    for _, choices in per_bundle:
        weight /= len(choices)
    for combo in product(*(choices for _, choices in per_bundle)):
        assignment = dict(base)
        for (admitted, _), schools in zip(per_bundle, combo):
            for i, s in zip(admitted, schools):
                assignment[i] = s
        yield weight, assignment


def _exp1_terminal_states(config, profile):
    """Weighted terminal states of one experiment-1 group.

    Yields (weight, types, priority order, assignment): every student draws
    a type fairly and plays the profile.
    """
    students = tuple(range(config.n_students))
    orders = list(permutations(students))
    type_sets = [[(config.type_weights[t], t) for t in config.types]] * len(students)
    for typed in product(*type_sets):
        types = tuple(t for _, t in typed)
        for combo in product(*(profile.branches(t) for t in types)):
            weight = prod(p for p, _ in typed + combo) / len(orders)
            rols = {i: rol for i, (_, rol) in zip(students, combo)}
            for order in orders:
                for w, assignment in assignment_branches(config, rols, order):
                    yield weight * w, types, order, assignment


def exp1_exact_expectation(config, profile):
    """Exact group metrics by full enumeration of all randomness."""
    profile.validate(config)
    weight, totals = _fold(1, (
        (w, _round_record(config, types, order, assignment))
        for w, types, order, assignment in _exp1_terminal_states(config, profile)
    ))
    if weight != 1:
        raise ValueError("terminal-state weights must sum to one")
    return _metrics(1, weight, totals)


def _exp1_seat_distribution(config, profile, rol):
    """Student 0's exact seat distribution when she lists `rol`.

    Everyone else draws a type fairly and plays the profile.  Admission reads
    lists, never payoff types, so one other student's (type, branch) draws
    fold into one weight per list, and the group's into one weight per tuple
    of the others' lists; each tuple then runs once per priority order and
    seat branch.  The result serves every payoff type of student 0.
    """
    marginal = {}
    for t in config.types:
        for p, other in profile.branches(t):
            marginal[other] = marginal.get(other, 0) + config.type_weights[t] * p
    orders = list(permutations(range(config.n_students)))
    seats = {}
    for combo in product(marginal.items(), repeat=config.n_students - 1):
        weight = prod(p for _, p in combo) / len(orders)
        rols = dict(enumerate((rol,) + tuple(other for other, _ in combo)))
        for order in orders:
            for w, assignment in assignment_branches(config, rols, order):
                seats[assignment[0]] = seats.get(assignment[0], 0) + weight * w
    return seats


def _exp1_price(config, payoff_type, seats):
    """Expected payoff of a seat distribution to one payoff type."""
    return sum((p * config.payoff(payoff_type, s) for s, p in seats.items()), Fraction(0))


def exp1_deviation_value(config, profile, deviant_type, deviant_rol):
    """Exact expected payoff to one student deviating from the profile.

    Prices student 0's seat distribution under the deviation list
    (`_exp1_seat_distribution`) for her payoff type.
    """
    profile.validate(config)
    deviant_rol = tuple(deviant_rol)
    deviation = {t: [(1, deviant_rol)] for t in config.types}
    StrategyProfile("per-type", deviation).validate(config)
    seats = _exp1_seat_distribution(config, profile, deviant_rol)
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
    depend on her payoff type, so it is priced for both types.
    """
    profile = equilibrium_profile(config)
    seats = {rol: _exp1_seat_distribution(config, profile, rol)
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
    """
    if n > 100:
        raise ValueError("cannot draw more than 100 distinct scores")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    while True:
        draw = [round(x) for x in rng.normal(70.0, 10.0, n).tolist()]
        bad = [k for k, x in enumerate(draw) if not 1 <= x <= 100]
        while bad:
            for k, x in zip(bad, rng.normal(70.0, 10.0, len(bad)).tolist()):
                draw[k] = round(x)
            bad = [k for k in bad if not 1 <= draw[k] <= 100]
        if len(set(draw)) == n:
            return tuple(draw)


def _round_record(config, types, priority, assignment, scores=None):
    """One round: priority (best first), seats and the payoff they give.

    Experiment-1 records keep the drawn payoff types, experiment-2 records
    the scores.
    """
    record = {
        "priority": tuple(priority),
        "assignment": dict(assignment),
        "payoffs": {
            i: config.payoff(None if types is None else types[i], assignment[i])
            for i in range(config.n_students)
        },
    }
    if scores is not None:
        record["scores"] = dict(enumerate(scores))
    if types is not None:
        record["types"] = types
    return record


def _exp1_contribution(record):
    matched = sum(1 for s in record["assignment"].values() if s is not None)
    mismatch = sum(
        1 for i in record["priority"][:2]
        if record["assignment"][i] not in ("A", "B")
    )
    return {
        "payoff": sum(record["payoffs"].values()),
        "students": len(record["assignment"]),
        "matched": matched,
        "top2": 2,
        "mismatch": mismatch,
    }


def _exp2_contribution(record):
    order = record["priority"]  # descending score
    payoffs = record["payoffs"]
    envy = sum(
        1
        for a in range(len(order))
        for b in range(a + 1, len(order))
        if payoffs[order[a]] < payoffs[order[b]]
    )
    realized = sum(payoffs.values())
    free = [
        s
        for s in EXP2_UTILITIES
        if s is not None and s not in record["assignment"].values()
    ]
    potential = realized
    for i in order:
        if record["assignment"][i] is None and free:
            best = max(free, key=EXP2_UTILITIES.get)
            potential += EXP2_UTILITIES[best]
            free.remove(best)
    matched = sum(1 for s in record["assignment"].values() if s is not None)
    pairs = len(order) * (len(order) - 1) // 2
    return {
        "payoff": realized,
        "students": len(order),
        "matched": matched,
        "envy": envy,
        "pairs": pairs,
        "potential": potential,
    }


def _fold(kind, pairs):
    """Weighted totals of the rounds' contributions, and the summed weight.

    `pairs` yields (weight, record): a count of rounds, or an exact
    `Fraction` weighting an enumerated terminal state.  Weights are summed
    per distinct contribution first, so each component is multiplied once
    per distinct contribution, not once per record.
    """
    contribution = _exp1_contribution if kind == 1 else _exp2_contribution
    weights = {}
    for weight, record in pairs:
        key = tuple(contribution(record).items())
        weights[key] = weights.get(key, 0) + weight
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
    return _metrics(kind, *_fold(kind, ((1, record) for record in records)))


def _cut_points(branches):
    """Float cut points and outcomes of (probability, outcome) branches."""
    probabilities, outcomes = zip(*branches)
    cuts = np.cumsum([float(p) for p in probabilities]).tolist()
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
    order = tuple(sorted(range(len(scores)), key=lambda i: -scores[i]))
    rols = [None] * len(order)
    for rank, i in enumerate(order):
        rols[i] = tuple(rols_by_rank[rank])
    return order, tuple(rols)


def _exp1_cells(config, profile, rounds, rng):
    """Experiment-1 draws grouped into (types, ROLs, priority) cells.

    Returns the distinct cells, each round's cell index and each round's
    seat draw.
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
    dims = (len(config.types),) * n + (width,) * n + (len(perms),)
    codes = np.ravel_multi_index((*type_draws.T, *branches.T, perm_draws), dims)
    unique, cell_of = np.unique(codes, return_inverse=True)
    cells = []
    for index in zip(*(part.tolist() for part in np.unravel_index(unique, dims))):
        types, picks = index[:n], index[n:2 * n]
        cells.append((
            tuple(config.types[k] for k in types),
            tuple(samplers[k][1][b] for k, b in zip(types, picks)),
            perms[index[-1]],
        ))
    return cells, cell_of, seat_draws


def _exp2_cells(config, profile, rounds, rng):
    """Experiment 2 in rank space: every round is one cell.

    Priorities follow the scores and payoffs are common, so a round seen by
    score rank is always the by-rank ROLs under the identity priority.
    """
    n = config.n_students
    rols = tuple(tuple(profile.rol_by_rank(rank)) for rank in range(n))
    seat_draws = rng.random(rounds)
    return [(None, rols, tuple(range(n)))], np.zeros(rounds, dtype=np.intp), seat_draws


def simulate_rounds(config, profile, rounds, seed, log_cap=100):
    """Monte Carlo of independent group-rounds; reproducible from the seed.

    Returns (OutcomeMetrics, log) where the log keeps the first `log_cap`
    full round records.  Experiment 1 draws types, mixed-strategy branches,
    a uniform priority order, and the within-bundle assignment; experiment 2
    draws distinct scores and plays the by-rank profile with priorities
    descending in score.

    Rounds are counted per outcome cell (types, ROLs and priority) and per
    seat branch of the cell, and each distinct (cell, branch) is folded
    once, weighted by its count.  Experiment 2 is folded in rank space: no
    metric reads a score, so all its rounds share one cell, and scores are
    drawn only for the logged rounds, after the seat draws, as those rounds
    always drew them.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    profile.validate(config)
    rng = np.random.default_rng(seed)
    cells, cell_of, seat_draws = (_exp1_cells if config.exp == 1 else _exp2_cells)(
        config, profile, rounds, rng
    )
    seats = {}
    for _, rols, priority in cells:
        if (rols, priority) not in seats:
            seats[rols, priority] = _cut_points(
                assignment_branches(config, dict(enumerate(rols)), priority))
    tables = [seats[rols, priority] for _, rols, priority in cells]
    branch_of, width = _pick_branches(
        [cuts for cuts, _ in tables], cell_of, seat_draws)
    counted = []
    for code, count in enumerate(np.bincount(cell_of * width + branch_of).tolist()):
        if count:
            c, branch = divmod(code, width)
            types, _, priority = cells[c]
            record = _round_record(config, types, priority, tables[c][1][branch])
            counted.append((count, record))
    metrics = _metrics(config.exp, *_fold(config.exp, counted))

    log = []
    for r in range(min(rounds, log_cap)):
        c = cell_of[r]
        types, rols, priority = cells[c]
        assignment = tables[c][1][branch_of[r]]
        scores = None
        if config.exp == 2:
            scores = sample_scores(config.n_students, rng)
            priority, rols = _by_rank(rols, scores)
            assignment = {i: assignment[rank] for rank, i in enumerate(priority)}
        record = _round_record(config, types, priority, assignment, scores)
        record["rols"] = dict(enumerate(rols))
        log.append(record)
    return metrics, log


def play_fixed_round(config, rols_by_rank, scores):
    """Replay one experiment-2 round from fixed scores and by-rank ROLs.

    Bundle admits with several open seats are enumerated, so the return is
    the list of (probability, record) branches; deterministic draws yield a
    single branch.
    """
    scores = [scores[i] for i in range(config.n_students)]
    order, rols = _by_rank(rols_by_rank, scores)
    branches = assignment_branches(config, dict(enumerate(rols)), order)
    out = []
    for weight, assignment in branches:
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
