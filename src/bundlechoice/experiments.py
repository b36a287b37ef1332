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

import numpy as np

from .model import BundleTree, validate_instance

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
    """What both experiment configs share: the menu and the bundle tree."""

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

    def __init__(self, treatment):
        key = _canon(treatment)
        if key not in self.TREATMENTS:
            raise ValueError(f"unknown experiment-1 treatment {treatment!r}")
        self.exp = 1
        self.treatment = key
        self.schools = ("A", "B", "C")
        self.quota = {s: 1 for s in self.schools}
        self.bundles, self.rol_length = self.TREATMENTS[key]
        self.n_students = 3
        self.types = ("A", "B")
        self.type_weights = {"A": HALF, "B": HALF}
        self.utilities = EXP1_UTILITIES

    def payoff(self, payoff_type, school):
        return self.utilities[payoff_type][school]


class Exp2Config(_ExperimentMarket):
    """Six students, schools A..F, common utilities, score priorities."""

    TREATMENTS = {
        "nobundle": {},
        "indiff-bundle": {"ABC": ("A", "B", "C")},
        "strict-bundle": {"DEF": ("D", "E", "F")},
    }

    def __init__(self, treatment):
        key = _canon(treatment)
        if key not in self.TREATMENTS:
            raise ValueError(f"unknown experiment-2 treatment {treatment!r}")
        self.exp = 2
        self.treatment = key
        self.schools = ("A", "B", "C", "D", "E", "F")
        self.quota = {s: 1 for s in self.schools}
        self.bundles = self.TREATMENTS[key]
        self.rol_length = 2
        self.n_students = 6
        self.utilities = EXP2_UTILITIES

    def payoff(self, _score, school):
        return self.utilities[school]


class StrategyProfile:
    """Maps private information to a (possibly mixed) rank-order list.

    Two kinds: "per-type" assigns each payoff type a list of
    (probability, ROL) branches; "by-rank" assigns a fixed ROL to each
    score rank (0 = highest score).  Probabilities are parsed exactly via
    `Fraction(str(p))` so exact expectations stay exact.
    """

    def __init__(self, kind, strategies):
        if kind not in ("per-type", "by-rank"):
            raise ValueError(f"unknown profile kind {kind!r}")
        self.kind = kind
        if kind == "per-type":
            self.strategies = {
                key: tuple(
                    (Fraction(str(p)), tuple(rol)) for p, rol in branches
                )
                for key, branches in strategies.items()
            }
            for key, branches in self.strategies.items():
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
        rols = []
        if self.kind == "per-type":
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
            assert rate is None or 0 <= rate <= 1, f"rate {rate} out of [0,1]"

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
    tree = config.tree
    remaining = dict(tree.quota)
    outcome = {}
    holders = {bid: [] for bid in config.bundles}
    for i in order:
        outcome[i] = None
        for option in rols.get(i, ()):
            if remaining[option] >= 1:
                tree.admit(remaining, option)
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
        assert choices, f"bundle {bid} admitted more students than open seats"
        per_bundle.append((admitted, choices))
    if not per_bundle:
        yield Fraction(1), base
        return
    weight = Fraction(1)
    for _, choices in per_bundle:
        weight /= len(choices)
    for combo in product(*(choices for _, choices in per_bundle)):
        assignment = dict(base)
        for (admitted, _), schools in zip(per_bundle, combo):
            for i, s in zip(admitted, schools):
                assignment[i] = s
        yield weight, assignment


def _exp1_terminal_states(config, profile, fixed=None):
    """Weighted terminal states of one experiment-1 group.

    Yields (weight, types, priority order, assignment).  `fixed` optionally
    pins student 0's (type, ROL) for deviation values; everyone else draws
    a type fairly and plays the profile.
    """
    students = tuple(range(config.n_students))
    free_students = students if fixed is None else students[1:]
    perm_weight = Fraction(1, 6)
    for drawn in product(config.types, repeat=len(free_students)):
        types = ((fixed[0],) + drawn) if fixed is not None else drawn
        type_weight = Fraction(1)
        for t in drawn:
            type_weight *= config.type_weights[t]
        branch_sets = []
        for k, i in enumerate(students):
            if fixed is not None and i == 0:
                branch_sets.append(((Fraction(1), tuple(fixed[1])),))
            else:
                branch_sets.append(profile.branches(types[k]))
        for combo in product(*branch_sets):
            rol_weight = Fraction(1)
            for p, _ in combo:
                rol_weight *= p
            rols = {i: combo[k][1] for k, i in enumerate(students)}
            for order in permutations(students):
                for w, assignment in assignment_branches(config, rols, order):
                    yield (
                        type_weight * rol_weight * perm_weight * w,
                        types,
                        order,
                        assignment,
                    )


def _rate(numer, denom):
    return numer / denom if denom else Fraction(0)


def _frate(numer, denom):
    return numer / denom if denom else 0.0


def exp1_exact_expectation(config, profile):
    """Exact group metrics by full enumeration of all randomness."""
    profile.validate(config)
    n = config.n_students
    payoff_sum = Fraction(0)
    matched_sum = Fraction(0)
    mismatch_sum = Fraction(0)
    total = Fraction(0)
    for weight, types, order, assignment in _exp1_terminal_states(config, profile):
        total += weight
        payoff_sum += weight * sum(
            config.payoff(types[i], assignment[i]) for i in range(n)
        )
        matched_sum += weight * sum(
            1 for i in range(n) if assignment[i] is not None
        )
        mismatch_sum += weight * sum(
            1 for i in order[:2] if assignment[i] not in ("A", "B")
        )
    assert total == 1, "terminal-state weights must sum to one"
    exact = {
        "avg_payoff": payoff_sum / n,
        "match_rate": matched_sum / n,
        "mismatch_rate": mismatch_sum / 2,
        "payoff_given_match": _rate(payoff_sum, matched_sum),
    }
    return OutcomeMetrics(
        avg_payoff=float(exact["avg_payoff"]),
        match_rate=float(exact["match_rate"]),
        mismatch_rate=float(exact["mismatch_rate"]),
        payoff_given_match=float(exact["payoff_given_match"]),
        exact=exact,
    )


def exp1_deviation_value(config, profile, deviant_type, deviant_rol):
    """Exact expected payoff to one student deviating from the profile."""
    profile.validate(config)
    deviant_rol = tuple(deviant_rol)
    StrategyProfile("per-type", {deviant_type: [(1, deviant_rol)]}).validate(config)
    value = Fraction(0)
    for weight, types, _, assignment in _exp1_terminal_states(
        config, profile, fixed=(deviant_type, deviant_rol)
    ):
        value += weight * config.payoff(types[0], assignment[0])
    return value


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
    reports whether the equilibrium strategy attains the maximum.
    """
    profile = equilibrium_profile(config)
    report = {"treatment": config.treatment, "types": {}, "confirmed": True}
    for t in config.types:
        (_, equilibrium_rol), = profile.branches(t)
        values = {
            rol: exp1_deviation_value(config, profile, t, rol)
            for rol in feasible_rols(config)
        }
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

    Out-of-range draws are resampled one by one; a within-group collision
    redraws the whole group.  `seed` may be an int or a Generator.
    """
    if n > 100:
        raise ValueError("cannot draw more than 100 distinct scores")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    while True:
        draw = np.rint(rng.normal(70, 10, n)).astype(int)
        bad = (draw < 1) | (draw > 100)
        while bad.any():
            draw[bad] = np.rint(rng.normal(70, 10, int(bad.sum()))).astype(int)
            bad = (draw < 1) | (draw > 100)
        if len(set(draw.tolist())) == n:
            return tuple(int(x) for x in draw)


def _round_record(priority, assignment, payoffs, scores=None):
    record = {
        "priority": tuple(priority),
        "assignment": dict(assignment),
        "payoffs": dict(payoffs),
    }
    if scores is not None:
        record["scores"] = dict(scores)
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


def compute_metrics(records, kind):
    """Aggregate per-round records into OutcomeMetrics.

    `kind` is 1 or 2.  Records need priority (best first), assignment, and
    payoffs; experiment-2 records use the common utility table for the
    unmatch payoff-loss decomposition, whose raw components are exposed.
    """
    if kind not in (1, 2):
        raise ValueError(f"unknown experiment kind {kind!r}")
    totals = {}
    count = 0
    for record in records:
        count += 1
        part = _exp1_contribution(record) if kind == 1 else _exp2_contribution(record)
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
    if not count:
        return OutcomeMetrics(rounds=0)
    return _metrics_from_totals(totals, count, kind)


def _metrics_from_totals(totals, count, kind):
    common = {
        "avg_payoff": _frate(totals["payoff"], totals["students"]),
        "match_rate": _frate(totals["matched"], totals["students"]),
        "payoff_given_match": _frate(totals["payoff"], totals["matched"]),
        "rounds": count,
        "components": totals,
    }
    if kind == 1:
        return OutcomeMetrics(
            mismatch_rate=_frate(totals["mismatch"], totals["top2"]), **common
        )
    return OutcomeMetrics(
        envy_share=_frate(totals["envy"], totals["pairs"]),
        payoff_loss=1 - _frate(totals["payoff"], totals["potential"]),
        **common,
    )


class _OutcomeTable:
    """Lazily enumerated outcome distribution per (ROLs, priority) key.

    Each cell stores cumulative branch probabilities and the matching of
    every branch, so Monte Carlo rounds reduce to one uniform draw.
    """

    def __init__(self, config):
        self.config = config
        self.cells = {}

    def cell(self, rols_key, order):
        key = (rols_key, order)
        hit = self.cells.get(key)
        if hit is None:
            rols = dict(zip(range(self.config.n_students), rols_key))
            branches = list(assignment_branches(self.config, rols, order))
            cuts = np.cumsum([float(w) for w, _ in branches])
            cuts[-1] = 1.0
            hit = self.cells[key] = (cuts, [a for _, a in branches])
        return hit

    def draw(self, rols_key, order, u):
        cuts, assignments = self.cell(rols_key, order)
        return assignments[int(np.searchsorted(cuts, u, side="right"))]


def _profile_sampler(config, profile):
    """Per-type branch cut points for fast mixed-strategy sampling."""
    table = {}
    for t in getattr(config, "types", ()):
        branches = profile.branches(t)
        cuts = np.cumsum([float(p) for p, _ in branches])
        cuts[-1] = 1.0
        table[t] = (cuts, [rol for _, rol in branches])
    return table


def simulate_rounds(config, profile, rounds, seed, log_cap=100):
    """Monte Carlo of independent group-rounds; reproducible from the seed.

    Returns (OutcomeMetrics, log) where the log keeps the first `log_cap`
    full round records.  Experiment 1 draws types, mixed-strategy branches,
    a uniform priority order, and the within-bundle assignment; experiment 2
    draws distinct scores and plays the by-rank profile with priorities
    descending in score.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    profile.validate(config)
    rng = np.random.default_rng(seed)
    students = tuple(range(config.n_students))
    table = _OutcomeTable(config)
    totals = {}
    count = 0
    log = []

    def accumulate(record):
        nonlocal count
        count += 1
        part = (
            _exp1_contribution(record)
            if config.exp == 1
            else _exp2_contribution(record)
        )
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
        if len(log) < log_cap:
            log.append(record)

    if config.exp == 1:
        sampler = _profile_sampler(config, profile)
        perms = list(permutations(students))
        type_draws = rng.integers(0, len(config.types), size=(rounds, len(students)))
        branch_draws = rng.random((rounds, len(students)))
        perm_draws = rng.integers(0, len(perms), size=rounds)
        seat_draws = rng.random(rounds)
        for r in range(rounds):
            types = tuple(config.types[k] for k in type_draws[r])
            rols = []
            for k, t in enumerate(types):
                cuts, options = sampler[t]
                rols.append(options[int(np.searchsorted(cuts, branch_draws[r, k], side="right"))])
            order = perms[perm_draws[r]]
            assignment = table.draw(tuple(rols), order, seat_draws[r])
            payoffs = {
                i: config.payoff(types[i], assignment[i]) for i in students
            }
            record = _round_record(order, assignment, payoffs)
            record["types"] = types
            record["rols"] = {i: rols[i] for i in students}
            accumulate(record)
    else:
        seat_draws = rng.random(rounds)
        for r in range(rounds):
            scores = sample_scores(config.n_students, rng)
            order = tuple(
                sorted(students, key=lambda i: -scores[i])
            )
            rols = [None] * len(students)
            for rank, i in enumerate(order):
                rols[i] = tuple(profile.rol_by_rank(rank))
            assignment = table.draw(tuple(rols), order, seat_draws[r])
            payoffs = {i: config.payoff(None, assignment[i]) for i in students}
            record = _round_record(
                order, assignment, payoffs, scores={i: scores[i] for i in students}
            )
            record["rols"] = {i: rols[i] for i in students}
            accumulate(record)

    return _metrics_from_totals(totals, count, config.exp), log


def play_fixed_round(config, rols_by_rank, scores):
    """Replay one experiment-2 round from fixed scores and by-rank ROLs.

    Bundle admits with several open seats are enumerated, so the return is
    the list of (probability, record) branches; deterministic draws yield a
    single branch.
    """
    students = tuple(range(config.n_students))
    scores = {i: scores[i] for i in students}
    order = tuple(sorted(students, key=lambda i: -scores[i]))
    rols = {i: tuple(rols_by_rank[rank]) for rank, i in enumerate(order)}
    out = []
    for weight, assignment in assignment_branches(config, rols, order):
        payoffs = {i: config.payoff(None, assignment[i]) for i in students}
        record = _round_record(order, assignment, payoffs, scores=scores)
        record["rols"] = rols
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
    assert not hasattr(instance, "problems"), f"bad experiment instance: {instance}"
    return instance


def experiment_rols_for_instance(rols):
    """Experiment ROLs ({index: options}) renamed for `round_instance`."""
    return {f"p{i + 1}": list(entries) for i, entries in rols.items()}


def experiment_matching_for_instance(instance, assignment):
    """Experiment seat assignment renamed into a model StandardMatching."""
    from .model import StandardMatching

    seats = {f"p{i + 1}": s for i, s in assignment.items()}
    return StandardMatching(instance, seats)
