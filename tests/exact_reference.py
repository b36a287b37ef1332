"""Reference experiment-1 exact enumeration: every student, every order.

The package prices student 0's (seat, priority position) distribution, runs
one admission per distinct tuple of lists in priority rank and sums integer
weights over one common denominator.  The enumeration here is the one it
replaced: every tuple of the students' (type, report) draws, times every
priority order, times every seat branch of that run's admission, each a
terminal state weighted by a `Fraction` and folded as a round record.
`test_experiments.py` asserts that both give the same `Fraction`s.
"""

from fractions import Fraction
from itertools import permutations, product
from math import prod

from admission_reference import assignment_branches

from bundlechoice.experiments import _metrics


def round_record(config, types, priority, assignment):
    """One round: priority (best first), seats, payoffs and payoff types."""
    return {
        "priority": tuple(priority),
        "assignment": dict(assignment),
        "payoffs": {i: config.payoff(types[i], assignment[i])
                    for i in range(config.n_students)},
        "types": types,
    }


def contribution(record):
    """An experiment-1 round's metric components, read from its record."""
    return {
        "payoff": sum(record["payoffs"].values()),
        "students": len(record["assignment"]),
        "matched": sum(1 for s in record["assignment"].values() if s is not None),
        "top2": 2,
        "mismatch": sum(1 for i in record["priority"][:2]
                        if record["assignment"][i] not in ("A", "B")),
    }


def fold(pairs):
    """(summed weight, weighted totals) of (weight, record) pairs."""
    weights = {}
    for weight, record in pairs:
        key = tuple(contribution(record).items())
        weights[key] = weights.get(key, 0) + weight
    totals = {}
    for key, weight in weights.items():
        for name, value in key:
            totals[name] = totals.get(name, 0) + weight * value
    return sum(weights.values()), totals


def group(config, branches):
    """(weight, labels, priority order, assignment) of every terminal state,
    where `branches[k]` lists student k's (probability, label, ROL) draws."""
    orders = list(permutations(range(config.n_students)))
    for combo in product(*branches):
        weight = prod(p for p, _, _ in combo) / len(orders)
        labels = tuple(label for _, label, _ in combo)
        rols = {i: rol for i, (_, _, rol) in enumerate(combo)}
        for order in orders:
            for w, assignment in assignment_branches(config, rols, order):
                yield weight * w, labels, order, assignment


def exact_expectation(config, profile):
    """`exp1_exact_expectation` by enumerating every terminal state."""
    profile.validate(config)
    typed = [(config.type_weights[t] * p, t, rol)
             for t in config.types for p, rol in profile.branches(t)]
    weight, totals = fold(
        (w, round_record(config, types, order, assignment))
        for w, types, order, assignment
        in group(config, [typed] * config.n_students))
    assert weight == 1
    return _metrics(1, weight, totals)


def seat_distribution(config, profile, rol):
    """Student 0's exact {seat: probability} when she lists `rol` and the
    others draw a type fairly and play the profile."""
    marginal = {}
    for t in config.types:
        for p, other in profile.branches(t):
            marginal[other] = marginal.get(other, 0) + config.type_weights[t] * p
    others = [(p, None, other) for other, p in marginal.items()]
    seats = {}
    for w, _, _, assignment in group(
            config, [[(1, None, rol)]] + [others] * (config.n_students - 1)):
        seats[assignment[0]] = seats.get(assignment[0], 0) + w
    return seats


def deviation_value(config, profile, deviant_type, deviant_rol):
    """`exp1_deviation_value` priced from `seat_distribution`."""
    seats = seat_distribution(config, profile, tuple(deviant_rol))
    return sum((p * config.payoff(deviant_type, s) for s, p in seats.items()),
               Fraction(0))
