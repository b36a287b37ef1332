"""Reference experiment admission: quota arithmetic in student space.

The package seats an experiment round through the engines' `_Seats`, once
per tuple of lists in priority rank.  The admission here is the one it
replaced: students are processed in a given priority order, each takes the
best listed option whose chain still has a seat left, counted down per
bundle, and bundle admits are then enumerated over the open seats of their
bundle.  `test_experiments.py`, `exact_reference.py` and
`monte_carlo_reference.py` compare the package against it.
"""

from fractions import Fraction
from itertools import permutations, product


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

