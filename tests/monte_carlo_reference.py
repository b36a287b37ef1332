"""Reference experiment-1 Monte Carlo: outcome cells in student space.

The package folds experiment-1 rounds by priority rank: a round is the
students' payoff types and lists read in priority order, under the identity
order.  The sampler here is the one it replaced.  It makes the same draws
from the same generator, groups the rounds into (types, lists, priority
order) cells by student, runs each cell's admission, picks each round's seat
branch from `np.cumsum` cut points and folds one round record per counted
(cell, branch).  `test_experiments.py` asserts that both give the same
components and the same log.
"""

from itertools import permutations

import numpy as np
from admission_reference import assignment_branches
from exact_reference import fold, round_record


def cut_points(branches):
    """Float cut points and outcomes of (probability, outcome) branches."""
    probabilities, outcomes = zip(*branches)
    cuts = np.cumsum([float(p) for p in probabilities]).tolist()
    cuts[-1] = 1.0
    return cuts, outcomes


def pick_branches(cut_lists, keys, draws):
    """Each draw's branch index under the cut points its key selects."""
    width = max(map(len, cut_lists))
    table = np.full((len(cut_lists), width), np.inf)
    for k, cuts in enumerate(cut_lists):
        table[k, :len(cuts)] = cuts
    return (table[keys] <= draws[..., None]).sum(axis=-1), width


def simulate_exp1(config, profile, rounds, seed, log_cap=100):
    """(components, log) of `simulate_rounds` on an experiment-1 config."""
    n = config.n_students
    rng = np.random.default_rng(seed)
    perms = list(permutations(range(n)))
    type_draws = rng.integers(0, len(config.types), size=(rounds, n))
    branch_draws = rng.random((rounds, n))
    perm_draws = rng.integers(0, len(perms), size=rounds)
    seat_draws = rng.random(rounds)
    samplers = [cut_points(profile.branches(t)) for t in config.types]
    branches, width = pick_branches([cuts for cuts, _ in samplers], type_draws,
                                    branch_draws)
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
    tables = [cut_points(assignment_branches(config, dict(enumerate(rols)), priority))
              for _, rols, priority in cells]
    branch_of, width = pick_branches([cuts for cuts, _ in tables], cell_of, seat_draws)
    counted = []
    for code, count in enumerate(np.bincount(cell_of * width + branch_of).tolist()):
        if count:
            c, branch = divmod(code, width)
            types, _, priority = cells[c]
            counted.append((count, round_record(config, types, priority,
                                                tables[c][1][branch])))
    _, components = fold(counted)
    log = []
    for r in range(min(rounds, log_cap)):
        types, rols, priority = cells[cell_of[r]]
        record = round_record(config, types, priority, tables[cell_of[r]][1][branch_of[r]])
        record["rols"] = dict(enumerate(rols))
        log.append(record)
    return components, log
