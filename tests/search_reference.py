"""Reference exhaustive searches: the oracles and the seat enumerator as
recursive closures that try every node.

The package runs the same scans in the same order as loops over their
levels, so that their depth is not bounded by the recursion limit, and its
size-maximality searches stop below any node where no witness can lie.  The
searches here descend everywhere and judge each leaf by an `accept` test
alone; they return the same witnesses and seat assignments, and
`test_searches.py` compares the two.  Each function takes an optional `nodes`
list and appends one entry per node it visits.
"""

from bundlechoice import StandardMatching, check_bundle_stability
from bundlechoice.audit import _check_bound, _rol_rank
from bundlechoice.implementation import _bundle_pool, _stage_plan
from bundlechoice.model import UNMATCHED, _read_rols

DEFAULT_ORACLE_BOUND = 10**7


def search_assignments(instance, options, accept, nodes=None):
    """Backtrack over per-student bundle options with quota pruning; the
    first assignment in scan order satisfying `accept`, or None."""
    students = list(instance.students)
    remaining = {
        bid: instance.bundle_quota(bid) for bid in instance.bundle_order
    }
    assignment = {}

    def place(idx):
        if nodes is not None:
            nodes.append(idx)
        if idx == len(students):
            return dict(assignment) if accept(assignment) else None
        i = students[idx]
        for choice in options[i]:
            if choice is UNMATCHED:
                assignment[i] = UNMATCHED
                found = place(idx + 1)
                del assignment[i]
                if found:
                    return found
                continue
            sups = instance.tree.chain[choice]
            if any(remaining[sup] == 0 for sup in sups):
                continue
            for sup in sups:
                remaining[sup] -= 1
            assignment[i] = choice
            found = place(idx + 1)
            del assignment[i]
            for sup in sups:
                remaining[sup] += 1
            if found:
                return found
        return None

    return place(0)


def _larger_assignment(nu, rols, instance, bound, options_if_matched, nodes):
    instance = instance or nu.instance
    rol = _read_rols(instance, rols)
    matched = {i for i in instance.students if nu[i] in rol[i]}
    options = {
        i: options_if_matched(rol[i], nu[i]) if i in matched
        else [UNMATCHED, *rol[i]]
        for i in instance.students
    }
    _check_bound(options, bound)

    def accept(assignment):
        return any(
            assignment[i] is not UNMATCHED
            for i in instance.students
            if i not in matched
        )

    witness = search_assignments(instance, options, accept, nodes)
    return (witness is None), witness


def oracle_size_maximal(nu, rols, instance=None, bound=DEFAULT_ORACLE_BOUND,
                        nodes=None):
    return _larger_assignment(
        nu, rols, instance, bound, lambda rol, held: list(rol), nodes
    )


def oracle_pareto_undominated_size_maximal(
    nu, rols, instance=None, bound=DEFAULT_ORACLE_BOUND, nodes=None
):
    return _larger_assignment(
        nu, rols, instance, bound,
        lambda rol, held: list(rol[: rol.index(held) + 1]), nodes,
    )


def find_stable_pareto_improvement(
    nu, rols, instance=None, bound=DEFAULT_ORACLE_BOUND, nodes=None
):
    instance = instance or nu.instance
    rol = _read_rols(instance, rols)
    options = {}
    for i in instance.students:
        current = _rol_rank(rol[i], nu[i])
        weakly_better = list(rol[i][:current])
        if nu[i] is not UNMATCHED and nu[i] in rol[i]:
            weakly_better.append(nu[i])
        else:
            weakly_better.append(UNMATCHED)
        options[i] = weakly_better
    _check_bound(options, bound)

    def accept(assignment):
        if all(assignment[i] == nu[i] for i in instance.students):
            return False
        candidate = type(nu)(instance, assignment)
        return check_bundle_stability(candidate, rols).stable

    found = search_assignments(instance, options, accept, nodes)
    if found is None:
        return None
    return type(nu)(instance, found)


def enumerate_implementations(nu, cap=10000):
    """(matchings, truncated): every seat assignment realizing nu, or the
    first `cap` of them and True when there are more."""
    instance = nu.instance
    seats, free, ordered = _stage_plan(nu)
    roaming = [(i, bid) for bid, students in ordered for i in students]
    results = []
    truncated = False

    def place(idx):
        nonlocal truncated
        if len(results) >= cap:
            truncated = True
            return
        if idx == len(roaming):
            results.append(StandardMatching(instance, dict(seats)))
            return
        i, bid = roaming[idx]
        pool = _bundle_pool(instance, free, bid)
        if not pool:
            raise RuntimeError(f"no free seat left in bundle {bid}")
        for s in pool:
            seats[i] = s
            free[s] -= 1
            place(idx + 1)
            free[s] += 1
            seats[i] = None
        if truncated:
            return

    place(0)
    return results, truncated
