"""Brute-force manipulation oracle for small bundle-choice markets.

Independent of the product package, like `stability_oracle.py`: it sees a
market only through plain data and a clearing callable, and asks whether any
student gains by submitting some other list.  Unlike the package's
`property_truthtelling`, which only reorders a student's own entries, it
tries every list of up to `rol_length` distinct entries from the student's
menu.

Representation (as in `stability_oracle.py`):

bundles:  {frozenset_of_school_ids: set_of_target_students}  (trivials included)
rols:     {student: tuple of frozensets}  (each entry a bundle key)
clear:    callable rols -> matching {student: frozenset or None}
"""

import itertools

from stability_oracle import prefers


def profitable_misreports(bundles, rols, rol_length, clear):
    """Every (student, submitted list, bundle won) that beats the truth.

    A student's submitted list is her true preference: a misreport gains
    when it wins a bundle that list ranks strictly above her truthful
    outcome.  Such a bundle must appear in the misreport, so lists naming
    none of them are skipped.
    """
    truthful = clear(rols)
    found = []
    for i, truth in rols.items():
        better = {b for b in truth if prefers(truth, b, truthful[i])}
        if not better:
            continue
        menu = [b for b, targets in bundles.items() if i in targets]
        for length in range(1, rol_length + 1):
            for lie in itertools.permutations(menu, length):
                if better.isdisjoint(lie):
                    continue
                won = clear({**rols, i: lie})[i]
                if prefers(truth, won, truthful[i]):
                    found.append((i, lie, won))
    return found
