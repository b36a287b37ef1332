"""Reference bundle tree: containment found by comparing every pair of bundles.

The package builds `BundleTree` from the bundles containing each school,
sorted by size, and reads every bundle's chain off one school's list.  The
build here tests every bundle's school set against every other one's, as the
package did before; `test_model.py` checks that the two agree, orders
included, on the fixtures, the experiment markets and random markets.
"""


class ReferenceTree:
    """`chain`, `descendants`, `roots`, `root` and `quota` by pairwise scan."""

    def __init__(self, quotas, school_sets):
        self.quota = {
            b: sum(quotas[s] for s in schools) for b, schools in school_sets.items()
        }
        up = {b: [] for b in school_sets}
        down = {b: [] for b in school_sets}
        for a, outer in school_sets.items():
            for b, inner in school_sets.items():
                if inner <= outer:
                    up[b].append(a)
                    down[a].append(b)
        self.chain = {
            b: tuple(sorted(chain, key=lambda a: len(school_sets[a])))
            for b, chain in up.items()
        }
        self.descendants = {b: tuple(below) for b, below in down.items()}
        self.roots = tuple(b for b, chain in up.items() if len(chain) == 1)
        self.root = {d: r for r in self.roots for d in down[r]}


def layout(tree):
    """Every field of a tree as item lists, so comparing sees dict order."""
    return [list(tree.quota.items()), list(tree.chain.items()),
            list(tree.descendants.items()), tree.roots, list(tree.root.items())]
