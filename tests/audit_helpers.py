"""Helpers only the tests use: the weak order a ROL induces over schools,
and the deduplicated envy pairs of a stability verdict."""

from bundlechoice import UNMATCHED


class InducedPreference:
    """Weak order over schools read off a ROL by first occurrence.

    Schools first appearing in the same ROL entry are indifferent; schools
    never appearing are unacceptable (worse than staying unmatched).
    """

    def __init__(self, classes):
        self.classes = tuple(frozenset(c) for c in classes)
        self._rank = {}
        for level, cls in enumerate(self.classes):
            for s in cls:
                self._rank[s] = level

    def rank_of(self, school):
        """Indifference-class index (0 = best); None if unacceptable."""
        if school is UNMATCHED:
            return len(self.classes)
        return self._rank.get(school)

    def acceptable(self, school):
        return school in self._rank

    def strictly_prefers(self, a, b):
        """True if school a beats school/unmatched b (None = unmatched)."""
        ra = self.rank_of(a)
        if ra is None:
            return False
        rb = self.rank_of(b)
        if rb is None:
            rb = len(self.classes)
        return ra < rb


def induced_preference(rol_entries, instance):
    """Build the first-occurrence weak order for one student's ROL."""
    seen = set()
    classes = []
    for bid in rol_entries:
        fresh = instance.bundles[bid].schools - seen
        if fresh:
            classes.append(fresh)
            seen |= fresh
    return InducedPreference(classes)


class EnvyPairReport:
    """Deduplicated ordered envy pairs with the first witnessing case."""

    def __init__(self, verdict):
        pairs = {}
        for violation in verdict.violations:
            if violation[0] != "envy":
                continue
            i, j = violation[1], violation[2]
            pairs.setdefault((i, j), violation[-1])
        self.pairs = tuple((i, j, case) for (i, j), case in pairs.items())

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)
