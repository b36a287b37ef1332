"""Independent checks of the program's outputs, one set per workload.

Every expected value here is computed from the input documents alone, by
the package-free oracles in `tests/` (`stability_oracle`, `exp1_oracle`)
or by this file's own serial admission for experiment 2.  Nothing here
imports `bundlechoice`, and no expected value is a stored copy of an
earlier output.  Each function returns a list of problems (strings); an
empty list means the output passed.
"""

import functools
import itertools
import math
from fractions import Fraction

import exp1_oracle
import stability_oracle

# A correct sampler lands outside 6 standard errors with probability about
# 2e-9 per figure (normal tails), so a run checking a few thousand figures
# reports a false failure with probability below 1e-5.
MC_TOLERANCE_SE = 6.0


# --------------------------------------------------------------------------
# bundle markets (district and small_markets)
# --------------------------------------------------------------------------


class Market:
    """An instance and ROL document in the oracle's plain representation."""

    def __init__(self, instance_doc, rols_doc):
        self.students = list(instance_doc["students"])
        everyone = set(self.students)
        self.quota = {s["id"]: s["quota"] for s in instance_doc["schools"]}
        self.schools = {
            s["id"]: (s["quota"], tuple(s["priority"]))
            for s in instance_doc["schools"]
        }
        self.key = {sid: frozenset([sid]) for sid in self.schools}
        self.bundles = {frozenset([sid]): everyone for sid in self.schools}
        for b in instance_doc.get("bundles", []):
            key = frozenset(b["schools"])
            self.key[b["id"]] = key
            self.bundles[key] = (
                everyone if b["targets"] == "all" else set(b["targets"])
            )
        self.rol_ids = {i: list(rols_doc["rols"].get(i, [])) for i in self.students}
        self.rols = {
            i: tuple(self.key[b] for b in entries)
            for i, entries in self.rol_ids.items()
        }

    def bundle_key(self, bundle_id):
        return None if bundle_id is None else self.key[bundle_id]

    def matching(self, assignment):
        """{student: bundle id or None} -> the oracle's {student: key}."""
        return {i: self.bundle_key(assignment.get(i)) for i in self.students}


def feasibility_problems(market, assignment, seats):
    """Quotas, ROLs, targets and seats of one bundle matching and seating.

    `assignment` maps students to bundle ids (or None) and `seats` maps
    students to schools (or None); both come from a result document.
    """
    problems = []
    for i in market.students:
        bid = assignment.get(i)
        if bid is None:
            if seats.get(i) is not None:
                problems.append(f"{i} is unmatched but seated at {seats[i]}")
            continue
        if bid not in market.key:
            problems.append(f"{i} assigned to unknown bundle {bid}")
            continue
        if bid not in market.rol_ids[i]:
            problems.append(f"{i} assigned to {bid}, which is not on the ROL")
        if i not in market.bundles[market.key[bid]]:
            problems.append(f"{i} assigned to {bid} outside its targets")
        if seats.get(i) not in market.key[bid]:
            problems.append(f"{i} seated at {seats.get(i)} outside bundle {bid}")
    held = [market.key[b] for b in assignment.values() if b in market.key]
    for key in market.bundles:
        occupancy = sum(1 for k in held if k <= key)
        nested = sum(market.quota[s] for s in key)
        if occupancy > nested:
            problems.append(
                f"bundle {sorted(key)} holds {occupancy} > nested quota {nested}"
            )
    for school, quota in market.quota.items():
        seated = sum(1 for s in seats.values() if s == school)
        if seated > quota:
            problems.append(f"school {school} seats {seated} > quota {quota}")
    return problems


def bundle_violations(market, assignment):
    """The oracle's stability violations of a bundle matching."""
    return stability_oracle.stability_violations(
        market.schools, market.bundles, market.rols, market.matching(assignment)
    )


def district_problems(market, result):
    """(unstable, problems) for one cleared district market.

    `result` is the parsed `run-bundle-da`-style result document.  An
    outcome the oracle finds unstable is reported through `unstable`, not
    as a problem; the document's own verdict must agree with the oracle.
    """
    assignment = result["bundle_matching"]
    problems = feasibility_problems(market, assignment, result["standard_matching"])
    violations = bundle_violations(market, assignment)
    if result["stability"]["stable"] != (not violations):
        problems.append(
            f"document says stable={result['stability']['stable']} but the "
            f"oracle finds {len(violations)} violations"
        )
    seat_violations = stability_oracle.standard_violations(
        market.schools, market.rols, result["standard_matching"])
    if result["seat_stability"]["stable"] != (not seat_violations):
        problems.append(
            f"document says seat stable={result['seat_stability']['stable']} "
            f"but the oracle finds {len(seat_violations)} seat violations"
        )
    return bool(violations), problems


def _as_keys(market, assignment):
    return {i: market.bundle_key(b) for i, b in assignment.items()}


def _rank(rol, key):
    return stability_oracle.rank(rol, key) if key is not None else len(rol)


def small_market_problems(market, out, simple):
    """(unstable, problems) for one small market through the whole pipeline.

    `out` holds the program's outputs as plain data: `matching` (bundle ids),
    `stable` (its own verdict), `size_max` and `pusm` as (holds, witness),
    `improvement` (assignment or None), `implementations` (seat dicts),
    `truncated`, `seat_stable` (one verdict per implementation) and
    `properties` ((case, result) pairs, see `property_problems`).
    """
    problems = []
    oracle = stability_oracle
    schools, bundles, rols = market.schools, market.bundles, market.rols
    nu = market.matching(out["matching"])
    feasible = list(oracle.enumerate_feasible(schools, bundles, rols))
    stable = [m for m in feasible if not oracle.stability_violations(
        schools, bundles, rols, m)]
    unstable = nu not in stable
    if out["stable"] == unstable:
        problems.append(f"bundle verdict stable={out['stable']} disagrees with "
                        f"the oracle's stable set")

    matched = {i for i in market.students if nu[i] is not None and nu[i] in rols[i]}

    def larger(m):
        return (all(m[i] is not None for i in matched)
                and any(m[i] is not None for i in market.students if i not in matched))

    def undominated_witness(m):
        return larger(m) and all(
            _rank(rols[i], m[i]) <= _rank(rols[i], nu[i]) for i in matched
        )

    for name, accepts in (("size_max", larger), ("pusm", undominated_witness)):
        holds, witness = out[name]
        exists = any(accepts(m) for m in feasible)
        if holds == exists:
            problems.append(f"{name} says holds={holds}, brute force disagrees")
        if witness is not None:
            keyed = _as_keys(market, witness)
            if keyed not in feasible or not accepts(keyed):
                problems.append(f"{name} witness {witness} is not a valid witness")

    better = oracle.weak_improvements(schools, bundles, rols, nu)
    improvements = [m for m in better if m in stable]
    found = out["improvement"]
    if (found is None) != (not improvements):
        problems.append(f"improvement search found={found is not None}, "
                        f"oracle counts {len(improvements)}")
    elif found is not None and _as_keys(market, found) not in improvements:
        problems.append(f"improvement {found} is not a stable Pareto improvement")

    if out["truncated"]:
        problems.append("implementation enumeration was truncated")
    expected = oracle.implementations(schools, bundles, nu)
    got = {frozenset(mu.items()) for mu in out["implementations"]}
    if got != {frozenset(mu.items()) for mu in expected}:
        problems.append(f"{len(got)} implementations, oracle lists {len(expected)}")
    if len(out["seat_stable"]) != len(out["implementations"]):
        problems.append("one seat verdict per implementation expected")
    for mu, verdict in zip(out["implementations"], out["seat_stable"]):
        violations = oracle.standard_violations(schools, rols, mu)
        if verdict != (not violations):
            problems.append(f"seat verdict stable={verdict} for {mu} disagrees "
                            "with the oracle")
        if simple and not unstable and violations:
            problems.append(f"implementation {mu} of a stable matching in a "
                            f"simple market is seat-unstable: {violations}")
    if not unstable:
        # The property checks take the engine's outcomes to be stable.
        problems += property_problems(market, out["properties"], stable, simple)
    return unstable, problems


def _supbundle_clause(rol_ids, b, sup, old, new):
    """The clause of sup-bundle monotonicity that (old, new) breaks, or None.

    Replacing listed bundle `b` by an unlisted sup-bundle `sup` must leave an
    assignment above `b` untouched, move an assignment at `b` to `sup`, move
    one below `b` (or none) to `sup` or nowhere, and never unmatch a matched
    student.
    """
    slot = rol_ids.index(b)
    old_rank = rol_ids.index(old) if old in rol_ids else len(rol_ids)
    if old_rank < slot:
        if new != old:
            return 1
    elif old == b:
        if new != sup:
            return 2
    elif new not in (sup, old):
        return 3
    if old is not None and new is None:
        return "matched-stays-matched"
    return None


def property_problems(market, properties, stable, simple):
    """Problems with the reporting-property results of one market.

    `properties` holds (case, result) pairs: case ("truthtelling", i) for a
    reordering of i's ROL, or ("supbundle", i, b, sup) for replacing listed
    bundle b by sup-bundle sup; result None or the program's violation
    tuple.  `stable` is the oracle's stable set of the market.  On simple
    markets both properties hold, so every result must be None.  Elsewhere a
    reported violation must be one the oracle allows: the student's
    assignments before and after are each reached by a stable matching of
    the submitted and of the changed market, and they break the property.
    """
    problems = []
    for case, result in properties:
        if result is None:
            continue
        if simple:
            problems.append(f"{case} reports {result} on a simple market")
            continue
        kind, i = case[:2]
        ids = market.rol_ids[i]
        if tuple(result[:2]) != (kind, i):
            problems.append(f"{case}: result {result} names another case")
            continue
        before = {m[i] for m in stable}
        if kind == "truthtelling":
            reordering, new = result[2], result[3]
            changed = list(reordering)
            if sorted(changed) != sorted(ids) or changed == ids:
                problems.append(f"{case}: {reordering} is not a reordering")
                continue
            worst = max((_rank(market.rols[i], key) for key in before), default=-1)
            if not _rank(market.rols[i], market.bundle_key(new)) < worst:
                problems.append(f"{case}: {new} beats no stable outcome")
        else:
            b, sup = case[2:]
            clause, old, new = result[2:]
            changed = [sup if x == b else x for x in ids]
            if market.bundle_key(old) not in before:
                problems.append(f"{case}: no stable matching gives {i} {old}")
            if clause != _supbundle_clause(ids, b, sup, old, new):
                problems.append(f"{case}: clause {clause} does not fit "
                                f"{old} -> {new}")
        rols = dict(market.rols)
        rols[i] = tuple(market.key[x] for x in changed)
        after = {m[i] for m in stability_oracle.stable_matchings(
            market.schools, market.bundles, rols)}
        if market.bundle_key(new) not in after:
            problems.append(f"{case}: no stable matching of the changed market "
                            f"gives {i} {new}")
    return problems


# --------------------------------------------------------------------------
# experiment 1
# --------------------------------------------------------------------------


def oracle_profile(strategies):
    """A per-type profile document's strategies in the oracle's form."""
    return {
        t: [(Fraction(str(p)), tuple(rol)) for p, rol in branches]
        for t, branches in strategies.items()
    }


@functools.cache
def _exp1_oracle_exact(treatment):
    profile = exp1_oracle.pure(exp1_oracle.EQUILIBRIUM[treatment])
    payoff, match, mismatch = exp1_oracle.exact_metrics(treatment, profile)
    return {
        "avg_payoff": payoff,
        "match_rate": match,
        "mismatch_rate": mismatch,
        "payoff_given_match": payoff / match,
    }


@functools.cache
def _exp1_oracle_best_responses(treatment, payoff_type):
    profile = exp1_oracle.pure(exp1_oracle.EQUILIBRIUM[treatment])
    return exp1_oracle.best_responses(treatment, profile, payoff_type)


def exp1_exact_problems(treatment, exact):
    """`exp1_exact_expectation(...).exact` against the oracle's Fractions."""
    expected = _exp1_oracle_exact(treatment)
    if dict(exact) != expected:
        return [f"{treatment} exact {exact} != oracle {expected}"]
    return []


def exp1_verify_problems(treatment, report):
    """`equilibrium_verify` against the oracle's best-response table."""
    problems = []
    confirmed = True
    for t in ("A", "B"):
        values, best = _exp1_oracle_best_responses(treatment, t)
        got = report["types"][t]
        if dict(got["values"]) != values:
            problems.append(f"{treatment} type {t}: deviation values differ")
        if got["best_value"] != best:
            problems.append(f"{treatment} type {t}: best value {got['best_value']}"
                            f" != oracle {best}")
        eq = exp1_oracle.EQUILIBRIUM[treatment][t]
        confirmed = confirmed and values[eq] == best
    if report["confirmed"] != confirmed:
        problems.append(f"{treatment}: confirmed={report['confirmed']}, oracle "
                        f"says {confirmed}")
    return problems


def _weighted_outcomes_exp1(treatment, profile):
    """(weight, payoff sum, matched, top-two mismatches) per terminal state."""
    perms = list(itertools.permutations(range(3)))
    for types in itertools.product("AB", repeat=3):
        for p_r, rols in exp1_oracle.profile_draws(profile, types):
            base = Fraction(1, 8) * p_r * Fraction(1, len(perms))
            for perm in perms:
                for p_b, assign in exp1_oracle.run_mechanism(treatment, rols, perm):
                    yield (
                        base * p_b,
                        sum(exp1_oracle.UTIL[t][x] for t, x in zip(types, assign)),
                        sum(x is not None for x in assign),
                        sum(assign[i] not in ("A", "B") for i in perm[:2]),
                    )


class Reference:
    """Exact per-round distribution of a game's totals, and figure tolerances.

    `outcomes` is a list of (probability, {total: value}) pairs.  A linear
    figure is a total over a fixed count per round; a ratio figure is one
    total over another, estimated as a ratio of sums (delta method).
    """

    def __init__(self, outcomes):
        self.outcomes = [(float(w), v) for w, v in outcomes]
        self.exact = {}
        for w, v in outcomes:
            for k, x in v.items():
                self.exact[k] = self.exact.get(k, Fraction(0)) + w * x

    def _var(self, f):
        mean = sum(w * f(v) for w, v in self.outcomes)
        return max(sum(w * (f(v) - mean) ** 2 for w, v in self.outcomes), 0.0)

    def linear(self, total, per_round):
        mean = float(self.exact[total]) / per_round
        var = self._var(lambda v: v[total] / per_round)
        return mean, var

    def ratio(self, num, den, complement=False):
        g = float(self.exact[num] / self.exact[den])
        var = self._var(lambda v: v[num] - g * v[den]) / float(self.exact[den]) ** 2
        return (1 - g if complement else g), var


def exp1_reference(treatment, profile):
    return Reference([
        (w, {"payoff": a, "matched": b, "mismatch": m})
        for w, a, b, m in _weighted_outcomes_exp1(treatment, profile)
    ])


def exp1_figures(reference):
    return {
        "avg_payoff": reference.linear("payoff", 3),
        "match_rate": reference.linear("matched", 3),
        "mismatch_rate": reference.linear("mismatch", 2),
        "payoff_given_match": reference.ratio("payoff", "matched"),
    }


def monte_carlo_problems(label, figures, metrics, rounds):
    """Every sampled figure within MC_TOLERANCE_SE standard errors."""
    problems = []
    for name, (expected, var) in figures.items():
        got = metrics[name]
        band = MC_TOLERANCE_SE * math.sqrt(var / rounds) + 1e-9 * max(1.0, abs(expected))
        if not abs(got - expected) <= band:
            problems.append(f"{label} {name}: {got:.6f} vs expected "
                            f"{expected:.6f} +- {band:.6f}")
    return problems


# --------------------------------------------------------------------------
# experiment 2
# --------------------------------------------------------------------------

EXP2_SCHOOLS = ("A", "B", "C", "D", "E", "F")
EXP2_UTILITY = {"D": 80, "A": 50, "B": 45, "C": 40, "E": 30, "F": 20}
EXP2_BUNDLES = {
    "nobundle": {},
    "indiff-bundle": {"ABC": ("A", "B", "C")},
    "strict-bundle": {"DEF": ("D", "E", "F")},
}


def exp2_serial_admission(treatment, rols_by_rank):
    """[(probability, {rank: school or None})] of one experiment-2 round.

    Students are taken in rank order (rank 0 has the highest score); each
    takes her first listed option with room.  A school has room when its
    seat is free and every bundle containing it has a spare seat; a bundle
    has room when its schools' seats outnumber the students already inside
    it.  Bundle admits then draw the free seats of their bundle uniformly.
    """
    bundles = EXP2_BUNDLES[treatment]
    taken = set()
    admits = {b: [] for b in bundles}

    def spare(b):
        return len(bundles[b]) - sum(s in taken for s in bundles[b]) - len(admits[b])

    placed = {}
    for rank, rol in enumerate(rols_by_rank):
        placed[rank] = None
        for option in rol:
            if option in bundles:
                if spare(option) >= 1:
                    admits[option].append(rank)
                    break
            elif option not in taken and all(
                spare(b) >= 1 for b, members in bundles.items() if option in members
            ):
                taken.add(option)
                placed[rank] = option
                break
    outcomes = [(Fraction(1), placed)]
    for b, students in admits.items():
        if not students:
            continue
        free = [s for s in bundles[b] if s not in taken]
        seatings = list(itertools.permutations(free, len(students)))
        outcomes = [
            (w / len(seatings), {**assignment, **dict(zip(students, seats))})
            for w, assignment in outcomes
            for seats in seatings
        ]
    return outcomes


def _exp2_totals(assignment):
    payoff = {r: EXP2_UTILITY.get(s, 0) for r, s in assignment.items()}
    ranks = sorted(assignment)
    envy = sum(1 for a, b in itertools.combinations(ranks, 2) if payoff[a] < payoff[b])
    free = sorted((s for s in EXP2_SCHOOLS if s not in assignment.values()),
                  key=lambda s: -EXP2_UTILITY[s])
    potential = sum(payoff.values())
    for r in ranks:
        if assignment[r] is None and free:
            potential += EXP2_UTILITY[free.pop(0)]
    return {
        "payoff": sum(payoff.values()),
        "matched": sum(s is not None for s in assignment.values()),
        "envy": envy,
        "potential": potential,
    }


def exp2_figures(treatment, rols_by_rank):
    reference = Reference([
        (w, _exp2_totals(a)) for w, a in exp2_serial_admission(treatment, rols_by_rank)
    ])
    return {
        "avg_payoff": reference.linear("payoff", 6),
        "match_rate": reference.linear("matched", 6),
        "envy_share": reference.linear("envy", 15),
        "payoff_given_match": reference.ratio("payoff", "matched"),
        "payoff_loss": reference.ratio("payoff", "potential", complement=True),
    }


def score_problems(label, groups):
    """Every group of sampled scores holds distinct integers in [1, 100]."""
    problems = []
    for scores in groups:
        values = list(scores)
        if (any(type(x) is not int or not 1 <= x <= 100 for x in values)
                or len(set(values)) != len(values)):
            problems.append(f"{label}: bad score group {values}")
            break
    return problems
