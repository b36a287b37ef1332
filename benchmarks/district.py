"""`district`: two 800-student, 32-school markets cleared in process.

One round clears both markets the way `bundlechoice run-bundle-da
--implement random --seed SEED` does after parsing: simplicity detection,
the engine, the stability audit, seating, the seat-level audit and the
canonical result document.  The engine's assignment is also rebuilt as a
`BundleMatching`, as `implement` and `check-stability` do for a published
matching.

Both markets come from fixed generator keys; the run's seed draws the
seating.  The engine's work on one drawn 800-student market varies about
threefold from draw to draw (9 to 20 deferred-acceptance rounds), which
would hide any change smaller than that; `small_markets` draws its markets
from the seed instead.  The non-simple market has a bundle spanning every
school open to a top tier, and its tie-break order comes from its key too,
so whatever the general engine does with it is the same in every run.
"""

import json
from statistics import median

from bundlechoice import (
    BundleMatching,
    ImplementationPolicy,
    check_bundle_stability,
    check_standard_stability,
    detect_simplicity,
    implement,
    run_bundle_da,
)
from bundlechoice import io as bcio

import checks
from inputs import parse_market, validate_market, write_market
from markets import grouped_market, rng_for

STUDENTS = 800
SCHOOLS = 32
SIMPLE_KEY = (0, 0)
NON_SIMPLE_KEY = (0, 1)


def clear_market(tr, instance, rols, tiebreak, seed):
    """Everything `run-bundle-da --implement random` computes after parsing.

    Returns (engine name, canonical result document, engine trace).
    """
    with tr.span("model.simplicity"):
        simple = detect_simplicity(instance).simple
    engine = "simple" if simple else "general"
    tiebreak = None if simple else tiebreak
    with tr.span(f"engines.{engine}"):
        nu, trace = run_bundle_da(instance, rols, tiebreak, engine)
    with tr.span("model.bundle_matching"):
        nu = BundleMatching(instance, nu.as_dict())
    with tr.span("audit.bundle_stability"):
        verdict = check_bundle_stability(nu, rols)
    with tr.span("implementation.implement"):
        seats = implement(nu, ImplementationPolicy("random", seed=seed))
    with tr.span("audit.seat_stability"):
        seat_verdict = check_standard_stability(seats, rols)
    with tr.span("io.serialize"):
        inputs = {
            "instance": bcio.serialize_instance(instance),
            "rols": rols,
            "engine": engine,
            "tiebreak": tiebreak,
            "policy": "random",
            "seed": seed,
        }
        document = bcio.canonical_result(
            "run-bundle-da", inputs,
            engine=engine,
            rounds=len(trace.rounds),
            bundle_matching=nu.as_dict(),
            stability=bcio.verdict_summary(verdict),
            standard_matching=seats.as_dict(),
            seat_stability=bcio.verdict_summary(seat_verdict),
        )
    return engine, document, trace


class District:
    # One set-up reads one market's documents, the two markets in turn: two
    # before the first round, then one before every later round, so that
    # set-up is sampled across the whole run.
    setups = 2
    setups_per_round = 1
    min_rounds = 3
    same_outputs_each_round = True

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.markets = []
        drawn = (
            ("simple", grouped_market(rng_for(*SIMPLE_KEY), STUDENTS, SCHOOLS)),
            ("general", grouped_market(rng_for(*NON_SIMPLE_KEY), STUDENTS,
                                       SCHOOLS, spanning=True)),
        )
        for label, (instance_doc, rols_doc, tiebreak) in drawn:
            self.markets.append({
                "label": label,
                "paths": write_market(workdir, f"district_{label}",
                                      instance_doc, rols_doc),
                "market": checks.Market(instance_doc, rols_doc),
                "tiebreak": tiebreak,
            })
        self.ops_per_round = len(self.markets)
        self._setups = 0

    def setup(self, tr, state):
        state = list(state or [None] * len(self.markets))
        k = self._setups % len(self.markets)
        self._setups += 1
        state[k] = (self.markets[k],) + parse_market(tr, self.markets[k]["paths"])
        return state

    def validate_directly(self, tr):
        for m in self.markets:
            validate_market(tr, m["paths"])

    def run_round(self, tr, state, timer, round_index, on_trace):
        outputs = []
        for m, instance, rols in state:
            with timer(f"clear_{m['label']}_s"), tr.span(f"op.clear_{m['label']}"):
                engine, document, trace = clear_market(
                    tr, instance, rols, m["tiebreak"], self.seed)
            on_trace(trace)
            outputs.append((engine, document))
        return outputs

    def check(self, outputs):
        """(failed operations, problems) for one round's outputs."""
        failed, problems = 0, []
        for m, (engine, document) in zip(self.markets, outputs):
            unstable, found = checks.district_problems(m["market"], json.loads(document))
            problems += [f"district {m['label']}: {p}" for p in found]
            if unstable and engine == "general":
                failed += 1
            elif unstable:
                problems.append(f"district {m['label']}: the {engine} engine's "
                                "outcome is unstable")
        return failed, problems

    def details(self, parts):
        """The median time to clear each market, over the run's rounds."""
        return {
            "clear_simple_s": (median(parts["clear_simple_s"]), "s"),
            "clear_general_s": (median(parts["clear_general_s"]), "s"),
        }
