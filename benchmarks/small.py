"""`small_markets`: 1101 small markets through the whole pipeline.

One round takes every market through the auto engine, the bundle audit, the
three exhaustive oracles, the implementation enumerator, the seat audit of
every implementation and the two reporting-property checks.

* Simple markets (up to 6 students) are drawn from the run's seed.
* Non-simple markets with a spanning top-tier bundle (up to 8 students)
  come from a fixed generator key, so any market on which the general
  engine goes wrong goes wrong in every run.  There are enough of them to
  include one such market (the 66th).
* The five-student reproducer is cleared by the general engine with
  tie-break i1..i5, which returns an unstable matching every time.
"""

from bundlechoice import (
    check_bundle_stability,
    check_standard_stability,
    detect_simplicity,
    enumerate_implementations,
    find_stable_pareto_improvement,
    oracle_pareto_undominated_size_maximal,
    oracle_size_maximal,
    property_supbundle_monotone,
    property_truthtelling,
    run_bundle_da,
)

import checks
from inputs import parse_market, validate_market, write_market
from markets import (
    reproducer_market,
    rng_for,
    small_simple_market,
    small_spanning_market,
)

SIMPLE_MARKETS = 1000
SPANNING_MARKETS = 100
SPANNING_KEY = (0, 2)


def _supbundle_cases(market):
    """Up to two (student, listed bundle, unlisted eligible strict sup-bundle)."""
    cases = [
        (i, b, sup)
        for i, rol in market.rol_ids.items()
        for b in rol
        for sup, key in market.key.items()
        if sup not in rol and i in market.bundles[key] and market.key[b] < key
    ]
    return cases[:2]


def pipeline(tr, instance, rols, engine=None, tiebreak=None, supbundle=()):
    """One market through every engine-level function, as plain data.

    `engine` None picks the engine as `run-bundle-da` does; `supbundle` lists
    (student, listed bundle, sup-bundle) cases for the monotonicity check.
    Returns (outputs, engine trace).
    """
    if engine is None:
        with tr.span("model.simplicity"):
            engine = "simple" if detect_simplicity(instance).simple else "general"
    tiebreak = tiebreak if engine == "general" else None
    with tr.span(f"engines.{engine}"):
        nu, trace = run_bundle_da(instance, rols, tiebreak, engine)
    with tr.span("audit.bundle_stability"):
        stable = check_bundle_stability(nu, rols).stable
    with tr.span("audit.oracle"):
        size_max = oracle_size_maximal(nu, rols)
        pusm = oracle_pareto_undominated_size_maximal(nu, rols)
        better = find_stable_pareto_improvement(nu, rols)
    with tr.span("implementation.enumerate"):
        implementations, truncated = enumerate_implementations(nu)
    with tr.span("audit.seat_stability"):
        seat_stable = [check_standard_stability(mu, rols).stable
                       for mu in implementations]
    with tr.span("audit.properties"):
        properties = [
            (("truthtelling", i), property_truthtelling(instance, rols, i))
            for i in instance.students if len(rols[i]) >= 2
        ] + [
            (("supbundle", i, b, sup),
             property_supbundle_monotone(instance, rols, i, b, sup))
            for i, b, sup in supbundle
        ]
    out = {
        "engine": engine,
        "matching": nu.as_dict(),
        "stable": stable,
        "size_max": size_max,
        "pusm": pusm,
        "improvement": None if better is None else better.as_dict(),
        "implementations": [mu.as_dict() for mu in implementations],
        "truncated": truncated,
        "seat_stable": seat_stable,
        "properties": properties,
    }
    return out, trace


class SmallMarkets:
    setups = 1
    setups_per_round = 1
    min_rounds = 5
    same_outputs_each_round = True

    def __init__(self, seed, workdir, root):
        drawn = []
        rng = rng_for(seed, 11)
        drawn += [("simple", None) + small_simple_market(rng)
                  for _ in range(SIMPLE_MARKETS)]
        rng = rng_for(*SPANNING_KEY)
        drawn += [("spanning", None) + small_spanning_market(rng)
                  for _ in range(SPANNING_MARKETS)]
        drawn.append(("reproducer", "general") + reproducer_market())
        self.markets = []
        for k, (kind, engine, instance_doc, rols_doc, tiebreak) in enumerate(drawn):
            market = checks.Market(instance_doc, rols_doc)
            self.markets.append({
                "kind": kind,
                "engine": engine,
                "tiebreak": tiebreak,
                "paths": write_market(workdir, f"small_{k}", instance_doc,
                                      rols_doc),
                "market": market,
                "supbundle": _supbundle_cases(market),
            })
        self.ops_per_round = len(self.markets)

    def setup(self, tr, state):
        return [(m,) + parse_market(tr, m["paths"]) for m in self.markets]

    def validate_directly(self, tr):
        for m in self.markets:
            validate_market(tr, m["paths"])

    def run_round(self, tr, state, timer, round_index, on_trace):
        outputs = []
        with timer("markets_s"):
            for m, instance, rols in state:
                with tr.span("op.market"):
                    out, trace = pipeline(tr, instance, rols, m["engine"],
                                          m["tiebreak"], m["supbundle"])
                on_trace(trace)
                outputs.append(out)
        return outputs

    def check(self, outputs):
        failed, problems = 0, []
        for k, (m, out) in enumerate(zip(self.markets, outputs)):
            unstable, found = checks.small_market_problems(
                m["market"], out, simple=m["kind"] == "simple")
            problems += [f"small market {k} ({m['kind']}): {p}" for p in found]
            if unstable and out["engine"] == "general":
                failed += 1
            elif unstable:
                problems.append(f"small market {k}: the {out['engine']} engine's "
                                "outcome is unstable")
        return failed, problems

    def details(self, parts):
        """Markets through the whole pipeline per second of measuring."""
        return {
            "markets_per_s": (len(self.markets) * len(parts["markets_s"])
                              / sum(parts["markets_s"]), "markets/s"),
        }
