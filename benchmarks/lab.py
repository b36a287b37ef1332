"""`lab`: the two experiment games, Monte Carlo and exact.

One round runs

* experiment 1's Monte Carlo for all four treatments under the equilibrium
  profiles, and for `strict-bundle` under the empirical mixed profile;
* experiment 2's Monte Carlo for all three treatments under the by-rank
  fixture profile, for `indiff-bundle` under a profile listing ABC and for
  `strict-bundle` under one listing DEF;
* a batch of direct `sample_scores` draws for one six-student group each;
* `exp1_exact_expectation` and `equilibrium_verify` for all four treatments.

Every Monte Carlo call gets its own seed, derived from the run's seed, the
round and the call.
"""

import json
from statistics import median

import numpy as np

from bundlechoice import (
    Exp1Config,
    Exp2Config,
    ValidationReport,
    equilibrium_profile,
    equilibrium_verify,
    exp1_exact_expectation,
    sample_scores,
    simulate_rounds,
)
from bundlechoice import io as bcio

import checks

EXP1_ROUNDS = 2000
EXP2_ROUNDS = 1000
SCORE_GROUPS = 1000
EXP1_TREATMENTS = ("nobundle-one", "indiff-bundle", "strict-bundle", "nobundle-two")

# Written by the benchmark: by-rank profiles that list a bundle, so that
# seats inside it are drawn at random.
BUNDLE_PROFILES = {
    "exp2_abc": {"kind": "by-rank", "rols": [
        ["D", "ABC"], ["ABC", "D"], ["ABC", "E"], ["D", "ABC"], ["ABC", "F"],
        ["E", "F"]]},
    "exp2_def": {"kind": "by-rank", "rols": [
        ["A", "DEF"], ["DEF", "A"], ["DEF", "B"], ["A", "DEF"], ["B", "DEF"],
        ["C", "F"]]},
}


class Lab:
    setups = 5
    setups_per_round = 5
    min_rounds = 5
    same_outputs_each_round = False

    def __init__(self, seed, workdir, root):
        self.seed = seed
        profiles = root / "fixtures" / "profiles"
        self.paths = {
            "exp1_empirical": profiles / "strict_bundle_empirical.json",
            "exp2_by_rank": profiles / "exp2_by_rank.json",
        }
        for name, doc in BUNDLE_PROFILES.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[name] = path
        docs = {name: json.loads(path.read_text(encoding="utf-8"))
                for name, path in self.paths.items()}
        # (experiment, treatment, profile name or "equilibrium")
        self.jobs = [(1, t, "equilibrium") for t in EXP1_TREATMENTS]
        self.jobs.append((1, "strict-bundle", "exp1_empirical"))
        self.jobs += [(2, t, "exp2_by_rank") for t in Exp2Config.TREATMENTS]
        self.jobs += [(2, "indiff-bundle", "exp2_abc"), (2, "strict-bundle", "exp2_def")]
        self.figures = {}
        for exp, treatment, name in self.jobs:
            if exp == 1:
                profile = (checks.exp1_oracle.pure(checks.exp1_oracle.EQUILIBRIUM[treatment])
                           if name == "equilibrium"
                           else checks.oracle_profile(docs[name]["strategies"]))
                self.figures[exp, treatment, name] = checks.exp1_figures(
                    checks.exp1_reference(treatment, profile))
            else:
                self.figures[exp, treatment, name] = checks.exp2_figures(
                    treatment, docs[name]["rols"])
        self.ops_per_round = len(self.jobs) + 1 + 2 * len(EXP1_TREATMENTS)

    def setup(self, tr, state):
        profiles = {}
        for name, path in self.paths.items():
            with tr.span("io.parse"):
                profile = bcio.parse_profile(str(path))
            if isinstance(profile, ValidationReport):
                raise RuntimeError(str(profile))
            profiles[name] = profile
        jobs = []
        for exp, treatment, name in self.jobs:
            with tr.span("experiments.profiles"):
                config = (Exp1Config if exp == 1 else Exp2Config)(treatment)
                profile = (equilibrium_profile(config) if name == "equilibrium"
                           else profiles[name].validate(config))
            jobs.append((exp, treatment, name, config, profile))
        exact = []
        for treatment in EXP1_TREATMENTS:
            with tr.span("experiments.profiles"):
                config = Exp1Config(treatment)
                profile = equilibrium_profile(config)
            exact.append((treatment, config, profile))
        return jobs, exact

    def validate_directly(self, tr):
        """Profiles are validated by `experiments`, already timed in set-up."""

    def run_round(self, tr, state, timer, round_index, on_trace):
        jobs, exact = state
        outputs = []
        for k, (exp, treatment, name, config, profile) in enumerate(jobs):
            seed = [self.seed, round_index, k]
            with timer(f"exp{exp}_s"), tr.span(f"experiments.simulate_exp{exp}"):
                metrics, log = simulate_rounds(
                    config, profile, EXP1_ROUNDS if exp == 1 else EXP2_ROUNDS, seed)
            scores = [tuple(r["scores"].values()) for r in log if "scores" in r]
            outputs.append(("mc", (exp, treatment, name), metrics, scores))
        rng = np.random.default_rng([self.seed, round_index, len(jobs)])
        with timer("scores_s"), tr.span("experiments.sample_scores"):
            groups = [sample_scores(6, rng) for _ in range(SCORE_GROUPS)]
        outputs.append(("scores", None, None, groups))
        with timer("exact_s"):
            for treatment, config, profile in exact:
                with tr.span("experiments.exact"):
                    metrics = exp1_exact_expectation(config, profile)
                outputs.append(("exact", treatment, metrics.exact, None))
            for treatment, config, profile in exact:
                with tr.span("experiments.verify"):
                    report = equilibrium_verify(config)
                outputs.append(("verify", treatment, report, None))
        return outputs

    def check(self, outputs):
        problems = []
        for kind, key, value, scores in outputs:
            if kind == "mc":
                exp, treatment, name = key
                label = f"exp{exp} {treatment} / {name}"
                figures = {n: getattr(value, n) for n in self.figures[key]}
                problems += checks.monte_carlo_problems(
                    label, self.figures[key], figures, value.rounds)
                problems += checks.score_problems(label, scores)
            elif kind == "scores":
                problems += checks.score_problems("sample_scores", scores)
            elif kind == "exact":
                problems += checks.exp1_exact_problems(key, value)
            else:
                problems += checks.exp1_verify_problems(key, value)
        return 0, problems

    def details(self, parts):
        """Monte Carlo rounds per second, and the exact part's median time."""
        exp1_calls = sum(1 for exp, _, _ in self.jobs if exp == 1)
        exp2_calls = len(self.jobs) - exp1_calls
        rounds = len(parts["exact_s"])
        return {
            "exp1_rounds_per_s": (exp1_calls * EXP1_ROUNDS * rounds
                                  / sum(parts["exp1_s"]), "rounds/s"),
            "exp2_rounds_per_s": (exp2_calls * EXP2_ROUNDS * rounds
                                  / sum(parts["exp2_s"]), "rounds/s"),
            "exact_s": (median(parts["exact_s"]), "s"),
        }
