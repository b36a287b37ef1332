"""Command-line surface tying the library together.

Exit codes: 0 on success, 1 on validation failures, unstable verdicts under
--assert-stable, engine errors, or oracle refusals, and 2 on usage errors
(including a missing --tiebreak when the general engine must run on a
non-simple instance, and a --tiebreak that does not list every student once,
whatever the engine).  Every result document is canonically serialized, so
repeated runs with identical inputs and seeds are byte-identical.

Each decision of this layer is made in one place: `_publish` puts the
serialized instance into the digest inputs and prints the result of every
instance command, `_refused` turns a library ValueError into a `_Failure`
naming the document at fault, `_run_engine` resolves the engine and checks
--tiebreak, `_assert_stable` gives the exit code of --assert-stable, and
`run_cli` reports every refusal to stderr.
"""

import argparse
import contextlib
import sys

from . import io as bcio
from .audit import (
    DEFAULT_ORACLE_BOUND,
    OracleBoundExceeded,
    audit_rol_dominance,
    check_bundle_stability,
    check_standard_stability,
    find_stable_pareto_improvement,
    oracle_pareto_undominated_size_maximal,
    oracle_size_maximal,
)
from .engines import run_bundle_da, run_standard_da
from .experiments import (
    Exp1Config,
    Exp2Config,
    equilibrium_profile,
    exp1_exact_expectation,
    simulate_rounds,
)
from .implementation import ImplementationPolicy, implement
from .model import BundleMatching, StandardMatching, ValidationReport, detect_simplicity


class _Failure(Exception):
    """Carries a message and an exit code out of a subcommand."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _refused(where="", code=1):
    """Raise a library ValueError as a _Failure exiting `code`, its message
    led by `where`, the path of the document at fault."""
    try:
        yield
    except ValueError as err:
        raise _Failure(f"{where}{err}", code)


def _fail_on_report(obj):
    if isinstance(obj, ValidationReport):
        raise _Failure(str(obj))
    return obj


def _load_market(args):
    instance = _fail_on_report(bcio.parse_instance(args.instance))
    rols = _fail_on_report(bcio.parse_rols(args.rols, instance))
    return instance, rols


def _matching(args, instance, needs=None):
    """(kind, assignment, matching) of the matching document, or a failure
    naming the document.  A command that `needs` a bundle-level document
    refuses a seat-level one before building it."""
    kind, assignment = _fail_on_report(bcio.parse_matching(args.matching, instance))
    if needs and kind != "bundle":
        raise _Failure(f"{args.matching}: {needs} a bundle-level matching document")
    cls = BundleMatching if kind == "bundle" else StandardMatching
    with _refused(f"{args.matching}: "):
        return kind, assignment, cls(instance, assignment)


def _run_engine(args, instance, rols, engine):
    """(engine, tiebreak, matching, trace) of one run, `auto` resolved to the
    simple engine on a simple instance and the general one otherwise.

    A given --tiebreak is checked whatever the engine, and only the general
    engine reads it; that engine needs one on a non-simple instance.  Standard
    DA refuses a multi-school ROL entry, named with the ROL document."""
    tiebreak = None
    if getattr(args, "tiebreak", None):
        tiebreak = [i.strip() for i in args.tiebreak.split(",") if i.strip()]
        if sorted(tiebreak) != sorted(instance.students):
            raise _Failure("--tiebreak must list every student exactly once", 2)
    if engine in ("auto", "general"):
        simple = detect_simplicity(instance).simple
        if engine == "auto":
            engine = "simple" if simple else "general"
        if not simple and tiebreak is None:
            raise _Failure("--tiebreak is required on non-simple instances", 2)
    if engine != "general":
        tiebreak = None
    with _refused(f"{args.rols}: " if engine == "standard" else ""):
        if engine == "standard":
            matching, trace = run_standard_da(instance, rols)
        else:
            matching, trace = run_bundle_da(instance, rols, tiebreak, engine)
    return engine, tiebreak, matching, trace


def _policy(args, instance):
    mode = getattr(args, "implement", None)
    if mode is None:
        return None
    if mode == "deterministic":
        mode = "det"
    preferences = None
    if mode == "prefs":
        if not getattr(args, "stage_prefs", None):
            raise _Failure("--implement prefs requires --stage-prefs FILE", 2)
        preferences = _fail_on_report(
            bcio.parse_stage_prefs(args.stage_prefs, instance)
        )
    if mode == "random" and args.seed is None:
        raise _Failure("--implement random requires --seed", 2)
    return ImplementationPolicy(mode, seed=args.seed, preferences=preferences)


def _seat(args, nu, policy):
    """Seat a bundle matching; a stage ranking that misses its bundle fails."""
    with _refused(f"{args.stage_prefs}: "):
        return implement(nu, policy)


def _publish(command, instance, inputs, policy=None, **blocks):
    """Print the canonical result of an instance command, whose digest covers
    the serialized instance, the other `inputs` the command read and the
    rankings of a --stage-prefs document its seating `policy` read."""
    inputs = {"instance": bcio.serialize_instance(instance), **inputs}
    if getattr(policy, "preferences", None) is not None:
        inputs["stage_prefs"] = policy.preferences
    sys.stdout.write(bcio.canonical_result(command, inputs, **blocks))


def _assert_stable(args, stability):
    """The exit code of a command that ran: 1 when --assert-stable meets an
    unstable verdict summary, else 0."""
    return 1 if args.assert_stable and not stability["stable"] else 0


def _cmd_validate(args):
    instance = _fail_on_report(bcio.parse_instance(args.instance))
    blocks = {
        "students": len(instance.students),
        "schools": len(instance.school_order),
        "bundles": sum(
            1 for b in instance.bundles.values() if not b.trivial
        ),
        "simple": detect_simplicity(instance).simple,
        "ok": True,
    }
    if args.rols:
        rols = _fail_on_report(bcio.parse_rols(args.rols, instance))
        blocks["rol_students"] = len(rols)
    _publish("validate", instance, {}, **blocks)
    return 0


def _cmd_run_da(args):
    instance, rols = _load_market(args)
    *_, matching, trace = _run_engine(args, instance, rols, "standard")
    stability = bcio.verdict_summary(check_bundle_stability(matching, rols))
    _publish(
        "run-da", instance, {"rols": rols},
        bundle_matching=matching.as_dict(),
        rounds=len(trace.rounds),
        stability=stability,
    )
    return _assert_stable(args, stability)


def _cmd_run_bundle_da(args):
    instance, rols = _load_market(args)
    engine, tiebreak, matching, trace = _run_engine(args, instance, rols, args.engine)
    policy = _policy(args, instance)
    blocks = {
        "engine": engine,
        "rounds": len(trace.rounds),
        "bundle_matching": matching.as_dict(),
        "stability": bcio.verdict_summary(check_bundle_stability(matching, rols)),
    }
    if policy is not None:
        seats = _seat(args, matching, policy)
        blocks["standard_matching"] = seats.as_dict()
        blocks["seat_stability"] = bcio.verdict_summary(
            check_standard_stability(seats, rols)
        )
    inputs = {
        "rols": rols,
        "engine": engine,
        "tiebreak": tiebreak,
        "policy": getattr(policy, "mode", None),
        "seed": args.seed,
    }
    _publish("run-bundle-da", instance, inputs, policy, **blocks)
    return _assert_stable(args, blocks["stability"])


def _cmd_implement(args):
    instance = _fail_on_report(bcio.parse_instance(args.instance))
    *_, nu = _matching(args, instance, "implement needs")
    policy = _policy(args, instance) or ImplementationPolicy("det")
    seats = _seat(args, nu, policy)
    inputs = {"matching": nu.as_dict(), "policy": policy.mode, "seed": args.seed}
    _publish(
        "implement", instance, inputs, policy,
        bundle_matching=nu.as_dict(),
        standard_matching=seats.as_dict(),
    )
    return 0


def _cmd_check_stability(args):
    instance, rols = _load_market(args)
    kind, assignment, matching = _matching(args, instance)
    check = check_bundle_stability if kind == "bundle" else check_standard_stability
    stability = bcio.verdict_summary(check(matching, rols))
    inputs = {"rols": rols, "matching": assignment, "kind": kind}
    _publish("check-stability", instance, inputs, kind=kind, stability=stability)
    return _assert_stable(args, stability)


def _cmd_oracle(args):
    instance, rols = _load_market(args)
    *_, nu = _matching(args, instance, "oracles need")
    oracle = {
        "size-max": oracle_size_maximal,
        "pusm": oracle_pareto_undominated_size_maximal,
    }[args.notion]
    holds, witness = oracle(nu, rols, bound=args.oracle_bound)
    inputs = {"rols": rols, "matching": nu.as_dict(), "notion": args.notion}
    _publish("oracle", instance, inputs,
             notion=args.notion, holds=holds, witness=witness)
    return 0


def _cmd_improve(args):
    instance, rols = _load_market(args)
    *_, nu = _matching(args, instance, "improve needs")
    better = find_stable_pareto_improvement(nu, rols, bound=args.oracle_bound)
    _publish(
        "improve", instance, {"rols": rols, "matching": nu.as_dict()},
        found=better is not None,
        matching=None if better is None else better.as_dict(),
    )
    return 0


def _cmd_audit_rol(args):
    instance, rols = _load_market(args)
    inputs = {"rols": rols}
    if args.classes:  # digested by its parsed content, as every side document
        inputs["classes"] = _fail_on_report(bcio.parse_classes(args.classes, instance))
    classes = inputs.get("classes", {})
    warnings = {
        i: [list(w) for w in audit_rol_dominance(rol, instance, classes.get(i))]
        for i, rol in sorted(rols.items())
    }
    _publish("audit-rol", instance, inputs,
             warnings={i: w for i, w in warnings.items() if w})
    return 0


def _cmd_simulate(args):
    with _refused(code=2):
        config = (Exp1Config if args.exp == 1 else Exp2Config)(args.treatment)
    if args.rounds < 1 and not args.exact:
        raise _Failure("--rounds must be at least 1", 2)
    if args.profile == "equilibrium":
        with _refused(code=2):
            profile = equilibrium_profile(config)
    else:
        profile = _fail_on_report(bcio.parse_profile(args.profile))
        with _refused(f"{args.profile}: "):
            profile.validate(config)
    if args.exact:
        if args.exp != 1:
            raise _Failure("--exact is only available for --exp 1", 2)
        metrics = exp1_exact_expectation(config, profile)
        log = []
    else:
        metrics, log = simulate_rounds(config, profile, args.rounds, args.seed)
    if args.csv:
        sys.stdout.write(bcio.metrics_csv(config.treatment, metrics))
        return 0
    inputs = {
        "exp": args.exp,
        "treatment": config.treatment,
        # A profile document by its parsed kind and strategies, not its path.
        "profile": args.profile if args.profile == "equilibrium" else vars(profile),
        "rounds": args.rounds,
        "seed": args.seed,
        "exact": args.exact,
    }
    sys.stdout.write(bcio.canonical_result(
        "simulate-experiment", inputs,
        treatment=config.treatment,
        metrics=bcio.metrics_block(metrics),
        logged_rounds=len(log),
    ))
    return 0


def _cmd_trace(args):
    instance, rols = _load_market(args)
    *_, trace = _run_engine(args, instance, rols, args.engine)
    sys.stdout.write(bcio.trace_csv(trace))
    return 0


def _int_at_least(low, kind):
    """An argparse type for integers of at least `low`; a smaller one is a
    usage error, and a non-integer reads "invalid int value" as with `int`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer: {value}")
        return value

    parse.__name__ = "int"
    return parse


# numpy seeds its generators from non-negative integers; an oracle bound
# counts candidate assignments, so it is at least one.
_seed = _int_at_least(0, "non-negative")
_oracle_bound = _int_at_least(1, "positive")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bundlechoice",
        description="School choice with hierarchical school bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def market(p):
        p.add_argument("instance")
        p.add_argument("rols")

    def engine_flags(p):
        p.add_argument("--engine", choices=("simple", "general", "auto"),
                       default="auto")
        p.add_argument("--tiebreak", help="comma-separated student order")

    def implement_flags(p):
        p.add_argument("--implement", dest="implement",
                       choices=("det", "deterministic", "random", "prefs"))
        p.add_argument("--seed", type=_seed)
        p.add_argument("--stage-prefs", dest="stage_prefs",
                       help="JSON file of per-student school rankings")

    p = sub.add_parser("validate", help="validate an instance (and ROLs)")
    p.add_argument("instance")
    p.add_argument("rols", nargs="?")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run-da", help="standard deferred acceptance")
    market(p)
    p.add_argument("--assert-stable", action="store_true")
    p.set_defaults(func=_cmd_run_da)

    p = sub.add_parser("run-bundle-da", help="bundle deferred acceptance")
    market(p)
    engine_flags(p)
    implement_flags(p)
    p.add_argument("--assert-stable", action="store_true")
    p.set_defaults(func=_cmd_run_bundle_da)

    p = sub.add_parser("implement", help="seat a bundle-matching")
    p.add_argument("instance")
    p.add_argument("matching")
    implement_flags(p)
    p.set_defaults(func=_cmd_implement)

    p = sub.add_parser("check-stability", help="audit a matching document")
    market(p)
    p.add_argument("matching")
    p.add_argument("--assert-stable", action="store_true")
    p.set_defaults(func=_cmd_check_stability)

    p = sub.add_parser("oracle", help="exhaustive size-maximality oracles")
    p.add_argument("notion", choices=("size-max", "pusm"))
    market(p)
    p.add_argument("matching")
    p.add_argument("--oracle-bound", type=_oracle_bound,
                   default=DEFAULT_ORACLE_BOUND)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("improve", help="search for a stable Pareto improvement")
    market(p)
    p.add_argument("matching")
    p.add_argument("--oracle-bound", type=_oracle_bound,
                   default=DEFAULT_ORACLE_BOUND)
    p.set_defaults(func=_cmd_improve)

    p = sub.add_parser("audit-rol", help="flag dominated ROL patterns")
    market(p)
    p.add_argument("--classes", help="JSON file of declared indifference classes")
    p.set_defaults(func=_cmd_audit_rol)

    p = sub.add_parser("simulate-experiment", help="run a lab experiment")
    p.add_argument("--exp", type=int, choices=(1, 2), required=True)
    p.add_argument("--treatment", required=True)
    p.add_argument("--profile", default="equilibrium",
                   help='"equilibrium" or a profile JSON file')
    p.add_argument("--rounds", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--exact", action="store_true",
                   help="exact expectation instead of Monte Carlo")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trace", help="CSV event stream of one engine run")
    market(p)
    p.add_argument("--engine", choices=("simple", "general", "auto", "standard"),
                   default="auto")
    p.add_argument("--tiebreak")
    p.set_defaults(func=_cmd_trace)

    return parser


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except (_Failure, OracleBoundExceeded) as refusal:
        sys.stderr.write(f"{refusal}\n")
        return getattr(refusal, "code", 1)  # an exceeded oracle bound exits 1


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
