"""Command-line surface tying the library together.

Exit codes: 0 on success, 1 on validation failures, unstable verdicts under
--assert-stable, engine errors, or oracle refusals, and 2 on usage errors
(including a missing --tiebreak when the general engine must run on a
non-simple instance).  Every result document is canonically serialized, so
repeated runs with identical inputs and seeds are byte-identical.
"""

import argparse
import sys

from . import io as bcio
from .audit import (
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
    try:
        return kind, assignment, cls(instance, assignment)
    except ValueError as err:
        raise _Failure(f"{args.matching}: {err}")


def _tiebreak(args, instance):
    """Resolve the student order for the general engine, enforcing the flag."""
    if getattr(args, "tiebreak", None):
        order = [i.strip() for i in args.tiebreak.split(",") if i.strip()]
        if sorted(order) != sorted(instance.students):
            raise _Failure("--tiebreak must list every student exactly once", 2)
        return order
    if not detect_simplicity(instance).simple:
        raise _Failure(
            "--tiebreak is required on non-simple instances", 2
        )
    return None


def _run_engine(args, instance, rols, engine):
    """(engine, tiebreak, matching, trace) of one run, `auto` resolved to the
    simple engine on a simple instance and the general one otherwise.  Standard
    DA refuses a multi-school ROL entry, named with the ROL document."""
    if engine == "auto":
        engine = "simple" if detect_simplicity(instance).simple else "general"
    tiebreak = _tiebreak(args, instance) if engine == "general" else None
    try:
        if engine == "standard":
            matching, trace = run_standard_da(instance, rols)
        else:
            matching, trace = run_bundle_da(instance, rols, tiebreak, engine)
    except ValueError as err:
        where = f"{args.rols}: " if engine == "standard" else ""
        raise _Failure(where + str(err))
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
    try:
        return implement(nu, policy)
    except ValueError as err:
        raise _Failure(f"{args.stage_prefs}: {err}")


def _emit(text):
    sys.stdout.write(text)


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
    inputs = {"instance": bcio.serialize_instance(instance)}
    _emit(bcio.canonical_result("validate", inputs, **blocks))
    return 0


def _cmd_run_da(args):
    instance, rols = _load_market(args)
    *_, matching, trace = _run_engine(args, instance, rols, "standard")
    verdict = check_bundle_stability(matching, rols)
    inputs = {"instance": bcio.serialize_instance(instance), "rols": rols}
    _emit(bcio.canonical_result(
        "run-da", inputs,
        bundle_matching=matching.as_dict(),
        rounds=len(trace.rounds),
        stability=bcio.verdict_summary(verdict),
    ))
    return 0 if verdict.stable or not args.assert_stable else 1


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
        "instance": bcio.serialize_instance(instance),
        "rols": rols,
        "engine": engine,
        "tiebreak": tiebreak,
        "policy": getattr(policy, "mode", None),
        "seed": args.seed,
    }
    _emit(bcio.canonical_result("run-bundle-da", inputs, **blocks))
    if args.assert_stable and not blocks["stability"]["stable"]:
        return 1
    return 0


def _cmd_implement(args):
    instance = _fail_on_report(bcio.parse_instance(args.instance))
    *_, nu = _matching(args, instance, "implement needs")
    policy = _policy(args, instance) or ImplementationPolicy("det")
    seats = _seat(args, nu, policy)
    inputs = {
        "instance": bcio.serialize_instance(instance),
        "matching": nu.as_dict(),
        "policy": policy.mode,
        "seed": args.seed,
    }
    _emit(bcio.canonical_result(
        "implement", inputs,
        bundle_matching=nu.as_dict(),
        standard_matching=seats.as_dict(),
    ))
    return 0


def _cmd_check_stability(args):
    instance, rols = _load_market(args)
    kind, assignment, matching = _matching(args, instance)
    check = check_bundle_stability if kind == "bundle" else check_standard_stability
    verdict = check(matching, rols)
    inputs = {
        "instance": bcio.serialize_instance(instance),
        "rols": rols,
        "matching": assignment,
        "kind": kind,
    }
    _emit(bcio.canonical_result(
        "check-stability", inputs,
        kind=kind,
        stability=bcio.verdict_summary(verdict),
    ))
    return 0 if verdict.stable or not args.assert_stable else 1


def _cmd_oracle(args):
    instance, rols = _load_market(args)
    *_, nu = _matching(args, instance, "oracles need")
    oracle = {
        "size-max": oracle_size_maximal,
        "pusm": oracle_pareto_undominated_size_maximal,
    }[args.notion]
    holds, witness = oracle(nu, rols, bound=args.oracle_bound)
    inputs = {
        "instance": bcio.serialize_instance(instance),
        "rols": rols,
        "matching": nu.as_dict(),
        "notion": args.notion,
    }
    _emit(bcio.canonical_result(
        "oracle", inputs, notion=args.notion, holds=holds, witness=witness,
    ))
    return 0


def _cmd_improve(args):
    instance, rols = _load_market(args)
    *_, nu = _matching(args, instance, "improve needs")
    better = find_stable_pareto_improvement(nu, rols, bound=args.oracle_bound)
    inputs = {
        "instance": bcio.serialize_instance(instance),
        "rols": rols,
        "matching": nu.as_dict(),
    }
    _emit(bcio.canonical_result(
        "improve", inputs,
        found=better is not None,
        matching=None if better is None else better.as_dict(),
    ))
    return 0


def _cmd_audit_rol(args):
    instance, rols = _load_market(args)
    classes = {}
    if args.classes:
        classes = _fail_on_report(bcio.parse_classes(args.classes, instance))
    warnings = {
        i: [list(w) for w in audit_rol_dominance(rol, instance, classes.get(i))]
        for i, rol in sorted(rols.items())
    }
    inputs = {"instance": bcio.serialize_instance(instance), "rols": rols}
    _emit(bcio.canonical_result(
        "audit-rol", inputs,
        warnings={i: w for i, w in warnings.items() if w},
    ))
    return 0


def _cmd_simulate(args):
    try:
        config = (Exp1Config if args.exp == 1 else Exp2Config)(args.treatment)
    except ValueError as err:
        raise _Failure(str(err), 2)
    if args.rounds < 1 and not args.exact:
        raise _Failure("--rounds must be at least 1", 2)
    if args.profile == "equilibrium":
        try:
            profile = equilibrium_profile(config)
        except ValueError as err:
            raise _Failure(str(err), 2)
    else:
        profile = _fail_on_report(bcio.parse_profile(args.profile))
        try:
            profile.validate(config)
        except ValueError as err:
            raise _Failure(f"{args.profile}: {err}")
    if args.exact:
        if args.exp != 1:
            raise _Failure("--exact is only available for --exp 1", 2)
        metrics = exp1_exact_expectation(config, profile)
        log = []
    else:
        metrics, log = simulate_rounds(config, profile, args.rounds, args.seed)
    if args.csv:
        _emit(bcio.metrics_csv(config.treatment, metrics))
        return 0
    inputs = {
        "exp": args.exp,
        "treatment": config.treatment,
        "profile": args.profile,
        "rounds": args.rounds,
        "seed": args.seed,
        "exact": args.exact,
    }
    _emit(bcio.canonical_result(
        "simulate-experiment", inputs,
        treatment=config.treatment,
        metrics=bcio.metrics_block(metrics),
        logged_rounds=len(log),
    ))
    return 0


def _cmd_trace(args):
    instance, rols = _load_market(args)
    *_, trace = _run_engine(args, instance, rols, args.engine)
    _emit(bcio.trace_csv(trace))
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
    p.add_argument("--oracle-bound", type=_oracle_bound, default=10**7)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("improve", help="search for a stable Pareto improvement")
    market(p)
    p.add_argument("matching")
    p.add_argument("--oracle-bound", type=_oracle_bound, default=10**7)
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
    except _Failure as failure:
        sys.stderr.write(str(failure) + "\n")
        return failure.code
    except OracleBoundExceeded as err:
        sys.stderr.write(str(err) + "\n")
        return 1


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
