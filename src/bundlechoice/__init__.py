"""School choice with hierarchical school bundles.

Students submit short rank-order lists whose entries may be bundles —
groups of schools requested as one option — and a modified deferred
acceptance assigns bundles stably; a second stage then seats bundle admits
at specific schools.  The package also ships stability checkers,
size-maximality oracles, and replications of two lab experiments.
"""

from types import ModuleType as _ModuleType

from .audit import (
    DEFAULT_ORACLE_BOUND,
    OracleBoundExceeded,
    StabilityVerdict,
    audit_rol_dominance,
    check_bundle_stability,
    check_standard_stability,
    find_stable_pareto_improvement,
    oracle_pareto_undominated_size_maximal,
    oracle_size_maximal,
    property_supbundle_monotone,
    property_truthtelling,
)
from .engines import (
    EngineTrace,
    run_bundle_da,
    run_bundle_da_general,
    run_bundle_da_simple,
    run_standard_da,
)
from .experiments import (
    Exp1Config,
    Exp2Config,
    OutcomeMetrics,
    StrategyProfile,
    compute_metrics,
    equilibrium_profile,
    equilibrium_verify,
    exp1_deviation_value,
    exp1_exact_expectation,
    experiment_matching_for_instance,
    experiment_rols_for_instance,
    feasible_rols,
    play_fixed_round,
    round_instance,
    sample_scores,
    simulate_rounds,
)
from .implementation import (
    ImplementationPolicy,
    enumerate_implementations,
    implement,
)
from .io import (
    canonical_document,
    content_digest,
    trace_csv,
    parse_classes,
    parse_instance,
    parse_matching,
    parse_profile,
    parse_rols,
    parse_stage_prefs,
    serialize_instance,
)
from .model import (
    UNMATCHED,
    BundleMatching,
    Instance,
    StandardMatching,
    ValidationReport,
    detect_simplicity,
    implements,
    validate_instance,
    validate_rols,
)

# The public names the imports above bind; the submodules they also bind
# (`io`, `model`, ...) stay out, so a star import shadows no module of the
# caller's, such as the standard library's `io`.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += ["main", "run_cli"]


def __getattr__(name):
    """`main` and `run_cli` import the CLI on first use, so that
    `python -m bundlechoice.cli` runs a module the package has not loaded."""
    if name in ("main", "run_cli"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
