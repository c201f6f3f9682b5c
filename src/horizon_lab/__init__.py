"""horizon_lab: finite-time blow-up detection for ODEs via compactification.

The package embeds phase space into a bounded chart whose boundary (the
"horizon") is the image of infinity, desingularizes the vector field so the
flow extends to that boundary, and reads off blow-up times, rates and types
from the resulting horizon dynamics: a solution blows up in finite time
exactly when its compactified orbit reaches the horizon in finite
desingularized time, and the approach to a hyperbolic horizon equilibrium
dictates algebraic rates y_i ~ C (t_max - t)^(-alpha_i/k).
"""

from .blowup import (
    BlowupReport,
    RateRecord,
    build_report,
    estimate_decay,
    estimate_tmax,
    extrapolate_tail,
    fit_rate,
)
from .charts import (
    DirectionalChart,
    EmbeddedPoint,
    ParabolicChart,
    embed,
    project,
    solve_kappa,
    transition,
)
from .config import (
    AnalysisConfig,
    OutputSpec,
    RunSpec,
    parse_config,
)
from .desing import (
    DesingField,
    build_directional_desing,
    build_parabolic_desing,
    evaluate_desing,
    extend_nonautonomous,
)
from .dynamics import (
    DIVERGED,
    HORIZON_REACHED,
    LEFT_DOMAIN,
    TAU_EXHAUSTED,
    Equilibrium,
    EquilibriumCurve,
    IntegratorControls,
    SpectralSplit,
    Trajectory,
    check_nonresonance,
    find_horizon_equilibria,
    grid_seeds,
    integrate,
    spectrum_classify,
    trace_equilibrium_curve,
)
from .errors import (
    AlreadyExtendedError,
    ChartDomainError,
    ConvergenceError,
    CurveBreak,
    DomainError,
    EigenFailure,
    HorizonError,
    HorizonLabError,
    InsufficientWindow,
    NegativeWExponentError,
    NoTargetFound,
    NotAQHError,
    NotConverged,
    NoTypeFound,
    OutputError,
    SchemaError,
    StepFailure,
    UnknownExample,
    VanishingComponent,
)
from .homogeneity import (
    ExtendedFieldSpec,
    FieldSpec,
    HomogeneityReport,
    HomogeneityType,
    Monomial,
    classify_monomials,
    derive_beta,
    eval_field,
    infer_type,
    jacobian_field,
)
from .systems import (
    kk_dafermos,
    make_example,
    mems,
    painleve1,
    selfsimilar,
)
from .cli import emit_example, list_examples, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # homogeneity
    "Monomial",
    "FieldSpec",
    "ExtendedFieldSpec",
    "HomogeneityType",
    "HomogeneityReport",
    "derive_beta",
    "eval_field",
    "jacobian_field",
    "classify_monomials",
    "infer_type",
    # charts
    "ParabolicChart",
    "DirectionalChart",
    "EmbeddedPoint",
    "solve_kappa",
    "embed",
    "project",
    "transition",
    # desingularization
    "DesingField",
    "extend_nonautonomous",
    "build_parabolic_desing",
    "build_directional_desing",
    "evaluate_desing",
    # dynamics
    "IntegratorControls",
    "Trajectory",
    "Equilibrium",
    "EquilibriumCurve",
    "SpectralSplit",
    "integrate",
    "find_horizon_equilibria",
    "grid_seeds",
    "spectrum_classify",
    "trace_equilibrium_curve",
    "check_nonresonance",
    "estimate_decay",
    "HORIZON_REACHED",
    "TAU_EXHAUSTED",
    "LEFT_DOMAIN",
    "DIVERGED",
    # blow-up
    "RateRecord",
    "BlowupReport",
    "estimate_tmax",
    "extrapolate_tail",
    "fit_rate",
    "build_report",
    # systems
    "painleve1",
    "kk_dafermos",
    "selfsimilar",
    "mems",
    "make_example",
    # config / cli
    "AnalysisConfig",
    "RunSpec",
    "OutputSpec",
    "parse_config",
    "run_pipeline",
    "list_examples",
    "emit_example",
    # errors
    "HorizonLabError",
    "DomainError",
    "NotAQHError",
    "NoTypeFound",
    "NegativeWExponentError",
    "ChartDomainError",
    "HorizonError",
    "ConvergenceError",
    "StepFailure",
    "EigenFailure",
    "CurveBreak",
    "InsufficientWindow",
    "VanishingComponent",
    "NotConverged",
    "NoTargetFound",
    "SchemaError",
    "UnknownExample",
    "OutputError",
    "AlreadyExtendedError",
]
