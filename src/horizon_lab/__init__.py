"""horizon_lab: finite-time blow-up detection for ODEs via compactification.

The package embeds phase space into a bounded chart whose boundary (the
"horizon") is the image of infinity, desingularizes the vector field so the
flow extends to that boundary, and reads off blow-up times, rates and types
from the resulting horizon dynamics: a solution blows up in finite time
exactly when its compactified orbit reaches the horizon in finite
desingularized time, and the approach to a hyperbolic horizon equilibrium
dictates algebraic rates y_i ~ C (t_max - t)^(-alpha_i/k).

Every matrix the package factors is a small stacked (n+1) x (n+1), on
which a BLAS thread pool only adds start-up cost and idle threads, so
OpenBLAS gets one thread unless the caller set OPENBLAS_NUM_THREADS or
imported NumPy first; the environment keeps no default for later children.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # OpenBLAS reads the variable as NumPy loads it
    del os.environ["OPENBLAS_NUM_THREADS"], numpy

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
    FieldSpec,
    HomogeneityReport,
    HomogeneityType,
    Monomial,
    classify_monomials,
    derive_beta,
    eval_field,
    infer_type,
)
from .systems import (
    kk_dafermos,
    make_example,
    mems,
    painleve1,
    selfsimilar,
)
from .cli import run_pipeline

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # homogeneity
    "Monomial",
    "FieldSpec",
    "HomogeneityType",
    "HomogeneityReport",
    "derive_beta",
    "eval_field",
    "classify_monomials",
    "infer_type",
    # charts
    "ParabolicChart",
    "DirectionalChart",
    "EmbeddedPoint",
    "embed",
    "project",
    # desingularization
    "DesingField",
    "build_parabolic_desing",
    "build_directional_desing",
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
]
