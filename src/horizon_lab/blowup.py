"""Blow-up time, rate and type reconstruction from horizon-bound orbits.

A trajectory that reaches the horizon in finite desingularized time tau only
covers physical time up to t(tau_end); the remaining physical time is the
integral of dt/dtau over the rest of the orbit.  Near an attracting horizon
equilibrium the time factor decays like A * exp(-k*lambda*tau), so the missing
tail is A * exp(-k*lambda*tau_end) / (k*lambda), which is what estimate_tmax
adds.  Component-wise rates come from fitting log|y_i| against
log(t_max - t) over a window straddling the horizon approach; for a type-I
blow-up the slopes must reproduce -alpha_i / k.  t_max - t is the tail plus
the trajectory's own time increments after each sample, never a difference
of absolute times: with k = 3 it drops below the ulp of t inside the window.
Every function reads the type (alpha and k) from ``traj.dfield.htype``, the
type the trajectory's field was built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .charts import DirectionalChart
from .dynamics import (
    HORIZON_REACHED,
    Equilibrium,
    EquilibriumCurve,
    Trajectory,
    estimate_decay,
)
from .errors import (
    DomainError,
    InsufficientWindow,
    NoTargetFound,
    NotConverged,
    VanishingComponent,
)

__all__ = [
    "RateRecord",
    "BlowupReport",
    "estimate_tmax",
    "extrapolate_tail",
    "fit_rate",
    "build_report",
]

_FIT_GAP_LO = 1e-8
_FIT_GAP_HI = 1e-3
_MIN_FIT_SAMPLES = 20
_VANISH_TOL = 1e-5
_VANISH_SLOPE = 0.5
_TARGET_RADIUS = 0.1
_R2_CONFIRM = 0.999
_EXPONENT_CONFIRM = 0.05


def extrapolate_tail(traj: Trajectory, lambda_decay: float) -> float:
    """The physical time a horizon-reaching trajectory has left after its
    last sample.

    Extrapolates the time factor A*exp(-k*lambda*tau) beyond the last
    sample, A fitted over the final decade of the horizon gap, and returns
    its integral A*exp(-k*lambda*tau_end)/(k*lambda); k is the order of
    the field's type.

    Raises NotConverged unless the trajectory actually reached the horizon,
    InsufficientWindow when no sample lies off the horizon.
    """
    if traj.stop_reason != HORIZON_REACHED:
        raise NotConverged(
            f"no blow-up time: trajectory stopped with '{traj.stop_reason}'",
            stop_reason=traj.stop_reason,
        )
    lam = float(lambda_decay)
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"decay rate must be positive, got {lambda_decay}")

    gaps = traj.gaps
    pos = np.nonzero(gaps > 0)[0]
    if not len(pos):
        raise InsufficientWindow("no positive horizon gap to extrapolate")
    g_end = gaps[pos[-1]]
    window = pos[gaps[pos] <= 10.0 * g_end]
    if len(window) < 2:
        window = pos[-min(10, len(pos)):]
    rate = traj.dfield.htype.k_float * lam
    # an explicit left-to-right sum: the builtin sum() compensates exact
    # floats from Python 3.12 on, and t_max must not depend on the version
    log_A_sum, count = 0.0, 0
    for i in window:
        tf = traj.dfield.time_scale(traj.coords[i])
        if tf > 0:
            log_A_sum += math.log(tf) + rate * traj.taus[i]
            count += 1
    if not count:
        raise NotConverged(
            "time factor vanished before the final window; cannot extrapolate",
            stop_reason=traj.stop_reason,
        )
    A = math.exp(log_A_sum / count)
    return A * math.exp(-rate * float(traj.taus[-1])) / rate


def _time_to_go(traj: Trajectory, tail: float) -> np.ndarray:
    """t_max - t at every sample, as ``tail`` plus the time increments
    ``traj.dts`` after the sample, added from the end.

    The increments come from the integrator's time slot, so the result
    keeps its relative accuracy where t_max - t is far below the ulp of t
    (with k = 3 it reaches gap**3 ~ 1e-24 in the fit window); the
    difference t_max - ts would be rounding noise there.
    """
    return np.cumsum(np.append(tail, traj.dts[:0:-1]))[::-1]


def estimate_tmax(traj: Trajectory, lambda_decay: float) -> Tuple[float, float]:
    """Blow-up time from a horizon-reaching trajectory plus its decay rate.

    Returns (t_max, tail_fraction): t_max = t(tau_end) + tail with the tail
    from ``extrapolate_tail``, and tail_fraction the tail relative to the
    total reconstructed span, the time to go at sample 0.  Raises as
    ``extrapolate_tail``.
    """
    return _tmax(traj, extrapolate_tail(traj, lambda_decay))


def _tmax(traj: Trajectory, tail: float) -> Tuple[float, float]:
    span = float(_time_to_go(traj, tail)[0])
    return float(traj.ts[-1]) + tail, (tail / span if span > 0 else math.inf)


def _window_mask(traj: Trajectory, to_go: np.ndarray) -> np.ndarray:
    return (
        (traj.gaps >= _FIT_GAP_LO)
        & (traj.gaps <= _FIT_GAP_HI)
        & (to_go > 0)
    )


def fit_rate(
    traj: Trajectory, tail: float, component_index: int
) -> Tuple[float, float, float]:
    """Fit the power-law rate of one original component near blow-up.

    Reconstructs y_i along the trajectory over the window where the horizon
    gap lies in [1e-8, 1e-3] and fits log|y_i| ~ log(t_max - t), with
    t_max - t the tail plus the trajectory's time increments after each
    sample, added from the end; ``tail`` is the time left
    after the last sample (``extrapolate_tail``).  Returns
    (fitted_exponent, r_squared, leading_coefficient), the coefficient signed
    by the component's final sign.

    Raises InsufficientWindow (< 20 window samples), VanishingComponent (the
    chart coordinate of the component tends to zero, so the component is
    sub-polynomial and no rate is claimed), DomainError (weight-0 component,
    or an index outside the field).
    The chart coordinate counts as vanishing when its median magnitude is
    below 1e-5, or when it shrinks with the gap: log|x_i| against log(gap)
    has slope above 1/2 (alpha_i for a constant component, 0 for one that
    blows up at the type rate).  alpha_i comes from the field's type.
    """
    htype = traj.dfield.htype
    i = int(component_index)
    if not 0 <= i < htype.n:
        raise DomainError(f"component {i} is not one of the field's {htype.n}")
    alpha_i = htype.alpha[i]
    if alpha_i == 0:
        raise DomainError(
            f"component {i} has weight 0; it does not blow up polynomially"
        )
    to_go = _time_to_go(traj, tail)
    idx = np.nonzero(_window_mask(traj, to_go))[0]
    if len(idx) < _MIN_FIT_SAMPLES:
        raise InsufficientWindow(
            f"rate window holds {len(idx)} samples; need {_MIN_FIT_SAMPLES}"
        )
    chart = traj.dfield.chart
    coords = traj.coords[idx]
    gaps = traj.gaps[idx]
    directional = isinstance(chart, DirectionalChart)
    if not (directional and i == chart.i0):
        xi = np.abs(coords[:, i])
        if np.median(xi) < _VANISH_TOL or (
            np.all(xi > 0)
            and np.polyfit(np.log(gaps), np.log(xi), 1)[0] > _VANISH_SLOPE
        ):
            raise VanishingComponent(
                f"chart coordinate {i} tends to zero along the approach; "
                f"the component is sub-polynomial relative to the type rate"
            )
    y = chart.unscale(coords[:, i], gaps, i)
    x = np.log(to_go[idx])
    ylog = np.log(np.abs(y))
    slope, intercept = np.polyfit(x, ylog, 1)
    fitted = ylog - (intercept + slope * x)
    ss_res = float(np.sum(fitted**2))
    ss_tot = float(np.sum((ylog - ylog.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    coeff = math.exp(intercept) * (1.0 if y[-1] >= 0 else -1.0)
    return float(slope), float(r2), float(coeff)


@dataclass(frozen=True)
class RateRecord:
    """Fitted vs predicted blow-up rate for one positively weighted variable."""

    variable: str
    component_index: int
    predicted_exponent: float
    fitted_exponent: Optional[float]
    fit_r2: Optional[float]
    leading_coefficient: Optional[float]
    vanishing: bool = False

    @property
    def confirmed(self) -> bool:
        if self.vanishing or self.fitted_exponent is None:
            return False
        return (
            self.fit_r2 > _R2_CONFIRM
            and abs(self.fitted_exponent - self.predicted_exponent)
            < _EXPONENT_CONFIRM * abs(self.predicted_exponent)
        )


@dataclass(frozen=True)
class BlowupReport:
    """Full blow-up profile of one horizon-bound trajectory.

    type1_confirmed is true when every non-vanishing component rate matches
    its prediction -alpha_i/k with r^2 > 0.999 and 5% exponent agreement.
    shadowed_target is the horizon equilibrium the orbit approaches.
    """

    t_max: float
    t_max_tail_fraction: float
    lambda_decay: float
    residual_slope: float
    records: Tuple[RateRecord, ...]
    type1_confirmed: bool
    shadowed_target: Equilibrium


def build_report(
    traj: Trajectory,
    targets: Union[Equilibrium, Sequence[Equilibrium], EquilibriumCurve],
) -> BlowupReport:
    """Assemble the blow-up report for a horizon-reaching trajectory.

    ``targets`` may be a single equilibrium, a list, or an equilibrium curve;
    the closest one (time slot excluded from the distance) within 0.1 of the
    trajectory endpoint becomes the shadowed target, else NoTargetFound.
    Every positively weighted variable of the field's type gets a rate
    record, its prediction -alpha_i/k.
    """
    if isinstance(targets, EquilibriumCurve):
        candidates = list(targets.samples)
    elif isinstance(targets, Equilibrium):
        candidates = [targets]
    else:
        candidates = list(targets)
    if not candidates:
        raise NoTargetFound("no candidate equilibria supplied")
    end = traj.coords[-1]
    skip_time = 1 if traj.dfield.nonautonomous else 0
    dists = [
        float(np.max(np.abs(end - eq.coords)[skip_time:], initial=0.0))
        for eq in candidates
    ]
    best = int(np.argmin(dists))
    if dists[best] >= _TARGET_RADIUS:
        raise NoTargetFound(
            f"nearest equilibrium is {dists[best]:.3g} from the trajectory "
            f"endpoint (threshold {_TARGET_RADIUS})"
        )
    target = candidates[best]

    lam, residual_slope = estimate_decay(traj)
    tail = extrapolate_tail(traj, lam)
    t_max, tail_fraction = _tmax(traj, tail)

    htype = traj.dfield.htype
    names = traj.dfield.source.variable_names
    records = []
    for i in htype.i_alpha:
        try:
            fitted, r2, coeff = fit_rate(traj, tail, i)
        except VanishingComponent:
            fitted = r2 = coeff = None
        records.append(
            RateRecord(
                variable=names[i],
                component_index=i,
                predicted_exponent=float(htype.blowup_exponent(i)),
                fitted_exponent=fitted,
                fit_r2=r2,
                leading_coefficient=coeff,
                vanishing=fitted is None,
            )
        )
    active = [r for r in records if not r.vanishing]
    confirmed = bool(active) and all(r.confirmed for r in active)
    return BlowupReport(
        t_max=t_max,
        t_max_tail_fraction=tail_fraction,
        lambda_decay=lam,
        residual_slope=residual_slope,
        records=tuple(records),
        type1_confirmed=confirmed,
        shadowed_target=target,
    )
