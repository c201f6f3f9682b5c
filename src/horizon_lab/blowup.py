"""Blow-up time, rate and type reconstruction from horizon-bound orbits.

A trajectory that reaches the horizon in finite desingularized time tau only
covers physical time up to t(tau_end); the remaining physical time is the
integral of dt/dtau over the rest of the orbit.  Near an attracting horizon
equilibrium the time factor decays like A * exp(-k*lambda*tau), so the missing
tail is A * exp(-k*lambda*tau_end) / (k*lambda), which is what estimate_tmax
adds.  Component-wise rates come from fitting log|y_i| against
log(t_max - t) over a window straddling the horizon approach; for a type-I
blow-up the slopes must reproduce -alpha_i / k.
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
from .homogeneity import HomogeneityType

__all__ = [
    "RateRecord",
    "BlowupReport",
    "estimate_tmax",
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


def estimate_tmax(
    traj: Trajectory, lambda_decay: float, k: float
) -> Tuple[float, float]:
    """Blow-up time from a horizon-reaching trajectory plus its decay rate.

    Returns (t_max, tail_fraction): t_max = t(tau_end) + tail where the tail
    extrapolates the time factor A*exp(-k*lambda*tau) beyond the last sample
    (A is fitted over the final decade of the horizon gap), and tail_fraction
    is the tail relative to the total reconstructed span t_max - t(0).

    Raises NotConverged unless the trajectory actually reached the horizon,
    InsufficientWindow when no sample lies off the horizon.
    """
    if traj.stop_reason != HORIZON_REACHED:
        raise NotConverged(
            f"no blow-up time: trajectory stopped with '{traj.stop_reason}'",
            stop_reason=traj.stop_reason,
        )
    lam = float(lambda_decay)
    kf = float(k)
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"decay rate must be positive, got {lambda_decay}")
    if not (kf > 0 and math.isfinite(kf)):
        raise DomainError(f"order k must be positive, got {k}")

    gaps = traj.gaps
    pos = np.nonzero(gaps > 0)[0]
    if not len(pos):
        raise InsufficientWindow("no positive horizon gap to extrapolate")
    g_end = gaps[pos[-1]]
    window = pos[gaps[pos] <= 10.0 * g_end]
    if len(window) < 2:
        window = pos[-min(10, len(pos)):]
    rate = kf * lam
    log_A = []
    for i in window:
        tf = traj.dfield.time_scale(traj.coords[i])
        if tf > 0:
            log_A.append(math.log(tf) + rate * traj.taus[i])
    if not log_A:
        raise NotConverged(
            "time factor vanished before the final window; cannot extrapolate",
            stop_reason=traj.stop_reason,
        )
    A = math.exp(sum(log_A) / len(log_A))
    tau_end = float(traj.taus[-1])
    tail = A * math.exp(-rate * tau_end) / rate
    t_end = float(traj.ts[-1])
    t_max = t_end + tail
    span = t_max - float(traj.ts[0])
    return t_max, (tail / span if span > 0 else math.inf)


def _window_mask(traj: Trajectory, t_max: float) -> np.ndarray:
    return (
        (traj.gaps >= _FIT_GAP_LO)
        & (traj.gaps <= _FIT_GAP_HI)
        & (t_max - traj.ts > 0)
    )


def fit_rate(
    traj: Trajectory,
    t_max: float,
    component_index: int,
    htype: HomogeneityType,
) -> Tuple[float, float, float]:
    """Fit the power-law rate of one original component near blow-up.

    Reconstructs y_i along the trajectory over the window where the horizon
    gap lies in [1e-8, 1e-3] and fits log|y_i| ~ log(t_max - t).  Returns
    (fitted_exponent, r_squared, leading_coefficient), the coefficient signed
    by the component's final sign.

    Raises InsufficientWindow (< 20 window samples), VanishingComponent (the
    chart coordinate of the component tends to zero, so the component is
    sub-polynomial and no rate is claimed), DomainError (weight-0 component).
    The chart coordinate counts as vanishing when its median magnitude is
    below 1e-5, or when it shrinks with the gap: log|x_i| against log(gap)
    has slope above 1/2 (alpha_i for a constant component, 0 for one that
    blows up at the type rate).
    """
    i = int(component_index)
    alpha_i = htype.alpha[i]
    if alpha_i == 0:
        raise DomainError(
            f"component {i} has weight 0; it does not blow up polynomially"
        )
    mask = _window_mask(traj, t_max)
    idx = np.nonzero(mask)[0]
    if len(idx) < _MIN_FIT_SAMPLES:
        raise InsufficientWindow(
            f"rate window holds {len(idx)} samples; need {_MIN_FIT_SAMPLES}"
        )
    chart = traj.chart
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
    if directional:
        s = gaps
        if i == chart.i0:
            y = chart.sign * s ** (-float(alpha_i))
        else:
            y = coords[:, i] * s ** (-float(alpha_i))
    else:
        kappa = 1.0 / gaps
        y = coords[:, i] * kappa ** float(alpha_i)
    t_left = t_max - traj.ts[idx]
    x = np.log(t_left)
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


def _trajectory_endpoint_distance(
    traj: Trajectory, eq: Equilibrium, skip_time: bool
) -> float:
    end = traj.coords[-1]
    diff = np.abs(end - eq.coords)
    if skip_time:
        diff = diff[1:]
    return float(diff.max()) if diff.size else 0.0


def build_report(
    traj: Trajectory,
    targets: Union[Equilibrium, Sequence[Equilibrium], EquilibriumCurve],
    htype: HomogeneityType,
) -> BlowupReport:
    """Assemble the blow-up report for a horizon-reaching trajectory.

    ``targets`` may be a single equilibrium, a list, or an equilibrium curve;
    the closest one (time slot excluded from the distance) within 0.1 of the
    trajectory endpoint becomes the shadowed target, else NoTargetFound.
    """
    if isinstance(targets, EquilibriumCurve):
        candidates = list(targets.samples)
    elif isinstance(targets, Equilibrium):
        candidates = [targets]
    else:
        candidates = list(targets)
    if not candidates:
        raise NoTargetFound("no candidate equilibria supplied")
    skip_time = traj.dfield.nonautonomous
    dists = [
        _trajectory_endpoint_distance(traj, eq, skip_time) for eq in candidates
    ]
    best = int(np.argmin(dists))
    if dists[best] >= _TARGET_RADIUS:
        raise NoTargetFound(
            f"nearest equilibrium is {dists[best]:.3g} from the trajectory "
            f"endpoint (threshold {_TARGET_RADIUS})"
        )
    target = candidates[best]

    lam, residual_slope = estimate_decay(traj)
    t_max, tail_fraction = estimate_tmax(traj, lam, htype.k_float)

    names = traj.dfield.source.variable_names
    records = []
    for i in htype.i_alpha:
        try:
            fitted, r2, coeff = fit_rate(traj, t_max, i, htype)
            rec = RateRecord(
                variable=names[i],
                component_index=i,
                predicted_exponent=float(htype.blowup_exponent(i)),
                fitted_exponent=fitted,
                fit_r2=r2,
                leading_coefficient=coeff,
            )
        except VanishingComponent:
            rec = RateRecord(
                variable=names[i],
                component_index=i,
                predicted_exponent=float(htype.blowup_exponent(i)),
                fitted_exponent=None,
                fit_r2=None,
                leading_coefficient=None,
                vanishing=True,
            )
        records.append(rec)
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
