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

The decay rate lambda comes from the gap itself (``estimate_decay``).  Every
straight line here is the closed-form least-squares line about the means
(``_line``).  A report forms the time to go and the rate window once and
fits all its components in one stacked pass over the window, one
contiguous row per component, so a report costs a fixed number of NumPy
calls and ``fit_rate`` on one component gives its record's numbers exactly.
``build_report`` is ``nearest_target`` followed by ``fit_blowup``, which
needs no target, so a trajectory can be fitted before its target is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .desing import DesingField
from .dynamics import HORIZON_REACHED, Equilibrium, EquilibriumCurve, Trajectory
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
    "estimate_decay",
    "estimate_tmax",
    "extrapolate_tail",
    "fit_rate",
    "nearest_target",
    "fit_blowup",
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
    the field's type, the time factor read at the recorded gaps.

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
    time_factor_at = traj.dfield.time_factor_at
    try:
        for g, tau in zip(gaps[window].tolist(), traj.taus[window].tolist()):
            tf = time_factor_at(g)
            if tf > 0:
                log_A_sum += math.log(tf) + rate * tau
                count += 1
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        raise DomainError(f"time factor failed at gap {g}: {exc}") from exc
    if not count:
        raise NotConverged(
            "time factor vanished before the final window; cannot extrapolate",
            stop_reason=traj.stop_reason,
        )
    # one exp of the summed logs: A alone can overflow where the tail cannot
    return math.exp(log_A_sum / count - rate * float(traj.taus[-1])) / rate


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
    tail = extrapolate_tail(traj, lambda_decay)
    return _tmax(traj, tail, _time_to_go(traj, tail))


def _tmax(traj: Trajectory, tail: float, to_go: np.ndarray) -> Tuple[float, float]:
    span = float(to_go[0])
    return float(traj.ts[-1]) + tail, (tail / span if span > 0 else math.inf)


def _line(x: np.ndarray, ys: np.ndarray):
    """The least-squares line through the points (x, y) for each row y of
    the (c, N) array ``ys``, in closed form about the means:
    slope = sum(dx dy) / sum(dx**2), with dx and dy the deviations from
    the means.  Returns (slope, intercept, residuals, dy), the residuals
    dy - slope dx.  Each row's sums reduce a contiguous row, so a row's
    numbers do not depend on the other rows."""
    n = len(x)
    x_mean = np.add.reduce(x) / n
    dx = x - x_mean
    y_mean = np.add.reduce(ys, axis=1) / n
    dy = ys - y_mean[:, None]
    slope = np.add.reduce(dx * dy, axis=1) / np.add.reduce(dx * dx)
    return slope, y_mean - slope * x_mean, dy - slope[:, None] * dx, dy


def _sorted_median(s: np.ndarray) -> np.ndarray:
    """The median of each row of the row-sorted (c, N) array ``s``: its
    middle element, or the mean of the two middle ones, as ``np.median``
    gives it (without the ``numpy.ma`` import of its first call)."""
    h = s.shape[1] // 2
    return s[:, h] if s.shape[1] % 2 else (s[:, h - 1] + s[:, h]) / 2


def estimate_decay(traj: Trajectory, window: Optional[Tuple[float, float]] = None):
    """Fit the exponential decay rate of the horizon gap.

    Returns (lambda, residual_slope): lambda from the least-squares line
    (``_line``, in closed form) through log(gap) vs tau over the window
    (default: the trailing stretch where the gap is within 1e4 of its
    final value), residual_slope the peak-to-peak drift of the fit
    residuals divided by the window length -- a slope-free measure of how
    straight the decay really is.

    Raises InsufficientWindow with fewer than ``_MIN_FIT_SAMPLES`` usable
    samples.
    """
    taus = traj.taus
    gaps = traj.gaps
    pos = gaps > 0
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        mask = pos & (taus >= lo) & (taus <= hi)
    else:
        if not np.any(pos):
            raise InsufficientWindow("no positive horizon gaps to fit")
        g_end = gaps[pos][-1]
        mask = pos & (gaps <= 1e4 * g_end)
    idx = np.flatnonzero(mask)
    if len(idx) < _MIN_FIT_SAMPLES:
        raise InsufficientWindow(
            f"decay window holds {len(idx)} samples; need at least {_MIN_FIT_SAMPLES}"
        )
    x = taus[idx]
    span = float(x[-1] - x[0])
    if span <= 0:
        raise InsufficientWindow("decay window has zero length")
    slope, _, resid, _ = _line(x, np.log(gaps[idx])[None, :])
    residual_slope = float((resid.max() - resid.min()) / span)
    return float(-slope[0]), residual_slope


def _window_mask(traj: Trajectory, to_go: np.ndarray) -> np.ndarray:
    return (
        (traj.gaps >= _FIT_GAP_LO)
        & (traj.gaps <= _FIT_GAP_HI)
        & (to_go > 0)
    )


def _rate_fits(traj: Trajectory, to_go: np.ndarray, comps: Sequence[int]) -> list:
    """The rate fit of each component in ``comps`` (positively weighted
    slots) over the rate window, in one stacked pass: a list of
    (fitted_exponent, r_squared, leading_coefficient), or None for a
    vanishing component.  ``to_go`` is ``_time_to_go`` of the trajectory.

    The window's samples are laid out as one contiguous row per component,
    so each component's numbers are the same whichever components share
    the pass.  Raises InsufficientWindow (< 20 window samples).
    """
    idx = np.flatnonzero(_window_mask(traj, to_go))
    if len(idx) < _MIN_FIT_SAMPLES:
        raise InsufficientWindow(
            f"rate window holds {len(idx)} samples; need {_MIN_FIT_SAMPLES}"
        )
    comps = np.asarray(comps, dtype=int)
    gaps = traj.gaps[idx]
    X = np.ascontiguousarray(traj.coords[idx][:, comps].T)
    # a directional s vanishes by design; every other chart coordinate
    # vanishes when its median magnitude is tiny or it shrinks with the gap
    tested = np.flatnonzero(comps != traj.dfield.gap_slot)
    xi = np.abs(X[tested])
    srt = np.sort(xi, axis=1)
    gone = _sorted_median(srt) < _VANISH_TOL
    pos = srt[:, 0] > 0
    gone[pos] |= _line(np.log(gaps), np.log(xi[pos]))[0] > _VANISH_SLOPE
    vanishing = np.zeros(len(comps), dtype=bool)
    vanishing[tested] = gone
    live = np.flatnonzero(~vanishing)
    y = traj.dfield.chart.unscale(X[live], gaps, comps[live, None])
    slope, intercept, resid, dy = _line(np.log(to_go[idx]), np.log(np.abs(y)))
    ss_res = np.add.reduce(resid * resid, axis=1)
    ss_tot = np.add.reduce(dy * dy, axis=1)
    fits: list = [None] * len(comps)
    for r, row in enumerate(live.tolist()):
        tot = float(ss_tot[r])
        r2 = 1.0 - float(ss_res[r]) / tot if tot > 0 else 0.0
        coeff = math.exp(intercept[r]) * (1.0 if y[r, -1] >= 0 else -1.0)
        fits[row] = (float(slope[r]), r2, coeff)
    return fits


def fit_rate(
    traj: Trajectory, tail: float, component_index: int
) -> Tuple[float, float, float]:
    """Fit the power-law rate of one original component near blow-up.

    Reconstructs y_i along the trajectory over the window where the horizon
    gap lies in [1e-8, 1e-3] and fits the least-squares line (``_line``,
    in closed form) of log|y_i| against log(t_max - t), with t_max - t the
    tail plus the trajectory's time increments after each sample, added
    from the end; ``tail`` is the time left after the last sample
    (``extrapolate_tail``).  Returns (fitted_exponent, r_squared,
    leading_coefficient), the coefficient signed by the component's final
    sign: exactly the numbers of ``build_report``'s record for component
    i, from the same stacked fit.

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
    if htype.alpha[i] == 0:
        raise DomainError(
            f"component {i} has weight 0; it does not blow up polynomially"
        )
    (fit,) = _rate_fits(traj, _time_to_go(traj, tail), [i])
    if fit is None:
        raise VanishingComponent(
            f"chart coordinate {i} tends to zero along the approach; "
            f"the component is sub-polynomial relative to the type rate"
        )
    return fit


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
    shadowed_target is the horizon equilibrium the orbit approaches (None
    from ``fit_blowup``, before a target is chosen).
    """

    t_max: float
    t_max_tail_fraction: float
    lambda_decay: float
    residual_slope: float
    records: Tuple[RateRecord, ...]
    type1_confirmed: bool
    shadowed_target: Optional[Equilibrium]


def nearest_target(
    dfield: DesingField,
    end,
    targets: Union[Equilibrium, Sequence[Equilibrium], EquilibriumCurve],
) -> Equilibrium:
    """The target a trajectory ending at ``end`` shadows.

    ``targets`` may be a single equilibrium, a list, or an equilibrium
    curve; the closest one (time slot excluded from the distance) within
    0.1 of ``end`` is returned, else NoTargetFound.
    """
    if isinstance(targets, EquilibriumCurve):
        candidates = list(targets.samples)
    elif isinstance(targets, Equilibrium):
        candidates = [targets]
    else:
        candidates = list(targets)
    if not candidates:
        raise NoTargetFound("no candidate equilibria supplied")
    skip_time = 1 if dfield.nonautonomous else 0
    ends = np.array([eq.coords for eq in candidates])
    dists = np.max(np.abs(end - ends)[:, skip_time:], axis=1, initial=0.0)
    best = int(np.argmin(dists))
    if dists[best] >= _TARGET_RADIUS:
        raise NoTargetFound(
            f"nearest equilibrium is {dists[best]:.3g} from the trajectory "
            f"endpoint (threshold {_TARGET_RADIUS})"
        )
    return candidates[best]


def fit_blowup(traj: Trajectory) -> BlowupReport:
    """The part of the blow-up report that does not depend on the target:
    every field but ``shadowed_target``, which is None.

    Every positively weighted variable of the field's type gets a rate
    record, its prediction -alpha_i/k.  lambda comes from
    ``estimate_decay``, the tail from ``extrapolate_tail``; the time to go
    and the rate window are formed once, and every component is fitted in
    one stacked pass, whose record i is what ``fit_rate`` returns for i.
    """
    lam, residual_slope = estimate_decay(traj)
    tail = extrapolate_tail(traj, lam)
    to_go = _time_to_go(traj, tail)
    t_max, tail_fraction = _tmax(traj, tail, to_go)

    htype = traj.dfield.htype
    names = traj.dfield.source.variable_names
    predicted = htype.predicted_exponents
    fits = _rate_fits(traj, to_go, htype.i_alpha)
    records = [
        RateRecord(
            variable=names[i],
            component_index=i,
            predicted_exponent=predicted[i],
            fitted_exponent=None if fit is None else fit[0],
            fit_r2=None if fit is None else fit[1],
            leading_coefficient=None if fit is None else fit[2],
            vanishing=fit is None,
        )
        for i, fit in zip(htype.i_alpha, fits)
    ]
    active = [r for r in records if not r.vanishing]
    confirmed = bool(active) and all(r.confirmed for r in active)
    return BlowupReport(
        t_max=t_max,
        t_max_tail_fraction=tail_fraction,
        lambda_decay=lam,
        residual_slope=residual_slope,
        records=tuple(records),
        type1_confirmed=confirmed,
        shadowed_target=None,
    )


def build_report(
    traj: Trajectory,
    targets: Union[Equilibrium, Sequence[Equilibrium], EquilibriumCurve],
) -> BlowupReport:
    """Assemble the blow-up report for a horizon-reaching trajectory: the
    target ``nearest_target`` picks for its endpoint, checked first, so
    its NoTargetFound wins over a fit's error, and ``fit_blowup``.
    """
    target = nearest_target(traj.dfield, traj.coords[-1], targets)
    return replace(fit_blowup(traj), shadowed_target=target)
