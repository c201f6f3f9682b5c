"""Flows, horizon equilibria and spectral analysis of desingularized fields.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step control,
hand-rolled so the stopping semantics are exact: a trajectory ends with one of
four reasons (horizon_reached / tau_exhausted / left_domain / diverged), a
stage that probes outside the chart domain causes a retry with a smaller step
rather than a crash, and a step-size underflow raises StepFailure.  Physical
time is reconstructed along the way from the time factor dt/dtau.  The step
itself is generated per field (``DesingField.step``, emitted in ``desing``):
the stages, the tableau and the error norm are unrolled around the field's
own expressions; this module keeps the step-size control and the stops.

Horizon equilibria are found by a damped Gauss-Newton iteration on the
augmented system [g(x); P(x) - 1] (parabolic) or on g restricted to {s = 0}
(directional), seeded on small grids or at given points.  All seeds of one
search form a single batch: the residuals and Jacobians come from the
field's array evaluators (``DesingField.rhs_array`` / ``jacobian_array``),
the least-squares steps from one stacked pseudo-inverse, and each seed
keeps its own line search and stopping rules.  Spectra are
split into tangential / stable / unstable parts with an explicit neutral
tolerance so borderline cases surface as 'nonhyperbolic' instead of a
guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .charts import DirectionalChart, ParabolicChart
from .desing import DesingField
from .errors import (
    CurveBreak,
    DomainError,
    EigenFailure,
    InsufficientWindow,
    StepFailure,
)

__all__ = [
    "IntegratorControls",
    "Trajectory",
    "Equilibrium",
    "EquilibriumCurve",
    "SpectralSplit",
    "integrate",
    "find_horizon_equilibria",
    "horizon_targets",
    "spectrum_classify",
    "trace_equilibrium_curve",
    "check_nonresonance",
    "estimate_decay",
    "HORIZON_REACHED",
    "TAU_EXHAUSTED",
    "LEFT_DOMAIN",
    "DIVERGED",
    "TOL_NEUTRAL",
]

HORIZON_REACHED = "horizon_reached"
TAU_EXHAUSTED = "tau_exhausted"
LEFT_DOMAIN = "left_domain"
DIVERGED = "diverged"

TOL_NEUTRAL = 1e-8
_DOMAIN_SLACK = 1e-9  # grace below the horizon before calling it left_domain
_MIN_STEP = 1e-15
_STATE_GUARD = 1e100

@dataclass
class IntegratorControls:
    """Tolerances and stopping thresholds for integrate().

    horizon_eps is the gap below which a trajectory counts as having reached
    the horizon; setting it to 0 disables that stop (used for invariance
    runs started exactly on the horizon).  max_step bounds the tau step so
    the asymptotic approach stays densely enough sampled for rate fitting.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tau_max: float = 200.0
    horizon_eps: float = 1e-12
    h_init: float = 1e-6
    max_step: float = 0.2
    max_steps: int = 2_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An integrated orbit of a desingularized field.

    taus is strictly increasing and ts nondecreasing; sample 0 is the initial
    condition, so ``len(taus) - 1`` equals the number of accepted steps.
    """

    chart: object
    dfield: DesingField
    taus: np.ndarray
    coords: np.ndarray
    ts: np.ndarray
    gaps: np.ndarray
    stop_reason: str
    n_rejected: int = 0

    @property
    def n_accepted(self) -> int:
        return len(self.taus) - 1

    @property
    def samples(self):
        """Iterate (tau, coords, t) triples."""
        return zip(self.taus, self.coords, self.ts)


def integrate(
    dfield: DesingField,
    coords0,
    t0: float = 0.0,
    controls: Optional[IntegratorControls] = None,
) -> Trajectory:
    """Integrate dx/dtau = g(x) with physical-time reconstruction.

    ``coords0`` are chart coordinates.  For nonautonomous fields the time
    variable is coordinate 0 (t0 is ignored); for autonomous fields t is
    carried alongside the state, starting at t0, with dt/dtau equal to the
    field's time factor.

    Raises StepFailure when the adaptive step size underflows below 1e-15.
    """
    ctl = controls or IntegratorControls()
    n = dfield.n
    x0 = [float(v) for v in np.asarray(coords0, dtype=float)]
    if len(x0) != n:
        raise ValueError(f"coords0 has length {len(x0)}, expected {n}")
    nonaut = dfield.nonautonomous

    if nonaut:
        z = list(x0)

        def t_of(state):
            return state[0]

    else:
        z = list(x0) + [float(t0)]

        def t_of(state):
            return state[n]

    def gap_of(state):
        return dfield.horizon_gap(state[:n])

    taus = [0.0]
    coords = [list(z[:n])]
    ts = [t_of(z)]
    gaps = [gap_of(z)]
    tau = 0.0
    n_rejected = 0

    gap = gaps[0]
    stop = None
    if not math.isfinite(gap) or any(not math.isfinite(v) for v in z):
        stop = DIVERGED
    elif gap < -_DOMAIN_SLACK:
        stop = LEFT_DOMAIN
    elif ctl.horizon_eps > 0 and gap < ctl.horizon_eps:
        stop = HORIZON_REACHED
    elif tau >= ctl.tau_max:
        stop = TAU_EXHAUSTED
    if stop is not None:
        return _mk_traj(dfield, taus, coords, ts, gaps, stop, n_rejected)

    k1 = dfield.rhs_values(x0)
    if nonaut:
        k1 = k1[:-1]
    step = dfield.step
    h = min(ctl.h_init, ctl.tau_max)
    err_prev = 1e-4
    steps = 0

    while True:
        steps += 1
        if steps > ctl.max_steps:
            raise StepFailure(
                f"step budget {ctl.max_steps} exhausted at tau = {tau}"
            )
        if h < _MIN_STEP:
            raise StepFailure(f"step size underflow (h = {h}) at tau = {tau}")
        capped = False
        if tau + h >= ctl.tau_max:
            h = ctl.tau_max - tau
            capped = True

        try:
            z_new, err, k7 = step(z, k1, h, ctl.abs_tol, ctl.rel_tol)
        except DomainError:
            n_rejected += 1
            h *= 0.5
            continue

        if any(not math.isfinite(v) for v in z_new):
            n_rejected += 1
            h *= 0.5
            continue

        if not math.isfinite(err):
            n_rejected += 1
            h *= 0.5
            continue
        if err > 1.0:
            n_rejected += 1
            h *= max(0.1, min(0.9, 0.9 * err ** -0.2))
            continue

        # accepted
        tau_new = ctl.tau_max if capped else tau + h
        z = z_new
        k1 = k7
        taus.append(tau_new)
        coords.append(list(z[:n]))
        ts.append(t_of(z))
        gap = gap_of(z)
        gaps.append(gap)
        tau = tau_new

        if any(abs(v) > _STATE_GUARD for v in z) or not math.isfinite(gap):
            stop = DIVERGED
        elif gap < -_DOMAIN_SLACK:
            stop = LEFT_DOMAIN
        elif ctl.horizon_eps > 0 and gap < ctl.horizon_eps:
            stop = HORIZON_REACHED
        elif tau >= ctl.tau_max - 1e-14:
            stop = TAU_EXHAUSTED
        if stop is not None:
            return _mk_traj(dfield, taus, coords, ts, gaps, stop, n_rejected)

        if err == 0.0:
            factor = 5.0
        else:
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08
            factor = min(5.0, max(0.2, factor))
        h = min(h * factor, ctl.max_step)
        err_prev = max(err, 1e-10)


def _mk_traj(dfield, taus, coords, ts, gaps, stop, n_rejected) -> Trajectory:
    return Trajectory(
        chart=dfield.chart,
        dfield=dfield,
        taus=np.asarray(taus, dtype=float),
        coords=np.asarray(coords, dtype=float),
        ts=np.asarray(ts, dtype=float),
        gaps=np.asarray(gaps, dtype=float),
        stop_reason=stop,
        n_rejected=n_rejected,
    )


# --------------------------------------------------------------------------
# equilibria


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A zero of the desingularized field on the horizon.

    coords always carries the full chart coordinate vector (s = 0 in a
    directional chart, frozen values in place).  classification is computed
    on the normal directions: tangential_dims eigenvalues closest to the
    imaginary axis are structural (time slot, frozen family directions) and
    excluded.
    """

    chart: object
    coords: np.ndarray
    t_slice: Optional[float]
    residual: float
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    tangential_dims: int
    classification: str

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "jacobian", np.asarray(self.jacobian, dtype=float))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=complex))


@dataclass(frozen=True)
class SpectralSplit:
    """Partition of an equilibrium spectrum into tangential/stable/unstable.

    Index tuples refer to positions in ``eigenvalues``; gap is the smallest
    |Re| over non-tangential eigenvalues (0 when there are none).  An
    equilibrium counts as hyperbolic transversally only when the gap clears
    10x the neutral tolerance; otherwise nonhyperbolic is flagged rather
    than guessing.
    """

    eigenvalues: Tuple[complex, ...]
    tangential: Tuple[int, ...]
    stable: Tuple[int, ...]
    unstable: Tuple[int, ...]
    gap: float
    nonhyperbolic: bool
    classification: str


def spectrum_classify(eigenvalues, tangential_dims: int) -> SpectralSplit:
    """Split ``eigenvalues`` into tangential (least |Re|) and normal parts."""
    eigs = np.asarray(eigenvalues, dtype=complex)
    order = np.argsort(np.abs(eigs.real), kind="stable")
    tangential = tuple(int(i) for i in order[:tangential_dims])
    normal = [int(i) for i in order[tangential_dims:]]
    neutral_count = int(np.sum(np.abs(eigs.real) < TOL_NEUTRAL))
    stable = tuple(i for i in normal if eigs[i].real < 0)
    unstable = tuple(i for i in normal if eigs[i].real > 0)
    gap = float(min((abs(eigs[i].real) for i in normal), default=0.0))
    mismatch = neutral_count != tangential_dims
    weak = bool(normal) and gap <= 10 * TOL_NEUTRAL
    nonhyperbolic = mismatch or weak
    if nonhyperbolic or not normal:
        classification = "nonhyperbolic"
    elif stable and not unstable:
        classification = "sink"
    elif unstable and not stable:
        classification = "source"
    else:
        classification = "saddle"
    return SpectralSplit(
        eigenvalues=tuple(complex(v) for v in eigs),
        tangential=tangential,
        stable=stable,
        unstable=unstable,
        gap=gap,
        nonhyperbolic=nonhyperbolic,
        classification=classification,
    )


def _eigvals(J: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(J)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration failed: {exc}") from exc


def _gauss_newton(residual, jac, x0, max_iter=60):
    """Damped Gauss-Newton on a batch of rectangular systems.

    ``x0`` is an (m, k) array of starting points.  ``residual(x, rows)``
    gives the (len(rows), p) residuals of the members ``rows`` at the points
    ``x`` (one row each) and ``jac(x, rows)`` their (len(rows), p, k)
    Jacobians; a member outside its domain gets non-finite entries.  Each
    member iterates on its own (Nocedal & Wright, Numerical Optimization,
    Sec. 10.3): the least-squares step from the pseudo-inverse, with
    LAPACK's default rank cutoff, is halved up to 30 times until |r| drops
    (a non-finite trial counts as no drop).  A member stops at |r| < 1e-14,
    at a non-finite Jacobian, when no trial improved, when the step is zero,
    not finite or below 1e-15 (1 + |x|), or after ``max_iter`` iterations.
    Returns (x, r): each member's last point and its residual there, which
    is finite unless the residual at the seed is not.
    """
    x = np.array(x0, dtype=float)
    r = residual(x, np.arange(len(x)))
    active = np.isfinite(r).all(axis=1)
    rnorm = np.where(active, np.linalg.norm(r, axis=1), np.inf)
    rcond = max(r.shape[1], x.shape[1]) * np.finfo(float).eps
    for _ in range(max_iter):
        active &= rnorm >= 1e-14
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        J = jac(x[idx], idx)
        keep = np.isfinite(J).all(axis=(1, 2))
        idx, J = idx[keep], J[keep]
        delta = (np.linalg.pinv(J, rcond) @ -r[idx, :, None])[..., 0]
        step = np.linalg.norm(delta, axis=1)
        keep = np.isfinite(step) & (step > 0.0)
        idx, delta, step = idx[keep], delta[keep], step[keep]
        pending = np.ones(len(idx), dtype=bool)
        for _halve in range(30):
            p = np.flatnonzero(pending)
            if not p.size:
                break
            rows = idx[p]
            trial = x[rows] + delta[p]
            r_new = residual(trial, rows)
            rn = np.linalg.norm(r_new, axis=1)
            old = rnorm[rows]
            better = np.isfinite(r_new).all(axis=1) & (
                (rn < old) | ((rn == old) & (step[p] > 1e-14))
            )
            done = rows[better]
            x[done], r[done], rnorm[done] = trial[better], r_new[better], rn[better]
            pending[p[better]] = False
            delta[p[~better]] *= 0.5
        small = step < 1e-15 * (1.0 + np.linalg.norm(x[idx], axis=1))
        active[:] = False
        active[idx[~pending & ~small]] = True
    return x, r


_RESIDUAL_TOL = 1e-10
_CONSTRAINT_TOL = 1e-12
_DEDUP_TOL = 1e-8


def _default_seeds(dfield: DesingField, free: Sequence[int], base: np.ndarray):
    """Grid seeds as one (m, n) array: 7 points per free axis, projected onto
    the horizon for parabolic charts via the anisotropic scaling
    P(r^alpha * x) = r^2c P(x)."""
    parabolic = isinstance(dfield.chart, ParabolicChart)
    axis = np.linspace(-1.05, 1.05, 7) if parabolic else np.linspace(-5.0, 5.0, 7)
    grid = np.array(list(itertools.product(axis, repeat=len(free))))
    seeds = np.tile(base, (len(grid), 1))
    seeds[:, free] = grid
    if parabolic:
        P = dfield.chart.horizon_poly(seeds)
        inside = P > 0.0
        r = P[inside] ** (-1.0 / (2 * dfield.htype.c))
        alpha = dfield.htype.alpha_array().astype(float)
        seeds = seeds[inside] * r[:, None] ** alpha
    return seeds


def _pinned_slots(dfield: DesingField, freeze: Sequence[int]) -> set:
    """Slots the search does not solve for: ``freeze``, the time slot of a
    nonautonomous field and the pivot s of a directional chart."""
    pinned = set(int(i) for i in freeze)
    if dfield.nonautonomous:
        pinned.add(0)
    if isinstance(dfield.chart, DirectionalChart):
        pinned.add(dfield.chart.i0)
    return pinned


def find_horizon_equilibria(
    dfield: DesingField,
    seeds: Optional[Iterable] = None,
    t_slice: Optional[float] = None,
    freeze: Sequence[int] = (),
) -> list:
    """Locate equilibria of g on the horizon.

    Parabolic charts solve the augmented system [g(x); P(x) - 1]; directional
    charts solve g restricted to {s = 0}.  Nonautonomous fields require
    t_slice (the frozen time value); ``freeze`` pins additional coordinates
    (e.g. a conserved variable whose value parametrizes a family) at their
    seed values.  All seeds are solved in one batched Gauss-Newton call.
    Only points meeting the residual contract (|g| < 1e-10, horizon
    constraint < 1e-12) are returned, deduplicated in seed order: a point
    is dropped when it lies within 1e-8 + sqrt(|r|) + sqrt(|r'|) of an
    earlier one, |r| and |r'| being their final residuals (a solve that
    stops at |r| ~ 1e-14 sits about sqrt(|r|) from a double zero).
    """
    chart = dfield.chart
    parabolic = isinstance(chart, ParabolicChart)
    n = dfield.n
    frozen = _pinned_slots(dfield, freeze)
    base = np.zeros(n)
    if dfield.nonautonomous:
        if t_slice is None:
            raise DomainError(
                "nonautonomous field: equilibrium search needs a frozen t_slice"
            )
        base[0] = float(t_slice)
    elif t_slice is not None:
        raise DomainError("t_slice given for an autonomous field")
    free = [i for i in range(n) if i not in frozen]

    if seeds is None:
        X0 = _default_seeds(dfield, free, base)
    else:
        X0 = np.array(seeds if isinstance(seeds, np.ndarray) else list(seeds),
                      dtype=float)
        if X0.size == 0:
            X0 = X0.reshape(0, n)
        if X0.ndim != 2 or X0.shape[1] != n:
            raise ValueError(f"seeds shape {X0.shape}, expected (m, {n})")
        if dfield.nonautonomous:
            X0[:, 0] = base[0]
        if not parabolic:
            X0[:, chart.i0] = 0.0

    def points(v, rows):
        X = X0[rows]
        X[:, free] = v
        return X

    def residual(v, rows):
        X = points(v, rows)
        g = dfield.rhs_array(X)[:, :n]
        if parabolic:
            return np.column_stack([g, chart.horizon_poly(X) - 1.0])
        return g

    def jac(v, rows):
        X = points(v, rows)
        J = dfield.jacobian_array(X)
        if parabolic:
            gradP = chart.grad_horizon_poly(X)
            J = np.concatenate([J, gradP[:, None, :]], axis=1)
        return J[:, :, free]

    with np.errstate(all="ignore"):
        v, r = _gauss_newton(residual, jac, X0[:, free])
        rnorm = np.linalg.norm(r, axis=1)
        accepted = np.linalg.norm(r[:, :n], axis=1) < _RESIDUAL_TOL
        if parabolic:
            accepted &= np.abs(r[:, n]) < _CONSTRAINT_TOL
    X = points(v, np.arange(len(X0)))

    # in seed order, each kept point absorbs the later ones within reach
    idx = np.flatnonzero(accepted)
    reach = np.sqrt(rnorm[idx])
    found = []
    while idx.size:
        x = X[idx[0]]
        found.append(x)
        far = np.max(np.abs(X[idx] - x), axis=1) >= _DEDUP_TOL + reach[0] + reach
        idx, reach = idx[far], reach[far]

    found.sort(key=lambda x: tuple(np.round(x, 10)))
    # every pinned slot but the pivot s is a direction along the horizon
    tangential_dims = len(frozen) - (0 if parabolic else 1)
    out = []
    for x in found:
        J = dfield.jacobian(x)
        eigs = np.sort(_eigvals(J))  # by (real, imag), not LAPACK's order
        split = spectrum_classify(eigs, tangential_dims)
        out.append(
            Equilibrium(
                chart=chart,
                coords=x,
                t_slice=(float(base[0]) if dfield.nonautonomous else t_slice),
                residual=float(np.linalg.norm(dfield.g(x))),
                jacobian=J,
                eigenvalues=eigs,
                tangential_dims=tangential_dims,
                classification=split.classification,
            )
        )
    return out


def horizon_targets(dfield: DesingField, anchor, grid: bool = True) -> list:
    """Horizon equilibria on the family slice through ``anchor``.

    ``anchor`` holds full chart coordinates.  Its weight-0 coordinates
    label a family of equilibria and stay pinned; for a nonautonomous field
    that includes the time slot, so ``anchor[0]`` is the time slice.
    With ``grid`` the search is seeded on the default grid over the free
    coordinates; without it, one Gauss-Newton solve starts at ``anchor``
    itself (e.g. a trajectory endpoint, which lies next to the equilibrium
    it shadows).
    """
    start = 1 if dfield.nonautonomous else 0
    freeze = [i for i in range(start, dfield.n) if dfield.htype.alpha[i] == 0]
    x = np.asarray(anchor, dtype=float)
    t_slice = float(x[0]) if dfield.nonautonomous else None
    if grid:
        pinned = _pinned_slots(dfield, freeze)
        free = [i for i in range(dfield.n) if i not in pinned]
        seeds = _default_seeds(dfield, free, x)
    else:
        seeds = [x]
    return find_horizon_equilibria(
        dfield, seeds=seeds, t_slice=t_slice, freeze=freeze
    )


@dataclass(frozen=True)
class EquilibriumCurve:
    """A t-parametrized branch of horizon equilibria (nonautonomous fields).

    normal_spectrum_bounds = (min, max) of normal eigenvalue real parts over
    the whole branch; the branch is hyperbolic when the interval stays on
    one side of zero.
    """

    samples: Tuple[Equilibrium, ...]
    t_values: Tuple[float, ...]
    normal_spectrum_bounds: Tuple[float, float]


def trace_equilibrium_curve(
    dfield: DesingField,
    t_range: Tuple[float, float],
    t_step: float,
    seed,
) -> EquilibriumCurve:
    """Continue a horizon equilibrium along frozen-t slices.

    The trace walks from t_range[0] to t_range[1] (descending ranges walk
    the branch downward).  Each slice reuses the previous solution as its
    seed; losing the branch (residual contract violated, a jump bigger than
    the continuation bound, or a slice on which the field itself is
    singular) raises CurveBreak with the offending t.
    """
    if not dfield.nonautonomous:
        raise DomainError("equilibrium curves require a nonautonomous field")
    t_start, t_stop = float(t_range[0]), float(t_range[1])
    if t_stop == t_start:
        raise ValueError("need a nondegenerate t_range")
    if t_step == 0:
        raise ValueError("need a nonzero t_step")
    direction = 1.0 if t_stop > t_start else -1.0
    step = direction * abs(float(t_step))
    ts = []
    t = t_start
    while direction * (t - t_stop) <= 1e-12:
        ts.append(t_stop if direction * (t - t_stop) > 0 else t)
        t += step
    if direction * (ts[-1] - t_stop) < -1e-12:  # pragma: no cover - guard
        ts.append(t_stop)

    x_prev = np.asarray(seed, dtype=float).copy()
    if x_prev.shape != (dfield.n,):
        raise ValueError(f"seed shape {x_prev.shape}, expected ({dfield.n},)")
    jump_bound = max(100.0 * abs(t_step), 1.0)
    samples = []
    for t_val in ts:
        try:
            eqs = find_horizon_equilibria(dfield, seeds=[x_prev], t_slice=t_val)
        except DomainError as exc:
            raise CurveBreak(
                f"field singular on the t = {t_val} slice: {exc}",
                t_value=t_val,
            ) from exc
        if not eqs:
            raise CurveBreak(
                f"continuation lost the branch at t = {t_val}", t_value=t_val
            )
        eq = eqs[0]
        move = float(np.max(np.abs(eq.coords[1:] - x_prev[1:])))
        if samples and move > jump_bound:
            raise CurveBreak(
                f"branch jumped by {move} at t = {t_val}", t_value=t_val
            )
        samples.append(eq)
        x_prev = eq.coords.copy()

    lo = math.inf
    hi = -math.inf
    for eq in samples:
        split = spectrum_classify(eq.eigenvalues, eq.tangential_dims)
        for i in split.stable + split.unstable:
            re = eq.eigenvalues[i].real
            lo = min(lo, re)
            hi = max(hi, re)
    return EquilibriumCurve(
        samples=tuple(samples),
        t_values=tuple(float(v) for v in ts),
        normal_spectrum_bounds=(lo, hi),
    )


# --------------------------------------------------------------------------
# spectral conditions and decay estimation


def check_nonresonance(stable_eigs, order_N: int) -> Tuple[bool, Optional[tuple]]:
    """Sternberg-Sell nonresonance up to order 2N for a stable spectrum.

    True when every integer combination m with 2 <= |m| <= 2N keeps
    sum_j m_j lambda_j away (1e-10 relative) from zero and from every
    individual eigenvalue.  On failure returns the witness
    (m, index-or-None): the offending tuple and matched eigenvalue.
    """
    lam = [complex(v) for v in stable_eigs]
    d = len(lam)
    if d == 0:
        return True, None
    if order_N < 1:
        raise ValueError("order_N must be >= 1")
    tol = 1e-10
    top = 2 * order_N
    for m in itertools.product(range(top + 1), repeat=d):
        total = sum(m)
        if total < 2 or total > top:
            continue
        val = sum(mi * li for mi, li in zip(m, lam))
        if abs(val) <= tol * max(1.0, max(abs(li) for li in lam)):
            return False, (m, None)
        for i, li in enumerate(lam):
            if abs(val - li) <= tol * max(1.0, abs(li)):
                return False, (m, i)
    return True, None


def estimate_decay(traj: Trajectory, window: Optional[Tuple[float, float]] = None):
    """Fit the exponential decay rate of the horizon gap.

    Returns (lambda, residual_slope): lambda from a least-squares line
    through log(gap) vs tau over the window (default: the trailing stretch
    where the gap is within 1e4 of its final value), residual_slope the
    peak-to-peak drift of the fit residuals divided by the window length --
    a slope-free measure of how straight the decay really is.

    Raises InsufficientWindow with fewer than 20 usable samples.
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
    idx = np.nonzero(mask)[0]
    if len(idx) < 20:
        raise InsufficientWindow(
            f"decay window holds {len(idx)} samples; need at least 20"
        )
    x = taus[idx]
    y = np.log(gaps[idx])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    span = float(x[-1] - x[0])
    if span <= 0:
        raise InsufficientWindow("decay window has zero length")
    residual_slope = float((resid.max() - resid.min()) / span)
    return float(-slope), residual_slope
