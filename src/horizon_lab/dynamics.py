"""Flows, horizon equilibria and spectral analysis of desingularized fields.

The integrator is DOP853 (Hairer's 8th-order Dormand-Prince pair with its
5th/3rd-order error estimate and 7th-order dense output), hand-rolled so
the stopping semantics are exact: a trajectory ends with one of four
reasons (horizon_reached / tau_exhausted / left_domain / diverged), a stage
that probes outside the chart domain causes a retry with a smaller step
rather than a crash, and a step-size underflow or a spent budget of
2,000,000 step attempts raises StepFailure.  Steps are sized by accuracy
alone, apart from the step's cut on how far one step may move the horizon
gap (the parabolic chart's W) or the time factor s**k (a directional
chart); the samples come from the dense output, spaced for the rate fits,
with every step end among them.  Physical time is reconstructed along the
way from the time factor dt/dtau, and each sample also keeps its time
increment from the previous one.  Each attempted step is one call of the
step generated per field (``DesingField.step``, emitted in ``desing``).
``desing`` owns the state's layout, the sampling rule and the step cut;
this module owns the step-size controller, the domain retry, the stops,
the step budget and the trajectory's arrays.

Horizon equilibria are found by a damped Gauss-Newton iteration on the
field restricted to the horizon, the terms with no power of the gap
(``DesingField.horizon_rows``), with P(x) - 1 on the parabolic chart and
at s = 0 on a directional one.  It is seeded on a small grid
(``grid_seeds``) or at given points such as a trajectory endpoint; each
seed's weight-0 slots pick its family slice.  All seeds of one search form
a single batch: the field generates the whole system
(``DesingField.horizon_rhs_array`` / ``horizon_jacobian_array``, called
under one ``np.errstate`` per search) and each seed keeps its own line
search and stopping rules, among them a stop at a least-squares
stationary point that is no zero.  Each least-squares step is the
pseudo-inverse step with LAPACK's default rank cutoff: a square member
whose bound ||J||_F^k / |det J| on its condition number stays below 1e12,
where that cutoff cannot fire, takes it from one stacked ``solve``, every
other member from one stacked SVD.  An iteration is a fixed number of
stacked NumPy calls whatever the batch size, one seed included; row norms
are the reduction ``np.linalg.norm`` performs (``_norms``), without its
dispatch.  Since each member iterates on its own, a batch gives each seed
the bits of a search from that seed alone.  So the endpoints of many
trajectories share one solve (``horizon_equilibria_per_seed``), each
getting what ``find_horizon_equilibria`` would give it alone; both
searches accept points by one test and classify them by one helper on
the horizon they solved: the field's Jacobian at gap 0 (W = 0; s is 0
already), one ``DesingField.jacobian_array`` call for all accepted
points, then one stacked ``eigvals`` over those whose linearization is
finite.  The field generates that Jacobian for gap 0 alone, without the
terms that vanish there.  An equilibrium's residual is the search's own |g| over the
horizon rows, so the search reads only the field's generated horizon
evaluators.  Curve continuation still solves one seed at a time.
Spectra are split into tangential / stable / unstable parts with an
explicit neutral tolerance so borderline cases surface as 'nonhyperbolic'
instead of a guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from .desing import DesingField
from .errors import CurveBreak, DomainError, EigenFailure, StepFailure, located

__all__ = [
    "IntegratorControls",
    "Trajectory",
    "Equilibrium",
    "EquilibriumCurve",
    "SpectralSplit",
    "integrate",
    "find_horizon_equilibria",
    "horizon_equilibria_per_seed",
    "grid_seeds",
    "spectrum_classify",
    "trace_equilibrium_curve",
    "check_nonresonance",
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
_H_INIT = 1e-6
_MAX_STEPS = 2_000_000

@dataclass(frozen=True)
class IntegratorControls:
    """Tolerances and stopping thresholds for integrate().

    horizon_eps is the gap below which a trajectory counts as having reached
    the horizon; setting it to 0 disables that stop (used for invariance
    runs started exactly on the horizon).  max_step bounds the tau spacing
    of the recorded samples, not the steps: a longer step is filled in by
    dense output, so the asymptotic approach stays densely sampled for
    rate fitting.  A control outside ``BOUNDS``, NaN included, raises
    DomainError ``located`` at the control; ``rel_tol`` must be positive,
    as SciPy asks of any rtol.
    """

    # each control's lower bound, and whether the control may equal it;
    # NaN fails every bound
    BOUNDS: ClassVar[Dict[str, Tuple[int, bool]]] = {
        "tau_max": (0, False),
        "rel_tol": (0, False),
        "abs_tol": (0, False),
        "horizon_eps": (0, True),
        "max_step": (0, False),
    }

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tau_max: float = 200.0
    horizon_eps: float = 1e-12
    max_step: float = 0.2

    def __post_init__(self):
        for name, (bound, closed) in self.BOUNDS.items():
            value = getattr(self, name)
            if not (value >= bound if closed else value > bound):
                kind = "at least" if closed else "greater than"
                msg = f"integrator control {name} must be {kind} {bound}, got {value}"
                raise located(DomainError(msg), name)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An integrated orbit of a desingularized field, as samples.

    Sample 0 is the initial condition and every accepted step's end is a
    sample; between two step ends lie the step's dense-output samples, so
    ``len(taus) - 1`` is at least ``n_accepted``.  taus is strictly
    increasing and ts nondecreasing.  ``dts[i]`` is the physical time from
    sample i - 1 to sample i (``dts[0] = 0``), taken from the time slot's
    own increment within its step, never from a difference of the absolute
    times in ts, so a sum of trailing dts keeps its relative accuracy when
    it is far smaller than t.  ``gaps[i]`` is the horizon gap that the
    integrator recorded for sample i, its state's gap slot, and read for
    its stops.  coords, gaps and ts are columns of the recorded states.
    On a directional chart the integrator's state holds L = ln s, but
    coords hold s itself: coordinate i0 of a sample is its gap, exp(L).
    """

    dfield: DesingField
    taus: np.ndarray
    coords: np.ndarray
    ts: np.ndarray
    gaps: np.ndarray
    dts: np.ndarray
    stop_reason: str
    n_accepted: int = 0
    n_rejected: int = 0


# samples per float64 chunk: a long run's samples leave the step's list of
# Python floats every this many
_CHUNK = 1 << 14


def integrate(
    dfield: DesingField,
    coords0,
    t0: float = 0.0,
    controls: Optional[IntegratorControls] = None,
) -> Trajectory:
    """Integrate dx/dtau = g(x) with physical-time reconstruction.

    ``coords0`` are chart coordinates.  For nonautonomous fields the time
    variable is coordinate 0 (t0 is ignored); for autonomous fields t is
    carried as a state slot, starting at t0, with dt/dtau equal to the
    field's time factor.  The field owns the state, the gap levels and the
    step cut: ``DesingField.start`` lays out the state (the horizon gap as
    a slot, W on the parabolic chart and ln s on a directional one), and
    each attempted step is one call of its generated DOP853 step
    (``DesingField.step``), which records an accepted step's samples by
    its sampling rule and returns the longest next step its cut on the
    gap's (or the time factor's) change allows.

    This function owns the rest.  The standard controller: a step is
    accepted when its error norm is at most 1, the next step is 0.9 *
    err**(-1/8) times this one, clipped to [0.2, 10], does not grow right
    after a rejection and stays within the step's cut.  Steps have no fixed
    cap.  The domain retry: a stage or sample outside the domain, or a
    non-finite result, retries at half the step.  The stops: each sample
    records its state (with s, not ln s), tau and time increment, its gap
    is its gap slot, and every stop is decided on those gaps, at the
    initial state and at each step end, by one rule (``_stop``).  The
    budget: StepFailure when the adaptive step size underflows below 1e-15
    or the run makes more than 2,000,000 step attempts.  The samples
    gather in one flat list of floats, moved into a float64 chunk every
    ``_CHUNK`` samples, and the arrays are built once at the stop.
    """
    ctl = controls or IntegratorControls()
    tau = 0.0
    n_accepted = n_rejected = 0
    row, z = dfield.start(coords0, t0)
    stop = _stop(float(np.max(np.abs(row))), row[dfield.gap_slot], tau, ctl)
    # a sample as the step records it: its state, tau and time increment
    flat = [*row, tau, 0.0]
    if stop is not None:
        return _mk_traj(dfield, [], flat, stop, 0, 0)

    k1 = dfield.state_derivative(z)
    step = dfield.step
    atol, rtol = ctl.abs_tol, ctl.rel_tol
    tau_max, max_step = ctl.tau_max, ctl.max_step
    h = min(_H_INIT, tau_max)
    rejected = False
    steps = 0
    chunks = []
    limit = _CHUNK * len(flat)

    while True:
        steps += 1
        if steps > _MAX_STEPS:
            raise StepFailure(f"step budget {_MAX_STEPS} exhausted at tau = {tau}")
        if h < _MIN_STEP:
            raise StepFailure(f"step size underflow (h = {h}) at tau = {tau}")
        tau_end = tau + h
        if tau_end >= tau_max:
            h = tau_max - tau
            tau_end = tau_max
        try:
            out = step(z, k1, h, tau, tau_end, flat, atol, rtol, max_step)
        except DomainError:
            out = None
        if out is None:  # a stage left the domain, or a non-finite result
            n_rejected += 1
            h *= 0.5
            rejected = True
            continue
        if type(out) is float:  # the error norm, above 1
            n_rejected += 1
            h *= max(0.2, 0.9 * out ** -0.125)
            rejected = True
            continue

        # accepted
        n_accepted += 1
        z, err, k1, guard, gap, h_cut = out
        tau = tau_end
        stop = _stop(guard, gap, tau, ctl)
        if stop is not None:
            return _mk_traj(dfield, chunks, flat, stop, n_accepted, n_rejected)
        if len(flat) >= limit:
            chunks.append(np.array(flat))
            flat = []

        factor = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.125))
        h = min(h * (min(factor, 1.0) if rejected else factor), h_cut)
        rejected = False


def _stop(guard, gap, tau, ctl):
    """The reason to stop at a sample, or None: ``guard`` is its largest
    |slot| (NaN when a slot is) and ``gap`` its horizon gap."""
    if not (guard <= _STATE_GUARD and math.isfinite(gap)):
        return DIVERGED
    if gap < -_DOMAIN_SLACK:
        return LEFT_DOMAIN
    if ctl.horizon_eps > 0 and gap < ctl.horizon_eps:
        return HORIZON_REACHED
    if tau >= ctl.tau_max - 1e-14:
        return TAU_EXHAUSTED
    return None


def _mk_traj(dfield, chunks, flat, stop, n_accepted, n_rejected):
    """The trajectory of the samples in ``chunks``, then ``flat``, each as
    ``integrate`` records it: its state (``DesingField.start``'s row), tau
    and time increment."""
    rows = np.array(flat, dtype=float)
    if chunks:
        rows = np.concatenate(chunks + [rows])
    dim = dfield.state_dim
    rows = rows.reshape(-1, dim + 2)
    # copies lay each array out as when it was built from its own list, so
    # the fits' NumPy reductions see the same strides and give the same bits
    path = rows[:, :dim].copy()
    return Trajectory(
        dfield=dfield,
        taus=rows[:, dim].copy(),
        coords=path[:, :dfield.n],
        ts=path[:, dfield.time_slot],
        gaps=rows[:, dfield.gap_slot].copy(),
        dts=rows[:, dim + 1].copy(),
        stop_reason=stop,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
    )


# --------------------------------------------------------------------------
# equilibria


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """A zero of the desingularized field on the horizon.

    coords always carries the full chart coordinate vector (s = 0 in a
    directional chart, frozen values in place), and residual is |g| over
    the field's horizon rows there.  classification is computed on the
    normal directions: tangential_dims eigenvalues closest to the imaginary
    axis are structural (time slot, frozen family directions) and excluded.
    """

    coords: np.ndarray
    t_slice: Optional[float]
    residual: float
    eigenvalues: np.ndarray
    tangential_dims: int
    classification: str

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=complex))


@dataclass(frozen=True)
class SpectralSplit:
    """The normal part of an equilibrium spectrum and its classification.

    stable and unstable hold positions in the classified eigenvalues; the
    tangential ones (least |Re|) are in neither.  An equilibrium counts as
    hyperbolic transversally only when the smallest normal |Re| clears 10x
    the neutral tolerance; otherwise it is classified nonhyperbolic rather
    than guessed.
    """

    stable: Tuple[int, ...]
    unstable: Tuple[int, ...]
    classification: str


def spectrum_classify(eigenvalues, tangential_dims: int) -> SpectralSplit:
    """Split ``eigenvalues`` into tangential (least |Re|) and normal parts."""
    re = np.asarray(eigenvalues, dtype=complex).real.tolist()
    mag = [abs(v) for v in re]
    # a stable sort by |Re|, as np.argsort(kind="stable") orders them
    normal = sorted(range(len(re)), key=mag.__getitem__)[tangential_dims:]
    neutral_count = sum(v < TOL_NEUTRAL for v in mag)
    stable = tuple(i for i in normal if re[i] < 0)
    unstable = tuple(i for i in normal if re[i] > 0)
    gap = min((mag[i] for i in normal), default=0.0)
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
        stable=stable, unstable=unstable, classification=classification
    )


_GN_MAX_ITER = 60
# a bound on cond(J) far below 1 / (k eps), where pinv's cutoff starts
_SOLVE_COND = 1e12


def _norms(v: np.ndarray, axis=1) -> np.ndarray:
    """The Euclidean norm over ``axis`` (Frobenius for two axes) of each
    member of a batch: the reduction ``np.linalg.norm(v, axis=axis)``
    performs, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=axis))


def _lstsq_steps(J, b, rcond, fro):
    """pinv(J[i]) @ b[i] for a (m, p, k) batch, singular values at or below
    ``rcond`` times the largest dropped; ``fro`` holds the members'
    Frobenius norms.  A square member with ||J||_F^k < _SOLVE_COND |det J|
    has cond(J) <= ||J||_F^k / |det J| below the cutoff and takes one
    stacked ``solve``; the others take one stacked SVD.  With no column
    (k = 0) the step is empty."""
    m, p, k = J.shape
    if k == 0:
        return np.empty((m, 0))
    delta = np.empty((m, k))
    by_svd = np.ones(m, dtype=bool)
    if p == k:
        by_svd = ~(fro ** k < _SOLVE_COND * np.abs(np.linalg.det(J)))
        sq = ~by_svd
        if sq.any():
            delta[sq] = np.linalg.solve(J[sq], b[sq, :, None])[..., 0]
    if by_svd.any():
        # pinv's own arithmetic, so the step keeps its bits
        u, sv, vt = np.linalg.svd(J[by_svd], full_matrices=False)
        large = sv > rcond * sv.max(axis=-1, keepdims=True)
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=large)
        pinv = vt.swapaxes(-1, -2) @ (inv[..., None] * u.swapaxes(-1, -2))
        delta[by_svd] = (pinv @ b[by_svd, :, None])[..., 0]
    return delta


def _gauss_newton(residual, jac, x0):
    """Damped Gauss-Newton on a batch of rectangular systems.

    ``x0`` is an (m, k) array of starting points.  ``residual(x, rows)``
    gives the (len(rows), p) residuals of the members ``rows`` at the points
    ``x`` (one row each) and ``jac(x, rows)`` their (len(rows), p, k)
    Jacobians; a member outside its domain gets non-finite entries.  Each
    member iterates on its own (Nocedal & Wright, Numerical Optimization,
    Sec. 10.3): the least-squares step delta is the pseudo-inverse's, with
    LAPACK's default rank cutoff max(p, k) eps, taken by ``solve`` for a
    square member whose condition bound ||J||_F^k / |det J| is below 1e12
    and by SVD otherwise (``_lstsq_steps``).  It is halved up to 30 times
    until |r| drops: a trial counts when |r| falls, or stays equal under a
    step above 1e-14, and a non-finite trial never does.

    A member stops at |r| < 1e-14; at a Jacobian with a non-finite norm;
    at a least-squares stationary point that is no zero, where
    |J delta| <= 1e-3 |r| while |r| > 1e-6: J delta is -r's part in the
    range of J, so r is nearly orthogonal to that range and no step can
    make |r| drop much, however J is conditioned or its rows scaled; when
    no trial improved; when the step is zero, not finite or below
    1e-15 (1 + |x|); or after 60 iterations.  A member whose residual
    norm at the seed is not finite never moves.  Every member's norms,
    steps and trials are one stacked NumPy call each per iteration,
    whatever m.  Returns (x, r): each member's last point and its residual
    there, which is finite unless the residual at the seed is not.
    """
    x = np.array(x0, dtype=float)
    r = residual(x, np.arange(len(x)))
    rnorm = _norms(r)
    idx = np.flatnonzero((rnorm >= 1e-14) & (rnorm < np.inf))
    stalled = np.zeros(len(x), dtype=bool)
    rcond = max(r.shape[1], x.shape[1]) * np.finfo(float).eps
    for _ in range(_GN_MAX_ITER):
        if not idx.size:
            break
        J = jac(x[idx], idx)
        fro = _norms(J, (1, 2))
        keep = fro < np.inf
        idx, J, fro = idx[keep], J[keep], fro[keep]
        delta = _lstsq_steps(J, -r[idx], rcond, fro)
        step = _norms(delta)
        rn = rnorm[idx]
        fit = _norms((J @ delta[:, :, None])[..., 0])
        keep = (step > 0.0) & (step < np.inf) & ((fit > 1e-3 * rn) | (rn <= 1e-6))
        idx, delta, step = idx[keep], delta[keep], step[keep]
        rows, d, st = idx, delta, step
        for _halve in range(30):
            if not rows.size:
                break
            trial = x[rows] + d
            r_new = residual(trial, rows)
            rn = _norms(r_new)
            old = rnorm[rows]
            # old is finite, so a trial that counts is finite too
            better = (rn < old) | ((rn == old) & (st > 1e-14))
            done = rows[better]
            x[done], r[done], rnorm[done] = trial[better], r_new[better], rn[better]
            worse = ~better
            rows, d, st = rows[worse], d[worse] * 0.5, st[worse]
        stalled[rows] = True
        small = step < 1e-15 * (1.0 + _norms(x[idx]))
        idx = idx[~(small | stalled[idx]) & (rnorm[idx] >= 1e-14)]
    return x, r


_RESIDUAL_TOL = 1e-10
_CONSTRAINT_TOL = 1e-12
_DEDUP_TOL = 1e-8


def grid_seeds(dfield: DesingField, anchor) -> np.ndarray:
    """Grid seeds on the family slice through ``anchor`` (full chart
    coordinates) as one (m, n) array: 7 points per ``free_slots`` slot,
    the others kept at ``anchor``, projected onto the horizon for parabolic
    charts via the anisotropic scaling P(r^alpha * x) = r^2c P(x).  A
    non-finite anchor raises DomainError."""
    n = dfield.n
    anchor = _point(dfield, anchor, "anchor")
    parabolic = dfield.gap_slot == n
    free = list(dfield.free_slots)
    axis = np.linspace(-1.05, 1.05, 7) if parabolic else np.linspace(-5.0, 5.0, 7)
    grid = np.array(list(itertools.product(axis, repeat=len(free))))
    seeds = np.tile(anchor, (len(grid), 1))
    seeds[:, free] = grid
    if parabolic:
        P = dfield.chart.horizon_poly(seeds)
        inside = P > 0.0
        r = P[inside] ** (-1.0 / (2 * dfield.htype.c))
        alpha = dfield.htype.alpha_array().astype(float)
        seeds = seeds[inside] * r[:, None] ** alpha
    return seeds


def _point(dfield: DesingField, x, name: str) -> np.ndarray:
    """``x`` as a new float array of shape (n,): ValueError for another
    shape, DomainError where an entry is not finite."""
    x = np.array(x, dtype=float)
    if x.shape != (dfield.n,):
        raise ValueError(f"{name} shape {x.shape}, expected ({dfield.n},)")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite, got {x.tolist()}")
    return x


def _seed_array(dfield: DesingField, seeds) -> np.ndarray:
    """``seeds`` as a new (m, n) float array; ValueError for another shape."""
    n = dfield.n
    X0 = np.array(seeds, dtype=float)
    if X0.size == 0:
        X0 = X0.reshape(0, n)
    if X0.ndim != 2 or X0.shape[1] != n:
        raise ValueError(f"seeds shape {X0.shape}, expected (m, {n})")
    return X0


def _solve_on_horizon(dfield: DesingField, X0: np.ndarray):
    """One batched Gauss-Newton solve from the finite (m, n) seeds ``X0``,
    which it changes: every seed's gap slot is set to 0.  Returns (X, rnorm,
    res, accepted): each member's last point, its residual norm there, its
    |g| over the horizon rows alone and whether it meets the residual
    contract (that |g| below 1e-10, every constraint row below 1e-12 in
    magnitude)."""
    if dfield.gap_slot < dfield.n:
        X0[:, dfield.gap_slot] = 0.0
    free = list(dfield.free_slots)
    p = len(dfield.horizon_rows)

    def points(v, rows):
        X = X0[rows]
        X[:, free] = v
        return X

    with np.errstate(all="ignore"):
        v, r = _gauss_newton(
            lambda v, rows: dfield.horizon_rhs_array(points(v, rows)),
            lambda v, rows: dfield.horizon_jacobian_array(points(v, rows)),
            X0[:, free],
        )
        rnorm, res = _norms(r), _norms(r[:, :p])
        accepted = (res < _RESIDUAL_TOL) & (
            np.abs(r[:, p:]) < _CONSTRAINT_TOL
        ).all(axis=1)
    X = X0.copy()
    X[:, free] = v
    return X, rnorm, res, accepted


def _spectra(Js: np.ndarray) -> list:
    """The sorted eigenvalues of each Jacobian of an (m, n, n) stack, from
    one stacked ``eigvals`` call; a member's eigenvalues are real when all
    of its own are, as a call on it alone gives them.  When the stacked
    call fails, each member is solved alone, and one that fails gets an
    EigenFailure."""
    try:
        spectra = list(np.linalg.eigvals(Js))
    except np.linalg.LinAlgError:
        spectra = []
        for J in Js:
            try:
                spectra.append(np.linalg.eigvals(J))
            except np.linalg.LinAlgError as exc:
                spectra.append(EigenFailure(f"eigenvalue iteration failed: {exc}"))
    out = []
    for w in spectra:
        if not isinstance(w, EigenFailure):
            if w.dtype.kind == "c" and not w.imag.any():
                w = w.real
            w = np.sort(w)  # by (real, imag), not LAPACK's order
        out.append(w)
    return out


def _classify(dfield: DesingField, X: np.ndarray, res: np.ndarray) -> list:
    """The equilibrium at each accepted point (row) of ``X`` with residual
    ``res``, linearized on the horizon: the field's Jacobian at gap 0 (W =
    0 on the parabolic chart; s is 0 in ``X`` on a directional one), in one
    ``DesingField.jacobian_array`` call, which holds only the terms with no
    positive power of the gap.  None where that linearization is not
    finite (a term with a negative power of the gap, or a factor singular
    at the point), or the EigenFailure of its spectrum."""
    Z = X if dfield.gap_slot < dfield.n else np.hstack([X, np.zeros((len(X), 1))])
    with np.errstate(all="ignore"):
        J = dfield.jacobian_array(Z)
    keep = np.flatnonzero(np.isfinite(J).all(axis=(1, 2)))
    out: list = [None] * len(X)
    # every weight-0 slot is a direction along the horizon
    tangential_dims = dfield.n - len(dfield.htype.i_alpha)
    for i, eigs in zip(keep.tolist(), _spectra(J[keep])):
        if isinstance(eigs, EigenFailure):
            out[i] = eigs
            continue
        out[i] = Equilibrium(
            coords=X[i],
            t_slice=float(X[i, 0]) if dfield.nonautonomous else None,
            residual=float(res[i]),
            eigenvalues=eigs,
            tangential_dims=tangential_dims,
            classification=spectrum_classify(eigs, tangential_dims).classification,
        )
    return out


def find_horizon_equilibria(dfield: DesingField, seeds) -> list:
    """Locate equilibria of g on the horizon from an (m, n) batch of seeds.

    The search solves the system the field generates for it
    (``DesingField.horizon_rhs_array``): the field's rows on the horizon,
    with P(x) - 1 on the parabolic chart, in ``DesingField.free_slots``,
    at s = 0 on a directional chart.  A seed's weight-0 slots stay at its
    values: they pick the member of a family of equilibria, e.g. the time
    slice (``Equilibrium.t_slice``) of a nonautonomous field, so one batch
    may mix slices.  All seeds are solved in one batched Gauss-Newton call.
    Only points meeting the residual contract (|g| < 1e-10, horizon
    constraint < 1e-12) are returned, deduplicated in seed order: a point
    is dropped when it lies within 1e-8 + sqrt(|r|) + sqrt(|r'|) of an
    earlier one, |r| and |r'| being their final residuals (a solve that
    stops at |r| ~ 1e-14 sits about sqrt(|r|) from a double zero).  A
    point whose linearization on the horizon is not finite is dropped
    too.  A seed that is not finite raises DomainError before any solve.
    """
    X0 = _seed_array(dfield, seeds)
    bad = np.flatnonzero(~np.isfinite(X0).all(axis=1))
    if bad.size:
        raise DomainError(f"seed {bad[0]} is not finite: {X0[bad[0]].tolist()}")
    X, rnorm, res, accepted = _solve_on_horizon(dfield, X0)

    # in seed order, each kept point absorbs the later ones within reach
    idx = np.flatnonzero(accepted)
    reach = np.sqrt(rnorm[idx])
    kept = []
    while idx.size:
        kept.append(idx[0])
        far = np.max(np.abs(X[idx] - X[idx[0]]), axis=1) >= _DEDUP_TOL + reach[0] + reach
        idx, reach = idx[far], reach[far]
    kept = np.array(kept, dtype=int)
    # lexicographically by the coordinates rounded to 10 decimals; rounding
    # scales by 1e10, so a coordinate above about 1.8e298 keys as inf
    with np.errstate(over="ignore"):
        kept = kept[np.lexsort(np.round(X[kept], 10).T[::-1])]
    out = []
    for eq in _classify(dfield, X[kept], res[kept]):
        if isinstance(eq, EigenFailure):
            raise eq
        if eq is not None:
            out.append(eq)
    return out


def horizon_equilibria_per_seed(dfield: DesingField, seeds) -> list:
    """For each seed, what ``find_horizon_equilibria(dfield, [seed])``
    returns, or the HorizonLabError it raises, from one batched solve.

    Each entry is [] or [Equilibrium], or the exception: DomainError for a
    seed that is not finite, EigenFailure where the eigenvalue iteration
    fails; an exception stays in its seed's entry.  Each member of the
    batch iterates on its own (``_gauss_newton``), so every entry holds the
    bits of that seed's single-seed search, at the NumPy call count of one
    search for the whole batch.
    """
    X0 = _seed_array(dfield, seeds)
    finite = np.isfinite(X0).all(axis=1)
    out: list = [
        [] if ok else DomainError(f"seed 0 is not finite: {x.tolist()}")
        for ok, x in zip(finite.tolist(), X0)
    ]
    rows = np.flatnonzero(finite)
    if not rows.size:
        return out
    X, _, res, accepted = _solve_on_horizon(dfield, X0[rows])
    for row, eq in zip(rows[accepted].tolist(),
                       _classify(dfield, X[accepted], res[accepted])):
        if isinstance(eq, EigenFailure):
            out[row] = eq
        elif eq is not None:
            out[row] = [eq]
    return out


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
    the continuation bound, or a point where the field's linearization is
    not finite) raises CurveBreak with the offending t.  A non-finite
    t_range, t_step or seed raises DomainError before any slice is solved.
    """
    if not dfield.nonautonomous:
        raise DomainError("equilibrium curves require a nonautonomous field")
    t_start, t_stop = float(t_range[0]), float(t_range[1])
    if not all(math.isfinite(v) for v in (t_start, t_stop, float(t_step))):
        raise DomainError(
            f"t_range and t_step must be finite, got {t_range} and {t_step}"
        )
    if t_stop == t_start:
        raise ValueError("need a nondegenerate t_range")
    if t_step == 0:
        raise ValueError("need a nonzero t_step")
    direction = 1.0 if t_stop > t_start else -1.0
    step = direction * abs(float(t_step))
    # slice i is t_start + i * step, so rounding never accumulates; the
    # last slice is t_stop itself, in place of a grid point within 1e-12
    n_steps = math.floor((abs(t_stop - t_start) + 1e-12) / abs(step))
    ts = [t_start + i * step for i in range(n_steps + 1)]
    if abs(ts[-1] - t_stop) <= 1e-12:
        ts.pop()
    ts.append(t_stop)

    x_prev = _point(dfield, seed, "seed")
    jump_bound = max(100.0 * abs(t_step), 1.0)
    samples = []
    for t_val in ts:
        x_prev[0] = t_val
        eqs = find_horizon_equilibria(dfield, [x_prev])
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
# spectral conditions


def check_nonresonance(stable_eigs, order_N: int) -> Tuple[bool, Optional[tuple]]:
    """Sternberg-Sell nonresonance up to order 2N for a stable spectrum.

    True when every integer combination m with 2 <= |m| <= 2N keeps
    sum_j m_j lambda_j away (1e-10 relative) from zero and from every
    individual eigenvalue.  On failure returns the witness
    (m, index-or-None): the offending tuple and matched eigenvalue.
    """
    if order_N < 1:
        raise ValueError("order_N must be >= 1")
    lam = [complex(v) for v in stable_eigs]
    d = len(lam)
    if d == 0:
        return True, None
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
