"""Integration, stop conditions, equilibrium finding and spectral analysis."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients as _DOP
from scipy.integrate._ivp.rk import Dop853DenseOutput

from horizon_lab import (
    DIVERGED,
    HORIZON_REACHED,
    LEFT_DOMAIN,
    TAU_EXHAUSTED,
    CurveBreak,
    DomainError,
    FieldSpec,
    HomogeneityType,
    InsufficientWindow,
    IntegratorControls,
    Monomial,
    StepFailure,
    Trajectory,
    build_parabolic_desing,
    build_report,
    check_nonresonance,
    embed,
    estimate_decay,
    find_horizon_equilibria,
    grid_seeds,
    integrate,
    spectrum_classify,
    trace_equilibrium_curve,
)
from horizon_lab.cli import build_field_from_config
from horizon_lab import dynamics
from horizon_lab.dynamics import _DOMAIN_SLACK
from horizon_lab.systems import (
    example_names,
    kk_dafermos,
    make_example,
    mems,
    painleve1,
    selfsimilar,
)

from conftest import CLAMPED_FIELDS


def m(coeff, *exps):
    return Monomial(coeff=coeff, exponents=tuple(exps))


SCALAR = FieldSpec(variable_names=("y",), components=((m(1.0, 2),),))
SCALAR_HT = HomogeneityType(alpha=(1,), k=1)


def scalar_field():
    return build_parabolic_desing(SCALAR, SCALAR_HT)


# ---------------------------------------------------------------------------
# integrator basics


def test_linear_decay_matches_exponential():
    # y' = -y has no blow-up; on the chart it flows to the origin.  The
    # chart coordinate obeys x' = -x W /2 ... so instead check accuracy on
    # the original line by projecting back at the end.
    fs = FieldSpec(variable_names=("y",), components=((m(-1.0, 1),),))
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(1,), k=1))
    pt = embed(df.chart, np.array([0.5]))
    traj = integrate(df, pt.coords, controls=IntegratorControls(tau_max=3.0))
    assert traj.stop_reason == TAU_EXHAUSTED
    # reconstruct y(t) at the final sample and compare with 0.5 e^-t
    gap = traj.gaps[-1]
    y_end = traj.coords[-1][0] / gap  # kappa^1 x
    assert y_end == pytest.approx(0.5 * math.exp(-traj.ts[-1]), rel=1e-9)


def test_scalar_blowup_time():
    df = scalar_field()
    pt = embed(df.chart, np.array([1.0]))
    traj = integrate(df, pt.coords)
    assert traj.stop_reason == HORIZON_REACHED
    # y(t) = 1/(1-t): physical time accumulated must approach 1
    assert traj.ts[-1] == pytest.approx(1.0, abs=1e-9)
    assert traj.gaps[-1] < 1e-11


def test_trajectory_shape_contracts():
    df = scalar_field()
    pt = embed(df.chart, np.array([1.0]))
    traj = integrate(df, pt.coords)
    # every accepted step adds its end, after its dense-output samples
    assert 0 < traj.n_accepted < len(traj.taus) - 1
    assert traj.dts.shape == traj.taus.shape and traj.dts[0] == 0.0
    assert np.all(np.diff(traj.taus) > 0)
    assert np.all(np.diff(traj.ts) >= 0)
    assert traj.coords.shape == (len(traj.taus), 1)
    # stored gaps agree with the horizon polynomial along the whole orbit
    P = df.chart.horizon_poly(traj.coords)
    assert np.allclose(1.0 - P, traj.gaps, atol=1e-12)


def test_max_step_is_honored():
    df = scalar_field()
    pt = embed(df.chart, np.array([1.0]))
    traj = integrate(df, pt.coords, controls=IntegratorControls(max_step=0.05))
    assert np.max(np.diff(traj.taus)) <= 0.05 + 1e-12


def test_tau_exhausted_truncation():
    df = scalar_field()
    pt = embed(df.chart, np.array([1.0]))
    traj = integrate(df, pt.coords, controls=IntegratorControls(tau_max=0.25))
    assert traj.stop_reason == TAU_EXHAUSTED
    assert traj.taus[-1] == pytest.approx(0.25)


def test_left_domain_stop():
    df = scalar_field()
    # start just outside the closed chart domain
    traj = integrate(df, np.array([1.0 + 1e-6]))
    assert traj.stop_reason == LEFT_DOMAIN


def test_horizon_eps_zero_disables_horizon_stop():
    df = scalar_field()
    start = np.array([1.0])  # exactly on the horizon
    traj = integrate(
        df, start, controls=IntegratorControls(tau_max=5.0, horizon_eps=0.0)
    )
    assert traj.stop_reason == TAU_EXHAUSTED
    assert np.max(np.abs(traj.gaps)) < 1e-9


def test_on_horizon_directional_start_stays_on_the_horizon():
    # on mems' chart s0 = 0 is L = -inf: the step, its dense output, the
    # sample spacing and the stops carry it without a NaN (no 0 * -inf and
    # no -inf - -inf), and s = exp(L) stays exactly 0
    df = build_field_from_config(mems())
    traj = integrate(
        df, np.array([1.0, 0.0, -1.0]),
        controls=IntegratorControls(tau_max=20.0, horizon_eps=0.0),
    )
    assert traj.stop_reason == TAU_EXHAUSTED
    assert len(traj.taus) > traj.n_accepted + 1  # dense samples too
    assert np.all(np.isfinite(traj.coords)) and np.all(np.isfinite(traj.ts))
    assert np.all(traj.gaps == 0.0)
    assert np.all(traj.coords[:, df.gap_slot] == 0.0)


def _runaway_field():
    # chi' = chi rides along as a weight-0 passenger and grows like
    # e^(tau/2) while the weighted part idles far from the horizon
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((m(1.0, 1, 0),), (m(1.0, 0, 2),)),
    )
    return build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))


def test_diverged_stop_on_unweighted_runaway():
    # the integrator must flag divergence once the state leaves all bounds
    df = _runaway_field()
    pt = embed(df.chart, np.array([10.0, 1e-4]))
    traj = integrate(df, pt.coords, controls=IntegratorControls(tau_max=600.0))
    assert traj.stop_reason == DIVERGED
    assert np.max(np.abs(traj.coords[-1])) > 1e99


def test_step_failure_on_finite_tau_singularity():
    # chi' = chi^2 erupts at finite tau; the step size collapses against
    # the singularity and the solver reports failure rather than looping
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((m(1.0, 2, 0),), (m(1.0, 0, 2),)),
    )
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
    pt = embed(df.chart, np.array([2.0, 0.01]))
    with pytest.raises(StepFailure, match="underflow"):
        integrate(df, pt.coords, controls=IntegratorControls(tau_max=100.0))


def test_step_failure_on_domain_wall():
    # sqrt(chi) with chi' < 0 forces the state across the domain boundary of
    # the field itself; no step size can cross it, so the solver gives up
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=(
            (m(-1.0, 0, 0),),
            (Monomial(1.0, (0.5, 1)),),
        ),
    )
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
    pt = embed(df.chart, np.array([0.5, 0.1]))
    with pytest.raises(StepFailure):
        integrate(df, pt.coords, controls=IntegratorControls(tau_max=50.0))


def test_integrator_tightens_with_tolerance():
    df = scalar_field()
    pt = embed(df.chart, np.array([1.0]))
    errs = []
    for rtol in (1e-6, 1e-10):
        traj = integrate(
            df,
            pt.coords,
            controls=IntegratorControls(
                rel_tol=rtol, abs_tol=1e-14, tau_max=2.0, max_step=math.inf
            ),
        )
        # exact chart solution: solve dx/dtau = x^2(1-x^2)/2 via y(t)=1/(1-t)
        gap = traj.gaps[-1]
        y_end = traj.coords[-1][0] / gap
        errs.append(abs(traj.ts[-1] - (1.0 - 1.0 / y_end)))
    assert errs[1] < errs[0] / 50


_PASSENGER = FieldSpec(
    variable_names=("chi", "y"), components=((), (m(1.0, 0, 2),))
)
_PASSENGER_HT = HomogeneityType(alpha=(0, 1), k=1)


@pytest.mark.parametrize(
    "field, htype, y0, controls",
    [
        # chi stays exactly 0, so the error scale of its slot is abs_tol
        (_PASSENGER, _PASSENGER_HT, [0.0, 1.0], {"abs_tol": 0.0}),
        (SCALAR, SCALAR_HT, [1.0], {"max_step": 0.0}),
        (SCALAR, SCALAR_HT, [1.0], {"max_step": math.nan}),
        (SCALAR, SCALAR_HT, [1.0], {"rel_tol": math.nan}),
        (SCALAR, SCALAR_HT, [1.0], {"abs_tol": math.nan}),
        (SCALAR, SCALAR_HT, [1.0], {"tau_max": math.nan}),
        (SCALAR, SCALAR_HT, [1.0], {"horizon_eps": math.nan, "tau_max": 5.0}),
        # a negative rel_tol makes chi's error scale exactly 0
        (_PASSENGER, _PASSENGER_HT, [1.0, 1.0], {"rel_tol": -1e-12, "abs_tol": 1e-12}),
        (SCALAR, SCALAR_HT, [1.0], {"rel_tol": 0.0}),
        (SCALAR, SCALAR_HT, [1.0], {"tau_max": 0.0}),
        (SCALAR, SCALAR_HT, [1.0], {"horizon_eps": -1.0}),
    ],
    ids=["abs_tol_zero", "max_step_zero", "max_step_nan", "rel_tol_nan",
         "abs_tol_nan", "tau_max_nan", "horizon_eps_nan", "rel_tol_negative",
         "rel_tol_zero", "tau_max_zero", "horizon_eps_negative"],
)
def test_unusable_controls_are_domain_errors(field, htype, y0, controls):
    df = build_parabolic_desing(field, htype)
    pt = embed(df.chart, np.array(y0))
    name = next(iter(controls))
    with pytest.raises(DomainError, match=name):
        integrate(df, pt.coords, controls=IntegratorControls(**controls))


def test_degenerate_but_usable_controls_are_kept():
    df = scalar_field()
    pt = embed(df.chart, np.array([1.0]))
    controls = IntegratorControls(horizon_eps=0.0, max_step=math.inf,
                                  tau_max=2.0)
    assert integrate(df, pt.coords, controls=controls).stop_reason == TAU_EXHAUSTED


# ---------------------------------------------------------------------------
# generated step against the list-based DOP853 arithmetic

# SciPy's copy of Hairer's DOP853 constants, 0-based: _A[s - 1] weights the
# stages that stage s reads (16 stages, the dense output's 14..16 included)
_A = [[float(v) for v in row] for row in _DOP.A]
_B = [float(v) for v in _DOP.B]
_E5 = [float(v) for v in _DOP.E5]
# dop853.f's 3rd-order weights (0-based stage, weight); SciPy's E3 is B
# minus them
_BHH = ((0, 0.244094488188976377952755905512),
        (8, 0.733846688281611857341361741547),
        (11, 0.220588235294117647058823529412e-1))
_D = [[float(v) for v in row] for row in _DOP.D]


def test_third_order_weights_are_scipys():
    for j, c in _BHH:
        assert _B[j] - c == _DOP.E3[j]


def _fold(terms):
    # added left to right from the first term, as the generated sums are
    terms = iter(terms)
    acc = next(terms)
    for term in terms:
        acc = acc + term
    return acc


def _weighted(row, ks, i):
    """sum of row[j] * ks[j][i] over the nonzero weights, in stage order."""
    return _fold(c * ks[j][i] for j, c in enumerate(row) if c != 0.0)


def _ln_split(dfield):
    """(i0, time slot, k) of a directional field, whose step state holds
    L = ln s in slot i0, or None on the parabolic chart."""
    if dfield.gap_slot == dfield.n:
        return None
    return dfield.gap_slot, (0 if dfield.nonautonomous else dfield.n), \
        dfield.htype.k_float


def _sample(dfield, state):
    """A step state as a trajectory sample: s = exp(L) in slot i0."""
    split = _ln_split(dfield)
    if split is None:
        return tuple(state)
    i0 = split[0]
    return tuple(state[:i0]) + (math.exp(state[i0]),) + tuple(state[i0 + 1:])


def _py_gap(dfield, state):
    """The horizon gap of a step state: its W, or exp(L) for its L = ln s."""
    gap = state[dfield.gap_slot]
    return gap if _ln_split(dfield) is None else math.exp(gap)


def _dim(dfield):
    """Slots of a step state: the coordinates, W on the parabolic chart,
    then t for an autonomous field."""
    return dfield.n + (_ln_split(dfield) is None) + (not dfield.nonautonomous)


def _reference_rhs(dfield):
    def rhs(state):
        return list(dfield.state_derivative(tuple(state)))

    return rhs


class _Stages:
    """The stages of one step as lists over the state slots, ``ks[s - 1]``
    for stage s, evaluating the field through ``state_derivative``.  On a
    directional chart the time slot's sums read the split derivative
    ``ku[s - 1] = k_t * (1 - w k_L)`` instead (``cols``), with q = 1/rho
    and w = k q as the step forms them."""

    def __init__(self, dfield, z, k1, h):
        self.rhs = _reference_rhs(dfield)
        self.split = _ln_split(dfield)
        self.z, self.h = list(z), h
        self.ks = [list(k1)] + [None] * 15
        self.ku = [None] * 16
        self.q = self.w = 0.0
        if self.split is not None:
            i0, _, k = self.split
            rho = k * k1[i0]
            self.q = 1.0 / rho if rho * h < -0.1 else 0.0
            self.w = k * self.q
            self._split_stage(0)

    def shift(self, state):
        """(s**k at ``state`` - s**k at the step's start) q, the part of a
        split time slot's increment that is not u's."""
        _, t, _ = self.split
        return (self.rhs(state)[t] - self.ks[0][t]) * self.q

    def _split_stage(self, j):
        if self.split is not None:
            i0, t, _ = self.split
            self.ku[j] = self.ks[j][t] * (1.0 - self.w * self.ks[j][i0])

    def col(self, j):
        """What the sums read of stage j + 1."""
        if self.split is None:
            return self.ks[j]
        out = list(self.ks[j])
        out[self.split[1]] = self.ku[j]
        return out

    def weighted(self, row, i):
        cols = [self.col(j) if row[j] != 0.0 else None for j in range(len(row))]
        return _weighted(row, cols, i)

    def point(self, row):
        z, h = self.z, self.h
        pt = [z[i] + h * self.weighted(row, i) for i in range(len(z))]
        if self.split is not None:
            t = self.split[1]
            pt[t] = pt[t] + self.shift(pt)
        return pt

    def evaluate(self, s, row):
        self.ks[s] = self.rhs(self.point(row))
        self._split_stage(s)


def _reference_stages(dfield, z, k1, h):
    """Stages 1..13 of a step, with its increments (the time slot's
    whole) and new state."""
    st = _Stages(dfield, z, k1, h)
    dim = len(z)
    for s in range(1, 12):
        st.evaluate(s, _A[s])
    d = [h * st.weighted(_B, i) for i in range(dim)]
    x = [z[i] + d[i] for i in range(dim)]
    st.du = None
    if st.split is not None:
        t = st.split[1]
        st.du = d[t]
        d[t] = st.du + st.shift(x)
        x[t] = z[t] + d[t]
    st.ks[12] = st.rhs(x)
    st._split_stage(12)
    return st, d, x


def _reference_extra_stages(st):
    """Fills in the dense output's stages 14..16."""
    for s in (13, 14, 15):
        st.evaluate(s, _A[s])


# a gap level is log10 of the gap, and on a directional chart L times
# 1/ln 10 as Python forms it
_LEVEL = 1.0 / math.log(10.0)


def _rows(dfield, flat):
    """A flat sample list (each sample its state, tau and time increment)
    as (sample state, gap) pairs."""
    dim = _dim(dfield)
    rows = [tuple(flat[i:i + dim + 2]) for i in range(0, len(flat), dim + 2)]
    return [(r[:dim], r[dfield.gap_slot]) for r in rows]


class _Samples(list):
    """A step's sample list that fails, in place of hanging, once a call
    has recorded a million floats: a re-sampling loop that never settles
    grows it without end."""

    def __iadd__(self, floats):
        super().__iadd__(floats)
        assert len(self) <= 10**6, "the step kept re-sampling"
        return self


def _call_step(df, z, k1, h, atol=1e-12, rtol=1e-10, max_step=math.inf):
    """One call of a field's step from tau = 0, as (result, samples)."""
    out = _Samples()
    return df.step(tuple(z), k1, h, 0.0, h, out, atol, rtol, max_step), out


def _reference_step(dfield):
    """The generated step as list arithmetic: stage sums over lists of
    lists, the field through state_derivative, every sum added in the
    generated code's order, the dense output and its sampling written out;
    the same results and the same floats appended to ``out``.  The step
    counts the coefficient sets it forms (``formed``) and the times it
    evaluates the dense output (``evaluated``)."""
    split = _ln_split(dfield)
    t_slot = 0 if dfield.nonautonomous else _dim(dfield) - 1
    # the decades of W, or of the time factor s**k, the next step may span
    cut = 0.3 if split is None else 4.0 / split[2]

    def level(state):
        if split is not None:
            return state[split[0]] * _LEVEL
        gap = state[dfield.gap_slot]
        return math.log10(gap) if gap >= sys.float_info.min else math.nan

    def flips(z, state):
        """Whether W changed sign from the step's start ``z``."""
        w = dfield.gap_slot
        return split is None and (state[w] < 0.0) != (z[w] < 0.0)

    def record(out, state, tau, dt):
        out += _sample(dfield, state) + (tau, dt)

    def stages(z, k1, h, atol, rtol):
        dim = len(z)
        st, d, x = _reference_stages(dfield, z, k1, h)
        u, v = [], []
        for i in range(dim):
            sk = atol + rtol * max(abs(z[i]), abs(x[i]))
            u.append(st.weighted(_E5, i) / sk)
            g = st.weighted(_B, i)
            v.append(_fold([g] + [-c * st.col(j)[i] for j, c in _BHH]) / sk)
        s5 = _fold(q * q for q in u)
        s3 = _fold(q * q for q in v)
        den = s5 + 0.01 * s3
        xs = list(_sample(dfield, x))
        if not all(map(math.isfinite, xs + [den])) or flips(z, x):
            return None
        err = h * s5 / (math.sqrt(den) * math.sqrt(dim)) if den > 0.0 else 0.0
        return st, d, x, err, max(abs(v) for v in xs)

    def dense_coeffs(z, h, st, d):
        d = list(d)
        if split is not None:
            d[split[1]] = st.du
        _reference_extra_stages(st)
        c = [
            [h * st.col(0)[i] - d[i], 2.0 * d[i] - h * (st.col(12)[i] + st.col(0)[i])]
            + [h * st.weighted(row, i) for row in _D]
            for i in range(len(z))
        ]
        total = sum(map(sum, c))
        return None if total - total != 0.0 else (d, c)

    def dense(z, st, cs, thetas):
        d, c = cs
        out = []
        for th in thetas:
            y = 1.0 - th
            polys = [
                th * (d[i] + y * (c1 + th * (c2 + y * (c3 + th * (
                    c4 + y * (c5 + th * c6))))))
                for i, (c1, c2, c3, c4, c5, c6) in enumerate(c)
            ]
            state = [z[i] + polys[i] for i in range(len(z))]
            if split is not None:
                polys[t_slot] = polys[t_slot] + st.shift(state)
                state[t_slot] = z[t_slot] + polys[t_slot]
            out.append((state, polys[t_slot]))
        return out

    def step(z, k1, h, tau, tau_end, out, atol, rtol, max_step):
        lv = level(z)
        res = stages(z, k1, h, atol, rtol)
        if res is None:
            return None
        st, d, x, err, guard = res
        if err > 1.0:
            return err
        lv1 = level(x)
        m = math.ceil(h / max_step)
        if abs(lv1 - lv) > 0.1:
            m = max(m, math.ceil(abs(lv1 - lv) / 0.1))
        fills = []
        if m > 1:
            cs = dense_coeffs(z, h, st, d)
            if cs is None:
                return None
            step.formed += 1
            while True:
                fills = dense(z, st, cs, [j / m for j in range(1, m)])
                step.evaluated += 1
                if any(flips(z, s) for s, _ in fills):
                    return None
                levels = [lv] + [level(s) for s, _ in fills] + [lv1]
                worst = max([0.0] + [
                    abs(b - a) for a, b in zip(levels, levels[1:])
                    if not math.isnan(b - a)
                ])
                if worst <= 0.1:
                    break
                m = math.ceil(m * worst / 0.1) + 1
        dt_prev = 0.0
        for j, (state, dt) in enumerate(fills, start=1):
            record(out, state, tau + h * (j / m), dt - dt_prev)
            dt_prev = dt
        record(out, x, tau_end, d[t_slot] - dt_prev)
        dec = abs(lv1 - lv)
        h_cut = h * cut / dec if dec > 0.0 else math.inf
        return tuple(x), err, tuple(st.ks[12]), guard, _py_gap(dfield, x), h_cut

    step.formed = step.evaluated = 0
    return step


def _use_reference(dfield):
    object.__setattr__(dfield, "step", _reference_step(dfield))
    return dfield.step


def _stiff_sqrt_field():
    # x' = -100 x under sqrt(x): the solution stays positive, but stages of
    # too long a step overshoot to x < 0, a fractional power of a negative
    # base, so the integrator retries at half the step
    fs = FieldSpec(
        variable_names=("x", "y"),
        components=((m(-100.0, 1, 0),), (m(1.0, 0, 2), m(1.0, 0.5, 0))),
    )
    return build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))


# the first run of seed 1 of each perfbench workload config, whose systems
# are the bundled examples at their default parameters
_BENCHMARK_FIRST_RUNS = {
    "kk_sweep": ("kk_dafermos", [0.0, 2.673932179759264, 1.4951791822015608,
                                 -0.1875, 0.3154111831849682], 0.0),
    "mems_sweep": ("mems", [1.0, -1.4700346246323948, -0.7835251423996898], 1.0),
    "painleve1_cli": ("painleve1", [0.0, 10.649676787083687, 81.88969678907269],
                      0.0),
}


def _overflow_field():
    # u' = v w with v' = w' = 1e165: at the first step sizes the stages put
    # v and w beyond 1e155, so v w overflows to inf in a product, which
    # raises nothing, and the step is rejected as non-finite until it is
    # short enough; the first accepted state is beyond the 1e100 guard
    fs = FieldSpec(
        variable_names=("u", "v", "w", "y"),
        components=(
            (m(1.0, 0, 1, 1, 0),),
            (m(1e165, 0, 0, 0, 0),),
            (m(1e165, 0, 0, 0, 0),),
            (m(1.0, 0, 0, 0, 2),),
        ),
    )
    return build_parabolic_desing(fs, HomogeneityType(alpha=(0, 0, 0, 1), k=1))


# name -> (field, y0, tau_max, stop reason) for the cases that are not
# bundled examples
_STEP_FIELDS = {
    "stiff_sqrt": (_stiff_sqrt_field, [1.0, 1.0], 200.0, HORIZON_REACHED),
    "w_clamp": (CLAMPED_FIELDS["w_clamp"], [1.0], 200.0, TAU_EXHAUSTED),
    "s_clamp": (CLAMPED_FIELDS["s_clamp"], [1.0], 200.0, TAU_EXHAUSTED),
    "sqrt_coordinate": (CLAMPED_FIELDS["sqrt_coordinate"], [0.25, 1.0], 200.0,
                        HORIZON_REACHED),
    "w_clamp_shared": (CLAMPED_FIELDS["w_clamp_shared"], [1.0, 0.5], 200.0,
                       TAU_EXHAUSTED),
    "s_clamp_shared": (CLAMPED_FIELDS["s_clamp_shared"], [1.0, 0.5], 200.0,
                       TAU_EXHAUSTED),
    "state_guard": (_runaway_field, [10.0, 1e-4], 600.0, DIVERGED),
    "product_overflow": (_overflow_field, [1.0, 1.0, 1.0, 0.5], 200.0, DIVERGED),
}


def _step_cases():
    cases = []
    for name in example_names():
        run = make_example(name).runs[0]
        cases.append(pytest.param(name, run.y0, run.t0, id=name))
    for wl, (name, y0, t0) in _BENCHMARK_FIRST_RUNS.items():
        cases.append(pytest.param(name, y0, t0, id=wl))
    for name, (_, y0, _, _) in _STEP_FIELDS.items():
        cases.append(pytest.param(name, y0, 0.0, id=name))
    return cases


@pytest.mark.parametrize("name,y0,t0", _step_cases())
def test_generated_step_matches_list_reference(name, y0, t0):
    # every call of the generated step within a run is repeated on the
    # list reference: the same result or DomainError, and the same floats
    # appended; the whole run equals the reference's run
    build, _, tau_max, stop = _STEP_FIELDS.get(
        name, (lambda: build_field_from_config(make_example(name)), None, 200.0,
               HORIZON_REACHED)
    )
    generated, reference = build(), build()
    twin = _reference_step(generated)
    _use_reference(reference)
    generated_step = generated.step
    domain_errors = []

    def checked(z, k1, h, tau, tau_end, out, *controls):
        mine = []
        try:
            want = twin(z, k1, h, tau, tau_end, mine, *controls)
        except DomainError:
            want = DomainError
        base = len(out)
        try:
            got = generated_step(z, k1, h, tau, tau_end, out, *controls)
        except DomainError:
            assert want is DomainError and len(out) == base
            domain_errors.append(h)
            raise
        assert repr(got) == repr(want)
        assert repr(out[base:]) == repr(mine)
        return got

    object.__setattr__(generated, "step", checked)
    coords = embed(generated.chart, np.asarray(y0, dtype=float)).coords
    controls = IntegratorControls(tau_max=tau_max)
    got = integrate(generated, coords, t0=t0, controls=controls)
    want = integrate(reference, coords, t0=t0, controls=controls)
    for attr in ("taus", "coords", "ts", "gaps", "dts"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    assert got.stop_reason == want.stop_reason == stop
    assert got.n_accepted == want.n_accepted
    assert got.n_rejected == want.n_rejected
    if name == "stiff_sqrt":
        assert len(domain_errors) > 0
        assert got.n_rejected >= len(domain_errors)
    if name == "product_overflow":
        assert not domain_errors and got.n_rejected > 0
    if name == "state_guard":
        assert np.max(np.abs(got.coords[-1])) > 1e99


@pytest.mark.parametrize(
    "chi_power, chi",
    [(-1, 0.0), (4, 1e80)],  # ZeroDivisionError, OverflowError
    ids=["zero_division", "overflow"],
)
def test_generated_step_raises_domain_error_like_rhs_values(chi_power, chi):
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((), (m(1.0, 0, 2), m(1.0, chi_power, 0))),
    )
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
    with pytest.raises(DomainError):
        df.rhs_values([chi, 0.5])
    with pytest.raises(DomainError):
        _call_step(df, [chi, 0.5, 0.75, 0.0], [0.0, 1.0, 1.0, 1.0], 1e-3)


@pytest.mark.parametrize(
    "k1_chi, h, atol, rtol",
    [(1.7e308, 20.0, 1e-12, 1e-10), (1e10, 1e-3, 0.0, 1e-300)],
    ids=["state_overflows", "error_norm_overflows"],
)
def test_generated_step_flags_non_finite_results(k1_chi, h, atol, rtol):
    # chi' = 0, so chi's stage sums read only the given k1: the first case
    # overflows chi's increment while its error terms stay finite (u = e /
    # inf = 0); the second keeps the state finite and overflows the squares
    # of the error norm.  Either way the step is rejected, as the list
    # reference rejects it, and records nothing.
    fs = FieldSpec(variable_names=("chi", "y"), components=((), (m(1.0, 0, 2),)))
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
    z = (0.5, 0.1, 0.99, 0.0)
    k1 = [k1_chi] + list(df.state_derivative(z))[1:]
    assert _call_step(df, z, k1, h, atol, rtol) == (None, [])
    _use_reference(df)
    assert _call_step(df, z, k1, h, atol, rtol) == (None, [])


def test_generated_step_fails_like_list_reference():
    # the domain wall of test_step_failure_on_domain_wall: every retry
    # raises inside the step until the step size underflows
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((m(-1.0, 0, 0),), (Monomial(1.0, (0.5, 1)),)),
    )
    messages = []
    for reference in (False, True):
        df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
        if reference:
            _use_reference(df)
        pt = embed(df.chart, np.array([0.5, 0.1]))
        with pytest.raises(StepFailure) as info:
            integrate(df, pt.coords, controls=IntegratorControls(tau_max=50.0))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name", ["painleve1", "mems", "kk_dafermos"])
def test_dense_output_matches_scipy(name):
    # SciPy's DOP853DenseOutput built from the same stages (the reference
    # stages equal the generated ones bit for bit) agrees with the samples
    # the step records at theta = j/m, m = 20 here or more, whose dense
    # output forms its coefficients in another order; on a directional
    # chart it interpolates L = ln s, whose s the step records, and the
    # split time slot u, to which (s**k - s0**k) q adds the rest of t.  On
    # the parabolic chart a step near the horizon is shorter: there the
    # state's distance from P + W = 1 decays 2c = 12 times faster than W,
    # and a step of 1 leaves DOP853's stability region
    b = make_example(name)
    df = build_field_from_config(b)
    split = _ln_split(df)
    run = b.runs[0]
    coords = embed(df.chart, np.asarray(run.y0, dtype=float)).coords
    traj = integrate(df, coords, t0=run.t0)
    dim = _dim(df)
    for i, h in ((len(traj.taus) // 3, 0.1), (-5, 0.3 if split is None else 1.0)):
        z = list(_path(df, traj)[i])
        if not df.nonautonomous:
            z[-1] = 0.25
        if split is not None:
            z[split[0]] = math.log(z[split[0]])
        k1 = _reference_rhs(df)(z)
        (z_new, err, *_), out = _call_step(df, z, k1, h, max_step=h / 20)
        rows = _rows(df, out)
        m = len(rows)
        assert m >= 20 and rows[-1][0] == _sample(df, z_new)
        got = np.array([state for state, _ in rows[:-1]])
        if split is not None:
            got[:, split[0]] = np.log(got[:, split[0]])
        thetas = np.arange(1, m) / m
        stages, d, _ = _reference_stages(df, z, k1, h)
        _reference_extra_stages(stages)
        K = np.array([stages.col(j) for j in range(16)])
        y_old = np.array(z)
        delta = np.array(d)
        if split is not None:
            delta[split[1]] = stages.du
        F = np.empty((7, dim))
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[12] + K[0])
        F[3:] = h * (_DOP.D @ K)
        want = Dop853DenseOutput(0.0, h, y_old, F)(thetas * h).T
        if split is not None:
            t = split[1]
            want[:, t] += [stages.shift(list(w)) for w in want]
            assert stages.q != 0.0  # the time slot is split
        assert err <= 1.0
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def _recorded_run(name, controls):
    """An example run, with the new state of every step that passed the
    error test, in order, and the gap that the step recorded for each
    sample it recorded."""
    b = make_example(name)
    df = build_field_from_config(b)
    real_step = df.step
    ends, returned = [], {}

    def recording_step(z, k1, h, tau, tau_end, out, *controls):
        base = len(out)
        res = real_step(z, k1, h, tau, tau_end, out, *controls)
        if res is not None and type(res) is not float:
            ends.append(_sample(df, res[0]))
            rows = _rows(df, out[base:])
            assert rows[-1] == (ends[-1], res[4])
            returned.update(rows)
        return res

    object.__setattr__(df, "step", recording_step)
    run = b.runs[0]
    coords = embed(df.chart, np.asarray(run.y0, dtype=float)).coords
    traj = integrate(df, coords, t0=run.t0, controls=controls)
    return df, ends, returned, traj


def _path(df, traj):
    """The trajectory's samples as integrator states, but with s in place
    of L = ln s on a directional chart (``_sample``)."""
    cols = [traj.coords]
    if _ln_split(df) is None:
        cols.append(traj.gaps[:, None])
    if not df.nonautonomous:
        cols.append(traj.ts[:, None])
    return [tuple(row) for row in np.hstack(cols).tolist()]


@pytest.mark.parametrize("max_step", [0.2, 0.05, math.inf])
@pytest.mark.parametrize("name", example_names())
def test_sampling_contract(name, max_step):
    controls = IntegratorControls(max_step=max_step)
    df, ends, _, traj = _recorded_run(name, controls)
    path = _path(df, traj)
    # every step end is a sample, in order, and the last sample is one
    assert len(ends) == traj.n_accepted
    pos = [path.index(tuple(e), 1) for e in ends]
    assert pos == sorted(pos) and pos[-1] == len(path) - 1
    # consecutive samples: at most max_step apart in tau and, where both
    # gaps are positive, at most 0.1 decade apart in the stored gap
    assert np.max(np.diff(traj.taus)) <= max_step + 1e-12
    gaps = traj.gaps
    both = (gaps[1:] > 0.0) & (gaps[:-1] > 0.0)
    decades = np.abs(np.diff(np.log10(np.where(gaps > 0.0, gaps, 1.0))))
    assert both.all() and np.max(decades[both]) <= 0.1 + 1e-12
    # the time increments add up to the elapsed time
    assert math.fsum(traj.dts) == pytest.approx(traj.ts[-1] - traj.ts[0],
                                                rel=1e-12)


def test_dense_coefficients_formed_once_per_filled_step():
    # one step of y' = y^2 from y = 0.7 over h = 2: W = 1 - y^2 falls
    # 0.48 decade, so the step samples its dense output at m = 5, but W's
    # decay speeds up along the step, one of those samples lies more than
    # 0.1 decade from the next, and the step samples again at a larger m,
    # which reuses the step's coefficients.  The generated step equals, bit
    # for bit, the list reference, which forms one set of coefficients and
    # evaluates the dense output more than once
    df = scalar_field()
    z = (0.7, 1.0 - 0.7 * 0.7, 0.0)
    h, max_step = 2.0, 1.0
    k1 = df.state_derivative(z)
    got, out = _call_step(df, z, k1, h, rtol=1e-6, max_step=max_step)
    ref = _reference_step(df)
    mine = _Samples()
    want = ref(z, k1, h, 0.0, h, mine, 1e-12, 1e-6, max_step)
    assert repr(got) == repr(want) and repr(out) == repr(mine)
    rows = _rows(df, out)
    decades = abs(math.log10(got[4]) - math.log10(z[1]))
    m = max(math.ceil(h / max_step), math.ceil(decades / 0.1))
    assert m == 5 and len(rows) > m  # sampled again at a larger m
    filled = len(rows) - 1
    assert 0 < ref.formed < filled
    assert ref.evaluated > ref.formed


def test_parabolic_steps_are_sized_by_accuracy():
    # the step's field slows the deviation from P + W = 1 to the gap's
    # rate, so near the horizon DOP853's stability interval no longer
    # rejects the steps the 0.3-decade cut allows; a deviation decaying at
    # 2c G = 12 G costs the painleve1 example 70 accepted and 10 rejected
    b = make_example("painleve1")
    df = build_field_from_config(b)
    coords = embed(df.chart, np.asarray(b.runs[0].y0, dtype=float)).coords
    traj = integrate(df, coords, t0=b.runs[0].t0, controls=b.runs[0].controls)
    assert traj.stop_reason == HORIZON_REACHED
    assert traj.n_rejected <= 5 and traj.n_accepted <= 60


def test_chunked_trajectory_equals_unchunked(monkeypatch):
    # a chunk of 3 samples moves a run's samples into many float64 chunks
    # on both kinds of chart; the arrays keep every bit
    for name in ("painleve1", "mems"):
        b = make_example(name)
        df = build_field_from_config(b)
        coords = embed(df.chart, np.asarray(b.runs[0].y0, dtype=float)).coords
        whole = integrate(df, coords, t0=b.runs[0].t0)
        monkeypatch.setattr(dynamics, "_CHUNK", 3)
        chunked = integrate(df, coords, t0=b.runs[0].t0)
        monkeypatch.undo()
        assert len(whole.taus) > 3 * 10
        for attr in ("taus", "coords", "ts", "gaps", "dts"):
            a, c = getattr(whole, attr), getattr(chunked, attr)
            assert a.tobytes() == c.tobytes() and a.shape == c.shape, attr
        assert (chunked.stop_reason, chunked.n_accepted, chunked.n_rejected) \
            == (whole.stop_reason, whole.n_accepted, whole.n_rejected)


# ---------------------------------------------------------------------------
# stop decisions on the gap the step returns


def _generated_gap(df, state):
    # with h = 0 every stage point is the state itself, so the step returns
    # the gap its own arithmetic gives there
    return _call_step(df, state, df.state_derivative(state), 0.0)[0][4]


def _states_near_gap(df, target):
    """Painleve1 step states whose W slot lies within a few ulps of
    ``target``, each way, as (state, generated gap) pairs."""
    rng = np.random.default_rng(5)
    out = []
    for x2 in rng.uniform(0.1, 0.9, size=30):
        x1 = ((1.0 - target) - x2**4) ** (1 / 6)
        for k in range(-4, 5):
            state = (0.5, x1, x2, target + k * np.spacing(target))
            out.append((state, _generated_gap(df, state)))
    return out


@pytest.mark.parametrize(
    "threshold", [1e-12, -_DOMAIN_SLACK], ids=["horizon_eps", "domain_slack"]
)
def test_parabolic_stop_decision_is_the_steps(threshold):
    # the step returns its new state's W slot as the gap: at a threshold
    # integrate decides on that gap and stores that one.  Each step below
    # stays at one state
    df = build_field_from_config(painleve1())
    states = _states_near_gap(df, threshold)
    assert {g < threshold for _, g in states} == {True, False}
    assert all(g == state[-1] for state, g in states)
    real_step = df.step
    start = embed(df.chart, np.array([0.0, 10.0, 80.0])).coords
    for state, g_step in states[::3]:
        object.__setattr__(
            df, "step", lambda z, k1, h, tau, tau_end, *rest, s=state:
            real_step(s, k1, 0.0, tau, tau_end, *rest)
        )
        traj = integrate(df, start, controls=IntegratorControls(tau_max=1.0))
        if g_step < -_DOMAIN_SLACK:
            want = LEFT_DOMAIN
        elif g_step < 1e-12:
            want = HORIZON_REACHED
        else:
            want = TAU_EXHAUSTED
        assert traj.stop_reason == want
        assert traj.gaps[-1] == g_step


def _fast_decay_field():
    # t' = 1, y' = 1.26 t y^4 on the parabolic chart (k = 3): from t = -537
    # W falls through the whole float range within about one unit of tau
    fs = FieldSpec(
        variable_names=("t", "y"),
        components=((m(1.0, 0, 0),), (m(1.257144044008007, 1, 4),)),
        nonautonomous=True,
    )
    return build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=3))


def test_parabolic_step_keeps_the_sign_of_w():
    # W = 0 is invariant, so a step whose W changes sign, at its end or at
    # a sample, is rejected like a non-finite one and records nothing; far
    # below the absolute tolerance nothing else bounds such a step.  The
    # list reference rejects it too
    for reference in (False, True):
        df = _fast_decay_field()
        if reference:
            _use_reference(df)
        for w in (6.4e-296, -6.4e-296):
            z = (-537.3183714954172, -1.0, w)
            for h in (1.0, 0.01):
                got = _call_step(df, z, df.state_derivative(z), h,
                                 max_step=5e-4)
                assert got == (None, []), (reference, w, h)


def test_subnormal_w_has_no_gap_level():
    # a subnormal W moves in steps of 5e-324, more than 0.1 decade apart
    # near the bottom, so no m could space its samples by the gap: they
    # carry no level, and max_step alone spaces them.  Nor does the step
    # cut the next one by W's levels: though W moved, the cut is inf
    df = _fast_decay_field()
    z = (-537.3183714954172, -1.0, 2e-323)
    assert 0.0 < z[2] < sys.float_info.min
    h = 8.8e-4
    res, out = _call_step(df, z, df.state_derivative(z), h, max_step=h / 20)
    rows = _rows(df, out)
    assert len(rows) == 20 and res[5] == math.inf and res[0][2] != z[2]
    assert all(0.0 < gap < sys.float_info.min for _, gap in rows)


def test_w_through_the_subnormals_ends(monkeypatch):
    # without the two rules above this run's step resampled forever, once
    # at a subnormal W and once at a W that had crossed zero
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 3000)
    df = _fast_decay_field()
    real_step = df.step

    def bounded(z, k1, h, tau, tau_end, out, *controls):
        mine = _Samples()
        try:
            return real_step(z, k1, h, tau, tau_end, mine, *controls)
        finally:
            out += mine

    object.__setattr__(df, "step", bounded)
    coords = embed(df.chart, np.array([-537.3183714995096, -49.40441437057941]))
    controls = IntegratorControls(tau_max=30.0, horizon_eps=0.0)
    try:
        traj = integrate(df, coords.coords, controls=controls)
    except StepFailure:
        return
    assert traj.stop_reason in (TAU_EXHAUSTED, LEFT_DOMAIN, DIVERGED)


@pytest.mark.parametrize("name", example_names())
def test_stored_gaps_are_the_integrators(name):
    df, _, returned, traj = _recorded_run(name, IntegratorControls())
    path = _path(df, traj)
    assert traj.gaps[0] == df.horizon_gap(traj.coords[0])
    assert traj.gaps[1:].tolist() == [returned[p] for p in path[1:]]


# ---------------------------------------------------------------------------
# horizon equilibria


def test_scalar_equilibria():
    df = scalar_field()
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(1)))
    assert [round(float(e.coords[0]), 12) for e in eqs] == [-1.0, 1.0]
    kinds = {float(e.coords[0]): e.classification for e in eqs}
    assert kinds[1.0] == "sink" and kinds[-1.0] == "source"


def test_painleve_true_equilibrium_count():
    """The horizon carries exactly two equilibria: u-hat > 0 is forced.

    On {u^6 + v^4 = 1} the u-equation reduces to v (1 - u^6 - 4 u^3 v^2) = 0,
    and eliminating v^2 = (1-u^6)/(4u^3) demands u > 0; the v-equation then
    pins u^6 = 1/17.  Only the v sign is free.
    """
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(3)))
    assert len(eqs) == 2
    u_star = 17.0 ** (-1.0 / 6.0)
    v_star = 2.0 * 17.0 ** (-1.0 / 4.0)
    got = sorted((float(e.coords[1]), float(e.coords[2])) for e in eqs)
    assert got[0] == pytest.approx((u_star, -v_star), rel=1e-10)
    assert got[1] == pytest.approx((u_star, v_star), rel=1e-10)
    for e in eqs:
        assert e.residual < 1e-10


def test_painleve_spectrum_closed_form():
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(3)))
    sink = [e for e in eqs if e.classification == "sink"][0]
    lam = sorted(sink.eigenvalues.real)
    scale = 17.0 ** (-1.0 / 12.0)
    assert lam[0] == pytest.approx(-6.0 * scale, rel=1e-8)
    assert lam[1] == pytest.approx(-1.0 * scale, rel=1e-8)
    assert lam[2] == pytest.approx(0.0, abs=1e-10)
    assert sink.tangential_dims == 1


def test_painleve_far_slices_classify_on_the_horizon():
    """The linearization is taken at gap 0, where painleve1's t * W**4
    term is gone: however far the slice, it lists a source and a sink with
    slice 1's eigenvalues, bit for bit, and no RuntimeWarning."""
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)

    def listing(t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eqs = find_horizon_equilibria(df, grid_seeds(df, [t, 0.0, 0.0]))
        assert [e.classification for e in eqs] == ["source", "sink"]
        assert all(e.t_slice == t and e.residual < 1e-10 for e in eqs)
        return [e.eigenvalues.tobytes() for e in eqs]

    first = listing(1.0)
    for t in (1e100, 1e250, -1e250):
        assert listing(t) == first


def test_kk_equilibria_and_classification():
    b = kk_dafermos()
    df = build_field_from_config(b)
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(5)))
    vals = sorted(float(e.coords[1]) for e in eqs)
    lo = math.sqrt(3.0 - math.sqrt(3.0))
    hi = math.sqrt(3.0 + math.sqrt(3.0))
    assert vals == pytest.approx([-hi, -lo, lo, hi], rel=1e-10)
    kinds = {round(float(e.coords[1]), 6): e.classification for e in eqs}
    assert kinds[round(lo, 6)] == "saddle"
    assert kinds[round(hi, 6)] == "sink"
    assert kinds[round(-hi, 6)] == "source"
    assert kinds[round(-lo, 6)] == "saddle"


def test_equilibrium_residual_contract():
    b = kk_dafermos()
    df = build_field_from_config(b)
    for e in find_horizon_equilibria(df, grid_seeds(df, np.zeros(5))):
        assert e.residual < 1e-10
        assert float(np.linalg.norm(df.rhs_values(e.coords)[:-1])) < 1e-10


def test_spectrum_classify_nonhyperbolic_detection():
    # the self-similar slice carries a second equilibrium whose neutral
    # count exceeds its tangential dimension
    b = selfsimilar()
    df = build_field_from_config(b)
    eqs = find_horizon_equilibria(df, grid_seeds(df, [1.5, 0.0, 0.0]))
    kinds = sorted(e.classification for e in eqs)
    assert kinds == ["nonhyperbolic", "sink"]
    weird = [e for e in eqs if e.classification == "nonhyperbolic"][0]
    split = spectrum_classify(weird.eigenvalues, weird.tangential_dims)
    assert split.classification == "nonhyperbolic"


def test_explicit_seed_search():
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    seeds = [np.array([0.0, 0.62, 0.98])]
    eqs = find_horizon_equilibria(df, seeds)
    assert len(eqs) == 1
    assert eqs[0].coords[2] > 0


def test_seed_batch_width_must_match_field():
    # a (3, 2) batch holds as many numbers as two 3-slot seeds
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    for seeds in (np.zeros((3, 2)), np.zeros(3), np.zeros((1, 4))):
        with pytest.raises(ValueError, match="seeds shape"):
            find_horizon_equilibria(df, seeds)


def test_one_batch_mixes_time_slices():
    # each mems seed carries its own r; the equilibria sit at v = ±sqrt(2 r)
    b = mems()
    df = build_field_from_config(b)
    seeds = [[1.0, 0.3, 1.5], [1.0, 0.3, -1.5], [2.0, 0.3, 2.2], [2.0, 0.3, -2.2]]
    eqs = find_horizon_equilibria(df, seeds)
    got = sorted((e.t_slice, float(np.sign(e.coords[2]))) for e in eqs)
    assert got == [(1.0, -1.0), (1.0, 1.0), (2.0, -1.0), (2.0, 1.0)]
    for e in eqs:
        assert e.t_slice == e.coords[0]
        assert e.coords[1] == 0.0
        r = e.t_slice
        assert abs(e.coords[2]) == pytest.approx(math.sqrt(2.0 * r), rel=1e-10)


def test_eigenvalues_in_canonical_order():
    b = kk_dafermos()
    df = build_field_from_config(b)
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(5)))
    sf = scalar_field()
    eqs += find_horizon_equilibria(sf, grid_seeds(sf, np.zeros(1)))
    for e in eqs:
        key = [(v.real, v.imag) for v in e.eigenvalues]
        assert key == sorted(key)


# ---------------------------------------------------------------------------
# horizon targets


def example_run(name):
    b = make_example(name)
    df = build_field_from_config(b)
    pt = embed(df.chart, np.asarray(b.runs[0].y0, dtype=float))
    return b, df, integrate(df, pt.coords)


@pytest.mark.parametrize("name", example_names())
def test_endpoint_target_matches_grid_target(name):
    b, df, traj = example_run(name)
    end = traj.coords[-1]
    single = find_horizon_equilibria(df, [end])
    assert len(single) == 1
    grid = find_horizon_equilibria(df, grid_seeds(df, end))
    assert len(grid) > 1
    a = build_report(traj, single).shadowed_target
    g = build_report(traj, grid).shadowed_target
    assert np.max(np.abs(a.coords - g.coords)) < 1e-12
    assert a.classification == g.classification
    assert np.max(np.abs(a.eigenvalues - g.eigenvalues)) < 1e-12


def test_search_pins_weight_zero_slots_at_seed():
    b = kk_dafermos()  # chi has weight 0 and labels a family of slices
    df = build_field_from_config(b)
    anchor = np.array([0.5, 1.0, 0.3, 0.2, 0.1])
    seeds = grid_seeds(df, anchor)
    assert np.all(seeds[:, [0, 2]] == anchor[[0, 2]])
    eqs = find_horizon_equilibria(df, seeds)
    assert len(eqs) == 4
    for e in eqs:
        assert e.coords[0] == 0.5
        assert e.coords[2] == 0.0  # the pivot s sits on the horizon
        assert e.tangential_dims == 1 and e.t_slice is None


# ---------------------------------------------------------------------------
# equilibrium curves


def test_selfsimilar_equilibrium_curve():
    b = selfsimilar()  # m = -1, beta = -1
    df = build_field_from_config(b)
    curve = trace_equilibrium_curve(
        df, (1.0, 2.0), 0.05, seed=np.array([1.0, 0.0, 1.0])
    )
    assert len(curve.samples) == 21
    for eq, t in zip(curve.samples, curve.t_values):
        assert eq.coords[0] == pytest.approx(t)
        assert eq.coords[2] == pytest.approx(t, rel=1e-10)
        normal = sorted(eq.eigenvalues.real)[:2]
        # the published normal block gives a double eigenvalue beta*chi = -chi
        assert normal == pytest.approx([-t, -t], rel=1e-8)
    lo, hi = curve.normal_spectrum_bounds
    assert (lo, hi) == pytest.approx((-2.0, -1.0), rel=1e-8)


@pytest.mark.parametrize(
    "t_range, t_step, n_grid",
    [((0.0, 1.0), 0.1, 10), ((1.0, 0.0), 0.1, 10), ((0.0, 1.0), 0.3, 4)],
    ids=["ascending", "descending", "off_grid"],
)
def test_curve_slices_are_grid_points_then_the_range_end(t_range, t_step, n_grid):
    # slice i is t_start + i * step, not a running sum of steps, and the
    # last slice is t_range[1] itself, on the grid or off it
    df = build_field_from_config(painleve1())
    seed = np.array([t_range[0], 17.0 ** (-1.0 / 6.0), 2.0 * 17.0 ** (-0.25)])
    curve = trace_equilibrium_curve(df, t_range, t_step, seed=seed)
    step = math.copysign(t_step, t_range[1] - t_range[0])
    grid = tuple(t_range[0] + i * step for i in range(n_grid))
    assert curve.t_values == grid + (t_range[1],)


@pytest.mark.parametrize(
    "t_range, t_step",
    [((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf), ((0.0, math.inf), 0.1),
     ((math.nan, 1.0), 0.1)],
    ids=["step_nan", "step_inf", "stop_inf", "start_nan"],
)
def test_curve_rejects_non_finite_inputs(monkeypatch, t_range, t_step):
    df = build_field_from_config(painleve1())

    def no_solve(*args, **kwargs):
        raise AssertionError("a slice was solved")

    monkeypatch.setattr(dynamics, "find_horizon_equilibria", no_solve)
    seed = np.array([0.0, 17.0 ** (-1.0 / 6.0), 2.0 * 17.0 ** (-0.25)])
    with pytest.raises(DomainError, match="must be finite"):
        trace_equilibrium_curve(df, t_range, t_step, seed=seed)


@pytest.mark.parametrize(
    "system, slot",
    [(painleve1, 0), (painleve1, 1), (painleve1, 2), (mems, 1)],
    ids=["painleve1_t", "painleve1_u", "painleve1_v", "mems_s"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_search_rejects_non_finite_inputs(monkeypatch, system, slot, bad):
    # a non-finite seed or anchor is a DomainError before any solve: no
    # RuntimeWarning from the dedup, no EigenFailure, and no CurveBreak
    # from a trace; a directional chart's s is no exception, though the
    # search sets it to 0
    df = build_field_from_config(system())

    def no_solve(*args, **kwargs):
        raise AssertionError("a seed was solved")

    monkeypatch.setattr(dynamics, "_gauss_newton", no_solve)
    good = [0.5] * df.n
    point = list(good)
    point[slot] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            find_horizon_equilibria(df, [good, point])
        with pytest.raises(DomainError, match="must be finite"):
            grid_seeds(df, point)
        if df.nonautonomous:
            with pytest.raises(DomainError, match="must be finite"):
                trace_equilibrium_curve(df, (0.0, 1.0), 0.5, seed=point)


@pytest.mark.parametrize("anchor", [[0.0, 0.5], [0.0, 0.5, 0.5, 0.5], [[0.0, 0.5, 0.5]]],
                         ids=["short", "long", "nested"])
def test_grid_seeds_rejects_an_anchor_of_another_shape(anchor):
    df = build_field_from_config(painleve1())
    with pytest.raises(ValueError, match="anchor shape"):
        grid_seeds(df, anchor)


def test_curve_break_carries_t_value():
    # continuing the MEMS branch across r = 0 hits the r^-1 singularity
    b = mems()
    df = build_field_from_config(b)
    with pytest.raises(CurveBreak) as exc_info:
        trace_equilibrium_curve(
            df, (0.5, -0.5), -0.05, seed=np.array([0.5, 0.0, -1.0])
        )
    assert exc_info.value.t_value is not None
    assert abs(exc_info.value.t_value) <= 0.5


# ---------------------------------------------------------------------------
# nonresonance


def brute_force_resonance(eigs, N, tol=1e-10):
    """Oracle: scan all multi-indices 2 <= |m| <= 2N for a resonance."""
    import itertools

    d = len(eigs)
    scale = max(1.0, max(abs(e) for e in eigs))
    for total in range(2, 2 * N + 1):
        for combo in itertools.product(range(total + 1), repeat=d):
            if sum(combo) != total:
                continue
            val = sum(c * e for c, e in zip(combo, eigs))
            if abs(val) <= tol * scale:
                return combo, None
            for i, ei in enumerate(eigs):
                if abs(val - ei) <= tol * max(1.0, abs(ei)):
                    return combo, i
    return None


def test_painleve_nonresonant_at_first_order():
    scale = 17.0 ** (-1.0 / 12.0)
    eigs = [-scale, -6.0 * scale]
    ok, witness = check_nonresonance(eigs, order_N=1)
    assert ok and witness is None
    assert brute_force_resonance(eigs, 1) is None


def test_resonance_detected_with_witness():
    scale = 17.0 ** (-1.0 / 12.0)
    eigs = [-scale, -6.0 * scale]
    # at N = 3 the combination 6*lambda_1 equals lambda_2
    ok, witness = check_nonresonance(eigs, order_N=3)
    assert not ok
    mvec, target = witness
    assert sum(mvec) == 6 and target == 1
    assert brute_force_resonance(eigs, 3) is not None


def test_nonresonance_matches_brute_force_on_random_spectra():
    rng = np.random.default_rng(33)
    for _ in range(20):
        eigs = sorted(-rng.uniform(0.3, 4.0, size=3))
        ok, witness = check_nonresonance(eigs, order_N=2)
        assert ok == (brute_force_resonance(eigs, 2) is None)


def test_eigenvalue_match_resonance():
    # 2*lambda_1 = lambda_2 at |m| = 2: resonant already at first order
    ok, witness = check_nonresonance([-1.0, -2.0], order_N=1)
    assert not ok
    assert witness == ((2, 0), 1)


@pytest.mark.parametrize("eigs", [[], [-1.0]], ids=["empty", "one"])
def test_nonresonance_rejects_an_order_below_one(eigs):
    # the order is checked before an empty spectrum returns
    with pytest.raises(ValueError, match="order_N"):
        check_nonresonance(eigs, order_N=0)


def test_zero_sum_resonance():
    # m = (1, 2) annihilates the spectrum: witness carries index None
    ok, witness = check_nonresonance([-2.0, 1.0], order_N=2)
    assert not ok
    mvec, target = witness
    assert target is None
    assert sum(mi * li for mi, li in zip(mvec, (-2.0, 1.0))) == 0.0


# ---------------------------------------------------------------------------
# decay estimation


def synthetic_trajectory(taus, gaps):
    taus = np.asarray(taus, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    n = len(taus)
    return Trajectory(
        dfield=None,
        taus=taus,
        coords=np.zeros((n, 1)),
        ts=np.zeros(n),
        gaps=gaps,
        dts=np.zeros(n),
        stop_reason=TAU_EXHAUSTED,
    )


def test_estimate_decay_pure_exponential():
    taus = np.linspace(0.0, 30.0, 400)
    traj = synthetic_trajectory(taus, np.exp(-2.0 * taus))
    lam, residual_slope = estimate_decay(traj)
    assert lam == pytest.approx(2.0, rel=1e-12)
    assert residual_slope < 1e-12


def test_estimate_decay_polynomial_prefactor():
    taus = np.linspace(5.0, 80.0, 600)
    traj = synthetic_trajectory(taus, taus * np.exp(-taus))
    lam, residual_slope = estimate_decay(traj, window=(40.0, 80.0))
    assert lam == pytest.approx(1.0, rel=0.02)
    assert residual_slope < 0.01
    # widening the window toward infinity sharpens the estimate
    lam2, _ = estimate_decay(traj, window=(60.0, 80.0))
    assert abs(lam2 - 1.0) < abs(lam - 1.0)


def test_estimate_decay_insufficient_window():
    taus = np.linspace(0.0, 1.0, 10)
    traj = synthetic_trajectory(taus, np.exp(-taus))
    with pytest.raises(InsufficientWindow):
        estimate_decay(traj)


def test_estimate_decay_default_window_is_trailing():
    # a transient with the wrong slope must be excluded by the default band
    taus = np.linspace(0.0, 60.0, 900)
    gaps = np.where(taus < 10.0, np.exp(-5.0 * taus), None)
    gaps = np.exp(-5.0 * np.minimum(taus, 10.0)) * np.exp(
        -1.0 * np.maximum(taus - 10.0, 0.0)
    )
    traj = synthetic_trajectory(taus, gaps)
    lam, _ = estimate_decay(traj)
    assert lam == pytest.approx(1.0, rel=1e-6)
