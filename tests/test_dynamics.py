"""Integration, stop conditions, equilibrium finding and spectral analysis."""

import math

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
    DirectionalChart,
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
# the stages (1-based) the dense output reads from the step
_READS = sorted({j + 1 for row in _D for j, v in enumerate(row) if v} - {14, 15, 16})


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


def _py_gap(dfield, state):
    """The horizon gap in the generated code's arithmetic (Python's **)."""
    chart = dfield.chart
    if isinstance(chart, DirectionalChart):
        return state[chart.i0]
    two_beta = 2 * dfield.htype.beta_full()
    return 1.0 - _fold(
        state[j] ** int(two_beta[j]) for j in dfield.htype.i_alpha
    )


def _reference_rhs(dfield):
    n = dfield.n

    def rhs(state):
        values = dfield.rhs_values(state[:n])
        return list(values[:-1]) if dfield.nonautonomous else list(values)

    return rhs


def _reference_stages(dfield, z, k1, h):
    """Stages 1..13 of a step as lists over the state slots, with the
    increments and the new state, evaluating the field through
    rhs_values."""
    rhs = _reference_rhs(dfield)
    dim = len(z)
    ks = [list(k1)] + [None] * 15
    for s in range(1, 12):
        ks[s] = rhs([z[i] + h * _weighted(_A[s], ks, i) for i in range(dim)])
    d = [h * _weighted(_B, ks, i) for i in range(dim)]
    x = [z[i] + d[i] for i in range(dim)]
    ks[12] = rhs(x)
    return ks, d, x


def _reference_extra_stages(dfield, z, h, ks):
    """Fills in the dense output's stages 14..16."""
    rhs = _reference_rhs(dfield)
    for s in (13, 14, 15):
        ks[s] = rhs([z[i] + h * _weighted(_A[s], ks, i) for i in range(len(z))])


def _reference_step(dfield):
    """The generated step and dense output as list arithmetic: stage sums
    over lists of lists, the field through rhs_values, the same
    ``(z_new, err, k13, guard, gap, st)`` and ``(state, dt, gap)`` results,
    and every sum added in the generated code's order."""

    def step(z, k1, h, atol, rtol):
        dim = len(z)
        ks, d, x = _reference_stages(dfield, z, k1, h)
        u, v = [], []
        for i in range(dim):
            sk = atol + rtol * max(abs(z[i]), abs(x[i]))
            u.append(_weighted(_E5, ks, i) / sk)
            g = _weighted(_B, ks, i)
            v.append(_fold([g] + [-c * ks[j][i] for j, c in _BHH]) / sk)
        s5 = _fold(q * q for q in u)
        s3 = _fold(q * q for q in v)
        den = s5 + 0.01 * s3
        if not all(map(math.isfinite, x + [den])):
            return None
        err = h * s5 / (math.sqrt(den) * math.sqrt(dim)) if den > 0.0 else 0.0
        st = tuple(d) + tuple(ks[s - 1][i] for s in _READS for i in range(dim))
        return x, err, ks[12], max(abs(v) for v in x), _py_gap(dfield, x), st

    def dense(z, h, st, thetas):
        dim = len(z)
        d = list(st[:dim])
        ks = [None] * 16
        for pos, s in enumerate(_READS, start=1):
            ks[s - 1] = list(st[pos * dim:(pos + 1) * dim])
        _reference_extra_stages(dfield, z, h, ks)
        t_slot = 0 if dfield.nonautonomous else dfield.n
        c = [
            [h * ks[0][i] - d[i], 2.0 * d[i] - h * (ks[12][i] + ks[0][i])]
            + [h * _weighted(row, ks, i) for row in _D]
            for i in range(dim)
        ]
        total = sum(map(sum, c))
        if total - total != 0.0:
            return None
        out = []
        for th in thetas:
            y = 1.0 - th
            polys = [
                th * (d[i] + y * (c1 + th * (c2 + y * (c3 + th * (
                    c4 + y * (c5 + th * c6))))))
                for i, (c1, c2, c3, c4, c5, c6) in enumerate(c)
            ]
            state = [z[i] + polys[i] for i in range(dim)]
            out.append((tuple(state), polys[t_slot], _py_gap(dfield, state)))
        return out

    return step, dense


def _use_reference(dfield):
    step, dense = _reference_step(dfield)
    object.__setattr__(dfield, "step", step)
    object.__setattr__(dfield, "dense", dense)


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
    build, _, tau_max, stop = _STEP_FIELDS.get(
        name, (lambda: build_field_from_config(make_example(name)), None, 200.0,
               HORIZON_REACHED)
    )
    generated, reference = build(), build()
    _use_reference(reference)
    generated_step = generated.step
    domain_errors = []

    def counted(*args):
        try:
            return generated_step(*args)
        except DomainError:
            domain_errors.append(args[2])
            raise

    object.__setattr__(generated, "step", counted)
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
        df.step([chi, 0.5, 0.0], [0.0, 1.0, 1.0], 1e-3, 1e-12, 1e-10)


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
    # reference rejects it.
    fs = FieldSpec(variable_names=("chi", "y"), components=((), (m(1.0, 0, 2),)))
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
    z = (0.5, 0.1, 0.0)
    k1 = [k1_chi] + list(df.rhs_values(z[:2]))[1:]
    assert df.step(z, k1, h, atol, rtol) is None
    assert _reference_step(df)[0](list(z), k1, h, atol, rtol) is None


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
    # stages equal the generated ones bit for bit) agrees with the generated
    # dense output, which forms its coefficients in another order
    b = make_example(name)
    df = build_field_from_config(b)
    run = b.runs[0]
    coords = embed(df.chart, np.asarray(run.y0, dtype=float)).coords
    traj = integrate(df, coords, t0=run.t0)
    for z, h in ((traj.coords[len(traj.taus) // 3], 0.1), (traj.coords[-5], 1.0)):
        z = list(z) if df.nonautonomous else list(z) + [0.25]
        k1 = _reference_rhs(df)(z)
        _, err, _, _, _, st = df.step(tuple(z), k1, h, 1e-12, 1e-10)
        thetas = [0.1, 0.35, 0.5, 0.8, 0.95]
        got = np.array([state for state, _, _ in df.dense(tuple(z), h, st, thetas)])
        ks, _, x = _reference_stages(df, z, k1, h)
        _reference_extra_stages(df, z, h, ks)
        K = np.array(ks)
        y_old, y_new = np.array(z), np.array(x)
        delta = y_new - y_old
        F = np.empty((7, len(z)))
        F[0] = delta
        F[1] = h * K[0] - delta
        F[2] = 2 * delta - h * (K[12] + K[0])
        F[3:] = h * (_DOP.D @ K)
        want = Dop853DenseOutput(0.0, h, y_old, F)(np.array(thetas) * h).T
        assert err <= 1.0
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def _recorded_run(name, controls):
    """An example run, with the new state of every step that passed the
    error test, in order, and the gap that the step or the dense output
    returned for each state it returned."""
    b = make_example(name)
    df = build_field_from_config(b)
    real_step, real_dense = df.step, df.dense
    ends, returned = [], {}

    def recording_step(*args):
        out = real_step(*args)
        if out is not None:
            returned[tuple(out[0])] = out[4]
            if out[1] <= 1.0:
                ends.append(out[0])
        return out

    def recording_dense(*args):
        out = real_dense(*args)
        for state, _, gap in out or ():
            returned[tuple(state)] = gap
        return out

    object.__setattr__(df, "step", recording_step)
    object.__setattr__(df, "dense", recording_dense)
    run = b.runs[0]
    coords = embed(df.chart, np.asarray(run.y0, dtype=float)).coords
    traj = integrate(df, coords, t0=run.t0, controls=controls)
    return df, ends, returned, traj


def _path(df, traj):
    """The trajectory's samples as integrator states."""
    if df.nonautonomous:
        return [tuple(c) for c in traj.coords]
    return [tuple(c) + (t,) for c, t in zip(traj.coords, traj.ts)]


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
    # consecutive samples: at most max_step apart in tau and, above the
    # stop threshold, at most 0.1 decade apart in the stored gap
    assert np.max(np.diff(traj.taus)) <= max_step + 1e-12
    gaps = traj.gaps
    floor = controls.horizon_eps + 1e-14
    both = (gaps[1:] > floor) & (gaps[:-1] > floor)
    decades = np.abs(np.diff(np.log10(np.where(gaps > floor, gaps, 1.0))))
    assert np.max(decades[both]) <= 0.1 + 1e-12
    # the time increments add up to the elapsed time
    assert math.fsum(traj.dts) == pytest.approx(traj.ts[-1] - traj.ts[0],
                                                rel=1e-12)


# ---------------------------------------------------------------------------
# stop decisions on the gap the step returns


def _generated_gap(df, state):
    # with h = 0 every stage point is the state itself, so the step returns
    # the gap its own arithmetic gives there
    k1 = df.rhs_values(state[:df.n])[:df.n]
    return df.step(tuple(state), k1, 0.0, 1e-12, 1e-10)[4]


def _states_near_gap(df, target):
    """Painleve1 states whose gap lies within a few ulps of ``target``,
    as (state, generated gap, NumPy gap) triples."""
    rng = np.random.default_rng(5)
    out = []
    for x2 in rng.uniform(0.1, 0.9, size=300):
        x1 = ((1.0 - target) - x2**4) ** (1 / 6)
        for k in range(-4, 5):
            state = np.array([0.5, x1 + k * np.spacing(x1), x2])
            out.append((state, _generated_gap(df, state), df.horizon_gap(state)))
    return out


@pytest.mark.parametrize(
    "threshold", [1e-12, -_DOMAIN_SLACK], ids=["horizon_eps", "domain_slack"]
)
def test_parabolic_stop_decision_is_the_steps(threshold):
    # the generated step computes W with Python's `**`, the chart with
    # NumPy's power, and the two differ in the last bit now and then: at a
    # threshold integrate decides on the step's gap and stores that one
    df = build_field_from_config(painleve1())
    states = _states_near_gap(df, threshold)
    straddling = [
        (state, g_step) for state, g_step, g_np in states
        if (g_step < threshold) != (g_np < threshold)
    ]
    assert straddling, "no state where the two gaps straddle the threshold"
    chosen = straddling + [(st, g_step) for st, g_step, _ in states[::40]]
    real_step = df.step
    start = embed(df.chart, np.array([0.0, 10.0, 80.0])).coords
    for state, g_step in chosen:
        object.__setattr__(
            df, "step", lambda z, k1, h, a, r, s=tuple(state):
            real_step(s, k1, 0.0, a, r)
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
        assert float(np.linalg.norm(df.g(e.coords))) < 1e-10


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
