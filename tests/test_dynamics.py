"""Integration, stop conditions, equilibrium finding and spectral analysis."""

import math

import numpy as np
import pytest

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
    build_directional_desing,
    build_parabolic_desing,
    build_report,
    check_nonresonance,
    embed,
    estimate_decay,
    find_horizon_equilibria,
    horizon_targets,
    integrate,
    spectrum_classify,
    trace_equilibrium_curve,
)
from horizon_lab.systems import (
    example_names,
    kk_dafermos,
    make_example,
    mems,
    painleve1,
    selfsimilar,
)


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
    assert traj.n_accepted == len(traj.taus) - 1
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


def test_diverged_stop_on_unweighted_runaway():
    # chi' = chi rides along as a weight-0 passenger and grows like
    # e^(tau/2) while the weighted part idles far from the horizon; the
    # integrator must flag divergence once the state leaves all bounds
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((m(1.0, 1, 0),), (m(1.0, 0, 2),)),
    )
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
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


# ---------------------------------------------------------------------------
# generated step against the list-based Dormand-Prince arithmetic

_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
           187 / 2100, 1 / 40)
_REF_E = tuple(b5 - b4 for b5, b4 in zip(_REF_B5, _REF_B4))


def _left_sum(terms):
    # sum() from the integer 0, added left to right: what sum() computes on
    # Python <= 3.11 (3.12 compensates float sums)
    acc = 0
    for term in terms:
        acc = acc + term
    return acc


def _reference_step(dfield):
    """A step with the stage sums over lists of lists that the generated
    step replaced, evaluating the field through rhs_values."""
    n = dfield.n

    def rhs(state):
        values = dfield.rhs_values(state[:n])
        return list(values[:-1]) if dfield.nonautonomous else list(values)

    def step(z, k1, h, atol, rtol):
        dim = len(z)
        ks = [list(k1)] + [None] * 6
        for s in range(1, 7):
            a = _REF_A[s]
            zs = [
                z[i] + h * _left_sum(a[j] * ks[j][i] for j in range(s))
                for i in range(dim)
            ]
            ks[s] = rhs(zs)
        err = [
            h * _left_sum(_REF_E[j] * ks[j][i] for j in range(7))
            for i in range(dim)
        ]
        acc = 0.0
        for e, a, b in zip(err, z, zs):
            q = e / (atol + rtol * max(abs(a), abs(b)))
            acc += q * q
        return zs, math.sqrt(acc / dim), ks[6]

    return step


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


def _step_cases():
    cases = []
    for name in example_names():
        run = make_example(name).default_runs[0]
        cases.append(pytest.param(name, run["y0"], run.get("t0", 0.0), id=name))
    for wl, (name, y0, t0) in _BENCHMARK_FIRST_RUNS.items():
        cases.append(pytest.param(name, y0, t0, id=wl))
    cases.append(pytest.param("stiff_sqrt", [1.0, 1.0], 0.0, id="stiff_sqrt"))
    return cases


@pytest.mark.parametrize("name,y0,t0", _step_cases())
def test_generated_step_matches_list_reference(name, y0, t0):
    def build():
        if name == "stiff_sqrt":
            return _stiff_sqrt_field()
        return example_field(make_example(name))

    generated, reference = build(), build()
    object.__setattr__(reference, "step", _reference_step(reference))
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
    got = integrate(generated, coords, t0=t0)
    want = integrate(reference, coords, t0=t0)
    for attr in ("taus", "coords", "ts", "gaps"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    assert got.stop_reason == want.stop_reason == HORIZON_REACHED
    assert got.n_rejected == want.n_rejected
    if name == "stiff_sqrt":
        assert len(domain_errors) > 0
        assert got.n_rejected >= len(domain_errors)


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
            object.__setattr__(df, "step", _reference_step(df))
        pt = embed(df.chart, np.array([0.5, 0.1]))
        with pytest.raises(StepFailure) as info:
            integrate(df, pt.coords, controls=IntegratorControls(tau_max=50.0))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# horizon equilibria


def test_scalar_equilibria():
    df = scalar_field()
    eqs = find_horizon_equilibria(df)
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
    eqs = find_horizon_equilibria(df, t_slice=0.0)
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
    eqs = find_horizon_equilibria(df, t_slice=0.0)
    sink = [e for e in eqs if e.classification == "sink"][0]
    lam = sorted(sink.eigenvalues.real)
    scale = 17.0 ** (-1.0 / 12.0)
    assert lam[0] == pytest.approx(-6.0 * scale, rel=1e-8)
    assert lam[1] == pytest.approx(-1.0 * scale, rel=1e-8)
    assert lam[2] == pytest.approx(0.0, abs=1e-10)
    assert sink.tangential_dims == 1


def test_kk_equilibria_and_classification():
    b = kk_dafermos()
    df = build_directional_desing(b.field, b.htype, b.chart())
    eqs = find_horizon_equilibria(df, freeze=(0,))
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
    df = build_directional_desing(b.field, b.htype, b.chart())
    for e in find_horizon_equilibria(df, freeze=(0,)):
        assert e.residual < 1e-10
        assert float(np.linalg.norm(df.g(e.coords))) < 1e-10


def test_nonautonomous_requires_t_slice():
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    with pytest.raises(DomainError):
        find_horizon_equilibria(df)


def test_spectrum_classify_nonhyperbolic_detection():
    # the self-similar slice carries a second equilibrium whose neutral
    # count exceeds its tangential dimension
    b = selfsimilar()
    df = build_directional_desing(b.field, b.htype, b.chart())
    eqs = find_horizon_equilibria(df, t_slice=1.5)
    kinds = sorted(e.classification for e in eqs)
    assert kinds == ["nonhyperbolic", "sink"]
    weird = [e for e in eqs if e.classification == "nonhyperbolic"][0]
    split = spectrum_classify(weird.eigenvalues, weird.tangential_dims)
    assert split.classification == "nonhyperbolic"


def test_explicit_seed_search():
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    seeds = [np.array([0.0, 0.62, 0.98])]
    eqs = find_horizon_equilibria(df, seeds=seeds, t_slice=0.0)
    assert len(eqs) == 1
    assert eqs[0].coords[2] > 0


def test_eigenvalues_in_canonical_order():
    b = kk_dafermos()
    df = build_directional_desing(b.field, b.htype, b.chart())
    eqs = find_horizon_equilibria(df, freeze=(0,))
    eqs += find_horizon_equilibria(scalar_field())
    for e in eqs:
        key = [(v.real, v.imag) for v in e.eigenvalues]
        assert key == sorted(key)


# ---------------------------------------------------------------------------
# horizon targets


def example_field(b):
    chart = b.chart()
    if isinstance(chart, DirectionalChart):
        return build_directional_desing(b.field, b.htype, chart)
    return build_parabolic_desing(b.field, b.htype)


def example_run(name):
    b = make_example(name)
    df = example_field(b)
    pt = embed(df.chart, np.asarray(b.default_runs[0]["y0"], dtype=float))
    return b, df, integrate(df, pt.coords)


@pytest.mark.parametrize("name", example_names())
def test_endpoint_target_matches_grid_target(name):
    b, df, traj = example_run(name)
    end = traj.coords[-1]
    single = horizon_targets(df, end, grid=False)
    assert len(single) == 1
    grid = horizon_targets(df, end)
    assert len(grid) > 1
    a = build_report(traj, single, b.htype).shadowed_target
    g = build_report(traj, grid, b.htype).shadowed_target
    assert np.max(np.abs(a.coords - g.coords)) < 1e-12
    assert a.classification == g.classification
    assert np.max(np.abs(a.eigenvalues - g.eigenvalues)) < 1e-12


def test_horizon_targets_pin_weight_zero_slots_at_anchor():
    b = kk_dafermos()  # chi has weight 0 and labels a family of slices
    df = build_directional_desing(b.field, b.htype, b.chart())
    on_zero = horizon_targets(df, np.zeros(5))
    reference = find_horizon_equilibria(df, freeze=(0,))
    assert len(on_zero) == len(reference) == 4
    for e, r in zip(on_zero, reference):
        assert np.array_equal(e.coords, r.coords)
        assert np.array_equal(e.eigenvalues, r.eigenvalues)
    anchor = np.array([0.5, 1.0, 0.3, 0.2, 0.1])
    for e in horizon_targets(df, anchor):
        assert e.coords[0] == 0.5
        assert e.coords[2] == 0.0  # the pivot s sits on the horizon


# ---------------------------------------------------------------------------
# equilibrium curves


def test_selfsimilar_equilibrium_curve():
    b = selfsimilar()  # m = -1, beta = -1
    df = build_directional_desing(b.field, b.htype, b.chart())
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


def test_curve_break_carries_t_value():
    # continuing the MEMS branch across r = 0 hits the r^-1 singularity
    b = mems()
    df = build_directional_desing(b.field, b.htype, b.chart())
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
        chart=None,
        dfield=None,
        taus=taus,
        coords=np.zeros((n, 1)),
        ts=np.zeros(n),
        gaps=gaps,
        stop_reason=TAU_EXHAUSTED,
        n_rejected=0,
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
