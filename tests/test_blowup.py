"""Blow-up time extrapolation, rate fitting, and report assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from horizon_lab import (
    HORIZON_REACHED,
    TAU_EXHAUSTED,
    DirectionalChart,
    DomainError,
    FieldSpec,
    HomogeneityType,
    InsufficientWindow,
    IntegratorControls,
    Monomial,
    NoTargetFound,
    NotConverged,
    RateRecord,
    VanishingComponent,
    build_directional_desing,
    build_parabolic_desing,
    build_report,
    embed,
    eval_field,
    estimate_decay,
    estimate_tmax,
    extrapolate_tail,
    find_horizon_equilibria,
    grid_seeds,
    fit_rate,
    integrate,
    spectrum_classify,
    trace_equilibrium_curve,
)
from horizon_lab.blowup import _line, _sorted_median
from horizon_lab.cli import build_field_from_config
from horizon_lab.systems import (
    example_names,
    kk_dafermos,
    make_example,
    mems,
    selfsimilar,
)


def m(coeff, *exps):
    return Monomial(coeff=coeff, exponents=tuple(exps))


SCALAR = FieldSpec(variable_names=("y",), components=((m(1.0, 2),),))
SCALAR_HT = HomogeneityType(alpha=(1,), k=1)


@pytest.fixture(scope="module")
def scalar_run():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    pt = embed(df.chart, np.array([1.0]))
    return df, integrate(df, pt.coords)


@pytest.fixture(scope="module")
def mems_run():
    b = mems()
    df = build_field_from_config(b)
    run = b.runs[0]
    pt = embed(df.chart, np.asarray(run.y0, dtype=float))
    return b, df, integrate(df, pt.coords)


# ---------------------------------------------------------------------------
# estimate_tmax


def test_scalar_tmax_matches_closed_form(scalar_run):
    df, traj = scalar_run
    lam, _ = estimate_decay(traj)
    t_max, tail_fraction = estimate_tmax(traj, lam)
    # y(t) = 1/(1-t) blows up at exactly t = 1
    assert t_max == pytest.approx(1.0, abs=1e-9)
    assert 0 < tail_fraction < 1e-9


def test_tmax_requires_horizon_arrival():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    pt = embed(df.chart, np.array([1.0]))
    traj = integrate(df, pt.coords, controls=IntegratorControls(tau_max=0.5))
    with pytest.raises(NotConverged) as exc_info:
        estimate_tmax(traj, 1.0)
    assert exc_info.value.stop_reason == TAU_EXHAUSTED


def test_tmax_without_positive_gap_is_insufficient_window():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    traj = integrate(df, np.array([1.0]))  # P = 1: starts on the horizon
    assert traj.stop_reason == HORIZON_REACHED
    assert traj.n_accepted == 0 and traj.gaps[0] == 0.0
    with pytest.raises(InsufficientWindow):
        estimate_tmax(traj, 1.0)


def test_tmax_rejects_nonpositive_rate_and_order(scalar_run):
    _, traj = scalar_run
    with pytest.raises(DomainError):
        estimate_tmax(traj, -1.0)
    with pytest.raises(DomainError):
        estimate_tmax(traj, 0.0)
    # the order comes from the field's type, which cannot hold k <= 0
    with pytest.raises(DomainError):
        HomogeneityType(alpha=(1,), k=0)


# ---------------------------------------------------------------------------
# fit_rate


def test_scalar_rate_fit(scalar_run):
    _, traj = scalar_run
    # y(t) = 1/(1-t): t_max = 1 exactly, and k = 1 keeps 1 - t accurate
    slope, r2, coeff = fit_rate(traj, 1.0 - traj.ts[-1], 0)
    assert slope == pytest.approx(-1.0, abs=0.005)
    assert r2 > 0.9999
    assert coeff == pytest.approx(1.0, abs=0.01)


def test_fit_rate_rejects_weight_zero():
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((), (m(1.0, 0, 2),)),
    )
    ht = HomogeneityType(alpha=(0, 1), k=1)
    df = build_parabolic_desing(fs, ht)
    pt = embed(df.chart, np.array([0.3, 1.0]))
    traj = integrate(df, pt.coords)
    with pytest.raises(DomainError, match="weight 0"):
        fit_rate(traj, 1e-12, 0)


def test_fit_rate_rejects_component_outside_field(scalar_run):
    _, traj = scalar_run
    with pytest.raises(DomainError, match="component 5"):
        fit_rate(traj, 1.0 - traj.ts[-1], 5)


def test_fit_rate_insufficient_window():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    pt = embed(df.chart, np.array([1.0]))
    # stopping well above the fit band leaves the window empty
    traj = integrate(
        df, pt.coords, controls=IntegratorControls(horizon_eps=2e-3)
    )
    with pytest.raises(InsufficientWindow):
        fit_rate(traj, 1.0 - traj.ts[-1], 0)


def test_kk_transverse_components_vanish():
    b = kk_dafermos()
    df = build_field_from_config(b)
    run = b.runs[0]
    pt = embed(df.chart, np.asarray(run.y0, dtype=float))
    traj = integrate(df, pt.coords)
    lam, _ = estimate_decay(traj)
    tail = extrapolate_tail(traj, lam)
    for i in (3, 4):  # both w components collapse onto the equilibrium zero
        with pytest.raises(VanishingComponent):
            fit_rate(traj, tail, i)


def test_kk_constant_slow_components_vanish_off_zero():
    """w1 = 0.3 and w2 = 0.2 stay constant, so their chart coordinates
    shrink like s^alpha_i along the approach although their medians over
    the fit window are not tiny; they must still count as vanishing."""
    b = kk_dafermos()
    df = build_field_from_config(b)
    pt = embed(df.chart, np.array([0.0, 3.0, 1.0, 0.3, 0.2]))
    traj = integrate(df, pt.coords)
    lam, _ = estimate_decay(traj)
    tail = extrapolate_tail(traj, lam)
    for i in (3, 4):
        with pytest.raises(VanishingComponent):
            fit_rate(traj, tail, i)
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(5)))
    report = build_report(traj, eqs)
    by_name = {r.variable: r for r in report.records}
    assert by_name["w1"].vanishing and by_name["w2"].vanishing
    assert not by_name["u1"].vanishing and not by_name["u2"].vanishing
    assert by_name["u1"].fitted_exponent == pytest.approx(-1.0, abs=0.05)
    assert report.type1_confirmed


def test_mems_rates_and_signs(mems_run):
    b, df, traj = mems_run
    lam, _ = estimate_decay(traj)
    tail = extrapolate_tail(traj, lam)
    slope_w, r2_w, coeff_w = fit_rate(traj, tail, 1)
    slope_v, r2_v, coeff_v = fit_rate(traj, tail, 2)
    assert slope_w == pytest.approx(-2.0 / 3.0, abs=0.03)
    assert slope_v == pytest.approx(-5.0 / 3.0, abs=0.05)
    assert r2_w > 0.999 and r2_v > 0.999
    # the deflection quenches downward: both reconstructions are negative
    assert coeff_w < 0 and coeff_v < 0


@pytest.mark.parametrize("name", example_names())
def test_time_factor_at_is_the_last_entry_of_rhs_values(name):
    # extrapolate_tail reads dt/dtau at its window's recorded gaps through
    # time_factor_at, the time factor's expression alone, a polynomial in
    # the gap: at every sample of the run, fed the gap rhs_values forms
    # there (s itself, or W = 1 - P summed as the generated code sums it),
    # it gives rhs_values' last entry bit for bit
    b = make_example(name)
    df = build_field_from_config(b)
    run = b.runs[0]
    coords = embed(df.chart, np.asarray(run.y0, dtype=float)).coords
    traj = integrate(df, coords, t0=run.t0, controls=run.controls)
    assert traj.stop_reason == HORIZON_REACHED
    tb = [int(v) for v in 2 * df.htype.beta_full()]
    for x in traj.coords.tolist():
        if df.gap_slot < df.n:
            gap = x[df.gap_slot]
        else:
            gap = 1.0 - sum(x[j] ** tb[j] for j in df.htype.i_alpha)
        want = float(df.rhs_values(x)[-1]).hex()
        assert df.time_factor_at(gap).hex() == want


# ---------------------------------------------------------------------------
# RateRecord.confirmed


def test_rate_record_confirmation_logic():
    good = RateRecord(
        variable="u",
        component_index=1,
        predicted_exponent=-2.0,
        fitted_exponent=-1.98,
        fit_r2=0.9999,
        leading_coefficient=5.9,
    )
    assert good.confirmed
    sloppy_fit = RateRecord(
        variable="u",
        component_index=1,
        predicted_exponent=-2.0,
        fitted_exponent=-1.98,
        fit_r2=0.95,
        leading_coefficient=5.9,
    )
    assert not sloppy_fit.confirmed
    wrong_exponent = RateRecord(
        variable="u",
        component_index=1,
        predicted_exponent=-2.0,
        fitted_exponent=-1.7,
        fit_r2=0.9999,
        leading_coefficient=5.9,
    )
    assert not wrong_exponent.confirmed
    vanishing = RateRecord(
        variable="w",
        component_index=3,
        predicted_exponent=-1.0,
        fitted_exponent=None,
        fit_r2=None,
        leading_coefficient=None,
        vanishing=True,
    )
    assert not vanishing.confirmed


# ---------------------------------------------------------------------------
# build_report


def test_scalar_report_end_to_end(scalar_run):
    df, traj = scalar_run
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(1)))
    report = build_report(traj, eqs)
    assert report.t_max == pytest.approx(1.0, abs=1e-9)
    assert report.shadowed_target.coords[0] == pytest.approx(1.0)
    assert report.type1_confirmed
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.variable == "y"
    assert rec.predicted_exponent == -1.0
    assert rec.confirmed
    assert report.lambda_decay == pytest.approx(1.0, rel=1e-3)
    assert report.residual_slope < 1e-4


def test_report_accepts_single_equilibrium(scalar_run):
    df, traj = scalar_run
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(1)))
    sink = [e for e in eqs if e.classification == "sink"][0]
    report = build_report(traj, sink)
    assert report.shadowed_target is sink


def test_report_rejects_far_target(scalar_run):
    df, traj = scalar_run
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(1)))
    source = [e for e in eqs if e.classification == "source"][0]
    with pytest.raises(NoTargetFound, match="threshold"):
        build_report(traj, source)


def test_report_rejects_empty_target_list(scalar_run):
    df, traj = scalar_run
    with pytest.raises(NoTargetFound):
        build_report(traj, [])


def test_report_against_equilibrium_curve():
    b = selfsimilar()
    df = build_field_from_config(b)
    run = b.runs[0]
    pt = embed(df.chart, np.asarray(run.y0, dtype=float))
    traj = integrate(df, pt.coords)
    curve = trace_equilibrium_curve(
        df, (0.4, 1.0), 0.02, seed=np.array([0.4, 0.0, 0.4])
    )
    report = build_report(traj, curve)
    chi_end = float(traj.coords[-1][0])
    # the shadowed slice is the curve sample nearest the arrival time
    assert report.shadowed_target.t_slice == pytest.approx(chi_end, abs=0.011)
    # gap decay tracks the local normal eigenvalue -beta*chi = chi
    assert report.lambda_decay == pytest.approx(chi_end, rel=0.01)
    by_name = {r.variable: r for r in report.records}
    assert by_name["u"].fitted_exponent == pytest.approx(-0.5, abs=0.02)
    assert by_name["u"].confirmed


def test_mems_full_report(mems_run):
    b, df, traj = mems_run
    r_end = float(traj.coords[-1][0])
    eqs = find_horizon_equilibria(df, grid_seeds(df, [r_end, 0.0, 0.0]))
    report = build_report(traj, eqs)
    assert report.shadowed_target.coords[2] == pytest.approx(
        -math.sqrt(2.0 * r_end), rel=1e-6
    )
    assert report.type1_confirmed
    assert report.t_max == pytest.approx(traj.ts[-1], rel=1e-6)


@pytest.mark.parametrize(
    "name, rel, straight",
    [("mems", 1e-9, 1e-8), ("kk_dafermos", 1e-9, 1e-8),
     ("selfsimilar", 1e-9, 1e-8), ("painleve1", 1e-6, 1e-4)],
    ids=["mems", "kk_dafermos", "selfsimilar", "painleve1"],
)
def test_decay_matches_slow_eigenvalue(name, rel, straight):
    # the step integrates the gap as a state slot, ln s on a directional
    # chart and W on the parabolic one, so the decay fit reads a gap with
    # its relative accuracy down to the horizon stop
    b = make_example(name)
    df = build_field_from_config(b)
    run = b.runs[0]
    traj = integrate(df, embed(df.chart, np.asarray(run.y0, dtype=float)).coords,
                     t0=run.t0, controls=run.controls)
    report = build_report(traj, find_horizon_equilibria(df, [traj.coords[-1]]))
    eq = report.shadowed_target
    split = spectrum_classify(eq.eigenvalues, eq.tangential_dims)
    slow = min(abs(eq.eigenvalues[i].real) for i in split.stable)
    assert report.lambda_decay == pytest.approx(slow, rel=rel)
    assert report.residual_slope < straight


# ---------------------------------------------------------------------------
# the closed-form line, the exact median and the stacked fits


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 200),
    lo=st.floats(-50.0, 50.0),
    width=st.floats(1.0, 50.0),
    slope=st.floats(-5.0, 5.0),
    intercept=st.floats(-5.0, 5.0),
    noise=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_line_matches_polyfit(n, lo, width, slope, intercept, noise, seed):
    # abscissae spread over [lo, lo + width], so the fit is well conditioned
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(lo, lo + width, n))
    x[0], x[-1] = lo, lo + width
    y = intercept + slope * x + noise * rng.standard_normal(n)
    got_slope, got_intercept, resid, dy = _line(x, y[None, :])
    want_slope, want_intercept = np.polyfit(x, y, 1)
    scale = 1.0 + abs(want_slope) + abs(want_intercept)
    assert abs(got_slope[0] - want_slope) <= 1e-12 * scale
    assert abs(got_intercept[0] - want_intercept) <= 1e-12 * scale
    fitted = y - (want_intercept + want_slope * x)
    assert np.allclose(resid[0], fitted, rtol=0.0, atol=1e-11 * scale)
    assert np.allclose(dy[0], y - y.mean(), rtol=0.0, atol=1e-12 * scale)


def test_sorted_median_is_np_median():
    # np.median itself stays out of the package: its first call imports
    # numpy.ma
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        rows = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-8, 8, (3, 1))
        got = _sorted_median(np.sort(rows, axis=1))
        assert got.tolist() == [np.median(row) for row in rows]


@pytest.mark.parametrize("name", example_names())
def test_fit_rate_is_the_reports_record(name):
    # one stacked pass fits every component; fit_rate runs it on one
    # component and must give the record's numbers exactly
    b = make_example(name)
    df = build_field_from_config(b)
    run = b.runs[0]
    traj = integrate(df, embed(df.chart, np.asarray(run.y0, dtype=float)).coords,
                     t0=run.t0, controls=run.controls)
    report = build_report(traj, find_horizon_equilibria(df, [traj.coords[-1]]))
    tail = extrapolate_tail(traj, report.lambda_decay)
    assert [r.component_index for r in report.records] == list(df.htype.i_alpha)
    assert any(not r.vanishing for r in report.records)
    for rec in report.records:
        if rec.vanishing:
            with pytest.raises(VanishingComponent):
                fit_rate(traj, tail, rec.component_index)
        else:
            assert fit_rate(traj, tail, rec.component_index) == (
                rec.fitted_exponent, rec.fit_r2, rec.leading_coefficient
            )


# ---------------------------------------------------------------------------
# time to go without cancellation


def _quartic_report(t0):
    # y' = y^4, y(t0) = 1: y = (3 (t_max - t))^(-1/3), t_max = t0 + 1/3.
    # With k = 3, t_max - t falls to gap**3 ~ 1e-24 inside the fit window,
    # far below the ulp of t.
    fs = FieldSpec(variable_names=("y",), components=((m(1.0, 4),),))
    ht = HomogeneityType(alpha=(1,), k=3)
    df = build_parabolic_desing(fs, ht)
    traj = integrate(df, embed(df.chart, np.array([1.0])).coords, t0=t0)
    return build_report(traj, find_horizon_equilibria(df, [traj.coords[-1]]))


def test_quartic_rate_is_shift_invariant():
    reports = [_quartic_report(t0) for t0 in (0.0, 10.0, 1000.0)]
    for t0, report in zip((0.0, 10.0, 1000.0), reports):
        (rec,) = report.records
        assert rec.fitted_exponent == pytest.approx(-1.0 / 3.0, rel=1e-3)
        assert rec.leading_coefficient == pytest.approx(3.0 ** (-1.0 / 3.0),
                                                        rel=1e-3)
        assert report.t_max - t0 == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert report.type1_confirmed
    # a pure time shift changes nothing but t_max
    first = reports[0]
    for t0, report in zip((10.0, 1000.0), reports[1:]):
        assert report.t_max - t0 == pytest.approx(first.t_max, rel=1e-9)
        assert report.lambda_decay == pytest.approx(first.lambda_decay, rel=1e-4)
        for a, b in zip(report.records, first.records):
            assert a.fitted_exponent == pytest.approx(b.fitted_exponent, rel=1e-6)
            assert a.leading_coefficient == pytest.approx(
                b.leading_coefficient, rel=1e-6
            )


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([1, 2, 3]),
    c=st.floats(0.5, 10.0),
    span=st.floats(0.01, 10.0),
    t0=st.floats(-1000.0, 1000.0),
    directional=st.booleans(),
)
def test_power_law_rates_match_closed_form(k, c, span, t0, directional):
    # y' = c y^(k+1) blows up at t_max = t0 + span from
    # y0 = (k c span)^(-1/k), as y = (k c (t_max - t))^(-1/k)
    fs = FieldSpec(variable_names=("y",), components=((m(c, k + 1),),))
    ht = HomogeneityType(alpha=(1,), k=k)
    if directional:
        df = build_directional_desing(
            fs, ht, DirectionalChart(htype=ht, i0=0, sign=1)
        )
    else:
        df = build_parabolic_desing(fs, ht)
    y0 = (k * c * span) ** (-1.0 / k)
    traj = integrate(df, embed(df.chart, np.array([y0])).coords, t0=t0)
    report = build_report(
        traj, find_horizon_equilibria(df, [traj.coords[-1]])
    )
    (rec,) = report.records
    assert rec.fitted_exponent == pytest.approx(-1.0 / k, rel=1e-3)
    assert rec.leading_coefficient == pytest.approx((k * c) ** (-1.0 / k),
                                                    rel=1e-3)
    assert report.t_max - t0 == pytest.approx(span, rel=1e-9)
    assert report.type1_confirmed


def _pipeline_report(fs, ht, y0, directional):
    """Blow-up report of y0 on the parabolic chart or on directional[+0]."""
    if directional:
        df = build_directional_desing(
            fs, ht, DirectionalChart(htype=ht, i0=0, sign=1)
        )
    else:
        df = build_parabolic_desing(fs, ht)
    traj = integrate(df, embed(df.chart, np.asarray(y0, dtype=float)).coords)
    return build_report(traj, find_horizon_equilibria(df, [traj.coords[-1]]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([1, 2, 3]),
    j_frac=st.floats(0.0, 1.0),
    a=st.floats(0.5, 2.0),
    b=st.floats(-1.0, 1.0),
    y0=st.floats(2.0, 10.0),
)
def test_scalar_tmax_matches_quadrature(k, j_frac, a, b, y0):
    # y' = a y^(k+1) + b y^j, 0 <= j <= k, blows up at
    # t_max = int_{y0}^inf dy / f(y); |y| = 1e5 is out of an event-based
    # oracle's reach for k = 3
    j = round(j_frac * k)
    terms = (m(a, k + 1),) + ((m(b, j),) if b else ())
    fs = FieldSpec(variable_names=("y",), components=(terms,))
    ht = HomogeneityType(alpha=(1,), k=k)
    t_ref, _ = quad(lambda y: 1.0 / (a * y ** (k + 1) + b * y**j),
                    y0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    for directional in (False, True):
        report = _pipeline_report(fs, ht, [y0], directional)
        assert report.t_max == pytest.approx(t_ref, rel=1e-6)
        assert report.type1_confirmed


def _cross_chart_check(fs, ht, y0, slots):
    """Run y0 on the parabolic chart and on directional[+i0] for each i0 in
    ``slots``: each chart's blow-up time, counted from the start, agrees
    with the parabolic chart's to 1e-8 relative, and on each chart the
    gap's decay rate matches the slowest stable normal eigenvalue of the
    target to 1e-7.  The time of a nonautonomous field is y0[0]."""
    t0 = y0[0] if fs.nonautonomous else 0.0
    spans = []
    for chart in (None,) + tuple(DirectionalChart(htype=ht, i0=i0, sign=1)
                                 for i0 in slots):
        df = (build_parabolic_desing(fs, ht) if chart is None
              else build_directional_desing(fs, ht, chart))
        traj = integrate(df, embed(df.chart, np.asarray(y0, dtype=float)).coords,
                         t0=t0)
        report = build_report(traj, find_horizon_equilibria(df, [traj.coords[-1]]))
        assert report.type1_confirmed
        eq = report.shadowed_target
        split = spectrum_classify(eq.eigenvalues, eq.tangential_dims)
        slow = min(abs(eq.eigenvalues[i].real) for i in split.stable)
        assert report.lambda_decay == pytest.approx(slow, rel=1e-7), chart
        spans.append(report.t_max - t0)
    for chart_span in spans[1:]:
        assert chart_span == pytest.approx(spans[0], rel=1e-8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.sampled_from([1, 2, 3]),
    j_frac=st.floats(0.0, 1.0),
    a=st.floats(0.5, 2.0),
    b=st.floats(-1.0, 1.0),
    y0=st.floats(2.0, 10.0),
)
def test_scalar_charts_agree_on_tmax_and_decay(k, j_frac, a, b, y0):
    # the family of test_scalar_tmax_matches_quadrature: y' = a y^(k+1) +
    # b y^j, 0 <= j <= k
    j = round(j_frac * k)
    terms = (m(a, k + 1),) + ((m(b, j),) if b else ())
    fs = FieldSpec(variable_names=("y",), components=(terms,))
    _cross_chart_check(fs, HomogeneityType(alpha=(1,), k=k), [y0], (0,))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    a=st.floats(1.0, 6.0),
    b=st.floats(-1.0, 1.0),
    u0=st.floats(2.0, 10.0),
    lam=st.floats(0.8, 1.2),
)
def test_planar_charts_agree_on_tmax_and_decay(a, b, u0, lam):
    # the family of test_planar_tmax_matches_event_oracle: u' = v, v' = a
    # u^2 + b, started near the separatrix v = sqrt(2a/3) u^(3/2), on the
    # charts over u and over v, where alpha_i0 = 3 is no power of two
    terms = (m(a, 2, 0),) + ((m(b, 0, 0),) if b else ())
    fs = FieldSpec(variable_names=("u", "v"),
                   components=((m(1.0, 0, 1),), terms))
    y0 = [u0, lam * math.sqrt(2.0 * a / 3.0) * u0**1.5]
    _cross_chart_check(fs, HomogeneityType(alpha=(2, 3), k=1), y0, (0, 1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    a=st.floats(1.0, 6.0),
    b=st.floats(-1.0, 1.0),
    t0=st.floats(-2.0, 2.0),
    u0=st.floats(2.0, 10.0),
    lam=st.floats(0.8, 1.2),
)
def test_nonautonomous_charts_agree_on_tmax_and_decay(a, b, t0, u0, lam):
    # u' = v, v' = a u^2 + b t, painleve1's form with its weight-0 time in
    # slot 0: the parabolic chart carries W as a slot next to the time,
    # the directional charts over u > 0 and over v > 0 (alpha_i0 = 3) carry
    # ln u and ln v
    fs = FieldSpec(
        variable_names=("t", "u", "v"),
        components=((m(1.0, 0, 0, 0),), (m(1.0, 0, 0, 1),),
                    (m(a, 0, 2, 0),) + ((m(b, 1, 0, 0),) if b else ())),
        nonautonomous=True,
    )
    y0 = [t0, u0, lam * math.sqrt(2.0 * a / 3.0) * u0**1.5]
    _cross_chart_check(fs, HomogeneityType(alpha=(0, 2, 3), k=1), y0, (1, 2))


def _event_tmax(fs, y0, index, exponent):
    """DOP853 on the original field to |y_index| = 1e5 and 1e7, with t_max
    extrapolated from the type-I law |y_i| ~ C (t_max - t)^(-exponent):
    (t_max - t1) / (t_max - t2) = (1e7 / 1e5)^(1 / exponent) = R."""
    levels = (1e5, 1e7)

    def crossing(level):
        def event(_t, y):
            return abs(y[index]) - level

        event.direction = 1.0
        event.terminal = level == levels[-1]
        return event

    sol = solve_ivp(lambda _t, y: eval_field(fs, y), (0.0, 100.0),
                    np.asarray(y0, dtype=float), method="DOP853",
                    rtol=1e-13, atol=1e-13,
                    events=[crossing(level) for level in levels])
    assert sol.status == 1 and all(len(te) for te in sol.t_events)
    t1, t2 = float(sol.t_events[0][0]), float(sol.t_events[1][0])
    ratio = (levels[1] / levels[0]) ** (1.0 / exponent)
    return (ratio * t2 - t1) / (ratio - 1.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    a=st.floats(1.0, 6.0),
    b=st.floats(-1.0, 1.0),
    u0=st.floats(2.0, 10.0),
    lam=st.floats(0.8, 1.2),
)
def test_planar_tmax_matches_event_oracle(a, b, u0, lam):
    # u' = v, v' = a u^2 + b of type alpha = (2, 3), k = 1, started near
    # the separatrix v = sqrt(2a/3) u^(3/2); u blows up like (t_max - t)^-2
    terms = (m(a, 2, 0),) + ((m(b, 0, 0),) if b else ())
    fs = FieldSpec(variable_names=("u", "v"),
                   components=((m(1.0, 0, 1),), terms))
    ht = HomogeneityType(alpha=(2, 3), k=1)
    y0 = [u0, lam * math.sqrt(2.0 * a / 3.0) * u0**1.5]
    t_ref = _event_tmax(fs, y0, 0, 2.0)
    for directional in (False, True):
        report = _pipeline_report(fs, ht, y0, directional)
        assert report.t_max == pytest.approx(t_ref, rel=1e-6)
        assert report.type1_confirmed
