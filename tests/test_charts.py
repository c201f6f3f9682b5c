"""Embedding charts: the kappa solve, round trips, and chart transitions.

The kappa solve is ``ParabolicChart.embed_kappa``; a transition between
charts is ``embed(to_chart, project(point))``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon_lab import (
    ChartDomainError,
    DirectionalChart,
    DomainError,
    HomogeneityType,
    HorizonError,
    ParabolicChart,
    embed,
    project,
)
from horizon_lab import charts

from conftest import workload_config

HT_PAIR = HomogeneityType(alpha=(2, 3), k=1)
HT_SCALAR = HomogeneityType(alpha=(1,), k=1)
HT_MIXED = HomogeneityType(alpha=(0, 2, 3), k=1)
HT_TWENTY = HomogeneityType(alpha=(1, 2, 5), k=1)  # 2c = 20


def kappa_bisect(htype, y, iters=200):
    """Independent oracle: bisection on kappa^2c - kappa^(2c-1) = P~(y)."""
    tb = 2 * htype.beta_full()
    idx = list(htype.i_alpha)
    yv = np.asarray(y, dtype=float)
    ptilde = float(np.sum(yv[idx] ** tb[idx]))
    tc = 2 * htype.c
    if ptilde == 0.0:
        return 1.0
    lo, hi = 1.0, 2.0
    while hi ** tc - hi ** (tc - 1) < ptilde:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid ** tc - mid ** (tc - 1) < ptilde:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_kappa_against_bisection():
    chart = ParabolicChart(htype=HT_PAIR)
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.uniform(-30.0, 30.0, size=2)
        k_newton = chart.embed_kappa(y)[1]
        k_oracle = kappa_bisect(HT_PAIR, y)
        assert k_newton == pytest.approx(k_oracle, rel=1e-12)


def test_solve_kappa_batch_matches_pointwise():
    chart = ParabolicChart(htype=HT_MIXED)
    rng = np.random.default_rng(5)
    ys = rng.uniform(-10.0, 10.0, size=(40, 3))
    batch = chart.embed_kappa(ys)[1]
    single = np.array([chart.embed_kappa(y)[1] for y in ys])
    assert np.array_equal(batch, single)


def test_solve_kappa_huge_point():
    # P~ near the top of float range: the scaled solve forms no power of y
    chart = ParabolicChart(htype=HT_SCALAR)
    kappa = chart.embed_kappa(np.array([1e150]))[1]
    assert math.isfinite(kappa)
    assert kappa ** 2 - kappa == pytest.approx(1e300, rel=1e-10)


def test_solve_kappa_golden_ratio():
    # y = 1 on alpha = (1,): kappa**2 - kappa = 1, correctly rounded
    chart = ParabolicChart(htype=HT_SCALAR)
    assert chart.embed_kappa(np.array([1.0]))[1] == (1 + 5**0.5) / 2


def _painleve1_points(seed):
    config = workload_config("painleve1_cli", seed)
    assert config.htype == HT_MIXED
    return np.array([run.y0 for run in config.runs])


def test_solve_kappa_exact_residual():
    # the exact Newton correction F / (kappa F') at the returned kappa, on
    # the benchmark's painleve1 starting points: within two ulps of the root
    chart = ParabolicChart(htype=HT_MIXED)
    tc = 2 * HT_MIXED.c
    tb = 2 * HT_MIXED.beta_full()
    for y in _painleve1_points(1):
        k = Fraction(chart.embed_kappa(y)[1])
        P = sum(Fraction(y[i]) ** int(tb[i]) for i in HT_MIXED.i_alpha)
        F = k**tc - k ** (tc - 1) - P
        Fp = tc * k ** (tc - 1) - (tc - 1) * k ** (tc - 2)
        assert abs(F / (k * Fp)) < 4e-16


def test_solve_kappa_iteration_bound(monkeypatch):
    # Newton from min(1, R) converges within 10 iterations at any scale
    monkeypatch.setattr(charts, "_KAPPA_MAX_ITER", 10)
    for seed in (1, 2, 3):
        ParabolicChart(htype=HT_MIXED).embed_kappa(_painleve1_points(seed))[1]
    rng = np.random.default_rng(7)
    for htype in (HT_SCALAR, HT_PAIR, HT_TWENTY):
        shape = (2000, htype.n)
        y = 10.0 ** rng.uniform(-300.0, 300.0, shape) * rng.choice([-1.0, 1.0], shape)
        assert np.all(ParabolicChart(htype=htype).embed_kappa(y)[1] >= 1.0)


def test_solve_kappa_origin_is_one():
    chart = ParabolicChart(htype=HT_PAIR)
    assert chart.embed_kappa(np.zeros(2))[1] == 1.0


def test_embed_gap_is_reciprocal_kappa():
    chart = ParabolicChart(htype=HT_PAIR)
    y = np.array([3.0, -2.0])
    pt = embed(chart, y)
    kappa = chart.embed_kappa(y)[1]
    assert pt.horizon_gap == 1.0 / kappa
    # the embedded point sits at P = 1 - gap up to evaluation roundoff
    P = chart.horizon_poly(pt.coords)
    assert P == pytest.approx(1.0 - pt.horizon_gap, abs=1e-12)


def test_parabolic_round_trip():
    chart = ParabolicChart(htype=HT_MIXED)
    rng = np.random.default_rng(2)
    for _ in range(25):
        y = rng.uniform(-50.0, 50.0, size=3)
        back = project(embed(chart, y))
        assert np.allclose(back, y, rtol=1e-12, atol=1e-12)


def test_parabolic_round_trip_near_blowup_scale():
    # near the top of the representable range for P~ = u^6 + v^4
    chart = ParabolicChart(htype=HT_PAIR)
    y = np.array([1e40, -3e20])
    back = project(embed(chart, y))
    assert np.allclose(back, y, rtol=1e-10)


def test_parabolic_round_trip_far_out():
    # P~(y) overflows float64 at each point; the scaled solve never forms
    # it.  On HT_PAIR kappa**3 overflows at (1e206, 1e3) and (1e300, 0),
    # where x_1 is 1e-306 and 0.
    far = [
        (HT_PAIR, [1e120, 0.0]),
        (HT_PAIR, [1e160, -1e160]),
        (HT_PAIR, [-1e200, 1e300]),
        (HT_PAIR, [0.0, -1e300]),
        (HT_PAIR, [1e206, 1e3]),
        (HT_PAIR, [1e300, 0.0]),
        (HT_SCALAR, [1e160]),
        (HT_SCALAR, [-1e300]),
    ]
    for htype, y in far:
        y = np.array(y)
        back = project(embed(ParabolicChart(htype=htype), y))
        assert np.allclose(back, y, rtol=1e-10, atol=0.0)


def test_directional_round_trip_far_out():
    # on HT_PAIR's chart i0 = 0, s = y_0**(-1/2) and x_1 = y_1 s**3: s**3
    # underflows at y_0 = 1e250 and overflows at 1e-250, and s**-3 does the
    # opposite on the way back, while every coordinate is a normal double
    far = [[1e250, 1e300], [1e250, -1e200], [1e-250, 1e-300], [1e-250, 0.0],
           [1e-280, -1e-250]]
    for y in far:
        for sign in (1, -1):
            y = np.array(y)
            y[0] = sign * abs(y[0])
            pt = embed(DirectionalChart(htype=HT_PAIR, i0=0, sign=sign), y)
            assert np.all(np.isfinite(pt.coords))
            assert np.all((pt.coords != 0) == (y != 0))
            back = project(pt)
            assert np.allclose(back, y, rtol=1e-10, atol=0.0)


def test_parabolic_embed_rejects_non_finite():
    chart = ParabolicChart(htype=HT_MIXED)
    for slot in range(3):
        for bad in (math.nan, math.inf, -math.inf):
            y = np.array([0.5, 2.0, -1.0])
            y[slot] = bad
            with pytest.raises(DomainError, match="not finite"):
                embed(chart, y)
            with pytest.raises(DomainError, match="not finite"):
                chart.embed_kappa(y)[1]


def test_directional_embed_rejects_non_finite():
    chart = DirectionalChart(htype=HT_MIXED, i0=1, sign=1)
    for slot in range(3):
        for bad in (math.nan, math.inf, -math.inf):
            y = np.array([0.5, 2.0, -1.0])
            y[slot] = bad
            with pytest.raises(DomainError, match="not finite"):
                embed(chart, y)


def _signed_floats(floor, bound):
    return st.one_of(
        st.just(0.0),
        st.floats(floor, bound),
        st.floats(-bound, -floor),
    )


@settings(max_examples=60, deadline=None)
@given(u=_signed_floats(1e-250, 1e45), v=_signed_floats(1e-230, 1e40))
def test_parabolic_round_trip_property(u, v):
    # The 1e-10 round-trip guarantee needs y_i / kappa^alpha_i to stay a
    # normal double.  With |u| near 1e45, kappa^3 reaches ~1e68, so a v
    # below ~1e-240 rescales onto subnormals, where the mantissa (and the
    # guarantee) shrinks; magnitudes are floored above that cliff.
    chart = ParabolicChart(htype=HT_PAIR)
    y = np.array([u, v])
    back = project(embed(chart, y))
    assert np.allclose(back, y, rtol=1e-10, atol=1e-300)


def test_directional_round_trip():
    chart = DirectionalChart(htype=HT_MIXED, i0=1, sign=1)
    rng = np.random.default_rng(4)
    for _ in range(25):
        y = rng.uniform(-20.0, 20.0, size=3)
        y[1] = abs(y[1]) + 0.1
        back = project(embed(chart, y))
        assert np.allclose(back, y, rtol=1e-12, atol=1e-12)


def test_directional_negative_chart():
    chart = DirectionalChart(htype=HT_MIXED, i0=2, sign=-1)
    y = np.array([0.5, 4.0, -8.0])
    pt = embed(chart, y)
    # s = (-y_2)^(-1/alpha_2) = 8^(-1/3) = 1/2
    assert pt.horizon_gap == pytest.approx(0.5, rel=1e-14)
    assert np.allclose(project(pt), y, rtol=1e-12)


def test_directional_rejects_wrong_halfspace():
    chart = DirectionalChart(htype=HT_MIXED, i0=1, sign=1)
    with pytest.raises(ChartDomainError):
        embed(chart, np.array([0.0, -1.0, 2.0]))
    with pytest.raises(ChartDomainError):
        embed(chart, np.array([0.0, 0.0, 2.0]))


def test_directional_requires_weighted_slot():
    with pytest.raises(ChartDomainError):
        DirectionalChart(htype=HT_MIXED, i0=0, sign=1)
    with pytest.raises(ChartDomainError):
        DirectionalChart(htype=HT_MIXED, i0=1, sign=2)


def test_chart_labels():
    assert ParabolicChart(htype=HT_PAIR).label == "parabolic"
    assert DirectionalChart(htype=HT_MIXED, i0=1, sign=1).label == "directional[+1]"
    assert DirectionalChart(htype=HT_MIXED, i0=2, sign=-1).label == "directional[-2]"


def test_horizon_value_polymorphic():
    par = ParabolicChart(htype=HT_PAIR)
    x = np.array([0.9, 0.4])
    assert float(par.horizon_poly(x)) == pytest.approx(0.9**6 + 0.4**4)
    # a batch gives one value per point
    X = np.array([x, [0.0, -1.0]])
    assert par.horizon_poly(X) == pytest.approx([0.9**6 + 0.4**4, 1.0])


def test_project_on_horizon_raises():
    chart = ParabolicChart(htype=HT_SCALAR)
    pt = embed(chart, np.array([2.0]))
    object.__setattr__(pt, "horizon_gap", 0.0)
    with pytest.raises(HorizonError):
        project(pt)


def test_project_outside_domain_raises():
    chart = ParabolicChart(htype=HT_SCALAR)
    pt = embed(chart, np.array([2.0]))
    object.__setattr__(pt, "horizon_gap", -1e-6)
    with pytest.raises(DomainError):
        project(pt)


def test_transition_parabolic_to_directional():
    par = ParabolicChart(htype=HT_MIXED)
    dire = DirectionalChart(htype=HT_MIXED, i0=1, sign=1)
    y = np.array([0.3, 7.0, -11.0])
    via_transition = embed(dire, project(embed(par, y)))
    direct = embed(dire, y)
    assert np.allclose(via_transition.coords, direct.coords, rtol=1e-12)
    assert via_transition.horizon_gap == pytest.approx(
        direct.horizon_gap, rel=1e-12
    )


def test_transition_directional_to_parabolic():
    par = ParabolicChart(htype=HT_MIXED)
    dire = DirectionalChart(htype=HT_MIXED, i0=2, sign=-1)
    y = np.array([0.0, 2.0, -5.0])
    via_transition = embed(par, project(embed(dire, y)))
    direct = embed(par, y)
    assert np.allclose(via_transition.coords, direct.coords, rtol=1e-12)


def test_transition_outside_target_chart():
    dire_pos = DirectionalChart(htype=HT_MIXED, i0=1, sign=1)
    dire_neg = DirectionalChart(htype=HT_MIXED, i0=1, sign=-1)
    pt = embed(dire_pos, np.array([0.0, 3.0, 1.0]))
    with pytest.raises(ChartDomainError):
        embed(dire_neg, project(pt))


def test_embedded_point_copies_coords():
    chart = ParabolicChart(htype=HT_PAIR)
    y = np.array([1.0, 1.0])
    pt = embed(chart, y)
    y[0] = 99.0
    assert pt.coords[0] != pytest.approx(99.0)
