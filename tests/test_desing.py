"""Desingularized field construction: closed forms, Jacobians, invariance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from horizon_lab import (
    AlreadyExtendedError,
    ChartDomainError,
    DirectionalChart,
    DomainError,
    ExtendedFieldSpec,
    FieldSpec,
    HomogeneityType,
    Monomial,
    NegativeWExponentError,
    ParabolicChart,
    build_directional_desing,
    build_parabolic_desing,
    classify_monomials,
    embed,
    eval_field,
    evaluate_desing,
    extend_nonautonomous,
)
from horizon_lab.cli import build_field_from_config
from horizon_lab.systems import example_names, make_example

from conftest import CLAMPED_FIELDS, fd_jacobian


def m(coeff, *exps):
    return Monomial(coeff=coeff, exponents=tuple(exps))


SCALAR = FieldSpec(variable_names=("y",), components=((m(1.0, 2),),))
SCALAR_HT = HomogeneityType(alpha=(1,), k=1)


# ---------------------------------------------------------------------------
# closed forms for the scalar quadratic


def test_scalar_parabolic_closed_form():
    """y' = y^2 on the parabolic chart: g = x^2 (1-x^2)/2, exactly."""
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    for x in np.linspace(-0.99, 0.99, 21):
        W = 1.0 - x * x
        assert df.g([x])[0] == pytest.approx(0.5 * x * x * W, rel=1e-14)
        assert df.time_scale([x]) == pytest.approx((1 - W / 2) * W, rel=1e-14)


def test_scalar_parabolic_jacobian_closed_form():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    for x in (-0.7, 0.0, 0.4, 0.9):
        # d/dx of (x^2 - x^4)/2 = x - 2x^3
        assert df.jacobian([x])[0, 0] == pytest.approx(x - 2 * x**3, rel=1e-13, abs=1e-15)


def test_time_factor_positive_inside_domain():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    xs = np.linspace(-0.999, 0.999, 101)
    assert all(df.time_scale([x]) > 0 for x in xs)
    assert df.time_scale([1.0]) == 0.0  # horizon: dt/dtau vanishes


def test_q_factor_range():
    # time factor = q * W^k with q = 1 - (2c-1)/(2c) W; check q in [1/2c, 1]
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    for x in np.linspace(-1.0, 1.0, 41):
        W = 1.0 - x * x
        q = df.time_scale([x]) / W if W > 0 else 0.5
        assert 0.5 - 1e-12 <= q <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# random-field oracles


def random_aqh_field(rng, alpha, k, n_terms=3):
    """A random field that is AQH of type (alpha, k) by construction."""
    n = len(alpha)
    comps = []
    for i in range(n):
        terms = []
        bound = k + alpha[i]
        for _ in range(n_terms):
            while True:
                exps = tuple(int(e) for e in rng.integers(0, 3, size=n))
                deg = sum(e * a for e, a in zip(exps, alpha))
                if deg <= bound:
                    break
            terms.append(m(float(rng.uniform(-2, 2)), *exps))
        comps.append(tuple(terms))
    return FieldSpec(
        variable_names=tuple(f"y{i}" for i in range(n)), components=tuple(comps)
    )


@pytest.mark.parametrize("alpha,k", [((1, 2), 2), ((2, 3), 1), ((1, 1, 2), 3)])
def test_parabolic_jacobian_matches_finite_differences(alpha, k):
    rng = np.random.default_rng(hash((alpha, k)) % 2**32)
    fs = random_aqh_field(rng, alpha, k)
    ht = HomogeneityType(alpha=alpha, k=k)
    df = build_parabolic_desing(fs, ht)
    for _ in range(4):
        x = rng.uniform(-0.6, 0.6, size=len(alpha))
        J = df.jacobian(x)
        J_fd = fd_jacobian(df.g, x)
        assert np.allclose(J, J_fd, rtol=2e-6, atol=1e-7)


def test_directional_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    alpha, k = (1, 2, 2), 2
    fs = random_aqh_field(rng, alpha, k)
    ht = HomogeneityType(alpha=alpha, k=k)
    chart = DirectionalChart(htype=ht, i0=1, sign=1)
    df = build_directional_desing(fs, ht, chart)
    for _ in range(4):
        x = rng.uniform(0.05, 0.8, size=3)
        J = df.jacobian(x)
        J_fd = fd_jacobian(df.g, x)
        assert np.allclose(J, J_fd, rtol=2e-6, atol=1e-7)


def test_horizon_tangency_parabolic():
    """g is tangent to {P = 1}: g . grad(P) = 0 on the horizon."""
    rng = np.random.default_rng(9)
    alpha, k = (2, 3), 1
    fs = random_aqh_field(rng, alpha, k)
    ht = HomogeneityType(alpha=alpha, k=k)
    df = build_parabolic_desing(fs, ht)
    chart = df.chart
    for _ in range(30):
        v = rng.uniform(-0.95, 0.95)
        u = (1.0 - v**4) ** (1.0 / 6.0) * rng.choice([-1.0, 1.0])
        x = np.array([u, v])
        g = df.g(x)
        grad = chart.grad_horizon_poly(x)
        assert abs(float(g @ grad)) < 1e-12


def test_horizon_invariance_directional():
    """Every term of the s-equation carries a factor of s."""
    rng = np.random.default_rng(10)
    alpha, k = (1, 2), 2
    fs = random_aqh_field(rng, alpha, k)
    ht = HomogeneityType(alpha=alpha, k=k)
    df = build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=0, sign=1))
    for _ in range(20):
        x = np.array([0.0, rng.uniform(-3, 3)])
        assert df.g(x)[0] == 0.0


@pytest.mark.parametrize("chart_kind", ["parabolic", "directional"])
def test_pushforward_consistency(chart_kind):
    """dx/dt from the chart matches the embedded derivative of y' = f(y).

    For x = embed(y): dx/dt = g(x)/timescale(x) must equal the directional
    derivative of the embedding along f, here approximated with central
    differences well away from the horizon.
    """
    rng = np.random.default_rng(21)
    alpha, k = (1, 2), 2
    ht = HomogeneityType(alpha=alpha, k=k)
    fs = random_aqh_field(rng, alpha, k)
    if chart_kind == "parabolic":
        chart = ParabolicChart(htype=ht)
        df = build_parabolic_desing(fs, ht)
    else:
        chart = DirectionalChart(htype=ht, i0=1, sign=1)
        df = build_directional_desing(fs, ht, chart)
    for _ in range(6):
        y = rng.uniform(0.2, 0.7, size=2)
        f = eval_field(fs, y)
        h = 1e-7
        x_plus = embed(chart, y + h * f).coords
        x_minus = embed(chart, y - h * f).coords
        dx_dt_fd = (x_plus - x_minus) / (2 * h)
        x = embed(chart, y).coords
        dx_dt = df.g(x) / df.time_scale(x)
        assert np.allclose(dx_dt, dx_dt_fd, rtol=5e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# published-system regressions


def test_kk_directional_matches_printed_system():
    """The u2-chart KK field reproduces its published horizon equations."""
    from horizon_lab.systems import kk_dafermos

    b = kk_dafermos()
    df = build_field_from_config(b)
    rng = np.random.default_rng(14)
    for _ in range(40):
        chi, x1, s, x3, x4 = rng.uniform(-2, 2, size=5)
        g = df.g([chi, x1, s, x3, x4])
        # s' = -s/2 * fhat_u2, every non-cubic term carrying powers of s
        fhat_u2 = x1**3 / 3.0 - x1 * s**2 - s * (chi + x4)
        assert g[2] == pytest.approx(-0.5 * s * fhat_u2, rel=1e-12, abs=1e-12)
        # u1-hat' includes the -1/2 u1-hat * fhat_u2 coupling
        fhat_u1 = x1**2 - 1.0 - s * (chi * x1 + x3)
        assert g[1] == pytest.approx(
            fhat_u1 - 0.5 * x1 * fhat_u2, rel=1e-12, abs=1e-12
        )


def test_mems_negative_chart_matches_printed_system():
    from horizon_lab.systems import mems

    b = mems()  # n=3, p=2, q=1; chart sign -1 on w
    df = build_field_from_config(b)
    rng = np.random.default_rng(15)
    for _ in range(40):
        r = rng.uniform(0.2, 2.0)
        s, x = rng.uniform(-1.5, 1.5, size=2)
        g = df.g([r, s, x])
        # v-hat' = (p-1)/2 x^2 - r^q - (n-1) r^-1 s^(p+1) x
        expected = 0.5 * x * x - r - 2.0 * (s**3) * x / r
        assert g[2] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert g[1] == pytest.approx(0.5 * s * x, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# nonautonomous extension


def test_extend_autonomous_prepends_time():
    fs = SCALAR
    ext, ht = extend_nonautonomous(fs, SCALAR_HT)
    assert isinstance(ext, ExtendedFieldSpec)
    assert ext.variable_names == ("t", "y")
    assert ext.nonautonomous
    assert ht.alpha == (0, 1)
    # dt/dt = 1 becomes the first component
    assert eval_field(ext, [0.0, 3.0]) == pytest.approx([1.0, 9.0])


def test_extend_nonautonomous_rebrands():
    fs = FieldSpec(
        variable_names=("chi", "y"),
        components=((m(1.0, 0, 0),), (m(1.0, 0, 2), m(1.0, 1, 0))),
        nonautonomous=True,
    )
    ht = HomogeneityType(alpha=(0, 1), k=1)
    ext, ht2 = extend_nonautonomous(fs, ht)
    assert ext.variable_names == ("chi", "y")
    assert ht2.alpha == ht.alpha


def test_extend_twice_raises():
    ext, ht = extend_nonautonomous(SCALAR, SCALAR_HT)
    with pytest.raises(AlreadyExtendedError):
        extend_nonautonomous(ext, ht)


def test_extend_avoids_name_collision():
    fs = FieldSpec(variable_names=("t",), components=((m(1.0, 2),),))
    ext, _ = extend_nonautonomous(fs, SCALAR_HT)
    assert ext.variable_names[0] != "t"
    assert ext.variable_names[1] == "t"


# ---------------------------------------------------------------------------
# exponent and type policies


def test_violation_raises_negative_w_exponent():
    fs = FieldSpec(variable_names=("y",), components=((m(1.0, 5),),))
    with pytest.raises(NegativeWExponentError):
        build_parabolic_desing(fs, SCALAR_HT)


@pytest.mark.parametrize("offset", [3e-12, -3e-12])
def test_principal_within_tolerance_rescales_like_exact(offset):
    # y^(4 + offset) with alpha (1,), k = 3 is principal within the 1e-12
    # relative tolerance, so the desingularization must treat it as y^4
    ht = HomogeneityType(alpha=(1,), k=3)
    chart = DirectionalChart(htype=ht, i0=0, sign=1)
    near = FieldSpec(variable_names=("y",), components=((m(1.0, 4 + offset),),))
    report = classify_monomials(near, ht)
    assert report.principal == ((0,),) and not report.violations
    exact = FieldSpec(variable_names=("y",), components=((m(1.0, 4),),))
    df = build_directional_desing(near, ht, chart)
    assert df.components == build_directional_desing(exact, ht, chart).components


@pytest.mark.parametrize("chart_kind", ["parabolic", "directional"])
def test_builders_reject_weighted_time_variable(chart_kind):
    field = make_example("painleve1").field
    ht = HomogeneityType(alpha=(1, 2, 3), k=1)
    with pytest.raises(DomainError, match="time variable must have weight 0"):
        if chart_kind == "parabolic":
            build_parabolic_desing(field, ht)
        else:
            build_directional_desing(field, ht, DirectionalChart(ht, 1))


def test_parabolic_rejects_fractional_weighted_exponent():
    fs = FieldSpec(
        variable_names=("y",), components=((Monomial(1.0, (Fraction(1, 2),)),),)
    )
    with pytest.raises(DomainError):
        build_parabolic_desing(fs, HomogeneityType(alpha=(2,), k=1))


def test_parabolic_rejects_negative_exponent_on_weighted_var():
    fs = FieldSpec(variable_names=("y",), components=((m(1.0, -1),),))
    with pytest.raises(DomainError):
        build_parabolic_desing(fs, SCALAR_HT)


def test_directional_allows_fractional_on_chart_variable():
    # u^(1-m) with m = -0.5: fine on the + chart of u itself
    fs = FieldSpec(
        variable_names=("u", "v"),
        components=((Monomial(1.0, (1.5, 1)),), (m(-1.0, 1, 0),)),
    )
    ht = HomogeneityType(alpha=(1, 1), k=1.5)
    chart = DirectionalChart(htype=ht, i0=0, sign=1)
    df = build_directional_desing(fs, ht, chart)
    g = df.g([0.25, 1.0])
    assert all(math.isfinite(v) for v in g)


def test_negative_chart_rejects_fractional_chart_exponent():
    fs = FieldSpec(
        variable_names=("u", "v"),
        components=((Monomial(1.0, (1.5, 1)),), (m(-1.0, 1, 0),)),
    )
    ht = HomogeneityType(alpha=(1, 1), k=1.5)
    with pytest.raises(ChartDomainError):
        build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=0, sign=-1))


def test_directional_rejects_fractional_off_chart_exponent():
    fs = FieldSpec(
        variable_names=("u", "v"),
        components=((Monomial(1.0, (1, Fraction(1, 2))),), (m(-1.0, 1, 0),)),
    )
    ht = HomogeneityType(alpha=(1, 1), k=1)
    with pytest.raises(DomainError):
        build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=0, sign=1))


def test_weight_zero_fractional_exponent_guarded_at_runtime():
    # r^(1/2) on a weight-0 variable builds, but evaluating at r < 0 is a
    # domain error rather than a NaN
    fs = FieldSpec(
        variable_names=("r", "y"),
        components=((), (Monomial(1.0, (Fraction(1, 2), 2)),)),
    )
    ht = HomogeneityType(alpha=(0, 1), k=1)
    df = build_parabolic_desing(fs, ht)
    # g_y = sqrt(r) * y^2 * W / 2 with W = 1 - y^2
    assert df.g([4.0, 0.5])[1] == pytest.approx(2.0 * 0.25 * 0.75 / 2, rel=1e-14)
    with pytest.raises(DomainError):
        df.g([-1.0, 0.5])


# ---------------------------------------------------------------------------
# evaluation helper


def test_evaluate_desing_returns_triplet():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    g, J, dt = evaluate_desing(df, [0.5])
    assert g.shape == (1,) and J.shape == (1, 1)
    assert dt == pytest.approx(df.time_scale([0.5]))


@pytest.mark.parametrize("method", ["rhs_values", "g", "time_scale", "jacobian"])
@pytest.mark.parametrize("coords", [[0.0, 0.1], [0.0, 0.1, 0.2, 0.3]])
def test_evaluation_checks_the_coordinate_count(method, coords):
    b = make_example("painleve1")
    df = build_parabolic_desing(b.field, b.htype)
    with pytest.raises(ValueError, match="expected 3"):
        getattr(df, method)(coords)


def test_evaluate_desing_domain_grace():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    # a hair outside the closed domain is tolerated (integration overshoot)
    evaluate_desing(df, [math.sqrt(1.0 + 5e-10)])
    with pytest.raises(DomainError):
        evaluate_desing(df, [1.001])


def test_source_code_is_exposed():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    assert "def _rhs(" in df.source_code
    assert "def _jac(" in df.source_code
    assert "def _step(" in df.source_code
    assert "def _rhs_v(" in df.source_code
    assert "def _jac_v(" in df.source_code


# ---------------------------------------------------------------------------
# array evaluators


def _example(name):
    return build_field_from_config(make_example(name))


# the benchmark workloads run the kk_dafermos, mems and painleve1 examples
# at their default parameters
_ARRAY_FIELDS = {
    **{name: (lambda name=name: _example(name)) for name in example_names()},
    **CLAMPED_FIELDS,
}


@pytest.mark.parametrize("name", sorted(_ARRAY_FIELDS))
def test_array_evaluators_match_scalar(name):
    df = _ARRAY_FIELDS[name]()
    rng = np.random.default_rng(11)
    Z = rng.uniform(-0.9, 0.9, size=(300, df.n))
    R, J = df.rhs_array(Z), df.jacobian_array(Z)
    assert R.shape == (300, df.n + 1) and J.shape == (300, df.n, df.n)
    failures = 0
    for z, r, jac in zip(Z, R, J):
        for scalar, got in ((df.rhs_values, r), (df.jacobian, jac)):
            try:
                want = np.asarray(scalar(z), dtype=float)
            except DomainError:
                failures += 1
                assert not np.all(np.isfinite(got))
                continue
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    if name == "sqrt_coordinate":  # half the points have r < 0
        assert failures > 100


@pytest.mark.parametrize(
    "field, bad, good",
    [
        # mems at r = 0 reaches r**(-1)
        (lambda: _example("mems"), [0.0, 0.3, -0.5], [[1.0, 0.3, -0.5], [0.5, 0.1, 0.2]]),
        # a fractional power of a negative base
        (CLAMPED_FIELDS["sqrt_coordinate"], [-1.0, 0.5], [[4.0, 0.5], [0.25, -0.3]]),
    ],
    ids=["zero_division", "negative_base"],
)
def test_array_domain_failure_stays_in_its_row(field, bad, good):
    df = field()
    with pytest.raises(DomainError):
        df.rhs_values(bad)
    with pytest.raises(DomainError):
        df.jacobian(bad)
    Z = np.array([good[0], bad, good[1]])
    R, J = df.rhs_array(Z), df.jacobian_array(Z)
    assert not np.all(np.isfinite(R[1]))
    assert not np.all(np.isfinite(J[1]))
    for i in (0, 2):
        assert np.array_equal(R[i], df.rhs_array(Z[i:i + 1])[0])
        assert np.array_equal(J[i], df.jacobian_array(Z[i:i + 1])[0])
        assert np.all(np.isfinite(R[i])) and np.all(np.isfinite(J[i]))
