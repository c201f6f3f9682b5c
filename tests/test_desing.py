"""Desingularized field construction: closed forms, Jacobians, invariance."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from horizon_lab import desing
from horizon_lab import (
    ChartDomainError,
    DirectionalChart,
    DomainError,
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
    grid_seeds,
    integrate,
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
        assert df.rhs_values([x])[0] == pytest.approx(0.5 * x * x * W, rel=1e-14)
        assert df.rhs_values([x])[-1] == pytest.approx((1 - W / 2) * W, rel=1e-14)


def test_scalar_parabolic_jacobian_closed_form():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    for x in (-0.7, 0.0, 0.4, 0.9):
        # d/dx of (x^2 - x^4)/2 = x - 2x^3
        assert df.jacobian([x])[0, 0] == pytest.approx(x - 2 * x**3, rel=1e-13, abs=1e-15)


def test_time_factor_positive_inside_domain():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    xs = np.linspace(-0.999, 0.999, 101)
    assert all(df.rhs_values([x])[-1] > 0 for x in xs)
    assert df.rhs_values([1.0])[-1] == 0.0  # horizon: dt/dtau vanishes


def test_q_factor_range():
    # time factor = q * W^k with q = 1 - (2c-1)/(2c) W; check q in [1/2c, 1]
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    for x in np.linspace(-1.0, 1.0, 41):
        W = 1.0 - x * x
        q = df.rhs_values([x])[-1] / W if W > 0 else 0.5
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
        J_fd = fd_jacobian(lambda v: df.rhs_values(v)[:-1], x)
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
        J_fd = fd_jacobian(lambda v: df.rhs_values(v)[:-1], x)
        assert np.allclose(J, J_fd, rtol=2e-6, atol=1e-7)


def test_horizon_tangency_parabolic():
    """g is tangent to {P = 1}: g . grad(P) = 0 on the horizon."""
    rng = np.random.default_rng(9)
    alpha, k = (2, 3), 1
    fs = random_aqh_field(rng, alpha, k)
    ht = HomogeneityType(alpha=alpha, k=k)
    df = build_parabolic_desing(fs, ht)
    for _ in range(30):
        v = rng.uniform(-0.95, 0.95)
        u = (1.0 - v**4) ** (1.0 / 6.0) * rng.choice([-1.0, 1.0])
        x = np.array([u, v])
        g = np.asarray(df.rhs_values(x)[:-1])
        grad = np.array([6 * u**5, 4 * v**3])  # of P = u^6 + v^4
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
        assert df.rhs_values(x)[0] == 0.0


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
        values = df.rhs_values(x)
        dx_dt = np.asarray(values[:-1]) / values[-1]
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
        g = df.rhs_values([chi, x1, s, x3, x4])[:-1]
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
        g = df.rhs_values([r, s, x])[:-1]
        # v-hat' = (p-1)/2 x^2 - r^q - (n-1) r^-1 s^(p+1) x
        expected = 0.5 * x * x - r - 2.0 * (s**3) * x / r
        assert g[2] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert g[1] == pytest.approx(0.5 * s * x, rel=1e-12, abs=1e-12)


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
    g = df.rhs_values([0.25, 1.0])[:-1]
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
    assert df.rhs_values([4.0, 0.5])[1] == pytest.approx(2.0 * 0.25 * 0.75 / 2, rel=1e-14)
    with pytest.raises(DomainError):
        df.rhs_values([-1.0, 0.5])


@pytest.mark.parametrize("method", ["rhs_values", "jacobian"])
@pytest.mark.parametrize("coords", [[0.0, 0.1], [0.0, 0.1, 0.2, 0.3]])
def test_evaluation_checks_the_coordinate_count(method, coords):
    b = make_example("painleve1")
    df = build_parabolic_desing(b.field, b.htype)
    with pytest.raises(ValueError, match="expected 3"):
        getattr(df, method)(coords)


def test_source_code_is_exposed():
    df = build_parabolic_desing(SCALAR, SCALAR_HT)
    assert "def _rhs(" not in df.source_code
    assert "def _jac(Z):" in df.source_code
    assert "def _jac(z):" not in df.source_code
    assert "def _step(" in df.source_code
    assert "def _horizon_rhs(" in df.source_code
    assert "def _horizon_jac(" in df.source_code


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


def _gap_powers(line, gap):
    """The exponents of the gap symbol ``gap`` (or of its clamp) in a line
    of generated code: 1 for the bare symbol."""
    pattern = rf"_pw\({gap}c?, ([^)]+)\)|\b{gap}c?\b(?:\*\*\(?(-?\d+)\)?)?"
    return [float(frac or whole or 1) for frac, whole in re.findall(pattern, line)]


def _gap_zero_points(df, rng):
    """Points at exact gap 0: s = 0 on a directional chart; on the
    parabolic one +-1 in one weighted slot and 0 in the others, where 1 - P
    is exactly 0.0.  The weight-0 slots are drawn."""
    weighted = df.htype.i_alpha
    if df.gap_slot < df.n:
        X = rng.uniform(-0.9, 0.9, size=(100, df.n))
        X[:, df.gap_slot] = 0.0
        return X
    points = []
    for j in weighted:
        for sign in (-1.0, 1.0):
            for _ in range(10):
                x = rng.uniform(-0.9, 0.9, size=df.n)
                x[list(weighted)] = 0.0
                x[j] = sign
                points.append(x)
    return np.array(points)


@pytest.mark.parametrize("name", sorted(_ARRAY_FIELDS))
def test_array_evaluators_match_scalar(name):
    df = _ARRAY_FIELDS[name]()
    rows, free = list(df.horizon_rows), list(df.free_slots)
    assert free == [j for j in df.htype.i_alpha if j != df.gap_slot]
    rng = np.random.default_rng(11)
    # jacobian_array is read at gap 0 alone: no line of the generated _jac
    # reads a positive power of the gap, and at exact gap 0 it is the
    # field's Jacobian up to NumPy's powers, not finite where jacobian
    # raises
    code = df.source_code
    gap = f"x{df.gap_slot}"
    for line in code[code.index("def _jac(Z):"):].splitlines():
        if line.startswith("    out[:"):
            assert all(e <= 0 for e in _gap_powers(line, gap)), line
    X = _gap_zero_points(df, np.random.default_rng(13))
    assert np.all(df.chart.horizon_gap_of(X) == 0.0)
    Zj = X if df.gap_slot < df.n else np.hstack([X, np.zeros((len(X), 1))])
    with np.errstate(all="ignore"):
        JA = df.jacobian_array(Zj)
    for x, ja in zip(X, JA):
        try:
            want = df.jacobian(x)
        except DomainError:
            assert not np.all(np.isfinite(ja))
            continue
        assert np.all(np.abs(ja - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    if df.gap_slot < df.n:
        # at s = 0 every left-out term is an exact zero, so the horizon rows
        # are the field's and so are their partials in the free slots, up
        # to NumPy's powers, which differ from Python's in the last bit
        i0 = df.gap_slot
        Z = rng.uniform(-0.9, 0.9, size=(300, df.n))
        Z[:, i0] = 0.0
        R, J = df.horizon_rhs_array(Z), df.horizon_jacobian_array(Z)
        assert R.shape == (300, len(rows)) and J.shape == (300, len(rows), len(free))
        if not rows:  # every term carries s (and an s-partial is s**(-1/2))
            return
        for z, r, jac in zip(Z, R, J):
            for got, want in ((r, np.asarray(df.rhs_values(z))[rows]),
                              (jac, df.jacobian(z)[np.ix_(rows, free)])):
                assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        return
    # on P = 1 the full field reads W = 1 - P, zero up to rounding; the
    # last row is the constraint P - 1
    Z = np.vstack([grid_seeds(df, rng.uniform(0.1, 0.9, df.n)) for _ in range(5)])
    R, J = df.horizon_rhs_array(Z), df.horizon_jacobian_array(Z)
    p = len(rows)
    assert R.shape == (len(Z), p + 1) and J.shape == (len(Z), p + 1, len(free))
    for z, r, jac in zip(Z, R, J):
        want = np.asarray(df.rhs_values(z))[rows]
        assert np.all(np.abs(r[:p] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        assert abs(r[p]) <= 1e-13

        def system(v):
            x = z.copy()
            x[free] = v
            return df.horizon_rhs_array(x[None, :])[0]

        fd = fd_jacobian(system, z[free])
        assert np.all(np.abs(jac - fd) <= 1e-6 * np.maximum(1.0, np.abs(jac)))


def _alpha_123():
    # x' = x^2, y' = x y, z' = y^2 on the parabolic chart of
    # alpha = (1, 2, 3), k = 1: P = x^12 + y^6 + z^4
    fs = FieldSpec(
        variable_names=("x", "y", "z"),
        components=((m(1.0, 2, 0, 0),), (m(1.0, 1, 1, 0),), (m(1.0, 0, 2, 0),)),
    )
    return build_parabolic_desing(fs, HomogeneityType(alpha=(1, 2, 3), k=1))


# a nonautonomous and an autonomous field on the parabolic chart
_PARABOLIC = {"painleve1": lambda: _example("painleve1"), "alpha_123": _alpha_123}


@pytest.mark.parametrize("name", sorted(_PARABOLIC))
def test_horizon_constraint_row_is_the_charts(name):
    # the generated row P - 1 and its partials, bit for bit against the
    # chart's horizon polynomial and the closed form 2 beta_j x_j^(2 beta_j - 1)
    df = _PARABOLIC[name]()
    tb = 2 * df.htype.beta_full()
    rng = np.random.default_rng(12)
    X = rng.uniform(-1.2, 1.2, size=(100_000, df.n))
    R, J = df.horizon_rhs_array(X), df.horizon_jacobian_array(X)
    assert np.array_equal(R[:, -1], df.chart.horizon_poly(X) - 1.0)
    for c, j in enumerate(df.free_slots):
        assert np.array_equal(J[:, -1, c], tb[j] * X[:, j] ** (tb[j] - 1))


def _reciprocal_coordinate():
    # y' = y^2 / r on the parabolic chart: r**(-1) sits in a term with no
    # power of W, so it reaches the horizon evaluators
    fs = FieldSpec(variable_names=("r", "y"), components=((), (m(1.0, -1, 2),)))
    return build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))


@pytest.mark.parametrize(
    "field, bad, good",
    [
        (_reciprocal_coordinate, [0.0, 0.5], [[1.0, 0.3], [0.5, -0.2]]),
        # a fractional power of a negative base
        (CLAMPED_FIELDS["sqrt_coordinate"], [-1.0, 0.5], [[4.0, 0.5], [0.25, -0.3]]),
    ],
    ids=["zero_division", "negative_base"],
)
def test_array_domain_failure_stays_in_its_row(field, bad, good):
    df = field()
    assert df.horizon_rows == (1,)
    with pytest.raises(DomainError):
        df.rhs_values(bad)
    with pytest.raises(DomainError):
        df.jacobian(bad)
    Z = np.array([good[0], bad, good[1]])
    # the evaluators leave the floating-point error state to their caller
    with np.errstate(all="ignore"):
        R, J = df.horizon_rhs_array(Z), df.horizon_jacobian_array(Z)
    assert not np.all(np.isfinite(R[1]))
    assert not np.all(np.isfinite(J[1]))
    for i in (0, 2):
        assert np.array_equal(R[i], df.horizon_rhs_array(Z[i:i + 1])[0])
        assert np.array_equal(J[i], df.horizon_jacobian_array(Z[i:i + 1])[0])
        assert np.all(np.isfinite(R[i])) and np.all(np.isfinite(J[i]))


# ---------------------------------------------------------------------------
# the compiled-evaluator cache, keyed by the generated source

_COMPILED = ("jacobian_array", "time_factor_at", "step", "horizon_rhs_array",
             "horizon_jacobian_array")


def test_same_config_shares_compiled_functions():
    cfg = make_example("kk_dafermos")
    df1, df2 = build_field_from_config(cfg), build_field_from_config(cfg)
    assert df1 is not df2
    assert all(getattr(df1, a) is getattr(df2, a) for a in _COMPILED)
    assert df1.source_code == df2.source_code


@pytest.mark.parametrize(
    "name, a, b",
    [("kk_dafermos", {"epsilon": 0.0}, {"epsilon": 0.5}), ("mems", {"p": 2}, {"p": 4})],
)
def test_distinct_sources_get_distinct_functions(name, a, b):
    df1 = build_field_from_config(make_example(name, a))
    df2 = build_field_from_config(make_example(name, b))
    assert df1.source_code != df2.source_code
    assert all(getattr(df1, f) is not getattr(df2, f) for f in _COMPILED)


def test_compile_cache_is_bounded():
    maxsize = desing._compiled.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 64


def _samples(df, run):
    traj = integrate(df, embed(df.chart, np.asarray(run.y0)).coords,
                     t0=run.t0, controls=run.controls)
    return [a.tobytes() for a in (traj.taus, traj.ts, traj.coords, traj.dts, traj.gaps)]


@pytest.mark.parametrize("name", ["kk_dafermos", "painleve1"])
def test_recompiled_field_integrates_byte_identically(name):
    cfg = make_example(name)
    desing._compiled.cache_clear()
    df1 = build_field_from_config(cfg)
    first = _samples(df1, cfg.runs[0])
    desing._compiled.cache_clear()
    df2 = build_field_from_config(cfg)
    assert df2.step is not df1.step  # compiled afresh
    assert df2.source_code == df1.source_code
    assert _samples(df2, cfg.runs[0]) == first


def test_domain_failure_raises_after_a_cache_hit():
    cfg = make_example("mems")
    build_field_from_config(cfg)
    hits = desing._compiled.cache_info().hits
    df = build_field_from_config(cfg)
    assert desing._compiled.cache_info().hits == hits + 1
    bad = [0.0, 0.3, -0.5]  # mems at r = 0 reaches r**(-1)
    with pytest.raises(DomainError):
        df.rhs_values(bad)
    with pytest.raises(DomainError):
        df.jacobian(bad)
    with pytest.raises(DomainError, match="in a step"):
        df.step(bad, [0.0, 0.0, 0.0], 0.1, 0.0, 0.1, [], 1e-12, 1e-10, math.inf)


@pytest.mark.parametrize("name", ["kk_dafermos", "mems", "selfsimilar"])
def test_state_derivative_is_the_field_in_ln_s(name):
    # the step's state holds L = ln s: its derivative is the field's, but
    # dL/dtau = (ds/dtau) / s in slot i0, and stays finite at s = 0
    df = build_field_from_config(make_example(name))
    i0 = df.gap_slot
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0.2, 1.5, size=df.n)
        x[i0] = rng.uniform(1e-6, 1.0)
        state = list(x) if df.nonautonomous else list(x) + [0.0]
        state[i0] = math.log(x[i0])
        got = np.array(df.state_derivative(tuple(state)))
        want = np.array(df.rhs_values(x))[:len(state)]
        want[i0] /= x[i0]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-300)
    state[i0] = -math.inf
    assert np.all(np.isfinite(df.state_derivative(tuple(state))))


def _painleve1_negative():
    # painleve1's field on the negative chart over v, where alpha_i0 = 3
    p1 = _example("painleve1")
    chart = DirectionalChart(htype=p1.htype, i0=2, sign=-1)
    return build_directional_desing(p1.source, p1.htype, chart)


def _alpha_35():
    # a' = a, b' = 0.7 a^2 of type alpha = (3, 5), k = 1 on the chart over
    # a: alpha_i0 = 3 is no power of two, so coupling coefficients formed as
    # -alpha_i / alpha_i0 and as alpha_i (1 / alpha_i0) round apart
    fs = FieldSpec(variable_names=("a", "b"),
                   components=((m(1.0, 1, 0),), (m(0.7, 2, 0),)))
    ht = HomogeneityType(alpha=(3, 5), k=1)
    return build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=0, sign=1))


_STEP_FIELDS = {**_ARRAY_FIELDS, "painleve1_negative": _painleve1_negative,
                "alpha_35": _alpha_35}


@pytest.mark.parametrize("name", sorted(_STEP_FIELDS))
def test_step_rates_read_the_gap_rate_once(name):
    # one rule on both charts: _deriv binds G, the field's normal rate of
    # the horizon gap, once, and each weighted slot but the gap's reads
    # rest_i - alpha_i x_i G (Gs on the parabolic chart) with the field's
    # own rest_i, term for term, so no slot repeats G's terms and none
    # keeps a remnant of the coupling; the gap slot reads -G W, or -G =
    # dL/dtau
    df = _STEP_FIELDS[name]()
    n, gap, alpha = df.n, df.gap_slot, df.htype.alpha
    parabolic = gap == n
    code = df.source_code
    deriv = code[code.index("def _deriv(z):"):code.index("def _step(")]
    assert len(re.findall(r"^    G = ", deriv, re.M)) == 1
    rates = re.search(r"return \(\n(.*)\n    \)", deriv, re.S).group(1)
    rates = [r.strip().rstrip(",") for r in rates.splitlines()]
    assert rates[gap] == (f"-G*x{n}" if parabolic else "-G")
    # G's own terms, once
    G = re.search(r"^    G = (.*)$", deriv, re.M).group(1)
    assert len(re.split(r" [-+] ", G)) == len(df.normal_rate), G
    for i in range(n):
        if i == gap:
            continue
        if not alpha[i]:
            assert not re.search(r"\bGs?\b", rates[i])
            continue
        rest = [c for c in df.rest[i].values() if c != 0.0]
        coeff = "" if alpha[i] == 1 else re.escape(f"{float(alpha[i])!r}*")
        g = "Gs" if parabolic else "G"
        assert re.fullmatch(rf"(.+ - |-){coeff}x{i}\*{g}", rates[i]), rates[i]
        assert len(re.split(r" [-+] ", rates[i])) == len(rest) + 1, rates[i]


def _poly_at(p, point):
    """A term dictionary's value at ``point``, term by term."""
    return math.fsum(
        c * math.prod(v ** e for v, e in zip(point, key)) for key, c in p.items()
    )


@pytest.mark.parametrize("name", sorted(_PARABOLIC))
def test_parabolic_state_derivative_is_rhs_values_cut(name):
    # on the parabolic chart the state is the coordinates, then W, then t
    # for an autonomous field.  At W = 1 - P(x), formed as rhs_values forms
    # it, the generated _deriv gives the weight-0 slots and t rhs_values'
    # own derivatives, bit for bit, and W the slot's rate -G W, which there
    # is -dP/dtau = -grad P . g.  A weighted slot i adds F G D alpha_i x_i,
    # F = (2c - 1)/(2c) and D = P + W - 1, here D's rounding alone; the
    # step groups the terms of g_i otherwise, so that slot matches to
    # rounding relative to the terms' magnitude
    df = _PARABOLIC[name]()
    n, i_alpha, alpha = df.n, df.htype.i_alpha, df.htype.alpha
    tb = [int(v) for v in 2 * df.htype.beta_full()]
    f = (2 * df.htype.c - 1) / (2 * df.htype.c)
    g_terms = df.normal_rate
    assert "def _deriv(" in df.source_code
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.uniform(-0.6, 0.6, size=n).tolist()
        w = 1.0 - sum(x[j] ** tb[j] for j in i_alpha)  # as rhs_values forms W
        state = (*x, w) if df.nonautonomous else (*x, w, 0.5)
        got, g = df.state_derivative(state), df.rhs_values(x)
        assert [got[i] for i in range(n) if not alpha[i]] \
            == [g[i] for i in range(n) if not alpha[i]]
        assert got[n + 1:] == g[n:len(state) - 1]
        G = _poly_at(g_terms, (*x, w))
        dev = sum(x[j] ** tb[j] for j in i_alpha) + w - 1.0
        for i in i_alpha:
            want = g[i] + f * G * dev * alpha[i] * x[i]
            scale = sum(abs(_poly_at({key: c}, (*x, w)))
                        for key, c in df.components[i].items())
            assert abs(got[i] - want) <= 1e-14 * scale
        # relative to the terms' magnitude, which the sum may cancel
        terms = [tb[j] * x[j] ** (tb[j] - 1) * g[j] for j in i_alpha]
        scale = sum(map(abs, terms)) + abs(got[n])
        assert abs(got[n] + sum(terms)) <= 1e-13 * scale


@pytest.mark.parametrize("name", sorted(_PARABOLIC))
def test_parabolic_step_slows_the_deviation_to_the_gap_rate(name):
    # off the surface P + W = 1, the deviation D = P + W - 1 of the step's
    # state decays as D' = grad P . x' + W' = G D ((2c - 1) P - 2c), about
    # -G D near the horizon, where the field's own flow has -2c G D
    df = _PARABOLIC[name]()
    n, i_alpha, tc = df.n, df.htype.i_alpha, 2 * df.htype.c
    tb = [int(v) for v in 2 * df.htype.beta_full()]
    g_terms = df.normal_rate
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.uniform(-0.6, 0.6, size=n).tolist()
        p = sum(x[j] ** tb[j] for j in i_alpha)
        w = (1.0 - p) * rng.uniform(0.3, 1.7)
        state = (*x, w) if df.nonautonomous else (*x, w, 0.5)
        d = df.state_derivative(state)
        rate = sum(tb[j] * x[j] ** (tb[j] - 1) * d[j] for j in i_alpha) + d[n]
        want = _poly_at(g_terms, (*x, w)) * (p + w - 1.0) * ((tc - 1) * p - tc)
        assert abs(rate - want) <= 1e-12 * abs(want)


def test_gap_slot_keys_the_horizon_gap():
    # a directional chart's s is its own coordinate slot i0; the parabolic
    # chart's W is one more slot n after the coordinates
    kk = build_field_from_config(make_example("kk_dafermos"))
    p1 = build_field_from_config(make_example("painleve1"))
    kk_par = build_parabolic_desing(kk.source, kk.htype)
    for df, slot, width in ((kk, kk.chart.i0, kk.n), (p1, p1.n, p1.n + 1),
                            (kk_par, kk.n, kk.n + 1)):
        assert df.gap_slot == slot
        assert {len(e) for p in df.components + (df.time_factor,) for e in p} \
            == {width}
        # dt/dtau = s^k on a directional chart, q W^k on the parabolic one
        assert sorted(e[slot] for e in df.time_factor) == (
            [df.htype.k] if width == df.n else [df.htype.k, df.htype.k + 1]
        )


def test_start_lays_out_the_integrator_state():
    # the recorded row is the coordinates, then W = 1 - P(x) on the
    # parabolic chart, then t0 for an autonomous field; the step's state
    # holds ln s in place of a directional chart's s, -inf on the horizon
    p1 = build_field_from_config(make_example("painleve1"))
    x = [0.5, 0.3, 0.4]
    w = p1.horizon_gap(x)
    assert p1.start(x, t0=7.0) == ((*x, w), (*x, w))
    assert (p1.state_dim, p1.time_slot) == (4, 0)
    kk = build_field_from_config(make_example("kk_dafermos"))
    kk_par = build_parabolic_desing(kk.source, kk.htype)
    x = [0.0, 1.0, 0.25, 0.1, 0.2]
    w = kk_par.horizon_gap(x)
    assert kk_par.start(x, t0=3.0) == ((*x, w, 3.0), (*x, w, 3.0))
    assert (kk_par.state_dim, kk_par.time_slot) == (7, 6)
    assert kk.gap_slot == 2
    row, z = kk.start(x, t0=3.0)
    assert row == (*x, 3.0) and z == (0.0, 1.0, math.log(0.25), 0.1, 0.2, 3.0)
    assert (kk.state_dim, kk.time_slot) == (6, 5)
    x[2] = 0.0
    assert kk.start(x)[1][2] == -math.inf
    with pytest.raises(ValueError):
        kk.start(x[:4])


@pytest.mark.parametrize(
    "name, digest",
    [
        ("kk_dafermos", "81f9bd0132b798985918015d0609f6e35e7e1add598ec5c1f62cf69099b6fa46"),
        ("mems", "c79998a1d424f2181d565e8e04c412569f94a36edc28071a21cd8b4604d3d4f1"),
        ("painleve1", "d081ffbd3b6c894be7cb5a862ffd5fed7a13c9f6b8b3108fd62d041793689d83"),
        ("selfsimilar", "29bf67d2ea11a4e440b64054f062d80570414b68f60e804e30205d06745c60af"),
    ],
    ids=["kk_dafermos", "mems", "painleve1", "selfsimilar"],
)
def test_example_source_code_is_pinned(name, digest):
    """The generated source of every example's field is fixed: a refactor
    of the term algebra or of the emitter must keep it byte for byte.
    The cases are named by example alone, so a deliberate change of the
    emitted code updates a digest without renaming its case.
    painleve1's pin also guards the parabolic chart's step, with its W
    slot, against the directional charts' ln s form."""
    code = build_field_from_config(make_example(name)).source_code
    assert hashlib.sha256(code.encode("utf-8")).hexdigest() == digest
