"""Acceptance suite: thirteen end-to-end checks, one visible verdict each.

Every test records a single ``[C##] PASS/FAIL`` line that the terminal
summary hook in conftest.py replays after the run (outside pytest's output
capture), and enforces the stated wall-clock budget.
"""

import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import ACCEPTANCE_VERDICTS, fd_jacobian

from horizon_lab import (
    DirectionalChart,
    VanishingComponent,
    build_directional_desing,
    build_parabolic_desing,
    build_report,
    check_nonresonance,
    classify_monomials,
    derive_beta,
    embed,
    estimate_decay,
    estimate_tmax,
    extrapolate_tail,
    find_horizon_equilibria,
    fit_rate,
    grid_seeds,
    infer_type,
    integrate,
    trace_equilibrium_curve,
    FieldSpec,
    HomogeneityType,
    IntegratorControls,
    Monomial,
)
from horizon_lab.cli import build_field_from_config
from horizon_lab.systems import EXAMPLES, kk_dafermos, mems, painleve1, selfsimilar


@contextmanager
def criterion(cid: str, summary: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        msg = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        ACCEPTANCE_VERDICTS.append((cid, False, f"[{cid}] FAIL — {summary}: {msg}"))
        raise
    dt = time.perf_counter() - t0
    if dt >= budget:
        ACCEPTANCE_VERDICTS.append(
            (
                cid,
                False,
                f"[{cid}] FAIL — {summary}: exceeded {budget}s budget ({dt:.3f}s)",
            )
        )
        raise AssertionError(f"{cid} exceeded its {budget}s budget: {dt:.3f}s")
    ACCEPTANCE_VERDICTS.append(
        (cid, True, f"[{cid}] PASS — {summary} ({dt:.3f}s)")
    )


def bundle_run(b, **controls):
    df = build_field_from_config(b)
    run = b.runs[0]
    pt = embed(df.chart, np.asarray(run.y0, dtype=float))
    traj = integrate(
        df, pt.coords, controls=IntegratorControls(**controls) if controls else None
    )
    return df, traj


@pytest.fixture(scope="module")
def painleve():
    b = painleve1()
    df, traj = bundle_run(b)
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(3)))
    return SimpleNamespace(bundle=b, df=df, traj=traj, eqs=eqs)


U_STAR = 17.0 ** (-1.0 / 6.0)
V_STAR = 2.0 * 17.0 ** (-1.0 / 4.0)
EIG_SCALE = 17.0 ** (-1.0 / 12.0)


def test_c01_weight_derivation():
    with criterion("C01", "dual weights and clearing constant, exact", 1e-3):
        assert derive_beta((2, 3)) == ((3, 2), 6)
        beta, c = derive_beta((0, 1, 2, 1, 2))
        assert c == 2


def test_c02_painleve_equilibrium_count(painleve):
    with criterion(
        "C02",
        "two horizon equilibria at (17^(-1/6), ±2·17^(-1/4)); the u < 0 "
        "lattice pair lies on the horizon with g_u = ±(32/17)·2·17^(-1/4) ≠ 0",
        1.0,
    ):
        # On the horizon u^6 + v^4 = 1 (t-slot 0) the field reduces to
        # g_u = v (1 - u^6 - 4 u^3 v^2) and g_v = u^5 (6 u^3 - (3/2) v^2).
        # v = 0 leaves g_v = 6 u^8, forcing u = 0, which is off the horizon.
        # So v^2 = 4 u^3, which needs u > 0, and g_u = 0 then pins
        # u^6 = 1/17.  Only the v sign is free: exactly two equilibria.
        eqs = painleve.eqs
        got = sorted((float(e.coords[1]), float(e.coords[2])) for e in eqs)
        assert len(eqs) == 2, (
            f"found {len(eqs)} horizon equilibria, not the two at "
            f"(17^(-1/6), ±2·17^(-1/4)): {got}"
        )
        assert got[0] == pytest.approx((U_STAR, -V_STAR), rel=1e-10)
        assert got[1] == pytest.approx((U_STAR, V_STAR), rel=1e-10)
        for e in eqs:
            assert e.residual < 1e-10
        # The mirrored points (-17^(-1/6), ±2·17^(-1/4)) also lie on the
        # horizon, but there 1 - u^6 - 4 u^3 v^2 = 32/17, so g_u = (32/17) v
        # and they are not stationary.
        for sv in (1, -1):
            point = (0.0, -U_STAR, sv * V_STAR)
            assert abs(painleve.df.horizon_gap(point)) < 1e-12
            g_u = painleve.df.rhs_values(point)[1]
            assert g_u == pytest.approx(sv * 32.0 / 17.0 * V_STAR, rel=1e-10), (
                f"u < 0 lattice point {point}: g_u = {g_u}, expected "
                f"{sv * 32.0 / 17.0 * V_STAR} from the closed form"
            )


def test_c03_painleve_spectrum_and_nonresonance(painleve):
    with criterion(
        "C03",
        "sink spectrum {0, -17^(-1/12), -6·17^(-1/12)} and first-order "
        "nonresonance",
        1.0,
    ):
        sink = [
            e
            for e in painleve.eqs
            if e.coords[1] > 0 and e.coords[2] > 0
        ][0]
        lam = sorted(sink.eigenvalues.real)
        assert max(abs(v.imag) for v in sink.eigenvalues) < 1e-10
        assert lam[0] == pytest.approx(-6.0 * EIG_SCALE, rel=1e-8)
        assert lam[1] == pytest.approx(-1.0 * EIG_SCALE, rel=1e-8)
        assert abs(lam[2]) < 1e-8
        ok, witness = check_nonresonance([lam[0], lam[1]], order_N=1)
        assert ok and witness is None


def test_c04_scalar_quadratic_oracle():
    with criterion(
        "C04", "y' = y^2: t_max = 1, exponent -1, coefficient 1", 1.0
    ):
        fs = FieldSpec(
            variable_names=("y",),
            components=((Monomial(1.0, (2,)),),),
        )
        ht = HomogeneityType(alpha=(1,), k=1)
        df = build_parabolic_desing(fs, ht)
        traj = integrate(df, embed(df.chart, np.array([1.0])).coords)
        lam, _ = estimate_decay(traj)
        t_max, _ = estimate_tmax(traj, lam)
        assert t_max == pytest.approx(1.0, abs=1e-6)
        tail = extrapolate_tail(traj, lam)
        slope, r2, coeff = fit_rate(traj, tail, 0)
        assert slope == pytest.approx(-1.0, abs=0.01)
        assert coeff == pytest.approx(1.0, abs=0.01)


def test_c05_painleve_rates_and_blowup_time(painleve):
    with criterion(
        "C05",
        "first transcendent: u, v rates, t_max vs direct integration, "
        "leading coefficient",
        10.0,
    ):
        report = build_report(painleve.traj, painleve.eqs)
        by_name = {r.variable: r for r in report.records}
        assert by_name["u"].fitted_exponent == pytest.approx(-2.0, abs=0.04)
        assert by_name["v"].fitted_exponent == pytest.approx(-3.0, abs=0.06)

        # independent oracle: integrate u'' = 6u^2 + t directly until
        # |u| > 1e8, then t* ~ t_stop + u_stop^(-1/2) since u ~ (t*-t)^(-2)
        def rhs(t, y):
            return [y[1], 6.0 * y[0] ** 2 + t]

        def big(t, y):
            return abs(y[0]) - 1e8

        big.terminal = True
        y0 = list(painleve.bundle.runs[0].y0[1:])
        sol = solve_ivp(
            rhs, (0.0, 1.0), y0, rtol=1e-12, atol=1e-12, events=big
        )
        t_stop = float(sol.t_events[0][0])
        u_stop = float(sol.y_events[0][0][0])
        t_oracle = t_stop + u_stop ** (-0.5)
        assert report.t_max == pytest.approx(t_oracle, rel=1e-4)

        # u'' = 6u^2 + t pins the leading series coefficient of u at exactly
        # 1 (the familiar factor 6 belongs to the u'' = u^2 normalization)
        assert by_name["u"].leading_coefficient == pytest.approx(1.0, rel=0.05)


def test_c06_kk_families_rates_and_vanishing():
    with criterion(
        "C06",
        "erosion model: x1 = ±sqrt(3±sqrt(3)) families, saddle/attractor "
        "split, u rates, vanishing w components",
        10.0,
    ):
        b = kk_dafermos()
        df, traj = bundle_run(b)
        eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(5)))
        lo = math.sqrt(3.0 - math.sqrt(3.0))
        hi = math.sqrt(3.0 + math.sqrt(3.0))
        vals = sorted(float(e.coords[1]) for e in eqs)
        assert vals == pytest.approx([-hi, -lo, lo, hi], rel=1e-10)
        kinds = {round(float(e.coords[1]), 6): e.classification for e in eqs}
        assert kinds[round(lo, 6)] == "saddle"
        assert kinds[round(hi, 6)] == "sink"

        report = build_report(traj, eqs)
        by_name = {r.variable: r for r in report.records}
        assert by_name["u1"].fitted_exponent == pytest.approx(-1.0, abs=0.05)
        assert by_name["u2"].fitted_exponent == pytest.approx(-2.0, abs=0.1)
        assert by_name["w1"].vanishing and by_name["w2"].vanishing
        lam, _ = estimate_decay(traj)
        tail = extrapolate_tail(traj, lam)
        for i in (3, 4):
            with pytest.raises(VanishingComponent):
                fit_rate(traj, tail, i)


def test_c07_selfsimilar_curve_and_rate():
    with criterion(
        "C07",
        "self-similar family: equilibrium curve over [1, 2] with double "
        "normal eigenvalue -chi, u rate -1/2",
        5.0,
    ):
        b = selfsimilar()
        df, traj = bundle_run(b)
        curve = trace_equilibrium_curve(
            df, (1.0, 2.0), 0.05, seed=np.array([1.0, 0.0, 1.0])
        )
        for eq, t in zip(curve.samples, curve.t_values):
            normal = sorted(eq.eigenvalues.real)[:2]
            assert normal == pytest.approx([-t, -t], rel=1e-8)
        lam, _ = estimate_decay(traj)
        tail = extrapolate_tail(traj, lam)
        slope, r2, _ = fit_rate(traj, tail, 1)
        assert slope == pytest.approx(-0.5, abs=0.02)


def test_c08_mems_equilibria_stability_rates():
    with criterion(
        "C08",
        "touchdown model: ±sqrt(2r) equilibria, stability split, w and v "
        "rates, spectrum vs finite differences",
        5.0,
    ):
        b = mems()
        df, traj = bundle_run(b)
        eqs = find_horizon_equilibria(df, grid_seeds(df, [1.0, 0.0, 0.0]))
        star = math.sqrt(2.0)  # r^(q/2) / sqrt((p-1)/2) at r = 1, p = 2, q = 1
        vals = sorted(float(e.coords[2]) for e in eqs)
        assert vals == pytest.approx([-star, star], rel=1e-10)
        minus = [e for e in eqs if e.coords[2] < 0][0]
        plus = [e for e in eqs if e.coords[2] > 0][0]
        normal_re_minus = sorted(minus.eigenvalues.real)[: df.n - 1]
        assert all(v < 0 for v in normal_re_minus)
        assert any(v.real > 0 for v in plus.eigenvalues)
        for eq in eqs:
            J_fd = fd_jacobian(lambda v: df.rhs_values(v)[:-1], eq.coords)
            eig_fd = sorted(np.linalg.eigvals(J_fd).real)
            eig = sorted(eq.eigenvalues.real)
            assert eig_fd == pytest.approx(eig, abs=1e-6)

        lam, _ = estimate_decay(traj)
        tail = extrapolate_tail(traj, lam)
        slope_w, _, _ = fit_rate(traj, tail, 1)
        slope_v, _, _ = fit_rate(traj, tail, 2)
        assert slope_w == pytest.approx(-2.0 / 3.0, abs=0.03)
        assert slope_v == pytest.approx(-5.0 / 3.0, abs=0.05)


def test_c09_horizon_invariance():
    with criterion(
        "C09",
        "horizon invariance: on-horizon starts drift below 1e-9 over "
        "tau in [0, 50] for all four systems",
        5.0,
    ):
        starts = {
            "painleve1": np.array([0.0, (1.0 - 0.5**4) ** (1.0 / 6.0), 0.5]),
            "kk_dafermos": np.array([0.0, 3.0, 0.0, 0.1, 0.1]),
            "selfsimilar": np.array([1.0, 0.0, 0.5]),
            "mems": np.array([1.0, 0.0, -1.0]),
        }
        for name, x0 in starts.items():
            df = build_field_from_config(EXAMPLES[name]())
            traj = integrate(
                df,
                x0,
                controls=IntegratorControls(tau_max=50.0, horizon_eps=0.0),
            )
            assert traj.stop_reason == "tau_exhausted", (name, traj.stop_reason)
            drift = float(np.max(np.abs(traj.gaps)))
            assert drift < 1e-9, f"{name}: horizon drift {drift}"


def test_c10_roundtrip_precision_bulk():
    with criterion(
        "C10",
        "10^5 random embed/project round trips per chart below 1e-10 "
        "relative error",
        5.0,
    ):
        rng = np.random.default_rng(20240814)
        n_pts = 100_000

        def random_block(n_vars, fixed=()):
            mag = 10.0 ** rng.uniform(-3.0, 4.0, size=(n_pts, n_vars))
            sgn = rng.choice([-1.0, 1.0], size=(n_pts, n_vars))
            y = mag * sgn
            for col, sign in fixed:
                y[:, col] = sign * np.abs(y[:, col])
            return y

        pb = painleve1()
        kk = kk_dafermos()
        mm = mems()
        cases = [
            ("parabolic", build_parabolic_desing(pb.field, pb.htype).chart, ()),
            ("directional[+]", build_field_from_config(kk).chart, ((2, 1.0),)),
            ("directional[-]", build_field_from_config(mm).chart, ((1, -1.0),)),
        ]
        for label, chart, fixed in cases:
            y = random_block(chart.n, fixed)
            coords, gap = chart.embed_array(y)
            back = chart.project_array(coords, gap)
            rel = np.max(np.abs(back - y) / np.abs(y))
            assert rel < 1e-10, f"{label}: max relative error {rel}"


def test_c11_chart_consistency(painleve):
    with criterion(
        "C11",
        "blow-up time agrees between the parabolic and directional[+u] "
        "charts to 1e-6 relative",
        5.0,
    ):
        b = painleve.bundle
        lam_p, _ = estimate_decay(painleve.traj)
        t_par, _ = estimate_tmax(painleve.traj, lam_p)

        chart_u = DirectionalChart(htype=b.htype, i0=1, sign=1)
        df_u = build_directional_desing(b.field, b.htype, chart_u)
        y0 = np.asarray(b.runs[0].y0, dtype=float)
        traj_u = integrate(df_u, embed(chart_u, y0).coords)
        lam_u, _ = estimate_decay(traj_u)
        t_dir, _ = estimate_tmax(traj_u, lam_u)
        assert t_dir == pytest.approx(t_par, rel=1e-6)


def test_c12_decay_surrogate(painleve):
    with criterion(
        "C12",
        "gap decay is cleanly exponential and matches the slow stable "
        "eigenvalue within 2%",
        5.0,
    ):
        lam, residual_slope = estimate_decay(painleve.traj)
        assert residual_slope < 0.01
        sink = [
            e for e in painleve.eqs if e.coords[1] > 0 and e.coords[2] > 0
        ][0]
        stable = [v.real for v in sink.eigenvalues if v.real < -1e-8]
        slow = min(abs(v) for v in stable)
        assert lam == pytest.approx(slow, rel=0.02)

        b = selfsimilar()
        df, traj = bundle_run(b)
        lam_ss, rs_ss = estimate_decay(traj)
        assert rs_ss < 0.01
        eq = find_horizon_equilibria(df, [traj.coords[-1]])[0]
        stable = [v.real for v in eq.eigenvalues if v.real < -1e-8]
        slow = min(abs(v) for v in stable)
        assert lam_ss == pytest.approx(slow, rel=0.02)


def test_c13_type_fixtures_and_inference():
    with criterion(
        "C13",
        "monomial classification reproduces all four fixture types; "
        "inference recovers each with weights up to 6",
        1.0,
    ):
        for name in ("painleve1", "kk_dafermos", "selfsimilar", "mems"):
            b = EXAMPLES[name]()
            rep = classify_monomials(b.field, b.htype)
            assert rep.violations == (), name
            assert any(rep.principal), name
            cands = infer_type(b.field, alpha_max=6)
            assert any(
                h.alpha == b.htype.alpha and h.k_float == b.htype.k_float
                for h in cands
            ), f"{name}: fixture type not recovered"
            first = classify_monomials(b.field, cands[0])
            assert first.violations == ()
