"""The batched Gauss-Newton equilibrium search against a per-seed reference.

``_scalar_gauss_newton`` is the per-seed solver the batched one replaced,
kept here verbatim (one ``lstsq`` per iteration, DomainError for points
outside the domain).  Swapping it in for ``dynamics._gauss_newton``, one
member at a time, gives the reference listing; the batched solver must
find the same points with the same classifications.
"""

import dataclasses
import math

import numpy as np
import pytest

from horizon_lab import (
    DesingField,
    DirectionalChart,
    DomainError,
    EigenFailure,
    HorizonLabError,
    FieldSpec,
    HomogeneityType,
    Monomial,
    build_directional_desing,
    build_parabolic_desing,
    embed,
    find_horizon_equilibria,
    grid_seeds,
    integrate,
    trace_equilibrium_curve,
)
from horizon_lab import dynamics
from horizon_lab.cli import build_field_from_config
from horizon_lab.systems import example_names, make_example, painleve1, selfsimilar

from conftest import workload_config


def _scalar_gauss_newton(residual, jac, x0, max_iter=60):
    """Damped Gauss-Newton on a rectangular system; returns (x, |r|)."""
    x = np.asarray(x0, dtype=float).copy()
    try:
        r = residual(x)
    except DomainError:
        return x, math.inf
    rnorm = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if rnorm < 1e-14:
            break
        try:
            J = jac(x)
        except DomainError:
            break
        delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        step = float(np.linalg.norm(delta))
        if not math.isfinite(step) or step == 0.0:
            break
        improved = False
        for _halve in range(30):
            try:
                r_new = residual(x + delta)
            except DomainError:
                delta *= 0.5
                continue
            rn = float(np.linalg.norm(r_new))
            if rn < rnorm or (rn == rnorm and step > 1e-14):
                x = x + delta
                r, rnorm = r_new, rn
                improved = True
                break
            delta *= 0.5
        if not improved:
            break
        if step < 1e-15 * (1.0 + float(np.linalg.norm(x))):
            break
    return x, rnorm


def _per_seed(residual, jac, x0, max_iter=60):
    """The batched solver's interface, served one seed at a time by the
    scalar reference."""
    def member(fn, i):
        rows = np.array([i])

        def call(v):
            out = fn(np.asarray(v, dtype=float)[None, :], rows)[0]
            if not np.all(np.isfinite(out)):
                raise DomainError("point outside the domain")
            return out

        return call

    x0 = np.asarray(x0, dtype=float)
    xs = np.empty_like(x0)
    rs = []
    for i in range(len(x0)):
        xs[i], _ = _scalar_gauss_newton(member(residual, i), member(jac, i),
                                        x0[i], max_iter)
        with np.errstate(all="ignore"):
            rs.append(residual(xs[i][None, :], np.array([i]))[0])
    return xs, np.array(rs).reshape(len(x0), -1)


def _both(monkeypatch, search):
    """Run ``search()`` with the batched solver, then with the reference."""
    got = search()
    with monkeypatch.context() as mp:
        mp.setattr(dynamics, "_gauss_newton", _per_seed)
        want = search()
    return got, want


def assert_same_listing(got, want):
    assert len(got) == len(want)
    assert [e.classification for e in got] == [e.classification for e in want]
    for a, b in zip(got, want):
        assert np.max(np.abs(a.coords - b.coords)) <= 1e-12
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-12


@pytest.mark.parametrize("name", example_names())
def test_example_listing_matches_reference(monkeypatch, name):
    b = make_example(name)
    df = build_field_from_config(b)
    anchor = embed(df.chart, np.asarray(b.runs[0].y0, dtype=float)).coords
    got, want = _both(
        monkeypatch, lambda: find_horizon_equilibria(df, grid_seeds(df, anchor))
    )
    assert got
    assert_same_listing(got, want)


@pytest.mark.parametrize("workload", ["kk_sweep", "mems_sweep", "painleve1_cli"])
def test_workload_targets_match_reference(monkeypatch, workload):
    """Seed 1 of each benchmark config: the global listing and every run's
    endpoint target."""
    config = workload_config(workload, 1)
    df = build_field_from_config(config)
    anchors = []
    for run in config.runs:
        pt = embed(df.chart, np.asarray(run.y0, dtype=float))
        anchors.append(integrate(df, pt.coords, t0=run.t0).coords[-1])
    first = embed(df.chart, np.asarray(config.runs[0].y0, dtype=float)).coords
    got, want = _both(
        monkeypatch, lambda: find_horizon_equilibria(df, grid_seeds(df, first))
    )
    assert got
    assert_same_listing(got, want)
    for end in anchors:
        got, want = _both(
            monkeypatch, lambda: find_horizon_equilibria(df, [end])
        )
        assert len(got) == 1
        assert_same_listing(got, want)


def test_explicit_seeds_and_slices_match_reference(monkeypatch):
    b = painleve1()
    df = build_parabolic_desing(b.field, b.htype)
    for t in (0.0, 0.7, -1.3):
        seeds = [np.array([t, 0.62, 0.98]), np.array([t, 0.6, -0.9])]
        got, want = _both(
            monkeypatch,
            lambda: find_horizon_equilibria(df, seeds),
        )
        assert len(got) == 2
        assert_same_listing(got, want)
    kk = build_field_from_config(make_example("kk_dafermos"))
    for chi in (0.0, 0.4):
        seeds = [np.array([chi, 1.0, 0.0, 0.2, -0.1])]
        got, want = _both(
            monkeypatch,
            lambda: find_horizon_equilibria(kk, seeds),
        )
        assert_same_listing(got, want)
        assert all(e.coords[0] == chi for e in got)


def test_curve_continuation_matches_reference(monkeypatch):
    df = build_field_from_config(selfsimilar())
    got, want = _both(
        monkeypatch,
        lambda: trace_equilibrium_curve(
            df, (1.0, 2.0), 0.1, seed=np.array([1.0, 0.0, 1.0])
        ).samples,
    )
    assert_same_listing(got, want)


def test_zero_free_columns_match_reference(monkeypatch):
    # y' = y^2 on the directional chart over y > 0: the pivot s is the only
    # coordinate, so the solve has no column and the seed is the answer
    fs = FieldSpec(variable_names=("y",), components=((Monomial(1.0, (2,)),),))
    ht = HomogeneityType(alpha=(1,), k=1)
    df = build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=0, sign=1))
    got, want = _both(
        monkeypatch, lambda: find_horizon_equilibria(df, grid_seeds(df, [0.0]))
    )
    assert len(got) == 1 and got[0].classification == "sink"
    assert got[0].coords[0] == 0.0
    assert_same_listing(got, want)


def test_zero_free_columns_with_live_residual_match_reference(monkeypatch):
    # y' = y^2, v' = y with v of weight 0 on the directional chart over
    # y > 0: s and v are held, so the solve has no column, and v' = y keeps
    # the residual nonzero on the horizon; the step is empty, not an error
    fs = FieldSpec(
        variable_names=("y", "v"),
        components=((Monomial(1.0, (2, 0)),), (Monomial(1.0, (1, 0)),)),
    )
    ht = HomogeneityType(alpha=(1, 0), k=1)
    df = build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=0, sign=1))
    assert df.free_slots == ()
    got, want = _both(
        monkeypatch, lambda: find_horizon_equilibria(df, grid_seeds(df, [0.0, 0.0]))
    )
    assert got == want == []


def test_rank_deficient_seed_matches_reference(monkeypatch):
    # at (u, v) = (-1, 0) on painleve1's horizon the 3x2 Jacobian of
    # [g_u, g_v, P - 1] over (u, v) has rank 1
    df = build_parabolic_desing(painleve1().field, painleve1().htype)
    seed = np.array([0.0, -1.0, 0.0])
    free = list(df.free_slots)
    grad_P = [0.0, 6 * seed[1] ** 5, 4 * seed[2] ** 3]  # of P = u^6 + v^4
    J = np.vstack([df.jacobian(seed), grad_P])[:, free]
    assert np.linalg.matrix_rank(J) == 1
    seeds = [seed, np.array([0.0, -0.9, 0.3])]
    got, want = _both(
        monkeypatch, lambda: find_horizon_equilibria(df, seeds)
    )
    assert_same_listing(got, want)


@pytest.mark.parametrize(
    "rows, small, path",
    [
        (3, 1e-9, "svd"),
        (3, 0.0, "svd"),
        (2, 1e-9, "solve"),
        (2, 1e-13, "svd"),
        (2, 0.0, "svd"),
    ],
    ids=["ill_conditioned", "singular", "square_solve", "square_svd_kept",
         "square_svd_dropped"],
)
def test_linear_step_keeps_lstsq_rank_cutoff(monkeypatch, rows, small, path):
    # r(x) = A x - b: the first step is the least-squares solution, and the
    # cutoff keeps a singular value 1e-9 or 1e-13 of the largest but drops a
    # zero one.  The square system solves directly only while its condition
    # bound ||A||_F^2 / |det A| stays below 1e12, as it does at 1e-9.
    A = np.array([[1.0, 0.0], [0.0, small], [0.0, 0.0]])[:rows]
    b = np.array([1.0, 1e-9, 0.5])[:rows]
    used = []
    for name in ("solve", "svd"):
        def spy(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            used.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    x, r = dynamics._gauss_newton(
        lambda v, rows: v @ A.T - b,
        lambda v, rows: np.broadcast_to(A, (len(v),) + A.shape),
        np.zeros((1, 2)),
    )
    monkeypatch.undo()
    assert used[0] == path
    want, *_ = np.linalg.lstsq(A, b, rcond=None)
    assert np.allclose(x[0], want, rtol=1e-12, atol=0.0)
    assert np.allclose(x[0], [1.0, 1e-9 / small if small else 0.0],
                       rtol=1e-12, atol=0.0)
    ref, _ = _scalar_gauss_newton(lambda v: A @ v - b, lambda v: A, np.zeros(2))
    assert np.allclose(x[0], ref, rtol=1e-12, atol=0.0)
    unexplained = 0.5 if rows == 3 else (0.0 if small else 1e-9)
    assert np.linalg.norm(r[0]) == pytest.approx(unexplained, rel=1e-12, abs=1e-20)


def test_live_rows_of_the_examples():
    # kk: chi' = 0 and the pivot row u2' carries s; mems: the time row r'
    # and the pivot row w' carry s; painleve1: the time row t' is q W**k;
    # kk on the parabolic chart: chi' = 0 is empty
    rows = {name: build_field_from_config(make_example(name)).horizon_rows
            for name in example_names()}
    assert rows["kk_dafermos"] == (1, 3, 4)
    assert rows["mems"] == (2,)
    assert rows["painleve1"] == (1, 2)
    kk = build_field_from_config(make_example("kk_dafermos"))
    parabolic_kk = build_parabolic_desing(kk.source, kk.htype)
    assert parabolic_kk.horizon_rows == (1, 2, 3, 4)


def test_one_s_free_term_keeps_a_row_live():
    # the pivot row of a desingularized field always carries s; add one
    # term without it
    kk = build_field_from_config(make_example("kk_dafermos"))
    pivot = kk.chart.i0
    comps = list(kk.components)
    assert all(exps[pivot] > 0 for exps in comps[pivot])
    exps = next(iter(comps[pivot]))
    s_free = tuple(0 if j == pivot else e for j, e in enumerate(exps))
    comps[pivot] = {**comps[pivot], s_free: 0.5}
    changed = dataclasses.replace(kk, components=tuple(comps))
    assert changed.horizon_rows == (1, 2, 3, 4)
    # the pivot's horizon row is that term alone
    assert changed.horizon_rhs_array(np.ones((1, kk.n)))[0, 1] == 0.5


def test_singular_dead_row_still_rejects_its_seed(monkeypatch):
    # r' = 1/r, y' = y^2, z' = -y z over y > 0: the rows of r and of the
    # pivot carry s and are not on the horizon, but at r = 0 the full
    # field's r row raises, so a point found there is dropped
    fs = FieldSpec(
        variable_names=("r", "y", "z"),
        components=((Monomial(1.0, (-1, 0, 0)),), (Monomial(1.0, (0, 2, 0)),),
                    (Monomial(-1.0, (0, 1, 1)),)),
    )
    ht = HomogeneityType(alpha=(0, 1, 1), k=1)
    df = build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=1, sign=1))
    assert df.horizon_rows == (2,)
    seeds = [[0.0, 0.0, 0.3], [2.0, 0.0, 0.3]]
    got, want = _both(monkeypatch, lambda: find_horizon_equilibria(df, seeds))
    assert [e.t_slice for e in got] == [None]
    assert got[0].coords.tolist() == [2.0, 0.0, 0.0]
    assert_same_listing(got, want)
    # with no horizon row, the full field still rejects the seed at r = 0
    fs = FieldSpec(
        variable_names=("r", "y"),
        components=((Monomial(1.0, (-1, 0)),), (Monomial(1.0, (0, 2)),)),
    )
    ht = HomogeneityType(alpha=(0, 1), k=1)
    df = build_directional_desing(fs, ht, DirectionalChart(htype=ht, i0=1, sign=1))
    assert df.horizon_rows == ()
    assert [e.coords.tolist() for e in
            find_horizon_equilibria(df, [[0.0, 0.0], [2.0, 0.0]])] == [[2.0, 0.0]]


def test_bad_seed_leaves_good_seed_alone():
    # x' = -100 x, y' = y^2 + sqrt(x) y^2: with x frozen, the seed at
    # x = -1 takes a fractional power of a negative base everywhere, in a
    # term with no power of W, so on the horizon too
    fs = FieldSpec(
        variable_names=("x", "y"),
        components=((Monomial(-100.0, (1, 0)),),
                    (Monomial(1.0, (0, 2)), Monomial(1.0, (0.5, 2)))),
    )
    df = build_parabolic_desing(fs, HomogeneityType(alpha=(0, 1), k=1))
    good = np.array([0.25, 0.3])
    bad = np.array([-1.0, 0.3])
    solo = find_horizon_equilibria(df, [good])
    mixed = find_horizon_equilibria(df, [bad, good])
    assert len(solo) == len(mixed) == 1
    assert np.array_equal(solo[0].coords, mixed[0].coords)
    assert np.array_equal(solo[0].eigenvalues, mixed[0].eigenvalues)
    assert solo[0].residual == mixed[0].residual

    # the solver alone: the bad member keeps its non-finite residual and the
    # good one follows exactly the path it takes on its own
    def solve(frozen):
        def points(v, idx):
            return np.column_stack([np.asarray(frozen)[idx], v])

        # the evaluators leave the floating-point error state to their caller
        with np.errstate(all="ignore"):
            return dynamics._gauss_newton(
                lambda v, idx: df.horizon_rhs_array(points(v, idx)),
                lambda v, idx: df.horizon_jacobian_array(points(v, idx)),
                np.full((len(frozen), 1), 0.3),
            )

    x, r = solve([-1.0, 0.25])
    x_solo, r_solo = solve([0.25])
    assert not np.all(np.isfinite(r[0]))
    assert np.array_equal(x[1], x_solo[0]) and np.array_equal(r[1], r_solo[0])


def test_selfsimilar_double_zero_listed_once():
    # at t = 0 the v-equation reduces to -v^2: the solve stops at |r| < 1e-14
    # about sqrt(|r|) from the double zero, on both sides of it
    df = build_field_from_config(selfsimilar())
    eqs = find_horizon_equilibria(df, grid_seeds(df, np.zeros(3)))
    assert len(eqs) == 1
    assert eqs[0].classification == "nonhyperbolic"
    assert abs(eqs[0].coords[2]) < 1e-7
    for t in (0.5, 1.5):
        eqs = find_horizon_equilibria(df, grid_seeds(df, [t, 0.0, 0.0]))
        kinds = sorted(e.classification for e in eqs)
        assert kinds == ["nonhyperbolic", "sink"]


def test_direct_norms_are_np_linalg_norms():
    rng = np.random.default_rng(3)
    for m, p, k in [(1, 1, 1), (1, 3, 2), (7, 5, 4), (343, 3, 3), (4, 0, 2)]:
        scale = 10.0 ** rng.uniform(-150, 150, (m, 1, 1))
        J = rng.standard_normal((m, p, k)) * scale
        r = J[:, :, 0] if k else np.zeros((m, p))
        assert dynamics._norms(r).tobytes() == np.linalg.norm(r, axis=1).tobytes()
        assert (dynamics._norms(J, (1, 2)).tobytes()
                == np.linalg.norm(J, axis=(1, 2)).tobytes())


def _counted(fn, calls):
    def call(v, rows):
        calls.append(len(rows))
        return fn(v, rows)

    return call


def test_member_at_a_nonzero_minimum_stops_early():
    # r(x) = (x^2, 1): the least-squares minimum x = 0 leaves |r| = 1, and
    # each Gauss-Newton step only halves x, so without the stationary stop
    # the member would iterate until its step fell below 1e-15
    calls = []
    x, r = dynamics._gauss_newton(
        lambda v, rows: np.column_stack([v[:, 0] ** 2, np.ones(len(v))]),
        _counted(lambda v, rows: np.stack([2.0 * v, np.zeros_like(v)], axis=1),
                 calls),
        np.array([[1.0], [-0.8]]),
    )
    # the step is -x/2, so |J delta| / |r| = x^2 / sqrt(1 + x^4) falls
    # below 1e-3 once |x| < 0.0317, on the sixth point of the halving
    # sequence
    assert len(calls) == 6
    assert np.all(np.abs(x[:, 0]) < 0.0317) and np.all(np.abs(x[:, 0]) > 0.015)
    assert np.all(np.abs(r[:, 1]) == 1.0)


def test_member_with_linear_progress_is_not_stopped():
    # r(x) = (x, x) with a Jacobian twice the true one: each step halves x
    # and |r|, the residual lies in the range of J throughout, and the
    # member runs on until |r| < 1e-14
    calls = []
    x, r = dynamics._gauss_newton(
        lambda v, rows: np.column_stack([v[:, 0], v[:, 0]]),
        _counted(lambda v, rows: np.full((len(v), 2, 1), 2.0), calls),
        np.array([[1.0]]),
    )
    # sqrt(2) 2^-k < 1e-14 first holds at k = 48
    assert len(calls) == 48
    assert x[0, 0] == pytest.approx(2.0 ** -48, rel=1e-12)
    assert np.linalg.norm(r[0]) < 1e-14


def test_degenerate_zero_of_a_two_slot_system_is_found():
    # r(x, y) = (x^2, 10 y) has a nonhyperbolic double zero at the origin:
    # from (0.1, 1) the first step sets y = 0 and each later one halves x,
    # so |J^T r| / (|J|_F |r|) = 2x / 10 shrinks with x while r stays in
    # the range of J.  The member is no stationary point and runs on until
    # |r| < 1e-14
    def jac(v, rows):
        J = np.zeros((len(v), 2, 2))
        J[:, 0, 0], J[:, 1, 1] = 2.0 * v[:, 0], 10.0
        return J

    x, r = dynamics._gauss_newton(
        lambda v, rows: np.column_stack([v[:, 0] ** 2, 10.0 * v[:, 1]]),
        jac,
        np.array([[0.1, 1.0]]),
    )
    assert np.linalg.norm(r[0]) < 1e-14
    assert 0.0 < x[0, 0] < 1e-7 and x[0, 1] == 0.0


def test_painleve1_listing_drops_hopeless_seeds_early(monkeypatch):
    # of painleve1's 48 grid seeds, the ones that find nothing settle at a
    # nonzero least-squares minimum; they stop there and the listing is the
    # same two points
    df = build_parabolic_desing(painleve1().field, painleve1().htype)
    seeds = grid_seeds(df, np.zeros(3))
    rows = []
    solve = dynamics._gauss_newton

    def counting(residual, jac, x0):
        return solve(residual, _counted(jac, rows), x0)

    monkeypatch.setattr(dynamics, "_gauss_newton", counting)
    eqs = find_horizon_equilibria(df, seeds)
    assert len(seeds) == 48 and len(eqs) == 2
    assert len(rows) <= 15 and sum(rows) <= 400


def _single(df, seed):
    """``find_horizon_equilibria(df, [seed])``, or the error it raises."""
    try:
        return find_horizon_equilibria(df, [seed])
    except HorizonLabError as exc:
        return exc


def _same_bits(a, b):
    """Two search results with the same bits: the same exception, or the
    same equilibria."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return len(a) == len(b) and all(
        x.coords.tobytes() == y.coords.tobytes()
        and x.residual.hex() == y.residual.hex()
        and x.eigenvalues.tobytes() == y.eigenvalues.tobytes()
        and x.classification == y.classification
        and x.tangential_dims == y.tangential_dims
        and x.t_slice == y.t_slice
        for x, y in zip(a, b)
    )


def _example_end(name):
    cfg = make_example(name)
    df = build_field_from_config(cfg)
    run = cfg.runs[0]
    traj = integrate(df, embed(df.chart, np.asarray(run.y0)).coords,
                     t0=run.t0, controls=run.controls)
    return df, traj.coords[-1]


@pytest.mark.parametrize("name", example_names())
def test_per_seed_search_equals_single_seed_searches(name):
    """One stacked search gives every seed the bits of its own search: the
    example's endpoint, beside a seed whose residual overflows (it never
    converges) and a seed that is not finite."""
    df, end = _example_end(name)
    seeds = [end, np.full(df.n, 1e200), end, np.full(df.n, np.nan)]
    block = dynamics.horizon_equilibria_per_seed(df, seeds)
    assert len(block) == len(seeds)
    for seed, entry in zip(seeds, block):
        assert _same_bits(entry, _single(df, seed))
    assert len(block[0]) == 1 and block[1] == []
    assert isinstance(block[3], DomainError)
    # alone, the endpoint gets the same bits as in the block
    (alone,) = dynamics.horizon_equilibria_per_seed(df, [end])
    assert _same_bits(alone, block[0])


def test_per_seed_search_keeps_an_eigen_failure_in_its_seed(monkeypatch):
    """A Jacobian that the eigenvalue iteration rejects fails its own seed
    with EigenFailure; the other seeds of the stack keep their bits."""
    df, end = _example_end("painleve1")
    late = end.copy()
    late[0] += 1.0  # the same equilibrium on a later time slice
    jacobian = DesingField.jacobian

    def nan_on_late_slices(self, coords):
        J = jacobian(self, coords)
        return J * np.nan if coords[0] > end[0] + 0.5 else J

    monkeypatch.setattr(DesingField, "jacobian", nan_on_late_slices)
    seeds = [end, late, end]
    block = dynamics.horizon_equilibria_per_seed(df, seeds)
    assert isinstance(block[1], EigenFailure)
    assert len(block[0]) == 1
    for seed, entry in zip(seeds, block):
        assert _same_bits(entry, _single(df, seed))
