import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_fw_gap, grid_search_l1, wls_objective
from sparse_moe import solver
from sparse_moe import (
    ConfigError,
    SolverError,
    WlsProblem,
    enumerate_subsets,
    project_l1_ball,
    solve,
    unconstrained_wls,
)
from sparse_moe.solver import grams


class TestProjectL1Ball:
    def test_axis_point(self):
        np.testing.assert_allclose(project_l1_ball([3.0, 0.0], 1.0), [1.0, 0.0])

    def test_symmetric_split(self):
        np.testing.assert_allclose(project_l1_ball([1.0, 1.0], 1.0), [0.5, 0.5])

    def test_interior_point_untouched(self):
        v = np.array([0.2, -0.3])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_nonnegative_clamps_first(self):
        out = project_l1_ball([-5.0, 0.4], 1.0, nonnegative=True)
        np.testing.assert_allclose(out, [0.0, 0.4])

    def test_bad_radius(self):
        with pytest.raises(ConfigError):
            project_l1_ball([1.0], 0.0)

    @pytest.mark.parametrize("bad, nonneg", [(np.nan, False), (np.inf, False), (-np.inf, False),
                                             (np.nan, True), (np.inf, True)])
    def test_non_finite_vector_raises(self, bad, nonneg):
        with pytest.raises(ConfigError, match="finite"):
            project_l1_ball([bad, 1.0], 1.0, nonneg)
        with pytest.raises(ConfigError, match="finite"):
            project_l1_ball([[0.5, 0.5], [bad, 1.0]], [1.0, 2.0], nonneg)

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_overflowing_norm_raises_without_warning(self, nonneg):
        # Finite entries whose L1 norm overflows: a ConfigError, not a
        # RuntimeWarning from the running sum.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite"):
                project_l1_ball([1e308, 1e308], 1.0, nonneg)
            with pytest.raises(ConfigError, match="finite"):
                project_l1_ball([[0.5, 0.5], [1e308, 1e308]], [1.0, 2.0], nonneg)

    def test_nonnegative_clamps_minus_inf(self):
        # Clamped to the orthant first, -inf projects like 0.
        np.testing.assert_array_equal(project_l1_ball([-np.inf, 1.0], 1.0, True), [0.0, 1.0])

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=20),
        st.floats(0.01, 10.0),
        st.booleans(),
    )
    def test_feasible_and_idempotent(self, v, radius, nonneg):
        z = project_l1_ball(v, radius, nonneg)
        assert np.abs(z).sum() <= radius + 1e-12
        if nonneg:
            assert np.all(z >= 0)
        np.testing.assert_allclose(project_l1_ball(z, radius, nonneg), z, atol=1e-14)

    def test_monte_carlo_dominance(self):
        # The projection must be at least as close as any feasible sample.
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.normal(0, 2, 50)
            radius = 1.5
            z = project_l1_ball(v, radius)
            raw = rng.normal(0, 1, (100_000, 50))
            cand = raw / np.maximum(np.abs(raw).sum(axis=1, keepdims=True) / radius, 1.0)
            best = np.min(np.linalg.norm(cand - v, axis=1))
            assert np.linalg.norm(z - v) <= best + 1e-9


class TestUnconstrainedWls:
    def test_identity_design(self):
        b = np.array([1.0, -2.0, 3.0])
        z = unconstrained_wls(np.eye(3), b, np.ones(3))
        np.testing.assert_allclose(z, b, atol=1e-12)

    def test_weight_semantics(self):
        # A duplicated row with weights {2, 0} equals one row with weight 2.
        a = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, -1.0]])
        b = np.array([1.0, 5.0, 2.0])
        z1 = unconstrained_wls(a, b, np.array([2.0, 0.0, 1.0]), ridge=1e-10)
        z2 = unconstrained_wls(a[[0, 2]], b[[0, 2]], np.array([2.0, 1.0]), ridge=1e-10)
        np.testing.assert_allclose(z1, z2, atol=1e-8)

    def test_against_extended_precision(self, rng):
        a = rng.normal(0, 1, (5, 3))
        b = rng.normal(0, 1, 5)
        w = rng.uniform(0.5, 2.0, 5)
        z = unconstrained_wls(a, b, w)
        al, bl, wl = a.astype(np.longdouble), b.astype(np.longdouble), w.astype(np.longdouble)
        gram = (al * wl[:, None]).T @ al
        ref = np.linalg.solve(gram.astype(float), (al.T @ (wl * bl)).astype(float))
        np.testing.assert_allclose(z, ref, atol=1e-10)

    def test_singular_raises(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SolverError):
            unconstrained_wls(a, np.array([1.0, 2.0]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_bad_weights(self, bad):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ConfigError, match="row weights"):
            unconstrained_wls(a, np.ones(3), [1.0, bad, 1.0])
        with pytest.raises(ConfigError, match="row weights"):
            unconstrained_wls(a, np.ones((3, 2)), [[1.0, 1.0], [1.0, bad], [1.0, 1.0]])

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_rejects_bad_ridge(self, rng, ridge):
        with pytest.raises(ConfigError, match="ridge"):
            unconstrained_wls(rng.normal(0, 1, (10, 3)), np.ones(10), np.ones(10), ridge=ridge)

    @pytest.mark.parametrize("ridge", [0.0, 1e-8])
    def test_matrix_target_matches_column_calls(self, rng, ridge):
        a = np.column_stack([rng.normal(0, 1, (40, 5)), np.ones(40)])
        b = rng.normal(0, 1, (40, 3))
        w = rng.uniform(0.1, 2.0, 40)
        z = unconstrained_wls(a, b, w, ridge=ridge)
        assert z.shape == (3, 6)
        for j in range(3):
            np.testing.assert_allclose(z[j], unconstrained_wls(a, b[:, j], w, ridge=ridge),
                                       rtol=0, atol=1e-12)


class TestSolve:
    def test_inactive_constraint_matches_normal_equations(self, rng):
        a = rng.normal(0, 1, (6, 3)) + np.eye(6, 3)
        b = rng.normal(0, 1, 6)
        w = rng.uniform(0.5, 2.0, 6)
        report = solve(WlsProblem(a, b, w, 1e9))
        ref = unconstrained_wls(a, b, w)
        np.testing.assert_allclose(report.solution, ref, atol=1e-8)

    def test_zero_target(self, rng):
        a = rng.normal(0, 1, (5, 2))
        report = solve(WlsProblem(a, np.zeros(5), np.ones(5), 1.0))
        np.testing.assert_allclose(report.solution, 0.0, atol=1e-9)
        assert report.final_objective == pytest.approx(0.0, abs=1e-15)

    def test_lasso_instance_vs_grid_oracle(self, rng):
        a = rng.normal(0, 1, (8, 2))
        b = rng.normal(0, 1, 8)
        w = rng.uniform(0.2, 1.5, 8)
        radius = 0.8
        report = solve(WlsProblem(a, b, w, radius))
        _, grid_obj = grid_search_l1(a, b, w, radius)
        assert report.final_objective <= grid_obj + 1e-4
        assert np.abs(report.solution).sum() <= radius + 1e-8

    def test_monotone_objective_trace(self, rng, monkeypatch):
        # The objective after t iterations is that of a solve capped at t.
        def objective_trace(m, p):
            a = rng.normal(0, 1, (m, p))
            b = rng.normal(0, 3, m)
            problem = WlsProblem(a, b, np.ones(m), 0.5)
            iterations = solve(problem).iterations
            trace = []
            for t in range(iterations + 1):
                monkeypatch.setattr(solver, "MAX_ITERS", t)
                trace.append(solve(problem).final_objective)
            monkeypatch.undo()
            return iterations, trace

        # The 10x4 problem certifies in the first active-set round; the
        # larger one takes more.
        _, small = objective_trace(10, 4)
        iterations, trace = objective_trace(30, 10)
        assert iterations > 0
        assert np.all(np.diff(small) <= 1e-10)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_warm_start_no_worse(self, rng):
        a = rng.normal(0, 1, (6, 3))
        b = rng.normal(0, 1, 6)
        problem = WlsProblem(a, b, np.ones(6), 0.7)
        warm = project_l1_ball(rng.normal(0, 1, 3), 0.7)
        report = solve(problem, warm_start=warm)
        assert report.final_objective <= wls_objective(a, b, np.ones(6), warm) + 1e-12

    def test_free_coordinate_unbounded(self, rng):
        # Last coordinate exempt: a pure-bias fit can exceed the radius.
        a = np.column_stack([np.zeros(6), np.ones(6)])
        b = np.full(6, 7.0)
        report = solve(WlsProblem(a, b, np.ones(6), 0.5, free_coords=(1,)))
        assert report.solution[1] == pytest.approx(7.0, abs=1e-6)

    @pytest.mark.parametrize("free", [(-1,), (4,), (1.5,), (True,), ((3,),)],
                             ids=["negative", "p", "float", "bool", "nested"])
    def test_free_coordinate_outside_design_raises(self, rng, free):
        # -1 would leave the last column both restricted and free; p,
        # non-integers, booleans and nested tuples name no column.
        a = np.column_stack([rng.normal(0, 1, (30, 3)), np.ones(30)])
        with pytest.raises(ConfigError, match="free coordinates"):
            WlsProblem(a, rng.normal(0, 3, 30), np.ones(30), 0.5, free_coords=free)

    def test_free_coordinates_held_sorted_and_unique(self, rng):
        a = np.column_stack([rng.normal(0, 1, (30, 3)), np.ones(30)])
        b = rng.normal(0, 3, 30)
        problem = WlsProblem(a, b, np.ones(30), 0.5, free_coords=[3, 0, 3])
        assert problem.free_coords == (0, 3)
        alone = solve(WlsProblem(a, b, np.ones(30), 0.5, free_coords=(0, 3)))
        assert solve(problem).solution.tobytes() == alone.solution.tobytes()

    def test_nonnegative_flag(self, rng):
        a = np.eye(3)
        b = np.array([-2.0, 0.4, 0.1])
        report = solve(WlsProblem(a, b, np.ones(3), 1.0, nonnegative=True))
        assert np.all(report.solution >= 0)
        np.testing.assert_allclose(report.solution, [0.0, 0.4, 0.1], atol=1e-8)

    def test_constant_objective_returns_feasible(self):
        report = solve(WlsProblem(np.zeros((3, 2)), np.ones(3), np.ones(3), 1.0))
        assert np.abs(report.solution).sum() <= 1.0 + 1e-12


class TestEnumerateSubsets:
    def test_singletons(self):
        assert list(enumerate_subsets(3, 1)) == [(0,), (1,), (2,)]

    def test_all_subsets(self):
        assert len(list(enumerate_subsets(3, 3))) == 7

    def test_binomial_count(self):
        subs = list(enumerate_subsets(5, 2))
        assert len(subs) == 5 + 10
        assert subs[:5] == [(0,), (1,), (2,), (3,), (4,)]

    def test_guard(self):
        with pytest.raises(ConfigError):
            list(enumerate_subsets(100, 50))

    def test_bad_budget(self):
        with pytest.raises(ConfigError):
            list(enumerate_subsets(3, 0))


def assert_certified_from_raw_design(a, b, w, radius, free, nonneg, warm, report):
    """The report of one problem is converged and feasible, its objective is
    not above its projected warm start's, and its Frank-Wolfe gap,
    recomputed from the raw design in exact arithmetic, is within
    GAP_RTOL of the scale: the larger of the objective at the origin and at
    the projected warm start, plus the gap at the origin, each with the
    free coordinates at their minimizer."""
    p = a.shape[1]
    kept = [j for j in range(p) if j not in free]
    z = report.solution
    assert report.converged
    assert np.abs(z[kept]).sum() <= radius * (1 + 1e-12)
    if nonneg:
        assert np.all(z[kept] >= 0.0)
    start = np.zeros(p)
    start[kept] = project_l1_ball(warm[kept], radius, nonneg)
    for f in free:
        rest = b - a @ start
        start[f] = (w * a[:, f]) @ rest / ((w * a[:, f]) @ a[:, f])
    start_obj = wls_objective(a, b, w, start)
    scale = (max(w @ b**2, start_obj)
             + exact_fw_gap(a, b, w, radius, np.zeros(p), free, nonneg))
    assert exact_fw_gap(a, b, w, radius, z, free, nonneg) <= solver.GAP_RTOL * scale
    assert report.final_objective <= start_obj + 1e-12 * scale


def ill_conditioned_face(eps):
    """Two nearly collinear columns whose optimum lies inside the face
    x1 + x2 = 1 of the unit ball, at (0.6, 0.4), with curvature eps^2 along
    the face.  Returns the problem and its optimal objective."""
    rng = np.random.default_rng(0)
    m = 40
    u = rng.normal(size=m)
    v = rng.normal(size=m)
    v -= (v @ u) / (u @ u) * u
    a = np.column_stack([u, u + eps * v])
    b = 5.0 * u + 0.4 * eps * v
    return WlsProblem(a, b, np.ones(m), 1.0), 16.0 * (u @ u)


class TestBatchedCertifiedSolve:
    @pytest.mark.parametrize("free, nonneg", [((), False), ((), True), ((3,), False)])
    def test_batched_columns_equal_single_solves(self, rng, free, nonneg):
        def batched_against_single(m, p, r=3):
            a = rng.normal(0, 1, (m, p))
            if free:
                a[:, 3] = 1.0
            b = rng.normal(0, 3, (m, r))
            w = rng.uniform(0.2, 2.0, m)
            warm = rng.normal(0, 1, (r, p))
            batched = solve(WlsProblem(a, b, w, 0.8, free, nonneg), warm_start=warm)
            assert batched.solution.shape == (r, p)
            for j in range(r):
                single = solve(WlsProblem(a, b[:, j], w, 0.8, free, nonneg), warm_start=warm[j])
                np.testing.assert_allclose(batched.solution[j], single.solution, rtol=0,
                                           atol=1e-12)
                assert batched.converged[j] and single.converged
            return batched

        # A 30x4 batch may certify in the first active-set round; the larger
        # one takes more.
        batched_against_single(30, 4)
        assert batched_against_single(40, 10).iterations > 0

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_gap_is_recomputable_and_within_threshold(self, rng, nonneg):
        a = rng.normal(0, 1, (12, 4))
        b = rng.normal(0, 3, 12)
        w = rng.uniform(0.5, 2.0, 12)
        radius = 0.5
        report = solve(WlsProblem(a, b, w, radius, nonnegative=nonneg))
        # The unconstrained minimizer is outside the ball, so the shortcut
        # does not certify it and the active-set rounds do.
        assert np.abs(unconstrained_wls(a, b, w)).sum() > radius
        assert report.converged
        gram = (a * w[:, None]).T @ a
        lin = a.T @ (w * b)
        g = 2.0 * (gram @ report.solution - lin)
        if nonneg:
            gap = g @ report.solution + radius * max(0.0, -g.min())
            origin_gap = 2.0 * radius * max(0.0, lin.max())
        else:
            gap = g @ report.solution + radius * np.abs(g).max()
            origin_gap = 2.0 * radius * np.abs(lin).max()
        # From a zero start the scale is the objective at the origin plus
        # the gap there.
        scale = w @ b**2 + origin_gap
        assert report.gap == pytest.approx(gap, abs=1e-9 * scale)
        assert report.gap <= solver.GAP_RTOL * scale

    @pytest.mark.parametrize("eps", [0.03, 0.01])
    def test_ill_conditioned_face_certifies_below_cap(self, eps):
        # Plain projected gradient with step-size stopping ran into the
        # 10,000-iteration cap on both instances.
        problem, best = ill_conditioned_face(eps)
        report = solve(problem)
        assert report.converged
        assert report.iterations < solver.MAX_ITERS
        # The round after the first adds the second coordinate and certifies.
        assert report.iterations <= 2
        assert report.final_objective == pytest.approx(best, rel=1e-10)
        assert np.abs(report.solution).sum() <= 1.0 + 1e-12

    def test_cap_reported_as_not_converged(self, monkeypatch):
        # The first round solves on the projection's face, x1 = 1, whose
        # minimizer does not certify; the next one adds x2 and certifies.
        problem, _ = ill_conditioned_face(0.01)
        monkeypatch.setattr(solver, "MAX_ITERS", 0)
        report = solve(problem)
        assert report.iterations == 0
        assert not report.converged
        assert report.gap > 0.0
        np.testing.assert_allclose(report.solution, [1.0, 0.0], rtol=0, atol=1e-15)
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        report = solve(problem)
        assert report.iterations == 1 and report.converged

    def test_feasible_unconstrained_optimum_needs_no_iterations(self, rng):
        a = np.column_stack([rng.normal(0, 1, (20, 3)), np.ones(20)])
        b = rng.normal(0, 1, (20, 2))
        w = rng.uniform(0.5, 2.0, 20)
        report = solve(WlsProblem(a, b, w, 100.0, free_coords=(3,)),
                       warm_start=rng.normal(0, 1, (2, 4)))
        assert report.iterations == 0
        assert np.all(report.converged)
        for j in range(2):
            np.testing.assert_allclose(report.solution[j], unconstrained_wls(a, b[:, j], w),
                                       rtol=0, atol=1e-10)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 12), st.booleans(), st.booleans(), st.floats(0.05, 5.0),
           st.integers(0, 2**32 - 1))
    def test_random_problems_certify_from_raw_design(self, p, nonneg, bias, radius, seed):
        # Every returned certificate holds when recomputed from the raw
        # design, whichever face step or FISTA step produced it.
        rng = np.random.default_rng(seed)
        m = p + int(rng.integers(1, 20))
        a = rng.normal(0, 1, (m, p)) * rng.uniform(0.1, 3.0, p)
        if bias:
            a[:, -1] = 1.0
        b = rng.normal(0, 3, m)
        w = rng.uniform(0.1, 2.0, m)
        free = (p - 1,) if bias else ()
        kept = list(range(p - len(free)))
        warm = rng.normal(0, 1, p)
        report = solve(WlsProblem(a, b, w, radius, free, nonneg), warm_start=warm)
        z = report.solution
        assert report.converged
        assert np.abs(z[kept]).sum() <= radius * (1 + 1e-12)
        if nonneg:
            assert np.all(z[kept] >= 0.0)

        gram = (a * w[:, None]).T @ a
        lin = a.T @ (w * b)

        def gap_at(x, g):
            """Frank-Wolfe gap over the ball in the restricted coordinates,
            for the gradient g of the objective with the free ones minimized."""
            worst = -g.min(initial=0.0) if nonneg else np.abs(g).max(initial=0.0)
            return g @ x + radius * worst

        def free_minimized(x_kept):
            """x_kept with the free coordinates at their exact minimizer."""
            full = np.zeros(p)
            full[kept] = x_kept
            if bias:
                full[-1] = (lin[-1] - gram[-1, kept] @ x_kept) / gram[-1, -1]
            return full

        start = free_minimized(project_l1_ball(warm[kept], radius, nonneg))
        origin = free_minimized(np.zeros(len(kept)))
        energy = w @ b**2
        start_obj = wls_objective(a, b, w, start)
        scale = (max(energy, start_obj)
                 + gap_at(np.zeros(len(kept)), 2.0 * (gram @ origin - lin)[kept]))
        gap = gap_at(z[kept], 2.0 * (gram @ z - lin)[kept])
        assert gap <= solver.GAP_RTOL * scale
        assert report.final_objective <= start_obj + 1e-12 * scale

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 12), st.booleans(), st.booleans(), st.floats(0.05, 5.0),
           st.integers(0, 2**32 - 1))
    def test_degenerate_and_badly_scaled_problems_certify(self, p, nonneg, bias, radius, seed):
        # Fewer rows than columns at times, zero and duplicated design
        # columns, about a fifth of the rows with zero weight, and column
        # scales from 1e-6 to 1e6: singular and badly conditioned supports.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, p + 20))
        a = rng.normal(0, 1, (m, p))
        kind = rng.random(p)
        a[:, kind < 0.15] = 0.0
        copies = np.flatnonzero((kind >= 0.15) & (kind < 0.35))
        a[:, copies] = a[:, rng.integers(0, p, copies.size)]
        a *= 10.0 ** rng.uniform(-6, 6, p)
        if bias:
            a[:, -1] = 1.0
        b = rng.normal(0, 3, m)
        w = rng.uniform(0.1, 2.0, m)
        w[rng.random(m) < 0.2] = 0.0
        w[0] = 1.0  # a free bias needs a weighted row
        free = (p - 1,) if bias else ()
        warm = rng.normal(0, 1, p)
        report = solve(WlsProblem(a, b, w, radius, free, nonneg), warm_start=warm)
        assert_certified_from_raw_design(a, b, w, radius, free, nonneg, warm, report)

    @pytest.mark.parametrize("seed", range(6))
    def test_wide_nonnegative_problem_with_free_bias_certifies(self, seed):
        # Five rows and eleven columns, one of them a free bias: a support of
        # more than five coordinates is singular.
        rng = np.random.default_rng(seed)
        a = np.column_stack([rng.normal(0, 1, (5, 10)), np.ones(5)])
        b = rng.normal(0, 3, (5, 3))
        w = rng.uniform(0.1, 2.0, 5)
        warm = rng.normal(0, 1, (3, 11))
        batch = solve(WlsProblem(a, b, w, 1.0, (10,), True), warm_start=warm)
        for j in range(3):
            single = solve(WlsProblem(a, b[:, j].copy(), w, 1.0, (10,), True),
                           warm_start=warm[j])
            assert batch.solution[j].tobytes() == single.solution.tobytes()
            assert_certified_from_raw_design(a, b[:, j], w, 1.0, (10,), True, warm[j], single)

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 12).flatmap(
            lambda p: st.lists(st.lists(st.floats(-100, 100), min_size=p, max_size=p),
                               min_size=1, max_size=5)),
        st.floats(0.01, 10.0),
        st.booleans(),
    )
    def test_rowwise_projection_equals_per_row_calls(self, rows, radius, nonneg):
        v = np.array(rows)
        expected = np.array([project_l1_ball(row, radius, nonneg) for row in v])
        np.testing.assert_array_equal(project_l1_ball(v, radius, nonneg), expected)


LAYOUTS = ("C", "F")


class TestBlockWeights:
    """(m, g) row weights: the r target columns form g consecutive blocks,
    block i weighted by weight column i."""

    # Each runs on a row-major and on a feature-major (Fortran) design, the
    # layout prepare_inputs builds.

    @pytest.mark.parametrize("free, nonneg", [((), False), ((), True), ((3,), False)])
    def test_blocks_equal_separate_solves_bitwise(self, rng, free, nonneg):
        m, p, g, c = 30, 4, 3, 2
        design = rng.normal(0, 1, (m, p))
        if free:
            design[:, 3] = 1.0
        b = rng.normal(0, 3, (m, g * c))
        w = rng.uniform(0.2, 2.0, (m, g))
        w[:, 1] = 0.0  # a zero-weight block (singular Gram) beside live ones
        warm = rng.normal(0, 1, (g * c, p))
        for layout in LAYOUTS:
            a = np.asarray(design, order=layout)
            joint = solve(WlsProblem(a, b, w, 0.8, free, nonneg), warm_start=warm)
            assert joint.solution.shape == (g * c, p)
            assert joint.iterations > 0
            for i in range(g):
                cols = slice(i * c, (i + 1) * c)
                alone = solve(WlsProblem(a, np.ascontiguousarray(b[:, cols]), w[:, i].copy(),
                                         0.8, free, nonneg), warm_start=warm[cols])
                assert joint.solution[cols].tobytes() == alone.solution.tobytes()
                assert joint.gap[cols].tobytes() == alone.gap.tobytes()
                np.testing.assert_array_equal(joint.converged[cols], alone.converged)

    def test_unconstrained_blocks_equal_separate_calls_bitwise(self, rng):
        m, p, g, c = 25, 3, 3, 2
        design = np.column_stack([rng.normal(0, 1, (m, p - 1)), np.ones(m)])
        b = rng.normal(0, 1, (m, g * c))
        w = rng.uniform(0.2, 2.0, (m, g))
        w[:, 2] = 0.0
        for layout in LAYOUTS:
            a = np.asarray(design, order=layout)
            joint = unconstrained_wls(a, b, w, ridge=1e-8)
            for i in range(g):
                cols = slice(i * c, (i + 1) * c)
                alone = unconstrained_wls(a, np.ascontiguousarray(b[:, cols]), w[:, i].copy(),
                                          ridge=1e-8)
                assert joint[cols].tobytes() == alone.tobytes()

    def test_unit_blocks_equal_shared_weights(self, rng):
        # g blocks of all-ones weights give the shared-weight answer.
        m, p = 20, 3
        design = rng.normal(0, 1, (m, p))
        b = rng.normal(0, 1, (m, 4))
        for layout in LAYOUTS:
            a = np.asarray(design, order=layout)
            shared = solve(WlsProblem(a, b, np.ones(m), 0.7))
            blocks = solve(WlsProblem(a, b, np.ones((m, 4)), 0.7))
            assert shared.solution.tobytes() == blocks.solution.tobytes()

    @pytest.mark.parametrize("shape", [(20, 3), (20, 0), (19, 2), (20, 2, 1)])
    def test_columns_must_split_into_equal_blocks(self, rng, shape):
        a = rng.normal(0, 1, (20, 3))
        with pytest.raises(ConfigError):
            WlsProblem(a, rng.normal(0, 1, (20, 4)), np.ones(shape), 1.0)

    def test_empty_batch_solves_to_nothing(self, rng):
        a = rng.normal(0, 1, (10, 3))
        report = solve(WlsProblem(a, np.zeros((10, 0)), np.zeros((10, 0)), 1.0, (2,)))
        assert report.solution.shape == (0, 3)
        assert report.converged.shape == (0,)


class TestNonFiniteInputs:
    """A non-finite design, target or warm start is a ConfigError, not a
    NaN solution or a RuntimeWarning from inside the solver."""

    @pytest.mark.parametrize("where", ["design", "target"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_design_and_target_must_be_finite(self, rng, where, bad):
        a, b = rng.normal(0, 1, (10, 3)), rng.normal(0, 1, (10, 2))
        (a if where == "design" else b)[4, 1] = bad
        with pytest.raises(ConfigError, match="design and targets must be finite"):
            WlsProblem(a, b, np.ones(10), 0.5, (2,))
        with pytest.raises(ConfigError, match="design and targets must be finite"):
            unconstrained_wls(a, b, np.ones(10))

    @pytest.mark.parametrize("warm", [np.zeros(5), np.full((2, 4), np.nan),
                                      np.full((2, 4), np.inf), np.zeros((2, 3))])
    def test_warm_start_must_be_r_by_p_finite_values(self, rng, warm):
        a = np.column_stack([rng.normal(0, 1, (10, 3)), np.ones(10)])
        problem = WlsProblem(a, rng.normal(0, 1, (10, 2)), np.ones(10), 0.5, (3,))
        with pytest.raises(ConfigError, match="warm start"):
            solve(problem, warm_start=warm)
        flat = solve(problem, warm_start=np.ones(8))  # any r*p finite values
        assert flat.solution.tobytes() == solve(problem, np.ones((2, 4))).solution.tobytes()


class TestFactorization:
    """solve with a prebuilt Gram stack, as the trainer hands the gate
    M-step one, against solve building its own."""

    @staticmethod
    def _problem(rng, radius, weights):
        m, p = 40, 5
        a = np.asfortranarray(np.column_stack([rng.normal(0, 1, (m, p - 1)), np.ones(m)]))
        w = rng.uniform(0.2, 2.0, (m,) if weights == "shared" else (m, 3))
        b = rng.normal(0, 3, (m, 3 * 2))
        return WlsProblem(a, b, w, radius, free_coords=(p - 1,)), rng.normal(0, 1, (6, p))

    @pytest.mark.parametrize("weights", ["shared", "blocks"])
    @pytest.mark.parametrize("radius", [0.5, 1e6])  # binding, slack
    def test_prebuilt_equals_built_bitwise(self, rng, radius, weights):
        problem, warm = self._problem(rng, radius, weights)
        gram = grams(problem.design, problem.row_weights)
        own = solve(problem, warm_start=warm)
        for _ in range(2):  # the handed-in stack is reused unchanged
            handed = solve(problem, warm_start=warm, gram=gram)
            assert handed.iterations == own.iterations
            assert handed.solution.tobytes() == own.solution.tobytes()
            assert handed.gap.tobytes() == own.gap.tobytes()
            assert handed.final_objective.tobytes() == own.final_objective.tobytes()
        assert (radius < 1e6) == (own.iterations > 0)

    @pytest.mark.parametrize("change", ["columns", "blocks"])
    def test_mismatched_factorization_raises(self, rng, change):
        # A Gram stack has no row count, and the free coordinates come
        # from the problem alone, so only its shape can mismatch.
        problem, _ = self._problem(rng, 0.5, "blocks")
        a, w = problem.design, problem.row_weights
        if change == "columns":
            a = a[:, 1:]
        else:
            w = w[:, :1]
        with pytest.raises(ConfigError, match="Gram stack"):
            solve(problem, gram=grams(a, w))


class TestMixedBlocks:
    """A batch whose columns name their weight blocks (of unequal widths)
    and carry their own radii, as the trainer's one call per EM iteration
    poses its gate and expert problems, against one single solve per
    column."""

    @staticmethod
    def _problem(rng, layout, k=3, q=2, m=40, p=5):
        """The k gate problems (one unit block of width k, or k blocks of
        width 1) followed by k expert blocks of width q, with the gate and
        expert radii, warm starts and the number of gate blocks."""
        a = np.column_stack([rng.normal(0, 1, (m, p - 1)), np.ones(m)])
        unit = layout == "unit-gate"
        gate_w = np.ones((m, 1)) if unit else rng.uniform(0.0, 2.0, (m, k)) ** 2
        gate_blocks = np.zeros(k, dtype=int) if unit else np.arange(k)
        w = np.column_stack([gate_w, rng.uniform(0.05, 1.0, (m, k))])
        blocks = np.concatenate([gate_blocks, gate_w.shape[1] + np.repeat(np.arange(k), q)])
        radius = np.concatenate([np.full(k, rng.uniform(0.2, 2.0)),
                                 np.full(k * q, rng.uniform(0.2, 2.0))])
        b = rng.normal(0, 3, (m, len(blocks)))
        warm = rng.normal(0, 1, (len(blocks), p))
        return a, b, w, blocks, radius, warm, gate_w.shape[1]

    @pytest.mark.parametrize("layout", ["unit-gate", "row-gate"])
    @pytest.mark.parametrize("seed", range(4))
    def test_columns_equal_single_solves_bitwise(self, layout, seed):
        rng = np.random.default_rng(seed)

        def joint_against_single(p):
            a, b, w, blocks, radius, warm, gate_blocks = self._problem(rng, layout, p=p)
            free = (a.shape[1] - 1,)
            radius[rng.integers(len(radius))] = 1e6  # one slack column among binding ones
            problem = WlsProblem(a, b, w, radius, free, blocks=blocks)
            joint = solve(problem, warm_start=warm)
            # The same batch on a stack of the gate's and the experts' Grams,
            # built apart.
            gram = np.concatenate([grams(a, w[:, :gate_blocks]), grams(a, w[:, gate_blocks:])])
            handed = solve(problem, warm_start=warm, gram=gram)
            for j in range(b.shape[1]):
                single = solve(WlsProblem(a, b[:, j].copy(), w[:, blocks[j]].copy(), radius[j],
                                          free), warm_start=warm[j])
                for report in (joint, handed):
                    assert report.solution[j].tobytes() == single.solution.tobytes()
                    assert report.gap[j] == single.gap
                    assert report.final_objective[j] == single.final_objective
                    assert report.converged[j] == single.converged
            return joint

        # A batch of width 5 may certify before the first FISTA step; the
        # wider one runs the loop.
        joint_against_single(5)
        assert joint_against_single(10).iterations > 0

    def test_joined_factorization_equals_whole(self, rng):
        # The part Grams, stacked, equal the whole stack bit for bit.
        a, _, w, *_ = self._problem(rng, "unit-gate")
        stacked = np.concatenate([grams(a, w[:, :1]), grams(a, w[:, 1:])])
        assert stacked.tobytes() == grams(a, w).tobytes()

    def test_rounds_only_for_uncertified_columns(self, rng, monkeypatch):
        # The gate's unit block has a radius so large that the unconstrained
        # shortcut certifies its columns; only the expert columns enter the
        # active-set rounds, each with its block's Schur complement.  The
        # design is wide enough that every expert column takes a round.
        a, b, w, blocks, radius, warm, gate_blocks = self._problem(rng, "unit-gate", p=10)
        free = (a.shape[1] - 1,)
        radius[blocks < gate_blocks] = 1e6
        problem = WlsProblem(a, b, w, radius, free, blocks=blocks)
        # The expert blocks' Schur complements of the free (bias) block.
        gram = grams(a, w)[gate_blocks:]
        g_kf, g_ff = gram[:, :-1, -1:], gram[:, -1:, -1:]
        schur = gram[:, :-1, :-1] - g_kf @ np.linalg.inv(g_ff) @ g_kf.transpose(0, 2, 1)
        # Each system is equilibrated: the Schur complement scaled by the
        # powers of two that bring its diagonal near 1.
        unit = np.ldexp(1.0, -(np.frexp(np.diagonal(schur, axis1=1, axis2=2))[1] // 2))
        scaled = unit[:, :, None] * schur * unit[:, None, :]
        systems = []
        support_step = solver._support_step

        def spy(x, half_grad, sign, s, *rest):
            systems.append([m.tobytes() for m in s])
            return support_step(x, half_grad, sign, s, *rest)

        monkeypatch.setattr(solver, "_support_step", spy)
        joint = solve(problem, warm_start=warm)
        assert joint.iterations > 0
        experts = [scaled[i - gate_blocks].tobytes() for i in blocks[blocks >= gate_blocks]]
        assert systems[0] == experts
        assert len(systems) == joint.iterations + 1
        monkeypatch.undo()
        for j in range(b.shape[1]):
            single = solve(WlsProblem(a, b[:, j].copy(), w[:, blocks[j]].copy(), radius[j], free),
                           warm_start=warm[j])
            assert joint.solution[j].tobytes() == single.solution.tobytes()
            assert joint.converged[j] == single.converged

    @pytest.mark.parametrize("blocks", [[0, 1, 1], [0, 1, 1, 2, 0], [0, 1, 2, 3],
                                        [0, -1, 1, 2], [0.0, 1.0, 1.0, 2.0]])
    def test_bad_block_index_raises(self, rng, blocks):
        # Four target columns over three weight blocks: wrong length, out of
        # range, negative, not integers.
        a = rng.normal(0, 1, (10, 3))
        with pytest.raises(ConfigError, match="block index"):
            WlsProblem(a, rng.normal(0, 1, (10, 4)), np.ones((10, 3)), 1.0, blocks=blocks)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_bad_radius_entry_raises(self, rng, bad):
        a = rng.normal(0, 1, (10, 3))
        b = rng.normal(0, 1, (10, 4))
        problem = WlsProblem(a, b, np.ones(10), [1.0, 2.0, 0.5, 1.0])
        with pytest.raises(ConfigError, match="radius"):
            WlsProblem(a, b, np.ones(10), [1.0, 2.0, bad, 1.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.radius = np.array([1.0, bad, 0.5, 1.0])

    def test_problem_holds_checked_fields(self, rng, monkeypatch):
        # One shared weight vector and radius, no block index: the problem
        # holds them as (m, 1) weights and (r,) radii and blocks, and solve
        # reads them without checking the batch again.
        a = rng.normal(0, 1, (10, 3))
        b = rng.normal(0, 1, (10, 4))
        problem = WlsProblem(a.tolist(), b, np.ones(10), 0.5, [2])
        assert problem.design.dtype == float and problem.design.shape == (10, 3)
        assert problem.row_weights.shape == (10, 1)
        assert problem.radius.tolist() == [0.5] * 4
        assert problem.blocks.tolist() == [0] * 4
        assert problem.free_coords == (2,)
        expected = solve(problem)
        monkeypatch.setattr(solver, "_blocks", None)
        assert solve(problem).solution.tobytes() == expected.solution.tobytes()

    def test_radius_of_wrong_length_raises(self, rng):
        a = rng.normal(0, 1, (10, 3))
        with pytest.raises(ConfigError, match="radius"):
            WlsProblem(a, rng.normal(0, 1, (10, 4)), np.ones(10), [1.0, 2.0, 0.5])

    def test_factorization_block_count_must_match(self, rng):
        # A Gram stack one block short of the problem's weight blocks.
        a, b, w, blocks, radius, *_ = self._problem(rng, "unit-gate")
        problem = WlsProblem(a, b, w, radius, (4,), blocks=blocks)
        short = np.concatenate([grams(a, w[:, :1]), grams(a, w[:, 2:])])
        with pytest.raises(ConfigError, match="Gram stack"):
            solve(problem, gram=short)


class TestFaceStepBeforeLoop:
    """The first active-set round, an exact solve on the face of the ball
    that holds the projected unconstrained minimizer, and the rounds after
    it."""

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_orthonormal_design_certifies_without_iterating(self, rng, nonneg):
        # With A'A = I the constrained minimizer is the projection of the
        # unconstrained one, A'b: the projection's face is the optimal face.
        q, _ = np.linalg.qr(rng.normal(0, 1, (40, 6)))
        b = rng.normal(0, 1, (40, 4))
        report = solve(WlsProblem(q, b, np.ones(40), 0.7, nonnegative=nonneg))
        assert report.iterations == 0
        assert report.converged.all()
        np.testing.assert_allclose(report.solution, project_l1_ball((q.T @ b).T, 0.7, nonneg),
                                   rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_batches_certify_without_rising(self, seed, nonneg):
        # Mixed weight blocks, per-column radii and a free bias: every
        # column's certificate holds when recomputed from the raw design,
        # and no column ends above its projected warm start.
        rng = np.random.default_rng(seed)
        p, g, r = int(rng.integers(2, 11)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        m = p + int(rng.integers(1, 40))
        a = np.column_stack([rng.normal(0, 1, (m, p - 1)), np.ones(m)])
        b = rng.normal(0, 3, (m, r))
        w = rng.uniform(0.05, 2.0, (m, g))
        blocks = rng.integers(0, g, r)
        radius = rng.uniform(0.05, 5.0, r)
        warm = rng.normal(0, 1, (r, p))
        report = solve(WlsProblem(a, b, w, radius, (p - 1,), nonneg, blocks), warm_start=warm)
        kept = slice(0, p - 1)
        for j in range(r):
            wj, bj, rad, z = w[:, blocks[j]], b[:, j], radius[j], report.solution[j]
            gram = (a * wj[:, None]).T @ a
            lin = a.T @ (wj * bj)

            def gap_at(x, grad):
                worst = -grad.min(initial=0.0) if nonneg else np.abs(grad).max(initial=0.0)
                return grad @ x + rad * worst

            def bias_minimized(x_kept):
                return np.append(x_kept, (lin[-1] - gram[-1, kept] @ x_kept) / gram[-1, -1])

            start = bias_minimized(project_l1_ball(warm[j, kept], rad, nonneg))
            origin = bias_minimized(np.zeros(p - 1))
            start_obj = wls_objective(a, bj, wj, start)
            scale = (max(wj @ bj**2, start_obj)
                     + gap_at(np.zeros(p - 1), 2.0 * (gram @ origin - lin)[kept]))
            assert report.converged[j]
            assert gap_at(z[kept], 2.0 * (gram @ z - lin)[kept]) <= solver.GAP_RTOL * scale
            assert report.final_objective[j] <= start_obj + 1e-12 * scale


class TestGramReference:
    """Both solvers against an independent reference, np.linalg.lstsq on
    sqrt(w)-scaled rows, under block weights that span 1e-12 to 1e6 and
    include exact zeros."""

    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        m, p, g, c = 60, 5, 3, 2
        a = np.column_stack([rng.normal(0, 1, (m, p - 1)), np.ones(m)])
        b = rng.normal(0, 1, (m, g * c))
        w = 10.0 ** rng.uniform(-12, 6, (m, g))
        w[rng.random((m, g)) < 0.2] = 0.0
        w[0], w[1], w[2] = 1e-12, 1e6, 0.0
        return a, b, w, c

    @staticmethod
    def _lstsq(a, b, w, c):
        solutions = []
        for i in range(w.shape[1]):
            root = np.sqrt(w[:, i])[:, None]
            z, *_ = np.linalg.lstsq(a * root, b[:, i * c:(i + 1) * c] * root, rcond=None)
            solutions.append(z.T)
        return np.vstack(solutions)

    @pytest.mark.parametrize("seed", range(5))
    def test_unconstrained_matches_lstsq(self, seed):
        a, b, w, c = self._case(seed)
        ref = self._lstsq(a, b, w, c)
        np.testing.assert_allclose(unconstrained_wls(a, b, w), ref,
                                   rtol=0, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("free", [(), (4,)])
    def test_inactive_solve_matches_lstsq(self, seed, free):
        a, b, w, c = self._case(seed)
        ref = self._lstsq(a, b, w, c)
        report = solve(WlsProblem(a, b, w, 1e9, free))
        np.testing.assert_allclose(report.solution, ref, rtol=0, atol=1e-9 * np.abs(ref).max())
        weights = np.repeat(w, c, axis=1)
        residual = (weights * (a @ ref.T - b) ** 2).sum(axis=0)
        np.testing.assert_allclose(report.final_objective, residual, rtol=1e-9)
