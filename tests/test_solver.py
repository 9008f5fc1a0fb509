import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_l1, wls_objective
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

    def test_monotone_objective_trace(self, rng):
        a = rng.normal(0, 1, (10, 4))
        b = rng.normal(0, 3, 10)
        report = solve(WlsProblem(a, b, np.ones(10), 0.5), collect_trace=True)
        trace = np.array(report.objective_trace)
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
        m, p, r = 30, 4, 3
        a = rng.normal(0, 1, (m, p))
        if free:
            a[:, 3] = 1.0
        b = rng.normal(0, 3, (m, r))
        w = rng.uniform(0.2, 2.0, m)
        warm = rng.normal(0, 1, (r, p))
        batched = solve(WlsProblem(a, b, w, 0.8, free, nonneg), warm_start=warm)
        assert batched.solution.shape == (r, p)
        assert batched.iterations > 0
        for j in range(r):
            single = solve(WlsProblem(a, b[:, j], w, 0.8, free, nonneg), warm_start=warm[j])
            np.testing.assert_allclose(batched.solution[j], single.solution, rtol=0, atol=1e-12)
            assert batched.converged[j] and single.converged

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_gap_is_recomputable_and_within_threshold(self, rng, nonneg):
        a = rng.normal(0, 1, (12, 4))
        b = rng.normal(0, 3, 12)
        w = rng.uniform(0.5, 2.0, 12)
        radius = 0.5
        report = solve(WlsProblem(a, b, w, radius, nonnegative=nonneg))
        assert report.iterations > 0 and report.converged
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
        assert report.final_objective == pytest.approx(best, rel=1e-10)
        assert np.abs(report.solution).sum() <= 1.0 + 1e-12

    def test_cap_reported_as_not_converged(self, monkeypatch):
        problem, _ = ill_conditioned_face(0.01)
        monkeypatch.setattr(solver, "MAX_ITERS", 3)
        report = solve(problem)
        assert report.iterations == 3
        assert not report.converged
        assert report.gap > 0.0

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


class TestBlockWeights:
    """(m, g) row weights: the r target columns form g consecutive blocks,
    block i weighted by weight column i."""

    @pytest.mark.parametrize("free, nonneg", [((), False), ((), True), ((3,), False)])
    def test_blocks_equal_separate_solves_bitwise(self, rng, free, nonneg):
        m, p, g, c = 30, 4, 3, 2
        a = rng.normal(0, 1, (m, p))
        if free:
            a[:, 3] = 1.0
        b = rng.normal(0, 3, (m, g * c))
        w = rng.uniform(0.2, 2.0, (m, g))
        w[:, 1] = 0.0  # a zero-weight block (singular Gram) beside live ones
        warm = rng.normal(0, 1, (g * c, p))
        joint = solve(WlsProblem(a, b, w, 0.8, free, nonneg), warm_start=warm)
        assert joint.solution.shape == (g * c, p)
        assert joint.iterations > 0
        for i in range(g):
            cols = slice(i * c, (i + 1) * c)
            alone = solve(WlsProblem(a, np.ascontiguousarray(b[:, cols]), w[:, i].copy(), 0.8,
                                     free, nonneg), warm_start=warm[cols])
            assert joint.solution[cols].tobytes() == alone.solution.tobytes()
            assert joint.gap[cols].tobytes() == alone.gap.tobytes()
            np.testing.assert_array_equal(joint.converged[cols], alone.converged)

    def test_unconstrained_blocks_equal_separate_calls_bitwise(self, rng):
        m, p, g, c = 25, 3, 3, 2
        a = np.column_stack([rng.normal(0, 1, (m, p - 1)), np.ones(m)])
        b = rng.normal(0, 1, (m, g * c))
        w = rng.uniform(0.2, 2.0, (m, g))
        w[:, 2] = 0.0
        joint = unconstrained_wls(a, b, w, ridge=1e-8)
        for i in range(g):
            cols = slice(i * c, (i + 1) * c)
            alone = unconstrained_wls(a, np.ascontiguousarray(b[:, cols]), w[:, i].copy(),
                                      ridge=1e-8)
            assert joint[cols].tobytes() == alone.tobytes()

    def test_unit_blocks_equal_shared_weights(self, rng):
        # g blocks of all-ones weights give the shared-weight answer.
        m, p = 20, 3
        a = rng.normal(0, 1, (m, p))
        b = rng.normal(0, 1, (m, 4))
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
