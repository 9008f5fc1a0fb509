import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, random_model
from oracles import central_difference, grid_search_l1, norm0_best_subset, wls_objective
from sparse_moe import (
    ConfigError,
    DataError,
    Dataset,
    ExpertParams,
    ExpertSelector,
    GateParams,
    Hyperparams,
    analytic_gate_gradient,
    analytic_selector_gradient,
    build_expert_targets,
    build_gate_targets,
    e_step,
    evaluate,
    fit,
    generate_synthetic,
    instance_loss,
    m_step_experts,
    m_step_gate,
    m_step_selector_norm0,
    m_step_selector_norm1,
    predict_proba,
    predict_proba_batch,
    preset_spec,
    save_model,
    to_model_classes,
    train_test_split,
)
from sparse_moe import trainer
from sparse_moe import solver as solver_mod
from sparse_moe.model import mixture_probs, prepare_inputs
from sparse_moe.solver import WlsProblem, grams, solve


def two_class_dataset(rng, n=20, d=2):
    labels = np.arange(n) % 2
    return Dataset(rng.normal(0, 1, (n, d)) + labels[:, None], labels, ("a", "b"))


class TestEStep:
    def test_symmetric_model_uniform(self, rng):
        omega = np.repeat(rng.normal(0, 1, (2, 1, 3)), 3, axis=1)
        model = make_model(np.zeros((3, 3)), omega)
        ds = two_class_dataset(rng)
        r = e_step(model, ds, ExpertSelector(np.ones((ds.n, 3))))
        np.testing.assert_allclose(r.r, 1.0 / 3.0, atol=1e-12)

    def test_single_expert_all_ones(self, rng):
        model = random_model(rng, k=1, q=2, dp=3)
        ds = two_class_dataset(rng)
        r = e_step(model, ds, ExpertSelector(np.ones((ds.n, 1))))
        np.testing.assert_array_equal(r.r, 1.0)

    def test_matches_extended_precision_quotient(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        ds = two_class_dataset(rng, n=3)
        mu = rng.uniform(0.2, 1.0, (3, 2))
        r = e_step(model, ds, ExpertSelector(mu, "l1"))
        x = prepare_inputs(ds.features, model.scaler).astype(np.longdouble)
        nu = model.gate.nu.astype(np.longdouble)
        om = model.experts.omega.astype(np.longdouble)
        for n in range(3):
            logits = mu[n] * (nu @ x[n])
            h = np.exp(logits - logits.max())
            h /= h.sum()
            g = np.zeros(2, dtype=np.longdouble)
            for i in range(2):
                lo = om[:, i, :] @ x[n]
                p = np.exp(lo - lo.max())
                g[i] = (p / p.sum())[ds.labels[n]]
            ref = g * h / (g * h).sum()
            np.testing.assert_allclose(r.r[n], ref.astype(float), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(20):
            model = random_model(rng, k=4, q=3, dp=4, scale=5.0)
            ds = Dataset(rng.normal(0, 3, (10, 3)), rng.integers(0, 3, 10).clip(0, 2) % 3, ("a", "b", "c"))
            r = e_step(model, ds, ExpertSelector(np.ones((10, 4))))
            np.testing.assert_allclose(r.r.sum(axis=1), 1.0, atol=1e-10)


class TestTargets:
    def test_expert_targets_binary(self):
        t = build_expert_targets(np.array([0]), 2)
        np.testing.assert_allclose(t, [[0.0, math.log(1e-3)]], atol=1e-12)
        assert t[0, 1] == pytest.approx(-6.907755, abs=1e-6)

    def test_expert_targets_one_hot_structure(self, rng):
        labels = rng.integers(0, 3, 10)
        t = build_expert_targets(labels, 3)
        for n, y in enumerate(labels):
            assert t[n, y] == 0.0
            assert np.all(t[n, np.arange(3) != y] == math.log(1e-3))

    def test_gate_targets_clamped(self):
        t = build_gate_targets(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(t, [[0.0, math.log(1e-12)]], atol=1e-12)

    def test_gate_targets_half(self):
        t = build_gate_targets(np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(t, math.log(0.5), atol=1e-12)

    def test_gate_targets_monotone(self, rng):
        r = np.sort(rng.uniform(0, 1, 20))
        t = build_gate_targets(r.reshape(1, -1))[0]
        assert np.all(np.diff(t) >= 0)


class TestMStepExperts:
    def test_inactive_constraint_matches_ridge_wls(self, rng):
        from sparse_moe import unconstrained_wls

        n = 30
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.uniform(0.2, 1.0, (n, 1))
        targets = build_expert_targets(rng.integers(0, 2, n), 2)
        params, flagged, _ = m_step_experts(r, x, targets, 1e9, ExpertParams(np.zeros((2, 1, 3))))
        assert not flagged
        for l in range(2):
            ref = unconstrained_wls(x, targets[:, l], r[:, 0], ridge=1e-8)
            np.testing.assert_allclose(params.omega[l, 0], ref, atol=1e-6)

    def test_dead_expert_unchanged_and_flagged(self, rng):
        n = 10
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        r = np.column_stack([np.ones(n), np.zeros(n)])
        targets = build_expert_targets(rng.integers(0, 2, n), 2)
        incumbent = rng.normal(0, 1, (2, 2, 2))
        params, flagged, _ = m_step_experts(r, x, targets, 1.0, ExpertParams(incumbent))
        assert flagged == [1]
        np.testing.assert_array_equal(params.omega[:, 1, :], incumbent[:, 1, :])

    def test_toy_problem_vs_grid_oracle(self, rng):
        n = 6
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.uniform(0.1, 1.0, (n, 1))
        targets = build_expert_targets(np.array([0, 1, 0, 1, 0, 1]), 2)
        radius = 0.6
        params, _, _ = m_step_experts(r, x, targets, radius, ExpertParams(np.zeros((2, 1, 3))))
        for l in range(2):
            got = wls_objective(x, targets[:, l], r[:, 0], params.omega[l, 0])
            _, ref = grid_search_l1(
                x, targets[:, l], r[:, 0], radius, free_bias=True
            )
            assert got <= ref + 1e-4
            assert np.abs(params.omega[l, 0, :2]).sum() <= radius + 1e-8


class TestMStepGate:
    def test_all_ones_selector_is_plain_problem(self, rng):
        n = 20
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        incumbent = GateParams(np.zeros((2, 3)))
        g1, _ = m_step_gate(r, x, np.ones((n, 2)), 2.0, incumbent)
        # Manually pose the unmasked problem through the same solver contract.
        from sparse_moe import WlsProblem, solve

        targets = build_gate_targets(r)
        for i in range(2):
            rep = solve(WlsProblem(x, targets[:, i], np.ones(n), 2.0, free_coords=(2,)))
            np.testing.assert_allclose(g1.nu[i], rep.solution, atol=1e-9)

    def test_huge_radius_matches_unconstrained(self, rng):
        from sparse_moe import unconstrained_wls

        n = 25
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        g, _ = m_step_gate(r, x, np.ones((n, 2)), 1e9, GateParams(np.zeros((2, 3))))
        targets = build_gate_targets(r)
        for i in range(2):
            ref = unconstrained_wls(x, targets[:, i], np.ones(n))
            np.testing.assert_allclose(g.nu[i], ref, atol=1e-5)

    def test_masked_rows_dropped(self, rng):
        # Rows with mu == 0 must not influence the fit at all.
        n = 12
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        mu = np.ones((n, 2))
        mu[6:, 0] = 0.0
        g1, _ = m_step_gate(r, x, mu, 1.5, GateParams(np.zeros((2, 2))))
        x2 = x.copy()
        x2[6:] = 999.0  # garbage in masked rows changes nothing for gate 0
        g2, _ = m_step_gate(r, x2, mu, 1.5, GateParams(np.zeros((2, 2))))
        np.testing.assert_allclose(g1.nu[0], g2.nu[0], atol=1e-12)

    def test_unselected_gate_keeps_incumbent(self, rng):
        n = 8
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        mu = np.ones((n, 2))
        mu[:, 1] = 0.0
        incumbent = rng.normal(0, 1, (2, 2))
        g, _ = m_step_gate(r, x, mu, 1.0, GateParams(incumbent))
        np.testing.assert_array_equal(g.nu[1], incumbent[1])

    @pytest.mark.parametrize("radius", [0.3, 1e6])
    def test_gated_matches_row_dropped_formulation(self, rng, radius):
        # Gate row i as a plain LS fit on the rows that select it: design
        # mu_ni x_n, target log r_ni, unit weights.
        n, k = 40, 3
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(k), n)
        mu = rng.uniform(0.2, 1.5, (n, k))
        mu[rng.uniform(size=(n, k)) < 0.3] = 0.0
        mu[:, 2] = 0.0  # no instance selects gate 2
        incumbent = rng.normal(0, 0.1, (k, 3))
        g, converged = m_step_gate(r, x, mu, radius, GateParams(incumbent))
        targets = build_gate_targets(r)
        for i in range(2):
            active = mu[:, i] != 0.0
            ref = solve(WlsProblem(mu[active, i, None] * x[active], targets[active, i],
                                   np.ones(int(active.sum())), radius, free_coords=(2,)),
                        warm_start=incumbent[i])
            np.testing.assert_allclose(g.nu[i], ref.solution, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(g.nu[2], incumbent[2])
        assert converged.shape == (2,) and converged.all()

    def test_no_gate_selected_keeps_incumbent(self, rng):
        n = 8
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        incumbent = rng.normal(0, 1, (2, 2))
        g, converged = m_step_gate(rng.dirichlet(np.ones(2), n), x, np.zeros((n, 2)), 1.0,
                                   GateParams(incumbent))
        np.testing.assert_array_equal(g.nu, incumbent)
        assert converged.size == 0

    def test_toy_vs_grid_oracle(self, rng):
        n = 6
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        radius = 0.5
        g, _ = m_step_gate(r, x, np.ones((n, 2)), radius, GateParams(np.zeros((2, 3))))
        targets = build_gate_targets(r)
        for i in range(2):
            got = wls_objective(x, targets[:, i], np.ones(n), g.nu[i])
            _, ref = grid_search_l1(x, targets[:, i], np.ones(n), radius, free_bias=True)
            assert got <= ref + 1e-4


class TestAnalyticGradients:
    def test_zero_when_responsibility_matches_gate(self, rng):
        # Identical experts make R equal h, so both gradients vanish.
        omega = np.repeat(rng.normal(0, 1, (2, 1, 3)), 2, axis=1)
        model = make_model(rng.normal(0, 1, (2, 3)), omega)
        x = np.array([0.5, -1.0, 1.0])
        g = analytic_gate_gradient(model, np.ones(2), x, 0, 1)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)
        assert analytic_selector_gradient(model, np.ones(2), x, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_zero_when_selector_entry_zero(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        g = analytic_gate_gradient(model, np.array([1.0, 0.0]), np.array([1.0, 2.0, 1.0]), 1, 1)
        np.testing.assert_array_equal(g, 0.0)

    def test_selector_gradient_zero_for_zero_gate_row(self, rng):
        nu = rng.normal(0, 1, (2, 3))
        nu[0] = 0.0
        model = make_model(nu, rng.normal(0, 1, (2, 2, 3)))
        assert analytic_selector_gradient(model, np.ones(2), np.array([1.0, -1.0, 1.0]), 0, 0) == 0.0

    def test_gate_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            model = random_model(rng, k=3, q=2, dp=4)
            x = np.append(rng.normal(0, 1, 3), 1.0)
            mu = rng.uniform(0.2, 1.0, 3)
            y, i = 1, 2

            def loss_of_nu_row(v):
                nu = model.gate.nu.copy()
                nu[i] = v
                return instance_loss(make_model(nu, model.experts.omega), mu, x, y)

            fd = central_difference(loss_of_nu_row, model.gate.nu[i])
            got = analytic_gate_gradient(model, mu, x, y, i)
            assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-8) < 1e-5

    def test_selector_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            model = random_model(rng, k=3, q=2, dp=4)
            x = np.append(rng.normal(0, 1, 3), 1.0)
            mu = rng.uniform(0.2, 1.0, 3)
            y, i = 0, 1

            def loss_of_mu_entry(v):
                m2 = mu.copy()
                m2[i] = v[0]
                return instance_loss(model, m2, x, y)

            fd = central_difference(loss_of_mu_entry, np.array([mu[i]]))[0]
            got = analytic_selector_gradient(model, mu, x, y, i)
            assert abs(got - fd) / max(abs(fd), 1e-8) < 1e-5


class TestSelectorNorm0:
    def test_singleton_budget_matches_direct_evaluation(self, rng):
        model = random_model(rng, k=3, q=2, dp=3)
        ds = two_class_dataset(rng, n=15)
        sel = m_step_selector_norm0(model, ds, 1)
        x = prepare_inputs(ds.features, model.scaler)
        for n in range(ds.n):
            losses = []
            for i in range(3):
                mu = np.zeros(3)
                mu[i] = 1.0
                losses.append(instance_loss(model, mu, x[n], ds.labels[n]))
            assert sel.mu[n].argmax() == int(np.argmin(losses))
            assert sel.mu[n].sum() == 1.0

    def test_full_budget_no_worse_than_all_ones(self, rng):
        model = random_model(rng, k=3, q=2, dp=3)
        ds = two_class_dataset(rng, n=10)
        sel = m_step_selector_norm0(model, ds, 3)
        x = prepare_inputs(ds.features, model.scaler)
        for n in range(ds.n):
            best = instance_loss(model, sel.mu[n], x[n], ds.labels[n])
            full = instance_loss(model, np.ones(3), x[n], ds.labels[n])
            assert best <= full + 1e-12

    def test_identical_experts_tie_breaks_to_first(self, rng):
        nu = np.repeat(rng.normal(0, 1, (1, 3)), 2, axis=0)
        omega = np.repeat(rng.normal(0, 1, (2, 1, 3)), 2, axis=1)
        model = make_model(nu, omega)
        ds = two_class_dataset(rng, n=8)
        sel = m_step_selector_norm0(model, ds, 1)
        np.testing.assert_array_equal(sel.mu[:, 0], 1.0)
        np.testing.assert_array_equal(sel.mu[:, 1], 0.0)

    def test_budget_two_tie_matches_oracle(self, rng):
        # Identical experts under a zero gate: every subset gives the same
        # mixture exactly, so only the tie-break picks the subset.
        nu = np.zeros((3, 3))
        omega = np.repeat(rng.normal(0, 1, (2, 1, 3)), 3, axis=1)
        model = make_model(nu, omega)
        ds = two_class_dataset(rng, n=8)
        sel = m_step_selector_norm0(model, ds, 2)
        x = prepare_inputs(ds.features, model.scaler)
        for n in range(ds.n):
            ref = norm0_best_subset(nu.tolist(), omega.tolist(), x[n].tolist(), int(ds.labels[n]), 2)
            assert ref == (0,)
            assert tuple(np.flatnonzero(sel.mu[n])) == ref


class TestSelectorNorm1:
    def test_single_expert_closed_form(self, rng):
        model = make_model(np.array([[-2.0, 0.0]]), rng.normal(0, 1, (2, 1, 2)))
        ds = Dataset(np.array([[1.0], [1.0]]), np.array([0, 1]), ("a", "b"))
        r = np.array([[0.4], [0.9]])
        sel = m_step_selector_norm1(model, r, ds, 1.0)
        x = prepare_inputs(ds.features, model.scaler)
        for n in range(2):
            s = float(model.gate.nu[0] @ x[n])
            expected = np.clip(math.log(r[n, 0]) / s, 0.0, 1.0)
            assert sel.mu[n, 0] == pytest.approx(expected, abs=1e-8)

    def test_zero_gate_weights_give_canonical_zeros(self, rng):
        model = make_model(np.zeros((2, 3)), rng.normal(0, 1, (2, 2, 3)))
        ds = two_class_dataset(rng, n=4)
        r = rng.dirichlet(np.ones(2), 4)
        sel = m_step_selector_norm1(model, r, ds, 2.0)
        np.testing.assert_array_equal(sel.mu, 0.0)

    def test_two_expert_grid_oracle(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        ds = two_class_dataset(rng, n=5)
        r = rng.dirichlet(np.ones(2), 5)
        radius = 1.5
        sel = m_step_selector_norm1(model, r, ds, radius)
        x = prepare_inputs(ds.features, model.scaler)
        targets = build_gate_targets(r)
        for n in range(5):
            s = model.gate.nu @ x[n]
            got = wls_objective(np.diag(s), targets[n], np.ones(2), sel.mu[n])
            _, ref = grid_search_l1(np.diag(s), targets[n], np.ones(2), radius, nonnegative=True)
            assert got <= ref + 1e-4
            assert sel.mu[n].sum() <= radius + 1e-8

    @pytest.mark.parametrize("k", range(2, 9))
    def test_water_filling_matches_solver_reference(self, rng, k):
        n = 30
        model = random_model(rng, k=k, q=2, dp=3)
        ds = two_class_dataset(rng, n=n)
        r = rng.dirichlet(np.ones(k), n)
        s = prepare_inputs(ds.features, model.scaler) @ model.gate.nu.T
        targets = build_gate_targets(r)
        # l1 norm of each row's unconstrained nonnegative optimum
        free_sum = np.maximum(targets / s, 0.0).sum(axis=1)
        bound = 0
        for scale in (0.3, 3.0):  # a binding and a slack budget
            radius = max(scale * float(np.median(free_sum)), 0.05)
            mu = m_step_selector_norm1(model, r, ds, radius).mu
            assert mu.min() >= 0.0
            assert mu.sum(axis=1).max() <= radius * (1 + 1e-12)
            bound += int(np.sum(np.isclose(mu.sum(axis=1), radius, rtol=1e-12)))
            for i in range(n):
                got = wls_objective(np.diag(s[i]), targets[i], np.ones(k), mu[i])
                ref = solve(WlsProblem(np.diag(s[i]), targets[i], np.ones(k), radius,
                                       nonnegative=True)).final_objective
                assert got <= ref + 1e-9 * max(1.0, ref)
        assert 0 < bound < 2 * n

    def test_zero_gate_row_gives_zero_entry(self, rng):
        nu = rng.normal(0, 1, (3, 3))
        nu[1] = 0.0
        model = make_model(nu, rng.normal(0, 1, (2, 3, 3)))
        ds = two_class_dataset(rng, n=10)
        r = rng.dirichlet(np.ones(3), 10)
        mu = m_step_selector_norm1(model, r, ds, 5.0).mu
        np.testing.assert_array_equal(mu[:, 1], 0.0)
        assert np.any(mu[:, [0, 2]] > 0.0)  # the live experts are selected

    def test_tiny_scores_stay_within_budget(self, rng):
        # With tiny scores, a_i - tau cancels and its rounding alone can
        # exceed the budget.
        model = make_model(rng.normal(0, 1e-6, (4, 3)), rng.normal(0, 1, (2, 4, 3)))
        ds = two_class_dataset(rng, n=200)
        mu = m_step_selector_norm1(model, rng.dirichlet(np.ones(4), 200), ds, 1.0).mu
        assert mu.min() >= 0.0
        assert mu.sum(axis=1).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_non_positive_budget_rejected(self, rng, budget):
        model = random_model(rng, k=2, q=2, dp=3)
        ds = two_class_dataset(rng, n=4)
        with pytest.raises(ConfigError):
            m_step_selector_norm1(model, rng.dirichlet(np.ones(2), 4), ds, budget)

    def test_fit_solves_only_gate_and_expert_problems(self, monkeypatch):
        # Every solve call of a fit is made inside its M-step helper.
        calls = {"in_m_step": 0, "elsewhere": 0}
        depth = [0]

        def counting_solve(*args, **kwargs):
            calls["in_m_step" if depth[0] else "elsewhere"] += 1
            return solve(*args, **kwargs)

        def counted(step):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return step(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        monkeypatch.setattr(trainer, "solve", counting_solve)
        monkeypatch.setattr(trainer, "_m_step", counted(trainer._m_step))
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        for schedule in ("full", "fast"):
            fit(ds, Hyperparams(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1, max_iters=4,
                                selector_mode="l1", lambda_mu=1.5, schedule=schedule))
        assert calls["in_m_step"] > 0
        assert calls["elsewhere"] == 0


class TestGateFactorization:
    @pytest.mark.parametrize("selector_mode, lambda_mu, schedule", [
        ("none", None, "full"), ("none", None, "fast"), ("l0", 1, "full"), ("l1", 1.5, "full"),
    ])
    def test_selector_free_fit_factors_gate_once(self, monkeypatch, selector_mode, lambda_mu,
                                                 schedule):
        # Each grams() call: the function that made it (fit, _m_step,
        # solve or unconstrained_wls) and its weight blocks (the gate's unit
        # block is the one of all ones).
        calls = []

        def counting_grams(design, row_weights):
            caller = sys._getframe(1).f_code.co_name
            calls.append((caller, row_weights.shape[1],
                          int(np.all(row_weights == 1.0, axis=0).sum())))
            return grams(design, row_weights)

        monkeypatch.setattr(trainer, "grams", counting_grams)
        monkeypatch.setattr(solver_mod, "grams", counting_grams)
        k = 4
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        _, report = fit(ds, Hyperparams(k=k, lambda_nu=5.0, lambda_omega=5.0, seed=1,
                                        max_iters=4, selector_mode=selector_mode,
                                        lambda_mu=lambda_mu, schedule=schedule))
        gate_steps = report.iterations_run - (schedule == "fast")
        assert gate_steps >= 2
        by = {caller: [c[1:] for c in calls if c[0] == caller]
              for caller in ("fit", "_m_step", "solve", "unconstrained_wls")}
        assert sum(map(len, by.values())) == len(calls)
        if selector_mode == "none" and schedule == "full":
            # The unit gate block is built once, by fit; each M-step builds
            # the k expert blocks only and stacks them on it.
            assert by == {"fit": [(1, 1)], "_m_step": [(k, 0)] * gate_steps, "solve": [],
                          "unconstrained_wls": []}
        elif selector_mode == "none":
            # The inner iterations' gate solves take fit's stack, their
            # expert fits build the k expert blocks, and the final pass's
            # expert solve builds its own.
            assert by == {"fit": [(1, 1)], "_m_step": [], "solve": [(k, 0)],
                          "unconstrained_wls": [(k, 0)] * gate_steps}
        else:
            # Each iteration's one call builds a block per selected gate
            # row with the k expert blocks.
            assert by["fit"] == by["_m_step"] == by["unconstrained_wls"] == []
            assert len(by["solve"]) == gate_steps
            assert all(k < blocks <= 2 * k for blocks, _ in by["solve"])

    def test_hoisted_fit_matches_per_step_factorization(self, monkeypatch, tmp_path):
        # The same fit with the gate factorized on every M-step instead.
        ds = generate_synthetic(preset_spec("grouped-four", 20, seed=3))
        hyper = Hyperparams(k=3, lambda_nu=2.0, lambda_omega=2.0, seed=2, max_iters=6)
        paths = [tmp_path / "hoisted.json", tmp_path / "per-step.json"]
        save_model(fit(ds, hyper)[0], paths[0])
        step = trainer._m_step
        dropped = []

        def per_step(*args, gate_gram=None, **kwargs):
            dropped.append(gate_gram is not None)
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "_m_step", per_step)
        model, report = fit(ds, hyper)
        save_model(model, paths[1])
        assert dropped == [True] * report.iterations_run
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOneSolverCallPerMStep:
    """One solve call per EM iteration on the full schedule, for the gate
    and expert problems together; the fast schedule's inner iterations make
    a gate solve and an unconstrained expert fit, and its final pass one
    expert solve."""

    @pytest.mark.parametrize("selector_mode, lambda_mu, schedule", [
        ("none", None, "full"), ("l0", 1, "full"), ("l1", 1.5, "full"), ("l1", 1.5, "fast"),
    ])
    def test_each_m_step_makes_one_call(self, monkeypatch, selector_mode, lambda_mu, schedule):
        calls = []
        widths = []
        m_steps = []
        step = trainer._m_step

        def counted_step(*args, **kwargs):
            m_steps.append(1)
            return step(*args, **kwargs)

        def logged(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                if name == "solve":
                    widths.append(args[0].target.shape[1])
                return fn(*args, **kwargs)
            return wrapped

        for name in ("solve", "unconstrained_wls", "m_step_gate", "m_step_experts"):
            monkeypatch.setattr(trainer, name, logged(name, getattr(trainer, name)))
        monkeypatch.setattr(trainer, "_m_step", counted_step)
        k, ds = 4, generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        _, report = fit(ds, Hyperparams(k=k, lambda_nu=5.0, lambda_omega=5.0, seed=1,
                                        max_iters=4, selector_mode=selector_mode,
                                        lambda_mu=lambda_mu, schedule=schedule))
        assert sum(widths) == report.constrained_solves
        if schedule == "full":
            # fit calls neither wrapper; each iteration's one call holds
            # every expert problem and at least one gate row.
            assert report.iterations_run >= 2
            assert calls == ["solve"] * report.iterations_run
            assert all(w > ds.q * k for w in widths)
            assert len(m_steps) == report.iterations_run
            return
        # fit calls neither wrapper on this schedule either: one M-step per
        # inner iteration, a gate solve with an unconstrained expert fit,
        # and one for the final pass, an expert solve.
        inner = report.iterations_run - 1
        assert inner >= 2
        assert len(m_steps) == inner + 1
        assert calls == ["unconstrained_wls", "solve"] * inner + ["solve"]
        assert all(0 < w <= k for w in widths[:-1]) and widths[-1] == ds.q * k

    @pytest.mark.parametrize("selector_mode, lambda_mu", [("none", None), ("l0", 1), ("l1", 1.5)])
    def test_merged_fit_matches_separate_m_steps(self, monkeypatch, tmp_path, selector_mode,
                                                 lambda_mu):
        # The same fits with the gate and expert M-steps made by the two
        # wrappers, one solve call each.
        ds = generate_synthetic(preset_spec("grouped-four", 25, seed=4))
        hyper = Hyperparams(k=4, lambda_nu=3.0, lambda_omega=2.0, seed=1, max_iters=8,
                            selector_mode=selector_mode, lambda_mu=lambda_mu)
        paths = [tmp_path / "merged.json", tmp_path / "separate.json"]
        model, merged = fit(ds, hyper)
        save_model(model, paths[0])
        step = trainer._m_step
        split = []

        def separately(r, x_mat, nu, omega, mu=None, lambda_nu=None, targets=None,
                       lambda_omega=None, gate_gram=None):
            if lambda_nu is None or targets is None:  # a wrapper's own call
                return step(r, x_mat, nu, omega, mu, lambda_nu, targets, lambda_omega,
                            gate_gram=gate_gram)
            split.append(1)
            gate, gate_done = trainer.m_step_gate(r, x_mat, mu, lambda_nu, GateParams(nu))
            experts, flagged, done = trainer.m_step_experts(r, x_mat, targets, lambda_omega,
                                                            ExpertParams(omega))
            return gate.nu, experts.omega, flagged, np.concatenate([gate_done, done]), 0

        monkeypatch.setattr(trainer, "_m_step", separately)
        model, separate = fit(ds, hyper)
        save_model(model, paths[1])
        assert len(split) == separate.iterations_run
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert separate.to_dict() | {"solver_iterations": 0} == (
            merged.to_dict() | {"solver_iterations": 0})

    @pytest.mark.parametrize("selector_mode, lambda_mu", [("l0", 1), ("l1", 1.5)])
    def test_selector_fits_save_identical_files(self, tmp_path, selector_mode, lambda_mu):
        ds = generate_synthetic(preset_spec("grouped-four", 25, seed=4))
        hyper = Hyperparams(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1, max_iters=10,
                            selector_mode=selector_mode, lambda_mu=lambda_mu)
        paths = [tmp_path / "m0.json", tmp_path / "m1.json"]
        for path in paths:
            save_model(fit(ds, hyper)[0], path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFit:
    def test_deterministic_and_feasible(self, rng, tmp_path):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 30, seed=2))
        hyper = Hyperparams(k=2, lambda_nu=2.0, lambda_omega=2.0, seed=5, max_iters=8)
        m1, r1 = fit(ds, hyper)
        m2, r2 = fit(ds, hyper)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert [t.penalized_total for t in r1.trace] == [t.penalized_total for t in r2.trace]
        # constrained M-step outputs respect their budgets (bias excluded)
        assert np.all(np.abs(m1.gate.nu[:, :-1]).sum(axis=1) <= 2.0 + 1e-8)
        assert np.all(np.abs(m1.experts.omega[:, :, :-1]).sum(axis=2) <= 2.0 + 1e-8)

    def test_single_expert_gate_stays_at_init(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 10, seed=1))
        hyper = Hyperparams(k=1, lambda_nu=1.0, lambda_omega=3.0, seed=11, max_iters=5)
        model, _ = fit(ds, hyper)
        expected = np.random.default_rng(11).normal(0.0, 0.01, (1, 3))
        np.testing.assert_array_equal(model.gate.nu, expected)

    def test_objective_improves_on_xor(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 50, seed=3))
        model, report = fit(ds, Hyperparams(k=2, lambda_nu=5.0, lambda_omega=5.0, seed=1, max_iters=15))
        assert report.trace[-1].penalized_total > report.trace[0].penalized_total
        assert all(np.isfinite(t.penalized_total) for t in report.trace)
        assert 0.0 <= report.sparsity <= 1.0

    def test_iteration_cap_and_report_shape(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 10, seed=1))
        hyper = Hyperparams(k=2, lambda_nu=1.0, lambda_omega=1.0, seed=1, max_iters=3)
        _, report = fit(ds, hyper)
        assert report.iterations_run <= 3
        assert report.trace[0].iteration == 0
        assert sum(report.selector_histogram.values()) == ds.n

    def test_fast_schedule_runs_and_reports_solves(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 25, seed=4))
        hyper = Hyperparams(k=2, lambda_nu=3.0, lambda_omega=3.0, seed=2, max_iters=10, schedule="fast")
        model, report = fit(ds, hyper)
        # gate solves every inner iteration plus one final expert pass
        assert report.constrained_solves >= 2 + 2 * 2
        assert np.all(np.abs(model.experts.omega[:, :, :-1]).sum(axis=2) <= 3.0 + 1e-8)

    def test_selector_modes_produce_valid_selectors(self):
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=5))
        h0 = Hyperparams(k=3, lambda_nu=3.0, lambda_omega=3.0, seed=1, max_iters=5,
                         selector_mode="l0", lambda_mu=2)
        _, rep0 = fit(ds, h0)
        assert set(rep0.selector_histogram) <= {1, 2}
        h1 = Hyperparams(k=3, lambda_nu=3.0, lambda_omega=3.0, seed=1, max_iters=5,
                         selector_mode="l1", lambda_mu=1.5)
        _, rep1 = fit(ds, h1)
        assert sum(rep1.selector_histogram.values()) == ds.n

    @pytest.mark.parametrize("schedule,selector", [
        ("full", "none"), ("fast", "none"), ("full", "l0"), ("full", "l1"),
    ])
    def test_one_expert_forward_pass_per_iteration(self, monkeypatch, schedule, selector):
        import sparse_moe.trainer as trainer_mod

        calls = []
        kernel = trainer_mod.expert_class_probs

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(trainer_mod, "expert_class_probs", counted)
        ds = generate_synthetic(preset_spec("grouped-four", 10, seed=2))
        hyper = Hyperparams(k=3, lambda_nu=2.0, lambda_omega=2.0, seed=4, max_iters=6,
                            schedule=schedule, selector_mode=selector,
                            lambda_mu=None if selector == "none" else 2)
        _, report = fit(ds, hyper)
        assert report.iterations_run >= 2
        assert len(calls) <= report.iterations_run + 1

    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_observed_ll_is_the_models_log_likelihood(self, schedule):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 25, seed=4))
        model, report = fit(ds, Hyperparams(k=2, lambda_nu=3.0, lambda_omega=3.0, seed=2,
                                            max_iters=6, schedule=schedule))
        x_mat = prepare_inputs(ds.features, model.scaler)
        probs = mixture_probs(model, x_mat, np.ones((ds.n, model.k)))
        want = np.log(probs[np.arange(ds.n), ds.labels]).sum()
        assert report.trace[-1].observed_ll == pytest.approx(want, rel=1e-12)
        assert all(t.observed_ll < 0.0 for t in report.trace)
        assert [t["observed_ll"] for t in report.to_dict()["trace"]] == [
            t.observed_ll for t in report.trace]

    def test_single_class_rejected(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 10, seed=1))
        one = Dataset(ds.features[ds.labels == 1], np.zeros(20, dtype=int), ("1",))
        with pytest.raises(DataError, match="fewer than 2 classes"):
            fit(one, Hyperparams(k=2, lambda_nu=1.0, lambda_omega=1.0, seed=1, max_iters=3))

    def test_tolerance_stops_early(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 20, seed=6))
        hyper = Hyperparams(k=2, lambda_nu=2.0, lambda_omega=2.0, seed=3, max_iters=200, tol=1e-3)
        _, report = fit(ds, hyper)
        assert report.converged
        assert report.iterations_run < 200


class TestEvaluate:
    def test_perfect_model_accuracy_one(self):
        feats = np.concatenate([np.full(10, -2.0), np.full(10, 2.0)]).reshape(-1, 1)
        ds = Dataset(feats, np.repeat([0, 1], 10), ("a", "b"))
        omega = np.zeros((2, 1, 2))
        omega[1, 0, 0] = 10.0
        model = make_model(np.zeros((1, 2)), omega)
        # identity scaler in make_model keeps the sign structure intact
        assert evaluate(model, ds)["accuracy"] == 1.0

    def test_uniform_predictor_nll(self, rng):
        ds = two_class_dataset(rng, n=16)
        model = make_model(np.zeros((2, 3)), np.zeros((2, 2, 3)))
        assert evaluate(model, ds)["nll"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ones_policy_equals_plain_mixture(self, rng):
        from sparse_moe import predict_proba

        model = random_model(rng, k=2, q=2, dp=3)
        ds = two_class_dataset(rng, n=12)
        metrics = evaluate(model, ds, "ones")
        nll = -np.mean([
            math.log(max(predict_proba(model, ds.features[n])[ds.labels[n]], 1e-12))
            for n in range(ds.n)
        ])
        assert metrics["nll"] == pytest.approx(nll, abs=1e-12)

    def test_gate_surrogate_policy_requires_lambda_mu(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        ds = two_class_dataset(rng, n=6)
        with pytest.raises(ConfigError):
            evaluate(model, ds, "gate-surrogate")

    def test_gate_surrogate_policy_runs(self, rng):
        model = random_model(rng, k=2, q=2, dp=3, lambda_mu=1.5, selector_mode="l1")
        ds = two_class_dataset(rng, n=10)
        metrics = evaluate(model, ds, "gate-surrogate")
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["nll"] >= 0.0

    def test_unknown_policy(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        with pytest.raises(ConfigError):
            evaluate(model, two_class_dataset(rng, n=4), "oracle")


class TestModelClasses:
    """evaluate matches a dataset's classes to the model's by token, as the
    CLI does, whatever ids the dataset gave them."""

    @staticmethod
    def fitted():
        ds = generate_synthetic(preset_spec("two-cluster-xor", 40, seed=3))
        model, _ = fit(ds, Hyperparams(k=2, lambda_nu=5.0, lambda_omega=5.0, seed=1,
                                       max_iters=10))
        return model, ds

    def test_renumbered_classes_score_the_same(self):
        model, ds = self.fitted()
        assert model.labels == ds.label_names == ("0", "1")
        # The same rows as loading a file whose class-1 rows come first gives.
        swapped = Dataset(ds.features, 1 - ds.labels, ("1", "0"))
        metrics = evaluate(model, ds)
        assert metrics["accuracy"] > 0.5
        assert evaluate(model, swapped) == metrics

    def test_unknown_token_raises(self):
        model, ds = self.fitted()
        with pytest.raises(DataError, match="'zz'"):
            evaluate(model, Dataset(ds.features, ds.labels, ("0", "zz")))

    def test_model_tokens_take_no_copy(self):
        model, ds = self.fitted()
        assert to_model_classes(model, ds) is ds
        mapped = to_model_classes(model, Dataset(ds.features, 1 - ds.labels, ("1", "0")))
        np.testing.assert_array_equal(mapped.labels, ds.labels)
        assert mapped.label_names == model.labels

    def test_model_without_tokens_keeps_ids(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        assert model.labels is None
        ds = two_class_dataset(rng, n=8)
        assert to_model_classes(model, ds) is ds
        with pytest.raises(DataError, match="q=2"):
            to_model_classes(model, Dataset(ds.features, np.arange(8) % 3, ("a", "b", "c")))


class TestPredictProbaBatch:
    """Batched scoring agrees with per-row predict_proba.  The batch's logits
    come from one matrix product and a single row's from a matrix-vector
    product, which BLAS may round differently, so they agree to rounding."""

    def test_rows_match_predict_proba_under_any_selector(self, rng):
        for _ in range(40):
            k, q, d = (int(v) for v in rng.integers([1, 2, 1], [6, 5, 8]))
            model = random_model(rng, k=k, q=q, dp=d + 1, scale=2.0)
            feats = rng.normal(0, 2, (7, d))
            mu = rng.uniform(0, 2, (7, k)) * (rng.uniform(size=(7, k)) < 0.8)
            batch = mixture_probs(model, prepare_inputs(feats, model.scaler), mu)
            plain = predict_proba_batch(model, feats)
            for n in range(7):
                np.testing.assert_allclose(predict_proba(model, feats[n], mu[n]), batch[n],
                                           rtol=1e-12, atol=0)
                np.testing.assert_allclose(predict_proba(model, feats[n]), plain[n],
                                           rtol=1e-12, atol=0)

    def test_gate_surrogate_rows_match_predict_proba(self, rng):
        from sparse_moe.trainer import _policy_mu

        model = random_model(rng, k=3, q=2, dp=4, lambda_mu=1.5, selector_mode="l1")
        feats = rng.normal(0, 1, (8, 3))
        probs = predict_proba_batch(model, feats, "gate-surrogate")
        mu = _policy_mu(model, prepare_inputs(feats, model.scaler), "gate-surrogate")
        assert not np.all(mu == 1.0)
        for n in range(8):
            np.testing.assert_allclose(predict_proba(model, feats[n], mu[n]), probs[n],
                                       rtol=1e-12, atol=0)


class TestSolverCapHits:
    def test_cap_hits_counted_and_serialized(self, monkeypatch):
        from sparse_moe import solver

        ds = generate_synthetic(preset_spec("two-cluster-xor", 20, seed=3))
        hyper = Hyperparams(k=2, lambda_nu=0.5, lambda_omega=0.5, seed=1, max_iters=3,
                            selector_mode="l1", lambda_mu=1.0)
        _, clean = fit(ds, hyper)
        assert clean.solver_cap_hits == 0
        # A zero gap tolerance, which rounding seldom meets, and no round
        # after the first, so that problems reach the cap instead of
        # certifying at the shortcut or in the first active-set round.
        monkeypatch.setattr(solver, "GAP_RTOL", 0.0)
        monkeypatch.setattr(solver, "MAX_ITERS", 0)
        _, capped = fit(ds, hyper)
        assert capped.solver_cap_hits > 0
        assert capped.to_dict()["solver_cap_hits"] == capped.solver_cap_hits
        # constrained_solves counts gate and expert problems, certified or not.
        assert capped.constrained_solves == clean.constrained_solves == 3 * (2 + 2 * 2)


class TestSolverIterations:
    @pytest.mark.parametrize("selector_mode, lambda_mu, schedule", [
        ("none", None, "full"), ("none", None, "fast"), ("l0", 1, "full"), ("l1", 1.5, "full"),
    ])
    def test_report_sums_solve_iterations(self, monkeypatch, selector_mode, lambda_mu,
                                          schedule):
        counted = []

        def counting_solve(*args, **kwargs):
            report = solve(*args, **kwargs)
            counted.append(report.iterations)
            return report

        monkeypatch.setattr(trainer, "solve", counting_solve)
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        hyper = Hyperparams(k=4, lambda_nu=2.0, lambda_omega=2.0, seed=1, max_iters=4,
                            selector_mode=selector_mode, lambda_mu=lambda_mu,
                            schedule=schedule)
        _, report = fit(ds, hyper)
        assert len(counted) > 0 and sum(counted) > 0
        assert report.solver_iterations == sum(counted)
        assert report.to_dict()["solver_iterations"] == sum(counted)
        # A second fit counts its own solves only.
        counted.clear()
        _, again = fit(ds, hyper)
        assert again.solver_iterations == sum(counted) == report.solver_iterations

    def test_report_only_gains_the_key(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 20, seed=3))
        _, report = fit(ds, Hyperparams(k=2, lambda_nu=0.5, lambda_omega=0.5, seed=1,
                                        max_iters=3))
        assert set(report.to_dict()) == {
            "format_version", "trace", "iterations_run", "converged", "sparsity",
            "selector_histogram", "constrained_solves", "solver_cap_hits", "solver_iterations",
        }


class TestSolverBoundary:
    """A WLS batch is checked once, when its WlsProblem is built: solve and
    factor do not check it again, and unconstrained_wls checks its own
    arguments once."""

    @pytest.mark.parametrize("selector_mode, lambda_mu, schedule", [
        ("none", None, "full"), ("l1", 1.5, "full"), ("none", None, "fast"),
    ])
    def test_each_batch_checked_once(self, monkeypatch, selector_mode, lambda_mu, schedule):
        calls = {"_blocks": 0, "WlsProblem": 0, "solve": 0, "unconstrained_wls": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver_mod, "_blocks", counted("_blocks", solver_mod._blocks))
        for name in ("WlsProblem", "solve", "unconstrained_wls"):
            monkeypatch.setattr(trainer, name, counted(name, getattr(trainer, name)))
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        fit(ds, Hyperparams(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1, max_iters=4,
                            selector_mode=selector_mode, lambda_mu=lambda_mu, schedule=schedule))
        assert calls["solve"] == calls["WlsProblem"] >= 3
        assert (calls["unconstrained_wls"] > 0) == (schedule == "fast")
        assert calls["_blocks"] == calls["WlsProblem"] + calls["unconstrained_wls"]


class TestDeadExpertReinit:
    """fit re-initializes an expert whose responsibility mass is below
    DEAD_EXPERT_FRACTION of the rows, before an M-step, and one that the
    M-step flagged, after it.  With k = 4 and a fraction above 1/4, some
    expert is below it in every iteration, so both paths run throughout."""

    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_both_reinit_paths_run_deterministically(self, monkeypatch, tmp_path, schedule):
        monkeypatch.setattr(trainer, "DEAD_EXPERT_FRACTION", 0.26)
        events = {"before": 0, "after": 0}
        traced = []
        record, step = trainer._trace_record, trainer._m_step

        def tracing(*args, **kwargs):
            rec, r = record(*args, **kwargs)
            traced.append(r)
            return rec, r

        def stepping(r, *args, **kwargs):
            # Without a selector, an M-step gets the last trace record's
            # responsibilities unless experts were re-initialized between.
            events["before"] += r is not traced[-1]
            result = step(r, *args, **kwargs)
            events["after"] += bool(result[2])
            return result

        monkeypatch.setattr(trainer, "_trace_record", tracing)
        monkeypatch.setattr(trainer, "_m_step", stepping)
        ds = generate_synthetic(preset_spec("noisy-subspace", 25, noise_dims=4, seed=2))
        hyper = Hyperparams(k=4, lambda_nu=2.0, lambda_omega=2.0, seed=1, max_iters=6,
                            schedule=schedule)
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            model, report = fit(ds, hyper)
            save_model(model, path)
        assert events["before"] > 0 and events["after"] > 0
        assert all(np.isfinite([t.penalized_total, t.observed_ll]).all() for t in report.trace)
        assert paths[0].read_bytes() == paths[1].read_bytes()
