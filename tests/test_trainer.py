import dataclasses
import json
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
    DimensionError,
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
from sparse_moe.solver import SolveReport, WlsProblem, grams, solve


def two_class_dataset(rng, n=20, d=2):
    labels = np.arange(n) % 2
    return Dataset(rng.normal(0, 1, (n, d)) + labels[:, None], labels, ("a", "b"))


def gate_step(r, x, mu, radius, nu, q=2):
    """The gate rows of one fit M-step (trainer._m_step, on a set-up of its
    own) and their converged flags, from (n, k) responsibilities ``r``,
    handed over class-major as a fit holds them.  ``mu`` None is the
    unit-weight block of a selector-free fit; otherwise each selected row is
    a block."""
    k = r.shape[1]
    setup = trainer._m_step_setup(x, k, build_expert_targets(np.arange(len(x)) % q, q), 1.0,
                                  radius, mu is None)
    r = np.ascontiguousarray(r.T)
    live = trainer._live(r)
    nu, _, report = trainer._m_step(setup, r, live, nu, np.zeros((q, k, x.shape[1])), mu)
    return GateParams(nu), report.converged[:len(report.converged) - q * int(live.sum())]


def dead_expert_fit(monkeypatch, schedule, fraction=0.26):
    """A fit whose experts are re-initialized on both paths: with k = 4 and
    DEAD_EXPERT_FRACTION above 1/4, some expert is below it in every
    iteration.  Just below 1/4, a re-initialized expert's fresh mass of
    about 1/4 can lift it above the fraction before its M-step."""
    monkeypatch.setattr(trainer, "DEAD_EXPERT_FRACTION", fraction)
    ds = generate_synthetic(preset_spec("noisy-subspace", 25, noise_dims=4, seed=2))
    return ds, Hyperparams(k=4, lambda_nu=2.0, lambda_omega=2.0, seed=1, max_iters=6,
                           schedule=schedule)


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
        r = e_step(model, ds, ExpertSelector(mu))
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

    def test_all_dead_makes_no_call(self, monkeypatch, rng):
        # With every expert dead the batch has no columns: no solve call,
        # no converged flags, and every expert kept and flagged.
        monkeypatch.setattr(trainer, "solve", lambda *a, **kw: pytest.fail("solve was called"))
        n = 10
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        targets = build_expert_targets(rng.integers(0, 2, n), 2)
        incumbent = rng.normal(0, 1, (2, 2, 2))
        params, flagged, converged = m_step_experts(np.zeros((n, 2)), x, targets, 1.0,
                                                    ExpertParams(incumbent))
        assert flagged == [0, 1]
        assert converged.shape == (0,) and converged.dtype == bool
        assert params.omega.tobytes() == incumbent.tobytes()

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
    """The gate half of a fit's M-step (trainer._m_step)."""

    def test_all_ones_selector_is_plain_problem(self, rng):
        n = 20
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        targets = build_gate_targets(r)
        # The shared unit block, and a block per row of ones, against the
        # unmasked problem posed through the same solver contract.
        for mu in (None, np.ones((n, 2))):
            g1, _ = gate_step(r, x, mu, 2.0, np.zeros((2, 3)))
            for i in range(2):
                rep = solve(WlsProblem(x, targets[:, i], np.ones(n), 2.0, bias=True))
                np.testing.assert_allclose(g1.nu[i], rep.solution, atol=1e-9)

    def test_huge_radius_matches_unconstrained(self, rng):
        from sparse_moe import unconstrained_wls

        n = 25
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        g, _ = gate_step(r, x, None, 1e9, np.zeros((2, 3)))
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
        g1, _ = gate_step(r, x, mu, 1.5, np.zeros((2, 2)))
        x2 = x.copy()
        x2[6:] = 999.0  # garbage in masked rows changes nothing for gate 0
        g2, _ = gate_step(r, x2, mu, 1.5, np.zeros((2, 2)))
        np.testing.assert_allclose(g1.nu[0], g2.nu[0], atol=1e-12)

    def test_unselected_gate_keeps_incumbent(self, rng):
        n = 8
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        mu = np.ones((n, 2))
        mu[:, 1] = 0.0
        incumbent = rng.normal(0, 1, (2, 2))
        g, _ = gate_step(r, x, mu, 1.0, incumbent)
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
        g, converged = gate_step(r, x, mu, radius, incumbent)
        targets = build_gate_targets(r)
        for i in range(2):
            active = mu[:, i] != 0.0
            ref = solve(WlsProblem(mu[active, i, None] * x[active], targets[active, i],
                                   np.ones(int(active.sum())), radius, bias=True))
            np.testing.assert_allclose(g.nu[i], ref.solution, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(g.nu[2], incumbent[2])
        assert converged.shape == (2,) and converged.all()

    def test_no_gate_selected_keeps_incumbent(self, rng):
        n = 8
        x = np.column_stack([rng.normal(0, 1, (n, 1)), np.ones(n)])
        incumbent = rng.normal(0, 1, (2, 2))
        g, converged = gate_step(rng.dirichlet(np.ones(2), n), x, np.zeros((n, 2)), 1.0,
                                 incumbent)
        np.testing.assert_array_equal(g.nu, incumbent)
        assert converged.size == 0

    def test_toy_vs_grid_oracle(self, rng):
        n = 6
        x = np.column_stack([rng.normal(0, 1, (n, 2)), np.ones(n)])
        r = rng.dirichlet(np.ones(2), n)
        radius = 0.5
        g, _ = gate_step(r, x, None, radius, np.zeros((2, 3)))
        targets = build_gate_targets(r)
        for i in range(2):
            got = wls_objective(x, targets[:, i], np.ones(n), g.nu[i])
            _, ref = grid_search_l1(x, targets[:, i], np.ones(n), radius, free_bias=True)
            assert got <= ref + 1e-4


class TestIncumbents:
    """A solved row does not depend on the incumbent: only rows that are
    not solved, of dead experts and unselected gate rows, keep theirs."""

    @staticmethod
    def _data(rng, n=40, k=3, dp=4):
        x = np.column_stack([rng.normal(0, 1, (n, dp - 1)), np.ones(n)])
        return x, rng.dirichlet(np.ones(k), n)

    @pytest.mark.parametrize("radius", [0.3, 1e6])  # binding, slack
    def test_live_expert_rows_same_bytes_from_any_incumbent(self, rng, radius):
        x, r = self._data(rng)
        r[:, 2] = 0.0  # a dead expert
        r /= r.sum(axis=1, keepdims=True)
        q, k, dp = 2, r.shape[1], x.shape[1]
        targets = build_expert_targets(rng.integers(0, q, len(x)), q)
        omegas = [np.zeros((q, k, dp)), rng.normal(0, 1, (q, k, dp))]
        (zero, flagged, _), (drawn, _, _) = [
            m_step_experts(r, x, targets, radius, ExpertParams(o)) for o in omegas]
        assert flagged == [2]
        assert zero.omega[:, :2].tobytes() == drawn.omega[:, :2].tobytes()
        np.testing.assert_array_equal(drawn.omega[:, 2], omegas[1][:, 2])

    @pytest.mark.parametrize("radius", [0.3, 1e6])
    def test_selected_gate_rows_same_bytes_from_any_incumbent(self, rng, radius):
        x, r = self._data(rng)
        n, k = r.shape
        masked = rng.uniform(0.2, 1.5, (n, k))
        masked[rng.uniform(size=(n, k)) < 0.3] = 0.0
        masked[:, 1] = 0.0  # no instance selects gate 1
        for mu, selected in ((None, [0, 1, 2]), (np.ones((n, k)), [0, 1, 2]), (masked, [0, 2])):
            nus = [np.zeros((k, x.shape[1])), rng.normal(0, 1, (k, x.shape[1]))]
            zero, drawn = [gate_step(r, x, mu, radius, nu)[0] for nu in nus]
            assert zero.nu[selected].tobytes() == drawn.nu[selected].tobytes()
        np.testing.assert_array_equal(drawn.nu[1], nus[1][1])


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

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [-1.0, 1.0]])
    def test_selector_row_outside_the_domain_raises(self, rng, row):
        model = random_model(rng, k=2, q=2, dp=3)
        x = np.array([1.0, -1.0, 1.0])
        for call in (instance_loss, analytic_gate_gradient, analytic_selector_gradient):
            args = (model, np.array(row), x, 0) + ((1,) if call is not instance_loss else ())
            with pytest.raises(DataError, match="selector entries must be finite"):
                call(*args)

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

    def test_budget_is_a_whole_number(self, rng):
        # The rule Hyperparams applies: 1.7 is not run as budget 1,
        # and 0.5, nan and inf are named as not integers.
        model = random_model(rng, k=3, q=2, dp=3)
        ds = two_class_dataset(rng, n=10)
        for budget in (1.7, 0.5, np.nan, np.inf):
            with pytest.raises(ConfigError, match="l0 selector budget must be an integer"):
                m_step_selector_norm0(model, ds, budget)
        np.testing.assert_array_equal(m_step_selector_norm0(model, ds, 2.0).mu,
                                      m_step_selector_norm0(model, ds, 2).mu)
        assert m_step_selector_norm0(model, ds, 2.0).mu.sum(axis=1).max() == 2.0


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
        # Each grams() call: the function that made it (_m_step_setup,
        # _m_step, solve or ridge_wls) and its weight blocks (the gate's
        # unit block is the one of all ones).
        calls = []

        def counting_grams(design, row_weights, out=None):
            caller = sys._getframe(1).f_code.co_name
            calls.append((caller, row_weights.shape[1],
                          int(np.all(row_weights == 1.0, axis=0).sum())))
            return grams(design, row_weights, out=out)

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
              for caller in ("_m_step_setup", "_m_step", "solve", "ridge_wls")}
        assert sum(map(len, by.values())) == len(calls)
        if selector_mode == "none" and schedule == "full":
            # The unit gate block is built once, by the fit's set-up; each
            # M-step builds the k expert blocks only, behind it in the
            # set-up's stack.
            assert by == {"_m_step_setup": [(1, 1)], "_m_step": [(k, 0)] * gate_steps,
                          "solve": [], "ridge_wls": []}
        elif selector_mode == "none":
            # The inner iterations' gate solves take the set-up's gate Gram
            # and their expert fits build the k expert blocks; the final
            # pass's expert solve has no gate row, so it carries no unit
            # block and solve builds its k expert blocks.
            assert by == {"_m_step_setup": [(1, 1)], "_m_step": [], "solve": [(k, 0)],
                          "ridge_wls": [(k, 0)] * gate_steps}
        else:
            # Each iteration's one call builds a block per gate row, selected
            # or not, with the k expert blocks.
            assert by["_m_step_setup"] == by["_m_step"] == by["ridge_wls"] == []
            assert len(by["solve"]) == gate_steps
            assert all(blocks == 2 * k for blocks, _ in by["solve"])

    @pytest.mark.parametrize("k, schedule", [(3, "full"), (3, "fast"), (1, "full"), (1, "fast")])
    def test_handed_in_gram_matches_solver_built(self, monkeypatch, k, schedule):
        # A selector-free fit's solves with gate rows (k > 1, every one but
        # the fast final pass) take a Gram stack built from the set-up's
        # gate Gram, and the others none; solved again with the stack solve
        # builds itself, each gives the same bytes.
        handed = []

        def spy(problem, *, gram=None):
            report = solve(problem, gram=gram)
            handed.append(gram is not None)
            alone = solve(problem)
            assert report.iterations == alone.iterations
            for field in ("solution", "final_objective", "gap", "converged"):
                assert getattr(report, field).tobytes() == getattr(alone, field).tobytes()
            return report

        monkeypatch.setattr(trainer, "solve", spy)
        ds = generate_synthetic(preset_spec("grouped-four", 20, seed=3))
        _, report = fit(ds, Hyperparams(k=k, lambda_nu=2.0, lambda_omega=2.0, seed=2,
                                        max_iters=6, schedule=schedule))
        fast = schedule == "fast"
        assert report.solver_calls >= 1
        assert handed == [k > 1] * (report.solver_calls - fast) + [False] * fast


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

        for name in ("solve", "ridge_wls", "m_step_experts"):
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
        assert calls == ["ridge_wls", "solve"] * inner + ["solve"]
        assert all(0 < w <= k for w in widths[:-1]) and widths[-1] == ds.q * k

    @staticmethod
    def _batched_against_per_column(monkeypatch, tmp_path, ds, hyper, empty=0):
        """The fit as it is, and with each solve call replaced by one solve
        per target column, with only its weight block and its radius, the
        results stitched back together; the model files must be the same
        bytes and the reports equal apart from solver_iterations.  Every
        M-step but ``empty`` ones, whose batch has no columns, makes one
        call.  Returns the second fit's report."""
        paths = [tmp_path / "batched.json", tmp_path / "per-column.json"]
        model, batched = fit(ds, hyper)
        save_model(model, paths[0])
        widths = []

        def per_column(problem, *, gram=None):
            widths.append(len(problem.blocks))
            a, p = problem.design, problem.design.shape[1]
            alone = [solve(WlsProblem(a, problem.target[:, j], problem.row_weights[:, block],
                                      problem.radius[j], problem.bias, problem.nonnegative))
                     for j, block in enumerate(problem.blocks)]
            return SolveReport(
                np.array([one.solution for one in alone]).reshape(len(alone), p),
                max((one.iterations for one in alone), default=0),
                np.array([one.final_objective for one in alone]),
                np.array([one.gap for one in alone]),
                np.array([one.converged for one in alone], dtype=bool))

        monkeypatch.setattr(trainer, "solve", per_column)
        model, per_col = fit(ds, hyper)
        save_model(model, paths[1])
        # Every call of the fit went through the spy, one per M-step with
        # columns.
        assert len(widths) == per_col.solver_calls == per_col.iterations_run - empty
        assert all(widths)
        assert sum(widths) == per_col.constrained_solves
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert per_col.to_dict() | {"solver_iterations": 0} == (
            batched.to_dict() | {"solver_iterations": 0})
        return per_col

    @pytest.mark.parametrize("selector_mode, lambda_mu", [("none", None), ("l0", 1), ("l1", 1.5)])
    def test_merged_fit_matches_separate_m_steps(self, monkeypatch, tmp_path, selector_mode,
                                                 lambda_mu):
        # The merged M-step's one batch against its problems solved
        # separately, one per call.
        ds = generate_synthetic(preset_spec("grouped-four", 25, seed=4))
        hyper = Hyperparams(k=4, lambda_nu=3.0, lambda_omega=2.0, seed=1, max_iters=8,
                            selector_mode=selector_mode, lambda_mu=lambda_mu)
        self._batched_against_per_column(monkeypatch, tmp_path, ds, hyper)

    @pytest.mark.parametrize("selector_mode, lambda_mu, schedule, dead", [
        ("none", None, "fast", None), ("l0", 1, "fast", None), ("l1", 1.5, "fast", None),
        ("none", None, "full", 0.26), ("none", None, "fast", 0.26),
        ("none", None, "full", 0.24), ("none", None, "fast", 0.24),
    ])
    def test_fast_and_reinit_fits_match_separate_m_steps(self, monkeypatch, tmp_path,
                                                         selector_mode, lambda_mu, schedule, dead):
        # The fast schedule's inner and final M-steps, and fits that
        # re-initialize experts mid-run (see dead_expert_fit), whose batches
        # hold fewer than k experts, or none.
        if dead:
            ds, hyper = dead_expert_fit(monkeypatch, schedule, dead)
        else:
            ds = generate_synthetic(preset_spec("grouped-four", 25, seed=4))
            hyper = Hyperparams(k=4, lambda_nu=3.0, lambda_omega=2.0, seed=1, max_iters=8,
                                selector_mode=selector_mode, lambda_mu=lambda_mu,
                                schedule=schedule)
        # At 0.26 every expert is dead at the fast final pass: an empty batch.
        empty = int(schedule == "fast" and dead == 0.26)
        separate = self._batched_against_per_column(monkeypatch, tmp_path, ds, hyper, empty)
        assert bool(separate.dead_expert_reinits) == bool(dead)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 5.0, 1e6])
    def test_sweep_fit_matches_separate_solves(self, monkeypatch, tmp_path, radius):
        # The benchmark's subspace-sweep fits, from binding radii to inactive.
        ds = generate_synthetic(preset_spec("noisy-subspace", 150, noise_dims=8, seed=11))
        hyper = Hyperparams(k=4, lambda_nu=5.0, lambda_omega=radius, seed=1, max_iters=10)
        self._batched_against_per_column(monkeypatch, tmp_path, ds, hyper)

    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_expert_targets_tiled_once_per_fit(self, monkeypatch, schedule):
        tiled = []
        tile = np.tile

        def counting_tile(a, reps):
            tiled.append(reps)
            return tile(a, reps)

        monkeypatch.setattr(np, "tile", counting_tile)
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        _, report = fit(ds, Hyperparams(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1,
                                        max_iters=5, schedule=schedule))
        assert report.iterations_run >= 3
        assert tiled == [4]

    def test_fit_set_up_is_read_only(self, monkeypatch, rng):
        made = []
        build = trainer._m_step_setup

        def keeping(*args, **kwargs):
            made.append(build(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(trainer, "_m_step_setup", keeping)
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        for selector_mode, lambda_mu in (("none", None), ("l1", 1.5)):
            fit(ds, Hyperparams(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1, max_iters=3,
                                selector_mode=selector_mode, lambda_mu=lambda_mu))
        plain, selected = made
        assert list(trainer._MStepSetup._fields) == [
            "x_mat", "targets", "blocks", "radius", "unit", "gram"]
        # Every field is an array; with a selector the unit gate block's
        # weights and Gram stack are absent.
        assert [name for name, a in selected._asdict().items() if a is None] == ["unit", "gram"]
        for setup in made:
            for name, a in setup._asdict().items():
                if a is None or name == "gram":
                    continue
                assert isinstance(a, np.ndarray), name
                assert not a.flags.writeable, name
                with pytest.raises(ValueError):
                    a.flat[0] = 1.0
        assert all(isinstance(a, np.ndarray) for a in plain)
        # The Gram stack is the M-steps' scratch for the expert Grams; its
        # first matrix, the unit gate block's, is never written.
        assert plain.unit.tobytes() == np.ones((1, len(plain.x_mat))).tobytes()
        assert plain.gram.shape == (5, plain.x_mat.shape[1], plain.x_mat.shape[1])
        assert plain.gram[0].tobytes() == grams(plain.x_mat, plain.unit.T)[0].tobytes()
        # A wrapper's one-off set-up freezes only the arrays it builds.
        x = np.column_stack([rng.normal(0, 1, (10, 2)), np.ones(10)])
        targets = build_expert_targets(np.arange(10) % 2, 2)
        m_step_experts(np.full((10, 2), 0.5), x, targets, 1.0, ExpertParams(np.zeros((2, 2, 3))))
        gate_step(np.full((10, 2), 0.5), x, None, 1.0, np.zeros((2, 3)))
        assert x.flags.writeable and targets.flags.writeable

    @pytest.mark.parametrize("selector_mode, lambda_mu", [("none", None), ("l1", 1.5)])
    def test_every_row_and_expert_batch_layout(self, monkeypatch, selector_mode, lambda_mu):
        # An M-step that refits every gate row and every expert takes its
        # block index and radii from the set-up: the k gate columns (one
        # unit block, or a block each), then each expert's q columns.
        seen = []

        def spy(problem, *, gram=None):
            seen.append((problem.blocks.tolist(), problem.radius.tolist()))
            return solve(problem, gram=gram)

        monkeypatch.setattr(trainer, "solve", spy)
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        k, q = 4, ds.q
        fit(ds, Hyperparams(k=k, lambda_nu=3.0, lambda_omega=2.0, seed=1, max_iters=3,
                            selector_mode=selector_mode, lambda_mu=lambda_mu))
        g = 1 if selector_mode == "none" else k
        want = ([0] * k if g == 1 else list(range(k))) + [g + i for i in range(k) for _ in range(q)]
        full = [layout for layout in seen if len(layout[0]) == k + k * q]
        assert full and all(layout == (want, [3.0] * k + [2.0] * k * q) for layout in full)

    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("gate", [True, False])
    @pytest.mark.parametrize("experts", ["ball", "ridge"])
    @pytest.mark.parametrize("dead", [False, True])
    def test_batch_takes_its_columns_from_the_layout(self, monkeypatch, rng, unit, gate,
                                                     experts, dead):
        # The problem an M-step hands to solve holds exactly its layout
        # columns (gate rows some instance selects, then the live experts'
        # columns) with their set-up blocks and radii, and each column is
        # weighted by its own block: the unit block or its row's mu^2, or
        # its expert's responsibilities.
        n, k, q, dp = 30, 3, 2, 3
        x = np.column_stack([rng.normal(0, 1, (n, dp - 1)), np.ones(n)])
        r = np.ascontiguousarray(rng.dirichlet(np.ones(k), n).T)  # class-major (k, n)
        if dead:
            r[1] = 0.0
            r /= r.sum(axis=0)
        mu = None
        if not unit:
            mu = rng.uniform(0.2, 1.5, (n, k))
            mu[:, 2] = 0.0  # no instance selects gate row 2
        setup = trainer._m_step_setup(x, k, build_expert_targets(np.arange(n) % q, q), 2.0, 3.0,
                                      unit)
        live = trainer._live(r)
        assert live.tolist() == [True, not dead, True]
        seen = []

        def spy(problem, *, gram=None):
            seen.append((problem, gram))
            return solve(problem, gram=gram)

        monkeypatch.setattr(trainer, "solve", spy)
        _, _, report = trainer._m_step(setup, r, live, np.zeros((k, dp)), np.zeros((q, k, dp)), mu,
                                       gate=gate, experts=experts)
        if not gate and experts == "ridge":
            assert seen == [] and report is None
            return
        rows = [i for i in range(k) if unit or mu[:, i].any()] if gate else []
        solved = [i for i in range(k) if live[i]] if experts == "ball" else []
        cols = rows + [k + q * i + c for i in solved for c in range(q)]
        (problem, gram), = seen
        assert report.converged.shape == (len(cols),)
        # Targets and weights are built as (column, n) rows and handed over
        # transposed, so solve reads contiguous rows without a copy.
        assert problem.target.T.flags.c_contiguous and problem.row_weights.T.flags.c_contiguous
        # A batch without gate rows leaves out the gate's blocks, the unit
        # block or the k row blocks.
        shift = 0 if rows else (1 if unit else k)
        assert problem.blocks.tolist() == (setup.blocks[cols] - shift).tolist()
        assert problem.radius.tolist() == setup.radius[cols].tolist()
        want = ([np.ones(n) if unit else mu[:, i] * mu[:, i] for i in rows]
                + [r[i] for i in solved for _ in range(q)])
        for j, weights in enumerate(want):
            assert problem.row_weights[:, problem.blocks[j]].tobytes() == weights.tobytes()
        gate_blocks = (1 if unit else k) if rows else 0
        assert problem.row_weights.shape[1] == gate_blocks + (k if experts == "ball" else 0)
        # The set-up's unit Gram is handed in only with the unit block.
        if unit and rows:
            assert gram.tobytes() == grams(x, problem.row_weights).tobytes()
        else:
            assert gram is None

    @pytest.mark.parametrize("selector_mode, lambda_mu", [("none", None), ("l0", 1), ("l1", 1.5)])
    def test_no_call_without_columns(self, monkeypatch, selector_mode, lambda_mu):
        # At fraction 0.26 every expert is dead at the fast final pass, so
        # its batch has no columns: it makes no call and is not counted.
        seen = []

        def spy(problem, *, gram=None):
            seen.append(problem.target.shape[1])
            return solve(problem, gram=gram)

        monkeypatch.setattr(trainer, "solve", spy)
        ds, hyper = dead_expert_fit(monkeypatch, "fast", 0.26)
        hyper = dataclasses.replace(hyper, selector_mode=selector_mode, lambda_mu=lambda_mu)
        _, report = fit(ds, hyper)
        assert seen and all(seen)
        assert len(seen) == report.solver_calls < report.iterations_run

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
        kernel = trainer_mod._expert_softmax

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(trainer_mod, "_expert_softmax", counted)
        ds = generate_synthetic(preset_spec("grouped-four", 10, seed=2))
        hyper = Hyperparams(k=3, lambda_nu=2.0, lambda_omega=2.0, seed=4, max_iters=6,
                            schedule=schedule, selector_mode=selector,
                            lambda_mu=None if selector == "none" else 2)
        _, report = fit(ds, hyper)
        assert report.iterations_run >= 2
        assert report.iterations_run <= len(calls) <= report.iterations_run + 1

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
        # Three class-0 rows in four: every row is an exact tie, which goes
        # to the first class.
        ds = Dataset(ds.features, (np.arange(16) % 4 == 3).astype(int), ds.label_names)
        model = make_model(np.zeros((2, 3)), np.zeros((2, 2, 3)))
        metrics = evaluate(model, ds)
        assert metrics["nll"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert metrics["accuracy"] == np.mean(ds.labels == 0) == 0.75

    def test_overflowing_model_scores_nan_rows_as_class_0(self):
        # Logits of 1e200 * 1e200 overflow to inf, and inf - inf spoils each
        # row's whole softmax; a NaN row's class is the first, as argmax's.
        model = make_model(np.full((2, 3), 1e200), np.full((3, 2, 3), 1e200))
        ds = Dataset(np.full((3, 2), 1e200), [0, 1, 2], ("a", "b", "c"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isnan(predict_proba_batch(model, ds.features)))
            metrics = evaluate(model, ds)
        assert metrics["accuracy"] == 1 / 3
        assert math.isnan(metrics["nll"])

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

    @pytest.mark.parametrize("policy", ["ones", "gate-surrogate"])
    def test_one_scoring_path(self, policy):
        # What evaluate and the CLI's predict score from: the rows in the
        # model's classes, class-major probabilities and each row's class.
        model, ds = self.fitted()
        model = dataclasses.replace(model, hyper=dataclasses.replace(model.hyper, lambda_mu=1.5))
        swapped = Dataset(ds.features, 1 - ds.labels, ("1", "0"))
        scored, probs, top = trainer._score(model, swapped, policy)
        np.testing.assert_array_equal(scored.labels, ds.labels)
        assert scored.label_names == model.labels
        np.testing.assert_array_equal(probs, predict_proba_batch(model, ds.features, policy).T)
        np.testing.assert_array_equal(top, probs.argmax(axis=0))

    def test_model_without_tokens_keeps_ids(self, rng):
        model = random_model(rng, k=2, q=2, dp=3)
        assert model.labels is None
        ds = two_class_dataset(rng, n=8)
        assert to_model_classes(model, ds) is ds
        with pytest.raises(DataError, match="q=2"):
            to_model_classes(model, Dataset(ds.features, np.arange(8) % 3, ("a", "b", "c")))


class TestPredictProbaBatch:
    """Batched scoring agrees with one-row batches, and with predict_proba
    without a selector.  The batch's logits come from one matrix product
    and a single row's from a matrix-vector product, which BLAS may round
    differently, so they agree to rounding."""

    def test_rows_match_one_row_batches_under_any_selector(self, rng):
        for _ in range(40):
            k, q, d = (int(v) for v in rng.integers([1, 2, 1], [6, 5, 8]))
            model = random_model(rng, k=k, q=q, dp=d + 1, scale=2.0)
            feats = rng.normal(0, 2, (7, d))
            mu = rng.uniform(0, 2, (7, k)) * (rng.uniform(size=(7, k)) < 0.8)
            x_mat = prepare_inputs(feats, model.scaler)
            batch = mixture_probs(model, x_mat, mu)
            plain = predict_proba_batch(model, feats)
            for n in range(7):
                np.testing.assert_allclose(mixture_probs(model, x_mat[n:n + 1], mu[n:n + 1])[0],
                                           batch[n], rtol=1e-12, atol=0)
                np.testing.assert_allclose(predict_proba(model, feats[n]), plain[n],
                                           rtol=1e-12, atol=0)

    def test_gate_surrogate_rows_match_one_row_batches(self, rng):
        from sparse_moe.trainer import _policy_mu

        model = random_model(rng, k=3, q=2, dp=4, lambda_mu=1.5, selector_mode="l1")
        feats = rng.normal(0, 1, (8, 3))
        probs = predict_proba_batch(model, feats, "gate-surrogate")
        x_mat = prepare_inputs(feats, model.scaler)
        mu = _policy_mu(model, x_mat, "gate-surrogate")
        assert not np.all(mu == 1.0)
        for n in range(8):
            np.testing.assert_allclose(mixture_probs(model, x_mat[n:n + 1], mu[n:n + 1])[0],
                                       probs[n], rtol=1e-12, atol=0)


@pytest.mark.parametrize("score", [
    lambda model, x: predict_proba(model, x[0]),
    lambda model, x: predict_proba_batch(model, x),
    lambda model, x: evaluate(model, Dataset(x, [0, 1, 0], ("0", "1"))),
])
def test_wrong_feature_count_rejected(rng, score):
    model = random_model(rng, k=2, q=2, dp=3)
    with pytest.raises(DimensionError, match="expected 2 features, got 5"):
        score(model, rng.normal(0, 1, (3, 5)))


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

    @pytest.mark.parametrize("k, selector_mode, lambda_mu, schedule", [
        (4, "none", None, "full"), (4, "none", None, "fast"), (4, "l1", 1.5, "full"),
        (1, "none", None, "full"), (1, "none", None, "fast"),
    ])
    def test_report_counts_calls_and_most_rounds(self, monkeypatch, k, selector_mode,
                                                 lambda_mu, schedule):
        # A k = 1 fit on the fast schedule makes no call in its inner
        # iterations (no gate, unconstrained experts), only in its last.
        counted = []

        def counting_solve(*args, **kwargs):
            report = solve(*args, **kwargs)
            counted.append(report.iterations)
            return report

        monkeypatch.setattr(trainer, "solve", counting_solve)
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        hyper = Hyperparams(k=k, lambda_nu=2.0, lambda_omega=2.0, seed=1, max_iters=4,
                            selector_mode=selector_mode, lambda_mu=lambda_mu,
                            schedule=schedule)
        _, report = fit(ds, hyper)
        assert report.solver_calls == len(counted)
        assert report.solver_calls == (1 if (k, schedule) == (1, "fast") else report.iterations_run)
        assert report.solver_rounds_max == max(counted)
        doc = report.to_dict()
        assert type(doc["solver_calls"]) is int and type(doc["solver_rounds_max"]) is int
        assert (doc["solver_calls"], doc["solver_rounds_max"]) == (len(counted), max(counted))

    def test_report_only_gains_the_key(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 20, seed=3))
        _, report = fit(ds, Hyperparams(k=2, lambda_nu=0.5, lambda_omega=0.5, seed=1,
                                        max_iters=3))
        assert set(report.to_dict()) == {
            "format_version", "trace", "iterations_run", "converged", "sparsity",
            "selector_histogram", "constrained_solves", "solver_cap_hits", "solver_iterations",
            "dead_expert_reinits", "objective_decreases", "observed_ll_decreases",
            "solver_calls", "solver_rounds_max",
        }


class TestDecreaseCounts:
    """The report counts the trace records whose penalized_total, and whose
    observed_ll, fell below the previous record's."""

    @pytest.mark.parametrize("preset, hyper", [
        ("noisy-subspace", dict(k=4, lambda_nu=5.0, lambda_omega=2.0, max_iters=12)),
        ("noisy-subspace", dict(k=4, lambda_nu=5.0, lambda_omega=2.0, max_iters=6,
                                schedule="fast")),
        ("grouped-four", dict(k=4, lambda_nu=5.0, lambda_omega=5.0, max_iters=8,
                              selector_mode="l1", lambda_mu=1.5)),
        ("two-cluster-xor", dict(k=1, lambda_nu=5.0, lambda_omega=5.0, max_iters=5)),
    ])
    def test_counts_recounted_from_trace(self, preset, hyper):
        ds = generate_synthetic(preset_spec(preset, 40, noise_dims=6, seed=3))
        _, report = fit(ds, Hyperparams(seed=3, **hyper))
        fell = {"penalized_total": 0, "observed_ll": 0}
        for before, after in zip(report.trace, report.trace[1:]):
            for key in fell:
                if getattr(after, key) < getattr(before, key):
                    fell[key] += 1
        assert report.objective_decreases == fell["penalized_total"]
        assert report.observed_ll_decreases == fell["observed_ll"]
        doc = json.loads(json.dumps(report.to_dict()))
        assert type(doc["objective_decreases"]) is int
        assert type(doc["observed_ll_decreases"]) is int
        assert doc["objective_decreases"] == fell["penalized_total"]
        assert doc["observed_ll_decreases"] == fell["observed_ll"]

    def test_falling_likelihood_is_counted(self):
        # The log-target surrogate does not raise observed_ll every
        # iteration (README): a noisy-subspace fit counts its falls.
        ds = generate_synthetic(preset_spec("noisy-subspace", 150, noise_dims=8, seed=11))
        _, report = fit(ds, Hyperparams(k=4, lambda_nu=5.0, lambda_omega=2.0, seed=11,
                                        max_iters=10))
        assert report.observed_ll_decreases > 0


class TestSolverBoundary:
    """A library caller's WLS batch is checked once, when its WlsProblem is
    built, and unconstrained_wls checks its own arguments once.  A fit
    checks its fixed arrays once, in its set-up, and hands every M-step's
    batch to the engine unchecked: no WlsProblem and no _blocks pass."""

    @pytest.mark.parametrize("selector_mode, lambda_mu", [
        ("none", None), ("l0", 1), ("l1", 1.5)])
    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_each_batch_checked_once(self, monkeypatch, selector_mode, lambda_mu, schedule):
        calls = {"_blocks": 0, "WlsProblem": 0, "solve": 0, "ridge_wls": 0, "setup": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(solver_mod, "_blocks", counted("_blocks", solver_mod._blocks))
        monkeypatch.setattr(WlsProblem, "__post_init__",
                            counted("WlsProblem", WlsProblem.__post_init__))
        for name in ("solve", "ridge_wls"):
            monkeypatch.setattr(trainer, name, counted(name, getattr(trainer, name)))
        monkeypatch.setattr(trainer, "_m_step_setup", counted("setup", trainer._m_step_setup))
        ds = generate_synthetic(preset_spec("grouped-four", 15, seed=2))
        fit(ds, Hyperparams(k=4, lambda_nu=5.0, lambda_omega=5.0, seed=1, max_iters=4,
                            selector_mode=selector_mode, lambda_mu=lambda_mu, schedule=schedule))
        assert calls["solve"] >= 3
        assert (calls["ridge_wls"] > 0) == (schedule == "fast")
        assert calls["_blocks"] == calls["WlsProblem"] == 0
        assert calls["setup"] == 1

    def test_library_calls_still_checked(self, rng):
        # The boundary is where it was: a bad batch raises from WlsProblem
        # and from unconstrained_wls, and the m_step_experts wrapper checks
        # its arguments, as its solve batch did.
        a, b, w = rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (6, 2)), np.ones((6, 1))
        bad = w.copy()
        bad[2] = -1.0
        with pytest.raises(ConfigError, match="row weights"):
            WlsProblem(a, b, bad, 1.0)
        with pytest.raises(ConfigError, match="row weights"):
            solver_mod.unconstrained_wls(a, b, bad)
        x = np.column_stack([a, np.ones(6)])
        targets = build_expert_targets(np.arange(6) % 2, 2)
        r = np.full((6, 2), 0.5)
        r[2, 0] = -0.5
        with pytest.raises(ConfigError, match="row weights"):
            m_step_experts(r, x, targets, 1.0, ExpertParams(np.zeros((2, 2, 4))))
        with pytest.raises(ConfigError, match="finite"):
            m_step_experts(np.full((6, 2), 0.5), np.where(x > 1.0, np.inf, x), targets, 1.0,
                           ExpertParams(np.zeros((2, 2, 4))))
        with pytest.raises(ConfigError, match="radius"):
            m_step_experts(np.full((6, 2), 0.5), x, targets, -1.0,
                           ExpertParams(np.zeros((2, 2, 4))))


class TestDeadExpertReinit:
    """fit re-initializes an expert whose responsibility mass is below
    DEAD_EXPERT_FRACTION of the rows, before an M-step, and one that the
    M-step flagged, after it.  With k = 4 and a fraction above 1/4, some
    expert is below it in every iteration, so both paths run throughout."""

    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_both_reinit_paths_run_deterministically(self, monkeypatch, tmp_path, schedule):
        ds, hyper = dead_expert_fit(monkeypatch, schedule)
        events = {"before": 0, "after": 0}
        traced = []
        record, step = trainer._trace_record, trainer._m_step

        def tracing(*args, **kwargs):
            rec, r = record(*args, **kwargs)
            traced.append(r)
            return rec, r

        def stepping(setup, r, live, *args, **kwargs):
            # Without a selector, an M-step gets the last trace record's
            # responsibilities unless experts were re-initialized between;
            # the experts not live in it are re-initialized after it.
            events["before"] += r is not traced[-1]
            events["after"] += not live.all()
            return step(setup, r, live, *args, **kwargs)

        monkeypatch.setattr(trainer, "_trace_record", tracing)
        monkeypatch.setattr(trainer, "_m_step", stepping)
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            model, report = fit(ds, hyper)
            save_model(model, path)
        assert events["before"] > 0 and events["after"] > 0
        assert all(np.isfinite([t.penalized_total, t.observed_ll]).all() for t in report.trace)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_report_lists_each_reinit(self, monkeypatch, schedule):
        # Each re-initialization, in the order made, with the EM iteration
        # it was made in: one more than the last trace record's.
        ds, hyper = dead_expert_fit(monkeypatch, schedule)
        events = []
        reinit, record, step = trainer._reinit_expert, trainer._trace_record, trainer._m_step

        def tracing(iteration, *args, **kwargs):
            events.append(("record", iteration))
            return record(iteration, *args, **kwargs)

        def stepping(*args, **kwargs):
            events.append(("step",))
            return step(*args, **kwargs)

        def reinitializing(rng, nu, omega, i):
            last = max(e[1] for e in events if e[0] == "record")
            events.append(("reinit", last + 1, i))
            reinit(rng, nu, omega, i)

        monkeypatch.setattr(trainer, "_trace_record", tracing)
        monkeypatch.setattr(trainer, "_m_step", stepping)
        monkeypatch.setattr(trainer, "_reinit_expert", reinitializing)
        _, report = fit(ds, hyper)
        spied = [[e[1], int(e[2])] for e in events if e[0] == "reinit"]
        assert report.dead_expert_reinits == spied
        # Both paths: after a trace record, before the next M-step, and
        # after an M-step that flagged the expert.
        paths, last = set(), None
        for e in events:
            if e[0] == "reinit":
                paths.add(last)
            else:
                last = e[0]
        assert paths == {"record", "step"}
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["dead_expert_reinits"] == spied
        assert all(len(e) == 2 and all(type(v) is int for v in e) for e in doc["dead_expert_reinits"])

    def test_fast_final_pass_keeps_dead_experts_in_the_ball(self, monkeypatch):
        # No re-init follows the fast schedule's final pass: an expert it
        # flags keeps its ridge rows, projected onto the L1 ball.
        monkeypatch.setattr(trainer, "DEAD_EXPERT_FRACTION", 0.2)
        flagged = []
        step = trainer._m_step

        def stepping(setup, r, live, *args, **kwargs):
            flagged.append(np.flatnonzero(~live).tolist())
            return step(setup, r, live, *args, **kwargs)

        monkeypatch.setattr(trainer, "_m_step", stepping)
        ds = generate_synthetic(preset_spec("noisy-subspace", 25, noise_dims=4, seed=0))
        model, _ = fit(ds, Hyperparams(k=4, lambda_nu=5, lambda_omega=0.5, max_iters=6,
                                       schedule="fast", seed=0))
        assert flagged[-1]
        norms = np.abs(model.experts.omega[:, :, :-1]).sum(axis=2)
        assert norms.max() <= 0.5 * (1 + 1e-9)

    def test_no_reinits_reported_as_empty_list(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 20, seed=3))
        _, report = fit(ds, Hyperparams(k=2, lambda_nu=0.5, lambda_omega=0.5, seed=1,
                                        max_iters=3))
        assert report.dead_expert_reinits == []
        assert report.to_dict()["dead_expert_reinits"] == []

    @pytest.mark.parametrize("schedule", ["full", "fast"])
    def test_expert_at_the_threshold_is_reinitialized_before_its_m_step(self, monkeypatch,
                                                                         schedule):
        # One rule for a dead expert: mass not above DEAD_EXPERT_FRACTION of
        # the rows.  With 64 rows the fraction mass / 64 is exact, so the
        # lightest expert of the first M-step sits exactly at the threshold;
        # it is re-initialized before that M-step, not flagged by it.
        ds = generate_synthetic(preset_spec("noisy-subspace", 16, noise_dims=4, seed=2))
        assert ds.n == 64
        hyper = Hyperparams(k=4, lambda_nu=2.0, lambda_omega=2.0, seed=1, max_iters=3,
                            schedule=schedule)
        step = trainer._m_step
        given, flagged = [], []

        def stepping(setup, r, live, *args, **kwargs):
            given.append(r)
            flagged.append(np.flatnonzero(~live).tolist())
            return step(setup, r, live, *args, **kwargs)

        monkeypatch.setattr(trainer, "_m_step", stepping)
        _, report = fit(ds, hyper)
        assert report.dead_expert_reinits == []
        mass = given[0].sum(axis=1)  # class-major, as _live sums it
        lightest = int(mass.argmin())
        monkeypatch.setattr(trainer, "DEAD_EXPERT_FRACTION", mass[lightest] / ds.n)
        given.clear()
        flagged.clear()
        _, report = fit(ds, hyper)
        assert report.dead_expert_reinits[0] == [1, lightest]
        assert given[0][lightest].sum() > mass[lightest]
        assert lightest not in flagged[0]
