import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, random_model
from sparse_moe import (
    ConfigError,
    DataError,
    DimensionError,
    ExpertParams,
    ExpertSelector,
    GateParams,
    Hyperparams,
    MixtureModel,
    Scaler,
    enumerate_subsets,
    expert_forward,
    gate_forward,
    load_model,
    predict_proba,
    prepare_inputs,
    save_model,
)
from sparse_moe.model import _check_subset_budget, mixture_probs

E_RATIO = math.e / (math.e + 1.0)  # 0.7310585786300049


class TestPrepareInputs:
    # The design is filled by reading the features transposed, so every
    # input layout must give the same values.
    @pytest.mark.parametrize("layout", ["C", "F", "every other row", "integer"])
    @pytest.mark.parametrize("n", [1, 37, 257])
    def test_feature_major_with_exact_values(self, rng, n, layout):
        x = rng.normal(3.0, 2.0, (n, 4))
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "every other row":
            x = rng.normal(3.0, 2.0, (2 * n, 4))[::2]
        elif layout == "integer":
            x = rng.integers(-50, 50, (n, 4))
        scaler = Scaler(rng.normal(0, 1, 4), rng.uniform(0.5, 2.0, 4))
        out = prepare_inputs(x, scaler)
        assert out.shape == (n, 5)
        assert out.flags.f_contiguous
        want = (x.astype(float) - scaler.mean) / scaler.std
        assert out[:, :-1].tobytes() == want.tobytes()
        assert np.all(out[:, -1] == 1.0)

    def test_one_raw_vector_is_one_row(self, rng):
        x = rng.normal(0, 1, 3)
        scaler = Scaler(np.zeros(3), np.full(3, 2.0))
        np.testing.assert_array_equal(prepare_inputs(x, scaler), [[*(x / 2.0), 1.0]])


class TestContainerChecks:
    """Each parameter container rejects values outside its domain."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: GateParams(np.zeros(3)), DimensionError, "(k, d+1) matrix"),
        (lambda: ExpertParams(np.zeros((2, 3))), DimensionError, "(q, k, d+1) tensor"),
        (lambda: ExpertParams([[[0.0, np.inf]]]), DimensionError,
         "expert weights must be finite"),
        (lambda: ExpertSelector(np.ones(3)), DimensionError, "(n, k) matrix"),
        (lambda: ExpertSelector([[1.0, -0.5]]), DataError, "finite and nonnegative"),
        (lambda: ExpertSelector([[1.0, np.nan]]), DataError, "finite and nonnegative"),
        (lambda: ExpertSelector([[np.inf, 0.0]]), DataError, "finite and nonnegative"),
        (lambda: MixtureModel(GateParams(np.zeros((2, 3))), ExpertParams(np.zeros((2, 2, 3))),
                              Hyperparams(k=3, lambda_nu=1.0, lambda_omega=1.0),
                              Scaler(np.zeros(2), np.ones(2))),
         DimensionError, "expert count disagrees with hyperparameters"),
    ])
    def test_rejected(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()


class TestGateForward:
    def test_zero_weights_uniform(self):
        gate = GateParams(np.zeros((3, 4)))
        out = gate_forward(gate, np.array([1.0, 2.0, -1.0, 1.0]), np.ones(3))
        np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_hand_computed_binary(self):
        gate = GateParams(np.array([[1.0], [0.0]]))
        out = gate_forward(gate, np.array([1.0]), np.ones(2))
        np.testing.assert_allclose(out, [E_RATIO, 1.0 - E_RATIO], atol=1e-12)

    def test_all_ones_selector_is_plain_softmax(self, rng):
        nu = rng.normal(0, 1, (4, 3))
        x = rng.normal(0, 1, 3)
        gated = gate_forward(GateParams(nu), x, np.ones(4))
        logits = nu @ x
        e = np.exp(logits - logits.max())
        np.testing.assert_array_equal(gated, e / e.sum())

    def test_logit_offset_stability(self, rng):
        # A common +1000 shift of all logits must not change the output.
        nu = rng.normal(0, 1, (3, 2))
        x = np.array([1.0, 1.0])
        shifted = nu.copy()
        shifted[:, -1] += 1000.0  # bias slot sees x=1, so logits shift by 1000
        base = gate_forward(GateParams(nu), x, np.ones(3))
        out = gate_forward(GateParams(shifted), x, np.ones(3))
        np.testing.assert_allclose(out, base, atol=1e-10)

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [-1.0, 1.0], [1.0, np.inf]])
    def test_selector_row_outside_the_domain_raises(self, row):
        # One rule for a selector row and a whole selector.
        message = "selector entries must be finite and nonnegative"
        with pytest.raises(DataError, match=message):
            gate_forward(GateParams(np.zeros((2, 3))), np.ones(3), row)
        with pytest.raises(DataError, match=message):
            ExpertSelector(np.array([row]))

    def test_shape_mismatch(self):
        gate = GateParams(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            gate_forward(gate, np.zeros(4), np.ones(2))
        with pytest.raises(DimensionError):
            gate_forward(gate, np.zeros(3), np.ones(3))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_row_stochastic(self, k, dp, seed):
        r = np.random.default_rng(seed)
        out = gate_forward(
            GateParams(r.normal(0, 5, (k, dp))), r.normal(0, 5, dp), r.uniform(0, 1, k)
        )
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out > 0)


class TestExpertForward:
    def test_zero_weights_uniform(self):
        experts = ExpertParams(np.zeros((4, 2, 3)))
        out = expert_forward(experts, 1, np.array([1.0, 2.0, 1.0]))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_hand_computed(self):
        omega = np.zeros((2, 1, 3))
        omega[0, 0, 0] = 1.0
        out = expert_forward(ExpertParams(omega), 0, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [E_RATIO, 1.0 - E_RATIO], atol=1e-12)

    def test_shift_invariance(self, rng):
        omega = rng.normal(0, 1, (3, 2, 4))
        x = rng.normal(0, 1, 4)
        shifted = omega + rng.normal(0, 1, 4)  # same vector added to every class row
        base = expert_forward(ExpertParams(omega), 0, x)
        out = expert_forward(ExpertParams(shifted), 0, x)
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_index_out_of_range(self):
        experts = ExpertParams(np.zeros((2, 2, 3)))
        with pytest.raises(IndexError):
            expert_forward(experts, 2, np.zeros(3))


class TestPredictProba:
    def test_single_expert_equals_expert_forward(self, rng):
        model = random_model(rng, k=1, q=3, dp=4)
        x = rng.normal(0, 1, 3)
        xb = np.append(x, 1.0)
        np.testing.assert_array_equal(
            predict_proba(model, x), expert_forward(model.experts, 0, xb)
        )

    def test_identical_experts_ignore_gate(self, rng):
        omega = rng.normal(0, 1, (3, 1, 4))
        omega = np.repeat(omega, 2, axis=1)
        x = rng.normal(0, 1, 3)
        out1 = predict_proba(make_model(rng.normal(0, 2, (2, 4)), omega), x)
        out2 = predict_proba(make_model(rng.normal(0, 2, (2, 4)), omega), x)
        np.testing.assert_allclose(out1, out2, atol=1e-14)

    def test_brute_force_mixture_sum(self, rng):
        for _ in range(20):
            model = random_model(rng, k=3, q=4, dp=5)
            x = rng.normal(0, 1, 4)
            xb = np.append(x, 1.0).astype(np.longdouble)
            nu = model.gate.nu.astype(np.longdouble)
            om = model.experts.omega.astype(np.longdouble)
            logits = nu @ xb
            h = np.exp(logits - logits.max())
            h /= h.sum()
            ref = np.zeros(4, dtype=np.longdouble)
            for i in range(3):
                lo = om[:, i, :] @ xb
                p = np.exp(lo - lo.max())
                ref += (p / p.sum()) * h[i]
            np.testing.assert_allclose(
                predict_proba(model, x), ref.astype(float), atol=1e-12
            )

    def test_row_stochastic(self, rng):
        for _ in range(10):
            model = random_model(rng, k=2, q=3, dp=3, scale=4.0)
            out = predict_proba(model, rng.normal(0, 3, 2))
            assert out.sum() == pytest.approx(1.0, abs=1e-10)

    def test_expert_permutation_symmetry(self, rng):
        nu = rng.normal(0, 1, (3, 4))
        omega = rng.normal(0, 1, (2, 3, 4))
        x = rng.normal(0, 1, 3)
        mu = rng.uniform(0, 1, (1, 3))
        perm = np.array([2, 0, 1])
        model = make_model(nu, omega)
        xb = prepare_inputs(x, model.scaler)
        base = mixture_probs(model, xb, mu)
        out = mixture_probs(make_model(nu[perm], omega[:, perm, :]), xb, mu[:, perm])
        np.testing.assert_allclose(out, base, atol=1e-12)


class TestHyperparams:
    def test_valid(self):
        Hyperparams(k=2, lambda_nu=1.0, lambda_omega=1.0)
        Hyperparams(k=np.int64(2), lambda_nu=1.0, lambda_omega=1.0, max_iters=np.int32(3),
                    seed=np.uint8(1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0, lambda_nu=1.0, lambda_omega=1.0),
            dict(k=2, lambda_nu=0.0, lambda_omega=1.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=-1.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, selector_mode="l0"),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, selector_mode="l0", lambda_mu=1.5),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, selector_mode="l0", lambda_mu=3),
            # lambda_mu must be positive whenever it is given, selector or not.
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, lambda_mu=0.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, lambda_mu=-1.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, selector_mode="l1", lambda_mu=0.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, selector_mode="l1", lambda_mu=-1.5),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, max_iters=0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, schedule="turbo"),
            # Counts are integers: NumPy integers pass, bools and floats do not.
            dict(k=2.5, lambda_nu=1.0, lambda_omega=1.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, max_iters=2.5),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, max_iters=3.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, seed=1.5),
            dict(k=True, lambda_nu=1.0, lambda_omega=1.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, max_iters=np.True_),
            dict(k=np.float64(2.0), lambda_nu=1.0, lambda_omega=1.0),
            dict(k=2, lambda_nu=1.0, lambda_omega=1.0, seed=False),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            Hyperparams(**kwargs)

    @pytest.mark.parametrize("field", ["lambda_nu", "lambda_omega", "lambda_mu", "tol"])
    @pytest.mark.parametrize("value", ["5", None, True, np.True_, [1.0], 1 + 0j])
    def test_number_fields_are_real_numbers(self, field, value):
        # A radius, budget or tolerance that is not a real number, or is a
        # bool, is a config error, not a TypeError from a comparison.
        # lambda_mu may be None: no budget.
        kwargs = {**dict(k=2, lambda_nu=1.0, lambda_omega=1.0), field: value}
        if field == "lambda_mu" and value is None:
            assert Hyperparams(**kwargs).lambda_mu is None
            return
        with pytest.raises(ConfigError, match=f"{field} must be a real number"):
            Hyperparams(**kwargs)

    def test_number_fields_take_numpy_scalars(self):
        hyper = Hyperparams(k=2, lambda_nu=np.float64(1.5), lambda_omega=np.float32(2.0),
                            lambda_mu=np.int64(1), selector_mode="l0", tol=np.float64(1e-6))
        assert hyper.lambda_nu == 1.5 and hyper.lambda_mu == 1
        Hyperparams(k=2, lambda_nu=5, lambda_omega=1, lambda_mu=1.5, selector_mode="l1", tol=1)

    @pytest.mark.parametrize("change", [dict(lambda_nu="5"), dict(tol=None),
                                        dict(lambda_mu=False)])
    def test_replace_checks_number_fields(self, change):
        hyper = Hyperparams(k=2, lambda_nu=1.0, lambda_omega=1.0)
        with pytest.raises(ConfigError, match="must be a real number"):
            dataclasses.replace(hyper, **change)

    @pytest.mark.parametrize("selector_mode, lambda_mu", [("l0", float("inf")),
                                                          ("l1", float("inf")),
                                                          ("l1", float("nan")),
                                                          ("none", float("-inf"))])
    def test_non_finite_lambda_mu(self, selector_mode, lambda_mu):
        with pytest.raises(ConfigError, match="lambda_mu must be finite"):
            Hyperparams(k=2, lambda_nu=1.0, lambda_omega=1.0, selector_mode=selector_mode,
                        lambda_mu=lambda_mu)

    @pytest.mark.parametrize("change", [dict(selector_mode="bogus"), dict(lambda_nu=-1.0),
                                        dict(selector_mode="l0"), dict(max_iters=0),
                                        dict(k=1, selector_mode="l0", lambda_mu=2)])
    def test_replace_is_checked(self, change):
        hyper = Hyperparams(k=2, lambda_nu=1.0, lambda_omega=1.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(hyper, **change)

    def test_l0_guard_matches_the_full_subset_count(self):
        for k in range(1, 61):
            for budget in range(1, k + 1):
                try:
                    _check_subset_budget(k, budget)
                    ok = True
                except ConfigError as exc:
                    assert str(exc) == f"C({k},{budget}) l0 subsets exceed the enumeration guard"
                    ok = False
                assert ok == (math.comb(k, budget) <= 1_000_000), (k, budget)

    def test_l0_guard_stops_early_on_a_huge_k(self):
        # C(10**12, 5*10**11) in full would not finish; the guard trips at
        # its first step.
        code = ("from sparse_moe import ConfigError, Hyperparams\n"
                "try:\n"
                "    Hyperparams(k=10**12, lambda_nu=1.0, lambda_omega=1.0,\n"
                "                selector_mode='l0', lambda_mu=5 * 10**11)\n"
                "except ConfigError as exc:\n"
                "    print(exc)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=10, env=env)
        assert out.stdout == ("C(1000000000000,500000000000) l0 subsets exceed the "
                              "enumeration guard\n"), out.stderr

    # One rule for both: 1 <= budget <= k and C(k, budget) <= 1_000_000
    # (C(1414, 2) = 998_991, C(1415, 2) = 1_000_405).
    @pytest.mark.parametrize("k, budget, ok", [
        (3, 1, True), (3, 3, True), (5, 2, True), (1414, 2, True),
        (3, 0, False), (3, 4, False), (1415, 2, False), (100, 50, False),
    ])
    def test_l0_budget_rule_shared_with_enumerate_subsets(self, k, budget, ok):
        def accepted(call):
            try:
                call()
            except ConfigError:
                return False
            return True

        assert accepted(lambda: Hyperparams(k=k, lambda_nu=1.0, lambda_omega=1.0,
                                            lambda_mu=budget, selector_mode="l0")) == ok
        # The first subset is drawn only once the budget is checked.
        assert accepted(lambda: next(enumerate_subsets(k, budget))) == ok


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        model = random_model(rng, k=3, q=2, dp=5, lambda_mu=1.5, selector_mode="l1")
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.gate.nu, model.gate.nu)
        np.testing.assert_array_equal(loaded.experts.omega, model.experts.omega)
        np.testing.assert_array_equal(loaded.scaler.mean, model.scaler.mean)
        assert loaded.hyper.lambda_mu == model.hyper.lambda_mu
        assert loaded.hyper.selector_mode == "l1"

    def test_resave_byte_identical(self, rng, tmp_path):
        model = random_model(rng, k=2, q=2, dp=3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_labels_round_trip(self, rng, tmp_path):
        model = dataclasses.replace(random_model(rng, k=2, q=3, dp=3), labels=["b", "c", "a"])
        assert model.labels == ("b", "c", "a")
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).labels == ("b", "c", "a")

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ConfigError):
            load_model(path)
