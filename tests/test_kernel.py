"""The forward kernel's outputs, pinned byte for byte.

The kernel in ``sparse_moe.model`` works in place on its fresh arrays and
skips the product with an absent (all-ones) selector.  Neither changes a
value: an in-place ufunc rounds as the out-of-place one, and x * 1.0 == x.
This file keeps a plain reference copy of the kernel, written with fresh
temporaries and an explicit all-ones selector, and requires the same bytes
from the class-major softmaxes _gate_softmax and _expert_softmax (read back
in the reference's (n, k) and (n, q, k) layouts), mixture_probs,
predict_proba and predict_proba_batch under both selector policies.

The expert sum stays an ordered loop over the experts in both copies.
NumPy does not promise the order of a reduction.  With NumPy 2.4,
``terms.sum(axis=1)`` adds a single row's terms pairwise from eight experts
on: on random single rows with k = 9..16 it rounded differently from the
loop in 1,753 of 3,000 cases (0 of 3,000 with k = 1..5, at n = 1, 3 and
257), and ``np.einsum`` with k = 1..5 in 948 of 3,000 single rows.  The
loop keeps the order, and so the bits, fixed for every k and n.
"""

import numpy as np
import pytest

from conftest import random_model
from sparse_moe import Dataset, evaluate, predict_proba, predict_proba_batch
from sparse_moe.model import (
    PROB_FLOOR,
    _expert_softmax,
    _gate_softmax,
    _softmax,
    mixture_probs,
    prepare_inputs,
)
from sparse_moe.trainer import _selector_norm1


def ref_softmax(logits):
    e = np.exp(logits - logits.max(axis=0))
    return e / e.sum(axis=0)


def ref_gate_probs(nu, x_mat, mu):
    return ref_softmax((nu @ x_mat.T) * mu.T).T


def ref_expert_class_probs(omega, x_mat):
    q, k, dp = omega.shape
    logits = (omega.reshape(q * k, dp) @ x_mat.T).reshape(q, k, -1)
    return ref_softmax(logits).transpose(2, 0, 1)


def ref_mixture_probs(model, x_mat, mu):
    h = ref_gate_probs(model.gate.nu, x_mat, mu).T  # (k, n)
    experts = ref_expert_class_probs(model.experts.omega, x_mat).transpose(1, 2, 0)
    probs = experts[:, 0] * h[0]
    for i in range(1, model.k):
        probs += experts[:, i] * h[i]
    return probs.T


def ref_predict_proba(model, x, mu_row=None):
    xb = prepare_inputs(np.asarray(x, dtype=float).reshape(1, -1), model.scaler)
    mu = np.ones((1, model.k)) if mu_row is None else np.asarray(mu_row, dtype=float)[None]
    return ref_mixture_probs(model, xb, mu)[0]


def same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 3, 257])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
class TestKernelBits:
    @staticmethod
    def _case(k, q, n):
        rng = np.random.default_rng([k, q, n])
        d = int(rng.integers(1, 41))
        model = random_model(rng, k=k, q=q, dp=d + 1, scale=2.0, lambda_mu=1.5,
                             selector_mode="l1")
        feats = rng.normal(0, 2, (n, d))
        mu = rng.uniform(0, 2, (n, k)) * (rng.uniform(size=(n, k)) < 0.8)
        return model, feats, mu

    def test_kernel_matches_reference(self, k, q, n):
        model, feats, mu = self._case(k, q, n)
        x_mat = prepare_inputs(feats, model.scaler)
        nu, omega, ones = model.gate.nu, model.experts.omega, np.ones((n, k))
        same_bytes(_expert_softmax(omega, x_mat).transpose(2, 0, 1),
                   ref_expert_class_probs(omega, x_mat))
        for sel in (mu, ones):
            same_bytes(_gate_softmax(nu, x_mat, sel).T, ref_gate_probs(nu, x_mat, sel))
            same_bytes(mixture_probs(model, x_mat, sel), ref_mixture_probs(model, x_mat, sel))
        same_bytes(_gate_softmax(nu, x_mat, None).T, ref_gate_probs(nu, x_mat, ones))
        same_bytes(mixture_probs(model, x_mat, None), ref_mixture_probs(model, x_mat, ones))

    def test_single_rows_match_reference(self, k, q, n):
        model, feats, _ = self._case(k, q, n)
        for x in feats[:8]:
            same_bytes(predict_proba(model, x), ref_predict_proba(model, x))

    def test_batches_match_reference_under_both_policies(self, k, q, n):
        model, feats, _ = self._case(k, q, n)
        x_mat = prepare_inputs(feats, model.scaler)
        ones = np.ones((n, k))
        same_bytes(predict_proba_batch(model, feats), ref_mixture_probs(model, x_mat, ones))
        h = ref_gate_probs(model.gate.nu, x_mat, ones)
        surrogate = _selector_norm1(model.gate.nu, x_mat, h, model.hyper.lambda_mu)
        same_bytes(predict_proba_batch(model, feats, "gate-surrogate"),
                   ref_mixture_probs(model, x_mat, surrogate))
        # evaluate's metrics are the row-major formulas' on the reference.
        labels = np.random.default_rng([k, q, n, 1]).integers(0, q, n)
        ds = Dataset(feats, labels, tuple(f"c{c}" for c in range(q)))
        for policy, sel in (("ones", ones), ("gate-surrogate", surrogate)):
            ref = ref_mixture_probs(model, x_mat, sel)
            true_p = np.maximum(ref[np.arange(n), labels], PROB_FLOOR)
            assert evaluate(model, ds, policy) == {
                "accuracy": float((ref.argmax(axis=1) == labels).mean()),
                "nll": float(-np.log(true_p).mean()),
            }


def test_kernel_leaves_its_inputs_unchanged(rng):
    model = random_model(rng, k=3, q=2, dp=5)
    x_mat = prepare_inputs(rng.normal(0, 1, (6, 4)), model.scaler)
    mu = rng.uniform(0, 2, (6, 3))
    logits = model.gate.nu @ x_mat.T
    saved = [a.copy() for a in (model.gate.nu, model.experts.omega, x_mat, mu, logits)]
    mixture_probs(model, x_mat, mu)
    _softmax(logits)
    for before, after in zip(saved, (model.gate.nu, model.experts.omega, x_mat, mu, logits)):
        same_bytes(after, before)
