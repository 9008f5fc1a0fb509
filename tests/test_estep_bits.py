"""fit's E-step and objective bookkeeping, pinned byte for byte.

fit keeps its forward pass class-major, as the kernel returns it: label
likelihoods g, gate probabilities h and responsibilities r are (k, n)
arrays, and g is one ``take`` from the experts' (q, k, n) output.  This
file keeps a reference copy of the earlier (n, k) code (the label
likelihoods picked from the experts' output read back as (n, q, k), the
posterior, the dead-expert test and the trace record) and requires the
same bytes from the class-major code, read back as (n, k), for k = 1..10:
with and without a selector, with identical experts (tied entries) and
with weights large enough that some joint probabilities fall below
PROB_FLOOR.

The evidence and the expected complete log-likelihood must add each
row's terms as an (n, k) row does: NumPy adds such a row in order below
eight terms and pairwise from eight on, so k = 8..10 pin that order.
``_live`` sums each expert's row of r pairwise, where the (n, k) column sum
added the rows in order; the masses can differ in the last bit, so the
threshold case here uses masses that every order sums exactly.
"""

import dataclasses

import numpy as np
import pytest

from conftest import random_model
from sparse_moe import trainer
from sparse_moe.model import PROB_FLOOR, _expert_softmax, _gate_softmax, prepare_inputs
from sparse_moe.trainer import TraceRecord, TrainingError


def ref_label_probs(omega, x_mat, labels):
    return _expert_softmax(omega, x_mat).transpose(2, 0, 1)[np.arange(x_mat.shape[0]), labels]


def ref_posterior(g, h):
    joint = np.maximum(g * h, PROB_FLOOR)
    evidence = joint.sum(axis=1, keepdims=True)
    return joint / evidence, evidence


def ref_live(r, fraction):
    return r.sum(axis=0) > fraction * len(r)


def ref_trace_record(iteration, g, h, nu, omega, mu):
    r, evidence = ref_posterior(g, h)
    ll = float(
        np.sum(r * (np.log(np.maximum(g, PROB_FLOOR)) + np.log(np.maximum(h, PROB_FLOOR))))
    )
    pen_nu = float(np.abs(nu[:, :-1]).sum())
    pen_omega = float(np.abs(omega[:, :, :-1]).sum())
    pen_mu = 0.0 if mu is None else float(np.abs(mu).sum())
    record = TraceRecord(iteration, ll, pen_nu, pen_omega, pen_mu,
                         ll - pen_nu - pen_omega - pen_mu, float(np.log(evidence).sum()))
    if not np.isfinite(record.penalized_total):
        raise TrainingError(f"non-finite objective at iteration {iteration}")
    return record, r


def same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def record_bytes(record):
    return [np.float64(v).tobytes() for v in dataclasses.astuple(record)]


@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("selector", [False, True])
@pytest.mark.parametrize("k", range(1, 11))
class TestEStepBits:
    @staticmethod
    def _case(k, n, selector, scale, tied):
        rng = np.random.default_rng([k, n, selector, int(scale), tied])
        q, d = int(rng.integers(2, 5)), int(rng.integers(1, 12))
        model = random_model(rng, k=k, q=q, dp=d + 1, scale=scale)
        nu, omega = model.gate.nu.copy(), model.experts.omega.copy()
        if tied and k > 1:  # expert 1 is a copy of expert 0
            nu[1], omega[:, 1] = nu[0], omega[:, 0]
        x_mat = prepare_inputs(rng.normal(0, 2, (n, d)), model.scaler)
        labels = rng.integers(0, q, n)
        mu = None
        if selector:
            mu = rng.uniform(0, 2, (n, k)) * (rng.uniform(size=(n, k)) < 0.7)
        return nu, omega, x_mat, labels, mu

    @pytest.mark.parametrize("scale, tied", [(1.0, False), (1.0, True), (40.0, False)])
    def test_class_major_matches_reference(self, monkeypatch, k, n, selector, scale, tied):
        nu, omega, x_mat, labels, mu = self._case(k, n, selector, scale, tied)
        g_ref = ref_label_probs(omega, x_mat, labels)
        h_ref = _gate_softmax(nu, x_mat, np.ones((n, k)) if mu is None else mu).T
        g = trainer._label_probs(omega, x_mat, trainer._label_index(labels, k))
        h = trainer._gate_softmax(nu, x_mat, mu)
        same_bytes(g.T, g_ref)
        same_bytes(h.T, h_ref)
        if scale > 1.0:  # the floor is reached
            assert (g_ref * h_ref < PROB_FLOOR).any()

        r_ref, evidence_ref = ref_posterior(g_ref, h_ref)
        r, evidence = trainer._posterior(g, h)
        same_bytes(r.T, r_ref)
        same_bytes(evidence, evidence_ref[:, 0])

        record_ref, _ = ref_trace_record(3, g_ref, h_ref, nu, omega, mu)
        record, r_record = trainer._trace_record(3, g, h, nu, omega, mu)
        assert record_bytes(record) == record_bytes(record_ref)
        same_bytes(r_record.T, r_ref)

        for fraction in (trainer.DEAD_EXPERT_FRACTION, 0.05, 0.2, 1.0 / k):
            monkeypatch.setattr(trainer, "DEAD_EXPERT_FRACTION", fraction)
            assert trainer._live(r).tolist() == ref_live(r_ref, fraction).tolist()


@pytest.mark.parametrize("n", [1, 8, 256])
@pytest.mark.parametrize("k", range(1, 11))
def test_live_at_the_threshold(monkeypatch, k, n):
    # Responsibilities in quarters and n a power of two: every order sums
    # each mass exactly, and mass / n * n is the mass, so an expert whose
    # mass is exactly the threshold is dead in both.
    rng = np.random.default_rng([k, n])
    r_ref = rng.integers(0, 5, (n, k)) / 4.0
    mass = r_ref.sum(axis=0)
    for i in range(k):
        monkeypatch.setattr(trainer, "DEAD_EXPERT_FRACTION", mass[i] / n)
        want = ref_live(r_ref, mass[i] / n)
        assert not want[i]
        assert trainer._live(np.ascontiguousarray(r_ref.T)).tolist() == want.tolist()
