"""Parameter containers and forward evaluation of the mixture classifier.

Conventions used throughout:
  * inputs are standardized with the scaler stored in the model, then a
    constant-1 bias feature is appended, so weight vectors have D+1
    entries with the bias last;
  * the bias coordinate never counts toward any L1 budget;
  * the gate softmax takes logits mu_i * (nu_i . x), so an all-ones
    selector row reproduces the plain softmax on the same code path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Scaler
from .errors import ConfigError, DataError, DimensionError

PROB_FLOOR = 1e-12
SELECTOR_MODES = ("none", "l0", "l1")
SCHEDULES = ("full", "fast")


@dataclass(frozen=True)
class GateParams:
    nu: np.ndarray  # (k, d+1)

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "nu", nu)
        if nu.ndim != 2 or nu.shape[0] < 1:
            raise DimensionError("gate weights must be a (k, d+1) matrix")
        if not np.all(np.isfinite(nu)):
            raise DimensionError("gate weights must be finite")


@dataclass(frozen=True)
class ExpertParams:
    omega: np.ndarray  # (q, k, d+1)

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", om)
        if om.ndim != 3:
            raise DimensionError("expert weights must be a (q, k, d+1) tensor")
        if not np.all(np.isfinite(om)):
            raise DimensionError("expert weights must be finite")


@dataclass(frozen=True)
class ExpertSelector:
    """Per-instance expert relevance matrix (n, k).

    mode none: all ones.  mode l0: binary rows.  mode l1: nonnegative rows.
    Row budgets are enforced where the selector is produced.
    """

    mu: np.ndarray
    mode: str = "none"

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 2:
            raise DimensionError("selector must be an (n, k) matrix")
        if self.mode not in SELECTOR_MODES:
            raise ConfigError(f"unknown selector mode {self.mode!r}")
        if self.mode == "none" and not np.all(mu == 1.0):
            raise ConfigError("selector mode 'none' requires an all-ones matrix")
        if self.mode == "l0" and not np.all((mu == 0.0) | (mu == 1.0)):
            raise ConfigError("selector mode 'l0' requires binary entries")
        if self.mode == "l1" and np.any(mu < 0.0):
            raise ConfigError("selector mode 'l1' requires nonnegative entries")


@dataclass(frozen=True)
class Hyperparams:
    k: int
    lambda_nu: float
    lambda_omega: float
    lambda_mu: float | None = None
    selector_mode: str = "none"
    max_iters: int = 30
    tol: float = 1e-6
    seed: int = 0
    schedule: str = "full"

    def validate(self):
        if self.k < 1:
            raise ConfigError("need at least one expert")
        if not (0 < self.lambda_nu < math.inf and 0 < self.lambda_omega < math.inf):
            raise ConfigError("L1 radii must be positive and finite")
        if self.selector_mode not in SELECTOR_MODES:
            raise ConfigError(f"unknown selector mode {self.selector_mode!r}")
        if self.lambda_mu is not None and not math.isfinite(self.lambda_mu):
            raise ConfigError("lambda_mu must be finite")
        if self.selector_mode != "none":
            if self.lambda_mu is None or not self.lambda_mu > 0:
                raise ConfigError("active selector requires a positive lambda_mu")
            if self.selector_mode == "l0":
                budget = int(self.lambda_mu)
                if budget != self.lambda_mu:
                    raise ConfigError("l0 selector budget must be an integer")
                if budget > self.k:
                    raise ConfigError("l0 selector budget exceeds the expert count")
                if math.comb(self.k, budget) > 1_000_000:
                    raise ConfigError("l0 subset enumeration would exceed the guard")
        if self.max_iters < 1:
            raise ConfigError("need at least one iteration")
        if not self.tol > 0:
            raise ConfigError("tolerance must be positive")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        return self


@dataclass(frozen=True)
class MixtureModel:
    """Immutable trained model; all forward operations are pure."""

    gate: GateParams
    experts: ExpertParams
    hyper: Hyperparams
    scaler: Scaler

    def __post_init__(self):
        q, k, dp = self.experts.omega.shape
        if self.gate.nu.shape != (k, dp):
            raise DimensionError("gate/expert shapes disagree")
        if k != self.hyper.k:
            raise DimensionError("expert count disagrees with hyperparameters")
        if self.scaler.mean.shape != (dp - 1,) or self.scaler.std.shape != (dp - 1,):
            raise DimensionError("scaler dimension disagrees with weights")

    @property
    def k(self) -> int:
        return self.gate.nu.shape[0]

    @property
    def q(self) -> int:
        return self.experts.omega.shape[0]

    @property
    def d(self) -> int:
        return self.gate.nu.shape[1] - 1


def prepare_inputs(features, scaler: Scaler):
    """Standardize raw features and append the constant-1 bias column."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.shape[1] != scaler.mean.shape[0]:
        raise DimensionError(
            f"expected {scaler.mean.shape[0]} features, got {x.shape[1]}"
        )
    z = (x - scaler.mean) / scaler.std
    return np.hstack([z, np.ones((x.shape[0], 1))])


# ---------------------------------------------------------------------------
# the forward kernel, on prepared rows (standardized, bias appended)
#
# Logits come from one matrix product and are laid out class-major, (k, n)
# for the gate and (q, k, n) for the experts, so that each softmax reduces
# over the leading axis; the results are returned as (n, k) and (n, q, k)
# views of that memory.


def _softmax(logits):
    """Softmax over the leading axis."""
    e = np.exp(logits - logits.max(axis=0))
    return e / e.sum(axis=0)


def gate_probs(nu, x_mat, mu):
    """Gated gate probabilities p(m_i | x_n), softmax over i of
    mu_ni * (nu_i . x_n), as an (n, k) array."""
    return _softmax((nu @ x_mat.T) * mu.T).T


def expert_class_probs(omega, x_mat):
    """Class probabilities p(y = c_l | x_n, m_i) as an (n, q, k) array."""
    q, k, dp = omega.shape
    logits = (omega.reshape(q * k, dp) @ x_mat.T).reshape(q, k, -1)
    return _softmax(logits).transpose(2, 0, 1)


def mixture_probs(model: MixtureModel, x_mat, mu):
    """Mixture class probabilities sum_i p(m_i | x_n) p(y | x_n, m_i), (n, q)."""
    h = gate_probs(model.gate.nu, x_mat, mu).T  # (k, n)
    experts = expert_class_probs(model.experts.omega, x_mat).transpose(1, 2, 0)  # (q, k, n)
    probs = experts[:, 0] * h[0]
    for i in range(1, model.k):
        probs += experts[:, i] * h[i]
    return probs.T


def _one_row(v, length, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise DimensionError(f"expected {what} of length {length}, got {v.shape}")
    return v[None]


def gate_forward(gate: GateParams, x, mu_row):
    """Gated gate probabilities p(m_i | x) of one prepared input."""
    k, dp = gate.nu.shape
    return gate_probs(gate.nu, _one_row(x, dp, "input"), _one_row(mu_row, k, "selector row"))[0]


def expert_forward(experts: ExpertParams, i, x):
    """Class probabilities p(y | x, m_i) of expert i on one prepared input."""
    q, k, dp = experts.omega.shape
    if not 0 <= i < k:
        raise IndexError(f"expert index {i} out of range for k={k}")
    # Expert i alone is a k = 1 mixture, so its logits round as that one's do.
    return expert_class_probs(experts.omega[:, i : i + 1], _one_row(x, dp, "input"))[0, :, 0]


def predict_proba(model: MixtureModel, x, mu_row=None):
    """Mixture class probabilities for one raw D-vector: a one-row call of
    the batched forward kernel."""
    xb = prepare_inputs(np.asarray(x, dtype=float).reshape(1, -1), model.scaler)
    mu = np.ones((1, model.k)) if mu_row is None else _one_row(mu_row, model.k, "selector row")
    return mixture_probs(model, xb, mu)[0]


def predict_label(model: MixtureModel, x, mu_row=None) -> int:
    """Smallest class id attaining the maximum mixture probability."""
    return int(np.argmax(predict_proba(model, x, mu_row)))


def model_to_dict(model: MixtureModel) -> dict:
    return {
        "format_version": 1,
        "k": model.k,
        "q": model.q,
        "d": model.d,
        "selector_mode": model.hyper.selector_mode,
        "lambda_nu": model.hyper.lambda_nu,
        "lambda_omega": model.hyper.lambda_omega,
        "lambda_mu": model.hyper.lambda_mu,
        "scaler": {
            "mean": [float(v) for v in model.scaler.mean],
            "std": [float(v) for v in model.scaler.std],
        },
        "nu": model.gate.nu.tolist(),
        "omega": model.experts.omega.tolist(),
    }


def model_from_dict(doc: dict) -> MixtureModel:
    """The model a :func:`model_to_dict` document describes.  An unknown
    format version, or hyperparameters that ``Hyperparams.validate``
    rejects, raise ConfigError; any other malformed document raises
    DataError."""
    if not isinstance(doc, dict):
        raise DataError("a model file must hold a JSON object")
    if doc.get("format_version") != 1:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}")
    try:
        hyper = Hyperparams(
            k=int(doc["k"]),
            lambda_nu=float(doc["lambda_nu"]),
            lambda_omega=float(doc["lambda_omega"]),
            lambda_mu=None if doc["lambda_mu"] is None else float(doc["lambda_mu"]),
            selector_mode=doc["selector_mode"],
        )
        model = MixtureModel(
            gate=GateParams(np.array(doc["nu"], dtype=float)),
            experts=ExpertParams(np.array(doc["omega"], dtype=float)),
            hyper=hyper,
            scaler=Scaler(np.array(doc["scaler"]["mean"]), np.array(doc["scaler"]["std"])),
        )
    except KeyError as exc:
        raise DataError(f"model file lacks the field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    # Validated once k is known to match the weights, so that a huge k
    # never reaches the subset-count guard.
    hyper.validate()
    return model


def save_model(model: MixtureModel, path) -> None:
    # sort_keys + repr floats give byte-identical files for identical models.
    Path(path).write_text(
        json.dumps(model_to_dict(model), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def load_model(path) -> MixtureModel:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not a JSON model file: {exc}") from exc
    return model_from_dict(doc)
