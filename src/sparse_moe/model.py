"""Parameter containers and forward evaluation of the mixture classifier.

Conventions used throughout:
  * inputs are standardized with the scaler stored in the model, then a
    constant-1 bias feature is appended, so weight vectors have D+1
    entries with the bias last;
  * the bias coordinate never counts toward any L1 budget;
  * the gate softmax takes logits mu_i * (nu_i . x), so an all-ones
    selector row gives the plain softmax's values (x * 1.0 == x), and
    None skips the product.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Scaler
from .errors import ConfigError, DataError, DimensionError

PROB_FLOOR = 1e-12
SELECTOR_MODES = ("none", "l0", "l1")
SCHEDULES = ("full", "fast")
# The magnitude below which a weight counts as pruned (sparsity, inspect's
# default) and a selector entry as inactive (the fit report's histogram).
SPARSITY_THRESHOLD = 1e-6


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
    """Per-instance expert relevance matrix (n, k): the finite, nonnegative
    weight each instance puts on each expert's gate score.  Row budgets
    are enforced where the selector is produced.
    """

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 2:
            raise DimensionError("selector must be an (n, k) matrix")
        if not (np.isfinite(mu).all() and (mu >= 0.0).all()):
            raise DataError("selector entries must be finite and nonnegative")


@dataclass(frozen=True)
class Hyperparams:
    """The fit's settings; building one (``dataclasses.replace`` too) checks them."""

    k: int
    lambda_nu: float
    lambda_omega: float
    lambda_mu: float | None = None
    selector_mode: str = "none"
    max_iters: int = 30
    tol: float = 1e-6
    seed: int = 0
    schedule: str = "full"

    def __post_init__(self):
        for name in ("k", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("lambda_nu", "lambda_omega", "lambda_mu", "tol"):
            value = getattr(self, name)
            if name == "lambda_mu" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if self.k < 1:
            raise ConfigError("need at least one expert")
        if not (0 < self.lambda_nu < math.inf and 0 < self.lambda_omega < math.inf):
            raise ConfigError("L1 radii must be positive and finite")
        if self.selector_mode not in SELECTOR_MODES:
            raise ConfigError(f"unknown selector mode {self.selector_mode!r}")
        if self.lambda_mu is not None and not 0 < self.lambda_mu < math.inf:
            raise ConfigError("lambda_mu must be finite and positive")
        if self.selector_mode != "none":
            if self.lambda_mu is None:
                raise ConfigError("active selector requires a positive lambda_mu")
            if self.selector_mode == "l0":
                _check_subset_budget(self.k, self.lambda_mu)
        if self.max_iters < 1:
            raise ConfigError("need at least one iteration")
        if not self.tol > 0:
            raise ConfigError("tolerance must be positive")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _check_subset_budget(k, budget):
    """The l0 selector's rule: a whole-number budget, 1 <= budget <= k, and
    no more than a million subsets of the largest size to enumerate.
    Returns the budget as an int."""
    if budget % 1:  # a fraction, or nan for nan and inf
        raise ConfigError("l0 selector budget must be an integer")
    whole = int(budget)
    if whole < 1 or whole > k:
        raise ConfigError(f"l0 subset budget {whole} out of range for k={k}")
    count = 1  # C(k, j) = C(k, k - j) grows with j up to k/2, so stop once past the guard
    for j in range(1, min(whole, k - whole) + 1):
        count = count * (k - j + 1) // j
        if count > 1_000_000:
            raise ConfigError(f"C({k},{whole}) l0 subsets exceed the enumeration guard")
    return whole


def enumerate_subsets(k, budget):
    """All subsets of {0..k-1} with 1 <= |S| <= budget, lexicographic within size."""
    for size in range(1, _check_subset_budget(k, budget) + 1):
        yield from itertools.combinations(range(k), size)


@dataclass(frozen=True)
class MixtureModel:
    """Immutable trained model; all forward operations are pure.

    ``labels[c]`` is the class token of class id c, as in the training
    data's ``Dataset.label_names``; None for a model file that predates
    stored tokens.
    """

    gate: GateParams
    experts: ExpertParams
    hyper: Hyperparams
    scaler: Scaler
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        q, k, dp = self.experts.omega.shape
        if self.gate.nu.shape != (k, dp):
            raise DimensionError("gate/expert shapes disagree")
        if k != self.hyper.k:
            raise DimensionError("expert count disagrees with hyperparameters")
        if self.scaler.mean.shape != (dp - 1,) or self.scaler.std.shape != (dp - 1,):
            raise DimensionError("scaler dimension disagrees with weights")
        if self.labels is not None:
            labels = tuple(self.labels)
            if (len(labels) != q or not all(isinstance(t, str) for t in labels)
                    or len(set(labels)) != q):
                raise DataError(f"labels must be {q} distinct class tokens, got {labels!r}")
            object.__setattr__(self, "labels", labels)

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
    """Standardize raw features and append the constant-1 bias column.

    The result is feature-major (Fortran order): each column is contiguous,
    so the passes down the rows of the design (the weighted Gram matrices,
    right-hand sides and logits) run over long unit-stride columns.  It is
    the transpose of a C-ordered (d+1, n) array filled one feature row at a
    time, each row one whole-row pass.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim < 2:
        x = x.reshape(1, -1)
    if x.shape[1] != scaler.mean.shape[0]:
        raise DimensionError(
            f"expected {scaler.mean.shape[0]} features, got {x.shape[1]}"
        )
    rows = np.empty((x.shape[1] + 1, x.shape[0]))
    z = rows[:-1]
    np.subtract(x.T, scaler.mean[:, None], out=z)
    np.divide(z, scaler.std[:, None], out=z)
    rows[-1] = 1.0
    return rows.T


# ---------------------------------------------------------------------------
# the forward kernel, on prepared rows (standardized, bias appended)
#
# Logits come from one matrix product and are laid out class-major, (k, n)
# for the gate and (q, k, n) for the experts, so that each softmax reduces
# over the leading axis; callers index that layout as it is.


def _softmax(logits):
    """Softmax over the leading axis, in place on a fresh array."""
    e = logits - logits.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return e


def _gate_softmax(nu, x_mat, mu):
    """Gated gate probabilities p(m_i | x_n), softmax over i of
    mu_ni * (nu_i . x_n), class-major (k, n); ``mu`` None is all ones."""
    logits = nu @ x_mat.T
    if mu is not None:
        logits *= mu.T
    return _softmax(logits)


def _expert_softmax(omega, x_mat):
    """Class probabilities p(y = c_l | x_n, m_i), class-major (q, k, n)."""
    q, k, dp = omega.shape
    return _softmax((omega.reshape(q * k, dp) @ x_mat.T).reshape(q, k, -1))


def mixture_probs(model: MixtureModel, x_mat, mu):
    """Mixture class probabilities sum_i p(m_i | x_n) p(y | x_n, m_i), (n, q);
    ``mu`` None is all ones.  The terms are added in expert order: NumPy's
    ``sum`` promises no order, and pairs one row's terms from k = 8 on."""
    terms = _expert_softmax(model.experts.omega, x_mat)  # (q, k, n)
    terms *= _gate_softmax(model.gate.nu, x_mat, mu)
    probs = terms[:, 0]
    for i in range(1, model.k):
        probs += terms[:, i]
    return probs.T


def _top_class(probs):
    """Each row's class from class-major (q, n) probabilities: the first
    largest, as ``argmax`` gives, found in q - 1 whole-row passes.  A NaN
    row (the kernel's are all NaN) gets class 0, as ``argmax`` gives."""
    best = np.zeros(probs.shape[1], dtype=np.intp)
    top = probs[0].copy()
    for c in range(1, probs.shape[0]):
        better = probs[c] > top
        best += better * (c - best)
        np.maximum(top, probs[c], out=top)
    return best


def _one_row(v, length, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise DimensionError(f"expected {what} of length {length}, got {v.shape}")
    return v[None]


def gate_forward(gate: GateParams, x, mu_row):
    """Gated gate probabilities p(m_i | x) of one prepared input."""
    k, dp = gate.nu.shape
    mu = ExpertSelector(_one_row(mu_row, k, "selector row")).mu  # the selector's range rule
    return _gate_softmax(gate.nu, _one_row(x, dp, "input"), mu)[:, 0]


def expert_forward(experts: ExpertParams, i, x):
    """Class probabilities p(y | x, m_i) of expert i on one prepared input."""
    q, k, dp = experts.omega.shape
    if not 0 <= i < k:
        raise IndexError(f"expert index {i} out of range for k={k}")
    # Expert i alone is a k = 1 mixture, so its logits round as that one's do.
    return _expert_softmax(experts.omega[:, i : i + 1], _one_row(x, dp, "input"))[:, 0, 0]


def predict_proba(model: MixtureModel, x):
    """Mixture class probabilities for one raw D-vector under every expert
    (the "ones" policy): a one-row call of the batched forward kernel."""
    xb = prepare_inputs(np.asarray(x, dtype=float).reshape(1, -1), model.scaler)
    return mixture_probs(model, xb, None)[0]


def sparsity(model: MixtureModel, threshold=SPARSITY_THRESHOLD) -> float:
    """Fraction of the non-bias gate and expert weights whose magnitude is
    below ``threshold``."""
    weights = np.concatenate(
        [np.abs(model.gate.nu[:, :-1]).ravel(), np.abs(model.experts.omega[:, :, :-1]).ravel()]
    )
    return float(np.mean(weights < threshold))


def model_to_dict(model: MixtureModel) -> dict:
    doc = {
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
    if model.labels is not None:
        doc["labels"] = list(model.labels)
    return doc


def _number(value, field):
    """A JSON number, not a boolean, as a float."""
    if type(value) not in (int, float):
        raise DataError(f"the field {field!r} must be a JSON number, got {value!r}")
    return float(value)


def _numbers(value, field):
    """Nested lists of JSON numbers, not booleans, as a float array."""
    arr = np.array(value, dtype=object)
    if not all(type(v) in (int, float) for v in arr.flat):
        raise DataError(f"the field {field!r} must hold JSON numbers")
    return arr.astype(float)


def model_from_dict(doc: dict) -> MixtureModel:
    """The model a :func:`model_to_dict` document describes.  An unknown
    format version, or hyperparameters that ``Hyperparams`` rejects, raise
    ConfigError, before the weights are read; any other malformed document
    raises DataError, among them radii, scaler entries or weights that are
    not JSON numbers and ``labels`` that are not q distinct strings.  A
    document without ``labels`` gives a model whose ``labels`` is None."""
    if not isinstance(doc, dict):
        raise DataError("a model file must hold a JSON object")
    if doc.get("format_version") != 1:
        raise ConfigError(f"unsupported model format {doc.get('format_version')!r}")
    try:
        k = doc["k"]
        if isinstance(k, bool) or not isinstance(k, int):
            raise DataError(f"the field 'k' must be an integer, got {k!r}")
        lambda_mu, labels = doc["lambda_mu"], doc.get("labels")
        if "labels" in doc and not isinstance(labels, list):
            raise DataError(f"the field 'labels' must be a list of class tokens, got {labels!r}")
        hyper = Hyperparams(
            k=k,
            lambda_nu=_number(doc["lambda_nu"], "lambda_nu"),
            lambda_omega=_number(doc["lambda_omega"], "lambda_omega"),
            lambda_mu=None if lambda_mu is None else _number(lambda_mu, "lambda_mu"),
            selector_mode=doc["selector_mode"],
        )
        scaler = doc["scaler"]
        model = MixtureModel(
            gate=GateParams(_numbers(doc["nu"], "nu")),
            experts=ExpertParams(_numbers(doc["omega"], "omega")),
            hyper=hyper,
            scaler=Scaler(_numbers(scaler["mean"], "scaler"), _numbers(scaler["std"], "scaler")),
            labels=labels,
        )
    except KeyError as exc:
        raise DataError(f"model file lacks the field {exc}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    return model


def write_json(doc, path) -> None:
    """Write a model or fit-report document.  Sorted keys and repr floats
    give byte-identical files for identical documents."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def read_json(path, kind):
    """The JSON document in a ``kind`` file ("model", "report").  Text that
    does not decode, or nests past the decoder's recursion limit, raises
    DataError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not a JSON {kind} file: {exc}") from exc


def save_model(model: MixtureModel, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> MixtureModel:
    return model_from_dict(read_json(path, "model"))
