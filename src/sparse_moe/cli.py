"""Command-line surface: train / predict / evaluate / inspect / synth.

Exit codes: 0 success, 2 usage or configuration, 3 data or model problems,
4 numeric failures (in training, or a model whose probabilities overflow).
Progress goes to stdout, diagnostics to stderr, machine-readable artifacts
only to --out paths.

Note: the lambda flags are L1 *radii* (hard constraint budgets), not
penalty multipliers.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .data import generate_synthetic, load_dataset, preset_spec, save_dataset
from .errors import ConfigError, DataError, DimensionError, SolverError, TrainingError
from .model import Hyperparams, load_model, save_model
from .trainer import evaluate, fit, predict_proba_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# Scoring a loaded model raises FloatingPointError (exit 4) where NumPy
# would warn and write non-finite probabilities.
_SCORING_ERRSTATE = {"over": "raise", "invalid": "raise", "divide": "raise"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-moe",
        description="Train and run regularized mixture-of-experts classifiers "
        "with embedded L1 feature selection and per-instance expert selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model on a delimited data file")
    train.add_argument("--data", required=True)
    train.add_argument("--experts", type=int, required=True)
    train.add_argument("--lambda-gate", type=float, required=True)
    train.add_argument("--lambda-expert", type=float, required=True)
    train.add_argument("--selector", choices=["none", "l0", "l1"], default="none")
    train.add_argument("--lambda-mu", type=float, default=None)
    train.add_argument("--iters", type=int, default=30)
    train.add_argument("--tol", type=float, default=1e-6)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--schedule", choices=["full", "fast"], default="full")
    train.add_argument("--model-out", required=True)
    train.add_argument("--report-out", default=None)

    predict = sub.add_parser("predict", help="write per-instance label and probabilities")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument(
        "--selector-policy", choices=["ones", "gate-surrogate"], default="ones"
    )
    predict.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="print accuracy and mean NLL")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument(
        "--selector-policy", choices=["ones", "gate-surrogate"], default="ones"
    )

    inspect = sub.add_parser("inspect", help="list surviving feature indices")
    inspect.add_argument("--model", required=True)
    inspect.add_argument("--threshold", type=float, default=1e-6)
    inspect.add_argument("--report", default=None)

    synth = sub.add_parser("synth", help="write a synthetic dataset file")
    synth.add_argument("--preset", required=True)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--noise-dims", type=int, default=0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    return parser


def cmd_train(args) -> int:
    hyper = Hyperparams(
        k=args.experts,
        lambda_nu=args.lambda_gate,
        lambda_omega=args.lambda_expert,
        lambda_mu=args.lambda_mu,
        selector_mode=args.selector,
        max_iters=args.iters,
        tol=args.tol,
        seed=args.seed,
        schedule=args.schedule,
    ).validate()
    dataset = load_dataset(args.data)
    model, report = fit(dataset, hyper)
    for rec in report.trace:
        print(f"iter={rec.iteration} obj={rec.penalized_total:.6f}")
    save_model(model, args.model_out)
    if args.report_out:
        report.save(args.report_out)
    return EXIT_OK


def _model_and_data(args):
    """The model and data files of predict/evaluate, checked to match."""
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    if dataset.d != model.d or dataset.q != model.q:
        raise DataError(
            f"model expects d={model.d}, q={model.q}; data has d={dataset.d}, q={dataset.q}"
        )
    return model, dataset


def cmd_predict(args) -> int:
    model, dataset = _model_and_data(args)
    with np.errstate(**_SCORING_ERRSTATE):
        probs = predict_proba_batch(model, dataset.features, args.selector_policy)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_prediction_lines(dataset.label_names, probs))
    return EXIT_OK


def _prediction_lines(label_names, probs) -> str:
    """One line per row: the argmax label (first on ties), then each
    probability to 9 significant digits."""
    names = [label_names[c] for c in probs.argmax(axis=1).tolist()]
    line = "%s" + " %.9g" * probs.shape[1] + "\n"
    return "".join(line % row for row in zip(names, *probs.T.tolist()))


def cmd_evaluate(args) -> int:
    model, dataset = _model_and_data(args)
    with np.errstate(**_SCORING_ERRSTATE):
        metrics = evaluate(model, dataset, args.selector_policy)
    print(f"accuracy={metrics['accuracy']:.6f} nll={metrics['nll']:.6f}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    thr = args.threshold
    nu = model.gate.nu
    omega = model.experts.omega
    for i in range(model.k):
        alive = [str(j) for j in range(model.d) if abs(nu[i, j]) > thr]
        print(f"gate[{i}]: " + " ".join(alive))
    for l in range(model.q):
        for i in range(model.k):
            alive = [str(j) for j in range(model.d) if abs(omega[l, i, j]) > thr]
            print(f"expert[class={l},expert={i}]: " + " ".join(alive))
    weights = np.concatenate(
        [np.abs(nu[:, :-1]).ravel(), np.abs(omega[:, :, :-1]).ravel()]
    )
    print(f"sparsity={float(np.mean(weights < thr)):.6f}")
    if args.report:
        doc = json.loads(open(args.report, encoding="utf-8").read())
        hist = doc.get("selector_histogram", {}) if isinstance(doc, dict) else None
        if not isinstance(hist, dict):
            raise DataError(f"{args.report}: no selector histogram object in the report")
        parts = " ".join(f"{k}:{v}" for k, v in sorted(hist.items()))
        print(f"active-experts-histogram: {parts}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = preset_spec(args.preset, args.n, noise_dims=args.noise_dims, seed=args.seed)
    dataset = generate_synthetic(spec)
    save_dataset(dataset, args.out)
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "inspect": cmd_inspect,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DimensionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, SolverError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
