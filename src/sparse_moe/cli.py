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
import dataclasses
import sys

import numpy as np

from .data import generate_synthetic, load_dataset, preset_spec, save_dataset
from .errors import ConfigError, DataError, DimensionError, SolverError, TrainingError
from .model import (
    SCHEDULES,
    SELECTOR_MODES,
    SPARSITY_THRESHOLD,
    Hyperparams,
    load_model,
    read_json,
    save_model,
    sparsity,
)
from .trainer import SELECTOR_POLICIES, _score, evaluate, fit

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

    # A hyperparameter flag's dest is its Hyperparams field; one left out keeps the default.
    train = sub.add_parser("train", help="fit a model on a delimited data file",
                           argument_default=argparse.SUPPRESS)
    train.add_argument("--data", required=True)
    train.add_argument("--experts", dest="k", type=int, required=True)
    train.add_argument("--lambda-gate", dest="lambda_nu", type=float, required=True)
    train.add_argument("--lambda-expert", dest="lambda_omega", type=float, required=True)
    train.add_argument("--selector", dest="selector_mode", choices=SELECTOR_MODES)
    train.add_argument("--lambda-mu", type=float)
    train.add_argument("--iters", dest="max_iters", type=int)
    train.add_argument("--tol", type=float)
    train.add_argument("--seed", type=int)
    train.add_argument("--schedule", choices=SCHEDULES)
    train.add_argument("--model-out", required=True)
    train.add_argument("--report-out", default=None)

    predict = sub.add_parser("predict", help="write per-instance label and probabilities")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--selector-policy", choices=SELECTOR_POLICIES, default="ones")
    predict.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="print accuracy and mean NLL")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--selector-policy", choices=SELECTOR_POLICIES, default="ones")

    inspect = sub.add_parser("inspect", help="list surviving feature indices")
    inspect.add_argument("--model", required=True)
    inspect.add_argument("--threshold", type=float, default=SPARSITY_THRESHOLD)
    inspect.add_argument("--report", default=None)

    synth = sub.add_parser("synth", help="write a synthetic dataset file")
    synth.add_argument("--preset", required=True)
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--noise-dims", type=int, default=0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    return parser


def cmd_train(args) -> int:
    fields = {f.name for f in dataclasses.fields(Hyperparams)}
    hyper = Hyperparams(**{name: v for name, v in vars(args).items() if name in fields})
    dataset = load_dataset(args.data)
    model, report = fit(dataset, hyper)
    for rec in report.trace:
        print(f"iter={rec.iteration} obj={rec.penalized_total:.6f}")
    save_model(model, args.model_out)
    if args.report_out:
        report.save(args.report_out)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    with np.errstate(**_SCORING_ERRSTATE):
        dataset, probs, top = _score(model, dataset, args.selector_policy)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_prediction_lines(dataset.label_names, probs, top))
    return EXIT_OK


def _prediction_lines(label_names, probs, top) -> str:
    """One line per column of the class-major (q, n) probabilities: the
    row's class ``top`` by label, then each probability to 9 significant
    digits."""
    names = [label_names[c] for c in top.tolist()]
    line = "%s" + " %.9g" * len(probs) + "\n"
    return "".join(line % row for row in zip(names, *probs.tolist()))


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset(args.data)
    with np.errstate(**_SCORING_ERRSTATE):
        metrics = evaluate(model, dataset, args.selector_policy)
    print(f"accuracy={metrics['accuracy']:.6f} nll={metrics['nll']:.6f}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    thr = args.threshold
    if not thr >= 0:
        raise ConfigError(f"--threshold must be a nonnegative number, got {thr}")
    model = load_model(args.model)
    nu = model.gate.nu
    omega = model.experts.omega
    for i in range(model.k):
        alive = [str(j) for j in range(model.d) if abs(nu[i, j]) > thr]
        print(f"gate[{i}]: " + " ".join(alive))
    for l in range(model.q):
        for i in range(model.k):
            alive = [str(j) for j in range(model.d) if abs(omega[l, i, j]) > thr]
            print(f"expert[class={l},expert={i}]: " + " ".join(alive))
    print(f"sparsity={sparsity(model, thr):.6f}")
    if args.report:
        doc = read_json(args.report, "report")
        hist = doc.get("selector_histogram", {}) if isinstance(doc, dict) else None
        if not isinstance(hist, dict):
            raise DataError(f"{args.report}: no selector histogram object in the report")
        try:
            counts = sorted(((int(k), v) for k, v in hist.items()), key=lambda kv: kv[0])
        except ValueError as exc:
            raise DataError(f"{args.report}: a selector histogram key is not an integer") from exc
        parts = " ".join(f"{k}:{v}" for k, v in counts)
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
