import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, random_model
from sparse_moe import (
    ConfigError,
    DataError,
    evaluate,
    expert_forward,
    load_dataset,
    load_model,
    save_model,
)
from sparse_moe.cli import _prediction_lines, main
from sparse_moe.model import PROB_FLOOR, model_from_dict, model_to_dict, prepare_inputs


@pytest.fixture
def xor_file(tmp_path):
    path = tmp_path / "xor.csv"
    assert main(["synth", "--preset", "two-cluster-xor", "--n", "40",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


def train_args(data, model_out, **extra):
    args = ["train", "--data", str(data), "--experts", "2",
            "--lambda-gate", "5", "--lambda-expert", "5",
            "--iters", "10", "--seed", "1", "--model-out", str(model_out)]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


class TestSynth:
    def test_rows_per_cluster(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--preset", "grouped-four", "--n", "25",
                     "--seed", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 100

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["synth", "--preset", "noisy-subspace", "--n", "10",
                  "--noise-dims", "4", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_class_counts(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["synth", "--preset", "two-cluster-xor", "--n", "10",
              "--seed", "2", "--out", str(out)])
        ds = load_dataset(out)
        assert (ds.labels == 0).sum() == 20 and (ds.labels == 1).sum() == 20

    def test_bad_preset_exit_2(self, tmp_path, capsys):
        assert main(["synth", "--preset", "nope", "--n", "5",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("noise_dims", ["-1", "-5"])
    def test_negative_noise_dims_exit_2(self, tmp_path, capsys, noise_dims):
        out = tmp_path / "x.csv"
        assert main(["synth", "--preset", "noisy-subspace", "--n", "5",
                     "--noise-dims", noise_dims, "--out", str(out)]) == 2
        assert "noise_dims" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_missing_data_flag_exit_2(self, capsys):
        assert main(["train", "--experts", "2", "--lambda-gate", "1",
                     "--lambda-expert", "1", "--model-out", "/tmp/x"]) == 2

    def test_missing_data_file_exit_3(self, tmp_path, capsys):
        assert main(train_args(tmp_path / "nope.csv", tmp_path / "m.json")) == 3

    def test_data_directory_exit_3(self, tmp_path, capsys):
        assert main(train_args(tmp_path, tmp_path / "m.json")) == 3
        assert "error" in capsys.readouterr().err

    def test_bad_hyper_exit_2(self, xor_file, tmp_path, capsys):
        args = train_args(xor_file, tmp_path / "m.json", selector="l0")
        assert main(args) == 2  # l0 without --lambda-mu

    @pytest.mark.parametrize("selector, lambda_mu", [("l0", "inf"), ("l1", "inf"),
                                                     ("l1", "nan"), ("l0", "nan")])
    def test_non_finite_lambda_mu_exit_2(self, xor_file, tmp_path, capsys,
                                         selector, lambda_mu):
        args = train_args(xor_file, tmp_path / "m.json", selector=selector,
                          lambda_mu=lambda_mu)
        assert main(args) == 2
        assert "lambda_mu must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("lambda_gate", "inf"), ("lambda_expert", "inf"),
                                             ("lambda_gate", "nan"), ("lambda_expert", "1e999")])
    def test_non_finite_radius_exit_2(self, xor_file, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(train_args(xor_file, out, **{flag: value})) == 2
        assert caught == []
        assert "L1 radii must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_model_files(self, xor_file, tmp_path, capsys):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(train_args(xor_file, m1)) == 0
        assert main(train_args(xor_file, m2)) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_progress_lines_and_report(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        report_out = tmp_path / "r.json"
        assert main(train_args(xor_file, model_out, report_out=report_out)) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("iter=")]
        assert lines[0].startswith("iter=0 obj=")
        assert len(lines) >= 2
        doc = json.loads(report_out.read_text())
        assert 0.0 <= doc["sparsity"] <= 1.0
        assert doc["iterations_run"] <= 10


class TestPredict:
    def test_output_rows_and_probability_sums(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        main(train_args(xor_file, model_out))
        out = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model_out), "--data", str(xor_file),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 160
        for line in lines:
            parts = line.split()
            probs = [float(v) for v in parts[1:]]
            assert len(probs) == 2
            assert abs(sum(probs) - 1.0) < 1e-6

    def test_single_expert_matches_expert_forward(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m1.json"
        args = train_args(xor_file, model_out)
        args[args.index("--experts") + 1] = "1"
        main(args)
        out = tmp_path / "pred.txt"
        main(["predict", "--model", str(model_out), "--data", str(xor_file),
              "--out", str(out)])
        model = load_model(model_out)
        ds = load_dataset(xor_file)
        x = prepare_inputs(ds.features, model.scaler)
        first = [float(v) for v in out.read_text().splitlines()[0].split()[1:]]
        ref = expert_forward(model.experts, 0, x[0])
        np.testing.assert_allclose(first, ref, atol=1e-8)

    def test_gate_surrogate_matches_evaluate(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out, selector="l1", lambda_mu=1.5)) == 0
        out = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model_out), "--data", str(xor_file),
                     "--out", str(out), "--selector-policy", "gate-surrogate"]) == 0
        model = load_model(model_out)
        ds = load_dataset(xor_file)
        probs = np.array([[float(v) for v in line.split()[1:]]
                          for line in out.read_text().splitlines()])
        assert probs.shape == (ds.n, ds.q)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        ref = evaluate(model, ds, "gate-surrogate")
        assert (probs.argmax(axis=1) == ds.labels).mean() == ref["accuracy"]
        nll = -np.log(np.maximum(probs[np.arange(ds.n), ds.labels], PROB_FLOOR)).mean()
        assert nll == pytest.approx(ref["nll"], rel=1e-7)

    def test_probabilities_match_predict_proba_batch(self, xor_file, tmp_path, capsys):
        from sparse_moe import predict_proba_batch

        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out, selector="l1", lambda_mu=1.5)) == 0
        model = load_model(model_out)
        ds = load_dataset(xor_file)
        for policy in ("ones", "gate-surrogate"):
            out = tmp_path / f"pred-{policy}.txt"
            assert main(["predict", "--model", str(model_out), "--data", str(xor_file),
                         "--out", str(out), "--selector-policy", policy]) == 0
            lines = out.read_text().splitlines()
            printed = np.array([[float(v) for v in line.split()[1:]] for line in lines])
            ref = predict_proba_batch(model, ds.features, policy)
            # 9 significant digits are printed
            np.testing.assert_allclose(printed, ref, rtol=1e-8, atol=0)
            assert [line.split()[0] for line in lines] == [
                ds.label_names[c] for c in ref.argmax(axis=1)]

    def test_tie_prints_first_label(self, tmp_path, capsys):
        # Zero weights give every class probability exactly 1/q.
        model_out = tmp_path / "zero.json"
        save_model(make_model(np.zeros((2, 3)), np.zeros((3, 2, 3))), model_out)
        data = tmp_path / "d.csv"
        data.write_text("1,2,b\n3,4,c\n5,6,a\n")
        out = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model_out), "--data", str(data),
                     "--out", str(out)]) == 0
        assert out.read_text() == "b 0.333333333 0.333333333 0.333333333\n" * 3

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_lines_match_per_row_format(self, q):
        rng = np.random.default_rng(q)
        logits = rng.normal(0.0, 4.0, (300, q))
        logits[:5] = 0.0  # exact ties
        logits[5, 0] = -800.0  # an underflowed probability
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        names = tuple(f"c{l}" for l in range(q))
        want = []
        for row in probs:
            label = names[int(np.argmax(row))]
            want.append(label + " " + " ".join(f"{p:.9g}" for p in row))
        assert _prediction_lines(names, probs) == "\n".join(want) + "\n"

    @pytest.mark.parametrize("corrupt", ["missing-key", "not-an-object", "not-json",
                                         "deeply-nested"])
    def test_malformed_model_exit_3(self, xor_file, tmp_path, capsys, corrupt):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        doc = json.loads(model_out.read_text())
        if corrupt == "missing-key":
            del doc["nu"]
        elif corrupt == "not-an-object":
            doc = [doc]
        text = json.dumps(doc)
        if corrupt == "not-json":
            text = text[:-1]
        elif corrupt == "deeply-nested":  # deeper than the JSON decoder's recursion limit
            text = "[" * 100_000 + "]" * 100_000
        model_out.write_text(text)
        assert main(["predict", "--model", str(model_out), "--data", str(xor_file),
                     "--out", str(tmp_path / "p.txt")]) == 3
        assert "error" in capsys.readouterr().err

    # Written as JSON text, so that 1e400 parses to inf and NaN to nan.  A
    # malformed field exits 3; hyperparameters that train would reject exit
    # 2, as a bad selector budget does (test_gate_surrogate_bad_budget_exit_2).
    @pytest.mark.parametrize("field, text, code", [
        ("k", "1e400", 3),
        ("scaler", '{"mean": [NaN, 0.0], "std": [1.0, 1.0]}', 3),
        ("selector_mode", '["none"]', 2),
        ("lambda_omega", "-1", 2),
        ("lambda_nu", "1e400", 2),
    ])
    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_invalid_model_field_rejected(self, xor_file, tmp_path, capsys, field, text,
                                          code, command):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        doc = json.loads(model_out.read_text())
        doc[field] = "@"
        model_out.write_text(json.dumps(doc).replace('"@"', text))
        args = [command, "--model", str(model_out), "--data", str(xor_file)]
        if command == "predict":
            args += ["--out", str(tmp_path / "p.txt")]
        assert main(args) == code
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_overflowing_model_exit_4(self, xor_file, tmp_path, capsys, command):
        # Finite weights whose logits overflow: exit 4, no non-finite output.
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        doc = json.loads(model_out.read_text())
        doc["nu"][0][0] = 1e308
        model_out.write_text(json.dumps(doc))
        args = [command, "--model", str(model_out), "--data", str(xor_file)]
        if command == "predict":
            args += ["--out", str(tmp_path / "p.txt")]
        assert main(args) == 4
        assert "overflow" in capsys.readouterr().err

    def test_shape_mismatch_exit_3(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        main(train_args(xor_file, model_out))
        other = tmp_path / "wide.csv"
        main(["synth", "--preset", "grouped-four", "--n", "5", "--seed", "1",
              "--out", str(other)])
        assert main(["predict", "--model", str(model_out), "--data", str(other),
                     "--out", str(tmp_path / "p.txt")]) == 3


class TestEvaluate:
    def test_prints_metrics(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        main(train_args(xor_file, model_out))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_out), "--data", str(xor_file)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("accuracy=")
        acc = float(out.split()[0].split("=")[1])
        assert 0.0 <= acc <= 1.0
        nll = float(out.split()[1].split("=")[1])
        assert nll >= 0.0

    def test_gate_surrogate_bad_budget_exit_2(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out, selector="l1", lambda_mu=1.5)) == 0
        doc = json.loads(model_out.read_text())
        doc["lambda_mu"] = -1
        model_out.write_text(json.dumps(doc))
        assert main(["evaluate", "--model", str(model_out), "--data", str(xor_file),
                     "--selector-policy", "gate-surrogate"]) == 2
        assert "error" in capsys.readouterr().err


class TestInspect:
    def test_lists_surviving_features(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        report_out = tmp_path / "r.json"
        main(train_args(xor_file, model_out, report_out=report_out))
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_out),
                     "--report", str(report_out)]) == 0
        out = capsys.readouterr().out
        assert "gate[0]:" in out and "expert[class=0,expert=1]:" in out
        assert "sparsity=" in out
        assert "active-experts-histogram:" in out

    def test_threshold_zero_lists_every_dim(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        main(train_args(xor_file, model_out))
        capsys.readouterr()
        # trained weights are generically nonzero, so threshold 0 keeps all
        assert main(["inspect", "--model", str(model_out), "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("expert["):
                assert line.split(":")[1].split() == ["0", "1"]

    def test_sparsity_consistent_with_report(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        report_out = tmp_path / "r.json"
        main(train_args(xor_file, model_out, report_out=report_out))
        capsys.readouterr()
        main(["inspect", "--model", str(model_out)])
        out = capsys.readouterr().out
        printed = float([l for l in out.splitlines() if l.startswith("sparsity=")][0].split("=")[1])
        # inspect prints 6 decimals
        assert printed == pytest.approx(json.loads(report_out.read_text())["sparsity"], abs=1e-6)

    @pytest.mark.parametrize("report", [[{"selector_histogram": {"2": 5}}],
                                        {"selector_histogram": [2, 5]}])
    def test_report_without_histogram_object_exit_3(self, xor_file, tmp_path, capsys, report):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        report_out = tmp_path / "r.json"
        report_out.write_text(json.dumps(report))
        assert main(["inspect", "--model", str(model_out), "--report", str(report_out)]) == 3
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# model-file fuzz: mutate a valid document at random places

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_documents(draw, base):
    """base with one to three nodes deleted or replaced by any JSON value."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            doc = draw(JSON_VALUES)
        elif draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    return doc


_BASE_MODEL = random_model(np.random.default_rng(5), k=2, q=2, dp=3, lambda_mu=1.5,
                           selector_mode="l1")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "xor.csv"
    assert main(["synth", "--preset", "two-cluster-xor", "--n", "10", "--seed", "3",
                 "--out", str(data)]) == 0
    return data, root / "m.json", root / "p.txt"


@settings(deadline=None, max_examples=200)
@given(doc=mutated_documents(model_to_dict(_BASE_MODEL)))
def test_mutated_model_file(fuzz_files, doc):
    # A mutated document loads or raises ConfigError or DataError.  Predict
    # never raises: it exits 2 or 3 on a document that does not load, and
    # otherwise 0, 3 (shape mismatch) or 4 (overflow).
    data, model_path, out = fuzz_files
    try:
        model_from_dict(doc)
        loaded = True
    except (ConfigError, DataError):
        loaded = False
    model_path.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(out)])
    assert code in ((0, 3, 4) if loaded else (2, 3))
