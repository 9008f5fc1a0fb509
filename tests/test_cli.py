import copy
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, random_model
from sparse_moe import (
    ConfigError,
    DataError,
    Dataset,
    Hyperparams,
    evaluate,
    expert_forward,
    fit,
    generate_synthetic,
    load_dataset,
    load_model,
    preset_spec,
    save_model,
)
from sparse_moe import trainer
from sparse_moe.cli import _prediction_lines, main
from sparse_moe.model import PROB_FLOOR, _top_class, model_from_dict, model_to_dict, prepare_inputs


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

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--preset", "two-cluster-xor", "--n", "5", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
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

    def test_one_class_file_exit_3(self, xor_file, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("".join(r + "\n" for r in xor_file.read_text().splitlines()
                               if r.endswith(",1")))
        out = tmp_path / "m.json"
        assert main(train_args(one, out)) == 3
        assert "fewer than 2 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ending", ["", "  "])
    def test_empty_class_token_exit_3(self, xor_file, tmp_path, capsys, ending):
        # Row 3's class cell is empty: not a class of its own.
        rows = xor_file.read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0] + "," + ending
        data = tmp_path / "empty-label.csv"
        data.write_text("".join(r + "\n" for r in rows))
        out = tmp_path / "m.json"
        assert main(train_args(data, out)) == 3
        assert "empty class token at row 3" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_hyper_exit_2(self, xor_file, tmp_path, capsys):
        args = train_args(xor_file, tmp_path / "m.json", selector="l0")
        assert main(args) == 2  # l0 without --lambda-mu

    def test_negative_seed_exit_2(self, xor_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(train_args(xor_file, out, seed=-1)) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("selector, lambda_mu", [(None, "-1"), (None, "0"), ("l1", "0")])
    def test_non_positive_lambda_mu_exit_2(self, xor_file, tmp_path, capsys, selector,
                                           lambda_mu):
        # Rejected with or without a selector: a model trained with it
        # could not be scored under the gate-surrogate policy.
        extra = {"selector": selector} if selector else {}
        out = tmp_path / "m.json"
        assert main(train_args(xor_file, out, lambda_mu=lambda_mu, **extra)) == 2
        assert "lambda_mu must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_solve_scale_exit_2(self, xor_file, tmp_path, capsys):
        # A finite radius so large that a solve's scale overflows: a config
        # error, exit 2, with no RuntimeWarning.
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(train_args(xor_file, out, lambda_expert="1e308")) == 2
        assert caught == []
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_feature_scale_exit_3(self, tmp_path, capsys):
        # The features' squared deviations overflow float: a data error,
        # exit 3, with no RuntimeWarning (pytest makes one an error).
        data = tmp_path / "huge.csv"
        data.write_text("".join(f"{s * 1e200!r},{i % 3},{'ab'[i % 2]}\n"
                                for i, s in enumerate([1, -1, -1, 1] * 5)))
        out = tmp_path / "m.json"
        assert main(train_args(data, out)) == 3
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_left_out_flags_take_the_class_defaults(self, xor_file, tmp_path, capsys):
        # A flag left out sets nothing: the Hyperparams default applies.
        base = ["train", "--data", str(xor_file), "--experts", "2", "--lambda-gate", "5",
                "--lambda-expert", "5"]
        bare, spelled = tmp_path / "bare.json", tmp_path / "spelled.json"
        assert main(base + ["--model-out", str(bare)]) == 0
        assert main(base + ["--selector", "none", "--iters", "30", "--tol", "1e-6",
                            "--seed", "0", "--schedule", "full", "--model-out", str(spelled)]) == 0
        assert bare.read_bytes() == spelled.read_bytes()
        assert load_model(bare).hyper == Hyperparams(k=2, lambda_nu=5.0, lambda_omega=5.0)

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
        probs[6] = np.nan  # an overflowed row: class 0, as argmax gives
        names = tuple(f"c{l}" for l in range(q))
        want = []
        for row in probs:
            label = names[int(np.argmax(row))]
            want.append(label + " " + " ".join(f"{p:.9g}" for p in row))
        cols = np.ascontiguousarray(probs.T)  # class-major, as predict scores
        assert _prediction_lines(names, cols, _top_class(cols)) == "\n".join(want) + "\n"

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

    # k must be a JSON integer: a float that int() would truncate, a
    # boolean or a string is malformed, even where the gate rows agree.
    @pytest.mark.parametrize("text", ["2.9", "true", '"2"'])
    def test_non_integer_k_exit_3(self, xor_file, tmp_path, capsys, text):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        doc = json.loads(model_out.read_text())
        doc["k"] = "@"
        with pytest.raises(DataError, match="'k'"):
            model_from_dict(json.loads(json.dumps(doc).replace('"@"', text)))
        model_out.write_text(json.dumps(doc).replace('"@"', text))
        assert main(["predict", "--model", str(model_out), "--data", str(xor_file),
                     "--out", str(tmp_path / "p.txt")]) == 3
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

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_shape_mismatch_exit_3(self, xor_file, tmp_path, capsys, command):
        # The model's class tokens, three more feature columns.
        model = tmp_path / "m.json"
        assert main(train_args(xor_file, model)) == 0
        wide = tmp_path / "wide.csv"
        assert main(["synth", "--preset", "two-cluster-xor", "--n", "5", "--noise-dims", "3",
                     "--seed", "1", "--out", str(wide)]) == 0
        capsys.readouterr()
        assert_one_error(capsys, main(command_args(command, wide, model, tmp_path)), 3,
                         "expected 2 features, got 5")
        assert not (tmp_path / "p.txt").exists()


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


class TestUndecodableData:
    """A data, model or report file that is not valid UTF-8 is a data error:
    exit 3 and one error line naming the file, whether the bad byte is in
    the first line or comes after rows already read, and nothing is
    written."""

    @pytest.mark.parametrize("good_rows", [0, 1000])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_exit_3(self, xor_file, tmp_path, capsys, command, good_rows):
        model_out = tmp_path / "m.json"
        if command != "train":
            assert main(train_args(xor_file, model_out)) == 0
        rows = xor_file.read_bytes().splitlines(keepends=True)
        data = tmp_path / "bad.csv"
        data.write_bytes(b"".join(rows[i % len(rows)] for i in range(good_rows))
                         + b"1.5,\xff2,0\n" + b"".join(rows))
        out = tmp_path / "p.txt"
        if command == "train":
            args = train_args(data, model_out)
        else:
            args = [command, "--model", str(model_out), "--data", str(data)]
            if command == "predict":
                args += ["--out", str(out)]
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"error: {data}: not valid UTF-8")
        # The error names the last row read before the bad byte, which is
        # never past the rows that precede it.
        after = re.search(r"after row (\d+)", err)
        if good_rows:
            assert 0 < int(after.group(1)) <= good_rows
        else:
            assert after is None
        assert model_out.exists() == (command != "train")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("predict", "--model"), ("evaluate", "--model"),
                                               ("inspect", "--model"), ("inspect", "--report")])
    def test_json_file_exit_3(self, xor_file, tmp_path, capsys, command, flag):
        model_out, report_out = tmp_path / "m.json", tmp_path / "r.json"
        assert main(train_args(xor_file, model_out, report_out=report_out)) == 0
        good = {"--model": model_out, "--report": report_out}
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"\xff": 1}\n' + good[flag].read_bytes())
        files = {**good, flag: bad}
        out = tmp_path / "p.txt"
        args = [command, "--model", str(files["--model"])]
        if command == "inspect":
            args += ["--report", str(files["--report"])]
        else:
            args += ["--data", str(xor_file)]
        if command == "predict":
            args += ["--out", str(out)]
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"error: {bad}: not valid UTF-8")
        assert not out.exists()


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
        # This fit's expert weights are all nonzero, so threshold 0 keeps
        # all; an L1-ball solve can end on exact zeros, which it leaves out.
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

    def test_report_sparsity_is_inspect_line(self, tmp_path, capsys):
        data = generate_synthetic(preset_spec("grouped-four", 15, noise_dims=3, seed=4))
        model, report = fit(data, Hyperparams(k=2, lambda_nu=0.5, lambda_omega=0.5,
                                              max_iters=5, seed=1))
        assert 0.0 < report.sparsity < 1.0
        model_out = tmp_path / "m.json"
        save_model(model, model_out)
        assert main(["inspect", "--model", str(model_out)]) == 0
        assert f"sparsity={report.sparsity:.6f}" in capsys.readouterr().out.splitlines()

    def test_threshold_zero_counts_what_it_leaves_out(self, tmp_path, capsys):
        # One rule for both: a weight is pruned iff |w| <= threshold.  This
        # fit ends with exact zeros among its non-bias weights, which the
        # lists leave out at threshold 0 and the sparsity line counts.
        data = generate_synthetic(preset_spec("noisy-subspace", 50, noise_dims=6, seed=3))
        model, _ = fit(data, Hyperparams(k=2, lambda_nu=1.0, lambda_omega=0.5, max_iters=10))
        weights = np.concatenate([model.gate.nu[:, :-1].ravel(),
                                  model.experts.omega[:, :, :-1].ravel()])
        assert (weights == 0.0).any()
        model_out = tmp_path / "m.json"
        save_model(model, model_out)
        assert main(["inspect", "--model", str(model_out), "--threshold", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = sum(len(line.split(":")[1].split()) for line in lines
                     if line.startswith(("gate[", "expert[")))
        assert listed == np.count_nonzero(weights)
        assert f"sparsity={1 - listed / weights.size:.6f}" in lines

    @pytest.mark.parametrize("threshold", ["nan", "-1", "-0.5"])
    def test_bad_threshold_exit_2(self, xor_file, tmp_path, capsys, threshold):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_out), "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert "--threshold" in captured.err and captured.out == ""

    def test_histogram_in_numeric_order(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        report_out = tmp_path / "r.json"
        report_out.write_text(json.dumps({"selector_histogram": {"1": 1, "10": 3, "2": 5}}))
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_out), "--report", str(report_out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "active-experts-histogram: 1:1 2:5 10:3"

    @pytest.mark.parametrize("key", ["two", "1.5", ""])
    def test_histogram_key_not_integer_exit_3(self, xor_file, tmp_path, capsys, key):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        report_out = tmp_path / "r.json"
        report_out.write_text(json.dumps({"selector_histogram": {"1": 4, key: 2}}))
        assert main(["inspect", "--model", str(model_out), "--report", str(report_out)]) == 3
        assert "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "{"],
                             ids=["deeply-nested", "truncated"])
    def test_unreadable_report_exit_3(self, xor_file, tmp_path, capsys, text):
        # Deeper than the JSON decoder's recursion limit, or not JSON.
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        report_out = tmp_path / "r.json"
        report_out.write_text(text)
        assert main(["inspect", "--model", str(model_out), "--report", str(report_out)]) == 3
        assert "not a JSON report file" in capsys.readouterr().err

    @pytest.mark.parametrize("report", [[{"selector_histogram": {"2": 5}}],
                                        {"selector_histogram": [2, 5]}])
    def test_report_without_histogram_object_exit_3(self, xor_file, tmp_path, capsys, report):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        report_out = tmp_path / "r.json"
        report_out.write_text(json.dumps(report))
        assert main(["inspect", "--model", str(model_out), "--report", str(report_out)]) == 3
        assert "error" in capsys.readouterr().err


class TestByteOrderMark:
    """Model and report files, like data files, may start with a UTF-8
    byte-order mark: each command reads such a file as the plain one."""

    @staticmethod
    def _with_mark(path):
        marked = path.with_name("bom-" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return marked

    def test_marked_files_read_as_plain(self, xor_file, tmp_path, capsys):
        model_out, report_out = tmp_path / "m.json", tmp_path / "r.json"
        assert main(train_args(xor_file, model_out, report_out=report_out)) == 0
        marked_model, marked_report = self._with_mark(model_out), self._with_mark(report_out)
        outputs = []
        for model, report in ((model_out, report_out), (marked_model, marked_report)):
            preds = tmp_path / f"preds-{model.name}.txt"
            capsys.readouterr()
            assert main(["evaluate", "--model", str(model), "--data", str(xor_file)]) == 0
            assert main(["predict", "--model", str(model), "--data", str(xor_file),
                         "--out", str(preds)]) == 0
            assert main(["inspect", "--model", str(model), "--report", str(report)]) == 0
            outputs.append((capsys.readouterr(), preds.read_bytes()))
        (plain, plain_preds), (marked, marked_preds) = outputs
        assert marked.err == plain.err == ""
        assert marked.out == plain.out and "accuracy=" in plain.out and "sparsity=" in plain.out
        assert marked_preds == plain_preds
        assert model_to_dict(load_model(marked_model)) == model_to_dict(load_model(model_out))


class TestClassTokens:
    """The model file stores the training data's class tokens; predict
    prints them and evaluate scores a data file by them, whatever the order
    in which its tokens first appear."""

    def run_both(self, tmp_path, model_out, data):
        out = tmp_path / "p.txt"
        assert main(["predict", "--model", str(model_out), "--data", str(data),
                     "--out", str(out)]) == 0
        assert main(["evaluate", "--model", str(model_out), "--data", str(data)]) == 0
        return out.read_text().splitlines()

    def test_reordered_rows_score_the_same(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        assert load_model(model_out).labels == ("0", "1")
        capsys.readouterr()
        rows = xor_file.read_text().splitlines()
        # Class-1 rows first, so that token "1" appears first.
        order = sorted(range(len(rows)), key=lambda i: not rows[i].endswith(",1"))
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("".join(rows[i] + "\n" for i in order))
        preds = self.run_both(tmp_path, model_out, xor_file)
        metrics = capsys.readouterr().out
        assert self.run_both(tmp_path, model_out, swapped) == [preds[i] for i in order]
        assert capsys.readouterr().out == metrics

    def test_unknown_token_exit_3(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(xor_file.read_text().replace(",1\n", ",zz\n"))
        for command in ("predict", "evaluate"):
            args = [command, "--model", str(model_out), "--data", str(renamed)]
            if command == "predict":
                args += ["--out", str(tmp_path / "p.txt")]
            assert main(args) == 3
            assert "'zz'" in capsys.readouterr().err

    def test_subset_of_tokens_accepted(self, tmp_path, capsys):
        data = tmp_path / "grouped.csv"
        assert main(["synth", "--preset", "grouped-four", "--n", "10", "--seed", "2",
                     "--out", str(data)]) == 0
        model_out = tmp_path / "m.json"
        assert main(train_args(data, model_out)) == 0
        subset = tmp_path / "subset.csv"
        rows = [r for r in data.read_text().splitlines() if r.endswith((",3", ",1"))]
        subset.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model_out), "--data", str(subset)]) == 0
        full = load_dataset(data)
        keep = np.isin(full.labels, [1, 3])
        want = evaluate(load_model(model_out),
                        Dataset(full.features[keep], full.labels[keep], full.label_names))
        assert capsys.readouterr().out == (
            f"accuracy={want['accuracy']:.6f} nll={want['nll']:.6f}\n")

    def test_one_class_file_scores(self, xor_file, tmp_path, capsys):
        # The class-1 rows alone: the model's tokens say which class they are.
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        rows = xor_file.read_text().splitlines()
        ones = [i for i, r in enumerate(rows) if r.endswith(",1")]
        one = tmp_path / "one.csv"
        one.write_text("".join(rows[i] + "\n" for i in ones))
        preds = self.run_both(tmp_path, model_out, xor_file)
        capsys.readouterr()
        assert self.run_both(tmp_path, model_out, one) == [preds[i] for i in ones]
        full = load_dataset(xor_file)
        keep = full.labels == 1
        want = evaluate(load_model(model_out),
                        Dataset(full.features[keep], full.labels[keep], full.label_names))
        assert capsys.readouterr().out == (
            f"accuracy={want['accuracy']:.6f} nll={want['nll']:.6f}\n")

    def test_file_without_labels_keeps_first_appearance(self, xor_file, tmp_path, capsys):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        with_labels = self.run_both(tmp_path, model_out, xor_file)
        doc = json.loads(model_out.read_text())
        del doc["labels"]
        model_out.write_text(json.dumps(doc))
        assert load_model(model_out).labels is None
        assert self.run_both(tmp_path, model_out, xor_file) == with_labels

    @pytest.mark.parametrize("text", ['"01"', '["0"]', '["0", "0"]', "[0, 1]",
                                      '["0", "1", "2"]', '{"0": 0, "1": 1}', "null"])
    def test_malformed_labels_exit_3(self, xor_file, tmp_path, capsys, text):
        model_out = tmp_path / "m.json"
        assert main(train_args(xor_file, model_out)) == 0
        doc = json.loads(model_out.read_text())
        doc["labels"] = "@"
        model_out.write_text(json.dumps(doc).replace('"@"', text))
        assert main(["predict", "--model", str(model_out), "--data", str(xor_file),
                     "--out", str(tmp_path / "p.txt")]) == 3
        assert "error" in capsys.readouterr().err


# Radii, lambda_mu, scaler entries and weights must be JSON numbers: a
# numeric string or a boolean that float() would take is malformed.
@pytest.mark.parametrize("path, text", [
    ("lambda_nu", '"5"'),
    ("lambda_nu", "true"),
    ("lambda_omega", "false"),
    ("lambda_mu", '"1.5"'),
    ("nu.0.0", '"0.5"'),
    ("omega.1.0.2", "true"),
    ("scaler.mean.1", '"0"'),
    ("scaler.std.0", "true"),
])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_mistyped_model_field_exit_3(xor_file, tmp_path, capsys, path, text, command):
    model_out = tmp_path / "m.json"
    assert main(train_args(xor_file, model_out)) == 0
    doc = json.loads(model_out.read_text())
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = "@"
    model_out.write_text(json.dumps(doc).replace('"@"', text))
    args = [command, "--model", str(model_out), "--data", str(xor_file)]
    if command == "predict":
        args += ["--out", str(tmp_path / "p.txt")]
    assert main(args) == 3
    assert "JSON number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rejections: the documented exit code and one error line, no traceback


def command_args(command, data, model, tmp_path):
    """Arguments of ``command`` on the data file ``data``; ``model`` is
    train's output and the model file the other commands read."""
    if command == "train":
        return train_args(data, model)
    args = [command, "--model", str(model), "--data", str(data)]
    return args + ["--out", str(tmp_path / "p.txt")] if command == "predict" else args


def assert_one_error(capsys, code, want_code, message):
    err = capsys.readouterr().err
    assert code == want_code
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


class TestRejections:
    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("\n\n  \n", "empty file"),
        ("0\n1\n0\n1\n", "need at least one feature column plus a label"),
    ])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_unusable_data_file_exit_3(self, xor_file, tmp_path, capsys, command, text,
                                       message):
        model = tmp_path / "m.json"
        if command != "train":
            assert main(train_args(xor_file, model)) == 0
        data = tmp_path / "unusable.csv"
        data.write_text(text)
        capsys.readouterr()
        assert_one_error(capsys, main(command_args(command, data, model, tmp_path)), 3, message)
        assert model.exists() == (command != "train")
        assert not (tmp_path / "p.txt").exists()

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_non_positive_tol_exit_2(self, xor_file, tmp_path, capsys, tol):
        model = tmp_path / "m.json"
        assert_one_error(capsys, main(train_args(xor_file, model, tol=tol)), 2,
                         "tolerance must be positive")
        assert not model.exists()

    @pytest.mark.parametrize("edit", ["nan-weight", "fewer-gate-rows", "short-expert-rows",
                                      "short-scaler", "zero-std"])
    @pytest.mark.parametrize("command", ["evaluate", "inspect"])
    def test_inconsistent_model_file_exit_3(self, xor_file, tmp_path, capsys, edit, command):
        model = tmp_path / "m.json"
        assert main(train_args(xor_file, model)) == 0
        doc = json.loads(model.read_text())
        if edit == "nan-weight":
            doc["nu"][0][0] = float("nan")  # written as JSON NaN
        elif edit == "fewer-gate-rows":
            doc["nu"] = doc["nu"][:-1]
        elif edit == "short-expert-rows":
            doc["omega"] = [[row[:-1] for row in rows] for rows in doc["omega"]]
        elif edit == "short-scaler":
            doc["scaler"]["mean"] = doc["scaler"]["mean"][:-1]
        else:
            doc["scaler"]["std"][0] = 0.0
        model.write_text(json.dumps(doc))
        args = ([command, "--model", str(model)] if command == "inspect"
                else command_args(command, xor_file, model, tmp_path))
        capsys.readouterr()
        assert_one_error(capsys, main(args), 3, "malformed model file: ")

    @pytest.mark.parametrize("bad, message", [
        ({"lambda_nu": -1.0}, "L1 radii must be positive"),
        ({"k": 10**12, "selector_mode": "l0", "lambda_mu": 5e11}, "enumeration guard"),
    ])
    def test_bad_hyperparameters_come_before_the_weights(self, xor_file, tmp_path, capsys,
                                                         bad, message):
        # Hyperparameters are checked when built, before the weights' shapes:
        # a file with both wrong exits 2, and a huge k meets a cheap guard.
        model = tmp_path / "m.json"
        assert main(train_args(xor_file, model)) == 0
        doc = {**json.loads(model.read_text()), **bad}
        doc["nu"] = doc["nu"][:-1]
        with pytest.raises(ConfigError, match=message):
            model_from_dict(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert_one_error(capsys, main(command_args("evaluate", xor_file, model, tmp_path)), 2,
                         message)

    def test_non_finite_objective_exit_4(self, xor_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "_label_probs",
                            lambda omega, x_mat, index: np.full(index.shape, np.nan))
        model = tmp_path / "m.json"
        assert_one_error(capsys, main(train_args(xor_file, model)), 4,
                         "non-finite objective at iteration 0")
        assert not model.exists()


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
