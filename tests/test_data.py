import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_dataset_reference, save_dataset_reference_text

from sparse_moe import (
    ClusterSpec,
    ConfigError,
    DataError,
    Dataset,
    SynthSpec,
    fit_scaler,
    generate_synthetic,
    load_dataset,
    prepare_inputs,
    preset_spec,
    save_dataset,
    train_test_split,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadDataset:
    def test_first_appearance_label_mapping(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1,2,a\n3,4,b\n5,6,a\n"))
        assert list(ds.labels) == [0, 1, 0]
        assert ds.label_names == ("a", "b")
        assert ds.q == 2

    def test_header_auto_detected(self, tmp_path):
        ds = load_dataset(write(tmp_path, "x1,x2,label\n1,2,a\n3,4,b\n"))
        assert ds.n == 2
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])

    def test_single_class_loads(self, tmp_path):
        # One class is enough to score; fit is what needs two.
        ds = load_dataset(write(tmp_path, "1,2,a\n3,4,a\n"))
        assert ds.label_names == ("a",)
        np.testing.assert_array_equal(ds.labels, [0, 0])

    def test_non_numeric_cell_reported(self, tmp_path):
        with pytest.raises(DataError, match="row 2, column 1"):
            load_dataset(write(tmp_path, "1,2,a\nfoo,4,b\n"))

    @pytest.mark.parametrize("token", ["", "  ", "\t"])
    def test_empty_class_token_rejected(self, tmp_path, token):
        with pytest.raises(DataError, match="empty class token at row 3"):
            load_dataset(write(tmp_path, f"x,y,label\n1,2,a\n3,4,{token}\n"))

    @pytest.mark.parametrize("header", ["", "x1,x2,label\n"])
    def test_byte_order_mark_dropped(self, tmp_path, header):
        # A UTF-8 file may start with a byte-order mark: every data row is
        # kept, and a header is still skipped.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}1,2,a\n3,4,b\n5,6,c\n".encode())
        for load in (load_dataset, load_dataset_reference):
            ds = load(path)
            np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
            np.testing.assert_array_equal(ds.labels, [0, 1, 2])
            assert ds.label_names == ("a", "b", "c")

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(DataError, match="ragged row"):
            load_dataset(write(tmp_path, "1,2,a\n3,4,5,b\n"))

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(0, 3, (7, 3)), rng.integers(0, 2, 7), ("x", "y"))
        # Force both classes present
        ds = Dataset(ds.features, np.array([0, 1, 0, 1, 1, 0, 0]), ("x", "y"))
        path = tmp_path / "rt.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.label_names == ds.label_names


def _cell_text():
    number = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    # "\x1f" is whitespace to str.strip() but not to float().
    padded = st.tuples(st.sampled_from(["", " ", "\t", "\xa0", "\x1f", "\u2003"]), number,
                       st.sampled_from(["", " ", "  ", "\xa0", "\x1f"])).map("".join)
    special = st.sampled_from(
        ["1_000", "\u0661\u0662", "\uff11.5", "#", "# 1", "", " ", "nan", "-inf",
         "Infinity", "1e400", "-0", "+.5", "5.", "abc", "0x10", "1,5", "x1"]
    )
    return st.one_of(number, number, padded, special)


@st.composite
def _dataset_text(draw):
    width = draw(st.integers(2, 5))
    row = st.tuples(
        st.lists(_cell_text(), min_size=width - 1, max_size=width - 1),
        st.sampled_from(["a", "b", " b ", "c", "1", "", "  "]),
    ).map(lambda r: ",".join(r[0] + [r[1]]))
    lines = draw(st.lists(row, min_size=1, max_size=6))
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"x{j}" for j in range(width - 1)) + ",label")
    blanks = draw(st.lists(st.tuples(st.integers(0, len(lines)),
                                     st.sampled_from(["", "  ", "\t"])), max_size=2))
    for at, blank in blanks:
        lines.insert(at, blank)
    if draw(st.booleans()):  # ragged row
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] += draw(st.sampled_from([",7", ",7,a"]))
    # Every str.splitlines boundary, mixed within one file.
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x85", "\u2028", "\u2029"])
    ends = draw(st.lists(breaks, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + end for line, end in zip(lines, ends))


def _load_or_error(load, path):
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


class TestLoaderParity:
    """The loader agrees with per-cell ``float()`` parsing:
    the same features bit for bit, labels and label names, or the same
    error message."""

    @settings(deadline=None, max_examples=300)
    @given(_dataset_text())
    def test_matches_per_cell_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "parity.csv"
        path.write_text(text, encoding="utf-8")
        got = _load_or_error(load_dataset, path)
        want = _load_or_error(load_dataset_reference, path)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert got.features.shape == want.features.shape
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)
        assert got.label_names == want.label_names

    @pytest.mark.parametrize("cell, value", [("1_000", 1000.0), ("\u0661\u0662", 12.0),
                                             (" -0 ", -0.0), ("+.5", 0.5)])
    def test_cells_float_accepts(self, tmp_path, cell, value):
        ds = load_dataset(write(tmp_path, f"{cell},1,a\n2,3,b\n"))
        assert ds.features[0, 0] == value
        assert np.signbit(ds.features[0, 0]) == np.signbit(value)

    @pytest.mark.parametrize("row, want", [("\x1f2\x1f,3,b", [2.0, 3.0]),
                                           ("1,\x1f2\x1f,b", [1.0, 2.0])])
    def test_cells_stripped_before_float(self, tmp_path, row, want):
        # "\x1f" is whitespace to str.strip() but not to float(), so the row
        # fails its raw parse and is parsed again stripped; a raw valid cell
        # before the padded one is not appended twice.
        ds = load_dataset(write(tmp_path, f"1,1,a\n{row}\n4,5,a\n"))
        np.testing.assert_array_equal(ds.features, [[1.0, 1.0], want, [4.0, 5.0]])

    def test_padded_first_row_is_data(self, tmp_path):
        # The header check strips cells as the value parse does, so a
        # padded number in the first row is data, not a header.
        path = write(tmp_path, "\x1f2\x1f,1,a\n2,3,b\n5,1,a\n")
        for load in (load_dataset, load_dataset_reference):
            ds = load(path)
            assert ds.n == 3
            np.testing.assert_array_equal(ds.features[:, 0], [2.0, 2.0, 5.0])

    @pytest.mark.parametrize("cell", ["#", "", "1 2", "0x10"])
    def test_cells_float_rejects(self, tmp_path, cell):
        with pytest.raises(DataError, match="row 3, column 2"):
            load_dataset(write(tmp_path, f"1,2,a\n\n3,4,b\n5,{cell},a\n"))

    def test_error_names_first_bad_row(self, tmp_path):
        # A bad cell before a ragged row is reported, as a row-by-row read would.
        with pytest.raises(DataError, match="non-numeric value 'x' at row 2"):
            load_dataset(write(tmp_path, "1,2,a\n3,x,b\n5,6,7,a\n"))

    def test_single_feature_column(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1,a\n2,b\n3,a\n"))
        assert ds.features.shape == (3, 1)


class TestSaveDataset:
    def test_bytes_match_per_cell_repr(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = rng.normal(0, 1, (6, 4)) * 10.0 ** rng.integers(-300, 300, (6, 4))
        feats[0] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308]
        feats[1] = [1e300, -1e-300, 1.7976931348623157e308, 1e-310]
        ds = Dataset(feats, np.array([0, 1, 2, 0, 1, 2]), ("neg", "pos", "x y"))
        path = tmp_path / "out.csv"
        save_dataset(ds, path)
        assert path.read_bytes() == save_dataset_reference_text(ds).encode("utf-8")
        back = load_dataset(path)
        assert back.features.tobytes() == ds.features.tobytes()

    @pytest.mark.parametrize("names", [
        ("a,b", "c"), ("a\nb", "c"), ("a", "b\r"), ("a\x1cb", "c"), ("a\u2028", "c"),
        ("", "c"), ("a", "a "), ("\tb", "c"), ("x", "x"), ("a", "b\ud800"),
    ])
    def test_tokens_that_do_not_load_back_rejected(self, tmp_path, names):
        # A comma or a line boundary makes the file ragged, an empty token
        # fails on load, padded or repeated tokens load back as one class,
        # and a lone surrogate cannot be written as UTF-8.
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), names)
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match="do not load back as themselves"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_unused_token_rejected(self, tmp_path):
        # The file holds only the classes its rows use: "a" would be lost and
        # "b" renumbered to 0.
        ds = Dataset([[1.0], [2.0]], [1, 1], ("a", "b"))
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match=r"\['a'\] label no row"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_streams_rows(self, tmp_path):
        # Neither function holds the whole text: saving allocates well under
        # the features' size, and loading little more than the result.
        rng = np.random.default_rng(5)
        ds = Dataset(rng.normal(0, 1, (20_000, 20)), np.arange(20_000) % 3, ("a", "b", "c"))
        path = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            save_dataset(ds, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = load_dataset(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak < 1_000_000
        assert load_peak < 3 * ds.features.nbytes
        assert path.read_bytes() == save_dataset_reference_text(ds).encode("utf-8")
        assert back.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.label_names == ds.label_names


class TestDatasetChecks:
    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros(3), [0, 0, 0], "nonempty 2-D matrix"),
        (np.zeros((3, 0)), [0, 0, 0], "nonempty 2-D matrix"),
        (np.zeros((3, 2)), [0, 1], "labels length does not match feature rows"),
        (np.zeros((3, 2)), [0, 1, 2], "label id out of range"),
        (np.zeros((3, 2)), [0, -1, 1], "label id out of range"),
    ])
    def test_rejected(self, features, labels, message):
        with pytest.raises(DataError, match=message):
            Dataset(features, labels, ("a", "b"))


class TestScaler:
    def test_standardizes_training_set(self, rng):
        ds = Dataset(rng.normal(3, 5, (50, 4)), rng.integers(0, 2, 50).clip(0, 1), ("a", "b"))
        z = prepare_inputs(ds.features, fit_scaler(ds))[:, :-1]
        assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_floored_to_zero(self):
        feats = np.column_stack([np.full(4, 7.0), np.arange(4.0)])
        ds = Dataset(feats, np.array([0, 1, 0, 1]), ("a", "b"))
        z = prepare_inputs(ds.features, fit_scaler(ds))[:, :-1]
        np.testing.assert_array_equal(z[:, 0], 0.0)

    def test_idempotent_on_standardized_data(self, rng):
        z = rng.normal(0, 1, (200, 3))
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        ds = Dataset(z, rng.integers(0, 2, 200).clip(0, 1), ("a", "b"))
        out = prepare_inputs(ds.features, fit_scaler(ds))[:, :-1]
        np.testing.assert_allclose(out, ds.features, atol=1e-10)


BIG = np.finfo(float).max
TINY = np.finfo(float).smallest_subnormal


class TestStandardizedDesignBound:
    """The M-step set-up checks nothing of a fit's design, for a checked
    Dataset's standardized design is finite and bounded: fit_scaler rejects
    a column whose mean or std overflows, and otherwise each entry is within
    sqrt(n) of 0, since no value is more than sqrt(n - 1) population stds
    from the mean (a floored std only shrinks the entries)."""

    @pytest.mark.parametrize("column", [
        pytest.param(np.full(4, BIG), id="constant-max"),
        pytest.param(np.full(5, -1.7e308), id="constant-near-min"),
        pytest.param(np.full(3, 5e307), id="constant-near-max-sum-fits"),
        pytest.param(np.full(2, BIG / 3), id="constant-third-of-max"),
        pytest.param([1e308, -1e308, 1e308, -1e308], id="pm-1e308"),
        pytest.param([1e308, -1e308, 0.0], id="pm-1e308-zero"),
        pytest.param([1e308, 1e308, -1e308, 5.0], id="pm-1e308-uneven"),
        pytest.param([1e308] + [0.0] * 40, id="1e308-outlier"),
        pytest.param([1e154, -1e154, 1e154, -1e154, 0.0], id="pm-1e154"),
        pytest.param([3e153] + [-1e153] * 3, id="1e153-outlier"),
        pytest.param([TINY, 0.0, TINY], id="subnormal-min"),
        pytest.param([TINY, -TINY, 2 * TINY, 0.0, 1e-320], id="subnormal-mix"),
        pytest.param(np.full(3, 1e-320), id="subnormal-constant"),
        pytest.param([1.0] + [0.0] * 99, id="one-outlier-of-100"),
        pytest.param([BIG, np.nextafter(BIG, 0.0)], id="max-one-ulp"),
        pytest.param([5e307, np.nextafter(5e307, np.inf), 5e307], id="5e307-one-ulp"),
        pytest.param([1.7e308, 1.7e308 * (1 - 1e-15), 1.7e308 * (1 - 2e-15)],
                     id="near-max-spread-1e-15"),
        pytest.param([-8e307, -8e307 * (1 + 1e-9), -8e307], id="near-min-spread-1e-9"),
        pytest.param([1e307] * 9 + [1e307 * (1 + 1e-14)], id="1e307-spread-1e-14"),
    ])
    def test_design_finite_within_root_n(self, column):
        column = np.asarray(column, dtype=float)
        n = len(column)
        ds = Dataset(column[:, None], np.arange(n) % 2, ("a", "b"))
        try:
            scaler = fit_scaler(ds)
        except DataError:
            return
        z = prepare_inputs(ds.features, scaler)
        assert np.isfinite(z).all()
        assert np.abs(z).max() <= np.sqrt(n) * (1 + 1e-9)


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = preset_spec("two-cluster-xor", 20, seed=5)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    @staticmethod
    def reference(spec):
        """Each cluster's standard normal block, its informative means
        added, the blocks stacked in order, then the labels."""
        rng = np.random.default_rng(spec.seed)
        blocks = []
        for c in spec.clusters:
            x = rng.standard_normal((spec.n_per_cluster, len(c.mean) + spec.noise_dims))
            for j in set(c.informative_dims):
                x[:, j] = x[:, j] + c.mean[j]
            blocks.append(x)
        labels = [c.label for c in spec.clusters for _ in range(spec.n_per_cluster)]
        return np.vstack(blocks), np.array(labels)

    @pytest.mark.parametrize("spec", [
        *(preset_spec(name, n, noise_dims, seed)
          for name in ("two-cluster-xor", "grouped-four", "noisy-subspace")
          for n, noise_dims, seed in [(1, 0, 0), (13, 0, 7), (40, 5, 2026)]),
        SynthSpec(9, (ClusterSpec((1.5, -2.0, 0.25), (0, 2), 0),
                      ClusterSpec((0.0, 4.0, -1.0), (1, 1), 2),
                      ClusterSpec((-3.0, 0.5, 9.0), (), 1)), noise_dims=4, seed=11),
    ])
    def test_matches_plain_reference(self, spec):
        ds = generate_synthetic(spec)
        features, labels = self.reference(spec)
        assert ds.features.tobytes() == features.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.label_names == tuple(str(i) for i in range(labels.max() + 1))

    def test_cluster_means_near_spec(self):
        n = 400
        ds = generate_synthetic(preset_spec("grouped-four", n, seed=2))
        bound = 5.0 / np.sqrt(n)
        for c in range(4):
            block = ds.features[c * n : (c + 1) * n]
            assert abs(block[:, c].mean() - 3.0) < bound

    def test_label_counts_per_preset(self):
        ds = generate_synthetic(preset_spec("two-cluster-xor", 25, seed=0))
        assert ds.n == 100 and ds.d == 2
        assert (ds.labels == 0).sum() == 50 and (ds.labels == 1).sum() == 50

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_spec("mystery", 10)

    @pytest.mark.parametrize("noise_dims", [-1, -5])
    def test_bad_noise_rejected(self, noise_dims):
        spec = SynthSpec(
            5,
            (ClusterSpec((1.0,), (0,), 0), ClusterSpec((-1.0,), (0,), 1)),
            noise_dims=noise_dims,
        )
        with pytest.raises(ConfigError):
            generate_synthetic(spec)

    @pytest.mark.parametrize("n_per_cluster, clusters, message", [
        (0, (ClusterSpec((1.0,), (0,), 0),), "at least one cluster and one point"),
        (5, (), "at least one cluster and one point"),
        (5, (ClusterSpec((1.0,), (0,), 0), ClusterSpec((1.0, 2.0), (0,), 1)),
         "cluster means must share a dimension"),
        (5, (ClusterSpec((1.0, 2.0), (2,), 0),), "informative dim index out of range"),
        (5, (ClusterSpec((1.0, 2.0), (-1,), 0),), "informative dim index out of range"),
    ])
    def test_bad_spec_rejected(self, n_per_cluster, clusters, message):
        with pytest.raises(ConfigError, match=message):
            generate_synthetic(SynthSpec(n_per_cluster, clusters))


class TestTrainTestSplit:
    def make(self, rng, n=100):
        labels = np.repeat([0, 1], n // 2)
        return Dataset(rng.normal(0, 1, (n, 2)), labels, ("a", "b"))

    def test_balanced_half_split(self, rng):
        tr, te = train_test_split(self.make(rng), 0.5, 3)
        assert tr.n == te.n == 50
        assert (tr.labels == 0).sum() == 25 and (te.labels == 0).sum() == 25

    def test_disjoint_and_exhaustive(self, rng):
        ds = self.make(rng)
        tr, te = train_test_split(ds, 0.3, 9)
        joined = np.vstack([tr.features, te.features])
        assert joined.shape[0] == ds.n
        # every original row appears exactly once across the two parts
        orig = {tuple(row) for row in ds.features}
        assert {tuple(row) for row in joined} == orig

    def test_deterministic(self, rng):
        ds = self.make(rng)
        a = train_test_split(ds, 0.4, 7)
        b = train_test_split(ds, 0.4, 7)
        np.testing.assert_array_equal(a[0].features, b[0].features)

    def test_tiny_class_rejected(self, rng):
        ds = Dataset(rng.normal(0, 1, (3, 2)), np.array([0, 0, 1]), ("a", "b"))
        with pytest.raises(DataError):
            train_test_split(ds, 0.5, 0)

    def test_bad_fraction(self, rng):
        with pytest.raises(ConfigError):
            train_test_split(self.make(rng), 1.5, 0)
