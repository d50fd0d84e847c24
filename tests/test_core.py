"""Dataset model, metric registry, and empirical risk."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statcert.core import (
    Dataset,
    MetricValue,
    MprSpec,
    SaddRecord,
    Schema,
    canonical_cells,
    canonical_json,
    compute_metric,
    empirical_risk,
    load_dataset,
    register_loss,
    sha256_hex,
)
from statcert.errors import (
    EmptyDataset,
    MissingColumn,
    UnknownLoss,
    UnknownMetric,
    ValidationError,
)

from conftest import build_dataset, counts_to_rows, labeled
from helpers import string_cell


class TestComputeMetric:
    def test_accuracy_94_of_100(self):
        labels, preds = counts_to_rows(100, 94)
        mv = compute_metric(labeled(labels, preds), "accuracy")
        assert mv.value == 0.94
        assert mv.n == 100
        assert mv.successes == 94

    def test_identity_predictions_give_accuracy_one(self, rng):
        labels = rng.integers(0, 5, size=37)
        mv = compute_metric(labeled(labels, labels.copy()), "accuracy")
        assert mv.value == 1.0

    def test_mse_hand_value(self):
        ds = labeled([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        mv = compute_metric(ds, "mse")
        assert mv.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        np.testing.assert_allclose(mv.per_sample_losses, [0.0, 0.0, 1.0])

    def test_rmse_is_sqrt_of_mse(self):
        ds = labeled([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert compute_metric(ds, "rmse").value == pytest.approx(
            np.sqrt(compute_metric(ds, "mse").value))

    def test_precision_and_recall_hand_table(self):
        # 3 TP, 1 FP, 2 FN, 4 TN
        labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        preds = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        assert compute_metric(labeled(labels, preds), "precision").value == 0.75
        assert compute_metric(labeled(labels, preds), "recall").value == 0.6

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetric):
            compute_metric(labeled([0], [0]), "f_beta_0.5")

    def test_missing_prediction_column(self):
        ds = build_dataset({"label": np.array([0, 1])}, {"label": "label"})
        with pytest.raises(MissingColumn):
            compute_metric(ds, "accuracy")

    def test_empty_dataset_rejected(self):
        ds = labeled(np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(EmptyDataset):
            compute_metric(ds, "accuracy")

    def test_permutation_invariance(self, rng):
        labels = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        ds = labeled(labels, preds)
        perm = rng.permutation(60)
        shuffled = labeled(labels[perm], preds[perm])
        for metric in ("accuracy", "mse"):
            assert compute_metric(ds, metric).value == compute_metric(
                shuffled, metric).value


class TestEmpiricalRisk:
    def test_zero_one_complement_of_accuracy(self):
        labels, preds = counts_to_rows(100, 94)
        risk = empirical_risk(labeled(labels, preds), "zero_one")
        assert risk.value == pytest.approx(0.06, abs=1e-15)

    def test_accuracy_plus_risk_is_one_exactly(self, rng):
        labels = rng.integers(0, 2, size=83)
        preds = rng.integers(0, 2, size=83)
        ds = labeled(labels, preds)
        acc = compute_metric(ds, "accuracy").value
        risk = empirical_risk(ds, "zero_one").value
        assert acc + risk == 1.0

    def test_registered_zero_loss(self):
        register_loss("always_zero", lambda y, yhat: np.zeros_like(
            np.asarray(y, dtype=float)))
        ds = labeled([0, 1, 1], [1, 0, 1])
        assert empirical_risk(ds, "always_zero").value == 0.0

    def test_absolute_error_hand_value(self):
        ds = labeled([0.0, 1.0], [0.5, 0.5])
        assert empirical_risk(ds, "absolute").value == 0.5

    def test_unknown_loss(self):
        with pytest.raises(UnknownLoss):
            empirical_risk(labeled([0], [0]), "hinge")


class TestDatasetModel:
    def test_content_hash_survives_jsonl_round_trip(self, tmp_path, rng):
        x = rng.normal(size=(25, 3)).round(6)
        columns = {f"x{j}": x[:, j] for j in range(3)}
        columns["label"] = rng.integers(0, 2, size=25)
        roles = {"x0": "feature", "x1": "feature", "x2": "feature",
                 "label": "label"}
        ds = build_dataset(columns, roles)
        path = tmp_path / "round_trip.jsonl"
        ds.to_jsonl(path)
        again = load_dataset(path, roles)
        assert again.content_hash == ds.content_hash

    def test_hash_independent_of_file_layout(self, tmp_path):
        roles = {"a": "feature", "label": "label"}
        (tmp_path / "plain.csv").write_text("a,label\n1.5,0\n2.5,1\n")
        (tmp_path / "same.jsonl").write_text(
            '{"a": 1.5, "label": 0}\n{"a": 2.5, "label": 1}\n')
        csv_ds = load_dataset(tmp_path / "plain.csv", roles)
        jsonl_ds = load_dataset(tmp_path / "same.jsonl", roles)
        assert csv_ds.content_hash == jsonl_ds.content_hash

    def test_hash_independent_of_column_declaration_order(self):
        # a reordered config `columns:` mapping must not mint a new identity,
        # or it would slip past the stale-data check
        columns = {"b": np.array([1.0, 2.0]), "a": np.array([3.0, 4.0]),
                   "label": np.array([0, 1])}
        forward = build_dataset(
            columns, {"a": "feature", "b": "feature", "label": "label"})
        reversed_decl = build_dataset(
            columns, {"label": "label", "b": "feature", "a": "feature"})
        assert forward.content_hash == reversed_decl.content_hash

    def test_hash_sensitive_to_role_reassignment(self):
        columns = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        one = build_dataset(columns, {"a": "feature", "b": "feature"})
        other = build_dataset({"a": columns["a"],
                               "b": columns["b"].astype(np.int64)},
                              {"a": "feature", "b": "label"})
        assert one.content_hash != other.content_hash

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValidationError):
            build_dataset({"a": np.zeros(3), "label": np.zeros(2, dtype=int)},
                          {"a": "feature", "label": "label"})

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValidationError):
            build_dataset({"a": np.array([1.0, np.nan])}, {"a": "feature"})

    def test_score_rows_must_be_distributions(self):
        with pytest.raises(ValidationError):
            build_dataset(
                {"s0": np.array([0.9, 0.2]), "s1": np.array([0.3, 0.2])},
                {"s0": "score", "s1": "score"})

    def test_single_score_column_rejected(self):
        with pytest.raises(ValidationError):
            Schema.from_roles({"s0": "score"})

    def test_subset_preserves_schema(self, rng):
        labels = rng.integers(0, 2, size=10)
        ds = labeled(labels, labels)
        sub = ds.subset([0, 2, 4])
        assert sub.n_rows == 3
        assert sub.schema == ds.schema


def same_partition(*columns):
    """Whether canonical records and `string_cell` strings group the cells
    of all columns alike; also returns how many distinct strings there are."""
    by_string, by_record = {}, {}
    for column in columns:
        for value, record in zip(column, canonical_cells(column)):
            text, record = string_cell(value), record.tobytes()
            by_string.setdefault(text, set()).add(record)
            by_record.setdefault(record, set()).add(text)
    one_to_one = (all(len(v) == 1 for v in by_string.values())
                  and all(len(v) == 1 for v in by_record.values()))
    return one_to_one, len(by_string)


class TestCanonicalCells:
    def test_floats_agree_with_twelve_digit_strings(self):
        rng = np.random.default_rng(121212)
        n = 20_000
        scale = 10.0 ** rng.integers(-300, 301, size=n)
        spread = rng.uniform(-10, 10, size=n) * scale
        # 13-digit decimals ending in 5: the 12th-digit rounding ties, and
        # the doubles on either side of them
        ties = np.array([float(f"{m}5e{e}") for m, e in zip(
            rng.integers(10**11, 10**12, size=n), rng.integers(-320, 290, size=n))])
        ties = ties[np.isfinite(ties) & (ties != 0)]
        csv = np.round(rng.normal(size=n) * 10.0 ** rng.integers(-2, 7, size=n), 6)
        printed = np.array([float(f"{v:.12g}") for v in spread])
        special = np.array([5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
                            1.7976931348623157e308, 0.0, -0.0, 1.0, 1e12, 1e-5,
                            999999999999.5, 9.999999999995e-5, 0.1, 1 / 3])
        values = np.concatenate([
            spread, -spread, printed, ties, np.nextafter(ties, np.inf),
            np.nextafter(ties, -np.inf), csv, csv * (1 + 1e-14), special])
        one_to_one, distinct = same_partition(values)
        assert one_to_one
        assert distinct < len(np.unique(values))  # some strings do merge floats

    def test_negative_zero_stays_apart(self):
        plus, minus = canonical_cells(np.array([0.0, -0.0]))
        assert plus.tobytes() != minus.tobytes()
        assert canonical_cells(np.array([0]))[0].tobytes() == plus.tobytes()

    def test_cells_agree_across_dtypes(self):
        floats = np.array([1e12, 999999999999.0, 1.5, 5.0, -5.0, 0.0, -0.0,
                           1e-5, 123456789012.5, 4.94065645841e-324, 1e15])
        ints = np.array([10**12 - 1, 10**12, 10**12 + 1, 10**15, 5, -5, 0,
                         2**53 + 1, 2**63 - 1, -(2**63)], dtype=np.int64)
        texts = np.array(["1.5", "1e+12", "1e12", "5", "5.0", "-0", "0", "-5",
                          "999999999999", "1000000000000", "1000000000000000",
                          "1e+15", "1e-05", "0.00001", "123456789012", "abc", "",
                          "nan", "inf", " 1.5", "1_0", "+5", "05",
                          "4.94065645841e-324", "9223372036854775807",
                          "99999999999999999999"])
        columns = (floats, ints, texts, np.array([True, False]),
                   np.array([5, 250], dtype=np.uint8))
        one_to_one, distinct = same_partition(*columns)
        assert one_to_one
        assert distinct < sum(len(c) for c in columns)  # "1.5" is 1.5, 5 is 5.0


class TestSaddRecord:
    def _record(self, **overrides):
        fields = dict(
            part1_context="Sorting line for cast parts, two colors.",
            part2_technical="RGB images, 128x128, daylight illumination.",
            part3_sampling="Stratified by color, equal allocation.",
            sampling_descriptor={"strategy": "stratified", "seed": 7},
        )
        fields.update(overrides)
        return SaddRecord(**fields)

    def test_hash_stable_and_content_sensitive(self):
        a = self._record()
        assert a.content_hash == self._record().content_hash
        b = self._record(part3_sampling="Simple random sample.")
        assert b.content_hash != a.content_hash

    def test_empty_part_rejected(self):
        with pytest.raises(ValidationError):
            self._record(part2_technical="   ")

    def test_version_must_be_positive(self):
        with pytest.raises(ValidationError):
            self._record(version=0)


class TestMprSpec:
    def test_threshold_outside_codomain_rejected(self):
        with pytest.raises(ValidationError):
            MprSpec("accuracy", 1.2, "at_least")

    def test_bad_direction_rejected(self):
        with pytest.raises(ValidationError):
            MprSpec("accuracy", 0.9, "between")

    def test_alpha_share_bounds(self):
        with pytest.raises(ValidationError):
            MprSpec("accuracy", 0.9, "at_least", alpha_share=1.5)


class TestCanonicalJson:
    def test_key_order_and_no_spaces(self):
        assert canonical_json({"b": 1, "a": [1.0, 2]}) == '{"a":[1.0,2],"b":1}'

    def test_numpy_scalars_serialize(self):
        out = canonical_json({"v": np.float64(0.5), "k": np.int64(3)})
        assert json.loads(out) == {"v": 0.5, "k": 3}

    def test_sha256_known_vector(self):
        # FIPS 180-2 appendix B.1 value for "abc"
        assert sha256_hex("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


@given(st.integers(min_value=1, max_value=400), st.data())
@settings(max_examples=50, deadline=None)
def test_metric_value_count_consistency(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    mv = MetricValue("accuracy", k / n, n, successes=k)
    assert abs(mv.value * mv.n - k) <= 1e-6
