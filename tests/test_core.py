"""Dataset model and metric registry."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statcert import core
from statcert.core import (
    _plain_numeric_columns,
    Dataset,
    MetricValue,
    MprSpec,
    SaddRecord,
    Schema,
    canonical_cells,
    canonical_json,
    compute_metric,
    load_dataset,
    sha256_hex,
)
from statcert.errors import DataLoadError, ValidationError

from conftest import build_dataset, counts_to_rows, labeled
from helpers import reference_load_csv, string_cell


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
        with pytest.raises(ValidationError, match="f_beta_0.5"):
            compute_metric(labeled([0], [0]), "f_beta_0.5")

    def test_missing_prediction_column(self):
        ds = build_dataset({"label": np.array([0, 1])}, {"label": "label"})
        with pytest.raises(ValidationError, match="no column with role 'prediction'"):
            compute_metric(ds, "accuracy")

    def test_empty_dataset_rejected(self):
        ds = labeled(np.array([], dtype=int), np.array([], dtype=int))
        with pytest.raises(ValidationError, match="zero rows"):
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


class TestDatasetModel:
    @pytest.mark.parametrize("label,prediction,message", [
        (["1", "0", "yes", "1"], [1, 0, 1, 1],
         "column 'label' holds text ('yes' in row 2) but column 'prediction' holds numbers"),
        ([1.0, 0.0], ["0.5", "n/a"],
         "column 'prediction' holds text ('n/a' in row 1) but column 'label' holds numbers"),
    ])
    def test_label_and_prediction_of_different_types_rejected(self, label, prediction,
                                                              message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            labeled(label, prediction)

    def test_text_labels_compare_with_text_predictions(self):
        assert compute_metric(labeled(["cat", "dog"], ["cat", "cat"]), "accuracy").value == 0.5

    def test_content_hash_survives_jsonl_round_trip(self, tmp_path, rng):
        x = rng.normal(size=(25, 3)).round(6)
        columns = {f"x{j}": x[:, j] for j in range(3)}
        columns["label"] = rng.integers(0, 2, size=25)
        roles = {"x0": "feature", "x1": "feature", "x2": "feature",
                 "label": "label"}
        ds = build_dataset(columns, roles)
        path = tmp_path / "round_trip.jsonl"
        path.write_text("".join(
            json.dumps({n: ds.column(n)[i].item() for n in columns}) + "\n"
            for i in range(ds.n_rows)))
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

    def test_text_score_column_rejected(self, tmp_path):
        # a JSONL file reaches the model with the text cell; it used to
        # surface as numpy's bare ValueError
        path = tmp_path / "scores.jsonl"
        path.write_text('{"s0": 0.25, "s1": 0.75}\n{"s0": "high", "s1": 0.5}\n')
        with pytest.raises(ValidationError, match="score column 's0' is not numeric"):
            load_dataset(path, {"s0": "score", "s1": "score"})

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


AB = {"a": "feature", "b": "feature"}
AL = {"a": "feature", "label": "label"}
INT64_MAX = 2**63 - 1

# (id, file content, roles, parsed in C)
CSV_CASES = [
    ("six_digits", b"a,label\n0.345584,0\n-1.303157,1\n", AL, True),
    ("seventeen_digits", b"a,b\n0.10000000000000001,-2.2250738585072014e-308\n"
     b"1.7976931348623157e+308,5e-324\n", AB, True),
    ("exponents", b"a,b\n1e5,1E-5\n.5,5.\n-.5e+3,+2.5E+0\n", AB, True),
    ("signs_and_leading_zeros", b"a,label\n+0012.50,007\n-000.5,-003\n+.25,+0\n",
     AL, True),
    ("negative_zero", b"a,label\n-0.0,-0\n0.5,1\n", AL, True),
    ("integral_floats_stay_float", b"a,label\n1.0,0\n2.0,1\n1e3,1\n", AL, True),
    ("integral_floats_beside_integers", b"a,label,c\n1.0,0,-7\n2.0,1,+8\n",
     {"a": "feature", "label": "label", "c": "feature"}, True),
    ("int64_limits", f"a,label\n0.5,{INT64_MAX}\n1.5,-{INT64_MAX}\n2.5,{-2**63}\n"
     .encode(), AL, True),
    ("big_integral_floats", b"a,b\n1e30,0.5\n-2e19,1.5\n", AB, True),
    ("big_floats", b"a,b\n1e30,0.5\n1.5,1e300\n", AB, True),
    ("long_tokens", b"a,b\n0." + b"0" * 60 + b"1,2.5" + b"0" * 40 + b"\n"
     b"0." + b"3" * 400 + b",-" + b"9" * 18 + b"\n", AB, True),
    ("single_row", b"a,label\n0.25,1\n", AL, True),
    ("single_column", b"a\n0.25\n-1\n", {"a": "feature"}, True),
    ("no_trailing_newline", b"a,label\n0.25,1\n0.5,0", AL, True),
    ("blank_lines", b"a,label\n\n0.25,1\n\n\n0.5,0\n\n", AL, True),
    ("blank_line_before_first_row", b"a,label\n\n\n0.25,1\n0.5,0\n", AL, True),
    ("fraction_then_int_tokens", b"a,b\n0.5,1.5\n1,-2\n+3,4\n", AB, True),
    ("duplicate_header_column", b"a,a,b\n1.5,2.5,3.5\n4.5,5.5,6.5\n", AB, True),
    ("undeclared_columns", b"z,a,y,b\n1,1.5,x,2.5\n", AB, False),
    ("undeclared_numeric_columns", b"z,a,y,b\n1,1.5,2,2.5\n3,3.5,4,4.5\n", AB, True),
    ("quoted_header", b'"a",b,"c,d"\n1.5,2.5,3\n', AB, True),
    ("bom_before_undeclared_column", "\ufeffz,a,b\n1,1.5,2.5\n".encode(), AB, True),
    ("timestamp", b"a,t\n0.5,1700000000\n1.5,1700000001\n",
     {"a": "feature", "t": "timestamp"}, True),
    ("scores", b"s0,s1\n0.25,0.75\n1,0\n", {"s0": "score", "s1": "score"}, True),
    ("inf_in_integral_column", b"a,b\n1e400,0.5\n", AB, True),
    ("inf_in_fractional_column", b"a,b\n1e400,0.5\n2.5,1.5\n", AB, True),
    # the csv.reader path decides
    ("int_token_then_fraction", b"a,b\n1,0.5\n2.5,1.5\n", AB, False),
    ("int_token_then_past_int64", f"a,label\n0.5,1\n1.5,{2**63}\n".encode(), AL, False),    ("empty_file", b"", AB, False),
    ("header_only", b"a,b\n", AB, False),
    ("header_only_no_newline", b"a,b", AB, False),
    ("header_and_blank_lines", b"a,b\n\n\n", AB, False),
    ("quoted_cells", b'a,b\n"1.5",2.5\n', AB, False),
    ("crlf", b"a,b\r\n1.5,2.5\r\n", AB, False),
    ("crlf_header_only", b"a,b\r\n1.5,2.5\n", AB, False),
    ("text_cells", b"a,b\nx,2.5\ny,3.5\n", AB, False),
    ("empty_cells", b"a,b\n,2.5\n1.5,\n", AB, False),
    ("whitespace", b"a,b\n 1.5,2.5\n", AB, False),
    ("nan", b"a,b\nnan,2.5\n", AB, False),
    ("inf", b"a,b\n-inf,2.5\n", AB, False),
    ("underscores", b"a,label\n1.5,1_000\n", AL, False),
    ("unicode_digits", "a,label\n1.5,\u0661\u0662\n".encode(), AL, False),
    ("bom_before_declared_column", "\ufeffa,b\n1.5,2.5\n".encode(), AB, False),
    ("ragged_short_row", b"a,b\n1.5,2.5\n3.5\n", AB, False),
    ("ragged_every_row", b"a,b\n1.5,2.5,3.5\n", AB, False),
    ("missing_column", b"a,c\n1.5,2.5\n", AB, False),
    ("quoted_header_left_open", b'b,"a\n1.5,2.5\n', {"b": "feature"}, False),
    ("non_utf8_header", b"a,\xffb\n1.5,2.5\n", {"a": "feature"}, False),
    ("non_utf8_body", b"a,b\n1.5,\xff\n", AB, False),
    ("malformed_numbers", b"a,b\n1..5,2.5\n1e,+-1\n", AB, False),
    ("timestamp_not_integer", b"a,t\n0.5,1.5\n", {"a": "feature", "t": "timestamp"},
     False),
    ("timestamp_fraction_first", b"a,t\n0.5,1700000000.5\n1.5,1700000001\n",
     {"a": "feature", "t": "timestamp"}, False),
    ("group_id", b"a,g\n0.5,1\n", {"a": "feature", "g": "group_id"}, False),
    ("split", b"a,s\n0.5,test\n", {"a": "feature", "s": "split"}, False),
    ("score_text", b"s0,s1\nx,1\n", {"s0": "score", "s1": "score"}, False),
    ("invalid_schema", b"a,b\n0.5,1\n", {"a": "label", "b": "label"}, True),
]


def _random_numeric_csv(seed):
    """A plain numeric file: float columns in '%.6f', '%.17g' and
    exponent form, integer columns with signs and leading zeros, an
    integral-float column; random row count, blank lines and last newline."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    columns = {}
    for j, kind in enumerate(rng.choice(["f6", "g17", "exp", "int", "signed_int",
                                         "integral_float"], size=5)):
        if kind in ("int", "signed_int"):
            values = rng.integers(-10**12, 10**12, size=n)
            if kind == "int":
                cells = [str(v) for v in values]
            else:
                cells = [f"{'+' if v >= 0 else '-'}{'0' * int(rng.integers(0, 3))}{abs(v)}"
                         for v in values]
        elif kind == "integral_float":
            cells = [f"{v:.1f}" for v in rng.integers(-1000, 1000, size=n)]
        else:
            # the first cell is fractional, so the column is never integral
            values = np.concatenate([[0.125], rng.normal(size=n - 1)
                                     * 10.0 ** rng.uniform(-300, 300, size=n - 1)])
            fmt = {"f6": "%.6f", "g17": "%.17g", "exp": "%.3E"}[kind]
            cells = [fmt % v for v in values]
        columns[f"c{j}"] = cells
    names = list(columns)
    lines = [",".join(names)]
    for i in range(n):
        lines.append(",".join(columns[name][i] for name in names))
        if rng.random() < 0.1:
            lines.append("")
    text = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    roles = {name: "feature" for name in names}
    return text.encode(), roles


def _load_or_error(load, path, roles):
    try:
        return load(path, roles)
    except Exception as e:
        return type(e), str(e)


class TestCsvLoader:
    """`load_csv` parses plain numeric files in C, with dtypes the first
    row picks, and hands every other file, and one with a cell the C pass
    refuses, to csv.reader: either way the dataset, or the exception, is
    the one the csv.reader loader alone gives."""

    @staticmethod
    def check_against_reference(path, content, roles, fast):
        path.write_bytes(content)
        assert (_plain_numeric_columns(content, roles) is not None) == fast
        got = _load_or_error(load_dataset, path, roles)
        want = _load_or_error(reference_load_csv, path, roles)
        if isinstance(want, tuple) and want[0] is OverflowError:
            # the reference's form of an integer outside int64
            assert got[0] is DataLoadError
            assert re.fullmatch(rf"{re.escape(str(path))}: column '\w+' holds an "
                                r"integer outside int64", got[1])
            return
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, Dataset)
        for name in roles:
            assert got.column(name).dtype == want.column(name).dtype, name
            assert got.column(name).tobytes() == want.column(name).tobytes(), name
        assert got.content_hash == want.content_hash

    @pytest.mark.parametrize("content, roles, fast",
                             [c[1:] for c in CSV_CASES], ids=[c[0] for c in CSV_CASES])
    def test_case_matches_reference(self, tmp_path, content, roles, fast):
        self.check_against_reference(tmp_path / "data.csv", content, roles, fast)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_numeric_file_matches_reference(self, tmp_path, seed):
        content, roles = _random_numeric_csv(seed)
        self.check_against_reference(tmp_path / "data.csv", content, roles, True)

    @pytest.mark.parametrize("cell", [str(2**63), str(-2**63 - 1), "9" * 30, "9" * 5000],
                             ids=["2**63", "-2**63-1", "30_digits", "5000_digits"])
    def test_integer_outside_int64_is_refused(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"a,label\n0.5,1\n1.5,{cell}\n")
        with pytest.raises(DataLoadError, match=r"data\.csv: column 'label' holds "
                           r"an integer outside int64"):
            load_dataset(path, AL)


@pytest.mark.parametrize("labels, message", [
    (("1", str(2**63)), r"data\.jsonl: column 'label' holds an integer outside int64"),
    (("0.5", "1" + "0" * 400),
     r"data\.jsonl: column 'label' holds an integer outside float64"),
    (("1", "9" * 5000), r"data\.jsonl:2: an integer has too many digits to read"),
], ids=["int64", "float64", "5000_digits"])
def test_jsonl_integer_out_of_range_is_refused(tmp_path, labels, message):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(f'{{"a": 0.5, "label": {v}}}\n' for v in labels))
    with pytest.raises(DataLoadError, match=message):
        load_dataset(path, AL)


@pytest.mark.parametrize("line, message", [
    (b"[" * 100_000 + b"]" * 100_000, r"data\.jsonl:2: nested too deeply to read"),
    (b"5", r"data\.jsonl: record 2 is not a JSON object"),
], ids=["deep", "not_an_object"])
def test_unreadable_jsonl_line_is_refused(tmp_path, line, message):
    # each used to escape as RecursionError or TypeError
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"a": 0.5, "label": 1}\n' + line + b"\n")
    with pytest.raises(DataLoadError, match=message):
        load_dataset(path, AL)


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


    def test_row_digests_hash_every_byte_of_each_row(self):
        # a cell of 0.0 or of 1e11 and above ends in the zero high bytes of
        # its little-endian int64 exponent, which a NUL-stripping `S` view
        # of the row would drop
        ds = build_dataset({"a": [0.0, 1.0, -2.5, 3.0], "b": [0.0, 1e11, 1.5e14, 0.0]},
                           {"a": "feature", "b": "feature"})
        rows = ds.canonical_rows(["a", "b"], slice(None))
        assert all(row[-1] == 0 for row in rows)
        want = [hashlib.blake2b(bytes(row), digest_size=16).digest() for row in rows]
        assert ds.row_digests(["b", "a"]).tolist() == want

    # the content hash of `pinned_dataset` since schema version 2 (version
    # 3 changed p-values only), as the whole dataset canonicalised at once
    # gives it
    PINNED_HASH = "95b3ed6d0ef245d0c695120222bc5c4811a10e81c6f55aa2cd72f9d7139b00d7"

    @staticmethod
    def pinned_dataset():
        """Seeded rows over three row blocks: floats across 60 decades with
        -0.0, 0.0 and integral values, int64s of up to 19 digits, and text
        both free and numeric."""
        n = 2 * 8192 + 1000
        rng = np.random.default_rng(26)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-30, 31, size=n)
        floats[::97] = -0.0
        floats[::89] = 0.0
        floats[::13] = np.round(floats[::13])
        ints = rng.integers(-10**6, 10**6, size=n)
        ints[::7] = rng.integers(10**12, 2**62, size=len(ints[::7]))
        ints[::11] = -ints[::11]
        texts = np.array([f"{v:.12g}" for v in rng.normal(size=n) * 1e3], dtype=object)
        texts[::3] = [f"item-{k}" for k in rng.integers(0, 500, size=len(texts[::3]))]
        texts[::5] = [str(v) for v in rng.integers(10**12, 10**18, size=len(texts[::5]))]
        texts[::17] = "-0"
        return Dataset(Schema.from_roles({"t": "feature", "f": "feature", "i": "feature"}),
                       {"f": floats, "i": ints, "t": texts.astype(str)})

    @pytest.mark.parametrize("block", [8192, 1, 7, 2 * 8192 + 1001])
    def test_content_hash_bytes_do_not_depend_on_the_row_block(self, monkeypatch, block):
        assert core.ROW_BLOCK == 8192
        monkeypatch.setattr(core, "ROW_BLOCK", block)
        ds = self.pinned_dataset()
        assert len(list(ds.row_blocks())) == -(-ds.n_rows // block)
        assert ds.content_hash == self.PINNED_HASH


class TestSaddRecord:
    def _record(self, **overrides):
        fields = dict(
            operating_context="Sorting line for cast parts, two colors.",
            technical_requirements="RGB images, 128x128, daylight illumination.",
            sampling_strategy="Stratified by color, equal allocation.",
            sampling_descriptor={"strategy": "stratified", "seed": 7},
        )
        fields.update(overrides)
        return SaddRecord(**fields)

    def test_hash_stable_and_content_sensitive(self):
        a = self._record()
        assert a.content_hash == self._record().content_hash
        b = self._record(sampling_strategy="Simple random sample.")
        assert b.content_hash != a.content_hash

    def test_empty_part_rejected(self):
        with pytest.raises(ValidationError):
            self._record(technical_requirements="   ")

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
