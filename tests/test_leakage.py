"""Contamination screens: duplicates, shared groups, temporal overlap,
target proxies. Planted leaks must surface with exact evidence counts and
clean data must come back clean."""

import tracemalloc

import numpy as np
import pytest

from statcert import leakage
from statcert.canonical import plain
from statcert.errors import ValidationError
from statcert.leakage import (
    DUPLICATE_KEYS,
    PROXY_AUC_THRESHOLD,
    LeakageReport,
    duplicate_check,
    group_leakage_check,
    target_proxy_screen,
    temporal_split_check,
)

from conftest import build_dataset
from helpers import string_duplicate_check


def feature_split(x: np.ndarray):
    cols = {f"x{j}": x[:, j].copy() for j in range(x.shape[1])}
    roles = {name: "feature" for name in cols}
    return build_dataset(cols, roles)


class TestDuplicateCheck:
    def test_disjoint_rows_clean(self, rng):
        train = feature_split(rng.normal(size=(50, 3)))
        test = feature_split(rng.normal(size=(40, 3)))
        report = duplicate_check(train, test)
        assert report.severity == "clean"
        assert report.evidence == ()

    def test_planted_copy_names_both_rows(self, rng):
        xtr = rng.normal(size=(50, 3))
        xte = rng.normal(size=(40, 3))
        xte[17] = xtr[5]
        report = duplicate_check(feature_split(xtr), feature_split(xte))
        assert report.severity == "violation"
        cross = [e for e in report.evidence if "test_row" in e]
        assert cross == [{"test_row": 17, "train_rows": [5]}]

    def test_hundred_planted_in_ten_thousand(self, rng):
        xtr = rng.normal(size=(10_000, 4))
        xte = rng.normal(size=(10_000, 4))
        planted = rng.choice(10_000, size=100, replace=False)
        sources = rng.choice(10_000, size=100, replace=False)
        xte[planted] = xtr[sources]
        report = duplicate_check(feature_split(xtr), feature_split(xte))
        assert report.severity == "violation"
        assert len(report.evidence) == 100
        found = {e["test_row"] for e in report.evidence}
        assert found == set(planted.tolist())

    def test_hash_and_screen_hold_a_few_blocks_of_memory(self, rng):
        # canonical rows held whole took 29 MiB to hash these splits and
        # 48 MiB to screen them
        xtr = rng.normal(size=(100_000, 8))
        xte = rng.normal(size=(50_000, 8))
        xte[:10] = xtr[100:110]
        train, test = feature_split(xtr), feature_split(xte)
        del xtr, xte
        peaks = []
        for call in (lambda: (train.content_hash, test.content_hash),
                     lambda: duplicate_check(train, test)):
            tracemalloc.start()
            try:
                result = call()
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert result.evidence == tuple({"test_row": i, "train_rows": [100 + i]}
                                        for i in range(10))
        assert max(peaks) < 12, peaks

    def test_within_set_repeat_is_warning(self, rng):
        xtr = rng.normal(size=(30, 2))
        xtr[9] = xtr[3]
        report = duplicate_check(feature_split(xtr), feature_split(rng.normal(size=(20, 2))))
        assert report.severity == "warning"
        assert {"set": "train", "rows": [3, 9]} in report.evidence

    def test_swapping_splits_flags_same_pairs(self, rng):
        xtr = rng.normal(size=(60, 3))
        xte = rng.normal(size=(60, 3))
        for te, tr in [(4, 10), (31, 2), (58, 44)]:
            xte[te] = xtr[tr]
        fwd = duplicate_check(feature_split(xtr), feature_split(xte))
        rev = duplicate_check(feature_split(xte), feature_split(xtr))

        def pairs(report, swapped):
            out = set()
            for e in report.evidence:
                if "test_row" not in e:
                    continue
                for other in e["train_rows"]:
                    pair = (other, e["test_row"]) if not swapped else (e["test_row"], other)
                    out.add(pair)
            return out

        assert pairs(fwd, swapped=False) == pairs(rev, swapped=True) == {
            (10, 4), (2, 31), (44, 58)}
        assert fwd.severity == rev.severity == "violation"

    def test_mismatched_feature_columns_rejected(self, rng):
        train = feature_split(rng.normal(size=(10, 2)))
        other = build_dataset({"a": rng.normal(size=10), "b": rng.normal(size=10)},
                              {"a": "feature", "b": "feature"})
        with pytest.raises(ValidationError, match="feature columns differ"):
            duplicate_check(train, other)

    def test_no_feature_columns_rejected(self, rng):
        ds = build_dataset({"y": np.zeros(5)}, {"y": "label"})
        with pytest.raises(ValidationError, match="no feature columns"):
            duplicate_check(ds, ds)

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_rejected(self, rng, empty):
        # a screen that compared no rows must not read clean
        splits = {"train": feature_split(rng.normal(size=(5, 2))),
                  "test": feature_split(rng.normal(size=(5, 2)))}
        splits[empty] = feature_split(np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="both splits need rows for the duplicate"):
            duplicate_check(splits["train"], splits["test"])

    def test_bad_key_rejected(self, rng):
        ds = feature_split(rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError):
            duplicate_check(ds, ds, key="rounded")

    def test_twelve_digit_roundtrip_still_matches(self, rng):
        # storage that rewrites floats at 12 significant digits must not
        # hide a duplicate from the check
        xtr = rng.normal(size=(25, 3))
        roundtripped = np.vectorize(lambda v: float(f"{v:.12g}"))(xtr)
        assert not np.array_equal(xtr, roundtripped)
        report = duplicate_check(feature_split(xtr), feature_split(roundtripped))
        assert report.severity == "violation"
        assert len([e for e in report.evidence if "test_row" in e]) == 25

    def test_eleventh_digit_difference_not_merged(self):
        base = np.array([[0.123456789012345]])
        nudged = np.array([[0.123456799012345]])  # differs in digit 9
        report = duplicate_check(feature_split(base), feature_split(nudged))
        assert report.severity == "clean"

    def test_hash_key_agrees_with_exact(self, rng):
        xtr = rng.normal(size=(40, 3))
        xte = rng.normal(size=(40, 3))
        xte[7] = xtr[12]
        xte[21] = xte[8]
        exact = duplicate_check(feature_split(xtr), feature_split(xte))
        hashed = duplicate_check(feature_split(xtr), feature_split(xte),
                                 key="feature_hash")
        assert exact.severity == hashed.severity
        assert exact.evidence == hashed.evidence

    def test_integer_features_compare_exactly(self):
        xtr = np.array([[1, 2], [3, 4]], dtype=np.int64)
        xte = np.array([[3, 4], [5, 6]], dtype=np.int64)
        report = duplicate_check(feature_split(xtr), feature_split(xte))
        cross = [e for e in report.evidence if "test_row" in e]
        assert cross == [{"test_row": 0, "train_rows": [1]}]


def oracle_splits(case, seed):
    """Seeded (train, test) pair for one duplicate-evidence case."""
    rng = np.random.default_rng([seed, len(case)])
    n_train, n_test = int(rng.integers(30, 300)), int(rng.integers(20, 200))
    if case == "int64":
        # few distinct values, some beyond 12 digits
        values = np.array([-3, 0, 7, 10**12 - 1, 10**12, 10**15, -(2**63)])
        return (feature_split(rng.choice(values, size=(n_train, 2))),
                feature_split(rng.choice(values, size=(n_test, 2))))
    xtr = rng.normal(size=(n_train, 3)) * 10.0 ** rng.integers(-8, 9, size=3)
    xte = rng.normal(size=(n_test, 3)) * 10.0 ** rng.integers(-8, 9, size=3)
    picks = rng.integers(0, n_train, size=n_test // 4)
    slots = rng.choice(n_test, size=n_test // 4, replace=False)
    if case == "cross":
        xte[slots] = xtr[picks]
    elif case == "within":
        xtr[rng.integers(0, n_train, size=8)] = xtr[rng.integers(0, n_train)]
        xte[slots] = xte[rng.integers(0, n_test)]
    elif case == "roundtrip":
        # equal at 12 digits: printed and reparsed, or moved by one ulp;
        # a change in the 11th digit must stay apart
        moved = np.vectorize(lambda v: float(f"{v:.12g}"))(xtr[picks])
        moved[::3] = np.nextafter(xtr[picks][::3], np.inf)
        moved[1::5] = xtr[picks][1::5] * (1 + 3e-11)
        xte[slots] = moved
    elif case == "text":
        # the same numbers as text in train, as floats in test
        xte[slots] = xtr[picks]
        text = np.vectorize(lambda v: f"{v:.12g}")(xtr).astype(object)
        text[::7, 0] = "n/a"
        columns = {f"x{j}": text[:, j].astype(str) for j in range(3)}
        return (build_dataset(columns, {name: "feature" for name in columns}),
                feature_split(xte))
    return feature_split(xtr), feature_split(xte)


class TestDuplicateOracle:
    """Digest-free sorted comparison against the joined-string screen."""

    @pytest.mark.parametrize("key", DUPLICATE_KEYS)
    @pytest.mark.parametrize("case", ["cross", "within", "roundtrip", "int64", "text"])
    def test_evidence_equals_string_screen(self, case, key):
        severities = set()
        for seed in range(6):
            train, test = oracle_splits(case, seed)
            got = plain(duplicate_check(train, test, key=key))
            assert got == plain(string_duplicate_check(train, test, key=key))
            severities.add(got["severity"])
        assert severities == ({"warning"} if case == "within" else {"violation"})

    @pytest.mark.parametrize("keys", ["constant", "two_buckets"])
    @pytest.mark.parametrize("case", ["cross", "within", "roundtrip", "int64", "text"])
    def test_colliding_row_keys_keep_the_evidence(self, monkeypatch, case, keys):
        # a collision only adds candidates, which the exact comparison sorts out
        row_keys = leakage._row_keys

        def colliding(dataset, features):
            if keys == "constant":
                return np.zeros(dataset.n_rows, dtype=np.uint64)
            return row_keys(dataset, features) & np.uint64(1)

        monkeypatch.setattr(leakage, "_row_keys", colliding)
        for seed in range(6):
            train, test = oracle_splits(case, seed)
            assert (plain(duplicate_check(train, test))
                    == plain(string_duplicate_check(train, test)))


class TestGroupLeakage:
    def grouped_ids(self, ids):
        n = len(ids)
        return build_dataset(
            {"x": np.arange(n, dtype=float), "gid": np.asarray(ids)},
            {"x": "feature", "gid": "group_id"})

    def test_disjoint_ids_clean(self):
        report = group_leakage_check(self.grouped_ids([1, 2, 3]),
                                     self.grouped_ids([4, 5, 6]))
        assert report.severity == "clean"
        assert report.evidence == ()

    def test_single_shared_id_listed(self):
        report = group_leakage_check(self.grouped_ids([1, 2, 3]),
                                     self.grouped_ids([3, 4, 5]))
        assert report.severity == "violation"
        assert report.evidence == ("3",)

    def test_evidence_size_equals_shared_count(self):
        train = self.grouped_ids(list(range(100)))
        test = self.grouped_ids(list(range(93, 130)))
        report = group_leakage_check(train, test)
        assert len(report.evidence) == 7
        assert report.evidence == tuple(str(i) for i in range(93, 100))

    def test_repeated_rows_count_ids_once(self):
        report = group_leakage_check(self.grouped_ids([8, 8, 8, 1]),
                                     self.grouped_ids([8, 8, 2]))
        assert report.evidence == ("8",)

    def test_missing_group_column(self, rng):
        plain = feature_split(rng.normal(size=(5, 2)))
        with pytest.raises(ValidationError, match="no column with role 'group_id'"):
            group_leakage_check(plain, plain)

    @pytest.mark.parametrize("train,test", [([], [1, 2]), ([1, 2], [])])
    def test_empty_split_rejected(self, train, test):
        with pytest.raises(ValidationError, match="both splits need rows for the group"):
            group_leakage_check(self.grouped_ids(train), self.grouped_ids(test))

    def test_column_found_by_its_role(self):
        train = build_dataset({"x": np.zeros(3), "device": np.array(["a", "b", "c"])},
                              {"x": "feature", "device": "group_id"})
        test = build_dataset({"x": np.ones(2), "device": np.array(["c", "d"])},
                             {"x": "feature", "device": "group_id"})
        report = group_leakage_check(train, test)
        assert report.evidence == ("c",)


class TestTemporalSplit:
    def stamped(self, stamps):
        ts = np.asarray(stamps, dtype=np.int64)
        return build_dataset({"x": np.zeros(len(ts)), "t": ts},
                             {"x": "feature", "t": "timestamp"})

    def test_ordered_windows_clean(self):
        report = temporal_split_check(self.stamped([10, 20, 30]),
                                      self.stamped([40, 50]))
        assert report.severity == "clean"

    def test_interleaved_windows_flagged(self):
        report = temporal_split_check(self.stamped([10, 45, 30, 60]),
                                      self.stamped([40, 50]))
        assert report.severity == "violation"
        assert {e["train_row"] for e in report.evidence} == {1, 3}

    def test_single_late_row_gives_one_entry(self):
        report = temporal_split_check(self.stamped([10, 20, 99, 30]),
                                      self.stamped([40, 50, 60]))
        assert len(report.evidence) == 1
        assert report.evidence[0] == {"train_row": 2, "timestamp": 99}

    def test_boundary_equality_is_clean(self):
        # a training row stamped exactly at the window open is allowed
        report = temporal_split_check(self.stamped([10, 40]), self.stamped([40, 50]))
        assert report.severity == "clean"

    def test_empty_split_rejected(self):
        with pytest.raises(ValidationError, match="both splits need rows for the temporal"):
            temporal_split_check(self.stamped([]), self.stamped([40]))

    def test_missing_timestamp_column(self, rng):
        plain = feature_split(rng.normal(size=(4, 2)))
        with pytest.raises(ValidationError, match="no column with role 'timestamp'"):
            temporal_split_check(plain, plain)


def labeled_features(x: np.ndarray, y: np.ndarray):
    cols = {f"x{j}": x[:, j].copy() for j in range(x.shape[1])}
    roles = {name: "feature" for name in cols}
    cols["y"] = y
    roles["y"] = "label"
    return build_dataset(cols, roles)


class TestTargetProxyScreen:
    def test_label_copy_flagged_with_perfect_auc(self, rng):
        y = np.repeat([0, 1], 200)
        rng.shuffle(y)
        x = np.column_stack([rng.normal(size=400), y.astype(float)])
        report = target_proxy_screen(labeled_features(x, y), seed=3)
        assert report.severity == "warning"
        assert len(report.evidence) == 1
        assert report.evidence[0]["feature"] == "x1"
        assert report.evidence[0]["holdout_auc"] == 1.0

    def test_independent_features_clean(self, rng):
        y = rng.integers(0, 2, size=2000)
        x = rng.normal(size=(2000, 20))
        report = target_proxy_screen(labeled_features(x, y), seed=11)
        assert report.severity == "clean"
        assert report.evidence == ()

    def test_noisy_copy_lands_near_its_flip_rate(self, rng):
        # the holdout AUC of a copy with flip rate f is about 1 - f
        y = rng.integers(0, 2, size=4000)
        u = rng.random(4000)

        def copy_with_flips(rate):
            x = np.where(u < rate, 1 - y, y).astype(float).reshape(-1, 1)
            return target_proxy_screen(labeled_features(x, y), seed=5)

        assert copy_with_flips(0.3).severity == "clean"
        nearly = copy_with_flips(0.005)
        assert nearly.severity == "warning"
        assert PROXY_AUC_THRESHOLD < nearly.evidence[0]["holdout_auc"] < 1.0

    def test_too_few_rows(self, rng):
        y = rng.integers(0, 2, size=99)
        x = rng.normal(size=(99, 2))
        with pytest.raises(ValidationError, match="needs >= 100 rows"):
            target_proxy_screen(labeled_features(x, y))

    def test_deterministic_given_seed(self, rng):
        y = rng.integers(0, 2, size=300)
        x = np.column_stack([rng.normal(size=300), y + rng.normal(0, 0.1, 300)])
        ds = labeled_features(x, y)
        a = target_proxy_screen(ds, seed=21)
        b = target_proxy_screen(ds, seed=21)
        assert plain(a) == plain(b)

    def test_real_label_monotone_transform_flagged(self, rng):
        y = rng.normal(size=500)
        x = np.column_stack([rng.normal(size=500), np.exp(y)])
        report = target_proxy_screen(labeled_features(x, y), seed=2)
        assert report.severity == "warning"
        assert report.evidence[0]["feature"] == "x1"
        assert report.evidence[0]["spearman"] == pytest.approx(1.0)

    def test_real_label_independent_clean(self, rng):
        y = rng.normal(size=500)
        x = rng.normal(size=(500, 4))
        report = target_proxy_screen(labeled_features(x, y), seed=2)
        assert report.severity == "clean"

    def test_non_numeric_feature_skipped_and_named(self, rng):
        y = rng.integers(0, 2, size=200)
        cols = {
            "num": rng.normal(size=200),
            "cat": np.array(["a", "b"] * 100),
            "y": y,
        }
        roles = {"num": "feature", "cat": "feature", "y": "label"}
        report = target_proxy_screen(build_dataset(cols, roles), seed=4)
        assert "cat" in report.description
        assert report.severity == "clean"


class TestReportInvariants:
    def test_clean_requires_empty_evidence(self):
        with pytest.raises(ValidationError):
            LeakageReport("duplicate", "clean", ({"test_row": 1},), "bad")
        with pytest.raises(ValidationError):
            LeakageReport("duplicate", "violation", (), "bad")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValidationError):
            LeakageReport("duplicate", "fatal", (), "bad")

    def test_plain_is_json_ready(self):
        import json

        report = LeakageReport("group", "violation", ("7", "9"), "2 shared")
        assert json.dumps(plain(report))
