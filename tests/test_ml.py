"""Unit + property tests for the ML substrate (tree, bucketize, CV)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    bucketize_by_percentile,
    bucketize_by_range,
    cross_validate,
    kfold_indices,
)
from repro.ml.decision_tree import _gini


class TestDecisionTree:
    def test_learns_threshold_rule(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = (X[:, 0] > 0.25).astype(int)
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.98

    def test_learns_xor_with_depth(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(800, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        model = DecisionTreeClassifier(max_depth=5, min_samples_split=4).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_pure_node_becomes_leaf(self):
        X = np.zeros((20, 1))
        y = np.zeros(20, dtype=int)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.depth() == 0
        assert model.num_leaves() == 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 3))
        y = rng.integers(0, 5, size=500)
        model = DecisionTreeClassifier(max_depth=2, min_samples_split=2).fit(X, y)
        assert model.depth() <= 2

    def test_multiclass(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 3, size=(600, 1))
        y = np.floor(X[:, 0]).astype(int)  # 3 classes by range
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.97

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 1)))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 1)), np.zeros(4, dtype=int))

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 1)), np.array([-1, 0, 1]))

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_training_accuracy_beats_majority(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        model = DecisionTreeClassifier(max_depth=6, min_samples_split=4).fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        majority = max(y.mean(), 1 - y.mean())
        assert accuracy >= majority


class _LoopTree(DecisionTreeClassifier):
    """The split search and predict as they were before the array rewrite:
    one Python iteration and one ``_gini`` call per candidate boundary, one
    tree walk per row.  Frozen as the reference for the differential test."""

    def _best_split(self, X, y, parent_counts):
        n = len(y)
        parent_impurity = _gini(parent_counts)
        best_gain = self.min_impurity_decrease
        best = None
        for feature in range(X.shape[1]):
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            sorted_labels = y[order]
            one_hot = np.zeros((n, self._num_classes), dtype=np.int64)
            one_hot[np.arange(n), sorted_labels] = 1
            left_counts = np.cumsum(one_hot, axis=0)
            boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1])
            if boundaries.size == 0:
                continue
            for b in boundaries:
                left = left_counts[b]
                right = parent_counts - left
                n_left = b + 1
                n_right = n - n_left
                weighted = (
                    n_left * _gini(left) + n_right * _gini(right)
                ) / n
                gain = parent_impurity - weighted
                if gain > best_gain:
                    best_gain = gain
                    threshold = (sorted_values[b] + sorted_values[b + 1]) / 2.0
                    best = (feature, float(threshold))
        return best

    def predict(self, features):
        X = np.asarray(features, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        for i in range(X.shape[0]):
            node = self._root
            while not node.is_leaf:
                node = node.left if X[i, node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out


def _tree_shape(node):
    """Every node as (feature, threshold, prediction), preorder."""
    if node.is_leaf:
        return [(None, None, node.prediction)]
    return (
        [(node.feature, node.threshold, node.prediction)]
        + _tree_shape(node.left)
        + _tree_shape(node.right)
    )


@st.composite
def _tree_inputs(draw):
    """Small fits with the awkward shapes: tied values (a few distinct
    values per column), constant columns, one-class labels, duplicated
    columns (equal gains across features), and depth/size limits at their
    edges."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["constant", "ties", "floats", "copy"]))
        if kind == "constant":
            columns.append(np.full(n, draw(st.integers(-3, 3)), dtype=np.float64))
        elif kind == "ties":
            columns.append(np.array(
                draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                dtype=np.float64,
            ))
        elif kind == "copy" and columns:
            columns.append(columns[0].copy())
        else:
            columns.append(np.array(
                draw(st.lists(
                    st.floats(-1e3, 1e3, allow_nan=False, width=32),
                    min_size=n, max_size=n,
                )),
                dtype=np.float64,
            ))
    num_classes = draw(st.integers(1, 6))
    y = np.array(
        draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    max_depth = draw(st.integers(1, 6))
    min_samples_split = draw(st.integers(2, max(2, n + 1)))
    return np.column_stack(columns), y, max_depth, min_samples_split


class TestSplitSearchDifferential:
    """The array split search picks exactly the loop's splits."""

    @given(_tree_inputs())
    @settings(max_examples=300, deadline=None)
    def test_best_split_matches_loop(self, inputs):
        X, y, _, _ = inputs
        fast, loop = DecisionTreeClassifier(), _LoopTree()
        fast._num_classes = loop._num_classes = int(y.max()) + 1
        counts = np.bincount(y, minlength=fast._num_classes)
        assert fast._best_split(X, y, counts) == loop._best_split(X, y, counts)

    @given(_tree_inputs())
    @settings(max_examples=200, deadline=None)
    def test_fitted_tree_and_predictions_match_loop(self, inputs):
        X, y, max_depth, min_samples_split = inputs
        params = dict(max_depth=max_depth, min_samples_split=min_samples_split)
        fast = DecisionTreeClassifier(**params).fit(X, y)
        loop = _LoopTree(**params).fit(X, y)
        assert _tree_shape(fast._root) == _tree_shape(loop._root)
        probe = np.vstack([X, X + 0.5, X - 0.5])
        assert np.array_equal(fast.predict(probe), loop.predict(probe))

    def test_equal_gains_keep_the_first_feature(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        model = DecisionTreeClassifier(min_samples_split=2).fit(X, y)
        assert (model._root.feature, model._root.threshold) == (0, 0.5)

    def test_equal_gains_keep_the_first_boundary(self):
        # Splitting after either row 0 or row 2 of a 4-row, 2-class node
        # gains the same; the first boundary wins.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 0])
        model = DecisionTreeClassifier(min_samples_split=2, max_depth=1)
        model.fit(X, y)
        assert model._root.threshold == 0.5

    def test_matches_loop_on_medium_sized_fit(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([
            rng.integers(0, 12, size=700),
            rng.integers(0, 2, size=700),
            rng.normal(size=700).round(1),
        ]).astype(np.float64)
        y = rng.integers(0, 10, size=700)
        fast = DecisionTreeClassifier(max_depth=10, min_samples_split=5).fit(X, y)
        loop = _LoopTree(max_depth=10, min_samples_split=5).fit(X, y)
        assert _tree_shape(fast._root) == _tree_shape(loop._root)
        assert np.array_equal(fast.predict(X), loop.predict(X))


class TestBucketize:
    def test_range_buckets_cover(self):
        values = np.linspace(0, 100, 1000)
        b = bucketize_by_range(values)
        assert b.num_buckets == 10
        assert b.labels.min() == 0 and b.labels.max() == 9
        # Equal-width on uniform data => roughly equal counts.
        assert b.bucket_counts().min() >= 80

    def test_range_skewed_data_has_skewed_counts(self):
        values = np.random.default_rng(0).exponential(size=2000)
        b = bucketize_by_range(values)
        counts = b.bucket_counts()
        assert counts[0] > counts[5]

    def test_percentile_buckets_balanced(self):
        values = np.random.default_rng(1).exponential(size=2000)
        b = bucketize_by_percentile(values)
        counts = b.bucket_counts()
        assert counts.max() - counts.min() <= 0.05 * len(values)

    def test_percentile_with_heavy_ties(self):
        values = np.r_[np.zeros(500), np.random.default_rng(2).uniform(1, 2, 100)]
        b = bucketize_by_percentile(values)
        assert b.labels.max() <= 9
        assert b.labels.min() == 0

    def test_assign_new_values(self):
        b = bucketize_by_range(np.arange(100.0))
        assert b.assign([0.0])[0] == 0
        assert b.assign([99.0])[0] == 9
        assert b.assign([1e9])[0] == 9  # clipped into the last bucket

    def test_constant_data(self):
        b = bucketize_by_range(np.full(10, 3.0))
        assert set(b.labels.tolist()) == {0}

    def test_too_few_buckets_rejected(self):
        with pytest.raises(ValueError):
            bucketize_by_range([1.0, 2.0], num_buckets=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bucketize_by_range([])


class TestCrossVal:
    def test_kfold_covers_everything(self):
        folds = kfold_indices(53, k=5, rng=np.random.default_rng(0))
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(53))
        for train, test in folds:
            assert set(train) & set(test) == set()

    def test_kfold_too_few_samples(self):
        with pytest.raises(ValueError):
            kfold_indices(3, k=5)

    def test_cv_accuracy_on_learnable_problem(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, size=(500, 1))
        y = np.floor(X[:, 0]).astype(int)
        result = cross_validate(
            lambda: DecisionTreeClassifier(max_depth=9),
            X, y, rng=np.random.default_rng(0),
        )
        assert result.exact_accuracy > 0.9
        assert result.within_one_accuracy >= result.exact_accuracy
        assert result.num_folds == 5

    def test_within_tolerance_definition(self):
        # Predicting bucket k for true bucket k+1 counts within-one.
        class OffByOne:
            def fit(self, X, y):
                return self

            def predict(self, X):
                return np.ones(len(X), dtype=int)

        X = np.zeros((20, 1))
        y = np.repeat([0, 2], 10)  # all |pred - true| == 1
        result = cross_validate(lambda: OffByOne(), X, y, k=2)
        assert result.exact_accuracy == 0.0
        assert result.within_one_accuracy == 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            cross_validate(
                lambda: DecisionTreeClassifier(), np.zeros((5, 1)), np.zeros(4)
            )
