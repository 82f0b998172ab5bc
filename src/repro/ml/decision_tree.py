"""A CART decision-tree classifier (Gini impurity, numeric features).

Matches the behavior needed for the paper's §4.9: a "simple decision tree
classifier" over 3–4 numeric design features predicting a 10-way bucket
label.  Splits are exhaustive over midpoints of consecutive distinct feature
values; growth stops at ``max_depth``, ``min_samples_split``, or purity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class _Node:
    """Internal tree node; leaves have ``feature is None``."""

    prediction: int
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.square(p).sum())


class DecisionTreeClassifier:
    """CART classifier with Gini splitting.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root at depth 0).
    min_samples_split:
        Nodes with fewer samples become leaves.
    min_impurity_decrease:
        Minimum Gini improvement required to accept a split.
    """

    def __init__(
        self,
        *,
        max_depth: int = 8,
        min_samples_split: int = 10,
        min_impurity_decrease: float = 1e-7,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self._root: Optional[_Node] = None
        self._num_classes = 0

    # ------------------------------------------------------------------ #

    def fit(self, features, labels) -> "DecisionTreeClassifier":
        """Fit on ``features`` of shape (n, d) and integer ``labels`` >= 0."""
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"labels shape {y.shape} incompatible with {X.shape[0]} samples"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if np.any(y < 0):
            raise ValueError("labels must be non-negative integers")
        self._num_classes = int(y.max()) + 1
        self._root = self._grow(X, y, depth=0)
        return self

    def _class_counts(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self._num_classes)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = self._class_counts(y)
        prediction = int(counts.argmax())
        node = _Node(prediction=prediction)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or counts.max() == len(y)
        ):
            return node

        best = self._best_split(X, y, counts)
        if best is None:
            return node
        feature, threshold = best
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, parent_counts: np.ndarray
    ) -> Optional[tuple[int, float]]:
        """The first ``(feature, threshold)`` of maximal Gini gain, or None.

        Every candidate boundary of every feature is scored in one array
        pass.  Each side's impurity is ``1 - sum((counts / n_side)**2)``,
        summed per candidate along the class axis, which is the same
        reduction :func:`_gini` runs on one count vector, so the gains are
        bit-identical to scoring the candidates one at a time.  Ties go to
        the first candidate in (feature, boundary) order: the first-max
        ``argmax`` over the feature-major gains, taken only if it beats
        ``min_impurity_decrease``.
        """
        n = len(y)
        # One stable sort per feature column; ties keep their row order.
        order = np.argsort(X, axis=0, kind="stable")
        sorted_values = X[order, np.arange(X.shape[1])]
        # Candidate boundaries: positions where a feature's value changes,
        # listed feature-major (the order of the first-wins tie rule).
        features, positions = np.nonzero(
            (sorted_values[1:] != sorted_values[:-1]).T
        )
        if features.size == 0:
            return None

        # Cumulative class counts along each feature's sorted order give
        # every candidate's left-side counts in O(n * d * classes).
        one_hot = y[order][:, :, None] == np.arange(self._num_classes)
        left_counts = np.cumsum(one_hot, axis=0, dtype=np.int64)
        left = left_counts[positions, features]
        right = parent_counts - left
        n_left = positions + 1
        n_right = n - n_left
        gini_left = 1.0 - np.square(left / n_left[:, None]).sum(axis=1)
        gini_right = 1.0 - np.square(right / n_right[:, None]).sum(axis=1)
        gain = _gini(parent_counts) - (
            n_left * gini_left + n_right * gini_right
        ) / n

        best = int(np.argmax(gain))
        if not gain[best] > self.min_impurity_decrease:
            return None
        feature, b = int(features[best]), positions[best]
        threshold = (sorted_values[b, feature] + sorted_values[b + 1, feature]) / 2.0
        return feature, float(threshold)

    # ------------------------------------------------------------------ #

    def predict(self, features) -> np.ndarray:
        """Predict integer class labels for shape-(n, d) features."""
        if self._root is None:
            raise RuntimeError("predict called before fit")
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        # Route row-index sets down the tree: each internal node splits its
        # rows with the same ``<=`` test the per-row walk applies.
        out = np.empty(X.shape[0], dtype=np.int64)
        pending = [(self._root, np.arange(X.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if node.is_leaf:
                out[rows] = node.prediction
                continue
            go_left = X[rows, node.feature] <= node.threshold
            pending.append((node.left, rows[go_left]))
            pending.append((node.right, rows[~go_left]))
        return out

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a stump/leaf-only tree)."""
        if self._root is None:
            raise RuntimeError("depth called before fit")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def num_leaves(self) -> int:
        if self._root is None:
            raise RuntimeError("num_leaves called before fit")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self._root)
