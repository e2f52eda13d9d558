"""Reference CART split search: the per-feature float search the
rank-coded search in :mod:`repro.ml.tree` replaced, kept verbatim.

Every node re-sorts each feature's raw float values and scans the cuts
with prefix sums, and the recursion passes down copies of the node's
rows of ``X`` and ``y``.  The rank-coded tree must equal this one bit
for bit; the property suite and the fit-speed guard compare the two.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _LEAF, DecisionTreeRegressor, _Node


def _best_split(
    X: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[int, float, float] | None:
    """(feature, threshold, score) of the best variance-reducing split.

    Score is the reduction in the sum of squared deviations; ``None`` if no
    admissible split improves on the parent.
    """
    n, d = X.shape
    total_sum = y.sum()
    parent_sse = np.square(y).sum() - total_sum**2 / n
    best: tuple[int, float, float] | None = None
    best_score = 1e-12  # require strictly positive improvement
    for feature in range(d):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        # candidate split positions: between distinct consecutive values
        left_sum = np.cumsum(ys)[:-1]
        left_cnt = np.arange(1, n)
        right_sum = total_sum - left_sum
        right_cnt = n - left_cnt
        valid = (xs[1:] != xs[:-1])
        valid &= (left_cnt >= min_samples_leaf) & (right_cnt >= min_samples_leaf)
        if not valid.any():
            continue
        # children SSE via the identity SSE = sum(y^2) - (sum y)^2 / n;
        # the sum(y^2) terms cancel in the reduction, so score =
        # left^2/nl + right^2/nr - total^2/n
        gain = (
            left_sum**2 / left_cnt + right_sum**2 / right_cnt - total_sum**2 / n
        )
        gain[~valid] = -np.inf
        index = int(np.argmax(gain))
        if gain[index] > best_score:
            best_score = float(gain[index])
            threshold = 0.5 * (xs[index] + xs[index + 1])
            best = (feature, float(threshold), best_score)
    if best is None:
        return None
    del parent_sse  # parent term cancels; kept for readability of the math
    return best


class ReferenceTree(DecisionTreeRegressor):
    """``DecisionTreeRegressor`` grown by the reference search."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceTree":
        X, y = self._check_fit_inputs(X, y)
        self.nodes_ = []
        self._flat = None
        self._depth = None
        rng = np.random.default_rng(self.random_state)
        self._build(X, y, depth=0, rng=rng)
        self._flat = self._compile()
        self._depth = self._measure_depth()
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int, rng) -> int:
        index = len(self.nodes_)
        node = _Node(
            feature=_LEAF, threshold=0.0, left=-1, right=-1,
            value=float(y.mean()), n_samples=y.shape[0],
        )  # gain filled in if the node splits
        self.nodes_.append(node)
        if (
            depth >= self.max_depth
            or y.shape[0] < self.min_samples_split
            or np.ptp(y) == 0.0
        ):
            return index
        if self.max_features is not None and self.max_features < X.shape[1]:
            features = rng.choice(X.shape[1], size=self.max_features, replace=False)
            features.sort()
            split = _best_split(X[:, features], y, self.min_samples_leaf)
            if split is not None:
                split = (int(features[split[0]]), split[1], split[2])
        else:
            split = _best_split(X, y, self.min_samples_leaf)
        if split is None:
            return index
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        node.left = self._build(X[mask], y[mask], depth + 1, rng)
        node.right = self._build(X[~mask], y[~mask], depth + 1, rng)
        return index


def node_arrays(tree: DecisionTreeRegressor) -> tuple[bytes, ...]:
    """Raw bytes of every node field, for bit-exact tree comparison."""
    fields = ("feature", "threshold", "left", "right", "value", "n_samples", "gain")
    return tuple(
        np.array([getattr(node, name) for node in tree.nodes_]).tobytes()
        for name in fields
    )
