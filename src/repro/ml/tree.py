"""CART regression tree (the paper's deployed DT model, §5.2).

A from-scratch, NumPy-vectorised implementation of the classic CART
construction: a node splits at the threshold that most reduces the sum of
squared deviations, found per feature by sorting the node's rows and
scanning every cut position with prefix sums.

The search is rank-coded.  Each feature is coded once per fit as the rank
of its value among the feature's distinct values (``np.unique``'s
inverse, a small unsigned int), and the recursion passes down only row
indices.  A node stable-argsorts the codes of a block of features in one
2-D call (radix sort for small ints), scans all their prefix sums at once
and reads thresholds from each feature's table of distinct values; blocks
hold about 64k elements, so a large node searches one feature at a time.
The tree equals the one a per-feature float search grows, bit for bit:

* a stable sort by rank code orders the rows exactly as a stable sort by
  value does, and two rows have equal codes exactly when their values
  are equal, so the sorted targets and the admissible cuts are the same;
* ``np.cumsum`` accumulates sequentially along each row of a 2-D block,
  so every prefix sum, and hence every gain, comes out the same;
* a node's total is a 1-D sum over its targets in original row order
  (the order boolean masks keep), because NumPy's pairwise summation
  depends on length and layout, and its mean is that total over the row
  count, which is how ``ndarray.mean`` computes it;
* the partition applies the old rule ``x <= threshold`` to the raw values.

Trees are stored in flat arrays so prediction is an iterative,
allocation-free descent — which is also what makes the generated-C
deployment of :mod:`repro.ml.treecodegen` straightforward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import C_OP_SECONDS, Estimator

_LEAF = -1

#: Elements per split-search temporary: a node searches as many features
#: at once as keep ``features x rows`` near this size.
_BLOCK_ELEMENTS = 1 << 16


@dataclass
class _Node:
    feature: int          #: split feature, or -1 for leaves
    threshold: float      #: go left if x[feature] <= threshold
    left: int             #: child indices into the node array
    right: int
    value: float          #: mean target (prediction at leaves)
    n_samples: int
    gain: float = 0.0     #: variance reduction achieved by this split


def _rank_code(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Feature-major rank codes of ``X`` and each feature's distinct values.

    ``codes[f, i]`` is the position of ``X[i, f]`` in ``values[f]``, the
    sorted distinct values of feature ``f``; all features share the
    smallest unsigned dtype that holds every code.
    """
    values, codes = [], []
    for column in X.T:
        distinct, inverse = np.unique(column, return_inverse=True)
        values.append(distinct)
        codes.append(inverse)
    dtype = np.min_scalar_type(max((len(v) for v in values), default=1) - 1)
    return np.array(codes, dtype=dtype), values


def _best_split(
    codes: np.ndarray,
    values: list[np.ndarray],
    rows: np.ndarray,
    y_node: np.ndarray,
    total_sum: np.float64,
    features: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """(feature, threshold, score) of the best variance-reducing split.

    The node holds ``rows`` (ascending) with targets ``y_node = y[rows]``
    summing to ``total_sum``; only ``features`` (ascending) are searched.
    Score is the reduction in the sum of squared deviations; ``None`` if
    no admissible split improves on the parent.
    """
    n = rows.shape[0]
    # cut position i puts the first i + 1 sorted rows left; both sides
    # must keep min_samples_leaf rows
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    left_cnt = np.arange(lo + 1, hi + 1)
    right_cnt = n - left_cnt
    # children SSE via the identity SSE = sum(y^2) - (sum y)^2 / n; the
    # sum(y^2) terms cancel in the reduction, so score =
    # left^2/nl + right^2/nr - total^2/n
    parent_term = total_sum**2 / n
    best: tuple[int, float, float] | None = None
    best_score = 1e-12  # require strictly positive improvement
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, features.shape[0], step):
        block = features[start:start + step]
        first, last = int(block[0]), int(block[-1])
        if last - first + 1 == block.shape[0]:  # a run of features: cheap take
            node_codes = codes[first:last + 1].take(rows, axis=1)
        else:
            node_codes = codes[block[:, None], rows]
        order = node_codes.argsort(axis=1, kind="stable")
        left_sum = y_node[order].cumsum(axis=1)[:, lo:hi]
        right_sum = total_sum - left_sum
        gain = left_sum**2 / left_cnt + right_sum**2 / right_cnt - parent_term
        # candidate cuts lie between distinct consecutive values
        node_codes.sort(axis=1)  # in place, now that the order is taken
        gain[node_codes[:, lo + 1:hi + 1] == node_codes[:, lo:hi]] = -np.inf
        for j, score in enumerate(gain.max(axis=1).tolist()):
            if score > best_score:
                best_score = score
                feature = int(block[j])
                cut = int(gain[j].argmax()) + lo
                below, above = values[feature][node_codes[j, cut:cut + 2]]
                best = (feature, float(0.5 * (below + above)), best_score)
    return best


class DecisionTreeRegressor(Estimator):
    """CART regression tree with depth / leaf-size regularisation."""

    name = "dt"

    def __init__(
        self,
        max_depth: int = 16,
        min_samples_leaf: int = 4,
        min_samples_split: int = 8,
        max_features: int | None = None,
        random_state: int | None = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self.max_features = max_features
        self.random_state = random_state
        self.nodes_: list[_Node] = []

    # -- training ------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = self._check_fit_inputs(X, y)
        self.nodes_ = []
        self._flat = None
        self._depth = None
        rng = np.random.default_rng(self.random_state)
        codes, values = _rank_code(X)
        self._grow(X, y, codes, values, np.arange(X.shape[0]), depth=0, rng=rng)
        self._flat = self._compile()
        self._depth = self._measure_depth()
        return self

    def _compile(self) -> tuple[np.ndarray, ...]:
        """Flatten the node list into read-only arrays for descent.

        Compiled once per ``fit``: rebuilding these on every ``predict``
        dominated the serving layer's prediction latency.  The arrays are
        immutable after compilation, which is also what makes concurrent
        ``predict`` calls from many threads safe — prediction only reads.
        """
        arrays = (
            np.array([n.feature for n in self.nodes_]),
            np.array([n.threshold for n in self.nodes_]),
            np.array([n.left for n in self.nodes_]),
            np.array([n.right for n in self.nodes_]),
            np.array([n.value for n in self.nodes_]),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        codes: np.ndarray,
        values: list[np.ndarray],
        rows: np.ndarray,
        depth: int,
        rng,
    ) -> int:
        index = len(self.nodes_)
        y_node = y[rows]
        total_sum = y_node.sum()
        node = _Node(
            feature=_LEAF, threshold=0.0, left=-1, right=-1,
            value=float(total_sum / rows.shape[0]), n_samples=rows.shape[0],
        )  # gain filled in if the node splits; the value is y_node.mean()
        self.nodes_.append(node)
        if (
            depth >= self.max_depth
            or rows.shape[0] < self.min_samples_split
            or np.ptp(y_node) == 0.0
        ):
            return index
        n_features = codes.shape[0]
        if self.max_features is not None and self.max_features < n_features:
            features = rng.choice(n_features, size=self.max_features, replace=False)
            features.sort()
        else:
            features = np.arange(n_features)
        split = _best_split(
            codes, values, rows, y_node, total_sum, features,
            self.min_samples_leaf,
        )
        if split is None:
            return index
        del y_node
        feature, threshold, gain = split
        mask = X[rows, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        node.left = self._grow(X, y, codes, values, rows[mask], depth + 1, rng)
        node.right = self._grow(X, y, codes, values, rows[~mask], depth + 1, rng)
        return index

    # -- prediction ------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.nodes_:
            raise RuntimeError("predict() before fit()")
        X = self._check_predict_inputs(X)
        # vectorised level-wise descent: all rows walk the tree together
        positions = np.zeros(X.shape[0], dtype=np.int64)
        flat = getattr(self, "_flat", None)
        if flat is None:
            # models fitted (or unpickled) before array caching existed
            flat = self._flat = self._compile()
        features, thresholds, lefts, rights, values = flat
        active = features[positions] != _LEAF
        while active.any():
            idx = positions[active]
            go_left = (
                X[active, features[idx]] <= thresholds[idx]
            )
            positions[active] = np.where(go_left, lefts[idx], rights[idx])
            active = features[positions] != _LEAF
        return values[positions]

    # -- introspection ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes_)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (measured once per fit)."""
        cached = getattr(self, "_depth", None)
        if cached is None:
            cached = self._depth = self._measure_depth()
        return cached

    def _measure_depth(self) -> int:
        if not self.nodes_:
            return 0
        depths = {0: 0}
        best = 0
        for index, node in enumerate(self.nodes_):
            if node.feature != _LEAF:
                depths[node.left] = depths[index] + 1
                depths[node.right] = depths[index] + 1
                best = max(best, depths[index] + 1)
        return best

    def feature_importances(self, n_features: int | None = None) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum to 1.

        The weight of a feature is the total variance reduction achieved
        by all splits on it — the standard CART importance.  Useful for
        inspecting *what drives* the DoP selection (the Table-1 features'
        relevance).
        """
        if not self.nodes_:
            raise RuntimeError("feature_importances() before fit()")
        if n_features is None:
            n_features = max(
                (n.feature for n in self.nodes_ if n.feature != _LEAF), default=-1
            ) + 1
        out = np.zeros(max(n_features, 1))
        for node in self.nodes_:
            if node.feature != _LEAF:
                out[node.feature] += node.gain
        total = out.sum()
        return out / total if total > 0 else out

    def inference_cost_s(self, n_rows: int) -> float:
        if not self.nodes_:
            raise RuntimeError("inference_cost_s() before fit()")
        # one compare-and-branch per level of generated C
        return n_rows * max(self.depth, 1) * 2 * C_OP_SECONDS
