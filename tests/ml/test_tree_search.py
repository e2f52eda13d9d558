"""The rank-coded CART search grows exactly the reference float search's tree.

Hypothesis draws datasets with the shapes that stress exactness: tied
gains, duplicate and constant columns, 2-15 distinct values per column,
signed zeros, many distinct floats, magnitudes large enough to overflow
the gain arithmetic, leaf-size variants and per-node feature sampling
(``max_features`` with a ``random_state``).  Trees are compared field by
field as raw bytes, so a last-bit difference in a threshold, a leaf
value or a gain fails.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import RandomForestRegressor, make_model
from repro.ml import forest, tree
from repro.ml.tree import DecisionTreeRegressor

from .reference_tree import ReferenceTree, node_arrays


def _column(kind, n, columns, rng, k, scale):
    if kind == "duplicate" and columns:
        return columns[rng.integers(len(columns))].copy()
    if kind == "constant":
        return np.full(n, rng.normal() * scale)
    if kind == "few":
        pool = np.unique(np.round(np.clip(rng.normal(size=k), -4.0, 4.0) * 4.0)) * scale
        pool = np.concatenate([pool, [-0.0, 0.0]])  # signed zeros tie
        return rng.choice(pool, size=n)
    return np.clip(rng.normal(size=n), -16.0, 16.0) * scale


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 1e307: the midpoint of two values overflows to an infinite threshold
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e307]))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["constant", "duplicate", "few", "many"]))
        columns.append(_column(kind, n, columns, rng, draw(st.integers(2, 15)), scale))
    X = np.column_stack(columns)
    y_kind = draw(st.sampled_from(["ties", "floats", "huge"]))
    if y_kind == "ties":
        y = rng.integers(0, 3, size=n).astype(np.float64)
    elif y_kind == "floats":
        y = rng.normal(size=n)
    else:
        y = rng.normal(size=n) * 1e160  # squared prefix sums overflow
    return X, y


@st.composite
def hyperparameters(draw):
    return dict(
        max_depth=draw(st.integers(1, 16)),
        min_samples_leaf=draw(st.integers(1, 6)),
        min_samples_split=draw(st.integers(2, 12)),
        max_features=draw(st.one_of(st.none(), st.integers(1, 8))),
        random_state=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(datasets(), hyperparameters(),
       st.sampled_from([tree._BLOCK_ELEMENTS, 1, 7, 64]))
def test_rank_coded_tree_matches_reference(data, params, block_elements):
    X, y = data
    with np.errstate(all="ignore"):  # overflowing gains and empty children
        expected = node_arrays(ReferenceTree(**params).fit(X, y))
        # small blocks split one node's features over several 2-D searches
        with mock.patch.object(tree, "_BLOCK_ELEMENTS", block_elements):
            fitted = DecisionTreeRegressor(**params).fit(X, y)
    assert node_arrays(fitted) == expected


def test_block_boundary_inside_a_node():
    # 20k rows x 7 features: the default block holds 3 features per search
    rng = np.random.default_rng(5)
    X = rng.integers(0, 12, size=(20_000, 7)).astype(np.float64)
    y = X[:, 2] * X[:, 5] + rng.normal(size=20_000)
    params = dict(max_depth=6)
    assert (node_arrays(DecisionTreeRegressor(**params).fit(X, y))
            == node_arrays(ReferenceTree(**params).fit(X, y)))


def test_random_forest_is_deterministic_and_matches_reference():
    rng = np.random.default_rng(11)
    X = rng.integers(0, 6, size=(300, 5)).astype(np.float64)
    y = X[:, 0] - 2.0 * X[:, 3] + rng.normal(size=300)
    params = dict(n_estimators=5, random_state=7)
    first = RandomForestRegressor(**params).fit(X, y)
    second = RandomForestRegressor(**params).fit(X, y)
    with mock.patch.object(forest, "DecisionTreeRegressor", ReferenceTree):
        reference = RandomForestRegressor(**params).fit(X, y)
    for a, b, ref in zip(first.trees_, second.trees_, reference.trees_):
        assert node_arrays(a) == node_arrays(b) == node_arrays(ref)
    assert np.array_equal(first.predict(X), reference.predict(X))


@pytest.mark.parametrize("family", ["dt", "rf", "lin", "svr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_non_finite_inputs_are_refused(family, bad, where):
    X = np.arange(40.0).reshape(20, 2)
    y = np.arange(20.0)
    if where == "X":
        X[3, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(ValueError, match="finite"):
        make_model(family).fit(X, y)


@pytest.mark.slow
def test_table4_tree_matches_reference():
    from repro.core import collect_dataset
    from repro.sim import KAVERI
    from repro.workloads import training_workloads

    dataset = collect_dataset(training_workloads(), KAVERI)
    X, y = dataset.feature_matrix(), dataset.targets()
    fitted = DecisionTreeRegressor().fit(X, y)
    assert fitted.n_nodes == 17_759
    assert node_arrays(fitted) == node_arrays(ReferenceTree().fit(X, y))
