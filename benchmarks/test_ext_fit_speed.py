"""Extension — fit-speed guard for the rank-coded CART search.

``DopiaRuntime.from_pretrained``, every server start and every online
refit fit the paper's DecisionTree on the Table-4 dataset (1,224
workloads x 44 configurations), so the fit is most of a runtime's set-up
time.  This bench fits that dataset with the rank-coded search of
:mod:`repro.ml.tree` and with the per-feature float search it replaced
(kept verbatim in ``tests/ml/reference_tree.py``) and asserts three
things: the two trees are identical, the rank-coded fit is at least 2x
faster, and its ``tracemalloc`` peak is no higher.

The speed check is a min-of-N ratio of two fits timed alternately in one
process, so it carries over between machines the way the
``BENCH_backend.json`` speedup ratios do.  Run with ``-s`` to see the
measured numbers.
"""

import gc
import time
import tracemalloc

import pytest

from repro.core import collect_dataset
from repro.core.collect import default_jobs
from repro.ml import DecisionTreeRegressor
from repro.sim import KAVERI
from repro.workloads import training_workloads

from conftest import print_table
from tests.ml.reference_tree import ReferenceTree, node_arrays

#: The rank-coded fit must beat the reference by at least this factor.
SPEEDUP_FLOOR = 2.0
#: min-of-N repetitions per search; the minimum is the least-noisy estimator.
REPEATS = 5


@pytest.fixture(scope="module")
def table4():
    dataset = collect_dataset(training_workloads(), KAVERI, cache=True,
                              jobs=default_jobs())
    return dataset.feature_matrix(), dataset.targets()


def _fit_s(cls, X, y) -> float:
    gc.collect()
    start = time.perf_counter()
    cls().fit(X, y)
    return time.perf_counter() - start


def _peak_bytes(cls, X, y) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        cls().fit(X, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table4_tree_equals_reference(table4):
    X, y = table4
    assert (node_arrays(DecisionTreeRegressor().fit(X, y))
            == node_arrays(ReferenceTree().fit(X, y)))


def test_fit_speedup_and_peak_memory(table4):
    X, y = table4
    fast, reference = [], []
    for _ in range(REPEATS):  # alternate, so both see the same host noise
        fast.append(_fit_s(DecisionTreeRegressor, X, y))
        reference.append(_fit_s(ReferenceTree, X, y))
    speedup = min(reference) / min(fast)
    peak = _peak_bytes(DecisionTreeRegressor, X, y)
    reference_peak = _peak_bytes(ReferenceTree, X, y)
    print_table("Table-4 DecisionTree fit", ["search", "min fit s", "peak MB"], [
        ["rank-coded", f"{min(fast):.3f}", f"{peak / 1e6:.1f}"],
        ["reference", f"{min(reference):.3f}", f"{reference_peak / 1e6:.1f}"],
    ])
    print(f"speedup {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR
    assert peak <= reference_peak
