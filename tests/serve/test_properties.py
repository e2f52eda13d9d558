"""Property suite: no work-group is lost or duplicated under concurrency.

Hypothesis drives two surfaces over the client-count x DoP grid:

* the scheduler itself — concurrent ``run_dynamic`` launches on every
  explicit (CPU threads, GPU fraction) configuration, each hammering its
  own :class:`AtomicWorklist` from many OS threads;
* the serving layer — concurrent clients through :class:`DopiaServer`,
  where the configuration is the predictor's (load-dependent) choice.

In both cases every launch must cover exactly its ND-range: the count
buffer ends at all-ones (a lost group leaves a 0, a duplicate leaves a 2)
and the schedule trace claims each group exactly once.
"""

import threading

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import run_dynamic
from repro.frontend import analyze_kernel, parse_kernel
from repro.interp import NDRange
from repro.serve import DopiaServer
from repro.sim import DopSetting, KAVERI
from repro.transform import make_malleable
from repro.workloads import SCALED_REAL_FACTORIES

COUNT_SRC = (
    "__kernel void count(__global float* C, int n)"
    "{ C[get_global_id(0)] += 1.0f; }"
)

INFO = analyze_kernel(parse_kernel(COUNT_SRC))
MALLEABLE = make_malleable(COUNT_SRC, work_dim=1)

#: the Table-3 axes the server can pick from (a representative sub-grid)
CPU_LEVELS = (0, 1, 2, 4)
GPU_FRACTIONS = (0.0, 0.125, 0.5, 1.0)


def run_one(n_items, wg, setting, backend):
    counts = np.zeros(n_items)
    ndrange = NDRange((n_items,), (wg,))
    trace = run_dynamic(INFO, MALLEABLE, {"C": counts, "n": n_items},
                        ndrange, setting, backend=backend)
    return counts, trace


@settings(max_examples=20, deadline=None)
@given(
    clients=st.integers(min_value=2, max_value=6),
    cpu_threads=st.sampled_from(CPU_LEVELS),
    gpu_fraction=st.sampled_from(GPU_FRACTIONS),
    groups=st.integers(min_value=1, max_value=40),
    wg=st.sampled_from([16, 64, 256]),
)
def test_concurrent_launches_cover_exactly(clients, cpu_threads,
                                           gpu_fraction, groups, wg):
    """Client-count x DoP grid: concurrent run_dynamic never loses work."""
    if cpu_threads == 0 and gpu_fraction == 0.0:
        gpu_fraction = 0.125  # (0, 0) is not a configuration (Table 3)
    setting = DopSetting(cpu_threads=cpu_threads, gpu_fraction=gpu_fraction)
    n_items = groups * wg
    results = [None] * clients
    errors = []
    barrier = threading.Barrier(clients)

    def launch(slot):
        try:
            barrier.wait()
            results[slot] = run_one(n_items, wg, setting, "jit")
        except BaseException as error:  # noqa: BLE001
            errors.append(error)
            barrier.abort()

    threads = [threading.Thread(target=launch, args=(slot,))
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]

    for counts, trace in results:
        assert np.array_equal(counts, np.ones(n_items))
        claimed = sorted(trace.cpu_groups + trace.gpu_groups)
        assert claimed == list(range(groups))


@settings(max_examples=10, deadline=None)
@given(
    clients=st.integers(min_value=1, max_value=5),
    launches=st.integers(min_value=1, max_value=4),
    names=st.lists(st.sampled_from(sorted(SCALED_REAL_FACTORIES)),
                   min_size=1, max_size=3, unique=True),
)
def test_server_never_loses_or_duplicates_work(trained_model, clients,
                                               launches, names):
    """Through the full serving path, whatever DoP the predictor picks."""
    expected = clients * launches * len(names)
    errors = []
    coverages = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def client_loop(client):
        try:
            session = server.session(f"prop-{client}")
            barrier.wait()
            handles = []
            for _ in range(launches):
                for name in names:
                    workload = SCALED_REAL_FACTORIES[name]()
                    handles.append((workload,
                                    session.launch(workload, rng_seed=client)))
            for workload, handle in handles:
                result = handle.result(timeout=120)
                with lock:
                    coverages.append((
                        sorted(result.trace.cpu_groups + result.trace.gpu_groups),
                        workload.num_work_groups,
                    ))
        except BaseException as error:  # noqa: BLE001
            with lock:
                errors.append(error)
            barrier.abort()

    with DopiaServer(KAVERI, trained_model, workers=clients,
                     backend="jit") as server:
        threads = [threading.Thread(target=client_loop, args=(client,))
                   for client in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    if errors:
        raise errors[0]
    assert len(coverages) == expected
    for claimed, num_groups in coverages:
        assert claimed == list(range(num_groups))
    with server.stats._lock:
        assert server.stats.completed == expected
        assert server.stats.submitted == expected
        assert server.stats.failed == 0
    assert server.ledger.in_flight == 0
