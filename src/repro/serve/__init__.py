"""Concurrent multi-client serving layer for the Dopia runtime.

The paper's Table-1 feature vector carries ``CPU_util``/``GPU_util``
precisely so the model can pick a degree of parallelism *online*, under
multiprogrammed co-execution.  This package is where those features come
alive: N client sessions submit kernel launches concurrently into an
admission queue, a device-load ledger records CPU-thread and GPU-PE
occupancy over simulated time, and every enqueue feeds the load at its
arrival into :class:`repro.core.predictor.DopPredictor` so the chosen DoP
adapts to contention.

Components
----------
:class:`~repro.serve.ledger.DeviceLoadLedger`
    Thread-safe occupancy accounting (leases over CPU threads / GPU PEs,
    each over an interval of the server's virtual clock).
:class:`~repro.serve.cache.PredictionCache`
    LRU over (feature vector, load bucket) keeping the hot path fast.
:class:`~repro.serve.server.DopiaServer`
    Admission queue + worker pool + client sessions.
:func:`~repro.serve.bench.run_serve_bench`
    The ``dopia serve-bench`` harness (throughput / latency percentiles).
:class:`~repro.serve.shard.ShardedServer`
    Multi-process scale-out: consistent-hash routing to worker shards
    over zero-copy shared-memory buffers (:mod:`repro.serve.shm`), with
    a cross-process prediction store (:mod:`repro.serve.predstore`).
"""

from .bench import (
    SHARDED_WINDOW,
    BenchReport,
    run_chained_serve_bench,
    run_serve_bench,
    run_sharded_serve_bench,
)
from .cache import PredictionCache
from .graph import (
    DependencyFailedError,
    GraphCycleError,
    GraphHandle,
    GraphScheduler,
    GraphTask,
    ServeError,
    TaskSpace,
)
from .ledger import DeviceLoadLedger, Lease, LoadSnapshot
from .predstore import PredictionStore, store_namespace
from .server import (
    ClientSession,
    DopiaServer,
    LaunchHandle,
    ServeResult,
    ServerStats,
)
from .shard import (
    BackpressureError,
    ConsistentHashRing,
    RouterStats,
    ShardClientSession,
    ShardCrashError,
    ShardResult,
    ShardedServer,
)
from .shm import SegmentCache, SharedArgs, ShmArena, attach_args

__all__ = [
    "BackpressureError",
    "BenchReport",
    "ClientSession",
    "ConsistentHashRing",
    "DependencyFailedError",
    "DeviceLoadLedger",
    "DopiaServer",
    "GraphCycleError",
    "GraphHandle",
    "GraphScheduler",
    "GraphTask",
    "LaunchHandle",
    "Lease",
    "LoadSnapshot",
    "PredictionCache",
    "PredictionStore",
    "SegmentCache",
    "ServeError",
    "ServeResult",
    "ServerStats",
    "SharedArgs",
    "ShardCrashError",
    "ShardResult",
    "ShardedServer",
    "ShmArena",
    "TaskSpace",
    "attach_args",
    "RouterStats",
    "SHARDED_WINDOW",
    "ShardClientSession",
    "run_chained_serve_bench",
    "run_serve_bench",
    "run_sharded_serve_bench",
    "store_namespace",
]
