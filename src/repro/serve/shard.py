"""Sharded multi-process serving: router + worker shards + zero-copy buffers.

A single :class:`~repro.serve.server.DopiaServer` saturates around one
CPU's worth of admission/prediction/dispatch work because the GIL
serialises every Python step.  This module scales the serving layer
horizontally: a **router** (this process) consistent-hashes launches on
``(kernel source, kernel name)`` to a pool of **worker shards** — each a
forked process running a full in-process ``DopiaServer`` — while kernel
buffers live in :mod:`multiprocessing.shared_memory` segments
(:mod:`repro.serve.shm`) so the payload crossing the process boundary is
a tiny descriptor, never the data.

Routing and ordering
--------------------
* :class:`ConsistentHashRing` (virtual nodes) pins every distinct kernel
  to one shard, so per-kernel state — compiled malleable forms, jit
  programs, prediction cache lines — is built once and stays hot; shard
  loss moves only that shard's keys.
* The router runs its own :class:`~repro.serve.graph.GraphScheduler`
  over the *shared views* of every submitted launch.  Dependent launches
  whose pending predecessors were all dispatched to the **same shard**
  are forwarded immediately — the shard's in-process scheduler sees the
  same segments (its :class:`~repro.serve.shm.SegmentCache` maps each
  segment exactly once, so overlap is preserved) and orders them locally,
  pipelining worker-to-worker without a router round-trip.  Conflicts
  spanning **different shards** are *escalated*: the launch parks at the
  router and dispatches only after the completion of every predecessor
  has been observed — the scheduler event log is the ordering proof.
* Failure propagates exactly as in-process: a crashed launch (or a
  crashed *shard* — the router watches process sentinels) fails its
  handle, and output-dependents poison with
  :class:`~repro.serve.graph.DependencyFailedError`, never hang.

Buffers
-------
In functional mode every ndarray argument is *adopted* into the router's
:class:`~repro.serve.shm.ShmArena` keyed by its base allocation, so
aliasing NumPy views stay aliased inside the segment, repeat launches on
the same buffers are zero-copy, and hazard ranges are computed on the
views (stable across launches).  Written buffers are mirrored back into
the client's original arrays when their launch completes, preserving the
in-process server's mutate-in-place contract.  In benchmark mode
(``functional=False``) nothing executes, so only scalars cross the wire
— hazard matching still runs at the router on the client's arrays for
parity with the single-process benchmark.

Flow control
------------
Admission is tiered per shard on the in-flight count: below the soft
watermark launches flow; at the soft watermark submitters *block*
(backpressure) until the shard drains; at the hard watermark, with
``admission="shed"``, submission fails fast with
:class:`BackpressureError`.  Completion handling never blocks on
admission, so backpressure cannot deadlock the pipeline.

Warm start
----------
Each shard persists its prediction cache through
:class:`~repro.serve.predstore.PredictionStore` on shutdown and reloads
it on boot, so a freshly forked pool starts with the accumulated
(features, load-bucket) → DoP decisions instead of cold model inference.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from ..analysis.accessmodel import launch_rw_summary
from ..core.collect import WorkloadSpec
from ..ml.base import Estimator
from ..obs import tracer
from ..obs.tracer import export_env_trace
from ..sim.platforms import Platform
from ..workloads.registry import Workload
from .graph import (
    GraphHandle,
    GraphScheduler,
    GraphTask,
    ServeError,
    TaskSpace,
    buffer_ranges,
    topological_order,
)
from .ledger import LOAD_BUCKETS
from .predstore import PredictionStore, store_namespace
from .server import DopiaServer, LaunchHandle
from .shm import SegmentCache, SharedArgs, ShmArena, attach_args, sweep_orphans

__all__ = [
    "BackpressureError", "ConsistentHashRing", "RouterStats",
    "ShardClientSession", "ShardCrashError", "ShardResult", "ShardedServer",
    "workload_ring_key",
]


class ShardCrashError(ServeError):
    """A worker shard terminated while launches were in flight on it."""


class BackpressureError(ServeError):
    """Admission shed: the target shard's queue passed the hard watermark."""


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


def _ring_hash(value: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(value.encode(), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Virtual-node consistent hashing over integer shard ids.

    ``vnodes`` points per shard keep the key space balanced; adding or
    removing one shard remaps only the keys that land on its points
    (about ``1/n`` of the space), which the router relies on to survive
    shard loss without reshuffling every kernel's home.
    """

    def __init__(self, nodes: Iterable[int] = (), vnodes: int = 64):
        self.vnodes = vnodes
        self._points: list[tuple[int, int]] = []   #: sorted (hash, node)
        self._nodes: set[int] = set()
        for node in nodes:
            self.add(node)

    def add(self, node: int) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            self._points.append((_ring_hash(f"shard-{node}/{v}"), node))
        self._points.sort()

    def remove(self, node: int) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def lookup(self, key: str) -> Optional[int]:
        if not self._points:
            return None
        h = _ring_hash(key)
        at = bisect.bisect_right(self._points, (h, -1)) % len(self._points)
        return self._points[at][1]

    def __len__(self) -> int:
        return len(self._nodes)


def workload_ring_key(workload: Workload) -> str:
    """The routing key: a digest of ``(source, kernel name)``."""
    return hashlib.blake2b(
        workload.source.encode() + b"\0" + workload.kernel_name.encode(),
        digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# Worker-shard process
# ---------------------------------------------------------------------------


class _Stop(Exception):
    """Internal: the router asked this shard to stop."""


def _picklable_error(error: BaseException) -> BaseException:
    """The error itself if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 - any pickle failure means substitute
        return ServeError(f"{type(error).__name__}: {error}")


def _shard_main(index: int, in_recv, out_send, cfg: dict) -> None:
    """Entry point of one worker shard (runs in its own process).

    Protocol (batched lists over the in-pipe):

    ``("wl", wl_id, spec)``
        Register a workload; ``spec`` is a pickle-safe
        :class:`~repro.core.collect.WorkloadSpec`.
    ``("launch", req_id, wl_id, session, shared)``
        Serve one launch; ``shared`` is a pickled
        :class:`~repro.serve.shm.SharedArgs` whose views are attached
        through this process's :class:`~repro.serve.shm.SegmentCache`
        (decoded once per distinct blob — see ``attach_cache``).
    ``("forget", names)``
        Evict segment mappings the router retired.
    ``("stop",)``
        Drain and exit.  SIGTERM requests the same graceful retirement,
        with one addition: launch messages already written to the
        in-pipe are read and served first, so a terminated shard never
        strands a dispatched launch.

    Completions flow back over the out-pipe as batched ``("done", req_id,
    cache_hit, service_time_s)`` / ``("err", req_id, error)`` items, and
    a final ``("bye", index, report)`` carries the shard's statistics —
    cache/ledger/graph counters, the scheduler event log, and warm-start
    accounting — before a clean exit.
    """
    # SIGTERM sets a flag rather than raising: the main loop polls, so a
    # drain request interrupts an idle wait within one tick and a busy
    # batch is never abandoned halfway through.
    drain_flag = threading.Event()
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: drain_flag.set())
    segment_cache = SegmentCache(owner=False)
    server = DopiaServer(
        cfg["platform"], cfg["model"],
        workers=cfg["workers"], backend=cfg["backend"],
        functional=cfg["functional"], simulate=cfg["simulate"],
        load_aware=cfg["load_aware"], cache_size=cfg["cache_size"],
        load_buckets=cfg["load_buckets"], dwell_scale=cfg["dwell_scale"],
        dwell_cap_s=cfg["dwell_cap_s"],
    )
    store: Optional[PredictionStore] = None
    warm_loaded = 0
    if cfg.get("namespace"):
        store = PredictionStore(cfg["namespace"], root=cfg.get("store_root"))
        warm_loaded = store.load_into(server.cache)

    workloads: dict[int, Workload] = {}
    sessions: dict[str, Any] = {}
    # Launch messages carry a pickled SharedArgs blob; identical repeated
    # launches (a client's serving loop) send byte-identical blobs, so
    # the decoded + attached args dict is memoised on the blob itself —
    # views onto the same segments stay valid across launches.
    attach_cache: dict[bytes, dict] = {}
    # Completions are sent inline from the finishing worker thread: on a
    # single-core host a dedicated flusher thread costs a condition-
    # variable wake per completion, which dominates the pipe write it
    # would amortise.  Concurrent completions still coalesce: whoever
    # holds send_lock drains everything buffered meanwhile, and threads
    # that find their item already gone skip the syscall.
    out_buf: list = []
    buf_lock = threading.Lock()
    send_lock = threading.Lock()

    def on_done(req_id: int, handle: LaunchHandle) -> None:
        if handle._error is not None:
            item = ("err", req_id, _picklable_error(handle._error))
        else:
            result = handle._result
            item = ("done", req_id, result.cache_hit, result.service_time_s)
        with buf_lock:
            out_buf.append(item)
        with send_lock:
            with buf_lock:
                if not out_buf:
                    return           # a contending completion sent ours
                batch, out_buf[:] = list(out_buf), []
            try:
                out_send.send(batch)
            except (BrokenPipeError, OSError):
                pass

    launches = 0
    graceful = True
    try:
        while True:
            if not in_recv.poll(0.05):
                # a SIGTERM can cut the wait short with a launch already
                # in the pipe, so look again before retiring
                if drain_flag.is_set() and not in_recv.poll():
                    break                # idle and asked to retire
                continue
            batch = in_recv.recv()
            for msg in batch:
                kind = msg[0]
                if kind == "launch":
                    _, req_id, wl_id, session_name, blob = msg
                    session = sessions.get(session_name)
                    if session is None:
                        session = server.session(session_name)
                        sessions[session_name] = session
                    args = attach_cache.get(blob)
                    if args is None:
                        args = attach_args(pickle.loads(blob), segment_cache)
                        if len(attach_cache) >= 4096:
                            attach_cache.clear()
                        attach_cache[blob] = args
                    launches += 1
                    try:
                        handle = session.launch(workloads[wl_id], args)
                    except BaseException as error:  # noqa: BLE001
                        on_done(req_id, _failed_handle(error))
                    else:
                        handle.add_done_callback(
                            lambda h, rid=req_id: on_done(rid, h))
                elif kind == "wl":
                    workloads[msg[1]] = msg[2].to_workload()
                elif kind == "forget":
                    attach_cache.clear()
                    segment_cache.forget(msg[1])
                elif kind == "stop":
                    raise _Stop
            if drain_flag.is_set() and not in_recv.poll():
                break     # SIGTERM: everything sent before it is served
    except (_Stop, EOFError):
        pass
    except BaseException:  # noqa: BLE001 - report the crash via exit code
        graceful = False
        raise
    finally:
        # Repeat SIGTERMs during cleanup are requests we are already
        # honouring; ignore them rather than re-entering the handler.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        # Drain: parked graph launches dispatch and run, leases release,
        # every handle settles (close() fails any that cannot run), and
        # each settlement is sent inline via its done-callback.
        server.close()
        persisted = 0
        if store is not None and graceful:
            try:
                persisted = store.persist(server.cache)
            except OSError:
                pass
        if graceful:
            report = {
                "shard": index,
                "pid": os.getpid(),
                "launches": launches,
                "completed": server.stats.completed,
                "failed": server.stats.failed,
                "dep_failed": server.stats.dep_failed,
                "cache": server.cache.stats(),
                "warm_loaded": warm_loaded,
                "persisted": persisted,
                "ledger": {
                    "peak_cpu_util": server.ledger.peak_cpu_util,
                    "peak_gpu_util": server.ledger.peak_gpu_util,
                    "total_leases": server.ledger.total_leases,
                },
                "graph": server.graph.snapshot(),
                "events": list(server.graph.events),
                "segments_mapped": len(segment_cache),
            }
            with send_lock:
                try:
                    out_send.send([("bye", index, report)])
                except (BrokenPipeError, OSError):
                    pass
        segment_cache.close_all()
        export_env_trace(suffix=f"shard{index}")


def _failed_handle(error: BaseException) -> LaunchHandle:
    handle = LaunchHandle("?", -1)
    handle._fail(error)
    return handle


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """What the router hands back for one sharded launch.

    Buffers were mutated in shared memory and mirrored back into the
    caller's arrays before this result resolved, so — like the
    in-process :class:`~repro.serve.server.ServeResult` — the launch's
    outputs are visible the moment ``result()`` returns.
    """

    kernel: str
    session: str
    seq: int
    shard: int
    cache_hit: bool
    service_time_s: float
    latency_s: float
    graph_id: Optional[str] = None
    deps: int = 0


@dataclass
class _WorkloadEntry:
    """Router-side registration of one distinct (source, kernel)."""

    wl_id: int
    spec: WorkloadSpec
    ring_key: str
    shard: int
    read_names: tuple
    write_names: tuple
    registered: set = field(default_factory=set)


@dataclass
class _LaunchPlan:
    """Precomputed per-``(workload, args)`` launch state.

    Clients in a serving loop re-launch the same prepared argument dict
    hundreds of times; sharing/adoption, hazard byte-ranges, and the
    pickled wire descriptor are all functions of the *identical* array
    objects, so they are computed once and replayed.  ``values`` holds
    strong references to the argument values — validity is checked by
    object identity against them, which (unlike comparing ``id()``
    snapshots) cannot be fooled by a freed object's id being reused.
    """

    args: dict
    values: tuple
    blob: bytes          #: pre-pickled SharedArgs wire descriptor
    read_ranges: Any
    write_ranges: Any
    mirrors: tuple


@dataclass
class _RouterRequest:
    req_id: int
    handle: LaunchHandle
    node: Any
    entry: _WorkloadEntry
    session: str
    seq: int
    shared: bytes        #: pickled SharedArgs, ready for the wire
    mirrors: tuple
    submitted_at: float
    shard: Optional[int] = None
    #: claimed by a dispatcher (idempotency: submit thread vs collector)
    claimed: bool = False
    #: launch message written to its shard's pipe — set under the shard's
    #: lock, so ``dispatched`` on a dependency proves its message is
    #: ordered *before* any message written afterwards
    dispatched: bool = False


@dataclass
class _Shard:
    index: int
    proc: Any = None
    in_send: Any = None
    out_recv: Any = None
    cond: threading.Condition = field(default_factory=threading.Condition)
    inflight: int = 0
    stopping: bool = False
    alive: bool = True
    bye: bool = False
    report: Optional[dict] = None


@dataclass
class RouterStats:
    """Router-side aggregate counters (lock-protected)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    dep_failed: int = 0
    escalated: int = 0          #: cross-shard hazards parked at the router
    chained_same_shard: int = 0  #: dependents forwarded for shard-local order
    throttled: int = 0          #: submissions that blocked on backpressure
    shed: int = 0               #: submissions rejected at the hard watermark
    rerouted: int = 0           #: dispatches that left a dead shard's keys
    latencies_s: list = field(default_factory=list)
    max_latency_samples: int = 65536
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "dep_failed": self.dep_failed,
                "escalated": self.escalated,
                "chained_same_shard": self.chained_same_shard,
                "throttled": self.throttled,
                "shed": self.shed,
                "rerouted": self.rerouted,
            }


class ShardClientSession:
    """One client's handle on the sharded server (mirrors ``ClientSession``)."""

    def __init__(self, server: "ShardedServer", name: str):
        self.server = server
        self.name = name
        self._seq = itertools.count()

    def launch(
        self,
        workload: Workload,
        args: Optional[dict[str, Any]] = None,
        rng_seed: int = 0,
        *,
        after: Sequence[LaunchHandle] = (),
        reads: Optional[Iterable[str]] = None,
        writes: Optional[Iterable[str]] = None,
    ) -> LaunchHandle:
        if args is None:
            args = workload.full_args(rng_seed)
        return self.server._submit(self, workload, args, after=after,
                                   reads=reads, writes=writes)


class ShardedServer:
    """Multi-process sharded serving front-end (see module docstring).

    Parameters mirror :class:`~repro.serve.server.DopiaServer` where they
    share meaning; the sharding-specific ones:

    shards:
        Worker-process count.
    workers_per_shard:
        Thread-pool size inside each shard's ``DopiaServer``.
    queue_depth:
        Soft per-shard in-flight watermark — submitters block (tier:
        backpressure) at or above it; the hard watermark is twice this.
    admission:
        ``"block"`` (default) waits below the soft watermark;
        ``"shed"`` raises :class:`BackpressureError` at the hard one.
    warm_start:
        Load/persist the cross-process prediction store
        (:mod:`repro.serve.predstore`).
    store_root:
        Override the prediction-store directory (tests use tmp paths).
    """

    def __init__(
        self,
        platform: Platform,
        model: Estimator,
        *,
        shards: int = 4,
        workers_per_shard: int = 4,
        backend: str | None = None,
        functional: bool = True,
        simulate: bool = True,
        load_aware: bool = True,
        cache_size: int = 1024,
        load_buckets: int = LOAD_BUCKETS,
        dwell_scale: float = 0.0,
        dwell_cap_s: float = 0.050,
        queue_depth: int = 64,
        admission: str = "block",
        warm_start: bool = True,
        store_root: Optional[Path] = None,
        vnodes: int = 64,
        start_method: Optional[str] = None,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        if admission not in ("block", "shed"):
            raise ValueError("admission must be 'block' or 'shed'")
        self.platform = platform
        self.functional = functional
        self.queue_depth = queue_depth
        self.admission = admission
        self.stats = RouterStats()
        self.graph = GraphScheduler()
        self.arena = ShmArena()
        self._graph_ids = itertools.count()
        self._req_ids = itertools.count()
        self._wl_ids = itertools.count()
        self._reg_lock = threading.Lock()
        self._requests: dict[int, _RouterRequest] = {}
        self._by_node: dict[int, _RouterRequest] = {}
        self._entries: dict[tuple[str, str], _WorkloadEntry] = {}
        self._rw_cache: dict[tuple[str, str], tuple[tuple, tuple]] = {}
        #: base allocation (ptr, nbytes) -> (client base array, shm view).
        #: The client array is held strongly so its address can never be
        #: recycled for a different buffer while the entry lives — an
        #: address-keyed cache without that pin would hand back a stale
        #: view (and skip the copy-in) when the allocator reuses memory.
        self._adopted: dict[tuple[int, int],
                            tuple[np.ndarray, np.ndarray]] = {}
        self._adopt_lock = threading.Lock()
        #: (wl_id, id(args)) -> _LaunchPlan for repeated identical launches
        self._plans: dict[tuple[int, int], _LaunchPlan] = {}
        self._plan_lock = threading.Lock()
        self._session_lock = threading.Lock()
        self._session_names: set[str] = set()
        self._closed = False
        self._stop_collector = threading.Event()

        namespace = (store_namespace(platform, model) if warm_start else None)
        cfg = {
            "platform": platform, "model": model, "backend": backend,
            "functional": functional, "simulate": simulate,
            "load_aware": load_aware, "cache_size": cache_size,
            "load_buckets": load_buckets, "dwell_scale": dwell_scale,
            "dwell_cap_s": dwell_cap_s, "workers": workers_per_shard,
            "namespace": namespace,
            "store_root": str(store_root) if store_root else None,
        }
        method = start_method or os.environ.get("DOPIA_MP_START") or "fork"
        ctx = get_context(method)
        self.ring = ConsistentHashRing(range(shards), vnodes=vnodes)
        self._shards: list[_Shard] = []
        for index in range(shards):
            in_recv, in_send = ctx.Pipe(duplex=False)
            out_recv, out_send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_shard_main, args=(index, in_recv, out_send, cfg),
                name=f"dopia-shard-{index}", daemon=True)
            proc.start()
            in_recv.close()
            out_send.close()
            shard = _Shard(index=index, proc=proc, in_send=in_send,
                           out_recv=out_recv)
            self._shards.append(shard)
        self._collector = threading.Thread(
            target=self._collector_loop, name="shard-collect", daemon=True)
        self._collector.start()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, timeout: float = 60.0) -> None:
        """Drain, stop every shard, collect reports, release all segments."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._reg_lock:
                pending = len(self._requests)
            if pending == 0 and self.graph.drained:
                break
            time.sleep(0.005)
        else:
            self._abandon_pending()
        for shard in self._shards:
            with shard.cond:
                shard.stopping = True
                if shard.alive:
                    try:
                        shard.in_send.send([("stop",)])
                    except (BrokenPipeError, OSError):
                        pass
                shard.cond.notify_all()
        for shard in self._shards:
            if shard.proc is not None:
                shard.proc.join(max(0.1, deadline - time.monotonic()))
                if shard.proc.is_alive():
                    shard.proc.terminate()
                    shard.proc.join(5.0)
                if shard.proc.is_alive():
                    shard.proc.kill()
                    shard.proc.join(5.0)
        self._stop_collector.set()
        self._collector.join(timeout=10.0)
        # Late "bye" batches may still sit in the pipes (collector is
        # stopped now, so these reads race nothing).
        for shard in self._shards:
            try:
                while shard.out_recv.poll():
                    for item in shard.out_recv.recv():
                        self._handle_item(shard, item)
            except (EOFError, OSError):
                pass
            try:
                shard.out_recv.close()
                shard.in_send.close()
            except OSError:
                pass
        with self._adopt_lock:
            self._adopted.clear()
        with self._plan_lock:
            self._plans.clear()
        self.arena.close()
        sweep_orphans(self.arena.prefix)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted launch has settled."""
        deadline = (None if timeout is None else time.monotonic() + timeout)
        while True:
            with self._reg_lock:
                pending = len(self._requests)
            if pending == 0 and self.graph.drained:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.002)

    def _abandon_pending(self) -> None:
        """Close-drain timed out: fail everything still unsettled."""
        error = ServeError("sharded server closed before launch completed")
        with self._reg_lock:
            victims = list(self._requests.values())
        for request in victims:
            self._settle_request(request, error=error, cascade=True)

    # -- client surface ------------------------------------------------------

    def session(self, name: Optional[str] = None) -> ShardClientSession:
        with self._session_lock:
            if name is None:
                name = f"client-{len(self._session_names)}"
            if name in self._session_names:
                raise ValueError(f"session name {name!r} already in use")
            self._session_names.add(name)
        return ShardClientSession(self, name)

    def submit_graph(
        self,
        session: ShardClientSession,
        tasks: Union[TaskSpace, Iterable[GraphTask]],
        name: Optional[str] = None,
    ) -> GraphHandle:
        """Submit a whole named DAG (same contract as ``DopiaServer``)."""
        if isinstance(tasks, TaskSpace):
            if name is None:
                name = tasks.name
            task_list = tasks.tasks()
        else:
            task_list = list(tasks)
        order = topological_order(task_list)
        graph_id = f"{name or 'graph'}-{next(self._graph_ids)}"
        by_key: dict[Any, LaunchHandle] = {}
        for task in order:
            args = (task.args if task.args is not None
                    else task.workload.full_args(task.rng_seed))
            by_key[task.key] = self._submit(
                session, task.workload, args,
                after=tuple(by_key[dep] for dep in task.deps),
                graph_id=graph_id, key=task.key,
            )
        return GraphHandle(graph_id,
                           {task.key: by_key[task.key] for task in task_list})

    def submit_chain(self, session: ShardClientSession, chain) -> GraphHandle:
        tasks = [
            GraphTask(key=task.key, workload=task.workload, args=task.args,
                      deps=tuple(task.deps))
            for task in chain.tasks
        ]
        return self.submit_graph(session, tasks, name=chain.name)

    # -- workload registration / routing -------------------------------------

    def _workload_entry(self, workload: Workload) -> _WorkloadEntry:
        key = (workload.source, workload.kernel_name)
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        with self._reg_lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry
            ring_key = workload_ring_key(workload)
            shard = self.ring.lookup(ring_key)
            if shard is None:
                raise ShardCrashError("no live shards to route to")
            reads, writes = self._rw_names(workload)
            entry = _WorkloadEntry(
                wl_id=next(self._wl_ids),
                spec=WorkloadSpec.from_workload(workload),
                ring_key=ring_key, shard=shard,
                read_names=reads, write_names=writes,
            )
            self._entries[key] = entry
            return entry

    def _rw_names(self, workload: Workload) -> tuple[tuple, tuple]:
        key = (workload.source, workload.kernel_name)
        cached = self._rw_cache.get(key)
        if cached is None:
            try:
                summary = launch_rw_summary(workload.kernel_info())
                cached = (tuple(sorted(summary.reads)),
                          tuple(sorted(summary.writes)))
            except Exception:  # noqa: BLE001 - conservative: everything both
                cached = (None, None)
            self._rw_cache[key] = cached
        return cached

    def _route(self, entry: _WorkloadEntry) -> Optional[int]:
        shard = entry.shard
        if 0 <= shard < len(self._shards) and self._shards[shard].alive:
            return shard
        rerouted = self.ring.lookup(entry.ring_key)
        if rerouted is not None and rerouted != entry.shard:
            entry.shard = rerouted
            with self.stats._lock:
                self.stats.rerouted += 1
        return rerouted

    # -- buffer adoption (functional mode) ------------------------------------

    @staticmethod
    def _base_of(arr: np.ndarray) -> np.ndarray:
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        return base

    def _adopt(self, arr: np.ndarray) -> np.ndarray:
        """The stable shm view standing in for ``arr`` (aliasing preserved).

        Keyed by the *base allocation*, so two client views of one buffer
        map into the same segment region and stay aliased; the copy-in
        happens once, on first adoption — afterwards the view is the
        authoritative copy and repeat launches are zero-copy.
        """
        if self.arena.owns(arr):
            return arr                       # caller handed us a view already
        if not arr.flags["C_CONTIGUOUS"]:
            # Non-contiguous views can't be expressed as a byte range in a
            # segment; adopt a standalone copy (aliasing with siblings of
            # the same base is not preserved for these).
            base = arr
        else:
            base = self._base_of(arr)
            if not (isinstance(base, np.ndarray)
                    and base.flags["C_CONTIGUOUS"]):
                base = arr
        base_key = (base.__array_interface__["data"][0], int(base.nbytes))
        with self._adopt_lock:
            adopted = self._adopted.get(base_key)
            if adopted is None:
                base_view = self.arena.share_buffers({"b": base})["b"]
                self._adopted[base_key] = (base, base_view)
            else:
                base_view = adopted[1]
        if base is arr:
            return base_view
        delta = (arr.__array_interface__["data"][0] - base_key[0])
        flat = base_view.reshape(-1).view(np.uint8)
        return (flat[delta:delta + int(arr.nbytes)]
                .view(arr.dtype).reshape(arr.shape))

    def _share_args(self, args: dict[str, Any],
                    write_names: Optional[tuple]) -> tuple[
                        SharedArgs, dict[str, Any], list]:
        """(wire descriptor, hazard-matching args, mirror-back pairs)."""
        live: dict[str, Any] = {}
        wire_arrays = []
        scalars = []
        mirrors = []
        for name, value in args.items():
            if isinstance(value, np.ndarray):
                view = self._adopt(value)
                live[name] = view
                seg, offset = self.arena.locate(view)
                wire_arrays.append(
                    (name, seg, value.dtype.str, value.shape, offset))
                if view is not value and (
                        write_names is None or name in write_names):
                    mirrors.append((view, value))
            else:
                live[name] = value
                scalars.append((name, value))
        shared = SharedArgs(arrays=tuple(wire_arrays),
                            scalars=tuple(scalars))
        return shared, live, mirrors

    # -- submission -----------------------------------------------------------

    def _submit(self, session: ShardClientSession, workload: Workload,
                args: dict[str, Any], *,
                after: Sequence[LaunchHandle] = (),
                reads: Optional[Iterable[str]] = None,
                writes: Optional[Iterable[str]] = None,
                graph_id: Optional[str] = None,
                key: Any = None) -> LaunchHandle:
        if self._closed:
            raise ServeError("server is closed")
        entry = self._workload_entry(workload)
        seq = next(session._seq)
        handle = LaunchHandle(session.name, seq)
        handle._client = session
        plan = None
        plan_key = None
        if reads is None and writes is None:
            plan_key = (entry.wl_id, id(args))
            plan = self._plans.get(plan_key)
            if plan is not None and not (
                    plan.args is args
                    and len(plan.values) == len(args)
                    and all(cached is live for cached, live
                            in zip(plan.values, args.values()))):
                plan = None
        if plan is None:
            all_arrays = tuple(name for name, value in args.items()
                               if isinstance(value, np.ndarray))
            read_names = (tuple(reads) if reads is not None
                          else entry.read_names
                          if entry.read_names is not None else all_arrays)
            write_names = (tuple(writes) if writes is not None
                           else entry.write_names
                           if entry.write_names is not None else all_arrays)
            if self.functional:
                shared, hazard_args, mirrors = self._share_args(args,
                                                                write_names)
            else:
                shared = SharedArgs(
                    arrays=(),
                    scalars=tuple((name, value) for name, value in args.items()
                                  if not isinstance(value, np.ndarray)))
                hazard_args, mirrors = args, []
            plan = _LaunchPlan(
                args=args, values=tuple(args.values()),
                blob=pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL),
                read_ranges=buffer_ranges(hazard_args, read_names),
                write_ranges=buffer_ranges(hazard_args, write_names),
                mirrors=tuple(mirrors),
            )
            if plan_key is not None:
                with self._plan_lock:
                    if len(self._plans) >= 4096:
                        self._plans.clear()
                    self._plans[plan_key] = plan
        node = self.graph.make_node(
            f"{session.name}#{seq} {workload.kernel_name}",
            plan.read_ranges, plan.write_ranges,
            graph_id=graph_id, key=key,
        )
        handle.node = node
        request = _RouterRequest(
            req_id=next(self._req_ids), handle=handle, node=node, entry=entry,
            session=session.name, seq=seq, shared=plan.blob,
            mirrors=plan.mirrors, submitted_at=time.perf_counter(),
        )
        node.request = request
        with self._reg_lock:
            self._requests[request.req_id] = request
            self._by_node[node.id] = request
        with self.stats._lock:
            self.stats.submitted += 1
        if tracer.enabled:
            tracer.instant("shard.submit", "serve", session=session.name,
                           seq=seq, kernel=workload.kernel_name,
                           shard=entry.shard)
        explicit = [h.node for h in after if h.node is not None]
        state = self.graph.admit(node, explicit)
        if state == "ready":
            self._dispatch_or_shed(request)
        elif state == "waiting":
            target = entry.shard
            with self._reg_lock:
                deps = [self._by_node.get(dep_id)
                        for dep_id in list(node.pending)]
            if (self.functional
                    and all(dep is not None and dep.dispatched
                            and dep.shard == target for dep in deps)
                    and 0 <= target < len(self._shards)
                    and self._shards[target].alive):
                # Same-shard chain: forward now; the shard's own scheduler
                # sees the same segments and orders the conflict locally.
                with self.stats._lock:
                    self.stats.chained_same_shard += 1
                self._dispatch_or_shed(request)
            else:
                # Cross-shard (or benchmark-mode) hazard: park here until
                # every predecessor's completion is observed.
                with self.stats._lock:
                    self.stats.escalated += 1
                if tracer.enabled:
                    tracer.instant("shard.escalate", "serve",
                                   session=session.name, seq=seq,
                                   kernel=workload.kernel_name,
                                   deps=node.deps)
        else:  # poisoned at admission
            self._settle_request(request, error=node.error, cascade=False)
        return handle

    # -- dispatch -------------------------------------------------------------

    def _dispatch_or_shed(self, request: _RouterRequest) -> None:
        """Dispatch from a submitting client, honouring admission tiers.

        A shed (hard-watermark :class:`BackpressureError`) must not leave
        the admitted node live in the graph with an unsettled handle — it
        is failed and cascaded before the error propagates to the caller.
        """
        try:
            self._dispatch(request, wait=True)
        except BackpressureError as error:
            self._settle_request(request, error=error, cascade=True)
            raise

    def _dispatch(self, request: _RouterRequest, wait: bool) -> None:
        # Claim-once: the submitting thread (same-shard chaining) and the
        # collector (releasing a node whose last dependency just settled)
        # can race to dispatch the same request; the second caller no-ops.
        with self._reg_lock:
            if request.claimed:
                return
            request.claimed = True
        entry = request.entry
        while True:
            target = self._route(entry)
            if target is None:
                self._settle_request(
                    request,
                    error=ShardCrashError("no live shards to route to"),
                    cascade=True)
                return
            shard = self._shards[target]
            if wait and not self._admit_shard(shard):
                continue                    # shard died while we waited
            with shard.cond:
                if not shard.alive:
                    continue
                # Sent inline under the shard lock: a dedicated sender
                # thread costs a wake per launch, and holding the lock
                # across the pipe write is what makes ``dispatched`` on a
                # dependency prove its message precedes ours in the pipe.
                msgs: list = []
                if target not in entry.registered:
                    entry.registered.add(target)
                    msgs.append(("wl", entry.wl_id, entry.spec))
                msgs.append(("launch", request.req_id, entry.wl_id,
                             request.session, request.shared))
                # Assign before the send: the completion can race back
                # through the collector while this thread is still inside
                # ``send``, and it must find ``request.shard`` set (the
                # lock is held across the send, so any later sender still
                # orders its message after this one).
                shard.inflight += 1
                request.shard = target
                request.dispatched = True
                try:
                    shard.in_send.send(msgs)
                except (BrokenPipeError, OSError):
                    pass        # death handling is the collector's job
                # Still under the lock: the collector takes it again in
                # ``_shard_done`` before logging the completion, so the
                # node's ``start`` event always precedes its ``done``.
                self.graph.note_start(request.node)
            return

    def _admit_shard(self, shard: _Shard) -> bool:
        """Admission tiers; returns False if the shard died while blocked."""
        soft = self.queue_depth
        hard = soft * 2
        with shard.cond:
            if shard.inflight < soft:
                return shard.alive
            if self.admission == "shed" and shard.inflight >= hard:
                with self.stats._lock:
                    self.stats.shed += 1
                raise BackpressureError(
                    f"shard {shard.index} saturated "
                    f"({shard.inflight} in flight >= {hard})")
            with self.stats._lock:
                self.stats.throttled += 1
            while shard.alive and shard.inflight >= soft:
                shard.cond.wait(timeout=0.5)
            return shard.alive

    # -- completion -----------------------------------------------------------

    def _collector_loop(self) -> None:
        by_sentinel = {shard.proc.sentinel: shard for shard in self._shards}
        while not self._stop_collector.is_set():
            waitables: list = []
            for shard in self._shards:
                if shard.alive:
                    waitables.append(shard.out_recv)
                    waitables.append(shard.proc.sentinel)
            if not waitables:
                return
            for obj in connection.wait(waitables, timeout=0.25):
                shard = by_sentinel.get(obj)
                if shard is not None:        # a process exited
                    self._on_shard_exit(shard)
                    continue
                shard = next(s for s in self._shards if s.out_recv is obj)
                try:
                    while obj.poll():
                        for item in obj.recv():
                            self._handle_item(shard, item)
                except (EOFError, OSError):
                    self._on_shard_exit(shard)

    def _handle_item(self, shard: _Shard, item: tuple) -> None:
        kind = item[0]
        if kind == "done":
            self._settle_done(item[1], cache_hit=item[2],
                              service_time_s=item[3])
        elif kind == "err":
            self._settle_err(item[1], item[2])
        elif kind == "bye":
            shard.bye = True
            shard.report = item[2]

    def _shard_done(self, request: _RouterRequest) -> None:
        if request.shard is None:
            return
        shard = self._shards[request.shard]
        with shard.cond:
            shard.inflight = max(0, shard.inflight - 1)
            shard.cond.notify_all()

    def _pop_request(self, req_id: int) -> Optional[_RouterRequest]:
        with self._reg_lock:
            request = self._requests.pop(req_id, None)
            if request is not None:
                self._by_node.pop(request.node.id, None)
            return request

    def _settle_done(self, req_id: int, *, cache_hit: bool,
                     service_time_s: float) -> None:
        request = self._pop_request(req_id)
        if request is None:
            return
        self._shard_done(request)
        for view, client in request.mirrors:
            np.copyto(client, view)
        for ready in self.graph.complete(request.node):
            follower = ready.request
            if follower is not None and not follower.claimed:
                self._dispatch(follower, wait=False)
        latency = time.perf_counter() - request.submitted_at
        result = ShardResult(
            kernel=request.entry.spec.kernel_name,
            session=request.session, seq=request.seq,
            shard=request.shard if request.shard is not None else -1,
            cache_hit=cache_hit, service_time_s=service_time_s,
            latency_s=latency, graph_id=request.node.graph_id,
            deps=request.node.deps,
        )
        with self.stats._lock:
            self.stats.completed += 1
            if len(self.stats.latencies_s) >= self.stats.max_latency_samples:
                self.stats.latencies_s.pop(0)
            self.stats.latencies_s.append(latency)
        request.handle._resolve(result)

    def _settle_err(self, req_id: int, error: BaseException) -> None:
        request = self._pop_request(req_id)
        if request is None:
            return
        self._shard_done(request)
        self._settle_request(request, error=error, cascade=True,
                             popped=True)

    def _settle_request(self, request: _RouterRequest, *,
                        error: BaseException, cascade: bool,
                        popped: bool = False) -> None:
        """Fail one request, optionally cascading through the graph.

        Dispatched dependents are left to their shard's own error path
        (it observed the same hazard and will send its own ``err``);
        router-parked dependents poison here and never run.
        """
        if not popped:
            self._pop_request(request.req_id)
        with self.stats._lock:
            self.stats.failed += 1
            if request.node.state == "poisoned":
                self.stats.dep_failed += 1
        if cascade and request.node.state not in ("failed", "poisoned"):
            ready, poisoned = self.graph.fail(request.node, error)
            for runnable in ready:
                follower = runnable.request
                if follower is not None and not follower.claimed:
                    self._dispatch(follower, wait=False)
            for victim in poisoned:
                victim_req = victim.request
                if victim_req is None or victim_req.claimed:
                    continue      # its shard outcome settles it (done or err)
                self._pop_request(victim_req.req_id)
                with self.stats._lock:
                    self.stats.failed += 1
                    self.stats.dep_failed += 1
                victim_req.handle._fail(victim.error)
        request.handle._fail(error)

    # -- shard death ----------------------------------------------------------

    def _on_shard_exit(self, shard: _Shard) -> None:
        if not shard.alive:
            return
        # Drain any final batches (including "bye") before deciding.
        try:
            while shard.out_recv.poll():
                for item in shard.out_recv.recv():
                    self._handle_item(shard, item)
        except (EOFError, OSError):
            pass
        with shard.cond:
            shard.alive = False
            shard.cond.notify_all()          # release blocked submitters
        self.ring.remove(shard.index)
        if shard.bye:
            # Graceful retirement: the shard drained everything it read.
            # A launch can still be stranded if it was written to the
            # pipe after the shard's last read — fail those too (the
            # victims list below is empty in the common clean case).
            error = ShardCrashError(
                f"shard {shard.index} retired with the launch in flight")
        else:
            error = ShardCrashError(
                f"shard {shard.index} terminated unexpectedly "
                f"(exitcode {shard.proc.exitcode})")
        with self._reg_lock:
            victims = [request for request in self._requests.values()
                       if request.shard == shard.index]
        for request in victims:
            with self._reg_lock:
                if request.req_id not in self._requests:
                    continue                 # settled by an earlier cascade
            self._settle_request(request, error=error, cascade=True)

    # -- reporting ------------------------------------------------------------

    @property
    def shard_reports(self) -> list[dict]:
        """Per-shard "bye" reports (populated as shards retire/close)."""
        return [shard.report for shard in self._shards
                if shard.report is not None]

    def snapshot(self) -> dict:
        """Router counters + graph snapshot (the bench report's block)."""
        return {
            "router": self.stats.snapshot(),
            "graph": self.graph.snapshot(),
            "shards": [
                {
                    "index": shard.index,
                    "alive": shard.alive,
                    "inflight": shard.inflight,
                }
                for shard in self._shards
            ],
            "segments": len(self.arena),
        }
