"""The serving layer: admission queue, worker pool, client sessions.

``DopiaServer`` turns the single-client :class:`repro.core.DopiaRuntime`
launch path into a concurrent service.  N client sessions submit launches
into one admission queue; a pool of worker threads drains it.

Occupancy is kept on a server-wide **virtual clock** of simulated
seconds, so the load a launch sees is the modelled machine's and does not
depend on how fast the host executes.  Every session has a clock: it
opens at the latest lease end the ledger has recorded and advances to the
end of each of its launches' leases.  A launch *arrives* at the later of
its session's clock at submit and the lease end of every launch it waited
on (graph edges and hazards).  The server's *floor*, the least clock
among open sessions and live (queued, parked or in-flight) launches, only
rises; no future arrival falls below it, so leases ending by it are
dropped.  Should the ledger still outgrow its bound, the idle session
furthest behind stops holding the floor down and rejoins at the floor
when it next submits.  For every launch a worker

1. snapshots the :class:`~repro.serve.ledger.DeviceLoadLedger` at the
   arrival instant and feeds the (bucketed) ``CPU_util``/``GPU_util``
   into :meth:`DopPredictor.select <repro.core.predictor.DopPredictor.select>`
   — through the LRU :class:`~repro.serve.cache.PredictionCache` — so the
   chosen DoP adapts to contention;
2. simulates the chosen configuration on the performance model (through
   the simulation cache), charging a contention slowdown
   (:mod:`repro.sim.contention`) for capacity the launch shares with the
   load it saw; the result is the launch's modelled service time;
3. records a lease for the configuration over ``[arrival, arrival +
   service time)`` on the virtual clock;
4. executes the launch functionally (Algorithm 1 via
   :func:`repro.core.scheduler.run_dynamic`, mutating the client's real
   buffers);
5. releases the lease (its interval stays recorded until it ends by the
   floor) and resolves the client's
   :class:`LaunchHandle`.

Launches are not assumed independent: every submission is hazard-matched
against in-flight launches by the :class:`~repro.serve.graph.GraphScheduler`
(RAW/WAR/WAW on overlapping buffers, read/write sets from
:func:`repro.analysis.accessmodel.launch_rw_summary` or declared
intents).  Conflicting launches park until their predecessors complete —
workers never see a request whose inputs are still being written — and
independent ones flow straight to the pool.  ``LaunchHandle.then`` chains
a dependent launch without a client-side wait; ``submit_graph`` /
:class:`~repro.serve.graph.TaskSpace` submit whole named DAGs with cycle
rejection and a per-graph future.  Parked launches hold no ledger lease
and make no prediction, so the DoP predictor only ever sees the
executable *frontier* of the graph.

Locking discipline: every shared structure (ledger, cache, stats, kernel
preparation, graph) has its own short lock; **no lock is held across
kernel execution or model inference**, so independent launches proceed in
parallel.  Per-session identity — and the graph id, for graph members —
flows into the tracer via
:meth:`Tracer.context <repro.obs.tracer.Tracer.context>` so exported
spans reconstruct each client's timeline.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

from ..analysis.accessmodel import launch_rw_summary
from ..analysis.features import StaticFeatures, extract_static_features
from ..analysis.profile import profile_kernel
from ..core.predictor import DopPredictor, Prediction
from ..core.scheduler import ScheduleTrace, run_dynamic
from ..ml.base import Estimator

if TYPE_CHECKING:  # the online package imports serve.predstore — lazy below
    from ..ml.online import ObservationStore, OnlineConfig, OnlineLoop
from ..obs import tracer
from ..obs.tracer import NULL_SPAN
from ..sim.contention import config_slowdown
from ..sim.engine import ExecutionResult, simulate_execution
from ..sim.platforms import Platform
from ..transform.gpu_malleable import (
    MalleableKernel,
    TransformError,
    make_malleable,
    throttle_settings,
)
from ..workloads.registry import Workload
from .cache import PredictionCache
from .graph import (
    DependencyFailedError,
    GraphCycleError,
    GraphHandle,
    GraphScheduler,
    GraphTask,
    ServeError,
    TaskNode,
    TaskSpace,
    buffer_ranges,
    topological_order,
)
from .ledger import LOAD_BUCKETS, DeviceLoadLedger, Lease, LoadSnapshot

__all__ = [
    "ClientSession", "DependencyFailedError", "DopiaServer", "GraphCycleError",
    "GraphHandle", "GraphTask", "LaunchHandle", "ServeError", "ServeResult",
    "ServerStats", "TaskSpace",
]


@dataclass
class _PreparedKernel:
    """Per-(source, kernel) compile-time products, shared across launches."""

    workload_key: str
    info: Any
    static: StaticFeatures
    #: ``static.as_tuple()``, precomputed — it keys every prediction-cache
    #: lookup on the hot path
    static_tuple: tuple = ()
    malleable: dict[int, MalleableKernel] = field(default_factory=dict)
    #: access-model (reads, writes) name tuples, resolved lazily on first
    #: hazard-matched submission (None until then; a pair of tuples after)
    rw_names: Optional[tuple] = None


@dataclass
class _LaunchMeta:
    """Launch invariants of one (workload, args) launch.

    A serving client re-launches the same workload instance hundreds of
    times; the prepared kernel, launch geometry and prediction-cache key
    prefix are functions of the workload alone and are memoised per
    workload (see :meth:`DopiaServer._launch_meta`), while the
    simulator's scalar signature is read from ``args`` at every launch.
    """

    workload: Workload
    prepared: _PreparedKernel
    ndrange: Any
    #: (static_tuple, work_dim, total_items, items_per_group) — the
    #: load-independent prefix of the prediction-cache key
    pred_key: tuple
    scalars: dict
    scalars_key: tuple


@dataclass
class ServeResult:
    """What one served launch produced."""

    kernel: str
    session: str
    seq: int
    prediction: Prediction
    load: LoadSnapshot            #: ledger occupancy at the virtual arrival
    cache_hit: bool
    trace: Optional[ScheduleTrace]   #: functional schedule (None if sim-only)
    sim: Optional[ExecutionResult]
    #: modelled service time: simulated execution x contention slowdown
    #: + model-inference overhead (seconds)
    service_time_s: float
    #: measured wall-clock from submit to completion (seconds)
    latency_s: float
    args: dict[str, Any]
    #: graph this launch belonged to (``submit_graph``), if any
    graph_id: Optional[str] = None
    #: dependency edges (implicit hazards + explicit) it was admitted with
    deps: int = 0


class LaunchHandle:
    """Future-style handle for one submitted launch.

    ``then`` submits a follow-up launch explicitly ordered after this
    one *without waiting for it* — the whole chain sits in the server's
    graph and pipelines worker-to-worker with no client round-trips.
    """

    #: guards lazy construction of the per-handle wait event; shared by
    #: every handle (critical sections are a few instructions, and the
    #: alternative — an Event per handle up front — costs ~10us on the
    #: submit hot path that most handles never use)
    _wait_lock = threading.Lock()

    def __init__(self, session: str, seq: int):
        self.session = session
        self.seq = seq
        self.node: Optional[TaskNode] = None
        self._client: Optional["ClientSession"] = None
        self._settled = False
        self._event: Optional[threading.Event] = None
        self._result: Optional[ServeResult] = None
        self._error: Optional[BaseException] = None
        self._callbacks: list = []

    def done(self) -> bool:
        return self._settled

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` once the handle settles (now, if it already has).

        Each callback fires exactly once, on whichever thread settles the
        handle (or the caller's, if already settled); exceptions are
        swallowed so a bad callback cannot take down a worker.  The
        sharded router uses this to pipeline completion notifications
        without a blocking ``result()`` per launch.
        """
        self._callbacks.append(fn)
        if self._settled:
            self._run_callbacks()

    def _run_callbacks(self) -> None:
        while self._callbacks:
            try:
                fn = self._callbacks.pop()
            except IndexError:  # lost the race to another settler
                break
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - callbacks must not kill workers
                pass

    def then(
        self,
        workload: Workload,
        args: Optional[dict[str, Any]] = None,
        *,
        rng_seed: int = 0,
        reads: Optional[Iterable[str]] = None,
        writes: Optional[Iterable[str]] = None,
    ) -> "LaunchHandle":
        """Chain a dependent launch (returns immediately, like ``launch``)."""
        if self._client is None:
            raise ServeError("handle is not bound to a session")
        return self._client.launch(
            workload, args, rng_seed=rng_seed, after=(self,),
            reads=reads, writes=writes,
        )

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        if not self._settled and not self._wait(timeout):
            raise TimeoutError(
                f"launch {self.session}#{self.seq} not complete after {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _wait(self, timeout: Optional[float]) -> bool:
        with LaunchHandle._wait_lock:
            if self._settled:
                return True
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        return event.wait(timeout)

    def _mark_settled(self) -> None:
        with LaunchHandle._wait_lock:
            self._settled = True
            event = self._event
        if event is not None:
            event.set()

    def _resolve(self, result: ServeResult) -> None:
        self._result = result
        self._mark_settled()
        self._run_callbacks()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._mark_settled()
        self._run_callbacks()


@dataclass
class _Request:
    session: str
    seq: int
    workload: Workload
    args: dict[str, Any]
    handle: LaunchHandle
    submitted_at: float
    node: Optional[TaskNode] = None
    #: the session's virtual clock at submit (a lower bound on arrival)
    v_submit: float = 0.0


_STOP = object()

#: lease intervals the ledger may hold before the idle session furthest
#: behind stops holding them (it rejoins at the floor when it next
#: submits); closed-loop clients keep far fewer, so their clocks are
#: never moved
_MAX_RECORDED = 1024


@dataclass
class ServerStats:
    """Aggregate serving counters (lock-protected; read via snapshot)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: subset of ``failed`` that never ran: a dependency failed first
    dep_failed: int = 0
    #: per-launch wall latencies, seconds (bounded; newest kept)
    latencies_s: list[float] = field(default_factory=list)
    #: launches that saw a non-idle ledger at admission
    loaded_predictions: int = 0
    #: launches whose chosen config differed from the idle-load choice
    adapted_predictions: int = 0
    max_latency_samples: int = 65536
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False)

    def record(self, result: ServeResult, adapted: bool) -> None:
        with self._lock:
            self.completed += 1
            if len(self.latencies_s) >= self.max_latency_samples:
                self.latencies_s.pop(0)
            self.latencies_s.append(result.latency_s)
            if not result.load.idle:
                self.loaded_predictions += 1
                if adapted:
                    self.adapted_predictions += 1

    def record_failure(self) -> None:
        with self._lock:
            self.failed += 1

    def record_dep_failure(self) -> None:
        with self._lock:
            self.failed += 1
            self.dep_failed += 1

    def record_submit(self) -> None:
        with self._lock:
            self.submitted += 1


class ClientSession:
    """One client's ordered view of the server (thread-compatible handle).

    Sessions are cheap; every concurrent client should own one.  ``launch``
    is non-blocking: it returns a :class:`LaunchHandle` immediately and the
    admission queue decouples submission from execution.
    """

    def __init__(self, server: "DopiaServer", name: str):
        self.server = server
        self.name = name
        self._seq = itertools.count()
        #: virtual clock: the latest lease end among this session's
        #: launches, or the ledger's horizon when the session opened;
        #: raised to the floor if the server let go of it while idle
        self._clock = 0.0

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
        """Submit one kernel launch; buffers in ``args`` are mutated in place.

        Without ``args`` the workload's own buffer builder materialises a
        fresh argument set from ``rng_seed``.  Buffer hazards against
        in-flight launches are detected automatically; ``after`` adds
        explicit ordering on earlier handles, and ``reads``/``writes``
        override the access-model-derived read/write buffer sets (each
        side independently) for kernels whose true footprint the static
        analysis over-approximates.
        """
        if args is None:
            args = workload.full_args(rng_seed)
        return self.server._submit(self, workload, args, after=after,
                                   reads=reads, writes=writes)


class DopiaServer:
    """Thread-safe multi-client serving front-end over one platform + model.

    Parameters
    ----------
    platform, model:
        As for :class:`repro.core.DopiaRuntime`.
    workers:
        Worker-thread pool size (concurrent launches in service).
    backend:
        Interpreter backend for functional execution (``auto``/``jit``/
        ``vector``/``scalar``; ``None`` defers to ``DOPIA_BACKEND``).
        The jit tier's program cache is keyed per prepared
        :class:`KernelInfo`, so repeat launches of one workload compile
        once per distinct launch shape and amortize across clients.
    functional:
        When ``False``, launches are simulated for timing only (benchmark
        mode) — no buffers are touched.
    simulate:
        When ``False``, the performance-model step is skipped entirely
        (``ServeResult.sim`` is ``None`` and the lease dwell, if enabled,
        is the flat ``dwell_cap_s``).  Used by the chained benchmark,
        where execution is functional and the modelled service time
        would only add GIL-bound noise to the measurement.
    load_aware:
        When ``False``, every launch is configured with its *idle*
        prediction — the ledger still tracks occupancy, but the selected
        DoP ignores it.  This is the ablation baseline for the paper's
        online-adaptation claim, and the chained benchmark runs with it
        off so both scheduling modes execute identical per-launch work
        (load-adapted configurations differ between modes and would
        confound the graph-vs-sync comparison).
    cache_size:
        LRU capacity of the prediction cache.
    dwell_scale / dwell_cap_s:
        When ``dwell_scale > 0`` a worker holds its ledger lease for
        ``min(dwell_cap_s, service_time_s * dwell_scale)`` more wall
        seconds before releasing it.  The load launches see is on the
        virtual clock and does not depend on it; the dwell only stretches
        the host-time ``in_flight`` window.
    online:
        Enable the retraining loop (:mod:`repro.ml.online`): every served
        launch with a modelled time is ingested as an observation, and
        :meth:`retrain_now` (or the background thread, see
        ``retrain_interval_s``) runs drift detection → refit →
        shadow-scored promotion.  A promotion atomically swaps the live
        predictor's model and invalidates the superseded generation of
        the prediction cache; the simulation cache is untouched (it is
        model-independent).
    retrain_interval_s:
        With ``online`` on and a positive interval, a daemon thread calls
        :meth:`retrain_now` every this many seconds until :meth:`close`.
        Zero (the default) leaves retraining fully manual.
    online_prior:
        Optional ``(X, y)`` arrays of the incumbent's training set — the
        refit prior.  Without it candidates are fit on observations
        alone, which is safe (the shadow gate still refuses bad
        candidates) but forgets everything production traffic has not
        recently exercised.
    online_config / observation_store:
        Override the loop's thresholds or supply a persistent
        (cross-process) observation store; defaults are in-memory with
        :class:`repro.ml.online.OnlineConfig` defaults.
    """

    def __init__(
        self,
        platform: Platform,
        model: Estimator,
        *,
        workers: int = 4,
        backend: str | None = None,
        chunk_divisor: int = 10,
        functional: bool = True,
        simulate: bool = True,
        load_aware: bool = True,
        cache_size: int = 1024,
        load_buckets: int = LOAD_BUCKETS,
        dwell_scale: float = 0.0,
        dwell_cap_s: float = 0.050,
        queue_capacity: int = 0,
        online: bool = False,
        retrain_interval_s: float = 0.0,
        online_prior: Optional[tuple] = None,
        online_config: Optional[OnlineConfig] = None,
        observation_store: Optional[ObservationStore] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.platform = platform
        self.predictor = DopPredictor(model, platform)
        self.backend = backend
        self.chunk_divisor = chunk_divisor
        self.functional = functional
        self.simulate = simulate
        self.load_aware = load_aware
        self.load_buckets = load_buckets
        self.dwell_scale = dwell_scale
        self.dwell_cap_s = dwell_cap_s
        self.ledger = DeviceLoadLedger(platform)
        self.cache = PredictionCache(cache_size)
        #: memoised performance-model results: simulation is a deterministic
        #: function of (kernel, geometry, scalar args, setting), and served
        #: launches repeat, so the hot path pays the event-driven model once
        self.sim_cache = PredictionCache(cache_size)
        self.stats = ServerStats()
        self.graph = GraphScheduler()
        self._graph_ids = itertools.count()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        self._prepared: dict[tuple[str, str], _PreparedKernel] = {}
        #: id(workload) -> (weakref to it, prepared, ndrange, pred_key);
        #: an entry holds no strong reference to its workload and leaves
        #: with it, so neither workloads nor argument buffers are pinned
        self._meta: dict[int, tuple] = {}
        self._prepare_lock = threading.Lock()
        self._session_lock = threading.Lock()
        self._session_names: set[str] = set()
        #: guards the virtual clocks: the sessions whose clocks hold the
        #: floor down (held weakly, so a dropped session lets go), the
        #: submit-time clocks of live launches (queued, parked or in
        #: flight) by node id, and the floor no future arrival falls below
        self._clock_lock = threading.Lock()
        self._sessions: weakref.WeakSet = weakref.WeakSet()
        self._live: dict[int, float] = {}
        self._floor = 0.0
        self._closed = False
        self.online: Optional[OnlineLoop] = None
        self._retrain_stop: Optional[threading.Event] = None
        self._retrain_thread: Optional[threading.Thread] = None
        self._retrain_lock = threading.Lock()
        #: flush the observation window to disk on close — only when the
        #: caller provided a store (and thus chose where it persists)
        self._online_persist = observation_store is not None
        if online:
            import numpy as np

            from ..ml.online import OnlineLoop

            prior_X, prior_y = (online_prior if online_prior is not None
                                else (np.empty((0, 11)), np.empty((0,))))
            self.online = OnlineLoop(
                model=model,
                configs_utils=self.predictor._utils,
                base_X=prior_X,
                base_y=prior_y,
                config=online_config,
                store=observation_store,
                prober=self._online_probe,
            )
            #: launch-shape registry the prober resolves observations
            #: against: group_key -> (prepared, workload, ndrange, scalars)
            self._online_shapes: dict[tuple, tuple] = {}
            if retrain_interval_s > 0.0:
                self._retrain_stop = threading.Event()
                self._retrain_thread = threading.Thread(
                    target=self._retrain_loop,
                    args=(retrain_interval_s,),
                    name="dopia-retrain", daemon=True)
                self._retrain_thread.start()
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"dopia-serve-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def from_runtime(cls, runtime, **kwargs) -> "DopiaServer":
        """Build a server sharing a :class:`DopiaRuntime`'s platform/model."""
        kwargs.setdefault("backend", runtime.backend)
        kwargs.setdefault("chunk_divisor", runtime.chunk_divisor)
        return cls(runtime.platform, runtime.predictor.model, **kwargs)

    def __enter__(self) -> "DopiaServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, timeout: float = 30.0) -> None:
        """Drain the graph and queue, stop the workers, reject new work.

        If the drain times out, every launch that has not started is
        *failed* — queued requests and parked graph nodes alike, with
        poisoning cascaded to their output-dependents — so no handle is
        ever left unresolved for a client to hang on.
        """
        if self._closed:
            return
        self._closed = True
        if self._retrain_stop is not None:
            self._retrain_stop.set()
            self._retrain_thread.join(timeout)
        if self.online is not None and self._online_persist:
            # publish this session's observations so a later ``dopia
            # retrain`` (or another server) can learn from them
            self.online.store.flush()
        # Let in-flight graphs settle first: a _STOP racing ahead of a
        # parked launch's dispatch would strand its handle forever.
        if not self.graph.wait_idle(timeout):
            self._abandon_pending()
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout)
        self._meta.clear()

    def _abandon_pending(self) -> None:
        """Fail every not-yet-started launch (shutdown drain timed out).

        Launches already running stay with their workers — the join in
        :meth:`close` waits for them; everything still queued or parked
        settles with a :class:`ServeError` and poisons its dependents.
        """
        error = ServeError("server closed before launch could run")
        # Pull queued-but-unstarted requests out so no worker races us
        # into note_start while we fail their nodes.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            request: _Request = item
            self.stats.record_failure()
            if request.node is not None:
                self._settle_failure(request.node, error)
            request.handle._fail(error)
        # Parked nodes never reached the queue; fail them with the same
        # cascade.  Re-snapshot each round — poisoning removes dependents
        # from the live set, and WAR-released nodes go to the still-live
        # workers as usual.
        while True:
            parked = [node for node in self.graph.live_nodes(state="waiting")
                      if node.request is not None]
            if not parked:
                break
            for node in parked:
                if node.state != "waiting":
                    continue  # settled by an earlier node's cascade
                self.ledger.note_waiting(-1)
                self.stats.record_failure()
                self._settle_failure(node, error)
                node.request.handle._fail(error)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted launch has settled (done or failed)."""
        return self.graph.wait_idle(timeout)

    # -- client surface -------------------------------------------------------

    def session(self, name: Optional[str] = None) -> ClientSession:
        """Open a client session with a unique name."""
        with self._session_lock:
            if name is None:
                name = f"client-{len(self._session_names)}"
            if name in self._session_names:
                raise ValueError(f"session name {name!r} already in use")
            self._session_names.add(name)
        session = ClientSession(self, name)
        with self._clock_lock:
            session._clock = self.ledger.horizon
            self._sessions.add(session)
        return session

    def _submit(self, session: ClientSession, workload: Workload,
                args: dict[str, Any], *,
                after: Sequence[LaunchHandle] = (),
                reads: Optional[Iterable[str]] = None,
                writes: Optional[Iterable[str]] = None,
                graph_id: Optional[str] = None,
                key: Any = None) -> LaunchHandle:
        if self._closed:
            raise ServeError("server is closed")
        seq = next(session._seq)
        handle = LaunchHandle(session.name, seq)
        handle._client = session
        read_names, write_names = self._rw_sets(workload, args, reads, writes)
        node = self.graph.make_node(
            f"{session.name}#{seq} {workload.kernel_name}",
            buffer_ranges(args, read_names),
            buffer_ranges(args, write_names),
            graph_id=graph_id, key=key,
        )
        handle.node = node
        request = _Request(
            session=session.name, seq=seq, workload=workload, args=args,
            handle=handle, submitted_at=time.perf_counter(), node=node,
        )
        node.request = request
        with self._clock_lock:
            # a session let go while it sat idle rejoins at the floor
            session._clock = max(session._clock, self._floor)
            self._sessions.add(session)
            request.v_submit = self._live[node.id] = session._clock
        explicit = [h.node for h in after if h.node is not None]
        self.stats.record_submit()
        if tracer.enabled:
            tracer.instant("serve.submit", "serve", session=session.name,
                           seq=seq, kernel=workload.kernel_name,
                           **({"graph": graph_id} if graph_id else {}))
            tracer.counter("serve.submitted")
        state = self.graph.admit(node, explicit)
        if state == "ready":
            self._queue.put(request)
        elif state == "waiting":
            # Parked: no lease, no prediction — the predictor will see
            # only the frontier this launch joins when it becomes ready.
            self.ledger.note_waiting(1)
            if tracer.enabled:
                tracer.instant("serve.park", "serve", session=session.name,
                               seq=seq, kernel=workload.kernel_name,
                               deps=node.deps)
        else:  # poisoned at admission: an explicit dependency already failed
            self._forget_arrival(node)
            self.stats.record_dep_failure()
            handle._fail(node.error)
        return handle

    def _rw_sets(self, workload: Workload, args: dict[str, Any],
                 reads: Optional[Iterable[str]],
                 writes: Optional[Iterable[str]]) -> tuple[tuple, tuple]:
        """Buffer names this launch reads/writes, for hazard matching.

        Declared intents win per side; otherwise the access-model summary.
        If analysis itself fails here (client thread), fall back to every
        array argument in both sets — over-ordering is safe, and the
        worker's own ``_prepare`` will surface the real error on the
        handle as before.
        """
        if reads is None or writes is None:
            prepared = None
            try:
                prepared = self._prepare(workload)
                if prepared.rw_names is None:
                    summary = launch_rw_summary(prepared.info)
                    prepared.rw_names = (tuple(sorted(summary.reads)),
                                         tuple(sorted(summary.writes)))
            except Exception:  # noqa: BLE001 - conservative fallback
                arrays = tuple(
                    name for name, value in args.items()
                    if hasattr(value, "__array_interface__"))
                return (arrays if reads is None else tuple(reads),
                        arrays if writes is None else tuple(writes))
            model_reads, model_writes = prepared.rw_names
        else:
            model_reads = model_writes = ()
        read_names = tuple(reads) if reads is not None else model_reads
        write_names = tuple(writes) if writes is not None else model_writes
        return read_names, write_names

    def submit_graph(
        self,
        session: ClientSession,
        tasks: Union[TaskSpace, Iterable[GraphTask]],
        name: Optional[str] = None,
    ) -> GraphHandle:
        """Submit a whole named task graph in one shot.

        Validates keys and rejects cycles (:class:`GraphCycleError`)
        *before* submitting anything, then submits in topological order —
        explicit ``deps`` edges plus any buffer hazards the scheduler
        detects on its own.  Returns a :class:`GraphHandle`; index it by
        task key for per-task handles or call ``result()`` for the whole
        graph.
        """
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

    def submit_chain(self, session: ClientSession, chain) -> GraphHandle:
        """Submit a :class:`repro.workloads.chains.KernelChain` as one graph."""
        tasks = [
            GraphTask(key=task.key, workload=task.workload, args=task.args,
                      deps=tuple(task.deps))
            for task in chain.tasks
        ]
        return self.submit_graph(session, tasks, name=chain.name)

    # -- kernel preparation ----------------------------------------------------

    def _prepare(self, workload: Workload) -> _PreparedKernel:
        """Analyse + transform once per distinct (source, kernel name)."""
        key = (workload.source, workload.kernel_name)
        prepared = self._prepared.get(key)
        if prepared is None:
            with self._prepare_lock:
                prepared = self._prepared.get(key)
                if prepared is None:
                    info = workload.kernel_info()
                    static = extract_static_features(info)
                    prepared = _PreparedKernel(
                        workload_key=workload.key,
                        info=info,
                        static=static,
                        static_tuple=static.as_tuple(),
                    )
                    self._prepared[key] = prepared
        return prepared

    def _launch_meta(self, workload: Workload,
                     args: dict[str, Any]) -> _LaunchMeta:
        """Launch invariants for one (workload, args) pair, the workload's
        part memoised until the workload is collected."""
        ident = id(workload)
        entry = self._meta.get(ident)
        if entry is None or entry[0]() is not workload:
            prepared = self._prepare(workload)
            ndrange = workload.ndrange()
            pred_key = (prepared.static_tuple, ndrange.work_dim,
                        ndrange.total_work_items, ndrange.work_items_per_group)
            # no lock in the callback: dict.pop is atomic under the GIL
            ref = weakref.ref(workload,
                              lambda _r, i=ident, m=self._meta: m.pop(i, None))
            entry = self._meta[ident] = (ref, prepared, ndrange, pred_key)
        _, prepared, ndrange, pred_key = entry
        scalars = {name: args[name] for name in prepared.info.scalar_params}
        return _LaunchMeta(
            workload=workload, prepared=prepared, ndrange=ndrange,
            pred_key=pred_key, scalars=scalars,
            scalars_key=tuple(sorted(scalars.items())),
        )

    def _malleable_for(self, prepared: _PreparedKernel,
                       work_dim: int) -> MalleableKernel:
        if work_dim not in prepared.malleable:
            with self._prepare_lock:
                if work_dim not in prepared.malleable:
                    prepared.malleable[work_dim] = make_malleable(
                        prepared.info, work_dim=work_dim)
        return prepared.malleable[work_dim]

    @staticmethod
    def _verify_admission(prepared: _PreparedKernel, ndrange,
                          args: dict[str, Any]) -> None:
        """Static verification at admission, gated on ``DOPIA_VERIFY``.

        With ``warn`` the report goes to stderr; with ``raise`` a
        :class:`repro.analysis.verify.VerifyError` fails the launch handle
        before any buffer is touched.  Reports are cached per (kernel,
        launch shape), so repeat launches of one workload pay once."""
        # Cheap env gate before importing the verifier machinery: "off"
        # (the default) is the serving hot path.
        if os.environ.get("DOPIA_VERIFY", "off").strip().lower() \
                in ("", "off"):
            return
        from ..analysis.verify import (
            LaunchSpec,
            apply_policy,
            current_policy,
            verify_launch_cached,
        )

        policy = current_policy()
        if policy == "off":
            return
        spec = LaunchSpec.from_args(ndrange, args)
        apply_policy(verify_launch_cached(prepared.info, spec), policy)

    def admission_report(self, workload: Workload,
                         args: Optional[dict[str, Any]] = None) -> dict:
        """The admission legality report for one workload's launch.

        Returns the ``dopia lint --json`` document shape (schema version,
        one report with per-pass verdicts and diagnostics) for the exact
        launch the admission gate verifies, so multi-client callers can
        query *why* a handle was refused under ``DOPIA_VERIFY=raise`` —
        e.g. the RACE001 diagnostic with its witness work-items — without
        re-submitting or parsing a traceback.  ``args`` defaults to the
        workload's own deterministic argument binding (the shapes are
        what matter; verification never reads buffer contents).

        Unlike launching, this endpoint always runs the verifier — it is
        a diagnostic query, independent of the ``DOPIA_VERIFY`` policy.
        """
        import json

        import numpy as np

        from ..analysis.diagnostics import report_to_json
        from ..analysis.verify import LaunchSpec, verify_launch_cached

        prepared = self._prepare(workload)
        ndrange = workload.ndrange()
        if args is None:
            args = workload.full_args(np.random.default_rng(0))
        report = verify_launch_cached(
            prepared.info, LaunchSpec.from_args(ndrange, args))
        return json.loads(report_to_json([report]))

    # -- prediction -----------------------------------------------------------

    def _predict(self, meta: _LaunchMeta,
                 load: LoadSnapshot) -> tuple[Prediction, bool, LoadSnapshot]:
        """Load-aware DoP selection through the LRU cache.

        Predictions use the *bucketed* load, so a cache entry is exact for
        every snapshot in its bucket.  With ``load_aware`` off the load
        is zeroed before bucketing, so every launch lands in the idle
        bucket and gets the idle configuration.
        """
        if not self.load_aware:
            load = LoadSnapshot(cpu_util=0.0, gpu_util=0.0,
                                in_flight=load.in_flight,
                                waiting=load.waiting)
        bucketed = load.bucketed(self.load_buckets)
        ndrange = meta.ndrange
        prepared = meta.prepared
        prediction, hit = self.cache.get_or_compute(
            meta.pred_key + (load.bucket(self.load_buckets),),
            lambda: self.predictor.select(
                prepared.static,
                ndrange.work_dim,
                ndrange.total_work_items,
                ndrange.work_items_per_group,
                cpu_load=bucketed.cpu_util,
                gpu_load=bucketed.gpu_util,
            ),
        )
        return prediction, hit, bucketed

    def _simulate(self, prepared: _PreparedKernel, workload: Workload,
                  ndrange, scalars: dict[str, Any], setting) -> ExecutionResult:
        profile = profile_kernel(
            prepared.info, scalars,
            ndrange.total_work_items,
            ndrange.work_items_per_group,
            work_dim=ndrange.work_dim,
            irregular_trip_hint=workload.irregular_trip_hint,
        )
        return simulate_execution(
            profile, self.platform, setting,
            scheduler="dynamic",
            chunk_divisor=self.chunk_divisor,
            run_key=(workload.kernel_name, "serve"),
        )

    # -- contention model -------------------------------------------------------

    def _contention_slowdown(self, prediction: Prediction,
                             load: LoadSnapshot) -> float:
        """Modelled slowdown from sharing device capacity with the
        background load seen at admission.

        Per device, this launch offers its configuration's normalised
        utilisation as demand against capacity 1.0, alongside the in-flight
        demand; :func:`repro.sim.contention.config_slowdown` (with the
        platform's arbitration fairness) grants each side a share, and the
        slowdown is demand over grant.  With free capacity the grant equals
        the demand and the slowdown is exactly 1.0 — a lone client is never
        charged.
        """
        config = prediction.config
        return config_slowdown(
            config.cpu_util, config.gpu_util,
            load.cpu_util, load.gpu_util,
            fairness=self.platform.arbitration_fairness,
        )

    # -- virtual clock ----------------------------------------------------------

    @staticmethod
    def _arrival(request: _Request) -> float:
        """Virtual instant a launch arrives: the later of its session's
        clock at submit and the lease end of every launch it waited on."""
        node = request.node
        return request.v_submit if node is None else max(request.v_submit,
                                                         node.v_ready)

    def _lease(self, request: _Request, setting, start: float,
               end: float) -> Lease:
        """Record ``setting``'s lease over ``[start, end)`` and move the
        clocks: the launch's node and session end there, and leases no
        future arrival can fall inside are dropped."""
        lease = self.ledger.acquire(setting, start=start, end=end)
        session = request.handle._client
        with self._clock_lock:
            if request.node is not None:
                request.node.v_end = end
            session._clock = max(session._clock, end)
            floor = self._raise_floor()
        self.ledger.prune(floor)
        if self.ledger.recorded > _MAX_RECORDED:
            self._let_go_of_oldest_idle_session()
        return lease

    def _raise_floor(self) -> float:
        """Every future arrival is at or after some held session's clock
        or some live launch's submit-time clock; the least of them only
        rises.  Call under ``_clock_lock``."""
        self._floor = min(itertools.chain(
            (session._clock for session in self._sessions),
            self._live.values()), default=self._floor)
        return self._floor

    def _let_go_of_oldest_idle_session(self) -> None:
        """The ledger outgrew its bound: the idle session furthest behind
        the live launches stops holding the floor down."""
        with self._clock_lock:
            live = min(self._live.values(), default=float("inf"))
            idle = [session for session in self._sessions
                    if session._clock < live]
            if not idle:
                return
            self._sessions.discard(min(idle, key=lambda s: s._clock))
            floor = self._raise_floor()
        self.ledger.prune(floor)

    def _forget_arrival(self, node: TaskNode) -> None:
        """A launch settled: it no longer holds the floor down."""
        with self._clock_lock:
            self._live.pop(node.id, None)

    # -- online retraining ------------------------------------------------------

    def _online_ingest(self, meta: _LaunchMeta, result: ServeResult,
                       slowdown: float) -> None:
        """Feed one completed launch into the observation store.

        Only launches with a modelled time carry a training signal; the
        observed time is the simulated execution under the chosen
        configuration times the contention slowdown the launch was
        charged — exactly the quantity a better configuration would have
        improved.
        """
        loop = self.online
        if loop is None or result.sim is None:
            return
        prepared = meta.prepared
        ndrange = meta.ndrange
        group_key = (prepared.static_tuple, ndrange.work_dim,
                     ndrange.total_work_items, ndrange.work_items_per_group)
        self._online_shapes.setdefault(
            group_key, (prepared, meta.workload, ndrange, meta.scalars))
        config = result.prediction.config
        loop.ingest(
            kernel=result.kernel,
            static=prepared.static_tuple,
            work_dim=ndrange.work_dim,
            global_size=ndrange.total_work_items,
            local_size=ndrange.work_items_per_group,
            cpu_load=result.load.cpu_util,
            gpu_load=result.load.gpu_util,
            cpu_util=config.cpu_util,
            gpu_util=config.gpu_util,
            time_s=result.sim.time_s * slowdown,
            source="serve",
        )

    def _online_probe(self, obs, index: int) -> Optional[float]:
        """Counterfactual time for ``obs``'s launch at another config.

        Resolves the observation's launch shape to the prepared kernel it
        came from, simulates that configuration (through the memoised
        simulation cache — the probe sweep for one cell is 44 entries,
        shared with the serving path), and charges the same contention
        slowdown the cell's background load implies.
        """
        shape = self._online_shapes.get(obs.group_key)
        if shape is None:
            return None
        prepared, workload, ndrange, scalars = shape
        config = self.predictor.configs[index]
        sim_key = (
            workload.kernel_name, workload.source,
            ndrange.total_work_items, ndrange.work_items_per_group,
            ndrange.work_dim, tuple(sorted(scalars.items())),
            config.setting.cpu_threads, config.setting.gpu_fraction,
        )
        sim, _ = self.sim_cache.get_or_compute(
            sim_key,
            lambda: self._simulate(prepared, workload, ndrange, scalars,
                                   config.setting),
        )
        return sim.time_s * config_slowdown(
            config.cpu_util, config.gpu_util,
            obs.cpu_load, obs.gpu_load,
            fairness=self.platform.arbitration_fairness,
        )

    def retrain_now(self):
        """Run one retraining step; promote the candidate if it wins.

        Returns the :class:`repro.ml.online.Decision` (``None`` when the
        server is not online).  Serialised: the background thread and
        manual callers never race a promotion.
        """
        loop = self.online
        if loop is None:
            return None
        with self._retrain_lock:
            decision = loop.step()
            if decision.promoted:
                self._promote(loop.model)
        return decision

    def _promote(self, model: Estimator) -> None:
        """Swap the serving model and drop the superseded generation.

        The swap is a single attribute assignment (predictions in flight
        finish on whichever model they started with), after which every
        cache entry the old model computed is invalidated; entries the
        new model writes from here on are tagged with the new generation
        and survive.  The simulation cache is model-independent and kept.
        """
        self.predictor.model = model
        stale = self.cache.advance_generation()
        self.cache.clear(stale)
        if tracer.enabled:
            tracer.instant("serve.promote", "online",
                           generation=self.cache.generation,
                           invalidated=self.cache.invalidations)

    def _retrain_loop(self, interval_s: float) -> None:
        while not self._retrain_stop.wait(interval_s):
            try:
                self.retrain_now()
            except Exception:  # noqa: BLE001 - keep the daemon alive
                if tracer.enabled:
                    tracer.counter("online.retrain_errors")

    # -- worker ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            request: _Request = item
            node = request.node
            if node is not None:
                self.graph.note_start(node)
            try:
                result = self._serve(request)
            except BaseException as error:  # noqa: BLE001 - delivered to client
                self.stats.record_failure()
                if node is not None:
                    self._settle_failure(node, error)
                request.handle._fail(error)
            else:
                # Graph settles before the handle resolves: a client that
                # waits on result() then resubmits can never observe its
                # completed predecessor as still live.
                if node is not None:
                    for ready in self.graph.complete(node):
                        self._dispatch(ready)
                    self._forget_arrival(node)
                request.handle._resolve(result)
            # an idle worker must not keep the last client's session alive
            del item, request, node

    def _dispatch(self, node: TaskNode) -> None:
        """A parked launch's last dependency completed: queue it."""
        self.ledger.note_waiting(-1)
        if tracer.enabled:
            tracer.instant("serve.unpark", "serve",
                           session=node.request.session,
                           seq=node.request.seq,
                           kernel=node.request.workload.kernel_name)
        self._queue.put(node.request)

    def _settle_failure(self, node: TaskNode, error: BaseException) -> None:
        """Propagate a launch failure through the graph.

        Output-dependents (RAW/WAW/explicit edges, transitively) fail
        with :class:`DependencyFailedError` without ever running; pure
        WAR dependents — which only waited to avoid clobbering the failed
        launch's input — are released to run.
        """
        ready, poisoned = self.graph.fail(node, error)
        self._forget_arrival(node)
        for runnable in ready:
            self._dispatch(runnable)
        for victim in poisoned:
            self._forget_arrival(victim)
            self.ledger.note_waiting(-1)
            self.stats.record_dep_failure()
            if tracer.enabled:
                tracer.instant("serve.dep_failed", "serve",
                               session=victim.request.session,
                               seq=victim.request.seq,
                               kernel=victim.request.workload.kernel_name)
            victim.request.handle._fail(victim.error)

    def _serve(self, request: _Request) -> ServeResult:
        workload = request.workload
        meta = self._launch_meta(workload, request.args)
        prepared = meta.prepared
        ndrange = meta.ndrange
        traced = tracer.enabled
        node = request.node
        graph_kv = ({"graph": node.graph_id}
                    if node is not None and node.graph_id else {})
        with (tracer.context(session=request.session, **graph_kv)
              if traced else NULL_SPAN):
            with tracer.span(
                "serve.launch", "serve",
                kernel=workload.kernel_name, seq=request.seq,
                deps=node.deps if node is not None else 0, **graph_kv,
            ) if traced else NULL_SPAN:
                try:
                    malleable = self._malleable_for(prepared, ndrange.work_dim)
                except TransformError as error:
                    raise ServeError(
                        f"kernel {workload.kernel_name!r} is not malleable: "
                        f"{error}") from error
                self._verify_admission(prepared, ndrange, request.args)

                arrival = self._arrival(request)
                load = self.ledger.snapshot(at=arrival)
                with tracer.span("serve.predict", "predict",
                                 kernel=workload.kernel_name) if traced else NULL_SPAN:
                    prediction, cache_hit, bucketed = self._predict(
                        meta, load)
                setting = prediction.config.setting
                adapted = False
                if not load.idle:
                    idle_prediction, _ = self.cache.get_or_compute(
                        meta.pred_key + ((0, 0),),
                        lambda: self.predictor.select(
                            prepared.static, ndrange.work_dim,
                            ndrange.total_work_items,
                            ndrange.work_items_per_group,
                        ),
                    )
                    adapted = idle_prediction.config != prediction.config
                if traced:
                    tracer.instant(
                        "serve.admit", "serve",
                        kernel=workload.kernel_name, seq=request.seq,
                        cpu_load=bucketed.cpu_util, gpu_load=bucketed.gpu_util,
                        in_flight=load.in_flight,
                        cpu_threads=setting.cpu_threads,
                        gpu_fraction=setting.gpu_fraction,
                        cache_hit=cache_hit, adapted=adapted,
                    )

                sim = None
                if self.simulate:
                    with tracer.span("serve.simulate", "sim",
                                     kernel=workload.kernel_name) if traced else NULL_SPAN:
                        sim_key = (
                            workload.kernel_name, workload.source,
                            ndrange.total_work_items,
                            ndrange.work_items_per_group, ndrange.work_dim,
                            meta.scalars_key,
                            setting.cpu_threads, setting.gpu_fraction,
                        )
                        sim, _ = self.sim_cache.get_or_compute(
                            sim_key,
                            lambda: self._simulate(prepared, workload,
                                                   ndrange, meta.scalars,
                                                   setting),
                        )
                slowdown = self._contention_slowdown(prediction, bucketed)
                service_time = ((sim.time_s * slowdown) if sim is not None
                                else 0.0) + prediction.inference_cost_s

                lease = self._lease(request, setting, arrival,
                                    arrival + service_time)
                try:
                    trace = None
                    if self.functional:
                        if setting.uses_gpu:
                            mod, alloc = throttle_settings(
                                self.platform.gpu.pes_per_cu,
                                setting.gpu_fraction)
                        else:
                            mod, alloc = 1, 1
                        with tracer.span(
                            "serve.execute", "schedule",
                            kernel=workload.kernel_name,
                            cpu_threads=setting.cpu_threads,
                            gpu_fraction=setting.gpu_fraction,
                        ) if traced else NULL_SPAN:
                            trace = run_dynamic(
                                prepared.info, malleable, request.args,
                                ndrange, setting,
                                dop_gpu_mod=mod, dop_gpu_alloc=alloc,
                                chunk_divisor=self.chunk_divisor,
                                backend=self.backend,
                            )
                    if self.dwell_scale > 0.0:
                        time.sleep(self.dwell_cap_s if sim is None else
                                   min(self.dwell_cap_s,
                                       service_time * self.dwell_scale))
                finally:
                    self.ledger.release(lease)

                latency = time.perf_counter() - request.submitted_at
                result = ServeResult(
                    kernel=workload.kernel_name,
                    session=request.session,
                    seq=request.seq,
                    prediction=prediction,
                    load=bucketed,
                    cache_hit=cache_hit,
                    trace=trace,
                    sim=sim,
                    service_time_s=service_time,
                    latency_s=latency,
                    args=request.args,
                    graph_id=node.graph_id if node is not None else None,
                    deps=node.deps if node is not None else 0,
                )
                self.stats.record(result, adapted)
                if self.online is not None:
                    self._online_ingest(meta, result, slowdown)
                if traced:
                    tracer.counter("serve.completed")
                    tracer.observe("serve.latency_s", latency)
                return result
