"""Dependency-aware task-graph runtime for the serving layer.

``DopiaServer`` used to admit every launch as if it were independent;
real applications (FDTD1→2→3, ATAX1→2, BICG, MVT) are *chains* of
kernels over shared buffers.  This module gives the server an implicit
DAG: every submitted launch carries its buffer **read/write sets**
(derived from :func:`repro.analysis.accessmodel.launch_rw_summary`,
falling back to declared argument intents when the access model cannot
prove a summary), and admission **hazard-matches** the launch against
every live launch that touches overlapping memory:

RAW
    my read overlaps their write — I must see their output;
WAW
    my write overlaps their write — last writer must win;
WAR
    my write overlaps their read — they must read the old value first.

Conflicting launches get a dependency edge and *park* until their
predecessors complete; independent launches keep flowing to the worker
pool untouched.  Because parked launches acquire **no ledger lease** and
make **no prediction** until they actually start, the DoP predictor only
ever sees the executable *frontier* of the graph — exactly the set of
kernels that will co-run — not the whole submitted future.

Failure propagates along output edges: when a launch raises, every
dependent that needed its *output* (RAW / WAW / explicit edges) fails
with :class:`DependencyFailedError` carrying the root cause, while
pure-WAR dependents (which only waited to avoid clobbering an input) and
independent branches proceed.

The explicit face of the same machinery is :class:`TaskSpace` /
``DopiaServer.submit_graph``: named tasks, declared dependencies, cycle
rejection at admission, and a per-graph :class:`GraphHandle` future.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence


class ServeError(Exception):
    """A launch could not be served (untransformable kernel, closed server)."""


class GraphCycleError(ServeError):
    """An explicit task graph contains a dependency cycle (rejected whole)."""


class DependencyFailedError(ServeError):
    """A launch was abandoned because a launch it depends on failed.

    ``root_cause`` is the exception the *originally failing* launch
    raised (also chained as ``__cause__``); ``failed_task`` names that
    launch (``session#seq kernel``), which may be several edges upstream.
    """

    def __init__(self, message: str, root_cause: BaseException,
                 failed_task: str):
        super().__init__(message)
        self.root_cause = root_cause
        self.failed_task = failed_task
        self.__cause__ = root_cause

    def __reduce__(self):
        # Default exception pickling replays __init__ with self.args only,
        # which is one short for this signature; the sharded server ships
        # these across process pipes, so spell the constructor call out.
        return (DependencyFailedError,
                (self.args[0], self.root_cause, self.failed_task))


# -- hazard kinds -----------------------------------------------------------

RAW = "raw"
WAR = "war"
WAW = "waw"
EXPLICIT = "explicit"

#: Edge kinds whose failure poisons the dependent: the dependent needed
#: the predecessor's *output* (or was explicitly ordered after it).  A
#: pure WAR edge only protected the predecessor's *input*; if the
#: predecessor failed, the write may proceed.
POISONING = frozenset({RAW, WAW, EXPLICIT})


def buffer_ranges(args: dict[str, Any],
                  names: Iterable[str]) -> tuple[tuple[int, int], ...]:
    """Host-memory byte ranges ``[lo, hi)`` of the named ndarray arguments.

    Overlap of ranges is what defines "the same buffer" for hazard
    matching — NumPy views of one allocation conflict, distinct
    allocations never do.  Non-array (scalar) arguments contribute
    nothing.
    """
    ranges = []
    for name in names:
        value = args.get(name)
        iface = getattr(value, "__array_interface__", None)
        if iface is None:
            continue
        lo = iface["data"][0]
        ranges.append((lo, lo + int(value.nbytes)))
    return tuple(ranges)


def _overlaps(mine: tuple[tuple[int, int], ...],
              theirs: tuple[tuple[int, int], ...]) -> bool:
    for lo_a, hi_a in mine:
        for lo_b, hi_b in theirs:
            if lo_a < hi_b and lo_b < hi_a:
                return True
    return False


def hazard_kind(node: "TaskNode", other: "TaskNode") -> Optional[str]:
    """The strongest hazard forcing ``node`` to wait for ``other``.

    RAW dominates WAW dominates WAR: a RAW (or WAW) edge means ``node``
    consumes (or overwrites) ``other``'s output, so ``other``'s failure
    must poison ``node``; a pure WAR edge does not.
    """
    if _overlaps(node.read_ranges, other.write_ranges):
        return RAW
    if _overlaps(node.write_ranges, other.write_ranges):
        return WAW
    if _overlaps(node.write_ranges, other.read_ranges):
        return WAR
    return None


# -- nodes ------------------------------------------------------------------

_WAITING = "waiting"
_READY = "ready"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"
_POISONED = "poisoned"


class TaskNode:
    """One launch's position in the dependency graph (scheduler-internal)."""

    __slots__ = (
        "id", "label", "read_ranges", "write_ranges", "graph_id", "key",
        "pending", "dependents", "state", "error", "request", "parked",
        "dep_total", "submitted_at", "started_at", "finished_at",
        "v_end", "v_ready",
    )

    def __init__(self, node_id: int, label: str,
                 read_ranges: tuple[tuple[int, int], ...],
                 write_ranges: tuple[tuple[int, int], ...],
                 graph_id: Optional[str] = None, key: Any = None):
        self.id = node_id
        self.label = label                     #: "session#seq kernel"
        self.read_ranges = read_ranges
        self.write_ranges = write_ranges
        self.graph_id = graph_id
        self.key = key
        self.pending: dict[int, str] = {}      #: dep node id -> edge kind
        self.dependents: list[tuple["TaskNode", str]] = []
        self.state = _WAITING
        self.error: Optional[BaseException] = None
        self.request: Any = None               #: the server's _Request
        self.parked = False
        self.dep_total = 0
        self.submitted_at = time.perf_counter()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: virtual-clock end of this launch's lease (set by the server)
        self.v_end = 0.0
        #: latest ``v_end`` among the launches this node waited on
        self.v_ready = 0.0

    @property
    def deps(self) -> int:
        """Number of dependency edges this node was admitted with."""
        return self.dep_total


@dataclass
class GraphCounters:
    """Aggregate hazard/scheduling statistics (read via :meth:`snapshot`)."""

    submitted: int = 0
    raw: int = 0
    war: int = 0
    waw: int = 0
    explicit: int = 0
    parked: int = 0
    poisoned: int = 0
    peak_live: int = 0
    peak_frontier: int = 0


class GraphScheduler:
    """Hazard matcher + DAG bookkeeping for one :class:`DopiaServer`.

    All mutation happens under one short lock; the scheduler never
    executes anything — it only decides *when* a request may enter the
    worker queue.  ``admit`` returns the node's initial state; the
    server enqueues ``_READY`` nodes immediately, parks ``_WAITING``
    ones, and fails ``_POISONED`` ones (an explicit dependency had
    already failed) without executing them.
    """

    def __init__(self, max_events: int = 65536):
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._ids = itertools.count()
        self._live: dict[int, TaskNode] = {}
        self.counters = GraphCounters()
        #: bounded ("submit"|"start"|"done"|"failed"|"poisoned", node id,
        #: label) log — what the property suite asserts topo-order against
        self.events: deque[tuple[str, int, str]] = deque(maxlen=max_events)

    # -- admission ----------------------------------------------------------

    def make_node(self, label: str,
                  read_ranges: tuple[tuple[int, int], ...],
                  write_ranges: tuple[tuple[int, int], ...],
                  graph_id: Optional[str] = None,
                  key: Any = None) -> TaskNode:
        return TaskNode(next(self._ids), label, read_ranges, write_ranges,
                        graph_id=graph_id, key=key)

    def admit(self, node: TaskNode,
              explicit_deps: Sequence[TaskNode] = ()) -> str:
        """Register ``node``; returns ``_READY``/``_WAITING``/``_POISONED``.

        Implicit edges come from hazard-matching against every live
        node; explicit edges from ``explicit_deps`` (already-completed
        dependencies are satisfied, already-failed ones poison the node
        immediately — it will never run).
        """
        with self._lock:
            counters = self.counters
            counters.submitted += 1
            poison_source: Optional[TaskNode] = None
            for dep in explicit_deps:
                if dep.state in (_FAILED, _POISONED):
                    poison_source = dep
                    break
                if dep.state == _DONE:
                    node.v_ready = max(node.v_ready, dep.v_end)
                    continue
                if dep.id in node.pending:
                    continue
                node.pending[dep.id] = EXPLICIT
                dep.dependents.append((node, EXPLICIT))
                counters.explicit += 1
            if poison_source is not None:
                node.state = _POISONED
                node.dep_total = len(node.pending)
                node.error = _poison_error(node, poison_source)
                counters.poisoned += 1
                self.events.append(("poisoned", node.id, node.label))
                return _POISONED
            for other in self._live.values():
                if other.id in node.pending or other is node:
                    continue
                kind = hazard_kind(node, other)
                if kind is None:
                    continue
                node.pending[other.id] = kind
                other.dependents.append((node, kind))
                setattr(counters, kind, getattr(counters, kind) + 1)
            node.dep_total = len(node.pending)
            self._live[node.id] = node
            counters.peak_live = max(counters.peak_live, len(self._live))
            self.events.append(("submit", node.id, node.label))
            if node.pending:
                node.parked = True
                counters.parked += 1
                return _WAITING
            node.state = _READY
            self._note_frontier()
            return _READY

    def _note_frontier(self) -> None:
        frontier = sum(1 for n in self._live.values()
                       if n.state in (_READY, _RUNNING))
        self.counters.peak_frontier = max(self.counters.peak_frontier,
                                          frontier)

    # -- execution callbacks ------------------------------------------------

    def note_start(self, node: TaskNode) -> None:
        with self._lock:
            node.state = _RUNNING
            node.started_at = time.perf_counter()
            self.events.append(("start", node.id, node.label))

    def complete(self, node: TaskNode) -> list[TaskNode]:
        """Mark ``node`` done; returns dependents that became runnable."""
        with self._lock:
            node.state = _DONE
            node.finished_at = time.perf_counter()
            self._live.pop(node.id, None)
            self.events.append(("done", node.id, node.label))
            ready = self._release(node)
            self._note_frontier()
            if not self._live:
                self._idle.notify_all()
            return ready

    def fail(self, node: TaskNode,
             error: BaseException) -> tuple[list[TaskNode], list[TaskNode]]:
        """Mark ``node`` failed; returns ``(ready, poisoned)`` dependents.

        Poisoning walks output edges transitively: a poisoned node never
        runs, so *its* output-dependents are poisoned too (with the same
        root cause); WAR-only dependents at any depth are released.
        """
        with self._lock:
            node.state = _FAILED
            node.error = error
            node.finished_at = time.perf_counter()
            self._live.pop(node.id, None)
            self.events.append(("failed", node.id, node.label))
            ready: list[TaskNode] = []
            poisoned: list[TaskNode] = []
            stack = [node]
            while stack:
                failed = stack.pop()
                for child, kind in failed.dependents:
                    if child.state != _WAITING:
                        continue
                    child.pending.pop(failed.id, None)
                    child.v_ready = max(child.v_ready, failed.v_end)
                    if kind in POISONING:
                        child.state = _POISONED
                        child.error = _poison_error(child, failed)
                        self._live.pop(child.id, None)
                        self.counters.poisoned += 1
                        self.events.append(("poisoned", child.id, child.label))
                        poisoned.append(child)
                        stack.append(child)
                    elif not child.pending:
                        child.state = _READY
                        ready.append(child)
            self._note_frontier()
            if not self._live:
                self._idle.notify_all()
            return ready, poisoned

    def _release(self, node: TaskNode) -> list[TaskNode]:
        ready = []
        for child, _kind in node.dependents:
            if child.state != _WAITING:
                continue
            child.pending.pop(node.id, None)
            child.v_ready = max(child.v_ready, node.v_end)
            if not child.pending:
                child.state = _READY
                ready.append(child)
        return ready

    # -- queries ------------------------------------------------------------

    @property
    def live(self) -> int:
        with self._lock:
            return len(self._live)

    def live_nodes(self, state: Optional[str] = None) -> list[TaskNode]:
        """Snapshot of live nodes, optionally filtered by state.

        Shutdown paths use this to find launches that never started
        (``state="waiting"``) so their handles can be failed rather than
        abandoned; the snapshot is point-in-time, so callers must
        re-check ``node.state`` before acting on it.
        """
        with self._lock:
            nodes = list(self._live.values())
        if state is not None:
            nodes = [node for node in nodes if node.state == state]
        return nodes

    @property
    def drained(self) -> bool:
        with self._lock:
            return not self._live

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no launch is live (waiting, queued, or running)."""
        with self._idle:
            return self._idle.wait_for(lambda: not self._live, timeout)

    def snapshot(self) -> dict[str, int]:
        """JSON-shaped counter snapshot (the bench report's ``graph`` block)."""
        with self._lock:
            counters = self.counters
            return {
                "submitted": counters.submitted,
                "hazards_raw": counters.raw,
                "hazards_war": counters.war,
                "hazards_waw": counters.waw,
                "explicit_edges": counters.explicit,
                "parked": counters.parked,
                "poisoned": counters.poisoned,
                "peak_live": counters.peak_live,
                "peak_frontier": counters.peak_frontier,
            }


def _poison_error(node: TaskNode,
                  failed: TaskNode) -> DependencyFailedError:
    root: BaseException
    if isinstance(failed.error, DependencyFailedError):
        root = failed.error.root_cause
        origin = failed.error.failed_task
    else:
        root = failed.error if failed.error is not None else ServeError(
            f"dependency {failed.label} failed")
        origin = failed.label
    return DependencyFailedError(
        f"launch {node.label} abandoned: dependency {origin} failed "
        f"({type(root).__name__}: {root})",
        root_cause=root, failed_task=origin,
    )


# -- explicit graph surface -------------------------------------------------


@dataclass(frozen=True)
class GraphTask:
    """One named task of an explicit graph submission.

    ``deps`` are keys of other tasks in the same graph; buffer hazards
    between tasks are *also* matched automatically, so ``deps`` only
    needs ordering the access model cannot see (or extra constraints).
    """

    key: Any
    workload: Any                 #: :class:`repro.workloads.Workload`
    args: Optional[dict[str, Any]] = None
    deps: tuple = ()
    rng_seed: int = 0


class TaskSpace:
    """A named space of tasks, Parla-style: define, wire, submit as one.

    >>> ts = TaskSpace("fdtd")
    >>> ts.add("e", step1, args)
    >>> ts.add("h", step3, args, deps=["e"])
    >>> handle = server.submit_graph(session, ts)
    >>> handle["h"].result()
    """

    def __init__(self, name: str = "T"):
        self.name = name
        self._tasks: dict[Any, GraphTask] = {}

    def add(self, key: Any, workload, args: Optional[dict[str, Any]] = None,
            deps: Sequence[Any] = (), rng_seed: int = 0) -> GraphTask:
        if key in self._tasks:
            raise ValueError(f"task {key!r} already defined in "
                             f"TaskSpace {self.name!r}")
        task = GraphTask(key=key, workload=workload, args=args,
                         deps=tuple(deps), rng_seed=rng_seed)
        self._tasks[key] = task
        return task

    def tasks(self) -> list[GraphTask]:
        return list(self._tasks.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks.values())

    def __getitem__(self, key: Any) -> GraphTask:
        return self._tasks[key]


def topological_order(tasks: Sequence[GraphTask]) -> list[GraphTask]:
    """Kahn's algorithm over explicit deps; definition order is preserved
    among ready tasks.  Raises :class:`GraphCycleError` (naming the tasks
    stuck on a cycle) or ``ValueError`` for unknown/duplicate keys."""
    by_key: dict[Any, GraphTask] = {}
    for task in tasks:
        if task.key in by_key:
            raise ValueError(f"duplicate task key {task.key!r}")
        by_key[task.key] = task
    indegree = {task.key: 0 for task in tasks}
    dependents: dict[Any, list[Any]] = {task.key: [] for task in tasks}
    for task in tasks:
        for dep in task.deps:
            if dep not in by_key:
                raise ValueError(
                    f"task {task.key!r} depends on unknown task {dep!r}")
            indegree[task.key] += 1
            dependents[dep].append(task.key)
    order = [task for task in tasks if indegree[task.key] == 0]
    for task in order:                      # grows while iterating (BFS)
        for child in dependents[task.key]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(by_key[child])
    if len(order) != len(tasks):
        stuck = sorted(
            (repr(key) for key, deg in indegree.items() if deg > 0), key=str)
        raise GraphCycleError(
            "dependency cycle among tasks: " + ", ".join(stuck))
    return order


class GraphHandle:
    """Per-graph completion future over the member :class:`LaunchHandle`\\ s."""

    def __init__(self, graph_id: str, handles: dict[Any, Any]):
        self.graph_id = graph_id
        self._handles = handles

    def __getitem__(self, key: Any):
        return self._handles[key]

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def handles(self) -> dict[Any, Any]:
        return dict(self._handles)

    def done(self) -> bool:
        return all(handle.done() for handle in self._handles.values())

    def result(self, timeout: Optional[float] = None) -> dict[Any, Any]:
        """Wait for the whole graph; ``{key: ServeResult}`` on success.

        Raises the first member failure (a failing kernel raises its own
        error; its dependents raise :class:`DependencyFailedError`).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results = {}
        for key, handle in self._handles.items():
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            results[key] = handle.result(timeout=remaining)
        return results
