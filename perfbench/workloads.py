"""The four benchmark workloads.

Every workload drives Dopia only through its public surface: ``repro.cl``
with a :class:`repro.core.DopiaRuntime` interposed, or a
:class:`repro.serve.DopiaServer`.  Inputs come from the seed alone; outputs
are checked against :mod:`references`, which never calls into Dopia.

A workload has three phases:

``prepare_inputs``
    Untimed: draw the kernels, build host buffers, compute the NumPy
    references and the simulator profiles the speed-up check needs.
``warm_up(runtime)``
    Part of set-up: the application's builds and the first launch of
    every kernel shape, against a freshly trained runtime.
``run(seconds, layers)``
    The timed region: whole rounds of the same operations until
    ``seconds`` have passed.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro import cl
from repro.core.dopconfig import config_space
from repro.serve import DopiaServer
from repro.sim import KAVERI
from repro.sim.engine import DopSetting, simulate_execution
from repro.workloads import (
    SCALED_REAL_FACTORIES,
    make_atax1,
    make_atax2,
    make_bicg1,
    make_bicg2,
    make_conv2d,
    make_fdtd1,
    make_fdtd2,
    make_fdtd3,
    make_fdtd_chain,
    make_gesummv,
    make_mvt1,
    make_mvt2,
    make_pagerank,
    make_spmv,
    make_syr2k,
    make_synthetic,
)
from repro.workloads.synthetic import (
    TABLE4_DTYPES,
    TABLE4_GAMMAS,
    TABLE4_PATTERNS,
    SyntheticSpec,
)

from references import KERNEL_REFERENCES, matches, synthetic_reference
from stats import Accounting, Clock

PLATFORM = KAVERI
CHUNK_DIVISOR = 10  # DopiaRuntime's default, used to recompute its timing
GPU_ONLY = DopSetting(cpu_threads=0, gpu_fraction=1.0)
CONFIGS = config_space(PLATFORM)

#: app-cpu: registry kernels the model runs CPU-only at these mid sizes.
APP_CPU_FACTORIES = {
    "2DCONV": lambda: make_conv2d(n=128, wg=(8, 8)),
    "ATAX1": lambda: make_atax1(n=256, wg=64),
    "BICG2": lambda: make_bicg2(n=256, wg=64),
    "FDTD1": lambda: make_fdtd1(n=32, wg=(8, 8)),
    "FDTD2": lambda: make_fdtd2(n=32, wg=(8, 8)),
    "FDTD3": lambda: make_fdtd3(n=32, wg=(8, 8)),
    "GESUMMV": lambda: make_gesummv(n=256, wg=64),
    "MVT1": lambda: make_mvt1(n=256, wg=64),
    "SYR2K": lambda: make_syr2k(n=64, wg=(8, 8)),
    "PageRank": lambda: make_pagerank(n=256, wg=64, avg_in_degree=8),
    "SpMV": lambda: make_spmv(n=256, wg=64, nnz_per_row=8),
}

#: app-coexec: the column-walk kernels, at sizes where the model gives the
#: GPU a share (so Algorithm 1 pushes chunks of the malleable variant).
APP_COEXEC_FACTORIES = {
    "ATAX2": lambda: make_atax2(n=64, wg=8),
    "BICG1": lambda: make_bicg1(n=64, wg=8),
    "MVT2": lambda: make_mvt2(n=64, wg=8),
}

#: build-cold: synthetic launch geometry (the smallest Table-4 shape keeps
#: the launch itself cheap, so build, analysis and verification dominate)
SYNTHETIC_SIZE = 16
SYNTHETIC_WG = 16

#: build-cold: the (access pattern, work dimension) slots of the synthetic
#: draw — every Table-4 pattern at work dimension 1 and five of them at
#: work dimension 2 (2-D launch verification costs 0.5-4 s per kernel).
#: The pattern and the dimension set a kernel's build and verification
#: cost; the seed picks the data type and the constant-factor count of each
#: slot, so every seed draws distinct sources with the same mix of costs.
#: The 4-D-matrix slots are the exception: their first launches take 1-4 s,
#: two thirds of a round, and the data type and constant count alone move
#: that by half, so they keep the first Table-4 variant (float, no
#: constants).
SYNTHETIC_SLOTS = (
    [(pattern, 1) for pattern in TABLE4_PATTERNS]
    + [(pattern, 2) for pattern in ("1mat3d", "2mat3d1R", "2mat3d1T",
                                    "2mat3d1C1R1T", "1mat4d1R")]
)

#: serve-graph: FDTD chain shape and client/worker counts
CHAIN_STEPS = 2
CHAIN_GRID = 8
CHAIN_WG = (4, 4)
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
#: single launches a client submits after each chain: half the registry,
#: so singles and chain members are about equally many
SINGLES_PER_CHAIN = 7
#: the timed region is cut into this many segments, calibrated between
SERVE_SEGMENTS = 10

SAXPY = """
__kernel void saxpy(__global float* X, __global float* Y, float a, int n)
{
    int i = get_global_id(0);
    if (i < n) Y[i] = a * X[i] + Y[i];
}
"""


def samples() -> defaultdict:
    """Timings in seconds, keyed by kernel (or source) label."""
    return defaultdict(list)


@dataclass
class Measurement:
    """What one timed region produced."""

    start: float = 0.0
    #: elapsed seconds of the timed region, as measured
    wall_s: float = 0.0
    #: seconds spent on the workload's operations, on the reference
    #: machine (calibration excluded; see ``stats.Clock``)
    busy_s: float = 0.0
    launches: int = 0
    latencies: defaultdict = field(default_factory=samples)
    builds: defaultdict = field(default_factory=samples)
    first_launches: defaultdict = field(default_factory=samples)
    speedups: list = field(default_factory=list)
    rounds: int = 0


@dataclass
class LaunchInput:
    """One kernel launch with its pristine inputs and expected outputs."""

    name: str
    workload: object
    pristine: dict
    expected: dict

    def fresh_args(self) -> dict:
        return {k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in self.pristine.items()}


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)


class _Bound:
    """A built program's kernel bound to host buffers it owns."""

    def __init__(self, context, item: LaunchInput, kernel):
        self.item = item
        self.kernel = kernel
        self.args = item.fresh_args()
        for param in kernel.param_names:
            value = self.args[param]
            kernel.set_arg(param, context.create_buffer(value)
                           if _is_array(value) else value)

    def restore(self) -> None:
        for name, value in self.item.pristine.items():
            if _is_array(value):
                np.copyto(self.args[name], value)


class Workload:
    name = ""
    verify_policy = "off"

    def __init__(self, seed: int, acct: Accounting):
        self.seed = seed
        self.acct = acct
        self.clock = Clock()
        self.rng = np.random.default_rng(seed)
        #: workload key -> simulator profile, and (workload key, setting)
        #: -> simulated (GPU-only, chosen) seconds
        self._profiles: dict = {}
        self._sim_times: dict = {}

    def prepare_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self, runtime) -> None:
        raise NotImplementedError

    def run(self, seconds: float, layers=None) -> Measurement:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared launch path -------------------------------------------------

    def _sim_speedup(self, workload, prediction, simulated, noise_tag) -> float:
        """GPU-only over Dopia's simulated time, including inference.

        Both times are recomputed here with ``simulate_execution`` from the
        launch's profile: the §8.3 GPU baseline (all PEs, no CPU) and the
        configuration the program chose, which must agree with the
        program's own ``simulated`` result.  ``noise_tag`` completes the
        noise key the way the program's caller does.
        """
        config = prediction.config
        self.acct.check(config in CONFIGS,
                        f"{workload.key}: chosen config outside the 44")
        key = (workload.key, config.setting)
        times = self._sim_times.get(key)
        if times is None:
            profile = self._profile(workload)
            times = self._sim_times[key] = tuple(
                simulate_execution(
                    profile, PLATFORM, setting, scheduler="dynamic",
                    chunk_divisor=CHUNK_DIVISOR,
                    run_key=(workload.kernel_name, noise_tag)).time_s
                for setting in (GPU_ONLY, config.setting))
        gpu_only, chosen = times
        self.acct.check(math.isclose(chosen, simulated.time_s, rel_tol=1e-9),
                        f"{workload.key}: simulated time disagrees")
        return gpu_only / (chosen + prediction.inference_cost_s)

    def _input(self, name, workload, reference=None) -> LaunchInput:
        """Seeded buffers for one launch, its expected outputs and (cached
        for the speed-up check) its simulator profile."""
        args = workload.full_args(self.rng)
        before = {k: (v.copy() if _is_array(v) else v) for k, v in args.items()}
        expected = (reference or KERNEL_REFERENCES[workload.kernel_name])(before)
        self._profile(workload)
        return LaunchInput(name=name, workload=workload, pristine=args,
                           expected=expected)

    def _profile(self, workload):
        """The launch's simulator profile, computed once per workload key
        (the first time during set-up, so the traced layers never see the
        benchmark's own analysis)."""
        profile = self._profiles.get(workload.key)
        if profile is None:
            profile = self._profiles[workload.key] = workload.profile()
        return profile

    def _event_speedup(self, item: LaunchInput, event) -> float:
        details = event.details
        return self._sim_speedup(item.workload, details["prediction"],
                                 details["result"], "dopia")

    def _build(self, context, item: LaunchInput, out: defaultdict):
        self.acct.attempt("build")
        try:
            start = time.perf_counter()
            program = context.create_program_with_source(
                item.workload.source).build()
            out[item.name].append((time.perf_counter() - start)
                                  * self.clock.factor)
            kernel = program.create_kernel(item.workload.kernel_name)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self.acct.fail("build", error)
            return None
        return _Bound(context, item, kernel)

    def _launch(self, queue, bound: _Bound, out: defaultdict):
        """One checked enqueue; returns the event or None on failure."""
        item = bound.item
        self.acct.attempt("launch")
        try:
            start = time.perf_counter()
            event = queue.enqueue_nd_range_kernel(
                bound.kernel, item.workload.global_size,
                item.workload.local_size,
                irregular_trip_hint=item.workload.irregular_trip_hint)
            out[item.name].append((time.perf_counter() - start)
                                  * self.clock.factor)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self.acct.fail("launch", error)
            return None
        self.acct.check(matches(bound.args, item.expected),
                        f"{item.name} launch output")
        return event


class AppWorkload(Workload):
    """An interposed OpenCL application launching its kernels round-robin."""

    factories: dict = {}

    def prepare_inputs(self) -> None:
        names = list(self.factories)
        order = self.rng.permutation(len(names))
        self.items = [
            self._input(names[i], self.factories[names[i]]())
            for i in order
        ]
        self.setup_builds = samples()
        self.setup_first = samples()

    def warm_up(self, runtime) -> None:
        self.runtime = runtime
        self.context = cl.create_context(PLATFORM.name)
        self.queue = cl.create_command_queue(self.context)
        self.bound = []
        with cl.interposed(runtime):
            for item in self.items:
                self.clock.calibrate()
                bound = self._build(self.context, item, self.setup_builds)
                if bound is None:
                    continue
                self._launch(self.queue, bound, self.setup_first)
                self.bound.append(bound)

    def run(self, seconds: float, layers=None) -> Measurement:
        m = Measurement(builds=self.setup_builds,
                        first_launches=self.setup_first)
        start = m.start = time.perf_counter()
        with cl.interposed(self.runtime):
            while True:
                self.clock.calibrate()
                round_start = time.perf_counter()
                for bound in self.bound:
                    bound.restore()
                    event = self._launch(self.queue, bound, m.latencies)
                    if event is not None:
                        m.launches += 1
                        m.speedups.append(self._event_speedup(bound.item, event))
                m.busy_s += (time.perf_counter() - round_start) * self.clock.factor
                m.rounds += 1
                if time.perf_counter() - start >= seconds:
                    break
        m.wall_s = time.perf_counter() - start
        return m


class AppCpu(AppWorkload):
    name = "app-cpu"
    factories = APP_CPU_FACTORIES


class AppCoexec(AppWorkload):
    name = "app-coexec"
    factories = APP_COEXEC_FACTORIES


def draw_synthetic(rng) -> list:
    """One Table-4 spec per slot, data type and constant count drawn."""
    specs = []
    for pattern, dim in SYNTHETIC_SLOTS:
        if SyntheticSpec.from_pattern(pattern).beta == 4:
            dtype, gamma = TABLE4_DTYPES[0], TABLE4_GAMMAS[0]
        else:
            dtype = TABLE4_DTYPES[rng.integers(len(TABLE4_DTYPES))]
            gamma = TABLE4_GAMMAS[rng.integers(len(TABLE4_GAMMAS))]
        specs.append(SyntheticSpec.from_pattern(pattern, dim=dim,
                                                dtype=dtype, gamma=gamma))
    return specs


class BuildCold(Workload):
    """Fresh builds and first launches under ``DOPIA_VERIFY=raise``."""

    name = "build-cold"
    verify_policy = "raise"

    def prepare_inputs(self) -> None:
        items = []
        for spec in draw_synthetic(self.rng):
            workload = make_synthetic(spec, size=SYNTHETIC_SIZE,
                                      wg_items=SYNTHETIC_WG)
            items.append(self._input(
                workload.key, workload,
                reference=lambda a, s=spec: synthetic_reference(s, a)))
        for name, factory in SCALED_REAL_FACTORIES.items():
            items.append(self._input(name, factory()))
        order = self.rng.permutation(len(items))
        self.items = [items[i] for i in order]

    def warm_up(self, runtime) -> None:
        # Nothing of the draw is built here: the timed region must see
        # every source cold.  One throwaway kernel loads the lazily
        # imported build and launch machinery.
        self.runtime = runtime
        self.context = cl.create_context(PLATFORM.name)
        self.queue = cl.create_command_queue(self.context)
        with cl.interposed(runtime):
            program = self.context.create_program_with_source(SAXPY).build()
            kernel = program.create_kernel("saxpy")
            x, y = np.arange(64.0), np.ones(64)
            kernel.set_args(self.context.create_buffer(x),
                            self.context.create_buffer(y), 2.0, 64)
            self.queue.enqueue_nd_range_kernel(kernel, (64,), (16,))
        self.acct.check(np.allclose(y, 2.0 * x + 1.0), "warm-up saxpy")

    def run(self, seconds: float, layers=None) -> Measurement:
        m = Measurement()
        start = m.start = time.perf_counter()
        with cl.interposed(self.runtime):
            while True:
                for item in self.items:
                    self.clock.calibrate()
                    item_start = time.perf_counter()
                    bound = self._build(self.context, item, m.builds)
                    if bound is not None:
                        event = self._launch(self.queue, bound, m.latencies)
                        if event is not None:
                            m.launches += 1
                            m.speedups.append(self._event_speedup(item, event))
                    m.busy_s += ((time.perf_counter() - item_start)
                                 * self.clock.factor)
                m.rounds += 1
                if time.perf_counter() - start >= seconds:
                    break
        m.wall_s = time.perf_counter() - start
        m.first_launches = m.latencies
        return m


class ServeGraph(Workload):
    """A functional, load-aware ``DopiaServer`` with two closed-loop clients."""

    name = "serve-graph"

    def prepare_inputs(self) -> None:
        self.items = [self._input(name, factory())
                      for name, factory in SCALED_REAL_FACTORIES.items()]
        self.chain_seeds = iter(range(self.seed * 1_000_000,
                                      (self.seed + 1) * 1_000_000))
        self.chain_lock = threading.Lock()
        self.server = None
        self.setup_builds = samples()
        self.setup_first = samples()
        # Each client launches the registry in its own seeded order,
        # reshuffled after every pass, so a run mixes many pairings of
        # concurrently served kernels (which set the load each launch sees)
        # instead of repeating one.
        self.client_rngs = [np.random.default_rng([self.seed, i])
                            for i in range(SERVE_CLIENTS)]
        self.client_queues = [[] for _ in range(SERVE_CLIENTS)]

    def _next_single(self, client: int) -> LaunchInput:
        queue = self.client_queues[client]
        if not queue:
            queue.extend(self.client_rngs[client].permutation(len(self.items)))
        return self.items[queue.pop()]

    def _chain(self):
        with self.chain_lock:
            seed = next(self.chain_seeds)
        return make_fdtd_chain(steps=CHAIN_STEPS, grid=CHAIN_GRID,
                               wg=CHAIN_WG, seed=seed)

    def warm_up(self, runtime) -> None:
        self.close()
        # The client compiles its kernel sources before submitting them.
        context = cl.create_context(PLATFORM.name)
        with cl.interposed(runtime):
            for item in self.items:
                self.clock.calibrate()
                self._build(context, item, self.setup_builds)
        self.server = DopiaServer.from_runtime(
            runtime, workers=SERVE_WORKERS, functional=True, simulate=True,
            load_aware=True, dwell_scale=0.0)
        session = self.server.session("warm-up")
        for item in self.items:
            self.clock.calibrate()
            self._single(session, item, self.setup_first)
        self._graph(session, samples(), None)

    def _single(self, session, item: LaunchInput, latencies: defaultdict,
                speedups: list | None = None, layers=None):
        args = item.fresh_args()
        self.acct.attempt("launch")
        try:
            result = session.launch(item.workload, args).result(timeout=120)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self.acct.fail("launch", error)
            return 0
        latencies[item.name].append(result.latency_s * self.clock.factor)
        self._check_result(item.name, result, item.workload)
        self.acct.check(matches(args, item.expected), f"{item.name} served output")
        if speedups is not None:
            speedups.append(self._served_speedup(item.workload, result))
        if layers is not None:
            layers.note_served(result)
        return 1

    def _served_speedup(self, workload, result) -> float:
        return self._sim_speedup(workload, result.prediction, result.sim,
                                 "serve")

    def _graph(self, session, latencies: defaultdict,
               speedups: list | None = None, layers=None) -> int:
        chain = self._chain()
        self.acct.attempt("chain")
        try:
            results = self.server.submit_chain(session, chain).result(timeout=120)
        except Exception as error:  # noqa: BLE001 - counted, run continues
            self.acct.fail("chain", error)
            return 0
        by_key = {task.key: task for task in chain.tasks}
        for key, result in results.items():
            latencies[f"chain/{result.kernel}"].append(
                result.latency_s * self.clock.factor)
            self._check_result(f"chain {key}", result, by_key[key].workload)
            if speedups is not None:
                speedups.append(self._served_speedup(by_key[key].workload,
                                                     result))
            if layers is not None:
                layers.note_served(result)
        self.acct.check(chain.verify(), f"{chain.name} chain output")
        return len(results)

    def _check_result(self, what, result, workload) -> None:
        trace = result.trace
        groups = workload.ndrange().total_groups
        covered = sorted(trace.cpu_groups + trace.gpu_groups) if trace else []
        self.acct.check(covered == list(range(groups)),
                        f"{what}: schedule does not cover every work-group once")
        self.acct.check(result.prediction.config in CONFIGS,
                        f"{what}: chosen config outside the 44")

    def run(self, seconds: float, layers=None) -> Measurement:
        """Closed-loop clients, in segments with the machine calibrated
        between them while every client is idle (a calibration that
        competes with the clients for the interpreter would time them)."""
        m = Measurement(builds=self.setup_builds,
                        first_launches=self.setup_first)
        sessions = [self.server.session(f"client-{i}-{id(m)}")
                    for i in range(SERVE_CLIENTS)]
        per_client = [Measurement() for _ in range(SERVE_CLIENTS)]
        errors = []

        def client(index: int, deadline: float) -> None:
            session, out = sessions[index], per_client[index]
            try:
                while True:
                    out.launches += self._graph(session, out.latencies,
                                                out.speedups, layers)
                    for _ in range(SINGLES_PER_CHAIN):
                        out.launches += self._single(
                            session, self._next_single(index), out.latencies,
                            out.speedups, layers)
                    out.rounds += 1
                    if time.perf_counter() >= deadline:
                        break
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        m.start = time.perf_counter()
        for _ in range(SERVE_SEGMENTS):
            self.clock.calibrate(runs=3)
            segment_start = time.perf_counter()
            deadline = segment_start + seconds / SERVE_SEGMENTS
            threads = [threading.Thread(target=client, args=(i, deadline),
                                        daemon=True)
                       for i in range(SERVE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("serve-graph clients did not finish")
            m.busy_s += ((time.perf_counter() - segment_start)
                         * self.clock.factor)
            if errors:
                raise errors[0]
        m.wall_s = time.perf_counter() - m.start
        for out in per_client:
            m.launches += out.launches
            m.rounds += out.rounds
            m.speedups += out.speedups
            for label, values in out.latencies.items():
                m.latencies[label] += values
        return m

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (AppCpu, AppCoexec, BuildCold, ServeGraph)}
