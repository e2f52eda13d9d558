"""Online adaptation: predictions demonstrably shift as the ledger fills.

The regression anchor for the serving layer's whole reason to exist —
feeding live ``CPU_util``/``GPU_util`` into the Table-1 feature vector
(and masking infeasible configurations) must *change the chosen DoP*
when the device is occupied, and must change nothing when it is idle.
"""

import numpy as np
import pytest

from repro.analysis.features import extract_static_features
from repro.core.predictor import DopPredictor
from repro.serve import DopiaServer
from repro.sim import DopSetting, KAVERI
from repro.workloads import SCALED_REAL_FACTORIES


@pytest.fixture()
def predictor(trained_model):
    return DopPredictor(trained_model, KAVERI)


def static_of(name="GESUMMV"):
    workload = SCALED_REAL_FACTORIES[name]()
    return workload, extract_static_features(workload.kernel_info())


def test_idle_load_is_offline_prediction(predictor):
    """Zero load reduces exactly to the single-client (offline) selection."""
    workload, static = static_of()
    idle = predictor.select(static, 1, workload.total_work_items,
                            workload.work_group_items)
    explicit = predictor.select(static, 1, workload.total_work_items,
                                workload.work_group_items,
                                cpu_load=0.0, gpu_load=0.0)
    assert idle.config == explicit.config
    assert np.array_equal(idle.scores, explicit.scores)


def test_load_shifts_feature_rows(predictor):
    """Live load lands in the Table-1 CPU_util/GPU_util columns, capped."""
    workload, static = static_of()
    geometry = (1, workload.total_work_items, workload.work_group_items)
    idle_rows = predictor.feature_rows(static, *geometry)
    loaded_rows = predictor.feature_rows(static, *geometry,
                                         cpu_load=0.5, gpu_load=0.875)
    assert np.array_equal(
        np.minimum(idle_rows[:, 9] + 0.5, 1.0), loaded_rows[:, 9])
    assert np.array_equal(
        np.minimum(idle_rows[:, 10] + 0.875, 1.0), loaded_rows[:, 10])
    # everything that is not a util column is load-independent
    assert np.array_equal(idle_rows[:, :9], loaded_rows[:, :9])
    assert loaded_rows[:, 9:].max() <= 1.0


def test_saturated_device_forces_different_config(predictor):
    """Saturating the device the idle choice uses must move the choice."""
    workload, static = static_of()
    geometry = (1, workload.total_work_items, workload.work_group_items)
    idle = predictor.select(static, *geometry)
    if idle.config.setting.uses_gpu:
        loaded = predictor.select(static, *geometry, gpu_load=1.0)
        assert not loaded.config.setting.uses_gpu
    else:
        loaded = predictor.select(static, *geometry, cpu_load=1.0)
        assert loaded.config.setting.cpu_threads == 0
    assert loaded.config != idle.config


def test_all_infeasible_falls_back_to_unmasked_argmax(predictor):
    """A fully saturated machine oversubscribes instead of deadlocking."""
    workload, static = static_of()
    geometry = (1, workload.total_work_items, workload.work_group_items)
    assert not predictor.feasible_mask(1.0, 1.0).any()
    saturated = predictor.select(static, *geometry, cpu_load=1.0, gpu_load=1.0)
    # no masking applied: the choice is the plain argmax of the loaded scores
    assert saturated.config is predictor.configs[int(np.argmax(saturated.scores))]


def test_server_adapts_under_ledger_load(trained_model):
    """End to end: a held lease changes the *served* prediction."""
    workload = SCALED_REAL_FACTORIES["GESUMMV"]()
    with DopiaServer(KAVERI, trained_model, workers=1,
                     backend="jit") as server:
        session = server.session()
        idle_result = session.launch(workload, rng_seed=0).result(timeout=120)
        idle_setting = idle_result.prediction.config.setting

        # occupy whichever device the idle choice wants, then serve again
        if idle_setting.uses_gpu:
            occupying = DopSetting(cpu_threads=0, gpu_fraction=1.0)
        else:
            occupying = DopSetting(
                cpu_threads=server.platform.cpu.threads, gpu_fraction=0.0)
        lease = server.ledger.acquire(occupying)
        try:
            loaded_result = session.launch(workload, rng_seed=0).result(timeout=120)
        finally:
            server.ledger.release(lease)

        assert not loaded_result.load.idle
        assert loaded_result.prediction.config != idle_result.prediction.config
        with server.stats._lock:
            assert server.stats.loaded_predictions >= 1
            assert server.stats.adapted_predictions >= 1


def test_prediction_cache_is_per_load_bucket(trained_model):
    """Identical launches under different loads hit different cache lines."""
    workload = SCALED_REAL_FACTORIES["GESUMMV"]()
    with DopiaServer(KAVERI, trained_model, workers=1,
                     backend="jit") as server:
        session = server.session()
        session.launch(workload, rng_seed=0).result(timeout=120)
        repeat = session.launch(workload, rng_seed=0).result(timeout=120)
        assert repeat.cache_hit  # same bucket -> LRU hit

        lease = server.ledger.acquire(DopSetting(cpu_threads=0, gpu_fraction=1.0))
        try:
            loaded = session.launch(workload, rng_seed=0).result(timeout=120)
        finally:
            server.ledger.release(lease)
        assert not loaded.cache_hit  # new bucket -> distinct entry
        loaded_again_lease = server.ledger.acquire(
            DopSetting(cpu_threads=0, gpu_fraction=1.0))
        try:
            loaded_repeat = session.launch(workload, rng_seed=0).result(timeout=120)
        finally:
            server.ledger.release(loaded_again_lease)
        assert loaded_repeat.cache_hit  # same loaded bucket -> hit
