"""The benchmark's span tracer still wraps and restores every module."""

import importlib.util
import math
import types
from pathlib import Path

import numpy as np
import pytest

import cfsgauge
from cfsgauge import cli, correlation, dirac_box, krein, wave_charts

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(tracing):
    """Every function still wrapped in a cfsgauge namespace or class."""
    found = []
    for name, module in tracing._modules().items():
        targets = [module] + [cls for cls in vars(module).values()
                              if isinstance(cls, type)
                              and cls.__module__ == module.__name__]
        for target in targets:
            for attr, value in vars(target).items():
                value = getattr(value, "__func__", value)
                if hasattr(value, "__perfbench_original__"):
                    found.append(f"{name}.{attr}")
    found += [attr for attr, value in vars(cfsgauge).items()
              if isinstance(value, types.FunctionType)
              and hasattr(value, "__perfbench_original__")]
    found += [key for key, value in cli.TASK_RUNNERS.items()
              if hasattr(value, "__perfbench_original__")]
    return found


def test_traced_gauge_counts_splits_and_restores(tracing):
    cfg = dirac_box.DiracBoxConfig(L=math.pi, eps=0.4, m=0.0)
    points = [cfg.point(0.0, (0.0, 0.0, 0.0)), cfg.point(0.1, (0.1, 0.0, 0.05))]
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        operators = dirac_box.build_correlation_map(cfg, points)
        gauge = wave_charts.build_gauge(correlation.spin_space(operators[0], 2),
                                        operators[1:])
    finally:
        restore()
    assert max(gauge.condition_residuals) <= 1e-9
    spans = recorder.summary()
    # box points are split from their wave values, the only split there is
    assert [name for name in spans if name.startswith("correlation.split")] == [
        "correlation.split_wave_values"]
    assert spans["correlation.split_wave_values"]["calls"] == 2
    assert spans["wave_charts.build_gauge"]["calls"] == 1
    assert wrapped_names(tracing) == []


def test_traced_stacked_sqrt_is_counted_and_restored(tracing):
    space = krein.KreinSpace(gram=np.array([np.diag([1.0, -1.0])] * 3),
                             signature=(1, 1))
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        root = krein.sqrt_near_identity(
            np.array([1.0, 1.1, 1.2])[:, None, None] * np.eye(2), space)
    finally:
        restore()
    assert root.method == "eig"
    assert recorder.sqrt_routes == {"eig": 1, "series": 0}
    assert recorder.summary()["krein.sqrt_near_identity"]["calls"] == 1
    assert wrapped_names(tracing) == []
