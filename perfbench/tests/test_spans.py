"""Tests of the benchmark-side tracing and of BENCHMARK.json's shape.

Run: ``python3 -m pytest perfbench/tests -q``
"""

import asyncio
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
from stats import valid_metric_name, valid_unit  # noqa: E402


@pytest.fixture
def fake_module():
    """A ``repro``-named module with a function, a method, an iterator
    and a coroutine, plus a second module that imported the function."""
    module = types.ModuleType("repro_benchfake")
    # defined in the module's namespace so ``stage`` looks ``inner`` up
    # as a module global, as real code does
    exec("def stage(x):\n    return inner(x) + 1\n\n"
         "def inner(x):\n    return x * 2\n", module.__dict__)

    class Worker:
        def step(self):
            return "stepped"

        def __iter__(self):
            return iter([1, 2, 3])

        async def infer(self):
            await asyncio.sleep(0)
            return "answer"

    module.Worker = Worker
    importer = types.ModuleType("repro_benchfake_user")
    importer.stage = module.stage
    sys.modules["repro_benchfake"] = module
    sys.modules["repro_benchfake_user"] = importer
    yield module, importer
    del sys.modules["repro_benchfake"], sys.modules["repro_benchfake_user"]


def test_install_wraps_records_and_uninstalls(fake_module):
    module, importer = fake_module
    recorder = spans.Recorder(run_id="run-1")
    targets = [("repro_benchfake.stage", "stage", None, None),
               ("repro_benchfake.inner", "inner", None,
                lambda args, kwargs, result: {"result": result}),
               ("repro_benchfake.Worker.step", "step", None, None),
               ("repro_benchfake.Worker.__iter__", "nn.loader_wait", None, None),
               ("repro_benchfake.Worker.infer", "infer", None, None)]
    original_stage = module.stage
    uninstall = spans.install(recorder, targets)
    try:
        assert importer.stage is module.stage is not original_stage
        assert importer.stage(3) == 7
        worker = module.Worker()
        assert worker.step() == "stepped"
        assert list(worker) == [1, 2, 3]
        assert asyncio.run(worker.infer()) == "answer"
    finally:
        uninstall()
    assert module.stage is original_stage and importer.stage is original_stage
    assert module.Worker().step() == "stepped"
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    assert set(by_name) == {"stage", "inner", "step", "nn.loader_wait", "infer"}
    stage_span, inner_span = by_name["stage"][0], by_name["inner"][0]
    assert inner_span.parent == stage_span.id        # caused by the stage
    assert inner_span.attrs == {"result": 6}
    assert stage_span.start <= inner_span.start <= inner_span.end <= stage_span.end
    assert len(by_name["nn.loader_wait"]) == 4       # three items + exhaustion
    assert by_name["infer"][0].parent is None        # coroutines are roots
    assert {s.run for s in recorder.spans} == {"run-1"}
    assert spans.owner_pid(stage_span.id) == os.getpid()


def test_kernel_hook_and_round_trip(tmp_path):
    recorder = spans.Recorder(run_id="r")
    recorder.on_kernel("fast", "im2col", 0.5, 100)
    recorder.on_kernel("fast", "im2col", 0.25, 50)
    with_span = recorder.begin("pipeline.train")
    recorder.end(with_span)
    path = str(tmp_path / "main.json")
    recorder.write(path)
    loaded, kernels = spans.load_records([path])
    assert [s.name for s in loaded] == ["pipeline.train"]
    assert kernels == {"im2col": [2, 0.75, 150]}
    metrics = spans.kernel_metrics(kernels)
    assert metrics["backend.kernel_calls"] == 2
    assert metrics["backend.im2col.s"] == 0.75
    assert metrics["backend.kernel_bytes"] == 150


def test_stage_and_step_metrics_per_operation():
    S = spans.Span
    trace = [S(1, "pipeline.train", 0.0, 10.0),
             S(2, "pipeline.forward_backward", 1.0, 5.0, parent=1),
             S(3, "autograd.backward", 3.0, 5.0, parent=2),
             S(4, "nn.optim_step", 5.0, 6.0, parent=1),
             S(5, "quantization.quantize", 10.0, 12.0)]
    stages = spans.stage_metrics(trace, per=2)
    assert stages["pipeline.train_s"] == pytest.approx(5.0)
    assert stages["quantization.quantize_s"] == pytest.approx(1.0)
    steps = spans.step_metrics(trace, per=2)
    assert steps["pipeline.forward_backward_s"] == pytest.approx(1.0)
    assert steps["autograd.backward_s"] == pytest.approx(1.0)
    assert steps["nn.steps"] == pytest.approx(0.5)


def test_pool_busy_fraction():
    S = spans.Span
    trace = [S(1, "parallel.pool.run", 0.0, 4.0,
               attrs={"workers": 2, "busy_s": 6.0, "retries": 1, "failed": 0})]
    metrics = spans.pool_metrics(trace)
    assert metrics["parallel.pool.busy_frac"] == pytest.approx(0.75)
    assert metrics["parallel.pool.retries"] == 1


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [m["name"] for m in bench["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run._per_layer())
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert valid_metric_name(metric["name"]) and valid_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for workload in bench["workloads"]:
        assert workload["name"] in run.WORKLOADS
        assert len(workload["why"]) <= 200
    assert all(os.path.isdir(os.path.join(ROOT, p)) for p in bench["paths"])
