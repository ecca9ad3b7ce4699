"""Benchmark-side tracing: spans around the program's public entry points.

:func:`install` replaces each public function or method named in
:data:`TARGETS` by a wrapper that records a span (name, start, end,
parent, run id) into a :class:`Recorder`, and installs a kernel hook
through the registry's public ``set_kernel_hook``.  The program itself
is not changed; spans stay in memory and are written out at the end.

Forked children (pool workers) inherit the wrappers.  A child writes its
spans to ``<flush_dir>/spans-<pid>.json`` when one of its *flush roots*
(a span whose parent lives in another process, named in
:data:`FLUSH_ROOTS`) closes, because forked workers leave through
``os._exit`` and never reach the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from stats import Span, self_time_by_name

_PID_STRIDE = 10 ** 7  # span ids are pid * stride + counter
_MAX_SPANS = 500_000  # per process; spans past this are dropped


def owner_pid(span_id: int) -> int:
    return span_id // _PID_STRIDE


def _pool_summary(args, kwargs, outcomes) -> Dict[str, Any]:
    pool = args[0]
    return {
        "workers": int(pool.max_workers),
        "busy_s": float(sum(o.duration_s for o in outcomes)),
        "retries": int(sum(max(0, o.attempts - 1) for o in outcomes)),
        "failed": int(sum(1 for o in outcomes if not o.ok)),
    }


def _ddp_summary(args, kwargs, summary) -> Dict[str, Any]:
    return {key: summary[key] for key in
            ("steps", "allreduce_s", "barrier_s", "bytes_moved")}


_ddp_started: "weakref.WeakSet" = weakref.WeakSet()


def _ddp_first(args, kwargs) -> Dict[str, Any]:
    """Marks a group's first ``begin_epoch``, the one that forks."""
    first = args[0] not in _ddp_started
    _ddp_started.add(args[0])
    return {"first": first}


def _shard_result(args, kwargs, result) -> Dict[str, Any]:
    return {"handler_s": float(result.duration_s), "ok": bool(result.ok)}


def _request_id(args, kwargs) -> Dict[str, Any]:
    return {"request": kwargs.get("request_id")}


#: (dotted path, span name, attrs-before-call, attrs-from-result).
TARGETS: List[Tuple[str, str, Optional[Callable], Optional[Callable]]] = [
    ("repro.cli.main", "cli.main", None, None),
    ("repro.datasets.synthetic_digits.make_synthetic_digits",
     "datasets.generate", None, None),
    ("repro.datasets.synthetic_cifar.make_synthetic_cifar",
     "datasets.generate", None, None),
    ("repro.datasets.synthetic_faces.make_synthetic_faces",
     "datasets.generate", None, None),
    ("repro.datasets.splits.train_test_split", "datasets.generate", None, None),
    ("repro.preprocessing.selection.select_encoding_targets",
     "preprocessing.select", None, None),
    ("repro.pipeline.attack_flow.run_quantized_correlation_attack",
     "pipeline.attack", None, None),
    ("repro.pipeline.trainer.Trainer.train", "pipeline.train", None, None),
    ("repro.pipeline.baselines.quantize_model_for_attack",
     "quantization.quantize", None, None),
    ("repro.quantization.base.apply_quantization",
     "quantization.quantize", None, None),
    ("repro.quantization.finetune.finetune_quantized",
     "quantization.finetune", None, None),
    ("repro.pipeline.evaluation.evaluate_attack", "pipeline.evaluate",
     None, None),
    ("repro.pipeline.trainer.StepRunner.forward_backward",
     "pipeline.forward_backward", None, None),
    ("repro.autograd.tensor.Tensor.backward", "autograd.backward", None, None),
    ("repro.attacks.layerwise.LayerwiseCorrelationPenalty.__call__",
     "attacks.penalty", None, None),
    ("repro.nn.optim.SGD.step", "nn.optim_step", None, None),
    ("repro.nn.dataloader.DataLoader.__iter__", "nn.loader_wait", None, None),
    ("repro.parallel.ddp.DDPContext.begin_epoch", "parallel.ddp.begin_epoch",
     _ddp_first, None),
    ("repro.parallel.ddp.DDPContext.rank0_step", "parallel.ddp.rank0_step",
     None, None),
    ("repro.parallel.ddp.DDPContext.finish_step", "parallel.ddp.finish_step",
     None, None),
    ("repro.parallel.ddp.DDPContext.end_epoch", "parallel.ddp.end_epoch",
     None, _ddp_summary),
    ("repro.parallel.pool.WorkerPool.run", "parallel.pool.run",
     None, _pool_summary),
    ("repro.parallel.shards.ShardPool.request", "parallel.shards.request",
     None, _shard_result),
    ("repro.serve.server.ModelServer.infer", "serve.infer", _request_id,
     None),
]

#: Child-process spans whose close writes the child's spans to disk.
FLUSH_ROOTS = frozenset({"pipeline.attack"})

#: Stage-level span names: their self times exclude nested stages only.
STAGES = ("datasets.generate", "preprocessing.select", "pipeline.train",
          "quantization.quantize", "quantization.finetune",
          "pipeline.evaluate", "pipeline.attack")

#: Step-level span names (one training step and what it is made of).
STEP_PARTS = ("pipeline.forward_backward", "autograd.backward",
              "attacks.penalty", "nn.optim_step", "nn.loader_wait")


class Recorder:
    """In-memory span and kernel-counter store for one benchmark run."""

    def __init__(self, run_id: str, flush_dir: Optional[str] = None) -> None:
        self.run_id = run_id
        self.flush_dir = flush_dir
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.kernels: Dict[str, List[float]] = {}  # kernel -> [calls, s, bytes]
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------ spans
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        return os.getpid() * _PID_STRIDE + next(self._ids)

    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None,
              nested: bool = True) -> Span:
        """Open a span.  ``nested=False`` makes it a root that is not
        pushed on the thread's stack (for coroutines that interleave)."""
        stack = self._stack()
        parent = stack[-1] if (nested and stack) else None
        span = Span(self._new_id(), name, time.perf_counter(), 0.0,
                    parent=parent, run=self.run_id, attrs=dict(attrs or {}))
        if nested:
            stack.append(span.id)
        return span

    def end(self, span: Span, nested: bool = True) -> None:
        span.end = time.perf_counter()
        if nested:
            stack = self._stack()
            if stack and stack[-1] == span.id:
                stack.pop()
        if len(self.spans) < _MAX_SPANS:
            self.spans.append(span)
        if (os.getpid() != self.pid and span.name in FLUSH_ROOTS
                and (span.parent is None
                     or owner_pid(span.parent) != os.getpid())):
            self.flush_child()

    # ---------------------------------------------------------- kernels
    def on_kernel(self, backend: str, kernel: str, seconds: float,
                  nbytes: int) -> None:
        entry = self.kernels.get(kernel)
        if entry is None:
            entry = self.kernels[kernel] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += nbytes

    # ------------------------------------------------------------ output
    def to_dict(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.run, s.attrs]
                      for s in self.spans],
            "kernels": self.kernels,
        }

    def flush_child(self) -> None:
        """Append this child's spans to its own file and forget them."""
        if self.flush_dir is None:
            return
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.json")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict()) + "\n")
        self.spans = []
        self.kernels = {}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict()) + "\n")


def load_records(paths: Iterable[str]) -> Tuple[List[Span], Dict[str, List[float]]]:
    """Read spans and kernel counters written by :meth:`Recorder.write`
    or :meth:`Recorder.flush_child` (one JSON object per line)."""
    spans: List[Span] = []
    kernels: Dict[str, List[float]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                spans.extend(Span(*row) for row in record["spans"])
                merge_kernels(kernels, record["kernels"])
    return spans, kernels


def merge_kernels(into: Dict[str, List[float]],
                  other: Dict[str, List[float]]) -> None:
    for kernel, (calls, seconds, nbytes) in other.items():
        entry = into.setdefault(kernel, [0, 0.0, 0])
        entry[0] += calls
        entry[1] += seconds
        entry[2] += nbytes


# ------------------------------------------------------------- wrapping
def _wrap(fn: Callable, name: str, recorder: Recorder,
          before: Optional[Callable], after: Optional[Callable],
          per_item: bool) -> Callable:
    """A span per call; for an ``__iter__`` (``per_item``), a span per
    item fetched, which is the time the consumer waits for it."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper_async(*args, **kwargs):
            span = recorder.begin(name, before(args, kwargs) if before
                                  else None, nested=False)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.end(span, nested=False)
        return wrapper_async

    if per_item:
        @functools.wraps(fn)
        def wrapper_iter(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                span = recorder.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.end(span)
                yield item
        return wrapper_iter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name, before(args, kwargs) if before else None)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result
        finally:
            recorder.end(span)
    return wrapper


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute, current value) for a dotted path whose
    owner is a module or a class inside a module."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[split:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(path)


def install(recorder: Recorder,
            targets: Iterable[Tuple[str, str, Optional[Callable],
                                    Optional[Callable]]] = TARGETS,
            ) -> Callable[[], None]:
    """Wrap every target and install the kernel hook; returns an undo.

    A module-level function is replaced in its own module and in every
    loaded ``repro`` module that imported it by name.
    """
    undo: List[Tuple[Any, str, Any]] = []
    for path, name, before, after in targets:
        owner, attr, original = _resolve(path)
        wrapped = _wrap(original, name, recorder, before, after,
                        per_item=attr == "__iter__")
        if inspect.isclass(owner):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)
            continue
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                undo.append((module, attr, original))
                setattr(module, attr, wrapped)
    from repro.backend import registry
    previous_hook = registry.set_kernel_hook(recorder.on_kernel)

    def uninstall() -> None:
        registry.set_kernel_hook(previous_hook)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# ------------------------------------------------------ layer metrics
def sum_attr(spans: Iterable[Span], name: str, attr: str) -> float:
    return float(sum(s.attrs.get(attr, 0) for s in spans if s.name == name))


def total_time(spans: Iterable[Span], name: str) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def count(spans: Iterable[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


#: Kernels reported one by one (the top kernels by time on the training
#: workloads); every other kernel is still in the ``backend.kernel_*``
#: totals.
TOP_KERNELS = ("conv2d_backward", "conv2d_forward", "im2col",
               "batchnorm_train_backward", "batchnorm_stats",
               "batchnorm_train_forward")


def kernel_metrics(kernels: Dict[str, List[float]]) -> Dict[str, float]:
    metrics = {
        "backend.kernel_calls": float(sum(k[0] for k in kernels.values())),
        "backend.kernel_s": float(sum(k[1] for k in kernels.values())),
        "backend.kernel_bytes": float(sum(k[2] for k in kernels.values())),
    }
    for kernel in TOP_KERNELS:
        calls, seconds, _ = kernels.get(kernel, (0, 0.0, 0))
        metrics[f"backend.{kernel}.calls"] = float(calls)
        metrics[f"backend.{kernel}.s"] = float(seconds)
    return metrics


_STAGE_METRICS = {
    "datasets.generate": "datasets.generate_s",
    "preprocessing.select": "preprocessing.select_s",
    "pipeline.train": "pipeline.train_s",
    "quantization.quantize": "quantization.quantize_s",
    "quantization.finetune": "quantization.finetune_s",
    "pipeline.evaluate": "pipeline.evaluate_s",
}

_STEP_METRICS = {
    "pipeline.forward_backward": "pipeline.forward_backward_s",
    "autograd.backward": "autograd.backward_s",
    "attacks.penalty": "attacks.penalty_s",
    "nn.optim_step": "nn.optim_step_s",
    "nn.loader_wait": "nn.loader_wait_s",
}


def stage_metrics(spans: List[Span], per: int) -> Dict[str, float]:
    """Stage self times (nested stages subtracted), per operation."""
    selfs = self_time_by_name(spans, keep=STAGES)
    return {metric: selfs.get(name, 0.0) / per
            for name, metric in _STAGE_METRICS.items()}


def step_metrics(spans: List[Span], per: int) -> Dict[str, float]:
    """Training-step self times, per operation: forward+loss is the
    forward/backward window minus the backward and penalty inside it."""
    selfs = self_time_by_name(spans, keep=STEP_PARTS)
    metrics = {metric: selfs.get(name, 0.0) / per
               for name, metric in _STEP_METRICS.items()}
    metrics["nn.steps"] = count(spans, "nn.optim_step") / per
    return metrics


def ddp_metrics(spans: List[Span], per: int) -> Dict[str, float]:
    """Data-parallel costs per operation; ``start_s`` is the first
    ``begin_epoch`` of each group (fork and arena)."""
    start = sum(s.duration for s in spans
                if s.name == "parallel.ddp.begin_epoch" and s.attrs.get("first"))
    return {
        "parallel.ddp.start_s": start / per,
        "parallel.ddp.rank0_step_s":
            total_time(spans, "parallel.ddp.rank0_step") / per,
        "parallel.ddp.finish_step_s":
            total_time(spans, "parallel.ddp.finish_step") / per,
        "parallel.ddp.end_epoch_s":
            total_time(spans, "parallel.ddp.end_epoch") / per,
        "parallel.ddp.allreduce_s":
            sum_attr(spans, "parallel.ddp.end_epoch", "allreduce_s") / per,
        "parallel.ddp.barrier_s":
            sum_attr(spans, "parallel.ddp.end_epoch", "barrier_s") / per,
        "parallel.ddp.bytes_moved":
            sum_attr(spans, "parallel.ddp.end_epoch", "bytes_moved") / per,
        "parallel.ddp.steps":
            sum_attr(spans, "parallel.ddp.end_epoch", "steps") / per,
    }


def pool_metrics(spans: List[Span]) -> Dict[str, float]:
    """Worker-pool wall time, busy share, retries and failed tasks,
    summed over every ``WorkerPool.run`` call."""
    runs = [s for s in spans if s.name == "parallel.pool.run"]
    run_s = sum(s.duration for s in runs)
    capacity = sum(s.duration * s.attrs.get("workers", 1) for s in runs)
    return {
        "parallel.pool.run_s": run_s,
        "parallel.pool.busy_frac":
            sum_attr(runs, "parallel.pool.run", "busy_s") / capacity
            if capacity else 0.0,
        "parallel.pool.retries": sum_attr(runs, "parallel.pool.run", "retries"),
        "parallel.pool.failed": sum_attr(runs, "parallel.pool.run", "failed"),
    }
