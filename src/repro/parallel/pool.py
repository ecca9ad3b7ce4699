"""Process-pool task execution with structured failure records.

:class:`WorkerPool` runs a list of :class:`Task`\\ s across worker
processes and returns one :class:`TaskOutcome` per task, in task order.
It is built for experiment fan-out (sweep points, baseline arms,
finite-difference probes), so its failure model is per-task, never
pool-wide:

* a task that **raises** produces an ``error_kind="exception"`` outcome
  and its siblings keep running;
* a worker that **crashes** (segfault, ``os._exit``) loses only its
  current task, which is retried up to ``retries`` times before an
  ``error_kind="crash"`` outcome is recorded;
* a task that exceeds the per-task **timeout** gets its worker killed
  and is retried / recorded as ``error_kind="timeout"``.

Tasks run on :class:`~repro.parallel.worker.Worker` processes, up to
``max_workers`` at once; each worker runs chunks of task indices and is
replaced only after a crash or timeout.  Workers are spawn-safe: tasks
reach the child inside the worker's ``init_fn`` and are pickled when
the start method requires it.  When ``max_workers <= 1``, the platform
has no usable start method, or the tasks cannot be pickled under a
non-fork start method, the pool runs them on an in-process
:class:`~repro.parallel.worker.InlineWorker` with identical outcome
semantics (timeouts cannot preempt in-process and are ignored there).

Each task's reply carries the worker's typed metrics snapshot, merged
into the parent registry and attached to the outcome.  Inside a
:func:`repro.telemetry.profile` region workers also ship per-kernel
stats, and when the parent has a trace recorder active they ship spans
aligned to its timeline, so one pooled run renders as a single
multi-lane Chrome trace.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.parallel.worker import InlineWorker, Reply, Worker
from repro.telemetry.metrics import default_registry
from repro.telemetry.profiler import active_profile
from repro.telemetry.trace import current_trace_context, span


@dataclass
class Task:
    """One unit of work: ``fn(*args, **kwargs)`` returning any picklable value."""

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Mapping[str, Any]] = None


@dataclass
class TaskOutcome(Reply):
    """Structured result of one task attempt chain.

    The task's :class:`~repro.parallel.worker.Reply` -- where
    ``error_kind`` may also be ``"timeout"`` or ``"crash"`` -- plus its
    task ``index`` and ``attempts``, the executions including retries.
    ``telemetry``, ``kernels`` and ``spans`` stay empty in the serial
    fallback, where metrics, kernel calls and spans reach the parent
    directly.
    """

    index: int = -1
    attempts: int = 1


def cpu_workers() -> int:
    """Worker count auto-detected from the CPU count (always >= 1)."""
    return max(1, os.cpu_count() or 1)


#: Counter bumped per worker lost to each failure kind (read by
#: ``/health`` and the ``worker_death`` alert rule).
_FAILURE_COUNTERS = {"crash": "pool.worker_crashes",
                     "timeout": "pool.worker_timeouts"}


def _task_handler(tasks: Sequence[Task]) -> Callable[[int], Any]:
    """Worker ``init_fn``: the handler runs ``tasks[index]``."""
    def run(index: int) -> Any:
        task = tasks[index]
        with span("pool.task", index=index):
            return task.fn(*task.args, **dict(task.kwargs or {}))
    return run


@dataclass
class _Slot:
    """A live worker and the task indices sent to it, oldest first:
    ``queue[0]`` is running and started at ``since``."""

    worker: Worker
    queue: List[int] = field(default_factory=list)
    since: float = 0.0


class WorkerPool:
    """Chunked multi-process task runner with bounded retries.

    Args:
        max_workers: concurrent worker processes; ``None`` auto-detects
            from the CPU count; ``<= 1`` forces in-process serial
            execution.
        timeout: per-task wall-clock budget in seconds (``None`` = no
            limit).  A worker's startup time counts against its first
            task.  Ignored in the serial fallback.
        retries: how many times a crashed or timed-out task is re-run
            before a failure outcome is recorded (exceptions are never
            retried -- they are deterministic).
        chunk_size: tasks handed to a worker at a time; defaults to
            ``ceil(n / (workers * 4))`` for load balancing.
        start_method: multiprocessing start method override; defaults to
            ``fork`` when available (no pickling of task functions),
            else the platform default.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 chunk_size: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.max_workers = cpu_workers() if max_workers is None else int(max_workers)
        self.timeout = timeout
        self.retries = int(retries)
        self.chunk_size = chunk_size
        available = multiprocessing.get_all_start_methods()
        if start_method is not None and start_method not in available:
            raise ConfigError(
                f"start method {start_method!r} not in {available}")
        if start_method is None:
            start_method = "fork" if "fork" in available else (
                available[0] if available else None)
        self.start_method = start_method

    # ------------------------------------------------------------- API
    def map(self, fn: Callable[..., Any],
            kwargs_list: Sequence[Mapping[str, Any]]) -> List[TaskOutcome]:
        """Run ``fn(**kwargs)`` for each kwargs mapping."""
        return self.run([Task(fn, kwargs=kw) for kw in kwargs_list])

    def run(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        """Execute every task; outcomes are returned in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        if self.max_workers <= 1 or self.start_method is None or not self._picklable(tasks):
            return self._run_serial(tasks)
        return self._run_pooled(tasks)

    # ---------------------------------------------------- serial path
    def _picklable(self, tasks: Sequence[Task]) -> bool:
        """Under fork, task payloads travel by memory inheritance; any
        other start method pickles them into the child."""
        if self.start_method == "fork":
            return True
        try:
            pickle.dumps([(t.fn, t.args, dict(t.kwargs or {})) for t in tasks])
        except Exception:
            return False
        return True

    def _run_serial(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        worker = InlineWorker(functools.partial(_task_handler, tasks))
        outcomes: List[TaskOutcome] = []
        for index in range(len(tasks)):
            worker.send(index)
            outcomes.append(TaskOutcome(index=index, **vars(worker.recv())))
        return outcomes

    # ---------------------------------------------------- pooled path
    def _chunks(self, n: int) -> List[List[int]]:
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(n / (self.max_workers * 4)))
        return [list(range(i, min(i + size, n))) for i in range(0, n, size)]

    def _run_pooled(self, tasks: Sequence[Task]) -> List[TaskOutcome]:
        init_fn = functools.partial(_task_handler, tasks)
        pending = self._chunks(len(tasks))
        outcomes: Dict[int, TaskOutcome] = {}
        failures: Dict[int, int] = {}   # crash/timeout count per task index
        attempts: Dict[int, int] = {}   # executions started per task index
        slots: List[_Slot] = []
        registry = default_registry()
        # Decided once at run start: workers collect kernel stats only
        # when the parent has a profile to merge them into; likewise
        # workers record spans only when the parent has a recorder.
        collect_kernels = active_profile() is not None
        trace_ctx = current_trace_context()

        def start_next(slot: _Slot) -> None:
            slot.since = time.perf_counter()
            if slot.queue:
                attempts[slot.queue[0]] = attempts.get(slot.queue[0], 0) + 1

        def retire(slot: _Slot, kind: str) -> None:
            """Stop a crashed/timed-out worker, retry its running task
            (bounded) and requeue the tasks queued behind it."""
            registry.counter(_FAILURE_COUNTERS[kind]).inc()
            slot.worker.kill()
            slot.worker.close()
            slots.remove(slot)
            if not slot.queue:
                return
            index, tail = slot.queue[0], slot.queue[1:]
            failures[index] = failures.get(index, 0) + 1
            if failures[index] <= self.retries:
                tail.insert(0, index)
            else:
                outcomes[index] = TaskOutcome(
                    False, index=index, error_kind=kind,
                    error=(f"worker died (exitcode {slot.worker.process.exitcode})"
                           if kind == "crash" else
                           f"task exceeded {self.timeout:.3g}s timeout"),
                    attempts=attempts.get(index, 1),
                    duration_s=time.perf_counter() - slot.since)
            if tail:
                pending.append(tail)

        def assign(slot: _Slot, chunk: List[int]) -> None:
            slot.queue = chunk
            start_next(slot)
            try:
                for index in chunk:
                    slot.worker.send(index, kernels=collect_kernels,
                                     trace=trace_ctx)
            except OSError:
                retire(slot, "crash")

        try:
            while pending or any(slot.queue for slot in slots):
                for slot in [s for s in slots if not s.queue]:
                    if pending:
                        assign(slot, pending.pop(0))
                while pending and len(slots) < self.max_workers:
                    slot = _Slot(Worker(init_fn, self.start_method))
                    slots.append(slot)
                    assign(slot, pending.pop(0))
                registry.gauge("pool.workers_alive").set(float(len(slots)))
                for slot in [s for s in slots if s.worker.lost()]:
                    retire(slot, "crash")

                busy = [slot for slot in slots if slot.queue]
                wait_for = 0.1
                if self.timeout is not None and busy:
                    deadline = min(slot.since for slot in busy) + self.timeout
                    wait_for = max(0.0, min(deadline - time.perf_counter(),
                                            wait_for))
                ready = multiprocessing.connection.wait(
                    [slot.worker.conn for slot in busy], timeout=wait_for)

                for slot in busy:
                    if slot.worker.conn not in ready:
                        continue
                    try:
                        reply = slot.worker.recv()
                    except (EOFError, OSError):
                        retire(slot, "crash")
                        continue
                    index = slot.queue.pop(0)
                    slot.worker.merge(reply)
                    outcomes[index] = TaskOutcome(
                        index=index, attempts=attempts.get(index, 1),
                        **vars(reply))
                    start_next(slot)

                if self.timeout is not None:
                    now = time.perf_counter()
                    for slot in [s for s in slots if s.queue]:
                        if now - slot.since > self.timeout:
                            retire(slot, "timeout")
        finally:
            for slot in slots:
                slot.worker.close()
            registry.gauge("pool.workers_alive").set(0.0)
        return [outcomes[i] for i in sorted(outcomes)]
