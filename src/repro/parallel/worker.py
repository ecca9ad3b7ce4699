"""One forked worker process over one duplex pipe.

:class:`~repro.parallel.pool.WorkerPool`,
:class:`~repro.parallel.shards.ShardPool` and
:class:`~repro.parallel.ddp.DDPContext` run every child process through
:class:`Worker` and keep only their own scheduling policy.

The child builds its handler once from ``init_fn`` and answers each
message with exactly one :class:`Reply`, in order.  Per message it
resets its metrics registry (a fork-time copy of the parent's), runs
the handler under the kernel collector and span recorder the parent
asked for, and ships the message's typed metrics snapshot, kernel stats
and spans home in the reply -- also when the handler raised or its
value could not be pickled.  ``None`` is the shutdown sentinel.
:class:`InlineWorker` is the in-process stand-in with the same calls
and the same :class:`Reply`.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.metrics import default_registry
from repro.telemetry.profiler import OpProfile, active_profile
from repro.telemetry.trace import get_recorder, set_recorder, worker_recorder

__all__ = ["Reply", "Worker", "InlineWorker"]


@dataclass
class Reply:
    """The answer to one message.

    ``error_kind`` is ``""`` on success, ``"exception"`` when the handler
    raised or its value could not be pickled, ``"init"`` when the
    child's ``init_fn`` failed.  ``telemetry`` (typed metrics snapshot),
    ``kernels`` (only when asked for) and ``spans`` (only with a trace
    context) stay empty for an :class:`InlineWorker`.
    """

    ok: bool
    value: Any = None
    error: str = ""
    error_kind: str = ""
    duration_s: float = 0.0
    telemetry: Dict[str, Any] = field(default_factory=dict)
    kernels: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)


def _call(handler: Callable[[Any], Any], payload: Any) -> Reply:
    start = time.perf_counter()
    try:
        value = handler(payload)
    except Exception as exc:
        return Reply(False, error=repr(exc), error_kind="exception",
                     duration_s=time.perf_counter() - start)
    return Reply(True, value=value, duration_s=time.perf_counter() - start)


def _serve_one(handler: Callable[[Any], Any], payload: Any,
               kernels: bool, trace_ctx) -> Reply:
    """Answer one message with its telemetry attached (child side)."""
    registry = default_registry()
    registry.reset()
    collector = OpProfile() if kernels else None
    if collector is not None:
        from repro.backend.registry import set_kernel_hook
        previous_hook = set_kernel_hook(collector._record_kernel)
    recorder = worker_recorder(trace_ctx) if trace_ctx is not None else None
    set_recorder(recorder)
    try:
        reply = _call(handler, payload)
    finally:
        set_recorder(None)
        if collector is not None:
            set_kernel_hook(previous_hook)
    reply.telemetry = registry.typed_snapshot()
    if collector is not None:
        reply.kernels = collector.snapshot()["kernels"]
    reply.spans = recorder.drain_dicts() if recorder is not None else []
    return reply


def _encode(reply: Reply) -> bytes:
    """Pickle a reply; an unpicklable value becomes an error reply."""
    try:
        return ForkingPickler.dumps(reply)
    except Exception as exc:
        return ForkingPickler.dumps(dataclasses.replace(
            reply, ok=False, value=None,
            error=f"unpicklable result: {exc!r}", error_kind="exception"))


def _child_main(init_fn: Callable[[], Callable[[Any], Any]], conn) -> None:
    """The one child loop (module-level, so it also runs under ``spawn``).

    SIGINT is ignored because the parent owns interruption and teardown;
    the inherited trace recorder is dropped because the parent owns its
    spans.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_recorder(None)
    try:
        try:
            handler = init_fn()
        except Exception as exc:
            conn.send_bytes(_encode(Reply(False, error=repr(exc),
                                          error_kind="init")))
            return
        for payload, kernels, trace_ctx in iter(conn.recv, None):
            conn.send_bytes(_encode(_serve_one(handler, payload, kernels,
                                               trace_ctx)))
    except (EOFError, OSError):  # the parent is gone
        pass
    finally:
        conn.close()


class Worker:
    """Parent-side handle on one child process running :func:`_child_main`.

    ``init_fn`` runs once in the child and returns the message handler;
    under ``fork`` it travels by memory inheritance and need not pickle.
    ``label`` names the trace lane of merged spans (default
    ``worker pid=N``).
    """

    def __init__(self, init_fn: Callable[[], Callable[[Any], Any]],
                 start_method: str = "fork",
                 label: Optional[str] = None) -> None:
        ctx = multiprocessing.get_context(start_method)
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_child_main,
                                   args=(init_fn, child_conn), daemon=True)
        try:
            self.process.start()
        finally:
            child_conn.close()  # the child holds its own copy
        self.label = label
        self._closed = False

    def send(self, payload: Any, kernels: bool = False, trace=None) -> None:
        """Queue one message.  ``kernels`` asks for per-kernel stats and
        ``trace`` (a parent :class:`TraceContext`) for spans; raises
        ``OSError`` on a broken pipe."""
        self.conn.send((payload, kernels, trace))

    def recv(self) -> Reply:
        """The next reply in message order; raises ``EOFError`` or
        ``OSError`` once the child is gone."""
        return self.conn.recv()

    def alive(self) -> bool:
        return self.process.is_alive()

    def lost(self) -> bool:
        """True when no reply and no EOF can come any more: the parent's
        pipe end is closed, or the child exited with nothing readable
        (a forked descendant still holds its pipe end open)."""
        return self.conn.closed or (not self.alive() and not self.conn.poll())

    def kill(self) -> bool:
        """SIGKILL the child; True when a live process was killed."""
        if not self.alive():
            return False
        self.process.kill()
        return True

    def close(self, timeout: float = 1.0) -> None:
        """Sentinel, join, terminate, then kill.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        # first a grace period after the sentinel, then escalate
        for stop in (None, self.process.terminate, self.process.kill):
            if stop is not None and self.process.is_alive():
                stop()
            self.process.join(timeout)
        self.conn.close()

    def merge(self, reply: Reply) -> None:
        """Fold a reply's telemetry into the parent's registry, active
        profile and trace recorder."""
        if reply.telemetry:
            default_registry().merge_typed(reply.telemetry)
        profile = active_profile()
        if reply.kernels and profile is not None:
            profile.merge_kernels(reply.kernels)
        recorder = get_recorder()
        if reply.spans and recorder is not None:
            recorder.merge_spans(reply.spans, label=self.label)


class InlineWorker:
    """In-process stand-in for :class:`Worker`, without isolation: the
    handler runs inside :meth:`send`, and metrics, kernel calls and spans
    land directly in the parent."""

    label: Optional[str] = None
    merge = Worker.merge

    def __init__(self, init_fn: Callable[[], Callable[[Any], Any]]) -> None:
        self._handler = init_fn()
        self._replies: "collections.deque[Reply]" = collections.deque()

    def send(self, payload: Any) -> None:
        self._replies.append(_call(self._handler, payload))

    def recv(self) -> Reply:
        return self._replies.popleft()

    def kill(self) -> bool:
        return False

    def close(self) -> None:
        self._replies.clear()
