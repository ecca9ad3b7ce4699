"""Persistent shard workers: the long-lived counterpart of :class:`WorkerPool`.

:class:`~repro.parallel.pool.WorkerPool` is built for *finite* fan-out:
it runs a fixed task list and tears its workers down.  A
serving front end needs the opposite shape -- a small set of
**persistent** worker processes, each holding expensive state (a loaded
model artifact), answering a stream of requests until shut down.
:class:`ShardPool` provides that with the same failure discipline the
pool established:

* a request whose handler **raises** returns an ``error_kind=
  "exception"`` result; the shard keeps serving;
* a shard that **dies** mid-request (segfault, ``kill``) is respawned
  (bounded by ``max_respawns`` per shard slot) and its in-flight
  requests are retried up to ``retries`` times before an
  ``error_kind="crash"`` result is delivered;
* a request that outlives its ``timeout`` in :meth:`result` returns an
  ``error_kind="timeout"`` result (the shard is left alone -- it may
  still be doing useful work for later requests).

Each shard is a :class:`~repro.parallel.worker.Worker` started with
the ``fork`` start method, so the ``init_fn`` travels by memory
inheritance; replies come back in request order, so the oldest
in-flight ticket of a shard owns its next reply.  Each reply's counter
(and other metric) movement is merged into the parent registry.  Where
``fork`` is unavailable every slot is served by one shared in-process
:class:`~repro.parallel.worker.InlineWorker` with identical result
semantics (and no crash isolation, as with the WorkerPool's serial
fallback).

A background collector thread owns every shard pipe; :meth:`submit` /
:meth:`result` are thread-safe, so the asyncio server can dispatch
batches from executor threads without extra locking.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServeError
from repro.parallel.worker import InlineWorker, Reply, Worker
from repro.telemetry.metrics import default_registry

__all__ = ["ShardResult", "ShardPool"]


@dataclass
class ShardResult(Reply):
    """Outcome of one shard request: the shard's
    :class:`~repro.parallel.worker.Reply` (``error_kind`` may also be
    ``"crash"`` or ``"timeout"``) plus its ``ticket``, ``shard`` and
    ``attempts``."""

    ticket: int = -1
    shard: int = -1
    attempts: int = 1


class _Shard:
    """Parent-side state for one shard slot."""

    __slots__ = ("index", "worker", "inflight", "respawns", "dead")

    def __init__(self, index: int, worker: Any) -> None:
        self.index = index
        self.worker = worker
        self.inflight: Dict[int, Any] = {}  # ticket -> payload, send order
        self.respawns = 0
        self.dead = False


class ShardPool:
    """N persistent worker processes answering a request stream.

    Args:
        init_fn: zero-arg callable run once inside each shard; returns
            the per-request handler ``handler(payload) -> value``.
        shards: number of shard slots (>= 1).
        retries: times a crashed request is re-run before a ``crash``
            result is delivered.
        max_respawns: times one shard slot is restarted after dying
            before it is written off as permanently dead.
        start_method: multiprocessing start method; only ``fork`` keeps
            ``init_fn`` unpickled, so anything else (or ``fork``
            missing) falls back to in-process serial execution.
    """

    def __init__(self, init_fn: Callable[[], Callable[[Any], Any]],
                 shards: int = 1, retries: int = 1, max_respawns: int = 3,
                 start_method: Optional[str] = None) -> None:
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        if max_respawns < 0:
            raise ServeError(f"max_respawns must be >= 0, got {max_respawns}")
        self.init_fn = init_fn
        self.n_shards = int(shards)
        self.retries = int(retries)
        self.max_respawns = int(max_respawns)
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else None
        elif start_method not in available:
            raise ServeError(f"start method {start_method!r} not in {available}")
        self.start_method = start_method if start_method == "fork" else None
        self.serial = self.start_method is None

        self._lock = threading.Lock()
        self._results_ready = threading.Condition(self._lock)
        self._results: Dict[int, ShardResult] = {}
        self._attempts: Dict[int, int] = {}
        self._abandoned: set = set()
        self._tickets = itertools.count()
        self._rr = itertools.count()
        self._closed = False
        self._inline = InlineWorker(init_fn) if self.serial else None
        self._shards: List[_Shard] = [_Shard(i, self._new_worker())
                                      for i in range(self.n_shards)]
        self._set_alive_gauge(self.n_shards)
        self._collector: Optional[threading.Thread] = None
        if not self.serial:
            self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
            self._collector = threading.Thread(
                target=self._collect_loop, daemon=True, name="repro-shards")
            self._collector.start()

    # ------------------------------------------------------------ lifecycle
    def _set_alive_gauge(self, count: int) -> None:
        default_registry().gauge("serve.shards_alive").set(float(count))

    def _new_worker(self) -> Any:
        return self._inline or Worker(self.init_fn, self.start_method)

    def close(self) -> None:
        """Shut every shard down and stop the collector."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._results_ready.notify_all()
        if self._collector is not None:
            try:
                self._wake_w.send(b"x")
            except Exception:
                pass
            self._collector.join(timeout=2.0)
        for shard in self._shards:
            shard.dead = True
            shard.worker.close()
        self._set_alive_gauge(0)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    # -------------------------------------------------------------- queries
    def alive(self) -> List[bool]:
        """Liveness per shard slot (all False once closed)."""
        return [not shard.dead for shard in self._shards]

    def kill_shard(self, index: int) -> bool:
        """Hard-kill one shard process (fault-injection hook for tests).

        Returns True when a live process was killed; serial mode has no
        processes to kill and returns False.
        """
        return self._shards[index].worker.kill()

    # ------------------------------------------------------------- requests
    def submit(self, payload: Any, shard: Optional[int] = None) -> int:
        """Enqueue one request; returns its ticket.

        ``shard=None`` round-robins over live shards.  With every shard
        permanently dead the request completes immediately as a
        ``crash`` result (structured, never an exception).
        """
        with self._lock:
            if self._closed:
                raise ServeError("ShardPool is closed")
            ticket = next(self._tickets)
            self._attempts[ticket] = 1
            target = self._pick_shard(shard)
            if target is None:
                self._results[ticket] = ShardResult(
                    False, ticket=ticket, error="no live shards",
                    error_kind="crash", attempts=0)
                self._results_ready.notify_all()
                return ticket
            self._send(target, ticket, payload)
            return ticket

    def _pick_shard(self, index: Optional[int]) -> Optional[_Shard]:
        if index is not None:
            shard = self._shards[index]
            return None if shard.dead else shard
        live = [s for s in self._shards if not s.dead]
        if not live:
            return None
        return live[next(self._rr) % len(live)]

    def _send(self, shard: _Shard, ticket: int, payload: Any) -> None:
        shard.inflight[ticket] = payload
        try:
            shard.worker.send(payload)
        except Exception:
            # pipe already broken: let the collector's death handling
            # retry/record it the same way a mid-request crash would be
            self._on_shard_death(shard)
            return
        if self.serial:  # the inline reply is ready at once
            self._on_reply(shard, shard.worker.recv())

    def result(self, ticket: int,
               timeout: Optional[float] = None) -> ShardResult:
        """Block until the ticket resolves (or ``timeout`` elapses).

        A timeout yields an ``error_kind="timeout"`` result; the late
        value, if it ever arrives, is discarded.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while ticket not in self._results:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._attempts.pop(ticket, None)
                        self._abandoned.add(ticket)
                        return ShardResult(
                            False, ticket=ticket,
                            error=f"request exceeded {timeout:.3g}s timeout",
                            error_kind="timeout")
                self._results_ready.wait(timeout=remaining)
                if self._closed and ticket not in self._results:
                    return ShardResult(False, ticket=ticket,
                                       error="ShardPool closed while waiting",
                                       error_kind="crash")
            return self._results.pop(ticket)

    def request(self, payload: Any, shard: Optional[int] = None,
                timeout: Optional[float] = None) -> ShardResult:
        """Submit + wait, as one call."""
        return self.result(self.submit(payload, shard=shard), timeout=timeout)

    # ------------------------------------------------------------ collector
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                # a shard can die (or lose its pipe) with no message
                # left to read, which wait() alone would never report
                for shard in self._shards:
                    if not shard.dead and shard.worker.lost():
                        self._on_shard_death(shard)
                conns = [s.worker.conn for s in self._shards if not s.dead]
            try:
                ready = multiprocessing.connection.wait(
                    conns + [self._wake_r], timeout=0.2)
            except OSError:
                # A submit thread's _send failure can run _on_shard_death
                # and close one of the snapshotted conns while we wait on
                # it; that is a shard death, not a collector crash --
                # re-snapshot live conns and carry on.
                continue
            if self._wake_r in ready:
                try:
                    self._wake_r.recv()
                except Exception:
                    pass
                continue
            with self._lock:
                for shard in self._shards:
                    if shard.dead or shard.worker.conn not in ready:
                        continue
                    try:
                        reply = shard.worker.recv()
                    except (EOFError, OSError):
                        self._on_shard_death(shard)
                        continue
                    self._on_reply(shard, reply)

    def _on_reply(self, shard: _Shard, reply: Reply) -> None:
        shard.worker.merge(reply)
        if reply.error_kind == "init":
            # the shard never became serviceable; treat as death
            self._on_shard_death(shard, reason=f"init failed: {reply.error}")
            return
        ticket = next(iter(shard.inflight))
        del shard.inflight[ticket]
        attempts = self._attempts.pop(ticket, 1)
        if ticket in self._abandoned:  # waiter already timed out and left
            self._abandoned.discard(ticket)
            return
        self._results[ticket] = ShardResult(
            ticket=ticket, shard=shard.index, attempts=attempts, **vars(reply))
        self._results_ready.notify_all()

    def _on_shard_death(self, shard: _Shard,
                        reason: Optional[str] = None) -> None:
        """Record the death, respawn the slot (bounded), retry in-flight."""
        registry = default_registry()
        registry.counter("serve.shard_deaths").inc()
        shard.dead = True
        shard.worker.close(timeout=0.5)
        message = reason or (f"shard {shard.index} died "
                             f"(exitcode {shard.worker.process.exitcode})")
        inflight = list(shard.inflight.items())
        shard.inflight.clear()
        if shard.respawns < self.max_respawns and reason is None:
            shard.respawns += 1
            registry.counter("serve.shard_respawns").inc()
            shard.worker = self._new_worker()
            shard.dead = False
        self._set_alive_gauge(sum(not s.dead for s in self._shards))
        for ticket, payload in inflight:
            if ticket in self._abandoned:  # waiter already timed out
                self._abandoned.discard(ticket)
                self._attempts.pop(ticket, None)
                continue
            attempts = self._attempts.get(ticket, 1)
            if attempts <= self.retries:
                self._attempts[ticket] = attempts + 1
                registry.counter("serve.request_retries").inc()
                target = self._pick_shard(None)
                if target is not None:
                    self._send(target, ticket, payload)
                    continue
            self._attempts.pop(ticket, None)
            self._results[ticket] = ShardResult(
                False, ticket=ticket, error=message, error_kind="crash",
                shard=shard.index, attempts=attempts)
        self._results_ready.notify_all()
