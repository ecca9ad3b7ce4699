"""The fork ``Worker`` primitive: one child loop, one ``Reply``, one close."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.parallel import worker as worker_module
from repro.parallel.worker import InlineWorker, Reply, Worker
from repro.telemetry import profile
from repro.telemetry.metrics import default_registry
from repro.telemetry.trace import recording, span

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")


def _handler_init():
    def handle(payload):
        if payload == "lock":
            return threading.Lock()
        if payload == "boom":
            raise ValueError("boom payload")
        if payload == "kernels":
            from repro import backend
            a = np.ones((4, 4))
            backend.active().matmul(a, a)
        default_registry().counter("workertest.calls").inc()
        with span("workertest.handle"):
            return payload, os.getpid()
    return handle


def _broken_init():
    raise RuntimeError("init exploded")


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestWorker:
    def test_replies_in_order_with_telemetry(self):
        worker = Worker(_handler_init)
        try:
            worker.send(1)
            worker.send("boom")
            first, second = worker.recv(), worker.recv()
        finally:
            worker.close()
        assert isinstance(first, Reply) and first.ok
        assert first.value == (1, worker.process.pid) != (1, os.getpid())
        assert first.telemetry["counters"]["workertest.calls"] == 1.0
        assert first.kernels == {} and first.spans == []
        assert not second.ok and second.error_kind == "exception"
        assert "boom payload" in second.error
        assert not worker.alive()

    def test_init_failure_is_one_init_reply(self):
        worker = Worker(_broken_init)
        try:
            reply = worker.recv()
            assert not reply.ok and reply.error_kind == "init"
            assert "init exploded" in reply.error
            assert _wait_until(lambda: not worker.alive())
            with pytest.raises(EOFError):
                worker.recv()
        finally:
            worker.close()

    def test_kernels_and_spans_only_when_asked_then_merged(self):
        worker = Worker(_handler_init, label="test lane")
        with recording() as recorder, profile() as prof:
            with span("dispatch"):
                worker.send("kernels", kernels=True,
                            trace=recorder.context())
            reply = worker.recv()
            worker.merge(reply)
        worker.close()
        assert reply.kernels["reference/matmul"]["calls"] == 1
        assert prof.kernel_stats["reference/matmul"].calls == 1
        assert [s["name"] for s in reply.spans] == ["workertest.handle"]
        merged = [s for s in recorder.spans if s.name == "workertest.handle"]
        assert merged and merged[0].pid == worker.process.pid
        assert recorder._process_labels[worker.process.pid] == "test lane"

    def test_kill_lost_and_idempotent_close(self):
        worker = Worker(_handler_init)
        assert worker.alive() and not worker.lost()
        assert worker.kill()
        assert _wait_until(lambda: not worker.alive())
        assert not worker.kill(), "nothing left to kill"
        with pytest.raises(EOFError):
            worker.recv()
        worker.close()
        worker.close()
        assert worker.lost()
        with pytest.raises(OSError):
            worker.send(1)


class TestInlineWorker:
    def test_same_reply_without_shipping(self):
        counter = default_registry().counter("workertest.calls")
        before = counter.value
        worker = InlineWorker(_handler_init)
        worker.send(3)
        worker.send("boom")
        ok, failed = worker.recv(), worker.recv()
        assert ok.ok and ok.value == (3, os.getpid())
        assert ok.telemetry == {} and ok.kernels == {} and ok.spans == []
        assert counter.value == before + 1, "metrics land in place"
        assert not failed.ok and failed.error_kind == "exception"
        assert not worker.kill(), "no process to kill"
        worker.merge(ok)
        worker.close()


class TestChildLoopInProcess:
    """The child loop driven in this process, so its lines are traced."""

    def test_serves_until_sentinel_and_reports_unpicklable(self, monkeypatch):
        monkeypatch.setattr(worker_module.signal, "signal",
                            lambda *args: None)
        parent, child = multiprocessing.Pipe()
        parent.send((1, False, None))
        parent.send(("lock", False, None))
        parent.send(("kernels", True, None))
        parent.send(None)
        worker_module._child_main(_handler_init, child)
        ok, unpicklable, kernels = parent.recv(), parent.recv(), parent.recv()
        assert ok.ok and ok.value == (1, os.getpid())
        assert ok.telemetry["counters"]["workertest.calls"] == 1.0
        assert not unpicklable.ok and unpicklable.error_kind == "exception"
        assert "unpicklable" in unpicklable.error
        assert "counters" in unpicklable.telemetry
        assert kernels.ok
        assert kernels.kernels["reference/matmul"]["calls"] == 1
        assert child.closed

    def test_init_failure_reply(self, monkeypatch):
        monkeypatch.setattr(worker_module.signal, "signal",
                            lambda *args: None)
        parent, child = multiprocessing.Pipe()
        worker_module._child_main(_broken_init, child)
        reply = parent.recv()
        assert reply.error_kind == "init" and "init exploded" in reply.error
