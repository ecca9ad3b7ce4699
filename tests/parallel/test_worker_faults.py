"""Fault injection across the three front ends of the fork ``Worker``.

Every fault is driven through :class:`WorkerPool`, :class:`ShardPool`
and :class:`DDPContext` (as ``Trainer(ddp_workers=2)``) wherever it
applies, and each front end must turn it into its own structured
failure -- never a hang.  The suite-wide ``no_shm_leaks`` fixture checks
that no ``/dev/shm`` segment survives, and every case must finish in
under five seconds.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import precision
from repro.errors import DDPError
from repro.models.mlp import MLP
from repro.parallel import ShardPool, Task, WorkerPool, ddp
from repro.parallel import pool as pool_module
from repro.parallel.worker import Worker
from repro.pipeline.config import TrainingConfig
from repro.pipeline.trainer import Trainer
from repro.telemetry.metrics import default_registry

pytestmark = pytest.mark.skipif(
    not ddp.available(), reason="fork start method unavailable")

ALL = ["pool", "shards", "ddp"]


@pytest.fixture(autouse=True)
def _under_five_seconds():
    start = time.monotonic()
    yield
    assert time.monotonic() - start < 5.0, "fault case took too long"


def _fault(payload):
    """Pool task and shard handler body: act out the fault named by the
    payload."""
    if payload == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if isinstance(payload, dict):  # SIGKILL on the first attempt only
        if not os.path.exists(payload["kill_once"]):
            open(payload["kill_once"], "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return "recovered"
    if payload == "hang":
        time.sleep(60)
    if payload == "lock":
        default_registry().counter("faults.lock_calls").inc()
        return threading.Lock()
    return payload


def _shard_init():
    return _fault


def _run_pool(payload, **kwargs):
    return WorkerPool(max_workers=2, **kwargs).run([Task(_fault, (payload,))])[0]


def _counter(name):
    return default_registry().counter(name).value


class _FaultyMLP(MLP):
    """MLP whose forward acts out ``mode`` inside forked DDP ranks only."""

    def __init__(self, mode, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mode = mode
        self.owner = os.getpid()

    def forward(self, x):
        if os.getpid() != self.owner:
            if self.mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if self.mode == "hang":
                time.sleep(60)
        return super().forward(x)


def _ddp_trainer(mode="none", barrier_timeout=None):
    rng = np.random.default_rng(3)
    inputs = rng.standard_normal((32, 3, 4, 4))
    labels = rng.integers(0, 4, size=32).astype(np.int64)
    with precision.use_dtype("float64"):
        model = _FaultyMLP(mode, [48, 8, 4], rng=np.random.default_rng(5))
    trainer = Trainer(model, inputs, labels,
                      TrainingConfig(epochs=2, batch_size=16, lr=0.05, seed=0),
                      backend="reference", dtype="float64", ddp_workers=2)
    if barrier_timeout is not None:
        trainer._ensure_ddp().barrier_timeout = barrier_timeout
    return trainer


def _expect_ddp_error(trainer, epochs=2):
    try:
        with pytest.raises(DDPError):
            for _ in range(epochs):
                trainer.train_epoch()
    finally:
        trainer.close()
    assert trainer._ddp is None


@pytest.mark.parametrize("front_end", ALL)
def test_sigkill_mid_task(front_end, tmp_path):
    if front_end == "pool":
        outcome = _run_pool("kill", retries=1)
        assert not outcome.ok and outcome.error_kind == "crash"
        assert outcome.attempts == 2, "one bounded retry, then give up"
    elif front_end == "shards":
        respawns = _counter("serve.shard_respawns")
        with ShardPool(_shard_init, shards=1, retries=1) as shards:
            result = shards.request({"kill_once": str(tmp_path / "flag")},
                                    timeout=4)
            assert shards.alive() == [True]
        assert result.ok and result.value == "recovered"
        assert result.attempts == 2
        assert _counter("serve.shard_respawns") == respawns + 1
    else:
        _expect_ddp_error(_ddp_trainer("kill"))


@pytest.mark.parametrize("front_end", ALL)
def test_hung_worker(front_end):
    if front_end == "pool":
        outcome = _run_pool("hang", timeout=0.3, retries=0)
        assert not outcome.ok and outcome.error_kind == "timeout"
    elif front_end == "shards":
        with ShardPool(_shard_init, shards=1) as shards:
            result = shards.result(shards.submit("hang"), timeout=0.3)
        assert not result.ok and result.error_kind == "timeout"
    else:
        _expect_ddp_error(_ddp_trainer("hang", barrier_timeout=0.5))


@pytest.mark.parametrize("front_end", ["pool", "shards"])
def test_unpicklable_result_keeps_telemetry(front_end):
    calls = _counter("faults.lock_calls")
    if front_end == "pool":
        result = _run_pool("lock")
    else:
        with ShardPool(_shard_init, shards=1) as shards:
            result = shards.request("lock", timeout=4)
    assert not result.ok and result.error_kind == "exception"
    assert "unpicklable" in result.error
    assert _counter("faults.lock_calls") == calls + 1


class _ClosesAfterFirstSend(Worker):
    """The first instance loses its pipe right after its first message."""

    armed = True

    def send(self, payload, kernels=False, trace=None):
        super().send(payload, kernels, trace)
        if _ClosesAfterFirstSend.armed:
            _ClosesAfterFirstSend.armed = False
            self.conn.close()


@pytest.mark.parametrize("front_end", ALL)
def test_pipe_closed_under_the_parent(front_end, monkeypatch):
    if front_end == "pool":
        monkeypatch.setattr(pool_module, "Worker", _ClosesAfterFirstSend)
        monkeypatch.setattr(_ClosesAfterFirstSend, "armed", True)
        outcome = _run_pool(7)
        assert outcome.ok and outcome.value == 7
        assert outcome.attempts == 2, "lost with its worker, then retried"
    elif front_end == "shards":
        deaths = _counter("serve.shard_deaths")
        with ShardPool(_shard_init, shards=1) as shards:
            assert shards.request(1, timeout=4).value == 1
            shards._shards[0].worker.conn.close()
            result = shards.request(2, timeout=4)
            assert shards.alive() == [True]
        assert result.ok and result.value == 2
        assert _counter("serve.shard_deaths") == deaths + 1
    else:
        trainer = _ddp_trainer()
        trainer.train_epoch()
        trainer._ddp._workers[1].conn.close()
        _expect_ddp_error(trainer)
