"""DDP runtime: reduction schedule, determinism, equivalence, hygiene.

The heavyweight behavioural guarantee -- attack metrics inside the
golden bands at 2 and 4 workers -- lives in
``tests/integration/test_ddp_golden.py``; here we pin the mechanisms:
the fixed reduction order, bit-identical repeat runs, serial
equivalence for a batch-norm-free model, the no-pickling control plane,
and crash/teardown behaviour.
"""

import os
import signal

import numpy as np
import pytest

from repro import precision
from repro.errors import DDPError
from repro.models.mlp import MLP
from repro.parallel import ddp
from repro.parallel.arena import live_segments
from repro.pipeline.config import TrainingConfig
from repro.pipeline.trainer import Trainer

pytestmark = pytest.mark.skipif(
    not ddp.available(), reason="fork start method unavailable"
)


# ---------------------------------------------------------------------------
# The fixed reduction schedule
# ---------------------------------------------------------------------------

class TestReducePlan:
    def test_pinned_schedules(self):
        assert ddp.reduce_plan(1) == []
        assert ddp.reduce_plan(2) == [[(0, 1)]]
        assert ddp.reduce_plan(3) == [[(0, 1)], [(0, 2)]]
        assert ddp.reduce_plan(4) == [[(0, 1), (2, 3)], [(0, 2)]]
        assert ddp.reduce_plan(5) == [[(0, 1), (2, 3)], [(0, 2)], [(0, 4)]]

    @pytest.mark.parametrize("world", [2, 3, 4, 5, 6, 7, 8, 13])
    def test_every_rank_reduced_exactly_once(self, world):
        plan = ddp.reduce_plan(world)
        sources = [src for level in plan for _, src in level]
        # every non-zero rank is consumed exactly once, and rank 0 ends
        # up holding the total
        assert sorted(sources) == list(range(1, world))
        destinations = {dst for level in plan for dst, _ in level}
        assert 0 in destinations

    def test_bad_world_raises(self):
        with pytest.raises(DDPError):
            ddp.reduce_plan(0)


class TestDefaults:
    def test_default_workers_roundtrip(self):
        previous = ddp.set_default_ddp_workers(3)
        try:
            assert ddp.default_ddp_workers() == 3
            assert ddp.set_default_ddp_workers(None) == 3
            assert ddp.default_ddp_workers() is None
        finally:
            ddp.set_default_ddp_workers(previous)

    def test_invalid_default_rejected(self):
        with pytest.raises(DDPError):
            ddp.set_default_ddp_workers(0)

    def test_ddp_config_rows(self):
        config = ddp.ddp_config()
        assert config["cpus"] >= 1
        assert config["fork_available"] is True
        assert isinstance(config["shm_available"], bool)
        assert config["live_segments"] >= 0


# ---------------------------------------------------------------------------
# Training equivalence + determinism (batch-norm-free model, float64)
# ---------------------------------------------------------------------------

def _make_trainer(ddp_workers, epochs=2, seed=0):
    """Tiny BN-free MLP training problem, float64 reference backend.

    Without batch norm there is no per-rank batch-statistics effect, so
    data-parallel and serial training differ only by gradient summation
    order -- which the fixed-order tree reduction makes deterministic,
    and float64 makes negligible (<1e-12) against the serial sum.
    """
    rng = np.random.default_rng(12)
    inputs = rng.standard_normal((48, 3, 4, 4))
    labels = rng.integers(0, 4, size=48).astype(np.int64)
    with precision.use_dtype("float64"):
        model = MLP([3 * 4 * 4, 16, 4], rng=np.random.default_rng(5))
    config = TrainingConfig(epochs=epochs, batch_size=16, lr=0.05, seed=seed)
    return Trainer(model, inputs, labels, config,
                   backend="reference", dtype="float64",
                   ddp_workers=ddp_workers)


def _final_params(trainer):
    return [np.array(p.data, copy=True) for p in trainer._params]


@pytest.mark.parametrize("world", [2, 4])
def test_ddp_matches_serial_without_batchnorm(world):
    serial = _make_trainer(ddp_workers=1)
    serial.train()
    parallel = _make_trainer(ddp_workers=world)
    parallel.train()
    for ps, pp in zip(_final_params(serial), _final_params(parallel)):
        np.testing.assert_allclose(pp, ps, rtol=0, atol=1e-12)


def test_ddp_runs_are_bit_identical():
    """Same seed + same world => byte-for-byte identical parameters AND
    reduced gradients, run to run (the fixed-reduction-order claim)."""

    def one_run():
        trainer = _make_trainer(ddp_workers=2)
        try:
            for _ in range(2):
                trainer.train_epoch()
            # after train_epoch the last batch's reduced gradients are
            # still sitting in the rank-0 slabs behind param.grad; copy
            # them out before close() detaches the arena
            grads = [np.array(p.grad, copy=True) for p in trainer._params]
            params = _final_params(trainer)
        finally:
            trainer.close()
        return params, grads

    params_a, grads_a = one_run()
    params_b, grads_b = one_run()
    for a, b in zip(params_a, params_b):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(grads_a, grads_b):
        assert a.tobytes() == b.tobytes()


def test_ddp_workers_one_is_plain_serial():
    """world=1 must not fork, not build a context, and not touch shm."""
    trainer = _make_trainer(ddp_workers=1)
    before = set(live_segments())
    trainer.train()
    assert trainer._ddp is None
    assert set(live_segments()) == before


# ---------------------------------------------------------------------------
# Control plane: nothing big is ever pickled on the steady-state path
# ---------------------------------------------------------------------------

def _contains_ndarray(obj):
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        return any(_contains_ndarray(v) for v in obj.values()) or \
            any(_contains_ndarray(k) for k in obj.keys())
    if isinstance(obj, (list, tuple, set)):
        return any(_contains_ndarray(v) for v in obj)
    return False


def test_no_weights_or_batches_on_the_control_plane():
    epochs, world = 3, 2
    messages = []
    previous = ddp.set_message_audit(
        lambda direction, msg: messages.append((direction, msg))
    )
    try:
        trainer = _make_trainer(ddp_workers=world, epochs=epochs)
        trainer.train()
    finally:
        ddp.set_message_audit(previous)
    # parent-side traffic only: one epoch command down and one summary
    # up per worker per epoch, plus one shutdown sentinel per worker --
    # O(workers * epochs), never O(batches), and never an ndarray
    sends = [m for d, m in messages if d == "send"]
    recvs = [m for d, m in messages if d == "recv"]
    epoch_cmds = [m for m in sends if isinstance(m, tuple) and m[0] == "epoch"]
    sentinels = [m for m in sends if m is None]
    dones = [m for m in recvs if isinstance(m, tuple) and m[0] == "done"]
    assert len(epoch_cmds) == epochs * (world - 1)
    assert len(sentinels) == world - 1
    assert len(dones) == epochs * (world - 1)
    assert len(messages) == len(epoch_cmds) + len(sentinels) + len(dones)
    for _, message in messages:
        assert not _contains_ndarray(message), (
            "weights/batches crossed the DDP control pipe"
        )
    # and the workers really did step through shared memory instead:
    # 48 images / batch 16 = 3 global steps per epoch, on every rank
    done_payloads = [m[2] for m in dones]
    assert all(p["steps"] == 3 for p in done_payloads)


# ---------------------------------------------------------------------------
# Crash + teardown hygiene
# ---------------------------------------------------------------------------

def test_dead_worker_raises_instead_of_hanging():
    trainer = _make_trainer(ddp_workers=2, epochs=4)
    try:
        trainer.train_epoch()
        victim = trainer._ddp._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        with pytest.raises(DDPError):
            # the watchdog breaks the barrier; depending on timing the
            # failure surfaces at epoch start or at the first step
            for _ in range(3):
                trainer.train_epoch()
    finally:
        trainer.close()
    # teardown after a crash still reclaims every segment (the autouse
    # no_shm_leaks fixture enforces the same thing suite-wide)
    assert trainer._ddp is None
    for param in trainer._params:
        assert np.isfinite(param.data).all()


def test_close_then_retrain_reforks():
    trainer = _make_trainer(ddp_workers=2, epochs=4)
    try:
        trainer.train_epoch()
        first_pids = {w.process.pid for w in trainer._ddp._workers.values()}
        trainer.close()
        assert trainer._ddp is None
        trainer.train_epoch()
        second_pids = {w.process.pid for w in trainer._ddp._workers.values()}
        assert first_pids.isdisjoint(second_pids)
    finally:
        trainer.close()
    for param in trainer._params:
        assert np.isfinite(param.data).all()


def test_train_tears_down_automatically():
    """``train()`` must leave no live context, no arena views on the
    model, and no shm segments -- downstream stages (quantization,
    serving) need a plain in-process model."""
    trainer = _make_trainer(ddp_workers=2)
    before = set(live_segments())
    trainer.train()
    assert trainer._ddp is None
    assert set(live_segments()) == before
    for param in trainer._params:
        # a private array again, not a view into the (unlinked) arena
        assert param.data.base is None
