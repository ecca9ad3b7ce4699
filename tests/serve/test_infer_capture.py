"""Kernel-level inference capture: bitwise replay, guards, probe check,
and the serving shards' per-artifact program cache."""

import asyncio

import numpy as np
import pytest

from repro import backend as B
from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.errors import GraphError
from repro.models.registry import build_model
from repro.models.simple_cnn import SimpleCNN
from repro.serve import ModelServer, ServeConfig, load_artifact, save_artifact
from repro.serve.infer import capture_infer
from repro.telemetry.metrics import default_registry


def eval_model():
    model = SimpleCNN(num_classes=4, image_size=8, width=4,
                      rng=np.random.default_rng(5))
    model.eval()
    return model


def forward_fn(model):
    def fn(arr):
        with no_grad():
            return model(Tensor(np.asarray(arr))).data
    return fn


class TestCaptureInfer:
    def test_replay_is_bitwise_identical_to_eager(self):
        model = eval_model()
        fn = forward_fn(model)
        rng = np.random.default_rng(1)
        feed = rng.standard_normal((3, 3, 8, 8))
        with B.use_backend("fast"):
            program = capture_infer(fn, feed)
            for seed in range(3):
                x = np.random.default_rng(seed + 10).standard_normal(feed.shape)
                assert np.array_equal(program.run(x), fn(x))
        assert program.runs >= 3
        # eval-mode conv dispatches the fused inference kernel
        assert "conv2d_infer" in program.kernel_names

    def test_wrong_shape_or_dtype_raises(self):
        model = eval_model()
        fn = forward_fn(model)
        feed = np.random.default_rng(1).standard_normal((2, 3, 8, 8))
        with B.use_backend("fast"):
            program = capture_infer(fn, feed)
        with pytest.raises(GraphError, match="captured"):
            program.run(np.zeros((4, 3, 8, 8)))
        with pytest.raises(GraphError, match="captured"):
            program.run(np.zeros((2, 3, 8, 8), dtype=np.float32))

    def test_probe_input_catches_frozen_constants(self):
        # ``x + 0.0`` allocates a fresh array the resolver cannot tie to
        # the feed, so it freezes as a capture-time constant; the
        # same-input verification passes and only the second, perturbed
        # input exposes the wrong program
        K = B.get_backend("fast")
        W = np.random.default_rng(2).standard_normal((4, 3))

        def leaky(x):
            return K.matmul(np.asarray(x) + 0.0, W)

        feed = np.random.default_rng(3).standard_normal((5, 4))
        with pytest.raises(GraphError, match="probe input"):
            capture_infer(leaky, feed)
        # without the probe the broken program would have shipped
        program = capture_infer(leaky, feed, verify_second_input=False)
        other = np.random.default_rng(4).standard_normal((5, 4))
        assert not np.array_equal(program.run(other), leaky(other))

    def test_no_kernel_calls_refuses(self):
        with pytest.raises(GraphError, match="no kernel calls"):
            capture_infer(lambda x: np.asarray(x) * 2.0, np.ones((2, 2)))



KW = dict(num_classes=4, in_channels=3, width=4)
SHAPE = (3, 8, 8)


def release(path, seed):
    model = build_model("resnet8_tiny", rng=np.random.default_rng(seed), **KW)
    save_artifact(model, path, "resnet8_tiny", model_kwargs=KW,
                  input_shape=SHAPE, seed=seed)


def eager_forward(path, x):
    model, _ = load_artifact(path)
    with B.use_backend("fast"), no_grad():
        return np.asarray(model(Tensor(x)).data)


class TestShardProgramCache:
    def test_rerelease_at_same_path_is_not_served_stale(self, tmp_path):
        # captured programs freeze the weights they traced; after the
        # artifact cache evicts and reloads a path whose model was
        # re-saved, the shard must not replay the old model's program
        paths = {key: str(tmp_path / key) for key in "pqr"}
        for seed, path in enumerate(paths.values()):
            release(path, seed)
        x = np.random.default_rng(9).standard_normal((1,) + SHAPE)
        x = x.astype(np.float32)
        config = ServeConfig(start_method="spawn",  # in-process shard
                             cache_capacity=2)
        replays = default_registry().counter("serve.infer_replays")

        async def _go():
            async with ModelServer(paths, config=config) as server:
                first = await server.infer(inputs=x, model="p")
                release(paths["p"], 7)
                for key in "qr":  # two other models evict p
                    assert (await server.infer(inputs=x, model=key)).ok
                before = replays.snapshot()
                again = await server.infer(inputs=x, model="p")
                return first, again, replays.snapshot() - before

        first, again, replayed = asyncio.run(_go())
        assert first.ok and again.ok, (first.error, again.error)
        assert not np.array_equal(first.outputs, again.outputs)
        assert np.array_equal(again.outputs, eager_forward(paths["p"], x))
        # the reloaded model was captured afresh, not served eagerly
        assert replayed == 1
