"""In-process correlation training: the attack's Eq. 2 training stage on
the CLI's cifar model, through ``Trainer.train()``.

Each operation trains a freshly built ``resnet8_tiny`` (width 8, 16x16
RGB, 6 classes) for :data:`EPOCHS` epochs at batch 32 with the
``LayerwiseCorrelationPenalty`` on the deep group, exactly as the attack
flow sets it up.  ``train-w1`` trains serially; ``train-w2`` passes
``ddp_workers=2``, so every call pays fork, arena set-up and teardown as
users do.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, List

from common import BACKEND, DTYPE, Outcome, peak_rss_mb

N_IMAGES = 240          # the CLI's cifar dataset size (192 train images)
EPOCHS = 2
BATCH_SIZE = 32
LR = 0.08
LAYER_RANGES = ((1, 2), (3, 4), (5, -1))
RATES = (0.0, 0.0, 20.0)
STD_WINDOW = 8.0
MIN_CALLS = 5
#: |fast float32 - reference float64| allowed on the world-1 final loss;
#: ``oracle_gap.py`` found at most 6.2e-5 over seeds 0-9.
FINAL_LOSS_TOLERANCE = 1e-3


@dataclass
class TrainState:
    seed: int
    world: int
    train: Any
    inputs: Any
    payload: Any


def setup(seed: int, world: int) -> TrainState:
    """Data generation, normalisation and target selection (what the
    attack flow does before its training stage)."""
    from repro.attacks.layerwise import group_by_layer_ranges
    from repro.attacks.secret import SecretPayload
    from repro.datasets import (SyntheticCifarConfig, make_synthetic_cifar,
                                train_test_split)
    from repro.datasets.transforms import images_to_batch, normalize_batch
    from repro.preprocessing.selection import select_encoding_targets

    data = make_synthetic_cifar(SyntheticCifarConfig(
        num_images=N_IMAGES, num_classes=6, image_size=16, seed=seed))
    train, _ = train_test_split(data, test_fraction=0.2, seed=0)
    inputs, _, _ = normalize_batch(images_to_batch(train.images))
    groups = group_by_layer_ranges(_model(seed, train), LAYER_RANGES, RATES)
    capacity = sum(g.capacity(train.pixels_per_image)
                   for g in groups if g.rate > 0.0)
    selection = select_encoding_targets(train, capacity, window=STD_WINDOW)
    payload = SecretPayload.from_dataset(train, selection.target_indices)
    return TrainState(seed, world, train, inputs, payload)


def _model(seed: int, train):
    import numpy as np

    from repro.models import resnet8_tiny
    return resnet8_tiny(num_classes=train.num_classes,
                        in_channels=train.image_shape[2], width=8,
                        rng=np.random.default_rng(seed))


def build_trainer(state: TrainState, world: int, backend: str = BACKEND,
                  dtype: str = DTYPE):
    """A fresh model, penalty and trainer: every call starts from the
    same weights, so repeated calls must agree exactly."""
    from repro import precision
    from repro.attacks.layerwise import (LayerwiseCorrelationPenalty,
                                         assign_payload, group_by_layer_ranges)
    from repro.pipeline import TrainingConfig
    from repro.pipeline.trainer import Trainer

    with precision.use_dtype(dtype):
        model = _model(state.seed, state.train)
    groups = group_by_layer_ranges(model, LAYER_RANGES, RATES)
    assign_payload(groups, state.payload)
    config = TrainingConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, lr=LR,
                            seed=state.seed)
    trainer = Trainer(model, state.inputs, state.train.labels, config,
                      penalty=LayerwiseCorrelationPenalty(groups),
                      backend=backend, dtype=dtype, ddp_workers=world)
    return model, trainer


def fingerprint(model, history) -> str:
    """Digest of the loss history and every trained parameter."""
    digest = hashlib.sha256(repr((history.task_loss, history.penalty))
                            .encode())
    for param in model.parameters():
        digest.update(param.data.tobytes())
    return digest.hexdigest()


def oracle_final_loss(state: TrainState) -> float:
    """World-1 final task loss on the reference backend in float64."""
    _, trainer = build_trainer(state, 1, "reference", "float64")
    return trainer.train().task_loss[-1]


def measure(state: TrainState, seconds: float, outcome: Outcome,
            ) -> List[str]:
    """Train back to back for ``seconds`` (at least :data:`MIN_CALLS`
    times); returns each call's fingerprint."""
    prints: List[str] = []
    walls: List[float] = []
    samples = len(state.train.labels) * EPOCHS
    loop_start = time.perf_counter()
    while (time.perf_counter() - loop_start < seconds
           or len(prints) < MIN_CALLS):
        model, trainer = build_trainer(state, state.world)
        start = time.perf_counter()
        history = trainer.train()
        walls.append(time.perf_counter() - start)
        outcome.tally.succeed()
        prints.append(fingerprint(model, history))
        outcome.extra.setdefault("final_losses", []).append(
            history.task_loss[-1])
    outcome.latencies_ms.extend(w * 1e3 for w in walls)
    outcome.throughput_per_s = samples / (outcome.p50_ms() / 1e3)
    outcome.peak_rss_mb = peak_rss_mb(include_self=True)
    return prints
