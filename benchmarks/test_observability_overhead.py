"""Observability stack overhead gate.

Times the same monitored attack-training epoch with and without the
full observability stack live on top of it -- metrics exporter thread,
wall-clock stack sampler, and the default alert-rule engine -- and
asserts the stack adds under the overhead budget.  Per-epoch numbers
and the signed overhead fraction are printed (``pytest -s``); a
negative overhead means the observed epoch ran faster, i.e. the stack's
cost is below the run-to-run noise.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.monitor import Monitor, default_probes
from repro.monitor.alerts import default_rules
from repro.pipeline import TrainingConfig
from repro.pipeline.trainer import Trainer
from repro.telemetry.export import serve_metrics, stop_exporter
from repro.telemetry.sampler import StackSampler

from .test_monitor_overhead import _attack_setup, _best_epoch_seconds

pytestmark = pytest.mark.slow

# Exporter + sampler + alerts may cost at most this much on top of an
# already-monitored epoch: the exporter is a pull-based idle thread,
# the sampler wakes ~25x/s off-thread, and the rule engine evaluates a
# handful of comparisons once per epoch tick.
OVERHEAD_BUDGET = 0.03
SAMPLER_HZ = 25.0


def _monitored_trainer(alerts=None):
    model, batch, labels, groups, payload, mean, std, penalty = _attack_setup()
    monitor = Monitor(default_probes(decode_images=2), alerts=alerts).bind(
        groups=groups, payload=payload, mean=mean, std=std)
    trainer = Trainer(model, batch, labels,
                      TrainingConfig(epochs=1, batch_size=32, lr=0.05, seed=0),
                      penalty=penalty, probes=monitor)
    return trainer, monitor


def test_observability_stack_overhead():
    trainer, monitor = _monitored_trainer()
    trainer.train_epoch()  # warm-up: first-touch allocations stay untimed
    monitored_s = _best_epoch_seconds(trainer)

    observed_trainer, observed_monitor = _monitored_trainer(
        alerts=default_rules())
    observed_trainer.train_epoch()  # same warm-up on the observed side
    exporter = serve_metrics(port=0)
    sampler = StackSampler(hz=SAMPLER_HZ).start()
    try:
        observed_s = _best_epoch_seconds(observed_trainer)
    finally:
        sampler.stop()
        stop_exporter()

    overhead = observed_s / monitored_s - 1.0
    print(f"\nobservability overhead: monitored {monitored_s * 1e3:.1f} "
          f"ms/epoch vs observed {observed_s * 1e3:.1f} ms/epoch -> "
          f"{overhead:+.2%} ({sampler.sample_count} sampler samples, "
          f"budget {OVERHEAD_BUDGET:.0%})")

    # the stack actually observed something while training ran
    assert sampler.sample_count > 0
    assert exporter.port > 0
    assert observed_monitor.probe_records(scope="epoch")
    assert not observed_monitor.errors()
    assert overhead < OVERHEAD_BUDGET, (
        f"observability stack costs {overhead:.1%} per monitored epoch "
        f"(monitored {monitored_s * 1e3:.1f} ms, "
        f"observed {observed_s * 1e3:.1f} ms); budget {OVERHEAD_BUDGET:.0%}")
