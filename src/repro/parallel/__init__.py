"""Process-pool experiment execution with deterministic seeding.

Pieces:

* :mod:`repro.parallel.worker` -- :class:`Worker`: the one fork
  primitive under the pool, the shards and DDP (one child loop, one
  :class:`Reply` envelope with telemetry, one teardown), plus the
  in-process :class:`InlineWorker` stand-in.
* :mod:`repro.parallel.pool` -- :class:`WorkerPool`: chunked
  multi-process task scheduling with per-task timeouts, bounded retry
  of crashed workers, structured :class:`TaskOutcome` failure records
  (never pool-wide aborts), per-worker telemetry snapshot ship-back,
  and a transparent in-process serial fallback.
* :mod:`repro.parallel.shards` -- :class:`ShardPool`: *persistent*
  worker processes holding expensive state (loaded model artifacts)
  and answering a request stream, with shard respawn + bounded retry
  of in-flight requests on crash.  The serving layer's execution
  substrate.
* :mod:`repro.parallel.seeding` -- ``SeedSequence``-based per-task seed
  derivation so parallel and serial runs produce identical records.
* :mod:`repro.parallel.arena` -- :class:`SharedTensorArena`: named
  tensors inside one ``multiprocessing.shared_memory`` segment with a
  picklable registry/attach protocol and crash-safe unlink sweeps.
* :mod:`repro.parallel.ddp` -- :class:`DDPContext`: persistent
  fork-based data-parallel training ranks sharing parameters and
  gradient slabs through an arena, with a deterministic tree-structured
  all-reduce (``Trainer(ddp_workers=N)``, the CLI's ``--ddp-workers``).

Consumers: ``pipeline.sweep`` (``Sweep.run(parallel=N)``),
``pipeline.baselines`` (:func:`run_baseline_suite`),
``autograd.grad_check`` (parallel finite-difference probes),
``repro.serve`` (:class:`~repro.serve.server.ModelServer` dispatch),
and the CLI's global ``--workers`` flag.
"""

from repro.parallel.arena import ArenaSpec, SharedTensorArena, cleanup_stale_segments
from repro.parallel.ddp import (
    DDPContext,
    ddp_config,
    default_ddp_workers,
    reduce_plan,
    set_default_ddp_workers,
)
from repro.parallel.pool import Task, TaskOutcome, WorkerPool, cpu_workers
from repro.parallel.seeding import (
    rng_for_index,
    sequence_for_index,
    spawn_sequences,
)
from repro.parallel.shards import ShardPool, ShardResult
from repro.parallel.worker import InlineWorker, Reply, Worker

__all__ = [
    "Worker", "InlineWorker", "Reply",
    "Task", "TaskOutcome", "WorkerPool", "cpu_workers",
    "ShardPool", "ShardResult",
    "ArenaSpec", "SharedTensorArena", "cleanup_stale_segments",
    "DDPContext", "ddp_config", "default_ddp_workers",
    "set_default_ddp_workers", "reduce_plan",
    "rng_for_index", "sequence_for_index", "spawn_sequences",
]
