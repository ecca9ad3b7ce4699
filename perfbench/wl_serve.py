"""Open-loop serving: one ``ModelServer`` (defaults: one shard, deadline
batching, ``graph.infer`` replay) serving a 4-bit released
``resnet8_tiny`` at (3, 16, 16), driven by seeded Pareto arrival
schedules through a fixed ladder of rates.

One event loop on one thread sends every request at its scheduled time
and calls ``ModelServer.infer`` directly; a request's latency runs from
when it was *due*, so a stall also charges the requests queued behind
it.  All ladder steps hit the same server instance.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import Outcome, peak_rss_mb, work_dir
from stats import (StepOutcome, Tally, backlog_grows, busy_seconds,
                   latency_ms_with_failures, max_sustained_rate, percentile)

#: Offered rate (req/s) -> share of the run.  The rates span below and
#: above one shard's saturation (about 1000-2000 req/s on a 2-core VM).
#: The gated latencies are at GATED_RATE; the gated capacity comes from
#: the OVERLOAD_STEPS highest rates.  Most of the run goes to those, and
#: the ladder runs ROUNDS times, so a slow spell of the host lands on a
#: minority of each rate's samples instead of all of them.
STEP_SHARES = {300: 0.3, 900: 0.1, 1800: 0.3, 2400: 0.3}
LADDER = tuple(STEP_SHARES)
ROUNDS = 3
GATED_RATE = 300
OVERLOAD_STEPS = 2
SLO_MS = 250.0          # ModelServer's default slo_ms
ALPHA = 1.5             # Pareto tail index of the arrival gaps
DEADLINE_MS = 1000.0    # ServeConfig.default_deadline_ms
DRAIN_TIMEOUT_S = 30.0
CHECK_EVERY = 25        # keep (and verify) one batch in this many
INPUT_SHAPE = (3, 16, 16)


@dataclass
class BatchLog:
    """One parent-side ``ShardPool.request`` round trip; the arrays are
    kept only for the batches the output check will verify."""

    wall_s: float
    handler_s: float
    ok: bool
    inputs: Optional[np.ndarray] = None
    outputs: Optional[np.ndarray] = None


@dataclass
class ServeState:
    seed: int
    loop: asyncio.AbstractEventLoop
    server: Any
    artifact: str
    workdir: str
    batches: List[BatchLog] = field(default_factory=list)
    warmup: List[Tuple[int, Any]] = field(default_factory=list)
    keep_all: bool = True  # keep every batch's arrays (during warm-up)


def _log_requests(state: ServeState) -> None:
    """Record every shard round trip (wall and handler time, and the
    arrays of every :data:`CHECK_EVERY`-th batch).  The class attribute is
    looked up per call, so a tracing wrapper installed later still runs
    underneath."""
    pool = state.server.shard_pool

    def request(payload, shard=None, timeout=None):
        start = time.perf_counter()
        result = type(pool).request(pool, payload, shard, timeout)
        log = BatchLog(time.perf_counter() - start, float(result.duration_s),
                       bool(result.ok))
        if result.ok and (state.keep_all
                          or len(state.batches) % CHECK_EVERY == 0):
            log.inputs = payload["inputs"]
            log.outputs = np.asarray(result.value)
        state.batches.append(log)
        return result

    pool.request = request


def setup(seed: int) -> ServeState:
    """Artifact build, server start and warm-up (one request burst per
    batch size, so every replay program is captured before timing)."""
    from repro.models import resnet8_tiny
    from repro.quantization import (UniformQuantizer, apply_quantization,
                                    levels_for_bits)
    from repro.serve import ModelServer, save_artifact

    workdir = work_dir(f"serve-{os.getpid()}")
    kwargs = dict(num_classes=10, in_channels=3, width=8)
    model = resnet8_tiny(rng=np.random.default_rng(seed), **kwargs)
    apply_quantization(model, UniformQuantizer(levels_for_bits(4))
                       .quantize_model(model))
    artifact = os.path.join(workdir, "released")
    save_artifact(model, artifact, "resnet8_tiny", model_kwargs=kwargs,
                  input_shape=INPUT_SHAPE,
                  quantization={"bits": 4, "method": "uniform"}, seed=seed)
    loop = asyncio.new_event_loop()
    server = ModelServer({"released": artifact})
    loop.run_until_complete(server.start())
    state = ServeState(seed, loop, server, artifact, workdir)
    _log_requests(state)

    async def burst(size: int) -> None:
        seeds = [seed * 100_000 + size * 100 + i for i in range(size)]
        responses = await asyncio.gather(
            *(server.infer(input_seed=s, request_id=f"warmup-{s}")
              for s in seeds))
        state.warmup.extend(zip(seeds, responses))

    for size in range(1, server.config.max_batch + 1):
        loop.run_until_complete(burst(size))
    state.keep_all = False
    return state


def close(state: ServeState) -> None:
    state.loop.run_until_complete(state.server.close())
    state.loop.close()
    shutil.rmtree(state.workdir, ignore_errors=True)


# ------------------------------------------------------------- one step
@dataclass
class StepRecord:
    rate: int
    window_s: float
    sends: List[float] = field(default_factory=list)        # relative
    completions: List[float] = field(default_factory=list)  # relative
    late_ms: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    responses: List[Tuple[int, Any]] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    batches: List[BatchLog] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


_COUNTERS = ("serve.requests", "serve.responses", "serve.refused",
             "serve.infer_replays", "serve.deadline_missed")


def _counters() -> Dict[str, float]:
    from repro.telemetry.metrics import default_registry

    registry = default_registry()
    return {name: registry.counter(name).value for name in _COUNTERS}


async def _step(server, trace, rate: int, round_: int) -> StepRecord:
    record = StepRecord(rate, 0.0)
    start = time.perf_counter()
    done_at: Dict[int, float] = {}

    async def one(entry, due: float):
        response = await server.infer(
            input_seed=entry.input_seed, deadline_ms=entry.deadline_ms,
            request_id=f"r{rate}-{round_}-{entry.index}")
        done_at[entry.index] = time.perf_counter()
        return entry, due, response

    tasks = []
    for entry in trace:
        due = start + entry.arrival_s
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        record.late_ms.append((sent - due) * 1e3)
        record.sends.append(sent - start)
        tasks.append(asyncio.ensure_future(one(entry, due)))
    record.window_s = time.perf_counter() - start
    finished, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
    for task in pending:
        task.cancel()
    for task in tasks:   # completions stay aligned with sends
        if task in pending:
            record.tally.fail("lost")
            record.completions.append(float("inf"))
            continue
        entry, due, response = task.result()
        record.completions.append(done_at[entry.index] - start)
        if response.ok:
            record.tally.succeed()
            record.latencies_ms.append((done_at[entry.index] - due) * 1e3)
            record.responses.append((entry.input_seed, response))
        else:
            record.tally.fail(response.error_kind or "error")
    return record


def run_ladder(state: ServeState, seconds: float) -> List[StepRecord]:
    """:data:`ROUNDS` passes over the ladder, one step per rate each."""
    from repro.serve import LoadGenConfig, generate_trace

    records = []
    for round_ in range(ROUNDS):
        for rate in LADDER:
            step_s = seconds * STEP_SHARES[rate] / ROUNDS
            trace = generate_trace(LoadGenConfig(
                seed=(state.seed * ROUNDS + round_) * 10_000 + rate,
                n_requests=max(1, int(rate * step_s)), rate_rps=rate,
                alpha=ALPHA, deadline_ms=DEADLINE_MS))
            before_counters, before_batches = _counters(), len(state.batches)
            record = state.loop.run_until_complete(
                _step(state.server, trace, rate, round_))
            after = _counters()
            record.counters = {k: after[k] - before_counters[k]
                               for k in after}
            record.batches = state.batches[before_batches:]
            records.append(record)
    return records


def by_rate(records: List[StepRecord]) -> Dict[int, List[StepRecord]]:
    grouped: Dict[int, List[StepRecord]] = {}
    for record in records:
        grouped.setdefault(record.rate, []).append(record)
    return grouped


# ------------------------------------------------------------- summaries
def _latencies(steps: List[StepRecord]) -> List[float]:
    return [latency for step in steps for latency in
            latency_ms_with_failures(step.latencies_ms, step.tally.failed)]


def step_outcome(steps: List[StepRecord]) -> StepOutcome:
    """One rate's steps: p90 over all of them; the backlog grew if it
    grew within any of them."""
    return StepOutcome(
        rate_rps=steps[0].rate, p90_ms=percentile(_latencies(steps), 90),
        backlog_grew=any(backlog_grows(s.sends, s.completions, s.window_s,
                                       s.rate) for s in steps),
        failed=sum(s.tally.failed for s in steps))


def capacity_rps(steps: List[StepRecord]) -> float:
    """Requests completed per second of busy time (some request in
    flight) over steps the server cannot keep up with: its sustained
    capacity.  Busy time leaves out the silences of the heavy-tailed
    schedule, when even an overloaded server has nothing to do."""
    ok = sum(s.tally.ok for s in steps)
    return ok / sum(busy_seconds(s.sends, s.completions) for s in steps)


def step_layers(steps: List[StepRecord]) -> Dict[str, float]:
    """Per-rate layer metrics (suffix ``.r<rate>``)."""
    responses = [r for s in steps for _, r in s.responses]
    logged = [b for s in steps for b in s.batches]
    batches = [b for b in logged if b.ok]
    queue = [r.queue_ms for r in responses] or [0.0]
    infer = [r.infer_ms for r in responses] or [0.0]
    handler = [b.handler_s * 1e3 for b in batches] or [0.0]
    ipc = [(b.wall_s - b.handler_s) * 1e3 for b in batches] or [0.0]
    replays = sum(s.counters["serve.infer_replays"] for s in steps)
    latencies = _latencies(steps) or [0.0]
    suffix = f".r{steps[0].rate}"
    return {
        "serve.latency_p50_ms" + suffix: percentile(latencies, 50),
        "serve.latency_p90_ms" + suffix: percentile(latencies, 90),
        "serve.latency_p99_ms" + suffix: percentile(latencies, 99),
        "serve.queue_p50_ms" + suffix: percentile(queue, 50),
        "serve.queue_p90_ms" + suffix: percentile(queue, 90),
        "serve.batch_size" + suffix:
            float(np.mean([r.batch_size for r in responses]))
            if responses else 0.0,
        "serve.infer_ms" + suffix: percentile(infer, 50),
        "parallel.shards.handler_ms" + suffix: percentile(handler, 50),
        "parallel.shards.ipc_ms" + suffix: percentile(ipc, 50),
        "graph.infer_replay_frac" + suffix:
            replays / len(logged) if logged else 0.0,
        "serve.refused" + suffix:
            float(sum(s.tally.failures.get("refused", 0) for s in steps)),
        "serve.deadline_missed" + suffix:
            float(sum(1 for r in responses if r.deadline_missed)),
        "loadgen.late_p99_ms" + suffix:
            percentile([late for s in steps for late in s.late_ms], 99),
    }


def measure(state: ServeState, seconds: float, outcome: Outcome,
            ) -> List[StepRecord]:
    """Run the ladder in ``seconds``; fills the gated latencies (at
    :data:`GATED_RATE`), the capacity and the sustained rate."""
    records = run_ladder(state, seconds)
    outcome.peak_rss_mb = peak_rss_mb(include_self=True)
    rates = by_rate(records)
    for rate, steps in rates.items():
        tally, counted = Tally(), dict.fromkeys(_COUNTERS, 0.0)
        for step in steps:
            tally.merge(step.tally)
            for name, value in step.counters.items():
                counted[name] += value
        outcome.tally.merge(tally)
        outcome.check(
            f"server counters agree at {rate} rps",
            counted["serve.requests"] == tally.attempted
            and counted["serve.responses"] == tally.ok
            and counted["serve.refused"] == tally.failures.get("refused", 0),
            f"server {counted} vs client ok={tally.ok} "
            f"failures={tally.failures}")
    outcome.latencies_ms.extend(_latencies(rates[GATED_RATE]))
    outcome.throughput_per_s = capacity_rps(
        [s for rate in LADDER[-OVERLOAD_STEPS:] for s in rates[rate]])
    outcomes = [step_outcome(steps) for steps in rates.values()]
    outcome.layers["serve.max_rate_rps"] = max_sustained_rate(outcomes, SLO_MS)
    outcome.extra["max_rate_rps"] = outcome.layers["serve.max_rate_rps"]
    outcome.extra["steps"] = [
        {"rate": o.rate_rps, "p90_ms": o.p90_ms,
         "backlog_grew": o.backlog_grew, "failed": o.failed}
        for o in outcomes]
    return records


# ------------------------------------------------------------- checks
def _kept_rows(responses, batches: List[BatchLog]):
    """(input seed, response, batch, row) for every response that came
    back in a batch whose arrays were kept; a response's outputs are a
    row slice of its batch's outputs, so its data pointer finds both."""
    kept = sorted((b.outputs.ctypes.data, b) for b in batches
                  if b.outputs is not None)
    starts = [start for start, _ in kept]
    for input_seed, response in responses:
        pointer = response.outputs.ctypes.data
        index = bisect.bisect_right(starts, pointer) - 1
        if index < 0:
            continue
        start, batch = kept[index]
        if pointer < start + batch.outputs.nbytes:
            yield (input_seed, response, batch,
                   (pointer - start) // batch.outputs.strides[0])


def check_responses(state: ServeState, records: List[StepRecord],
                    outcome: Outcome) -> None:
    """Responses in the kept batches (every warm-up batch and one batch
    in :data:`CHECK_EVERY`) must equal, bitwise, the matching row of an
    eager forward of the ``load_artifact`` model over the same coalesced
    batch, and that batch row must be ``synthesize_input(seed)``."""
    from repro import backend
    from repro.autograd import Tensor, no_grad
    from repro.serve import load_artifact

    model, _ = load_artifact(state.artifact)
    eager: Dict[int, np.ndarray] = {}
    responses = list(state.warmup)
    for record in records:
        responses.extend(record.responses)
    sampled = list(_kept_rows(responses, state.batches))
    mismatches, max_single_diff = [], 0.0
    for input_seed, response, batch, row in sampled:
        key = id(batch)
        if key not in eager:
            with backend.use_backend(state.server.config.backend), no_grad():
                eager[key] = np.asarray(model(Tensor(batch.inputs)).data)
        expected_input = state.server.synthesize_input(input_seed)
        if not np.array_equal(batch.inputs[row:row + 1], expected_input):
            mismatches.append(f"{response.request_id}: input row differs")
        elif not np.array_equal(response.outputs, eager[key][row:row + 1]):
            mismatches.append(f"{response.request_id}: outputs differ")
        with backend.use_backend(state.server.config.backend), no_grad():
            single = np.asarray(model(Tensor(expected_input)).data)
        max_single_diff = max(max_single_diff, float(
            np.abs(single - response.outputs).max()))
    steps_checked = {response.request_id.split("-")[0]
                     for _, response, _, _ in sampled}
    required = {"warmup"} | {f"r{record.rate}" for record in records}
    outcome.check(f"{len(sampled)} sampled responses bitwise equal eager "
                  "forward", not mismatches, "; ".join(mismatches[:5]))
    outcome.check("warm-up and every step sampled",
                  required <= steps_checked,
                  f"sampled {sorted(steps_checked)}, need {sorted(required)}")
    outcome.extra["max_abs_diff_vs_batch1_eager"] = max_single_diff
