"""The repository's benchmark: one command per workload run.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``attack-cli``     -- cold ``repro.cli`` digits attack subprocesses;
* ``train-w1``       -- in-process correlation training, serial;
* ``train-w2``       -- the same at ``ddp_workers=2``;
* ``serve-openloop`` -- open-loop rate ladder against one ``ModelServer``;
* ``attack-arms``    -- cold three-arm cifar attack with ``--workers 2``
  (runnable, not gated: see the notes).

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs half the time untraced and half with spans wrapped
around the program's public entry points, and reports the per-layer
metrics plus the tracing overhead (traced minus untraced).

The script prints a human-readable report (environment as found, every
metric with unit and sample count, every output check), then as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  It exits 1 when an output check fails and 2 when the
program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import uuid
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (SRC, Outcome, environment, probe_setup,  # noqa: E402
                    program_present, stop_helpers, work_dir)

#: End-to-end metrics: every workload reports each one (see NOTES.md for
#: what the operation is on each workload).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: The same figures under the names the workloads' users know them by
#: (printed, not gated separately): (name, unit, source metric, scale).
ALIASES: Dict[str, Tuple[Tuple[str, str, str, float], ...]] = {
    "attack-cli": (("wall_s", "s", "p50_ms", 1e-3),),
    "attack-arms": (("wall_s", "s", "p50_ms", 1e-3),),
    "train-w1": (("train.w1.samples_per_s", "samples/s",
                  "throughput_per_s", 1.0),),
    "train-w2": (("train.w2.samples_per_s", "samples/s",
                  "throughput_per_s", 1.0),),
    "serve-openloop": (("serve.p50_ms", "ms", "p50_ms", 1.0),
                       ("serve.p90_ms", "ms", "p90_ms", 1.0),
                       ("serve.capacity_rps", "req/s", "throughput_per_s",
                        1.0)),
}

SETUP_REPEATS = 5


def _serve_rates() -> Tuple[int, ...]:
    from wl_serve import LADDER
    return LADDER


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    from spans import TOP_KERNELS
    rows = [("cli.import_s", "s")]
    rows += [(name, "s") for name in (
        "datasets.generate_s", "preprocessing.select_s", "pipeline.train_s",
        "quantization.quantize_s", "quantization.finetune_s",
        "pipeline.evaluate_s", "pipeline.forward_backward_s",
        "autograd.backward_s", "attacks.penalty_s", "nn.optim_step_s",
        "nn.loader_wait_s")]
    rows += [("nn.steps", "count"), ("backend.kernel_calls", "count"),
             ("backend.kernel_s", "s"),
             ("backend.kernel_bytes", "bytes_computed")]
    for kernel in TOP_KERNELS:
        rows += [(f"backend.{kernel}.calls", "count"),
                 (f"backend.{kernel}.s", "s")]
    rows += [("parallel.ddp.start_s", "s"), ("parallel.ddp.rank0_step_s", "s"),
             ("parallel.ddp.finish_step_s", "s"),
             ("parallel.ddp.end_epoch_s", "s"),
             ("parallel.ddp.allreduce_s", "s"), ("parallel.ddp.barrier_s", "s"),
             ("parallel.ddp.bytes_moved", "bytes_computed"),
             ("parallel.ddp.steps", "count"),
             ("parallel.pool.run_s", "s"), ("parallel.pool.busy_frac", "ratio"),
             ("parallel.pool.retries", "count"),
             ("parallel.pool.failed", "count"),
             ("serve.max_rate_rps", "1/s")]
    for rate in _serve_rates():
        rows += [(f"serve.latency_p50_ms.r{rate}", "ms"),
                 (f"serve.latency_p90_ms.r{rate}", "ms"),
                 (f"serve.latency_p99_ms.r{rate}", "ms"),
                 (f"serve.queue_p50_ms.r{rate}", "ms"),
                 (f"serve.queue_p90_ms.r{rate}", "ms"),
                 (f"serve.batch_size.r{rate}", "count"),
                 (f"serve.infer_ms.r{rate}", "ms"),
                 (f"parallel.shards.handler_ms.r{rate}", "ms"),
                 (f"parallel.shards.ipc_ms.r{rate}", "ms"),
                 (f"graph.infer_replay_frac.r{rate}", "ratio"),
                 (f"serve.refused.r{rate}", "count"),
                 (f"serve.deadline_missed.r{rate}", "count"),
                 (f"loadgen.late_p99_ms.r{rate}", "ms")]
    rows += [("trace.p50_ms_delta", "ms"), ("trace.throughput_delta", "1/s")]
    return tuple(rows)


# ------------------------------------------------------------- workloads
def _overhead(base: Outcome, traced: Outcome) -> Dict[str, float]:
    return {"trace.p50_ms_delta": traced.p50_ms() - base.p50_ms(),
            "trace.throughput_delta":
                traced.throughput_per_s - base.throughput_per_s}


def _split(untraced: Outcome, traced: Outcome) -> Outcome:
    """The untraced half supplies the end-to-end figures, the traced
    half the layers; both halves' checks and operations count."""
    untraced.layers = dict(traced.layers, **_overhead(untraced, traced))
    untraced.checks.extend(traced.checks)
    untraced.tally.merge(traced.tally)
    return untraced


def run_cli_workload(fn: Callable[..., Outcome], seed: int, seconds: float,
                     trace: bool) -> Outcome:
    if not trace:
        return fn(seed, seconds)
    return _split(fn(seed, seconds / 2), fn(seed, seconds / 2, traced=True))


def run_train(world: int, seed: int, seconds: float, trace: bool) -> Outcome:
    import spans
    import wl_train

    state = wl_train.setup(seed, world)
    outcome = Outcome()
    prints = wl_train.measure(state, seconds / 2 if trace else seconds,
                              outcome)
    if trace:
        traced = Outcome()
        recorder = spans.Recorder(run_id=os.environ["PERFBENCH_RUN_ID"])
        uninstall = spans.install(recorder)
        try:
            prints += wl_train.measure(state, seconds / 2, traced)
        finally:
            uninstall()
        recorder.write(os.path.join(work_dir(),
                                    f"trace-train-w{world}-{seed}.json"))
        calls = traced.tally.ok
        traced.layers.update(spans.stage_metrics(recorder.spans, calls))
        traced.layers.update(spans.step_metrics(recorder.spans, calls))
        traced.layers.update({k: v / calls for k, v in
                              spans.kernel_metrics(recorder.kernels).items()})
        traced.layers.update(spans.ddp_metrics(recorder.spans, calls))
        outcome = _split(outcome, traced)
    outcome.check(f"world {world} repeats bit-identically",
                  len(set(prints)) == 1,
                  f"{len(set(prints))} distinct results over {len(prints)} calls")
    if world == 1:
        oracle = wl_train.oracle_final_loss(state)
        final = outcome.extra["final_losses"][0]
        tolerance = wl_train.FINAL_LOSS_TOLERANCE
        outcome.check("world 1 final loss inside the reference band",
                      abs(final - oracle) <= tolerance,
                      f"final {final:.6f} reference {oracle:.6f} "
                      f"tolerance {tolerance}")
        outcome.extra["reference_final_loss"] = oracle
    return outcome


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    import spans
    import wl_serve

    state = wl_serve.setup(seed)
    try:
        outcome = Outcome()
        records = wl_serve.measure(state, seconds / 2 if trace else seconds,
                                   outcome)
        if trace:
            traced = Outcome()
            recorder = spans.Recorder(run_id=os.environ["PERFBENCH_RUN_ID"])
            uninstall = spans.install(recorder)
            try:
                traced_records = wl_serve.measure(state, seconds / 2, traced)
            finally:
                uninstall()
            recorder.write(os.path.join(work_dir(),
                                        f"trace-serve-{seed}.json"))
            for steps in wl_serve.by_rate(traced_records).values():
                traced.layers.update(wl_serve.step_layers(steps))
            records += traced_records
            outcome = _split(outcome, traced)
        wl_serve.check_responses(state, records, outcome)
    finally:
        wl_serve.close(state)
    return outcome


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Outcome:
    import wl_attack

    if name == "attack-cli":
        return run_cli_workload(wl_attack.attack_cli, seed, seconds, trace)
    if name == "attack-arms":
        return run_cli_workload(wl_attack.attack_arms, seed, seconds, trace)
    if name == "train-w1":
        return run_train(1, seed, seconds, trace)
    if name == "train-w2":
        return run_train(2, seed, seconds, trace)
    return run_serve(seed, seconds, trace)


WORKLOADS = ("attack-cli", "train-w1", "train-w2", "serve-openloop",
             "attack-arms")


# ---------------------------------------------------------------- report
def report(workload: str, seed: int, env: Dict, outcome: Outcome,
           setup: List[float], trace: bool) -> Dict:
    samples = len(outcome.latencies_ms)
    e2e = {
        "setup_s": (statistics.median(setup), len(setup)),
        "p50_ms": (outcome.p50_ms(), samples),
        "throughput_per_s": (outcome.throughput_per_s, samples),
        "peak_rss_mb": (outcome.peak_rss_mb, 1),
    }
    units = dict(END_TO_END)
    shown = dict(e2e, p90_ms=(outcome.p90_ms(), samples))
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("environment (as found): " + json.dumps(env, sort_keys=True))
    print(f"{'metric':<40} {'value':>14} {'unit':<15} {'n':>6}")
    for name, (value, n) in e2e.items():
        print(f"{name:<40} {value:>14.6g} {units[name]:<15} {n:>6}")
    print(f"{'p90_ms (not gated)':<40} {outcome.p90_ms():>14.6g} "
          f"{'ms':<15} {samples:>6}")
    print(f"{'fail_frac':<40} {outcome.tally.fail_frac:>14.6g} "
          f"{'ratio':<15} {outcome.tally.attempted:>6}")
    for alias, unit, source, scale in ALIASES[workload]:
        value, n = shown[source]
        print(f"{'= ' + alias:<40} {value * scale:>14.6g} {unit:<15} {n:>6}")
    for key, value in sorted(outcome.extra.items()):
        print(f"  {key}: {json.dumps(value, default=str)[:400]}")
    for check, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {check}"
              + ("" if ok else f": {detail}"))
    if trace:
        layers = {name: (outcome.layers.get(name, 0.0), unit)
                  for name, unit in _per_layer()}
        for name, (value, unit) in layers.items():
            print(f"{name:<40} {value:>14.6g} {unit:<15}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, (value, _) in e2e.items()}
    return {"correct": outcome.correct,
            "attempted": max(1, outcome.tally.attempted),
            "failed": outcome.tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the full result (environment, "
                             "checks, every metric) as JSON")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"perfbench: the program is missing ({SRC}/repro); run from "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a terminated run still unwinds, so the teardown below runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run(args)
    finally:
        stop_helpers()


def _run(args: argparse.Namespace) -> int:
    os.environ["PERFBENCH_RUN_ID"] = uuid.uuid4().hex[:12]
    env = environment()
    trace = bool(args.trace)
    start = time.perf_counter()
    outcome = run_workload(args.workload, args.seed, args.seconds, trace)
    setup, reports = probe_setup(args.workload, args.seed, SETUP_REPEATS)
    if args.workload.startswith("attack-"):
        outcome.layers["cli.import_s"] = statistics.median(
            r["import_s"] for r in reports)
    result = report(args.workload, args.seed, env, outcome, setup, trace)
    print(f"run took {time.perf_counter() - start:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": env, "result": result,
                       "checks": outcome.checks, "extra": outcome.extra,
                       "layers": outcome.layers}, handle, indent=1,
                      default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
