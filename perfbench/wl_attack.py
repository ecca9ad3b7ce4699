"""CLI workloads: cold ``python -m repro.cli ... attack`` subprocesses,
run back to back by one closed-loop client.

``attack-cli`` is the digits attack the ROADMAP tracks as its cold run.
``attack-arms`` runs three cifar bitwidth arms through the worker pool
(``--workers 2``); it is kept runnable by hand but is not in
``BENCHMARK.json`` (see ``perfbench/NOTES.md``).
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from common import (BACKEND, DTYPE, HERE, ROOT, Outcome, child_env,
                    peak_rss_mb, work_dir)
from spans import (kernel_metrics, load_records, merge_kernels, pool_metrics,
                   stage_metrics, step_metrics)

CLI_TIMEOUT_S = 170.0
MIN_INVOCATIONS = 3

_RELEASED = re.compile(
    r"(?P<label>uncompressed|\d+-bit released): accuracy (?P<accuracy>[\d.]+)%, "
    r"MAPE (?P<mape>[\d.]+), SSIM (?P<ssim>-?[\d.]+), "
    r"recognizable (?P<recognized>\d+)/(?P<encoded>\d+)")
_ARM_ROW = re.compile(r"^\d+-bit\s*\|")


def digits_args(seed: int, backend: str = BACKEND,
                dtype: str = DTYPE) -> List[str]:
    return ["--backend", backend, "--dtype", dtype, "attack",
            "--dataset", "digits", "--epochs", "2", "--batch-size", "64",
            "--seed", str(seed), "--data-seed", str(seed)]


def arms_args(seed: int, workers: int, backend: str = BACKEND,
              dtype: str = DTYPE) -> List[str]:
    return ["--backend", backend, "--dtype", dtype, "--workers", str(workers),
            "attack", "--dataset", "cifar", "--bits", "4", "3", "2",
            "--seed", str(seed), "--data-seed", str(seed)]


def parse_released(stdout: str) -> Dict[str, Dict[str, float]]:
    """``{"uncompressed": {...}, "released": {...}}`` from a single-arm
    attack's report lines."""
    found = {}
    for match in _RELEASED.finditer(stdout):
        key = "uncompressed" if match["label"] == "uncompressed" else "released"
        found[key] = {name: float(match[name]) for name in
                      ("accuracy", "mape", "ssim", "recognized", "encoded")}
    return found


def parse_arm_rows(stdout: str) -> Dict[str, List[str]]:
    """Arm name -> its table cells, from a multi-arm attack's table."""
    rows = {}
    for line in stdout.splitlines():
        if _ARM_ROW.match(line):
            cells = [cell.strip() for cell in line.split("|")]
            rows[cells[0]] = cells[1:]
    return rows


def run_cli(args: Sequence[str], trace_dir: Optional[str] = None,
            ) -> subprocess.CompletedProcess:
    """One cold CLI invocation (traced through ``traced_cli.py`` when a
    trace directory is given)."""
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"),
               trace_dir, *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=CLI_TIMEOUT_S)


#: Largest |fast float32 - reference float64| allowed on the released
#: model's report (accuracy in percentage points, 60 test images): set
#: from ``oracle_gap.py`` over 20 seeds, where the largest gaps were 5.0
#: points, 0.01 MAPE, 0.001 SSIM and no recognized-count change.
BAND_TOLERANCE = {"accuracy": 10.0, "mape": 0.5, "ssim": 0.01,
                  "recognized": 2}


def band_violations(values: Dict[str, float],
                    oracle: Dict[str, float]) -> List[str]:
    """Released-model metrics farther from the oracle than allowed."""
    problems = []
    for metric, tolerance in BAND_TOLERANCE.items():
        if abs(values[metric] - oracle[metric]) > tolerance:
            problems.append(f"{metric}={values[metric]:g} reference "
                            f"{oracle[metric]:g} tolerance {tolerance:g}")
    return problems


# ------------------------------------------------------------- workloads
def _loop(args: Sequence[str], seconds: float, outcome: Outcome,
          trace_dir: Optional[str] = None) -> List[str]:
    """Invoke the CLI back to back for ``seconds`` (at least
    ``MIN_INVOCATIONS`` times); returns each successful stdout."""
    outputs: List[str] = []
    loop_start = time.perf_counter()
    while (time.perf_counter() - loop_start < seconds
           or outcome.tally.attempted < MIN_INVOCATIONS):
        start = time.perf_counter()
        try:
            proc = run_cli(args, trace_dir)
        except subprocess.TimeoutExpired:
            outcome.tally.fail("timeout")
            continue
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            outcome.tally.fail("exit")
            outcome.check("cli exit code", False,
                          f"exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        outcome.tally.succeed()
        outcome.latencies_ms.append(elapsed * 1e3)
        outputs.append(proc.stdout)
    wall = time.perf_counter() - loop_start
    outcome.throughput_per_s = outcome.tally.ok / wall
    outcome.peak_rss_mb = peak_rss_mb(include_self=False)
    return outputs


def attack_cli(seed: int, seconds: float, traced: bool = False) -> Outcome:
    outcome = Outcome()
    trace_dir = None
    if traced:
        trace_dir = work_dir(f"trace-attack-cli-{os.getpid()}")
    outputs = _loop(digits_args(seed), seconds, outcome, trace_dir)
    if outputs:
        first = parse_released(outputs[0])
        outcome.check("report lines parsed",
                      set(first) == {"uncompressed", "released"},
                      outputs[0][-300:])
        oracle = parse_released(
            run_cli(digits_args(seed, "reference", "float64")).stdout)
        if "released" in first and "released" in oracle:
            problems = band_violations(first["released"], oracle["released"])
            outcome.check("released model inside the reference band",
                          not problems, "; ".join(problems))
        else:
            outcome.check("reference run reported", False,
                          "no released-model line to compare")
        outcome.check("invocations agree",
                      all(parse_released(o) == first for o in outputs),
                      "released/uncompressed metrics differ between runs")
        outcome.extra["released"] = first.get("released")
    if traced:
        _traced_layers(outcome, trace_dir, len(outputs))
        # one pooled two-arm invocation of the same command keeps the
        # worker-pool layer attributed on a gated workload
        pool_dir = work_dir(f"trace-pool-{os.getpid()}")
        pooled = run_cli(["--workers", "2", *digits_args(seed),
                          "--bits", "4", "3"], trace_dir=pool_dir)
        outcome.check("pooled arms exit code", pooled.returncode == 0,
                      pooled.stderr[-500:])
        outcome.layers.update(pool_metrics(_spans(pool_dir)[0]))
        shutil.rmtree(pool_dir, ignore_errors=True)
    return outcome


def attack_arms(seed: int, seconds: float, traced: bool = False) -> Outcome:
    outcome = Outcome()
    trace_dir = work_dir(f"trace-arms-{os.getpid()}") if traced else None
    outputs = _loop(arms_args(seed, workers=2), seconds, outcome, trace_dir)
    serial = run_cli(arms_args(seed, workers=1))
    serial_rows = parse_arm_rows(serial.stdout)
    outcome.check("serial arms exit code", serial.returncode == 0,
                  serial.stderr[-500:])
    outcome.check("serial table has three arms", len(serial_rows) == 3,
                  serial.stdout[-300:])
    for output in outputs:
        rows = parse_arm_rows(output)
        outcome.check("pooled arms equal serial arms", rows == serial_rows,
                      f"pooled {rows} serial {serial_rows}")
    oracle_rows = parse_arm_rows(run_cli(
        arms_args(seed, 1, "reference", "float64")).stdout)
    problems = [f"{arm}: {problem}" for arm, cells in serial_rows.items()
                for problem in band_violations(
                    _arm_released(cells), _arm_released(oracle_rows[arm]))
                ] if set(oracle_rows) == set(serial_rows) else [
                    f"reference arms {sorted(oracle_rows)}"]
    outcome.check("released arms inside the reference band", not problems,
                  "; ".join(problems))
    if traced:
        outcome.layers.update(pool_metrics(_spans(trace_dir)[0]))
        _traced_layers(outcome, trace_dir, len(outputs))
    return outcome


def _arm_released(cells: List[str]) -> Dict[str, float]:
    """An arms-table row (accuracy, q_accuracy, q_mape, q_ssim,
    recognized, encoded) in the units of :func:`parse_released`."""
    return {"accuracy": 100 * float(cells[1]), "mape": float(cells[2]),
            "ssim": float(cells[3]), "recognized": float(cells[4])}


def _spans(trace_dir: str):
    return load_records(glob.glob(os.path.join(trace_dir, "*.json")))


def _traced_layers(outcome: Outcome, trace_dir: str, invocations: int) -> None:
    spans, kernels = _spans(trace_dir)
    per = max(1, invocations)
    outcome.layers.update(stage_metrics(spans, per))
    outcome.layers.update(step_metrics(spans, per))
    totals: Dict[str, List[float]] = {}
    merge_kernels(totals, kernels)
    outcome.layers.update({k: v / per
                           for k, v in kernel_metrics(totals).items()})
    shutil.rmtree(trace_dir, ignore_errors=True)
