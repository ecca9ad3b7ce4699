"""Paths, the recorded CPU/BLAS environment, set-up probes and the
per-run outcome shared by every workload."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from stats import Tally, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK = os.path.join(ROOT, ".perfbench_work")

BACKEND = "fast"
DTYPE = "float32"


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """The caller's environment with ``src`` on ``PYTHONPATH``.  CPU and
    BLAS thread variables pass through untouched: the benchmark records
    them and never sets them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# ------------------------------------------------------------ environment
def _blas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> Dict[str, Any]:
    """CPU/BLAS environment as found (never modified by the benchmark)."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_library": f"{blas.get('name', 'unknown')} "
                        f"{blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "backend": BACKEND,
        "dtype": DTYPE,
    }


# ---------------------------------------------------------------- outcome
@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    latencies_ms: List[float] = field(default_factory=list)
    throughput_per_s: float = 0.0
    tally: Tally = field(default_factory=Tally)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # read right after the timed part

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50)

    def p90_ms(self) -> float:
        return percentile(self.latencies_ms, 90)


def peak_rss_mb(include_self: bool) -> float:
    """Peak RSS of the largest waited-for child, plus this process when
    the workload ran in it (Linux reports ``ru_maxrss`` in KiB).  Read it
    before any check runs, so oracle runs and set-up probes stay out."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0


# ---------------------------------------------------------------- teardown
def stop_helpers() -> None:
    """Stop the helper processes the program leaves to interpreter exit.

    Creating a shared-memory segment (the DDP arena) starts
    ``multiprocessing``'s resource tracker, which otherwise outlives this
    process as an orphan; any still-running ``multiprocessing`` child is
    terminated.  Both are waited for, so nothing this run started is
    left behind when it exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


# ------------------------------------------------------------ set-up probe
def probe_setup(workload: str, seed: int, repeats: int,
                timeout_s: float = 60.0) -> Tuple[List[float], List[Dict]]:
    """Time the workload's set-up in ``repeats`` fresh interpreters.

    Each sample runs from process spawn until the probe reports that
    set-up finished (interpreter start, imports, data and model build,
    server start and warm-up), so import-time work shows here.  Returns
    the samples and each probe's own report.
    """
    samples: List[float] = []
    reports: List[Dict] = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
            text=True, cwd=ROOT)
        watchdog = threading.Timer(timeout_s, proc.kill)  # a hung probe
        watchdog.start()
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            _, stderr = proc.communicate()
        finally:
            watchdog.cancel()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {proc.returncode}): {stderr[-2000:]}")
        reports.append(json.loads(line[len("ready "):]))
    return samples, reports
