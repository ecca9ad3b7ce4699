"""Check that the train-w1 gate can tell a real regression from noise.

Usage: ``python3 perfbench/sensitivity.py [--pairs N] [--seconds S]``

Runs the train-w1 operation in alternating pairs: once as benchmarked
and once with a benchmark-side wrapper that makes every
``StepRunner.forward_backward`` call take 20% longer (it spins for a
fifth of the call's own duration).  It prints each side's median
``throughput_per_s`` and whether the slowdown moves it beyond the bound
in ``BENCHMARK.json``.  Exits 1 when it does not.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, SRC, Outcome  # noqa: E402

sys.path.insert(0, SRC)

import wl_train  # noqa: E402

SLOWDOWN = 0.20


def slowed(fn):
    """``fn`` made 20% slower by spinning, which costs CPU the way slower
    code would (a sleep would free the core and overshoot)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        until = time.perf_counter() + SLOWDOWN * (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass
        return result
    return wrapper


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bound = next(m["bound"] for m in json.load(f)["end_to_end"]
                     if m["name"] == "throughput_per_s")
    from repro.pipeline.trainer import StepRunner

    original = StepRunner.forward_backward
    state = wl_train.setup(args.seed, 1)
    sides = {"as benchmarked": [], "forward_backward +20%": []}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for side in order:
            if side != "as benchmarked":
                StepRunner.forward_backward = slowed(original)
            try:
                outcome = Outcome()
                wl_train.measure(state, args.seconds, outcome)
            finally:
                StepRunner.forward_backward = original
            sides[side].append(outcome.throughput_per_s)
            print(f"pair {pair} {side}: {outcome.throughput_per_s:.1f} "
                  "samples/s", flush=True)
    base = statistics.median(sides["as benchmarked"])
    slow = statistics.median(sides["forward_backward +20%"])
    drop = (base - slow) / base
    wins = sum(b > s for b, s in zip(sides["as benchmarked"],
                                     sides["forward_backward +20%"]))
    print(f"median throughput_per_s: {base:.1f} as benchmarked, {slow:.1f} "
          f"slowed; drop {drop:.3f} of the median against bound {bound} "
          f"(baseline faster in {wins}/{args.pairs} pairs)")
    return 0 if drop > bound else 1


if __name__ == "__main__":
    sys.exit(main())
