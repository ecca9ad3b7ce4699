"""Measure how far the benchmarked configuration lands from the oracle.

Usage: ``python3 perfbench/oracle_gap.py [--seeds N]``

For seeds ``0..N-1`` it runs the attack-cli command and the train-w1
operation both as benchmarked (``--backend fast``, float32) and on the
reference backend in float64, and prints the largest gap per checked
output.  The tolerances in ``wl_attack.BAND_TOLERANCE`` and
``wl_train.FINAL_LOSS_TOLERANCE`` were set from this output.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC  # noqa: E402

sys.path.insert(0, SRC)

import wl_attack  # noqa: E402
import wl_train  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()
    gaps = {metric: 0.0 for metric in wl_attack.BAND_TOLERANCE}
    gaps["final_loss"] = 0.0
    for seed in range(args.seeds):
        fast = wl_attack.parse_released(
            wl_attack.run_cli(wl_attack.digits_args(seed)).stdout)["released"]
        oracle = wl_attack.parse_released(wl_attack.run_cli(
            wl_attack.digits_args(seed, "reference", "float64")).stdout
        )["released"]
        for metric in wl_attack.BAND_TOLERANCE:
            gaps[metric] = max(gaps[metric], abs(fast[metric] - oracle[metric]))
        state = wl_train.setup(seed, 1)
        _, trainer = wl_train.build_trainer(state, 1)
        loss = trainer.train().task_loss[-1]
        gaps["final_loss"] = max(gaps["final_loss"],
                                 abs(loss - wl_train.oracle_final_loss(state)))
        print(f"seed {seed}: largest gaps so far {gaps}", flush=True)
    print(f"largest |benchmarked - oracle| over {args.seeds} seeds: {gaps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
