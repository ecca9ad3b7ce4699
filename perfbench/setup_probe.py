"""Time one workload's set-up in a fresh interpreter.

Usage: ``python setup_probe.py WORKLOAD SEED``

Prints ``ready <json>`` once set-up is done (the parent stops its clock
there), then tears down and exits.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    report = {}
    teardown = None
    if workload.startswith("attack-"):
        start = time.perf_counter()
        import repro.cli  # noqa: F401
        report["import_s"] = time.perf_counter() - start
    elif workload.startswith("train-"):
        import wl_train

        world = int(workload[len("train-w"):])
        state = wl_train.setup(seed, world)
        wl_train.build_trainer(state, world)
    else:
        import wl_serve

        state = wl_serve.setup(seed)
        teardown = lambda: wl_serve.close(state)  # noqa: E731
    print("ready " + json.dumps(report), flush=True)
    if teardown is not None:
        teardown()
    from common import stop_helpers
    stop_helpers()
    return 0


if __name__ == "__main__":
    sys.exit(main())
