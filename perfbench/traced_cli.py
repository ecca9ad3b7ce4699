"""Run ``repro.cli.main`` with the benchmark's span wrappers installed.

Usage: ``python traced_cli.py TRACE_DIR CLI_ARG...``

Spans of this process land in ``TRACE_DIR/main-<pid>.json``; forked pool
workers add ``TRACE_DIR/spans-<pid>.json``.  The exit code is the CLI's.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, install  # noqa: E402


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(run_id=os.environ.get("PERFBENCH_RUN_ID", ""),
                        flush_dir=trace_dir)
    install(recorder)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        recorder.write(os.path.join(trace_dir, f"main-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main())
