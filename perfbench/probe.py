"""Runs one ``kronlev`` command in this process and records what it did.

Usage: ``python probe.py RECORD.json phase|full [kronlev arguments...]``

The command goes through ``kronlev.cli.main`` exactly as the console script
does.  ``phase`` wraps only the phase-boundary functions (the first sample
draw ends set-up; ``run_trials`` ends the trial phase); ``full`` wraps every
traced function.  The record holds the spans, the process's peak resident
set and the exit code; the exit code is also the probe's own.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import FULL_TARGETS, PHASE_TARGETS, Tracer  # noqa: E402


def main(argv) -> int:
    record_path, mode, cli_args = argv[0], argv[1], argv[2:]
    started = time.monotonic()
    import kronlev.cli

    tracer = Tracer(FULL_TARGETS if mode == "full" else PHASE_TARGETS)
    tracer.install()
    try:
        code = kronlev.cli.main(cli_args)
    finally:
        ended = time.monotonic()
        tracer.restore()
    record = {
        "started": started,
        "ended": ended,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
