"""Run the CLI commands of the cli_cold workload from a small process, one at a time.

Reads one JSON ``[args, cwd]`` per line on stdin.  For each, runs
``cli_entry.py`` with the CLI arguments ``args`` in a fresh interpreter and
writes a JSON header line ``[exit code, peak RSS in KiB, stdout bytes,
process seconds, import seconds, command seconds]`` followed by the raw
stdout.  Process seconds run from the start of the process to its end; the
import and command seconds are those ``cli_entry.py`` reports (NaN if it
reported none).  Exits at end of input.

Why a separate process: Linux credits a new process with the resident size
of the process it was spawned from, so a CLI started from the workload
process (numpy, rangegeom and the benchmark loaded) would report that
process's peak memory instead of its own.  This process imports little, so
the CLI's own peak shows.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ENTRY = str(Path(__file__).with_name("cli_entry.py"))


def main() -> int:
    out = sys.stdout.buffer
    for line in sys.stdin:
        args, cwd = json.loads(line)
        r, w = os.pipe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, ENTRY, str(w), *args], cwd=cwd, pass_fds=(w,),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        os.close(w)
        with proc.stdout:
            stdout = proc.stdout.read()
        # wait4 gives the usage of this child alone
        _, status, usage = os.wait4(proc.pid, 0)
        process_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(r, "rb") as fh:
            parts = [float(v) for v in fh.read().split()] or [float("nan")] * 2
        out.write(json.dumps([proc.returncode, usage.ru_maxrss, len(stdout), process_s,
                              *parts]).encode() + b"\n")
        out.write(stdout)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
