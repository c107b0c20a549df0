"""Run one rangegeom CLI command as ``python -m rangegeom.cli`` does, and time its parts.

    python perfbench/cli_entry.py FD ARGS...

Imports numpy, then the ``rangegeom`` package, then runs ``rangegeom.cli``
as ``__main__`` with ARGS, as ``python -m rangegeom.cli ARGS`` does (the
package imports numpy first thing, so importing it ahead changes no work).
Writes to file descriptor FD two numbers: the seconds of ``import
rangegeom`` and the seconds from then to the end of the command, stdout
flushed.  Interpreter start, the numpy import and interpreter exit are left
out: no change to ``rangegeom`` can move them.
"""

import os
import runpy
import sys
import time

import numpy  # noqa: F401


def main():
    fd = int(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    t0 = time.perf_counter()
    import rangegeom  # noqa: F401  (python -m imports the package first)

    t1 = time.perf_counter()
    code = 0
    try:
        runpy.run_module("rangegeom.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    t2 = time.perf_counter()
    with os.fdopen(fd, "w") as fh:
        fh.write(f"{t1 - t0!r} {t2 - t1!r}")
    return code


if __name__ == "__main__":
    sys.exit(main())
