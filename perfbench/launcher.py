"""Starts the program's child processes on behalf of the benchmark.

On Linux a child's ru_maxrss starts from the memory of the process that
spawned it, so children spawned by the benchmark itself, which holds every
workbook and its oracle, would report the benchmark's size.  This process is
started first, stays small, and spawns each child instead.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "timeout"};
one JSON reply per stdout line, {"stdout", "stderr", "code", "start", "end",
"maxrss_kib"}, with start and end read from time.perf_counter.  The launcher
exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time


def run(request: dict) -> dict:
    with tempfile.TemporaryFile(dir=request["cwd"]) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], env=request["env"],
            stdout=subprocess.PIPE, stderr=err,
        )
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {
        "stdout": out.decode("utf-8", "replace"),
        "stderr": stderr.decode("utf-8", "replace"),
        "code": proc.returncode,
        "start": start,
        "end": end,
        "maxrss_kib": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
