"""Start the benchmark's child processes and report their resource usage.

A child's ru_maxrss starts from the resident peak of the process it was
forked from, and the benchmark process grows to hundreds of MB while it
checks bulk outputs. Children are therefore started from this small process
instead. It reads one JSON request per line on stdin,

    {"argv": [...], "cwd": "...", "stdout": "path", "stderr": "path", "timeout": 120.0}

runs the command to completion and answers one JSON line on stdout with its
wall time, exit code, CPU time and peak resident size. It exits when stdin
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
