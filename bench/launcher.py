"""Spawns the benchmark's CLI processes and reports each one's resource usage.

The max RSS that wait4 reports for a child starts at the peak RSS of the
process that spawned it, because the child shares that process's memory
until it execs. run.py grows while it checks outputs, so it starts this
small process once, first thing, and has it spawn every timed process.

Protocol: one JSON request per line on stdin,
    {"cmd": [...], "cwd": str, "env": {...}, "stdout": path, "stderr": path, "timeout": s}
and one JSON reply per line on stdout,
    {"code": int, "wall": s, "cpu": s, "maxrss_kib": int}.
A child still running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                 "maxrss_kib": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
