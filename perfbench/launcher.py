"""Start and time the benchmark's child processes from a small interpreter.

On Linux a child's ru_maxrss starts from the peak RSS of the process that
forked it, so children forked by run.py, which holds numpy and the corpus,
would report run.py's peak instead of their own.  This process stays small.

Reads one JSON request per line on stdin, {"argv", "env", "log", "timeout"},
runs it to completion with stderr to the log file, and writes one JSON line
{"code", "wall_s", "cpu_s", "maxrss_mib"} to stdout.  Exits at end of input.
cpu_s is the child's user plus system time; unlike wall_s it leaves out the
time the host gave the virtual CPUs to other guests (steal time).
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], env: dict, log: str, timeout: float) -> dict:
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mib": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["env"], req["log"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
