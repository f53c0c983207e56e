"""Starts the program's commands for run.py and reports what each one used.

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr",
"timeout"}; one JSON reply per stdout line, {"wall_s", "cpu_s",
"max_rss_kb", "code"}. Children inherit this process's environment.

Linux folds the memory map a child had before exec into the child's
ru_maxrss, and a child started with vfork shares its parent's map. A command
started from the benchmark process itself would therefore report at least
that process's own peak resident set. This launcher imports only a few
standard modules and stays far below any capqa process, so a command's
ru_maxrss is its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_utime/ru_stime/ru_maxrss of a reaped child cover its own reaped children
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
