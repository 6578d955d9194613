"""Child-process launcher: runs each command it is sent and reports the
command's wall time, exit code and peak RSS.

The benchmark starts this once and sends it one JSON request per line,
`{"argv": [...], "cwd": ..., "stdout": path, "stderr": path}`; it answers
each with one JSON line `{"wall_s", "rss_kb", "returncode"}`. It exists
because Linux reports, as a child's peak RSS, at least the resident size of
the process that forked it: a child forked from the benchmark, which holds
the inputs and the traced runs, would report the benchmark's size, while one
forked from this small process reports its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "rss_kb": usage.ru_maxrss, "returncode": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
