"""Starts the benchmark's child processes from a small memory image.

On Linux a child's ru_maxrss includes the image it was forked from,
up to exec.  run.py holds numpy and the in-process passes, so its
children would report its size.  This process imports nothing
heavy; run.py sends it one JSON request per line ({"args": [...],
"env": {...}, "cwd": "...", "tmp": "..."}) and reads back one JSON reply per line:
exit code, stdout, stderr, wall seconds and the child's peak RSS in MB.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def run(request):
    tmp = request["tmp"]
    with tempfile.TemporaryFile(dir=tmp) as out, \
            tempfile.TemporaryFile(dir=tmp) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *request["args"]],
                                stdout=out, stderr=err, env=request["env"],
                                cwd=request["cwd"])
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "stdout": out.read().decode(),
                "stderr": err.read().decode(), "seconds": seconds,
                "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
