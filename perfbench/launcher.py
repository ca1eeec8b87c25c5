"""Spawns the benchmark's child processes from a small separate process.

On Linux a child's ru_maxrss starts from the high-water mark of the
process that spawned it, so children spawned by the benchmark itself,
which holds numpy and read-back snapshots, would all report its peak.
Launcher starts this file as a server before the benchmark grows; the
server spawns each child, waits for it with wait4 and returns its exit
code, wall time, CPU time and peak RSS.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(argv, env, cwd, stdout, stderr, timeout):
    """Run argv to its exit; returns (exit code, wall s, cpu s, max rss KiB).

    A child still running after timeout seconds is killed.
    """
    lock = threading.Lock()
    reaped = False
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            with lock:
                reaped = True
        finally:
            timer.cancel()
            timer.join()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Launcher:
    """Client end: one request line out, one result line back."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def spawn(self, argv, env, cwd, stdout, stderr, timeout):
        request = {"argv": [str(a) for a in argv], "env": env, "cwd": str(cwd),
                   "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process exited")
        return tuple(json.loads(line))

    def close(self):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    for line in sys.stdin:
        result = spawn(**json.loads(line))
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
