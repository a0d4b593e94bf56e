"""Spawns the benchmark's measured children from a process that stays small.

Linux starts a new program's peak-RSS count at the peak RSS of the process
that spawned it, so a child spawned by the benchmark itself, which holds whole
datasets in memory, would report the benchmark's peak instead of its own.
bench.py starts this process before it allocates anything and sends it one
JSON request per line:

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}

and reads back one JSON line per child: wall time from spawn to exit, the
child's own peak RSS and CPU time from wait4, its exit code, and whether it
was killed for running past the timeout. The process exits at end of input.
"""

import json
import os
import signal
import sys
import time


def spawn(argv, env, stdout, stderr, timeout) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killed = []

    def kill(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": os.waitstatus_to_exitcode(status), "killed": bool(killed)}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(spawn(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
