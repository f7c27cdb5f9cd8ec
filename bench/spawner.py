"""Starts the benchmark's child processes and reports what each one used.

    python3 -S bench/spawner.py

Reads one JSON request per line on stdin, ``{"argv", "env", "stdout",
"stderr", "timeout"}``.  Runs ``argv`` (an absolute program path first) with
stdout and stderr sent to the named files.  Kills the child at the timeout,
and writes one JSON line back: exit code, wall and CPU seconds, peak RSS in
MB and whether the child timed out.

The peak RSS that ``os.wait4`` reports for a child counts the process that
started it: Linux keeps the high-water mark of the image the child replaced
at exec.  Started with ``-S`` and importing little, this process keeps that
floor (about 8 MB) below the footprint of any Python child.  The
benchmark's own memory then never shows up as a query's.
"""

import json
import os
import select
import signal
import sys
import time


def run(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], request["env"], file_actions=actions
        )
    except OSError as exc:
        return {"error": f"cannot start {request['argv'][0]}: {exc}"}
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(request["timeout"], 0.0))
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": not ready,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
