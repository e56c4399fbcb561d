"""Spawn commands on request, time them at reference speed, report os.wait4.

    python3 -S launcher.py <stdout file>

Reads one JSON argv per stdin line, runs it with stdout to the given file
(truncated first), stdin and stderr on /dev/null, and answers with one JSON
line: exit code, wall time, scaled time, elapsed time with the pauses, and
peak RSS.

Spawning from this small process keeps ru_maxrss honest: a child's figure
also covers the peak RSS of the process it was spawned from, and this one
stays smaller than any command it runs.

Scaled time.  On a shared machine a core's speed drifts by up to about 2x,
on every time scale from a fraction of a second to minutes.  So the launcher
pins itself, and every child, to the CPU where a fixed pure-Python loop runs
fastest, and stops the child every SLICE_S seconds to time that loop.  Each
slice of the child's running time is multiplied by REF_S over the loop times
around it, and the sum is the command's time at reference speed: a program
change moves it as it moves the wall time, a busy neighbour moves it little.
The pauses are left out of both times.
"""

import json
import os
import select
import signal
import sys
import time

perf_counter = time.perf_counter

SLICE_S = 0.1
REF_LOOP = 3000
REF_S = 0.001  # nominal time of one reference loop: the speed times are scaled to


def reference() -> float:
    """Best of two timings of a fixed pure-Python loop: the CPU's speed right now."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        table = {}
        for i in range(REF_LOOP):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        best = min(best, perf_counter() - start)
    return best


def pin_fastest_cpu() -> None:
    speed = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(reference() for _ in range(20))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def run(argv: list[str], out_fd: int) -> dict:
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_fd, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ])
    pidfd = os.pidfd_open(pid)
    spawned = perf_counter()
    wall = scaled = 0.0
    before = reference()
    try:
        while True:
            start = perf_counter()
            exited = select.select([pidfd], [], [], SLICE_S)[0]
            if not exited:
                os.kill(pid, signal.SIGSTOP)
            _, status, usage = os.wait4(pid, os.WUNTRACED)
            ran = perf_counter() - start
            after = reference()
            wall += ran
            scaled += ran * 2 * REF_S / (before + after)
            before = after
            if not os.WIFSTOPPED(status):
                break
            os.kill(pid, signal.SIGCONT)
    finally:
        os.close(pidfd)
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall, "scaled_s": scaled,
            "elapsed_s": perf_counter() - spawned, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    out_path = sys.argv[1]
    pin_fastest_cpu()
    for line in sys.stdin:
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            result = run(json.loads(line), fd)
        finally:
            os.close(fd)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
