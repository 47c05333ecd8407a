"""Starts, times and reaps the benchmark's child processes from a small process.

Linux reports as a child's peak RSS at least the peak RSS of the process that
spawned it (``exec`` records the spawning address space's high-water mark).
The benchmark process grows while it checks bundles and reads spans, so it
hands every spawn to this process, which run.py starts first and which stays
at the size of a bare interpreter.

Speed probe.  On a shared host the speed of a virtual CPU drifts by tens of
percent within a minute, so raw wall times of the same solve spread more
between runs than any useful regression bound.  This process therefore pins
itself, and so every child, to one CPU, and while a child runs it wakes every
``PROBE_INTERVAL_S`` to run ``probe_burst``, a fixed piece of pure-Python
work, and takes its thread CPU time.  Those bursts sample the speed of the
very CPU the child runs on, across the child's whole life.  A child's
``scaled_s`` is its wall time, less the CPU time the bursts took from it,
rescaled to the speed at which a burst takes ``REFERENCE_BURST_S``:

    scaled_s = (wall_s - probe_cpu_s) * REFERENCE_BURST_S / typical burst

The typical burst is the mean of the middle 60% of the bursts, which keeps
the averaging over the child's life but drops bursts hit by an interrupt.

Protocol: one JSON job per line on stdin, ``{"argv": [...], "log": path,
"limit_s": seconds}``; one JSON line per job on stdout, ``{"code": exit code,
"wall_s": seconds from spawn to exit, "scaled_s": see above, "probe_ms": the
typical burst in ms, "bursts": their count, "cpu_s": the child's user + system
CPU seconds, "rss_mb": its max RSS}``.  A child still running after
``limit_s`` is killed.  SIGTERM kills the running child, waits for it and
exits.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

PROBE_INTERVAL_S = 0.045
# A typical burst on the machine the benchmark was written on (shared
# Intel Xeon, Python 3.11.7); it fixes the unit of scaled_s and nothing else.
REFERENCE_BURST_S = 0.0024


def probe_burst() -> float:
    """CPU seconds this thread takes for a fixed ~2 ms of interpreter work."""
    start = time.thread_time()
    total, table = 0, {}
    for i in range(15_000):
        total += i * i % 7
        table[i & 255] = total
    return time.thread_time() - start


def spawn(argv: list[str], log_path: str, limit_s: float) -> dict:
    reaped = threading.Event()
    exit_info: dict = {}

    def reap(proc: subprocess.Popen, timer: threading.Timer) -> None:
        try:
            exit_info["wait4"] = os.wait4(proc.pid, 0)
            exit_info["end"] = time.perf_counter()
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(exit_info["wait4"][1])
        finally:
            reaped.set()

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        waiter = threading.Thread(target=reap, args=(proc, timer), daemon=True)
        waiter.start()
        bursts = []
        try:
            while not reaped.wait(PROBE_INTERVAL_S) or not bursts:
                bursts.append(probe_burst())
        except BaseException:
            proc.kill()
            waiter.join()
            raise
        finally:
            timer.cancel()
        waiter.join()
    usage = exit_info["wait4"][2]
    wall = exit_info["end"] - start
    trim = len(bursts) // 5
    typical = statistics.mean(sorted(bursts)[trim:len(bursts) - trim])
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "scaled_s": max(wall - sum(bursts), 0.0) * REFERENCE_BURST_S / typical,
        "probe_ms": 1e3 * typical,
        "bursts": len(bursts),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for the probe and the child, so the bursts time the child's CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        job = json.loads(line)
        result = spawn(job["argv"], job["log"], job["limit_s"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
