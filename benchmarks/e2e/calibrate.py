"""Host-speed reference: a fixed pure-Python kernel, timed continuously.

    python3 benchmarks/e2e/calibrate.py OUT_FILE

Until SIGTERM, every ``PERIOD_S`` it runs :func:`kernel` and appends
``(monotonic_ns at the end, CPU ns the kernel took)`` to ``OUT_FILE``
as two int64s.  CPU time, not wall time, so waiting for a core does
not count; what it measures is how fast this host runs Python right
now.  On a shared host that speed drifts by up to a factor of two within
an hour, and the kernel's mean over a window tracks the server's slowdown.

Never change the kernel: normalized metrics are comparable across
commits only while it stays the same.
"""

from __future__ import annotations

import array
import signal
import sys
import time

PERIOD_S = 0.025


def kernel() -> int:
    """Interpreter work shaped like request handling: dicts, str, ints."""
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        table[i & 255] = table.get(i & 255, 0) + i
        total += len(str(i))
    return total


def main(argv: list[str] | None = None) -> int:
    path = (argv if argv is not None else sys.argv[1:])[0]
    running = True

    def stop(_signum, _frame) -> None:
        nonlocal running
        running = False

    signal.signal(signal.SIGTERM, stop)
    with open(path, "ab", buffering=0) as out:
        while running:
            t0 = time.process_time_ns()
            kernel()
            cpu_ns = time.process_time_ns() - t0
            array.array("q", (time.monotonic_ns(), cpu_ns)).tofile(out)
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
