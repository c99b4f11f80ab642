"""Host-speed sampling, to take the shared host's slow phases out of timings.

On a shared virtual machine the same pass can take 50 % longer in one minute
than in the next; process CPU time moves with it and steal time stays near
zero, so the host runs the process slower, in phases of tens of seconds.
While the benchmark measures, a side process times a fixed pure-Python loop
(``LOOPS`` float additions) every ``PERIOD_S`` seconds, about 2 % of one
CPU. The loop does not touch pacsim, so a change to pacsim cannot move it.
The mean loop time over an interval, divided by ``REFERENCE_S`` (the loop's
time on a 2-vCPU Xeon VM in a quiet phase), is the host slowness of that
interval: 1.0 means as fast as the reference.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

LOOPS = 100_000
PERIOD_S = 0.25
REFERENCE_S = 0.020

# Prints "<start> <end>" (time.monotonic, shared by all processes) per loop.
_SAMPLER = """
import sys, time
loops, period = int(sys.argv[1]), float(sys.argv[2])
while True:
    t0 = time.monotonic()
    acc = 0.0
    for i in range(loops):
        acc += i * 0.5
    t1 = time.monotonic()
    print(t0, t1, flush=True)
    time.sleep(max(0.0, period - (t1 - t0)))
"""


class HostSpeed:
    """Context manager that runs the sampler; ``slowness`` is valid after exit."""

    def __init__(self, log_path: Path):
        self.log_path = Path(log_path)
        self.samples: list[tuple[float, float]] = []
        self._proc = None

    def __enter__(self):
        with open(self.log_path, "w") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _SAMPLER, str(LOOPS), str(PERIOD_S)], stdout=log
            )
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        with open(self.log_path) as log:
            for line in log:
                parts = line.split()
                if len(parts) == 2:  # the last line can be cut short by terminate()
                    self.samples.append((float(parts[0]), float(parts[1])))
        self.log_path.unlink()
        return False

    def slowness(self, start: float, end: float) -> float:
        """Mean host slowness over [start, end] (time.monotonic seconds)."""
        inside = [b - a for a, b in self.samples if start <= a and b <= end]
        if not inside:
            if not self.samples:
                raise RuntimeError("the host-speed sampler recorded nothing")
            # shorter than one sampling period: take the sample closest in time
            mid = 0.5 * (start + end)
            a, b = min(self.samples, key=lambda s: abs(0.5 * (s[0] + s[1]) - mid))
            inside = [b - a]
        return statistics.fmean(inside) / REFERENCE_S
