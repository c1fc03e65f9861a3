"""Machine-speed probe: rescales measured times to a reference speed.

On a shared machine the speed of the same code drifts by 20-50% over
seconds to minutes (see README.md). A fixed piece of work timed next to the
program moves with that drift and with nothing in the program. The probe
thread times that work every 50 ms while the benchmark runs; a measured
interval is then rescaled by the probe's mean time over the same interval.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.05

#: Mean probe_work() time on the reference machine (2 vCPU sandbox,
#: Python 3.11, numpy 2.4, no other load). Reference seconds are measured
#: seconds times this over the probe's mean time during the measurement.
REFERENCE_S = 0.0004


def probe_work(a: np.ndarray) -> None:
    """Interpreter bytecode and small numpy calls, the program's usual mix.

    Short enough (well under the 5 ms interpreter switch interval) that it
    runs to the end once it holds the interpreter lock, so its time is the
    machine's speed and not a wait for the main thread.
    """
    acc = 0
    for i in range(3000):
        acc += i * i
    x = a
    for _ in range(100):
        x = x + 0.5 * a


class SpeedProbe:
    """Times probe_work() in a background thread while the context is open."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe",
                                        daemon=True)
        self._a = np.ones(16, dtype=np.complex128)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        probe_work(self._a)
        self.samples.append((t0, time.perf_counter() - t0))

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed probe thread did not stop")

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second over [t0, t1]; an interval
        too short to hold a sample uses every sample so far."""
        samples = list(self.samples)
        inside = [d for start, d in samples if t0 <= start <= t1]
        return REFERENCE_S / statistics.fmean(inside or [d for _, d in samples])

    def median_s(self) -> float:
        return statistics.median(d for _, d in list(self.samples))
