"""Host-speed calibration: a fixed pure-Python slice run on a timer while
the workload runs, and the stopwatch that leaves those slices out.

The container this benchmark runs in shares its core: for minutes at a
time a busy neighbour slows pure Python by up to 1.5x, and the slowdown
flips on and off within a second.  Identical runs then differ by 10-25 %,
more than any bound could absorb, and two sets of runs taken a quarter of
an hour apart drift by as much.  So the benchmark samples the host's speed
*during* each repetition — a 1 ms loop every 50 ms, from a SIGALRM
handler in the main thread — and reports end-to-end times multiplied by
the share of the reference speed the host delivered: seconds of the quiet
reference container, not of whatever the neighbours left over.  The raw
times and the factors are in every run's record.
"""

from __future__ import annotations

import signal
import statistics
import time

#: iterations of one slice, what it takes on the quiet reference container
#: (where the figures in README.md were taken), and how often it runs
SLICE_ITERATIONS = 20_000
CALIBRATION_REF_MS = 1.0
PERIOD_S = 0.05
#: fewest slices a speed estimate is taken over (one second's worth)
MIN_SLICES = 20


class Calibrator:
    """Runs the slice every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples_ms = []
        self.spent_s = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @staticmethod
    def stop() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def tick(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(SLICE_ITERATIONS):
            acc += i * i % 7
        spent = time.perf_counter() - t0
        self.samples_ms.append(spent * 1e3)
        self.spent_s += spent
        return spent * 1e3

    def speed(self, since: int = 0) -> float:
        """Share of the reference speed the host delivered over the slices
        from index ``since`` on (1.0 when there are none).

        Work done in wall time T at slowdown s(t) is the integral of
        dt / s(t), so the time-sampled mean of 1/s is the factor that
        turns T into reference seconds."""
        samples = self.samples_ms[since:]
        if not samples:
            return 1.0
        return statistics.mean(CALIBRATION_REF_MS / ms for ms in samples)

    def reading_ms(self) -> float:
        """Best of five slices: the speed figure of the host fingerprint."""
        return min(self.tick() for _ in range(5))


class Stopwatch:
    """Times one piece of work: raw seconds without the calibration slices
    in between, the host speed while it ran, and their product."""

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        self.first = len(cal.samples_ms)
        self.paused = cal.spent_s
        self.start = time.perf_counter()

    def stop(self) -> "Stopwatch":
        cal = self.cal
        self.raw_s = time.perf_counter() - self.start - (cal.spent_s - self.paused)
        # the slices that ran meanwhile — or, for work shorter than a
        # second, the last second's worth
        taken = len(cal.samples_ms)
        self.speed = cal.speed(min(self.first, max(0, taken - MIN_SLICES)))
        self.reference_s = self.raw_s * self.speed
        return self
