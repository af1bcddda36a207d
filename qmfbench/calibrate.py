"""Host-speed probe, sampled while every timed command runs.

The benchmark runs on virtual machines whose host changes speed, by up to a
factor of two, sometimes for seconds and sometimes for minutes, without the
process ever waiting: its CPU time equals its wall time in both states. A run
cannot average a state that lasts minutes, so the harness also measures how
fast the host is while it times a command. A small fixed computation, the
probe, runs right before the command, every ``PERIOD_S`` seconds during it
(from a SIGALRM handler) and right after it. The command's time, less the
probes run inside it, is then scaled to a host of fixed speed:

    normalized seconds = (measured seconds - probe seconds) * mean(REFERENCE_PROBE_S / probe_i)

The mean is over the probes' speeds, which are sampled evenly in time, so a
command that ran half its time at each speed is scaled by the mean speed.

The probe is the kind of work ``qmf`` spends its time on: sparse polynomials
stored as dicts keyed by exponent tuples, with Fraction coefficients, plus
sorting. It uses nothing from ``qmf``, so a change to the program cannot
change the probe, and a slower program reads slower.
"""

import signal
import statistics
import time
from fractions import Fraction

# The normalized times are seconds on a host where one probe takes this long,
# about what it takes on a 2-vCPU virtual machine in its fast state. It fixes
# the unit of the normalized times and nothing else.
REFERENCE_PROBE_S = 0.002
PERIOD_S = 0.05


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}


def probe_work() -> int:
    """One fixed unit of work; returns a checksum so it cannot be skipped."""
    base = {(1, 0): Fraction(1, 3), (0, 1): Fraction(-2, 7), (2, 1): Fraction(5, 11),
            (0, 0): Fraction(1)}
    power = {(0, 0): Fraction(1)}
    for n in range(1, 7):
        power = {key: c for key, c in _mul(power, base).items() if sum(key) <= 8}
        for key, c in sorted(power.items()):
            power[key] = c / n + Fraction(key[0] - key[1], 2 * n + 1)
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in power.values())


PROBE_CHECKSUM = probe_work()


def probe() -> float:
    """Seconds one probe_work() takes now."""
    start = time.perf_counter()
    checksum = probe_work()
    seconds = time.perf_counter() - start
    if checksum != PROBE_CHECKSUM:
        raise RuntimeError("the host-speed probe computed a different result")
    return seconds


class HostSpeed:
    """Samples the probe before, during and after the block it wraps.

    Used as ``with HostSpeed() as speed: ...``; then
    ``speed.normalize(seconds)`` scales a time measured inside the block.
    Not reentrant: one block at a time, in the main thread.
    """

    def __init__(self):
        self.samples: list = []
        self.inside_s = 0.0     # seconds the probes took inside the block

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.inside_s += time.perf_counter() - start

    def __enter__(self):
        self.samples = [probe()]
        self.inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False

    def scale(self) -> float:
        """Mean speed while the block ran, relative to the reference host."""
        return statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples)

    def normalize(self, seconds: float) -> float:
        """A time measured inside the block, less its probes, at reference speed."""
        return (seconds - self.inside_s) * self.scale()
