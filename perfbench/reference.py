"""Reference kernel: the benchmark's yardstick for the host's speed.

The shared 2-core host this benchmark was written on changes speed by up
to ~1.7x, both every few seconds and over minutes, and every core slows
at once. Raw command wall times of one 20 s run therefore follow the
host, not the program: over 20 s windows of the same plan command their
interquartile spread was 0.38 of the median, while the command's time
divided by this kernel's time, measured just before it, spread 0.03.

So every command and set-up probe is timed together with this kernel, a
fixed mix of interpreter loop, float parsing and small numpy work (the
kinds of work the program does), and run.py reports each time rescaled to
a host on which the kernel takes NOMINAL_S:

    adjusted = wall_s * NOMINAL_S / kernel_s

The raw wall times stay in the run's detail file.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.010  # about the kernel's median on a 2-core Xeon VM at its faster speed

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(20000, 3))
_WORDS = [repr(float(x)) for x in _rng.normal(size=8000)]


def _kernel() -> None:
    total = 0
    for i in range(60000):
        total += i
    for _ in range(5):
        np.einsum("ij,ij->i", np.cross(_POINTS, _POINTS[::-1]), _POINTS).sum()
    [float(w) for w in _WORDS]


def kernel_s() -> float:
    """Fastest wall seconds of three back-to-back runs of the reference kernel.

    The minimum drops a run that a timer interrupt hit or that found its
    data evicted by the command before it; three runs take ~30 ms, far
    shorter than the host's speed states.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)
