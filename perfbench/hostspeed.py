"""Host-speed probe: a fixed kernel timed beside every measurement.

The machines this benchmark runs on are shared, and the speed of one core
drifts by up to 1.7x, for periods from under a second to minutes, in
process CPU time as much as in wall time.  Best-of-cycles timing cannot
remove a slow period that outlasts a run.  So every timed span is paired
with the time of this kernel, measured just before and just after it, and
the benchmark's time metrics are scaled to a nominal kernel time:

    scaled = wall * REFERENCE_S / min(kernel time before, kernel time after)

A span is scaled down only as far as the host was slow at both of its ends:
when the speed switches during a span, the probes cannot tell for how long,
and over-correcting would make a best-of-cycles time read low.

The kernel mixes the kinds of work psq does: a Python loop over 1-D FFTs
(the star product and the split step), dense matrix products in and beyond
the L2 cache (operator matrices and eigensolvers) and float formatting (the
CSV writers).  It is benchmark code, so no change to psq can move it.
"""

from time import perf_counter

import numpy as np

# the kernel's time in the fast state of the 2-core VM the benchmark was
# built on, so that scaled times read as seconds on that VM at full speed
REFERENCE_S = 0.0090

_ROWS = np.exp(1j * np.arange(192 * 128) / 7.0).reshape(192, 128)
_SMALL = np.cos(np.arange(160 * 160) / 11.0).reshape(160, 160)
_LARGE = np.cos(np.arange(384 * 384) / 11.0).reshape(384, 384)
_VALUES = np.linspace(-1.0, 1.0, 1500)


def _kernel():
    start = perf_counter()
    for row in _ROWS:
        np.fft.fft(row)
    for _ in range(4):
        _SMALL @ _SMALL
    for _ in range(3):
        _LARGE @ _LARGE
    "".join("%.17g,%.17g\n" % (v, -v) for v in _VALUES)
    return perf_counter() - start


def probe():
    """Kernel time in seconds, the best of three runs."""
    return min(_kernel() for _ in range(3))


def scale(wall, before, after):
    """`wall` seconds at the reference speed, from the probes around it."""
    return wall * REFERENCE_S / min(before, after)
