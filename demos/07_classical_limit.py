"""Weak classical limits: quasi-distributions contract onto classical states.

Pairings <rho_hbar, phi> against a fixed smooth test function converge to
the test function evaluated on the classical trajectory point as hbar -> 0:
the drifting free packet to (p0 t, p0), oscillator stationary states to the
origin, coherent states to their center.  Grids are rebuilt per hbar with
spans proportional to sqrt(hbar) so relative resolution stays constant.
"""

import numpy as np

from psq import OrderingSpec, make_grid
from psq.closedforms import (CoherentParams, FreeGaussianParams,
                             OscillatorParams, classical_limit_probe,
                             coherent_state, free_gaussian, ho_state)

HBARS = [0.2, 0.1, 0.05, 0.025, 0.0125]


def bump(x0, p0):
    def fn(X, P):
        return np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / 4.0)
    return fn


print("free particle, t = 1, p0 = 0.8 -> classical point (0.8, 0.8):")
fn = bump(0.8, 0.8)


def free_family(hb):
    span = 0.8 + 8 * np.sqrt(hb / 0.2) + 1.5
    g = make_grid(64, 64, -span, span, -span, span, hb)
    return free_gaussian(FreeGaussianParams(0.8, 0.5 * np.sqrt(hb)), 1.0, OrderingSpec(0.5), g)


for hb, v in zip(HBARS, classical_limit_probe(free_family, fn, HBARS)):
    print("  hbar=%.4f  pairing=%.6f  err=%.2e" % (hb, v.real,
                                                   abs(v - fn(0.8, 0.8))))

print("\noscillator n=2 stationary state -> the origin:")
fn0 = bump(0.0, 0.0)


def osc_family(hb):
    span = 6.0 * np.sqrt(1.5 * hb)
    g = make_grid(64, 64, -span, span, -span, span, hb)
    return ho_state(2, 2, OscillatorParams(), g)


for hb, v in zip(HBARS, classical_limit_probe(osc_family, fn0, HBARS)):
    print("  hbar=%.4f  pairing=%.6f  err=%.2e" % (hb, v.real, abs(v - 1.0)))

print("\ncoherent state -> its center (1.0, 0.5):")
fnc = bump(1.0, 0.5)


def coh_family(hb):
    span = 1.0 + 8 * np.sqrt(hb / 0.2)
    g = make_grid(64, 64, -span, span, -span, span, hb)
    return coherent_state(CoherentParams(1.0, 0.5, 1.0), OrderingSpec(0.5), g)


for hb, v in zip(HBARS, classical_limit_probe(coh_family, fnc, HBARS)):
    print("  hbar=%.4f  pairing=%.6f  err=%.2e" % (hb, v.real,
                                                   abs(v - fnc(1.0, 0.5))))
