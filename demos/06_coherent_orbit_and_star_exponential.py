"""Coherent states: classical orbits and the star-exponential propagator.

The center of a coherent state follows the classical oscillator trajectory
while the uncertainty product stays pinned at hbar/2.  The truncated star
exponential gives the same evolution by conjugation, and its product with
its reverse recovers the unit function to truncation accuracy.
"""

import numpy as np

from psq import (EvolutionConfig, ObservableSpec, OrderingSpec, PolyH,
                 bopp_apply, evolve_phase_space, l2_norm, make_grid,
                 star_exponential, star_exponential_poly)
from psq.closedforms import CoherentParams, coherent_state
from psq.dynamics import _fold_numeric_hbar, default_observables
from psq.polyalg import pstar

H = ObservableSpec.harmonic(1.0)
spec = OrderingSpec(0.5)
grid = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)

cs = coherent_state(CoherentParams(1.0, 0.0, 1.0, 0.5), grid)
steps = 628
cfg = EvolutionConfig(dt=2 * np.pi / steps, steps=steps,
                      method="phase_space_rk4", snapshot_every=157)
obs = default_observables()
result = evolve_phase_space(cs, H, cfg, observables=obs)
print("coherent orbit over one period:")
for i, t in enumerate(result.times):
    x_m = result.expectations["x"][i].real
    p_m = result.expectations["p"][i].real
    var_x = result.expectations["x2"][i].real - x_m ** 2
    var_p = result.expectations["p2"][i].real - p_m ** 2
    print("  t=%5.2f  <x>=%9.6f (want %9.6f)  <p>=%9.6f  dx dp=%.9f"
          % (t, x_m, np.cos(t), p_m, np.sqrt(var_x * var_p)))

# the star exponential: on a compact grid the Taylor series converges and
# |U| equals sec(t/2) pointwise for the oscillator
small = make_grid(64, 64, -4.5, 4.5, -4.5, 4.5, 1.0)
t = 0.1
U = star_exponential(H, t, 16, spec, small)
print("\n|U(0.1)| range: [%.9f, %.9f], sec(t/2) = %.9f"
      % (np.abs(U.values).min(), np.abs(U.values).max(), 1 / np.cos(t / 2)))

# unitarity in the star algebra: U(t) * U(-t) = 1 to truncation accuracy
terms_p = star_exponential_poly(H.as_poly(), t, 16, spec, 1.0)
terms_m = star_exponential_poly(H.as_poly(), -t, 16, spec, 1.0)
u_plus = PolyH.zero()
for term in terms_p:
    u_plus = u_plus + term
u_minus = PolyH.zero()
for term in terms_m:
    u_minus = u_minus + term
unit = _fold_numeric_hbar(pstar(u_plus, u_minus, 0.5), 1.0)
X, P = small.meshes()
print("U(t) * U(-t) deviation from 1: %.2e"
      % np.abs(unit.evaluate(X, P, 1.0) - 1.0).max())

# propagation by conjugation matches the direct integrator; the figure is
# the round-off of the conjugation (Bopp actions of degree-24 Taylor
# polynomials; rescaling its input alone moves it by ~2e-8), not RK4 error
mid = make_grid(64, 64, -6.0, 6.0, -6.0, 6.0, 1.0)
cs2 = coherent_state(CoherentParams(0.6, 0.2, 1.0, 0.5), mid)
work = bopp_apply(ObservableSpec.from_poly(u_minus, "U-"), cs2.psi_field, "right", spec)
conj = bopp_apply(ObservableSpec.from_poly(u_plus, "U+"), work, "left", spec)
ref = evolve_phase_space(cs2, H,
                         EvolutionConfig(dt=t / 50, steps=50,
                                         method="phase_space_rk4"))
print("U Psi U(-t) vs integrator: rel L2 = %.2e"
      % (l2_norm(conj - ref.snapshots[-1]) / l2_norm(ref.snapshots[-1])))
