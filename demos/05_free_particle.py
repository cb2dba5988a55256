"""Free-particle dynamics in both pictures.

A minimum-uncertainty packet drifts with constant momentum while its
position spread grows; the evolved quasi-distribution matches the analytic
solution, whether the state is propagated as a wavefunction (split-step,
then re-tensored) or directly on phase space (RK4 on the evolution
equation).
"""

import numpy as np

from psq import (EvolutionConfig, ObservableSpec, OrderingSpec, PolyH,
                 evolve_phase_space, evolve_schrodinger, l2_norm, make_grid)
from psq.closedforms import FreeGaussianParams, free_gaussian, free_wavepacket
from psq.dynamics import default_observables

grid = make_grid(128, 128, -12.0, 12.0, -12.0, 12.0, 1.0)
hbar = grid.hbar
H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "H")
spec = OrderingSpec(0.5)

dp = np.sqrt(hbar / 2)
params = FreeGaussianParams(p0=1.0, delta_p=dp)
phi0 = free_wavepacket(params, 0.0, grid)

cfg = EvolutionConfig(dt=1e-3, steps=1000, snapshot_every=250)
result = evolve_schrodinger(phi0, H, spec, cfg,
                            observables=default_observables())

print("split-step trajectory (expect <x> = t, dp const, dx spreading):")
dx0 = hbar / (2 * dp)
for i, t in enumerate(result.times):
    x_mean = result.expectations["x"][i].real
    var_x = result.expectations["x2"][i].real - x_mean ** 2
    var_p = result.expectations["p2"][i].real \
        - result.expectations["p"][i].real ** 2
    print("  t=%.2f  <x>=%.6f  dx=%.6f (want %.6f)  dp=%.6f"
          % (t, x_mean, np.sqrt(var_x),
             np.sqrt(dx0 ** 2 + (dp * t) ** 2), np.sqrt(var_p)))

exact = free_gaussian(params, 1.0, spec, grid)
rel = l2_norm(result.snapshots[-1] - exact.psi_field) / l2_norm(exact.psi_field)
print("\nfinal snapshot vs analytic solution: rel L2 = %.2e" % rel)

# the same evolution computed directly on phase space
state0 = free_gaussian(params, 0.0, spec, grid)
cfg2 = EvolutionConfig(dt=0.01, steps=100, method="phase_space_rk4")
result2 = evolve_phase_space(state0, H, cfg2)
rel2 = l2_norm(result2.snapshots[-1] - exact.psi_field) / l2_norm(exact.psi_field)
print("phase-space RK4 vs analytic solution: rel L2 = %.2e" % rel2)
print("mass drift over the run: %.1e"
      % abs(result2.norms[-1] - result2.norms[0]))
