"""Quasi-distributions from wavefunctions: the twisted tensor product.

Builds Wigner-type states from oscillator eigenfunctions, shows their
negativity, positivity after Gaussian smoothing (Husimi-like orderings),
marginals, purity checks, the basis idempotence law, and the inverse map:
a pure state factors back into its wavefunction pair.
"""

import numpy as np

from psq import (CoherentParams, GaussianSmoother, MixedState, OrderingSpec,
                 basis_idempotence_check, coherent_wavepacket, hermite_function,
                 l2_norm, marginal, pure_factorization, purity_check,
                 twisted_tensor, make_grid)

grid = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)

# the first excited state has the famous negative dip at the origin
phi1 = hermite_function(grid, 1)
moyal = twisted_tensor(phi1, phi1, OrderingSpec(0.5))
rho = moyal.rho_field()
c = grid.nx // 2
print("Moyal distribution of the n=1 state at the origin: %.4f (negative)"
      % rho.values[c, c].real)

# a Gaussian smoother of sufficient width makes it non-negative
husimi_like = twisted_tensor(phi1, phi1,
                             OrderingSpec(0.5, GaussianSmoother(0.5, 0.5)))
print("smoothed (alpha=beta=1/2) minimum: %.2e"
      % husimi_like.rho_field().values.real.min())

# both are admissible states: unit mass, unit Hilbert-algebra norm
for name, state in (("moyal", moyal), ("smoothed", husimi_like)):
    print("%s: mass=%.9f  |Psi|_H=%.9f"
          % (name, state.normalization_integral().real, state.norm_h()))

# marginals recover |phi|^2 after pulling back through the smoother; with a
# smoother this strong the deconvolution cutoff limits fidelity to ~1e-6
xs, dens = marginal(husimi_like, "x")
print("marginal deviation from |phi_1|^2: %.2e"
      % np.abs(dens - np.abs(phi1.values) ** 2).max())

# purity: pure states pass all three residuals, mixtures fail idempotence
is_pure, residuals = purity_check(moyal)
print("\npurity of the pure state: %s, residuals %s"
      % (is_pure, ["%.1e" % r for r in residuals]))

phi0 = hermite_function(grid, 0)
mix = MixedState(((0.5, twisted_tensor(phi0, phi0, OrderingSpec(0.5))),
                  (0.5, moyal)))
is_pure, residuals = purity_check(mix)
print("purity of the 50/50 mixture: %s, idempotence residual %.3f"
      % (is_pure, residuals[1]))

# the tensor basis multiplies like matrix units: Psi_ij * Psi_kl ~ delta_il Psi_kj
print("\nbasis idempotence residuals:")
for (i, j, k, l) in ((0, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1)):
    r = basis_idempotence_check(i, j, k, l, OrderingSpec(0.5), grid)
    print("  (i,j,k,l)=%s: %.2e" % ((i, j, k, l), r))

# the inverse map: a pure state's kernel conj(phi) (x) psi is rank one, and its
# leading singular pair gives the wavefunctions back (up to a common phase)
packet = coherent_wavepacket(CoherentParams(3.0, 1.0), grid)
coherent = twisted_tensor(packet, packet, OrderingSpec(0.5))
phi_r, psi_r = pure_factorization(coherent)
rebuilt = twisted_tensor(phi_r, psi_r, OrderingSpec(0.5))
print("\ncoherent packet at (3, 1) factored and rebuilt: L2 error %.1e"
      % l2_norm(rebuilt.psi_field - coherent.psi_field))
