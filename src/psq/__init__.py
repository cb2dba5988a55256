"""Phase-space quantization toolkit.

Library layout:

* ``grids``       - phase-space lattices, hbar-scaled transforms, quadrature, I/O
* ``polyalg``     - exact polynomial star products, orderings, operator words
* ``ordering``    - the quantization choice (sigma + smoother)
* ``starprod``    - numerical star products, Bopp actions, gauge maps, involution
* ``states``      - twisted tensor product, quasi-distributions, marginals, purity
* ``spectra``     - expectations, star-genvalue residuals, the eigensolver
* ``closedforms`` - analytic reference states (free packets, oscillator, coherent)
* ``dynamics``    - split-step/RK4/star-exponential time evolution
* ``cli``         - the ``psq`` batch command
"""

__version__ = "0.1.0"

from .errors import (GridMismatchError, IllPosedSmoothingError,
                     NumericalPreconditionError, PSQError, SpanError,
                     StabilityBoundError, TruncationError,
                     UnsupportedObservableError)
from .grids import (PhaseField, PhaseGrid, WaveFunction, boundary_tail_mass,
                    fourier_full, fourier_full_inverse, fourier_partial,
                    integrate, l2_inner, l2_norm, make_grid, read_field,
                    write_field, write_field_csv, write_field_dat)
from .ordering import (CohenSmoother, GaussianSmoother, IdentitySmoother,
                       OrderingSpec, WordSmoother)
from .polyalg import (DiffOpWord, OperatorNF, PolyH, WordGenerator, nf_adjoint,
                      nf_multiply, ppoisson, pstar, pstar_S, sigma_S_order,
                      sigma_order)
from .starprod import (ObservableSpec, apply_smoother, bopp_apply,
                       gauge_transform, involution_dagger, moyal_bracket,
                       star_commutator, star_sigma, star_sigma_S)
from .states import (MixedState, QuasiDistribution, basis_idempotence_check,
                     hermite_function, marginal, pure_factorization,
                     purity_check, read_state, twisted_tensor, write_state)
from .spectra import (SpectralResult, expectation, gauge_spectrum_check,
                      operator_matrix, spectrum_via_schrodinger,
                      stargen_residual, uncertainty)
from .closedforms import (CoherentParams, FreeGaussianParams, OscillatorParams,
                          annihilation_symbol, classical_limit_probe,
                          coherent_genvalue_residuals, coherent_state,
                          coherent_wavepacket, creation_symbol, free_gaussian,
                          free_wavepacket, ho_ladder, ho_state,
                          momentum_plane_wave_state)
from .dynamics import (EvolutionConfig, EvolutionResult, default_observables,
                       evolve_phase_space, evolve_schrodinger,
                       formal_star_bracket, heisenberg_observable,
                       heisenberg_trajectory, star_exponential,
                       star_exponential_poly)
