import numpy as np
import pytest

from psq import (EvolutionConfig, GaussianSmoother, MixedState, NumericalPreconditionError,
                 ObservableSpec, OrderingSpec, PhaseField, PolyH, PSQError, StabilityBoundError, TruncationError, WaveFunction,
                 bopp_apply, default_observables, evolve_phase_space,
                 evolve_schrodinger, expectation, formal_star_bracket,
                 heisenberg_observable, heisenberg_trajectory, l2_norm,
                 make_grid, star_exponential, star_exponential_poly)
from psq.closedforms import (CoherentParams, FreeGaussianParams,
                             OscillatorParams, coherent_state,
                             coherent_wavepacket, free_gaussian,
                             free_wavepacket, ho_state)
from psq.dynamics import _fold_numeric_hbar
from psq.polyalg import pstar
from psq.starprod import apply_smoother
from psq.states import QuasiDistribution

FREE_H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "H_free")
OSC_H = ObservableSpec.harmonic(1.0)


@pytest.fixture
def wide_grid():
    # 12 widths of the t=1 spread packet on each side
    return make_grid(128, 128, -12.0, 12.0, -12.0, 12.0, 1.0)


class TestSchrodinger:
    def test_free_packet_matches_closed_form(self, wide_grid):
        params = FreeGaussianParams(1.0, np.sqrt(wide_grid.hbar / 2), 0.5)
        phi0 = free_wavepacket(params, 0.0, wide_grid)
        cfg = EvolutionConfig(dt=1e-3, steps=1000)
        result = evolve_schrodinger(phi0, FREE_H, OrderingSpec(0.5), cfg,
                                    phase_space_snapshots=False)
        exact = free_wavepacket(params, 1.0, wide_grid)
        sup = np.abs(result.snapshots[-1].values - exact.values).max()
        assert sup < 1e-7
        assert np.abs(result.norms - result.norms[0]).max() < 1e-6

    def test_eigenstate_phase_extracts_energy(self, grid64):
        from psq.states import hermite_function
        n = 2
        phi0 = hermite_function(grid64, n)
        dt, steps = 5e-4, 400
        cfg = EvolutionConfig(dt=dt, steps=steps, snapshot_every=steps)
        result = evolve_schrodinger(phi0, OSC_H, OrderingSpec(0.5), cfg,
                                    phase_space_snapshots=False)
        final = result.snapshots[-1]
        assert np.abs(np.abs(final.values) - np.abs(phi0.values)).max() < 1e-8
        t = dt * steps
        overlap = phi0.inner(final)
        energy = -np.angle(overlap) * grid64.hbar / t
        assert abs(energy - (n + 0.5)) < 1e-6
        # kinetic and potential given as function terms take the same step
        H_fn = (ObservableSpec.p_function(lambda u: 0.5 * u ** 2)
                + ObservableSpec.x_function(lambda x: 0.5 * x ** 2))
        fn_final = evolve_schrodinger(phi0, H_fn, OrderingSpec(0.5), cfg,
                                      phase_space_snapshots=False).snapshots[-1]
        assert np.abs(fn_final.values - final.values).max() < 1e-12

    def test_smoothed_split_step_energy_shift(self, grid64):
        # the smoothed ordering turns the oscillator symbol into the same
        # separable operator minus hbar(alpha w^2 + beta)/2; the eigenphase
        # extracts the shifted level
        from psq.states import hermite_function
        from psq import GaussianSmoother
        spec = OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))
        phi0 = hermite_function(grid64, 1)
        dt, steps = 5e-4, 400
        cfg = EvolutionConfig(dt=dt, steps=steps, snapshot_every=steps)
        result = evolve_schrodinger(phi0, OSC_H, spec, cfg,
                                    phase_space_snapshots=False)
        overlap = phi0.inner(result.snapshots[-1])
        energy = -np.angle(overlap) * grid64.hbar / (dt * steps)
        assert abs(energy - 1.4) < 1e-6

    def test_plane_wave_mode_phase(self, grid64):
        # a single on-lattice Fourier mode picks up e^{-i E(p) t/hbar}
        k = grid64.xi[grid64.nx // 2 + 5]
        phi0 = WaveFunction(grid64,
                            np.exp(1j * k * grid64.x / grid64.hbar)
                            / np.sqrt(grid64.nx * grid64.dx))
        cfg = EvolutionConfig(dt=1e-3, steps=200)
        result = evolve_schrodinger(phi0, FREE_H, OrderingSpec(0.5), cfg,
                                    phase_space_snapshots=False)
        t = 0.2
        want = phi0.values * np.exp(-1j * 0.5 * k ** 2 * t / grid64.hbar)
        assert np.abs(result.snapshots[-1].values - want).max() < 1e-12

    def test_matrix_exponential_path(self, grid64):
        # non-natural symbol (xp cross term) forces the dense propagator
        H = ObservableSpec.from_poly(
            PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(2, 0, c=0.5)
            + PolyH.monomial(1, 1, c=0.2), "Hxp")
        from psq.states import hermite_function
        phi0 = hermite_function(grid64, 0)
        cfg = EvolutionConfig(dt=0.01, steps=20, method="matrix_exponential")
        result = evolve_schrodinger(phi0, H, OrderingSpec(0.5), cfg,
                                    phase_space_snapshots=False)
        assert abs(result.norms[-1] - 1.0) < 1e-10
        with pytest.raises(Exception, match="natural"):
            evolve_schrodinger(phi0, H, OrderingSpec(0.5),
                               EvolutionConfig(dt=0.01, steps=5),
                               phase_space_snapshots=False)
        # the phase-space method is not a Schrodinger route
        with pytest.raises(PSQError, match="phase_space_rk4"):
            evolve_schrodinger(phi0, H, OrderingSpec(0.5),
                               EvolutionConfig(dt=0.01, steps=5, method="phase_space_rk4"),
                               phase_space_snapshots=False)
        # the dense propagator names the term that breaks Hermiticity
        H_bad = ObservableSpec.from_poly(
            PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(1, 0, c=1j), "Hbad")
        with pytest.raises(PSQError, match="offending term"):
            evolve_schrodinger(phi0, H_bad, OrderingSpec(0.5), cfg,
                               phase_space_snapshots=False)


class TestPhaseSpace:
    def test_free_particle_matches_oracle(self, wide_grid):
        params = FreeGaussianParams(1.0, np.sqrt(wide_grid.hbar / 2), 0.5)
        rho0 = free_gaussian(params, 0.0, wide_grid)
        cfg = EvolutionConfig(dt=0.01, steps=100, method="phase_space_rk4")
        result = evolve_phase_space(rho0, FREE_H, cfg)
        want = free_gaussian(params, 1.0, wide_grid).psi_field
        rel = l2_norm(result.snapshots[-1] - want) / l2_norm(want)
        assert rel < 1e-5

    def test_coherent_orbit_over_period(self, grid64):
        x0, p0 = 1.0, 0.0
        cs = coherent_state(CoherentParams(x0, p0, 1.0, 0.5), grid64)
        steps = 640
        dt = 2 * np.pi / steps
        obs = default_observables()
        cfg = EvolutionConfig(dt=dt, steps=steps, method="phase_space_rk4",
                              snapshot_every=80)
        result = evolve_phase_space(cs, OSC_H, cfg,
                                    observables={"x": obs["x"], "p": obs["p"]})
        for i, t in enumerate(result.times):
            want_x = x0 * np.cos(t) + p0 * np.sin(t)
            want_p = -x0 * np.sin(t) + p0 * np.cos(t)
            assert abs(result.expectations["x"][i] - want_x) < 1e-6
            assert abs(result.expectations["p"][i] - want_p) < 1e-6

    def test_general_sigma_orbit(self, grid64):
        # the (2 sigma - 1) dispersive terms enter the generator; the center
        # trajectory stays classical
        cs = coherent_state(CoherentParams(1.0, 0.0, 1.0, 0.2), grid64)
        obs = default_observables()
        cfg = EvolutionConfig(dt=0.01, steps=157, method="phase_space_rk4",
                              snapshot_every=157)
        result = evolve_phase_space(cs, OSC_H, cfg,
                                    observables={"x": obs["x"]})
        t = result.times[-1]
        assert abs(result.expectations["x"][-1] - np.cos(t)) < 1e-6

    def test_generator_matches_oscillator_pde(self, grid64):
        # for H = (p^2 + w^2 x^2)/2 the quantum generator is the explicit PDE
        # d rho/dt = -p dx rho + w^2 x dp rho
        #            + i (hbar/2)(2 sigma - 1)(w^2 dp^2 - dx^2) rho
        from psq.dynamics import _quantum_rhs
        from psq import SpectralField, fourier_full, fourier_full_inverse
        hbar = grid64.hbar
        sigma, omega = 0.2, 1.3
        H = ObservableSpec.harmonic(omega)
        rhs = _quantum_rhs(H, OrderingSpec(sigma), hbar)
        X, P = grid64.meshes()
        rho = PhaseField(grid64, np.exp(-((X - 0.5) ** 2 + P ** 2) / hbar)
                         * np.exp(0.4j * X))
        got = rhs(rho)
        XI, ETA = grid64.conj_meshes()
        F = fourier_full(rho)

        def mult(m):
            return fourier_full_inverse(SpectralField(grid64, F.values * m)).values

        dx_r = mult(1j * XI / hbar)
        dp_r = mult(-1j * ETA / hbar)
        dxx_r = mult((1j * XI / hbar) ** 2)
        dpp_r = mult((-1j * ETA / hbar) ** 2)
        want = -P * dx_r + omega ** 2 * X * dp_r \
            + 0.5j * hbar * (2 * sigma - 1) * (omega ** 2 * dpp_r - dxx_r)
        assert np.abs(got.values - want).max() < 1e-9

    def test_mass_conserved(self, grid64):
        cs = coherent_state(CoherentParams(0.7, 0.2, 1.0, 0.5), grid64)
        cfg = EvolutionConfig(dt=0.01, steps=100, method="phase_space_rk4",
                              snapshot_every=20)
        result = evolve_phase_space(cs, OSC_H, cfg)
        assert np.abs(result.norms - result.norms[0]).max() < 1e-8
        # a mixture evolves linearly: its <x^2> is the weighted <x^2> of its
        # components at every snapshot
        other = coherent_state(CoherentParams(-0.4, 0.5, 1.0, 0.5), grid64)
        short = EvolutionConfig(dt=0.01, steps=4, method="phase_space_rk4",
                                snapshot_every=1)
        x2 = {"x2": default_observables()["x2"]}
        runs = [evolve_phase_space(s, OSC_H, short, observables=x2)
                for s in (MixedState(((0.3, cs), (0.7, other))), cs, other)]
        mixed, first, second = (r.expectations["x2"] for r in runs)
        assert np.abs(mixed - (0.3 * first + 0.7 * second)).max() < 1e-12

    def test_quantum_equals_liouville_for_quadratic(self, grid64):
        # quadratic symbols: the deformation terms cancel on Gaussians
        cs = coherent_state(CoherentParams(0.8, -0.3, 1.0, 0.5), grid64)
        cfg = EvolutionConfig(dt=0.01, steps=60, method="phase_space_rk4")
        quantum = evolve_phase_space(cs, OSC_H, cfg)
        classical = evolve_phase_space(cs, OSC_H, cfg,
                                       classical=True)
        rel = l2_norm(quantum.snapshots[-1] - classical.snapshots[-1]) \
            / l2_norm(quantum.snapshots[-1])
        assert rel < 1e-6

    def test_stationary_state_static_over_period(self, grid64):
        st = ho_state(1, 1, OscillatorParams(), grid64)
        steps = 640
        cfg = EvolutionConfig(dt=2 * np.pi / steps, steps=steps,
                              method="phase_space_rk4", snapshot_every=steps)
        result = evolve_phase_space(st, OSC_H, cfg)
        drift = l2_norm(result.snapshots[-1] - result.snapshots[0]) \
            / l2_norm(result.snapshots[0])
        assert drift < 1e-6

    def test_smoothed_stationary_state_static(self, grid64):
        # the lam = 0.7 Laguerre-family state is stationary under its own
        # smoothed product
        st = ho_state(1, 1, OscillatorParams(1.0, 0.5, 0.2, 0.2), grid64)
        steps = 320
        cfg = EvolutionConfig(dt=np.pi / steps, steps=steps,
                              method="phase_space_rk4", snapshot_every=steps)
        result = evolve_phase_space(st, OSC_H, cfg)
        drift = l2_norm(result.snapshots[-1] - result.snapshots[0]) \
            / l2_norm(result.snapshots[0])
        assert drift < 1e-6

    def test_stability_bound_enforced(self, grid64):
        cs = coherent_state(CoherentParams(0.5, 0.0, 1.0, 0.5), grid64)
        with pytest.raises(StabilityBoundError, match="suggested dt"):
            evolve_phase_space(cs, OSC_H,
                               EvolutionConfig(dt=0.5, steps=5,
                                               method="phase_space_rk4"))
        # the default method is a Schrodinger route; refused before any estimate
        with pytest.raises(PSQError, match="split_step_schrodinger"):
            evolve_phase_space(cs, OSC_H,
                               EvolutionConfig(dt=0.5, steps=5))

    def test_hilbert_norm_drift_raises(self, grid64):
        # an asymmetric Gaussian smoother makes the RK4 flow non-unitary:
        # ||S^-1 Psi|| drifts by ~1e-4 within 80 steps while the recorded
        # normalization integral stays at 1; a symmetric one drifts ~1e-11
        cs = coherent_state(CoherentParams(1.0, 0.5, 1.0, 0.5), grid64)
        cfg = EvolutionConfig(dt=0.01, steps=80, method="phase_space_rk4")
        for alpha, beta in ((0.3, 0.0), (0.0, 0.3)):
            spec = OrderingSpec(0.5, GaussianSmoother(alpha, beta))
            st = QuasiDistribution(apply_smoother(spec, cs.psi_field), spec)
            with pytest.raises(NumericalPreconditionError, match="drifted"):
                evolve_phase_space(st, OSC_H, cfg)
        spec = OrderingSpec(0.5, GaussianSmoother(0.3, 0.3))
        st = QuasiDistribution(apply_smoother(spec, cs.psi_field), spec)
        result = evolve_phase_space(st, OSC_H, cfg)
        assert abs(result.norms[-1] - 1.0) < 1e-9

    def test_picture_equivalence(self, grid64):
        # Schrodinger evolve + tensor vs direct phase-space evolve
        cp = CoherentParams(0.8, 0.4, 1.0, 0.5)
        phi0 = coherent_wavepacket(cp, grid64)
        spec = OrderingSpec(0.5)
        # 30 does not divide 100: both routes also record the final step
        steps, dt = 100, 0.005
        cfg = EvolutionConfig(dt=dt, steps=steps, snapshot_every=30)
        sch = evolve_schrodinger(phi0, OSC_H, spec, cfg)
        state0 = coherent_state(cp, grid64)
        cfg2 = EvolutionConfig(dt=dt, steps=steps, method="phase_space_rk4",
                               snapshot_every=30)
        phs = evolve_phase_space(state0, OSC_H, cfg2)
        assert np.array_equal(sch.times, phs.times)
        assert np.allclose(sch.times, dt * np.array([0, 30, 60, 90, 100]))
        for a, b in zip(sch.snapshots, phs.snapshots):
            # both routes record the state's field Psi
            assert l2_norm(a - b) / l2_norm(a) < 1e-5

    def test_rk4_convergence_order(self, grid64):
        # halving dt shrinks the error by ~2^4 on the coherent benchmark
        cp = CoherentParams(1.0, 0.0, 1.0, 0.5)
        t_final = 0.64
        errs = []
        for steps in (40, 80):
            cs = coherent_state(cp, grid64)
            cfg = EvolutionConfig(dt=t_final / steps, steps=steps,
                                  method="phase_space_rk4",
                                  snapshot_every=steps)
            obs = default_observables()
            r = evolve_phase_space(cs, OSC_H, cfg,
                                   observables={"x": obs["x"]})
            errs.append(abs(r.expectations["x"][-1] - np.cos(t_final)))
        ratio = errs[0] / errs[1]
        assert 16 * 0.8 < ratio < 16 * 1.25

    def test_strang_convergence_order(self, grid64):
        # the split-step propagator is second order: halving dt gives ~x4
        cp = CoherentParams(1.0, 0.0, 1.0, 0.5)
        t_final = 0.64
        errs = []
        for steps in (64, 128):
            phi0 = coherent_wavepacket(cp, grid64)
            cfg = EvolutionConfig(dt=t_final / steps, steps=steps,
                                  snapshot_every=steps)
            obs = default_observables()
            r = evolve_schrodinger(phi0, OSC_H, OrderingSpec(0.5), cfg,
                                   observables={"x": obs["x"]},
                                   phase_space_snapshots=False)
            errs.append(abs(r.expectations["x"][-1] - np.cos(t_final)))
        ratio = errs[0] / errs[1]
        assert 4 * 0.8 < ratio < 4 * 1.2


class TestStarExponential:
    def test_zero_time_is_unit(self, grid64):
        U = star_exponential(OSC_H, 0.0, 10, OrderingSpec(0.5), grid64)
        assert np.abs(U.values - 1.0).max() == 0.0

    def test_unitarity_within_truncation(self):
        grid = make_grid(64, 64, -4.5, 4.5, -4.5, 4.5, 1.0)
        spec = OrderingSpec(0.5)
        t, K = 0.1, 16
        plus = star_exponential_poly(OSC_H.as_poly(), t, K, spec, grid.hbar)
        minus = star_exponential_poly(OSC_H.as_poly(), -t, K, spec, grid.hbar)
        u_plus = PolyH.zero()
        for term in plus:
            u_plus = u_plus + term
        u_minus = PolyH.zero()
        for term in minus:
            u_minus = u_minus + term
        prod = _fold_numeric_hbar(pstar(u_plus, u_minus, 0.5), grid.hbar)
        X, P = grid.meshes()
        vals = prod.evaluate(X, P, grid.hbar)
        assert np.abs(vals - 1.0).max() < 1e-9

    def test_conjugation_matches_evolution(self):
        grid = make_grid(64, 64, -6.0, 6.0, -6.0, 6.0, 1.0)
        spec = OrderingSpec(0.5)
        t, K = 0.1, 12
        plus = star_exponential_poly(OSC_H.as_poly(), t, K, spec, grid.hbar)
        minus = star_exponential_poly(OSC_H.as_poly(), -t, K, spec, grid.hbar)
        u_plus = PolyH.zero()
        for term in plus:
            u_plus = u_plus + term
        u_minus = PolyH.zero()
        for term in minus:
            u_minus = u_minus + term
        cs = coherent_state(CoherentParams(0.6, 0.2, 1.0, 0.5), grid)
        work = bopp_apply(ObservableSpec.from_poly(u_minus, "U-"), cs.psi_field,
                          "right", spec)
        conjugated = bopp_apply(ObservableSpec.from_poly(u_plus, "U+"), work,
                                "left", spec)
        cfg = EvolutionConfig(dt=t / 50, steps=50, method="phase_space_rk4")
        evolved = evolve_phase_space(cs, OSC_H, cfg)
        # rel is the conjugation's round-off (Bopp actions of degree-24
        # polynomials; rescaling cs alone moves it by ~2e-8), not RK4 error
        rel = l2_norm(conjugated - evolved.snapshots[-1]) \
            / l2_norm(evolved.snapshots[-1])
        assert rel < 1e-6

    def test_tail_bound_violation_raises(self, grid64):
        # t max|H| / hbar ~ 6.4 on the +-8 grid: order 12 cannot converge
        with pytest.raises(TruncationError, match="tail bound"):
            star_exponential(OSC_H, 0.1, 12, OrderingSpec(0.5), grid64)

    def test_sampled_field_amplitude(self):
        # |U| of the oscillator star exponential is sec(t/2) pointwise
        grid = make_grid(64, 64, -4.5, 4.5, -4.5, 4.5, 1.0)
        t = 0.1
        U = star_exponential(OSC_H, t, 16, OrderingSpec(0.5), grid)
        want = 1.0 / np.cos(t / 2)
        assert np.abs(np.abs(U.values) - want).max() < 1e-8


class TestHeisenberg:
    def test_free_particle_velocity_identity(self, grid64):
        # d<x>/dt = <p>: [[x, H]] = p exactly in the symbolic layer
        bracket = formal_star_bracket(PolyH.x(), FREE_H.as_poly(),
                                      OrderingSpec(0.5))
        assert bracket == PolyH.p()
        params = FreeGaussianParams(0.7, np.sqrt(grid64.hbar / 2), 0.5)
        packet = free_wavepacket(params, 0.0, grid64)
        cfg = EvolutionConfig(dt=0.005, steps=60, snapshot_every=1)
        times, vals, resid = heisenberg_trajectory(
            ObservableSpec.position(), packet, FREE_H, OrderingSpec(0.5), cfg)
        assert resid < 1e-5
        # <x>(t) = <x>(0) + <p> t for the free particle
        drift = vals[-1] - vals[0]
        assert abs(drift - 0.7 * times[-1]) < 1e-6

    def test_oscillator_energy_constant(self, grid64):
        # exact eigendecomposition propagator: conservation to rounding
        cp = CoherentParams(0.9, 0.1, 1.0, 0.5)
        phi0 = coherent_wavepacket(cp, grid64)
        cfg = EvolutionConfig(dt=0.01, steps=100, snapshot_every=10,
                              method="matrix_exponential")
        result = evolve_schrodinger(phi0, OSC_H, OrderingSpec(0.5), cfg,
                                    observables={"H": OSC_H},
                                    phase_space_snapshots=False)
        h_vals = result.expectations["H"]
        assert np.abs(h_vals - h_vals[0]).max() < 1e-8

    def test_picture_equality_via_conjugated_observable(self, grid64):
        # <A(0)>_{rho(t)} = <A(t)>_{rho(0)} with A(t) from the bracket series
        spec = OrderingSpec(0.5)
        t = 0.3
        cp = CoherentParams(0.8, -0.2, 1.0, 0.5)
        cs = coherent_state(cp, grid64)
        a_t = heisenberg_observable(PolyH.x(), OSC_H.as_poly(), spec, t)
        lhs = expectation(ObservableSpec.from_poly(a_t, "x(t)"), cs)
        obs = default_observables()
        cfg = EvolutionConfig(dt=t / 100, steps=100,
                              method="phase_space_rk4", snapshot_every=100)
        result = evolve_phase_space(cs, OSC_H, cfg,
                                    observables={"x": obs["x"]})
        rhs = result.expectations["x"][-1]
        assert abs(lhs - rhs) < 1e-6

    def test_heisenberg_series_is_classical_rotation(self):
        # quadratic symbol: x(t) = x cos t + p sin t, exact coefficients
        spec = OrderingSpec(0.5)
        t = 0.4
        a_t = heisenberg_observable(PolyH.x(), OSC_H.as_poly(), spec, t)
        want = PolyH.monomial(1, 0, c=np.cos(t)) + PolyH.monomial(0, 1, c=np.sin(t))
        assert (a_t - want).is_zero(1e-12)
