import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from psq import (CohenSmoother, GaussianSmoother, NumericalPreconditionError, ObservableSpec,
                 OrderingSpec, PhaseField, PSQError, QuasiDistribution, SpanError, apply_smoother,
                 bopp_apply, expectation, l2_norm, make_grid, purity_check, stargen_residual,
                 twisted_tensor, uncertainty)
from psq.closedforms import (CoherentParams, FreeGaussianParams,
                             OscillatorParams, _laguerre_recurrence,
                             annihilation_symbol, classical_limit_probe,
                             coherent_genvalue_residuals, coherent_state,
                             coherent_wavepacket, creation_symbol,
                             free_gaussian, free_wavepacket, ho_ladder,
                             ho_state)
from psq.dynamics import _fold_numeric_hbar
from psq.polyalg import pstar

TWO_PI = 2 * np.pi


class TestLaguerre:
    @pytest.mark.parametrize("n,s", [(0, 0), (1, 0), (4, 0), (6, 2), (10, 3)])
    def test_recurrence_matches_scipy(self, n, s):
        z = np.linspace(0.0, 40.0, 101)
        got = _laguerre_recurrence(n, s, z)
        want = eval_genlaguerre(n, s, z)
        assert np.abs(got - want).max() < 1e-9 * max(np.abs(want).max(), 1.0)


class TestFreeGaussian:
    def test_moyal_initial_form(self, grid64):
        # sigma = 1/2, t = 0: product of two real Gaussians
        hbar = grid64.hbar
        dp = np.sqrt(hbar / 2)
        dx = hbar / (2 * dp)
        p0 = 1.0
        fg = free_gaussian(FreeGaussianParams(p0, dp), 0.0, OrderingSpec(0.5), grid64)
        X, P = grid64.meshes()
        want = (1 / np.sqrt(np.pi * dx * dp)) \
            * np.exp(-(P - p0) ** 2 / (2 * dp ** 2)) \
            * np.exp(-X ** 2 / (2 * dx ** 2))
        assert np.abs(fg.psi_field.values - want).max() < 1e-10

    def test_moments_drift(self, grid64):
        p0 = 1.0
        dp = np.sqrt(grid64.hbar / 2)
        for t in (0.0, 0.5, 1.0):
            fg = free_gaussian(FreeGaussianParams(p0, dp), t, OrderingSpec(0.5), grid64)
            assert abs(expectation(ObservableSpec.position(), fg) - p0 * t) < 1e-7
            assert abs(expectation(ObservableSpec.momentum(), fg) - p0) < 1e-7

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5, 0.8])
    def test_matches_tensor_of_wavepacket(self, grid64, sigma):
        # general sigma at t = 0 equals the twisted tensor of the packet
        params = FreeGaussianParams(0.5, np.sqrt(grid64.hbar / 2))
        direct = free_gaussian(params, 0.0, OrderingSpec(sigma), grid64)
        packet = free_wavepacket(params, 0.0, grid64)
        tensored = twisted_tensor(packet, packet, OrderingSpec(sigma))
        assert l2_norm(direct.psi_field - tensored.psi_field) < 1e-8

    def test_evolved_matches_tensor_of_evolved_packet(self, grid64):
        params = FreeGaussianParams(0.5, np.sqrt(grid64.hbar / 2))
        t = 0.8
        direct = free_gaussian(params, t, OrderingSpec(0.3), grid64)
        packet = free_wavepacket(params, t, grid64)
        tensored = twisted_tensor(packet, packet, OrderingSpec(0.3))
        assert l2_norm(direct.psi_field - tensored.psi_field) < 1e-7

    def test_span_guard(self):
        small = make_grid(32, 32, -2, 2, -2, 2, 1.0)
        with pytest.raises(SpanError):
            free_gaussian(FreeGaussianParams(1.0, 0.7), 3.0, OrderingSpec(0.5), small)

    def test_initial_minimum_uncertainty(self, grid64):
        fg = free_gaussian(FreeGaussianParams(1.0, 0.6), 0.0, OrderingSpec(0.5), grid64)
        prod = uncertainty(fg, "x") * uncertainty(fg, "p")
        assert abs(prod - grid64.hbar / 2) < 1e-7


class TestHoState:
    def test_ground_matches_general_form(self, grid64):
        # the (0,0) Laguerre state against the independent general-ordering
        # ground-state expression at sigma=1/2, alpha=beta=0
        hbar = grid64.hbar
        st = ho_state(0, 0, OscillatorParams(), grid64)
        X, P = grid64.meshes()
        want = (2 / np.sqrt(TWO_PI * hbar)) * np.exp(-(X ** 2 + P ** 2) / hbar)
        assert np.abs(st.psi_field.values - want).max() < 1e-8

    def test_moyal_diagonal_laguerre_form(self, grid64):
        # lam = 1/2: Psi_nn = 2 (-1)^n L_n(2 r^2 / hbar w) e^{-r^2/hbar w} / sqrt(2 pi hbar)
        hbar = grid64.hbar
        n = 3
        st = ho_state(n, n, OscillatorParams(), grid64)
        X, P = grid64.meshes()
        r2 = X ** 2 + P ** 2
        want = (2 * (-1.0) ** n / np.sqrt(TWO_PI * hbar)) \
            * eval_genlaguerre(n, 0, 2 * r2 / hbar) * np.exp(-r2 / hbar)
        assert np.abs(st.psi_field.values - want).max() < 1e-8

    def test_prefactor_rescale_recorded(self, grid64):
        st = ho_state(2, 2, OscillatorParams(), grid64)
        assert abs(st.psi_field.meta["prefactor_rescale"] - 1.0) < 1e-8

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1), (0, 2)])
    def test_ladder_matches_closed_form(self, grid64, m, n):
        par = OscillatorParams()
        closed = ho_state(m, n, par, grid64)
        ladder = ho_ladder(m, n, par, grid64)
        rel = l2_norm(closed.psi_field - ladder.psi_field) \
            / l2_norm(closed.psi_field)
        assert rel < 1e-6

    def test_ladder_matches_closed_form_smoothed(self, grid64):
        # the lam = 0.7 family: sigma = 1/2, beta = omega^2 alpha
        par = OscillatorParams(1.0, OrderingSpec(0.5, GaussianSmoother(0.2, 0.2)))
        assert abs(par.lam - 0.7) < 1e-14
        closed = ho_state(2, 2, par, grid64)
        ladder = ho_ladder(2, 2, par, grid64)
        rel = l2_norm(closed.psi_field - ladder.psi_field) \
            / l2_norm(closed.psi_field)
        assert rel < 1e-6

    def test_one_sided_ladder_residuals(self, grid64):
        par = OscillatorParams()
        H = ObservableSpec.harmonic(1.0)
        state = ho_ladder(1, 0, par, grid64)
        psi = state.psi_field
        nrm = l2_norm(psi)
        left = l2_norm(bopp_apply(H, psi, "left", state.spec) - psi * 1.5) / nrm
        right = l2_norm(bopp_apply(H, psi, "right", state.spec) - psi * 0.5) / nrm
        assert left < 1e-6 and right < 1e-6

    def test_number_symbol_counts_left_index(self, grid64):
        # N = abar star a acts with genvalue m from the left
        hbar = grid64.hbar
        par = OscillatorParams()
        n_poly = _fold_numeric_hbar(
            pstar(creation_symbol(par, hbar), annihilation_symbol(par, hbar),
                  0.5), hbar)
        N = ObservableSpec.from_poly(n_poly, "N")
        for m, n in ((1, 1), (2, 1), (3, 3)):
            st = ho_state(m, n, par, grid64)
            out = bopp_apply(N, st.psi_field, "left", st.spec)
            rel = l2_norm(out - st.psi_field * m) / l2_norm(st.psi_field)
            assert rel < 1e-6

    def test_constraint_validation(self, grid64):
        with pytest.raises(PSQError, match="sigma=1/2"):
            ho_state(0, 0, OscillatorParams(1.0, OrderingSpec(0.3)), grid64)
        with pytest.raises(PSQError, match="beta=omega"):
            ho_state(0, 0, OscillatorParams(1.0, OrderingSpec(0.5, GaussianSmoother(0.1, 0.3))),
                     grid64)
        with pytest.raises(PSQError, match="capped"):
            ho_state(13, 0, OscillatorParams(), grid64)
        with pytest.raises(PSQError, match="capped"):
            ho_ladder(5, 4, OscillatorParams(), grid64)

    def test_energy_identity_across_lam(self, grid128):
        # E_n = (n + lam_bar) hbar omega for lam in {0.3, 0.5, 0.7}
        hbar = grid128.hbar
        H = ObservableSpec.harmonic(1.0)
        for lam in (0.3, 0.5, 0.7):
            alpha = (2 * lam - 1) / 2.0
            par = OscillatorParams(1.0, OrderingSpec(0.5, GaussianSmoother(alpha, alpha)))
            for n in (0, 1, 2):
                st = ho_state(n, n, par, grid128)
                got = expectation(H, st)
                assert abs(got - (n + 1 - lam) * hbar) < 1e-7

    def test_oracle_states_are_pure(self, grid64):
        par = OscillatorParams()
        for m in (0, 1, 2):
            is_pure, _res = purity_check(ho_state(m, m, par, grid64))
            assert is_pure
        cs = coherent_state(CoherentParams(0.8, -0.4, 1.0), OrderingSpec(0.5), grid64)
        assert purity_check(cs)[0]
        fg = free_gaussian(FreeGaussianParams(0.5, 0.7), 0.0, OrderingSpec(0.5), grid64)
        assert purity_check(fg)[0]

    def test_stationary_residuals(self, grid64):
        par = OscillatorParams(1.0, OrderingSpec(0.5, GaussianSmoother(0.1, 0.1)))
        H = ObservableSpec.harmonic(1.0)
        for n in (0, 1, 2):
            st = ho_state(n, n, par, grid64)
            left, right = stargen_residual(H, st, par.energy(n, grid64.hbar))
            assert left < 1e-6 and right < 1e-6


class TestCoherent:
    def test_moyal_form_is_real_gaussian(self, grid64):
        hbar = grid64.hbar
        cp = CoherentParams(1.0, -0.5, 1.0)
        cs = coherent_state(cp, OrderingSpec(0.5), grid64)
        X, P = grid64.meshes()
        want = np.sqrt(2.0 / (np.pi * hbar)) \
            * np.exp(-(X - 1.0) ** 2 / hbar - (P + 0.5) ** 2 / hbar)
        assert np.abs(cs.psi_field.values - want).max() < 1e-10
        assert np.abs(cs.psi_field.values.imag).max() < 1e-12

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.9])
    def test_genvalue_residuals(self, grid64, sigma):
        cp = CoherentParams(0.7, 0.4, 1.0)
        cs = coherent_state(cp, OrderingSpec(sigma), grid64)
        left, right, pde1, pde2 = coherent_genvalue_residuals(cp, cs)
        assert left < 1e-6 and right < 1e-6
        assert pde1 < 1e-6 and pde2 < 1e-6

    def test_genvalue_residuals_refuse_a_zero_field(self):
        g = make_grid(32, 32, -6.0, 6.0, -6.0, 6.0, 1.0)
        zero = QuasiDistribution(PhaseField.constant(g, 0.0), OrderingSpec(0.5))
        with pytest.raises(NumericalPreconditionError, match="zero field"):
            coherent_genvalue_residuals(CoherentParams(0.7, 0.4, 1.0), zero)

    def test_minimum_uncertainty(self, grid64):
        cs = coherent_state(CoherentParams(1.0, 0.5, 1.0), OrderingSpec(0.5), grid64)
        prod = uncertainty(cs, "x") * uncertainty(cs, "p")
        assert abs(prod - grid64.hbar / 2) < 1e-7

    @settings(derandomize=True, max_examples=15, deadline=None, database=None)
    @given(hbar=st.floats(0.2, 2.0), omega=st.floats(0.3, 3.0), sigma=st.floats(0.0, 1.0),
           x_bar=st.floats(-1.0, 1.0), p_bar=st.floats(-1.0, 1.0))
    def test_normalized_over_the_parameter_box(self, hbar, omega, sigma, x_bar, p_bar):
        grid = make_grid(256, 256, -16.0, 16.0, -16.0, 16.0, hbar)
        cs = coherent_state(CoherentParams(x_bar, p_bar, omega), OrderingSpec(sigma), grid)
        energy = 0.5 * p_bar ** 2 + 0.5 * omega ** 2 * x_bar ** 2 + 0.5 * hbar * omega
        assert abs(cs.normalization_integral() - 1.0) < 1e-10
        assert abs(cs.norm_h() - 1.0) < 1e-10
        assert abs(expectation(ObservableSpec.position(), cs) - x_bar) < 1e-10
        assert abs(expectation(ObservableSpec.momentum(), cs) - p_bar) < 1e-10
        assert abs(expectation(ObservableSpec.harmonic(omega), cs) - energy) < 1e-10 * energy

    def test_matches_tensor_of_wavepacket(self, grid64):
        cp = CoherentParams(0.8, -0.3, 1.0)
        cs = coherent_state(cp, OrderingSpec(0.5), grid64)
        wp = coherent_wavepacket(cp, grid64)
        tensored = twisted_tensor(wp, wp, OrderingSpec(0.5))
        assert l2_norm(cs.psi_field - tensored.psi_field) < 1e-8


class TestSmoothedOrdering:
    """A closed form under (sigma, S) is S applied to its sigma form."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
    def test_states_are_smoothed_identity_forms(self, grid64, sigma):
        spec = OrderingSpec(sigma, GaussianSmoother(0.1, 0.1))
        plain = OrderingSpec(sigma)
        fp, cp = FreeGaussianParams(0.5, 0.7), CoherentParams(1.0, 0.5)
        for got, bare in ((free_gaussian(fp, 0.5, spec, grid64),
                           free_gaussian(fp, 0.5, plain, grid64)),
                          (coherent_state(cp, spec, grid64), coherent_state(cp, plain, grid64))):
            assert got.spec == spec and bare.spec == plain
            assert np.array_equal(got.psi_field.values,
                                  apply_smoother(spec, bare.psi_field).values)

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0])
    def test_smoothed_coherent_ladder_residuals(self, grid64, sigma):
        cp = CoherentParams(1.0, 0.5)
        cs = coherent_state(cp, OrderingSpec(sigma, GaussianSmoother(0.1, 0.1)), grid64)
        left, right, pde1, pde2 = coherent_genvalue_residuals(cp, cs)
        assert left < 1e-6 and right < 1e-6
        # the two PDEs are the identity-smoother system: a smoothed state fails them
        assert pde1 > 0.1 and pde2 > 0.1

    def test_oscillator_needs_a_gaussian_smoother(self):
        cohen = CohenSmoother(lambda xi, eta: np.ones_like(xi * eta))
        with pytest.raises(PSQError, match="Gaussian smoother"):
            OscillatorParams(1.0, OrderingSpec(0.5, cohen))

    @pytest.mark.parametrize("beta", [0.0, -0.1])
    def test_sharp_momentum_needs_positive_beta(self, grid64, beta):
        from psq.closedforms import momentum_plane_wave_state
        with pytest.raises(PSQError, match="beta > 0"):
            momentum_plane_wave_state(1.0, OrderingSpec(0.5, GaussianSmoother(0.1, beta)),
                                      grid64)


class TestMomentumPlaneWave:
    def test_flagged_and_shaped(self, grid64):
        from psq.closedforms import momentum_plane_wave_state
        st = momentum_plane_wave_state(1.0, OrderingSpec(0.5, GaussianSmoother(0.0, 0.5)), grid64)
        assert st.psi_field.meta["not_a_proper_state"]
        # constant along x, Gaussian along p with the stated prefactor
        v = st.psi_field.values
        assert np.abs(v - v[0:1, :]).max() < 1e-15
        peak = 1.0 / (2 * np.pi * grid64.hbar * np.sqrt(0.5))
        k0 = int(round((1.0 - grid64.p_min) / grid64.dp))
        assert abs(v[0, k0] - peak) < 1e-12

    def test_two_sided_momentum_genfunction(self, grid64):
        # p * Psi = p0 Psi = Psi * p, exact through the finite smoothed series
        from psq.closedforms import momentum_plane_wave_state
        p0 = 1.0
        st = momentum_plane_wave_state(p0, OrderingSpec(0.3, GaussianSmoother(0.0, 0.5)), grid64)
        psi = st.psi_field
        mom = ObservableSpec.momentum()
        for side in ("left", "right"):
            out = bopp_apply(mom, psi, side, st.spec)
            assert l2_norm(out - psi * p0) / l2_norm(psi) < 1e-10

    def test_kinetic_genvalue_carries_smoothing_shift(self, grid64):
        # the ordered kinetic operator of the smoothed family is shifted by
        # -hbar beta / 2 relative to the bare symbol value p0^2/2; both
        # one-sided genvalue equations hold at the shifted energy
        from psq.closedforms import momentum_plane_wave_state
        from psq.polyalg import PolyH
        p0, beta = 1.0, 0.5
        st = momentum_plane_wave_state(p0, OrderingSpec(0.5, GaussianSmoother(0.0, beta)), grid64)
        psi = st.psi_field
        H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "H")
        energy = 0.5 * p0 ** 2 - 0.5 * grid64.hbar * beta
        for side in ("left", "right"):
            out = bopp_apply(H, psi, side, st.spec)
            assert l2_norm(out - psi * energy) / l2_norm(psi) < 1e-10


class TestClassicalLimit:
    HBARS = [0.2, 0.1, 0.05, 0.025]

    @staticmethod
    def _testfn(x0, p0):
        def fn(X, P):
            return np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / 4.0)
        return fn

    def test_free_particle_drift_point(self):
        p0, t = 0.8, 1.0
        fn = self._testfn(p0 * t, p0)

        def family(hb):
            span = abs(p0) * t + 8 * np.sqrt(hb / 0.2) + 1.5
            grid = make_grid(64, 64, -span, span, -span, span, hb)
            return free_gaussian(FreeGaussianParams(p0, 0.5 * np.sqrt(hb)),
                                 t, OrderingSpec(0.5), grid)

        vals = classical_limit_probe(family, fn, self.HBARS)
        errs = [abs(v - fn(p0 * t, p0)) for v in vals]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        # observed error is O(hbar): halving hbar roughly halves the error
        ratio = errs[0] / errs[-1]
        assert ratio > 4.0

    def test_oscillator_diagonal_states_contract_to_origin(self):
        fn = self._testfn(0.0, 0.0)

        def family(hb):
            # span proportional to sqrt(hbar) keeps the radial Laguerre
            # oscillations resolved at every hbar
            span = 6.0 * np.sqrt(1.5 * hb)
            grid = make_grid(64, 64, -span, span, -span, span, hb)
            return ho_state(2, 2, OscillatorParams(), grid)

        vals = classical_limit_probe(family, fn, self.HBARS)
        errs = [abs(v - fn(0.0, 0.0)) for v in vals]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_coherent_states_contract_to_center(self):
        x0, p0 = 1.0, 0.5
        fn = self._testfn(x0, p0)

        def family(hb):
            span = max(abs(x0), abs(p0)) + 8 * np.sqrt(hb / 0.2)
            grid = make_grid(64, 64, -span, span, -span, span, hb)
            return coherent_state(CoherentParams(x0, p0, 1.0), OrderingSpec(0.5), grid)

        vals = classical_limit_probe(family, fn, self.HBARS)
        errs = [abs(v - fn(x0, p0)) for v in vals]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


@pytest.mark.parametrize("build, message", [
    (lambda: OscillatorParams(omega=0.0), "omega must be positive"),
    (lambda: FreeGaussianParams(1.0, delta_p=0.0), "delta_p must be positive"),
    (lambda: CoherentParams(1.0, 0.5, omega=0.0), "omega must be positive"),
    # lam = (1 + omega alpha + beta / omega) / 2 = 1: lam_bar vanishes
    (lambda: OscillatorParams(1.0, OrderingSpec(0.5, GaussianSmoother(0.5, 0.5)))
     .require_laguerre_family(), "degenerate"),
], ids=["oscillator-omega-zero", "free-delta-p-zero", "coherent-omega-zero", "laguerre-lam-1"])
def test_rejects_invalid_parameters(build, message):
    with pytest.raises(PSQError, match=message):
        build()
