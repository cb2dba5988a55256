import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import psq.grids
import psq.spectra
import psq.starprod
import psq.states
from psq import (EvolutionConfig, GaussianSmoother, IdentitySmoother, IllPosedSmoothingError,
                 MixedState,
                 NumericalPreconditionError, ObservableSpec, OrderingSpec,
                 PhaseField, PolyH, PSQError, bopp_apply, evolve_phase_space,
                 evolve_schrodinger, expectation, gauge_spectrum_check, integrate,
                 l2_norm, make_grid,
                 operator_matrix, spectrum_via_schrodinger, stargen_residual,
                 twisted_tensor, uncertainty)
from psq.closedforms import (CoherentParams, FreeGaussianParams,
                             OscillatorParams, coherent_state, free_gaussian,
                             ho_state)
from psq.grids import WaveFunction, multiply_mixed
from psq.spectra import hermitian_eigh
from psq.states import QuasiDistribution, hermite_function


def fd_oracle_levels(nx, span, potential, k=5):
    """Independent finite-difference eigenvalue oracle, Richardson-improved.

    Standard second-order central differences at two resolutions with the
    O(dx^2) term eliminated; never touches the package's spectral machinery.
    """
    def levels(n):
        x = np.linspace(-span, span, n, endpoint=False)
        dx = x[1] - x[0]
        diag = 1.0 / dx ** 2 + potential(x)
        off = np.full(n - 1, -0.5 / dx ** 2)
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))[0]
    coarse = levels(nx)
    fine = levels(2 * nx)
    return (4.0 * fine - coarse) / 3.0


class TestExpectation:
    def test_identity_observable(self, grid64):
        state = ho_state(0, 0, OscillatorParams(), grid64)
        one = ObservableSpec.from_poly(PolyH.const(1.0), "1")
        assert abs(expectation(one, state) - 1.0) < 1e-10

    def test_oscillator_ground_energy(self, grid64):
        state = ho_state(0, 0, OscillatorParams(), grid64)
        H = ObservableSpec.harmonic(1.0)
        assert abs(expectation(H, state) - 0.5 * grid64.hbar) < 1e-7

    def test_coherent_center(self, grid64):
        cs = coherent_state(CoherentParams(1.25, -0.5, 1.0), OrderingSpec(0.5), grid64)
        assert abs(expectation(ObservableSpec.position(), cs) - 1.25) < 1e-7
        assert abs(expectation(ObservableSpec.momentum(), cs) + 0.5) < 1e-7

    def test_trace_form_for_mixtures(self, grid64, rng):
        # <A>_mix = sum p_l <phi_l | A_matrix phi_l>
        spec = OrderingSpec(0.5, GaussianSmoother(0.05, 0.08))
        basis = [hermite_function(grid64, n) for n in range(4)]
        weights = [0.4, 0.35, 0.25]
        comps = tuple((w, twisted_tensor(basis[i], basis[i], spec))
                      for i, w in enumerate(weights))
        mix = MixedState(comps)
        A = ObservableSpec.from_poly(
            PolyH.monomial(2, 0, c=0.3) + PolyH.monomial(0, 2, c=0.7)
            + PolyH.monomial(1, 1, c=0.2), "A")
        M = operator_matrix(A, spec, grid64)
        want = sum(w * basis[i].inner(WaveFunction(basis[i].grid, M @ basis[i].values))
                   for i, w in enumerate(weights))
        got = expectation(A, mix)
        assert abs(got - want) < 1e-7

    def test_self_adjoint_gives_real(self, grid64, rng):
        spec = OrderingSpec(0.3)
        phi = hermite_function(grid64, 2)
        state = twisted_tensor(phi, phi, spec)
        H = ObservableSpec.harmonic(1.0)
        val = expectation(H, state)
        assert abs(val.imag) < 1e-8


def bopp_expectation(A, state):
    """The reference route: the whole field A * rho, summed."""
    return integrate(bopp_apply(A, state.rho_field(), "left", state.spec))


_X, _P = PolyH.x(), PolyH.p()
CONTRACTED = (
    ObservableSpec.position(),
    ObservableSpec.momentum(),
    ObservableSpec.from_poly(_X * _P, "xp"),
    ObservableSpec.from_poly(_X * _X * _P * _P * _P + _X * _P * _P, "x2p3+xp2"),
    ObservableSpec.harmonic(1.3) + ObservableSpec.from_poly(PolyH.const(0.25), "1/4"),
    ObservableSpec.x_function(np.cos, "cos x")
    + ObservableSpec.p_function(lambda p: np.exp(-p * p / 4), "exp(-p^2/4)"),
)
GRID_E = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)


def _ramped_hermite(rng):
    """A Hermite function times a phase ramp: a complex wavefunction."""
    n, k = int(rng.integers(0, 4)), rng.uniform(-1.5, 1.5)
    return WaveFunction(GRID_E, hermite_function(GRID_E, n).values * np.exp(1j * k * GRID_E.x))


def _contracted_state(seed, sigma, kind):
    rng = np.random.default_rng(seed)
    spec = OrderingSpec(sigma)
    pair = twisted_tensor(_ramped_hermite(rng), _ramped_hermite(rng), spec)
    if kind == "pair":
        return pair
    if kind == "mixed":
        w = rng.uniform(0.2, 0.8)
        other = twisted_tensor(_ramped_hermite(rng), _ramped_hermite(rng), spec)
        return MixedState(((w, pair), (1.0 - w, other)))
    # RK4 output: a raw field that carries no canonical field
    cfg = EvolutionConfig(dt=0.01, steps=2, method="phase_space_rk4")
    field = evolve_phase_space(pair, ObservableSpec.harmonic(), cfg).snapshots[-1]
    return QuasiDistribution(field, spec)


class TestExpectationContraction:
    """Plain-sigma expectations are zero-frequency contractions; the Bopp
    action summed over the lattice is their reference route."""

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sigma=st.floats(0.0, 1.0),
           kind=st.sampled_from(["pair", "mixed", "raw"]))
    def test_matches_the_bopp_route(self, seed, sigma, kind):
        state = _contracted_state(seed, sigma, kind)
        assert state.canonical is None or kind == "pair"
        for A in CONTRACTED:
            want = bopp_expectation(A, state)
            assert abs(expectation(A, state) - want) <= 1e-12 * max(1.0, abs(want)), A.label

    def test_coherent_moments_as_close_as_the_bopp_route(self):
        grid = make_grid(256, 128, -12.0, 12.0, -8.0, 8.0, 1.0)
        moments = {"x": lambda c: c.x_bar, "p": lambda c: c.p_bar,
                   "x2": lambda c: c.x_bar ** 2 + 0.5, "p2": lambda c: c.p_bar ** 2 + 0.5}
        obs = {"x": ObservableSpec.position(), "p": ObservableSpec.momentum(),
               "x2": ObservableSpec.from_poly(_X * _X, "x2"),
               "p2": ObservableSpec.from_poly(_P * _P, "p2")}
        for sigma in (0.0, 0.3, 0.5, 1.0):
            for packet in (CoherentParams(1.25, -0.5), CoherentParams(-2.0, 1.5)):
                state = coherent_state(packet, OrderingSpec(sigma), grid)
                for name, A in obs.items():
                    exact = moments[name](packet)
                    err = abs(expectation(A, state) - exact)
                    assert err <= abs(bopp_expectation(A, state) - exact), (sigma, name)
                    assert err < 1e-12 * max(1.0, abs(exact))

    def test_gaussian_orderings_keep_the_series(self, grid64):
        spec = OrderingSpec(0.3, GaussianSmoother(0.05, 0.08))
        phi = hermite_function(grid64, 1)
        state = twisted_tensor(phi, hermite_function(grid64, 2), spec)
        for A in CONTRACTED[:5]:
            assert expectation(A, state) == bopp_expectation(A, state)

    @pytest.mark.parametrize("A", CONTRACTED, ids=lambda A: A.label)
    def test_nan_state_refused_by_both_routes(self, grid64, A):
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 1),
                               OrderingSpec(0.3))
        values = state.psi_field.values.copy()
        values[20, 40] = np.nan
        bad = QuasiDistribution(PhaseField(grid64, values), state.spec)
        with np.errstate(invalid="ignore"):
            for route in (expectation, bopp_expectation):
                with pytest.raises(PSQError, match="non-finite"):
                    route(A, bad)

    @pytest.mark.parametrize("A", [
        ObservableSpec.from_poly(PolyH.monomial(400, 0), "x^400"),
        ObservableSpec.from_poly(PolyH.monomial(0, 400), "p^400"),
        ObservableSpec.from_poly(PolyH.monomial(200, 200), "x^200 p^200"),
        ObservableSpec.x_function(lambda x: np.exp(800.0 * x * x), "exp(800 x^2)"),
        ObservableSpec.p_function(lambda p: np.exp(800.0 * p * p), "exp(800 p^2)")],
        ids=lambda A: A.label)
    def test_overflowing_profile_refused_by_both_routes(self, grid64, A):
        # standard ordering (sigma 0) keeps x^200 p^200 one factor pair
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 0),
                               OrderingSpec(0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            for route in (expectation, bopp_expectation):
                with pytest.raises(PSQError, match="non-finite"):
                    route(A, state)


class TestUncertainty:
    def test_free_gaussian_laws(self):
        # the x span must hold >= 12 widths of the spread packet at t=2
        grid = make_grid(128, 64, -12, 12, -8, 8, 1.0)
        hbar = grid.hbar
        dp = 0.5
        dx = hbar / (2 * dp)
        for t in (0.0, 0.5, 1.0, 2.0):
            fg = free_gaussian(FreeGaussianParams(0.3, dp), t, OrderingSpec(0.5), grid)
            assert abs(uncertainty(fg, "p") - dp) < 1e-6
            assert abs(uncertainty(fg, "x")
                       - np.sqrt(dx ** 2 + (dp * t) ** 2)) < 1e-6

    def test_minimum_uncertainty_states(self, grid64):
        hbar = grid64.hbar
        cs = coherent_state(CoherentParams(0.5, 0.25, 1.0), OrderingSpec(0.5), grid64)
        assert abs(uncertainty(cs, "x") * uncertainty(cs, "p") - hbar / 2) < 1e-7
        gs = ho_state(0, 0, OscillatorParams(), grid64)
        assert abs(uncertainty(gs, "x") * uncertainty(gs, "p") - hbar / 2) < 1e-7


class TestStargenResidual:
    def test_diagonal_states(self, grid64):
        par = OscillatorParams()
        H = ObservableSpec.harmonic(1.0)
        for n in range(5):
            state = ho_state(n, n, par, grid64)
            left, right = stargen_residual(H, state, n + 0.5)
            assert left < 1e-6 and right < 1e-6

    def test_off_diagonal_two_sided(self, grid64):
        par = OscillatorParams()
        H = ObservableSpec.harmonic(1.0)
        state = ho_state(2, 1, par, grid64)
        psi = state.psi_field
        from psq import bopp_apply
        nrm = l2_norm(psi)
        left = l2_norm(bopp_apply(H, psi, "left", state.spec) - psi * 2.5) / nrm
        right = l2_norm(bopp_apply(H, psi, "right", state.spec) - psi * 1.5) / nrm
        assert left < 1e-6 and right < 1e-6

    def test_both_sides_are_the_one_sided_residuals(self, grid64):
        H = ObservableSpec.harmonic(1.0)
        state = ho_state(2, 1, OscillatorParams(), grid64)
        psi = state.psi_field
        nrm = l2_norm(psi)
        want = tuple(l2_norm(psq.starprod.bopp_apply(H, psi, side, state.spec) - psi * 2.5) / nrm
                     for side in ("left", "right"))
        assert stargen_residual(H, state, 2.5) == want

    def test_zero_field_is_refused(self):
        g = make_grid(32, 32, -6.0, 6.0, -6.0, 6.0, 1.0)
        zero = QuasiDistribution(PhaseField.constant(g, 0.0), OrderingSpec(0.5))
        with pytest.raises(NumericalPreconditionError, match="zero field"):
            stargen_residual(ObservableSpec.harmonic(1.0), zero, 0.5)

    def test_random_state_is_not_an_eigenstate(self, grid64, rng):
        phi = hermite_function(grid64, 0)
        psi = hermite_function(grid64, 3)
        state = twisted_tensor(phi, psi, OrderingSpec(0.5))
        H = ObservableSpec.harmonic(1.0)
        left, right = stargen_residual(H, state, 1.0)
        assert left > 0.1 or right > 0.1


QUARTIC = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(2, 0, c=0.5)
                                   + PolyH.monomial(4, 0, c=0.05), "H")
GAUSSIAN = OrderingSpec(0.37, GaussianSmoother(0.1, 0.1))


def _no_series(monkeypatch):
    """Make the Bopp series refuse to run."""
    def refused(*args):
        raise AssertionError("the Bopp series ran")
    monkeypatch.setattr(psq.starprod, "_bopp_series", refused)


class TestCanonicalResidual:
    """A Gaussian-smoothed state that carries its plain-sigma field takes its
    residuals from the identity route on that field; one without it runs
    the series on its smoothed field."""

    @pytest.mark.parametrize("smoother", [GaussianSmoother(0.1, 0.1), GaussianSmoother(0.3, 0.0)],
                             ids=["G(0.1,0.1)", "G(0.3,0)"])
    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_routes_agree_off_eigenstates(self, grid64, monkeypatch, sigma, smoother):
        spec = OrderingSpec(sigma, smoother)
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 3), spec)
        series = stargen_residual(QUARTIC, QuasiDistribution(state.psi_field, spec), 1.0)
        _no_series(monkeypatch)
        canonical = stargen_residual(QUARTIC, state, 1.0)
        assert min(series) > 0.1
        for got, want in zip(canonical, series):
            assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_canonical_action_is_the_series_pulled_back(self, sigma):
        # on [-8, 8] the quartic's action on the sigma 0 and 1 fields reaches
        # the x edges (1e-6 of its peak), where the two routes wrap differently
        grid = make_grid(128, 128, -10.0, 10.0, -10.0, 10.0, 1.0)
        spec = OrderingSpec(sigma, GaussianSmoother(0.3, 0.0))
        state = twisted_tensor(hermite_function(grid, 1), hermite_function(grid, 2), spec)
        series = psq.starprod.bopp_apply(QUARTIC, state.psi_field, "both", spec)
        canonical = psq.starprod.bopp_apply(QUARTIC, state.canonical, "both", spec, canonical=True)
        for got, want in zip(canonical, series):
            pushed = psq.starprod.apply_smoother(spec, got)
            assert l2_norm(pushed - want) <= 1e-9 * l2_norm(want)

    def test_state_without_canonical_field_takes_the_series(self, grid64):
        state = twisted_tensor(hermite_function(grid64, 2), hermite_function(grid64, 1), GAUSSIAN)
        psi = state.psi_field
        nrm = l2_norm(psi)
        want = tuple(l2_norm(psq.starprod.bopp_apply(QUARTIC, psi, side, GAUSSIAN) - psi * 2.5)
                     / nrm for side in ("left", "right"))
        assert stargen_residual(QUARTIC, QuasiDistribution(psi, GAUSSIAN), 2.5) == want
        assert stargen_residual(QUARTIC, state, 2.5) != want

    def test_zero_field_is_refused(self):
        g = make_grid(32, 32, -6.0, 6.0, -6.0, 6.0, 1.0)
        # the smoothed field is not zero, so only the canonical route refuses
        state = QuasiDistribution(PhaseField.constant(g, 1.0), GAUSSIAN,
                                  PhaseField.constant(g, 0.0))
        with pytest.raises(NumericalPreconditionError, match="zero field"):
            stargen_residual(QUARTIC, state, 0.5)

    def test_function_terms_are_refused_as_by_the_series(self, grid64):
        H = QUARTIC + ObservableSpec.x_function(np.cos)
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 0), GAUSSIAN)
        errors = []
        for st in (QuasiDistribution(state.psi_field, GAUSSIAN), state):
            with pytest.raises(psq.UnsupportedObservableError) as info:
                stargen_residual(H, st, 0.5)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_spectrum_builds_one_word_and_one_multiplier(self, grid64, monkeypatch):
        H = ObservableSpec.from_poly(QUARTIC.poly, "H")
        calls = []
        for name in ("sigma_order", "sigma_order_right"):
            order = getattr(psq.starprod, name)
            monkeypatch.setattr(psq.starprod, name,
                                lambda f, sigma, order=order, name=name:
                                calls.append(name) or order(f, sigma))
        multiplier = psq.spectra._gaussian_multiplier
        monkeypatch.setattr(psq.spectra, "_gaussian_multiplier",
                            lambda *args: calls.append("multiplier") or multiplier(*args))
        _no_series(monkeypatch)
        res = spectrum_via_schrodinger(H, GAUSSIAN, 5, grid64)
        assert sorted(calls) == ["multiplier", "sigma_order", "sigma_order_right"]
        assert max(max(r) for r in res.residuals) < 1e-6
        spectrum_via_schrodinger(H, GAUSSIAN, 5, grid64)
        assert calls.count("sigma_order") + calls.count("sigma_order_right") == 2

    def test_multiplier_of_another_grid_is_refused(self, grid64):
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 0), GAUSSIAN)
        other = psq.spectra._gaussian_multiplier(GAUSSIAN, make_grid(32, 32, -6, 6, -6, 6, 1.0))
        with pytest.raises(PSQError, match="multiplier"):
            stargen_residual(QUARTIC, state, 0.5, other)


# a factor pair that mixes x and p: the x^2 p^2 term
MIXED_WORD = ObservableSpec.from_poly(QUARTIC.poly + PolyH.monomial(2, 2, c=0.02), "H_mixed")
GRID64 = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)


def _field_route_residuals(H, psi, energy, spec, mult=None):
    """The canonical residuals from fields: bopp_apply(..., canonical=True) on
    Psi_c, then |m F r| / |m F Psi_c| with fourier_full and S's multiplier m."""
    if mult is None:
        mult = psq.spectra._gaussian_multiplier(spec, psi.grid)

    def smoothed_norm(field):
        return np.linalg.norm(psq.grids.fourier_full(field).values * mult)

    nrm = smoothed_norm(psi)
    return tuple(smoothed_norm(acted - psi * energy) / nrm
                 for acted in bopp_apply(H, psi, "both", spec, canonical=True))


class TestResidualContraction:
    """Under a Gaussian ordering the canonical residuals are contracted on the
    conjugate lattice; the field route (canonical bopp_apply, Fourier norms)
    is their reference."""

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(sigma=st.floats(0.0, 1.0),
           smoother=st.sampled_from([GaussianSmoother(0.1, 0.1), GaussianSmoother(0.3, 0.0)]),
           H=st.sampled_from([QUARTIC, MIXED_WORD]),
           pair=st.sampled_from([(0, 3), (1, 2), (2, 0)]),
           energy=st.floats(0.0, 3.0))
    @example(sigma=0.0, smoother=GaussianSmoother(0.1, 0.1), H=MIXED_WORD, pair=(0, 3), energy=1.0)
    @example(sigma=1.0, smoother=GaussianSmoother(0.3, 0.0), H=MIXED_WORD, pair=(1, 2), energy=2.5)
    @example(sigma=0.0, smoother=GaussianSmoother(0.3, 0.0), H=QUARTIC, pair=(2, 0), energy=0.5)
    @example(sigma=1.0, smoother=GaussianSmoother(0.1, 0.1), H=QUARTIC, pair=(0, 3), energy=1.5)
    def test_matches_the_field_route(self, sigma, smoother, H, pair, energy):
        spec = OrderingSpec(sigma, smoother)
        phi, psi = (hermite_function(GRID64, n) for n in pair)
        canonical = twisted_tensor(phi, psi, spec).canonical
        got = psq.starprod._canonical_residuals(
            H, canonical, energy, spec, psq.spectra._gaussian_multiplier(spec, GRID64))
        want = _field_route_residuals(H, canonical, energy, spec)
        assert min(want) > 0.1
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w

    def test_one_level_runs_ten_transforms(self, grid64, monkeypatch):
        # Psi_c (3), its x -> u and p -> y samples and spectrum (3), and per
        # side one transform for each folded profile (4); S Psi_c is never built
        spectrum_via_schrodinger(QUARTIC, GAUSSIAN, 1, grid64)     # orders the words
        transforms, smoothed = [], []
        half_dft = psq.grids.half_dft
        monkeypatch.setattr(psq.grids, "half_dft", lambda values, *args, **kw:
                            transforms.append(np.ndim(values)) or half_dft(values, *args, **kw))
        smoother = psq.starprod.apply_smoother
        for module in (psq.starprod, psq.states):
            monkeypatch.setattr(module, "apply_smoother",
                                lambda spec, field, direction="forward":
                                smoothed.append(direction) or smoother(spec, field, direction))
        _no_series(monkeypatch)
        res = spectrum_via_schrodinger(QUARTIC, GAUSSIAN, 1, grid64)
        assert transforms.count(2) <= 10
        assert "forward" not in smoothed
        assert max(res.residuals[0]) < 1e-6

    def test_nan_field_is_refused_as_by_bopp_apply(self, grid64):
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 0), GAUSSIAN)
        values = state.canonical.values.copy()
        values[20, 30] = np.nan
        nan_field = PhaseField(grid64, values)
        with pytest.raises(PSQError) as want:
            bopp_apply(QUARTIC, nan_field, "both", GAUSSIAN, canonical=True)
        with pytest.raises(PSQError) as got:
            stargen_residual(QUARTIC, QuasiDistribution(state.psi_field, GAUSSIAN, nan_field), 0.5)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_overflowing_residual_is_refused_on_both_routes(self, grid64):
        H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=1e300) + PolyH.monomial(2, 0, c=1e300))
        state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 0), GAUSSIAN)
        for st_ in (state, QuasiDistribution(state.psi_field, GAUSSIAN)):
            with np.errstate(all="ignore"), pytest.raises(PSQError, match="non-finite"):
                stargen_residual(H, st_, 1e300)


AMPLIFYING = OrderingSpec(0.5, GaussianSmoother(-0.1, 0.05))


class TestAmplifyingSmoother:
    """A smoother with alpha < 0 amplifies: its multiplier is clamped where it
    passes the cutoff, by the smoothing and by the residual contraction alike."""

    def test_residuals_take_the_clamped_multiplier(self):
        grid = make_grid(256, 128, -8.0, 8.0, -8.0, 8.0, 1.0)
        H = ObservableSpec.harmonic(1.0)
        res = spectrum_via_schrodinger(H, AMPLIFYING, 2, grid)
        assert max(max(r) for r in res.residuals) < 1e-6
        mult = psq.spectra._gaussian_multiplier(AMPLIFYING, grid)
        clamped = np.where(np.abs(mult) > psq.starprod.AMPLIFICATION_CUTOFF, 0.0, mult)
        # near an eigenstate a residual is a cancellation: the two routes
        # round differently, and the multiplier amplifies that by up to 1e6
        for n, got in enumerate(res.residuals):
            canonical = res.eigenfield(n, n).canonical
            want = _field_route_residuals(H, canonical, res.energies[n], AMPLIFYING, clamped)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9

    def test_refuses_what_the_smoothing_refuses(self, grid64):
        spec = OrderingSpec(0.5, GaussianSmoother(-2.0, -2.0))
        h0 = hermite_function(grid64, 0)
        with pytest.raises(IllPosedSmoothingError):
            twisted_tensor(h0, h0, spec)
        canonical = twisted_tensor(h0, h0, OrderingSpec(0.5)).psi_field
        with pytest.raises(IllPosedSmoothingError):
            stargen_residual(ObservableSpec.harmonic(1.0),
                             QuasiDistribution(canonical, spec, canonical), 2.5)
        with pytest.raises(IllPosedSmoothingError):
            spectrum_via_schrodinger(ObservableSpec.harmonic(1.0), spec, 2, grid64)


class TestSpectrumSolver:
    def test_moyal_oscillator(self, grid128):
        H = ObservableSpec.harmonic(1.0)
        res = spectrum_via_schrodinger(H, OrderingSpec(0.5), 5, grid128)
        want = np.arange(5) + 0.5
        assert np.abs(res.energies - want).max() / want.max() < 1e-8
        for left, right in res.residuals:
            assert left < 1e-6 and right < 1e-6

    def test_eigensolve_orders_the_symbol_once(self, grid64, monkeypatch):
        # the Hermiticity check and the matrix share one ordered word
        calls = []
        order = psq.starprod.sigma_order

        def counted(f, sigma):
            calls.append(sigma)
            return order(f, sigma)

        monkeypatch.setattr(psq.starprod, "sigma_order", counted)
        hermitian_eigh(ObservableSpec.harmonic(), OrderingSpec(0.3), grid64)
        assert calls == [0.3]

    def test_smoothed_oscillator_shifted_levels(self, grid128):
        # E_n = (n + lam_bar) hbar omega with lam_bar = (1 - w a - b/w)/2
        H = ObservableSpec.harmonic(1.0)
        spec = OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))
        res = spectrum_via_schrodinger(H, spec, 5, grid128)
        want = np.arange(5) + 0.4
        assert np.abs(res.energies - want).max() < 1e-6

    def test_quartic_against_fd_oracle(self, grid128):
        H = ObservableSpec.from_poly(
            PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25), "Hq")
        res = spectrum_via_schrodinger(H, OrderingSpec(0.5), 5, grid128,
                                       residual_fields=False)
        oracle = fd_oracle_levels(1024, 8.0, lambda x: 0.25 * x ** 4)
        assert np.abs(res.energies - oracle).max() < 1e-6

    def test_orthonormal_eigenfunctions(self, grid128):
        H = ObservableSpec.harmonic(1.0)
        res = spectrum_via_schrodinger(H, OrderingSpec(0.5), 5, grid128,
                                       residual_fields=False)
        for i, a in enumerate(res.wavefunctions):
            for j, b in enumerate(res.wavefunctions):
                want = 1.0 if i == j else 0.0
                assert abs(a.inner(b) - want) < 1e-8

    @pytest.mark.parametrize("spec", [OrderingSpec(0.37), GAUSSIAN], ids=["identity", "gaussian"])
    def test_eigenfields_share_one_set_of_tables(self, grid64, spec):
        res = spectrum_via_schrodinger(ObservableSpec.harmonic(1.0), spec, 3, grid64,
                                       residual_fields=False)
        shear = psq.spectra.pair_shear(grid64, spec.sigma)
        for m, n in ((0, 0), (1, 1), (2, 1)):
            own, shared = res.eigenfield(m, n), res.eigenfield(m, n, shear)
            assert np.array_equal(own.psi_field.values, shared.psi_field.values)
            assert own.psi_field.meta == shared.psi_field.meta

    def test_eigenfield_assembly(self, grid64):
        H = ObservableSpec.harmonic(1.0)
        res = spectrum_via_schrodinger(H, OrderingSpec(0.5), 3, grid64,
                                       residual_fields=False)
        field = res.eigenfield(1, 1)
        want = ho_state(1, 1, OscillatorParams(), grid64)
        # eigenvectors carry an arbitrary sign; diagonal fields do not
        assert l2_norm(field.psi_field - want.psi_field) < 1e-6

    def test_non_hermitian_rejected(self, grid64):
        H = ObservableSpec.from_poly(
            PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(1, 0, c=1j), "Hbad")
        with pytest.raises(PSQError, match="not Hermitian"):
            spectrum_via_schrodinger(H, OrderingSpec(0.5), 3, grid64)

    def test_level_count_bound(self, grid64):
        H = ObservableSpec.harmonic(1.0)
        with pytest.raises(NumericalPreconditionError, match="resolution"):
            spectrum_via_schrodinger(H, OrderingSpec(0.5), 60, grid64)

    def test_zero_levels_refused(self, grid64):
        with pytest.raises(PSQError, match="at least 1"):
            spectrum_via_schrodinger(ObservableSpec.harmonic(1.0), OrderingSpec(0.5), 0, grid64)

    def test_unresolved_level_refused(self):
        grid = make_grid(64, 64, -3.0, 3.0, -3.0, 3.0, 1.0)
        with pytest.raises(NumericalPreconditionError, match="level 0 is not resolved"):
            spectrum_via_schrodinger(ObservableSpec.harmonic(1.0), OrderingSpec(0.5), 8, grid)

    def test_function_terms_match_polynomial_route(self, grid64):
        # x_function + p_function terms build the same factor pairs as the
        # polynomial, through the function-term branch of the Hermiticity check
        H_fn = ObservableSpec.x_function(lambda x: 0.5 * x ** 2) \
            + ObservableSpec.p_function(lambda p: 0.5 * p ** 2)
        for spec in (OrderingSpec(0.5), OrderingSpec(0.2)):
            got = spectrum_via_schrodinger(H_fn, spec, 4, grid64)
            want = spectrum_via_schrodinger(ObservableSpec.harmonic(1.0), spec, 4, grid64,
                                            residual_fields=False)
            assert np.abs(got.energies - want.energies).max() < 1e-12
            assert np.abs(got.energies - (np.arange(4) + 0.5)).max() < 1e-8
            for left, right in got.residuals:
                assert left < 1e-6 and right < 1e-6
        # a complex function term is named as the offending term
        bad = H_fn + ObservableSpec.x_function(lambda x: 1e-3j * x)
        with pytest.raises(PSQError, match="x-function term"):
            spectrum_via_schrodinger(bad, OrderingSpec(0.5), 4, grid64)

    def test_non_finite_matrix_refused(self, grid64):
        # sigma = 1e300 overflows the ordered coefficients of x^2 p^2: the
        # matrix holds NaN, which no comparison downstream may let through
        H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(2, 0, c=0.5)
                                     + PolyH.monomial(2, 2, c=0.1), "H")
        with np.errstate(all="ignore"), pytest.raises(NumericalPreconditionError,
                                                      match="not finite"):
            spectrum_via_schrodinger(H, OrderingSpec(1e300), 4, grid64)


class TestResidualMemory:
    """tracemalloc peak of spectrum_via_schrodinger's residual phase, from the
    return of hermitian_eigh to the end, in nx np complex values (16 B each)
    at 1024 x 128: the quartic at sigma 0.37 under the identity smoother peaks
    at 11.7, holding one set of sigma tables (2) for its five states.  A solver
    that keeps the nx x nx eigenvector basis (4) through the residual loop,
    with each state building its own tables, peaks at 13.6."""

    def test_residual_phase_peak(self, monkeypatch):
        grid = make_grid(1024, 128, -8.0, 8.0, -8.0, 8.0, 1.0)
        H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(2, 0, c=0.5)
                                     + PolyH.monomial(4, 0, c=0.05), "H")
        spec = OrderingSpec(0.37)
        spectrum_via_schrodinger(H, spec, 5, grid)       # orders the word, fills the caches

        def solve_then_reset(*args):
            solved = hermitian_eigh(*args)
            tracemalloc.reset_peak()
            return solved

        monkeypatch.setattr(psq.spectra, "hermitian_eigh", solve_then_reset)
        tracemalloc.start()
        try:
            spectrum_via_schrodinger(H, spec, 5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.5 * grid.nx * grid.np * 16


class TestGaussianResidualMemory:
    """TestResidualMemory's tracemalloc peak under G(0.1, 0.1): 13.2 units at
    1024 x 128, quartic, sigma 0.37.  The states carry Psi_c beside Psi, and
    the residuals run on Psi_c with one shared multiplier (0.5 units); the
    series on the smoothed fields peaks at 15.2."""

    def test_residual_phase_peak(self, monkeypatch):
        grid = make_grid(1024, 128, -8.0, 8.0, -8.0, 8.0, 1.0)
        spectrum_via_schrodinger(QUARTIC, GAUSSIAN, 5, grid)    # orders the words, fills the caches

        def solve_then_reset(*args):
            solved = hermitian_eigh(*args)
            tracemalloc.reset_peak()
            return solved

        monkeypatch.setattr(psq.spectra, "hermitian_eigh", solve_then_reset)
        tracemalloc.start()
        try:
            spectrum_via_schrodinger(QUARTIC, GAUSSIAN, 5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.0 * grid.nx * grid.np * 16


class TestOperatorMatrix:
    """The circulant build of the ordered matrix against the column-by-column route."""

    QUARTIC = ObservableSpec.from_poly(
        PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25), "Hq")
    WORDS = [
        ("harmonic", ObservableSpec.harmonic(1.0), 0.5),
        ("quartic", QUARTIC, 0.5),
        ("weyl-x2p2", ObservableSpec.from_poly(PolyH.monomial(2, 2), "x2p2"), 0.5),
        ("xp", ObservableSpec.from_poly(PolyH.monomial(1, 1), "xp"), 0.3),
        ("p3", ObservableSpec.from_poly(PolyH.monomial(0, 3), "p3"), 0.5),
        ("p-function", ObservableSpec.p_function(np.sin)
         + ObservableSpec.x_function(lambda x: 0.5 * x ** 2), 0.5),
    ]

    @staticmethod
    def reference(A, spec, grid):
        """Sum over the factor pairs of diag(a) times the mixed multiply of
        every column of the identity."""
        nx = grid.nx
        M = np.zeros((nx, nx), dtype=complex)
        for b, a in A.factors(spec, "left", grid.x, grid.xi, grid.hbar):
            a = np.broadcast_to(a, (nx,))
            if b is None:
                M += np.diag(a)
            else:
                M += a[:, None] * multiply_mixed(grid, np.eye(nx), "x", b[:, None])
        return M

    # function terms admit only the identity smoother
    CASES = [pytest.param(A, OrderingSpec(sigma, smoother), id=name + "-" + smoother.kind)
             for name, A, sigma in WORDS
             for smoother in (IdentitySmoother(), GaussianSmoother(0.1, 0.1))
             if not (A.fns and smoother.kind != "identity")]

    @pytest.mark.parametrize("nx", [32, 64])
    @pytest.mark.parametrize("A, spec", CASES)
    def test_matches_column_by_column_route(self, nx, A, spec):
        grid = make_grid(nx, 32, -8.0, 8.0, -8.0, 8.0, 1.0)
        want = self.reference(A, spec, grid)
        got = operator_matrix(A, spec, grid)
        assert got.shape == (nx, nx) and got.dtype == complex
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_builds_with_two_matrices_live(self):
        # the build holds M and one product a[:, None] * C: 2 nx^2 complex values
        nx = 256
        grid = make_grid(nx, 16, -8.0, 8.0, -8.0, 8.0, 1.0)
        spec = OrderingSpec(0.3, GaussianSmoother(0.1, 0.1))
        operator_matrix(self.QUARTIC, spec, grid)      # order the word once
        tracemalloc.start()
        try:
            operator_matrix(self.QUARTIC, spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * nx * nx * 16


class TestRealRoute:
    """Time-reversal-invariant words are solved as real symmetric matrices."""

    HARMONIC = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(2, 0, c=0.5)
    QUARTIC = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25)
    WEYL_X2P2 = HARMONIC + PolyH.monomial(2, 2, c=0.1)

    @staticmethod
    def complex_eigh(A, spec, grid):
        M = operator_matrix(A, spec, grid)
        return np.linalg.eigh(0.5 * (M + M.conj().T))

    @pytest.mark.parametrize("poly, spec", [
        (HARMONIC, OrderingSpec(0.5)),
        (HARMONIC, OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))),
        (QUARTIC, OrderingSpec(0.5)),
        (QUARTIC, OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))),
        (WEYL_X2P2, OrderingSpec(0.5)),
    ], ids=["harmonic", "harmonic-gaussian", "quartic", "quartic-gaussian", "weyl-x2p2"])
    def test_matches_complex_hermitian_route(self, grid128, poly, spec):
        H = ObservableSpec.from_poly(poly, "H")
        energies, vectors = hermitian_eigh(H, spec, grid128)
        assert vectors.dtype == np.float64
        want_e, want_v = self.complex_eigh(H, spec, grid128)
        assert np.abs(energies[:5] - want_e[:5]).max() < 1e-8 * np.abs(want_e[:5]).max()
        for n in range(5):
            assert abs(abs(np.vdot(want_v[:, n], vectors[:, n])) - 1.0) < 1e-12

    def test_time_reversal_breaking_word_stays_complex(self, grid128):
        # the Weyl word of x p has c = 0.1 at m = 1: c i^m is imaginary
        H = ObservableSpec.harmonic(1.0) + ObservableSpec.from_poly(
            PolyH.monomial(1, 1, c=0.1), "0.1 xp")
        spec = OrderingSpec(0.5)
        energies, vectors = hermitian_eigh(H, spec, grid128)
        assert np.iscomplexobj(vectors)
        want_e, _ = self.complex_eigh(H, spec, grid128)
        assert np.array_equal(energies, want_e)
        # the ground state carries the chirp exp(-0.05 i x^2 / hbar): no phase makes it real
        ground = vectors[:, 0] / vectors[np.argmax(np.abs(vectors[:, 0])), 0]
        assert np.abs(ground.imag).max() > 1e-2 * np.abs(ground).max()

    def test_function_terms_stay_complex(self, grid128):
        H = ObservableSpec.x_function(lambda x: 0.5 * x ** 2) \
            + ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "T")
        energies, vectors = hermitian_eigh(H, OrderingSpec(0.5), grid128)
        assert np.iscomplexobj(vectors)
        assert np.abs(energies[:4] - (np.arange(4) + 0.5)).max() < 1e-8


class TestParityBlocks:
    """Even words on a centred span are solved as two parity blocks."""

    HARMONIC = TestRealRoute.HARMONIC
    QUARTIC = TestRealRoute.QUARTIC
    ODD_POTENTIAL = HARMONIC + PolyH.monomial(3, 0, c=0.02) + PolyH.monomial(4, 0, c=0.01)

    @staticmethod
    def counted_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(len(a))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    @staticmethod
    def real_eigh(A, spec, grid):
        M = operator_matrix(A, spec, grid).real
        S = 0.5 * (M + M.T)
        return np.linalg.eigh(S), S, np.abs(M).max()

    @pytest.mark.parametrize("poly, spec", [
        (HARMONIC, OrderingSpec(0.5)),
        (HARMONIC, OrderingSpec(0.3, GaussianSmoother(0.1, 0.1))),
        (QUARTIC, OrderingSpec(0.5)),
        (QUARTIC, OrderingSpec(0.8, GaussianSmoother(0.1, 0.1))),
        # odd-m terms: the parity average drops their band-edge defect
        (TestRealRoute.WEYL_X2P2, OrderingSpec(0.5)),
    ], ids=["harmonic", "harmonic-gaussian", "quartic", "quartic-gaussian", "weyl-x2p2"])
    def test_matches_full_real_solve(self, grid128, monkeypatch, poly, spec):
        H = ObservableSpec.from_poly(poly, "H")
        (want_e, want_v), _, _ = self.real_eigh(H, spec, grid128)
        calls = self.counted_eigh(monkeypatch)
        energies, vectors = hermitian_eigh(H, spec, grid128)
        assert calls == [65, 63]
        assert vectors.dtype == np.float64 and vectors.shape == (128, 128)
        assert np.abs(energies[:5] - want_e[:5]).max() < 1e-8 * np.abs(want_e[:5]).max()
        for n in range(5):
            assert abs(abs(want_v[:, n] @ vectors[:, n]) - 1.0) < 1e-12

    @pytest.mark.parametrize("poly", [HARMONIC, QUARTIC], ids=["harmonic", "quartic"])
    def test_complete_orthonormal_eigensystem(self, grid64, poly):
        H = ObservableSpec.from_poly(poly, "H")
        spec = OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))
        (want_e, _), S, scale = self.real_eigh(H, spec, grid64)
        energies, vectors = hermitian_eigh(H, spec, grid64)
        assert np.all(np.diff(energies) >= 0)
        assert np.abs(energies - want_e).max() < 1e-12 * scale
        assert np.abs(vectors.T @ vectors - np.eye(64)).max() < 1e-12
        assert np.abs((vectors * energies) @ vectors.T - S).max() < 1e-12 * scale

    def test_dense_propagator_uses_every_pair(self, grid64):
        # a displaced, moving packet has even and odd parts on every level
        H = ObservableSpec.from_poly(self.QUARTIC, "H")
        spec = OrderingSpec(0.5)
        x = grid64.x
        phi0 = WaveFunction(grid64, np.exp(-0.5 * (x - 1.0) ** 2 + 0.7j * x)).normalized()
        cfg = EvolutionConfig(dt=0.1, steps=5, method="matrix_exponential")
        got = evolve_schrodinger(phi0, H, spec, cfg, phase_space_snapshots=False)
        (w, v), _, _ = self.real_eigh(H, spec, grid64)
        want = v @ (np.exp(-0.5j * w / grid64.hbar) * (v.T @ phi0.values))
        assert np.abs(got.snapshots[-1].values - want).max() < 1e-10

    def test_equal_energies_come_back_even_first(self, grid64):
        # x^2 is diagonal: x_j and x_{-j} = -x_j give one even and one odd level
        energies, vectors = hermitian_eigh(
            ObservableSpec.from_poly(PolyH.monomial(2, 0), "x^2"), OrderingSpec(0.5), grid64)
        pairs = np.flatnonzero(energies[1:] == energies[:-1])
        assert len(pairs) == 31
        mirrored = vectors[-np.arange(64)]          # row j -> row -j mod nx
        assert np.array_equal(mirrored[:, pairs], vectors[:, pairs])
        assert np.array_equal(mirrored[:, pairs + 1], -vectors[:, pairs + 1])

    @pytest.mark.parametrize("H, grid", [
        (ObservableSpec.from_poly(ODD_POTENTIAL, "odd"), make_grid(64, 64, -8, 8, -8, 8, 1.0)),
        (ObservableSpec.x_function(lambda x: 0.5 * x ** 2)
         + ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "T"),
         make_grid(64, 64, -8, 8, -8, 8, 1.0)),
        (ObservableSpec.harmonic(), make_grid(64, 64, -7, 9, -8, 8, 1.0)),
        (ObservableSpec.harmonic() + ObservableSpec.from_poly(PolyH.monomial(1, 1, c=0.1), "xp"),
         make_grid(64, 64, -8, 8, -8, 8, 1.0)),
        (ObservableSpec.harmonic(), make_grid(1, 64, -8, 8, -8, 8, 1.0)),
    ], ids=["odd-potential", "x-function", "uncentred-span", "xp-word", "one-point"])
    def test_other_words_take_the_full_route(self, grid64, monkeypatch, H, grid):
        calls = self.counted_eigh(monkeypatch)
        hermitian_eigh(H, OrderingSpec(0.5), grid)
        assert calls == [grid.nx]
        calls.clear()
        hermitian_eigh(ObservableSpec.harmonic(), OrderingSpec(0.5), grid64)
        assert calls == [33, 31]


class TestGaugeInvariance:
    def test_oscillator_across_sigma(self, grid128):
        H = ObservableSpec.harmonic(1.0)
        report = gauge_spectrum_check(H, [0.0, 0.5, 1.0], [IdentitySmoother()],
                                      5, grid128)
        assert report["max_deviation"] < 1e-8
        # the Gaussian smoother at alpha = beta = 0 is the identity: one run
        report = gauge_spectrum_check(H, [0.5], [IdentitySmoother(), GaussianSmoother(0, 0)],
                                      2, grid128)
        assert list(report["energies"]) == ["sigma=0.5,identity"]
        # a Gaussian smoother shifts the levels by design (see below): only the
        # orderings that share a smoother are compared
        report = gauge_spectrum_check(H, [0.0, 0.5, 1.0],
                                      [IdentitySmoother(), GaussianSmoother(0.1, 0.1)], 5, grid128)
        assert report["max_deviation"] < 1e-7

    def test_quartic_across_sigma(self, grid128):
        H = ObservableSpec.from_poly(
            PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25), "Hq")
        report = gauge_spectrum_check(H, [0.0, 0.5, 1.0], [IdentitySmoother()],
                                      5, grid128)
        assert report["max_deviation"] < 1e-7

    def test_smoother_shifts_spectrum_predictably(self, grid128):
        # S_{a,b} H != H for the oscillator: the spectra differ by exactly
        # the lam_bar - 1/2 shift
        H = ObservableSpec.harmonic(1.0)
        plain = spectrum_via_schrodinger(H, OrderingSpec(0.5), 5, grid128,
                                         residual_fields=False)
        smooth = spectrum_via_schrodinger(
            H, OrderingSpec(0.5, GaussianSmoother(0.1, 0.1)), 5, grid128,
            residual_fields=False)
        shift = smooth.energies - plain.energies
        assert np.abs(shift - (-0.1)).max() < 1e-7


class TestBridgeTheorem:
    """Left/right star action versus the operator matrix on the axis."""

    OBSERVABLES = [
        ObservableSpec.from_poly(PolyH.x(), "x"),
        ObservableSpec.from_poly(PolyH.p(), "p"),
        ObservableSpec.from_poly(PolyH.monomial(2, 0), "x2"),
        ObservableSpec.from_poly(PolyH.monomial(0, 2), "p2"),
        ObservableSpec.from_poly(PolyH.monomial(1, 2), "xp2"),
        ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5)
                                 + PolyH.monomial(2, 0, c=0.5)
                                 + PolyH.monomial(4, 0, c=0.1), "H"),
    ]
    # function terms: bopp_apply takes them under the identity smoother only
    FUNCTION_TERMS = ObservableSpec.x_function(lambda x: 0.3 * np.cos(x)) \
        + ObservableSpec.p_function(lambda p: 0.5 * p ** 2 + 0.1 * np.cos(p))

    @pytest.mark.parametrize("spec", [
        OrderingSpec(0.5), OrderingSpec(0.0),
        OrderingSpec(0.3, GaussianSmoother(0.1, 0.05)),
    ], ids=["moyal", "standard", "smoothed"])
    def test_left_and_right_actions(self, grid64, rng, spec):
        from psq import bopp_apply
        basis = [hermite_function(grid64, n) for n in range(6)]
        for _ in range(4):
            c1 = rng.normal(size=6) + 1j * rng.normal(size=6)
            c2 = rng.normal(size=6) + 1j * rng.normal(size=6)
            phi = WaveFunction(grid64, sum(c * b.values
                                           for c, b in zip(c1, basis))).normalized()
            psi = WaveFunction(grid64, sum(c * b.values
                                           for c, b in zip(c2, basis))).normalized()
            state = twisted_tensor(phi, psi, spec)
            observables = list(self.OBSERVABLES)
            if spec.is_plain_sigma():
                observables.append(self.FUNCTION_TERMS)
            for A in observables:
                M = operator_matrix(A, spec, grid64)
                left = bopp_apply(A, state.psi_field, "left", spec)
                want = twisted_tensor(phi, WaveFunction(psi.grid, M @ psi.values), spec)
                assert l2_norm(left - want.psi_field) \
                    / max(l2_norm(left), 1e-30) < 1e-6
                right = bopp_apply(A, state.psi_field, "right", spec)
                wantr = twisted_tensor(
                    WaveFunction(phi.grid, M.conj().T @ phi.values), psi, spec)
                assert l2_norm(right - wantr.psi_field) \
                    / max(l2_norm(right), 1e-30) < 1e-6

    def test_commuting_pure_state_is_two_sided_genstate(self, grid64):
        # Theorem-level consistency: an eigen-tensor Psi has [H, Psi] = 0 and
        # both residuals vanish at a = <phi|H phi>
        spec = OrderingSpec(0.5, GaussianSmoother(0.08, 0.08))
        H = ObservableSpec.harmonic(1.0)
        res = spectrum_via_schrodinger(H, spec, 3, grid64, residual_fields=False)
        phi = res.wavefunctions[1]
        state = twisted_tensor(phi, phi, spec)
        from psq import bopp_apply, star_commutator
        com = bopp_apply(H, state.psi_field, "left", spec) \
            - bopp_apply(H, state.psi_field, "right", spec)
        assert l2_norm(com) / l2_norm(state.psi_field) < 1e-8
        M = operator_matrix(H, spec, grid64)
        a = phi.inner(WaveFunction(phi.grid, M @ phi.values))
        left, right = stargen_residual(H, state, a.real)
        assert left < 1e-6 and right < 1e-6


def test_uncertainty_refuses_negative_variance(grid64):
    # the off-diagonal field of Hermite 0 and 1 has <x> = 1/sqrt(2), <x^2> = 0
    state = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 1),
                           OrderingSpec(0.5))
    with pytest.raises(NumericalPreconditionError, match="negative variance -0.5"):
        uncertainty(state, "x")


@pytest.mark.parametrize("which", ["q", "X", ""])
def test_uncertainty_rejects_unknown_quadrature(grid64, which):
    state = ho_state(0, 0, OscillatorParams(), grid64)
    with pytest.raises(PSQError, match="which must be"):
        uncertainty(state, which)
