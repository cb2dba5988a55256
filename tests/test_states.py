import numpy as np
import pytest

from psq import (CohenSmoother, CoherentParams, GaussianSmoother, IdentitySmoother, MixedState,
                 NumericalPreconditionError, ObservableSpec, OrderingSpec, PhaseField,
                 PolyH, PSQError, WaveFunction,
                 apply_smoother, basis_idempotence_check, coherent_wavepacket,
                 expectation, hermite_function, l2_norm, make_grid, marginal,
                 operator_matrix, pstar, pure_factorization, purity_check, read_state,
                 star_sigma_S, twisted_tensor, WordSmoother, write_state)
from psq.grids import pair_shear
from psq.polyalg import DiffOpWord
from psq.starprod import _KERNEL_SPAN_MASS, _from_kernel, _to_kernel
from psq.states import QuasiDistribution, _kernel

TWO_PI = 2 * np.pi


def random_wavefunction(grid, rng, nmax=5):
    basis = [hermite_function(grid, n) for n in range(nmax + 1)]
    coeffs = rng.normal(size=nmax + 1) + 1j * rng.normal(size=nmax + 1)
    vals = sum(c * b.values for c, b in zip(coeffs, basis))
    return WaveFunction(grid, vals).normalized()


class TestHermite:
    def test_orthonormal(self, grid64):
        basis = [hermite_function(grid64, n) for n in range(9)]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(a.inner(b) - want) < 1e-12

    def test_matches_reference_polynomial(self, grid64):
        from math import factorial
        from numpy.polynomial.hermite import hermval
        n = 5
        got = hermite_function(grid64, n).values
        x = grid64.x
        coeffs = [0.0] * n + [1.0]
        hn = hermval(x, coeffs)
        want = hn * np.exp(-x ** 2 / 2) / np.sqrt(
            2.0 ** n * factorial(n) * np.sqrt(np.pi))
        assert np.abs(got - want).max() < 1e-10


class TestTwistedTensor:
    def test_moyal_ground_state_closed_form(self, grid64):
        hbar = grid64.hbar
        phi = hermite_function(grid64, 0)
        state = twisted_tensor(phi, phi, OrderingSpec(0.5))
        X, P = grid64.meshes()
        want = (2 / np.sqrt(TWO_PI * hbar)) * np.exp(-(X ** 2 + P ** 2) / hbar)
        assert np.abs(state.psi_field.values - want).max() < 1e-8

    def test_normalization_random_states(self, grid64, rng):
        for spec in (OrderingSpec(0.5), OrderingSpec(0.2),
                     OrderingSpec(0.6, GaussianSmoother(0.1, 0.08))):
            phi = random_wavefunction(grid64, rng)
            state = twisted_tensor(phi, phi, spec)
            assert abs(state.normalization_integral() - 1.0) < 1e-8

    def test_scalar_product_identity(self, grid64, rng):
        # <Psi1|Psi2>_H = <phi2|phi1> <psi1|psi2>
        for spec in (OrderingSpec(0.5), OrderingSpec(0.3,
                                                     GaussianSmoother(0.1, 0.1))):
            phi1, psi1 = (random_wavefunction(grid64, rng) for _ in range(2))
            phi2, psi2 = (random_wavefunction(grid64, rng) for _ in range(2))
            s1 = twisted_tensor(phi1, psi1, spec)
            s2 = twisted_tensor(phi2, psi2, spec)
            got = s1.inner_h(s2)
            want = phi2.inner(phi1) * psi1.inner(psi2)
            assert abs(got - want) < 1e-8

    @pytest.mark.parametrize("spec_a, spec_b", [
        (OrderingSpec(0.2), OrderingSpec(0.7)),
        (OrderingSpec(0.0), OrderingSpec(1.0)),
        (OrderingSpec(0.3), OrderingSpec(0.6, GaussianSmoother(0.1, 0.1))),
    ], ids=["0.2-0.7", "0-1", "0.3-0.6-gaussian"])
    def test_scalar_product_across_orderings(self, grid64, spec_a, spec_b):
        # <Psi_aa|Psi_bb>_H = |<a|b>|^2 whichever ordering each state is under
        a = coherent_wavepacket(CoherentParams(1.0, 0.5), grid64)
        b = coherent_wavepacket(CoherentParams(-0.5, 1.0), grid64)
        want = abs(a.inner(b)) ** 2
        got = twisted_tensor(a, a, spec_a).inner_h(twisted_tensor(b, b, spec_b))
        assert abs(got - want) < 1e-12

    def test_axis_mismatch(self, grid64):
        from psq import make_grid
        other = make_grid(64, 64, -8, 8, -8, 8, 0.5)
        with pytest.raises(PSQError, match="different axes"):
            twisted_tensor(hermite_function(grid64, 0),
                           hermite_function(other, 0), OrderingSpec(0.5))

    def test_unresolved_wavefunction_rejected(self, grid64):
        # a wave oscillating at the lattice limit fails the interpolation
        # error estimate
        k = np.pi / grid64.dx * grid64.hbar  # edge of the conjugate lattice
        vals = np.exp(1j * k * grid64.x / grid64.hbar) \
            * np.exp(-grid64.x ** 2 / 4)
        bad = WaveFunction(grid64, vals)
        with pytest.raises(NumericalPreconditionError, match="interpolation"):
            twisted_tensor(bad, bad, OrderingSpec(0.5))

    def test_smoother_covariance(self, grid64, rng):
        # tensor with smoother == smoother applied to plain-sigma tensor
        phi = random_wavefunction(grid64, rng)
        psi = random_wavefunction(grid64, rng)
        spec = OrderingSpec(0.3, GaussianSmoother(0.07, 0.12))
        direct = twisted_tensor(phi, psi, spec)
        plain = twisted_tensor(phi, psi, OrderingSpec(0.3))
        pushed = apply_smoother(spec, plain.psi_field, "forward")
        assert l2_norm(direct.psi_field - pushed) / l2_norm(pushed) < 1e-9


class TestSharedShearTables:
    """Pairs built at one sigma through one set of tables (grids.pair_shear)
    are the pairs built one by one, bit for bit."""

    @pytest.mark.parametrize("smoother", [IdentitySmoother(), GaussianSmoother(0.1, 0.1)])
    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_shared_tables_change_no_bit(self, grid64, sigma, smoother):
        spec = OrderingSpec(sigma, smoother)
        h = [hermite_function(grid64, n) for n in range(3)]
        shear = pair_shear(grid64, sigma)
        for phi, psi in ((h[0], h[0]), (h[1], h[2]), (h[2], h[1])):
            shared = twisted_tensor(phi, psi, spec, shear=shear).psi_field
            alone = twisted_tensor(phi, psi, spec).psi_field
            assert np.array_equal(shared.values, alone.values)
            assert shared.meta == alone.meta
        for table in (shear.left, shear.right, shear.mask):
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_tables_of_another_sigma_or_grid_refused(self, grid64):
        h = hermite_function(grid64, 1)
        spec = OrderingSpec(0.37)
        other = make_grid(64, 64, -7.0, 7.0, -8.0, 8.0, 1.0)
        for shear in (pair_shear(grid64, 0.5), pair_shear(other, 0.37)):
            with pytest.raises(PSQError, match="shear tables"):
                twisted_tensor(h, h, spec, shear=shear)


class TestCanonicalField:
    """A twisted-tensor state carries the plain-sigma field it was smoothed from."""

    def test_identity_smoother_shares_the_field(self, grid64):
        h = hermite_function(grid64, 1)
        state = twisted_tensor(h, h, OrderingSpec(0.37))
        assert state.canonical is state.psi_field

    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_gaussian_smoother_keeps_the_plain_field(self, grid64, sigma):
        h = [hermite_function(grid64, n) for n in (1, 2)]
        smoothed = twisted_tensor(h[0], h[1], OrderingSpec(sigma, GaussianSmoother(0.1, 0.1)))
        plain = twisted_tensor(h[0], h[1], OrderingSpec(sigma))
        assert np.array_equal(smoothed.canonical.values, plain.psi_field.values)
        again = apply_smoother(smoothed.spec, smoothed.canonical)
        assert np.array_equal(again.values, smoothed.psi_field.values)

    def test_other_builders_carry_none(self, grid64, tmp_path):
        h = hermite_function(grid64, 0)
        state = twisted_tensor(h, h, OrderingSpec(0.5, GaussianSmoother(0.1, 0.1)))
        write_state(state, tmp_path / "state.psqf")
        for other in (QuasiDistribution(state.psi_field, state.spec),
                      MixedState([(0.5, state), (0.5, state)]),
                      read_state(tmp_path / "state.psqf")):
            assert other.canonical is None


class TestMarginals:
    def test_pure_gaussian_position_density(self, grid64):
        phi = hermite_function(grid64, 0)
        state = twisted_tensor(phi, phi, OrderingSpec(0.5))
        xs, dens = marginal(state, "x")
        assert np.abs(dens - np.abs(phi.values) ** 2).max() < 1e-8

    def test_momentum_density_normalized(self, grid64, rng):
        phi = random_wavefunction(grid64, rng)
        state = twisted_tensor(phi, phi, OrderingSpec(0.4))
        ps, dens = marginal(state, "p")
        assert abs(dens.sum() * grid64.dp - 1.0) < 1e-8

    def test_cross_spec_oracle(self, grid64, rng):
        # the smoothed state's marginal (after S^-1) equals the Moyal
        # marginal of the same wavefunction pair
        phi = random_wavefunction(grid64, rng)
        smooth = twisted_tensor(phi, phi,
                                OrderingSpec(0.5, GaussianSmoother(0.15, 0.1)))
        plain = twisted_tensor(phi, phi, OrderingSpec(0.5))
        _, d1 = marginal(smooth, "x")
        _, d2 = marginal(plain, "x")
        assert np.abs(d1 - d2).max() < 1e-6

    def test_mixed_state_marginals(self, grid64, rng):
        spec = OrderingSpec(0.5)
        phis = [random_wavefunction(grid64, rng) for _ in range(3)]
        weights = [0.5, 0.3, 0.2]
        mix = MixedState(tuple(
            (w, twisted_tensor(f, f, spec)) for w, f in zip(weights, phis)))
        xs, dens = marginal(mix, "x")
        want = sum(w * np.abs(f.values) ** 2 for w, f in zip(weights, phis))
        assert np.abs(dens - want).max() < 1e-7


class TestPurity:
    def test_ground_state_pure(self, grid64):
        phi = hermite_function(grid64, 0)
        state = twisted_tensor(phi, phi, OrderingSpec(0.5))
        is_pure, residuals = purity_check(state)
        assert is_pure
        assert max(residuals) < 1e-6

    def test_smoothed_excited_state_pure(self, grid64):
        phi = hermite_function(grid64, 2)
        state = twisted_tensor(phi, phi,
                               OrderingSpec(0.3, GaussianSmoother(0.1, 0.1)))
        is_pure, residuals = purity_check(state)
        assert is_pure

    def test_equal_mixture_not_pure(self, grid64):
        spec = OrderingSpec(0.5)
        s00 = twisted_tensor(hermite_function(grid64, 0),
                             hermite_function(grid64, 0), spec)
        s11 = twisted_tensor(hermite_function(grid64, 1),
                             hermite_function(grid64, 1), spec)
        from psq import QuasiDistribution
        half = QuasiDistribution(s00.psi_field * 0.5 + s11.psi_field * 0.5, spec)
        is_pure, residuals = purity_check(half)
        assert not is_pure
        # idempotence residual of the mixture is exactly computable:
        # (Psi/2 + Phi/2)^star2 = (Psi + Phi)/(4 sqrt(2 pi hbar)) * 2...
        # mixture fails idempotence by |mix*mix - c mix| with c=(2pihbar)^-1/2
        prod = star_sigma_S(half.psi_field, half.psi_field, spec)
        want = (s00.psi_field + s11.psi_field) * (0.25 / np.sqrt(TWO_PI * grid64.hbar))
        assert l2_norm(prod - want) / l2_norm(want) < 1e-6
        expected_residual = l2_norm(
            prod - half.psi_field * (1 / np.sqrt(TWO_PI * grid64.hbar))) \
            / l2_norm(half.psi_field)
        assert abs(residuals[1] - expected_residual) < 1e-12
        # a MixedState is the same quasi-distribution
        mix_pure, mix_residuals = purity_check(MixedState(((0.5, s00), (0.5, s11))))
        assert not mix_pure
        assert mix_residuals == residuals

    def test_wrong_scale_fails_normalization_only(self, grid64):
        phi = hermite_function(grid64, 0)
        state = twisted_tensor(phi, phi, OrderingSpec(0.5))
        from psq import QuasiDistribution
        doubled = QuasiDistribution(state.psi_field * 2.0, state.spec)
        is_pure, (r_h, r_i, r_n) = purity_check(doubled)
        assert not is_pure
        assert r_h < 1e-10          # hermiticity unaffected by scaling
        assert r_n > 0.9            # norm residual ~ |2 - 1|
        assert r_i > 1e-3           # idempotence scales wrongly too


class TestBasisIdempotence:
    def test_diagonal_ground(self, grid64):
        r = basis_idempotence_check(0, 0, 0, 0, OrderingSpec(0.5), grid64)
        assert r < 1e-6

    def test_index_mismatch_annihilates(self, grid64):
        r = basis_idempotence_check(0, 1, 1, 1, OrderingSpec(0.5), grid64)
        assert r < 1e-6

    def test_index_chain(self, grid64):
        r = basis_idempotence_check(0, 1, 1, 0, OrderingSpec(0.5), grid64)
        assert r < 1e-6

    def test_smoothed_spec(self, grid64):
        spec = OrderingSpec(0.4, GaussianSmoother(0.08, 0.05))
        assert basis_idempotence_check(1, 2, 2, 1, spec, grid64) < 1e-6

    def test_overlap_composition(self, grid64, rng):
        # Psi1 * Psi2 = (2 pi hbar)^{-1/2} <phi1|psi2> (phi2* tensor psi1)
        spec = OrderingSpec(0.5)
        phi1, psi1, phi2, psi2 = (random_wavefunction(grid64, rng)
                                  for _ in range(4))
        s1 = twisted_tensor(phi1, psi1, spec)
        s2 = twisted_tensor(phi2, psi2, spec)
        prod = star_sigma_S(s1.psi_field, s2.psi_field, spec)
        cross = twisted_tensor(phi2, psi1, spec)
        want = cross.psi_field * (phi1.inner(psi2) / np.sqrt(TWO_PI * grid64.hbar))
        assert l2_norm(prod - want) / l2_norm(prod) < 1e-6


class TestFactorization:
    def test_reconstructs_pure_state(self, grid64, grid128, rng):
        spec = OrderingSpec(0.3, GaussianSmoother(0.1, 0.1))
        phi = random_wavefunction(grid64, rng, nmax=4)
        state = twisted_tensor(phi, phi, spec)
        phi_r, psi_r = pure_factorization(state)
        rebuilt = twisted_tensor(phi_r, psi_r, spec)
        assert l2_norm(rebuilt.psi_field - state.psi_field) < 1e-5
        # the default CLI grid (128^2 on [-8, 8])
        spec = OrderingSpec(0.5)
        state = twisted_tensor(hermite_function(grid128, 1), hermite_function(grid128, 2), spec)
        phi_r, psi_r = pure_factorization(state)
        rebuilt = twisted_tensor(phi_r, psi_r, spec)
        assert l2_norm(rebuilt.psi_field - state.psi_field) < 1e-5
        # a displaced packet lies outside any low Hermite span; the kernel
        # holds it all the same
        packet = coherent_wavepacket(CoherentParams(3.0, 1.0), grid128)
        state = twisted_tensor(packet, packet, spec)
        phi_r, psi_r = pure_factorization(state)
        rebuilt = twisted_tensor(phi_r, psi_r, spec)
        assert l2_norm(rebuilt.psi_field - state.psi_field) < 1e-5

    def test_zero_field_has_no_rank_one_component(self, grid64):
        zero = QuasiDistribution(PhaseField(grid64, np.zeros((64, 64), dtype=complex)),
                                 OrderingSpec(0.5))
        with pytest.raises(PSQError, match="no rank-one component"):
            pure_factorization(zero)

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5, 1.0])
    def test_kernel_inverts_twisted_tensor(self, grid128, sigma):
        h1, h2 = hermite_function(grid128, 1), hermite_function(grid128, 2)
        want = np.outer(np.conj(h1.values), h2.values)
        for spec in (OrderingSpec(sigma), OrderingSpec(sigma, GaussianSmoother(0.1, 0.1))):
            got = _kernel(twisted_tensor(h1, h2, spec))
            assert np.abs(got - want).max() < 1e-8 * np.abs(want).max()

    def test_kernel_past_the_shift_half_period(self, grid64):
        # on 64^2 [-8, 8] the shift lattice's half period (4 pi) is shorter than
        # the span: wider separations were never sampled and read zero, not the
        # periodic image of the cat's coherence at separation 8
        lobes = [coherent_wavepacket(CoherentParams(c, 0.0, 4.0), grid64).values
                 for c in (-4.0, 4.0)]
        cat = WaveFunction(grid64, sum(lobes)).normalized()
        got = _kernel(twisted_tensor(cat, cat, OrderingSpec(0.5)))
        want = np.outer(np.conj(cat.values), cat.values)
        assert np.abs(got - want).max() < 1e-4 * np.abs(want).max()

    def test_kernel_is_ordering_free(self, grid64):
        # the tensor-product theorem: one pair is one kernel, whatever (sigma, S)
        # builds its quasi-distribution
        phi = hermite_function(grid64, 2)
        psi = coherent_wavepacket(CoherentParams(1.0, 0.5), grid64)
        specs = [OrderingSpec(s) for s in (0.0, 0.37, 1.0)]
        specs.append(OrderingSpec(0.5, GaussianSmoother(0.1, 0.1)))
        first, *rest = (_kernel(twisted_tensor(phi, psi, spec)) for spec in specs)
        for got in rest:
            assert np.abs(got - first).max() < 1e-8 * np.abs(first).max()


class TestKernelMap:
    """_from_kernel inverts _kernel, on rank-one and full-rank kernels."""

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_round_trip(self, n):
        grid = make_grid(n, n, -8.0, 8.0, -8.0, 8.0, 1.0)
        h1, h2 = hermite_function(grid, 1), hermite_function(grid, 2)
        for sigma in (0.0, 0.3, 0.5, 1.0):
            state = twisted_tensor(h1, h2, OrderingSpec(sigma))
            got = _from_kernel(_kernel(state), sigma, grid)
            psi = state.psi_field.values
            assert np.linalg.norm(got - psi) <= 1e-12 * np.linalg.norm(psi)

    def test_round_trip_reads_zero_past_the_span(self, grid128):
        # the cat's coherence K(4, -4) sits one span from K(4, 12); a kernel
        # row read past the span must give zero, not that periodic image
        lobes = [coherent_wavepacket(CoherentParams(c, 0.0, 4.0), grid128).values
                 for c in (-4.0, 4.0)]
        cat = WaveFunction(grid128, sum(lobes)).normalized()
        state = twisted_tensor(cat, cat, OrderingSpec(0.0))
        got = _from_kernel(_kernel(state), 0.0, grid128)
        psi = state.psi_field.values
        assert np.linalg.norm(got - psi) <= 1e-8 * np.linalg.norm(psi)

    def test_thermal_kernel_closed_form(self, grid128):
        # rho = (1 - e^-beta) sum_n e^{-n beta} |n><n| over 40 levels maps to
        # (1/pi hbar) tanh(beta hbar omega/2) exp(-tanh(beta hbar omega/2)(x^2 + p^2)/hbar)
        beta, hbar = 2.0, grid128.hbar
        phis = np.array([hermite_function(grid128, n).values for n in range(40)])
        weights = (1 - np.exp(-beta)) * np.exp(-beta * np.arange(40))
        K = (np.conj(phis).T * weights) @ phis
        wigner = _from_kernel(K, 0.5, grid128) / np.sqrt(TWO_PI * hbar)
        X, P = grid128.meshes()
        t = np.tanh(beta * hbar / 2)
        want = t / (np.pi * hbar) * np.exp(-t * (X ** 2 + P ** 2) / hbar)
        assert np.abs(wigner - want).max() <= 1e-12 * want.max()

    def test_pair_map_matches_outer_product_kernel(self, grid64):
        # twisted_tensor's rank-one map against the kernel route on conj(phi) (x) psi
        phi = hermite_function(grid64, 2)
        psi = coherent_wavepacket(CoherentParams(1.0, 0.5), grid64)
        K = np.outer(np.conj(phi.values), psi.values)
        for sigma in (0.0, 0.37, 1.0):
            got = twisted_tensor(phi, psi, OrderingSpec(sigma)).psi_field.values
            want = _from_kernel(K, sigma, grid64)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_kernel_product_keeps_guard_flags(self, grid64):
        # the S^-1 pullback clamps; the operand carries a tail-mass flag
        spec = OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))
        h1 = hermite_function(grid64, 1)
        field = twisted_tensor(h1, h1, spec).psi_field
        flagged = PhaseField(grid64, field.values, {"tail_mass_warning": 2e-9})
        pulled = apply_smoother(spec, flagged, "inverse")
        assert pulled.meta["deconvolution_clamped"] > 0
        # the product takes the kernel route and keeps both flags
        assert _to_kernel(pulled.values, 0.5, grid64)[1] <= _KERNEL_SPAN_MASS
        assert star_sigma_S(flagged, flagged, spec).meta == pulled.meta


class TestKernelTwins:
    """Each state-space quantity has a second route through the kernel K of
    the state, on a 0.6 coherent (1, 0.5) + 0.4 Hermite-2 mixture at 128^2."""

    @staticmethod
    def _mixture(grid, sigma, smoother=IdentitySmoother()):
        spec = OrderingSpec(sigma, smoother)
        coh = coherent_wavepacket(CoherentParams(1.0, 0.5), grid)
        h2 = hermite_function(grid, 2)
        return MixedState(((0.6, twisted_tensor(coh, coh, spec)),
                           (0.4, twisted_tensor(h2, h2, spec))))

    @pytest.mark.parametrize("sigma", [0.0, 0.37])
    def test_x_marginal_is_the_kernel_diagonal(self, grid128, sigma):
        state = self._mixture(grid128, sigma)
        _x, dens = marginal(state, "x")
        diag = np.diag(_kernel(state))
        assert np.abs(diag - dens).max() <= 1e-12 * dens.max()

    @staticmethod
    def _pure(grid, spec):
        phi = random_wavefunction(grid, np.random.default_rng(7))
        return twisted_tensor(phi, phi, spec)

    @pytest.mark.parametrize("smoother", [IdentitySmoother(), GaussianSmoother(0.1, 0.1)])
    @pytest.mark.parametrize("sigma", [0.0, 0.37])
    def test_hilbert_norm_is_dx_times_kernel_norm(self, grid128, sigma, smoother):
        """||S^-1 Psi||_2 = dx ||K||_F.

        S^-1 Psi(x, p) = (2 pi hbar)^{-1/2} int dy e^{-i p y/hbar} K(x - sigmabar y,
        x + sigma y), so by Plancherel in y -> p, ||S^-1 Psi||^2 =
        iint |K(x - sigmabar y, x + sigma y)|^2 dx dy, and (x, y) -> (u, v) =
        (x - sigmabar y, x + sigma y) has Jacobian sigma + sigmabar = 1: the
        integral is iint |K(u, v)|^2 du dv = ||K||_HS^2 for every sigma.  On
        the lattice that double integral is dx^2 sum |K[i, k]|^2, so the
        constant is dx; by linearity it holds for mixtures too."""
        spec = OrderingSpec(sigma, smoother)
        for state in (self._pure(grid128, spec), self._mixture(grid128, sigma, smoother)):
            twin = grid128.dx * np.linalg.norm(_kernel(state))
            assert abs(twin - state.norm_h()) <= 1e-12 * state.norm_h()

    @pytest.mark.parametrize("sigma", [0.0, 0.37])
    def test_idempotence_residual_is_the_kernel_residual(self, grid128, sigma):
        """purity_check's r_idem = ||K K dx - K||_F / (sqrt(2 pi hbar) ||K||_F).

        K[Psi * Psi] = (2 pi hbar)^{-1/2} dx K K (star_sigma), K is linear, and
        a field's norm is dx times its kernel's Frobenius norm (the twin above),
        so ||Psi * Psi - Psi/sqrt(2 pi hbar)|| / ||Psi|| is the kernel
        residual over sqrt(2 pi hbar) ||K||_F.  Under a Gaussian smoother
        purity_check measures the residual after S, which does not keep norms,
        so the twin is the identity smoother's."""
        scale = np.sqrt(TWO_PI * grid128.hbar)
        # the pure state's residuals are round-off, about 1e-11; the mixture's 0.16
        for state, tol in ((self._pure(grid128, OrderingSpec(sigma)), 1e-11),
                           (self._mixture(grid128, sigma), 1e-12)):
            K = _kernel(state)
            twin = np.linalg.norm(K @ K * grid128.dx - K) / (scale * np.linalg.norm(K))
            assert abs(twin - purity_check(state)[1][1]) <= tol

    @pytest.mark.parametrize("sigma", [0.0, 0.37])
    def test_expectation_is_dx_sum_of_matrix_times_kernel(self, grid128, sigma):
        state = self._mixture(grid128, sigma)
        K = _kernel(state)
        x, p = PolyH.x(), PolyH.p()
        # the sigma-symbol of xp + px is x star p + p star x
        for poly in (x, p * p, pstar(x, p, sigma) + pstar(p, x, sigma)):
            A = ObservableSpec.from_poly(poly)
            twin = grid128.dx * np.sum(operator_matrix(A, state.spec, grid128) * K)
            want = expectation(A, state)
            assert abs(twin - want) <= 1e-10 * abs(want)


class TestMixedState:
    def test_weight_validation(self, grid64):
        phi = hermite_function(grid64, 0)
        state = twisted_tensor(phi, phi, OrderingSpec(0.5))
        with pytest.raises(PSQError, match="sum to 1"):
            MixedState(((0.6, state), (0.6, state)))
        with pytest.raises(PSQError, match="lie in"):
            MixedState(((1.5, state), (-0.5, state)))
        # every component must carry the same ordering
        smoothed = twisted_tensor(phi, phi, OrderingSpec(0.5, GaussianSmoother(0.3, 0.3)))
        excited = hermite_function(grid64, 1)
        with pytest.raises(PSQError, match="one ordering"):
            MixedState(((0.5, smoothed),
                        (0.5, twisted_tensor(excited, excited, OrderingSpec(0.5)))))
        # the Gaussian smoother at alpha = beta = 0 is the identity ordering
        zero = OrderingSpec(0.5, GaussianSmoother(0.0, 0.0))
        assert zero == OrderingSpec(0.5)
        mix = MixedState(((0.5, state), (0.5, twisted_tensor(phi, phi, zero))))
        assert np.array_equal(mix.psi_field.values, state.psi_field.values)


class TestStateIO:
    def test_roundtrip_with_sidecar(self, grid64, tmp_path, rng):
        spec = OrderingSpec(0.3, GaussianSmoother(0.05, 0.02))
        phi = random_wavefunction(grid64, rng)
        state = twisted_tensor(phi, phi, spec)
        path = tmp_path / "state.psqf"
        write_state(state, path)
        assert (tmp_path / "state.psqf.json").exists()
        back = read_state(path)
        assert np.array_equal(back.psi_field.values, state.psi_field.values)
        assert back.spec.sigma == spec.sigma
        assert back.spec.smoother.alpha == 0.05
        # a mixture is written and read like any state
        mix = MixedState(((0.25, state),
                          (0.75, twisted_tensor(phi.conj(), phi.conj(), spec))))
        write_state(mix, path)
        back = read_state(path)
        assert np.array_equal(back.psi_field.values, mix.psi_field.values)
        assert back.spec == spec

    def test_rejects_malformed_sidecar(self, grid64, tmp_path):
        phi = hermite_function(grid64, 0)
        path = tmp_path / "state.psqf"
        write_state(twisted_tensor(phi, phi, OrderingSpec(0.5)), path)
        sidecar = tmp_path / "state.psqf.json"
        # not objects, a sigma that is no number, and an infinite alpha
        for text in ('{"smoother": 5}', '[]', '{"sigma": "x"}', '{"sigma": null}',
                     '{"smoother": {"kind": "gaussian", "alpha": Infinity, "beta": 0.1}}',
                     # sigma and alpha outside the config schema's bounds
                     '{"sigma": 1e300}', '{"sigma": 5.5}',
                     '{"smoother": {"kind": "gaussian", "alpha": 1e300, "beta": 0.1}}',
                     # NaN passes a schema's bounds
                     '{"smoother": {"kind": "gaussian", "alpha": NaN, "beta": 0.1}}'):
            sidecar.write_text(text)
            with pytest.raises(PSQError):
                read_state(path)

    def test_write_refuses_unreadable_ordering(self, grid64, tmp_path):
        # orderings read_state would refuse raise before any file is written
        field = twisted_tensor(hermite_function(grid64, 0), hermite_function(grid64, 0),
                               OrderingSpec(0.5)).psi_field
        cohen = CohenSmoother(lambda xi, eta: np.exp(0.05 * (xi ** 2 + eta ** 2)))
        for spec in (OrderingSpec(0.5, cohen),
                     OrderingSpec(0.5, WordSmoother(DiffOpWord.gaussian(0.1, 0.1))),
                     OrderingSpec(7.0)):
            with pytest.raises(PSQError):
                write_state(QuasiDistribution(field, spec), tmp_path / "state.psqf")
            assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("axis", ["q", "P", ""])
def test_marginal_rejects_unknown_axis(grid64, axis):
    phi = hermite_function(grid64, 0)
    with pytest.raises(PSQError, match="axis must be"):
        marginal(twisted_tensor(phi, phi, OrderingSpec(0.5)), axis)
