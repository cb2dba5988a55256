import numpy as np
import pytest
import scipy.fft as sp_fft
from hypothesis import given, settings
from hypothesis import strategies as st

from psq import (CohenSmoother, GaussianSmoother, IdentitySmoother,
                 IllPosedSmoothingError, ObservableSpec, OrderingSpec, PSQError,
                 PhaseField, PolyH, UnsupportedObservableError, WordSmoother,
                 apply_smoother, bopp_apply, fourier_partial, gauge_transform, integrate,
                 involution_dagger, l2_inner, l2_norm, make_grid, moyal_bracket,
                 operator_matrix, pstar, star_commutator, star_sigma,
                 star_sigma_S, twisted_tensor)
from psq.grids import (SpectralField, fourier_full, fourier_full_inverse,
                       spectral_derivatives)
from psq.polyalg import DiffOpWord
from psq.starprod import (_KERNEL_SPAN_MASS, _bopp_series, _bopp_shifts, _to_kernel,
                          _twisted_convolution)
from psq.states import QuasiDistribution, hermite_function

from conftest import dense_star_oracle, gaussian_mixture, plateau_window

TWO_PI = 2 * np.pi


def moyal_ground(grid):
    X, P = grid.meshes()
    return PhaseField(grid, (2 / np.sqrt(TWO_PI * grid.hbar))
                      * np.exp(-(X ** 2 + P ** 2) / grid.hbar))


class TestStarSigma:
    def test_star_with_unit(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        one = PhaseField.constant(grid64)
        assert l2_norm(star_sigma(f, one, 0.3) - f) / l2_norm(f) < 1e-13
        assert l2_norm(star_sigma(one, f, 0.3) - f) / l2_norm(f) < 1e-13

    def test_ground_distribution_idempotence(self, grid64):
        # rho0 = Psi00 / sqrt(2 pi hbar): rho0 * rho0 = rho0 / (2 pi hbar)
        hbar = grid64.hbar
        rho0 = moyal_ground(grid64) * (1 / np.sqrt(TWO_PI * hbar))
        prod = star_sigma(rho0, rho0, 0.5)
        err = np.abs(prod.values - rho0.values / (TWO_PI * hbar)).max()
        assert err < 1e-7

    def test_coordinate_product_symbolic_oracle(self):
        # x *_s p = x p + i hbar sigma, p *_s x = x p - i hbar sigmabar:
        # exact at the symbolic layer, which is the stated oracle
        s = 0.3
        assert pstar(PolyH.x(), PolyH.p(), s) \
            == PolyH.monomial(1, 1) + PolyH.monomial(0, 0, 1, 1j * s)

    def test_coordinate_product_on_state(self, grid64):
        # the grid-level counterpart within the tail-mass contract:
        # (x *_s (p *_s Psi)) - (p *_s (x *_s Psi)) = i hbar Psi
        X, P = grid64.meshes()
        psi = PhaseField(grid64, np.exp(-((X - 1) ** 2 + (P + 0.5) ** 2)))
        spec = OrderingSpec(0.3)
        xo, po = ObservableSpec.position(), ObservableSpec.momentum()
        com = bopp_apply(xo, bopp_apply(po, psi, "left", spec), "left", spec) \
            - bopp_apply(po, bopp_apply(xo, psi, "left", spec), "left", spec)
        assert l2_norm(com - psi * (1j * grid64.hbar)) / l2_norm(psi) < 1e-9

    def test_against_dense_quadrature(self, grid64):
        # independent brute-force quadrature of the integral form at 3x
        # resolution, analytic Gaussians on both slots
        hbar = grid64.hbar
        s = 0.3
        X, P = grid64.meshes()
        a, b = 1.0, 0.8

        def f_fn(x, p):
            return np.exp(-(a * x ** 2 + b * p ** 2) / (2 * hbar))

        def f_fourier(xi, eta):
            return (1 / np.sqrt(a * b)) * np.exp(-(xi ** 2 / a + eta ** 2 / b)
                                                 / (2 * hbar))

        def g_fn(x, p):
            return np.exp(-((x - 0.5) ** 2 + (p + 0.3) ** 2) / (2 * hbar))

        prod = star_sigma(PhaseField(grid64, f_fn(X, P)),
                          PhaseField(grid64, g_fn(X, P)), s)
        # evaluation points must sit on the 0.25-spaced lattice
        pts = [(0.0, 0.0), (0.5, -0.25), (1.0, 1.0), (-0.75, 0.25), (0.25, 0.75)]
        oracle = dense_star_oracle(f_fourier, g_fn, pts, s, hbar,
                                   xi_max=24.0, eta_max=24.0, n_quad=192 * 2)
        for (x, p), want in zip(pts, oracle):
            j = int(round((x - grid64.x_min) / grid64.dx))
            k = int(round((p - grid64.p_min) / grid64.dp))
            assert abs(prod.values[j, k] - want) < 1e-7

    def test_tail_mass_warning_and_flag(self, grid64):
        X, P = grid64.meshes()
        raw_x = PhaseField(grid64, X.astype(complex))
        state = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2)))
        with pytest.warns(UserWarning, match="tail mass"):
            out = star_sigma(raw_x, state, 0.5)
        assert out.meta.get("tail_mass_warning", 0.0) > 0
        # the flag survives the field arithmetic of brackets
        with pytest.warns(UserWarning, match="tail mass"):
            com = star_commutator(raw_x, state, OrderingSpec(0.5))
            bracket = moyal_bracket(raw_x, state, OrderingSpec(0.5))
        for derived in (com, bracket):
            assert derived.meta["tail_mass_warning"] == out.meta["tail_mass_warning"]
        # the smoothed product keeps the flag of its own inverse smoothing,
        # and Bopp actions keep their operand's flags on both routes
        spec = OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))
        h1 = hermite_function(grid64, 1)
        wig = twisted_tensor(h1, h1, spec).psi_field
        pulled = apply_smoother(spec, wig, "inverse")
        clamped = pulled.meta["deconvolution_clamped"]
        assert star_sigma_S(wig, wig, spec).meta["deconvolution_clamped"] == clamped
        for bopp_spec in (OrderingSpec(0.5), spec):
            acted = bopp_apply(ObservableSpec.harmonic(1.0), pulled, "right", bopp_spec)
            assert acted.meta["deconvolution_clamped"] == clamped
        # smoothers, gauge maps, the involution, the smoothed product and
        # partial transforms keep the flags of a localized operand
        flagged = PhaseField(grid64, state.values, out.meta)
        for kept in (apply_smoother(spec, flagged, "forward"),
                     gauge_transform(flagged, 0.2, 0.7),
                     involution_dagger(flagged, OrderingSpec(0.3)),
                     involution_dagger(flagged, spec),
                     star_sigma_S(flagged, flagged, spec),
                     fourier_partial(flagged, "p", "inverse")):
            assert kept.meta["tail_mass_warning"] == out.meta["tail_mass_warning"]


def full_band_convolution(Ff, Fg, xi, eta, sigma, hbar):
    """The twisted convolution with every row of every block formed: the
    oracle for the banded loop, zero rows included."""
    nx, npn = Ff.shape
    sb = 1.0 - sigma
    dxi = xi[1] - xi[0]
    deta = eta[1] - eta[0]
    # rows padded so that the xi-shifted block lookup never leaves bounds,
    # eta-padded so the linear convolution index stays in range
    rows = np.zeros((3 * nx, 2 * npn), dtype=complex)
    rows[nx:2 * nx, npn // 2: npn // 2 + npn] = Fg
    B = np.exp(-1j * sb * np.outer(xi, eta) / hbar)          # (m, l')
    out = np.zeros((nx, npn), dtype=complex)
    L = sp_fft.next_fast_len(3 * npn - 1)
    for mp in range(nx):
        A = Ff[mp, :] * np.exp(1j * (sb - sigma) * xi[mp] * eta / hbar)
        D = A[None, :] * B                                    # (m, l')
        blk = rows[nx + nx // 2 - mp: 2 * nx + nx // 2 - mp]  # (m, 2 npn)
        conv = sp_fft.ifft(sp_fft.fft(D, L, axis=1) * sp_fft.fft(blk, L, axis=1),
                           axis=1)[:, npn:2 * npn]
        out += np.exp(1j * sigma * xi[mp] * eta / hbar)[None, :] * conv
    out *= dxi * deta / (2.0 * np.pi * hbar)
    return out


class TestTwistedConvolutionBand:
    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (16, 32)])
    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_bit_identical_to_full_band(self, rng, shape, sigma):
        # full-lattice operands: every skipped row would pair a nonzero Ff row
        # with an off-lattice Fg row
        g = make_grid(*shape, -4, 4, -3, 3, 0.8)
        Ff, Fg = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        got = _twisted_convolution(Ff, Fg, g.xi, g.eta, sigma, g.hbar)
        assert np.array_equal(got, full_band_convolution(Ff, Fg, g.xi, g.eta, sigma, g.hbar))



def convolution_route(f, g2, sigma):
    """star_sigma through the twisted convolution alone."""
    grid = f.grid
    spect = _twisted_convolution(fourier_full(f).values, fourier_full(g2).values,
                                 grid.xi, grid.eta, sigma, grid.hbar)
    return fourier_full_inverse(SpectralField(grid, spect))


class TestKernelRoute:
    """star_sigma composes kernels where they hold both operands."""

    @pytest.mark.parametrize("smoothed", [False, True], ids=["identity", "gaussian"])
    @pytest.mark.parametrize("sigma", [0.0, 0.37, 0.5, 1.0])
    def test_agrees_with_convolution(self, grid128, sigma, smoothed):
        # the kernels drop a share sqrt(m) of each operand (m its out-of-span
        # mass), on top of the convolution's own rounding
        spec = OrderingSpec(sigma, GaussianSmoother(0.1, 0.1) if smoothed else IdentitySmoother())
        h = [hermite_function(grid128, n) for n in range(4)]
        bound_const = 1 / np.sqrt(TWO_PI * grid128.hbar)
        for (i, j), (k, l) in (((2, 2), (2, 2)), ((1, 3), (3, 1)), ((0, 1), (2, 3))):
            f, g2 = (apply_smoother(spec, twisted_tensor(h[a], h[b], spec).psi_field, "inverse")
                     for a, b in ((i, j), (k, l)))
            masses = [_to_kernel(op.values, sigma, grid128)[1] for op in (f, g2)]
            assert max(masses) <= _KERNEL_SPAN_MASS
            diff = l2_norm(star_sigma(f, g2, sigma) - convolution_route(f, g2, sigma))
            bound = (np.sqrt(masses).sum() + 1e-12) * bound_const * l2_norm(f) * l2_norm(g2)
            assert diff <= bound

    def test_refused_operands_take_the_convolution(self, grid64, rng):
        # a Gaussian mixture spills past the span at sigma = 0
        f, g2 = gaussian_mixture(grid64, rng), gaussian_mixture(grid64, rng)
        assert _to_kernel(f.values, 0.0, grid64)[1] > _KERNEL_SPAN_MASS
        want = convolution_route(f, g2, 0.0)
        assert np.array_equal(star_sigma(f, g2, 0.0).values, want.values)
        # on 32^2 [-8, 8] the x lattice's Nyquist momentum pi hbar / dx lies
        # inside the p span (dx > deta), so no kernel holds a field's outer
        # momenta, whatever its out-of-span mass
        coarse = make_grid(32, 32, -8.0, 8.0, -8.0, 8.0, 1.0)
        psi = moyal_ground(coarse)
        assert coarse.dx > coarse.deta
        assert _to_kernel(psi.values, 0.5, coarse)[1] <= _KERNEL_SPAN_MASS
        want = convolution_route(psi, psi, 0.5)
        assert np.array_equal(star_sigma(psi, psi, 0.5).values, want.values)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_aliased_kernels_take_the_convolution(self, sigma):
        # f sits well inside both lattices, and its out-of-span mass is ~1e-18,
        # but its kernel momentum (p + sigmabar xi at sigma = 0, p - sigma xi at
        # sigma = 1) is about 14, past the x lattice's Nyquist 4 pi
        grid = make_grid(128, 64, -16.0, 16.0, -8.0, 8.0, 1.0)
        X, P = grid.meshes()
        g2 = PhaseField(grid, np.exp(-(0.2 * X ** 2 + 2.0 * (P - 4.5) ** 2)))
        f = PhaseField(grid, g2.values * np.exp(1j * (1 - 2 * sigma) * 9.5 * X))
        assert grid.dx <= grid.deta
        assert _to_kernel(g2.values, sigma, grid)[1] <= _KERNEL_SPAN_MASS
        assert _to_kernel(f.values, sigma, grid)[1] > 0.9
        want = convolution_route(f, g2, sigma)
        assert np.array_equal(star_sigma(f, g2, sigma).values, want.values)


def _gaussian_direct_product(poly, field, side, sigma, alpha, beta, hbar):
    """Polynomial symbol times field under the Gaussian-smoothed product.

    The smoothed product of a polynomial with anything is the finite
    bidirectional series

        A * g = sum (i hbar s)^a (-i hbar sb)^b (hbar alpha)^c (hbar beta)^d
                / (a! b! c! d!)
                (dx^{a+c} dp^{b+d} A) (dx^{b+c} dp^{a+d} g),

    with the symbol derivatives exact and the field derivatives spectral;
    no deconvolution appears, unlike the pull-back/push-forward sandwich.
    The right action swaps which factor the arrows hit.
    """
    from math import factorial
    g = field.grid
    X, P = g.meshes()
    degx = max((n for (n, _m, _k) in poly.terms), default=0)
    degp = max((m for (_n, m, _k) in poly.terms), default=0)
    # coefficient factors: left multiplication carries (+i hbar sigma) on the
    # (symbol d_x, field d_p) pairing; the right action is the mirror image
    ca = 1j * hbar * sigma if side == "left" else -1j * hbar * (1.0 - sigma)
    cb = -1j * hbar * (1.0 - sigma) if side == "left" else 1j * hbar * sigma
    terms = []
    for a in range(degx + 1):
        for c in range(degx + 1 - a):
            d_sym_x = poly.diff_x(a + c)
            if d_sym_x.is_zero():
                continue
            for b in range(degp + 1):
                for d in range(degp + 1 - b):
                    d_sym = d_sym_x.diff_p(b + d)
                    if d_sym.is_zero():
                        continue
                    coeff = (ca ** a) * (cb ** b) \
                        * ((hbar * alpha) ** c) * ((hbar * beta) ** d) \
                        / (factorial(a) * factorial(b)
                           * factorial(c) * factorial(d))
                    if coeff != 0:
                        terms.append((coeff, d_sym, (b + c, a + d)))
    derivs = spectral_derivatives(field, [order for _c, _d, order in terms])
    out = np.zeros((g.nx, g.np), dtype=complex)
    for coeff, d_sym, order in terms:
        out += coeff * d_sym.evaluate(X, P, hbar) * derivs[order]
    return PhaseField(g, out, field.meta)


SERIES_SYMBOLS = (
    PolyH.monomial(4, 0),
    PolyH.monomial(3, 2),
    PolyH.monomial(1, 1),
    PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25)
    - PolyH.monomial(3, 2, c=0.3) + PolyH.monomial(1, 1, c=2.0 - 0.5j),
)


class TestBoppSeries:
    """The two-index series in the Bopp shifts against the four-index
    expansion it replaced, kept above verbatim as the reference."""

    @pytest.mark.parametrize("alpha, beta", [(0.1, 0.1), (0.3, 0.0), (0.0, 0.3)])
    @pytest.mark.parametrize("sigma", [0.0, 0.37, 0.5, 1.0])
    def test_matches_four_index_series(self, rng, sigma, alpha, beta):
        spec = OrderingSpec(sigma, GaussianSmoother(alpha, beta))
        for n in (32, 64):
            g = make_grid(n, n, -8.0, 8.0, -8.0, 8.0, 1.0)
            field = gaussian_mixture(g, rng)
            for side in ("left", "right"):
                m_x, m_p = _bopp_shifts(spec, side, g)
                for poly in SERIES_SYMBOLS:
                    want = _gaussian_direct_product(poly, field, side, sigma,
                                                    alpha, beta, g.hbar).values
                    got = _bopp_series(poly, field, m_x, m_p).values
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestBoppApply:
    def test_harmonic_on_ground_state(self, grid64):
        # H * Psi00 = (hbar omega / 2) Psi00 at the Moyal point
        psi00 = moyal_ground(grid64)
        H = ObservableSpec.harmonic(1.0)
        out = bopp_apply(H, psi00, "left", OrderingSpec(0.5))
        assert l2_norm(out - psi00 * 0.5) / l2_norm(psi00) < 1e-7

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.5, 1.0])
    def test_position_action_analytic(self, grid64, sigma):
        # x *_s f = x f + i hbar s d_p f, one exact term for linear symbols
        hbar = grid64.hbar
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-((X - 1) ** 2 + (P + 0.5) ** 2) / hbar)
                       * np.exp(0.2j * X))
        got = bopp_apply(ObservableSpec.position(), f, "left", OrderingSpec(sigma))
        dp_f = (-2 * (P + 0.5) / hbar) * f.values
        want = X * f.values + 1j * hbar * sigma * dp_f
        assert np.abs(got.values - want).max() < 1e-11

    @pytest.mark.filterwarnings("ignore:star product operand")
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_cross_path_with_star_sigma(self, grid64, side):
        # on the supported symbol class both routes agree to rounding:
        # x-only and p-only profiles are spectrally exact as fields (single
        # on-lattice mode along the constant direction, decaying in the
        # other), so the generic tail-mass warning is a false positive here
        X, P = grid64.meshes()
        state = PhaseField(grid64, np.exp(-((X - 0.5) ** 2 + P ** 2))
                           * np.exp(0.3j * P))
        s = 0.3

        def vfn(x):
            return np.exp(-0.5 * np.asarray(x) ** 2)

        def tfn(p):
            return np.exp(-0.3 * np.asarray(p) ** 2) * np.cos(p)

        vfield = PhaseField(grid64,
                            np.broadcast_to(vfn(grid64.x)[:, None],
                                            state.values.shape).copy())
        tfield = PhaseField(grid64,
                            np.broadcast_to(tfn(grid64.p)[None, :],
                                            state.values.shape).copy())
        for obs, field in ((ObservableSpec.x_function(vfn), vfield),
                           (ObservableSpec.p_function(tfn), tfield)):
            via_bopp = bopp_apply(obs, state, side, OrderingSpec(s))
            if side == "left":
                via_star = star_sigma(field, state, s)
            else:
                via_star = star_sigma(state, field, s)
            assert np.abs(via_star.values - via_bopp.values).max() < 1e-9

    @pytest.mark.filterwarnings("ignore:star product operand")
    def test_windowed_coordinate_cross_path_core(self, grid64):
        # an unbounded coordinate symbol must be windowed to enter the star
        # route; agreement is then limited by the product's nonlocal reach
        # (Gaussian in the distance to the roll-off), checked at the center
        X, P = grid64.meshes()
        W = plateau_window(grid64, edge=5.5, width=0.8)
        xw = PhaseField(grid64, X * W)
        state = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2) / grid64.hbar))
        s = 0.3
        via_star = star_sigma(xw, state, s)
        via_bopp = bopp_apply(ObservableSpec.position(), state, "left",
                              OrderingSpec(s))
        c = grid64.nx // 2
        assert abs(via_star.values[c, c] - via_bopp.values[c, c]) < 1e-10
        sl = slice(c - 8, c + 8)
        assert np.abs(via_star.values[sl, sl] - via_bopp.values[sl, sl]).max() < 1e-4

    def test_p_squared_against_dense_quadrature(self, grid64):
        hbar = grid64.hbar
        s = 0.4
        X, P = grid64.meshes()
        gst = PhaseField(grid64, np.exp(-((X - 0.3) ** 2 + P ** 2) / (2 * hbar)))
        got = bopp_apply(ObservableSpec.from_poly(PolyH.monomial(0, 2), "p2"),
                         gst, "left", OrderingSpec(s))
        # p^2 * g analytically: (p - i hbar sb d_x)^2 g
        sb = 1 - s
        gx = (-(X - 0.3) / hbar) * gst.values
        gxx = ((X - 0.3) ** 2 / hbar ** 2 - 1 / hbar) * gst.values
        want = P ** 2 * gst.values - 2j * hbar * sb * P * gx \
            - hbar ** 2 * sb ** 2 * gxx
        assert np.abs(got.values - want).max() < 1e-10

    def test_right_action_mirror(self, grid64):
        # f * p = p f - i hbar sigma... via the conjugation identity instead:
        # psi *_s x = x psi - i hbar sigmabar d_p psi
        hbar = grid64.hbar
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2) / hbar))
        s = 0.3
        got = bopp_apply(ObservableSpec.position(), f, "right", OrderingSpec(s))
        dp_f = (-2 * P / hbar) * f.values
        want = X * f.values - 1j * hbar * (1 - s) * dp_f
        assert np.abs(got.values - want).max() < 1e-11

    def test_callable_terms(self, grid64):
        # x-only function term: cos(kx) acts through the exact shift identity
        # e^{(i/hbar) xi qhat} Psi = e^{i xi x/hbar} Psi(x, p - sigma xi),
        # so cos(kx) * Psi = (e^{ikx} Psi(x, p - s k hbar)
        #                     + e^{-ikx} Psi(x, p + s k hbar)) / 2
        hbar = grid64.hbar
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2) / hbar))
        k, s = 0.5, 0.5
        A = ObservableSpec.x_function(lambda x: np.cos(k * x))
        got = bopp_apply(A, f, "left", OrderingSpec(s))
        gplus = np.exp(-(X ** 2 + (P - s * k * hbar) ** 2) / hbar)
        gminus = np.exp(-(X ** 2 + (P + s * k * hbar) ** 2) / hbar)
        want = 0.5 * (np.exp(1j * k * X) * gplus + np.exp(-1j * k * X) * gminus)
        assert np.abs(got.values - want).max() < 1e-10

    def test_callable_with_smoother_rejected(self, grid64):
        f = PhaseField.constant(grid64)
        A = ObservableSpec.x_function(lambda x: x ** 2)
        spec = OrderingSpec(0.5, GaussianSmoother(0.1, 0.0))
        with pytest.raises(UnsupportedObservableError):
            bopp_apply(A, f, "left", spec)
        # the operator matrix refuses the same input instead of applying the
        # function term unsmoothed
        mixed = ObservableSpec.x_function(np.cos) + ObservableSpec.harmonic(1.0)
        with pytest.raises(UnsupportedObservableError):
            operator_matrix(mixed, OrderingSpec(0.4, GaussianSmoother(0.1, 0.2)), grid64)


class TestObservableSampling:
    def test_sample_combines_terms(self, grid64):
        A = ObservableSpec((("x", lambda x: np.cos(x)),
                            ("p", lambda p: p ** 2),
                            ("poly", PolyH.monomial(1, 1, c=0.5))))
        X, P = grid64.meshes()
        got = A.sample(grid64)
        want = np.cos(X) + P ** 2 + 0.5 * X * P
        assert np.abs(got.values - want).max() < 1e-12

    def test_as_poly_rejects_callables(self, grid64):
        A = ObservableSpec.x_function(lambda x: np.cos(x))
        with pytest.raises(UnsupportedObservableError):
            A.as_poly()


class TestSmoothers:
    def test_fixes_first_moments(self, grid64, rng):
        # Sx = x and Sp = p imply first moments are invariant
        X, P = grid64.meshes()
        spec = OrderingSpec(0.5, GaussianSmoother(0.15, 0.1))
        for _ in range(3):
            f = gaussian_mixture(grid64, rng)
            sf = apply_smoother(spec, f, "forward")
            for coord in (X, P):
                before = (coord * f.values).sum() * grid64.dx * grid64.dp
                after = (coord * sf.values).sum() * grid64.dx * grid64.dp
                assert abs(after - before) < 1e-10 * max(abs(before), 1.0)

    def test_coordinate_symbol_fixed_exactly(self):
        # the symbolic form of Sx = x: even-derivative words kill x and p
        word = DiffOpWord.gaussian(0.3, 0.8)
        assert word.apply(PolyH.x()) == PolyH.x()
        assert word.apply(PolyH.p()) == PolyH.p()

    def test_heat_kernel_closed_form(self, grid64):
        hbar = grid64.hbar
        a, alpha = 1.0, 0.5
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-X ** 2 / (2 * hbar * a))
                       * np.exp(-P ** 2 / (2 * hbar)))
        sf = apply_smoother(OrderingSpec(0.5, GaussianSmoother(alpha, 0.0)),
                            f, "forward")
        want = np.sqrt(a / (a + alpha)) \
            * np.exp(-X ** 2 / (2 * hbar * (a + alpha))) \
            * np.exp(-P ** 2 / (2 * hbar))
        assert np.abs(sf.values - want).max() < 1e-8

    def test_enveloped_coordinate_closed_form(self, grid64):
        # S_{alpha,0}(x e^{-x^2/2 hbar a}) = (a/(a+alpha))^{3/2} x e^{-x^2/2 hbar (a+alpha)}
        hbar = grid64.hbar
        a, alpha = 1.0, 0.4
        X, P = grid64.meshes()
        f = PhaseField(grid64, X * np.exp(-X ** 2 / (2 * hbar * a))
                       * np.exp(-P ** 2 / (2 * hbar)))
        sf = apply_smoother(OrderingSpec(0.5, GaussianSmoother(alpha, 0.0)),
                            f, "forward")
        want = (a / (a + alpha)) ** 1.5 * X \
            * np.exp(-X ** 2 / (2 * hbar * (a + alpha))) \
            * np.exp(-P ** 2 / (2 * hbar))
        assert np.abs(sf.values - want).max() < 1e-8

    def test_integral_invariance(self, grid64, rng):
        spec = OrderingSpec(0.5, GaussianSmoother(0.12, 0.2))
        for _ in range(3):
            f = gaussian_mixture(grid64, rng)
            sf = apply_smoother(spec, f, "forward")
            assert abs(integrate(sf) - integrate(f)) < 1e-9 * max(
                abs(integrate(f)), 1.0)

    def test_roundtrip_within_cutoff(self, grid64, rng):
        spec = OrderingSpec(0.5, GaussianSmoother(0.08, 0.05))
        f = gaussian_mixture(grid64, rng)
        back = apply_smoother(spec, apply_smoother(spec, f, "forward"), "inverse")
        assert l2_norm(back - f) / l2_norm(f) < 1e-9

    def test_ill_posed_deconvolution_rejected(self, grid64, rng):
        # a spectrally broad field cannot be deconvolved with a strong smoother
        X, P = grid64.meshes()
        sharp = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2) * 8.0))
        spec = OrderingSpec(0.5, GaussianSmoother(0.8, 0.8))
        with pytest.raises(IllPosedSmoothingError, match="ill-posed"):
            apply_smoother(spec, sharp, "inverse")

    def test_word_smoother_rejected_on_fields(self, grid64):
        word = WordSmoother(DiffOpWord.three_parameter(0.1, 0.2, 0.3))
        f = PhaseField.constant(grid64)
        with pytest.raises(UnsupportedObservableError):
            apply_smoother(OrderingSpec(0.5, word), f, "forward")
        # the direction is checked first, under every ordering
        for spec in (OrderingSpec(0.5), OrderingSpec(0.5, GaussianSmoother(0.1, 0.1))):
            with pytest.raises(PSQError, match="direction"):
                apply_smoother(spec, f, "sideways")

    def test_cohen_equivalent_to_gaussian(self, grid64, rng):
        hbar = grid64.hbar
        alpha, beta = 0.1, 0.15
        cohen = CohenSmoother(
            lambda xi, eta: np.exp((alpha * np.asarray(xi) ** 2
                                    + beta * np.asarray(eta) ** 2) / (2 * hbar)))
        f = gaussian_mixture(grid64, rng)
        a = apply_smoother(OrderingSpec(0.5, cohen), f, "forward")
        b = apply_smoother(OrderingSpec(0.5, GaussianSmoother(alpha, beta)),
                           f, "forward")
        assert l2_norm(a - b) / l2_norm(a) < 1e-12

    def test_cohen_admissibility(self, grid64):
        f = PhaseField.constant(grid64)
        bad_value = CohenSmoother(lambda xi, eta: 2.0 + 0 * np.asarray(xi))
        with pytest.raises(Exception, match="F\\(0,0\\)=1"):
            apply_smoother(OrderingSpec(0.5, bad_value), f, "forward")
        bad_grad = CohenSmoother(
            lambda xi, eta: 1.0 + np.asarray(xi) + 0 * np.asarray(eta))
        with pytest.raises(Exception, match="grad"):
            apply_smoother(OrderingSpec(0.5, bad_grad), f, "forward")
        # flat at the coarse spacing only: one instance, checked per lattice
        coarse = grid64.dxi
        lattice_bound = OrderingSpec(0.5, CohenSmoother(
            lambda xi, eta: 1.0 + 0.1 * np.sin(np.pi * np.asarray(xi) / coarse)
            + 0 * np.asarray(eta)))
        apply_smoother(lattice_bound, f, "forward")
        wide = make_grid(64, 64, -16.0, 16.0, -16.0, 16.0, 1.0)
        with pytest.raises(Exception, match="grad"):
            apply_smoother(lattice_bound, PhaseField.constant(wide), "forward")


class TestStarSigmaS:
    def test_identity_smoother_reduces_exactly(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        spec = OrderingSpec(0.3, IdentitySmoother())
        a = star_sigma_S(f, g2, spec)
        b = star_sigma(f, g2, 0.3)
        assert np.array_equal(a.values, b.values)

    def test_integral_commutativity(self, grid64, rng):
        spec = OrderingSpec(0.3, GaussianSmoother(0.1, 0.08))
        for _ in range(3):
            f = gaussian_mixture(grid64, rng)
            g2 = gaussian_mixture(grid64, rng)
            d = abs(integrate(star_sigma_S(f, g2, spec))
                    - integrate(star_sigma_S(g2, f, spec)))
            assert d < 1e-8 * l2_norm(f) * l2_norm(g2)

    @pytest.mark.parametrize("smoother", [IdentitySmoother(), GaussianSmoother(0.1, 0.1)],
                             ids=["identity", "gaussian"])
    def test_repeated_operand_is_bit_identical(self, grid64, rng, smoother):
        # f * f pulls f back and maps it to a kernel once; the product is unchanged
        spec = OrderingSpec(0.37, smoother)
        f = gaussian_mixture(grid64, rng)
        assert np.array_equal(star_sigma_S(f, f, spec).values,
                              star_sigma_S(f, f.copy(), spec).values)

    def test_smoothed_ground_state_idempotence(self, grid64):
        # the closed-form smoothed ground state is star-idempotent
        hbar = grid64.hbar
        s, alpha, beta = 0.4, 0.1, 0.1
        sb = 1 - s
        X, P = grid64.meshes()
        omega = 1.0
        denom = sb ** 2 + s ** 2 + 2 * alpha * beta + omega * alpha + beta / omega
        pref = np.sqrt((1 - 2 * s) ** 2 + (1 + 2 * omega * alpha)
                       * (1 + 2 * beta / omega)) / denom / np.sqrt(TWO_PI * hbar)
        expo = (-(1 + 2 * beta / omega) * omega ** 2 * X ** 2
                - (1 + 2 * omega * alpha) * P ** 2
                - 2j * (1 - 2 * s) * omega * X * P) / (2 * hbar * omega * denom)
        psi = PhaseField(grid64, pref * np.exp(expo))
        spec = OrderingSpec(s, GaussianSmoother(alpha, beta))
        prod = star_sigma_S(psi, psi, spec)
        err = l2_norm(prod - psi * (1 / np.sqrt(TWO_PI * hbar))) / l2_norm(psi)
        assert err < 1e-6


class TestGaugeTransform:
    def test_noop(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        out = gauge_transform(f, 0.3, 0.3)
        assert np.array_equal(out.values, f.values)

    def test_gaussian_closed_form(self, grid64):
        # exp(i hbar c d_x d_p) e^{-(a x^2 + b p^2)/2 hbar} has the closed form
        # (1 + a b c^2)^{-1/2} exp(-(a x^2 + b p^2 - 2 i a b c x p)
        #                          / (2 hbar (1 + a b c^2)))
        hbar = grid64.hbar
        a, b, c = 1.0, 1.0, 0.25
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-(a * X ** 2 + b * P ** 2) / (2 * hbar)))
        out = gauge_transform(f, 0.2, 0.2 + c)
        want = (1 + a * b * c ** 2) ** -0.5 * np.exp(
            -(a * X ** 2 + b * P ** 2 - 2j * a * b * c * X * P)
            / (2 * hbar * (1 + a * b * c ** 2)))
        assert np.abs(out.values - want).max() < 1e-12

    def test_coordinate_shift_identity_symbolic(self):
        # the xp-field identity is exact at the word level
        c = 0.25
        word = DiffOpWord.gauge_shift(c)
        got = word.apply(PolyH.monomial(1, 1))
        assert got == PolyH.monomial(1, 1) + PolyH.monomial(0, 0, 1, 1j * c)

    def test_intertwining_on_gaussians(self, grid64, rng):
        s_from, s_to = 0.2, 0.8
        for _ in range(3):
            f = gaussian_mixture(grid64, rng)
            g2 = gaussian_mixture(grid64, rng)
            lhs = gauge_transform(star_sigma(f, g2, s_from), s_from, s_to)
            rhs = star_sigma(gauge_transform(f, s_from, s_to),
                             gauge_transform(g2, s_from, s_to), s_to)
            assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-7


class TestBrackets:
    def test_self_bracket_vanishes(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        out = moyal_bracket(f, f, OrderingSpec(0.5))
        assert l2_norm(out) == 0.0

    def test_canonical_pair_on_states(self, grid64):
        # [[x, p]] acts as the identity on localized states for any spec
        X, P = grid64.meshes()
        psi = PhaseField(grid64, np.exp(-((X + 0.5) ** 2 + P ** 2)))
        xo, po = ObservableSpec.position(), ObservableSpec.momentum()
        for spec in (OrderingSpec(0.0), OrderingSpec(0.5),
                     OrderingSpec(0.7, GaussianSmoother(0.1, 0.05))):
            com = bopp_apply(xo, bopp_apply(po, psi, "left", spec), "left", spec) \
                - bopp_apply(po, bopp_apply(xo, psi, "left", spec), "left", spec)
            got = com * (1 / (1j * grid64.hbar))
            assert l2_norm(got - psi) / l2_norm(psi) < 1e-9

    def test_classical_limit_order_hbar_squared(self):
        # || [[f,g]] - {f,g} || = O(hbar^2) for cubic-polynomial Gaussians
        errs = []
        hbars = [0.2, 0.1, 0.05, 0.025]
        for hb in hbars:
            g = make_grid(64, 64, -6, 6, -6, 6, hb)
            X, P = g.meshes()
            env = np.exp(-(X ** 2 + P ** 2) / 2.0)
            f = PhaseField(g, (X ** 3 + 0.5 * X * P) * env)
            h = PhaseField(g, (P ** 3 - X * P ** 2) * env)
            mb = moyal_bracket(f, h, OrderingSpec(0.5))
            # Poisson bracket by analytic differentiation of the test fields
            fx = (3 * X ** 2 + 0.5 * P) * env + (X ** 3 + 0.5 * X * P) * (-X) * env
            fp = 0.5 * X * env + (X ** 3 + 0.5 * X * P) * (-P) * env
            hx = -P ** 2 * env + (P ** 3 - X * P ** 2) * (-X) * env
            hp = (3 * P ** 2 - 2 * X * P) * env + (P ** 3 - X * P ** 2) * (-P) * env
            pb = PhaseField(g, fx * hp - fp * hx)
            errs.append(l2_norm(mb - pb))
        fit = np.polyfit(np.log(hbars), np.log(errs), 1)[0]
        assert abs(fit - 2.0) < 0.1

    def test_commutator_antisymmetric(self, grid64, rng):
        spec = OrderingSpec(0.4, GaussianSmoother(0.05, 0.1))
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        a = star_commutator(f, g2, spec)
        b = star_commutator(g2, f, spec)
        assert l2_norm(a + b) / max(l2_norm(a), 1e-30) < 1e-12


class TestInvolution:
    def test_moyal_is_conjugation(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        out = involution_dagger(f, OrderingSpec(0.5))
        assert np.array_equal(out.values, np.conj(f.values))

    def test_strong_gaussian_smoother(self):
        # S = Sbar cancels exactly: the multiplier underflows to 0 on this
        # lattice, and S / Sbar would be 0/0; the Cohen form of the same
        # smoother, F = exp((2 xi^2 + 2 eta^2) / 2 hbar), must agree
        grid = make_grid(64, 64, -4.0, 4.0, -4.0, 4.0, 1.0)
        X, P = grid.meshes()
        f = PhaseField(grid, np.exp(-(X ** 2 + P ** 2)))
        cohen = CohenSmoother(
            lambda xi, eta: np.exp((2.0 * np.asarray(xi) ** 2 + 2.0 * np.asarray(eta) ** 2) / 2.0))
        for smoother in (GaussianSmoother(2.0, 2.0), cohen):
            with np.errstate(over="ignore"):
                out = involution_dagger(f, OrderingSpec(0.5, smoother))
                assert np.abs(out.values - np.conj(f.values)).max() < 1e-12
                spec = OrderingSpec(0.3, smoother)
                back = involution_dagger(involution_dagger(f, spec), spec)
            assert l2_norm(back - f) / l2_norm(f) < 1e-8

    def test_involutive(self, grid64, rng):
        for spec in (OrderingSpec(0.3),
                     OrderingSpec(0.8, GaussianSmoother(0.12, 0.07))):
            f = gaussian_mixture(grid64, rng)
            back = involution_dagger(involution_dagger(f, spec), spec)
            assert l2_norm(back - f) / l2_norm(f) < 1e-10

    def test_cohen_smoother_with_distinct_conjugate(self, grid64):
        # F = exp(i k xi eta) has Fbar(xi, eta) = conj F(-xi, -eta) = 1 / F, so
        # the S / Sbar factor is a gauge phase of its own: without it the
        # dagger of a Hermitian state misses by 26 %
        smoother = CohenSmoother(lambda xi, eta: np.exp(0.05j * np.asarray(xi) * np.asarray(eta)))
        spec = OrderingSpec(0.3, smoother)
        h1, h2 = hermite_function(grid64, 1), hermite_function(grid64, 2)
        for phi, psi in ((h1, h1), (h1, h2)):
            got = involution_dagger(twisted_tensor(phi, psi, spec).psi_field, spec)
            want = twisted_tensor(psi, phi, spec).psi_field
            assert l2_norm(got - want) / l2_norm(want) < 1e-12

    def test_antihomomorphism(self, grid64, rng):
        # (f * g)^dag = g^dag * f^dag
        spec = OrderingSpec(0.3, GaussianSmoother(0.08, 0.06))
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        lhs = involution_dagger(star_sigma_S(f, g2, spec), spec)
        rhs = star_sigma_S(involution_dagger(g2, spec),
                           involution_dagger(f, spec), spec)
        assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-7


class TestAlgebraProperties:
    @pytest.mark.parametrize("spec", [
        OrderingSpec(0.0), OrderingSpec(0.5), OrderingSpec(1.0),
        OrderingSpec(0.3, GaussianSmoother(0.1, 0.05)),
    ], ids=["standard", "moyal", "antistandard", "smoothed"])
    def test_associativity(self, grid64, rng, spec):
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        h = gaussian_mixture(grid64, rng)
        lhs = star_sigma_S(star_sigma_S(f, g2, spec), h, spec)
        rhs = star_sigma_S(f, star_sigma_S(g2, h, spec), spec)
        assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-6

    def test_trace_property(self, grid64, rng):
        for s in (0.0, 0.3, 0.5):
            f = gaussian_mixture(grid64, rng)
            g2 = gaussian_mixture(grid64, rng)
            d = abs(integrate(star_sigma(f, g2, s)) - integrate(star_sigma(g2, f, s)))
            assert d < 1e-8 * l2_norm(f) * l2_norm(g2)

    def test_moyal_trace_is_pointwise(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        d = abs(integrate(star_sigma(f, g2, 0.5))
                - integrate(PhaseField(grid64, f.values * g2.values)))
        assert d < 1e-8 * l2_norm(f) * l2_norm(g2)

    def test_leibniz_spectral(self, grid64, rng):
        from psq import SpectralField, fourier_full, fourier_full_inverse
        hbar = grid64.hbar
        XI, ETA = grid64.conj_meshes()

        def ddx(fld):
            F = fourier_full(fld)
            return fourier_full_inverse(
                SpectralField(grid64, F.values * (1j * XI / hbar)))

        s = 0.3
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        lhs = ddx(star_sigma(f, g2, s))
        rhs = star_sigma(ddx(f), g2, s) + star_sigma(f, ddx(g2), s)
        assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-7

    def test_deterministic_across_thread_counts(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        g2 = gaussian_mixture(grid64, rng)
        one = star_sigma(f, g2, 0.4)
        with sp_fft.set_workers(4):
            four = star_sigma(f, g2, 0.4)
        assert np.abs(one.values - four.values).max() \
            < 1e-13 * np.abs(one.values).max()

    def test_norm_bound(self, grid64, rng):
        bound_const = 1 / np.sqrt(TWO_PI * grid64.hbar)
        for s in (0.0, 0.5, 0.9):
            f = gaussian_mixture(grid64, rng)
            g2 = gaussian_mixture(grid64, rng)
            prod = star_sigma(f, g2, s)
            assert l2_norm(prod) <= bound_const * l2_norm(f) * l2_norm(g2) + 1e-9


# Seeded properties on the point tests' grid.  The operands keep the
# tail-mass contract for sigma in [0.25, 0.75] and |sigma' - sigma| <= 0.5
# (the involution at sigma 0.09 or 0.85 already warns), so a tail-mass
# warning is an error here.
GRID64 = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)
SEEDS = st.integers(0, 2 ** 32 - 1)
SIGMAS = st.floats(0.25, 0.75)
SPECS = st.builds(OrderingSpec, SIGMAS, st.one_of(
    st.just(IdentitySmoother()),
    st.builds(GaussianSmoother, st.floats(0.0, 0.15), st.floats(0.0, 0.15))))
SEEDED = settings(derandomize=True, max_examples=10, deadline=None, database=None)


def _operands(seed, n):
    rng = np.random.default_rng(seed)
    return [gaussian_mixture(GRID64, rng, center=1.5) for _ in range(n)]


@pytest.mark.filterwarnings("error:star product operand has boundary tail mass")
class TestSeededAlgebraProperties:
    @SEEDED
    @given(seed=SEEDS, spec=SPECS)
    def test_associativity(self, seed, spec):
        f, g2, h = _operands(seed, 3)
        lhs = star_sigma_S(star_sigma_S(f, g2, spec), h, spec)
        rhs = star_sigma_S(f, star_sigma_S(g2, h, spec), spec)
        assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-6

    @SEEDED
    @given(seed=SEEDS, spec=SPECS)
    def test_antihomomorphism(self, seed, spec):
        f, g2 = _operands(seed, 2)
        lhs = involution_dagger(star_sigma_S(f, g2, spec), spec)
        rhs = star_sigma_S(involution_dagger(g2, spec), involution_dagger(f, spec), spec)
        assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-7

    @SEEDED
    @given(seed=SEEDS, sigma=SIGMAS, delta=st.floats(-0.5, 0.5))
    def test_gauge_intertwining(self, seed, sigma, delta):
        f, g2 = _operands(seed, 2)
        lhs = gauge_transform(star_sigma(f, g2, sigma), sigma, sigma + delta)
        rhs = star_sigma(gauge_transform(f, sigma, sigma + delta),
                         gauge_transform(g2, sigma, sigma + delta), sigma + delta)
        assert l2_norm(lhs - rhs) / l2_norm(lhs) < 1e-7

    @SEEDED
    @given(seed=SEEDS, spec=SPECS)
    def test_trace_property(self, seed, spec):
        f, g2 = _operands(seed, 2)
        d = abs(integrate(star_sigma_S(f, g2, spec)) - integrate(star_sigma_S(g2, f, spec)))
        assert d < 1e-8 * l2_norm(f) * l2_norm(g2)

    @SEEDED
    @given(seed=SEEDS, spec=SPECS, other=SPECS)
    def test_inner_h_is_ordering_free(self, seed, spec, other):
        # f, g2 are pulled-back sigma-fields; the states carry them under two orderings
        f, g2 = _operands(seed, 2)
        a = QuasiDistribution(apply_smoother(spec, f), spec)
        b = QuasiDistribution(
            apply_smoother(other, gauge_transform(g2, spec.sigma, other.sigma)), other)
        assert abs(a.inner_h(b) - l2_inner(f, g2)) < 1e-10 * l2_norm(f) * l2_norm(g2)
