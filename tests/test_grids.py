import ast
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import psq
from psq import (GridMismatchError, PhaseField, PSQError,
                 WaveFunction, fourier_full, fourier_full_inverse,
                 fourier_partial, integrate, l2_inner, l2_norm, make_grid,
                 read_field, star_sigma, write_field, write_field_csv,
                 write_field_dat)
from psq.grids import (_dft_phases, _fourier_powers, _from_kernel, _fwd_x, _kernel_phases,
                       _mixed_matrix, _mixed_sum, _shear_phases, _sheared_samples, _to_kernel,
                       _to_kernels, half_dft, multiply_mixed, spectral_derivatives)
from psq.ordering import OrderingSpec
from psq.states import hermite_function, twisted_tensor

from conftest import gaussian_mixture


class TestMakeGrid:
    def test_spacings(self):
        g = make_grid(64, 64, -8, 8, -8, 8, 1.0)
        assert g.dx == 0.25
        assert g.dp == 0.25
        assert np.isclose(g.dxi, 2 * np.pi / 16)
        assert np.isclose(g.deta, 2 * np.pi / 16)

    def test_conjugate_lattice_centered(self):
        g = make_grid(64, 32, -8, 8, -4, 4, 0.5)
        assert g.xi[32] == 0.0
        assert g.eta[16] == 0.0
        assert np.all(np.diff(g.xi) > 0)

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(PSQError, match="hbar must be positive"):
            make_grid(64, 64, -8, 8, -8, 8, 0.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(PSQError, match="power of two"):
            make_grid(60, 64, -8, 8, -8, 8, 1.0)

    def test_rejects_empty_span(self):
        with pytest.raises(PSQError, match="empty span"):
            make_grid(64, 64, 8, -8, -8, 8, 1.0)

    def test_rejects_infinite_bounds_and_hbar(self):
        # each makes a lattice spacing infinite: dxi for hbar, dx or dp for a bound
        for args in ((-8, 8, -8, 8, np.inf), (-8, np.inf, -8, 8, 1.0),
                     (-8, 8, -np.inf, 8, 1.0), (-1e308, 1e308, -8, 8, 1.0)):
            with pytest.raises(PSQError, match="must be finite"):
                make_grid(64, 64, *args)


def _fft_uses(tree):
    """Line numbers where a module reaches numpy.fft: np.fft / numpy.fft
    attributes, `import numpy.fft` and `from numpy(.fft) import ...fft...`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.fft") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numpy.fft" or (
                node.module == "numpy" and any(a.name == "fft" for a in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_grids_calls_numpy_fft():
    # grids is the one transform layer: no other module reaches numpy.fft
    src = Path(psq.__file__).resolve().parent
    uses = {path.name: _fft_uses(ast.parse(path.read_text()))
            for path in sorted(src.glob("*.py"))}
    assert uses.pop("grids.py")
    assert {name: lines for name, lines in uses.items() if lines} == {}


class TestFourierFull:
    def test_self_dual_gaussian(self, grid64):
        # 1D Gaussian integral: each axis maps e^{-u^2/2hbar} to itself
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2) / (2 * grid64.hbar)))
        F = fourier_full(f)
        XI, ETA = grid64.conj_meshes()
        exact = np.exp(-(XI ** 2 + ETA ** 2) / (2 * grid64.hbar))
        assert np.abs(F.values - exact).max() < 1e-10

    def test_roundtrip(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        back = fourier_full_inverse(fourier_full(f))
        assert l2_norm(back - f) / l2_norm(f) < 1e-12

    @staticmethod
    def _spectral_inner(a, b):
        g = a.grid
        return np.sum(np.conj(a.values) * b.values) * g.dxi * g.deta

    def test_unitarity_constant_on_gaussian_pair(self, grid64):
        # fix the convention factor on an analytic pair: it is exactly 1
        X, P = grid64.meshes()
        f = PhaseField(grid64, np.exp(-(X ** 2 + P ** 2) / 2))
        g2 = PhaseField(grid64, np.exp(-((X - 1) ** 2 + P ** 2) / 2))
        num = self._spectral_inner(fourier_full(f), fourier_full(g2))
        den = l2_inner(f, g2)
        assert abs(num / den - 1.0) < 1e-12

    def test_unitarity_constant_across_random_fields(self, grid64, rng):
        for _ in range(5):
            f = gaussian_mixture(grid64, rng)
            g2 = gaussian_mixture(grid64, rng)
            num = self._spectral_inner(fourier_full(f), fourier_full(g2))
            den = l2_inner(f, g2)
            assert abs(num / den - 1.0) < 1e-10


class TestFourierPartial:
    def test_x_roundtrip(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        back = fourier_partial(fourier_partial(f, "x", "forward"), "x", "inverse")
        assert l2_norm(back - f) / l2_norm(f) < 1e-12

    def test_p_roundtrip(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        back = fourier_partial(fourier_partial(f, "p", "inverse"), "p", "forward")
        assert l2_norm(back - f) / l2_norm(f) < 1e-12

    def test_factorization_identity(self, grid64, rng):
        # full = (x forward) o (p inverse)
        f = gaussian_mixture(grid64, rng)
        two_step = fourier_partial(fourier_partial(f, "p", "inverse"), "x", "forward")
        full = fourier_full(f)
        assert np.abs(two_step.values - full.values).max() \
            < 1e-12 * np.abs(full.values).max()

    def test_gaussian_in_shift_slot(self, grid64):
        # mixed (x, y) data e^{-y^2/2hbar} maps to e^{-p^2/2hbar} on the p axis
        hbar = grid64.hbar
        xprof = np.exp(-grid64.x ** 2 / 4.0)
        vals = np.outer(xprof, np.exp(-grid64.eta ** 2 / (2 * hbar)))
        out = fourier_partial(PhaseField(grid64, vals), "p", "forward")
        exact = np.outer(xprof, np.exp(-grid64.p ** 2 / (2 * hbar)))
        assert np.abs(out.values - exact).max() < 1e-10


class TestMixedDispatch:
    @pytest.mark.parametrize("axis,there,back", [("x", "forward", "inverse"),
                                                 ("p", "inverse", "forward")])
    def test_multiply_mixed_is_the_partial_pair(self, rng, axis, there, back):
        g = make_grid(64, 32, -8.0, 8.0, -6.0, 6.0, 0.7)   # no two weights alike
        f = gaussian_mixture(g, rng)
        profile = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
        mixed = fourier_partial(f, axis, there)
        pair = fourier_partial(PhaseField(g, mixed.values * profile), axis, back)
        got = multiply_mixed(g, f.values, axis, profile)
        assert np.abs(got - pair.values).max() < 1e-13 * np.abs(pair.values).max()

    @pytest.mark.parametrize("axis,direction,message", [
        ("z", "forward", "axis must be 'x' or 'p'"),
        ("z", "sideways", "axis must be 'x' or 'p'"),
        ("x", "sideways", "direction must be 'forward' or 'inverse'"),
        ("p", "sideways", "direction must be 'forward' or 'inverse'")])
    def test_fourier_partial_rejects(self, grid64, axis, direction, message):
        with pytest.raises(PSQError, match=message):
            fourier_partial(PhaseField.constant(grid64), axis, direction)

    def test_multiply_mixed_rejects_axis(self, grid64):
        with pytest.raises(PSQError, match="axis must be 'x' or 'p'"):
            multiply_mixed(grid64, np.ones((64, 64)), "z", 1.0)

    @pytest.mark.parametrize("axis", ["x", "p"])
    @pytest.mark.parametrize("shape", [(64, 32), (64, 1), (1, 32), ()])
    def test_mixed_sum_is_the_zero_frequency_sample(self, rng, axis, shape):
        # an off-centre span on a non-square grid: the conjugate lattice is
        # centred all the same, which is all the identity needs
        g = make_grid(64, 32, -5.0, 11.0, -3.0, 9.0, 0.7)
        values = rng.normal(size=(64, 32)) + 1j * rng.normal(size=(64, 32))
        profile = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        i = 0 if axis == "x" else 1
        want = multiply_mixed(g, values, axis, profile).sum(axis=i)
        got = _mixed_sum(g, values.sum(axis=i), axis, profile)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


def _frozen(values):
    """A read-only copy of values, and a second copy to compare it against."""
    frozen = np.array(values)
    frozen.flags.writeable = False
    return frozen, frozen.copy()


class TestInputsStayUnchanged:
    """Every transform writes only into a buffer it allocated: its inputs,
    read-only, real or 1-D, come back bit for bit as they went in."""

    G = make_grid(32, 16, -6.0, 5.0, -3.0, 4.0, 0.7)

    def _inputs(self, rng):
        nx, npn = self.G.nx, self.G.np
        return {"complex": rng.normal(size=(nx, npn)) + 1j * rng.normal(size=(nx, npn)),
                "real": rng.normal(size=(nx, npn)),
                "vector": rng.normal(size=nx) + 1j * rng.normal(size=nx),
                "real vector": rng.normal(size=nx)}

    @pytest.mark.parametrize("kind", ["complex", "real", "vector", "real vector"])
    @pytest.mark.parametrize("sign", [-1, +1])
    def test_half_dft(self, rng, kind, sign):
        g = self.G
        values, before = _frozen(self._inputs(rng)[kind])
        args = (0, g.x[0], g.dx, g.xi[0], g.dxi, sign, g.hbar)
        want = half_dft(before.astype(complex), *args)
        assert np.array_equal(half_dft(values, *args), want)
        buffer = np.empty(values.shape, dtype=complex)
        assert half_dft(values, *args, out=buffer) is buffer
        assert np.array_equal(buffer, want)
        own = before.astype(complex)                    # a buffer that is also the input
        assert half_dft(own, *args, out=own) is own
        assert np.array_equal(own, want)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_full_and_partial_transforms(self, rng, kind):
        g = self.G
        values, before = _frozen(self._inputs(rng)[kind])
        field = PhaseField(g, values)
        reference = PhaseField(g, before.astype(complex))
        for transform in (fourier_full, fourier_full_inverse):
            assert np.array_equal(transform(field).values, transform(reference).values)
        for axis in ("x", "p"):
            for direction in ("forward", "inverse"):
                got = fourier_partial(field, axis, direction).values
                assert np.array_equal(got, fourier_partial(reference, axis, direction).values)
        assert np.array_equal(field.values, before)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("kind", ["complex", "real", "vector", "real vector"])
    def test_multiply_mixed(self, rng, kind):
        g = self.G
        values, before = _frozen(self._inputs(rng)[kind])
        axes = ("x", "p") if values.ndim == 2 else ("x",)
        for axis in axes:
            n = g.nx if axis == "x" else g.np
            shape = (n, 1) if axis == "x" and values.ndim == 2 else (n,)
            profile, profile_before = _frozen(np.exp(rng.normal(size=shape)))
            want = multiply_mixed(g, before.astype(complex), axis, profile_before)
            assert np.array_equal(multiply_mixed(g, values, axis, profile), want)
            assert np.array_equal(profile, profile_before)
        assert np.array_equal(values, before)

    def test_mixed_matrix_and_split_step_vectors(self, rng):
        # the unit column of _mixed_matrix is a real vector, the split step's a complex one
        g = self.G
        profile, before = _frozen(g.xi ** 2 / 2.0)
        C = _mixed_matrix(g, profile)
        assert np.array_equal(C[:, 0], multiply_mixed(g, np.eye(g.nx)[0], "x", before))
        psi, psi_before = _frozen(self._inputs(rng)["vector"])
        assert np.array_equal(multiply_mixed(g, psi, "x", profile),
                              multiply_mixed(g, psi_before, "x", before))
        assert np.array_equal(psi, psi_before) and np.array_equal(profile, before)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_fourier_powers(self, rng, kind):
        g = self.G
        values, before = _frozen(self._inputs(rng)[kind])
        field = PhaseField(g, values)
        shifts = [tuple(_frozen(m)[0] for m in (rng.normal(size=(g.nx, 1)),
                                                 rng.normal(size=(1, g.np)) * 1j))
                  for _ in range(2)]
        orders = [(0, 0), (1, 0), (0, 2), (2, 1)]
        got = list(_fourier_powers(field, shifts, orders))
        assert [(rs, i) for rs, i, _v in got] == [(rs, i) for rs in sorted(orders) for i in (0, 1)]
        spectrum = fourier_full(PhaseField(g, before.astype(complex))).values
        for (r, s), i, work in got:
            m_x, m_p = shifts[i]
            want = before if (r, s) == (0, 0) else fourier_full_inverse(
                PhaseField(g, spectrum * m_x ** r * m_p ** s)).values
            assert np.array_equal(work, want)
        assert np.array_equal(field.values, before)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("kind", ["complex", "real", "vector", "real vector"])
    def test_sheared_samples(self, rng, kind):
        # a 2-D input holds one f per y, a 1-D input one f for every y
        g = self.G
        coeffs, before = _frozen(self._inputs(rng)[kind])
        y, y_before = _frozen(rng.uniform(-3.0, 3.0, size=g.np))
        phases = _shear_phases(g, 0.37, y)
        want = _sheared_samples(g, before.astype(complex), _shear_phases(g, 0.37, y_before))
        assert np.array_equal(_sheared_samples(g, coeffs, phases), want)
        buffer = np.empty((g.nx, g.np), dtype=complex)
        assert _sheared_samples(g, coeffs, phases, out=buffer) is buffer
        assert np.array_equal(buffer, want)
        if coeffs.ndim == 2:
            own = before.astype(complex)                # a buffer that is also the input
            assert _sheared_samples(g, own, phases, out=own) is own
            assert np.array_equal(own, want)
        assert np.array_equal(coeffs, before) and np.array_equal(y, y_before)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_kernel_maps(self, rng, kind):
        g = self.G
        values, before = _frozen(self._inputs(rng)[kind])
        K, lost = _to_kernel(values, 0.37, g)
        want_K, want_lost = _to_kernel(before.astype(complex), 0.37, g)
        assert np.array_equal(K, want_K) and lost == want_lost
        kernel = rng.normal(size=(g.nx, g.nx))
        if kind == "complex":
            kernel = kernel + 1j * rng.normal(size=(g.nx, g.nx))
        kernel, kernel_before = _frozen(kernel)
        want = _from_kernel(kernel_before.astype(complex), 0.37, g)
        assert np.array_equal(_from_kernel(kernel, 0.37, g), want)
        assert np.array_equal(values, before) and np.array_equal(kernel, kernel_before)


class TestStackedKernelMap:
    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_each_operand_as_alone(self, grid64, sigma):
        # one set of sigma tables for a stack gives each operand its own kernel
        # and lost mass, bit for bit; a repeated operand maps twice alike
        spec = OrderingSpec(sigma)
        h = [hermite_function(grid64, n) for n in range(3)]
        operands = [twisted_tensor(a, b, spec).psi_field.values
                    for a, b in ((h[1], h[2]), (h[0], h[0]), (h[1], h[2]))]
        stacked = _to_kernels(operands, sigma, grid64)
        assert len(stacked) == 3
        for values, (K, lost) in zip(operands, stacked):
            want_K, want_lost = _to_kernel(values, sigma, grid64)
            assert np.array_equal(K, want_K) and lost == want_lost


class TestShearedSamples:
    # a band-limited trig polynomial: modes well inside the xi lattice
    MODES = {-3: 0.7 - 0.2j, -1: 1.0, 2: 0.4j, 5: -0.3 + 0.1j}

    def _f(self, g, x):
        return sum(c * np.exp(1j * g.xi[g.nx // 2 + m] * x / g.hbar)
                   for m, c in self.MODES.items())

    @pytest.mark.parametrize("sigma", [0.0, 0.37, 1.0])
    def test_shifted_samples_closed_form(self, grid64, rng, sigma):
        g = grid64
        coeffs = _fwd_x(g, self._f(g, g.x)) / g.nx
        y = rng.uniform(-5.0, 5.0, size=9)              # off the lattice
        weights = rng.normal(size=9) + 1j * rng.normal(size=9)
        for scale in (sigma, sigma - 1.0):
            exact = self._f(g, g.x[:, None] + scale * y[None, :])
            phases = _shear_phases(g, scale, y)
            got = _sheared_samples(g, coeffs, phases)
            assert np.abs(got - exact).max() < 1e-12
            # one f per y: column l holds weights[l] f
            got = _sheared_samples(g, coeffs[:, None] * weights[None, :], phases)
            assert np.abs(got - exact * weights[None, :]).max() < 1e-12


class TestPhaseCache:
    def test_cached_phases_read_only(self, grid64):
        g = grid64
        for phase in _dft_phases(g.nx, g.x[0], g.dx, g.xi[0], g.dxi, -1, g.hbar):
            with pytest.raises(ValueError):
                phase[0] = 0.0

    def test_cache_changes_no_bit(self, rng):
        # two spans on one shape share n but no phase; used in turn, each must
        # read its own entries
        grids = (make_grid(32, 16, -4, 4, -3, 3, 1.0), make_grid(32, 16, -6, 5, -2, 2, 0.7))
        vals = rng.normal(size=(32, 16)) + 1j * rng.normal(size=(32, 16))

        def transforms(g):
            return [half_dft(vals, 0, g.x[0], g.dx, g.xi[0], g.dxi, -1, g.hbar),
                    half_dft(vals, 0, g.xi[0], g.dxi, g.x[0], g.dx, +1, g.hbar),
                    half_dft(vals, 1, g.p[0], g.dp, g.eta[0], g.deta, +1, g.hbar),
                    half_dft(vals, 1, g.eta[0], g.deta, g.p[0], g.dp, -1, g.hbar)]

        _dft_phases.cache_clear()
        warm = [transforms(g) for g in grids + grids]
        assert _dft_phases.cache_info().hits == 8
        for g, got in zip(grids + grids, warm):
            _dft_phases.cache_clear()
            for a, b in zip(got, transforms(g)):
                assert np.array_equal(a, b)
        # and each grid's phases are its own: x -> xi against the dense sum
        for g, got in zip(grids, warm[2:]):
            dense = np.exp(-1j * np.outer(g.xi, g.x) / g.hbar) @ vals
            assert np.abs(got[0] - dense).max() < 1e-12 * np.abs(dense).max()

    # a product on two 64^2 grids that differ in span and hbar: both take the kernel route
    KERNEL_GRIDS = (make_grid(64, 64, -8, 8, -8, 8, 1.0), make_grid(64, 64, -7, 7, -6, 6, 0.8))

    @staticmethod
    def _product(g, sigma=0.37):
        h1, h2, spec = hermite_function(g, 1), hermite_function(g, 2), OrderingSpec(sigma)
        f, h = (twisted_tensor(a, b, spec).psi_field for a, b in ((h1, h2), (h2, h1)))
        return star_sigma(f, h, sigma).values

    def test_kernel_phases_read_only_and_bounded(self):
        for table in _kernel_phases(self.KERNEL_GRIDS[0]):
            with pytest.raises(ValueError):
                table[0] = 0.0
        assert 0 < _kernel_phases.cache_info().maxsize <= 2
        for nx in (16, 32, 64):
            _kernel_phases(make_grid(nx, 16, -4, 4, -4, 4, 1.0))
        assert _kernel_phases.cache_info().currsize <= 2

    def test_kernel_cache_changes_no_bit(self):
        # two grids used in turn: each reads its own tables, and a cold cache
        # gives each star product bit for bit as a warm one
        grids = self.KERNEL_GRIDS
        _kernel_phases.cache_clear()
        warm = [self._product(g) for g in grids + grids]
        info = _kernel_phases.cache_info()
        # each product maps its two operands to kernels in one call, and their product back
        assert (info.misses, info.hits) == (2, 6)
        for g, got in zip(grids + grids, warm):
            _kernel_phases.cache_clear()
            assert np.array_equal(got, self._product(g))
        # the tables are the dense phases the maps used before, bit for bit
        for g in grids:
            y, lag, rows, cols = _kernel_phases(g)
            assert np.array_equal(y, g.dx * np.arange(1 - g.nx, g.nx))
            assert np.array_equal(lag, np.exp(1j * np.outer(g.p, y) / g.hbar))
            assert np.array_equal(rows, np.exp(1j * np.outer(g.x, g.xi) / g.hbar))
            assert np.array_equal(cols, np.exp(1j * np.outer(g.xi, g.eta) / g.hbar))

    def test_sigma_sweep_adds_no_entries(self):
        g = self.KERNEL_GRIDS[0]
        self._product(g)
        before = _kernel_phases.cache_info()
        for sigma in (0.0, 0.25, 0.5, 0.75, 1.0):
            self._product(g, sigma)
        after = _kernel_phases.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        assert after.hits == before.hits + 10


class TestMemoryPeaks:
    """tracemalloc peaks at 256^2, in nx np complex values (16 B each): the
    kernel maps work in buffers they own beside the cached tables (6.1 and
    3.0), and the row writers format one block of 2,048 floats at a time
    (0.58 for CSV and .dat; 0.81 when the call builds the formatter's
    tables).  Maps that allocate each step afresh (8.2, 5.1), a writer that
    holds every value as a Python float (4.5) or blocks of 8,192 floats
    (about 2.8) exceed the bounds."""

    G = make_grid(256, 256, -8.0, 8.0, -8.0, 8.0, 1.0)
    UNIT = 256 * 256 * 16

    def _peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / self.UNIT
        finally:
            tracemalloc.stop()

    def _field(self):
        f = twisted_tensor(hermite_function(self.G, 1), hermite_function(self.G, 2),
                           OrderingSpec(0.37))
        return f.psi_field.values

    def test_to_kernel(self):
        values = self._field()
        _to_kernel(values, 0.37, self.G)                     # fills the cache
        assert self._peak(lambda: _to_kernel(values, 0.37, self.G)) <= 7.0

    def test_from_kernel(self):
        K, _lost = _to_kernel(self._field(), 0.37, self.G)   # fills the cache
        assert self._peak(lambda: _from_kernel(K, 0.37, self.G)) <= 4.0

    def test_write_field_csv(self, tmp_path):
        field = PhaseField(self.G, self._field())
        assert self._peak(lambda: write_field_csv(field, tmp_path / "f.csv")) <= 1.0

    def test_write_field_dat(self, tmp_path):
        field = PhaseField(self.G, self._field())
        assert self._peak(lambda: write_field_dat(field, tmp_path / "f.dat")) <= 1.0


class TestDerivativeRule:
    @pytest.mark.parametrize("n,m", [(1, 0), (0, 1), (2, 0), (1, 1), (2, 2)])
    def test_multiplier(self, grid64, n, m):
        hbar = grid64.hbar
        X, P = grid64.meshes()
        w = 1.0
        f = np.exp(-(X ** 2 + P ** 2) / (2 * w))
        # closed-form d_x^n d_p^m of the Gaussian
        hx = {0: 1.0, 1: -X / w, 2: (X ** 2 / w ** 2 - 1 / w)}[n]
        hp = {0: 1.0, 1: -P / w, 2: (P ** 2 / w ** 2 - 1 / w)}[m]
        exact = hx * hp * f
        F = fourier_full(PhaseField(grid64, f))
        XI, ETA = grid64.conj_meshes()
        mult = (1j * XI / hbar) ** n * (-1j * ETA / hbar) ** m
        approx = fourier_full_inverse(PhaseField(grid64, F.values * mult))
        assert np.abs(approx.values - exact).max() < 1e-10
        helper = spectral_derivatives(PhaseField(grid64, f), [(n, m)])[(n, m)]
        assert np.abs(helper - exact).max() < 1e-10


class TestQuadrature:
    def test_integrate_gaussian_closed_form(self, grid64):
        X, P = grid64.meshes()
        a, b = 1.2, 0.7
        f = PhaseField(grid64, np.exp(-(a * X ** 2 + b * P ** 2) / 2))
        exact = 2 * np.pi / np.sqrt(a * b)
        assert abs(integrate(f) - exact) / exact < 1e-8

    def test_integrate_normalized_ground_state(self, grid64):
        state = twisted_tensor(hermite_function(grid64, 0),
                               hermite_function(grid64, 0), OrderingSpec(0.5))
        norm = integrate(state.psi_field) / np.sqrt(2 * np.pi * grid64.hbar)
        assert abs(norm - 1.0) < 1e-8

    def test_inner_positive(self, grid64, rng):
        f = gaussian_mixture(grid64, rng)
        val = l2_inner(f, f)
        assert val.real >= 0
        assert abs(val - l2_norm(f) ** 2) < 1e-10 * val.real

    def test_hermite_tensor_orthonormality(self, grid64):
        spec = OrderingSpec(0.5)
        cases = [(0, 0, 0, 0, 1.0), (0, 1, 0, 1, 1.0), (1, 2, 1, 2, 1.0),
                 (0, 1, 1, 0, 0.0), (2, 3, 0, 1, 0.0)]
        for i, j, k, l, expect in cases:
            a = twisted_tensor(hermite_function(grid64, i),
                               hermite_function(grid64, j), spec)
            b = twisted_tensor(hermite_function(grid64, k),
                               hermite_function(grid64, l), spec)
            assert abs(l2_inner(a.psi_field, b.psi_field) - expect) < 1e-8

    def test_grid_mismatch(self, grid64):
        other = make_grid(64, 64, -8, 8, -8, 8, 0.5)
        f = PhaseField.constant(grid64)
        g2 = PhaseField.constant(other)
        with pytest.raises(GridMismatchError):
            l2_inner(f, g2)


class TestSerialization:
    def test_binary_roundtrip(self, grid64, rng, tmp_path):
        f = gaussian_mixture(grid64, rng)
        path = tmp_path / "field.psqf"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == grid64
        assert np.array_equal(back.values, f.values)

    def test_binary_header_layout(self, grid64, tmp_path):
        f = PhaseField.constant(grid64)
        path = tmp_path / "field.psqf"
        write_field(f, path)
        raw = path.read_bytes()
        assert raw[:4] == b"PSQF"
        assert len(raw) == 32 + 48 + 16 * grid64.nx * grid64.np
        nx = int.from_bytes(raw[8:12], "little")
        assert nx == grid64.nx

    def test_csv_header(self, grid64, tmp_path):
        small = make_grid(4, 4, -1, 1, -1, 1, 2.0)
        f = PhaseField.constant(small, 1 + 2j)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# hbar=2 nx=4 np=4"
        assert lines[1] == "x,p,re,im"
        assert len(lines) == 2 + 16

    def test_csv_bytes_match_per_row_format(self, tmp_path):
        # axis values that need all 17 digits
        g = make_grid(8, 4, -1.1, 0.7, -3.3, 2.9, 0.5)
        vals = np.arange(32.0).reshape(8, 4) * (1.5 - 0.25j)
        vals[0, 0] = complex(-0.0, 5e-324)
        vals[3, 1] = complex(1.7e308, -0.0)
        vals[7, 3] = complex(-2.2250738585072014e-308 / 3, -1.2345678901234567e-300)
        path = tmp_path / "field.csv"
        write_field_csv(PhaseField(g, vals), path)
        X, P = g.meshes()
        want = "# hbar=0.5 nx=8 np=4\nx,p,re,im\n" + "".join(
            "%.17g,%.17g,%.17g,%.17g\n" % row
            for row in zip(X.ravel().tolist(), P.ravel().tolist(),
                           vals.real.ravel().tolist(), vals.imag.ravel().tolist()))
        assert path.read_bytes() == want.encode()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.psqf"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(PSQError, match="not a PSQF file"):
            read_field(path)

    def test_rejects_truncated_payload_and_other_version(self, grid64, tmp_path):
        path = tmp_path / "field.psqf"
        write_field(PhaseField.constant(grid64), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(PSQError, match="truncated"):
            read_field(path)
        path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
        with pytest.raises(PSQError, match="unsupported PSQF version 2"):
            read_field(path)
        # the header's sizes and grid are checked before any payload is read:
        # over one sample's payload, a 2^20 x 2^20 or 2^31 x 2^31 claim and a
        # size that is no power of two; an infinite hbar; a cut header
        for nx, npn, match in ((2 ** 20, 2 ** 20, "truncated"), (2 ** 31, 2 ** 31, "truncated"),
                               (6, 8, "power of two")):
            path.write_bytes(raw[:8] + struct.pack("<II", nx, npn) + raw[16:96])
            with pytest.raises(PSQError, match=match):
                read_field(path)
        path.write_bytes(raw[:64] + struct.pack("<d", np.inf) + raw[72:])
        with pytest.raises(PSQError, match="must be finite"):
            read_field(path)
        path.write_bytes(raw[:40])
        with pytest.raises(PSQError, match="truncated PSQF header"):
            read_field(path)


class TestPhaseFieldGuards:
    def test_shape_must_match_grid(self, grid64):
        with pytest.raises(PSQError, match="does not match grid"):
            PhaseField(grid64, np.zeros((3, 3)))

    def test_assert_finite_rejects_nan(self, grid64):
        f = PhaseField.constant(grid64)
        f.values[5, 7] = np.nan
        with pytest.raises(PSQError, match="non-finite"):
            f.assert_finite()


class TestWaveFunction:
    def test_norm_and_inner(self, grid64):
        phi = hermite_function(grid64, 0)
        psi = hermite_function(grid64, 3)
        assert abs(phi.norm() - 1.0) < 1e-12
        assert abs(phi.inner(psi)) < 1e-12
        assert abs(psi.inner(psi) - 1.0) < 1e-12

    def test_shape_validation(self, grid64):
        with pytest.raises(PSQError):
            WaveFunction(grid64, np.zeros(5))
