"""Phase-space grids, hbar-scaled Fourier transforms and quadrature.

Conventions (fixed once here, everything downstream inherits them):

* full transform      F f(xi, eta)  = (1/2 pi hbar) iint f(x, p) e^{-i(xi x - eta p)/hbar} dx dp
* inverse             F^-1 g(x, p)  = (1/2 pi hbar) iint g(xi, eta) e^{+i(xi x - eta p)/hbar} dxi deta
* partial, x axis     (x -> xi)     kernel e^{-i x xi / hbar},  prefactor 1/sqrt(2 pi hbar)
* partial, p axis     (p -> y)      kernel e^{+i y p / hbar} for the inverse direction, so that
                                    the full transform factors as (forward x) o (inverse p).

Consequences used as test oracles elsewhere: the self-dual Gaussian
e^{-(x^2+p^2)/2 hbar} is a fixed point of F, the map is unitary
(<f|g> = <Ff|Fg> with no extra constant), and derivatives map to the
multipliers (i xi/hbar)^n (-i eta/hbar)^m, which live in
:func:`spectral_derivatives` and nowhere else.

Every transform decision lives here: the phases of :func:`half_dft` and its
axis helpers, the weights of the full and partial transforms, the powers of
conjugate-lattice multipliers (``_fourier_powers``) and the shift-theorem
samples f(x + s y) (``_sheared_samples``), the maps between a sigma-field
and its configuration-space kernel (``_to_kernel``, ``_from_kernel``) with
their dense lag sums and shear geometry, its rank-one case for the twisted
tensor product (``_from_pair``), the star product's twisted convolution
on the conjugate lattice (``_twisted_convolution``), the two halves of the
mixed multiply (``_to_mixed``, ``_from_mixed``), and the circulant lag
layout of the x-axis mixed multiply's dense matrix (``_mixed_matrix``);
other modules transform through these, and no other module calls numpy.fft.

Phase tables that depend on the grid alone are built once and cached
read-only, in bounded ``lru_cache`` helpers keyed by hashable values:
``half_dft``'s pre and post phases (``_dft_phases``), and the kernel maps'
lag lattice with exp(i p y/hbar), exp(i x xi/hbar) and exp(i xi eta/hbar)
(``_kernel_phases``, keyed by the frozen grid, two entries: the two grids a
caller alternating between sizes uses).  The sigma-dependent tables (the
shear phases of ``_sheared_samples``, from ``_shear_phases``, and the
``_shear_mask`` masks) are built once per call and shared by its operands:
``_to_kernels`` maps every operand of a star product through one set, and
``pair_shear`` gives a caller one set for all the pairs it builds at one
sigma.  They are never cached past the call: sigma changes from one product
to the next, so a cache would hold entries that are never read again.

One row writer exports a field as x-major rows ``x p re im``, comma-separated
under a header (:func:`write_field_csv`) or space-separated (:func:`write_field_dat`),
each value as ``'%.17g' %`` prints it.  It formats one block of whole
x-rows (about 2,048 floats) at a time in numpy (:func:`_g17_digits`,
:func:`_g17_cells`), and leaves to '%' only NaN, infinities and values
within 2^-40 of a rounding tie (exact ties among them).

Fields are immutable values: every operation returns a new field.  A
transform writes only into a buffer it allocated itself (``half_dft``'s and
``_sheared_samples``' ``out=`` take such a buffer, so a chain of steps, as
in the kernel maps, reuses one array), never into its input, so a field's
samples are never changed under it.  Two fields interoperate only if their
grids compare equal; there is never an implicit resample.
"""

import os
import struct
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatchError, PSQError

_MAGIC = b"PSQF"
FIELD_FORMAT_VERSION = 1        # PSQF header version, recorded in every manifest
TAIL_MARGIN = 2                 # outer lattice cells counted as boundary tail


def _is_pow2(n):
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular (x, p) lattice with its conjugate lattice.

    The conjugate lattice spacings are dxi = 2 pi hbar/(nx dx) and
    deta = 2 pi hbar/(np dp); the conjugate lattices are stored centered
    (monotonically increasing, containing 0 at index n//2).
    """

    nx: int
    np: int
    x_min: float
    x_max: float
    p_min: float
    p_max: float
    hbar: float

    def __post_init__(self):
        if not _is_pow2(self.nx) or not _is_pow2(self.np):
            raise PSQError("size not a power of two: nx=%r np=%r" % (self.nx, self.np))
        if not self.hbar > 0:
            raise PSQError("hbar must be positive")
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise PSQError("empty span: require x_max > x_min and p_max > p_min")
        # an infinite bound or hbar makes a spacing infinite, as does an overflowing span
        if not np.all(np.isfinite([self.hbar, self.dx, self.dp, self.dxi, self.deta])):
            raise PSQError("hbar, the bounds and the lattice spacings must be finite")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.nx

    @property
    def dp(self):
        return (self.p_max - self.p_min) / self.np

    @property
    def dxi(self):
        return 2.0 * np.pi * self.hbar / (self.nx * self.dx)

    @property
    def deta(self):
        return 2.0 * np.pi * self.hbar / (self.np * self.dp)

    @cached_property
    def x(self):
        return self.x_min + self.dx * np.arange(self.nx)

    @cached_property
    def p(self):
        return self.p_min + self.dp * np.arange(self.np)

    @cached_property
    def xi(self):
        return (np.arange(self.nx) - self.nx // 2) * self.dxi

    @cached_property
    def eta(self):
        return (np.arange(self.np) - self.np // 2) * self.deta

    def meshes(self):
        """(X, P) coordinate matrices, shape (nx, np), x-major."""
        return np.meshgrid(self.x, self.p, indexing="ij")

    def conj_meshes(self):
        """(XI, ETA) conjugate-lattice matrices, shape (nx, np)."""
        return np.meshgrid(self.xi, self.eta, indexing="ij")


def make_grid(nx, np_, x_min, x_max, p_min, p_max, hbar):
    """Build a PhaseGrid; sizes must be powers of two and hbar > 0."""
    return PhaseGrid(int(nx), int(np_), float(x_min), float(x_max),
                     float(p_min), float(p_max), float(hbar))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def _as_complex_2d(grid, values):
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (grid.nx, grid.np):
        raise PSQError("field shape %r does not match grid (%d, %d)"
                       % (arr.shape, grid.nx, grid.np))
    return arr


class PhaseField:
    """Complex samples on a PhaseGrid, x-major: values[j, k] = f(x_j, p_k)."""

    __slots__ = ("grid", "values", "meta")

    def __init__(self, grid, values, meta=None):
        self.grid = grid
        self.values = _as_complex_2d(grid, values)
        self.meta = dict(meta) if meta else {}

    @classmethod
    def constant(cls, grid, value=1.0):
        return cls(grid, np.full((grid.nx, grid.np), value, dtype=complex))

    def copy(self):
        return PhaseField(self.grid, self.values.copy(), self.meta)

    def conj(self):
        return PhaseField(self.grid, np.conj(self.values), self.meta)

    def _merged_meta(self, other):
        """Guard flags of both operands, the larger value where both carry one."""
        _check_same_grid(self, other)
        meta = dict(other.meta)
        for key, value in self.meta.items():
            meta[key] = max(value, meta.get(key, value))
        return meta

    def __add__(self, other):
        return PhaseField(self.grid, self.values + other.values, self._merged_meta(other))

    def __sub__(self, other):
        return PhaseField(self.grid, self.values - other.values, self._merged_meta(other))

    def __mul__(self, scalar):
        return PhaseField(self.grid, self.values * scalar, self.meta)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return PhaseField(self.grid, self.values / scalar, self.meta)

    def __neg__(self):
        return PhaseField(self.grid, -self.values, self.meta)

    def assert_finite(self):
        if not np.all(np.isfinite(self.values.view(float))):
            raise PSQError("field contains non-finite samples")
        return self


class WaveFunction:
    """Complex samples on the x axis of a PhaseGrid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        arr = np.asarray(values, dtype=complex)
        if arr.shape != (grid.nx,):
            raise PSQError("wavefunction length %r does not match nx=%d"
                           % (arr.shape, grid.nx))
        self.grid = grid
        self.values = arr

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def normalized(self):
        return WaveFunction(self.grid, self.values / self.norm())

    def inner(self, other):
        _check_same_grid(self, other)
        return complex(np.sum(np.conj(self.values) * other.values) * self.grid.dx)

    def conj(self):
        return WaveFunction(self.grid, np.conj(self.values))


# ---------------------------------------------------------------------------
# hbar-scaled discrete transforms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _dft_phases(n, in0, din, out0, dout, sign, hbar):
    """The pre and post phase vectors of :func:`half_dft`, cached and read-only."""
    idx = np.arange(n)
    pre = np.exp(sign * 1j * out0 * (in0 + din * idx) / hbar)
    post = np.exp(sign * 1j * idx * dout * in0 / hbar)
    pre.flags.writeable = post.flags.writeable = False
    return pre, post


def half_dft(values, axis, in0, din, out0, dout, sign, hbar, out=None):
    """sum_j f_j exp(sign * i * out_m * in_j / hbar) along one axis.

    in_j = in0 + j*din and out_m = out0 + m*dout with n*din*dout = 2 pi hbar,
    which reduces the kernel to a plain FFT between pre/post phase factors.
    No weight is applied here; the FFT is numpy's and runs on one thread.
    The result goes into ``out`` when given (a complex array of the values'
    shape, which may be ``values`` itself: a buffer its caller owns), else
    into one new array; the phases, the FFT and the scaling all run in that
    buffer, and ``values`` is read only.
    """
    values = np.asarray(values)
    n = values.shape[axis]
    pre, post = _dft_phases(n, in0, din, out0, dout, sign, hbar)
    shape = [1] * values.ndim
    shape[axis] = n
    out = np.multiply(values, pre.reshape(shape), out=out)
    if sign < 0:
        np.fft.fft(out, axis=axis, out=out)
    else:
        np.fft.ifft(out, axis=axis, out=out)
        out *= n
    out *= post.reshape(shape)
    return out


def _fwd_x(grid, values, out=None):
    """x -> xi with kernel e^{-i x xi/hbar}; no weight."""
    return half_dft(values, 0, grid.x[0], grid.dx, grid.xi[0], grid.dxi, -1, grid.hbar, out=out)


def _inv_x(grid, values, out=None):
    """xi -> x with kernel e^{+i x xi/hbar}; no weight."""
    return half_dft(values, 0, grid.xi[0], grid.dxi, grid.x[0], grid.dx, +1, grid.hbar, out=out)


def _p_to_eta(grid, values, out=None):
    """p -> eta with kernel e^{+i eta p/hbar}; no weight."""
    return half_dft(values, 1, grid.p[0], grid.dp, grid.eta[0], grid.deta, +1, grid.hbar, out=out)


def _eta_to_p(grid, values, out=None):
    """eta -> p with kernel e^{-i eta p/hbar}; no weight."""
    return half_dft(values, 1, grid.eta[0], grid.deta, grid.p[0], grid.dp, -1, grid.hbar, out=out)


def fourier_full(field):
    """Full transform onto the centered conjugate lattice: values[k, l] =
    F f(xi_k, eta_l), in a PhaseField of the same shape with the field's flags."""
    g = field.grid
    out = _fwd_x(g, field.values)
    _p_to_eta(g, out, out=out)
    out *= g.dx * g.dp / (2.0 * np.pi * g.hbar)
    return PhaseField(g, out, field.meta)


def fourier_full_inverse(field):
    """Inverse of :func:`fourier_full`: conjugate-lattice samples back to
    (x, p), with the field's guard flags."""
    g = field.grid
    out = _inv_x(g, field.values)
    _eta_to_p(g, out, out=out)
    out *= g.dxi * g.deta / (2.0 * np.pi * g.hbar)
    return PhaseField(g, out, field.meta)


# (axis, direction) -> (half transform, spacing of its input lattice): one
# weighted fourier_partial step
_HALF = {("x", "forward"): (_fwd_x, "dx"), ("x", "inverse"): (_inv_x, "dxi"),
         ("p", "inverse"): (_p_to_eta, "dp"), ("p", "forward"): (_eta_to_p, "deta")}
# axis -> (out of the sample lattice, back onto it): multiply_mixed's round trip
_MIXED = {"x": (_fwd_x, _inv_x), "p": (_p_to_eta, _eta_to_p)}


def fourier_partial(field, axis, direction):
    """Single-axis hbar-scaled transform (mixed representations).

    axis='x': forward maps x to its conjugate variable, inverse maps back.
    axis='p': 'inverse' maps p to the shift variable y (kernel e^{+i y p/hbar}),
    'forward' maps y back to p, so that full = (x forward) o (p inverse).
    Returned values live on the mixed-representation lattice and, as with
    the full transforms, are carried in a PhaseField of the same shape with
    the field's guard flags.
    """
    if axis not in ("x", "p"):
        raise PSQError("axis must be 'x' or 'p'")
    if direction not in ("forward", "inverse"):
        raise PSQError("direction must be 'forward' or 'inverse'")
    g = field.grid
    transform, spacing = _HALF[axis, direction]
    out = transform(g, field.values)
    out *= getattr(g, spacing) / np.sqrt(2.0 * np.pi * g.hbar)
    return PhaseField(g, out, field.meta)


def multiply_mixed(grid, values, axis, profile):
    """Multiply samples by a profile in a mixed representation and map back.

    axis='x' multiplies on the (u, p) lattice (x -> u, multiply, u -> x);
    axis='p' multiplies on the (x, y) lattice (p -> y, multiply, y -> p).
    The sqrt(2 pi hbar) weights of :func:`fourier_partial` cancel on the
    round trip, leaving 1/n.  Only axis 0 (x) or axis 1 (p) is transformed,
    so any array whose x or p axis sits there may be passed.  It runs
    :func:`_to_mixed` then :func:`_from_mixed`; a caller multiplying one
    operand by several profiles runs the first half once.
    """
    if axis not in ("x", "p"):
        raise PSQError("axis must be 'x' or 'p'")
    return _from_mixed(grid, _to_mixed(grid, values, axis), axis, profile)


def _to_mixed(grid, values, axis, out=None):
    """The samples on an axis's mixed lattice, unweighted (into ``out`` when given)."""
    return _MIXED[axis][0](grid, values, out=out)


def _from_mixed(grid, mixed, axis, profile):
    """Mixed-lattice samples times the profile, mapped back in the product's
    own buffer and divided by n."""
    work = mixed * profile
    out = _MIXED[axis][1](grid, work, out=work)
    out /= grid.nx if axis == "x" else grid.np
    return out


def _mixed_matrix(grid, profile):
    """Dense matrix C of the x-axis mixed multiply: C @ v is
    multiply_mixed(grid, v, "x", profile) for a vector v on the x axis.

    Its kernel (1/nx) sum_m b(u_m) e^{i (x_j - x_k) u_m / hbar} depends on
    j - k mod nx alone, because the conjugate lattice is centred
    (u_0 dx / hbar = -pi, with nx even or 1), so C is circulant.  One column
    goes through the mixed multiply, and C[j, k] = c[(j - k) mod nx] is a
    read-only strided view of it, with no nx x nx copy.
    """
    e0 = np.zeros(grid.nx)
    e0[0] = 1.0
    c = multiply_mixed(grid, e0, "x", profile)
    return sliding_window_view(np.concatenate((c[1:], c)), grid.nx)[:, ::-1]


def _fourier_powers(field, shifts, orders):
    """Yield ((r, s), i, F^-1[m_x^r m_p^s F f]) for each requested order, in
    sorted order, and each multiplier pair (m_x, m_p) = shifts[i].

    The multipliers live on the conjugate lattice (any shapes that broadcast
    to it).  One full transform of the field, made at the first nonzero
    order, serves every pair; each inverse is made when it is yielded, so a
    caller that sums them holds one at a time.  The order (0, 0) yields the
    samples themselves.
    """
    spectrum = None
    for r, s in sorted(set(orders)):
        if (r, s) != (0, 0) and spectrum is None:
            spectrum = fourier_full(field).values
        for i, (m_x, m_p) in enumerate(shifts):
            if (r, s) == (0, 0):
                yield (r, s), i, field.values
            else:
                mult = PhaseField(field.grid, spectrum * m_x ** r * m_p ** s)
                yield (r, s), i, fourier_full_inverse(mult).values


def spectral_derivatives(field, orders):
    """{(r, s): d_x^r d_p^s field values} for each requested order: the
    multipliers (i xi/hbar)^r (-i eta/hbar)^s through :func:`_fourier_powers`."""
    g = field.grid
    shift = (1j * g.xi[:, None] / g.hbar, -1j * g.eta[None, :] / g.hbar)
    return {rs: values for rs, _i, values in _fourier_powers(field, [shift], orders)}


def _shear_phases(grid, scale, y):
    """The shift-theorem table exp(i scale xi y/hbar) (nx x len(y)) of
    :func:`_sheared_samples`, read-only, so that the operands of one call share it."""
    phases = np.exp(1j * scale * np.outer(grid.xi, y) / grid.hbar)
    phases.flags.writeable = False
    return phases


def _sheared_samples(grid, coeffs, phases, out=None):
    """Samples f(x_j + scale * y_l) on the (x, y) lattice, by shift theorem,
    with phases = _shear_phases(grid, scale, y).

    coeffs: interpolation coefficients of f (nx,), or of one f per y (nx, len(y)).
    The samples go into ``out`` when given (a complex (nx, len(y)) buffer its
    caller owns, which may be ``coeffs`` itself), else into one new array.
    """
    work = np.multiply(coeffs.reshape(grid.nx, -1), phases, out=out)
    return _inv_x(grid, work, out=work)


def _shear_mask(grid, sigma, y):
    """Points (x_j, y_l) whose kernel arguments x - sigmabar y and x + sigma y
    lie in the span, with |y| within the shift lattice's half period."""
    mask = np.abs(y)[None, :] <= -grid.eta[0]
    for scale in (sigma, sigma - 1.0):
        arg = grid.x[:, None] + scale * y[None, :]
        mask = mask & (arg >= grid.x_min) & (arg < grid.x_min + grid.nx * grid.dx)
    return mask


def _share(weight, mask):
    return float(weight[mask].sum() / max(weight.sum(), 1e-300))


@lru_cache(maxsize=2)
def _kernel_phases(grid):
    """The kernel maps' phase tables that depend on the grid alone, cached and
    read-only: the lags y_d = d dx (d in [1 - nx, nx - 1]), exp(i p y_d/hbar)
    (np x (2 nx - 1)), exp(i x xi/hbar) (nx x nx) and exp(i xi eta/hbar)
    (nx x np).  Two entries hold the two grids an alternating caller uses."""
    y = grid.dx * np.arange(1 - grid.nx, grid.nx)
    tables = (y, np.exp(1j * np.outer(grid.p, y) / grid.hbar),
              np.exp(1j * np.outer(grid.x, grid.xi) / grid.hbar),
              np.exp(1j * np.outer(grid.xi, grid.eta) / grid.hbar))
    for table in tables:
        table.flags.writeable = False
    return tables


def _to_kernel(values, sigma, grid):
    """Kernel K[i, k] of a sigma-field's values, and its lost mass: chi at the
    lags y_d = d dx by one dense p -> y sum (a periodic image, zeroed, past the
    half period) and a sigmabar y_d shift along x that puts K[i, i + d] in
    column d.  The lost mass is the out-of-span mass (|chi|^2 outside
    :func:`_shear_mask`) plus the aliased mass (the values' |x-transform|^2 at
    the (xi, p) whose kernel momenta p + sigmabar xi or p - sigma xi pass the
    x lattice's Nyquist pi hbar / dx)."""
    return _to_kernels((values,), sigma, grid)[0]


def _to_kernels(operands, sigma, grid):
    """[(K, lost)] of :func:`_to_kernel` for each operand's values at one sigma:
    the shear table and the masks are built once and read by every operand,
    each of which still takes one p -> y product and one transform."""
    n, nyquist = grid.nx, -grid.xi[0]
    y, lag_phases = _kernel_phases(grid)[:2]
    xi, p = grid.xi[:, None], grid.p[None, :]
    aliased = (np.abs(p + (1.0 - sigma) * xi) > nyquist) | (np.abs(p - sigma * xi) > nyquist)
    outside = ~_shear_mask(grid, sigma, y)
    phases = _shear_phases(grid, 1.0 - sigma, y)
    i = np.arange(n)
    rows, cols = i[:, None], i[None, :] - i[:, None] + n - 1
    weights = (np.abs(y) <= -grid.eta[0]) * (grid.dp / np.sqrt(2.0 * np.pi * grid.hbar))
    kernels = []
    for values in operands:
        chi = values @ lag_phases
        chi *= weights
        lost = (_share(np.abs(chi) ** 2, outside)
                + _share(np.abs(_fwd_x(grid, values)) ** 2, aliased))
        _fwd_x(grid, chi, out=chi)
        chi /= n
        shifted = _sheared_samples(grid, chi, phases, out=chi)
        kernels.append((shifted[rows, cols], lost))
    return kernels


def _from_kernel(K, sigma, grid):
    """The sigma-field values of a kernel, :func:`_to_kernel` inverted: its rows
    read at the lags, H[i, l] = K(x_i, x_i + eta_l) (zero past the span), and a
    -sigmabar eta_l shift along x give chi on the (x, eta) lattice, whose
    p-sum is exactly tr K."""
    n, eta = grid.nx, grid.eta
    row_phases, col_phases = _kernel_phases(grid)[2:]
    rows = _fwd_x(grid, K.T).T
    rows /= n
    rows *= row_phases
    H = rows @ col_phases
    del rows                                   # the nx x nx buffer goes before the masks
    H *= _shear_mask(grid, 1.0, eta)
    _fwd_x(grid, H, out=H)
    H /= n
    chi = _sheared_samples(grid, H, _shear_phases(grid, sigma - 1.0, eta), out=H)
    chi *= _shear_mask(grid, sigma, eta)
    return fourier_partial(PhaseField(grid, chi), "p", "forward").values


def _interpolation_tail(coeffs):
    """Relative weight of the outermost interpolation modes."""
    mags = np.abs(coeffs)
    peak, edge = mags.max(), max(mags[:2].max(), mags[-2:].max())
    return float(edge / peak) if peak != 0.0 else 0.0


PairShear = namedtuple("PairShear", "grid sigma left right mask")


def pair_shear(grid, sigma):
    """The sigma tables of :func:`_from_pair` on the grid, read-only: the shear
    phases that read a trig interpolant at x - sigmabar eta (``left``) and
    x + sigma eta (``right``), and :func:`_shear_mask` at y = eta (``mask``).
    A caller that makes several pairs at one sigma builds them once and shares
    them for the length of that call (sigma changes from one call to the
    next, so nothing caches them)."""
    mask = _shear_mask(grid, sigma, grid.eta)
    mask.flags.writeable = False
    return PairShear(grid, sigma, _shear_phases(grid, -(1.0 - sigma), grid.eta),
                     _shear_phases(grid, sigma, grid.eta), mask)


def _from_pair(phi, psi, shear):
    """:func:`_from_kernel` of the rank-one kernel conj(phi) (x) psi, and the pair's
    interpolation tail: both trig interpolants sum_m c_m e^{i xi_m x/hbar} read at
    x - sigmabar y and x + sigma y inside :func:`_shear_mask`, then y -> p, with
    the sigma tables of ``shear`` (from :func:`pair_shear`)."""
    grid = shear.grid
    cp, cs = (_fwd_x(grid, f) / grid.nx for f in (phi, psi))
    chi = _sheared_samples(grid, cp, shear.left)                    # x - sigmabar y
    np.conj(chi, out=chi)
    chi *= _sheared_samples(grid, cs, shear.right)
    chi *= shear.mask
    values = fourier_partial(PhaseField(grid, chi), "p", "forward").values
    return values, max(_interpolation_tail(cp), _interpolation_tail(cs))


def _twisted_convolution(Ff, Fg, xi, eta, sigma, hbar):
    """F(f*g) on the centered lattice via the exact on-lattice phase sum.

    F(f*g)(xi_m, eta_l) = (dxi deta / 2 pi hbar) *
        sum_{m', l'} Ff[m', l'] Fg[m-m'+nx/2, l-l'+np/2]
            exp(i/hbar [sigma xi' (eta-eta') - sigmabar (xi-xi') eta'])

    Out-of-lattice differences contribute zero (no folding), so the Fg rows
    are transformed once and each m' forms only the rows m whose partner row
    m-m'+nx/2 is on the lattice; accuracy is governed by the operands'
    spectral tails, not by aliasing.
    """
    nx, npn = Ff.shape
    sb = 1.0 - sigma
    # rows of 1.5 npn (Fg) and npn (D), read at [npn, 2 npn): 3 npn never wraps
    L = 3 * npn
    G = np.fft.fft(np.pad(Fg, ((0, 0), (npn // 2, 0))), L, axis=1)
    B = np.exp(-1j * sb * np.outer(xi, eta) / hbar)          # (m, l')
    out = np.zeros((nx, npn), dtype=complex)
    h = nx // 2
    for mp in range(nx):
        lo, hi = max(0, mp - h), min(nx, mp - h + nx)         # partner rows on the lattice
        A = Ff[mp, :] * np.exp(1j * (sb - sigma) * xi[mp] * eta / hbar)
        D = A[None, :] * B[lo:hi]                             # (m, l')
        conv = np.fft.ifft(np.fft.fft(D, L, axis=1) * G[lo - mp + h: hi - mp + h],
                           axis=1)[:, npn:2 * npn]
        out[lo:hi] += np.exp(1j * sigma * xi[mp] * eta / hbar)[None, :] * conv
    out *= (xi[1] - xi[0]) * (eta[1] - eta[0]) / (2.0 * np.pi * hbar)
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(field):
    """Rectangle-rule iint f dx dp."""
    g = field.grid
    return complex(field.values.sum() * g.dx * g.dp)


def l2_inner(f, g_field):
    """<f|g> = iint conj(f) g dx dp (conjugate-linear in the first slot)."""
    _check_same_grid(f, g_field)
    g = f.grid
    return complex(np.sum(np.conj(f.values) * g_field.values) * g.dx * g.dp)


def l2_norm(field):
    g = field.grid
    return float(np.sqrt(np.sum(np.abs(field.values) ** 2) * g.dx * g.dp))


def boundary_tail_mass(field):
    """Fraction of |f|^2 mass in the outer TAIL_MARGIN cells of the lattice."""
    v = np.abs(field.values) ** 2
    total = v.sum()
    if total == 0.0:
        return 0.0
    inner = v[TAIL_MARGIN:-TAIL_MARGIN, TAIL_MARGIN:-TAIL_MARGIN].sum()
    return float((total - inner) / total)


# ---------------------------------------------------------------------------
# serialization: flat binary container, CSV and .dat export
# ---------------------------------------------------------------------------

def write_field(field, path):
    """Write the PSQF flat binary container.

    Layout: 32-byte header (magic 'PSQF', version u32, nx u32, np u32,
    16 reserved zero bytes), then 6 little-endian f64
    (x_min, x_max, p_min, p_max, hbar, reserved), then nx*np complex
    samples as interleaved f64 pairs, x-major.
    """
    g = field.grid
    header = _MAGIC + struct.pack("<III", FIELD_FORMAT_VERSION, g.nx, g.np) + b"\x00" * 16
    doubles = struct.pack("<6d", g.x_min, g.x_max, g.p_min, g.p_max, g.hbar, 0.0)
    data = np.ascontiguousarray(field.values, dtype=np.complex128)
    if not np.little_endian:  # pragma: no cover
        data = data.byteswap()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(doubles)
        fh.write(data.tobytes(order="C"))


def read_field(path):
    """Read a PSQF container written by :func:`write_field`."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:4] != _MAGIC:
            raise PSQError("not a PSQF file: %s" % path)
        version, nx, npn = struct.unpack("<III", header[4:16])
        if version != FIELD_FORMAT_VERSION:
            raise PSQError("unsupported PSQF version %d" % version)
        doubles = fh.read(48)
        if len(doubles) != 48:
            raise PSQError("truncated PSQF header in %s" % path)
        # the header's grid is checked before its payload size is trusted
        grid = make_grid(nx, npn, *struct.unpack("<6d", doubles)[:5])
        size = 16 * nx * npn
        if os.fstat(fh.fileno()).st_size - fh.tell() < size:
            raise PSQError("truncated PSQF payload in %s" % path)
        raw = fh.read(size)
    vals = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(nx, npn)
    return PhaseField(grid, vals)


# ---------------------------------------------------------------------------
# text rows: '%.17g' formatted in numpy
# ---------------------------------------------------------------------------

_POW10_MIN, _POW10_MAX = -300, 350  # k of the 10^k table; |v| 10^(16 - X) needs -293..341
_TIE_BAND = 2.0 ** -40              # a fraction of y this close to 1/2 goes to '%'
_BLOCK = 2048                       # float values formatted per block of whole x-rows


@lru_cache(maxsize=1)
def _g17_tables():
    """The tables of :func:`_g17_cells`, built on first use.

    10^k = (hi + lo) 2^b for k in [_POW10_MIN, _POW10_MAX], hi in [1, 2] and
    |lo| <= 2^-53, from Python integers (1/10^n truncated 130 bits past its
    leading one), hi Veltkamp-split into 26-bit halves.  ``last[j][g]`` is
    the number of significant digits D has when its group j + 1 (of four
    digits each, after the lead digit) is g and the later groups are zero.
    Cell words: the four digits of g in the digit slots, trailing zeros
    dropped (``quads[g]``) or kept (``quads[10000 + g]``); the sign, "0.000"
    prefix and lead digit; the exponent X ("e+XX", "e-XXX", none for fixed
    notation) at X + 400; and the masks of the digit words keeping the first
    u digits of D."""
    hi, lo, b = [], [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        t = 0 if k >= 0 else (10 ** -k).bit_length() + 130
        n = 10 ** k if k >= 0 else (1 << t) // 10 ** -k
        shift = n.bit_length() - 53
        top = (n + (1 << (shift - 1))) >> shift if shift > 0 else n << -shift
        hi.append(top / 2.0 ** 52)
        lo.append((n - (top << shift) if shift > 0 else 0) / (1 << (shift + 52)))
        b.append(shift + 52 - t)
    hi = np.array(hi)
    c = hi * 134217729.0
    hi_hi = c - (c - hi)

    g = np.arange(10000, dtype=np.int32)
    digits = np.empty((10000, 4), np.uint8)
    tail = np.zeros(10000, np.uint8)             # place of the last non-zero digit, 1-4
    for i, p in enumerate((1000, 100, 10, 1)):
        digits[:, i] = g // p % 10
        tail[digits[:, i] != 0] = i + 1
    last = np.stack([(tail + 1 + 4 * j) * (tail > 0) for j in range(4)]).astype(np.uint8)
    quads = np.zeros((2, 10000, 8), np.uint8)
    quads[:, :, ::2] = digits + 48
    quads[0, :, ::2] *= np.arange(4) < tail[:, None]
    head = np.zeros((2, 5, 10, 8), np.uint8)     # sign, -X of a 0.000 prefix, lead digit
    head[1, ..., 0] = ord("-")
    for z in range(1, 5):
        head[:, z, :, 1:2 + z] = np.frombuffer(b"0." + b"0" * (z - 1), np.uint8)
    head[..., 6] = 48 + np.arange(10)
    expo = np.frombuffer(b"".join(bytes(8) if -4 <= x < 17 else (b"e%+03d" % x).ljust(8, b"\0")
                                  for x in range(-400, 400)), np.uint8)
    keep = np.zeros((18, 16, 2), np.uint8)
    keep[:, :, 0] = np.where(np.arange(1, 17) < np.arange(18)[:, None], 255, 0)
    tables = (hi, hi_hi, hi - hi_hi, np.array(lo), np.array(b, dtype=np.int32), last,
              *(t.view(np.uint64).ravel() for t in (quads, head, expo)),
              keep.reshape(18, 32).view(np.uint64))
    for table in tables:
        table.flags.writeable = False
    return tables


def _g17_digits(v):
    """The digits of ``'%.17g' % v`` for every float64 in the 1-D array v:
    D (int64, 17 correctly rounded digits, 0 for +-0), the decimal exponent
    X (int32, |v| ~ D 10^(X - 16)), and the mask of the values that
    :func:`_g17_cells` formats with '%' instead.

    D and X come from y = |v| 10^(16 - X) in [1e16 - 1/64, 1e17), X from
    log10 and corrected until y lies there (below 1e16, y and 10 y round to
    the same digits).  With |v| = M 2^(e - 53) (M the 53-bit mantissa) and
    10^k = T 2^b, y = M T 2^s.  Dekker's product gives M hi exactly; M lo
    (< 1) and its sum with the product's error (< 2) are rounded once each
    (2^-54, 2^-53), T - hi - lo contributes M (2^-107 + 2^-129) < 2^-54 +
    2^-76, and 2^s <= 16, so the fraction of y is known to within 2^-47.  D
    rounds y to nearest.  A fraction within _TIE_BAND = 2^-40 of 1/2 (exact
    ties among them, which C rounds half to even), NaN and +-inf are marked
    for '%'."""
    hi, hi_hi, hi_lo, lo, b = _g17_tables()[:5]
    n = len(v)
    a = np.abs(v)
    finite, zero = np.isfinite(a), a == 0.0
    a[~finite | zero] = 1.0
    f, e = np.frexp(a)
    m = f * 2.0 ** 53
    c = m * 134217729.0
    m_hi = c - (c - m)
    m_lo = m - m_hi
    X = np.floor(np.log10(a)).astype(np.int32)
    y_hi, y_lo = np.empty(n), np.empty(n)
    todo = slice(None)
    while True:
        j = 16 - X[todo] - _POW10_MIN
        mh, ml, mt = m_hi[todo], m_lo[todo], m[todo]
        prod = mt * hi[j]
        err = ((mh * hi_hi[j] - prod) + mh * hi_lo[j] + ml * hi_hi[j]) + ml * hi_lo[j]
        s = e[todo] - 53 + b[j]
        y_hi[todo], y_lo[todo] = np.ldexp(prod, s), np.ldexp(err + mt * lo[j], s)
        # y_hi is an integer near 1e16 or 1e17, so each difference is exact; a
        # y just under 1e16 rounds up to it, as 10 y would to 1e17
        low = (y_hi[todo] - 1e16) + y_lo[todo] < -1 / 64
        high = (y_hi[todo] - 1e17) + y_lo[todo] >= 0
        if not (low.any() or high.any()):
            break
        X[todo] += high.astype(np.int32) - low
        todo = np.arange(n)[todo][low | high]
    floor = np.floor(y_lo)
    frac = y_lo - floor
    D = y_hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    D[zero] = 0
    X[zero] = 0
    return D, X, ~finite | (np.abs(frac - 0.5) < _TIE_BAND)


def _g17_cells(v):
    """``'%.17g' % v`` of every float64 in the 1-D array v, byte for byte, as
    one row of six uint64 words (48 bytes) per value: its ASCII characters in
    order, with zero bytes in the slots it leaves empty (sign, "0.000" prefix,
    17 digits each followed by a dot slot, "e+XXX").  Bytes 45-47 are zero.
    D and X come from :func:`_g17_digits`; the values it marks are
    formatted by '%' instead."""
    last, quads, head, expo, keep = _g17_tables()[5:]
    D, X, odd = _g17_digits(v)
    n = len(v)
    lead = D // 10 ** 16
    rest = D - lead * 10 ** 16
    top = rest // 10 ** 8
    bottom = rest - top * 10 ** 8
    groups = (top // 10000, top % 10000, bottom // 10000, bottom % 10000)
    sig = np.maximum(np.maximum(last[0][groups[0]], last[1][groups[1]]),
                     np.maximum(last[2][groups[2]], last[3][groups[3]]))
    np.maximum(sig, 1, out=sig)
    cells = np.empty((n, 6), np.uint64)
    for w, g in enumerate(groups):
        # groups before the last non-zero one keep their trailing zeros
        cells[:, 1 + w] = quads[g + 10000 * (sig > 4 * w + 5)]
    fixed = (X >= -4) & (X < 17)
    small = fixed & (X < 0)
    cells[:, 0] = head[50 * np.signbit(v) + 10 * np.where(small, -X, 0) + lead]
    cells[:, 5] = expo[X + 400]
    point = np.where(fixed, X, 0)
    dotted = np.flatnonzero((sig > point + 1) & ~small)
    cells.view(np.uint8).ravel()[48 * dotted + 7 + 2 * point[dotted]] = 46
    # fixed notation keeps the integer part's zeros: 1e16 -> 10000000000000000
    pad = np.flatnonzero(fixed & (X >= sig))
    if len(pad):
        full = np.stack([g[pad] for g in groups], axis=1) + 10000
        cells[pad, 1:5] = quads[full] & keep[X[pad] + 1]
    for i in np.flatnonzero(odd):
        text = b"%.17g" % v[i]
        cells[i] = 0
        cells.view(np.uint8)[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _axis_cells(axis, sep):
    """The '%.17g' cells of a grid axis, sep in byte 47, all-zero words dropped."""
    cells = _g17_cells(axis)
    cells.view(np.uint8)[:, 47] = sep
    return cells[:, cells.any(axis=0)]


def _write_rows(field, path, sep, header):
    """The header, then x-major rows x, p, re, im as '%.17g' joined by sep.

    The x and p strings are formatted once per axis, the values in blocks of
    whole x-rows, about _BLOCK floats each; a block's lines are laid out as
    one zero-padded byte matrix, and its non-zero bytes are written."""
    g = field.grid
    sep = ord(sep)
    xs, ps = _axis_cells(g.x, sep), _axis_cells(g.p, sep)
    wx, wxp = xs.shape[1], xs.shape[1] + ps.shape[1]
    values = np.ascontiguousarray(field.values, dtype=np.complex128)
    step = max(1, _BLOCK // (2 * g.np))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for j in range(0, g.nx, step):
            block = values[j:j + step]
            lines = np.empty((len(block), g.np, wxp + 12), np.uint64)
            lines[:, :, :wx] = xs[j:j + step, None]
            lines[:, :, wx:wxp] = ps
            cells = _g17_cells(block.view(np.float64).ravel())
            pairs = cells.view(np.uint8).reshape(-1, 2, 48)
            pairs[:, 0, 47] = sep
            pairs[:, 1, 47] = 10
            lines[:, :, wxp:] = cells.reshape(len(block), g.np, 12)
            fh.write(lines.tobytes().translate(None, b"\0"))


def write_field_csv(field, path):
    """CSV export: columns x,p,re,im with a comment header."""
    g = field.grid
    _write_rows(field, path, ",", "# hbar=%.17g nx=%d np=%d\nx,p,re,im\n" % (g.hbar, g.nx, g.np))


def write_field_dat(field, path):
    """gnuplot-friendly export: the CSV's data rows, space-separated, no header."""
    _write_rows(field, path, " ", "")
