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
samples f(x + s y) (``_sheared_samples``), and the maps between a sigma-field
and its configuration-space kernel (``_to_kernel``, ``_from_kernel``) with
their dense lag sums and shear geometry; other modules transform through
these.

Fields are immutable values: every operation returns a new field.  Two
fields interoperate only if their grids compare equal; there is never an
implicit resample.
"""

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft as sp_fft

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


class SpectralField:
    """Complex samples on the centered conjugate lattice (xi_k, eta_l)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _as_complex_2d(grid, values)


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


def half_dft(values, axis, in0, din, out0, dout, sign, hbar):
    """sum_j f_j exp(sign * i * out_m * in_j / hbar) along one axis.

    in_j = in0 + j*din and out_m = out0 + m*dout with n*din*dout = 2 pi hbar,
    which reduces the kernel to a plain FFT between pre/post phase factors.
    No weight is applied here, and the FFT uses scipy.fft's worker setting.
    """
    values = np.asarray(values, dtype=complex)
    n = values.shape[axis]
    pre, post = _dft_phases(n, in0, din, out0, dout, sign, hbar)
    shape = [1] * values.ndim
    shape[axis] = n
    a = values * pre.reshape(shape)
    if sign < 0:
        A = sp_fft.fft(a, axis=axis)
    else:
        A = sp_fft.ifft(a, axis=axis) * n
    return A * post.reshape(shape)


def _fwd_x(grid, values):
    """x -> xi with kernel e^{-i x xi/hbar}; no weight."""
    return half_dft(values, 0, grid.x[0], grid.dx, grid.xi[0], grid.dxi, -1, grid.hbar)


def _inv_x(grid, values):
    """xi -> x with kernel e^{+i x xi/hbar}; no weight."""
    return half_dft(values, 0, grid.xi[0], grid.dxi, grid.x[0], grid.dx, +1, grid.hbar)


def _p_to_eta(grid, values):
    """p -> eta with kernel e^{+i eta p/hbar}; no weight."""
    return half_dft(values, 1, grid.p[0], grid.dp, grid.eta[0], grid.deta, +1, grid.hbar)


def _eta_to_p(grid, values):
    """eta -> p with kernel e^{-i eta p/hbar}; no weight."""
    return half_dft(values, 1, grid.eta[0], grid.deta, grid.p[0], grid.dp, -1, grid.hbar)


def fourier_full(field):
    """Full transform PhaseField -> SpectralField on the centered lattice."""
    g = field.grid
    out = _fwd_x(g, field.values)
    out = _p_to_eta(g, out)
    out *= g.dx * g.dp / (2.0 * np.pi * g.hbar)
    return SpectralField(g, out)


def fourier_full_inverse(sfield):
    """Inverse of :func:`fourier_full`."""
    g = sfield.grid
    out = _inv_x(g, sfield.values)
    out = _eta_to_p(g, out)
    out *= g.dxi * g.deta / (2.0 * np.pi * g.hbar)
    return PhaseField(g, out)


# (axis, direction) -> (half transform, spacing of its input lattice): one
# weighted fourier_partial step; multiply_mixed runs an axis's pair out of the
# sample lattice and back
_HALF = {("x", "forward"): (_fwd_x, "dx"), ("x", "inverse"): (_inv_x, "dxi"),
         ("p", "inverse"): (_p_to_eta, "dp"), ("p", "forward"): (_eta_to_p, "deta")}
_OUT_AND_BACK = {"x": ("forward", "inverse"), "p": ("inverse", "forward")}


def fourier_partial(field, axis, direction):
    """Single-axis hbar-scaled transform (mixed representations).

    axis='x': forward maps x to its conjugate variable, inverse maps back.
    axis='p': 'inverse' maps p to the shift variable y (kernel e^{+i y p/hbar}),
    'forward' maps y back to p, so that full = (x forward) o (p inverse).
    Returned values live on the mixed-representation lattice but are carried
    in a PhaseField of the same shape, with the field's guard flags.
    """
    if axis not in ("x", "p"):
        raise PSQError("axis must be 'x' or 'p'")
    if direction not in ("forward", "inverse"):
        raise PSQError("direction must be 'forward' or 'inverse'")
    g = field.grid
    transform, spacing = _HALF[axis, direction]
    out = transform(g, field.values) * (getattr(g, spacing) / np.sqrt(2.0 * np.pi * g.hbar))
    return PhaseField(g, out, field.meta)


def multiply_mixed(grid, values, axis, profile):
    """Multiply samples by a profile in a mixed representation and map back.

    axis='x' multiplies on the (u, p) lattice (x -> u, multiply, u -> x);
    axis='p' multiplies on the (x, y) lattice (p -> y, multiply, y -> p).
    The sqrt(2 pi hbar) weights of :func:`fourier_partial` cancel on the
    round trip, leaving 1/n.  Only axis 0 (x) or axis 1 (p) is transformed,
    so any array whose x or p axis sits there may be passed.
    """
    if axis not in ("x", "p"):
        raise PSQError("axis must be 'x' or 'p'")
    (there, _), (back, _) = (_HALF[axis, d] for d in _OUT_AND_BACK[axis])
    out = back(grid, there(grid, values) * profile)
    out /= grid.nx if axis == "x" else grid.np
    return out


def _fourier_powers(field, m_x, m_p, orders):
    """{(r, s): F^-1[m_x^r m_p^s F f]} for each requested order.

    m_x and m_p are multipliers on the conjugate lattice (any shapes that
    broadcast to it).  One full transform of the field, then one inverse per
    distinct nonzero order; the order (0, 0) returns the samples themselves.
    """
    wanted = set(orders)
    out = {(0, 0): field.values} if (0, 0) in wanted else {}
    wanted.discard((0, 0))
    if wanted:
        spectrum = fourier_full(field).values
        for r, s in sorted(wanted):
            mult = SpectralField(field.grid, spectrum * m_x ** r * m_p ** s)
            out[(r, s)] = fourier_full_inverse(mult).values
    return out


def spectral_derivatives(field, orders):
    """{(r, s): d_x^r d_p^s field values} for each requested order: the
    multipliers (i xi/hbar)^r (-i eta/hbar)^s through :func:`_fourier_powers`."""
    g = field.grid
    return _fourier_powers(field, 1j * g.xi[:, None] / g.hbar, -1j * g.eta[None, :] / g.hbar,
                           orders)


def _sheared_samples(grid, coeffs, scale, y):
    """Samples f(x_j + scale * y_l) on the (x, y) lattice, by shift theorem.

    coeffs: interpolation coefficients of f (nx,), or of one f per y (nx, len(y)).
    """
    phases = np.exp(1j * scale * np.outer(grid.xi, y) / grid.hbar)
    return _inv_x(grid, coeffs.reshape(grid.nx, -1) * phases)


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


def _to_kernel(values, sigma, grid):
    """Kernel K[i, k] of a sigma-field's values, and its lost mass: chi at the
    lags y_d = d dx by one dense p -> y sum (a periodic image, zeroed, past the
    half period) and a sigmabar y_d shift along x that puts K[i, i + d] in
    column d.  The lost mass is the out-of-span mass (|chi|^2 outside
    :func:`_shear_mask`) plus the aliased mass (the values' |x-transform|^2 at
    the (xi, p) whose kernel momenta p + sigmabar xi or p - sigma xi pass the
    x lattice's Nyquist pi hbar / dx)."""
    n, nyquist = grid.nx, -grid.xi[0]
    y = grid.dx * np.arange(1 - n, n)
    chi = values @ np.exp(1j * np.outer(grid.p, y) / grid.hbar)
    chi *= (np.abs(y) <= -grid.eta[0]) * (grid.dp / np.sqrt(2.0 * np.pi * grid.hbar))
    xi, p = grid.xi[:, None], grid.p[None, :]
    aliased = (np.abs(p + (1.0 - sigma) * xi) > nyquist) | (np.abs(p - sigma * xi) > nyquist)
    lost = (_share(np.abs(chi) ** 2, ~_shear_mask(grid, sigma, y))
            + _share(np.abs(_fwd_x(grid, values)) ** 2, aliased))
    shifted = _sheared_samples(grid, _fwd_x(grid, chi) / n, 1.0 - sigma, y)
    i = np.arange(n)
    return shifted[i[:, None], i[None, :] - i[:, None] + n - 1], lost


def _from_kernel(K, sigma, grid):
    """The sigma-field values of a kernel, :func:`_to_kernel` inverted: its rows
    read at the lags, H[i, l] = K(x_i, x_i + eta_l) (zero past the span), and a
    -sigmabar eta_l shift along x give chi on the (x, eta) lattice, whose
    p-sum is exactly tr K."""
    n, eta = grid.nx, grid.eta
    rows = _fwd_x(grid, K.T).T / n * np.exp(1j * np.outer(grid.x, grid.xi) / grid.hbar)
    H = rows @ np.exp(1j * np.outer(grid.xi, eta) / grid.hbar) * _shear_mask(grid, 1.0, eta)
    chi = _sheared_samples(grid, _fwd_x(grid, H) / n, sigma - 1.0, eta) * _shear_mask(grid, sigma, eta)
    return fourier_partial(PhaseField(grid, chi), "p", "forward").values


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
# serialization: flat binary container and CSV export
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
        x_min, x_max, p_min, p_max, hbar, _ = struct.unpack("<6d", fh.read(48))
        raw = fh.read(16 * nx * npn)
    if len(raw) != 16 * nx * npn:
        raise PSQError("truncated PSQF payload in %s" % path)
    grid = make_grid(nx, npn, x_min, x_max, p_min, p_max, hbar)
    vals = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(nx, npn)
    return PhaseField(grid, vals)


def write_field_csv(field, path):
    """CSV export: columns x,p,re,im with a comment header."""
    g = field.grid
    v = field.values
    xs, ps = (["%.17g," % a for a in axis.tolist()] for axis in (g.x, g.p))
    vals = map("%.17g,%.17g\n".__mod__, zip(v.real.ravel().tolist(), v.imag.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("# hbar=%.17g nx=%d np=%d\nx,p,re,im\n" % (g.hbar, g.nx, g.np))
        fh.writelines(x + p + next(vals) for x in xs for p in ps)
