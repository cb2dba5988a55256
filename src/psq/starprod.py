"""Numerical star products on sampled fields.

Three computational routes, cross-checked in the test suite:

* ``star_sigma`` composes configuration-space kernels, K_g @ K_f (cost
  O(nx^2 (nx + np))), when kernels hold both operands: dx <= deta, and at most
  1e-16 of each operand's weight lies out of span or aliased (see
  ``grids._to_kernel``; both operands go through one ``grids._to_kernels``
  call, which builds their sigma tables once).  Other pairs take the
  exact-on-lattice twisted convolution (the reference path, O(nx^2 np log np):
  the g rows transformed once, then a loop over the nx rows of f);
* ``bopp_apply`` - the fast route for observable-on-state action: the
  ordered operator with x and p replaced by the (sigma, S) Bopp shifts
  (m_x, m_p), defined once on the conjugate lattice.  With the identity
  smoother they are real and the operator is applied pair by pair from
  :meth:`ObservableSpec.factors` through the two halves of the
  mixed-representation multiply ``grids.multiply_mixed`` (one round trip
  per non-scalar factor); a Gaussian smoother makes them complex, and the
  action is the two-index series
  sum_{j,k} (d_x^j d_p^k A)/(j! k!) F^-1[m_x^j m_p^k F psi] through
  ``grids._fourier_powers``.  side='both' returns A * psi and psi * A from
  one set of forward transforms of psi, as the two-sided star-genvalue
  residual and the Moyal-bracket evolution need.  With canonical=True it
  acts on a state's plain-sigma field Psi_c instead, by S^-1 A on the
  identity route, as S is an algebra isomorphism.  That canonical action
  is the reference route of ``_canonical_residuals``, which takes a
  Gaussian-smoothed state's star-genvalue residual norms from Psi_c on the
  conjugate lattice, with no field built.

Every transform runs through ``grids``, the sigma-field <-> kernel maps and
the twisted convolution included.

Smoothers, gauge maps between sigma values and the involution are Fourier
multipliers on the conjugate lattice, applied through one guarded multiply
that keeps its operand's guard flags.

All operations require their operands to share one grid and (for the
star product) to be effectively supported inside it; the tail-mass
precondition is checked and flagged, not silently ignored.  Coordinate-like
fields that fill the whole lattice violate that precondition - polynomial
observables belong in an ObservableSpec, which the Bopp route handles
exactly.
"""

import warnings
from math import factorial, pi, sqrt

import numpy as np

from .errors import (IllPosedSmoothingError, NumericalPreconditionError, PSQError,
                     UnsupportedObservableError)
# _to_kernel, the one-operand map, stays importable from here beside the stacked _to_kernels
from .grids import (PhaseField, _fourier_powers, _from_kernel, _from_mixed,  # noqa: F401
                    _mixed_spectrum, _to_kernel, _to_kernels, _to_mixed, _twisted_convolution,
                    boundary_tail_mass, fourier_full, fourier_full_inverse)
from .ordering import GaussianSmoother, OrderingSpec
from .polyalg import PolyH, sigma_order, sigma_order_right, word_profiles

TAIL_MASS_THRESHOLD = 1e-10
AMPLIFICATION_CUTOFF = 1e6
CLAMPED_MASS_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

class ObservableSpec:
    """Symbolic sum of a polynomial and x-only or p-only functions.

    ``poly`` is the polynomial part, summed once; ``fns`` holds the function
    terms in order, as (axis, fn) with axis 'x' or 'p'.  The split matters
    because function terms admit exact multiplicative realizations in mixed
    representations for arbitrary smooth profiles, while cross terms are
    handled exactly only for polynomials.
    """

    def __init__(self, poly=None, fns=(), label="A"):
        # summed onto zero like every sum of polynomials: 0.0 + c clears a -0.0 part of c
        self.poly = PolyH.zero() if poly is None else PolyH.zero() + poly
        self.fns = tuple(fns)
        self.label = label
        self._words = {}            # (ordering, side) -> ordered word, built on first use
        if any(axis not in ("x", "p") for axis, _fn in self.fns):
            raise UnsupportedObservableError("function terms take the axis 'x' or 'p'")

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_poly(cls, poly, label="A"):
        return cls(poly, (), label)

    @classmethod
    def position(cls):
        return cls.from_poly(PolyH.x(), "x")

    @classmethod
    def momentum(cls):
        return cls.from_poly(PolyH.p(), "p")

    @classmethod
    def x_function(cls, fn, label="V(x)"):
        return cls(None, (("x", fn),), label)

    @classmethod
    def p_function(cls, fn, label="T(p)"):
        return cls(None, (("p", fn),), label)

    @classmethod
    def harmonic(cls, omega=1.0):
        if not np.isfinite(omega * omega):
            raise NumericalPreconditionError("omega=%r overflows the harmonic potential" % omega)
        h = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(2, 0, c=0.5 * omega ** 2)
        return cls.from_poly(h, "H_osc")

    def __add__(self, other):
        return ObservableSpec(self.poly + other.poly, self.fns + other.fns,
                              "%s+%s" % (self.label, other.label))

    def as_poly(self):
        if self.fns:
            raise UnsupportedObservableError(
                "observable %s has non-polynomial terms" % self.label)
        return self.poly

    def ordered_word(self, spec, side):
        """The polynomial part pulled back by S^-1 and sigma-ordered for the
        side: the standard-ordered word behind :meth:`factors` and the
        Hermiticity check, kept per (ordering, side) once built."""
        if (spec, side) not in self._words:
            order = sigma_order if side == "left" else sigma_order_right
            word = spec.smoother.to_word().apply(self.poly, "inverse")
            self._words[spec, side] = order(word, spec.sigma)
        return self._words[spec, side]

    def factors(self, spec, side, xq, pq, hbar):
        """The ordered operator as [(b, a)]: sum of a(q) b(p), p acting first.

        xq and pq are the caller's q and p coordinates (Bopp-sheared lattices
        or the plain x and u axes).  b is None for a p-independent pair and a
        is a scalar when constant in q.  The function terms come first, then
        the profiles of :meth:`ordered_word`; function terms admit only the
        identity smoother.
        """
        if not spec.is_plain_sigma() and self.fns:
            raise UnsupportedObservableError(
                "x-only/p-only function terms support only the identity smoother; "
                "use polynomial terms for smoothed orderings")
        pairs = []
        for axis, fn in self.fns:
            if axis == "x":
                pairs.append((None, np.asarray(fn(xq), dtype=complex)))
            else:
                pairs.append((np.asarray(fn(pq), dtype=complex), 1.0))
        if self.poly.terms:
            for m, a_m in word_profiles(self.ordered_word(spec, side), xq, hbar):
                pairs.append((pq ** m if m else None, a_m))
        return pairs


# ---------------------------------------------------------------------------
# Fourier multipliers with the deconvolution guard
# ---------------------------------------------------------------------------

def _clamp(spectrum, mult, bad, meta):
    """The deconvolution guard: ``mult`` zeroed on ``bad``, the lattice points
    where it (or the multiplier it inverts) passes the amplification cutoff.

    A spectrum that carries more than a sliver of relative mass there is
    refused as ill-posed; else the clamped mass fraction is max-merged into
    ``meta["deconvolution_clamped"]`` so consumers can widen their tolerances.
    ``spectrum`` may be scaled by any constant.
    """
    if not np.any(bad):
        return mult
    total = np.sum(np.abs(spectrum) ** 2)
    clamped = np.sum(np.abs(spectrum[bad]) ** 2)
    if total > 0 and clamped / total > CLAMPED_MASS_TOLERANCE:
        raise IllPosedSmoothingError("deconvolution ill-posed for this field")
    fraction = float(clamped / total) if total > 0 else 0.0
    meta["deconvolution_clamped"] = max(meta.get("deconvolution_clamped", 0.0), fraction)
    return np.where(bad, 0.0, mult)


def _apply_multiplier(field, mult, inverse=False):
    """Apply a conjugate-lattice multiplier (its reciprocal if ``inverse``),
    clamping unstable amplification with :func:`_clamp`.

    The one guarded multiply behind smoothers, gauge maps and the involution.
    The result keeps the field's guard flags.  The clamp zeroes the lattice
    points where the applied multiplier would exceed the cutoff in modulus;
    the reciprocal is formed only on the others, so an underflowing
    multiplier never makes 1/0.
    """
    F = fourier_full(field)
    mvals = np.asarray(mult, dtype=complex)
    if inverse:
        bad = np.abs(mvals) < 1.0 / AMPLIFICATION_CUTOFF
        mvals = np.divide(1.0, mvals, out=np.zeros_like(mvals), where=~bad)
    else:
        bad = np.abs(mvals) > AMPLIFICATION_CUTOFF
    F.values *= _clamp(F.values, mvals, bad, F.meta)
    return fourier_full_inverse(F).assert_finite()


def apply_smoother(spec, field, direction="forward"):
    """Apply the smoother S (or S^-1) of an ordering spec to a field.

    The identity ordering returns a copy: this is the one place that decides so.
    """
    if direction not in ("forward", "inverse"):
        raise PSQError("direction must be 'forward' or 'inverse'")
    if spec.is_plain_sigma():
        return field.copy()
    g = field.grid
    XI, ETA = g.conj_meshes()
    mult = spec.smoother.multiplier(XI, ETA, g.hbar)
    return _apply_multiplier(field, mult, inverse=direction == "inverse")


def _gauge_phase(grid, delta):
    """exp(i delta xi eta / hbar), the multiplier taking sigma to sigma + delta."""
    XI, ETA = grid.conj_meshes()
    return np.exp(1j * delta * XI * ETA / grid.hbar)


def gauge_transform(field, sigma_from, sigma_to):
    """Multiplier exp(i (sigma_to - sigma_from) xi eta / hbar).

    Intertwines the products: S(f *_sigma g) = Sf *_sigma' Sg.
    """
    delta = sigma_to - sigma_from
    if delta == 0:
        return field.copy()
    return _apply_multiplier(field, _gauge_phase(field.grid, delta))


# ---------------------------------------------------------------------------
# the star product: twisted convolution and kernel pair
# ---------------------------------------------------------------------------

# A kernel drops the share sqrt(m) of an operand that loses the mass m (out of
# span or aliased), so the product is off by about sqrt(m_f) + sqrt(m_g) of the
# norm bound: 1e-8 here, 100x under the 1e-6 idempotence tolerance (purity:
# 1e-5).  Hermite-pair states n <= 4 on 64^2 to 256^2 [-8, 8] measure 4e-30 to 8e-19.
_KERNEL_SPAN_MASS = 1e-16


def _check_tail_mass(field, meta):
    tail = boundary_tail_mass(field)
    if tail > TAIL_MASS_THRESHOLD:
        warnings.warn("star product operand has boundary tail mass %.3g > %.1g; "
                      "result accuracy is degraded" % (tail, TAIL_MASS_THRESHOLD),
                      stacklevel=3)
        meta["tail_mass_warning"] = max(meta.get("tail_mass_warning", 0.0), tail)


def star_sigma(f, g_field, sigma):
    """Discrete f *_sigma g, keeping its operands' guard flags (maximum per key).

    K[f * g] = (2 pi hbar)^{-1/2} dx K_g @ K_f where kernels hold both operands
    (dx <= deta: the x lattice's Nyquist momentum is outside the p span; each
    operand's lost mass from ``grids._to_kernel`` <= _KERNEL_SPAN_MASS), else the
    twisted convolution.
    """
    meta = f._merged_meta(g_field)
    grid = f.grid
    _check_tail_mass(f, meta)
    _check_tail_mass(g_field, meta)
    operands = (f,) if g_field is f else (f, g_field)      # a repeated operand maps once
    kernels = _to_kernels([h.values for h in operands], sigma, grid) if grid.dx <= grid.deta else []
    if kernels and max(lost for _K, lost in kernels) <= _KERNEL_SPAN_MASS:
        Kf, Kg = kernels[0][0], kernels[-1][0]
        values = _from_kernel((Kg @ Kf) * (grid.dx / sqrt(2.0 * pi * grid.hbar)), sigma, grid)
    else:
        spectra = [fourier_full(h).values for h in operands]
        spect = _twisted_convolution(spectra[0], spectra[-1],
                                     grid.xi, grid.eta, sigma, grid.hbar)
        values = fourier_full_inverse(PhaseField(grid, spect)).values
    return PhaseField(grid, values, meta).assert_finite()


def star_sigma_S(f, g_field, spec):
    """f *_{sigma,S} g = S(S^-1 f *_sigma S^-1 g); identity smoother reduces
    bit-for-bit to star_sigma.  A repeated operand (g_field is f) is pulled back once."""
    fi = apply_smoother(spec, f, "inverse")
    gi = fi if g_field is f else apply_smoother(spec, g_field, "inverse")
    return apply_smoother(spec, star_sigma(fi, gi, spec.sigma), "forward")


# ---------------------------------------------------------------------------
# Bopp-shift route: observable acting on a state
# ---------------------------------------------------------------------------

def _bopp_shifts(spec, side, grid):
    """The Bopp shifts (m_x, m_p) of x and p on the conjugate lattice.

    The identity smoother gives the real shifts (sigma eta, sigmabar xi) on
    the left and (-sigmabar eta, -sigma xi) on the right; a Gaussian smoother
    adds (i alpha xi, -i beta eta) on either side.  With the transforms of
    ``grids``, xi acts on a field as -i hbar d_x and eta as i hbar d_p.
    """
    xi, eta = grid.xi[:, None], grid.eta[None, :]
    if side == "left":
        m_x, m_p = spec.sigma * eta, spec.sigma_bar * xi
    else:
        m_x, m_p = -spec.sigma_bar * eta, -spec.sigma * xi
    if not spec.is_plain_sigma():
        m_x = m_x + 1j * spec.smoother.alpha * xi
        m_p = m_p - 1j * spec.smoother.beta * eta
    return m_x, m_p


def _bopp_series(poly, field, shifts):
    """Polynomial symbol times field as a finite series in the Bopp shifts,
    one result per (m_x, m_p) pair of shifts:

        A * g = sum_{j,k} (d_x^j d_p^k A) / (j! k!) F^-1[m_x^j m_p^k F g],

    with the symbol derivatives exact and the transforms of
    ``grids._fourier_powers``: one full transform of g for every pair, and
    each inverse added to its sum as it is made.  No deconvolution appears,
    unlike the pull-back/push-forward sandwich.
    """
    g = field.grid
    X, P = g.x[:, None], g.p[None, :]       # broadcast axes: powers cost O(nx + np)
    degx = max((n for (n, _m, _k) in poly.terms), default=0)
    degp = max((m for (_n, m, _k) in poly.terms), default=0)
    terms = {(j, k): poly.diff_x(j).diff_p(k) for j in range(degx + 1) for k in range(degp + 1)}
    terms = {jk: d_sym for jk, d_sym in terms.items() if not d_sym.is_zero()}
    outs = [np.zeros((g.nx, g.np), dtype=complex) for _ in shifts]
    for (j, k), i, work in _fourier_powers(field, shifts, terms):
        if i == 0:
            coeff = terms[j, k].evaluate(X, P, g.hbar) / (factorial(j) * factorial(k))
        outs[i] += coeff * work
    return [PhaseField(g, out, field.meta) for out in outs]


def _require_gaussian_polynomial(A, spec):
    """Refuse a smoothed action the Bopp routes cannot take: one under a
    smoother other than a Gaussian, or with function terms."""
    if A.fns or not isinstance(spec.smoother, GaussianSmoother):
        raise UnsupportedObservableError(
            "smoothed Bopp actions need a Gaussian smoother and polynomial "
            "terms; got %s with %s" % (spec.smoother.kind, A.label))


def bopp_apply(A, psi, side, spec, canonical=False):
    """A *_{sigma,S} psi (side='left'), psi *_{sigma,S} A (side='right'), or
    the pair (A *_{sigma,S} psi, psi *_{sigma,S} A) (side='both').

    The ordered operator acts with x and p replaced by the Bopp shifts of
    :func:`_bopp_shifts`.  With the identity smoother they are real: left
    q = x + sigma y on the (x, y) lattice and p = p + sigmabar u on the
    (u, p) lattice, right x - sigmabar y and p - sigma u, and each factor
    pair of :meth:`ObservableSpec.factors` costs one mixed multiply per
    non-scalar factor.  A Gaussian smoother adds (i alpha u, -i beta y) to
    the shifts, and the action becomes the finite two-index series of
    :func:`_bopp_series` (no deconvolution); every other smoother, and
    function terms under a Gaussian one, raise UnsupportedObservableError.
    One side runs the same code as both.  Both sides share psi's forward
    transforms: its x -> u and p -> y transforms, made at most once and
    used by every factor pair of either side, or its one full transform
    under a Gaussian smoother.  Each result keeps psi's guard flags.

    canonical=True takes psi as the plain-sigma field Psi_c of the state
    S Psi_c and returns S^-1 of the action: as S is an algebra isomorphism,
    A *_{sigma,S} S Psi_c = S[(S^-1 A) *_sigma Psi_c] (and so on the right).
    That is the identity route with the real shifts and the factor pairs of
    the pulled-back word :meth:`ObservableSpec.ordered_word`, which A keeps
    per ordering and side, so no series runs; it refuses what the series
    refuses.  Under the identity smoother the flag changes nothing.
    """
    if side not in ("left", "right", "both"):
        raise PSQError("side must be 'left', 'right' or 'both'")
    smoothed = not spec.is_plain_sigma()
    if smoothed:
        _require_gaussian_polynomial(A, spec)
    g = psi.grid
    sides = ("left", "right") if side == "both" else (side,)
    # the canonical route's shifts are the plain-sigma ones, real
    shifts = [_bopp_shifts(OrderingSpec(spec.sigma) if canonical else spec, s, g)
              for s in sides]
    if smoothed and not canonical:
        acted = _bopp_series(A.poly, psi, shifts)
    else:
        mixed = {}                  # axis -> psi on its mixed lattice, made on first use

        def psi_mixed(axis):
            if axis not in mixed:
                mixed[axis] = _to_mixed(g, psi.values, axis)
            return mixed[axis]

        acted = []
        for s, (m_x, m_p) in zip(sides, shifts):
            out = np.zeros((g.nx, g.np), dtype=complex)
            for b, a in A.factors(spec, s, g.x[:, None] + m_x, g.p[None, :] + m_p, g.hbar):
                work = psi.values if b is None else _from_mixed(g, psi_mixed("x"), "x", b)
                if np.ndim(a) == 0:
                    out += work * a
                else:
                    there = psi_mixed("p") if b is None else _to_mixed(g, work, "p", out=work)
                    out += _from_mixed(g, there, "p", a)
            acted.append(PhaseField(g, out, psi.meta))
    acted = tuple(f.assert_finite() for f in acted)
    return acted if side == "both" else acted[0]


def _canonical_residuals(A, psi, energy, spec, mult):
    """Relative residuals (|S r_left| / |S Psi_c|, |S r_right| / |S Psi_c|) of
    the two-sided star-genvalue equations of the state S Psi_c, from its
    plain-sigma field Psi_c (``psi``) under a Gaussian-smoothed ``spec``.

    r_side is (S^-1 A) *_sigma Psi_c - E Psi_c, the action of
    :func:`bopp_apply` with canonical=True, contracted on the conjugate
    lattice (xi, eta) without a field built: ``grids._mixed_spectrum`` maps
    each mixed multiply straight to its spectrum, so no inverse transform
    runs.  Per side, the factor pairs of :meth:`ObservableSpec.factors`
    with a scalar a, the constants and -E fold into one profile on Psi_c's
    x -> u samples (one p -> eta transform), the x-only pairs into one
    profile on its p -> y samples (one x -> xi transform), and a pair that
    mixes x and p keeps its own three transforms.  The spectrum of Psi_c is
    the p -> eta transform of the shared x -> u samples.  Each ratio is
    |m R| / |m F Psi_c| (Parseval), m being ``mult``, S's multiplier
    (nx, np), clamped as :func:`_apply_multiplier` clamps the smoothing:
    a Psi_c that smoothing refuses raises IllPosedSmoothingError here too.
    A zero Psi_c raises NumericalPreconditionError, a non-finite residual
    PSQError, and a word or smoother bopp_apply refuses what it refuses.
    """
    _require_gaussian_polynomial(A, spec)
    g = psi.grid
    if np.shape(mult) != (g.nx, g.np):
        raise PSQError("smoother multiplier of shape %r for a %d x %d grid"
                       % (np.shape(mult), g.nx, g.np))
    on_u = _to_mixed(g, psi.values, "x")
    on_y = None                 # Psi_c's p -> y samples, made for the first x-only pair
    spectrum = _mixed_spectrum(g, on_u, "x", 1.0)
    mult = _clamp(spectrum, mult, np.abs(mult) > AMPLIFICATION_CUTOFF, {})
    nrm = np.linalg.norm(spectrum * mult)
    del spectrum
    if nrm == 0.0:
        raise NumericalPreconditionError("star-genvalue residual of a zero field")
    plain = OrderingSpec(spec.sigma)
    out = []
    for side in ("left", "right"):
        m_x, m_p = _bopp_shifts(plain, side, g)
        pairs = A.factors(spec, side, g.x[:, None] + m_x, g.p[None, :] + m_p, g.hbar)
        scalar_a, x_only = -energy, 0.0
        for b, a in pairs:
            if np.ndim(a) == 0:
                scalar_a = scalar_a + (a if b is None else a * b)
            elif b is None:
                x_only = x_only + a
        acted = _mixed_spectrum(g, on_u, "x", scalar_a)
        if np.ndim(x_only):
            if on_y is None:
                on_y = _to_mixed(g, psi.values, "p")
            acted += _mixed_spectrum(g, on_y, "p", x_only)
        for b, a in pairs:
            if b is not None and np.ndim(a):
                work = _from_mixed(g, on_u, "x", b)
                acted += _mixed_spectrum(g, _to_mixed(g, work, "p", out=work), "p", a)
        acted *= mult
        out.append(np.linalg.norm(acted) / nrm)
    if not np.all(np.isfinite(out)):
        raise PSQError("field contains non-finite samples")
    return tuple(float(r) for r in out)


# ---------------------------------------------------------------------------
# brackets and involution
# ---------------------------------------------------------------------------

def star_commutator(f, g_field, spec):
    """[f, g] = f * g - g * f under the spec's product."""
    return star_sigma_S(f, g_field, spec) - star_sigma_S(g_field, f, spec)


def moyal_bracket(f, g_field, spec):
    """Deformed Poisson bracket (f * g - g * f) / (i hbar)."""
    com = star_commutator(f, g_field, spec)
    return com * (1.0 / (1j * f.grid.hbar))


def involution_dagger(field, spec):
    """A^dagger = S S_{sigma - sigmabar} Sbar^-1 conj(A).

    Sbar f = conj(S conj f) is the Fourier multiplier conj S(-xi, -eta).  One
    guarded multiply of conj(A) by the gauge phase
    exp(i (sigma - sigmabar) xi eta / hbar) times S / Sbar, taken sample by
    sample and exactly 1 wherever the two samples agree, so an underflowing
    real multiplier cannot turn into 0/0 (identity and Gaussian smoothers
    give 1 everywhere).  For sigma = 1/2 with the identity smoother this is
    plain conjugation, bit-exact.  The result keeps the field's guard flags.
    """
    delta = spec.sigma - spec.sigma_bar
    conj_field = field.conj()
    if delta == 0 and spec.is_plain_sigma():
        return conj_field
    g = field.grid
    XI, ETA = g.conj_meshes()
    s = spec.smoother.multiplier(XI, ETA, g.hbar)
    sbar = np.conj(spec.smoother.multiplier(-XI, -ETA, g.hbar))
    ratio = np.divide(s, sbar, out=np.ones_like(s), where=s != sbar)
    return _apply_multiplier(conj_field, _gauge_phase(g, delta) * ratio)
