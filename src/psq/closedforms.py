"""Closed-form reference states: free Gaussians, oscillator Laguerre states,
ladder construction, coherent states, and classical-limit probes.

These are the ground truth for the numerical modules.  Laguerre and Hermite
evaluations use forward recurrences; factorial-weighted prefactors are kept
inside the recurrences so indices up to the documented caps stay in double
range.

The Laguerre family lives on the line sigma = 1/2, beta = omega^2 alpha with
lam = (1 + 2 omega alpha)/2 strictly between 0 and 1.  The limiting members
are not grid-representable and are deliberately not constructed: at lam -> 1
the states collapse to bare monomial-weighted Gaussians
r^{m+n} e^{-r^2/2 hbar omega} (up to normalization), and at lam -> 0 they
degenerate into derivatives of a point distribution at the origin, which no
sampled field can carry.
"""

from dataclasses import dataclass
from math import factorial, hypot, pi, sqrt

import numpy as np

from .errors import NumericalPreconditionError, PSQError, SpanError
from .grids import PhaseField, WaveFunction, integrate, l2_norm, spectral_derivatives
from .ordering import GaussianSmoother, OrderingSpec
from .polyalg import PolyH
from .starprod import ObservableSpec, apply_smoother, bopp_apply
from .states import QuasiDistribution

HO_STATE_INDEX_CAP = 12
HO_LADDER_SUM_CAP = 8


@dataclass(frozen=True)
class OscillatorParams:
    """Frequency plus the ordering of the smoothed oscillator family.

    The smoother must be Gaussian, S_{alpha,beta}; lam = (1 + omega*alpha +
    beta/omega)/2, lam_bar = 1 - lam.  The closed-form Laguerre states exist
    on the line sigma = 1/2, beta = omega^2 alpha with lam outside {0, 1}.
    """

    omega: float = 1.0
    spec: OrderingSpec = OrderingSpec()

    def __post_init__(self):
        if not self.omega > 0:
            raise PSQError("omega must be positive")
        if not isinstance(self.spec.smoother, GaussianSmoother):
            raise PSQError("the oscillator closed forms need a Gaussian smoother, got %r"
                           % self.spec.smoother.kind)
        # omega^2 and lam enter every closed form; past double range they overflow
        if not np.isfinite([self.omega * self.omega, self.lam]).all():
            raise NumericalPreconditionError(
                "omega=%r overflows the oscillator closed forms" % self.omega)

    @property
    def lam(self):
        sm = self.spec.smoother
        return 0.5 * (1.0 + self.omega * sm.alpha + sm.beta / self.omega)

    @property
    def lam_bar(self):
        return 1.0 - self.lam

    def require_laguerre_family(self):
        sm = self.spec.smoother
        off_line = abs(sm.beta - self.omega ** 2 * sm.alpha) > 1e-12
        if abs(self.spec.sigma - 0.5) > 1e-14 or off_line:
            raise PSQError(
                "closed-form Laguerre states require sigma=1/2 and beta=omega^2*alpha")
        if min(abs(self.lam), abs(self.lam_bar)) < 1e-12:
            raise PSQError("closed forms degenerate at lam in {0, 1}")

    def energy(self, n, hbar):
        return (n + self.lam_bar) * hbar * self.omega


@dataclass(frozen=True)
class FreeGaussianParams:
    """Free-particle Gaussian packet: center momentum and momentum width."""

    p0: float
    delta_p: float

    def __post_init__(self):
        if not self.delta_p > 0:
            raise PSQError("delta_p must be positive")

    def delta_x(self, hbar):
        return hbar / (2.0 * self.delta_p)


@dataclass(frozen=True)
class CoherentParams:
    """Coherent-state center and frequency."""

    x_bar: float
    p_bar: float
    omega: float = 1.0

    def __post_init__(self):
        if not self.omega > 0:
            raise PSQError("omega must be positive")


def _require_span(grid, need_x, need_p):
    """The grid must reach at least need_x / need_p on both sides of 0."""
    if (grid.x_max < need_x or -grid.x_min < need_x
            or grid.p_max < need_p or -grid.p_min < need_p):
        raise SpanError(
            "grid span too small: need >= %.3g x-units and %.3g p-units on each side"
            % (need_x, need_p))


# ---------------------------------------------------------------------------
# free particle
# ---------------------------------------------------------------------------

def free_gaussian(params, t, spec, grid):
    """Time-evolved free Gaussian packet under `spec`: S of the sigma form.

    Exact evaluation of the analytic solution of the evolution equation; the
    initial state minimizes the uncertainty product, Delta p stays constant
    and Delta x grows as sqrt(Delta x^2 + Delta p^2 t^2).
    """
    hbar = grid.hbar
    s = spec.sigma
    sb = 1.0 - s
    dp_ = params.delta_p
    dx_ = params.delta_x(hbar)
    X, P = grid.meshes()
    width_t = hypot(dx_, dp_ * t)           # no overflow at huge t: the span check refuses it
    _require_span(grid, abs(params.p0 * t) + 5.0 * width_t, abs(params.p0) + 5.0 * dp_)
    pref = 1.0 / np.sqrt(2.0 * pi * ((sb ** 2 + s ** 2) * dx_ * dp_
                                     + 1j * (1.0 - 2.0 * s) * dp_ ** 2 * t))
    gaussians = np.exp(-(P - params.p0) ** 2 / (2.0 * dp_ ** 2))
    shifted = X - P * t + 1j * (1.0 - 2.0 * s) * (dx_ / dp_) * (P - params.p0)
    denom = 4.0 * (sb ** 2 + s ** 2) * dx_ ** 2 + 4j * (1.0 - 2.0 * s) * dx_ * dp_ * t
    vals = pref * gaussians * np.exp(-shifted ** 2 / denom)
    return QuasiDistribution(apply_smoother(spec, PhaseField(grid, vals)), spec)


def free_wavepacket(params, t, grid):
    """Configuration-space wavefunction of the same packet at time t."""
    hbar = grid.hbar
    dp_ = params.delta_p
    dx_ = params.delta_x(hbar)
    x = grid.x
    pref = 1.0 / ((2.0 * pi) ** 0.25 * np.sqrt(dx_ + 1j * dp_ * t))
    packet = pref * np.exp(-params.p0 ** 2 / (4.0 * dp_ ** 2)) * np.exp(
        -(x - 1j * (dx_ / dp_) * params.p0) ** 2 / (4.0 * dx_ ** 2 + 4j * dx_ * dp_ * t))
    return WaveFunction(grid, packet)


# ---------------------------------------------------------------------------
# harmonic oscillator stationary states
# ---------------------------------------------------------------------------

def _laguerre_recurrence(n, s, z):
    """Generalized Laguerre L_n^s(z) by the stable three-term recurrence."""
    l_prev = np.ones_like(z)
    if n == 0:
        return l_prev
    l_cur = 1.0 + s - z
    for k in range(1, n):
        l_nxt = ((2 * k + 1 + s - z) * l_cur - (k + s) * l_prev) / (k + 1.0)
        l_prev, l_cur = l_cur, l_nxt
    return l_cur


def ho_state(m, n, params, grid):
    """Closed-form oscillator star-genfield with left index m, right index n.

    Valid on the Laguerre line of params.spec (sigma=1/2, beta=omega^2 alpha);
    for m < n the conjugate-transposed form of the (n, m) state is used.  The
    prefactor is re-measured against the analytic one and the state
    renormalized in the Hilbert-algebra norm (the factor is kept as meta
    'prefactor_rescale'); a state that underflows to zero on the grid raises
    NumericalPreconditionError.
    """
    params.require_laguerre_family()
    if max(m, n) > HO_STATE_INDEX_CAP or min(m, n) < 0:
        raise PSQError("indices capped at %d for recurrence stability" % HO_STATE_INDEX_CAP)
    hbar = grid.hbar
    omega, lam, lam_bar = params.omega, params.lam, params.lam_bar
    _require_span(grid, 5.0 * sqrt(hbar * (max(m, n) + 1) * max(lam, 0.5) / omega),
                  5.0 * sqrt(hbar * omega * (max(m, n) + 1) * max(lam, 0.5)))
    if m < n:
        swapped = ho_state(n, m, params, grid)
        return QuasiDistribution(swapped.psi_field.conj(), swapped.spec)
    X, P = grid.meshes()
    r2 = P ** 2 + omega ** 2 * X ** 2
    theta = np.arctan2(P, omega * X)
    z = r2 / (2.0 * hbar * omega * lam * lam_bar)
    radial = (np.sqrt(r2) / sqrt(2.0 * hbar * omega)) ** (m - n)
    # sqrt(n!/m!) folded in as prod_{k=n+1..m} 1/sqrt(k)
    ratio = 1.0
    for k in range(n + 1, m + 1):
        ratio /= sqrt(k)
    pref = (1.0 / (sqrt(2.0 * pi * hbar) * lam)) * ((-1.0) ** n) * ratio \
        * (lam_bar ** n / lam ** m)
    vals = pref * radial * _laguerre_recurrence(n, m - n, z) \
        * np.exp(-1j * (m - n) * theta) * np.exp(-r2 / (2.0 * hbar * omega * lam))
    field = PhaseField(grid, vals)
    nrm = QuasiDistribution(field, params.spec).norm_h()
    if not nrm > 0:
        raise NumericalPreconditionError(
            "oscillator state (%d, %d) is zero on this grid; refine it or raise hbar" % (m, n))
    state = QuasiDistribution(field * (1.0 / nrm), params.spec)
    state.psi_field.meta["prefactor_rescale"] = nrm
    return state


def annihilation_symbol(params, hbar):
    """Holomorphic coordinate (omega x + i p)/sqrt(2 hbar omega); reads only params.omega."""
    c = 1.0 / sqrt(2.0 * hbar * params.omega)
    return PolyH.monomial(1, 0, c=params.omega * c) + PolyH.monomial(0, 1, c=1j * c)


def creation_symbol(params, hbar):
    c = 1.0 / sqrt(2.0 * hbar * params.omega)
    return PolyH.monomial(1, 0, c=params.omega * c) + PolyH.monomial(0, 1, c=-1j * c)


def ho_ladder(m, n, params, grid):
    """Oscillator state built by star-laddering the ground state.

    abar^(star m) * Psi00 * a^(star n) / sqrt(m! n!), star multiplications
    realized through the Bopp route with the polynomial ladder symbols.
    """
    params.require_laguerre_family()
    if m + n > HO_LADDER_SUM_CAP or min(m, n) < 0:
        raise PSQError("ladder indices capped at m+n <= %d" % HO_LADDER_SUM_CAP)
    spec = params.spec
    hbar = grid.hbar
    a_dn = ObservableSpec.from_poly(annihilation_symbol(params, hbar), "a")
    a_up = ObservableSpec.from_poly(creation_symbol(params, hbar), "abar")
    field = ho_state(0, 0, params, grid).psi_field
    for _ in range(m):
        field = bopp_apply(a_up, field, "left", spec)
    for _ in range(n):
        field = bopp_apply(a_dn, field, "right", spec)
    field = field * (1.0 / sqrt(factorial(m) * factorial(n)))
    return QuasiDistribution(field, spec)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def coherent_state(params, spec, grid):
    """Coherent quasi-distribution at (x_bar, p_bar) under `spec`: S of the sigma form.

    Exact evaluation of the closed form; at sigma=1/2 the cross-phase term
    vanishes and the sigma form is a real Gaussian with widths set by omega.
    """
    hbar = grid.hbar
    s = spec.sigma
    sb = 1.0 - s
    omega = params.omega
    ss = sb ** 2 + s ** 2
    X, P = grid.meshes()
    _require_span(grid, abs(params.x_bar) + 5.0 * sqrt(hbar * ss / omega),
                  abs(params.p_bar) + 5.0 * sqrt(hbar * omega * ss))
    denom = 2.0 * hbar * omega * ss
    vals = (1.0 / sqrt(pi * hbar * ss)) \
        * np.exp(-omega ** 2 * (X - params.x_bar) ** 2 / denom) \
        * np.exp(-(P - params.p_bar) ** 2 / denom) \
        * np.exp(2j * (2.0 * s - 1.0) * omega * (X - params.x_bar)
                 * (P - params.p_bar) / denom)
    return QuasiDistribution(apply_smoother(spec, PhaseField(grid, vals)), spec)


def momentum_plane_wave_state(p0, spec, grid):
    """Sharp-momentum field (1/(2 pi hbar sqrt(beta))) e^{-(p-p0)^2/2 hbar beta}.

    The plane-wave tensor square under `spec` (Gaussian, beta > 0).  It is not a
    proper state (no decay along x, not square integrable in the limit), so
    it is flagged accordingly and never materialized as a grid delta; it is
    exposed because it is a formal two-sided genfunction of the momentum
    symbol, which the Gaussian-smoothed Bopp route can verify exactly.
    """
    beta = getattr(spec.smoother, "beta", 0.0)
    if not beta > 0:
        raise PSQError("the sharp-momentum form needs a Gaussian smoother with beta > 0")
    hbar = grid.hbar
    _require_span(grid, 0.0, abs(p0) + 5.0 * sqrt(hbar * beta))
    _X, P = grid.meshes()
    vals = np.exp(-(P - p0) ** 2 / (2.0 * hbar * beta)) \
        / (2.0 * pi * hbar * sqrt(beta))
    field = PhaseField(grid, vals + 0j)
    field.meta["not_a_proper_state"] = True
    return QuasiDistribution(field, spec)


def coherent_wavepacket(params, grid):
    """Configuration-space wavefunction whose tensor square is the coherent state."""
    hbar = grid.hbar
    omega = params.omega
    x = grid.x
    vals = (omega / (pi * hbar)) ** 0.25 \
        * np.exp(-omega * (x - params.x_bar) ** 2 / (2.0 * hbar)) \
        * np.exp(1j * params.p_bar * x / hbar)
    return WaveFunction(grid, vals)


def coherent_genvalue_residuals(params, state):
    """Residuals of the defining relations of a coherent state.

    Returns (left, right, pde1, pde2): the two star-genvalue residuals
    a_L * Psi = z Psi and abar_R * Psi = z* Psi, and the residuals of the
    equivalent pair of first-order differential equations, all relative.  The
    Bopp residuals are under the state's ordering; the PDEs are the identity-
    smoother system at its sigma (a Gaussian(0.1, 0.1) state reads 0.13).
    A zero field raises NumericalPreconditionError.
    """
    grid = state.grid
    hbar = grid.hbar
    omega, s = params.omega, state.spec.sigma
    sb = 1.0 - s
    z = (omega * params.x_bar + 1j * params.p_bar) / sqrt(2.0 * hbar * omega)
    a_dn = ObservableSpec.from_poly(annihilation_symbol(params, hbar), "a")
    a_up = ObservableSpec.from_poly(creation_symbol(params, hbar), "abar")
    psi = state.psi_field
    nrm = l2_norm(psi)
    if nrm == 0.0:
        raise NumericalPreconditionError("coherent genvalue residuals of a zero field")
    left = l2_norm(bopp_apply(a_dn, psi, "left", state.spec) - psi * z) / nrm
    right = l2_norm(bopp_apply(a_up, psi, "right", state.spec) - psi * np.conj(z)) / nrm
    # first-order system, spectral derivatives
    d = spectral_derivatives(psi, [(1, 0), (0, 1)])
    dx_vals, dp_vals = d[(1, 0)], d[(0, 1)]
    X, P = grid.meshes()
    v = psi.values
    pde1 = (omega * (X - params.x_bar) + 1j * (P - params.p_bar)) * v \
        + hbar * (sb * dx_vals + 1j * s * omega * dp_vals)
    pde2 = (omega * (X - params.x_bar) - 1j * (P - params.p_bar)) * v \
        + hbar * (s * dx_vals - 1j * sb * omega * dp_vals)
    scale = l2_norm(psi) * sqrt(hbar * omega)
    r1 = l2_norm(PhaseField(grid, pde1)) / scale
    r2 = l2_norm(PhaseField(grid, pde2)) / scale
    return left, right, r1, r2


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def classical_limit_probe(family, testfn, hbars):
    """Pairings <rho_hbar, testfn> = iint rho testfn dx dp along an hbar sweep.

    `family` maps hbar -> QuasiDistribution (rebuilding the grid per hbar is
    the caller's job; spans proportional to sqrt(hbar) keep the relative
    resolution constant).  The caller asserts convergence to the classical
    value.
    """
    out = []
    for hb in hbars:
        state = family(hb)
        grid = state.grid
        X, P = grid.meshes()
        rho = state.rho_field()
        weighted = PhaseField(grid, rho.values * np.asarray(testfn(X, P), dtype=complex))
        out.append(complex(integrate(weighted)))
    return out
