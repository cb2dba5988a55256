"""Quasi-distributions from wavefunctions: the twisted tensor product and its inverse.

A pair of configuration-space wavefunctions (phi, psi) maps to the
phase-space function

    Psi(x, p) = S (2 pi hbar)^{-1/2} int dy e^{-i p y/hbar}
                conj(phi)(x - sigmabar y) psi(x + sigma y),

by band-limited interpolation at the sheared points (masked to zero outside
the x domain, where the wavefunctions are below the tail threshold), one
partial transform on the shift axis, and the smoother.  The map is linear in
the kernel K = conj(phi) (x) psi; its inverse (S^-1, p -> y, a sigmabar y
shift) reads K off any state, and K's leading singular pair factors a pure one.
"""

import json
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import NumericalPreconditionError, PSQError
# half_dft stays bound here for perfbench's tracer, which patches it per module
from .grids import (PhaseField, WaveFunction, _fwd_x, _shear_mask, _sheared_samples,
                    _to_kernel, fourier_partial, half_dft, integrate,  # noqa: F401
                    l2_inner, l2_norm, read_field, write_field)
from .ordering import OrderingSpec, spec_from_dict
from .starprod import apply_smoother, gauge_transform, involution_dagger, star_sigma_S

INTERPOLATION_TAIL_THRESHOLD = 1e-6
PURITY_TOL = 1e-5


def hermite_function(grid, n, omega=1.0):
    """n-th oscillator eigenfunction on the x axis, stable recurrence.

    phi_0 = (omega/pi hbar)^{1/4} exp(-omega x^2 / 2 hbar),
    phi_{n+1} = (x sqrt(2 omega/hbar) phi_n - sqrt(n) phi_{n-1}) / sqrt(n+1).
    Needs n >= 0 and omega > 0.
    """
    if n < 0 or not omega > 0:
        raise PSQError("hermite_function needs n >= 0 and omega > 0, not %r, %r" % (n, omega))
    x = grid.x
    hbar = grid.hbar
    h0 = (omega / (pi * hbar)) ** 0.25 * np.exp(-omega * x ** 2 / (2.0 * hbar))
    if n == 0:
        return WaveFunction(grid, h0)
    prev2, prev = None, h0
    scale = np.sqrt(2.0 * omega / hbar) * x
    for k in range(n):
        nxt = scale * prev
        if prev2 is not None:
            nxt = nxt - np.sqrt(k) * prev2
        nxt = nxt / np.sqrt(k + 1)
        prev2, prev = prev, nxt
    return WaveFunction(grid, prev)


def hermite_basis(grid, nmax, omega=1.0):
    return [hermite_function(grid, n, omega) for n in range(nmax + 1)]


@dataclass
class QuasiDistribution:
    """A phase-space state: the field Psi and the ordering every state function reads."""

    psi_field: PhaseField
    spec: OrderingSpec

    @property
    def grid(self):
        return self.psi_field.grid

    def rho_field(self):
        """Quantum distribution rho = Psi / sqrt(2 pi hbar)."""
        return self.psi_field * (1.0 / sqrt(2.0 * pi * self.grid.hbar))

    def norm_h(self):
        """Hilbert-algebra norm, pulled back through S^-1."""
        pulled = apply_smoother(self.spec, self.psi_field, "inverse")
        return l2_norm(pulled)

    def normalization_integral(self):
        """(2 pi hbar)^{-1/2} iint Psi, equal to 1 for admissible states."""
        return integrate(self.psi_field) / sqrt(2.0 * pi * self.grid.hbar)

    def inner_h(self, other):
        """Hilbert-space scalar product <self|other>_H (S^-1 pullbacks, the other's
        gauge-mapped to this sigma, so states under different orderings compare)."""
        a = apply_smoother(self.spec, self.psi_field, "inverse")
        b = gauge_transform(apply_smoother(other.spec, other.psi_field, "inverse"),
                            other.spec.sigma, self.spec.sigma)
        return l2_inner(a, b)


class MixedState(QuasiDistribution):
    """Convex mixture sum_i w_i Psi_i of states that share one ordering.

    A quasi-distribution whose field is the weighted sum of the components'
    fields, so every operation on a state acts on a mixture, linearly.
    """

    def __init__(self, components):
        ws = np.array([w for w, _s in components], dtype=float)
        if np.any(ws < -1e-15) or np.any(ws > 1 + 1e-12):
            raise PSQError("mixture weights must lie in [0, 1]")
        if abs(ws.sum() - 1.0) > 1e-12:
            raise PSQError("mixture weights must sum to 1 (got %.17g)" % ws.sum())
        spec = components[0][1].spec
        if any(state.spec != spec for _w, state in components):
            raise PSQError("mixture components must share one ordering")
        field = None
        for w, state in components:
            term = state.psi_field * w
            field = term if field is None else field + term
        super().__init__(field, spec)


# ---------------------------------------------------------------------------
# twisted tensor product
# ---------------------------------------------------------------------------

def _interpolation_tail(coeffs):
    """Relative weight of the outermost interpolation modes."""
    mags = np.abs(coeffs)
    peak = mags.max()
    if peak == 0.0:
        return 0.0
    edge = max(mags[:2].max(), mags[-2:].max())
    return float(edge / peak)


def twisted_tensor(phi, psi, spec):
    """Build the quasi-distribution of the pair (phi, psi) under the spec."""
    if phi.grid != psi.grid:
        raise PSQError("wavefunctions live on different axes")
    grid = phi.grid
    sigma, sb = spec.sigma, spec.sigma_bar
    # coefficients c_m of the trig interpolants sum_m c_m e^{i xi_m x/hbar}
    cp = _fwd_x(grid, phi.values) / grid.nx
    cs = _fwd_x(grid, psi.values) / grid.nx
    tail = max(_interpolation_tail(cp), _interpolation_tail(cs))
    if tail > INTERPOLATION_TAIL_THRESHOLD:
        raise NumericalPreconditionError(
            "band-limited interpolation error estimate %.3g exceeds %.1g; "
            "refine the axis or widen the span"
            % (tail, INTERPOLATION_TAIL_THRESHOLD))
    chi = (np.conj(_sheared_samples(grid, cp, -sb, grid.eta))
           * _sheared_samples(grid, cs, sigma, grid.eta))
    chi *= _shear_mask(grid, sigma, grid.eta)
    # one partial transform on the shift axis: y -> p with kernel e^{-i p y/hbar}
    out = apply_smoother(spec, fourier_partial(PhaseField(grid, chi), "p", "forward"))
    return QuasiDistribution(out.assert_finite(), spec)


def _kernel(state):
    """Kernel K[i, k] = conj(phi)(x_i) psi(x_k) of a state: twisted_tensor inverted,
    as the S^-1 pullback and :func:`grids._to_kernel`."""
    pulled = apply_smoother(state.spec, state.psi_field, "inverse")
    return _to_kernel(pulled.values, state.spec.sigma, state.grid)[0]


# ---------------------------------------------------------------------------
# marginals, purity, basis idempotence
# ---------------------------------------------------------------------------

def marginal(state, axis):
    """Position or momentum probability density of a pure or mixed state.

    P(x) = int (S^-1 rho) dp,  P(p) = int (S^-1 rho) dx.
    Returns (coordinates, density).
    """
    rho = state.rho_field()
    spec = state.spec
    grid = rho.grid
    pulled = apply_smoother(spec, rho, "inverse")
    if axis == "x":
        dens = pulled.values.sum(axis=1) * grid.dp
        coords = grid.x
    elif axis == "p":
        dens = pulled.values.sum(axis=0) * grid.dx
        coords = grid.p
    else:
        raise PSQError("axis must be 'x' or 'p'")
    worst = dens.real.min()
    # a clamped deconvolution cuts genuine spectral signal at the cutoff
    # level; the admissibility tolerance widens accordingly
    tol = 1e-5 if "deconvolution_clamped" in pulled.meta else 1e-9
    if worst < -tol:
        raise NumericalPreconditionError(
            "marginal density dips to %.3g < -%g; state is not admissible"
            % (worst, tol))
    return coords, dens.real


def purity_check(state):
    """Hermiticity, idempotence and normalization residuals of a state.

    Returns (is_pure, (r_herm, r_idem, r_norm)); is_pure iff all three < PURITY_TOL.
    A field that underflows to zero on the grid raises NumericalPreconditionError.
    """
    psi = state.psi_field
    spec = state.spec
    grid = psi.grid
    nrm = l2_norm(psi)
    if not nrm > 0:
        raise NumericalPreconditionError("state field is zero on this grid; no residual to scale")
    dag = involution_dagger(psi, spec)
    r_herm = l2_norm(psi - dag) / nrm
    prod = star_sigma_S(psi, psi, spec)
    r_idem = l2_norm(prod - psi * (1.0 / sqrt(2.0 * pi * grid.hbar))) / nrm
    r_norm = abs(state.norm_h() - 1.0)
    flags = (r_herm, r_idem, r_norm)
    return all(r < PURITY_TOL for r in flags), flags


def basis_idempotence_check(i, j, k, l, spec, grid, omega=1.0):
    """Residual of Psi_ij * Psi_kl = (2 pi hbar)^{-1/2} delta_il Psi_kj."""
    needed = {n: hermite_function(grid, n, omega) for n in {i, j, k, l}}
    t_ij = twisted_tensor(needed[i], needed[j], spec)
    t_kl = twisted_tensor(needed[k], needed[l], spec)
    prod = star_sigma_S(t_ij.psi_field, t_kl.psi_field, spec)
    if i == l:
        t_kj = twisted_tensor(needed[k], needed[j], spec)
        expected = t_kj.psi_field * (1.0 / sqrt(2.0 * pi * grid.hbar))
        return l2_norm(prod - expected) / l2_norm(expected)
    return l2_norm(prod)


def pure_factorization(state):
    """Recover the wavefunction pair of a pure state from its kernel.

    The kernel phi* (x) psi is rank one; its leading singular pair gives the
    pair up to a global phase, fixed by making phi's largest sample real positive.
    """
    grid = state.grid
    u_mat, s, vh = np.linalg.svd(_kernel(state))
    if s[0] <= 0:
        raise PSQError("state has no rank-one component")
    phi_vals = np.conj(u_mat[:, 0]) / sqrt(grid.dx)
    psi_vals = vh[0, :] * (s[0] * sqrt(grid.dx))
    # the pair is defined up to one common phase: anchor it on phi's peak
    peak = phi_vals[np.argmax(np.abs(phi_vals))]
    rot = np.conj(peak) / abs(peak)
    return (WaveFunction(grid, phi_vals * rot),
            WaveFunction(grid, psi_vals * rot))


# ---------------------------------------------------------------------------
# serialization: field + JSON sidecar
# ---------------------------------------------------------------------------

def write_state(state, path):
    """Write the field to path and its ordering to the sidecar path + '.json'."""
    write_field(state.psi_field, path)
    sidecar = str(path) + ".json"
    payload = dict(state.spec.as_dict())
    payload["normalized"] = bool(abs(state.normalization_integral() - 1.0) < 1e-6)
    with open(sidecar, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_state(path):
    field = read_field(path)
    sidecar = str(path) + ".json"
    with open(sidecar) as fh:
        payload = json.load(fh)
    spec = spec_from_dict(payload)
    return QuasiDistribution(field, spec)
