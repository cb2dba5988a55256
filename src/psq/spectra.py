"""Expectations, uncertainties, star-genvalue residuals and the eigensolver.

The eigensolver never discretizes the star-genvalue equation directly: the
ordered operator A_{sigma,S}(qhat, phat) with qhat = x, phat = -i hbar d_x is
assembled as a dense matrix on the x axis from the same a(q) b(p) factor
pairs that drive the Bopp route (each momentum factor as one circulant
column through the grids mixed multiply, position factors as row scalings
or diagonal terms), the Hermitian eigenproblem is solved there
(hermitian_eigh, whose eigensystem the dense Schrodinger propagator of
psq.dynamics shares), and phase-space eigenfields are re-assembled with the
twisted tensor product.
One gate, read off the ordered word in one pass, refuses a non-Hermitian
operator (hermitian_eigh and the split step of psq.dynamics both pass it)
and finds the time-reversal-invariant words, as p^2/2 + V(x) is under every
sigma and Gaussian smoother, whose matrix is real and solved as such; an even
word of these (V even) on a centred span commutes with x -> -x and is solved
as two half-size parity blocks.
The bridge identity

    A (star) (phi tensor psi) = phi tensor (A_matrix psi)

is the master cross-check between this module and the Bopp route.
The eigenfields' two-sided star-genvalue residuals are that route's
independent check of the matrix: under a Gaussian smoother S they are taken
on the plain-sigma field Psi_c that each twisted-tensor state carries, as
S[(S^-1 H) *_sigma Psi_c - E Psi_c], with S's multiplier applied in Fourier
space only (stargen_residual), so no Bopp series runs; the multiplier, like
the sigma tables, is built once per spectrum.
"""

from dataclasses import dataclass
from itertools import combinations
from math import sqrt

import numpy as np

from .errors import NumericalPreconditionError, PSQError
from .grids import WaveFunction, _mixed_matrix, fourier_full, integrate, l2_norm, pair_shear
from .ordering import GaussianSmoother, OrderingSpec
from .polyalg import nf_adjoint
from .starprod import ObservableSpec, bopp_apply
from .states import twisted_tensor

HERMITICITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# expectation values and uncertainties
# ---------------------------------------------------------------------------

def expectation(A, state):
    """<A> = iint (A star rho) dx dp for a pure or mixed state."""
    rho = state.rho_field()
    acted = bopp_apply(A, rho, "left", state.spec)
    return integrate(acted)


def uncertainty(state, which):
    """sqrt(<A^2> - <A>^2) for A = x or p."""
    if which == "x":
        a1 = ObservableSpec.position()
        a2 = ObservableSpec.from_poly(a1.as_poly() * a1.as_poly(), "x^2")
    elif which == "p":
        a1 = ObservableSpec.momentum()
        a2 = ObservableSpec.from_poly(a1.as_poly() * a1.as_poly(), "p^2")
    else:
        raise PSQError("which must be 'x' or 'p'")
    mean = expectation(a1, state).real
    second = expectation(a2, state).real
    var = second - mean * mean
    if var < -1e-10:
        raise NumericalPreconditionError(
            "negative variance %.3g; state and quadrature are inconsistent" % var)
    return sqrt(max(var, 0.0))


def stargen_residual(H, state, energy, multiplier=None):
    """Relative residuals of the two-sided star-genvalue equations.

    (|H*Psi - E Psi| / |Psi|, |Psi*H - E Psi| / |Psi|), both sides from one
    Bopp action; a zero field raises NumericalPreconditionError.

    A state under a Gaussian smoother S that carries its plain-sigma field
    Psi_c (``state.canonical``) takes the canonical route: with
    r_c = (S^-1 H) *_sigma Psi_c - E Psi_c from one canonical
    :func:`bopp_apply` (the identity route, real shifts), each side's
    residual field is S r_c, and its ratio is |mult F r_c| / |mult F Psi_c|
    in Fourier space (Parseval), mult being S's multiplier, so S is never
    applied on the lattice and the Bopp series never runs.  ``multiplier``
    is :func:`_gaussian_multiplier` of the state's ordering and grid, for a
    caller that checks several states under one ordering; by default the
    call builds its own.  Every other state, among them those that carry no
    Psi_c, takes the Bopp action on Psi itself (the series under a Gaussian
    smoother).  Both routes refuse the same inputs with the same errors.
    """
    spec = state.spec
    psi = state.canonical
    if psi is not None and multiplier is None:
        multiplier = _gaussian_multiplier(spec, psi.grid)
    if psi is None or multiplier is None:
        psi = state.psi_field
        nrm = l2_norm(psi)
        if nrm == 0.0:
            raise NumericalPreconditionError("star-genvalue residual of a zero field")
        return tuple(l2_norm(acted - psi * energy) / nrm
                     for acted in bopp_apply(H, psi, "both", spec))
    if np.shape(multiplier) != (psi.grid.nx, psi.grid.np):
        raise PSQError("smoother multiplier of shape %r for a %d x %d grid"
                       % (np.shape(multiplier), psi.grid.nx, psi.grid.np))

    def smoothed_norm(field):
        spectrum = fourier_full(field).values
        spectrum *= multiplier
        return float(np.linalg.norm(spectrum))

    nrm = smoothed_norm(psi)
    if nrm == 0.0:
        raise NumericalPreconditionError("star-genvalue residual of a zero field")
    return tuple(smoothed_norm(acted - psi * energy) / nrm
                 for acted in bopp_apply(H, psi, "both", spec, canonical=True))


def _gaussian_multiplier(spec, grid):
    """The forward multiplier of the spec's smoother on the grid's conjugate
    lattice, (nx, np), from its broadcast axes, if that smoother is a Gaussian
    one other than the identity (the canonical residual route's); else None."""
    if spec.is_plain_sigma() or not isinstance(spec.smoother, GaussianSmoother):
        return None
    return spec.smoother.multiplier(grid.xi[:, None], grid.eta[None, :], grid.hbar)


# ---------------------------------------------------------------------------
# the ordered operator as a dense matrix on the x axis
# ---------------------------------------------------------------------------

def operator_matrix(A, spec, grid):
    """Dense matrix of A_{sigma,S}(qhat, phat) on the grid's x axis.

    Each factor pair a(x) b(u) of :meth:`ObservableSpec.factors` becomes
    diag(a) C_b, with C_b the matrix of the grids mixed multiply by b: one
    column through that multiply, laid out by lag (grids._mixed_matrix), so
    the build holds M and one product matrix.  p-independent pairs add to
    the diagonal.  Function terms under a non-identity smoother raise
    UnsupportedObservableError, as in the Bopp route.
    """
    nx = grid.nx
    diag = np.arange(nx)
    M = np.zeros((nx, nx), dtype=complex)
    for b, a in A.factors(spec, "left", grid.x, grid.xi, grid.hbar):
        a = np.broadcast_to(a, (nx,))
        if b is None:
            M[diag, diag] += a
        else:
            M += a[:, None] * _mixed_matrix(grid, b)
    return M


def _hermitian_gate(A, spec, grid, scale):
    """Refuse a non-Hermitian ordered operator; return (real, even) for its matrix.

    The discrete matrix of a symbolically Hermitian word can carry a spurious
    band-edge defect, so the gate reads the word the factor pairs come from,
    :meth:`ObservableSpec.ordered_word`, in one pass: its self-adjointness
    defect |word - word^dagger|, whether each term c hbar^k q^n p^m has a
    real x-representation matrix (c i^m real, as conj(phat) = -phat), and
    whether each has n + m even, so that the matrix commutes with x -> -x on
    a centred span.  Function terms are sampled on the lattice; they must be
    real there and keep the matrix complex.  A defect above
    HERMITICITY_TOL * max(scale, 1) raises PSQError naming the offending term.
    """
    defect = imag = odd = 0.0
    term = "none"
    if A.poly.terms:
        word = A.ordered_word(spec, "left")
        adjoint = nf_adjoint(word).terms
        for key in word.terms.keys() | adjoint.keys():
            c = word.terms.get(key, 0.0)
            defect = max(defect, abs(c - adjoint.get(key, 0.0)))
            imag = max(imag, abs((c * (1, 1j, -1, -1j)[key[1] % 4]).imag))
            odd = max(odd, abs(c) * ((key[0] + key[1]) % 2))
        term = "polynomial part %s" % A.poly.render()
    for axis, fn in A.fns:
        vals = np.asarray(fn(grid.x if axis == "x" else grid.xi), dtype=complex)
        fn_defect = float(np.abs(vals.imag).max())
        if fn_defect > defect:
            defect, term = fn_defect, "%s-function term" % axis
    tol = HERMITICITY_TOL * max(scale, 1.0)
    if not defect <= tol:
        raise PSQError(
            "ordered operator is not Hermitian (defect %.3g); offending term: %s"
            % (defect, term))
    real = not A.fns and imag <= tol
    return real, real and not odd and grid.x_min == -grid.x_max and grid.nx > 1


def _fold(M, sign):
    """M's rows in the even (sign 1) or odd (-1) basis of j -> -j mod nx: e_0,
    (e_j + e_{nx-j}) / sqrt(2) for 0 < j < nx/2 and e_{nx/2}, or the
    (e_j - e_{nx-j}) / sqrt(2).  Folding the rows of M^T folds its columns."""
    h = len(M) // 2
    lo, hi = M[1:h], M[:h:-1]
    if sign < 0:
        return (lo - hi) * sqrt(0.5)
    return np.concatenate([M[:1], (lo + hi) * sqrt(0.5), M[h:h + 1]])


def hermitian_eigh(A, spec, grid):
    """Eigensystem (np.linalg.eigh) of the ordered operator's dense matrix.

    Refuses a matrix that is not finite (NumericalPreconditionError), then
    passes the Hermiticity gate that the split step of psq.dynamics passes
    too, with the matrix's largest entry as the scale.  A matrix the gate
    finds real is solved as the real symmetric (M.real + M.real^T) / 2, built
    without a complex temporary and with M released before the solve, with
    float64 eigenvectors (WaveFunction casts them); every other one as the
    complex Hermitian (M + M^H) / 2, symmetrized in place.  Symmetrizing drops
    the band-edge Hermiticity defect; the real route also drops the imaginary
    part that the band-edge momentum, which has no -u partner on the lattice,
    leaves in an odd-m term's matrix.  When, besides, every word term has
    n + m even, there are no function terms and x_min == -x_max (nx > 1), the
    real matrix is cut into the even (nx/2 + 1) and odd (nx/2 - 1) blocks of
    the reflection (_fold) and released, and each block goes to eigh.  The
    blocks hold its parity average, which drops the reflection defect that
    momentum leaves in an odd-m term, as the real route drops its imaginary
    part.  The merged eigensystem comes back in the x basis, ascending, an
    even level before an odd one of equal energy (a stable merge): the
    blocks' eigenvectors are unfolded side by side, released, and their
    columns gathered into ascending order in one take.  Every route holds at
    most M and one more matrix; the blocks, half a real nx x nx matrix, are
    all the block route holds while it solves, and the unfolded and gathered
    real matrices together match the complex M.
    """
    M = operator_matrix(A, spec, grid)
    if not np.all(np.isfinite(M)):
        raise NumericalPreconditionError(
            "ordered operator matrix of %s is not finite at sigma=%r" % (A.label, spec.sigma))
    real, even = _hermitian_gate(A, spec, grid, np.abs(M).max())
    if real:
        M = M.real + M.real.T           # real views: no complex temporary, M released
    else:
        M += M.conj().T                 # conj copies, so the transpose does not alias M
    M *= 0.5
    if not even:
        return np.linalg.eigh(M)
    blocks = [_fold(_fold(M, sign).T, sign) for sign in (1, -1)]
    del M
    (w_even, y_even), (w_odd, y_odd) = [np.linalg.eigh(b) for b in blocks]
    del blocks
    h = grid.nx // 2
    w = np.concatenate([w_even, w_odd])
    V = np.zeros((grid.nx, grid.nx))         # unfolded, in block order: even columns first
    V[::h, :h + 1] = y_even[::h]
    V[1:h, :h + 1] = V[:h:-1, :h + 1] = y_even[1:h] * sqrt(0.5)
    V[1:h, h + 1:] = y_odd * sqrt(0.5)
    V[:h:-1, h + 1:] = -V[1:h, h + 1:]
    del y_even, y_odd
    order = np.argsort(w, kind="stable")
    return w[order], V.take(order, axis=1)


@dataclass
class SpectralResult:
    energies: np.ndarray
    wavefunctions: list
    ordering: OrderingSpec
    residuals: list           # per level (left, right) star-genvalue residuals

    def eigenfield(self, m, n, shear=None):
        """Phase-space star-genfield  phi_m* tensor phi_n.  ``shear`` is as in
        :func:`twisted_tensor`: one ``pair_shear`` set for several fields."""
        return twisted_tensor(self.wavefunctions[m], self.wavefunctions[n], self.ordering,
                              shear)


def spectrum_via_schrodinger(H, spec, n_levels, grid, residual_fields=True):
    """Lowest levels of the (sigma, S)-ordered operator of the ObservableSpec H.

    The ordered matrix must be Hermitian; eigenfunctions are returned
    orthonormal with respect to the dx-weighted inner product, and the
    two-sided star-genvalue residuals of the diagonal eigenfields are
    recorded unless residual_fields is disabled.  Needs n_levels >= 1.
    """
    if n_levels < 1:
        raise PSQError("n_levels must be at least 1 (got %r)" % n_levels)
    if n_levels > grid.nx // 4:
        raise NumericalPreconditionError(
            "n_levels=%d exceeds the reliable resolution bound nx/4=%d"
            % (n_levels, grid.nx // 4))
    energies, vectors = hermitian_eigh(H, spec, grid)
    kept_e = energies[:n_levels]
    # the kept columns of eigh's orthonormal basis, dx-weighted; the nx x nx
    # basis goes once they are copied
    waves = [WaveFunction(grid, vectors[:, n] / np.sqrt(grid.dx)) for n in range(n_levels)]
    del vectors
    # boundary-resolution sanity: levels must decay inside the span
    for n, w in enumerate(waves):
        edge = max(abs(w.values[0]), abs(w.values[-1]))
        if not edge <= 1e-6 * np.abs(w.values).max():      # NaN fails too
            raise NumericalPreconditionError(
                "level %d is not resolved on this span (edge amplitude %.3g); "
                "resolution supports only the lowest %d levels" % (n, edge, n))
    residuals = []
    if residual_fields:
        # one set of sigma tables (and of a Gaussian smoother's multiplier) for
        # every level; each state goes before the next is built
        shear = pair_shear(grid, spec.sigma)
        mult = _gaussian_multiplier(spec, grid)
        residuals = [stargen_residual(H, twisted_tensor(w, w, spec, shear), e, mult)
                     for w, e in zip(waves, kept_e)]
    return SpectralResult(kept_e, waves, spec, residuals)


def gauge_spectrum_check(H, sigma_list, smoother_list, n_levels, grid):
    """Spectra across orderings; for natural Hamiltonians the sigmas of one
    smoother must agree (a smoother may shift the spectrum by design).

    Returns {'energies': {label: array}, 'max_deviation': float}, labels
    'sigma=%g,<smoother kind>'; different orderings sharing a label raise.
    max_deviation is the largest difference between two runs that share a smoother.
    """
    specs = {}
    for sigma in sigma_list:
        for smoother in smoother_list:
            spec = OrderingSpec(sigma, smoother)
            label = "sigma=%g,%s" % (sigma, smoother.kind)
            if specs.setdefault(label, spec) != spec:
                raise PSQError("orderings %r and %r share the label %r"
                               % (specs[label], spec, label))
    runs = {label: spectrum_via_schrodinger(H, spec, n_levels, grid,
                                            residual_fields=False).energies
            for label, spec in specs.items()}
    dev = max((float(np.abs(runs[a] - runs[b]).max()) for a, b in combinations(specs, 2)
               if specs[a].smoother == specs[b].smoother), default=0.0)
    return {"energies": runs, "max_deviation": dev}
