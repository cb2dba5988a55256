"""Time evolution in both pictures.

* split-step / matrix-exponential propagation of the configuration-space
  wavefunction (the cheap, spectrally accurate default), with phase-space
  snapshots re-assembled through the twisted tensor product;
* method-of-lines RK4 directly on the phase-space evolution equation
  d Psi/dt = (H star Psi - Psi star H)/(i hbar), kept because the
  equivalence of the two pictures is something this package tests, not
  assumes;
* guarded truncations of the star exponential and of Heisenberg-picture
  observables.

Every method is one step function under one propagation loop, and every
route records the state's field Psi.  The RK4 path enforces a stability
bound estimated by power iteration on the actual discrete generator;
violations raise with a suggested dt.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (NumericalPreconditionError, PSQError, StabilityBoundError,
                     TruncationError, UnsupportedObservableError)
# half_dft stays bound here for perfbench's tracer, which patches it per module
from .grids import (PhaseField, WaveFunction, half_dft, l2_norm,  # noqa: F401
                    multiply_mixed, pair_shear, spectral_derivatives)
from .polyalg import PolyH, pstar, pstar_S
from .spectra import _hermitian_gate, expectation, hermitian_eigh
from .starprod import ObservableSpec, bopp_apply
from .states import QuasiDistribution, twisted_tensor

# evolve_schrodinger runs the first and the last, evolve_phase_space the second
METHODS = ("split_step_schrodinger", "phase_space_rk4", "matrix_exponential")
RK4_STABILITY_LIMIT = 2.6          # conservative |lambda dt| cap (imaginary axis)
POWER_ITERATIONS = 8               # of the seeded RK4 stability estimate
POWER_SEED = 7
HILBERT_NORM_DRIFT = 1e-6          # relative drift of ||S^-1 Psi||_2 under quantum RK4
STAR_EXP_TAIL_BOUND = 1e-8
HEISENBERG_ORDER = 18              # Heisenberg bracket-series cap and tail bound
HEISENBERG_TAIL = 1e-12
EOM_CHECK_TOL = 1e-5               # equation-of-motion residual bound


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    method: str = "split_step_schrodinger"
    snapshot_every: int = 0        # 0: record only initial and final

    def __post_init__(self):
        if not (self.dt > 0 and self.steps > 0):
            raise PSQError("dt and steps must be positive")
        if self.method not in METHODS:
            raise PSQError("unknown method %r" % self.method)

    def snapshot_steps(self):
        every = self.snapshot_every if self.snapshot_every > 0 else self.steps
        return set(range(0, self.steps + 1, every)) | {self.steps}


@dataclass
class EvolutionResult:
    """Snapshots are the state's field Psi on every route (WaveFunctions when
    evolve_schrodinger runs without phase-space snapshots)."""

    times: np.ndarray
    snapshots: list                 # PhaseField or WaveFunction per snapshot
    expectations: dict              # name -> complex array over snapshot times
    norms: np.ndarray


def _propagate(start, step, snapshot, cfg, observables):
    """Apply `step` cfg.steps times to `start`, recording at the snapshot marks.

    snapshot(values) returns (snapshot, norm, state); the observables'
    expectations are taken in `state`, which may be None when there are none.
    """
    observables = observables or {}
    marks = cfg.snapshot_steps()
    times, snapshots, norms = [], [], []
    exps = {name: [] for name in observables}
    values = start
    for k in range(cfg.steps + 1):
        if k:
            values = step(values)
        if k in marks:
            snap, norm, state = snapshot(values)
            times.append(k * cfg.dt)
            snapshots.append(snap)
            norms.append(norm)
            for name, obs in observables.items():
                exps[name].append(expectation(obs, state))
    return EvolutionResult(np.array(times), snapshots,
                           {n: np.array(v) for n, v in exps.items()},
                           np.array(norms))


def default_observables(omega=1.0):
    x = PolyH.x()
    p = PolyH.p()
    return {
        "x": ObservableSpec.from_poly(x, "x"),
        "p": ObservableSpec.from_poly(p, "p"),
        "x2": ObservableSpec.from_poly(x * x, "x2"),
        "p2": ObservableSpec.from_poly(p * p, "p2"),
        "H": ObservableSpec.harmonic(omega),
    }


# ---------------------------------------------------------------------------
# configuration-space propagation
# ---------------------------------------------------------------------------

def _separable_parts(H, spec, grid):
    """Ordered operator of a natural symbol as (T(u) profile, V(x) profile).

    Returns None when a factor pair couples q and p (the pulled-back symbol
    has cross terms), in which case split-stepping does not apply.
    """
    t_prof = np.zeros(grid.nx, dtype=complex)
    v_prof = np.zeros(grid.nx, dtype=complex)
    for b, a in H.factors(spec, "left", grid.x, grid.xi, grid.hbar):
        if b is None:
            v_prof = v_prof + a
        elif np.ndim(a) == 0:
            t_prof = t_prof + a * b
        else:
            return None
    return t_prof, v_prof

def evolve_schrodinger(phi0, H, spec, cfg, observables=None,
                       phase_space_snapshots=True):
    """Propagate a wavefunction under the ordered Hamiltonian operator.

    method='split_step_schrodinger' needs a natural symbol and splits it into
    kinetic and potential factors (second-order Strang splitting, spectrally
    exact factors); method='matrix_exponential' propagates exactly with the
    eigensystem of the dense ordered matrix (spectra.hermitian_eigh).  Both
    refuse a non-finite ordered operator with NumericalPreconditionError and
    a non-Hermitian ordered word with PSQError; any other method raises
    PSQError too.  Snapshots are phase-space fields obtained by re-tensoring
    unless disabled.
    """
    grid = phi0.grid
    if cfg.method == "split_step_schrodinger":
        parts = _separable_parts(H, spec, grid)
        if parts is None:
            raise UnsupportedObservableError(
                "split-step requires a natural (kinetic + potential) symbol; "
                "use method='matrix_exponential'")
        t_prof, v_prof = parts
        if not (np.all(np.isfinite(t_prof)) and np.all(np.isfinite(v_prof))):
            raise NumericalPreconditionError(
                "ordered kinetic or potential profile of %s is not finite at sigma=%r"
                % (H.label, spec.sigma))
        _hermitian_gate(H, spec, grid, max(np.abs(t_prof).max(), np.abs(v_prof).max()))
        half_v = np.exp(-0.5j * cfg.dt * v_prof / grid.hbar)
        full_t = np.exp(-1j * cfg.dt * t_prof / grid.hbar)
        def step(values):
            return multiply_mixed(grid, values * half_v, "x", full_t) * half_v
    elif cfg.method == "matrix_exponential":
        evals, vecs = hermitian_eigh(H, spec, grid)
        phase = np.exp(-1j * cfg.dt * evals / grid.hbar)
        vecs = vecs.astype(complex, copy=False)     # one complex BLAS product per step
        vecs_h = vecs.conj().T
        def step(values):
            return vecs @ (phase * (vecs_h @ values))
    else:
        raise PSQError("evolve_schrodinger runs split_step_schrodinger or "
                       "matrix_exponential, not %r" % cfg.method)

    # one set of sigma tables for every snapshot's state, dropped once the last
    # state is built, so that they are not live while its expectations run
    shear = pair_shear(grid, spec.sigma) if (phase_space_snapshots or observables) else None
    unbuilt = len(cfg.snapshot_steps())

    def snapshot(values):
        nonlocal shear, unbuilt
        wf = WaveFunction(grid, values.copy())
        if shear is None:
            return wf, wf.norm(), None
        state = twisted_tensor(wf, wf, spec, shear)
        unbuilt -= 1
        if not unbuilt:
            shear = None
        return (state.psi_field if phase_space_snapshots else wf), wf.norm(), state

    return _propagate(phi0.values, step, snapshot, cfg, observables)


# ---------------------------------------------------------------------------
# phase-space propagation
# ---------------------------------------------------------------------------

def _quantum_rhs(H, spec, hbar):
    def rhs(field):
        left, right = bopp_apply(H, field, "both", spec)
        return (left - right) * (1.0 / (1j * hbar))
    return rhs

def _classical_rhs(H, grid):
    """Liouville generator {H, rho} with exact symbol derivatives."""
    poly = H.as_poly()
    X, P = grid.meshes()
    hx = poly.diff_x().evaluate(X, P, grid.hbar)
    hp = poly.diff_p().evaluate(X, P, grid.hbar)

    def rhs(field):
        d = spectral_derivatives(field, [(1, 0), (0, 1)])
        return PhaseField(grid, hx * d[(0, 1)] - hp * d[(1, 0)])
    return rhs

def _estimate_spectral_radius(rhs, grid):
    rng = np.random.default_rng(POWER_SEED)
    X, P = grid.meshes()
    envelope = np.exp(-(X ** 2 / (2 * (0.4 * grid.x_max) ** 2)
                        + P ** 2 / (2 * (0.4 * grid.p_max) ** 2)))
    vec = PhaseField(grid, envelope * (rng.normal(size=(grid.nx, grid.np))
                                       + 1j * rng.normal(size=(grid.nx, grid.np))))
    vec = vec * (1.0 / l2_norm(vec))
    est = 0.0
    for _ in range(POWER_ITERATIONS):
        nxt = rhs(vec)
        nrm = l2_norm(nxt)
        if nrm == 0.0:
            return 0.0
        est = nrm
        vec = nxt * (1.0 / nrm)
    return est

def evolve_phase_space(state0, H, cfg, observables=None, classical=False):
    """Method-of-lines RK4 on the phase-space evolution equation.

    Evolves the state's field Psi (pure or mixed: the equation is linear in
    the state, so Psi and rho = Psi / sqrt(2 pi hbar) evolve alike) and
    records Psi snapshots; norms are |normalization_integral()|.  The
    quantum flow is unitary, so the Hilbert-algebra norm ||S^-1 Psi||_2 is
    checked after every step against t = 0: a relative drift past
    HILBERT_NORM_DRIFT raises NumericalPreconditionError, and so do a start
    state that is zero on the grid and a pullback the deconvolution guard
    refuses (IllPosedSmoothingError).  With
    classical=True the same integrator solves the Liouville equation instead
    (the hbar-deformation terms are dropped, and so is the norm check); for
    quadratic symbols the two flows agree on Gaussians, which the tests
    exploit.  The evolution runs under the state's own ordering, state0.spec.
    """
    if cfg.method != "phase_space_rk4":
        raise PSQError("evolve_phase_space runs phase_space_rk4, not %r" % cfg.method)
    spec = state0.spec
    grid = state0.grid
    rhs = _classical_rhs(H, grid) if classical else _quantum_rhs(H, spec, grid.hbar)
    radius = _estimate_spectral_radius(rhs, grid)
    if radius * cfg.dt > RK4_STABILITY_LIMIT:
        raise StabilityBoundError(
            "dt=%.3g violates the RK4 stability bound for this generator "
            "(spectral radius ~ %.3g); suggested dt <= %.3g"
            % (cfg.dt, radius, 0.8 * RK4_STABILITY_LIMIT / radius))

    norm0 = None if classical else state0.norm_h()
    if norm0 == 0.0:
        raise NumericalPreconditionError("RK4 start state is zero on this grid; "
                                         "its norm drift is undefined")

    def step(cur):
        k1 = rhs(cur)
        k2 = rhs(cur + k1 * (0.5 * cfg.dt))
        k3 = rhs(cur + k2 * (0.5 * cfg.dt))
        k4 = rhs(cur + k3 * cfg.dt)
        nxt = cur + (k1 + (k2 + k3) * 2.0 + k4) * (cfg.dt / 6.0)
        if norm0 is not None:
            drift = abs(QuasiDistribution(nxt, spec).norm_h() / norm0 - 1.0)
            if drift > HILBERT_NORM_DRIFT:
                raise NumericalPreconditionError(
                    "RK4 flow is not unitary here: ||S^-1 Psi||_2 drifted by %.3g "
                    "(bound %.1g) from t = 0" % (drift, HILBERT_NORM_DRIFT))
        return nxt

    def snapshot(field):
        state = QuasiDistribution(field.copy(), spec)
        return state.psi_field, abs(state.normalization_integral()), state

    return _propagate(state0.psi_field, step, snapshot, cfg, observables)


# ---------------------------------------------------------------------------
# star exponential and Heisenberg picture
# ---------------------------------------------------------------------------

def _fold_numeric_hbar(poly, hbar):
    out = {}
    for (n, m, k), c in poly.terms.items():
        key = (n, m, 0)
        out[key] = out.get(key, 0.0) + c * hbar ** k
    return PolyH(out)


def star_exponential_poly(H_poly, t, K, spec, hbar):
    """Taylor polynomial of the star exponential, exact star powers.

    Star powers of a polynomial symbol are themselves polynomials and are
    computed exactly in the symbolic layer (sampling unbounded symbols and
    star-multiplying the samples would compound spectral-truncation error
    instead).  Numeric hbar is folded in so the 1/hbar^k prefactors close.
    Returns the list of partial-term polynomials [c_k H^(star k)].
    """
    word = spec.smoother.to_word()
    base = _fold_numeric_hbar(word.apply(H_poly, "inverse"), hbar)
    terms = [PolyH.const(1.0)]
    power = PolyH.const(1.0)
    coeff = 1.0
    for k in range(1, K + 1):
        power = _fold_numeric_hbar(pstar(base, power, spec.sigma), hbar)
        coeff = coeff * (-1j * t / hbar) / k
        terms.append(power.scale(coeff))
    # push the sum forward through the smoother (term-wise, exact)
    return [_fold_numeric_hbar(word.apply(term, "forward"), hbar) for term in terms]

def star_exponential(H, t, K, spec, grid):
    """U(t) = sum_k (1/k!) (-i t/hbar)^k H^(star k), truncated at order K.

    The symbol must be polynomial; the star powers are exact and the last
    sampled term must fall below the tail bound relative to the partial sum,
    otherwise the truncation is refused and the achieved ratio reported.
    """
    if K > 20:
        raise PSQError("truncation order capped at 20")
    terms = star_exponential_poly(H.as_poly(), t, K, spec, grid.hbar)
    X, P = grid.meshes()
    vals = np.zeros((grid.nx, grid.np), dtype=complex)
    for term in terms:
        last = term.evaluate(X, P, grid.hbar)
        vals += last
    total = PhaseField(grid, vals)
    ratio = l2_norm(PhaseField(grid, last)) / max(l2_norm(total), 1e-300)
    if ratio > STAR_EXP_TAIL_BOUND:
        raise TruncationError(
            "star-exponential tail bound not met at order %d: last-term ratio "
            "%.3g > %.1g; shrink t or raise K" % (K, ratio, STAR_EXP_TAIL_BOUND))
    return total

def formal_star_bracket(A_poly, H_poly, spec):
    """Deformed bracket of two polynomial symbols under the spec, exactly.

    (A *_{sigma,S} H - H *_{sigma,S} A)/(i hbar) computed in the symbolic
    layer: the (sigma, S) commutator, with the formal hbar grading shifted
    down by one.  Its hbar^0 part cancels up to round-off, which grows with
    the products' coefficients: a remainder above 1e-12 times the larger
    product's largest coefficient (at least 1) is refused.
    """
    word = spec.smoother.to_word()
    ah = pstar_S(A_poly, H_poly, spec.sigma, word)
    ha = pstar_S(H_poly, A_poly, spec.sigma, word)
    bound = 1e-12 * max(ah.max_abs_coeff(), ha.max_abs_coeff(), 1.0)
    shifted = {}
    for (n, m, k), c in (ah - ha).terms.items():
        if k == 0:
            if abs(c) > bound:
                raise PSQError("bracket has an hbar^0 remainder; inconsistent")
            continue
        shifted[(n, m, k - 1)] = c / 1j
    return PolyH(shifted)

def heisenberg_observable(A_poly, H_poly, spec, t):
    """A(t) as a polynomial: truncated exponential of the bracket derivation.

    A(t) = sum_k t^k/k! ad^k A with ad X = [[X, H]]; exact for each term,
    guarded truncation overall.  For a quadratic Hamiltonian the iterated
    brackets stay in a fixed-degree space, so the series is entire and the
    bound is easily met for moderate t.
    """
    total = A_poly
    term = A_poly
    for k in range(1, HEISENBERG_ORDER + 1):
        term = formal_star_bracket(term, H_poly, spec).scale(t / k)
        total = total + term
        if term.max_abs_coeff() <= HEISENBERG_TAIL * max(total.max_abs_coeff(), 1e-300):
            return total
    raise TruncationError(
        "Heisenberg series tail %.3g above %.1g at order %d"
        % (term.max_abs_coeff(), HEISENBERG_TAIL, HEISENBERG_ORDER))

def heisenberg_trajectory(A, phi0, H, spec, cfg):
    """Expectation trajectory of A with the equation-of-motion residual.

    Evolves the wavefunction phi0 in the Schrodinger picture, as
    evolve_schrodinger does, records <A>(t) in the state phi* (x) phi under
    `spec`, and checks d/dt <A> = <[[A, H]]> at interior snapshot times by
    centered differences.  Returns (times, values, residual_max).
    """
    bracket = ObservableSpec.from_poly(
        formal_star_bracket(A.as_poly(), H.as_poly(), spec), "[[A,H]]")
    result = evolve_schrodinger(phi0, H, spec, cfg,
                                observables={"A": A, "B": bracket},
                                phase_space_snapshots=False)
    times = result.times
    vals = result.expectations["A"]
    brak = result.expectations["B"]
    resid = 0.0
    for i in range(1, len(times) - 1):
        dt2 = times[i + 1] - times[i - 1]
        deriv = (vals[i + 1] - vals[i - 1]) / dt2
        resid = max(resid, abs(deriv - brak[i]))
    if resid > EOM_CHECK_TOL:
        raise PSQError(
            "equation-of-motion residual %.3g exceeds %.1g" % (resid, EOM_CHECK_TOL))
    return times, vals, resid
