"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines with
their measured margins.
"""

import time

import numpy as np
import pytest

from psq import (EvolutionConfig, GaussianSmoother, IdentitySmoother,
                 ObservableSpec, OrderingSpec, PolyH, WaveFunction,
                 basis_idempotence_check, bopp_apply,
                 evolve_phase_space, evolve_schrodinger, expectation,
                 gauge_spectrum_check, hermite_function, integrate, l2_norm,
                 make_grid, operator_matrix, spectrum_via_schrodinger,
                 star_sigma, stargen_residual, twisted_tensor, uncertainty)
from psq.closedforms import (CoherentParams, FreeGaussianParams,
                             OscillatorParams, classical_limit_probe,
                             coherent_state, free_gaussian, free_wavepacket,
                             ho_ladder, ho_state)
from psq.dynamics import default_observables
from psq.polyalg import DiffOpWord, pstar, sigma_order

from conftest import gaussian_mixture

TWO_PI = 2 * np.pi


def report(index, ok, detail):
    status = "PASS" if ok else "FAIL"
    print("[ACCEPTANCE %02d] %s  %s" % (index, status, detail))
    assert ok, detail


def test_criterion_01_oscillator_spectrum():
    t0 = time.time()
    grid = make_grid(512, 64, -8, 8, -8, 8, 1.0)
    H = ObservableSpec.harmonic(1.0)
    plain = spectrum_via_schrodinger(H, OrderingSpec(0.5), 5, grid,
                                     residual_fields=False)
    want = np.arange(5) + 0.5
    err_plain = np.abs(plain.energies - want).max() / np.abs(want).max()
    smooth = spectrum_via_schrodinger(
        H, OrderingSpec(0.5, GaussianSmoother(0.1, 0.1)), 5, grid,
        residual_fields=False)
    err_smooth = np.abs(smooth.energies - (np.arange(5) + 0.4)).max()
    elapsed = time.time() - t0
    ok = err_plain < 1e-8 and err_smooth < 1e-6 and elapsed < 5.0
    report(1, ok, "oscillator levels: plain rel err %.2e (<1e-8), "
                  "smoothed abs err %.2e (<1e-6), %.1f s (<5 s)"
           % (err_plain, err_smooth, elapsed))


def test_criterion_02_gauge_invariance():
    t0 = time.time()
    grid = make_grid(256, 64, -8, 8, -8, 8, 1.0)
    osc = ObservableSpec.harmonic(1.0)
    quartic = ObservableSpec.from_poly(
        PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25), "Hq")
    dev_osc = gauge_spectrum_check(osc, [0.0, 0.5, 1.0], [IdentitySmoother()],
                                   5, grid)["max_deviation"]
    dev_q = gauge_spectrum_check(quartic, [0.0, 0.5, 1.0], [IdentitySmoother()],
                                 5, grid)["max_deviation"]
    elapsed = time.time() - t0
    ok = dev_osc < 1e-7 and dev_q < 1e-7 and elapsed < 20.0
    report(2, ok, "spectra across sigma in {0, 1/2, 1}: oscillator dev %.2e, "
                  "quartic dev %.2e (<1e-7), %.1f s (<20 s)"
           % (dev_osc, dev_q, elapsed))


def test_criterion_03_stationary_state_oracle():
    t0 = time.time()
    grid = make_grid(128, 128, -8, 8, -8, 8, 1.0)
    par = OscillatorParams()           # lam = 1/2
    H = ObservableSpec.harmonic(1.0)
    worst = 0.0
    for n in range(5):
        state = ho_state(n, n, par, grid)
        left, right = stargen_residual(H, state, n + 0.5)
        worst = max(worst, left, right)
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(3, ok, "two-sided star-genvalue residuals of analytic states "
                  "n<=4: worst %.2e (<1e-6), %.1f s (<30 s)" % (worst, elapsed))


def test_criterion_04_ladder_equals_closed_form():
    grid = make_grid(128, 128, -8, 8, -8, 8, 1.0)
    par = OscillatorParams()
    worst = 0.0
    for m in range(5):
        for n in range(5 - m):
            closed = ho_state(m, n, par, grid)
            ladder = ho_ladder(m, n, par, grid)
            rel = l2_norm(closed.psi_field - ladder.psi_field) \
                / l2_norm(closed.psi_field)
            worst = max(worst, rel)
    ok = worst < 1e-6
    report(4, ok, "ladder vs closed form, m+n<=4: worst rel L2 %.2e (<1e-6)"
           % worst)


def test_criterion_05_free_particle_dynamics():
    grid = make_grid(128, 128, -12, 12, -12, 12, 1.0)
    hbar = grid.hbar
    dp = np.sqrt(hbar / 2)
    dx = hbar / (2 * dp)
    p0 = 1.0
    params = FreeGaussianParams(p0, dp)
    H = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "H")
    phi0 = free_wavepacket(params, 0.0, grid)
    spec = OrderingSpec(0.5)
    state0 = twisted_tensor(phi0, phi0, spec)
    u0 = uncertainty(state0, "x") * uncertainty(state0, "p")
    init_ok = abs(u0 - hbar / 2) < 1e-7
    cfg = EvolutionConfig(dt=1e-3, steps=1000, snapshot_every=250)
    result = evolve_schrodinger(phi0, H, spec, cfg,
                                observables=default_observables())
    exact = free_gaussian(params, 1.0, OrderingSpec(0.5), grid)
    rel = l2_norm(result.snapshots[-1] - exact.psi_field) \
        / l2_norm(exact.psi_field)
    moment_err = 0.0
    for i, t in enumerate(result.times):
        x_mean = result.expectations["x"][i].real
        p_mean = result.expectations["p"][i].real
        var_x = result.expectations["x2"][i].real - x_mean ** 2
        var_p = result.expectations["p2"][i].real - p_mean ** 2
        moment_err = max(
            moment_err,
            abs(x_mean - p0 * t),
            abs(np.sqrt(var_p) - dp),
            abs(np.sqrt(var_x) - np.sqrt(dx ** 2 + (dp * t) ** 2)))
    ok = rel < 1e-5 and moment_err < 1e-6 and init_ok
    report(5, ok, "free packet at t=1: field rel L2 %.2e (<1e-5), moment "
                  "laws %.2e (<1e-6), initial dx dp - hbar/2 = %.2e (<1e-7)"
           % (rel, moment_err, u0 - hbar / 2))


def test_criterion_06_coherent_orbit():
    grid = make_grid(64, 64, -8, 8, -8, 8, 1.0)
    x0, p0 = 1.0, 0.0
    cs = coherent_state(CoherentParams(x0, p0, 1.0), OrderingSpec(0.5), grid)
    steps = 1256
    dt = TWO_PI / steps
    obs = default_observables()
    cfg = EvolutionConfig(dt=dt, steps=steps, method="phase_space_rk4",
                          snapshot_every=157)
    result = evolve_phase_space(cs, ObservableSpec.harmonic(1.0), cfg,
                                observables=obs)
    orbit_err = 0.0
    unc_err = 0.0
    for i, t in enumerate(result.times):
        want_x = x0 * np.cos(t) + p0 * np.sin(t)
        want_p = -x0 * np.sin(t) + p0 * np.cos(t)
        x_mean = result.expectations["x"][i].real
        p_mean = result.expectations["p"][i].real
        orbit_err = max(orbit_err, abs(x_mean - want_x), abs(p_mean - want_p))
        var_x = result.expectations["x2"][i].real - x_mean ** 2
        var_p = result.expectations["p2"][i].real - p_mean ** 2
        unc_err = max(unc_err, abs(np.sqrt(var_x * var_p) - grid.hbar / 2))
    ok = orbit_err < 1e-6 and unc_err < 1e-6
    report(6, ok, "coherent orbit over one period: center err %.2e (<1e-6), "
                  "dx dp - hbar/2 err %.2e (<1e-6)" % (orbit_err, unc_err))


def test_criterion_07_bridge_property_suite():
    grid = make_grid(64, 64, -8, 8, -8, 8, 1.0)
    rng = np.random.default_rng(905)
    basis = [hermite_function(grid, n) for n in range(6)]
    observables = [
        ObservableSpec.from_poly(PolyH.x(), "x"),
        ObservableSpec.from_poly(PolyH.p(), "p"),
        ObservableSpec.from_poly(PolyH.monomial(2, 0), "x2"),
        ObservableSpec.from_poly(PolyH.monomial(0, 2), "p2"),
        ObservableSpec.from_poly(PolyH.monomial(1, 2), "xp2"),
        ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5)
                                 + PolyH.monomial(2, 0, c=0.5)
                                 + PolyH.monomial(4, 0, c=0.1), "H"),
    ]
    specs = [OrderingSpec(0.5), OrderingSpec(0.0), OrderingSpec(1.0),
             OrderingSpec(0.3, GaussianSmoother(0.1, 0.05))]
    matrices = {}
    for spec_i, spec in enumerate(specs):
        for obs_i, A in enumerate(observables):
            matrices[(spec_i, obs_i)] = operator_matrix(A, spec, grid)
    worst = 0.0
    for trial in range(50):
        spec_i = trial % len(specs)
        spec = specs[spec_i]
        c1 = rng.normal(size=6) + 1j * rng.normal(size=6)
        c2 = rng.normal(size=6) + 1j * rng.normal(size=6)
        phi = WaveFunction(grid, sum(c * b.values
                                     for c, b in zip(c1, basis))).normalized()
        psi = WaveFunction(grid, sum(c * b.values
                                     for c, b in zip(c2, basis))).normalized()
        state = twisted_tensor(phi, psi, spec)
        for obs_i, A in enumerate(observables):
            M = matrices[(spec_i, obs_i)]
            left = bopp_apply(A, state.psi_field, "left", spec)
            want = twisted_tensor(phi, WaveFunction(psi.grid, M @ psi.values), spec)
            worst = max(worst, l2_norm(left - want.psi_field)
                        / max(l2_norm(left), 1e-30))
            right = bopp_apply(A, state.psi_field, "right", spec)
            wantr = twisted_tensor(WaveFunction(phi.grid, M.conj().T @ phi.values),
                                   psi, spec)
            worst = max(worst, l2_norm(right - wantr.psi_field)
                        / max(l2_norm(right), 1e-30))
    ok = worst < 1e-6
    report(7, ok, "left/right star action vs operator matrix, 50 random "
                  "pairs x 6 observables: worst rel %.2e (<1e-6)" % worst)


def test_criterion_08_algebraic_exactness():
    t0 = time.time()
    rng = np.random.default_rng(17)

    def rand_poly(deg=3):
        return PolyH({(n, m, 0): complex(rng.normal(), rng.normal())
                      for n in range(deg + 1) for m in range(deg + 1 - n)})

    checks = []
    s = 0.3
    f, g, h = rand_poly(), rand_poly(), rand_poly()
    # associativity at coefficient level
    d1 = pstar(pstar(f, g, s), h, s) - pstar(f, pstar(g, h, s), s)
    checks.append(("pstar associativity", d1.max_abs_coeff() < 1e-11))
    # hbar^0 and hbar^1 slice axioms
    prod = pstar(f, g, s)
    d2 = prod.hbar_slice(0) - f * g
    checks.append(("hbar^0 slice", d2.max_abs_coeff() < 1e-12))
    from psq.polyalg import ppoisson
    d3 = (pstar(f, g, s).hbar_slice(1) - pstar(g, f, s).hbar_slice(1)) \
        - ppoisson(f, g).scale(1j)
    checks.append(("hbar^1 antisymmetrization", d3.max_abs_coeff() < 1e-11))
    # gauge intertwining, exact
    word = DiffOpWord.gauge_shift(0.45)
    d4 = word.apply(pstar(f, g, s)) \
        - pstar(word.apply(f), word.apply(g), s + 0.45)
    checks.append(("gauge intertwining", d4.max_abs_coeff() < 1e-10))
    # (q p^2)_sigma ordering identity
    got = sigma_order(PolyH.monomial(1, 2), s)
    from psq.polyalg import OperatorNF
    d5 = got - OperatorNF({(1, 2, 0): 1.0, (0, 1, 1): -2j * s})
    checks.append(("(q p^2)_sigma identity",
                   all(abs(v) < 1e-15 for v in d5.terms.values())))
    # three-parameter S^-1 A identity
    a, b, c = 1.5, -0.8, 0.4
    word3 = DiffOpWord.three_parameter(a, b, c)
    A = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(0, 3, c=1 / 6) \
        + PolyH.monomial(2, 0, c=0.5)
    want = A + PolyH.monomial(1, 0, 1, -1j * b) + PolyH.monomial(1, 1, 1, -1j * b) \
        + PolyH.monomial(0, 0, 2, 0.5 * a * b + c)
    d6 = word3.apply(A, "inverse") - want
    checks.append(("three-parameter pullback", d6.max_abs_coeff() < 1e-14))
    elapsed = time.time() - t0
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 1.0
    report(8, ok, "symbolic suite %s in %.2f s (<1 s)"
           % ("all exact" if not failed else "FAILED: %s" % failed, elapsed))


def test_criterion_09_classical_limits():
    hbars = [0.2, 0.1, 0.05, 0.025]

    def testfn(x0, p0):
        def fn(X, P):
            return np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / 4.0)
        return fn

    outcomes = []

    p0, t = 0.8, 1.0
    fn = testfn(p0 * t, p0)

    def free_family(hb):
        span = abs(p0) * t + 8 * np.sqrt(hb / 0.2) + 1.5
        g = make_grid(64, 64, -span, span, -span, span, hb)
        return free_gaussian(FreeGaussianParams(p0, 0.5 * np.sqrt(hb)), t, OrderingSpec(0.5), g)

    errs = [abs(v - fn(p0 * t, p0)) for v in
            classical_limit_probe(free_family, fn, hbars)]
    outcomes.append(("free", errs,
                     all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))))

    fn0 = testfn(0.0, 0.0)

    def osc_family(hb):
        span = 6.0 * np.sqrt(1.5 * hb)
        g = make_grid(64, 64, -span, span, -span, span, hb)
        return ho_state(2, 2, OscillatorParams(), g)

    errs = [abs(v - fn0(0.0, 0.0)) for v in
            classical_limit_probe(osc_family, fn0, hbars)]
    outcomes.append(("oscillator", errs,
                     all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))))

    x0, pp0 = 1.0, 0.5
    fnc = testfn(x0, pp0)

    def coh_family(hb):
        span = max(abs(x0), abs(pp0)) + 8 * np.sqrt(hb / 0.2)
        g = make_grid(64, 64, -span, span, -span, span, hb)
        return coherent_state(CoherentParams(x0, pp0, 1.0), OrderingSpec(0.5), g)

    errs = [abs(v - fnc(x0, pp0)) for v in
            classical_limit_probe(coh_family, fnc, hbars)]
    outcomes.append(("coherent", errs,
                     all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))))

    ok = all(mono for _n, _e, mono in outcomes)
    detail = "; ".join("%s errors %s monotone=%s"
                       % (name, ["%.1e" % e for e in errs], mono)
                       for name, errs, mono in outcomes)
    report(9, ok, detail)


def test_criterion_10_state_space_structure():
    grid = make_grid(64, 64, -8, 8, -8, 8, 1.0)
    spec = OrderingSpec(0.5)
    worst_idem = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    r = basis_idempotence_check(i, j, k, l, spec, grid)
                    worst_idem = max(worst_idem, r)
    rng = np.random.default_rng(31)
    bound_const = 1.0 / np.sqrt(TWO_PI * grid.hbar)
    worst_bound = -np.inf
    worst_trace = 0.0
    for _ in range(100):
        f = gaussian_mixture(grid, rng)
        g2 = gaussian_mixture(grid, rng)
        prod_fg = star_sigma(f, g2, 0.5)
        prod_gf = star_sigma(g2, f, 0.5)
        slack = l2_norm(prod_fg) - bound_const * l2_norm(f) * l2_norm(g2)
        worst_bound = max(worst_bound, slack)
        trace_dev = abs(integrate(prod_fg) - integrate(prod_gf)) \
            / (l2_norm(f) * l2_norm(g2))
        worst_trace = max(worst_trace, trace_dev)
    ok = worst_idem < 1e-6 and worst_bound < 1e-9 and worst_trace < 1e-8
    report(10, ok, "basis idempotence (256 index tuples) worst %.2e (<1e-6); "
                   "norm-bound slack %.2e (<1e-9); trace dev %.2e (<1e-8)"
           % (worst_idem, worst_bound, worst_trace))
