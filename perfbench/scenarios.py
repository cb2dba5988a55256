"""Seeded scenario configs for each workload, and their closed-form checks.

A workload is a fixed *cycle* of scenario slots.  The slot list, grid sizes,
step counts and output formats never change; the seed only draws the
physical parameters (sigma, Hermite indices, x0/p0, the quartic coupling).
So the work per cycle, and every computed call count, is the same for every
seed, while no two cycles feed the program the same inputs.

Each check reads the artifacts a scenario wrote and returns a list of
failure messages (empty when the output is correct).  Tolerances are the
acceptance-criteria tolerances of the test suite; they are not loosened.
"""

import csv
import os

import numpy as np

WORKLOADS = ("orbit", "spectra", "algebra", "transport")

GAUSSIAN = {"kind": "gaussian", "alpha": 0.1, "beta": 0.1}
IDENTITY = {"kind": "identity"}
HARMONIC = "0.5*p^2 + 0.5*x^2"
LEVELS = 5

# acceptance 01, 02, 05, 06 and 10
TOL_LEVELS_PLAIN = 1e-8      # relative, identity smoother
TOL_LEVELS_SMOOTH = 1e-6     # absolute, Gaussian smoother
TOL_ORDERINGS = 1e-7         # spread of one Hamiltonian's levels over orderings
TOL_MOMENTS = 1e-6           # orbit centre, energy, norm, free-packet moments
TOL_IDEMPOTENCE = 1e-6       # Psi_ii * Psi_jj = (2 pi hbar)^-1/2 delta_ij Psi_ii
TOL_MARGINAL = 1e-6          # x-marginal of a Hermite state against |phi_n|^2


def _grid(nx, np_, x_span, p_span):
    return {"nx": nx, "np": np_, "x_min": -x_span, "x_max": x_span,
            "p_min": -p_span, "p_max": p_span, "hbar": 1.0}


def _ordering(sigma, smoother):
    return {"sigma": sigma, "smoother": dict(smoother)}


def _draw(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


def _orbit(rng):
    """Copies of demos/configs/coherent_orbit.json; sigma includes 0 and 1."""
    slots = []
    for sigma in (0.0, 1.0, _draw(rng, 0.0, 1.0)):
        slots.append(("orbit", {
            "scenario": "evolve",
            "formats": ["csv", "bin", "dat"],
            "grid": _grid(64, 64, 8.0, 8.0),
            "ordering": _ordering(sigma, IDENTITY),
            "params": {"system": "oscillator", "method": "phase_space_rk4",
                       "dt": 0.01, "steps": 628, "snapshot_every": 157,
                       "observables": "x,p,H",
                       "x0": _draw(rng, -1.5, 1.5), "p0": _draw(rng, -1.5, 1.5)},
        }))
    return slots


def _spectra(rng):
    """Harmonic and quartic spectra at nx 512 and 1024, both smoothers.

    The gauge check comes first so that the quartic spectra of the same
    cycle can be compared with its orderings.  It runs at nx=256, the grid
    of acceptance 02, where the quartic levels agree with nx=1024 to ~1e-12.
    """
    quartic = "%s + %r*x^4" % (HARMONIC, _draw(rng, 0.02, 0.1))
    slots = [("gauge", {
        "scenario": "gauge-check",
        "formats": ["csv"],
        "grid": _grid(256, 128, 8.0, 8.0),
        "params": {"hamiltonian": quartic, "sigmas": [0.0, 0.5, 1.0],
                   "levels": LEVELS, "smoothers": [dict(GAUSSIAN)]},
    })]
    for nx, ham, smoother in ((512, HARMONIC, IDENTITY),
                              (512, quartic, GAUSSIAN),
                              (1024, HARMONIC, GAUSSIAN),
                              (1024, quartic, IDENTITY)):
        slots.append(("spectrum", {
            "scenario": "spectrum",
            "formats": ["csv"],
            "grid": _grid(nx, 128, 8.0, 8.0),
            "ordering": _ordering(_draw(rng, 0.0, 1.0), smoother),
            "params": {"hamiltonian": ham, "levels": LEVELS},
        }))
    return slots


def _hermite_pair(rng, equal):
    i = int(rng.integers(0, 4))
    if equal:
        return i, i
    return i, (i + int(rng.integers(1, 4))) % 4


def _star(rng, n, sigma, smoother, equal):
    i, j = _hermite_pair(rng, equal)
    return ("star", {
        "scenario": "starprod",
        "formats": ["bin"],
        "grid": _grid(n, n, 8.0, 8.0),
        "ordering": _ordering(sigma, smoother),
        "params": {"op": "star", "left_hermite": i, "right_hermite": j},
    })


def _wigner(rng, smoother):
    n = int(rng.integers(0, 5))
    return ("wigner", {
        "scenario": "wigner",
        "formats": ["csv", "bin"],
        "grid": _grid(256, 256, 8.0, 8.0),
        "ordering": _ordering(_draw(rng, 0.0, 1.0), smoother),
        "params": {"phi_hermite": n, "psi_hermite": n},
    })


def _algebra(rng):
    """Psi_ii * Psi_jj at 128^2 and 256^2, and Wigner states at 256^2.

    Most slots are 128^2 products, so the median scenario is one of them.
    A 256^2 slot follows every second 128^2 one, so that a burst of load
    from outside the benchmark cannot slow all 128^2 products of a cycle.
    """
    small = [_star(rng, 128, 0.0, IDENTITY, True), _star(rng, 128, 1.0, GAUSSIAN, False)]
    small += [_star(rng, 128, _draw(rng, 0.0, 1.0), (IDENTITY, GAUSSIAN)[k % 2], k % 3 != 0)
              for k in range(7)]
    large = [_star(rng, 256, 1.0, IDENTITY, True), _star(rng, 256, 0.0, GAUSSIAN, False),
             _wigner(rng, IDENTITY), _wigner(rng, GAUSSIAN)]
    slots = []
    for k, slot in enumerate(small):
        slots.append(slot)
        if k % 2 == 1 and large:
            slots.append(large.pop(0))
    return slots


def _transport(rng):
    """Copies of demos/configs/free_particle.json: 6 snapshots of 32768 rows."""
    slots = []
    for _ in range(4):
        slots.append(("free", {
            "scenario": "evolve",
            "formats": ["csv"],
            "grid": {"nx": 256, "np": 128, "x_min": -12.0, "x_max": 12.0,
                     "p_min": -8.0, "p_max": 8.0, "hbar": 1.0},
            "ordering": _ordering(_draw(rng, 0.0, 1.0), IDENTITY),
            "params": {"system": "free", "method": "split_step_schrodinger",
                       "dt": 0.001, "steps": 1000, "snapshot_every": 200,
                       "observables": "x,p,x2,p2", "p0": _draw(rng, 0.5, 2.0)},
        }))
    return slots


_BUILDERS = {"orbit": _orbit, "spectra": _spectra, "algebra": _algebra,
             "transport": _transport}


def cycle(workload, seed, index):
    """Scenario slots of cycle `index` for `seed`: a list of (kind, config).

    Configs carry no output_dir; the runner adds one per execution.
    """
    rng = np.random.default_rng([int(seed) % (1 << 63), int(index)])
    return _BUILDERS[workload](rng)


# ---------------------------------------------------------------------------
# closed-form checks
# ---------------------------------------------------------------------------

def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


def _check_orbit(cfg, outdir, _context):
    """<x>, <p> on the classical orbit; energy and norm conserved."""
    rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    par = cfg["params"]
    x0, p0 = par["x0"], par["p0"]
    t = _column(rows, "t")
    errors = []
    centre = max(np.abs(_column(rows, "x_re") - (x0 * np.cos(t) + p0 * np.sin(t))).max(),
                 np.abs(_column(rows, "p_re") - (-x0 * np.sin(t) + p0 * np.cos(t))).max())
    if not centre < TOL_MOMENTS:
        errors.append("orbit centre error %.3g" % centre)
    energy = 0.5 * (x0 ** 2 + p0 ** 2) + 0.5      # coherent state, hbar = omega = 1
    e_err = np.abs(_column(rows, "H_re") - energy).max() / energy
    if not e_err < TOL_MOMENTS:
        errors.append("energy drift %.3g" % e_err)
    n_err = np.abs(_column(rows, "norm") - 1.0).max()
    if not n_err < TOL_MOMENTS:
        errors.append("norm drift %.3g" % n_err)
    return errors


def _check_free(cfg, outdir, _context):
    """Spreading free packet: <x> = p0 t, dp constant, dx(t) = sqrt(dx^2 + dp^2 t^2)."""
    rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
    p0 = cfg["params"]["p0"]
    hbar = cfg["grid"]["hbar"]
    dp = np.sqrt(hbar / 2.0)            # the CLI's default momentum width
    dx = hbar / (2.0 * dp)
    t = _column(rows, "t")
    x, p = _column(rows, "x_re"), _column(rows, "p_re")
    var_x = _column(rows, "x2_re") - x ** 2
    var_p = _column(rows, "p2_re") - p ** 2
    errors = []
    worst = max(np.abs(x - p0 * t).max(), np.abs(p - p0).max(),
                np.abs(np.sqrt(var_p) - dp).max(),
                np.abs(np.sqrt(var_x) - np.sqrt(dx ** 2 + (dp * t) ** 2)).max())
    if not worst < TOL_MOMENTS:
        errors.append("free-packet moment error %.3g" % worst)
    n_err = np.abs(_column(rows, "norm") - 1.0).max()
    if not n_err < TOL_MOMENTS:
        errors.append("norm drift %.3g" % n_err)
    return errors


def _smoother_shift(smoother):
    """Level offset of the harmonic oscillator under a Gaussian smoother.

    E_n = (n + 1 - lam) hbar omega with lam = (1 + omega alpha + beta/omega)/2.
    """
    if smoother["kind"] == "identity":
        return 0.5
    return 0.5 * (1.0 - smoother["alpha"] - smoother["beta"])


def _check_spectrum(cfg, outdir, context):
    energies = _column(_read_csv(os.path.join(outdir, "spectrum.csv")), "energy")
    smoother = cfg["ordering"]["smoother"]
    ham = cfg["params"]["hamiltonian"]
    if ham == HARMONIC:
        want = np.arange(LEVELS) + _smoother_shift(smoother)
        if smoother["kind"] == "identity":
            err = np.abs(energies - want).max() / np.abs(want).max()
            tol = TOL_LEVELS_PLAIN
        else:
            err = np.abs(energies - want).max()
            tol = TOL_LEVELS_SMOOTH
        return [] if err < tol else ["harmonic level error %.3g" % err]
    reference = context.get(("gauge", ham, smoother["kind"]))
    if reference is None:
        return ["no gauge-check reference for %r" % ham]
    dev = np.abs(energies - reference).max()
    return [] if dev < TOL_ORDERINGS else ["ordering deviation %.3g" % dev]


def _check_gauge(cfg, outdir, context):
    """Levels agree across sigma within each smoother; keep them as reference."""
    groups = {}
    with open(os.path.join(outdir, "gauge_spectra.csv")) as fh:
        lines = fh.read().splitlines()[1:]
    for line in lines:
        # the ordering label "sigma=0.5,gaussian" is written unquoted
        label, _n, energy = line.rsplit(",", 2)
        groups.setdefault(label.split(",")[1], {}).setdefault(label, []).append(
            float(energy))
    errors = []
    ham = cfg["params"]["hamiltonian"]
    for kind, runs in groups.items():
        levels = np.array(list(runs.values()))
        dev = (levels.max(axis=0) - levels.min(axis=0)).max()
        if not dev < TOL_ORDERINGS:
            errors.append("%s orderings deviate by %.3g" % (kind, dev))
        context[("gauge", ham, kind)] = np.median(levels, axis=0)
    if sorted(groups) != ["gaussian", "identity"] or \
            any(len(runs) != 3 for runs in groups.values()):
        errors.append("gauge check covered %s" % sorted(groups))
    return errors


def _check_star(cfg, outdir, _context):
    """Basis idempotence read back from the bin artifact (acceptance 10)."""
    from psq import hermite_function, l2_norm, read_field, twisted_tensor
    from psq.ordering import spec_from_dict
    prod = read_field(os.path.join(outdir, "starprod_star.psqf"))
    par = cfg["params"]
    i, j = par["left_hermite"], par["right_hermite"]
    if i != j:
        err = l2_norm(prod)
    else:
        h = hermite_function(prod.grid, i)
        want = twisted_tensor(h, h, spec_from_dict(cfg["ordering"])).psi_field \
            * (1.0 / np.sqrt(2.0 * np.pi * prod.grid.hbar))
        err = l2_norm(prod - want) / l2_norm(want)
    return [] if err < TOL_IDEMPOTENCE else \
        ["Psi_%d%d * Psi_%d%d residual %.3g" % (i, i, j, j, err)]


def hermite_density(x, n, hbar=1.0, omega=1.0):
    """|phi_n(x)|^2 of the oscillator eigenfunction, by the stable recurrence."""
    prev2, prev = None, (omega / (np.pi * hbar)) ** 0.25 * np.exp(-omega * x ** 2 / (2 * hbar))
    scale = np.sqrt(2.0 * omega / hbar) * x
    for k in range(n):
        nxt = scale * prev - (np.sqrt(k) * prev2 if prev2 is not None else 0.0)
        prev2, prev = prev, nxt / np.sqrt(k + 1)
    return prev ** 2


def _check_wigner(cfg, outdir, _context):
    errors = []
    purity = _read_csv(os.path.join(outdir, "purity.csv"))
    if not purity or purity[0]["is_pure"] != "1":
        errors.append("purity.csv does not report a pure state: %r" % purity)
    rows = _read_csv(os.path.join(outdir, "marginal_x.csv"))
    n = cfg["params"]["phi_hermite"]
    x = _column(rows, "x")
    err = np.abs(_column(rows, "density") - hermite_density(x, n, cfg["grid"]["hbar"])).max()
    if not err < TOL_MARGINAL:
        errors.append("x-marginal error %.3g" % err)
    return errors


CHECKS = {"orbit": _check_orbit, "free": _check_free, "spectrum": _check_spectrum,
          "gauge": _check_gauge, "star": _check_star, "wigner": _check_wigner}


def check(kind, cfg, outdir, context):
    """Closed-form check of one scenario's artifacts; returns failure messages."""
    try:
        return CHECKS[kind](cfg, outdir, context)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]


def file_hashes(manifest):
    """{path: sha256} of a manifest's artifacts, without the config."""
    return {entry["path"]: entry["sha256"] for entry in manifest["files"]}
