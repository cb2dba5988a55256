"""Batch command-line front end.

One scenario per process: a JSON config (or equivalent flags) selects a
scenario, the run emits data files plus a manifest.json listing every
artifact with its content hash.  Identical configs yield byte-identical
CSVs; floats are printed with 17 significant digits.

Exit codes: 0 ok, 2 config/schema violation, 3 numerical-precondition
failure, 4 I/O error.
"""

import argparse
import hashlib
import json
import os
import re
import sys
from math import sqrt

import numpy as np

from . import __version__
from .errors import NumericalPreconditionError, PSQError
from .grids import PhaseField, make_grid, write_field, write_field_csv
from .ordering import GaussianSmoother, IdentitySmoother, spec_from_dict
from .polyalg import PolyH, pstar, sigma_order
from .spectra import gauge_spectrum_check, spectrum_via_schrodinger
from .starprod import (ObservableSpec, apply_smoother, gauge_transform,
                       involution_dagger, moyal_bracket, star_sigma_S)
from .states import hermite_function, marginal, purity_check, twisted_tensor, write_state
from .closedforms import (CoherentParams, FreeGaussianParams, OscillatorParams,
                          classical_limit_probe, coherent_state, free_gaussian,
                          ho_ladder, ho_state)
from .dynamics import EvolutionConfig, default_observables, evolve_phase_space, evolve_schrodinger

FIELD_FORMAT_VERSION = 1

SCENARIOS = ("starprod", "symbolic", "wigner", "spectrum", "evolve",
             "oracle", "classical-limit", "gauge-check")

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "nx": {"type": "integer", "minimum": 2, "maximum": 4096},
        "np": {"type": "integer", "minimum": 2, "maximum": 4096},
        "x_min": {"type": "number"}, "x_max": {"type": "number"},
        "p_min": {"type": "number"}, "p_max": {"type": "number"},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
    },
}

# every params key a scenario reads, by JSON type (one type per key)
_PARAM_KEYS = {
    "string": ("hamiltonian", "system", "method", "observables", "state", "op",
               "direction", "observable", "side", "f", "g", "family"),
    "integer": ("levels", "steps", "snapshot_every", "m", "n", "phi_hermite",
                "psi_hermite", "left_hermite", "right_hermite"),
    "number": ("dt", "omega", "x0", "p0", "delta_p", "sigma", "sigma_to", "t",
               "alpha", "beta"),
    "boolean": ("emit_fields",),
}
_PARAMS_SCHEMA = {
    "type": "object",
    "properties": {
        **{k: {"type": t} for t, keys in _PARAM_KEYS.items() for k in keys},
        "sigmas": {"type": "array", "items": {"type": "number"}},
        "hbars": {"type": "array", "items": {"type": "number"}},
        "smoothers": {"type": "array", "items": {
            "type": "object",
            "properties": {"kind": {"type": "string"}, "alpha": {"type": "number"},
                           "beta": {"type": "number"}}}},
        "grid": _GRID_SCHEMA,
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["scenario", "output_dir"],
    "properties": {
        "scenario": {"enum": list(SCENARIOS)},
        "output_dir": {"type": "string"},
        "formats": {"type": "array",
                    "items": {"enum": ["csv", "bin", "dat"]}},
        "grid": _GRID_SCHEMA,
        "ordering": {
            "type": "object",
            "properties": {
                "sigma": {"type": "number", "minimum": -4, "maximum": 5},
                "smoother": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["identity", "gaussian"]},
                        "alpha": {"type": "number", "minimum": -2, "maximum": 2},
                        "beta": {"type": "number", "minimum": -2, "maximum": 2},
                    },
                },
            },
        },
        "params": _PARAMS_SCHEMA,
    },
}

DEFAULT_GRID = {"nx": 128, "np": 128, "x_min": -8.0, "x_max": 8.0,
                "p_min": -8.0, "p_max": 8.0, "hbar": 1.0}


def _fmt(value):
    return "%.17g" % value


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_dat(path, columns):
    """gnuplot-friendly whitespace table."""
    with open(path, "w") as fh:
        for row in zip(*columns):
            fh.write(" ".join(_fmt(float(v)) for v in row) + "\n")


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FACTOR = r"(?:%s|[xp](?:\^\d+)?)" % _NUMBER
_TERM = re.compile(r"([+-]?)(%s(?:\*%s)*)" % (_FACTOR, _FACTOR))


def parse_poly(text):
    """Strict parser for inline polynomials like '0.5*p^2 + 0.25*x^4 - x*p'.

    A term is a signed product of numbers (exponent notation allowed) and
    the symbols x and p, raised by ^ or ** to non-negative integer powers;
    anything else raises PSQError.
    """
    cleaned = "".join(text.split()).replace("**", "^")
    if not cleaned:
        raise PSQError("empty polynomial expression")
    out = PolyH.zero()
    pos = 0
    while pos < len(cleaned):
        match = _TERM.match(cleaned, pos)
        if match is None or (pos and not match.group(1)):
            raise PSQError("cannot parse %r at %r" % (text, cleaned[pos:]))
        coeff = -1.0 if match.group(1) == "-" else 1.0
        n = m = 0
        for factor in match.group(2).split("*"):
            var, _, power = factor.partition("^")
            if var == "x":
                n += int(power or 1)
            elif var == "p":
                m += int(power or 1)
            else:
                coeff *= float(factor)
        out = out + PolyH.monomial(n, m, c=coeff)
        pos = match.end()
    return out


def _grid_from_config(cfg):
    g = dict(DEFAULT_GRID)
    g.update(cfg.get("grid", {}))
    return make_grid(g["nx"], g["np"], g["x_min"], g["x_max"],
                     g["p_min"], g["p_max"], g["hbar"])


def _spec_from_config(cfg):
    return spec_from_dict(cfg.get("ordering", {"sigma": 0.5}))


class _Emitter:
    def __init__(self, outdir, formats):
        self.outdir = outdir
        self.formats = formats
        self.files = []

    def path(self, name):
        return os.path.join(self.outdir, name)

    def note(self, name):
        self.files.append(name)

    def csv(self, name, header, rows):
        if "csv" in self.formats:
            _write_csv(self.path(name), header, rows)
            self.note(name)

    def dat(self, name, columns):
        if "dat" in self.formats:
            _write_dat(self.path(name), columns)
            self.note(name)

    def field(self, name, field):
        if "bin" in self.formats:
            write_field(field, self.path(name))
            self.note(name)
        if "csv" in self.formats:
            write_field_csv(field, self.path(name + ".csv"))
            self.note(name + ".csv")

    def manifest(self, config):
        entries = []
        for name in sorted(self.files):
            digest = hashlib.sha256()
            with open(self.path(name), "rb") as fh:
                digest.update(fh.read())
            entries.append({"path": name, "sha256": digest.hexdigest()})
        payload = {
            "version": __version__,
            "field_format_version": FIELD_FORMAT_VERSION,
            "config": config,
            "files": entries,
        }
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def _scenario_spectrum(cfg, emit):
    grid = _grid_from_config(cfg)
    spec = _spec_from_config(cfg)
    params = cfg.get("params", {})
    hpoly = parse_poly(params.get("hamiltonian", "0.5*p^2 + 0.5*x^2"))
    levels = int(params.get("levels", 5))
    result = spectrum_via_schrodinger(ObservableSpec.from_poly(hpoly, "H"),
                                      spec, levels, grid)
    rows = [(n, float(result.energies[n]), float(result.residuals[n][0]),
             float(result.residuals[n][1])) for n in range(levels)]
    emit.csv("spectrum.csv", "n,energy,residual_left,residual_right", rows)
    if params.get("emit_fields"):
        for n in range(levels):
            emit.field("eigenfield_%02d.psqf" % n,
                       result.eigenfield(n, n).psi_field)


def _scenario_gauge_check(cfg, emit):
    grid = _grid_from_config(cfg)
    params = cfg.get("params", {})
    hpoly = parse_poly(params.get("hamiltonian", "0.5*p^2 + 0.5*x^2"))
    sigmas = params.get("sigmas", [0.0, 0.5, 1.0])
    levels = int(params.get("levels", 5))
    smoothers = [IdentitySmoother()]
    for entry in params.get("smoothers", []):
        if entry.get("kind") == "gaussian":
            smoothers.append(GaussianSmoother(entry.get("alpha", 0.0),
                                              entry.get("beta", 0.0)))
    report = gauge_spectrum_check(ObservableSpec.from_poly(hpoly, "H"),
                                  sigmas, smoothers, levels, grid)
    rows = []
    for label, energies in sorted(report["energies"].items()):
        for n, e in enumerate(energies):
            rows.append((label, n, float(e)))
    emit.csv("gauge_spectra.csv", "ordering,n,energy", rows)
    emit.csv("gauge_report.csv", "max_deviation",
             [(float(report["max_deviation"]),)])


def _scenario_evolve(cfg, emit):
    grid = _grid_from_config(cfg)
    spec = _spec_from_config(cfg)
    params = cfg.get("params", {})
    scenario = params.get("system", "free")
    dt = float(params.get("dt", 1e-3))
    steps = int(params.get("steps", 1000))
    every = int(params.get("snapshot_every", max(steps // 8, 1)))
    method = params.get("method", "split_step_schrodinger")
    names = [s for s in params.get("observables", "x,p,x2,p2,H").split(",") if s]
    omega = float(params.get("omega", 1.0))
    obs_all = default_observables(omega)
    observables = {}
    for name in names:
        if name not in obs_all:
            raise PSQError("unknown observable %r" % name)
        observables[name] = obs_all[name]
    if scenario == "free":
        hobs = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "H")
        fp = FreeGaussianParams(float(params.get("p0", 1.0)),
                                float(params.get("delta_p", sqrt(grid.hbar / 2.0))),
                                spec.sigma)
        from .closedforms import free_wavepacket
        phi0 = free_wavepacket(fp, 0.0, grid)
        state0 = None
    elif scenario == "oscillator":
        hobs = ObservableSpec.harmonic(omega)
        cp = CoherentParams(float(params.get("x0", 1.0)),
                            float(params.get("p0", 0.0)), omega, spec.sigma)
        state0 = coherent_state(cp, grid)
        phi0 = None
    elif scenario == "custom":
        if "hamiltonian" not in params:
            raise PSQError("system 'custom' needs params.hamiltonian")
        hobs = ObservableSpec.from_poly(parse_poly(params["hamiltonian"]), "H")
        cp = CoherentParams(float(params.get("x0", 1.0)),
                            float(params.get("p0", 0.0)), omega, spec.sigma)
        state0 = coherent_state(cp, grid)
        phi0 = None
    else:
        raise PSQError("unknown system %r" % scenario)
    cfg_evo = EvolutionConfig(dt=dt, steps=steps, method=method, snapshot_every=every)
    if method == "phase_space_rk4":
        if state0 is None:
            state0 = free_gaussian(fp, 0.0, grid)
        result = evolve_phase_space(state0, hobs, spec, cfg_evo,
                                    observables=observables)
        snap_fields = result.snapshots
    else:
        if phi0 is None:
            from .closedforms import coherent_wavepacket
            phi0 = coherent_wavepacket(cp, grid)
        result = evolve_schrodinger(phi0, hobs, spec, cfg_evo,
                                    observables=observables)
        snap_fields = result.snapshots
    header = "t," + ",".join("%s_re,%s_im" % (n, n) for n in observables) + ",norm"
    rows = []
    for i, t in enumerate(result.times):
        row = [float(t)]
        for name in observables:
            v = result.expectations[name][i]
            row.extend([float(v.real), float(v.imag)])
        row.append(float(result.norms[i]))
        rows.append(tuple(row))
    emit.csv("trajectory.csv", header, rows)
    for i, t in enumerate(result.times):
        field = snap_fields[i]
        if isinstance(field, PhaseField):
            emit.field("snapshot_%03d.psqf" % i, field)
            emit.dat("snapshot_%03d.dat" % i,
                     [grid.meshes()[0].ravel(), grid.meshes()[1].ravel(),
                      field.values.real.ravel(), field.values.imag.ravel()])


def _scenario_oracle(cfg, emit):
    grid = _grid_from_config(cfg)
    params = cfg.get("params", {})
    kind = params.get("state", "ho")
    if kind == "free":
        fp = FreeGaussianParams(float(params.get("p0", 1.0)),
                                float(params.get("delta_p", sqrt(grid.hbar / 2.0))),
                                float(params.get("sigma", 0.5)))
        state = free_gaussian(fp, float(params.get("t", 0.0)), grid)
        name = "free_gaussian"
    elif kind == "ho":
        op = OscillatorParams(float(params.get("omega", 1.0)), 0.5,
                              float(params.get("alpha", 0.0)),
                              float(params.get("beta", 0.0)))
        state = ho_state(int(params.get("m", 0)), int(params.get("n", 0)), op, grid)
        name = "ho_state"
    elif kind == "ho-ladder":
        op = OscillatorParams(float(params.get("omega", 1.0)), 0.5,
                              float(params.get("alpha", 0.0)),
                              float(params.get("beta", 0.0)))
        state = ho_ladder(int(params.get("m", 0)), int(params.get("n", 0)), op, grid)
        name = "ho_ladder"
    elif kind == "coherent":
        cp = CoherentParams(float(params.get("x0", 1.0)), float(params.get("p0", 0.0)),
                            float(params.get("omega", 1.0)),
                            float(params.get("sigma", 0.5)))
        state = coherent_state(cp, grid)
        name = "coherent"
    else:
        raise PSQError("unknown oracle state %r" % kind)
    emit.field(name + ".psqf", state.psi_field)
    if "bin" in emit.formats:
        write_state(state, emit.path(name + ".state.psqf"))
        emit.note(name + ".state.psqf")
        emit.note(name + ".state.psqf.json")


def _scenario_wigner(cfg, emit):
    grid = _grid_from_config(cfg)
    spec = _spec_from_config(cfg)
    params = cfg.get("params", {})
    i = int(params.get("phi_hermite", 0))
    j = int(params.get("psi_hermite", 0))
    omega = float(params.get("omega", 1.0))
    state = twisted_tensor(hermite_function(grid, i, omega),
                           hermite_function(grid, j, omega), spec)
    emit.field("wigner_%d_%d.psqf" % (i, j), state.psi_field)
    write_state(state, emit.path("wigner_state.psqf"))
    emit.note("wigner_state.psqf")
    emit.note("wigner_state.psqf.json")
    if i == j:
        is_pure, residuals = purity_check(state)
        emit.csv("purity.csv", "is_pure,herm,idem,norm",
                 [(int(is_pure), float(residuals[0]), float(residuals[1]),
                   float(residuals[2]))])
    xs, px = marginal(state, "x") if i == j else (grid.x, np.zeros(grid.nx))
    emit.csv("marginal_x.csv", "x,density",
             [(float(a), float(b)) for a, b in zip(xs, px)])


def _scenario_starprod(cfg, emit):
    grid = _grid_from_config(cfg)
    spec = _spec_from_config(cfg)
    params = cfg.get("params", {})
    op = params.get("op", "star")
    omega = float(params.get("omega", 1.0))
    i = int(params.get("left_hermite", 0))
    j = int(params.get("right_hermite", 0))
    left = twisted_tensor(hermite_function(grid, i, omega),
                          hermite_function(grid, i, omega), spec).psi_field
    right = twisted_tensor(hermite_function(grid, j, omega),
                           hermite_function(grid, j, omega), spec).psi_field
    if op == "star":
        result = star_sigma_S(left, right, spec)
    elif op == "commutator":
        result = star_sigma_S(left, right, spec) - star_sigma_S(right, left, spec)
    elif op == "bracket":
        result = moyal_bracket(left, right, spec)
    elif op == "dagger":
        result = involution_dagger(left, spec)
    elif op == "smooth":
        result = apply_smoother(spec, left, params.get("direction", "forward"))
    elif op == "gauge":
        result = gauge_transform(left, spec.sigma, float(params.get("sigma_to", 0.5)))
    elif op == "bopp":
        from .starprod import bopp_apply
        obs = ObservableSpec.from_poly(parse_poly(params.get("observable", "x")))
        result = bopp_apply(obs, right, params.get("side", "left"), spec)
    else:
        raise PSQError("unknown starprod op %r" % op)
    emit.field("starprod_%s.psqf" % op, result)


def _scenario_symbolic(cfg, emit):
    params = cfg.get("params", {})
    spec = _spec_from_config(cfg)
    f = parse_poly(params.get("f", "x"))
    g = parse_poly(params.get("g", "p"))
    prod = pstar(f, g, spec.sigma)
    ordered = sigma_order(f, spec.sigma)
    lines = [
        "f = " + f.render(),
        "g = " + g.render(),
        "f star g = " + prod.render(),
        "sigma_order(f) = " + ordered.render(),
    ]
    path = emit.path("symbolic.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    emit.note("symbolic.txt")


def _scenario_classical_limit(cfg, emit):
    params = cfg.get("params", {})
    base = dict(DEFAULT_GRID)
    base.update(cfg.get("params", {}).get("grid", {}))
    hbars = params.get("hbars", [0.2, 0.1, 0.05, 0.025])
    family_kind = params.get("family", "coherent")
    x0 = float(params.get("x0", 1.0))
    p0 = float(params.get("p0", 0.5))

    def family(hb):
        scale = sqrt(hb / hbars[0])
        span_x = abs(x0) + 8.0 * scale
        span_p = abs(p0) + 8.0 * scale
        grid = make_grid(base["nx"], base["np"], -span_x, span_x,
                         -span_p, span_p, hb)
        if family_kind == "coherent":
            return coherent_state(CoherentParams(x0, p0, 1.0, 0.5), grid)
        if family_kind == "free":
            fp = FreeGaussianParams(p0, sqrt(hb) * 0.5, 0.5)
            return free_gaussian(fp, float(params.get("t", 1.0)), grid)
        if family_kind == "ho":
            n = int(params.get("n", 1))
            return ho_state(n, n, OscillatorParams(1.0, 0.5, 0.0, 0.0), grid)
        raise PSQError("unknown family %r" % family_kind)

    def testfn(X, P):
        return np.exp(-((X - x0) ** 2 + (P - p0) ** 2) / 4.0)

    pairings = classical_limit_probe(family, testfn, hbars)
    rows = [(float(hb), float(v.real), float(v.imag))
            for hb, v in zip(hbars, pairings)]
    emit.csv("classical_limit.csv", "hbar,pairing_re,pairing_im", rows)


_RUNNERS = {
    "spectrum": _scenario_spectrum,
    "gauge-check": _scenario_gauge_check,
    "evolve": _scenario_evolve,
    "oracle": _scenario_oracle,
    "wigner": _scenario_wigner,
    "starprod": _scenario_starprod,
    "symbolic": _scenario_symbolic,
    "classical-limit": _scenario_classical_limit,
}


def run(config_path):
    """Execute a scenario config file; returns (exit_code, manifest or None)."""
    try:
        with open(config_path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2, None
    return run_config(config)


def run_config(config):
    """Execute a scenario config dict; returns (exit_code, manifest or None)."""
    import jsonschema
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        print("schema violation: %s" % exc.message, file=sys.stderr)
        return 2, None
    outdir = config["output_dir"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4, None
    emit = _Emitter(outdir, config.get("formats", ["csv"]))
    try:
        _RUNNERS[config["scenario"]](config, emit)
        manifest = emit.manifest(config)
    except NumericalPreconditionError as exc:
        print("numerical precondition violated: %s" % exc, file=sys.stderr)
        return 3, None
    except PSQError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2, None
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4, None
    return 0, manifest


def _config_from_args(args):
    """Assemble a scenario config dict from subcommand flags."""
    config = {
        "scenario": args.scenario,
        "output_dir": args.output_dir,
        "formats": args.formats.split(","),
        "grid": {"nx": args.nx, "np": args.np, "x_min": -args.span,
                 "x_max": args.span, "p_min": -args.span, "p_max": args.span,
                 "hbar": args.hbar},
        "ordering": {"sigma": args.sigma,
                     "smoother": ({"kind": "gaussian", "alpha": args.alpha,
                                   "beta": args.beta}
                                  if (args.alpha or args.beta)
                                  else {"kind": "identity"})},
        "params": {},
    }
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="psq", description="phase-space quantization batch tool")
    parser.add_argument("--version", action="version",
                        version="psq %s (field format v%d)"
                        % (__version__, FIELD_FORMAT_VERSION))
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a JSON scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--print-schema", action="store_true")

    def add_common(p, scenario):
        p.set_defaults(scenario=scenario)
        p.add_argument("--output-dir", default="psq-out")
        p.add_argument("--formats", default="csv")
        p.add_argument("--nx", type=int, default=DEFAULT_GRID["nx"])
        p.add_argument("--np", type=int, default=DEFAULT_GRID["np"])
        p.add_argument("--span", type=float, default=8.0)
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--beta", type=float, default=0.0)

    spect = sub.add_parser("spectrum", help="star-genvalue spectrum")
    add_common(spect, "spectrum")
    spect.add_argument("--hamiltonian", default="0.5*p^2 + 0.5*x^2")
    spect.add_argument("--levels", type=int, default=5)
    spect.add_argument("--emit-fields", action="store_true")

    ev = sub.add_parser("evolve", help="time evolution")
    add_common(ev, "evolve")
    ev.add_argument("--system", choices=["free", "oscillator", "custom"],
                    default="free")
    ev.add_argument("--method", default="split_step_schrodinger",
                    choices=["split_step_schrodinger", "phase_space_rk4",
                             "matrix_exponential"])
    ev.add_argument("--dt", type=float, default=1e-3)
    ev.add_argument("--steps", type=int, default=1000)
    ev.add_argument("--observables", default="x,p,x2,p2,H")
    ev.add_argument("--hamiltonian", default=None)
    ev.add_argument("--x0", type=float, default=1.0)
    ev.add_argument("--p0", type=float, default=1.0)

    orc = sub.add_parser("oracle", help="dump a closed-form state")
    add_common(orc, "oracle")
    orc.add_argument("--state", choices=["free", "ho", "ho-ladder", "coherent"],
                     default="ho")
    orc.add_argument("--m", type=int, default=0)
    orc.add_argument("--n", type=int, default=0)
    orc.add_argument("--t", type=float, default=0.0)

    wig = sub.add_parser("wigner", help="twisted tensor of Hermite functions")
    add_common(wig, "wigner")
    wig.add_argument("--phi-hermite", type=int, default=0)
    wig.add_argument("--psi-hermite", type=int, default=0)

    sp = sub.add_parser("starprod", help="star-product operations on states")
    add_common(sp, "starprod")
    sp.add_argument("--op", default="star",
                    choices=["star", "commutator", "bracket", "dagger",
                             "smooth", "gauge", "bopp"])
    sp.add_argument("--left-hermite", type=int, default=0)
    sp.add_argument("--right-hermite", type=int, default=0)
    sp.add_argument("--observable", default="x",
                    help="polynomial symbol for --op bopp")
    sp.add_argument("--side", default="left", choices=["left", "right"])
    sp.add_argument("--symbolic", action="store_true",
                    help="run the symbolic layer instead")
    sp.add_argument("--f", default="x")
    sp.add_argument("--g", default="p")

    gc = sub.add_parser("gauge-check", help="spectrum invariance across orderings")
    add_common(gc, "gauge-check")
    gc.add_argument("--hamiltonian", default="0.5*p^2 + 0.5*x^2")
    gc.add_argument("--sigmas", default="0,0.5,1")
    gc.add_argument("--levels", type=int, default=5)

    cl = sub.add_parser("classical-limit", help="hbar-sweep weak-limit pairings")
    add_common(cl, "classical-limit")
    cl.add_argument("--family", choices=["coherent", "free", "ho"],
                    default="coherent")
    cl.add_argument("--hbars", default="0.2,0.1,0.05,0.025")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "run":
        if args.print_schema:
            print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
            return 0
        return run(args.config)[0]

    config = _config_from_args(args)
    p = config["params"]
    if args.command == "spectrum":
        p["hamiltonian"] = args.hamiltonian
        p["levels"] = args.levels
        p["emit_fields"] = bool(args.emit_fields)
    elif args.command == "evolve":
        p.update({"system": args.system, "method": args.method, "dt": args.dt,
                  "steps": args.steps, "observables": args.observables,
                  "x0": args.x0, "p0": args.p0})
        if args.hamiltonian:
            p["hamiltonian"] = args.hamiltonian
    elif args.command == "oracle":
        p.update({"state": args.state, "m": args.m, "n": args.n, "t": args.t,
                  "sigma": args.sigma, "alpha": args.alpha, "beta": args.beta})
    elif args.command == "wigner":
        p.update({"phi_hermite": args.phi_hermite, "psi_hermite": args.psi_hermite})
    elif args.command == "starprod":
        if args.symbolic:
            config["scenario"] = "symbolic"
            p.update({"f": args.f, "g": args.g})
        else:
            p.update({"op": args.op, "left_hermite": args.left_hermite,
                      "right_hermite": args.right_hermite,
                      "observable": args.observable, "side": args.side})
    elif args.command == "gauge-check":
        p.update({"hamiltonian": args.hamiltonian,
                  "sigmas": [float(s) for s in args.sigmas.split(",")],
                  "levels": args.levels})
    elif args.command == "classical-limit":
        p.update({"family": args.family,
                  "hbars": [float(h) for h in args.hbars.split(",")]})

    return run_config(config)[0]


if __name__ == "__main__":
    sys.exit(main())
