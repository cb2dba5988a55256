"""Batch command-line front end.

One scenario per process: a JSON config (or equivalent flags) selects a
scenario, the run emits data files plus a manifest.json listing every
artifact with its content hash.  Identical configs yield byte-identical
CSVs; floats are printed with 17 significant digits.

`PARAMS` declares each scenario's params keys once; the config schema, the
subcommand flags (`--<key>`, `_` written as `-`) and the values a scenario
reads, defaults included, all come from it.  `run_config` resolves the grid,
the ordering and the params once and hands them to the scenario, which reads
nothing else of the config; a params key (JSON or flag) the scenario does not
read is a config error.  A failed run leaves output_dir as it found it.

Exit codes: 0 ok, 2 config/schema violation, 3 numerical-precondition
failure, 4 I/O error.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
from functools import lru_cache
from math import sqrt

import numpy as np

from . import __version__
from .errors import NumericalPreconditionError, PSQError
from .grids import FIELD_FORMAT_VERSION, make_grid, write_field, write_field_csv
from .ordering import IdentitySmoother, spec_from_dict
from .polyalg import PolyH, pstar_S, sigma_S_order
from .spectra import gauge_spectrum_check, spectrum_via_schrodinger
from .starprod import (ObservableSpec, apply_smoother, bopp_apply, gauge_transform,
                       involution_dagger, moyal_bracket, star_commutator, star_sigma_S)
from .states import (QuasiDistribution, hermite_function, marginal, purity_check,
                     twisted_tensor, write_state)
from .closedforms import (CoherentParams, FreeGaussianParams, OscillatorParams,
                          classical_limit_probe, coherent_state, coherent_wavepacket,
                          free_gaussian, free_wavepacket, ho_ladder, ho_state)
from .dynamics import (METHODS, EvolutionConfig, default_observables, evolve_phase_space,
                       evolve_schrodinger)

# boundary_tail_mass counts 2 cells on each side as tail: all of a 4-cell axis
_SIZE = {"type": "integer", "minimum": 8, "maximum": 4096}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "nx": _SIZE, "np": _SIZE,
        "x_min": {"type": "number"}, "x_max": {"type": "number"},
        "p_min": {"type": "number"}, "p_max": {"type": "number"},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

_SMOOTHER_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["identity", "gaussian"]},
        "alpha": {"type": "number", "minimum": -2, "maximum": 2},
        "beta": {"type": "number", "minimum": -2, "maximum": 2},
    },
    "additionalProperties": False,
}

_INT = {"type": "integer"}
_INDEX = {"type": "integer", "minimum": 0}          # Hermite and oscillator indices
_LEVELS = {"type": "integer", "minimum": 1}
_NUM = {"type": "number"}
_STR = {"type": "string"}
_NUMS = {"type": "array", "items": _NUM, "minItems": 1}
_HARMONIC = "0.5*p^2 + 0.5*x^2"


def _enum(*values):
    return {"type": "string", "enum": list(values)}


# scenario -> {params key: (JSON-schema fragment, default)}; a default of None
# means the scenario derives the value (see its docstring)
PARAMS = {
    "spectrum": {"hamiltonian": (_STR, _HARMONIC), "levels": (_LEVELS, 5),
                 "emit_fields": ({"type": "boolean"}, False)},
    "gauge-check": {"hamiltonian": (_STR, _HARMONIC), "sigmas": (_NUMS, [0.0, 0.5, 1.0]),
                    "levels": (_LEVELS, 5),
                    "smoothers": ({"type": "array", "items": _SMOOTHER_SCHEMA}, [])},
    "evolve": {"system": (_enum("free", "oscillator", "custom"), "free"),
               "method": (_enum(*METHODS), "split_step_schrodinger"),
               "dt": (_NUM, 1e-3), "steps": (_INT, 1000), "snapshot_every": (_INT, None),
               "observables": (_STR, "x,p,x2,p2,H"), "omega": (_NUM, 1.0),
               "x0": (_NUM, 1.0), "p0": (_NUM, None), "delta_p": (_NUM, None),
               "hamiltonian": (_STR, None)},
    "oracle": {"state": (_enum("free", "ho", "ho-ladder", "coherent"), "ho"),
               "m": (_INDEX, 0), "n": (_INDEX, 0), "t": (_NUM, 0.0), "omega": (_NUM, 1.0),
               "x0": (_NUM, 1.0), "p0": (_NUM, None), "delta_p": (_NUM, None)},
    "wigner": {"phi_hermite": (_INDEX, 0), "psi_hermite": (_INDEX, 0), "omega": (_NUM, 1.0)},
    "starprod": {"op": (_enum("star", "commutator", "bracket", "dagger", "smooth",
                              "gauge", "bopp"), "star"),
                 "left_hermite": (_INDEX, 0), "right_hermite": (_INDEX, 0),
                 "omega": (_NUM, 1.0), "direction": (_enum("forward", "inverse"), "forward"),
                 "sigma_to": (_NUM, 0.5), "observable": (_STR, "x"),
                 "side": (_enum("left", "right"), "left")},
    "symbolic": {"f": (_STR, "x"), "g": (_STR, "p")},
    "classical-limit": {"family": (_enum("coherent", "free", "ho"), "coherent"),
                        "hbars": (dict(_NUMS, items={"type": "number", "exclusiveMinimum": 0}),
                                  [0.2, 0.1, 0.05, 0.025]), "x0": (_NUM, 1.0),
                        "p0": (_NUM, 0.5), "t": (_NUM, 1.0), "n": (_INDEX, 1),
                        "grid": ({"type": "object", "properties": {"nx": _SIZE, "np": _SIZE},
                                  "additionalProperties": False}, {})},
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["scenario", "output_dir"],
    "properties": {
        "scenario": {"enum": list(PARAMS)},
        "output_dir": {"type": "string"},
        "formats": {"type": "array",
                    "items": {"enum": ["csv", "bin", "dat"]}},
        "grid": _GRID_SCHEMA,
        "ordering": {
            "type": "object",
            "properties": {
                "sigma": {"type": "number", "minimum": -4, "maximum": 5},
                "smoother": _SMOOTHER_SCHEMA,
            },
            "additionalProperties": False,
        },
        # flat: a key read by several scenarios has one fragment in all of them
        "params": {
            "type": "object",
            "properties": {key: schema for table in PARAMS.values()
                           for key, (schema, _default) in table.items()},
        },
    },
    "additionalProperties": False,
}

DEFAULT_GRID = {"nx": 128, "np": 128, "x_min": -8.0, "x_max": 8.0,
                "p_min": -8.0, "p_max": 8.0, "hbar": 1.0}

_CASTS = {"integer": int, "number": float}


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


def _require_finite(value, where="config"):
    """Raise PSQError at a NaN or +-Infinity anywhere in a config value."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        _require_finite(item, "%s.%s" % (where, key))
    if isinstance(value, float) and not np.isfinite(value):
        raise PSQError("%s is %r; config numbers must be finite" % (where, value))


def _params(cfg):
    """The scenario's params: table defaults under the config's values.

    The one coercion point: integer keys go through int() and number keys
    through float(), so {"levels": 5.0} reads as 5.  A key the scenario does
    not read raises PSQError.
    """
    table = PARAMS[cfg["scenario"]]
    unknown = sorted(set(cfg.get("params", {})) - set(table))
    if unknown:
        raise PSQError("scenario %r reads no params %s" % (cfg["scenario"], ", ".join(unknown)))
    p = {key: default for key, (_schema, default) in table.items()}
    p.update(cfg.get("params", {}))
    for key, (schema, _default) in table.items():
        cast = _CASTS.get(schema["type"])
        if cast is not None and p[key] is not None:
            p[key] = cast(p[key])
    return p


class _Emitter:
    """Writes a run's artifacts into a staging directory inside outdir.

    `commit` moves them into outdir; `discard` removes the staging directory
    and, unless the run committed, the directories it created for outdir, so
    a failed run leaves outdir as it found it, absent included.
    """

    def __init__(self, outdir, formats):
        self.outdir = outdir
        self.formats = formats
        self.files = []
        self.staging = None
        self.created = []           # outdir and its missing parents, deepest first
        path = os.path.abspath(outdir)
        while not os.path.lexists(path):
            self.created.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(outdir, exist_ok=True)
            self.staging = tempfile.mkdtemp(prefix=".psq-staging-", dir=outdir)
        except OSError:
            self.discard()
            raise

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.staging, name)

    def csv(self, name, header, rows):
        if "csv" in self.formats:
            _write_csv(self.path(name), header, rows)

    def dat(self, name, columns):
        if "dat" in self.formats:
            _write_dat(self.path(name), columns)

    def field(self, name, field):
        if "bin" in self.formats:
            write_field(field, self.path(name))
        if "csv" in self.formats:
            write_field_csv(field, self.path(name + ".csv"))

    def state(self, name, state):
        """A quasi-distribution: its binary field plus the JSON sidecar."""
        if "bin" in self.formats:
            self.path(name + ".json")
            write_state(state, self.path(name))

    def manifest(self, config):
        entries = []
        for name in sorted(self.files):
            digest = hashlib.sha256()
            with open(os.path.join(self.staging, name), "rb") as fh:
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

    def commit(self):
        for name in self.files:
            os.replace(os.path.join(self.staging, name), os.path.join(self.outdir, name))
        os.rmdir(self.staging)
        self.created = []

    def discard(self):
        if self.staging is not None:
            shutil.rmtree(self.staging, ignore_errors=True)
        for path in self.created:
            try:
                os.rmdir(path)
            except OSError:         # not empty or already gone: leave the rest
                break


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------

def _free_packet(p, grid, sigma):
    return FreeGaussianParams(1.0 if p["p0"] is None else p["p0"],
                              sqrt(grid.hbar / 2.0) if p["delta_p"] is None else p["delta_p"],
                              sigma)


def _coherent_packet(p, sigma):
    return CoherentParams(p["x0"], 0.0 if p["p0"] is None else p["p0"], p["omega"], sigma)


def _oscillator(omega, spec):
    return OscillatorParams(omega, spec.sigma, spec.smoother.alpha, spec.smoother.beta)


def _under(state, spec):
    """A closed-form state of the identity smoother at spec.sigma, under `spec`."""
    return QuasiDistribution(apply_smoother(spec, state.psi_field), spec)


def _scenario_spectrum(grid, spec, p, emit):
    """star-genvalue spectrum of `hamiltonian`, optionally with eigenfields"""
    levels = p["levels"]
    result = spectrum_via_schrodinger(ObservableSpec.from_poly(parse_poly(p["hamiltonian"]), "H"),
                                      spec, levels, grid)
    rows = [(n, float(result.energies[n]), float(result.residuals[n][0]),
             float(result.residuals[n][1])) for n in range(levels)]
    emit.csv("spectrum.csv", "n,energy,residual_left,residual_right", rows)
    if p["emit_fields"]:
        for n in range(levels):
            emit.field("eigenfield_%02d.psqf" % n,
                       result.eigenfield(n, n).psi_field)


def _scenario_gauge_check(grid, _spec, p, emit):
    """spectrum invariance across `sigmas` and (JSON only) `smoothers`

    Sweeps its own orderings, `sigmas` times the identity smoother plus
    `smoothers`; the top-level ordering is not read.
    """
    smoothers = [IdentitySmoother()] + [spec_from_dict({"smoother": entry}).smoother
                                        for entry in p["smoothers"]]
    report = gauge_spectrum_check(ObservableSpec.from_poly(parse_poly(p["hamiltonian"]), "H"),
                                  p["sigmas"], smoothers, p["levels"], grid)
    rows = []
    for label, energies in sorted(report["energies"].items()):
        for n, e in enumerate(energies):
            rows.append((label, n, float(e)))
    emit.csv("gauge_spectra.csv", "ordering,n,energy", rows)
    emit.csv("gauge_report.csv", "max_deviation",
             [(float(report["max_deviation"]),)])


def _scenario_evolve(grid, spec, p, emit):
    """time evolution

    free: a packet at p0 (default 1), width delta_p (default sqrt(hbar/2));
    oscillator, custom (needs hamiltonian): a coherent state at x0, p0
    (default 0).  snapshot_every defaults to steps // 8.
    """
    obs_all = default_observables(p["omega"])
    observables = {}
    for name in [s for s in p["observables"].split(",") if s]:
        if name not in obs_all:
            raise PSQError("unknown observable %r" % name)
        observables[name] = obs_all[name]
    free = p["system"] == "free"
    if free:
        hobs = ObservableSpec.from_poly(PolyH.monomial(0, 2, c=0.5), "H")
        packet = _free_packet(p, grid, spec.sigma)
    elif p["system"] == "oscillator":
        hobs = ObservableSpec.harmonic(p["omega"])
        packet = _coherent_packet(p, spec.sigma)
    else:
        if p["hamiltonian"] is None:
            raise PSQError("system 'custom' needs params.hamiltonian")
        hobs = ObservableSpec.from_poly(parse_poly(p["hamiltonian"]), "H")
        packet = _coherent_packet(p, spec.sigma)
    every = p["snapshot_every"]
    cfg_evo = EvolutionConfig(dt=p["dt"], steps=p["steps"], method=p["method"],
                              snapshot_every=max(p["steps"] // 8, 1) if every is None else every)
    # the closed form is built on both routes: its grid-span check guards them
    state0 = free_gaussian(packet, 0.0, grid) if free else coherent_state(packet, grid)
    if p["method"] == "phase_space_rk4":
        result = evolve_phase_space(_under(state0, spec), hobs, cfg_evo,
                                    observables=observables)
    else:
        phi0 = free_wavepacket(packet, 0.0, grid) if free else coherent_wavepacket(packet, grid)
        result = evolve_schrodinger(phi0, hobs, spec, cfg_evo,
                                    observables=observables)
    header = "t," + ",".join("%s_re,%s_im" % (n, n) for n in observables) + ",norm"
    columns = [result.times]
    for name in observables:
        columns += [result.expectations[name].real, result.expectations[name].imag]
    emit.csv("trajectory.csv", header, zip(*columns, result.norms))
    X, P = grid.meshes()
    for i, field in enumerate(result.snapshots):
        emit.field("snapshot_%03d.psqf" % i, field)
        emit.dat("snapshot_%03d.dat" % i, [X.ravel(), P.ravel(),
                                           field.values.real.ravel(), field.values.imag.ravel()])


def _scenario_oracle(grid, spec, p, emit):
    """dump a closed-form state under the run's ordering

    p0 defaults to 1 for the free packet (delta_p to sqrt(hbar/2)) and to 0
    for the coherent state.  ho and ho-ladder need sigma = 1/2 and
    beta = omega^2 alpha.
    """
    kind = p["state"]
    if kind == "free":
        state = _under(free_gaussian(_free_packet(p, grid, spec.sigma), p["t"], grid), spec)
        name = "free_gaussian"
    elif kind == "coherent":
        state = _under(coherent_state(_coherent_packet(p, spec.sigma), grid), spec)
        name = "coherent"
    else:
        name, build = {"ho": ("ho_state", ho_state), "ho-ladder": ("ho_ladder", ho_ladder)}[kind]
        state = build(p["m"], p["n"], _oscillator(p["omega"], spec), grid)
    emit.field(name + ".psqf", state.psi_field)
    emit.state(name + ".state.psqf", state)


def _scenario_wigner(grid, spec, p, emit):
    """twisted tensor of Hermite functions"""
    i, j = p["phi_hermite"], p["psi_hermite"]
    state = twisted_tensor(hermite_function(grid, i, p["omega"]),
                           hermite_function(grid, j, p["omega"]), spec)
    emit.field("wigner_%d_%d.psqf" % (i, j), state.psi_field)
    emit.state("wigner_state.psqf", state)
    if i == j:
        is_pure, residuals = purity_check(state)
        emit.csv("purity.csv", "is_pure,herm,idem,norm",
                 [(int(is_pure),) + tuple(float(r) for r in residuals)])
        xs, px = marginal(state, "x")
        emit.csv("marginal_x.csv", "x,density", [(float(a), float(b)) for a, b in zip(xs, px)])


_BINARY_OPS = {"star": star_sigma_S, "commutator": star_commutator, "bracket": moyal_bracket}


def _scenario_starprod(grid, spec, p, emit):
    """star-product operations on states (--symbolic: on polynomials f, g)

    bopp reads only the right operand; dagger, smooth and gauge only the left.
    """
    op = p["op"]

    def operand(n):
        h = hermite_function(grid, n, p["omega"])
        return twisted_tensor(h, h, spec).psi_field

    if op in _BINARY_OPS:
        result = _BINARY_OPS[op](operand(p["left_hermite"]), operand(p["right_hermite"]), spec)
    elif op == "bopp":
        obs = ObservableSpec.from_poly(parse_poly(p["observable"]))
        result = bopp_apply(obs, operand(p["right_hermite"]), p["side"], spec)
    elif op == "dagger":
        result = involution_dagger(operand(p["left_hermite"]), spec)
    elif op == "smooth":
        result = apply_smoother(spec, operand(p["left_hermite"]), p["direction"])
    else:
        result = gauge_transform(operand(p["left_hermite"]), spec.sigma, p["sigma_to"])
    emit.field("starprod_%s.psqf" % op, result)


def _scenario_symbolic(_grid, spec, p, emit):
    """symbolic (sigma, S) star product and ordering of polynomials"""
    word = spec.smoother.to_word()
    f = parse_poly(p["f"])
    g = parse_poly(p["g"])
    prod = pstar_S(f, g, spec.sigma, word)
    ordered = sigma_S_order(f, spec.sigma, word)
    lines = [
        "f = " + f.render(),
        "g = " + g.render(),
        "f star g = " + prod.render(),
        "sigma_order(f) = " + ordered.render(),
    ]
    with open(emit.path("symbolic.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _scenario_classical_limit(grid, spec, p, emit):
    """hbar-sweep weak-limit pairings; params.grid (JSON only) overrides nx, np"""
    shape = (p["grid"].get("nx", grid.nx), p["grid"].get("np", grid.np))
    hbars = p["hbars"]
    family_kind = p["family"]
    x0, p0 = p["x0"], p["p0"]

    def family(hb):
        scale = sqrt(hb / hbars[0])
        span_x = abs(x0) + 8.0 * scale
        span_p = abs(p0) + 8.0 * scale
        g = make_grid(*shape, -span_x, span_x, -span_p, span_p, hb)
        if family_kind == "coherent":
            return _under(coherent_state(CoherentParams(x0, p0, 1.0, spec.sigma), g), spec)
        if family_kind == "free":
            return _under(free_gaussian(FreeGaussianParams(p0, sqrt(hb) * 0.5, spec.sigma),
                                        p["t"], g), spec)
        return ho_state(p["n"], p["n"], _oscillator(1.0, spec), g)

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


@lru_cache(maxsize=None)
def _schema_validator():
    """The config validator, built and checked against its metaschema once."""
    import jsonschema
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


def run_config(config):
    """Execute a scenario config dict; returns (exit_code, manifest or None).

    On a non-zero exit output_dir is left as the run found it.
    """
    from jsonschema.exceptions import best_match
    error = best_match(_schema_validator().iter_errors(config))
    if error is not None:
        print("schema violation: %s" % error.message, file=sys.stderr)
        return 2, None
    try:
        emit = _Emitter(config["output_dir"], config.get("formats", ["csv"]))
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4, None
    try:
        _require_finite(config)
        _RUNNERS[config["scenario"]](_grid_from_config(config), _spec_from_config(config),
                                     _params(config), emit)
        manifest = emit.manifest(config)
        emit.commit()
        return 0, manifest
    except NumericalPreconditionError as exc:
        code, message = 3, "numerical precondition violated: %s" % exc
    except PSQError as exc:
        code, message = 2, "error: %s" % exc
    except OSError as exc:
        code, message = 4, "i/o error: %s" % exc
    finally:
        emit.discard()
    print(message, file=sys.stderr)
    return code, None


def _number_list(text):
    return [float(v) for v in text.split(",")]


def _add_param_flags(parser, scenario):
    """One flag per scalar or number-list params key, absent unless given."""
    for key, (schema, default) in PARAMS[scenario].items():
        kwargs = {"default": argparse.SUPPRESS,
                  "help": None if default is None else "default %s" % json.dumps(default)}
        if schema["type"] == "array" and schema["items"]["type"] == "number":
            kwargs["type"] = _number_list
        elif schema["type"] == "boolean":
            kwargs["action"] = "store_true"
        elif schema["type"] in ("string", "integer", "number"):
            kwargs.update(type=_CASTS.get(schema["type"], str), choices=schema.get("enum"))
        else:
            continue        # smoothers and params.grid are JSON-only
        parser.add_argument("--" + key.replace("_", "-"), **kwargs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="psq", description="phase-space quantization batch tool")
    parser.add_argument("--version", action="version",
                        version="psq %s (field format v%d)"
                        % (__version__, FIELD_FORMAT_VERSION))
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a JSON scenario config")
    run_p.add_argument("config", nargs="?")
    run_p.add_argument("--print-schema", action="store_true")

    for scenario, runner in _RUNNERS.items():
        if scenario == "symbolic":
            continue        # reached through starprod --symbolic
        p = sub.add_parser(scenario, help=runner.__doc__.splitlines()[0],
                           description=runner.__doc__,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--output-dir", default="psq-out")
        p.add_argument("--formats", default="csv")
        p.add_argument("--nx", type=int, default=DEFAULT_GRID["nx"])
        p.add_argument("--np", type=int, default=DEFAULT_GRID["np"])
        p.add_argument("--span", type=float, default=8.0)
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=0.5)
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--beta", type=float, default=0.0)
        _add_param_flags(p, scenario)
    sub.choices["starprod"].add_argument("--symbolic", action="store_true",
                                         help="run the symbolic layer instead")
    _add_param_flags(sub.choices["starprod"], "symbolic")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "run":
        if args.print_schema:
            print(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True))
            return 0
        if args.config is None:
            print("config error: psq run needs a config path", file=sys.stderr)
            return 2
        return run(args.config)[0]

    scenario = "symbolic" if vars(args).get("symbolic") else args.command
    config = {
        "scenario": scenario,
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
        "params": {k: v for k, v in vars(args).items()
                   if k in CONFIG_SCHEMA["properties"]["params"]["properties"]},
    }
    return run_config(config)[0]


if __name__ == "__main__":
    sys.exit(main())
