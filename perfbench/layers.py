"""Per-layer spans around the public functions of each psq module.

The wrappers live here, not in the library: `Tracer.install` rebinds every
name under which a `psq` module holds a listed function (for example
`half_dft` is bound in `grids`, `states` and `dynamics`), and `uninstall`
puts the originals back.  A layer's self time is its span time minus the
time of the spans it encloses.  Untraced runs never see a wrapper.
"""

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from scenarios import LEVELS

# layer -> (module, function) pairs whose calls open a span of that layer
LAYERS = (
    ("grids.transform", (("psq.grids", "half_dft"),)),
    ("grids.write", (("psq.grids", "write_field"), ("psq.grids", "write_field_csv"))),
    ("polyalg.order", tuple(("psq.polyalg", n) for n in (
        "sigma_order", "sigma_order_right", "sigma_S_order", "pstar", "nf_adjoint"))),
    ("starprod.star_sigma", (("psq.starprod", "star_sigma"),)),
    ("starprod.bopp", (("psq.starprod", "bopp_apply"),)),
    ("starprod.smoother", tuple(("psq.starprod", n) for n in (
        "apply_smoother", "gauge_transform", "involution_dagger"))),
    ("states.twisted_tensor", (("psq.states", "twisted_tensor"),)),
    ("states.purity", (("psq.states", "purity_check"),)),
    ("states.marginal", (("psq.states", "marginal"),)),
    ("spectra.operator_matrix", (("psq.spectra", "operator_matrix"),)),
    ("spectra.expectation", (("psq.spectra", "expectation"),)),
    ("spectra.residual", (("psq.spectra", "stargen_residual"),)),
    ("dynamics.evolve", (("psq.dynamics", "evolve_phase_space"),
                         ("psq.dynamics", "evolve_schrodinger"))),
    ("closedforms.state", (("psq.closedforms", "coherent_state"),
                           ("psq.closedforms", "free_wavepacket"),
                           ("psq.closedforms", "free_gaussian"),
                           ("psq.states", "hermite_function"))),
    ("cli", (("psq.cli", "run"),)),
)

# numpy.linalg.eigh is wrapped too, but only calls made from this module count
EIGH_CALLER = "psq.spectra"

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = (
    ("grids.transform.calls", "count", "lower"),
    ("grids.transform.self_s", "s", "lower"),
    ("grids.transform.bytes", "bytes", "lower"),
    ("grids.write.calls", "count", "lower"),
    ("grids.write.self_s", "s", "lower"),
    ("grids.write.bytes", "bytes", "lower"),
    ("polyalg.order.calls", "count", "lower"),
    ("polyalg.order.self_s", "s", "lower"),
    ("starprod.star_sigma.calls", "count", "lower"),
    ("starprod.star_sigma.self_s", "s", "lower"),
    ("starprod.bopp.calls", "count", "lower"),
    ("starprod.bopp.self_s", "s", "lower"),
    ("starprod.smoother.calls", "count", "lower"),
    ("starprod.smoother.self_s", "s", "lower"),
    ("states.twisted_tensor.calls", "count", "lower"),
    ("states.twisted_tensor.self_s", "s", "lower"),
    ("states.purity.self_s", "s", "lower"),
    ("states.marginal.self_s", "s", "lower"),
    ("spectra.operator_matrix.calls", "count", "lower"),
    ("spectra.operator_matrix.self_s", "s", "lower"),
    ("spectra.eigh.calls", "count", "lower"),
    ("spectra.eigh.self_s", "s", "lower"),
    ("spectra.eigh.kept_frac", "ratio", "higher"),
    ("spectra.expectation.calls", "count", "lower"),
    ("spectra.residual.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.evolve.self_s", "s", "lower"),
    ("dynamics.bopp_per_step", "calls/step", "lower"),
    ("closedforms.state.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("guards.warnings", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# layers each workload must call, and layers it must never call
MUST_CALL = {
    "orbit": ("grids.transform", "grids.write", "polyalg.order", "starprod.bopp",
              "spectra.expectation", "dynamics.evolve", "closedforms.state", "cli"),
    "spectra": ("polyalg.order", "starprod.bopp", "starprod.smoother",
                "states.twisted_tensor", "spectra.operator_matrix", "spectra.eigh",
                "spectra.residual", "cli"),
    "algebra": ("starprod.star_sigma", "starprod.smoother", "states.twisted_tensor",
                "states.purity", "states.marginal", "closedforms.state", "cli"),
    "transport": ("grids.transform", "grids.write", "spectra.expectation",
                  "dynamics.evolve", "closedforms.state", "cli"),
}
NEVER_CALL = {
    "orbit": ("starprod.star_sigma", "spectra.operator_matrix", "spectra.eigh"),
    "spectra": ("starprod.star_sigma", "dynamics.evolve", "grids.write"),
    "algebra": ("spectra.operator_matrix", "spectra.eigh", "dynamics.evolve"),
    "transport": ("starprod.star_sigma",),
}


class TraceError(RuntimeError):
    """The traced program no longer matches the layer table."""


def _transform_bytes(counts, args, _kwargs):
    # computed: one complex128 array read and one written per call
    counts["grids.transform.bytes"] += 2 * np.asarray(args[0]).size * 16


def _written_bytes(counts, args, _kwargs):
    counts["grids.write.bytes"] += os.path.getsize(args[1])


def _steps(counts, args, kwargs):
    counts["dynamics.steps"] += (args[3] if len(args) > 3 else kwargs["cfg"]).steps


def _eigenpairs(counts, args, _kwargs):
    counts["spectra.eigh.computed"] += np.shape(args[0])[-1]


MEASURES = {
    ("psq.grids", "half_dft"): _transform_bytes,
    ("psq.grids", "write_field"): _written_bytes,
    ("psq.grids", "write_field_csv"): _written_bytes,
    ("psq.dynamics", "evolve_phase_space"): _steps,
    ("psq.dynamics", "evolve_schrodinger"): _steps,
}

# counters reported per cycle under their own names
PER_CYCLE_COUNTS = ("grids.transform.bytes", "grids.write.bytes", "dynamics.steps",
                    "cli.artifact_bytes", "guards.warnings")


class Tracer:
    """Span and counter store; wrappers are live between install and uninstall."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []        # time of enclosed spans, one entry per open span
        self._restore = []

    def _span(self, layer, fn, measure=None, caller=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller is not None and \
                    sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                enclosed = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - enclosed
            if measure is not None:
                measure(self.counts, args, kwargs)
            return result
        return wrapper

    def install(self):
        """Rebind every psq binding of each listed function to its wrapper."""
        if self._restore:
            raise TraceError("tracer is already installed")
        wraps = {}
        for layer, names in LAYERS:
            for key in names:
                wraps[key] = functools.partial(self._span, layer, measure=MEASURES.get(key))
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "psq" or name.startswith("psq.")) and m is not None]
        missing = []
        for (modname, name), wrap in wraps.items():
            fn = getattr(importlib.import_module(modname), name, None)
            if not callable(fn):
                missing.append("%s.%s" % (modname, name))
                continue
            wrapper = wrap(fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))
        if missing:
            self.uninstall()
            raise TraceError("wrapped names no longer exist: %s" % ", ".join(missing))
        eigh = np.linalg.eigh
        np.linalg.eigh = self._span("spectra.eigh", eigh, _eigenpairs, EIGH_CALLER)
        self._restore.append((np.linalg, "eigh", eigh))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    def add(self, counter, value):
        self.counts[counter] += value


def layer_metrics(tracer, cycles, traced_s, untraced_s):
    """Per-layer metrics of `cycles` traced cycles, each value per cycle."""
    values = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls[layer] / cycles
        elif kind == "self_s":
            values[name] = tracer.self_s[layer] / cycles
        elif name in PER_CYCLE_COUNTS:
            values[name] = tracer.counts[name] / cycles
    # every spectrum and gauge-check config keeps LEVELS levels per eigh call
    computed = tracer.counts["spectra.eigh.computed"]
    values["spectra.eigh.kept_frac"] = \
        tracer.calls["spectra.eigh"] * LEVELS / computed if computed else 0.0
    steps = tracer.counts["dynamics.steps"]
    values["dynamics.bopp_per_step"] = tracer.calls["starprod.bopp"] / steps if steps else 0.0
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return values


def check_predictions(workload, tracer):
    """Raise TraceError when a layer's call count contradicts the layer table."""
    problems = ["%s made no %s call" % (workload, layer)
                for layer in MUST_CALL[workload] if tracer.calls[layer] == 0]
    problems += ["%s made %d %s calls, predicted none" % (workload, tracer.calls[layer], layer)
                 for layer in NEVER_CALL[workload] if tracer.calls[layer] != 0]
    if problems:
        raise TraceError("; ".join(problems))
