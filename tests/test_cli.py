import json
import os
import shutil
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psq import PolyH, PSQError, integrate, read_field
from psq.cli import CONFIG_SCHEMA, PARAMS, main, parse_poly, run
from psq.cli import run_config as cli_run_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def run_config(payload, tmp_path, name="config.json"):
    payload = dict(payload)
    payload["output_dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return run(str(path)), payload["output_dir"]


class TestParsePoly:
    def test_basic_terms(self):
        got = parse_poly("0.5*p^2 + 0.25*x^4 - x*p")
        want = PolyH.monomial(0, 2, c=0.5) + PolyH.monomial(4, 0, c=0.25) \
            + PolyH.monomial(1, 1, c=-1.0)
        assert got == want
        assert parse_poly("1e-3*x^2 + 0.5*p^2") == PolyH.monomial(2, 0, c=1e-3) \
            + PolyH.monomial(0, 2, c=0.5)
        assert parse_poly("2.5E+1*x - .5e-1*p**2") == PolyH.monomial(1, 0, c=25.0) \
            + PolyH.monomial(0, 2, c=-0.05)

    def test_double_star_power(self):
        assert parse_poly("x**3") == PolyH.monomial(3, 0)

    def test_bare_variables_and_constants(self):
        assert parse_poly("x + 2") == PolyH.x() + PolyH.const(2.0)

    def test_leading_minus(self):
        assert parse_poly("-x^2 + p") == PolyH.monomial(2, 0, c=-1.0) + PolyH.p()

    def test_rejects_garbage(self):
        with pytest.raises((PSQError, ValueError)):
            parse_poly("0.5*q^2")
        for text in ("y", "x^-1", "x^2.5", "2x", "x*", "x +- p", "1e-3*y^2"):
            with pytest.raises(PSQError):
                parse_poly(text)


class TestBundledConfigs:
    def test_oscillator_spectrum_config(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "oscillator_spectrum.json").read_text())
        (code, manifest), outdir = run_config(payload, tmp_path)
        assert code == 0
        lines = (Path(outdir) / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,energy,residual_left,residual_right"
        for n, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == n
            assert abs(float(fields[1]) - (n + 0.5)) < 1e-8
            assert float(fields[2]) < 1e-6 and float(fields[3]) < 1e-6

    def test_free_particle_config_reproduces_spreading_law(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "free_particle.json").read_text())
        (code, manifest), outdir = run_config(payload, tmp_path)
        assert code == 0
        lines = (Path(outdir) / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = {name: i for i, name in enumerate(header)}
        hbar = 1.0
        dp = np.sqrt(hbar / 2)
        dx = hbar / (2 * dp)
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            t = vals[col["t"]]
            x_mean = vals[col["x_re"]]
            x2 = vals[col["x2_re"]]
            p2 = vals[col["p2_re"]]
            p_mean = vals[col["p_re"]]
            assert abs(x_mean - 1.0 * t) < 1e-6
            assert abs(p_mean - 1.0) < 1e-6
            var_x = x2 - x_mean ** 2
            assert abs(np.sqrt(var_x)
                       - np.sqrt(dx ** 2 + (dp * t) ** 2)) < 1e-6
            assert abs(np.sqrt(p2 - p_mean ** 2) - dp) < 1e-6

    def test_all_bundled_configs_valid(self):
        import jsonschema
        for path in CONFIG_DIR.glob("*.json"):
            jsonschema.validate(json.loads(path.read_text()), CONFIG_SCHEMA)

    def test_smoothed_spectrum_config(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "smoothed_spectrum.json").read_text())
        (code, _manifest), outdir = run_config(payload, tmp_path)
        assert code == 0
        lines = (Path(outdir) / "spectrum.csv").read_text().splitlines()
        for n, line in enumerate(lines[1:]):
            assert abs(float(line.split(",")[1]) - (n + 0.4)) < 1e-6

    def test_classical_limit_config(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "classical_limit.json").read_text())
        (code, _manifest), outdir = run_config(payload, tmp_path)
        assert code == 0
        lines = (Path(outdir) / "classical_limit.csv").read_text().splitlines()
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        errs = [abs(v - 1.0) for v in vals]     # testfn peaks at the center
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))

    def test_coherent_orbit_config_phase_space_route(self, tmp_path):
        payload = json.loads((CONFIG_DIR / "coherent_orbit.json").read_text())
        # shorten the run for the suite; the full period is exercised in the
        # acceptance module
        payload["params"]["steps"] = 157
        payload["params"]["snapshot_every"] = 157
        (code, manifest), outdir = run_config(payload, tmp_path)
        assert code == 0
        lines = (Path(outdir) / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = {name: i for i, name in enumerate(header)}
        last = [float(v) for v in lines[-1].split(",")]
        t = last[col["t"]]
        assert abs(last[col["x_re"]] - np.cos(t)) < 1e-5
        names = {entry["path"] for entry in manifest["files"]}
        assert "snapshot_001.psqf" in names
        assert "snapshot_001.dat" in names
        # both routes start from the same state under a smoothed ordering,
        # and both write its field Psi: a snapshot integrates to sqrt(2 pi hbar)
        starts, integrals = [], []
        for method in ("phase_space_rk4", "split_step_schrodinger"):
            outdir = tmp_path / method
            code = main(["evolve", "--system", "oscillator", "--method", method,
                         "--x0", "1", "--p0", "0.5", "--alpha", "0.2", "--beta", "0.2",
                         "--nx", "64", "--np", "64", "--steps", "1", "--formats", "csv,bin",
                         "--observables", "x2,H", "--output-dir", str(outdir)])
            assert code == 0
            lines = (outdir / "trajectory.csv").read_text().splitlines()
            starts.append([float(v) for v in lines[1].split(",")])
            integrals.append(integrate(read_field(str(outdir / "snapshot_000.psqf"))))
        assert abs(starts[0][1] - starts[1][1]) < 1e-10        # <x^2>
        assert abs(starts[0][3] - starts[1][3]) < 1e-10        # <H>
        assert abs(integrals[0] - integrals[1]) < 1e-10
        assert abs(integrals[0] - np.sqrt(2 * np.pi)) < 1e-6


# small grids and short runs keep each drawn config to milliseconds
_CAPS = {"steps": 16, "levels": 8}
_SIZES = st.sampled_from([8, 16, 32, 24])
_NUMBERS = st.one_of(st.floats(-10, 10), st.sampled_from([0.0, 1e-300, 1e300, -1e300]))
_STRINGS = st.one_of(st.sampled_from(["x", "p", "x,p,H", "0.5*p^2 + 0.5*x^2", "x*p + x^4",
                                      "0.5*p^2 + 0.1*x^2*p^2", "", "q"]),
                     st.text("xpH,^*+-.0123456789e ", max_size=6))


def _value(schema, key=None):
    """A strategy for one JSON-schema fragment of PARAMS, inside its bounds."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "boolean":
        return st.booleans()
    if kind == "integer":
        if key in ("nx", "np"):
            return _SIZES
        return st.integers(schema.get("minimum", -2), _CAPS.get(key, 16))
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum", -1e300))
        high = schema.get("maximum", 1e300)
        return _NUMBERS.filter(lambda v: low <= v <= high and
                               v != schema.get("exclusiveMinimum"))
    if kind == "string":
        return _STRINGS
    if kind == "array":
        return st.lists(_value(schema["items"]), min_size=schema.get("minItems", 0), max_size=3)
    return st.fixed_dictionaries({}, optional={k: _value(s, k)
                                               for k, s in schema["properties"].items()})


@st.composite
def _configs(draw):
    scenario = draw(st.sampled_from(sorted(PARAMS)))
    table = {key: _value(schema, key) for key, (schema, _default) in PARAMS[scenario].items()}
    required = {key: table.pop(key) for key in ("steps",) if key in table}
    span = draw(st.floats(0.5, 20))
    return {
        "scenario": scenario,
        "formats": draw(st.lists(st.sampled_from(["csv", "bin", "dat"]), unique=True,
                                 max_size=3)),
        "grid": {"nx": draw(_SIZES), "np": draw(_SIZES), "x_min": -span, "x_max": span,
                 "p_min": -span, "p_max": span, "hbar": draw(st.floats(1e-3, 5))},
        "ordering": {"sigma": draw(st.floats(-4, 5)),
                     "smoother": draw(_value(CONFIG_SCHEMA["properties"]["ordering"]
                                             ["properties"]["smoother"]))},
        "params": draw(st.fixed_dictionaries(required, optional=table)),
    }


class TestRunContract:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(config=_configs())
    def test_exit_code_contract_property(self, config):
        # any config drawn from PARAMS exits 0, 2, 3 or 4, and a failed run
        # leaves an absent output_dir absent
        with tempfile.TemporaryDirectory() as tmp:
            outdir = os.path.join(tmp, "new", "out")
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                code, manifest = cli_run_config(dict(config, output_dir=outdir))
            assert code in (0, 2, 3, 4)
            assert (manifest is None) == (code != 0)
            if code != 0:
                assert not os.path.exists(os.path.join(tmp, "new"))

    def test_malformed_config_exit_2_no_artifacts(self, tmp_path):
        payload = {"scenario": "definitely-not-a-scenario",
                   "output_dir": str(tmp_path / "out")}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, manifest = run(str(path))
        assert code == 2
        assert manifest is None
        assert not (tmp_path / "out").exists()
        # malformed params and grids: wrong JSON types, out-of-range values,
        # and two inputs that get past the schema (a gauge-check label
        # collision, a custom system without its Hamiltonian)
        for payload in (
                {"scenario": "spectrum", "params": {"levels": "abc"}},
                {"scenario": "gauge-check",
                 "params": {"smoothers": [{"kind": "gaussian", "alpha": "x"}]}},
                {"scenario": "evolve", "params": {"observables": 5}},
                {"scenario": "gauge-check",
                 "params": {"smoothers": [{"kind": "gausian", "alpha": 0.1, "beta": 0.1}]}},
                # two Gaussian smoothers would share the label 'sigma=0,gaussian'
                {"scenario": "gauge-check",
                 "params": {"smoothers": [{"kind": "gaussian", "alpha": 0.1, "beta": 0.1},
                                          {"kind": "gaussian", "alpha": 0.3, "beta": 0.0}]}},
                # every cell of a 4-cell axis is boundary tail
                {"scenario": "oracle", "grid": {"nx": 4, "np": 4},
                 "params": {"state": "coherent"}},
                {"scenario": "evolve", "params": {"system": "custom"}},
                # out-of-range indices, levels and hbars, and empty sweeps
                {"scenario": "classical-limit",
                 "params": {"hbars": [0.2, -0.1], "grid": {"nx": 16, "np": 16}}},
                {"scenario": "classical-limit",
                 "params": {"hbars": [], "grid": {"nx": 16, "np": 16}}},
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "params": {"phi_hermite": -1, "psi_hermite": -1}},
                {"scenario": "starprod", "grid": {"nx": 64, "np": 64},
                 "params": {"left_hermite": -1, "right_hermite": -1}},
                {"scenario": "gauge-check", "grid": {"nx": 64, "np": 64},
                 "params": {"levels": -2, "sigmas": [0.5]}},
                {"scenario": "gauge-check", "grid": {"nx": 64, "np": 64},
                 "params": {"sigmas": []}},
                {"scenario": "spectrum", "grid": {"nx": 64, "np": 64},
                 "params": {"levels": 0}},
                # omega stays unbounded in the schema; hermite_function refuses 0
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "params": {"omega": 0}},
                # the identity smoother takes no alpha or beta
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "ordering": {"smoother": {"kind": "identity", "alpha": 0.3, "beta": 0.3}}},
                # a params key the scenario does not read: the oracle takes its
                # ordering from the top-level block, and a misspelled key
                {"scenario": "oracle", "grid": {"nx": 64, "np": 64},
                 "params": {"state": "coherent", "sigma": 0.2}},
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "params": {"phi_hermit": 3}},
                # the oscillator closed forms need sigma = 1/2
                {"scenario": "oracle", "grid": {"nx": 64, "np": 64},
                 "ordering": {"sigma": 0.2}, "params": {"state": "ho"}},
                # every scenario builds the run's grid, the symbolic one too
                {"scenario": "symbolic", "grid": {"nx": 63}},
                # classical-limit's params.grid takes only nx and np
                {"scenario": "classical-limit",
                 "params": {"hbars": [0.2], "grid": {"nx": 32, "np": 32, "hbar": 0.5,
                                                     "x_min": -1}}},
                # NaN or Infinity anywhere in the config (json.load accepts both)
                {"scenario": "oracle", "grid": {"nx": 32, "np": 32},
                 "params": {"state": "coherent", "x0": float("nan")}},
                {"scenario": "oracle", "grid": {"nx": 32, "np": 32},
                 "params": {"state": "free", "t": float("nan")}},
                {"scenario": "symbolic",
                 "ordering": {"smoother": {"kind": "gaussian", "alpha": float("nan"),
                                           "beta": 0.1}}},
                {"scenario": "classical-limit",
                 "params": {"family": "free", "hbars": [0.2], "t": float("nan"),
                            "grid": {"nx": 32, "np": 32}}},
                {"scenario": "evolve", "grid": {"nx": 32, "np": 32},
                 "params": {"p0": float("inf"), "steps": 2}},
                # unknown keys at any level: grid, ordering, smoother, top level
                {"scenario": "wigner", "grid": {"nx": 64, "xmin": -4}},
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "ordering": {"sigma": 0.3,
                              "smoothr": {"kind": "gaussian", "alpha": 0.1, "beta": 0.1}}},
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "ordering": {"smoother": {"kind": "gaussian", "alpha": 0.1, "gama": 1}}},
                {"scenario": "wigner", "grid": {"nx": 64, "np": 64},
                 "paramz": {"phi_hermite": 1, "psi_hermite": 1}}):
            (code, manifest), outdir = run_config(payload, tmp_path)
            assert code == 2
            assert manifest is None
            assert not Path(outdir).exists()
        # flags build a config too: a non-finite flag value exits 2
        for argv in (["oracle", "--state", "coherent", "--x0", "nan"],
                     ["oracle", "--state", "free", "--t", "nan"]):
            outdir = tmp_path / "flags"
            assert main(argv + ["--nx", "32", "--np", "32", "--output-dir", str(outdir)]) == 2
            assert not outdir.exists()

    @pytest.mark.parametrize("payload", [
        {"scenario": "spectrum", "grid": {"nx": "64"}},
        {"scenario": "spectrum", "unexpected": 1},
        {"scenario": "spectrum", "formats": ["csv", "xlsx"]},
        # all three at once: the reported error is jsonschema's best match,
        # not the first one found
        {"scenario": "spectrum", "formats": ["xlsx"], "grid": {"nx": "64"}, "unexpected": 1},
    ])
    def test_schema_message_matches_jsonschema(self, tmp_path, capsys, payload):
        import jsonschema
        payload = dict(payload, output_dir=str(tmp_path / "out"))
        with pytest.raises(jsonschema.ValidationError) as caught:
            jsonschema.validate(payload, CONFIG_SCHEMA)
        (code, _manifest), _out = run_config(payload, tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "schema violation: %s\n" % caught.value.message

    def test_unreadable_config_exit_2(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        code, _ = run(str(path))
        assert code == 2

    def test_numerical_precondition_exit_3(self, tmp_path):
        # a span far too small for the requested oracle state
        payload = {
            "scenario": "oracle",
            "formats": ["csv"],
            "grid": {"nx": 32, "np": 32, "x_min": -1.0, "x_max": 1.0,
                     "p_min": -1.0, "p_max": 1.0, "hbar": 1.0},
            "params": {"state": "coherent", "x0": 3.0, "p0": 0.0},
        }
        (code, manifest), _ = run_config(payload, tmp_path)
        assert code == 3
        # p0 = 7 needs about 10.5 p-units at the default span 8; the span check
        # holds on the Schrodinger route too
        code = main(["evolve", "--output-dir", str(tmp_path / "evolve"), "--nx", "128",
                     "--np", "64", "--system", "oscillator", "--p0", "7", "--steps", "8"])
        assert code == 3
        assert not (tmp_path / "evolve").exists()
        # p0 = 10 aliases across a 64-point p lattice on both routes
        code = main(["evolve", "--output-dir", str(tmp_path / "free"), "--nx", "256",
                     "--np", "64", "--system", "free", "--p0", "10", "--steps", "100"])
        assert code == 3
        assert not (tmp_path / "free").exists()
        # a smoother too strong for the grid: the x-marginal goes negative
        # after the first artifacts are written, and none of them may stay
        payload = {
            "scenario": "wigner",
            "formats": ["csv", "bin"],
            "grid": {"nx": 64, "np": 64},
            "ordering": {"sigma": 0.5,
                         "smoother": {"kind": "gaussian", "alpha": 2, "beta": 2}},
            "params": {"phi_hermite": 0, "psi_hermite": 0},
        }
        with pytest.warns(UserWarning, match="tail mass"):
            (code, manifest), outdir = run_config(payload, tmp_path)
        assert code == 3
        assert manifest is None
        assert not Path(outdir).exists()
        # a failed rerun leaves an earlier run's files and manifest as they were
        good = dict(payload, ordering={"sigma": 0.5, "smoother": {"kind": "identity"}})
        (code, manifest), _ = run_config(good, tmp_path)
        assert code == 0
        before = {name: (Path(outdir) / name).read_bytes() for name in os.listdir(outdir)}
        assert "manifest.json" in before
        with pytest.warns(UserWarning, match="tail mass"):
            (code, manifest), _ = run_config(payload, tmp_path)
        assert code == 3
        assert {name: (Path(outdir) / name).read_bytes() for name in os.listdir(outdir)} \
            == before

    def test_rk4_norm_drift_exit_3(self, tmp_path):
        # RK4 under an asymmetric Gaussian smoother leaves the unitary flow;
        # the Hilbert-norm guard stops the run instead of writing <x> ~ 1e2
        payload = {
            "scenario": "evolve",
            "grid": {"nx": 64, "np": 64},
            "ordering": {"sigma": 0.5,
                         "smoother": {"kind": "gaussian", "alpha": 0.3, "beta": 0.0}},
            "params": {"system": "oscillator", "method": "phase_space_rk4",
                       "dt": 0.01, "steps": 80, "x0": 1.0, "p0": 0.5},
        }
        (code, manifest), outdir = run_config(payload, tmp_path)
        assert code == 3
        assert manifest is None
        assert not Path(outdir).exists()

    @pytest.mark.parametrize("payload", [
        # the Hermite-1 field underflows to zero on this coarse grid (purity_check)
        {"scenario": "wigner", "ordering": {"sigma": 1.0},
         "grid": {"nx": 8, "np": 64, "x_min": -6, "x_max": 6, "p_min": -6, "p_max": 6,
                  "hbar": 1e-3},
         "params": {"phi_hermite": 1, "psi_hermite": 1}},
        # ... and the closed-form oscillator state (ho_state) and RK4's start state
        {"scenario": "oracle", "grid": {"nx": 8, "np": 8, "hbar": 1e-6},
         "params": {"state": "ho", "m": 1, "n": 0}},
        {"scenario": "evolve", "grid": {"nx": 8, "np": 8, "hbar": 1e-6},
         "params": {"system": "oscillator", "method": "phase_space_rk4", "steps": 2,
                    "dt": 1e-9}},
        # finite params whose derived values overflow
        {"scenario": "oracle", "params": {"state": "ho", "omega": 1e300}},
        {"scenario": "evolve", "grid": {"nx": 32, "np": 32},
         "params": {"system": "oscillator", "omega": 1e300, "steps": 2}},
        {"scenario": "classical-limit", "params": {"family": "free", "t": 1e300}},
        # the ordered matrix is NaN: it used to exit 0 with nan energies
        {"scenario": "gauge-check", "grid": {"nx": 64, "np": 64},
         "params": {"sigmas": [1e300], "hamiltonian": "0.5*p^2 + 0.5*x^2 + 0.1*x^2*p^2"}},
        # interpolation tail: the run creates output_dir and must remove it
        {"scenario": "wigner",
         "grid": {"nx": 8, "np": 8, "x_min": -1, "x_max": 1, "p_min": -1, "p_max": 1},
         "params": {"phi_hermite": 3, "psi_hermite": 3}},
    ], ids=["purity-zero-field", "ho-zero-field", "rk4-zero-start", "omega-overflow",
            "harmonic-omega-overflow", "free-t-overflow", "gauge-nan-matrix", "interpolation-tail"])
    def test_runtime_failure_exit_3_leaves_no_directory(self, tmp_path, capsys, payload):
        nested = tmp_path / "new" / "out"
        with np.errstate(all="ignore"):
            code, manifest = cli_run_config(dict(payload, output_dir=str(nested)))
        assert (code, manifest) == (3, None)
        assert capsys.readouterr().err.startswith("numerical precondition violated")
        assert not (tmp_path / "new").exists()
        # an existing output_dir stays, as empty as it was
        nested.mkdir(parents=True)
        with np.errstate(all="ignore"):
            assert cli_run_config(dict(payload, output_dir=str(nested)))[0] == 3
        assert nested.is_dir() and not os.listdir(nested)

    def test_unresolved_level_exit_3(self, tmp_path):
        # eight harmonic levels do not fit in [-3, 3]: not even level 0 decays
        payload = {"scenario": "spectrum",
                   "grid": {"nx": 64, "np": 64, "x_min": -3, "x_max": 3,
                            "p_min": -3, "p_max": 3},
                   "params": {"levels": 8}}
        (code, manifest), outdir = run_config(payload, tmp_path)
        assert (code, manifest) == (3, None)
        assert not Path(outdir).exists()

    def test_rk4_drift_checked_between_snapshots(self, tmp_path, capsys):
        # snapshots only at steps 157 and 314: the drift is caught at the
        # step it passes the bound, before the pullback itself is refused
        payload = {
            "scenario": "evolve",
            "grid": {"nx": 64, "np": 64},
            "ordering": {"sigma": 0.5,
                         "smoother": {"kind": "gaussian", "alpha": 0.3, "beta": 0.0}},
            "params": {"system": "oscillator", "method": "phase_space_rk4",
                       "dt": 0.01, "steps": 314, "snapshot_every": 157,
                       "x0": 1.0, "p0": 0.5},
        }
        (code, _manifest), _outdir = run_config(payload, tmp_path)
        assert code == 3
        assert "||S^-1 Psi||_2 drifted" in capsys.readouterr().err

    def test_params_keys_share_one_schema(self):
        # the config schema's params map is flat over all scenarios
        seen = {}
        for table in PARAMS.values():
            for key, (schema, _default) in table.items():
                assert seen.setdefault(key, schema) == schema, key
        assert CONFIG_SCHEMA["properties"]["params"]["properties"] == seen

    def test_determinism_byte_identical(self, tmp_path):
        payload = {
            "scenario": "spectrum",
            "formats": ["csv"],
            "grid": {"nx": 128, "np": 64, "x_min": -8.0, "x_max": 8.0,
                     "p_min": -8.0, "p_max": 8.0, "hbar": 1.0},
            "ordering": {"sigma": 0.5, "smoother": {"kind": "identity"}},
            "params": {"hamiltonian": "0.5*p^2 + 0.5*x^2", "levels": 4},
        }
        (code1, man1), out1 = run_config(payload, tmp_path, "a.json")
        first = (Path(out1) / "spectrum.csv").read_bytes()
        shutil.rmtree(out1)
        (code2, man2), out2 = run_config(payload, tmp_path, "b.json")
        second = (Path(out2) / "spectrum.csv").read_bytes()
        assert code1 == code2 == 0
        assert first == second
        assert man1["files"] == man2["files"]

    def test_manifest_lists_hashes(self, tmp_path):
        payload = {
            "scenario": "symbolic",
            "formats": ["csv"],
            "params": {"f": "x", "g": "p"},
        }
        (code, manifest), outdir = run_config(payload, tmp_path)
        assert code == 0
        assert manifest["files"][0]["path"] == "symbolic.txt"
        assert len(manifest["files"][0]["sha256"]) == 64
        assert (Path(outdir) / "manifest.json").exists()


class TestSubcommands:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "psq" in out and "field format" in out

    def test_run_returns_exit_code(self, tmp_path):
        path = tmp_path / "config.json"
        for params, want in (({"f": "x", "g": "p"}, 0), ({"f": "q"}, 2)):
            path.write_text(json.dumps({"scenario": "symbolic", "params": params,
                                        "output_dir": str(tmp_path / "out")}))
            assert main(["run", str(path)]) == want

    def test_print_schema(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "unread.json"), "--print-schema"]) == 0
        assert json.loads(capsys.readouterr().out) == CONFIG_SCHEMA

    def test_print_schema_needs_no_path(self, capsys):
        assert main(["run", "--print-schema"]) == 0
        assert json.loads(capsys.readouterr().out) == CONFIG_SCHEMA
        # without --print-schema the path is required
        assert main(["run"]) == 2
        assert capsys.readouterr().err.startswith("config error")

    @pytest.mark.parametrize("argv", [
        ["starprod", "--f", "x*p", "--nx", "64", "--np", "64"],
        ["starprod", "--symbolic", "--op", "bracket", "--left-hermite", "3"],
    ])
    def test_unread_flag_exit_2(self, tmp_path, capsys, argv):
        # a flag the scenario does not read is refused, as its JSON key is
        outdir = tmp_path / "out"
        assert main(argv + ["--output-dir", str(outdir)]) == 2
        assert "reads no params" in capsys.readouterr().err
        assert not outdir.exists()

    def test_manifest_records_field_format_version(self, tmp_path):
        outdir = tmp_path / "orc"
        assert main(["oracle", "--nx", "32", "--np", "32", "--formats", "bin",
                     "--output-dir", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        header = (outdir / "ho_state.psqf").read_bytes()[:8]
        assert header[:4] == b"PSQF"
        assert manifest["field_format_version"] == struct.unpack("<I", header[4:])[0]

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert capsys.readouterr().out.startswith("usage: psq")

    def test_spectrum_subcommand(self, tmp_path):
        outdir = str(tmp_path / "spect")
        code = main(["spectrum", "--output-dir", outdir, "--nx", "128",
                     "--np", "32", "--levels", "3"])
        assert code == 0
        lines = (Path(outdir) / "spectrum.csv").read_text().splitlines()
        assert abs(float(lines[1].split(",")[1]) - 0.5) < 1e-8

    def test_malformed_hamiltonian_exit_2(self, tmp_path, capsys):
        outdir = tmp_path / "bad"
        code = main(["spectrum", "--output-dir", str(outdir), "--nx", "64",
                     "--np", "32", "--hamiltonian", "0.5*p^2 + x^-1"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (outdir / "manifest.json").exists()

    def test_wigner_subcommand(self, tmp_path):
        outdir = str(tmp_path / "wig")
        code = main(["wigner", "--output-dir", outdir, "--nx", "64",
                     "--np", "64", "--formats", "csv,bin",
                     "--phi-hermite", "1", "--psi-hermite", "1"])
        assert code == 0
        purity = (Path(outdir) / "purity.csv").read_text().splitlines()
        assert purity[1].split(",")[0] == "1"
        # without "bin" no binary file is written
        csv_only = tmp_path / "wig_csv"
        code = main(["wigner", "--output-dir", str(csv_only), "--nx", "64",
                     "--np", "64", "--phi-hermite", "1", "--psi-hermite", "1"])
        assert code == 0
        assert (csv_only / "purity.csv").exists()
        assert not list(csv_only.glob("*.psqf"))

    def test_wigner_marginal_only_for_a_density(self, tmp_path):
        # conj(h_0) h_1 is no density: an off-diagonal pair writes no x-marginal
        for (i, j), written in (((0, 1), False), ((1, 1), True)):
            outdir = tmp_path / ("w%d%d" % (i, j))
            code = main(["wigner", "--output-dir", str(outdir), "--nx", "64",
                         "--np", "64", "--phi-hermite", str(i), "--psi-hermite", str(j)])
            assert code == 0
            assert (outdir / "marginal_x.csv").exists() == written

    def test_starprod_symbolic_subcommand(self, tmp_path):
        outdir = str(tmp_path / "sym")
        code = main(["starprod", "--symbolic", "--f", "x", "--g", "p",
                     "--sigma", "0.5", "--output-dir", outdir])
        assert code == 0
        text = (Path(outdir) / "symbolic.txt").read_text()
        assert "f star g = 1*x*p + 0.5j*hbar" in text
        # the (sigma, S) product and ordering under a Gaussian smoother
        outdir = tmp_path / "sym_s"
        code = main(["starprod", "--symbolic", "--f", "x^2", "--g", "x^2", "--sigma", "0.3",
                     "--alpha", "0.1", "--beta", "0.2", "--output-dir", str(outdir)])
        assert code == 0
        lines = (outdir / "symbolic.txt").read_text().splitlines()
        assert lines[2] == "f star g = 1*x^4 + 0.4*hbar*x^2 + 0.02*hbar^2"
        assert lines[3] == "sigma_order(f) = 1*q^2 + -0.1*hbar"

    def test_oracle_subcommand(self, tmp_path):
        outdir = str(tmp_path / "orc")
        code = main(["oracle", "--output-dir", outdir, "--state", "ho",
                     "--m", "1", "--n", "1", "--nx", "64", "--np", "64",
                     "--formats", "bin"])
        assert code == 0
        from psq import read_field
        field = read_field(Path(outdir) / "ho_state.psqf")
        assert field.grid.nx == 64
        # the README example: every params key is a flag
        outdir = tmp_path / "coh"
        code = main(["oracle", "--state", "coherent", "--x0", "1", "--p0", "0.5",
                     "--formats", "bin", "--nx", "64", "--np", "64",
                     "--output-dir", str(outdir)])
        assert code == 0
        field = read_field(outdir / "coherent.psqf")
        X, P = field.grid.meshes()
        peak = np.unravel_index(np.abs(field.values).argmax(), X.shape)
        assert abs(X[peak] - 1.0) <= field.grid.dx and abs(P[peak] - 0.5) <= field.grid.dp
        # the closed forms come under the run's ordering
        from psq import read_state
        (code, _manifest), outdir = run_config(
            {"scenario": "oracle", "formats": ["bin"], "grid": {"nx": 64, "np": 64},
             "ordering": {"sigma": 0.2}, "params": {"state": "coherent"}}, tmp_path)
        assert code == 0
        assert read_state(Path(outdir) / "coherent.state.psqf").spec.sigma == 0.2
        smoother = {"kind": "gaussian", "alpha": 0.2, "beta": 0.2}
        (code, _manifest), outdir = run_config(
            {"scenario": "oracle", "formats": ["bin"], "grid": {"nx": 64, "np": 64},
             "ordering": {"sigma": 0.5, "smoother": smoother}, "params": {"state": "ho"}},
            tmp_path)
        assert code == 0
        sidecar = json.loads((Path(outdir) / "ho_state.state.psqf.json").read_text())
        assert sidecar["smoother"] == smoother

    def test_starprod_star_subcommand(self, tmp_path):
        outdir = str(tmp_path / "star")
        code = main(["starprod", "--op", "star", "--left-hermite", "0",
                     "--right-hermite", "0", "--nx", "64", "--np", "64",
                     "--formats", "bin", "--output-dir", outdir])
        assert code == 0
        from psq import read_field, l2_norm
        prod = read_field(Path(outdir) / "starprod_star.psqf")
        # Psi00 * Psi00 = Psi00 / sqrt(2 pi hbar)
        from psq import OrderingSpec, hermite_function, make_grid, twisted_tensor
        grid = prod.grid
        base = twisted_tensor(hermite_function(grid, 0),
                              hermite_function(grid, 0), OrderingSpec(0.5))
        want = base.psi_field * (1 / np.sqrt(2 * np.pi * grid.hbar))
        assert l2_norm(prod - want) / l2_norm(want) < 1e-8
        # an operand the op does not read is not built: Hermite 40 would not
        # fit on this grid
        for argv in (["--op", "bopp", "--left-hermite", "40", "--right-hermite", "0"],
                     ["--op", "dagger", "--right-hermite", "40"]):
            code = main(["starprod"] + argv + ["--nx", "64", "--np", "64",
                                               "--output-dir", str(tmp_path / argv[1])])
            assert code == 0

    def test_oracle_ladder_subcommand(self, tmp_path):
        outdir = str(tmp_path / "lad")
        code = main(["oracle", "--output-dir", outdir, "--state", "ho-ladder",
                     "--m", "1", "--n", "1", "--nx", "64", "--np", "64",
                     "--formats", "bin"])
        assert code == 0
        assert (Path(outdir) / "ho_ladder.psqf").exists()

    def test_gauge_check_subcommand(self, tmp_path):
        outdir = str(tmp_path / "gauge")
        code = main(["gauge-check", "--output-dir", outdir, "--nx", "128",
                     "--np", "32", "--levels", "3",
                     "--sigmas", "0,0.5,1"])
        assert code == 0
        report = (Path(outdir) / "gauge_report.csv").read_text().splitlines()
        assert float(report[1]) < 1e-8
        # a zero Gaussian smoother is the identity ordering, swept once
        (code, _manifest), outdir = run_config(
            {"scenario": "gauge-check", "grid": {"nx": 64, "np": 64},
             "params": {"sigmas": [0.5], "levels": 2,
                        "smoothers": [{"kind": "gaussian", "alpha": 0, "beta": 0}]}}, tmp_path)
        assert code == 0
        rows = (Path(outdir) / "gauge_spectra.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 2)[0] for row in rows] == ["sigma=0.5,identity"] * 2

    def test_classical_limit_subcommand(self, tmp_path):
        outdir = str(tmp_path / "clim")
        code = main(["classical-limit", "--output-dir", outdir,
                     "--family", "coherent", "--hbars", "0.2,0.1"])
        assert code == 0
        lines = (Path(outdir) / "classical_limit.csv").read_text().splitlines()
        assert len(lines) == 3
        # the grid flags set nx and np, as params.grid does in a JSON config
        small = tmp_path / "clim32"
        code = main(["classical-limit", "--output-dir", str(small), "--nx", "32",
                     "--np", "32", "--hbars", "0.2,0.1"])
        assert code == 0
        (code, _manifest), outdir = run_config(
            {"scenario": "classical-limit",
             "params": {"hbars": [0.2, 0.1], "grid": {"nx": 32, "np": 32}}}, tmp_path)
        assert code == 0
        assert (small / "classical_limit.csv").read_bytes() \
            == (Path(outdir) / "classical_limit.csv").read_bytes()
        # the family comes under the run's ordering: S_{a,b} widens the coherent
        # state by hbar a in x and hbar b in p, so the pairing is
        # 1 / (1 + hbar (1/4 + a/2)) at a = b
        smooth = tmp_path / "clim_s"
        code = main(["classical-limit", "--output-dir", str(smooth), "--nx", "64", "--np", "64",
                     "--hbars", "0.2,0.1", "--alpha", "0.2", "--beta", "0.2"])
        assert code == 0
        for line in (smooth / "classical_limit.csv").read_text().splitlines()[1:]:
            hbar, pairing = (float(v) for v in line.split(",")[:2])
            assert abs(pairing - 1.0 / (1.0 + 0.35 * hbar)) < 1e-8

    def test_classical_limit_free_and_ho_families(self, tmp_path):
        # Gaussian pairings against iint rho exp(-|z - c|^2 / 4), c = (x0, p0) = (1, 0.5):
        # the free packet at t = 1 is a Gaussian Wigner function, and the
        # oscillator's n = 1 Wigner function is (2 |z|^2 / hbar - 1) N(0, hbar/2)
        x0, p0, t = 1.0, 0.5, 1.0
        c = np.array([x0, p0])

        def pairings(family):
            outdir = tmp_path / family
            assert main(["classical-limit", "--family", family, "--hbars", "0.2,0.1",
                         "--nx", "128", "--np", "128", "--output-dir", str(outdir)]) == 0
            rows = (outdir / "classical_limit.csv").read_text().splitlines()[1:]
            return [[float(v) for v in row.split(",")] for row in rows]

        for hbar, re, im in pairings("free"):
            dp = 0.5 * np.sqrt(hbar)
            dx = hbar / (2.0 * dp)
            cov = np.array([[dx ** 2 + (dp * t) ** 2, dp ** 2 * t], [dp ** 2 * t, dp ** 2]])
            d = np.array([p0 * t, p0]) - c
            want = np.exp(-0.5 * d @ np.linalg.solve(cov + 2.0 * np.eye(2), d)) \
                / np.sqrt(np.linalg.det(cov / 2.0 + np.eye(2)))
            assert abs(re - want) < 1e-12 and im == 0.0
        for hbar, re, im in pairings("ho"):
            s = hbar / 2.0
            mean_sq = (s / (s + 2.0)) ** 2 * (c @ c) + 4.0 * s / (s + 2.0)
            want = 2.0 / (s + 2.0) * np.exp(-(c @ c) / (2.0 * (s + 2.0))) \
                * (2.0 / hbar * mean_sq - 1.0)
            assert abs(re - want) < 1e-12 and im == 0.0

    def test_oracle_free_state(self, tmp_path):
        from psq import make_grid
        from psq.closedforms import FreeGaussianParams, free_gaussian
        outdir = tmp_path / "free"
        assert main(["oracle", "--state", "free", "--t", "0.5", "--nx", "64", "--np", "64",
                     "--formats", "bin", "--output-dir", str(outdir)]) == 0
        field = read_field(outdir / "free_gaussian.psqf")
        grid = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)
        want = free_gaussian(FreeGaussianParams(1.0, np.sqrt(0.5)), 0.5, grid)
        assert np.array_equal(field.values, want.psi_field.values)
        assert abs(integrate(field) / np.sqrt(2 * np.pi) - 1.0) < 1e-10

    def test_evolve_custom_system(self, tmp_path):
        # the harmonic polynomial as a custom Hamiltonian is the oscillator system
        common = ["--nx", "32", "--np", "32", "--steps", "16", "--dt", "0.01",
                  "--formats", "csv,bin"]
        assert main(["evolve", "--system", "oscillator", "--output-dir",
                     str(tmp_path / "osc")] + common) == 0
        assert main(["evolve", "--system", "custom", "--hamiltonian", "0.5*p^2 + 0.5*x^2",
                     "--output-dir", str(tmp_path / "custom")] + common) == 0
        names = json.loads((tmp_path / "osc" / "manifest.json").read_text())["files"]
        for entry in names:
            path = entry["path"]
            assert (tmp_path / "osc" / path).read_bytes() \
                == (tmp_path / "custom" / path).read_bytes()
        assert main(["evolve", "--system", "custom", "--output-dir",
                     str(tmp_path / "none")] + common) == 2

    def test_starprod_smooth_and_gauge(self, tmp_path):
        from psq import (GaussianSmoother, OrderingSpec, hermite_function, l2_norm,
                         make_grid, twisted_tensor)
        grid = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)
        h = hermite_function(grid, 1)
        # S^-1 takes the smoothed state to the identity-smoother one
        outdir = tmp_path / "smooth"
        assert main(["starprod", "--op", "smooth", "--direction", "inverse", "--left-hermite", "1",
                     "--alpha", "0.1", "--beta", "0.1", "--nx", "64", "--np", "64",
                     "--formats", "bin", "--output-dir", str(outdir)]) == 0
        got = read_field(outdir / "starprod_smooth.psqf")
        want = twisted_tensor(h, h, OrderingSpec(0.5)).psi_field
        assert l2_norm(got - want) / l2_norm(want) < 1e-10
        # and S forward applies the smoother once more
        outdir = tmp_path / "forward"
        assert main(["starprod", "--op", "smooth", "--left-hermite", "1",
                     "--alpha", "0.1", "--beta", "0.1", "--nx", "64", "--np", "64",
                     "--formats", "bin", "--output-dir", str(outdir)]) == 0
        got = read_field(outdir / "starprod_smooth.psqf")
        want = twisted_tensor(h, h, OrderingSpec(0.5, GaussianSmoother(0.2, 0.2))).psi_field
        assert l2_norm(got - want) / l2_norm(want) < 1e-10
        # the gauge map from sigma to sigma_to is the twisted tensor at sigma_to
        outdir = tmp_path / "gauge"
        assert main(["starprod", "--op", "gauge", "--left-hermite", "1", "--sigma", "0.5",
                     "--sigma-to", "0.2", "--nx", "64", "--np", "64", "--formats", "bin",
                     "--output-dir", str(outdir)]) == 0
        got = read_field(outdir / "starprod_gauge.psqf")
        want = twisted_tensor(h, h, OrderingSpec(0.2)).psi_field
        assert l2_norm(got - want) / l2_norm(want) < 1e-10

    def test_spectrum_emit_fields(self, tmp_path):
        from psq import OscillatorParams, l2_norm
        from psq.closedforms import ho_state
        outdir = tmp_path / "fields"
        assert main(["spectrum", "--levels", "2", "--emit-fields", "--nx", "64", "--np", "64",
                     "--formats", "csv,bin", "--output-dir", str(outdir)]) == 0
        files = {entry["path"] for entry in
                 json.loads((outdir / "manifest.json").read_text())["files"]}
        assert {"eigenfield_00.psqf", "eigenfield_00.psqf.csv", "eigenfield_01.psqf",
                "eigenfield_01.psqf.csv"} <= files
        for n in range(2):
            field = read_field(outdir / ("eigenfield_%02d.psqf" % n))
            want = ho_state(n, n, OscillatorParams(), field.grid).psi_field
            assert l2_norm(field - want) < 1e-6

    @pytest.mark.parametrize("argv, scenario, params", [
        (["spectrum"], "spectrum", {}),
        (["gauge-check"], "gauge-check", {}),
        (["evolve"], "evolve", {}),
        (["evolve", "--system", "oscillator"], "evolve", {"system": "oscillator"}),
        (["oracle"], "oracle", {}),
        (["wigner"], "wigner", {}),
        (["starprod"], "starprod", {}),
        (["starprod", "--symbolic"], "symbolic", {}),
        (["classical-limit"], "classical-limit", {}),
    ])
    def test_flags_match_json_config(self, tmp_path, argv, scenario, params):
        # a subcommand and its JSON config share every default
        flags_out = tmp_path / "flags"
        code = main(argv + ["--nx", "64", "--np", "32", "--formats", "csv,bin,dat",
                            "--output-dir", str(flags_out)])
        assert code == 0
        (code, manifest), _ = run_config(
            {"scenario": scenario, "formats": ["csv", "bin", "dat"],
             "grid": {"nx": 64, "np": 32}, "params": params}, tmp_path)
        assert code == 0
        flags_manifest = json.loads((flags_out / "manifest.json").read_text())
        assert manifest["files"] == flags_manifest["files"]
