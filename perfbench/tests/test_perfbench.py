"""Tests of the benchmark itself: seeding, closed-form checks, tracing, output.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import worker  # noqa: E402

PHYSICAL = ("sigma", "x0", "p0", "hamiltonian", "left_hermite", "right_hermite",
            "phi_hermite", "psi_hermite")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _structure(value):
    """A config with every seeded physical parameter blanked out."""
    if isinstance(value, dict):
        return {k: None if k in PHYSICAL else _structure(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_structure(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_gives_same_configs(workload):
    assert scenarios.cycle(workload, 11, 0) == scenarios.cycle(workload, 11, 0)
    assert scenarios.cycle(workload, 11, 0) != scenarios.cycle(workload, 12, 0)
    assert scenarios.cycle(workload, 11, 0) != scenarios.cycle(workload, 11, 1)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_seed_sets_only_physical_parameters(workload):
    reference = _structure(scenarios.cycle(workload, 0, 0))
    for seed, index in ((1, 0), (2, 3), (12345, 7)):
        assert _structure(scenarios.cycle(workload, seed, index)) == reference


@pytest.mark.parametrize("workload", ("orbit", "algebra"))
def test_sigma_draws_include_the_endpoints(workload):
    for seed in range(5):
        sigmas = {cfg["ordering"]["sigma"] for _kind, cfg in scenarios.cycle(workload, seed, 0)}
        assert {0.0, 1.0} <= sigmas


# ---------------------------------------------------------------------------
# closed-form checks reject perturbed output
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _orbit_output(tmp_path, shift=0.0):
    _kind, cfg = scenarios.cycle("orbit", 5, 0)[2]
    x0, p0 = cfg["params"]["x0"], cfg["params"]["p0"]
    energy = 0.5 * (x0 ** 2 + p0 ** 2) + 0.5
    rows = []
    for t in np.arange(5) * 1.57:
        x = x0 * np.cos(t) + p0 * np.sin(t) + shift
        p = -x0 * np.sin(t) + p0 * np.cos(t)
        rows.append((float(t), float(x), 0.0, float(p), 0.0, energy, 0.0, 1.0))
    _write_csv(tmp_path / "trajectory.csv", "t,x_re,x_im,p_re,p_im,H_re,H_im,norm", rows)
    return cfg


def test_orbit_check_rejects_a_shifted_centre(tmp_path):
    cfg = _orbit_output(tmp_path)
    assert scenarios.check("orbit", cfg, str(tmp_path), {}) == []
    cfg = _orbit_output(tmp_path, shift=2e-6)
    assert scenarios.check("orbit", cfg, str(tmp_path), {})


def _free_output(tmp_path, spread=1.0):
    _kind, cfg = scenarios.cycle("transport", 5, 0)[0]
    p0 = cfg["params"]["p0"]
    dp = np.sqrt(0.5)
    dx = 1.0 / (2.0 * dp)
    rows = []
    for t in np.arange(6) * 0.2:
        var_x = (dx ** 2 + (dp * t) ** 2) * spread
        rows.append((float(t), p0 * t, 0.0, p0, 0.0, var_x + (p0 * t) ** 2, 0.0,
                     dp ** 2 + p0 ** 2, 0.0, 1.0))
    _write_csv(tmp_path / "trajectory.csv",
               "t,x_re,x_im,p_re,p_im,x2_re,x2_im,p2_re,p2_im,norm", rows)
    return cfg


def test_free_packet_check_rejects_wrong_spreading(tmp_path):
    assert scenarios.check("free", _free_output(tmp_path), str(tmp_path), {}) == []
    assert scenarios.check("free", _free_output(tmp_path, spread=1.00001),
                           str(tmp_path), {})


def _spectrum_output(tmp_path, energies):
    _write_csv(tmp_path / "spectrum.csv", "n,energy,residual_left,residual_right",
               [(n, float(e), 0.0, 0.0) for n, e in enumerate(energies)])


@pytest.mark.parametrize("slot, shift", [(1, 0.5), (3, 0.4)])
def test_harmonic_check_rejects_shifted_energies(tmp_path, slot, shift):
    _kind, cfg = scenarios.cycle("spectra", 5, 0)[slot]
    _spectrum_output(tmp_path, np.arange(5) + shift)
    assert scenarios.check("spectrum", cfg, str(tmp_path), {}) == []
    _spectrum_output(tmp_path, np.arange(5) + shift + 2e-6)
    assert scenarios.check("spectrum", cfg, str(tmp_path), {})


def _gauge_output(tmp_path, levels, bump=0.0):
    rows = []
    for kind in ("gaussian", "identity"):
        for sigma in ("0", "0.5", "1"):
            for n, e in enumerate(levels[kind]):
                rows.append(("sigma=%s,%s" % (sigma, kind), n,
                             float(e + (bump if sigma == "1" else 0.0))))
    _write_csv(tmp_path / "gauge_spectra.csv", "ordering,n,energy", rows)


def test_orderings_must_agree(tmp_path):
    slots = scenarios.cycle("spectra", 5, 0)
    gauge_cfg = slots[0][1]
    levels = {"identity": np.arange(5) + 0.61, "gaussian": np.arange(5) + 0.52}
    context = {}
    _gauge_output(tmp_path, levels)
    assert scenarios.check("gauge", gauge_cfg, str(tmp_path), context) == []
    _kind, quartic_cfg = slots[4]
    _spectrum_output(tmp_path, levels["identity"])
    assert scenarios.check("spectrum", quartic_cfg, str(tmp_path), context) == []
    _spectrum_output(tmp_path, levels["identity"] + 1e-6)
    assert scenarios.check("spectrum", quartic_cfg, str(tmp_path), context)
    _gauge_output(tmp_path, levels, bump=1e-6)
    assert scenarios.check("gauge", gauge_cfg, str(tmp_path), {})


def _star_output(tmp_path, i, j, scale):
    """Write scale * Psi_ii as the product Psi_ii * Psi_jj."""
    from psq import hermite_function, make_grid, twisted_tensor, write_field
    from psq.ordering import spec_from_dict
    cfg = {"ordering": {"sigma": 0.0, "smoother": dict(scenarios.GAUSSIAN)},
           "params": {"op": "star", "left_hermite": i, "right_hermite": j}}
    grid = make_grid(64, 64, -8.0, 8.0, -8.0, 8.0, 1.0)
    h = hermite_function(grid, i)
    field = twisted_tensor(h, h, spec_from_dict(cfg["ordering"])).psi_field
    write_field(field * scale, str(tmp_path / "starprod_star.psqf"))
    return cfg


@pytest.mark.parametrize("i, j, exact, wrong", [
    (2, 2, 1.0 / np.sqrt(2.0 * np.pi), 1.00001 / np.sqrt(2.0 * np.pi)),
    (1, 3, 0.0, 1e-3)])
def test_idempotence_check_rejects_a_wrong_product(tmp_path, i, j, exact, wrong):
    cfg = _star_output(tmp_path, i, j, exact)
    assert scenarios.check("star", cfg, str(tmp_path), {}) == []
    cfg = _star_output(tmp_path, i, j, wrong)
    assert scenarios.check("star", cfg, str(tmp_path), {})


def _wigner_output(tmp_path, pure, density_shift):
    cfg = next(cfg for kind, cfg in scenarios.cycle("algebra", 5, 0) if kind == "wigner")
    x = -8.0 + 16.0 / 256 * np.arange(256)
    n = cfg["params"]["phi_hermite"]
    _write_csv(tmp_path / "purity.csv", "is_pure,herm,idem,norm", [(int(pure), 0.0, 0.0, 0.0)])
    _write_csv(tmp_path / "marginal_x.csv", "x,density",
               [(float(a), float(b) + density_shift)
                for a, b in zip(x, scenarios.hermite_density(x, n))])
    return cfg


def test_wigner_check_rejects_impure_state_and_wrong_marginal(tmp_path):
    assert scenarios.check("wigner", _wigner_output(tmp_path, True, 0.0), str(tmp_path), {}) == []
    assert scenarios.check("wigner", _wigner_output(tmp_path, False, 0.0), str(tmp_path), {})
    assert scenarios.check("wigner", _wigner_output(tmp_path, True, 2e-6), str(tmp_path), {})


def test_missing_artifact_is_a_failure(tmp_path):
    _kind, cfg = scenarios.cycle("orbit", 5, 0)[0]
    assert scenarios.check("orbit", cfg, str(tmp_path), {})


def test_determinism_check_rejects_a_changed_artifact_byte(tmp_path):
    import hashlib

    import psq.cli
    cfg = {"scenario": "symbolic", "output_dir": str(tmp_path / "out"),
           "params": {"f": "x^2", "g": "p"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    first, again = (worker.Scenario(n, "symbolic", cfg, cfg["output_dir"], 0.0,
                                    scenarios.file_hashes(psq.cli.run(str(path))[1]))
                    for n in range(2))
    session = worker.Session("algebra", str(tmp_path))
    session.compare(first, again)
    assert not session.failed
    artifact = tmp_path / "out" / "symbolic.txt"
    data = bytearray(artifact.read_bytes())
    data[0] ^= 1
    artifact.write_bytes(bytes(data))
    again.hashes["symbolic.txt"] = hashlib.sha256(artifact.read_bytes()).hexdigest()
    session.compare(first, again)
    assert session.failed == {1}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_rebinds_every_import_and_restores_it():
    import psq.dynamics
    import psq.grids
    import psq.states
    original = psq.grids.half_dft
    tracer = layers.Tracer()
    tracer.install()
    try:
        for mod in (psq.grids, psq.states, psq.dynamics):
            assert mod.half_dft is not original
        psq.grids.fourier_partial(psq.grids.PhaseField.constant(
            psq.grids.make_grid(8, 8, -1, 1, -1, 1, 1.0)), "x", "forward")
    finally:
        tracer.uninstall()
    for mod in (psq.grids, psq.states, psq.dynamics):
        assert mod.half_dft is original
    assert tracer.calls["grids.transform"] == 1
    assert tracer.counts["grids.transform.bytes"] == 2 * 64 * 16


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    import psq.grids
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (
        ("grids.gone", (("psq.grids", "no_such_function"),)),))
    original = psq.grids.half_dft
    with pytest.raises(layers.TraceError, match="no_such_function"):
        layers.Tracer().install()
    assert psq.grids.half_dft is original


def test_zero_call_predictions_are_enforced():
    tracer = layers.Tracer()
    for layer in layers.MUST_CALL["orbit"]:
        tracer.calls[layer] = 1
    layers.check_predictions("orbit", tracer)
    tracer.calls["starprod.star_sigma"] = 1
    with pytest.raises(layers.TraceError, match="star_sigma"):
        layers.check_predictions("orbit", tracer)
    tracer.calls["starprod.star_sigma"] = 0
    tracer.calls["spectra.expectation"] = 0
    with pytest.raises(layers.TraceError, match="expectation"):
        layers.check_predictions("orbit", tracer)


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(scenarios.WORKLOADS)
    assert set(layers.MUST_CALL) == set(layers.NEVER_CALL) == set(scenarios.WORKLOADS)


def test_host_speed_scaling_trusts_the_faster_probe():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref, ref) == pytest.approx(2.0)
    assert hostspeed.scale(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.scale(2.0, 2 * ref, ref) == pytest.approx(2.0)
    assert hostspeed.probe() > 0


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("traced, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_benchmark_json(traced, section):
    out = _bench(["--workload", "transport", "--seed", "3", "--seconds", "1",
                  "--trace", str(traced)])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert not [p for p in os.listdir(ROOT) if p.startswith(".perfbench-")]


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(["--workload", "orbit", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
