"""Print `name path sha256` for every artifact of the bundled demo configs, of
the small inline configs below (one per scenario branch the others miss) and
of cycle 0 (seed 1) of each perfbench workload, run through psq.cli.run_config.

    python3 tools/manifest_hashes.py > hashes.txt

Run it on two source trees and diff the outputs to see which artifacts moved.
BLAS threads are pinned to one (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS), as in
perfbench/run.py, because some spectra hash differently under threaded BLAS;
FFTs are numpy's, which run on one thread.
"""

import glob
import json
import os
import sys
import tempfile

# before numpy is imported, so that BLAS starts with one thread
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from psq.cli import run_config  # noqa: E402
from scenarios import WORKLOADS, cycle, file_hashes  # noqa: E402

_SMALL = {"nx": 32, "np": 32}
_MID = {"nx": 64, "np": 64}
_GAUSSIAN = {"sigma": 0.5, "smoother": {"kind": "gaussian", "alpha": 0.1, "beta": 0.1}}
_QUARTIC = "0.5*p^2 + 0.5*x^2 + 0.01*x^4"
# dx 0.25 > deta 0.196: kernels cannot hold the operands, so star_sigma convolves
_CONVOLVED = {"nx": 64, "np": 128, "p_min": -16, "p_max": 16}
# scenario branches that neither the demo configs nor the workloads run
BRANCHES = {
    "oracle-free": {"scenario": "oracle", "grid": _SMALL, "params": {"state": "free", "t": 0.5}},
    "classical-limit-free": {"scenario": "classical-limit", "grid": _SMALL,
                             "params": {"family": "free", "hbars": [0.2, 0.1]}},
    "classical-limit-ho": {"scenario": "classical-limit", "grid": _SMALL,
                           "params": {"family": "ho", "hbars": [0.2, 0.1]}},
    "evolve-custom": {"scenario": "evolve", "grid": _MID,
                      "params": {"system": "custom", "hamiltonian": _QUARTIC,
                                 "steps": 16, "dt": 0.01}},
    "evolve-matrix-exponential": {"scenario": "evolve", "grid": _MID,
                                  "params": {"system": "custom", "hamiltonian": _QUARTIC,
                                             "method": "matrix_exponential",
                                             "steps": 16, "dt": 0.01}},
    "oracle-ho-ladder": {"scenario": "oracle", "grid": _MID,
                         "params": {"state": "ho-ladder", "m": 1, "n": 2}},
    "oracle-coherent": {"scenario": "oracle", "grid": _SMALL, "ordering": {"sigma": 0.2},
                        "params": {"state": "coherent"}},
    "starprod-commutator": {"scenario": "starprod", "grid": _MID, "formats": ["bin"],
                            "params": {"op": "commutator", "right_hermite": 1}},
    "starprod-star-convolution": {"scenario": "starprod", "grid": _CONVOLVED, "formats": ["bin"],
                                  "params": {"op": "star", "left_hermite": 1,
                                             "right_hermite": 1}},
    "starprod-commutator-convolution-gaussian": {"scenario": "starprod", "grid": _CONVOLVED,
                                                 "ordering": dict(_GAUSSIAN, sigma=0.3),
                                                 "formats": ["bin"],
                                                 "params": {"op": "commutator",
                                                            "left_hermite": 0,
                                                            "right_hermite": 2}},
    "starprod-bracket": {"scenario": "starprod", "grid": _MID,
                         "ordering": dict(_GAUSSIAN, sigma=0.3), "formats": ["bin"],
                         "params": {"op": "bracket", "right_hermite": 1}},
    "starprod-bopp-right": {"scenario": "starprod", "grid": _SMALL,
                            "ordering": dict(_GAUSSIAN, sigma=0.3), "formats": ["bin"],
                            "params": {"op": "bopp", "side": "right",
                                       "observable": "x*p + 0.5*x^2"}},
    "symbolic": {"scenario": "symbolic", "ordering": dict(_GAUSSIAN, sigma=0.3),
                 "params": {"f": "x*p + 0.5*x^2", "g": "p^2"}},
    "starprod-smooth": {"scenario": "starprod", "grid": _SMALL, "ordering": _GAUSSIAN,
                        "formats": ["bin"], "params": {"op": "smooth", "direction": "inverse"}},
    "starprod-dagger": {"scenario": "starprod", "grid": _SMALL,
                        "ordering": dict(_GAUSSIAN, sigma=0.3), "formats": ["bin"],
                        "params": {"op": "dagger"}},
    "starprod-gauge": {"scenario": "starprod", "grid": _SMALL, "formats": ["bin"],
                       "params": {"op": "gauge", "sigma_to": 0.2}},
    "spectrum-emit-fields": {"scenario": "spectrum", "grid": {"nx": 64, "np": 32},
                             "formats": ["csv", "bin"],
                             "params": {"levels": 2, "emit_fields": True}},
    # spectra that keep the full eigensolve: an odd word, and a span with x_min != -x_max
    "spectrum-odd-potential": {"scenario": "spectrum", "grid": _MID,
                               "params": {"hamiltonian": _QUARTIC + " + 0.02*x^3"}},
    "spectrum-uncentred-span": {"scenario": "spectrum",
                                "grid": dict(_MID, x_min=-7.0, x_max=9.0)},
    # the closed forms under a Gaussian ordering
    "oracle-free-gaussian": {"scenario": "oracle", "grid": _MID, "ordering": _GAUSSIAN,
                             "formats": ["bin"], "params": {"state": "free", "t": 0.5}},
    "oracle-coherent-gaussian": {"scenario": "oracle", "grid": _MID,
                                 "ordering": dict(_GAUSSIAN, sigma=0.3), "formats": ["bin"],
                                 "params": {"state": "coherent"}},
    "oracle-ho-gaussian": {"scenario": "oracle", "grid": _MID, "ordering": _GAUSSIAN,
                           "formats": ["bin"], "params": {"state": "ho", "m": 2, "n": 1}},
    "classical-limit-coherent-gaussian": {"scenario": "classical-limit", "grid": _MID,
                                          "ordering": _GAUSSIAN,
                                          "params": {"family": "coherent", "hbars": [0.2, 0.1]}},
    "classical-limit-free-gaussian": {"scenario": "classical-limit", "grid": _MID,
                                      "ordering": _GAUSSIAN,
                                      "params": {"family": "free", "hbars": [0.2, 0.1]}},
    "classical-limit-ho-gaussian": {"scenario": "classical-limit", "grid": _MID,
                                    "ordering": _GAUSSIAN,
                                    "params": {"family": "ho", "hbars": [0.2, 0.1]}},
    "evolve-rk4-gaussian": {"scenario": "evolve", "grid": _MID, "ordering": _GAUSSIAN,
                            "params": {"system": "oscillator", "method": "phase_space_rk4",
                                       "steps": 20, "dt": 0.01}},
    "evolve-split-step-gaussian": {"scenario": "evolve", "grid": _MID, "ordering": _GAUSSIAN,
                                   "params": {"system": "free", "steps": 20, "dt": 0.01}},
    # a .dat outside evolve
    "wigner-dat": {"scenario": "wigner", "grid": _MID, "formats": ["csv", "dat"],
                   "params": {"phi_hermite": 1, "psi_hermite": 2}},
}


def main():
    runs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "configs", "*.json"))):
        with open(path) as fh:
            runs.append((os.path.splitext(os.path.basename(path))[0], json.load(fh)))
    runs += sorted(BRANCHES.items())
    for workload in WORKLOADS:
        runs += [("%s.%d.%s" % (workload, i, kind), config)
                 for i, (kind, config) in enumerate(cycle(workload, 1, 0))]
    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, config) in enumerate(runs):
            code, manifest = run_config(dict(config, output_dir=os.path.join(tmp, str(n))))
            hashes = file_hashes(manifest) if code == 0 else {"exit": code}
            for path, digest in sorted(hashes.items()):
                print(name, path, digest)


if __name__ == "__main__":
    main()
