"""Print `name path sha256` for every artifact of the bundled demo configs and
of cycle 0 (seed 1) of each perfbench workload, run through psq.cli.run_config.

    python3 tools/manifest_hashes.py > hashes.txt

Run it on two source trees and diff the outputs to see which artifacts moved.
Threads are pinned to one (PSQ_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS),
as in perfbench/run.py, because some spectra hash differently under threaded BLAS.
"""

import glob
import json
import os
import sys
import tempfile

# before numpy is imported, so that BLAS starts with one thread
os.environ.update({"PSQ_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from psq.cli import run_config  # noqa: E402
from scenarios import WORKLOADS, cycle, file_hashes  # noqa: E402


def main():
    runs = []
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "configs", "*.json"))):
        with open(path) as fh:
            runs.append((os.path.splitext(os.path.basename(path))[0], json.load(fh)))
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
