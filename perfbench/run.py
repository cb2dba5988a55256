"""Scenario benchmark for psq.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Run from the root of a psq source tree.  Each workload runs in fresh child
interpreters pinned to one thread (PSQ_THREADS, OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS = 1) that import psq from ./src.  Every metric is printed by
name with its unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, with times scaled to a reference host speed (hostspeed.py) and the
plain wall times printed beside them; --trace 1 gives the per-layer metrics
of a separate traced run.
`--workload all` runs the four workloads in turn.

Scenario output goes to a scratch directory inside the tree, removed on exit.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

THREAD_ENV = {"PSQ_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# before numpy is imported, so that the host-speed probe here runs on one thread
os.environ.update(THREAD_ENV)

import hostspeed  # noqa: E402
import layers  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402
# set-up-only interpreters timed to READY before and after the main one, so
# that the setup_s median samples the machine at both ends of the run
SETUP_BEFORE, SETUP_AFTER = 2, 3
CHILD_TIMEOUT_S = 170

# (name, unit) of the end-to-end metrics; fail_frac is printed but is not a
# BENCHMARK.json metric, because it reads 0 on a correct program
END_TO_END = (("setup_s", "s"), ("scenarios_per_s", "1/s"),
              ("scenario_p50_s", "s"), ("peak_rss_mb", "MiB"))
# the same times before host-speed scaling, printed but not in BENCHMARK.json
WALL_TIMES = (("wall_setup_s", "s"), ("wall_scenarios_per_s", "1/s"),
              ("wall_scenario_p50_s", "s"))


class ChildError(RuntimeError):
    pass


def _child(argv, env):
    """Run a worker; returns (seconds to READY, parsed RESULT)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or result is None or ready is None:
        raise ChildError("worker %s exited with %d" % (" ".join(argv), proc.returncode))
    return ready, result


def _environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"threads": THREAD_ENV, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))}


def run_workload(workload, seed, seconds, traced, workdir):
    """Metrics of one workload: {"correct", "attempted", "failed", "metrics"}."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--src", SRC]
    attempted = failed = 0
    setups, wall_setups = [], []

    def child(extra):
        nonlocal attempted, failed
        ready, res = _child(base + ["--workdir", tempfile.mkdtemp(dir=workdir)] + extra, env)
        attempted += res["attempted"]
        failed += res["failed"]
        return ready, res

    def setup():
        before = hostspeed.probe()
        ready, _ = child(["--setup-only"])
        wall_setups.append(ready)
        setups.append(hostspeed.scale(ready, before, hostspeed.probe()))

    for _ in range(0 if traced else SETUP_BEFORE):
        setup()
    _, res = child(["--trace", str(int(traced))])
    for _ in range(0 if traced else SETUP_AFTER):
        setup()
    fail_frac = failed / attempted
    unscaled = {}
    if traced:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _better in layers.PER_LAYER}
        notes = ["%d traced cycles, each repeated untraced; values per cycle"
                 % res["cycles"]]
    else:
        values = dict(res, setup_s=statistics.median(setups),
                      wall_setup_s=statistics.median(wall_setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        unscaled = {name: {"value": values[name], "unit": unit} for name, unit in WALL_TIMES}
        notes = ["setup_s median of %d: %s" % (len(setups), ", ".join("%.4f" % s for s in setups)),
                 "scenario_p50_s median of %d slots, each the best of %d cycles"
                 % (res["slots"], res["cycles"]),
                 "times are scaled to the reference host speed; wall_* are not"]
    for name, entry in list(metrics.items()) + list(unscaled.items()):
        print("%-10s %-32s %.6g %s" % (workload, name, entry["value"], entry["unit"]))
    print("%-10s %-32s %.6g %s" % (workload, "fail_frac", fail_frac, "ratio"))
    print("%-10s %-32s %d %s" % (workload, "warnings", res["warnings"], "count"))
    for note in notes:
        print("%-10s # %s" % (workload, note))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "psq", "cli.py")):
        print("no psq source tree at %s" % SRC, file=sys.stderr)
        return 2
    print("# environment " + json.dumps(_environment(), sort_keys=True))
    # on SIGTERM, unwind so the running worker is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), workdir)
                   for w in chosen}
    except ChildError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        summary = results[chosen[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {"%s.%s" % (w, name): m for w, r in results.items()
                               for name, m in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
