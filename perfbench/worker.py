"""One workload in one fresh interpreter; started by run.py, not by hand.

The worker imports psq, runs one untimed warm-up scenario and prints READY,
so the parent can time set-up from process start; the warm-up is checked
after READY.  Then, closed loop with
one client, it runs whole cycles of the workload's scenarios through
`psq.cli.run` (the entry point of `psq run`) for about --seconds, checks
every result against its closed form, and prints one RESULT line.

With --trace 1 it alternates an untraced cycle and a traced repeat of the
same cycle; the traced repeat must write byte-identical artifacts, and the
per-layer metrics are per traced cycle.
"""

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from time import perf_counter

import hostspeed
import layers
import scenarios


@dataclasses.dataclass
class Scenario:
    serial: int
    kind: str
    cfg: dict
    outdir: str
    elapsed: float
    hashes: dict = None     # artifact path -> sha256, None if the run failed


class Session:
    """Runs scenarios in a scratch directory and keeps the failure tally."""

    def __init__(self, workload, workdir):
        import psq.cli
        self.cli = psq.cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = set()
        self.context = {}
        self.warnings = 0

    def run(self, kind, cfg, tracer=None):
        """Run one scenario; returns a Scenario record."""
        self.attempted += 1
        outdir = os.path.join(self.workdir, "s%05d-%s" % (self.attempted, kind))
        path = outdir + ".json"
        with open(path, "w") as fh:
            json.dump(dict(cfg, output_dir=outdir), fh)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.install()
            start = perf_counter()
            try:
                code, manifest = self.cli.run(path)
            except Exception:  # a crash is one failed scenario, not a dead run
                code, manifest = None, None
                traceback.print_exc()
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.warnings += len(caught)
        done = Scenario(self.attempted, kind, cfg, outdir, elapsed)
        if code != 0:
            self.fail(done, "psq run exited with %r" % code)
            return done
        done.hashes = scenarios.file_hashes(manifest)
        if tracer is not None:
            tracer.add("guards.warnings", len(caught))
            tracer.add("cli.artifact_bytes", sum(
                os.path.getsize(os.path.join(outdir, p)) for p in done.hashes))
        return done

    def check(self, done):
        """Closed-form check of a scenario's artifacts, then delete them."""
        if done.hashes is not None:
            for message in scenarios.check(done.kind, done.cfg, done.outdir, self.context):
                self.fail(done, message)
        shutil.rmtree(done.outdir, ignore_errors=True)
        os.remove(done.outdir + ".json")

    def compare(self, first, again):
        """A repeat of a config must write byte-identical artifacts."""
        if first.hashes is not None and again.hashes is not None \
                and first.hashes != again.hashes:
            self.fail(again, "repeat wrote different artifacts: %s" % sorted(
                p for p in set(first.hashes) | set(again.hashes)
                if first.hashes.get(p) != again.hashes.get(p)))

    def fail(self, done, message):
        self.failed.add(done.serial)
        print("FAIL %s %s #%d: %s" % (self.workload, done.kind, done.serial, message),
              file=sys.stderr)


def _cycles(seconds):
    """Cycle indices for about `seconds`, rounded to whole cycles, at least one."""
    start = perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / index >= seconds:
            return


def _per_slot(times):
    """scenarios_per_s and scenario_p50_s of each slot's best time over cycles."""
    best = [min(slot) for slot in zip(*times)]
    return len(best) / sum(best), statistics.median(best)


def _timed(session, args, warm):
    """Whole cycles for --seconds; the first scenario repeats the warm-up.

    Each scenario's wall time is scaled to the reference host speed with the
    probes taken just before and just after it, and each slot's time is its
    best over the run's cycles.  The plain wall times are returned beside.
    """
    walls, scaled = [], []          # [cycle][slot]
    before = hostspeed.probe()
    for index in _cycles(args.seconds):
        walls.append([])
        scaled.append([])
        for kind, cfg in scenarios.cycle(args.workload, args.seed, index):
            done = session.run(kind, cfg)
            after = hostspeed.probe()
            walls[-1].append(done.elapsed)
            scaled[-1].append(hostspeed.scale(done.elapsed, before, after))
            before = after
            if index == 0 and len(walls[0]) == 1:
                session.compare(warm, done)
            session.check(done)
    per_s, p50 = _per_slot(scaled)
    wall_per_s, wall_p50 = _per_slot(walls)
    return {
        "slots": len(walls[0]),
        "cycles": len(walls),
        "scenarios_per_s": per_s,
        "scenario_p50_s": p50,
        "wall_scenarios_per_s": wall_per_s,
        "wall_scenario_p50_s": wall_p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(session, args):
    """An untraced cycle, then its traced repeat, for --seconds."""
    tracer = layers.Tracer()
    plain_s = traced_s = 0.0
    for index in _cycles(args.seconds):
        for kind, cfg in scenarios.cycle(args.workload, args.seed, index):
            plain = session.run(kind, cfg)
            session.check(plain)
            again = session.run(kind, cfg, tracer)
            session.compare(plain, again)
            session.check(again)
            plain_s += plain.elapsed
            traced_s += again.elapsed
    layers.check_predictions(args.workload, tracer)
    return {"cycles": index + 1,
            "layers": layers.layer_metrics(tracer, index + 1, traced_s, plain_s)}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import psq
    if not os.path.abspath(psq.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit("psq imported from %s, not from %s" % (psq.__file__, args.src))
    session = Session(args.workload, args.workdir)
    warm = session.run(*scenarios.cycle(args.workload, args.seed, 0)[0])
    print("READY", flush=True)
    session.check(warm)
    if args.setup_only:
        result = {}
    elif args.trace:
        result = _traced(session, args)
    else:
        result = _timed(session, args, warm)
    result.update(attempted=session.attempted, failed=len(session.failed),
                  warnings=session.warnings)
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    try:
        main()
    except layers.TraceError as exc:
        print("trace error: %s" % exc, file=sys.stderr)
        sys.exit(3)
