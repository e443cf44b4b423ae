"""bnfsim benchmark: one CLI workload per run, untraced or traced.

Run from the root of a source checkout (no install needed; src/ is put on
the path):

    python3 perfbench/run.py --workload drift --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run calls `bnfsim.cli.main` in process on a config generated from the
seed (see workloads.py), repeatedly, until `--seconds` have passed; there is
always at least one command.  Every command's artifacts are
checked; a failed check fails its op and the run goes on.

--trace 0 prints the end-to-end metrics:
    solve_s      median over commands of the command's wall time minus the
                 time it spent in cli.build_system
    setup_s      median of several cli.build_system calls; measure-estimate
                 builds no system, so there it is the median time to import
                 bnfsim.cli in a fresh interpreter
    peak_rss_mb  peak resident memory of this process
    ok_frac      ops that passed every check / ops attempted
Both times are scaled to a reference host speed sampled while they run
(speed.py); each run also prints them unscaled.
--trace 1 spends half the time untraced and half traced, each half at least
HALF_MIN commands, and prints the per-layer metrics (tracing.py);
`trace.overhead_frac` compares the halves.
`--workload all` runs every workload, trace off then on, one child process
at a time, and prints every metric of every workload.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Artifacts, logs and spans go under perfbench/.out/.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 25
IMPORT_REPS = 11
HALF_MIN = 3
CMD_TICK = 0.05    # host-speed sampling interval during a command
SETUP_TICK = 0.01  # and during the much shorter set-up calls
IMPORT_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
import speed
with speed.Sampler(%r) as smp:
    t0 = time.perf_counter()
    import bnfsim.cli
    wall = time.perf_counter() - t0 - smp.spent
print(smp.scaled(wall), wall)
""" % SETUP_TICK

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from speed import Sampler  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, Failures, compare,  # noqa
                       write_config)


def cap_blas_threads():
    """Cap every BLAS thread count at the cores this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        want = min(int(cur), ncpu) if cur.isdigit() and int(cur) > 0 else ncpu
        os.environ[var] = str(want)
    return ncpu


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bnfsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def import_seconds():
    """Time to import bnfsim.cli in a fresh interpreter, scaled and wall:
    the medians over IMPORT_REPS interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    scaled, wall = [], []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        a, b = out.stdout.split()[-2:]
        scaled.append(float(a))
        wall.append(float(b))
    return statistics.median(scaled), statistics.median(wall)


class Run:
    def __init__(self, bn, wl, seed, tracer, workdir):
        self.bn, self.wl, self.tracer = bn, wl, tracer
        self.cfg = wl.config(seed)
        self.cfgpath = os.path.join(workdir, "run.cfg")
        self.outdir = os.path.join(workdir, "artifacts")
        self.logpath = os.path.join(workdir, "cli.log")
        write_config(self.cfg, self.cfgpath)
        with open(os.path.join(HERE, "reference.json")) as fh:
            refs = json.load(fh)
        self.ref = refs.get(wl.name) if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failures = {}   # "<command trace id>:<op>" -> reason

    def setup(self):
        """Set-up seconds, scaled and wall: the median cli.build_system
        call, or the median fresh-interpreter import where the command
        builds no system."""
        if not self.wl.builds:
            return import_seconds()
        builds = []
        with Sampler(SETUP_TICK) as smp:
            for _ in range(SETUP_REPS):
                t0, s0 = time.perf_counter(), smp.spent
                self.bn.cli.build_system(dict(self.cfg), self.cfg["seed"])
                builds.append(time.perf_counter() - t0 - (smp.spent - s0))
        wall = statistics.median(builds)
        return smp.scaled(wall), wall

    def command(self):
        """One CLI command: its root span, its spans, and its solve time
        scaled and wall."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        os.makedirs(self.outdir)
        argv = [self.wl.command, self.cfgpath, "--out", self.outdir]
        with open(self.logpath, "a") as log, redirect_stdout(log), \
                redirect_stderr(log), Sampler(CMD_TICK) as smp:
            root = self.tracer.open("cli.main")
            try:
                rc = self.bn.cli.main(argv)
            finally:
                self.tracer.close(root)
        spans = [s for s in self.tracer.spans if s.trace == root.id]
        build = sum(s.dur for s in spans if s.name == "cli.build_system")
        wall = root.dur - build - smp.spent
        self.check(rc, root, spans)
        return root, spans, smp.scaled(wall), wall

    def check(self, rc, root, spans):
        n_ops = self.wl.ops(self.cfg)
        self.attempted += n_ops
        fails = Failures()
        if rc != 0:
            fails.add("*", "exit code %d (see %s)" % (rc, self.logpath))
        else:
            try:
                self.wl.check(self.outdir, self.cfg, fails)
                for s in spans:
                    if s.name != "birkhoff.normalize":
                        continue
                    # every run of the command rests on its normal form
                    fails.check(s.info["membership_ok"], "*",
                                "normal form membership checks failed")
                    fails.check(s.info["monotone"], "*",
                                "normal-form ledger not monotone")
                if self.ref is not None:
                    compare(self.wl.summary(self.outdir), self.ref,
                            self.wl.rtol, fails)
                path = os.path.join(self.outdir, self.wl.artifact)
                root.info["artifact_bytes"] = os.path.getsize(path)
            except Exception as exc:  # a malformed artifact fails its ops
                fails.add("*", "check raised %s: %s"
                          % (type(exc).__name__, exc))
        why = fails.why
        if "*" in why:
            why = {"op%d" % i: why["*"] for i in range(n_ops)}
        for op, reason in list(why.items())[:n_ops]:
            self.failures["%d:%s" % (root.id, op)] = reason

    def repeat(self, budget, least=1):
        """Commands until `budget` seconds have passed; at least `least`."""
        out = []
        t0 = time.perf_counter()
        while len(out) < least or time.perf_counter() - t0 < budget:
            out.append(self.command())
        return out


def load_layers():
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)["metrics"]


def coverage(wl_name, values, per_command, layers, counts_key):
    """Layer metrics that read zero where work is expected, non-zero where
    none is, or exact counts that did not repeat."""
    misses = []
    for name, spec in layers.items():
        if spec.get("status") or name not in values:
            continue
        want = wl_name in spec["on"]
        if bool(values[name]) != want:
            misses.append("%s reads %r on %s, expected %s" % (
                name, values[name], wl_name, "non-zero" if want else "zero"))
    exact = {n: values[n] for n, s in layers.items()
             if s.get("exact") and n in values}
    for n in exact:
        seen = {m[n] for m in per_command if n in m}
        if len(seen) > 1:
            misses.append("%s differs between commands: %s"
                          % (n, sorted(seen)))
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path) as fh:
            prev = json.load(fh)
    except (OSError, json.JSONDecodeError):
        prev = {}
    for n, v in prev.get(counts_key, {}).items():
        if n in exact and exact[n] != v:
            misses.append("%s is %r, an earlier run of this source and seed "
                          "read %r" % (n, exact[n], v))
    prev[counts_key] = exact
    with open(path, "w") as fh:
        json.dump(prev, fh, indent=1, sort_keys=True)
    return misses


def main_one(args, declared):
    wl = WORKLOADS[args.workload]
    ncpu = cap_blas_threads()
    sys.path.insert(0, SRC)
    import numpy
    import bnfsim
    import bnfsim.cli
    if os.path.dirname(os.path.abspath(bnfsim.__file__)) != \
            os.path.join(SRC, "bnfsim"):
        sys.exit("bnfsim imported from %s, not from %s"
                 % (bnfsim.__file__, SRC))
    digest = source_digest()
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "nproc": ncpu, "blas_threads": {v: os.environ[v]
                                           for v in BLAS_VARS},
           "commit": git_commit(), "source_digest": digest}
    workdir = os.path.join(OUT, "%s-s%d-t%d" % (wl.name, args.seed,
                                                  args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = tracing.Tracer()
    run = Run(bnfsim, wl, args.seed, tracer, workdir)
    setup_s, setup_wall = run.setup()
    tracer.install(tracing.sites(full=False))
    try:
        if args.trace == 0:
            plain = run.repeat(args.seconds)
            traced = []
        else:
            plain = run.repeat(args.seconds / 2.0, HALF_MIN)
            tracer.restore()
            tracer.install(tracing.sites(full=True))
            traced = run.repeat(args.seconds / 2.0, HALF_MIN)
    finally:
        tracer.restore()
    solve = statistics.median(c[2] for c in plain)
    solve_wall = statistics.median(c[3] for c in plain)
    # status values from the coarse spans, reported on every run
    status = tracing.layer_metrics([s for c in plain + traced for s in c[1]])
    if args.trace == 0:
        metrics = {
            "solve_s": solve,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(run.failures) / run.attempted,
        }
    else:
        layers = load_layers()
        per_command = []
        for root, spans, _, _ in traced:
            m = tracing.layer_metrics(spans)
            m["cli.artifact_bytes"] = root.info.get("artifact_bytes", 0)
            per_command.append(m)
        metrics = {n: statistics.median(m[n] for m in per_command)
                   for n in per_command[0]}
        metrics["host.speed"] = statistics.median(
            c[2] / c[3] for c in plain + traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(c[2] for c in traced) / solve - 1.0)
        misses = tracer.misses + coverage(
            wl.name, metrics, per_command, layers,
            "%s/%d/%s" % (wl.name, args.seed, digest))
        metrics["trace.coverage_misses"] = len(misses)
        for m in misses:
            print("COVERAGE MISS: %s" % m)
    units = dict(declared[args.trace])
    if set(metrics) != set(units):
        sys.exit("metrics %s do not match BENCHMARK.json %s"
                 % (sorted(set(metrics) ^ set(units)), "per_layer"
                    if args.trace else "end_to_end"))
    tracer.dump(os.path.join(workdir, "spans.json"),
                {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                 "env": env, "metrics": metrics, "failures": run.failures})

    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d trace %d: %d commands, %d ops, %d failed"
          % (wl.name, args.seed, args.trace, len(plain) + len(traced),
             run.attempted, len(run.failures)))
    for op, reason in sorted(run.failures.items())[:20]:
        print("FAILED op %s: %s" % (op, reason))
    print("status dynamics.halvings %d (under-reported: dynamics._advance "
          "drops the first half step's depth)" % status["dynamics.halvings"])
    print("status peak RSS %.1f MB" % (resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    print("status unscaled: solve %.4f s, setup %.4f s (scaled %.4f s, "
          "%.4f s)" % (solve_wall, setup_wall, solve, setup_s))
    if not status["resonance.complete"]:
        print("FLAG resonance.complete=0: the candidate search stopped at "
              "node_cap, so the measure fractions rest on a partial set")
    for name in sorted(metrics):
        print("%-36s %.10g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()}}))
    return 0


def main_all(args):
    """Every workload, trace off then on, each in its own process."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print("workload %s trace %d exited %d"
                      % (name, trace, proc.returncode))
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for n, v in res["metrics"].items():
                merged["%s.%s" % (name, n)] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "bnfsim", "cli.py")):
        sys.exit("no bnfsim sources under %s: run from the repository root"
                 % SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    declared = {t: [(m["name"], m["unit"]) for m in bench[key]]
                for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return main_all(args)
    return main_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
