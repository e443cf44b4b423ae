"""The benchmark workloads: configs from a seed, op accounting, checks.

Each workload is one `bnfsim` command on a config generated here from the
workload seed.  Seed 0 reproduces the pinned configs the baseline numbers
were taken on (potential.seed 3 is the criterion-8 system); another seed
shifts the potential and every derived random stream, at the same size.

An op is the unit a check can fail: one (eps, seed) run of a drift
experiment, one gamma estimate of the measure scan.  Every seed gets the
invariant checks; seed 0's `Workload.summary` is also compared with
reference.json by `compare`.
"""
import csv
import json
import math
import os
from collections import defaultdict

DEFAULT_SEED = 0

# The drift values of a trajectory may move in their last bits when a kernel
# changes its summation order; counts and fractions may not move at all.
DRIFT_RTOL = 1e-6
# implicit midpoint at tol 1e-12 keeps |H(t) - H(0)| near 1e-11 |H(0)| here
ENERGY_RTOL = 1e-8
# tags of combinations a theorem covers; NONE marks a violation
COVERED_PATTERNS = {"SHELL", "PAIR_TAIL"}


def _system(seed, jmax):
    return {
        "model": "nls1d_dirichlet", "jmax": jmax, "kappa": 0.25,
        "potential.family": "nls_cosine",
        "potential.params": {"R": 0.5, "sigma": 0.4, "kmax": 9},
        "potential.seed": 3 + seed,
        "seed": seed,
    }


class Failures:
    """Failed op labels, with the first reason seen for each."""

    def __init__(self):
        self.why = {}

    def add(self, op, reason):
        self.why.setdefault(op, reason)

    def check(self, ok, op, reason):
        if not ok:
            self.add(op, reason)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _same(have, want, rtol):
    if isinstance(want, list):
        return (isinstance(have, list) and len(have) == len(want)
                and all(_same(a, b, rtol) for a, b in zip(have, want)))
    if isinstance(want, float):
        return isinstance(have, (int, float)) and _close(have, want, rtol)
    return have == want


def compare(got, ref, rtol, fails):
    """A summary {op: {key: value}} against the reference one: counts and
    strings exactly, floats within rtol."""
    for op, want in ref.items():
        have = got.get(op)
        if have is None:
            fails.add(op, "missing against the reference")
            continue
        for key, val in want.items():
            fails.check(_same(have.get(key), val, rtol), op,
                        "%s %r, reference %r" % (key, have.get(key), val))


# -- drift-experiment workloads --------------------------------------------


def _drift_groups(outdir):
    groups = defaultdict(list)
    with open(os.path.join(outdir, "drift.csv")) as fh:
        for row in csv.DictReader(fh):
            groups[(float(row["eps"]), int(row["seed"]))].append(row)
    return groups


def _drift_summary(outdir):
    out = {}
    for (eps, sd), rows in sorted(_drift_groups(outdir).items()):
        last = rows[-1]
        out["%g/%d" % (eps, sd)] = {
            "frames": len(rows),
            **{k: float(last[k]) for k in (
                "t", "H", "norm_s", "max_weighted_action_drift",
                "max_weighted_J_drift", "torus_dist")}}
    return out


def _drift_ops(cfg):
    return len(cfg["experiment.eps_list"]) * cfg["experiment.seeds"]


def _drift_check(outdir, cfg, fails):
    groups = _drift_groups(outdir)
    n_ops = _drift_ops(cfg)
    if len(groups) != n_ops:
        fails.add("*", "%d (eps, seed) runs in drift.csv, want %d"
                  % (len(groups), n_ops))
    for (eps, sd), rows in groups.items():
        op = "%g/%d" % (eps, sd)
        h0 = float(rows[0]["H"])
        res = max(abs(float(r["H"]) - h0) for r in rows)
        fails.check(res <= ENERGY_RTOL * abs(h0), op,
                    "energy residual %.3e of |H0| %.3e" % (res, abs(h0)))
        fails.check(not any(int(r["escaped"]) for r in rows), op, "escaped")
        fails.check(all(math.isfinite(float(r["torus_dist"])) for r in rows),
                    op, "torus distance not finite")


# -- measure-estimate ---------------------------------------------------------


def _measure_rows(outdir):
    with open(os.path.join(outdir, "measure.csv")) as fh:
        return list(csv.DictReader(fh))


def _measure_summary(outdir):
    return {"%g" % float(r["gamma"]): {
        "samples": int(r["samples"]), "skipped": int(r["skipped"]),
        "violations": int(r["violations"])} for r in _measure_rows(outdir)}


def _measure_check(outdir, cfg, fails):
    rows = sorted(_measure_rows(outdir), key=lambda r: -float(r["gamma"]))
    want = sorted(cfg["resonance.gammas"], reverse=True)
    if [float(r["gamma"]) for r in rows] != want:
        fails.add("*", "gammas %s, want %s"
                  % ([r["gamma"] for r in rows], want))
    prev = None
    for r in rows:
        op = "%g" % float(r["gamma"])
        frac = float(r["fraction"])
        # shared samples across the grid: a smaller gamma can only lose hits
        if prev is not None:
            fails.check(frac <= prev, op, "fraction %g above %g at the "
                        "larger gamma" % (frac, prev))
        prev = frac
        pats = dict(p.split(":") for p in r["patterns"].split(";") if p)
        none, viol = int(pats.pop("NONE", 0)), int(r["violations"])
        # a violating sample holds at least one uncovered combination
        fails.check(none >= viol and (none == 0) == (viol == 0), op,
                    "%d NONE combinations for %d violations" % (none, viol))
        fails.check(set(pats) <= COVERED_PATTERNS, op, "residual patterns %s"
                    % sorted(set(pats) - COVERED_PATTERNS))


def _measure_ops(cfg):
    return len(cfg["resonance.gammas"])


# -- the table ------------------------------------------------------------------
# Why each workload exists is recorded in BENCHMARK.json.


class Workload:
    def __init__(self, name, command, config, ops, check, summary, rtol,
                 artifact, builds=True):
        self.name, self.command = name, command
        self.config, self.ops = config, ops
        self.check, self.summary, self.rtol = check, summary, rtol
        self.artifact = artifact
        self.builds = builds   # whether the command calls cli.build_system


def _drift_cfg(seed):
    # s=4, not the README's s=10: at s=10 the nonlinear increment stays under
    # the 1e-12 tolerance and every midpoint step converges in one eval.
    # c=0.125 keeps one command near 3 s, so a run holds several.
    return dict(_system(seed, 9), **{
        "s": 4.0, "integrator.dt": 0.0045, "integrator.stride": 50,
        "experiment.eps_list": [0.2, 0.1], "experiment.seeds": 2,
        "experiment.c": 0.125})


def _measure_cfg(seed):
    # the default node_cap stays: the search stops short, and runs say so
    return {"potential.family": "convolution_d",
            "potential.params": {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0},
            "r": 3, "N": 2, "jmax": 4, "alpha": 1.0, "gamma": 1e-4,
            "resonance.gammas": [1e-4, 1e-5, 1e-6, 1e-7],
            "resonance.samples": 100, "seed": seed}


def _transport_cfg(seed):
    return dict(_system(seed, 6), **{
        "s": 4.0, "r_star": 2, "gamma": 0.002, "N": 6,
        "integrator.stride": 50, "experiment.eps_list": [0.1],
        "experiment.seeds": 2, "experiment.c": 0.2})


WORKLOADS = {w.name: w for w in (
    Workload("drift", "drift-experiment", _drift_cfg, _drift_ops,
             _drift_check, _drift_summary, DRIFT_RTOL, "drift.csv"),
    Workload("measure", "measure-estimate", _measure_cfg, _measure_ops,
             _measure_check, _measure_summary, 0.0, "measure.csv",
             builds=False),
    Workload("transport", "drift-experiment", _transport_cfg, _drift_ops,
             _drift_check, _drift_summary, DRIFT_RTOL, "drift.csv"),
)}


def write_config(cfg, path):
    with open(path, "w") as fh:
        for key in sorted(cfg):
            fh.write("%s = %s\n" % (key, json.dumps(cfg[key])))
