"""Experiment front end: flat-text configs, subcommands, run manifests.

Config files are plain text with one `key = value` per line; values are
parsed as JSON when possible and kept as bare strings otherwise.  Blank
lines and `#` comments are ignored.  `--set key=value` overrides any key
from the command line.  `KEYS` is the config schema: every key that some
command reads, with its kind; `read` checks each value as its kind, a null
value counts as unset, and any key not in `KEYS` exits 2 naming it.

All randomness derives from the one manifest seed through named streams:
stream k of seed S is SeedSequence(entropy=S, spawn_key=(k, index)) with
k = 0 for potential sampling, 1 for initial data, 2 for Monte Carlo.  Runs
with identical resolved config at a fixed BLAS thread count are
bit-reproducible; every subcommand records the resolved config and its
sha256 in manifest.json next to its artifacts, keyed by subcommand so
reports can sit in the same directory.

Exit codes: 0 success, 1 compute failure (partial artifacts are flagged in
the manifest), 2 validation failure with a message naming the field.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from collections import Counter
from typing import List, Optional

import numpy as np

from . import __version__
from .birkhoff import (AUTO, BLOCK, DEGREE_BY_DEGREE, NormalFormParams,
                       NormalFormResult, normalize)
from .dynamics import (MODELS, PARAMETERS, ModelSystem, drift_experiment,
                       build_model_hamiltonian, initial_state, integrate,
                       write_drift_csv, write_frames_csv)
from .modes import mode_abs
from .poly import term_texts, to_text
from .resonance import (DEFAULT_NODE_CAP, DivisorQuery,
                        enumerate_near_resonances, family_rules,
                        measure_scan, write_hits_csv, write_measure_csv)
from .spectra import (CONVOLUTION_D, FAMILIES, NLW_PERIODIC, MassError,
                      sample_potential)

STREAMS = {"potential": 0, "initial": 1, "monte_carlo": 2}
PROFILES = ("sobolev", "flat")
INCOMPLETE = "warning: node budget hit, enumeration incomplete"


class ConfigError(ValueError):
    """Validation failure; message names the offending field."""


# -- config ---------------------------------------------------------------


def parse_value(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: Optional[str]) -> dict:
    cfg: dict = {}
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError("config: no such file %r" % path)
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError("config: line %d is not key = value" % ln)
            key, _, val = line.partition("=")
            cfg[key.strip()] = parse_value(val)
    return cfg


def apply_overrides(cfg: dict, sets: List[str]) -> None:
    for item in sets:
        if "=" not in item:
            raise ConfigError("--set: expected key=value, got %r" % item)
        key, _, val = item.partition("=")
        cfg[key.strip()] = parse_value(val)


_REQUIRED = object()
NUMBER, POSITIVE, INTEGER = "a number", "a number > 0", "an integer"
SEED, COUNT, TEXT = "an integer >= 0", "an integer >= 1", "a string"
POSITIVES, OBJECT = "a non-empty list of numbers > 0", "a JSON object"

# The config schema: every key that some command reads, with its one kind.
# Narrowed in three places: jmax (a lattice radius, as in the resonance
# commands) is a count on models whose builder has no `d`, measure-estimate
# samples only FAMILIES, and _coeffs reads potential.coeffs values as NUMBER.
KEYS = {
    "model": MODELS, "d": COUNT, "jmax": NUMBER, "kappa": NUMBER,
    "mass": NUMBER, "basis_size": COUNT, "quad_n": COUNT,  # see README
    "potential.family": ("none", "explicit") + FAMILIES,
    "potential.params": OBJECT,  # sampling parameters of a random family
    "potential.coeffs": OBJECT,  # {"3": v} (1-d) or {"1,0": v} (lattice)
    "potential.seed": SEED,      # default: the potential stream
    "r_star": INTEGER, "gamma": NUMBER, "alpha": NUMBER, "s": NUMBER,
    "mode": (DEGREE_BY_DEGREE, BLOCK), "N": INTEGER,  # or N = "auto"
    "eps": POSITIVE, "T": NUMBER, "s1": NUMBER,  # s1: torus weight, default s
    "integrator.dt": NUMBER, "integrator.tol": POSITIVE,
    "integrator.stride": COUNT, "experiment.profile": PROFILES,
    "experiment.eps_list": POSITIVES, "experiment.seeds": COUNT,
    "experiment.c": NUMBER, "experiment.r": INTEGER, "seed": SEED,
    "resonance.gammas": POSITIVES, "resonance.samples": INTEGER, "out": TEXT,
    "r": INTEGER, "node_cap": INTEGER,  # node_cap: search budget in nodes
}
DEFAULT_S = 4.0  # the Sobolev index of the normal form and the initial data


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read(cfg: dict, key: str, default=_REQUIRED):
    """cfg[key] checked as its kind in KEYS, the one reader of config values;
    a missing or null key gives `default`, and without one is an error."""
    v = cfg.get(key)
    if v is None:
        if default is _REQUIRED:
            raise ConfigError("%s: required" % key)
        return default
    return _check(key, v, KEYS[key])


def _check(key: str, v, kind):
    """A non-null value checked as `kind`; every failure names the key.

    A kind is NUMBER or POSITIVE (a float), INTEGER (2.0 reads as 2), SEED
    or COUNT (an INTEGER >= 0 or >= 1), POSITIVES (a list of floats > 0),
    OBJECT (a dict), TEXT (a string) or a tuple of allowed values.
    """
    if isinstance(kind, tuple):
        if v not in kind:
            raise ConfigError("%s: expected one of %s, got %r"
                              % (key, ", ".join(kind), v))
        return v
    whole = kind in (INTEGER, SEED, COUNT)
    if whole and isinstance(v, float) and v.is_integer():
        v = int(v)
    integer = isinstance(v, int) and not isinstance(v, bool)
    ok = {NUMBER: _is_number(v),
          POSITIVE: _is_number(v) and v > 0,
          INTEGER: integer,
          SEED: integer and v >= 0,
          COUNT: integer and v >= 1,
          POSITIVES: isinstance(v, list) and v and all(
              _is_number(e) and e > 0 for e in v),
          OBJECT: isinstance(v, dict),
          TEXT: isinstance(v, str)}[kind]
    if not ok:
        raise ConfigError("%s: expected %s" % (key, kind))
    if kind in (NUMBER, POSITIVE):
        return float(v)
    return [float(e) for e in v] if kind == POSITIVES else v


def stream_seed(seed: int, stream: str, index: int = 0) -> int:
    """Derived seed for a named sub-stream of the manifest seed."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(STREAMS[stream], int(index)))
    return int(ss.generate_state(1)[0])


# -- model assembly -------------------------------------------------------


def _coeffs(raw: dict, d: Optional[int]) -> dict:
    """Explicit coefficients: {"3": v} on the 1-d models (d None), {"1,0": v}
    on a lattice model's d-lattice.  A key of another dimension is an error."""
    coeffs = {}
    for key, v in raw.items():
        try:
            k = tuple(int(p) for p in key.split(","))
        except ValueError:
            k = ()
        if len(k) != (d or 1):
            raise ConfigError("potential.coeffs: key %r is not a %d-d lattice "
                              "point" % (key, d or 1))
        if not d and k[0] < 0:
            raise ConfigError("potential.coeffs: cosine wavenumber %r must be "
                              ">= 0" % key)
        coeffs[k if d else k[0]] = _check("potential.coeffs", v, NUMBER)
    return coeffs


def resolve_potential(cfg: dict, seed: int, index: int = 0):
    """None, an explicit coefficient dict, or a sampled PotentialSample."""
    family = read(cfg, "potential.family", "none")
    if family == "none":
        return None
    dim = PARAMETERS[read(cfg, "model")].get("d")  # lattice models take d
    lattice = dim is not None
    d = read(cfg, "d", dim.default) if lattice else None
    if family == "explicit":
        return _coeffs(read(cfg, "potential.coeffs", {}), d)
    if (family == CONVOLUTION_D) != lattice:
        raise ConfigError("potential.family: %s does not fit model %s, whose "
                          "potential is %s" % (family, cfg.get("model"),
                                               "d-dim" if lattice else "1-d"))
    params = read(cfg, "potential.params")
    if lattice and params.get("d") != d:
        raise ConfigError("potential.params: d = %r does not match the d = %d "
                          "of model %s" % (params.get("d"), d, cfg["model"]))
    pseed = read(cfg, "potential.seed", None)
    if pseed is None or index:  # field `index` > 0 draws apart from field 0
        pseed = stream_seed(seed if pseed is None else pseed, "potential",
                            index)
    try:
        return sample_potential(family, dict(params), pseed)
    except ValueError as exc:
        raise ConfigError(str(exc))


# each model's keys: the config keys among its builder's parameters
_MODEL_KEYS = {model: tuple(name for name in params if name in KEYS)
               for model, params in PARAMETERS.items()}


def build_system(cfg: dict, seed: int) -> ModelSystem:
    model = read(cfg, "model")
    params, keys = PARAMETERS[model], _MODEL_KEYS[model]
    # model-only keys the builder does not take; nlw_periodic draws the mass
    for key in ("mass", "basis_size", "quad_n", "d"):
        if cfg.get(key) is not None and key not in keys:
            raise ConfigError("%s: not a key of model %s" % (key, model))
    if cfg.get("mass") is not None and \
            cfg.get("potential.family") == NLW_PERIODIC:
        raise ConfigError("mass: the nlw_periodic family draws it")
    kwargs = {key: read(cfg, key) for key in keys if cfg.get(key) is not None}
    if "d" not in params and "jmax" in kwargs:  # a count off the lattice
        kwargs["jmax"] = _check("jmax", kwargs["jmax"], COUNT)
    # one draw per potential parameter, each off its own index of the stream
    fields = [name for name in params if name.startswith("potential")]
    kwargs.update((name, resolve_potential(cfg, seed, index))
                  for index, name in enumerate(fields))
    try:
        return build_model_hamiltonian(model, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    except MassError as exc:
        if "mass" not in kwargs:  # a drawn or default mass: a compute failure
            raise
        raise ConfigError("mass: %s" % exc)


def resolved_params(cfg: dict) -> NormalFormParams:
    """Normal-form parameters, N = auto resolved at the largest amplitude."""
    given = dict(r_star=read(cfg, "r_star"),
                 gamma=read(cfg, "gamma"),
                 alpha=read(cfg, "alpha", 1.0),
                 N=AUTO if cfg.get("N") == AUTO else read(cfg, "N", AUTO),
                 s=read(cfg, "s", DEFAULT_S),
                 mode=read(cfg, "mode", DEGREE_BY_DEGREE))
    amp = read(cfg, "eps", None)
    eps_list = read(cfg, "experiment.eps_list", None)
    if amp is None and eps_list is not None:
        amp = max(eps_list)
    if given["N"] == AUTO and amp is None:
        raise ConfigError("eps: required to resolve N = auto")
    try:
        return NormalFormParams(**given).resolved(amp)
    except ValueError as exc:
        raise ConfigError(str(exc))


def run_normalize(cfg: dict, system: ModelSystem) -> NormalFormResult:
    params = resolved_params(cfg)
    return normalize(system.table, system.P, params)


# -- subcommands ----------------------------------------------------------


def cmd_normalize(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", 0)
    res = run_normalize(cfg, build_system(cfg, seed))
    pr = res.params
    doc = {
        "model": cfg["model"],
        "params": {"r_star": pr.r_star, "gamma": pr.gamma,
                   "alpha": pr.alpha, "N": pr.N, "s": pr.s,
                   "mode": pr.mode, "degree_cap": pr.degree_cap,
                   "threshold": pr.threshold},
        # keyed by the text form's xi and eta tokens: "xi tokens|eta tokens"
        "membership": dict(zip(map("|".join, zip(*term_texts(res.Z))),
                               res.membership)),
        "membership_ok": res.membership_ok(),
        "Z": to_text(res.Z),
        "generators": [to_text(g) for g in res.generators],
        "f_final_l1": res.f_final.l1(),
        "remainder_tail_l1": res.remainder_tail.l1(),
        "ledger": dict(vars(res.ledger), monotone=res.ledger.check()),
    }
    with open(os.path.join(outdir, "nf.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ["nf.json"]


def cmd_scan_resonances(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", 0)
    system = build_system(cfg, seed)
    params = resolved_params(cfg)
    r = read(cfg, "r", params.r_star)
    jmax = read(cfg, "jmax", None)
    if jmax is None:
        jmax = max(mode_abs(m) for m in system.table.modes())
    node_cap = read(cfg, "node_cap", DEFAULT_NODE_CAP)
    family = read(cfg, "potential.family", "none")
    pot_params = read(cfg, "potential.params", {})
    try:
        q = DivisorQuery(omega=system.table, r=r, N=params.N,
                         gamma=params.gamma, alpha=params.alpha, jmax=jmax,
                         node_cap=node_cap)
        # the measure scan's rules, so hits.csv and measure.csv tag alike
        rules = family_rules(family, pot_params, q, system.table, q.gamma)
    except ValueError as exc:
        raise ConfigError(str(exc))
    res = enumerate_near_resonances(q, rules)
    write_hits_csv(res, os.path.join(outdir, "hits.csv"))
    if not res.complete:
        print(INCOMPLETE, file=sys.stderr)
    print("scan-resonances: %d hits (complete=%s, nodes=%d)"
          % (len(res.divisor), res.complete, res.nodes))
    return ["hits.csv"]


def cmd_measure_estimate(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", 0)
    family = _check("potential.family", read(cfg, "potential.family"),
                    FAMILIES)
    params = read(cfg, "potential.params")
    # gamma is only the default of the list; the query takes the largest
    gammas = read(cfg, "resonance.gammas", [read(cfg, "gamma", None)])
    if None in gammas:
        raise ConfigError("gamma: required")
    samples = read(cfg, "resonance.samples", 100)
    r = read(cfg, "r", read(cfg, "r_star", 3))
    n = read(cfg, "N", 2)
    alpha = read(cfg, "alpha", 1.0)
    jmax = read(cfg, "jmax")
    node_cap = read(cfg, "node_cap", DEFAULT_NODE_CAP)
    try:
        q = DivisorQuery(omega=None, r=r, N=n, gamma=max(gammas), alpha=alpha,
                         jmax=jmax, node_cap=node_cap)
        estimates = measure_scan(family, dict(params), q, gammas, samples,
                                 stream_seed(seed, "monte_carlo"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    write_measure_csv(estimates, os.path.join(outdir, "measure.csv"))
    complete = all(e.complete for e in estimates)
    if not complete:
        print(INCOMPLETE, file=sys.stderr)
    e = estimates[0]
    print("measure-estimate: complete=%s, nodes=%d, rows=%d, listed=%d"
          % (complete, e.nodes, e.rows, e.listed))
    for e in estimates:
        print("measure-estimate: gamma=%g fraction=%.4f (%d/%d, skipped %d)"
              % (e.gamma, e.fraction, e.violations, e.samples - e.skipped,
                 e.skipped))
    return ["measure.csv"]


def _integration(cfg: dict) -> dict:
    """The settings both integrating commands read, with their one set of
    defaults, keyed by `drift_experiment`'s keywords."""
    return dict(s=read(cfg, "s", DEFAULT_S),
                dt=read(cfg, "integrator.dt", 0.01),
                tol=read(cfg, "integrator.tol", 1e-12),
                stride=read(cfg, "integrator.stride", 10),
                profile=read(cfg, "experiment.profile", "sobolev"))


def _horizon(key: str, v: float, dt: float) -> float:
    """T, or the drift horizon's factor experiment.c, checked against the
    step dt: dt is nonzero and v has its sign (T < 0, dt < 0 runs back)."""
    if dt == 0:
        raise ConfigError("integrator.dt: must be nonzero")
    if v * dt <= 0:
        raise ConfigError("%s: must be nonzero, of the sign of "
                          "integrator.dt" % key)
    return v


def cmd_simulate(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", 0)
    system = build_system(cfg, seed)
    eps = read(cfg, "eps")
    run = _integration(cfg)
    horizon = _horizon("T", read(cfg, "T"), run["dt"])
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(STREAMS["initial"], 0)))
    z0 = initial_state(system.modes(), eps, run["s"], rng, run["profile"])
    traj = integrate(system, z0, horizon, run["dt"], tol=run["tol"],
                     stride=run["stride"])
    write_frames_csv(system, traj, os.path.join(outdir, "frames.csv"),
                     eps=eps, seed=seed)
    de = max(abs(e - traj.energies[0]) for e in traj.energies)
    print("simulate: %d frames, max |dH| = %.3e, deepest halving: %d, "
          "halved steps: %d, field evaluations per step: %.2f"
          % (len(traj.times), de, traj.halvings, traj.halved_steps,
             traj.evals / traj.steps))
    return ["frames.csv"]


def cmd_drift_experiment(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", 0)
    system = build_system(cfg, seed)
    eps_list = read(cfg, "experiment.eps_list")
    nseeds = read(cfg, "experiment.seeds", 2)
    r = read(cfg, "experiment.r", read(cfg, "r_star", 2))
    run = _integration(cfg)
    s1 = read(cfg, "s1", run["s"])
    c = _horizon("experiment.c", read(cfg, "experiment.c", 1.0),
                 run["dt"])
    nf = None
    if None not in (read(cfg, "gamma", None), read(cfg, "r_star", None)):
        nf = run_normalize(cfg, system)
    seeds = [stream_seed(seed, "initial", k) for k in range(nseeds)]
    runs = drift_experiment(system, nf, eps_list, seeds, r, c=c, s1=s1,
                            **run)
    write_drift_csv(runs.rows, os.path.join(outdir, "drift.csv"))
    nesc = sum(1 for row in runs.rows if row.escaped)
    print("drift-experiment: %d rows over %d runs, %d escaped frames, "
          "deepest halving: %d, halved steps: %d, field evaluations per "
          "step: %.2f, processes: %d"
          % (len(runs.rows), len(eps_list) * len(seeds), nesc, runs.halvings,
             runs.halved_steps, runs.evals / runs.steps, runs.processes))
    return ["drift.csv"]


def _drift_summary(path: str) -> List[str]:
    finals = {}
    first_H = {}
    max_dH = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            key = (row["model"], float(row["eps"]), int(row["seed"]))
            h = float(row["H"])
            first_H.setdefault(key, h)
            max_dH[key] = max(max_dH.get(key, 0.0),
                              abs(h - first_H[key]))
            finals[key] = row
    lines = []
    models = sorted({k[0] for k in finals})
    for model in models:
        by_eps: dict = {}
        for (m, eps, sd), row in finals.items():
            if m == model:
                by_eps.setdefault(eps, []).append(row)
        eps_vals = sorted(by_eps, reverse=True)
        drifts = []
        lines.append("drift [%s]:" % model)
        for eps in eps_vals:
            rows = by_eps[eps]
            di = float(np.mean(
                [float(r["max_weighted_action_drift"]) for r in rows]))
            dj = float(np.mean(
                [float(r["max_weighted_J_drift"]) for r in rows]))
            td = float(np.mean([float(r["torus_dist"]) for r in rows]))
            esc = sum(int(r["escaped"]) for r in rows)
            drifts.append(di)
            lines.append(
                "  eps=%-8g sup w|dI|=%-12.4e sup w|dJ|=%-12.4e "
                "torus=%-12.4e escapes=%d" % (eps, di, dj, td, esc))
        if len(eps_vals) >= 2 and all(d > 0 for d in drifts):
            slope = float(np.polyfit(np.log(eps_vals), np.log(drifts), 1)[0])
            lines.append("  log-log slope of sup w|dI| vs eps: %.3f" % slope)
        res = max(max_dH[k] for k in max_dH if k[0] == model)
        lines.append("  max energy residual |H(t)-H(0)|: %.3e" % res)
    return lines


def _measure_summary(path: str) -> List[str]:
    lines = ["measure:"]
    with open(path) as fh:
        for row in csv.DictReader(fh):
            lines.append(
                "  gamma=%-10g fraction=%-8s violations=%s/%s complete=%s"
                "  [%s]"
                % (float(row["gamma"]), row["fraction"], row["violations"],
                   int(row["samples"]) - int(row["skipped"]),
                   row["complete"], row["patterns"] or "no hits"))
    return lines


def _hits_summary(path: str) -> List[str]:
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["resonance hits:", "  none"]
    patterns = Counter(row["pattern"] for row in rows)
    worst = min(abs(float(row["divisor"])) for row in rows)
    return (["resonance hits:"]
            + ["  %-12s %d" % (pat, patterns[pat]) for pat in sorted(patterns)]
            + ["  smallest |divisor|: %.6e" % worst])


def _nf_summary(path: str) -> List[str]:
    with open(path) as fh:
        doc = json.load(fh)
    p, led = doc["params"], doc["ledger"]
    nz = len([ln for ln in doc["Z"].splitlines() if ln.strip()])
    rounds = zip(*(led.get(k, []) for k in (
        "chi_terms", "Z_terms", "pairs", "pairs_over_cap")))
    return [
        "normal form [%s]:" % doc["model"],
        "  r_star=%d N=%d gamma=%g alpha=%g mode=%s"
        % (p["r_star"], p["N"], p["gamma"], p["alpha"], p["mode"]),
        "  membership_ok=%s  Z terms=%d  generators=%d"
        % (doc["membership_ok"], nz, len(doc["generators"])),
        "  f_final l1=%.6e  remainder tail l1=%.6e"
        % (doc["f_final_l1"], doc["remainder_tail_l1"]),
    ] + ["  round %d: chi terms=%d  Z terms=%d  bracket pairs=%d  "
         "over cap=%d" % ((r,) + row) for r, row in enumerate(rounds, 1)]


def cmd_report(cfg: dict, outdir: str) -> List[str]:
    sections = []
    for name, render in (("nf.json", _nf_summary),
                         ("hits.csv", _hits_summary),
                         ("measure.csv", _measure_summary),
                         ("drift.csv", _drift_summary)):
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            sections.extend(render(path))
    if not sections:
        sections = ["no artifacts found in %s" % outdir]
    text = "\n".join(sections) + "\n"
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return ["report.txt"]


COMMANDS = {
    "normalize": cmd_normalize,
    "scan-resonances": cmd_scan_resonances,
    "measure-estimate": cmd_measure_estimate,
    "simulate": cmd_simulate,
    "drift-experiment": cmd_drift_experiment,
    "report": cmd_report,
}


# -- manifest and entry point ----------------------------------------------


def write_manifest(outdir: str, command: str, cfg: dict,
                   artifacts: List[str], wall: float,
                   error: Optional[str] = None) -> None:
    path = os.path.join(outdir, "manifest.json")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        data = {}
    resolved = {k: cfg[k] for k in sorted(cfg)}
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"),
                      default=str)
    entry = {
        "config": resolved,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "version": __version__,
        "wall_time_s": wall,
        "artifacts": artifacts,
    }
    if error is not None:
        entry["status"] = "failed"
        entry["error"] = error
    data[command] = entry
    # a write that fails partway leaves the previous manifest in place
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bnfsim",
        description="Birkhoff normal forms and long-time drift experiments "
                    "for truncated Hamiltonian PDE models.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", nargs="?", default=None,
                        help="flat key = value config file")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config key 'out')")
    args = parser.parse_args(argv)
    outdir = "runs"
    cfg: dict = {}
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.sets)
        if args.out is not None:
            cfg["out"] = args.out
        unknown = sorted(set(cfg) - set(KEYS))
        if unknown:
            raise ConfigError("%s: unknown key" % ", ".join(unknown))
        outdir = read(cfg, "out", "runs")
        os.makedirs(outdir, exist_ok=True)
        t0 = time.monotonic()
        artifacts = COMMANDS[args.command](cfg, outdir)
        write_manifest(outdir, args.command, cfg, artifacts,
                       time.monotonic() - t0)
    except ConfigError as exc:
        print("bnfsim: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("bnfsim: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        try:
            write_manifest(outdir, args.command, cfg, [], 0.0,
                           error=str(exc))
        except OSError:
            pass
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
