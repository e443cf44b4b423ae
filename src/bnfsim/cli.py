"""Experiment front end: flat-text configs, subcommands, run manifests.

Config files are plain text with one `key = value` per line; values are
parsed as JSON when possible and kept as bare strings otherwise.  Blank
lines and `#` comments are ignored.  `--set key=value` overrides any key
from the command line.  The flat key schema:

    model                  one of the names in dynamics.MODELS
    d, jmax, kappa, mass   model-builder knobs (only the ones the model takes;
                           jmax is an integer, for nls_dd a radius)
    basis_size, quad_n     spectral resolution overrides
    r_star, gamma, alpha   normal-form parameters; N = "auto" or an int
    N, s, mode             (mode: degree_by_degree | block)
    eps, T                 single-run amplitude and horizon (simulate)
    s1                     torus-distance weight, default s (drift-experiment)
    potential.family       none | explicit | nlw_periodic | nls_cosine |
                           convolution_d
    potential.params       sampling parameters for the random families
    potential.coeffs       explicit cosine/lattice coefficients, keys like
                           "3" (1-d) or "1,0" (lattice)
    potential.seed         fixed sampling seed (default: potential stream)
    integrator.dt/.tol/.stride
    experiment.eps_list/.seeds/.c/.r/.profile   (profile: sobolev | flat)
    resonance.gammas/.samples, r, node_cap
    seed                   single manifest seed, default 0
    out                    output directory, default "runs"

All randomness derives from the one manifest seed through named streams:
stream k of seed S is SeedSequence(entropy=S, spawn_key=(k, index)) with
k = 0 for potential sampling, 1 for initial data, 2 for Monte Carlo.  Runs
with identical resolved config are bit-reproducible; every subcommand
records the resolved config and its sha256 in manifest.json next to its
artifacts, keyed by subcommand so reports can sit in the same directory.

Every value is read by `read` as one kind: a number, an integer (2.0 reads
as 2), a seed (an integer >= 0), a count (an integer >= 1: the experiment
seeds, the frame stride and the model sizes), a non-empty list of numbers
(the eps and gamma grids), a JSON object (potential.params,
potential.coeffs) or one of a tuple of allowed values; a null value counts
as unset.  Exit codes: 0 success, 1 compute failure (partial artifacts are
flagged in the manifest), 2 validation failure with a message naming the
field.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .birkhoff import (AUTO, DEGREE_BY_DEGREE, NormalFormParams,
                       NormalFormResult, normalize)
from .dynamics import (MODELS, ModelSystem, build_model_hamiltonian,
                       drift_experiment, initial_state, integrate,
                       write_drift_csv, write_frames_csv)
from .modes import mode_abs
from .poly import to_text
from .resonance import (DEFAULT_NODE_CAP, DivisorQuery,
                        enumerate_near_resonances, measure_scan,
                        write_hits_csv, write_measure_csv)
from .spectra import FAMILIES, PotentialSample, sample_potential

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
NUMBER, INTEGER = "a number", "an integer"
SEED, COUNT = "an integer >= 0", "an integer >= 1"
NUMBERS, OBJECT = "a non-empty list of numbers", "a JSON object"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read(cfg: dict, key: str, kind, default=_REQUIRED):
    """cfg[key] checked as `kind`, the one reader of config values.

    A kind is NUMBER (read as a float), INTEGER (2.0 reads as 2), SEED or
    COUNT (an INTEGER >= 0 or >= 1), NUMBERS (a list of floats), OBJECT (a
    dict) or a tuple of allowed values.  A missing or null key gives
    `default` as it is; without one it is an error.  Every failure is a
    ConfigError that names the key.
    """
    v = cfg.get(key)
    if v is None:
        if default is _REQUIRED:
            raise ConfigError("%s: required" % key)
        return default
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
          INTEGER: integer,
          SEED: integer and v >= 0,
          COUNT: integer and v >= 1,
          NUMBERS: isinstance(v, list) and v and all(map(_is_number, v)),
          OBJECT: isinstance(v, dict)}[kind]
    if not ok:
        raise ConfigError("%s: expected %s" % (key, kind))
    if kind == NUMBER:
        return float(v)
    return [float(e) for e in v] if kind == NUMBERS else v


def stream_seed(seed: int, stream: str, index: int = 0) -> int:
    """Derived seed for a named sub-stream of the manifest seed."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(STREAMS[stream], int(index)))
    return int(ss.generate_state(1)[0])


# -- model assembly -------------------------------------------------------


def _coeffs(raw: dict) -> dict:
    """Explicit coefficients {"3": v} (1-d) or {"1,0": v} (lattice)."""
    try:
        return {(tuple(int(p) for p in k.split(",")) if "," in k else int(k)):
                read(raw, k, NUMBER) for k in raw}
    except ValueError as exc:
        raise ConfigError("potential.coeffs: %s" % exc)


def resolve_potential(cfg: dict, seed: int, index: int = 0):
    """None, an explicit coefficient dict, or a sampled PotentialSample."""
    family = read(cfg, "potential.family", ("none", "explicit") + FAMILIES,
                  "none")
    if family == "none":
        return None
    if family == "explicit":
        coeffs = _coeffs(read(cfg, "potential.coeffs", OBJECT, {}))
        if cfg.get("model") == "nls_dd":
            return PotentialSample("convolution_d", {}, 0, coeffs, 0.0)
        return coeffs
    params = read(cfg, "potential.params", OBJECT)
    pseed = read(cfg, "potential.seed", SEED,
                 stream_seed(seed, "potential", index))
    try:
        return sample_potential(family, dict(params), pseed)
    except ValueError as exc:
        raise ConfigError(str(exc))


_ONE_D = {"jmax": COUNT, "kappa": NUMBER, "basis_size": COUNT,
          "quad_n": COUNT}
_MODEL_KEYS = {
    "demo_2mode": {"kappa": NUMBER},
    "nls1d_dirichlet": _ONE_D,
    "nlw_dirichlet": dict(_ONE_D, mass=NUMBER),
    "nlw_periodic": dict(_ONE_D, mass=NUMBER),
    "nls_coupled": _ONE_D,
    "nls_dd": {"d": COUNT, "jmax": NUMBER, "kappa": NUMBER},
}


def build_system(cfg: dict, seed: int) -> ModelSystem:
    model = read(cfg, "model", MODELS)
    kwargs = {key: read(cfg, key, kind)
              for key, kind in _MODEL_KEYS[model].items()
              if cfg.get(key) is not None}
    if model == "nls_coupled":
        # two fields: independent draws off the potential stream
        kwargs["potential1"] = resolve_potential(cfg, seed, 0)
        kwargs["potential2"] = resolve_potential(cfg, seed, 1)
    elif model != "demo_2mode":
        pot = resolve_potential(cfg, seed, 0)
        if pot is not None:
            kwargs["potential"] = pot
    return build_model_hamiltonian(model, **kwargs)


def resolved_params(cfg: dict) -> NormalFormParams:
    """Normal-form parameters, N = auto resolved at the largest amplitude."""
    given = dict(r_star=read(cfg, "r_star", INTEGER),
                 gamma=read(cfg, "gamma", NUMBER),
                 alpha=read(cfg, "alpha", NUMBER, 1.0),
                 N=AUTO if cfg.get("N") == AUTO
                 else read(cfg, "N", INTEGER, AUTO),
                 s=read(cfg, "s", NUMBER, 4.0),
                 mode=cfg.get("mode", DEGREE_BY_DEGREE))
    amp = read(cfg, "eps", NUMBER, None)
    eps_list = read(cfg, "experiment.eps_list", NUMBERS, None)
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
    seed = read(cfg, "seed", SEED, 0)
    res = run_normalize(cfg, build_system(cfg, seed))
    pr = res.params
    doc = {
        "model": cfg["model"],
        "params": {"r_star": pr.r_star, "gamma": pr.gamma,
                   "alpha": pr.alpha, "N": pr.N, "s": pr.s,
                   "mode": pr.mode, "degree_cap": pr.degree_cap,
                   "threshold": pr.threshold},
        "membership": res.membership,
        "membership_ok": res.membership_ok(),
        "Z": to_text(res.Z),
        "generators": [to_text(g) for g in res.generators],
        "f_final_l1": res.f_final.l1(),
        "remainder_tail_l1": res.remainder_tail.l1(),
        "ledger": {"tail_cubic_mass": res.ledger.tail_cubic_mass,
                   "overflow_mass": res.ledger.overflow_mass,
                   "chi_majorants": res.ledger.chi_majorants,
                   "monotone": res.ledger.check()},
    }
    with open(os.path.join(outdir, "nf.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ["nf.json"]


def cmd_scan_resonances(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", SEED, 0)
    system = build_system(cfg, seed)
    params = resolved_params(cfg)
    r = read(cfg, "r", INTEGER, params.r_star)
    jmax = read(cfg, "jmax", NUMBER, None)
    if jmax is None:
        jmax = max(mode_abs(m) for m in system.table.modes())
    node_cap = read(cfg, "node_cap", INTEGER, DEFAULT_NODE_CAP)
    try:
        q = DivisorQuery(omega=system.table, r=r, N=params.N,
                         gamma=params.gamma, alpha=params.alpha, jmax=jmax,
                         node_cap=node_cap)
    except ValueError as exc:
        raise ConfigError(str(exc))
    res = enumerate_near_resonances(q)
    write_hits_csv(res, os.path.join(outdir, "hits.csv"))
    if not res.complete:
        print(INCOMPLETE, file=sys.stderr)
    print("scan-resonances: %d hits (complete=%s, nodes=%d)"
          % (len(res.hits), res.complete, res.nodes))
    return ["hits.csv"]


def cmd_measure_estimate(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", SEED, 0)
    family = read(cfg, "potential.family", FAMILIES)
    params = read(cfg, "potential.params", OBJECT)
    gamma = read(cfg, "gamma", NUMBER)
    gammas = read(cfg, "resonance.gammas", NUMBERS, [gamma])
    samples = read(cfg, "resonance.samples", INTEGER, 100)
    r = read(cfg, "r", INTEGER, read(cfg, "r_star", INTEGER, 3))
    n = read(cfg, "N", INTEGER, 2)
    alpha = read(cfg, "alpha", NUMBER, 1.0)
    jmax = read(cfg, "jmax", NUMBER)
    node_cap = read(cfg, "node_cap", INTEGER, DEFAULT_NODE_CAP)
    try:
        q = DivisorQuery(omega=None, r=r, N=n, gamma=gamma, alpha=alpha,
                         jmax=jmax, node_cap=node_cap)
        estimates = measure_scan(family, dict(params), q, gammas, samples,
                                 stream_seed(seed, "monte_carlo"))
    except ValueError as exc:
        raise ConfigError(str(exc))
    write_measure_csv(estimates, os.path.join(outdir, "measure.csv"))
    if not all(e.complete for e in estimates):
        print(INCOMPLETE, file=sys.stderr)
    for e in estimates:
        print("measure-estimate: gamma=%g fraction=%.4f (%d/%d, skipped %d)"
              % (e.gamma, e.fraction, e.violations, e.samples - e.skipped,
                 e.skipped))
    return ["measure.csv"]


def cmd_simulate(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", SEED, 0)
    system = build_system(cfg, seed)
    eps = read(cfg, "eps", NUMBER)
    horizon = read(cfg, "T", NUMBER)
    dt = read(cfg, "integrator.dt", NUMBER, 0.01)
    tol = read(cfg, "integrator.tol", NUMBER, 1e-12)
    stride = read(cfg, "integrator.stride", COUNT, 10)
    s = read(cfg, "s", NUMBER, 4.0)
    profile = read(cfg, "experiment.profile", PROFILES, "sobolev")
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(STREAMS["initial"], 0)))
    z0 = initial_state(system.modes(), eps, s, rng, profile)
    traj = integrate(system, z0, horizon, dt, tol=tol, stride=stride)
    write_frames_csv(system, traj, os.path.join(outdir, "frames.csv"),
                     eps=eps, seed=seed)
    de = max(abs(e - traj.energies[0]) for e in traj.energies)
    print("simulate: %d frames, max |dH| = %.3e, halved steps: %d, "
          "field evaluations per step: %.2f"
          % (len(traj.times), de, traj.halvings, traj.evals / traj.steps))
    return ["frames.csv"]


def cmd_drift_experiment(cfg: dict, outdir: str) -> List[str]:
    seed = read(cfg, "seed", SEED, 0)
    system = build_system(cfg, seed)
    eps_list = read(cfg, "experiment.eps_list", NUMBERS)
    nseeds = read(cfg, "experiment.seeds", COUNT, 2)
    r = read(cfg, "experiment.r", INTEGER, read(cfg, "r_star", INTEGER, 2))
    s = read(cfg, "s", NUMBER, 4.0)
    s1 = read(cfg, "s1", NUMBER, s)
    profile = read(cfg, "experiment.profile", PROFILES, "sobolev")
    nf = None
    if "gamma" in cfg and "r_star" in cfg:
        nf = run_normalize(cfg, system)
        if not nf.membership_ok():
            print("warning: normal form membership checks failed",
                  file=sys.stderr)
    seeds = [stream_seed(seed, "initial", k) for k in range(nseeds)]
    rows = drift_experiment(
        system, nf, eps_list, seeds, r,
        s=s,
        c=read(cfg, "experiment.c", NUMBER, 1.0),
        dt=read(cfg, "integrator.dt", NUMBER, 0.01),
        stride=read(cfg, "integrator.stride", COUNT, 10),
        s1=s1,
        tol=read(cfg, "integrator.tol", NUMBER, 1e-12),
        profile=profile)
    write_drift_csv(rows, os.path.join(outdir, "drift.csv"))
    nesc = sum(1 for row in rows if row.escaped)
    print("drift-experiment: %d rows over %d runs, %d escaped frames"
          % (len(rows), len(eps_list) * len(seeds), nesc))
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
    patterns: dict = {}
    worst = None
    with open(path) as fh:
        for row in csv.DictReader(fh):
            patterns[row["pattern"]] = patterns.get(row["pattern"], 0) + 1
            v = abs(float(row["divisor"]))
            if worst is None or v < worst:
                worst = v
    lines = ["resonance hits:"]
    if not patterns:
        lines.append("  none")
        return lines
    for pat in sorted(patterns):
        lines.append("  %-12s %d" % (pat, patterns[pat]))
    lines.append("  smallest |divisor|: %.6e" % worst)
    return lines


def _nf_summary(path: str) -> List[str]:
    with open(path) as fh:
        doc = json.load(fh)
    p = doc["params"]
    nz = len([ln for ln in doc["Z"].splitlines() if ln.strip()])
    return [
        "normal form [%s]:" % doc["model"],
        "  r_star=%d N=%d gamma=%g alpha=%g mode=%s"
        % (p["r_star"], p["N"], p["gamma"], p["alpha"], p["mode"]),
        "  membership_ok=%s  Z terms=%d  generators=%d"
        % (doc["membership_ok"], nz, len(doc["generators"])),
        "  f_final l1=%.6e  remainder tail l1=%.6e"
        % (doc["f_final_l1"], doc["remainder_tail_l1"]),
    ]


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
    data = {}
    if os.path.exists(path):
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
        outdir = str(cfg.get("out", "runs"))
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
