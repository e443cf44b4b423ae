"""Experiment front end: flat-text configs, subcommands, run manifests.

Config files are plain text with one `key = value` per line; values are
parsed as JSON when possible and kept as bare strings otherwise.  Blank
lines and `#` comments are ignored.  `--set key=value` overrides any key
from the command line.  The flat key schema:

    model                  one of the names in dynamics.MODELS
    d, jmax, kappa, mass   model-builder knobs (only the ones the model takes)
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


def require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError("%s: required" % key)
    return cfg[key]


_REQUIRED = object()


def number(cfg: dict, key: str, default=_REQUIRED) -> float:
    v = require(cfg, key) if default is _REQUIRED else cfg.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("%s: expected a number" % key)
    return float(v)


def integer(cfg: dict, key: str, default=_REQUIRED) -> int:
    v = require(cfg, key) if default is _REQUIRED else cfg.get(key, default)
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError("%s: expected an integer" % key)
    return v


def initial_profile(cfg: dict) -> str:
    profile = cfg.get("experiment.profile", "sobolev")
    if profile not in ("sobolev", "flat"):
        raise ConfigError("experiment.profile: expected sobolev or flat, "
                          "got %r" % (profile,))
    return profile


def stream_seed(seed: int, stream: str, index: int = 0) -> int:
    """Derived seed for a named sub-stream of the manifest seed."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(STREAMS[stream], int(index)))
    return int(ss.generate_state(1)[0])


# -- model assembly -------------------------------------------------------


def _parse_coeff_key(key: str):
    if "," in str(key):
        return tuple(int(p) for p in str(key).split(","))
    return int(key)


def resolve_potential(cfg: dict, seed: int, index: int = 0):
    """None, an explicit coefficient dict, or a sampled PotentialSample."""
    family = cfg.get("potential.family", "none")
    if family in (None, "none"):
        return None
    if family == "explicit":
        raw = cfg.get("potential.coeffs", {})
        if not isinstance(raw, dict):
            raise ConfigError("potential.coeffs: expected a JSON object")
        coeffs = {_parse_coeff_key(k): float(v) for k, v in raw.items()}
        if cfg.get("model") == "nls_dd":
            return PotentialSample("convolution_d", {}, 0, coeffs, 0.0)
        return coeffs
    if family not in FAMILIES:
        raise ConfigError("potential.family: unknown %r" % family)
    params = cfg.get("potential.params")
    if not isinstance(params, dict):
        raise ConfigError("potential.params: required")
    pseed = cfg.get("potential.seed")
    if pseed is None:
        pseed = stream_seed(seed, "potential", index)
    return sample_potential(family, dict(params), int(pseed))


_MODEL_KEYS = {
    "demo_2mode": ("kappa",),
    "nls1d_dirichlet": ("jmax", "kappa", "basis_size", "quad_n"),
    "nlw_dirichlet": ("jmax", "kappa", "mass", "basis_size", "quad_n"),
    "nlw_periodic": ("jmax", "kappa", "mass", "basis_size", "quad_n"),
    "nls_coupled": ("jmax", "kappa", "basis_size", "quad_n"),
    "nls_dd": ("d", "jmax", "kappa"),
}


def build_system(cfg: dict, seed: int) -> ModelSystem:
    model = require(cfg, "model")
    if model not in MODELS:
        raise ConfigError("model: unknown %r (choose from %s)"
                          % (model, ", ".join(MODELS)))
    kwargs = {}
    for key in _MODEL_KEYS[model]:
        if key in cfg:
            v = cfg[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError("%s: expected a number" % key)
            kwargs[key] = v
    if model == "nls_coupled":
        # two fields: independent draws off the potential stream
        kwargs["potential1"] = resolve_potential(cfg, seed, 0)
        kwargs["potential2"] = resolve_potential(cfg, seed, 1)
    elif model != "demo_2mode":
        pot = resolve_potential(cfg, seed, 0)
        if pot is not None:
            kwargs["potential"] = pot
    return build_model_hamiltonian(model, **kwargs)


def nf_params(cfg: dict) -> NormalFormParams:
    r_star = integer(cfg, "r_star")
    gamma = number(cfg, "gamma")
    alpha = number(cfg, "alpha", 1.0)
    n = cfg.get("N", AUTO)
    if n != AUTO:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError("N: expected an integer or \"auto\"")
    s = number(cfg, "s", 4.0)
    mode = cfg.get("mode", DEGREE_BY_DEGREE)
    try:
        return NormalFormParams(r_star=r_star, gamma=gamma, alpha=alpha,
                                N=n, s=s, mode=mode)
    except ValueError as exc:
        raise ConfigError(str(exc))


def amplitude_of(cfg: dict) -> Optional[float]:
    if "eps" in cfg:
        return number(cfg, "eps")
    eps_list = cfg.get("experiment.eps_list")
    if eps_list:
        return max(float(e) for e in eps_list)
    return None


def resolved_params(cfg: dict) -> NormalFormParams:
    params = nf_params(cfg)
    amp = amplitude_of(cfg)
    if params.N == AUTO and amp is None:
        raise ConfigError("eps: required to resolve N = auto")
    try:
        return params.resolved(amp)
    except ValueError as exc:
        raise ConfigError(str(exc))


def run_normalize(cfg: dict, system: ModelSystem) -> NormalFormResult:
    params = resolved_params(cfg)
    return normalize(system.table, system.P, params)


# -- subcommands ----------------------------------------------------------


def cmd_normalize(cfg: dict, outdir: str) -> List[str]:
    seed = integer(cfg, "seed", 0)
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
    seed = integer(cfg, "seed", 0)
    system = build_system(cfg, seed)
    params = resolved_params(cfg)
    r = integer(cfg, "r", params.r_star)
    jmax = cfg.get("jmax")
    if jmax is None:
        jmax = max(mode_abs(m) for m in system.table.modes())
    try:
        q = DivisorQuery(omega=system.table, r=r, N=params.N,
                         gamma=params.gamma, alpha=params.alpha,
                         jmax=float(jmax),
                         node_cap=integer(cfg, "node_cap", DEFAULT_NODE_CAP))
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
    seed = integer(cfg, "seed", 0)
    family = require(cfg, "potential.family")
    if family not in FAMILIES:
        raise ConfigError("potential.family: unknown %r" % family)
    params = cfg.get("potential.params")
    if not isinstance(params, dict):
        raise ConfigError("potential.params: required")
    gamma = number(cfg, "gamma")
    gammas = [float(g) for g in cfg.get("resonance.gammas", [gamma])]
    samples = integer(cfg, "resonance.samples", 100)
    r = integer(cfg, "r", integer(cfg, "r_star", 3))
    if cfg.get("N") == AUTO:
        raise ConfigError("N: explicit integer required for measure scans")
    try:
        q = DivisorQuery(omega=None, r=r, N=integer(cfg, "N", 2),
                         gamma=gamma, alpha=number(cfg, "alpha", 1.0),
                         jmax=number(cfg, "jmax"),
                         node_cap=integer(cfg, "node_cap", DEFAULT_NODE_CAP))
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
    seed = integer(cfg, "seed", 0)
    system = build_system(cfg, seed)
    eps = number(cfg, "eps")
    horizon = number(cfg, "T")
    dt = number(cfg, "integrator.dt", 0.01)
    tol = number(cfg, "integrator.tol", 1e-12)
    stride = integer(cfg, "integrator.stride", 10)
    s = number(cfg, "s", 4.0)
    profile = initial_profile(cfg)
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
    seed = integer(cfg, "seed", 0)
    system = build_system(cfg, seed)
    eps_list = [float(e) for e in require(cfg, "experiment.eps_list")]
    if not eps_list:
        raise ConfigError("experiment.eps_list: must be non-empty")
    nseeds = integer(cfg, "experiment.seeds", 2)
    r = integer(cfg, "experiment.r", integer(cfg, "r_star", 2))
    s = number(cfg, "s", 4.0)
    s1 = number(cfg, "s1", s)
    profile = initial_profile(cfg)
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
        c=number(cfg, "experiment.c", 1.0),
        dt=number(cfg, "integrator.dt", 0.01),
        stride=integer(cfg, "integrator.stride", 10),
        s1=s1,
        tol=number(cfg, "integrator.tol", 1e-12),
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
