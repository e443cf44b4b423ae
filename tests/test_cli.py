"""End-to-end checks of the command line front end."""

import csv
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import shlex
from pathlib import Path

import pytest

from bnfsim import cli
from bnfsim import dynamics as D
from bnfsim.dynamics import PARAMETERS
from bnfsim.poly import from_text

from helpers import fresh_python


def write_cfg(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


DEMO = [
    'model = "demo_2mode"',
    "kappa = 0.1",
    "r_star = 2",
    "gamma = 0.4",
    "N = 2",
    "s = 4.0",
    "eps = 0.05",
]


def test_config_parsing(tmp_path):
    p = write_cfg(tmp_path / "a.cfg", [
        "# comment",
        "",
        'model = "demo_2mode"',
        "experiment.eps_list = [0.2, 0.1]",
        'mode = block',
        "N = 4",
    ])
    cfg = cli.load_config(p)
    assert cfg["model"] == "demo_2mode"
    assert cfg["experiment.eps_list"] == [0.2, 0.1]
    assert cfg["mode"] == "block"  # bare string fallback
    assert cfg["N"] == 4
    cli.apply_overrides(cfg, ["N=8", 'model="nls_dd"'])
    assert cfg["N"] == 8 and cfg["model"] == "nls_dd"
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.load_config(write_cfg(tmp_path / "b.cfg", ["just a line"]))
    with pytest.raises(cli.ConfigError, match="--set"):
        cli.apply_overrides(cfg, ["noequals"])


def test_missing_gamma_exits_2(tmp_path, capsys):
    p = write_cfg(tmp_path / "c.cfg", [ln for ln in DEMO
                                       if not ln.startswith("gamma")])
    rc = cli.main(["normalize", p, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "gamma: required" in capsys.readouterr().err


def test_validation_messages_name_the_field(tmp_path, capsys):
    out = str(tmp_path / "out")
    p = write_cfg(tmp_path / "d.cfg", DEMO)
    cases = [
        (["normalize", p, "--set", 'model="nope"', "--out", out], "model:"),
        (["normalize", p, "--set", "r_star=0", "--out", out], "r_star:"),
        (["normalize", p, "--set", 'kappa="x"', "--out", out], "kappa:"),
        (["simulate", p, "--out", out], "T: required"),
        (["drift-experiment", p, "--out", out], "experiment.eps_list:"),
        (["measure-estimate", p, "--out", out], "potential.family:"),
    ]
    for argv, needle in cases:
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert needle in err, (argv, err)


def test_normalize_demo_membership_all_true(tmp_path):
    p = write_cfg(tmp_path / "e.cfg", DEMO)
    out = tmp_path / "out"
    assert cli.main(["normalize", p, "--out", str(out)]) == 0
    doc = json.loads((out / "nf.json").read_text())
    assert doc["membership_ok"] is True
    assert doc["membership"] and all(doc["membership"].values())
    assert doc["params"]["N"] == 2 and doc["params"]["degree_cap"] == 4
    # round-trippable polynomials
    Z = from_text(doc["Z"])
    assert Z.min_degree() == 4
    assert len(doc["generators"]) == doc["params"]["r_star"]
    assert doc["ledger"]["monotone"] is True
    man = json.loads((out / "manifest.json").read_text())
    entry = man["normalize"]
    assert entry["version"]
    assert entry["artifacts"] == ["nf.json"]
    assert entry["wall_time_s"] >= 0.0
    assert len(entry["config_sha256"]) == 64


def test_auto_N_needs_amplitude(tmp_path, capsys):
    p = write_cfg(tmp_path / "f.cfg",
                  [ln for ln in DEMO if not ln.startswith(("N", "eps"))])
    rc = cli.main(["normalize", p, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "eps: required" in capsys.readouterr().err
    # resolved at the largest amplitude: eps, or else the experiment's list
    got = []
    for amp in (["eps=0.001"], ["eps=0.0002"],
                ["experiment.eps_list=[0.0002, 0.001]"]):
        out = tmp_path / ("o%d" % len(got))
        argv = ["normalize", p, "--out", str(out), "--set", "s=10"]
        assert cli.main(argv + ["--set", *amp]) == 0, amp
        got.append(json.loads((out / "nf.json").read_text())["params"]["N"])
    assert got == [3, 5, 3]


def drift_argv(tmp_path, out, extra=()):
    p = write_cfg(tmp_path / "g.cfg", DEMO + [
        "experiment.eps_list = [0.3]",
        "experiment.seeds = 2",
        "experiment.r = 1",
        "integrator.dt = 0.05",
        "integrator.stride = 20",
        "seed = 11",
    ])
    return ["drift-experiment", p, "--out", out, *extra]


def test_drift_rerun_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "A"), str(tmp_path / "B")
    assert cli.main(drift_argv(tmp_path, a)) == 0
    assert cli.main(drift_argv(tmp_path, b)) == 0
    ha = hashlib.sha256((Path(a) / "drift.csv").read_bytes())
    hb = hashlib.sha256((Path(b) / "drift.csv").read_bytes())
    assert ha.hexdigest() == hb.hexdigest()
    # a different manifest seed changes the data
    c = str(tmp_path / "C")
    assert cli.main(drift_argv(tmp_path, c, ("--set", "seed=12"))) == 0
    hc = hashlib.sha256((Path(c) / "drift.csv").read_bytes())
    assert hc.hexdigest() != ha.hexdigest()


def test_drift_experiment_reports_halvings_and_evaluations(tmp_path, capsys,
                                                          monkeypatch):
    # the deepest halving of the runs, their halved steps, their evaluations
    # per step and the processes that ran them, each run made through the
    # module's integrate.  The stub takes its halved steps from the run's T
    # (1/0.3 or 1/0.25); a forked run appends to no list here, so the runs
    # are listed on one CPU
    runs, real = [], D.integrate

    def integrate(system, x0, T, *args, **kwargs):
        runs.append(dataclasses.replace(real(system, x0, T, *args, **kwargs),
                                        halved_steps=4 if T < 3.5 else 3))
        return runs[-1]

    monkeypatch.setattr(D, "integrate", integrate)
    argv = drift_argv(tmp_path, str(tmp_path / "A"), (
        "--set", "experiment.eps_list=[0.3, 0.25]",
        "--set", "experiment.seeds=1"))
    lines = []
    for k in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        assert cli.main(argv) == 0
        lines.append(capsys.readouterr().out)
    assert len(runs) == 2 + 1
    runs = runs[:2]
    steps = sum(t.steps for t in runs)
    assert sum(t.evals for t in runs) > steps
    for k, out in enumerate(lines, 1):
        assert ("deepest halving: %d, halved steps: 7, field evaluations "
                "per step: %.2f, processes: %d\n"
                % (max(t.halvings for t in runs),
                   sum(t.evals for t in runs) / steps, k)) in out


def test_drift_divergence_in_a_child_exits_1_as_on_one_cpu(tmp_path, capsys,
                                                          monkeypatch):
    # the shorter run (eps 0.3) goes to the forked child and diverges there;
    # the error reaches main as the one-process run raises it
    calls, real = [], D.integrate

    def integrate(system, x0, T, dt, **kwargs):
        calls.append(T)
        if T < 3.5:
            raise ArithmeticError("midpoint solver diverged at dt=%.3e" % dt)
        return real(system, x0, T, dt, **kwargs)

    monkeypatch.setattr(D, "integrate", integrate)
    argv = drift_argv(tmp_path, str(tmp_path / "A"), (
        "--set", "experiment.eps_list=[0.3, 0.25]",
        "--set", "experiment.seeds=1"))
    errs = []
    for k in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        calls.clear()
        assert cli.main(argv) == 1
        errs.append(capsys.readouterr().err)
    # the parent ran only its own share, eps 0.25
    assert calls == [4.0]
    assert errs[0] == errs[1] == ("bnfsim: ArithmeticError: midpoint solver "
                                  "diverged at dt=5.000e-02\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_reports_halvings_and_evaluations(tmp_path, capsys):
    p = write_cfg(tmp_path / "s.cfg", DEMO + ["T = 1.0",
                                              "integrator.dt = 0.02"])
    assert cli.main(["simulate", p, "--out", str(tmp_path / "out")]) == 0
    assert ("deepest halving: 0, halved steps: 0, field evaluations per "
            "step: ") in capsys.readouterr().out


def test_normalize_ledger_counts_reach_nf_json_and_report(tmp_path, capsys):
    out = tmp_path / "out"
    p = write_cfg(tmp_path / "n.cfg", DEMO)
    assert cli.main(["normalize", p, "--out", str(out)]) == 0
    doc = json.loads((out / "nf.json").read_text())
    led = doc["ledger"]
    chi_lines = [len(g.splitlines()) for g in doc["generators"]]
    assert led["chi_terms"] == chi_lines
    assert led["Z_terms"][-1] == len(doc["Z"].splitlines())
    assert len(led["pairs"]) == len(led["pairs_over_cap"]) == 2
    assert all(n > 0 for n in led["pairs"] + led["pairs_over_cap"])
    capsys.readouterr()
    assert cli.main(["report", p, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    rows = zip(led["chi_terms"], led["Z_terms"], led["pairs"],
               led["pairs_over_cap"])
    for r, row in enumerate(rows, 1):
        assert "  round %d: chi terms=%d  Z terms=%d  bracket pairs=%d  " \
            "over cap=%d" % ((r,) + row) in text


def test_scan_simulate_report_pipeline(tmp_path, capsys):
    out = str(tmp_path / "out")
    p = write_cfg(tmp_path / "h.cfg", DEMO + [
        "T = 2.0",
        "integrator.dt = 0.02",
        "experiment.eps_list = [0.3]",
        "experiment.seeds = 1",
        "experiment.r = 1",
        "integrator.stride = 20",
    ])
    for sub in ("normalize", "scan-resonances", "simulate",
                "drift-experiment"):
        assert cli.main([sub, p, "--out", out]) == 0, sub
    capsys.readouterr()
    assert cli.main(["report", p, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "normal form [demo_2mode]" in text
    assert "membership_ok=True" in text
    assert "resonance hits:\n  none\n" in text
    assert "drift [demo_2mode]" in text
    assert "energy residual" in text
    assert "log-log slope" not in text
    assert (tmp_path / "out" / "report.txt").read_text() == text
    # one manifest entry per subcommand, none clobbered
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(man) == {"normalize", "scan-resonances", "simulate",
                        "drift-experiment", "report"}
    # frames.csv exists with the expected header
    frames = (tmp_path / "out" / "frames.csv").read_text().splitlines()
    assert frames[0] == "model,eps,seed,t,mode,I"
    assert len(frames) > 10
    # hits list their patterns, and a second eps adds the drift slope
    assert cli.main(["scan-resonances", p, "--out", out,
                     "--set", "gamma=2"]) == 0
    assert cli.main(["drift-experiment", p, "--out", out,
                     "--set", "experiment.eps_list=[0.3, 0.15]"]) == 0
    capsys.readouterr()
    assert cli.main(["report", p, "--out", out]) == 0
    text = capsys.readouterr().out
    with open(os.path.join(out, "hits.csv")) as fh:
        hits = list(csv.DictReader(fh))
    assert len(hits) == 6
    for pat in {h["pattern"] for h in hits}:
        n = sum(h["pattern"] == pat for h in hits)
        assert "\n  %-12s %d\n" % (pat, n) in text
    worst = min(abs(float(h["divisor"])) for h in hits)
    assert "  smallest |divisor|: %.6e\n" % worst in text
    with open(os.path.join(out, "drift.csv")) as fh:
        last = {float(r["eps"]): float(r["max_weighted_action_drift"])
                for r in csv.DictReader(fh)}
    slope = math.log(last[0.3] / last[0.15]) / math.log(2.0)
    assert "  log-log slope of sup w|dI| vs eps: %.3f\n" % slope in text


def test_measure_estimate_writes_csv(tmp_path, capsys):
    p = write_cfg(tmp_path / "m.cfg", [
        'potential.family = "convolution_d"',
        'potential.params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}',
        "jmax = 2",
        "r = 3",
        "N = 2",
        "gamma = 0.01",
        "resonance.gammas = [0.01, 0.001]",
        "resonance.samples = 30",
        "seed = 3",
    ])
    out = str(tmp_path / "out")
    assert cli.main(["measure-estimate", p, "--out", out]) == 0
    # one search for every sample, over the pair sums, reported as
    # scan-resonances reports its, with the search's rows and the rows
    # whose members were listed: none, every row is counted
    assert "measure-estimate: complete=True, nodes=1089, rows=269, " \
        "listed=0" in capsys.readouterr().out.splitlines()
    rows = (tmp_path / "out" / "measure.csv").read_text().splitlines()
    assert rows[0].startswith("gamma,threshold,samples")
    assert len(rows) == 3
    # same seed, same numbers
    out2 = str(tmp_path / "out2")
    assert cli.main(["measure-estimate", p, "--out", out2]) == 0
    assert (tmp_path / "out2" / "measure.csv").read_text() == \
        "\n".join(rows) + "\n"


def benchmark_workloads():
    """perfbench/workloads.py, loaded from the source tree."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed,digest,violations", [
    (0, "486ec050647ecc4af836584c4c7f5f191a1ca57278bea26449872230f0c2f1f0",
     [75, 16, 1, 0]),
    (7, "ef231c3c18754b8857ea405c866827bc774f3b12d6296bda4872e8917609cb78",
     [69, 10, 2, 0])])
def test_benchmark_measure_config_pinned(tmp_path, capsys, seed, digest,
                                         violations):
    # the measure config of criterion 10 and of the benchmark
    workloads = benchmark_workloads()
    p = str(tmp_path / "m.cfg")
    workloads.write_config(workloads.WORKLOADS["measure"].config(seed), p)
    out = tmp_path / "out"
    assert cli.main(["measure-estimate", p, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "measure.csv").read_bytes()).hexdigest() \
        == digest
    with open(out / "measure.csv") as fh:
        assert [int(r["violations"]) for r in csv.DictReader(fh)] == \
            violations
    head = re.fullmatch(r"measure-estimate: complete=True, nodes=41200, "
                        r"rows=(\d+), listed=(\d+)",
                        capsys.readouterr().out.splitlines()[0])
    # the search runs over the pair sums: the README's figure; no row has
    # an entry within the rounding band, so none is listed
    assert (int(head[1]), int(head[2])) == (6922, 0)


def test_measure_estimate_reads_gamma_only_as_the_list_default(tmp_path):
    # with resonance.gammas set, gamma may be missing, and any value of it
    # gives the same measure.csv
    p = write_cfg(tmp_path / "m.cfg", [
        'potential.family = "convolution_d"',
        'potential.params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}',
        "jmax = 2", "r = 3", "N = 2",
        "resonance.gammas = [0.01, 0.001]",
        "resonance.samples = 30",
    ])
    got = []
    for k, extra in enumerate(([], ["--set", "gamma=0.01"],
                               ["--set", "gamma=5"])):
        out = tmp_path / ("out%d" % k)
        assert cli.main(["measure-estimate", p, "--out", str(out)]
                        + extra) == 0
        got.append((out / "measure.csv").read_bytes())
    assert got[0] == got[1] == got[2]
    assert cli.main(["measure-estimate", p, "--out", str(tmp_path / "x"),
                     "--set", "resonance.gammas=null"]) == 2


def test_scan_tags_hits_with_the_family_rules(tmp_path, capsys):
    # nls_dd under a sampled convolution_d potential: the rules of the
    # measure scan (shells beyond N^sqrt(alpha/decay) = 1, then pairs)
    p = write_cfg(tmp_path / "dd.cfg", [
        'model = "nls_dd"', "d = 2", "jmax = 2", "kappa = 0.1",
        'potential.family = "convolution_d"',
        'potential.params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}',
        "r_star = 2", "gamma = 0.01", "N = 1",
    ])
    out = str(tmp_path / "out")
    assert cli.main(["scan-resonances", p, "--out", out]) == 0
    with open(os.path.join(out, "hits.csv")) as fh:
        tags = {r["k_serialized"]: r["pattern"] for r in csv.DictReader(fh)}
    # a cancellation across the shell |j|^2 = 2 that is not a pair
    assert tags["-1,-1:-1 -1,1:1"] == tags["-1,-1:1 -1,1:-1"] == "SHELL"
    assert tags["-2,0:-1 -1,0:-1 1,0:1 2,0:1"] == "PAIR_TAIL"
    assert set(tags.values()) == {"NONE", "PAIR_TAIL", "SHELL"}
    # an explicit potential has no rule of its own: every hit stays NONE
    assert cli.main(["scan-resonances", p, "--out", out, "--set",
                     "potential.family=explicit"]) == 0
    with open(os.path.join(out, "hits.csv")) as fh:
        assert {r["pattern"] for r in csv.DictReader(fh)} == {"NONE"}


def test_incomplete_measure_scan_says_so(tmp_path, capsys):
    p = write_cfg(tmp_path / "m.cfg", [
        'potential.family = "convolution_d"',
        'potential.params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}',
        "jmax = 2",
        "r = 3",
        "N = 2",
        "gamma = 0.01",
        "resonance.samples = 30",
        "node_cap = 50",
    ])
    out = str(tmp_path / "out")
    assert cli.main(["measure-estimate", p, "--out", out]) == 0
    std = capsys.readouterr()
    assert cli.INCOMPLETE in std.err
    assert "measure-estimate: complete=False, nodes=73" in std.out
    with open(os.path.join(out, "measure.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["complete"] for r in rows] == ["0"]
    assert cli.main(["report", p, "--out", out]) == 0
    assert "complete=0" in capsys.readouterr().out


DD_DEEP = ['model = "nls_dd"', "d = 2", "jmax = 8",
           'potential.family = "convolution_d"',
           'potential.params = {"R": 1.0, "kmax": 4, "d": 2, "decay": 2.0}',
           "potential.seed = 3", "r = 3", "r_star = 2", "N = 2",
           "gamma = 1e-4"]


def hit_rows(out) -> list:
    with open(os.path.join(out, "hits.csv")) as fh:
        return list(csv.reader(fh))[1:]


def test_scan_resonances_on_the_lattice_completes_at_the_default_cap(
        tmp_path, capsys):
    # nls_dd d=2 at jmax 8: the search over the pair sums completes within
    # the default node_cap, where the search over the modes stopped with
    # 4,488 of the 14,292 hits
    p = write_cfg(tmp_path / "dd.cfg", DD_DEEP)
    out = str(tmp_path / "out")
    assert cli.main(["scan-resonances", p, "--out", out]) == 0
    std = capsys.readouterr()
    assert "scan-resonances: 14292 hits (complete=True, nodes=45114)" in \
        std.out.splitlines()
    assert cli.INCOMPLETE not in std.err
    assert len(hit_rows(out)) == 14292


def test_scan_resonances_past_its_node_cap_says_so(tmp_path, capsys):
    # a budget of 1,000 nodes: the run exits 0, warns, reports
    # complete=False, and keeps some of the complete run's hits
    p = write_cfg(tmp_path / "dd.cfg", DD_DEEP)
    full, short = str(tmp_path / "full"), str(tmp_path / "short")
    assert cli.main(["scan-resonances", p, "--out", full]) == 0
    capsys.readouterr()
    assert cli.main(["scan-resonances", p, "--out", short,
                     "--set", "node_cap=1000"]) == 0
    std = capsys.readouterr()
    assert cli.INCOMPLETE in std.err
    assert re.search(r"^scan-resonances: \d+ hits \(complete=False, ",
                     std.out, re.M)
    rows = hit_rows(short)
    assert set(map(tuple, rows)) < set(map(tuple, hit_rows(full)))
    assert len(rows) == len(set(map(tuple, rows)))


def test_readme_config_runs_as_printed(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```\n(.*?)```", fh.read(), re.S)
    config = [b for b in blocks if b.startswith("model")]
    assert len(config) == 1
    p = tmp_path / "run.cfg"
    p.write_text(config[0])
    out = str(tmp_path / "out")
    # the printed commands, with the drift experiment and report left out
    commands = [shlex.split(line)[1:] for b in blocks
                for line in b.splitlines() if line.startswith("bnfsim ")]
    run = [argv for argv in commands
           if argv[0] in ("normalize", "scan-resonances", "simulate")]
    assert [argv[0] for argv in run] == ["normalize", "scan-resonances",
                                         "simulate"]
    for argv in run:
        argv = [str(p) if a == "run.cfg" else out if a == "out/" else a
                for a in argv]
        assert cli.main(argv) == 0, argv


def readme_config(path) -> str:
    """The README's example config, written to path."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    config = [b for b in re.findall(r"```\n(.*?)```", readme.read_text(), re.S)
              if b.startswith("model")]
    path.write_text(config[0])
    return str(path)


def test_scan_resonances_builds_no_quartic(tmp_path, monkeypatch):
    # the scan reads only the frequency table: with the quartic assemblers
    # refused it writes the same hits.csv, at the README's gamma (no hits)
    # and at gamma = 10 (70 hits)
    from bnfsim import dynamics
    p = readme_config(tmp_path / "run.cfg")
    runs = [["--set", "jmax=20"], ["--set", "jmax=20", "--set", "gamma=10"]]

    def scan(name):
        for i, extra in enumerate(runs):
            out = tmp_path / name / str(i)
            assert cli.main(["scan-resonances", p, *extra,
                             "--out", str(out)]) == 0
            yield (out / "hits.csv").read_bytes()

    free = list(scan("free"))
    assert [len(b.splitlines()) for b in free] == [1, 71]

    def refuse(*args, **kwargs):
        raise AssertionError("scan-resonances built the quartic")

    monkeypatch.setattr(dynamics, "_assemble_quartic", refuse)
    monkeypatch.setattr(dynamics, "_merge_quartic", refuse)
    assert list(scan("refused")) == free


def test_scan_resonances_on_the_lattice_forms_no_legs(tmp_path, monkeypatch):
    # nls_dd forms its plane-wave legs only for the field, which the scan
    # never asks for: with Leg refused it writes the same hits.csv
    p = write_cfg(tmp_path / "dd.cfg", DD_DEEP)

    def scan(name):
        out = tmp_path / name
        assert cli.main(["scan-resonances", p, "--set", "jmax=6",
                         "--out", str(out)]) == 0
        return (out / "hits.csv").read_bytes()

    free = scan("free")

    def refuse(*args, **kwargs):
        raise AssertionError("scan-resonances formed a leg")

    monkeypatch.setattr(D, "Leg", refuse)
    assert scan("refused") == free


def test_failed_manifest_write_keeps_previous(tmp_path, monkeypatch):
    out = str(tmp_path)
    cli.write_manifest(out, "normalize", {"model": "demo_2mode"}, [], 1.0)
    path = tmp_path / "manifest.json"
    before = path.read_text()

    def dump_then_fail(obj, fh, **kw):
        fh.write('{"normalize": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="no space"):
        cli.write_manifest(out, "simulate", {"model": "demo_2mode"}, [], 1.0)
    assert path.read_text() == before
    assert os.listdir(out) == ["manifest.json"]


def test_stream_seeds_are_distinct_and_stable():
    a = cli.stream_seed(7, "potential")
    b = cli.stream_seed(7, "initial")
    c = cli.stream_seed(7, "monte_carlo")
    assert len({a, b, c}) == 3
    assert a == cli.stream_seed(7, "potential")
    assert cli.stream_seed(7, "initial", 1) != cli.stream_seed(7, "initial")


def test_compute_failure_exits_1(tmp_path, capsys):
    # a drawn mass m = 0 under lambda_0 < 0 (the Neumann ground state of a
    # non-constant zero-mean V) leaves omega_0 undefined: the spectral
    # solve fails; a mass the config sets would exit 2 naming `mass`
    p = write_cfg(tmp_path / "x.cfg", DEMO[1:] + [
        'model = "nlw_periodic"', "jmax = 3", "T = 1.0",
        'potential.family = "nlw_periodic"',
        'potential.params = {"R": 0.5, "sigma": 0.4, "kmax": 9, '
        '"mass_span": 0.0}'])
    rc = cli.main(["simulate", p, "--out", str(tmp_path / "out")])
    assert rc == 1
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["simulate"]["status"] == "failed"
    assert man["simulate"]["error"]


def test_drift_s1_must_be_a_number(tmp_path, capsys):
    argv = drift_argv(tmp_path, str(tmp_path / "out"), ("--set", 's1="abc"'))
    assert cli.main(argv) == 2
    assert "s1: expected a number" in capsys.readouterr().err


MEASURE = [
    'potential.family = "convolution_d"',
    'potential.params = {"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}',
    "jmax = 2", "r = 3", "N = 2", "gamma = 0.01", "resonance.samples = 30",
]


@pytest.mark.parametrize("command,key", [
    ("drift-experiment", "seed"),
    ("drift-experiment", "integrator.stride"),
    ("drift-experiment", "experiment.seeds"),
    ("drift-experiment", "experiment.r"),
    ("simulate", "integrator.stride"),
    ("normalize", "r_star"),
    ("scan-resonances", "r"),
    ("scan-resonances", "node_cap"),
    ("measure-estimate", "resonance.samples"),
    ("measure-estimate", "node_cap"),
])
@pytest.mark.parametrize("value", ["abc", "2.7", "true"])
def test_integer_keys_must_be_integers(tmp_path, capsys, command, key,
                                       value):
    extra = ("--set", "%s=%s" % (key, value))
    if command == "drift-experiment":
        argv = drift_argv(tmp_path, str(tmp_path / "out"), extra)
    else:
        p = write_cfg(tmp_path / "i.cfg", MEASURE if command ==
                      "measure-estimate" else DEMO + ["T = 0.1"])
        argv = [command, p, "--out", str(tmp_path / "out"), *extra]
    assert cli.main(argv) == 2
    assert "%s: expected an integer" % key in capsys.readouterr().err


NLS1D = [
    'model = "nls1d_dirichlet"', "jmax = 4", "kappa = 0.25",
    'potential.family = "nls_cosine"',
    'potential.params = {"R": 0.5, "sigma": 0.4, "kmax": 9}',
    "r_star = 2", "gamma = 0.002", "N = 3", "s = 4.0",
]
EXPLICIT = 'potential.family="explicit"'
NO_R = 'potential.params={"sigma": 0.4, "kmax": 9, "d": 2, "decay": 2.0}'
DD_SAMPLED = ['model="nls_dd"', 'potential.family="convolution_d"',
              'potential.params={"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}']


@pytest.mark.parametrize("command,sets,key", [
    ("normalize", ["jmax=6.5"], "jmax"),
    ("normalize", ["potential.seed=2.7"], "potential.seed"),
    ("normalize", ['potential.seed="abc"'], "potential.seed"),
    ("drift-experiment", ['experiment.eps_list=["a"]'],
     "experiment.eps_list"),
    ("drift-experiment", ["experiment.eps_list=0.1"], "experiment.eps_list"),
    ("measure-estimate", ['resonance.gammas=["x"]'], "resonance.gammas"),
    ("normalize", [EXPLICIT, 'potential.coeffs={"x": 0.5}'],
     "potential.coeffs"),
    ("normalize", [EXPLICIT, 'potential.coeffs={"2": "a"}'],
     "potential.coeffs"),
    ("normalize", [NO_R], "potential.params"),
    ("measure-estimate", [NO_R], "potential.params"),
    ("normalize", ['potential.params={"R": "x", "sigma": 0.4, "kmax": 9}'],
     "potential.params"),
    # seeds are integers >= 0, counts integers >= 1
    ("normalize", ["seed=-1"], "seed"),
    ("measure-estimate", ["seed=-1"], "seed"),
    ("normalize", ["potential.seed=-1"], "potential.seed"),
    ("drift-experiment", ["experiment.seeds=0"], "experiment.seeds"),
    ("drift-experiment", ["experiment.seeds=-1"], "experiment.seeds"),
    ("drift-experiment", ["integrator.stride=0"], "integrator.stride"),
    ("normalize", ["quad_n=0"], "quad_n"),
    ("normalize", ["basis_size=0"], "basis_size"),
    ("normalize", ["jmax=0"], "jmax"),
    # sampling parameters read through the one parameter reader
    ("normalize", ['model="nlw_periodic"', 'potential.family="nlw_periodic"',
                   'potential.params={"R": 0.5, "sigma": 0.4, "kmax": 9, '
                   '"mass_span": "x"}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": 2, "d": "x", '
                          '"decay": 2.0}'], "potential.params"),
    # a grid at or below twice the basis wavenumber 32 is not exact, and
    # jmax 4 needs 6 basis functions
    ("normalize", ["quad_n=4"], "quad_n"),
    ("normalize", ["basis_size=5"], "basis_size"),
    ("normalize", ["mode=bogus"], "mode"),
    # the measure grid and sample count
    ("measure-estimate", ["resonance.gammas=[-1e-4]"], "resonance.gammas"),
    ("measure-estimate", ["resonance.gammas=[0]"], "resonance.gammas"),
    ("measure-estimate", ["resonance.samples=29"], "resonance.samples"),
    # integration inputs: T and experiment.c take the sign of a nonzero dt
    ("simulate", ["eps=0.05", "T=-1"], "T"),
    ("simulate", ["eps=0.05", "T=0.1", "integrator.dt=0"], "integrator.dt"),
    ("simulate", ["eps=0.05", "T=0.1", "integrator.tol=-1"],
     "integrator.tol"),
    ("simulate", ["eps=-0.1", "T=0.1"], "eps"),
    ("drift-experiment", ["experiment.c=-1"], "experiment.c"),
    ("drift-experiment", ["experiment.eps_list=[0]"], "experiment.eps_list"),
    ("drift-experiment", ["experiment.eps_list=[-0.1]"],
     "experiment.eps_list"),
    # model-only keys the chosen model's builder does not take
    ("normalize", ["mass=3.0"], "mass"),
    ("simulate", ["d=4"], "d"),
    ("scan-resonances", ['model="nls_dd"', "quad_n=200"], "quad_n"),
    ("drift-experiment", ["basis_size=40"], "basis_size"),
    ("normalize", ['model="nlw_periodic"', 'potential.family="nlw_periodic"',
                   "mass=0.5"], "mass"),    # a cosine wavenumber is >= 0, in the Dirichlet and the Neumann basis
    ("normalize", [EXPLICIT, 'potential.coeffs={"-3": 0.2}'],
     "potential.coeffs"),
    ("normalize", ['model="nlw_periodic"', EXPLICIT,
                   'potential.coeffs={"-3": 0.2}'], "potential.coeffs"),
    # a family of the other dimension: 1-d on nls_dd, d-dim on a 1-d model
    ("normalize", ['model="nls_dd"', "jmax=2"], "potential.family"),
    ("normalize", ['potential.family="convolution_d"',
                   'potential.params={"R": 1.0, "kmax": 2, "d": 2, '
                   '"decay": 2.0}'], "potential.family"),
    # the ranges of the parameters the envelopes and the rules read: R >= 0
    # for every family, decay > 0, d >= 1 and a number b >= 0
    ("measure-estimate", ['potential.params={"R": -1.0, "kmax": 2, "d": 2, '
                          '"decay": 2.0}'], "potential.params"),
    ("normalize", ['potential.params={"R": -0.5, "sigma": 0.4, "kmax": 9}'],
     "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": 2, "d": 2, '
                          '"decay": 0}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": 2, "d": 2, '
                          '"decay": -1}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": 2, "d": 0, '
                          '"decay": 2.0}'], "potential.params"),
    ("scan-resonances", ['model="nlw_periodic"',
                         'potential.family="nlw_periodic"',
                         'potential.params={"R": 0.5, "sigma": 0.4, '
                         '"kmax": 9, "b": "x"}'], "potential.params"),
    ("scan-resonances", ['model="nlw_periodic"',
                         'potential.family="nlw_periodic"',
                         'potential.params={"R": 0.5, "sigma": 0.4, '
                         '"kmax": 9, "b": -1}'], "potential.params"),
    ("measure-estimate", ['potential.family="nlw_periodic"',
                          'potential.params={"R": 0.5, "sigma": 0.4, '
                          '"kmax": 9, "b": "x"}'], "potential.params"),
    # nls_dd's jmax is a lattice radius: below 0 the lattice is empty
    ("simulate", [*DD_SAMPLED, "jmax=-1", "eps=0.1", "T=0.1",
                  "integrator.dt=0.01"], "jmax"),
    ("scan-resonances", [*DD_SAMPLED, "jmax=-1"], "jmax"),
    # a set mass that leaves some lambda_j + mass <= 0 (lambda_1 = 1 at V = 0)
    ("simulate", ['model="nlw_dirichlet"', 'potential.family="none"',
                  "mass=-1", "eps=0.1", "T=0.1",
                  "integrator.dt=0.01"], "mass"),
    ("simulate", ['model="nlw_periodic"', "mass=-5", "eps=0.1", "T=0.1",
                  "integrator.dt=0.01"], "mass"),
    # a bool is no number; and d and kmax >= 0 are integers: a bool or a
    # fraction is none (2.0 reads as 2)
    ("measure-estimate", ['potential.params={"R": true, "kmax": 2, "d": 2, '
                          '"decay": 2.0}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": 2, "d": 2.7, '
                          '"decay": 2.0}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": 4.5, "d": 2, '
                          '"decay": 2.0}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": true, "d": 2, '
                          '"decay": 2.0}'], "potential.params"),
    ("measure-estimate", ['potential.params={"R": 1.0, "kmax": -1, "d": 2, '
                          '"decay": 2.0}'], "potential.params"),
    ("normalize", ['potential.params={"R": 0.5, "sigma": 0.4, "kmax": 9.5}'],
     "potential.params"),
    ("normalize", ['potential.params={"R": 0.5, "sigma": 0.4, "kmax": -1}'],
     "potential.params"),
    ("normalize", ['potential.params={"R": 0.5, "sigma": 0.4, "kmax": true}'],
     "potential.params"),
])
def test_bad_values_exit_2_naming_the_key(tmp_path, capsys, command, sets,
                                          key):
    extra = [a for s in sets for a in ("--set", s)]
    if command == "drift-experiment":
        argv = drift_argv(tmp_path, str(tmp_path / "out"), extra)
    else:
        p = write_cfg(tmp_path / "v.cfg", MEASURE if command ==
                      "measure-estimate" else NLS1D)
        argv = [command, p, "--out", str(tmp_path / "out"), *extra]
    assert cli.main(argv) == 2
    assert "bnfsim: %s:" % key in capsys.readouterr().err


def test_integer_params_read_whole_floats(tmp_path):
    # "d": 2.0 and "kmax": 2.0 read as 2: the same draws and measure.csv
    out = []
    for params in ('{"R": 1.0, "kmax": 2, "d": 2, "decay": 2.0}',
                   '{"R": 1.0, "kmax": 2.0, "d": 2.0, "decay": 2.0}'):
        p = write_cfg(tmp_path / "m.cfg", MEASURE)
        d = tmp_path / str(len(out))
        assert cli.main(["measure-estimate", p, "--out", str(d), "--set",
                         "potential.params=" + params]) == 0
        out.append((d / "measure.csv").read_bytes())
    assert out[0] == out[1]


def test_nls_coupled_fields_get_their_own_draws():
    # psi_j carries lambda_j of V1 and phi_j, mode -j, -lambda_j of V2;
    # with potential.seed set, field 0 keeps the draw of that seed
    for pinned in ({}, {"potential.seed": 3}):
        cfg = {"model": "nls_coupled", "jmax": 3,
               "potential.family": "nls_cosine",
               "potential.params": {"R": 0.5, "sigma": 0.4, "kmax": 9},
               **pinned}
        omega = cli.build_system(cfg, 5).table.omega
        draws = [cli.resolve_potential(cfg, 5, i) for i in (0, 1)]
        assert cli.build_model_hamiltonian(
            "nls_coupled", jmax=3, potential1=draws[0], potential2=draws[1]
        ).table.omega == omega
        assert draws[0].coeffs != draws[1].coeffs
        assert all(omega[(j,)] != -omega[(-j,)] for j in (1, 2, 3))
    assert draws[0].coeffs == cli.sample_potential(
        "nls_cosine", cfg["potential.params"], 3).coeffs


def test_nls_dd_dict_potential_matches_the_explicit_config():
    cfg = {"model": "nls_dd", "d": 2, "jmax": 2,
           "potential.family": "explicit",
           "potential.coeffs": {"1,0": 0.5, "-1,0": 0.5}}
    cli_table = cli.build_system(cfg, 0).table.omega
    lib_table = cli.build_model_hamiltonian(
        "nls_dd", d=2, jmax=2, potential={(1, 0): 0.5, (-1, 0): 0.5}
    ).table.omega
    assert lib_table == cli_table
    assert lib_table[(1, 0)] == 1.5


def test_convolution_params_d_must_be_the_model_d(tmp_path, capsys):
    # a potential drawn on another lattice dimension would leave V = 0
    p = write_cfg(tmp_path / "dd.cfg", ['model = "nls_dd"', "jmax = 2",
                                        "r_star = 2", "gamma = 0.01", "N = 1",
                                        'potential.family = "convolution_d"'])
    params = {"R": 1.0, "kmax": 2, "decay": 2.0}
    for d in (1, 3):
        argv = ["normalize", p, "--out", str(tmp_path / "out"), "--set",
                "potential.params=" + json.dumps(dict(params, d=d))]
        assert cli.main(argv) == 2
        assert "bnfsim: potential.params: d = %d does not match the d = 2 " \
            "of model nls_dd" % d in capsys.readouterr().err
    cfg = {"model": "nls_dd", "jmax": 2, "potential.family": "convolution_d",
           "potential.params": dict(params, d=2)}
    free = cli.build_system(dict(cfg, **{"potential.family": "none"}), 0)
    omega = cli.build_system(cfg, 0).table.omega
    assert omega.keys() == free.table.omega.keys()
    assert omega != free.table.omega


def test_backward_integration_runs(tmp_path):
    p = write_cfg(tmp_path / "b.cfg", DEMO + ["T = -0.1"])
    assert cli.main(["simulate", p, "--out", str(tmp_path / "out"),
                     "--set", "integrator.dt=-0.01"]) == 0
    assert cli.main(drift_argv(tmp_path, str(tmp_path / "out"), (
        "--set", "integrator.dt=-0.05", "--set", "experiment.c=-1"))) == 0


def test_search_order_beyond_int8_exits_2(tmp_path, capsys):
    # candidate rows are int8: the order r + 2 may not pass 127
    out = str(tmp_path / "out")
    p = write_cfg(tmp_path / "o.cfg", DEMO)
    assert cli.main(["scan-resonances", p, "--out", out,
                     "--set", "r=126"]) == 2
    assert "r: must be in 1..125" in capsys.readouterr().err
    p = write_cfg(tmp_path / "m.cfg", MEASURE)
    assert cli.main(["measure-estimate", p, "--out", out,
                     "--set", "r=126"]) == 2
    assert "r: must be in 1..125" in capsys.readouterr().err


def test_unknown_initial_profile_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    bogus = ("--set", 'experiment.profile="bogus"')
    p = write_cfg(tmp_path / "s.cfg", DEMO + ["T = 0.1"])
    for argv in (["simulate", p, "--out", out, *bogus],
                 drift_argv(tmp_path, out, bogus)):
        assert cli.main(argv) == 2, argv
        assert "experiment.profile:" in capsys.readouterr().err



@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    p = write_cfg(tmp_path / "u.cfg", DEMO + ["gama = 0.4"])
    assert cli.main([command, p, "--out", str(out)]) == 2
    assert "bnfsim: gama: unknown key" in capsys.readouterr().err
    p = write_cfg(tmp_path / "u.cfg", DEMO)
    assert cli.main([command, p, "--out", str(out),
                     "--set", "integrator.dtt=0.5"]) == 2
    assert "bnfsim: integrator.dtt: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_keys_table_lists_exactly_the_keys_read():
    source = inspect.getsource(cli)
    named = set(re.findall(r'\bread\(cfg, "([^"]+)"', source))
    model = {key for keys in cli._MODEL_KEYS.values() for key in keys}
    assert named <= set(cli.KEYS)
    assert named | model == set(cli.KEYS)


def test_benchmark_configs_pass_the_key_check(tmp_path, monkeypatch):
    workloads = benchmark_workloads()
    for name, w in workloads.WORKLOADS.items():
        p = str(tmp_path / (name + ".cfg"))
        workloads.write_config(w.config(0), p)
        # the command is stubbed out: main runs its key check and nothing else
        monkeypatch.setitem(cli.COMMANDS, w.command, lambda cfg, outdir: [])
        assert cli.main([w.command, p, "--out", str(tmp_path / name)]) == 0


def test_null_gamma_or_r_star_drifts_without_a_normal_form(tmp_path):
    digests = {}
    for case in ("gamma=null", "r_star=null", "alpha=1.0"):
        out = str(tmp_path / case)
        assert cli.main(drift_argv(tmp_path, out, ("--set", case))) == 0
        digests[case] = hashlib.sha256(
            (Path(out) / "drift.csv").read_bytes()).hexdigest()
    assert digests["gamma=null"] == digests["r_star=null"]
    assert digests["gamma=null"] != digests["alpha=1.0"]


def test_null_out_writes_to_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = write_cfg(tmp_path / "n.cfg", DEMO)
    assert cli.main(["normalize", p, "--set", "out=null"]) == 0
    assert (tmp_path / "runs" / "nf.json").exists()
    assert not (tmp_path / "None").exists()
    assert cli.main(["normalize", p, "--set", "out=5"]) == 2
    assert "bnfsim: out: expected a string" in capsys.readouterr().err
    assert not (tmp_path / "5").exists()


NLS_DD = ['model = "nls_dd"', "d = 2", "jmax = 2", "kappa = 0.1",
          'potential.family = "explicit"', "r_star = 2", "gamma = 0.01",
          "N = 1"]


@pytest.mark.parametrize("base,coeffs", [
    (NLS1D + [EXPLICIT], '{"1,0": 0.5}'),
    (NLS_DD, '{"3": 0.5}'),
    (NLS_DD, '{"1,0,0": 0.5}'),
])
def test_coeff_keys_of_another_dimension_exit_2(tmp_path, capsys, base,
                                                coeffs):
    p = write_cfg(tmp_path / "c.cfg", base)
    assert cli.main(["normalize", p, "--out", str(tmp_path / "out"),
                     "--set", "potential.coeffs=" + coeffs]) == 2
    assert "bnfsim: potential.coeffs:" in capsys.readouterr().err


def test_lattice_coeffs_shift_their_frequency():
    cfg = {"model": "nls_dd", "d": 2, "jmax": 2,
           "potential.family": "explicit", "potential.coeffs": {"1,0": 0.5}}
    table = cli.build_system(cfg, 0).table
    assert table.omega_of((1, 0)) == 1.5
    assert table.omega_of((0, 1)) == 1.0


# sha256 of the seed-0 drift and transport benchmark artifacts and of the
# README config's, at one BLAS thread: the assembled quartic's matrix
# product rounds by the thread count, and the README nf.json moves with it
PINNED = {
    "drift/drift.csv":
        "3f1a8a98bbe4836169fe62390ae5c5724084778daa71acf38406bde63eb25b27",
    "transport/drift.csv":
        "903e03dd5b95c594cf38f6e8a1150e49b7465e03f1006284393572ede234c0d9",
    "transport/nf.json":
        "c32373204b644cf486d272d48f7a104b4a6d34d89e79206949560dd28d2450b4",
    "readme/nf.json":
        "259852769db8cae149c950da6da15021ef39a2af32043acbc04f51ffcdac7acd",
    "readme/hits.csv":
        "1b64ddbc7911b387bdb175324e474c65e02673f7bba46fe8c9f6f2469be1763b",
    "readme/frames.csv":
        "35bdcecc5cd2532eae2d3754e7a284dca1e295562fd36571624ffdbb6693b311",
}


def run_fresh(argvs, prelude: str = "", threads: int = 1) -> None:
    """Run the commands in one fresh process at `threads` BLAS threads that
    first runs `prelude`; every command must exit 0."""
    run = prelude + (
        "import json, sys\nfrom bnfsim import cli\n"
        "print(json.dumps([cli.main(a) for a in json.loads(sys.argv[1])]))")
    done = fresh_python(run, [json.dumps(argvs)], threads)
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(argvs), \
        done.stderr


def pinned_digests(tmp_path, prelude: str = "", threads: int = 1) -> dict:
    """sha256 of each PINNED artifact, written by `run_fresh`."""
    workloads = benchmark_workloads()
    cfgs = {}
    for name in ("drift", "transport"):
        cfgs[name] = str(tmp_path / (name + ".cfg"))
        workloads.write_config(workloads.WORKLOADS[name].config(0),
                               cfgs[name])
    argvs = [["drift-experiment", cfgs["drift"], "--out",
              str(tmp_path / "drift")]]
    argvs += [[command, cfgs["transport"], "--out", str(tmp_path / "transport")]
              for command in ("drift-experiment", "normalize")]
    readme = Path(__file__).resolve().parent.parent / "README.md"
    config = [b for b in re.findall(r"```\n(.*?)```", readme.read_text(), re.S)
              if b.startswith("model")]
    p = write_cfg(tmp_path / "run.cfg", [config[0]])
    out = str(tmp_path / "readme")
    argvs += [["normalize", p, "--out", out],
              ["scan-resonances", p, "--out", out],
              ["simulate", p, "--set", "eps=0.05", "--out", out]]
    run_fresh(argvs, prelude, threads)
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED}


def test_pinned_artifacts_at_one_blas_thread(tmp_path):
    assert pinned_digests(tmp_path) == PINNED


def test_pinned_drift_csvs_at_two_blas_threads(tmp_path):
    # the benchmark runs at two threads, and its drift.csv files keep their
    # bits there; the README nf.json does not (its quartic's product rounds
    # by the thread count)
    digests = pinned_digests(tmp_path, threads=2)
    for name in ("drift/drift.csv", "transport/drift.csv"):
        assert digests[name] == PINNED[name]


# refuse every read of the `terms` view, of an empty polynomial too
NO_TERMS_VIEW = """\
from bnfsim import poly
def refuse(self):
    raise AssertionError("a command path read Polynomial.terms")
poly.Polynomial.terms = property(refuse)
"""


def test_command_paths_read_no_terms_view(tmp_path):
    # normalize and drift-experiment on the transport config, normalize,
    # scan-resonances and simulate on the README's, all from the entries
    assert pinned_digests(tmp_path, NO_TERMS_VIEW) == PINNED


# refuse the term texts inside the normal form: only nf.json keys the
# membership flags by them
NO_MEMBERSHIP_TEXT = """\
from bnfsim import birkhoff
def refuse(*args, **kwargs):
    raise AssertionError("normalize built the membership text")
birkhoff.term_texts = refuse
"""


def test_normalize_builds_no_membership_text(tmp_path):
    # drift-experiment normalizes the transport config and writes no
    # nf.json; both normalize commands still write theirs
    assert pinned_digests(tmp_path, NO_MEMBERSHIP_TEXT) == PINNED


# the flat torus: no potential, so every group is a whole shell
FLAT = ['model = "nls_dd"', "d = 2", "jmax = 3", "r = 3", "r_star = 2",
        "N = 2", "gamma = 1e-4"]

# sha256 of hits.csv of scan-resonances at one BLAS thread, per (config,
# jmax): the group search over the d-torus lattice
LATTICE_HITS = {
    # 14,292 hits
    ("dd", 8):
        "fc040d974a5721516991f1b7ecdc1d6da6d679582eef71195aa802fba05140be",
    ("dd", 6):
        "642f6cacf9e4ae65b68b543c3ab8dda0b4ff8a69b11b5e75f1b5d9fae1de72b3",
    # 94,176 hits
    ("flat", 3):
        "ad1be9e42ec32e59691b28f5671218f53b8e204619d2e905bf119c17e6e53f15",
}


def test_pinned_lattice_hits_at_one_blas_thread(tmp_path):
    cfgs = {"dd": write_cfg(tmp_path / "dd.cfg", DD_DEEP),
            "flat": write_cfg(tmp_path / "flat.cfg", FLAT)}
    out = {key: tmp_path / ("%s-%d" % key) for key in LATTICE_HITS}
    run_fresh([["scan-resonances", cfgs[name], "--set", "jmax=%d" % jmax,
                "--out", str(out[name, jmax])]
               for name, jmax in LATTICE_HITS])
    assert {key: hashlib.sha256((out[key] / "hits.csv").read_bytes()
                                ).hexdigest()
            for key in LATTICE_HITS} == LATTICE_HITS


def test_every_builder_parameter_but_the_potentials_is_a_config_key():
    # so no builder parameter is out of a config's reach
    for model, params in PARAMETERS.items():
        rest = {name for name in params if not name.startswith("potential")}
        assert rest <= set(cli.KEYS), model


def test_jmax_is_a_radius_exactly_on_models_with_a_dimension(tmp_path,
                                                             capsys):
    # nls_dd leaves d at its builder's default, 2
    table = cli.build_system({"model": "nls_dd", "jmax": 2.5}, 0).table
    assert len(table.modes()) == 21
    assert max(sum(c * c for c in m) for m in table.modes()) == 5
    p = write_cfg(tmp_path / "j.cfg", ['model = "nls1d_dirichlet"',
                                       "jmax = 2.5"])
    assert cli.main(["normalize", p, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "bnfsim: jmax: expected an integer >= 1\n"


# each model's config keys, pinned
MODEL_KEYS = {
    "demo_2mode": {"kappa"},
    "nls1d_dirichlet": {"jmax", "kappa", "basis_size", "quad_n"},
    "nlw_dirichlet": {"jmax", "kappa", "basis_size", "quad_n", "mass"},
    "nlw_periodic": {"jmax", "kappa", "basis_size", "quad_n", "mass"},
    "nls_coupled": {"jmax", "kappa", "basis_size", "quad_n"},
    "nls_dd": {"d", "jmax", "kappa"},
}


def build_only(cfg, outdir):
    cli.build_system(cfg, 0)
    return []


@pytest.mark.parametrize("model", sorted(MODEL_KEYS))
def test_model_only_keys_exit_2_exactly_off_their_models(tmp_path, capsys,
                                                         monkeypatch, model):
    assert set(cli._MODEL_KEYS[model]) == MODEL_KEYS[model]
    monkeypatch.setitem(cli.COMMANDS, "normalize", build_only)
    values = {"mass": 0.5, "basis_size": 64, "quad_n": 512, "d": 1}
    for key, value in values.items():
        p = write_cfg(tmp_path / "k.cfg", ['model = "%s"' % model, "jmax = 3",
                                           "%s = %s" % (key, value)])
        rc = cli.main(["normalize", p, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if key in MODEL_KEYS[model]:
            assert (rc, err) == (0, "")
        else:
            assert (rc, err) == (2, "bnfsim: %s: not a key of model %s\n"
                                 % (key, model))
