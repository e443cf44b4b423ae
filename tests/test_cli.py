"""End-to-end checks of the command line front end."""

import csv
import hashlib
import json
import os
import re
from pathlib import Path

import pytest

from bnfsim import cli
from bnfsim.poly import from_text


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
    assert "resonance hits" in text
    assert "drift [demo_2mode]" in text
    assert "energy residual" in text
    assert (tmp_path / "out" / "report.txt").read_text() == text
    # one manifest entry per subcommand, none clobbered
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(man) == {"normalize", "scan-resonances", "simulate",
                        "drift-experiment", "report"}
    # frames.csv exists with the expected header
    frames = (tmp_path / "out" / "frames.csv").read_text().splitlines()
    assert frames[0] == "model,eps,seed,t,mode,I"
    assert len(frames) > 10


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
    rows = (tmp_path / "out" / "measure.csv").read_text().splitlines()
    assert rows[0].startswith("gamma,threshold,samples")
    assert len(rows) == 3
    # same seed, same numbers
    out2 = str(tmp_path / "out2")
    assert cli.main(["measure-estimate", p, "--out", out2]) == 0
    assert (tmp_path / "out2" / "measure.csv").read_text() == \
        "\n".join(rows) + "\n"


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
    assert cli.INCOMPLETE in capsys.readouterr().err
    with open(os.path.join(out, "measure.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["complete"] for r in rows] == ["0"]
    assert cli.main(["report", p, "--out", out]) == 0
    assert "complete=0" in capsys.readouterr().out


def test_readme_config_runs_as_printed(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```\n(.*?)```", fh.read(), re.S)
    config = [b for b in blocks if b.startswith("model")]
    assert len(config) == 1
    p = tmp_path / "run.cfg"
    p.write_text(config[0])
    out = str(tmp_path / "out")
    for sub in ("normalize", "scan-resonances"):
        assert cli.main([sub, str(p), "--out", out]) == 0, sub


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
    # sign mismatch between T and dt is rejected inside the integrator
    p = write_cfg(tmp_path / "x.cfg", DEMO + ["T = -1.0",
                                              "integrator.dt = 1.0"])
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

