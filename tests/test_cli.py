"""Command-line front door: config loading, point parsing, verb
round-trips, artifact layout, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from cuspdecay import cli, hardy
from cuspdecay.errors import ConfigurationError, InvalidInputError

FROZEN = "theta = 0.5\nc = 1.456697e-3\nk_hat = 2.519054\n"


@pytest.fixture()
def frozen_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FROZEN)
    return str(path)


def test_parse_point_forms():
    assert cli.parse_point("1+0i") == 1 + 0j
    assert cli.parse_point("-0.3-0.2i") == complex(-0.3, -0.2)
    assert cli.parse_point("i") == 1j
    assert cli.parse_point("2I") == 2j
    assert cli.parse_point(" 0.5 ") == 0.5 + 0j
    assert cli.parse_point("1-1j") == 1 - 1j
    assert cli.parse_point("(1+2i)") == 1 + 2j
    assert cli.parse_point("1+2J") == 1 + 2j
    with pytest.raises(InvalidInputError):
        cli.parse_point("")
    with pytest.raises(InvalidInputError):
        cli.parse_point("abc")


def test_parse_symbol():
    assert cli.parse_symbol("paper") == "paper"
    assert cli.parse_symbol("diagonal") == "diagonal"
    assert cli.parse_symbol("one-dim") == "one-dim"
    assert cli.parse_symbol("scaled:0.3") == ("scaled", 0.3)
    with pytest.raises(ConfigurationError):
        cli.parse_symbol("scaled:abc")
    with pytest.raises(ConfigurationError):
        cli.parse_symbol("scaled:0.95")
    with pytest.raises(ConfigurationError):
        cli.parse_symbol("bogus")


def test_load_config_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(
        "# comment line\n"
        "theta = 0.5   # trailing comment\n"
        "\n"
        "degree=16\n"
        "quad = 256\n"
        "out = somewhere\n")
    cfg = cli.load_config(str(path), {})
    assert cfg.theta == 0.5 and cfg.degree == 16 and cfg.quad == 256
    assert cfg.out == "somewhere"
    assert cfg.c is None and cfg.symbol == "paper"


def test_load_config_errors(tmp_path):
    bad_key = tmp_path / "k.cfg"
    bad_key.write_text("theta = 0.5\nwidth = 3\n")
    with pytest.raises(ConfigurationError, match=r"k\.cfg:2: unknown"):
        cli.load_config(str(bad_key), {})

    bad_val = tmp_path / "v.cfg"
    bad_val.write_text("degree = twelve\n")
    with pytest.raises(ConfigurationError, match=r"v\.cfg:1: bad value"):
        cli.load_config(str(bad_val), {})

    no_eq = tmp_path / "e.cfg"
    no_eq.write_text("degree 12\n")
    with pytest.raises(ConfigurationError, match=r"e\.cfg:1: expected"):
        cli.load_config(str(no_eq), {})

    lone_c = tmp_path / "c.cfg"
    lone_c.write_text("c = 1e-3\n")
    with pytest.raises(ConfigurationError, match="together"):
        cli.load_config(str(lone_c), {})

    with pytest.raises(ConfigurationError, match="cannot read"):
        cli.load_config(str(tmp_path / "missing.cfg"), {})


def test_out_dir_precedence(tmp_path, monkeypatch):
    path = tmp_path / "o.cfg"
    path.write_text("out = from_file\n")
    monkeypatch.delenv(cli.OUT_ENV, raising=False)
    assert cli.load_config(str(path), {}).out == "from_file"
    monkeypatch.setenv(cli.OUT_ENV, "from_env")
    assert cli.load_config(str(path), {}).out == "from_env"
    # an explicit flag still wins over the environment
    assert cli.load_config(str(path), {"out": "from_flag"}).out == "from_flag"


def test_runconfig_hash_and_stamp():
    a = cli.RunConfig()
    b = cli.RunConfig()
    c = cli.RunConfig(seed=18)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    # neither the output directory nor precision changes a number
    assert cli.RunConfig(out="elsewhere").hash() == a.hash()
    assert cli.RunConfig(precision="extended").hash() == a.hash()
    assert len(a.hash()) == 12 and int(a.hash(), 16) >= 0
    assert a.stamp() == "config %s seed 17" % a.hash()


def test_runconfig_validation():
    with pytest.raises(ConfigurationError):
        cli.RunConfig(precision="quad").validate()
    with pytest.raises(ConfigurationError):
        cli.RunConfig(degree=16, quad=32).validate()
    with pytest.raises(ConfigurationError):
        cli.RunConfig(theta=1.5).validate()
    with pytest.raises(ConfigurationError):
        cli.RunConfig(g_kind="cubic").validate()
    with pytest.raises(ConfigurationError):
        cli.RunConfig(samples=-1).validate()
    with pytest.raises(ConfigurationError):
        cli.RunConfig(symbol="scaled:2").validate()


def _rows(path):
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1].startswith("z_re,z_im,chi0_re")
    return [[float(x) for x in ln.split(",")] for ln in lines[2:]]


def test_map_eval_golden_points(tmp_path, frozen_cfg):
    out = str(tmp_path / "art")
    rc = cli.main(["map-eval", "--config", frozen_cfg, "--out", out,
                   "--point=1+0i", "--point=-1+0i", "--point", "0.5"])
    assert rc == 0
    rows = _rows(os.path.join(out, "map_eval.csv"))
    assert len(rows) == 3
    z1, zm1 = rows[0], rows[1]
    # z = 1: fixed point of the cusp, zero damping
    assert z1[0] == 1.0 and abs(z1[2]) < 1e-15 and abs(z1[3]) < 1e-15
    assert z1[4] == 1.0 and z1[5] == 0.0
    assert z1[10] == 1.0 and z1[11] == 0.0
    # z = -1: chi0 = 1, chi = 0, damping exp(-(1-0)^(-1/2)) = 1/e
    assert zm1[2] == 1.0 and abs(zm1[3]) < 1e-15
    assert abs(zm1[4]) < 1e-15 and abs(zm1[5]) < 1e-15
    w2_expect = -1.456697e-3 * math.exp(-1.0)
    assert abs(zm1[10] - w2_expect) < 1e-15 and abs(zm1[11]) < 1e-15


def test_map_eval_points_file(tmp_path, frozen_cfg):
    pts = tmp_path / "pts.txt"
    pts.write_text("# probe set\n0.25+0.1i\n\n-0.5\n")
    out = str(tmp_path / "art")
    rc = cli.main(["map-eval", "--config", frozen_cfg, "--out", out,
                   "--points", str(pts)])
    assert rc == 0
    assert len(_rows(os.path.join(out, "map_eval.csv"))) == 2


def test_map_eval_error_paths(tmp_path, frozen_cfg, capsys):
    out = str(tmp_path / "art")
    base = ["map-eval", "--config", frozen_cfg, "--out", out]
    assert cli.main(base + ["--point", "abc"]) == 2
    assert cli.main(base) == 2  # neither style
    pts = tmp_path / "p.txt"
    pts.write_text("0.5\n")
    assert cli.main(base + ["--point", "0.5", "--points", str(pts)]) == 2
    assert cli.main(base + ["--point", "2+0i"]) == 2  # outside the disk
    capsys.readouterr()
    assert cli.main(base + ["--point", "0.5", "--point", "nan"]) == 2
    assert "arg:2: point is not finite" in capsys.readouterr().err
    for spelling in ("inf", "-inf"):  # '=' keeps argparse off "-inf"
        assert cli.main(base + ["--point=" + spelling]) == 2
        assert "arg:1: point is not finite" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nxyz\n")
    capsys.readouterr()
    assert cli.main(base + ["--points", str(bad)]) == 2
    assert "bad.txt:2" in capsys.readouterr().err
    empty = tmp_path / "none.txt"
    empty.write_text("# only comments\n")
    assert cli.main(base + ["--points", str(empty)]) == 2


def test_map_eval_extended_precision(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(FROZEN + "precision = extended\n")
    out = str(tmp_path / "art")
    rc = cli.main(["map-eval", "--config", str(cfgfile), "--out", out,
                   "--point", "0.23"])
    assert rc == 0
    lines = open(os.path.join(out, "map_eval.csv")).read().splitlines()
    assert "precision extended" in lines[0]
    cells = lines[2].split(",")
    assert len(cells) == 12
    from cuspdecay import maps
    assert abs(float(cells[4]) - maps.cusp_values(0.23).real) < 1e-13


def test_calibrate_verb(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("samples = 10000\ncalibration_samples = 20000\n")
    out = str(tmp_path / "art")
    rc = cli.main(["calibrate", "--config", str(cfgfile), "--out", out])
    assert rc == 0
    payload = json.load(open(os.path.join(out, "params.json")))
    assert payload["params"]["c"] > 0.0
    assert payload["params"]["theta"] == 0.5
    assert 0.0 < payload["margins"]["reach_min"] < 1.0
    assert len(payload["config"]) == 12
    assert payload["budgets"]["validation_count"] == 20000
    assert "wrote" in capsys.readouterr().out


def test_matrix_verb_roundtrip(tmp_path, frozen_cfg, capsys):
    out = str(tmp_path / "art")
    rc = cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                   "--degree", "6", "--quad", "32"])
    assert rc == 0
    npz = os.path.join(out, "matrix_paper_d6_q32.npz")
    csv = os.path.join(out, "matrix_paper_d6_q32.csv")
    assert os.path.exists(npz) and os.path.exists(csv)
    om = hardy.load_matrix(npz)
    assert om.max_degree == 6 and om.quad_points == 32 and om.kind == "paper"
    assert om.entries.shape == (49, 49)
    assert "hs_norm_squared" in capsys.readouterr().out
    # the matrix verb only covers the two-variable symbols
    assert cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                     "--symbol", "one-dim"]) == 2


def test_spectrum_paper_small_degree_fails_honestly(tmp_path, frozen_cfg,
                                                    capsys):
    # at degree 16 the truncation floor eats all but 2 schedule points:
    # the fit refuses rather than reporting a junk slope
    out = str(tmp_path / "art")
    rc = cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                   "--degree", "16", "--quad", "256"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # the raw spectrum csv is still written for inspection
    assert os.path.exists(os.path.join(out, "spectrum_paper.csv"))


def test_spectrum_one_dim_verb(tmp_path, frozen_cfg):
    out = str(tmp_path / "art")
    rc = cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                   "--symbol", "one-dim", "--degree", "32", "--quad", "256"])
    assert rc == 0
    payload = json.load(open(os.path.join(out, "one_dim.json")))
    assert payload["symbol"] == "one-dim" and payload["degree"] == 32
    assert [r["n"] for r in payload["trend"]] == [1, 2, 4, 8, 16, 32]
    assert payload["tail_bound"] > 0.0
    for r in payload["trend"]:
        assert r["root_lower"] <= r["root_upper"]
    lines = open(os.path.join(out, "one_dim.csv")).read().splitlines()
    assert lines[1] == "n,lower,upper,root_lower,root_upper"
    assert len(lines) == 2 + 6


def test_verify_verb_reruns_identically(tmp_path, frozen_cfg):
    cfgfile = tmp_path / "v.cfg"
    cfgfile.write_text(FROZEN + "samples = 10000\n"
                       "calibration_samples = 10000\ntrials = 5\n")
    out = str(tmp_path / "art")
    args = ["verify", "--config", str(cfgfile), "--out", out]
    assert cli.main(args) == 0
    path = os.path.join(out, "verify.json")
    payload = json.load(open(path))
    assert payload["passed"] is True
    assert [r["suite"] for r in payload["reports"]] == [
        "cusp_geometry", "calibration", "covering_n10", "covering_n100",
        "covering_n1000", "derivative_bound", "schwarz_bound", "codim_count"]
    first = open(path, "rb").read()
    assert cli.main(args) == 0
    assert open(path, "rb").read() == first
    # the output directory is not part of the run: same bytes elsewhere
    other = str(tmp_path / "other")
    assert cli.main(args[:-1] + [other]) == 0
    assert open(os.path.join(other, "verify.json"), "rb").read() == first


def test_verify_rejects_zero_budget(tmp_path, capsys):
    cfgfile = tmp_path / "z.cfg"
    cfgfile.write_text("samples = 0\n")
    assert cli.main(["verify", "--config", str(cfgfile),
                     "--out", str(tmp_path / "art")]) == 2
    assert "positive" in capsys.readouterr().err


def test_report_verb(tmp_path, frozen_cfg, capsys):
    out = str(tmp_path / "art")
    assert cli.main(["report", "--config", frozen_cfg, "--out", out]) == 1
    cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
              "--symbol", "one-dim", "--degree", "32", "--quad", "256"])
    cfgfile = tmp_path / "v.cfg"
    cfgfile.write_text(FROZEN + "samples = 10000\n"
                       "calibration_samples = 10000\ntrials = 5\n")
    cli.main(["verify", "--config", str(cfgfile), "--out", out])
    capsys.readouterr()
    assert cli.main(["report", "--config", frozen_cfg, "--out", out]) == 0
    md = open(os.path.join(out, "report.md")).read()
    assert md.startswith("# Run report")
    assert "## one_dim.json" in md and "## verify.json" in md
    assert "- cusp_geometry: pass" in md
    payload = json.load(open(os.path.join(out, "report.json")))
    assert set(payload["artifacts"]) == {"one_dim.json", "verify.json"}


def test_unknown_verb_exits_via_argparse():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit):
        cli.main([])
