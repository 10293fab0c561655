"""Command-line front door: config loading, point parsing, verb
round-trips, artifact layout and formats, exit codes, no library name
that only the tests use, artifact I/O in cli alone, and the signatures
the benchmark's hooks bind."""

import ast
import dataclasses
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cuspdecay import cli, hardy, maps, spectrum
from cuspdecay.errors import ConfigurationError

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
    with pytest.raises(ConfigurationError, match="empty point"):
        cli.parse_point("")
    with pytest.raises(ConfigurationError, match="cannot parse 'abc'"):
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


def test_out_dir_precedence(tmp_path):
    path = tmp_path / "o.cfg"
    path.write_text("out = from_file\n")
    assert cli.load_config(str(path), {}).out == "from_file"
    # an explicit flag wins over the file
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
    with pytest.raises(ConfigurationError, match="seed"):
        cli.RunConfig(seed=-1).validate()
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


def test_quad_rules_bind_only_the_uniform_grid_symbols(tmp_path, frozen_cfg):
    # Q a power of two >= 4(D+1) is a rule of the uniform grid, which
    # only paper and diagonal run on; D >= 1 holds for every symbol
    for symbol in ("one-dim", "scaled:0.5"):
        cli.RunConfig(symbol=symbol, degree=300, quad=1000).validate()
        with pytest.raises(ConfigurationError, match="D >= 1"):
            cli.RunConfig(symbol=symbol, degree=0).validate()
    out = str(tmp_path / "art")
    assert cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                     "--symbol", "one-dim", "--degree", "300"]) == 0
    assert json.load(open(os.path.join(out, "one_dim.json")))["degree"] == 300
    for symbol in ("paper", "diagonal"):
        assert cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                         "--symbol", symbol, "--degree", "300",
                         "--quad", "1024"]) == 2


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
    assert 0.0 < payload["margins"]["reach_fraction"] < 1.0
    assert len(payload["config"]) == 12
    assert payload["budgets"] == {"k_samples": 10000}
    assert "wrote" in capsys.readouterr().out


def test_matrix_verb_roundtrip(tmp_path, frozen_cfg, capsys):
    out = str(tmp_path / "art")
    rc = cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                   "--degree", "6", "--quad", "32"])
    assert rc == 0
    npz = os.path.join(out, "matrix_paper_d6_q32.npz")
    csv = os.path.join(out, "matrix_paper_d6_q32.csv")
    assert os.path.exists(npz) and os.path.exists(csv)
    om = np.load(npz, allow_pickle=False)
    assert int(om["max_degree"]) == 6 and int(om["quad_points"]) == 32
    assert str(om["kind"]) == "paper"
    assert om["entries"].shape == (49, 49)
    assert "hs_norm_squared" in capsys.readouterr().out
    # the matrix verb only covers the two-variable symbols
    assert cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                     "--symbol", "one-dim"]) == 2


def _assembled(frozen_cfg, degree, quad):
    cfg = cli.load_config(frozen_cfg, {"degree": degree, "quad": quad})
    return cfg, hardy.assemble_matrix(cli.resolve_params(cfg), degree, quad)


def test_matrix_npz_roundtrip(tmp_path, frozen_cfg):
    # every OperatorMatrix field reads back equal, the entries bitwise
    out = str(tmp_path / "art")
    assert cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                     "--degree", "3", "--quad", "64"]) == 0
    _, om = _assembled(frozen_cfg, 3, 64)
    back = np.load(os.path.join(out, "matrix_paper_d3_q64.npz"),
                   allow_pickle=False)
    for key, value in dataclasses.asdict(om).items():
        assert np.array_equal(back[key], value), key
    assert back["entries"].dtype == om.entries.dtype
    assert back["entries"].tobytes() == om.entries.tobytes()
    assert str(back["kind"]) == "paper"


def test_matrix_csv(tmp_path, frozen_cfg):
    # two comment rows, then one row per beta of re,im pairs across
    # alpha: each re is the entry to the last bit, each im is 0
    out = str(tmp_path / "art")
    assert cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                     "--degree", "2", "--quad", "32"]) == 0
    cfg, om = _assembled(frozen_cfg, 2, 32)
    lines = open(os.path.join(out, "matrix_paper_d2_q32.csv")).read() \
        .splitlines()
    assert lines[0] == "# D=2 Q=32 kind=paper params_hash=" + cfg.stamp()
    assert lines[1] == "# row=beta col=alpha, complex entries as re,im pairs"
    assert len(lines) == 2 + 9
    for line, row in zip(lines[2:], om.entries):
        cells = line.split(",")
        assert len(cells) == 2 * 9
        assert cells[1::2] == ["0"] * 9
        assert [float(c) for c in cells[0::2]] == row.tolist()


def test_spectrum_csv(tmp_path, frozen_cfg):
    # stamp, header, one row per n with n^2 <= (D+1)^2; resolved = 0
    # exactly when lower is at or under the noise floor, and upper is
    # lower + tail on a resolved row, noise floor + tail on the others
    out = str(tmp_path / "art")
    assert cli.main(["spectrum", "--config", frozen_cfg, "--out", out]) == 0
    cfg = cli.load_config(frozen_cfg, {})
    decay = json.load(open(os.path.join(out, "decay_paper.json")))
    lines = open(os.path.join(out, "spectrum_paper.csv")).read().splitlines()
    assert lines[0] == "# " + cfg.stamp()
    assert lines[1] == "n,lower,upper,resolved"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, 50))
    for n, lower, upper, resolved in rows:
        assert resolved == str(int(float(lower) > decay["noise_floor"]))
        assert float(upper) == (float(lower) if resolved == "1" else
                                decay["noise_floor"]) + decay["tail_bound"]
    assert rows[7][3] == "0" and rows[8][3] == "0"


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


def test_spectrum_diagonal_default_degree_fails_honestly(tmp_path, frozen_cfg,
                                                        capsys):
    # the diagonal symbol ignores c, so this holds at every seed: at the
    # default degree 48 only n = 1..3 clear the 10 x tail floor and the
    # fit refuses (degree 64 fits n = 1..4)
    out = str(tmp_path / "art")
    rc = cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                   "--symbol", "diagonal"])
    assert rc == 1
    assert "only 3 of 7 points exceed the floor" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "spectrum_diagonal.csv"))
    assert not os.path.exists(os.path.join(out, "decay_diagonal.json"))


@pytest.mark.parametrize("degree", [64, 120])
def test_spectrum_diagonal_beta_minus_skips_noise_rows(tmp_path, frozen_cfg,
                                                      degree):
    # beta_minus reads the kept upper half of n = 1..isqrt(D+1): at
    # D = 64 (n = 5..8) only a_25 clears the noise floor, so beta_minus
    # is a_25^(1/5); at D = 120 (n = 6..11) none does, and the verb still
    # writes decay_diagonal.json with beta_minus 0, an honest lower bound
    out = str(tmp_path / "art")
    assert cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                     "--symbol", "diagonal", "--degree", str(degree)]) == 0
    decay = json.load(open(os.path.join(out, "decay_diagonal.json")))
    lines = open(os.path.join(out, "spectrum_diagonal.csv")).read()
    rows = [line.split(",") for line in lines.splitlines()[2:]]  # a_{n^2}
    kept = range(math.isqrt(degree + 1) // 2 + 1, math.isqrt(degree + 1) + 1)
    lows = [float(rows[n - 1][1]) ** (1 / n) for n in kept
            if rows[n - 1][3] == "1"]
    assert [n for n in kept if rows[n - 1][3] == "1"] == (
        [5] if degree == 64 else [])
    assert decay["beta"]["beta_minus"] == min(lows, default=0.0)
    assert decay["beta"]["beta_plus"] == max(
        float(rows[n - 1][2]) ** (1 / n) for n in kept)
    # a zeroed row reads [0, noise floor + tail]: at D = 120 the tail
    # rounds to 0 and a_36 ~ 2.9e-10 still lies under the upper endpoint
    assert all(float(r[2]) >= decay["noise_floor"] for r in rows)


def test_spectrum_constant_one_default_degree_fails_honestly(tmp_path,
                                                           capsys):
    # g = 1 at the default degree 48: only n = 1..3 clear the 10 x tail
    # floor and the fit refuses; degree 64 fits n = 1..4 with r^2 0.961
    cfgfile = tmp_path / "c1.cfg"
    cfgfile.write_text(FROZEN + "g_kind = constant_one\n")
    out = str(tmp_path / "art")
    rc = cli.main(["spectrum", "--config", str(cfgfile), "--out", out])
    assert rc == 1
    assert "only 3 of 7 points exceed the floor" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "spectrum_paper.csv"))
    assert not os.path.exists(os.path.join(out, "decay_paper.json"))


def test_spectrum_paper_verb_records_noise_floor(tmp_path, frozen_cfg):
    # degree 48: the eigensolver floor sqrt(eps * lambda_max) ~ 1.8e-8
    # sits under the 10 x tail floor, which selects the fitted points
    out = str(tmp_path / "art")
    assert cli.main(["spectrum", "--config", frozen_cfg, "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "decay_paper.json")))
    assert 1e-8 < payload["noise_floor"] < 1e-7
    assert payload["noise_floor"] < 10.0 * payload["tail_bound"]
    assert payload["fit"]["usable_n"] == [1, 2, 3, 4]


def test_spectrum_paper_verb_reruns_byte_identical(tmp_path, frozen_cfg):
    # the route draws no random number, so a rerun repeats every byte
    outs = [str(tmp_path / name) for name in ("a", "b")]
    for out in outs:
        assert cli.main(["spectrum", "--config", frozen_cfg,
                         "--out", out]) == 0
    for name in ("spectrum_paper.csv", "decay_paper.json"):
        first, second = (open(os.path.join(o, name), "rb").read()
                         for o in outs)
        assert first == second
    payload = json.load(open(os.path.join(outs[0], "decay_paper.json")))
    assert payload["t2_modes"] == 3
    # the radicand HS^2 - tr G (3.2e-10 of HS^2 = 2.26 at degree 48) is
    # recorded signed, before the tail clamps it
    assert 2.0 < payload["hs_sq"] < 2.5
    assert 0.0 < payload["tail_radicand"] <= payload["tail_bound"] ** 2
    csv_path = os.path.join(outs[0], "spectrum_paper.csv")
    rows = open(csv_path).read().splitlines()[1:]
    assert rows[0] == "n,lower,upper,resolved"
    # a_49 = 5.4e-8 is the last value above the 1.8e-8 noise floor
    assert [r.split(",")[3] for r in rows[1:]] == ["1"] * 7 + ["0"] * 42
    assert cli.main(["report", "--config", frozen_cfg, "--out", outs[0]]) == 0
    md = open(os.path.join(outs[0], "report.md")).read()
    assert "- t2 modes held: 3 of 49\n" in md
    assert "- tail radicand HS^2 - tr G = " in md


def test_spectrum_one_dim_verb(tmp_path, frozen_cfg):
    out = str(tmp_path / "art")
    rc = cli.main(["spectrum", "--config", frozen_cfg, "--out", out,
                   "--symbol", "one-dim", "--degree", "32", "--quad", "256"])
    assert rc == 0
    payload = json.load(open(os.path.join(out, "one_dim.json")))
    assert payload["symbol"] == "one-dim" and payload["degree"] == 32
    # the mesh is fixed: --quad 256 does not reach it
    assert payload["mesh"] == {"panels": 16, "nodes": 1736,
                               "cusp_floor": math.exp(-80.0)}
    assert [r["n"] for r in payload["trend"]] == [1, 2, 4, 8, 16, 32]
    assert payload["tail_bound"] > 0.0
    # eps * a_1, with a_1 ~ 1.09
    assert 2e-16 < payload["noise_floor"] < 3e-16
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


def test_verify_reports_do_not_depend_on_the_seed(tmp_path):
    # the seed draws K's disk sample, so it moves c and k_hat, which the
    # calibration and covering suites read; no suite draws, so the
    # reports of the other four are the same at two seeds, and the seed
    # appears only in the file's stamp
    cfgfile = tmp_path / "v.cfg"
    cfgfile.write_text("samples = 10000\ncalibration_samples = 10000\n"
                       "trials = 5\n")
    reports = {}
    for seed in (17, 18):
        out = tmp_path / str(seed)
        assert cli.main(["verify", "--config", str(cfgfile), "--seed",
                         str(seed), "--out", str(out)]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["seed"] == seed
        reports[seed] = {r["suite"]: r for r in payload["reports"]}
    for suite in ("cusp_geometry", "derivative_bound", "schwarz_bound",
                  "codim_count"):
        assert reports[17][suite] == reports[18][suite]
    assert reports[17]["calibration"] != reports[18]["calibration"]


@pytest.mark.parametrize("key", ["samples", "calibration_samples", "trials"])
def test_load_config_rejects_zero_budget(tmp_path, key):
    cfgfile = tmp_path / "z.cfg"
    cfgfile.write_text("%s = 0\n" % key)
    with pytest.raises(ConfigurationError, match="positive"):
        cli.load_config(str(cfgfile), {})
    if key != "trials":  # the sample suites' and K's floor
        cfgfile.write_text("%s = 9999\n" % key)
        with pytest.raises(ConfigurationError, match="at least 10000"):
            cli.load_config(str(cfgfile), {})


def test_verify_rejects_zero_budget(tmp_path, capsys, monkeypatch):
    # a budget under the floor dies at load, before calibration runs
    def no_calibration(*args):
        raise AssertionError("calibrated before rejecting the budget")

    monkeypatch.setattr(maps, "build_params", no_calibration)
    cfgfile = tmp_path / "z.cfg"
    for budget, message in (("samples = 0", "positive"),
                            ("samples = 9999", "at least 10000"),
                            ("calibration_samples = 9999", "at least 10000")):
        cfgfile.write_text(budget + "\n")
        assert cli.main(["verify", "--config", str(cfgfile),
                         "--out", str(tmp_path / "art")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["calibrate", "verify", "spectrum"])
def test_negative_seed_is_a_configuration_error(tmp_path, capsys, verb):
    # np.random.SeedSequence takes no negative seed; the config says so
    # at load time, before any sample is drawn
    assert cli.main([verb, "--seed", "-1",
                     "--out", str(tmp_path / "art")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("verb", ["matrix", "spectrum", "verify", "map-eval"])
def test_frozen_pair_past_the_reach_certificate(tmp_path, capsys, verb):
    # c = 0.9 sends the second coordinate out of the disk (q = 4.7), so
    # the pair dies at load time, before any artifact is written
    cfgfile = tmp_path / "loose.cfg"
    cfgfile.write_text("c = 0.9\nk_hat = 2.52\ndegree = 8\nquad = 64\n"
                       "samples = 10000\ncalibration_samples = 10000\n"
                       "trials = 5\n")
    point = ["--point", "0.23"] if verb == "map-eval" else []
    assert cli.main([verb, "--config", str(cfgfile),
                     "--out", str(tmp_path / "art")] + point) == 2
    assert "q = 4.70" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


_MPMATH_PROBE = """
import sys
from cuspdecay import cli
cfg, out, ext = sys.argv[1:]
assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
assert cli.main(["spectrum", "--config", cfg, "--out", out,
                 "--seed", "18"]) == 0
assert "mpmath" not in sys.modules, "verify or spectrum loaded mpmath"
assert cli.main(["map-eval", "--config", ext, "--out", out,
                 "--point", "0.23"]) == 0
assert "mpmath" in sys.modules
"""


def test_verify_and_spectrum_never_load_mpmath(tmp_path):
    # a fresh interpreter, since the test modules import mpmath; verify
    # calibrates on demand, so build_params runs too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 10000\ncalibration_samples = 10000\n"
                   "trials = 5\n")
    ext = tmp_path / "ext.cfg"
    ext.write_text(FROZEN + "precision = extended\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE, str(cfg), str(tmp_path / "art"),
         str(ext)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "art" / "map_eval.csv").exists()


def test_verify_rejects_nan_k_hat(tmp_path, capsys):
    # a nan K leaves the covering certificate no depth 1 - sigma^j0 / K
    # to compare with, so the pair is refused before any suite runs
    cfgfile = tmp_path / "k.cfg"
    cfgfile.write_text("c = 0.0014566968931649326\nk_hat = nan\n"
                       "samples = 10000\ncalibration_samples = 10000\n"
                       "trials = 5\n")
    assert cli.main(["verify", "--config", str(cfgfile),
                     "--out", str(tmp_path / "art")]) == 2
    assert "k_hat" in capsys.readouterr().err


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
    assert payload["seed"] == 17
    assert payload["config"] == cli.load_config(frozen_cfg, {}).hash()


@pytest.mark.parametrize("truncated", [True, False])
def test_report_rejects_an_unreadable_artifact(tmp_path, frozen_cfg, capsys,
                                               truncated):
    # a truncated params.json, or a directory in its place
    out = tmp_path / "art"
    out.mkdir()
    if truncated:
        (out / "params.json").write_text('{"params": {"theta": 0.5,')
    else:
        (out / "params.json").mkdir()
    assert cli.main(["report", "--config", frozen_cfg,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "params.json") + ": malformed artifact" in err
    assert ("JSONDecodeError" if truncated else "IsADirectoryError") in err
    assert sorted(os.listdir(out)) == ["params.json"]


def test_report_rejects_a_verify_report_without_passed(tmp_path, frozen_cfg,
                                                       capsys):
    # one_dim.json renders first; the verify section that fails after it
    # must still leave neither report.json nor report.md behind
    out = tmp_path / "art"
    cli.main(["spectrum", "--config", frozen_cfg, "--out", str(out),
              "--symbol", "one-dim", "--degree", "8", "--quad", "64"])
    (out / "verify.json").write_text(json.dumps(
        {"passed": True, "reports": [{"suite": "covering_n10"}]}))
    capsys.readouterr()
    assert cli.main(["report", "--config", frozen_cfg,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "verify.json") in err and "KeyError: 'passed'" in err
    assert not (out / "report.json").exists()
    assert not (out / "report.md").exists()


def test_unusable_out_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def no_calibration(*args):
        raise AssertionError("calibrated before checking --out")

    monkeypatch.setattr(maps, "build_params", no_calibration)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert cli.main(["calibrate", "--out", out]) == 2
    assert "cannot use output directory %r" % out in capsys.readouterr().err


def test_failed_verb_removes_the_directories_main_made(tmp_path, frozen_cfg):
    root = tmp_path / "outs"
    root.mkdir()
    made = root / "new" / "art"
    argv = ["map-eval", "--config", frozen_cfg, "--point=2+0i", "--out"]
    assert cli.main(argv + [str(made)]) == 2
    assert list(root.iterdir()) == []
    # a directory that was there stays
    kept = root / "kept"
    kept.mkdir()
    assert cli.main(argv + [str(kept / "art")]) == 2
    assert list(root.iterdir()) == [kept] and list(kept.iterdir()) == []
    # and so does one a failing verb wrote into, with its parents
    assert cli.main(["spectrum", "--config", frozen_cfg, "--symbol",
                     "diagonal", "--out", str(made)]) == 1
    assert [p.name for p in made.iterdir()] == ["spectrum_diagonal.csv"]


@pytest.mark.parametrize("argv, code, message", [
    (["calibrate", "--config", "{typo}"], 2, "unknown config key 'sampels'"),
    (["calibrate", "--config", "{binary}"], 2, "{binary}: cannot read config"),
    (["map-eval", "--config", "{cfg}", "--points", "{binary}"], 2,
     "{binary}: cannot read points"),
    (["map-eval", "--config", "{cfg}", "--point=2+0i"], 2,
     "arg:1: point outside the closed unit disk"),
    (["calibrate", "--config", "{cfg}", "--out", "{file}/sub"], 2,
     "cannot use output directory"),
    (["report", "--config", "{cfg}", "--out", "{broken}"], 2,
     "params.json: malformed artifact"),
    (["spectrum", "--config", "{cfg}", "--symbol", "diagonal"], 1,
     "only 3 of 7 points exceed the floor"),
], ids=["unknown-key", "binary-config", "binary-points", "off-disk-point",
        "unusable-out", "malformed-artifact", "fit-refuses"])
def test_exit_contract(tmp_path, argv, code, message):
    # 2 means the caller's config or input, 1 that the numbers said no;
    # either way the installed command prints one error line and no
    # traceback
    paths = {name: tmp_path / name
             for name in ("cfg", "typo", "binary", "file", "broken", "art")}
    paths["cfg"].write_text(FROZEN)
    paths["typo"].write_text(FROZEN + "sampels = 10000\n")
    paths["binary"].write_bytes(b"\xff\xfe theta = 0.5\n")
    paths["file"].write_text("")
    paths["broken"].mkdir()
    (paths["broken"] / "params.json").write_text('{"params": {')
    argv = [arg.format(**paths) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(paths["art"])]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cuspdecay.cli"] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message.format(**paths) in lines[0]
    # only the fit that refuses wrote into the directory main made
    assert paths["art"].exists() == (code == 1)


def _decay_payload(tail_bound, tail_radicand):
    return {"config": "0" * 12, "seed": 17, "symbol": "paper",
            "degree": 96, "quad": 1024, "tail_bound": tail_bound,
            "noise_floor": 1e-8, "hs_sq": 2.3,
            "tail_radicand": tail_radicand, "t2_modes": 6,
            "fit": {"rate": 2.7, "r_squared": 0.99},
            "beta": {"beta_minus": 0.1, "beta_plus": 0.2,
                     "schedule_exponent": 2}}


def test_report_flags_clamped_tail(tmp_path, frozen_cfg):
    # a radicand HS^2 - tr G at or under 0 is rounding, and the tail that
    # clamps it to 0 drops the 10 x tail term from the fit floor
    out = tmp_path / "art"
    out.mkdir()
    clamp = "- the column tail was clamped to 0 by rounding"
    for radicand, tail, line in (
            (-4.4e-16, 0.0,
             clamp + "; the fit floor is the noise floor alone\n"),
            (-4.4e-16, 1e-9, clamp + "\n"),
            (3.2e-10, 1.8e-5, None)):
        (out / "decay_paper.json").write_text(
            json.dumps(_decay_payload(tail, radicand)))
        assert cli.main(["report", "--config", frozen_cfg,
                         "--out", str(out)]) == 0
        md = (out / "report.md").read_text()
        if line is None:
            assert "clamped" not in md
        else:
            assert line in md


def test_unknown_verb_exits_via_argparse():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    with pytest.raises(SystemExit):
        cli.main([])


def test_artifact_contract(tmp_path, frozen_cfg):
    # the keys that the benchmark's output checks and the report verb
    # read from each artifact
    out = str(tmp_path / "art")
    assert cli.main(["spectrum", "--config", frozen_cfg, "--out", out]) == 0
    decay = json.load(open(os.path.join(out, "decay_paper.json")))
    assert set(decay) >= {"config", "seed", "symbol", "degree", "quad",
                          "tail_bound", "noise_floor", "hs_sq",
                          "tail_radicand", "t2_modes", "fit", "beta"}
    assert set(decay["fit"]) == {"intercept", "rate", "r_squared",
                                 "n_range", "usable_n"}
    assert isinstance(decay["fit"]["n_range"], list)
    assert isinstance(decay["fit"]["usable_n"], list)
    assert set(decay["beta"]) == {"schedule_exponent", "beta_minus",
                                  "beta_plus"}

    budgets = tmp_path / "b.cfg"
    budgets.write_text("samples = 10000\ncalibration_samples = 10000\n"
                       "trials = 5\n")
    assert cli.main(["calibrate", "--config", str(budgets),
                     "--out", out]) == 0
    params = json.load(open(os.path.join(out, "params.json")))
    names = {"theta", "c", "k_hat", "sigma", "j0", "g_kind"}
    assert set(params["params"]) == names
    assert set(params["margins"]) == {"reach_fraction"}

    budgets.write_text(FROZEN + "samples = 10000\n"
                       "calibration_samples = 10000\ntrials = 5\n")
    assert cli.main(["verify", "--config", str(budgets), "--out", out]) == 0
    verify = json.load(open(os.path.join(out, "verify.json")))
    assert set(verify) >= {"config", "seed", "passed", "reports"}
    for report in verify["reports"]:
        assert set(report) == {"suite", "samples", "passed", "violations",
                               "constants"}
        assert report["passed"] is True

    assert cli.main(["matrix", "--config", frozen_cfg, "--out", out,
                     "--degree", "2", "--quad", "32"]) == 0
    npz = np.load(os.path.join(out, "matrix_paper_d2_q32.npz"),
                  allow_pickle=False)
    assert {k for k in npz.files if k.startswith("params_")} \
        == {"params_" + name for name in names}
    assert str(npz["params_g_kind"]) == "identity_in_z2"
    assert int(npz["params_j0"]) == 21


def test_every_library_name_is_used_in_the_library():
    # the package holds only what its own verbs run: each top-level def,
    # class, method and assigned name of src/cuspdecay is loaded
    # somewhere in src/cuspdecay, as a name or as an attribute (dunders
    # exempt)
    package = pathlib.Path(cli.__file__).parent
    defined, loaded = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    unused = {n for n in defined - loaded
              if not (n.startswith("__") and n.endswith("__"))}
    assert sorted(unused) == []


_FILE_WRITERS = {"open", "np.save", "np.savez", "np.savez_compressed",
                 "json.dump"}


def test_artifact_io_only_in_cli():
    # the numeric layers return numbers; cli writes every artifact
    package = pathlib.Path(cli.__file__).parent
    calls = []
    for name in ("maps", "hardy", "spectrum", "verifier"):
        tree = ast.parse((package / (name + ".py")).read_text())
        calls += ["%s:%d %s" % (name, node.lineno, ast.unparse(node.func))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in _FILE_WRITERS]
    assert calls == []


def test_benchmark_hook_signatures():
    # the benchmark's tracer binds its counters to these parameter names,
    # and its worker calls the library with these arguments
    def names(func):
        return list(inspect.signature(func).parameters)

    assert names(maps.cusp_on_circle)[0] == "t"
    assert names(maps.cusp_values)[0] == "z"
    assert "t1" in names(hardy.symbol_boundary_data)
    assert names(spectrum.fit_decay)[:3] == ["spectrum", "schedule_exponent",
                                             "n_range"]
    assert names(spectrum.approximation_numbers)[:2] == ["spectrum", "n"]
    assert names(spectrum.one_dim_plateau)[:2] == ["scale", "block_size"]
    assert names(cli.load_config)[:2] == ["path", "overrides"]
