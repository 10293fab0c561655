"""Batch front door: flat-file configuration, experiment orchestration,
and plot-ready artifact emission.

Verbs
    map-eval    chain traces for explicit points  -> map_eval.csv
    calibrate   freeze symbol parameters          -> params.json
    matrix      assemble + store one truncation   -> matrix_<kind>.{npz,csv}
    spectrum    decay experiments                 -> spectrum_*.csv, *.json
    verify      run every verification suite      -> verify.json
    report      aggregate artifacts in --out      -> report.{json,md}

Config files are flat ``key = value`` text, `#` starts a comment,
unknown keys are errors (drift detection).  Keys:

    theta                 damping exponent in (0, 1)          [0.5]
    g_kind                identity_in_z2 | constant_one
    c, k_hat              frozen calibration pair; both or neither;
                          omitted -> calibrate on demand
    degree, quad          truncation: max degree, FFT points  [48, 1024]
    seed                  master RNG seed                     [17]
    out                   output directory                    [out]
    precision             double | extended                   [double]
    samples               per-suite sample budget             [100000]
    calibration_samples   calibration sample budget           [1000000]
    trials                randomized-instance count           [1000]
    symbol                paper | diagonal | one-dim | scaled:<r>

Flags override the file; CUSPDECAY_OUT overrides the configured output
directory (an explicit --out still wins).  Every artifact embeds the
12-hex config hash (all keys but out and precision) and the seed, and
re-running a double-precision config reproduces each file byte for
byte, into any output directory.  Exit codes: 0 success,
1 property/estimation failure, 2 configuration or parse error.

Extended precision re-evaluates the conformal chain and the damping
factor through mpmath (the stages that cancel catastrophically near
the cusp); dense linear algebra always runs in double.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np
from mpmath import mp

from . import hardy, maps, spectrum, verifier
from .errors import (
    ConfigurationError,
    CuspDecayError,
    DomainError,
    InvalidInputError,
)

OUT_ENV = "CUSPDECAY_OUT"
DISK_SLACK = 1e-14  # tolerated modulus overshoot for map-eval points

_SYMBOLS = ("paper", "diagonal", "one-dim")


@dataclass(frozen=True)
class RunConfig:
    theta: float = 0.5
    g_kind: str = "identity_in_z2"
    c: float | None = None
    k_hat: float | None = None
    degree: int = 48
    quad: int = 1024
    seed: int = 17
    out: str = "out"
    precision: str = "double"
    samples: int = 100_000
    calibration_samples: int = 1_000_000
    trials: int = 1000
    symbol: str = "paper"

    def validate(self) -> "RunConfig":
        """Re-check every constraint the numeric types would enforce,
        so a bad config dies at load time, not minutes into a run."""
        if self.precision not in ("double", "extended"):
            raise ConfigurationError(
                "precision must be double or extended, not %r" % self.precision)
        hardy.TruncationSpec(self.degree, self.quad)
        if (self.c is None) != (self.k_hat is None):
            raise ConfigurationError("c and k_hat must be overridden together")
        if self.c is not None:
            maps.SymbolParams(theta=self.theta, c=self.c, k_hat=self.k_hat,
                              g_kind=self.g_kind)
        elif not 0.0 < self.theta < 1.0:
            raise ConfigurationError("theta must lie in (0, 1)")
        elif self.g_kind not in maps._G_KINDS:
            raise ConfigurationError("unknown g_kind %r" % (self.g_kind,))
        parse_symbol(self.symbol)
        if min(self.samples, self.calibration_samples, self.trials) < 0:
            raise ConfigurationError("sample budgets cannot be negative")
        return self

    def hash(self) -> str:
        """12-hex digest of the fields that feed the numbers.  The output
        directory changes no artifact, and precision, read by map-eval
        alone, is recorded in its CSV header."""
        text = "".join("%s=%r\n" % (f.name, getattr(self, f.name))
                       for f in fields(self)
                       if f.name not in ("out", "precision"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def stamp(self) -> str:
        return "config %s seed %d" % (self.hash(), self.seed)


_CONVERT = {
    "theta": float, "g_kind": str, "c": float, "k_hat": float,
    "degree": int, "quad": int, "seed": int, "out": str, "precision": str,
    "samples": int, "calibration_samples": int, "trials": int, "symbol": str,
}


def parse_symbol(text: str):
    """'paper' | 'diagonal' | 'one-dim' | 'scaled:<r>' -> tag or
    ('scaled', r)."""
    if text in _SYMBOLS:
        return text
    if text.startswith("scaled:"):
        try:
            r = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError("bad scale in symbol %r" % text) from None
        if not 0.0 < r <= 0.9:
            raise ConfigurationError("scaled symbol needs r in (0, 0.9]")
        return ("scaled", r)
    raise ConfigurationError(
        "symbol must be one of %s or scaled:<r>, not %r"
        % ("/".join(_SYMBOLS), text))


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """File -> env -> flags, later wins; unknown keys and unparseable
    values are configuration errors with the offending line."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigurationError("cannot read config: %s" % exc) from exc
        for i, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    "%s:%d: expected key = value" % (path, i))
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONVERT:
                raise ConfigurationError(
                    "%s:%d: unknown config key %r" % (path, i, key))
            try:
                values[key] = _CONVERT[key](val)
            except ValueError:
                raise ConfigurationError(
                    "%s:%d: bad value %r for key %r"
                    % (path, i, val, key)) from None
    env_out = os.environ.get(OUT_ENV)
    if env_out:
        values["out"] = env_out
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc
    return cfg.validate()


def resolve_params(cfg: RunConfig) -> maps.SymbolParams:
    if cfg.c is not None:
        return maps.SymbolParams(theta=cfg.theta, c=cfg.c, k_hat=cfg.k_hat,
                                 g_kind=cfg.g_kind)
    return maps.build_params(cfg.theta, cfg.g_kind,
                             k_samples=max(cfg.samples, 10_000),
                             seed=cfg.seed)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# ---------------------------------------------------------------------------
# map-eval


def parse_point(text: str) -> complex:
    """Accept '1+0i', '-0.3-0.2i', '(1+2i)', '0.5', 'i', 'inf'; the
    imaginary unit may be spelled i, I, j or J.  Only that suffix is
    rewritten, so 'inf' and 'nan' keep their meaning."""
    s = re.sub(r"[iI](\)?)$", r"j\1", text.strip().replace(" ", ""))
    if not s:
        raise InvalidInputError("empty point")
    try:
        return complex(s)
    except ValueError:
        raise InvalidInputError(
            "cannot parse %r as a complex number" % text) from None


def _read_points(args) -> list:
    """[(label, complex)] from --point flags or a --points file."""
    if args.point and args.points:
        raise ConfigurationError("give either --point or --points, not both")
    if args.point:
        return [("arg:%d" % (i + 1), parse_point(p))
                for i, p in enumerate(args.point)]
    if not args.points:
        raise ConfigurationError("map-eval needs --point or --points")
    try:
        with open(args.points) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError("cannot read points: %s" % exc) from exc
    pts = []
    for i, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            pts.append(("%s:%d" % (args.points, i), parse_point(text)))
        except InvalidInputError as exc:
            raise InvalidInputError(
                "%s:%d: %s" % (args.points, i, exc)) from None
    if not pts:
        raise ConfigurationError("no points in %s" % args.points)
    return pts


def _check_points(points) -> None:
    """Each point must be finite and in the closed unit disk."""
    for label, z in points:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidInputError("%s: point is not finite: %r" % (label, z))
        if abs(z) > 1.0 + DISK_SLACK:
            raise InvalidInputError(
                "%s: point outside the closed unit disk: %r" % (label, z))


def _g_of(z: complex, g_kind: str) -> complex:
    return z if g_kind == "identity_in_z2" else 1.0 + 0j


def _rows_double(z, chi0, params) -> list:
    chi = maps.cusp_values(z)
    phi = maps.phi_values(chi, params.theta)
    w2 = chi + params.c * phi * _g_of(z, params.g_kind)
    return [["%.17g,%.17g" % (v.real, v.imag) for v in row]
            for row in zip(z, chi0, chi, phi, chi, w2)]


def _rows_extended(z, chi0, params) -> list:
    rows = []
    for zz, c0 in zip(z, chi0):
        chi = maps.cusp_mp(complex(zz))
        phi = maps.phi_mp(chi, params.theta, dps=60)
        with mp.workdps(60):
            w2 = chi + params.c * phi * mp.mpc(_g_of(zz, params.g_kind))
        rows.append(["%s,%s" % (mp.nstr(mp.re(v), 25), mp.nstr(mp.im(v), 25))
                     for v in (mp.mpc(zz), mp.mpc(c0), chi, phi, chi, w2)])
    return rows


def cmd_map_eval(cfg: RunConfig, args) -> int:
    points = _read_points(args)
    _check_points(points)
    params = resolve_params(cfg)
    z = np.array([p for _, p in points])
    chi0 = maps.chi0_values(z)  # no cancellation in this stage
    rows = (_rows_extended if cfg.precision == "extended"
            else _rows_double)(z, chi0, params)
    path = _out_path(cfg, "map_eval.csv")
    with open(path, "w") as fh:
        fh.write("# %s precision %s\n" % (cfg.stamp(), cfg.precision))
        fh.write("z_re,z_im,chi0_re,chi0_im,chi_re,chi_im,"
                 "phi_re,phi_im,w1_re,w1_im,w2_re,w2_im\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")
    print("wrote %s (%d points)" % (path, len(points)))
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(cfg: RunConfig, args) -> int:
    k_hat = maps.estimate_k(max(cfg.samples, 10_000), seed=cfg.seed)
    c = maps.calibrate_c(cfg.theta, k_hat,
                         validation_count=cfg.calibration_samples,
                         seed=cfg.seed + 1)
    params = maps.SymbolParams(theta=cfg.theta, c=c, k_hat=k_hat,
                               g_kind=cfg.g_kind)
    z = maps.disk_samples(cfg.calibration_samples, cfg.seed + 1)
    margin = float(np.min(1.0 - maps.perturbation_reach(z, params)))
    path = _out_path(cfg, "params.json")
    _write_json(path, {
        "config": cfg.hash(),
        "seed": cfg.seed,
        "params": params.to_dict(),
        "margins": {"reach_min": margin},
        "budgets": {"k_samples": max(cfg.samples, 10_000),
                    "validation_count": cfg.calibration_samples},
    })
    print("wrote %s (c = %.6e, k_hat = %.6f, margin = %.3e)"
          % (path, c, k_hat, margin))
    return 0


# ---------------------------------------------------------------------------
# matrix


def _two_var_kind(cfg: RunConfig) -> str:
    tag = parse_symbol(cfg.symbol)
    if tag not in ("paper", "diagonal"):
        raise ConfigurationError(
            "this verb needs symbol paper or diagonal, not %r" % cfg.symbol)
    return tag


def cmd_matrix(cfg: RunConfig, args) -> int:
    kind = _two_var_kind(cfg)
    params = resolve_params(cfg)
    spec = hardy.TruncationSpec(cfg.degree, cfg.quad)
    om = hardy.assemble_matrix(params, spec, kind)
    base = "matrix_%s_d%d_q%d" % (kind, cfg.degree, cfg.quad)
    npz = _out_path(cfg, base + ".npz")
    csv = _out_path(cfg, base + ".csv")
    hardy.save_matrix(om, npz, params=params)
    hardy.matrix_csv(om, csv, params_hash=cfg.stamp())
    print("wrote %s" % npz)
    print("wrote %s" % csv)
    print("hs_norm_squared %.17g tail_hs %.17g" % (om.hs_sq, om.tail_hs))
    return 0


# ---------------------------------------------------------------------------
# spectrum


def _two_var_spectrum(cfg: RunConfig, kind: str) -> int:
    params = resolve_params(cfg)
    spec = hardy.TruncationSpec(cfg.degree, cfg.quad)
    spct = spectrum.composition_spectrum(params, spec, kind)
    csv = _out_path(cfg, "spectrum_%s.csv" % kind)
    spectrum.save_spectrum_csv(spct, csv, schedule_exponent=2,
                               comment=cfg.stamp())
    # beyond n ~ sqrt(D+1) the schedule leaves the first degree block
    # and the computed values sit under the truncation tail
    n_max = math.isqrt(cfg.degree + 1)
    fit = spectrum.fit_decay(spct, 2, range(1, n_max + 1))
    beta = spectrum.beta_estimate(spct, 2, range(1, n_max + 1))
    path = _out_path(cfg, "decay_%s.json" % kind)
    _write_json(path, {
        "config": cfg.hash(),
        "seed": cfg.seed,
        "symbol": kind,
        "degree": cfg.degree,
        "quad": cfg.quad,
        "tail_bound": spct.tail_bound,
        "fit": fit.to_dict(),
        "beta": beta.to_dict(),
    })
    print("wrote %s" % csv)
    print("wrote %s" % path)
    print("tau %.6f r_squared %.6f beta_plus %.6f"
          % (fit.rate, fit.r_squared, beta.beta_plus))
    return 0


_TREND_RANKS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def _trend_rows(spct) -> list:
    rows = []
    for n in _TREND_RANKS:
        if n > len(spct):
            break
        low, high = spectrum.approximation_numbers(spct, n)
        rows.append({"n": n, "lower": low, "upper": high,
                     "root_lower": low ** (1.0 / n),
                     "root_upper": high ** (1.0 / n)})
    return rows


def _write_trend(cfg: RunConfig, name: str, spct, extra: dict) -> int:
    rows = _trend_rows(spct)
    csv = _out_path(cfg, name + ".csv")
    with open(csv, "w") as fh:
        fh.write("# %s\n" % cfg.stamp())
        fh.write("n,lower,upper,root_lower,root_upper\n")
        for r in rows:
            fh.write("%d,%.17g,%.17g,%.17g,%.17g\n"
                     % (r["n"], r["lower"], r["upper"],
                        r["root_lower"], r["root_upper"]))
    payload = {"config": cfg.hash(), "seed": cfg.seed,
               "tail_bound": spct.tail_bound, "trend": rows}
    payload.update(extra)
    path = _out_path(cfg, name + ".json")
    _write_json(path, payload)
    print("wrote %s" % csv)
    print("wrote %s" % path)
    for r in rows:
        print("n %3d root_interval [%.6f, %.6f]"
              % (r["n"], r["root_lower"], r["root_upper"]))
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    tag = parse_symbol(cfg.symbol)
    if tag in ("paper", "diagonal"):
        return _two_var_spectrum(cfg, tag)
    if tag == "one-dim":
        spec = hardy.TruncationSpec(cfg.degree, cfg.quad)
        spct = spectrum.one_dim_contrast(spec)
        return _write_trend(cfg, "one_dim", spct,
                            {"symbol": "one-dim", "degree": cfg.degree})
    _, scale = tag
    spct = spectrum.one_dim_plateau(scale=scale)
    sup = spectrum.scaled_sup_bound(scale)
    return _write_trend(cfg, "plateau", spct,
                        {"symbol": cfg.symbol, "scale": scale,
                         "sup_bound": sup})


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig, args) -> int:
    vcfg = verifier.VerifierConfig(
        sample_count=cfg.samples,
        calibration_count=cfg.calibration_samples,
        trial_count=cfg.trials,
        seed=cfg.seed,
    )
    params = resolve_params(cfg)
    reports = verifier.run_all(vcfg, params)
    passed = all(r.passed for r in reports)
    path = _out_path(cfg, "verify.json")
    _write_json(path, {
        "config": cfg.hash(),
        "seed": cfg.seed,
        "passed": passed,
        "reports": [r.to_dict() for r in reports],
    })
    print("wrote %s" % path)
    for r in reports:
        print("%-20s %s" % (r.suite, "pass" if r.passed else
                            "FAIL (%d violations)" % len(r.violations)))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# report


_ARTIFACTS = ("params.json", "decay_paper.json", "decay_diagonal.json",
              "one_dim.json", "plateau.json", "verify.json")


def _md_section(lines: list, name: str, payload: dict) -> None:
    lines.append("## %s" % name)
    lines.append("")
    if name == "verify.json":
        for r in payload["reports"]:
            lines.append("- %s: %s" % (r["suite"],
                                       "pass" if r["passed"] else "FAIL"))
    elif name.startswith("decay_"):
        fit, beta = payload["fit"], payload["beta"]
        lines.append("- decay rate tau = %.6f (r^2 = %.6f)"
                     % (fit["rate"], fit["r_squared"]))
        lines.append("- beta interval [%.6f, %.6f] on schedule n^%d"
                     % (beta["beta_minus"], beta["beta_plus"],
                        beta["schedule_exponent"]))
    elif name in ("one_dim.json", "plateau.json"):
        for r in payload["trend"]:
            lines.append("- n = %d: a_n^(1/n) in [%.6f, %.6f]"
                         % (r["n"], r["root_lower"], r["root_upper"]))
    elif name == "params.json":
        p = payload["params"]
        lines.append("- theta = %r, c = %r, k_hat = %r"
                     % (p["theta"], p["c"], p["k_hat"]))
        lines.append("- reach margin %.6e" % payload["margins"]["reach_min"])
    lines.append("")


def cmd_report(cfg: RunConfig, args) -> int:
    found = {}
    for name in _ARTIFACTS:
        path = os.path.join(cfg.out, name)
        if os.path.exists(path):
            with open(path) as fh:
                found[name] = json.load(fh)
    if not found:
        print("error: no artifacts under %s" % cfg.out, file=sys.stderr)
        return 1
    _write_json(_out_path(cfg, "report.json"),
                {"config": cfg.hash(), "artifacts": found})
    lines = ["# Run report", "", "Aggregated from %d artifacts." % len(found),
             ""]
    for name in _ARTIFACTS:
        if name in found:
            _md_section(lines, name, found[name])
    md = _out_path(cfg, "report.md")
    with open(md, "w") as fh:
        fh.write("\n".join(lines).rstrip() + "\n")
    print("wrote %s" % _out_path(cfg, "report.json"))
    print("wrote %s" % md)
    return 0


# ---------------------------------------------------------------------------
# entry point


_VERBS = {
    "map-eval": cmd_map_eval,
    "calibrate": cmd_calibrate,
    "matrix": cmd_matrix,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    shared.add_argument("--seed", type=int, metavar="N")
    shared.add_argument("--degree", type=int, metavar="D")
    shared.add_argument("--quad", type=int, metavar="Q")
    shared.add_argument("--symbol", metavar="SYM",
                        help="paper | diagonal | one-dim | scaled:<r>")
    shared.add_argument("--out", metavar="DIR")
    parser = argparse.ArgumentParser(
        prog="cuspdecay",
        description="cusp-symbol composition-operator experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    me = sub.add_parser("map-eval", parents=[shared],
                        help="chain traces for explicit points")
    me.add_argument("--point", action="append", metavar="Z",
                    help="inline complex point, repeatable")
    me.add_argument("--points", metavar="PATH",
                    help="file of points, one per line")
    for verb, helptext in (
            ("calibrate", "estimate the lens constant and freeze c"),
            ("matrix", "assemble and store one truncation"),
            ("spectrum", "decay experiment for the configured symbol"),
            ("verify", "run all verification suites"),
            ("report", "aggregate artifacts in the output directory")):
        sub.add_parser(verb, parents=[shared], help=helptext)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None)
                 for k in ("seed", "degree", "quad", "symbol", "out")}
    try:
        cfg = load_config(args.config, overrides)
        return _VERBS[args.verb](cfg, args)
    except (ConfigurationError, InvalidInputError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CuspDecayError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
