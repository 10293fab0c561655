"""Batch front door: flat-file configuration, experiment orchestration,
and plot-ready artifact emission: every artifact is written here, the
other modules return numbers only.

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
                          omitted -> calibrate on demand; a pair
                          whose c fails maps.reach_fraction < 1 is
                          a configuration error
    degree, quad          D >= 1; for paper and diagonal,     [48, 1024]
                          Q a power of 2 >= 4(D+1)
    seed                  seed of K's disk sample             [17]
    out                   output directory                    [out]
    precision             double | extended                   [double]
    samples               grid points of the geometry suite,  [100000]
                          which checks the lens on the circle;
                          also K's sample; at least 10000
    calibration_samples   circle grid of the calibration      [1000000]
                          suite of verify; at least 10000
    trials                grid of the derivative certificates [1000]
    symbol                paper | diagonal | one-dim | scaled:<r>

The diagonal symbol ignores c; at degree 48 only 3 of its 7 schedule
points clear 10 x tail, so `spectrum --symbol diagonal` writes its csv
and exits 1 at every seed.  Run it with --degree 64 (fits n = 1..4).
The paper symbol with g_kind = constant_one does the same at degree 48
(seeds 17 and 18): it writes spectrum_paper.csv and exits 1.  Degree
64 fits n = 1..4 with r^2 = 0.961, under the paper headline's 0.98.

Flags override the file.  Every CSV and JSON artifact, report.json
included, embeds the 12-hex config hash (all keys but out and
precision) and the seed, and re-running a double-precision config
at the same BLAS thread count reproduces each file byte for byte, into
any output directory.  A different thread count sums the dense
products in another order and moves the spectrum's trailing digits
(at seed 17, OPENBLAS_NUM_THREADS=1 against 2 threads changes
spectrum_paper.csv from its sixth line, a_16, on; 3 and 4 threads
write the 2-thread bytes on a 2-core machine).
Exit codes: 0 success; 2 for a ConfigurationError (a config, point,
output directory or artifact read by report outside its documented
domain); 1 for a failed verify suite or a CuspDecayError (a fit with
too few points, a kernel that failed).  The output directory is made
before a verb computes anything, so an unusable one costs no run; a
verb that fails removes the directories main made while they are empty.

The two-variable verbs run on the uniform grid hardy.circle_quadrature(Q),
so only the paper and diagonal symbols need Q a power of two and at
least 4(D+1).  The one-dim contrast reads no quad: one_dim.json records
its mesh, hardy.graded_quadrature(ONE_DIM_PANELS, ONE_DIM_CUSP_FLOOR),
and takes any D from 1 to 512.

Extended precision re-evaluates the conformal chain and the damping
factor through mpmath (the stages that cancel catastrophically near
the cusp); dense linear algebra always runs in double.  mpmath is
imported only by extended map-eval and the scaled:<r> plateau, so
every other verb runs without loading it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import hardy, maps, spectrum, verifier
from .errors import ConfigurationError, CuspDecayError

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
        d, q = self.degree, self.quad
        uniform = parse_symbol(self.symbol) in ("paper", "diagonal")
        if d < 1 or uniform and (q < 4 * (d + 1) or q & (q - 1)):
            raise ConfigurationError(
                "need degree D >= 1, and for paper and diagonal quad a "
                "power of two >= 4(D+1), not D = %d, Q = %d" % (d, q))
        if (self.c is None) != (self.k_hat is None):
            raise ConfigurationError("c and k_hat must be overridden together")
        if self.c is None:  # calibrated later
            maps.check_symbol_choice(self.theta, self.g_kind)
        else:
            q = maps.reach_fraction(maps.SymbolParams(
                theta=self.theta, c=self.c, k_hat=self.k_hat,
                g_kind=self.g_kind))
            if not q < 1.0:
                raise ConfigurationError(
                    "c = %r is too large: the reach certificate needs "
                    "q < 1, got q = %.3e" % (self.c, q))
        if min(self.samples, self.calibration_samples, self.trials) < 1:
            raise ConfigurationError("sample budgets must be positive")
        if min(self.samples, self.calibration_samples) < 10_000:
            raise ConfigurationError(
                "samples and calibration_samples must be at least 10000")
        if self.seed < 0:  # SeedSequence takes no negative entropy
            raise ConfigurationError("seed must be >= 0, not %d" % self.seed)
        return self

    def hash(self) -> str:
        """12-hex digest of every field but out and precision.  The
        output directory changes no artifact, and precision, read by
        map-eval alone, is recorded in its CSV header."""
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
    """File -> flags, later wins; unknown keys and unparseable
    values are configuration errors with the offending line."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                "%s: cannot read config: %s" % (path, exc)) from exc
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
    return maps.build_params(cfg.theta, cfg.g_kind, cfg.samples, cfg.seed)


# ---------------------------------------------------------------------------
# artifact writers: every CSV and JSON byte goes through these two


def _make_out(out: str) -> list:
    """Make out; return the directories this made, innermost first."""
    made, path = [], os.path.abspath(out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            "cannot use output directory %r: %s" % (out, exc)) from exc
    return made


def _write_json(cfg: RunConfig, name: str, payload: dict) -> None:
    """<out>/<name>: payload stamped with the config hash and seed."""
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        json.dump(dict(payload, config=cfg.hash(), seed=cfg.seed), fh,
                  sort_keys=True, indent=2)
        fh.write("\n")
    print("wrote %s" % path)


def _write_csv(cfg: RunConfig, name: str, head_lines, rows) -> None:
    """<out>/<name>: head lines (stamp, column names), then the rows."""
    path = os.path.join(cfg.out, name)
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for part in (head_lines, rows)
                      for line in part)
    print("wrote %s" % path)


# ---------------------------------------------------------------------------
# map-eval


def parse_point(text: str) -> complex:
    """Accept '1+0i', '-0.3-0.2i', '(1+2i)', '0.5', 'i', 'inf'; the
    imaginary unit may be spelled i, I, j or J.  Only that suffix is
    rewritten, so 'inf' and 'nan' keep their meaning."""
    s = re.sub(r"[iI](\)?)$", r"j\1", text.strip().replace(" ", ""))
    if not s:
        raise ConfigurationError("empty point")
    try:
        return complex(s)
    except ValueError:
        raise ConfigurationError(
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            "%s: cannot read points: %s" % (args.points, exc)) from exc
    pts = []
    for i, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            pts.append(("%s:%d" % (args.points, i), parse_point(text)))
        except ConfigurationError as exc:
            raise ConfigurationError(
                "%s:%d: %s" % (args.points, i, exc)) from None
    if not pts:
        raise ConfigurationError("no points in %s" % args.points)
    return pts


def _check_points(points) -> None:
    """Each point must be finite and in the closed unit disk."""
    for label, z in points:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConfigurationError(
                "%s: point is not finite: %r" % (label, z))
        if abs(z) > 1.0 + DISK_SLACK:
            raise ConfigurationError(
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
    from mpmath import mp

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
    _write_csv(
        cfg, "map_eval.csv",
        ["# %s precision %s" % (cfg.stamp(), cfg.precision),
         "z_re,z_im,chi0_re,chi0_im,chi_re,chi_im,"
         "phi_re,phi_im,w1_re,w1_im,w2_re,w2_im"],
        (",".join(cells) for cells in rows))
    print("evaluated %d points" % len(points))
    return 0


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(cfg: RunConfig, args) -> int:
    params = maps.build_params(cfg.theta, cfg.g_kind, cfg.samples, cfg.seed)
    q = maps.reach_fraction(params)
    _write_json(cfg, "params.json", {
        "params": asdict(params),
        "margins": {"reach_fraction": q},
        "budgets": {"k_samples": cfg.samples},
    })
    print("c = %.6e, k_hat = %.6f, reach fraction = %.3e"
          % (params.c, params.k_hat, q))
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
    om = hardy.assemble_matrix(params, cfg.degree, cfg.quad, kind)
    base = "matrix_%s_d%d_q%d" % (kind, cfg.degree, cfg.quad)
    npz = os.path.join(cfg.out, base + ".npz")
    np.savez_compressed(npz, **asdict(om), **{
        "params_" + k: v for k, v in asdict(params).items()})
    # the entries are real, so every imaginary part is written as 0;
    # one format call per row keeps large blocks fast
    row_format = ",".join(["%.17g,0"] * om.entries.shape[1])
    print("wrote %s" % npz)
    _write_csv(
        cfg, base + ".csv",
        ["# D=%d Q=%d kind=%s params_hash=%s"
         % (om.max_degree, om.quad_points, om.kind, cfg.stamp()),
         "# row=beta col=alpha, complex entries as re,im pairs"],
        (row_format % tuple(row.tolist()) for row in om.entries))
    print("hs_norm_squared %.17g tail_hs %.17g" % (om.hs_sq, om.tail_hs))
    return 0


# ---------------------------------------------------------------------------
# spectrum


SCHEDULE_EXPONENT = 2  # the paper's schedule n -> n^2
# the one-dim contrast's mesh: its bulk panels and its cusp panels' depth
ONE_DIM_PANELS, ONE_DIM_CUSP_FLOOR = 16, math.exp(-80.0)


def _two_var_spectrum(cfg: RunConfig, kind: str) -> int:
    params = resolve_params(cfg)
    spct = spectrum.composition_spectrum(
        params, cfg.degree, hardy.circle_quadrature(cfg.quad), kind)
    # a_{n^2} while n^2 is computed; resolved: lower above the noise
    rows = [(n, *spectrum.approximation_numbers(spct, n ** SCHEDULE_EXPONENT))
            for n in range(1, math.isqrt(len(spct)) + 1)]
    _write_csv(cfg, "spectrum_%s.csv" % kind,
               ["# " + cfg.stamp(), "n,lower,upper,resolved"],
               ("%d,%.17g,%.17g,%d" % (n, lo, hi, lo > spct.noise_floor)
                for n, lo, hi in rows))
    # beyond n ~ sqrt(D+1) the schedule leaves the first degree block
    # and the computed values sit under the truncation tail
    n_range = range(1, math.isqrt(cfg.degree + 1) + 1)
    fit = spectrum.fit_decay(spct, SCHEDULE_EXPONENT, n_range)
    beta = spectrum.beta_estimate(spct, SCHEDULE_EXPONENT, n_range)
    payload = {k: v for k, v in asdict(spct).items() if k != "values"}
    _write_json(cfg, "decay_%s.json" % kind, dict(
        payload, symbol=kind, degree=cfg.degree, quad=cfg.quad,
        fit=asdict(fit), beta=asdict(beta)))
    print("tau %.6f r_squared %.6f beta_plus %.6f"
          % (fit.rate, fit.r_squared, beta.beta_plus))
    return 0


_TREND_RANKS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def _write_trend(cfg: RunConfig, name: str, spct, extra: dict) -> int:
    rows = []
    for n in _TREND_RANKS:
        if n > len(spct):
            break
        low, high = spectrum.approximation_numbers(spct, n)
        rows.append({"n": n, "lower": low, "upper": high,
                     "root_lower": low ** (1.0 / n),
                     "root_upper": high ** (1.0 / n)})
    _write_csv(
        cfg, name + ".csv",
        ["# " + cfg.stamp(), "n,lower,upper,root_lower,root_upper"],
        ("%d,%.17g,%.17g,%.17g,%.17g" % (r["n"], r["lower"], r["upper"],
                                         r["root_lower"], r["root_upper"])
         for r in rows))
    _write_json(cfg, name + ".json",
                dict(extra, tail_bound=spct.tail_bound, trend=rows))
    for r in rows:
        print("n %3d root_interval [%.6f, %.6f]"
              % (r["n"], r["root_lower"], r["root_upper"]))
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    tag = parse_symbol(cfg.symbol)
    if tag in ("paper", "diagonal"):
        return _two_var_spectrum(cfg, tag)
    if tag == "one-dim":
        quad = hardy.graded_quadrature(ONE_DIM_PANELS, ONE_DIM_CUSP_FLOOR)
        spct = spectrum.one_dim_contrast(cfg.degree, quad)
        mesh = {"panels": ONE_DIM_PANELS, "nodes": quad.nodes.size,
                "cusp_floor": ONE_DIM_CUSP_FLOOR}
        return _write_trend(cfg, "one_dim", spct,
                            {"symbol": "one-dim", "degree": cfg.degree,
                             "mesh": mesh, "noise_floor": spct.noise_floor})
    _, scale = tag
    spct = spectrum.one_dim_plateau(scale=scale)
    sup = spectrum.scaled_sup_bound(scale)
    return _write_trend(cfg, "plateau", spct,
                        {"symbol": cfg.symbol, "scale": scale,
                         "sup_bound": sup})


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig, args) -> int:
    params = resolve_params(cfg)
    reports = verifier.run_all(params, cfg.samples, cfg.calibration_samples,
                               cfg.trials)
    passed = all(r.passed for r in reports)
    _write_json(cfg, "verify.json", {
        "passed": passed,
        "reports": [dict(asdict(r), passed=r.passed) for r in reports],
    })
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
        lines.append("- t2 modes held: %d of %d"
                     % (payload["t2_modes"], payload["degree"] + 1))
        lines.append("- tail radicand HS^2 - tr G = %.3e (HS^2 = %.6g)"
                     % (payload["tail_radicand"], payload["hs_sq"]))
        if payload["tail_radicand"] <= 0.0:
            lines.append("- the column tail was clamped to 0 by rounding%s"
                         % ("; the fit floor is the noise floor alone"
                            if payload["tail_bound"] == 0.0 else ""))
    elif name in ("one_dim.json", "plateau.json"):
        for r in payload["trend"]:
            lines.append("- n = %d: a_n^(1/n) in [%.6f, %.6f]"
                         % (r["n"], r["root_lower"], r["root_upper"]))
    elif name == "params.json":
        p = payload["params"]
        lines.append("- theta = %r, c = %r, k_hat = %r"
                     % (p["theta"], p["c"], p["k_hat"]))
        lines.append("- reach margin 2c|phi(chi)| <= q (1 - |chi|), q = %.6e"
                     % payload["margins"]["reach_fraction"])
    lines.append("")


def cmd_report(cfg: RunConfig, args) -> int:
    """Every section renders before report.json or report.md is
    written, so a malformed artifact leaves neither behind."""
    found, sections = {}, []
    for name in _ARTIFACTS:
        path = os.path.join(cfg.out, name)
        if not os.path.exists(path):
            continue
        try:
            with open(path) as fh:
                found[name] = json.load(fh)
            _md_section(sections, name, found[name])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError("%s: malformed artifact (%s: %s)" % (
                path, type(exc).__name__, exc)) from exc
    if not found:
        print("error: no artifacts under %s" % cfg.out, file=sys.stderr)
        return 1
    _write_json(cfg, "report.json", {"artifacts": found})
    lines = ["# Run report", "", "Aggregated from %d artifacts." % len(found),
             ""] + sections
    md = os.path.join(cfg.out, "report.md")
    with open(md, "w") as fh:
        fh.write("\n".join(lines).rstrip() + "\n")
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
    made = []
    try:
        cfg = load_config(args.config, overrides)
        if args.verb != "report":  # it only reads; a missing --out exits 1
            made = _make_out(cfg.out)
        code = _VERBS[args.verb](cfg, args)
    except (ConfigurationError, CuspDecayError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 2 if isinstance(exc, ConfigurationError) else 1
    for path in made if code else ():
        try:  # what a failed verb wrote stays, and every parent with it
            os.rmdir(path)
        except OSError:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
