"""Finite-sample verification suites for the geometric, calibration,
covering, derivative, and counting inequalities the construction rests
on.

Each suite samples deterministically from a seed, evaluates its
inequality exactly (polynomial norms are coefficient norms, never
quadrature), and returns a report whose violations list is empty iff
the suite passed.  A violation always carries enough of a witness to
replay the single failing evaluation by hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp

from . import maps
from .errors import ConfigurationError

DEFAULT_SEED = 17
GEOMETRY_TOLERANCE = 1e-10


def _c2s(z) -> list:
    """complex -> JSON-able [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


@dataclass
class VerificationReport:
    suite: str
    seed: int
    samples: int
    violations: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "violations": self.violations,
            "constants": self.constants,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# cusp geometry


def _bracket_on_log_grid(count: int) -> tuple:
    """min and max of (1 - Re chi(e^it)) * log(1/t) over a geometric
    grid of t in [1e-8, pi/4]."""
    t = np.geomspace(1e-8, math.pi / 4.0, count)
    vals = (1.0 - maps.cusp_on_circle(t).real) * np.log(1.0 / t)
    return float(vals.min()), float(vals.max())


def check_cusp_geometry(sample_count: int, seed: int = DEFAULT_SEED,
                        tolerance: float = GEOMETRY_TOLERANCE) -> VerificationReport:
    """Pointwise lens geometry of the cusp map.

    Exact checks (tolerance 1e-10) on boundary-clustered interior
    samples plus a deterministic near-cusp batch:

      * image inside D(1/2, 1/2) and outside D(1 +- i/2, 1/2)   (lens)
      * |chi - 1| <= 1
      * Re chi in [0, 1] and |Im chi| <= 2 (1 - Re chi)^2
      * real axis maps to real values, exactly
      * |1 - chi| <= k_hat_default * (1 - |chi|), the comparability
        the covering argument uses (the sampled sup is reported)

    Estimated check: the bracket of (1 - Re chi(e^it)) log(1/t) on a
    geometric grid, flagged if doubling the grid moves either end by
    5 percent or more."""
    if sample_count < 10_000:
        raise ConfigurationError("geometry suite needs at least 1e4 samples")
    rep = VerificationReport("cusp_geometry", seed, sample_count)
    z = maps.disk_samples(sample_count, seed)
    chi = maps.cusp_values(z)
    # near-cusp stress points, far beyond where forming 1 - z survives
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    n_gap = min(5000, sample_count // 10)
    log_gap = rng.uniform(-280.0, -3.0, n_gap)
    ph_gap = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, n_gap)
    keep = log_gap < np.log(2.0 * np.cos(ph_gap))  # |1 - xi| <= 1
    log_gap, ph_gap = log_gap[keep], ph_gap[keep]
    chi_gap = maps.cusp_from_log_gap(log_gap, ph_gap)
    chi_all = np.concatenate([chi, chi_gap])
    # witness only; may round to 1
    src = np.concatenate([z, 1.0 - np.exp(log_gap + 1j * ph_gap)])

    def record(item, mask, extra=None):
        bad = np.nonzero(mask)[0]
        for i in bad[:10]:  # ten witnesses per item are plenty
            w = {"item": item, "z": _c2s(src[i]), "chi": _c2s(chi_all[i])}
            if extra:
                w.update(extra)
            rep.violations.append(w)

    record("lens_outer", np.abs(chi_all - 0.5) > 0.5 + tolerance)
    record("lens_upper", np.abs(chi_all - (1.0 + 0.5j)) < 0.5 - tolerance)
    record("lens_lower", np.abs(chi_all - (1.0 - 0.5j)) < 0.5 - tolerance)
    record("near_one", np.abs(chi_all - 1.0) > 1.0 + tolerance)
    record("real_part", (chi_all.real < -tolerance) | (chi_all.real > 1.0 + tolerance))
    record("imag_vs_gap",
           np.abs(chi_all.imag) > 2.0 * (1.0 - chi_all.real) ** 2 + tolerance)

    axis = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    chi_axis = maps.cusp_values(axis)
    record_axis = np.nonzero(chi_axis.imag != 0.0)[0]
    for i in record_axis[:10]:
        rep.violations.append(
            {"item": "real_axis", "z": [float(axis[i]), 0.0],
             "chi": _c2s(chi_axis[i])})

    ratio = np.abs(1.0 - chi_all) / (1.0 - np.abs(chi_all))
    ratio = ratio[np.isfinite(ratio)]
    k_default = maps.estimate_k()
    record("distortion", np.abs(1.0 - chi_all)
           > k_default * (1.0 - np.abs(chi_all)) + tolerance)
    rep.constants["distortion_sup"] = float(ratio.max())
    rep.constants["k_hat"] = k_default

    grid = max(sample_count, 10_000)
    lo1, hi1 = _bracket_on_log_grid(grid)
    lo2, hi2 = _bracket_on_log_grid(2 * grid)
    drift = max(abs(lo2 - lo1) / abs(lo2), abs(hi2 - hi1) / abs(hi2))
    rep.constants["gap_log_bracket"] = [lo1, hi1]
    rep.constants["gap_log_bracket_doubled"] = [lo2, hi2]
    rep.constants["gap_log_bracket_drift"] = drift
    if drift >= 0.05:
        rep.violations.append(
            {"item": "gap_log_bracket_unstable", "drift": drift})
    return rep


# ---------------------------------------------------------------------------
# calibration


def check_calibration(params, sample_count: int,
                      seed: int = DEFAULT_SEED) -> VerificationReport:
    """Strict perturbation-budget inequalities on interior samples:

      |chi| + 2 c |phi(chi)| < 1
      1 - |w2| >= (1 - |chi|) / 2   for w2 = chi + c phi(chi) u,

    the second over a 16-point unimodular grid of u (covering every
    g(z2) value the symbol can produce).  The cusp point attains
    equality only in the z -> 1 limit, which interior sampling never
    hits."""
    if sample_count < 10_000:
        raise ConfigurationError("calibration suite needs at least 1e4 samples")
    rep = VerificationReport("calibration", seed, sample_count)
    z = maps.disk_samples(sample_count, seed)
    chi = maps.cusp_values(z)
    damp = params.c * np.abs(maps.phi_values(chi, params.theta))
    gap = 1.0 - np.abs(chi)
    reach_margin = gap - 2.0 * damp
    bad = np.nonzero(reach_margin <= 0.0)[0]
    for i in bad[:10]:
        rep.violations.append(
            {"item": "reach", "z": _c2s(z[i]), "margin": float(reach_margin[i])})

    u = np.exp(2j * math.pi * np.arange(16) / 16.0)
    w2 = chi[:, None] + (params.c * maps.phi_values(chi, params.theta))[:, None] * u[None, :]
    half_margin = (1.0 - np.abs(w2)) - gap[:, None] / 2.0
    bad2 = np.nonzero(np.min(half_margin, axis=1) < 0.0)[0]
    for i in bad2[:10]:
        k = int(np.argmin(half_margin[i]))
        rep.violations.append(
            {"item": "half_gap", "z": _c2s(z[i]), "u": _c2s(u[k]),
             "margin": float(half_margin[i, k])})
    rep.constants["reach_margin_min"] = float(reach_margin.min())
    rep.constants["half_gap_margin_min"] = float(half_margin.min())
    return rep


# ---------------------------------------------------------------------------
# covering family


@dataclass(frozen=True)
class CoveringFamily:
    """Dyadic disk family D(1 - shrink^j, shrink^j / 4) for j in
    [start_index, end_index]; every disk stays inside the unit disk
    since center + radius = 1 - (3/4) shrink^j."""

    start_index: int
    end_index: int
    shrink: float

    def __post_init__(self):
        if not 0.0 < self.shrink < 1.0:
            raise ConfigurationError("shrink factor must lie in (0, 1)")
        if self.start_index < 1 or self.end_index < self.start_index:
            raise ConfigurationError("need 1 <= start_index <= end_index")

    @classmethod
    def for_size(cls, params, n: int) -> "CoveringFamily":
        end = int(math.floor(
            math.log(2.0 * n) / (params.theta * math.log(1.0 / params.sigma))
        )) + 1
        return cls(start_index=params.j0, end_index=end, shrink=params.sigma)

    def centers(self) -> np.ndarray:
        j = np.arange(self.start_index, self.end_index + 1)
        return 1.0 - self.shrink ** j

    def radii(self) -> np.ndarray:
        j = np.arange(self.start_index, self.end_index + 1)
        return self.shrink ** j / 4.0

    def covers(self, w) -> np.ndarray:
        """True where w lies in at least one open disk of the family."""
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        dist = np.abs(w[:, None] - self.centers()[None, :])
        return np.any(dist < self.radii()[None, :], axis=1)


def check_covering(n: int, sample_count: int, params=None,
                   seed: int = DEFAULT_SEED) -> VerificationReport:
    """Sampled covering test: every image point chi(z) that is both
    deep enough (|chi| > 1 - sigma^j0 / k_hat) and not within 1/n of
    the cusp tip must fall in one of the covering disks.

    Points are drawn in the (log gap, phase) plane, since the relevant
    z are exponentially close to 1 (gaps down to e^{-1.7n}); for n = 10
    the comparability inequality makes the two conditions incompatible
    — |chi - 1| stays below k (1 - |chi|) < 0.06 < 1/10 — so the
    hypothesis region is empty and the suite passes vacuously, which
    the kept-count constant makes visible."""
    if n < 2:
        raise ConfigurationError("covering test needs n >= 2")
    if sample_count < 1000:
        raise ConfigurationError("covering suite needs at least 1000 samples")
    if params is None:
        params = maps.build_params()
    rep = VerificationReport("covering_n%d" % n, seed, sample_count)
    family = CoveringFamily.for_size(params, n)
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    log_gap = rng.uniform(-(1.7 * n + 40.0), -6.0, sample_count)
    phase = rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, sample_count)
    inside = log_gap < np.log(2.0 * np.cos(phase))  # |1 - xi| <= 1
    log_gap, phase = log_gap[inside], phase[inside]
    chi = maps.cusp_from_log_gap(log_gap, phase)
    depth = 1.0 - params.sigma ** params.j0 / params.k_hat
    kept = (np.abs(chi) > depth) & (np.abs(chi - 1.0) > 1.0 / n)
    chi_kept = chi[kept]
    covered = family.covers(chi_kept) if chi_kept.size else np.zeros(0, bool)
    bad = np.nonzero(~covered)[0]
    lg, ph = log_gap[kept], phase[kept]
    centers, radii = family.centers(), family.radii()
    for i in bad[:10]:
        dist = np.abs(chi_kept[i] - centers)
        j = int(np.argmin(dist / radii))
        rep.violations.append({
            "item": "uncovered", "log_gap": float(lg[i]), "phase": float(ph[i]),
            "chi": _c2s(chi_kept[i]),
            "nearest_disk": {"j": int(j + family.start_index),
                             "center": float(centers[j]),
                             "radius": float(radii[j]),
                             "distance": float(dist[j])},
        })
    rep.constants["kept"] = int(chi_kept.size)
    rep.constants["vacuous"] = bool(chi_kept.size == 0)
    rep.constants["family"] = {"start_index": family.start_index,
                               "end_index": family.end_index,
                               "shrink": family.shrink}
    return rep


# ---------------------------------------------------------------------------
# derivative bounds (exact polynomial calculus)


def _diag_derivative(coef: np.ndarray, k: int, b: complex) -> complex:
    """h_k(b) for f with coefficient table coef[a1, a2]: apply the
    k-th second-variable derivative exactly, then evaluate on the
    diagonal (b, b) by summing c * (a2)_k * b^(a1 + a2 - k)."""
    d1, d2 = coef.shape
    if k >= d2:
        return 0j
    falling = np.ones(d2 - k)
    for i in range(k):
        falling *= np.arange(k - i, d2 - i)
    # after dropping k: power a1 + a2 - k for a2 >= k
    powers = b ** np.arange(d1 + d2 - k - 1, dtype=float)
    total = 0j
    for a1 in range(d1):
        row = coef[a1, k:] * falling
        total += np.sum(row * powers[a1:a1 + d2 - k])
    return complex(total)


def check_derivative_bound(trial_count: int,
                           seed: int = DEFAULT_SEED) -> VerificationReport:
    """Diagonal second-variable derivative bound
    |h_k(b)| <= k! 2^{k+1} (1-|b|)^{-(k+1)} ||f||_2 on random
    coefficient-normalized polynomials, degree <= 10 per variable,
    k <= 6, boundary-biased b."""
    if trial_count < 1:
        raise ConfigurationError("trial_count must be positive")
    rep = VerificationReport("derivative_bound", seed, trial_count)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    worst = 0.0
    for _ in range(trial_count):
        d = int(rng.integers(0, 11))
        coef = rng.standard_normal((d + 1, d + 1)) \
            + 1j * rng.standard_normal((d + 1, d + 1))
        coef /= np.linalg.norm(coef)
        k = int(rng.integers(0, 7))
        radius = math.sqrt(rng.random()) * 0.999
        b = radius * np.exp(2j * math.pi * rng.random())
        bound = math.factorial(k) * 2.0 ** (k + 1) / (1.0 - abs(b)) ** (k + 1)
        val = abs(_diag_derivative(coef, k, b))
        worst = max(worst, val / bound)
        if val > bound:
            rep.violations.append(
                {"item": "derivative", "degree": d, "k": k, "b": _c2s(b),
                 "value": val, "bound": bound})
    rep.constants["max_ratio"] = worst
    return rep


def check_schwarz_bound(trial_count: int,
                        seed: int = DEFAULT_SEED) -> VerificationReport:
    """Vanishing-order refinement: for f = (z1 - a)^n q(z1) z2^k p(z2)
    (which forces h_k to vanish to order n at a) and
    |b - a| <= (rho/2)(1 - |a|) with rho = 1/2,

        |h_k(b)| <= rho^n k! 4^{k+1} (1-|a|)^{-(k+1)} ||f||_2.

    The test functions are built from explicit vanishing factors; the
    norm is the exact coefficient norm of the expanded product."""
    if trial_count < 1:
        raise ConfigurationError("trial_count must be positive")
    rep = VerificationReport("schwarz_bound", seed, trial_count)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    rho = 0.5
    worst = 0.0
    for _ in range(trial_count):
        n = int(rng.integers(0, 9))
        k = int(rng.integers(0, 5))
        a = math.sqrt(rng.random()) * 0.9 * np.exp(2j * math.pi * rng.random())
        q = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        p = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lead = np.array([1.0 + 0j])
        for _ in range(n):
            lead = np.convolve(lead, np.array([-a, 1.0]))
        c1 = np.convolve(lead, q)
        c2 = np.concatenate([np.zeros(k, complex), p])
        coef = np.outer(c1, c2)
        coef /= np.linalg.norm(coef)
        r = rng.random() * rho / 2.0 * (1.0 - abs(a))
        b = a + r * np.exp(2j * math.pi * rng.random())
        bound = rho ** n * math.factorial(k) * 4.0 ** (k + 1) \
            / (1.0 - abs(a)) ** (k + 1)
        val = abs(_diag_derivative(coef, k, b))
        worst = max(worst, val / bound)
        if val > bound:
            rep.violations.append(
                {"item": "schwarz", "vanish_order": n, "k": k, "a": _c2s(a),
                 "b": _c2s(b), "value": val, "bound": bound})
    rep.constants["max_ratio"] = worst
    return rep


# ---------------------------------------------------------------------------
# codimension counting


def check_codim_count(n_list, theta: float = 0.5, shrink: float = 0.875,
                      seed: int = DEFAULT_SEED) -> VerificationReport:
    """Size of the coefficient-constraint system behind the rank
    reduction: count(n) = n * sum_{j=1..N_n} ([n shrink^{j theta}] + 1)
    must stay below q * n^2 for one constant q across all n, and
    count / n^2 approaches the geometric series limit
    shrink^theta / (1 - shrink^theta).  Every floor is cross-checked
    against 50-digit arithmetic, so a double-rounding boundary case
    would surface as a violation."""
    n_list = sorted({int(n) for n in n_list})
    if not n_list or n_list[0] < 1:
        raise ConfigurationError("need a non-empty list of sizes n >= 1")
    if not 0.0 < theta < 1.0 or not 0.0 < shrink < 1.0:
        raise ConfigurationError("theta and shrink must lie in (0, 1)")
    rep = VerificationReport("codim_count", seed, len(n_list))
    ratios = {}
    for n in n_list:
        end = int(math.floor(
            math.log(2.0 * n) / (theta * math.log(1.0 / shrink)))) + 1
        with mp.workdps(50):
            end_mp = int(mp.floor(
                mp.log(2 * n) / (mp.mpf(theta) * mp.log(1 / mp.mpf(shrink))))) + 1
            if end != end_mp:
                rep.violations.append(
                    {"item": "range_formula", "n": n,
                     "double": end, "exact": end_mp})
                end = end_mp
            total = 0
            for j in range(1, end + 1):
                m_double = int(math.floor(n * shrink ** (j * theta))) + 1
                m_exact = int(mp.floor(n * mp.mpf(shrink) ** (j * mp.mpf(theta)))) + 1
                if m_double != m_exact:
                    rep.violations.append(
                        {"item": "block_size_formula", "n": n, "j": j,
                         "double": m_double, "exact": m_exact})
                total += m_exact
        ratios[n] = float(total) / n  # count / n^2 with count = n * total
    limit = shrink ** theta / (1.0 - shrink ** theta)
    q = max(ratios.values())
    n_top = n_list[-1]
    rel = abs(ratios[n_top] - limit) / limit
    rep.constants["ratio_bound_q"] = q
    rep.constants["ratios"] = {str(n): r for n, r in ratios.items()}
    rep.constants["series_limit"] = limit
    rep.constants["top_relative_gap"] = rel
    if rel > 0.05:
        rep.violations.append(
            {"item": "limit_convergence", "n": n_top, "ratio": ratios[n_top],
             "limit": limit, "relative_gap": rel})
    return rep


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class VerifierConfig:
    """Sample budgets for a full verification sweep."""

    sample_count: int = 100_000
    calibration_count: int = 1_000_000
    trial_count: int = 1000
    covering_sizes: tuple = (10, 100, 1000)
    codim_sizes: tuple = (10, 100, 1000, 10_000)
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.sample_count < 1 or self.calibration_count < 1 \
                or self.trial_count < 1:
            raise ConfigurationError("sample budgets must be positive")


def run_all(config: VerifierConfig, params=None) -> list:
    """Run every suite with the config's budgets; deterministic given
    (config, params).  Returns the reports in a fixed order; the sweep
    passed iff all(r.passed for r in reports)."""
    if params is None:
        params = maps.build_params()
    seed = config.seed
    reports = [
        check_cusp_geometry(config.sample_count, seed),
        check_calibration(params, config.calibration_count, seed),
    ]
    for n in config.covering_sizes:
        reports.append(check_covering(n, config.sample_count, params, seed))
    reports.append(check_derivative_bound(config.trial_count, seed))
    reports.append(check_schwarz_bound(config.trial_count, seed))
    reports.append(check_codim_count(config.codim_sizes, params.theta,
                                     params.sigma, seed))
    return reports
