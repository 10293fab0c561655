"""Verification suites for the geometric, calibration, covering,
derivative, and counting inequalities the construction rests on.

No suite draws a random number, and none takes a seed.  The geometry
and calibration suites check their inequalities on the unit circle,
where the maximum principle settles them for the whole disk (the
proofs are in check_cusp_geometry's and check_calibration's
docstrings).  The covering suite proves its claim for the whole lens
in exact rationals, and the derivative and Schwarz suites evaluate the
closed-form sup of |h_k| over the unit ball of H^2(D^2) against their
bounds, on a grid of the one radius it depends on.  Each returns a
report whose violations list is empty iff the suite passed.  A
violation always carries enough of a witness to replay the single
failing evaluation by hand.  Every violation enters through
VerificationReport.witness or .record, which keep the first
WITNESS_CAP witnesses per item, grouped by item in the order items
first fail.

Every grid is streamed maps.SAMPLE_BLOCK points at a time
(_grid_slices), and a suite keeps only running extrema, counts and
each item's first witnesses, so its memory does not grow with its
budget, and every element and report is bit for bit the whole-array
one.  Verification never loads mpmath: the counting suite's 50-digit
floors use the standard library's decimal.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import maps
from .errors import ConfigurationError

GEOMETRY_TOLERANCE = 1e-10
# witnesses kept per violated item; more would only repeat the story
WITNESS_CAP = 10
# family sizes run_all sweeps with the covering and counting suites
COVERING_SIZES = (10, 100, 1000)
CODIM_SIZES = (10, 100, 1000, 10_000)


def _c2s(z) -> list:
    """complex -> JSON-able [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


@dataclass
class VerificationReport:
    suite: str
    samples: int
    violations: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def witness(self, entry: dict) -> None:
        """Record a violation unless its item has WITNESS_CAP already,
        after the item's last one, so each item's witnesses stay together."""
        same = [k for k, v in enumerate(self.violations)
                if v["item"] == entry["item"]]
        if len(same) < WITNESS_CAP:
            at = same[-1] + 1 if same else len(self.violations)
            self.violations.insert(at, entry)

    def record(self, item: str, mask: np.ndarray, fields) -> None:
        """Witness the first WITNESS_CAP points where mask holds;
        fields(i) maps each witness key to point i's value, a complex
        one stored as [re, im]."""
        for i in np.flatnonzero(mask)[:WITNESS_CAP]:
            self.witness({"item": item,
                          **{key: _c2s(value) if np.iscomplexobj(value)
                             else value for key, value in fields(i).items()}})


# ---------------------------------------------------------------------------
# cusp geometry


def _grid_slices(start: float, stop: float, count: int,
                 geometric: bool = False):
    """np.linspace(start, stop, count), or np.geomspace if geometric,
    yielded maps.SAMPLE_BLOCK points at a time.  Each slice is formed by
    numpy's own formula, i * step + a with step = (b - a) / (count - 1)
    for the ends a, b (for geomspace their log10, and the point is 10
    to that power), and the ends are set as numpy sets them, so every
    point has numpy's bits."""
    a, b = (np.log10(start), np.log10(stop)) if geometric else (start, stop)
    step = (b - a) / max(count - 1, 1)
    for lo in range(0, count, maps.SAMPLE_BLOCK):
        x = np.arange(lo, min(lo + maps.SAMPLE_BLOCK, count),
                      dtype=float) * step + a
        if geometric:
            x = np.power(10.0, x)
        if lo == 0:
            x[0] = start
        if count > 1 and lo + x.size == count:
            x[-1] = stop
        yield x


def _bracket_grid_slices(count: int):
    """np.geomspace(1e-8, pi/4, count) in slices: the bracket grid."""
    return _grid_slices(1e-8, math.pi / 4.0, count, geometric=True)


def _circle_rest() -> np.ndarray:
    """The points t > 0 of the half circle off the bracket grid: 2000
    geometric in [1e-300, 1e-8), then 1000 each in (pi/4, pi/2] and
    (pi/2, pi], the lens corner t = pi/2 a node."""
    return np.concatenate([
        np.geomspace(1e-300, 1e-8, 2000, endpoint=False),
        np.linspace(math.pi / 4.0, math.pi / 2.0, 1001)[1:],
        np.linspace(math.pi / 2.0, math.pi, 1001)[1:]])


def check_cusp_geometry(sample_count: int) -> VerificationReport:
    """Lens geometry of the cusp map, checked on the unit circle.

    Exact checks (GEOMETRY_TOLERANCE, 1e-10) of the closed-form arc
    values chi(e^it) = maps.cusp_on_circle(t) at points t > 0:

      * image inside D(1/2, 1/2) and outside D(1 +- i/2, 1/2)   (lens)
      * |chi - 1| <= 1
      * Re chi in [0, 1] and |Im chi| <= 2 (1 - Re chi)^2
      * |1 - chi| <= maps.LENS_K * (1 - |chi|), the comparability the
        covering argument uses, at its exact constant 1 + sqrt(2)
        (the sup over the points is reported)

    Each holds on the whole disk once it holds on the circle:

      * |chi - 1/2| and |chi - 1| are subharmonic, so their sup over
        the disk is taken on the circle;
      * chi omits 1 +- i/2, so log|chi - (1 +- i/2)| is harmonic and
        its inf is taken on the circle;
      * Re chi is harmonic, so both its extrema are;
      * chi is bounded, so the one boundary point where it is not
        continuous, the cusp z = 1, does not count;
      * imag_vs_gap follows from the three lens items, and distortion
        is the proof of maps.LENS_K; both are in that docstring;
      * cusp_on_circle reflects exactly, chi(e^-it) = conj chi(e^it),
        so t > 0 suffices: lens_lower at t is its mirror lens_upper at
        -t, and every other item is invariant under conjugation.

    The points are the grid of _bracket_grid_slices(sample_count),
    t in [1e-8, pi/4], streamed a slice at a time, then _circle_rest:
    t in [1e-300, 1e-8), where 1 - e^it goes down to 1e-300, and
    (pi/4, pi].  On the grid the bracket of (1 - Re chi) log(1/t) is
    reported, and gap_log_rise witnesses a step where that value rises
    by more than the tolerance; where none does, the bracket is the
    values at the grid's two ends.  real_axis checks that the chain
    maps 4001 points of the real diameter to real values, exactly.
    Each item's witnesses file together, the items in the order they
    first fail."""
    if sample_count < 10_000:
        raise ConfigurationError("geometry suite needs at least 1e4 samples")
    rep = VerificationReport("cusp_geometry", sample_count)
    tolerance = GEOMETRY_TOLERANCE
    ratio_sup = -math.inf

    def check(t, chi):
        nonlocal ratio_sup
        dist, gap = np.abs(1.0 - chi), 1.0 - np.abs(chi)
        for item, mask in (
                ("lens_outer", np.abs(chi - 0.5) > 0.5 + tolerance),
                ("lens_upper", np.abs(chi - (1.0 + 0.5j)) < 0.5 - tolerance),
                ("lens_lower", np.abs(chi - (1.0 - 0.5j)) < 0.5 - tolerance),
                ("near_one", np.abs(chi - 1.0) > 1.0 + tolerance),
                ("real_part",
                 (chi.real < -tolerance) | (chi.real > 1.0 + tolerance)),
                ("imag_vs_gap",
                 np.abs(chi.imag) > 2.0 * (1.0 - chi.real) ** 2 + tolerance),
                ("distortion", dist > maps.LENS_K * gap + tolerance)):
            rep.record(item, mask, lambda i: {"t": t[i], "chi": chi[i]})
        ratio_sup = max(ratio_sup, float(np.max(dist / gap)))

    lo, hi = math.inf, -math.inf
    last_t, last_value = math.nan, math.inf  # the step before the grid
    for t in _bracket_grid_slices(sample_count):
        chi = maps.cusp_on_circle(t)
        check(t, chi)
        value = (1.0 - chi.real) * np.log(1.0 / t)
        rep.record("gap_log_rise",
                   np.diff(value, prepend=last_value) > tolerance,
                   lambda i: {"t": [t[i - 1] if i else last_t, t[i]],
                              "value": [value[i - 1] if i else last_value,
                                        value[i]]})
        lo, hi = min(lo, float(value.min())), max(hi, float(value.max()))
        last_t, last_value = t[-1], value[-1]
    t = _circle_rest()
    check(t, maps.cusp_on_circle(t))

    axis = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001) + 0j
    chi_axis = maps.cusp_values(axis)
    rep.record("real_axis", chi_axis.imag != 0.0,
               lambda i: {"z": axis[i], "chi": chi_axis[i]})
    rep.constants["distortion_sup"] = ratio_sup
    rep.constants["k_hat"] = maps.LENS_K
    rep.constants["gap_log_bracket"] = [lo, hi]
    return rep


# ---------------------------------------------------------------------------
# calibration


def check_calibration(params, sample_count: int) -> VerificationReport:
    """Strict perturbation-budget inequalities, checked on the circle:

      |chi| + 2 c |phi(chi)| < 1
      1 - |w2| >= (1 - |chi|) / 2   for w2 = chi + c phi(chi) u,

    the second for every |u| <= 1, so for every value of g(z2).  The
    largest |w2| over the closed disk is |chi| + c |phi|, attained at
    u* = exp(i (arg chi - arg phi)), where c phi u* points along chi,
    so the second margin is (1 - |chi|) / 2 - c |phi| in closed form:
    half the first margin, bit for bit, since halving is exact.  It is
    negative only where the first is, so the suite records the first,
    reach, alone, and reports half its minimum as half_gap_margin_min.
    maps.reach_fraction < 1 proves both inequalities for the exact
    map.  The report carries q, the lens ratio that sets it
    (maps.reach_bound), its slack 1 - q, and X*, the |1 - chi| where
    the damping bound peaks, beside the margins at
    chi(e^it) = maps.cusp_on_circle(t), with maps.phi_modulus's |phi|.

    The circle suffices.  u = |chi| + 2c |phi(chi)| is subharmonic, a
    sum of moduli of holomorphic maps (phi o chi is, as chi omits 1),
    and bounded, so its sup over the disk is its limsup at the circle,
    where the cusp z = 1, one boundary point, does not count.  So u < 1
    on the rest of the circle gives u <= 1 on the disk, and u < 1
    inside by the strong maximum principle.  Both margins tend to 0 at
    the cusp, so their reported minima sit at the point nearest it.
    chi(e^-it) = conj chi(e^it) exactly, and phi commutes with
    conjugation, so t > 0 suffices.

    The points are the geometry suite's: the grid of
    _bracket_grid_slices(sample_count), a slice at a time, then
    _circle_rest.  Only the running minimum is kept, and the witnesses
    are the first ten in point order."""
    if sample_count < 10_000:
        raise ConfigurationError("calibration suite needs at least 1e4 samples")
    rep = VerificationReport("calibration", sample_count)
    reach_min = math.inf
    for t in itertools.chain(_bracket_grid_slices(sample_count),
                             [_circle_rest()]):
        chi = maps.cusp_on_circle(t)
        phi_abs = maps.phi_modulus(chi, params.theta)
        reach_margin = (1.0 - np.abs(chi)) - 2.0 * (params.c * phi_abs)
        rep.record("reach", reach_margin <= 0.0,
                   lambda i: {"t": t[i], "margin": reach_margin[i]})
        reach_min = min(reach_min, float(reach_margin.min()))
    q, bound = maps.reach_bound(params)
    rep.constants.update(
        reach_margin_min=reach_min, half_gap_margin_min=reach_min / 2.0,
        reach_fraction=q, reach_bound=bound, reach_slack=1.0 - q,
        damping_peak_gap=maps._damping_peak(params.theta)[0])
    return rep


# ---------------------------------------------------------------------------
# covering certificate


def _covering_end(n: int, theta: float, shrink: float) -> int:
    """N_n = floor(log 2n / (theta log 1/shrink)) + 1, the last scale
    index of the covering for size n, in double arithmetic."""
    return int(math.floor(
        math.log(2.0 * n) / (theta * math.log(1.0 / shrink)))) + 1


def check_covering(n: int, params) -> VerificationReport:
    """Certificate, in exact rationals, that every image point w = chi(z)
    that is deep (|w| > depth = 1 - sigma^j0 / k_hat) and not within 1/n
    of the cusp tip lies in an open disk D(1 - s^j, s^j / 4) of the
    covering family, s = sigma, j0 <= j <= N = _covering_end(n, theta,
    s), which check_codim_count cross-checks against 50 digits.

    Write a lens point as w = 1 - x + iy; every lens point has
    |y| <= 2 x^2 (see maps.LENS_K).  Let x0 = s^j0, x_c = (9/8) x0 and
    x_N = s^N.  Each item below is one comparison of Fractions of the
    float parameters, which are exact; it proves its statement when it
    holds.

      strip  every lens point with x in [x_N, x0] is covered, when
             4 x0^2 < H^2.  Scaled by s^-j, disks j and j + 1 have
             centres 1 and s and radii 1/4 and s/4.  With d = 1 - s
             and a = (d^2 + 1/16 - s^2/16) / (2d), the two circles
             cross between the centres if a <= d, and otherwise disk j
             is the higher on the whole interval; either way the union
             is at least s^j H high over x in [s^(j+1), s^j], with
             H^2 = 1/16 - min(a, d)^2.  The lens there is at most
             2 s^(2j) <= 2 x0 s^j high, so one comparison covers every
             j >= j0.
      cap    disk j0 covers the lens over [x0, x_c], when
             4 x_c^4 < (3/4) (x0/4)^2: there the disk is at least
             sqrt(3/4) x0/4 high and the lens at most 2 x_c^2.
      depth  no hypothesis point has x >= x_c, when
             max((1 - x_c)^2 + 4 x_c^4, 1/2) <= depth^2.  On
             [x_c, 1/2], |w|^2 <= (1 - x)^2 + 4 x^4, which is convex
             in x, and for x > 1/2, |w|^2 <= Re w < 1/2.
      tip    no hypothesis point has x < x_N, when
             x_N^2 + 4 x_N^4 <= 1/n^2, since |1 - w|^2 <= x^2 + 4 x^4.

    The hypothesis region is vacuous, and the suite passes on depth
    alone, when x_c^2 + 4 x_c^4 <= 1/n^2, as at n = 10 for the
    calibrated parameters.  Otherwise strip, cap and tip must hold too.
    Each failing comparison is witnessed by one box: its item, its
    x-interval and the two sides as floats.  Every comparison's slack,
    bound minus value, is reported.  Nothing is sampled, so the report
    counts 0 samples."""
    if n < 2:
        raise ConfigurationError("covering test needs n >= 2")
    start, end = params.j0, _covering_end(n, params.theta, params.sigma)
    if end < start:
        raise ConfigurationError(
            "covering family for n = %d is empty: N_n = %d < j0 = %d"
            % (n, end, start))
    rep = VerificationReport("covering_n%d" % n, 0)
    s = Fraction(params.sigma)
    x0, x_end = s ** start, s ** end
    x_cap = Fraction(9, 8) * x0
    depth = 1 - x0 / Fraction(params.k_hat)
    d = 1 - s
    a = (d * d + (1 - s * s) / 16) / (2 * d)
    inv_n_sq = Fraction(1, n * n)
    # item, x-interval, value, bound, whether value < bound is strict
    comparisons = (
        ("strip", (x_end, x0), 4 * x0 ** 2,
         Fraction(1, 16) - min(a, d) ** 2, True),
        ("cap", (x0, x_cap), 4 * x_cap ** 4,
         Fraction(3, 4) * (x0 / 4) ** 2, True),
        ("depth", (x_cap, 1),
         max((1 - x_cap) ** 2 + 4 * x_cap ** 4, Fraction(1, 2)),
         depth ** 2, False),
        ("tip", (0, x_end), x_end ** 2 + 4 * x_end ** 4, inv_n_sq, False))
    vacuous = x_cap ** 2 + 4 * x_cap ** 4 <= inv_n_sq
    for item, box, value, bound, strict in comparisons:
        holds = value < bound if strict else value <= bound
        if not holds and (item == "depth" or not vacuous):
            rep.witness({"item": item, "x": [float(v) for v in box],
                         "value": float(value), "bound": float(bound)})
    rep.constants["slack"] = {item: float(bound - value)
                              for item, _, value, bound, _ in comparisons}
    rep.constants["vacuous"] = vacuous
    rep.constants["family"] = {"start_index": start, "end_index": end,
                               "shrink": params.sigma}
    return rep


# ---------------------------------------------------------------------------
# derivative bounds (closed-form certificates)


def _derivative_sup(k: int, r):
    """k! sqrt(P_k(r^2)) / (1 - r^2)^(k+1), P_k(x) = sum_j C(k, j)^2 x^j:
    the sup of |h_k(b)| over the unit ball of H^2(D^2) at |b| = r (see
    check_derivative_bound).  1 - r^2 is formed as (1 - r)(1 + r),
    which does not cancel near r = 1."""
    p = np.polynomial.polynomial.polyval(
        r * r, [math.comb(k, j) ** 2 for j in range(k + 1)])
    return math.factorial(k) * np.sqrt(p) / ((1.0 - r) * (1.0 + r)) ** (k + 1)


def _grid_certificate(rep, item, key, stop, cases, sides):
    """Witness value > bound, (value, bound) = sides(x, **case), for each
    case on the grid np.linspace(0, stop, rep.samples) of key, and
    report the largest value / bound and where it sits."""
    worst, worst_at = -math.inf, None
    for case in cases:
        for x in _grid_slices(0.0, stop, rep.samples):
            value, bound = sides(x, **case)
            rep.record(item, value > bound,
                       lambda i: {**case, key: x[i], "value": value[i],
                                  "bound": bound[i]})
            ratio = value / bound
            i = int(np.argmax(ratio))
            if ratio[i] > worst:
                worst, worst_at = float(ratio[i]), {**case, key: float(x[i])}
    rep.constants["max_ratio"] = worst
    rep.constants["max_at"] = worst_at
    return rep


def check_derivative_bound(trial_count: int) -> VerificationReport:
    """Diagonal second-variable derivative bound, for every f in H^2(D^2):

        |h_k(b)| <= k! 2^{k+1} (1-|b|)^{-(k+1)} ||f||,   h_k(b) = d2^k f(b, b).

    Certificate.  For f = sum c_{a1,a2} z1^a1 z2^a2, h_k(b) is
    sum_{a2 >= k} c_{a1,a2} (a2)_k b^{a1+a2-k}, (a2)_k = a2!/(a2 - k)!,
    a bounded functional with representer coefficients
    (a2)_k conj(b)^{a1+a2-k} (Aronszajn, Trans. AMS 1950).  The sup of
    |h_k(b)| over ||f|| = 1 is its norm: with x = |b|^2, summing the
    geometric series in a1 and sum_m C(m+k, k)^2 x^m =
    P_k(x) / (1 - x)^{2k+1} in m = a2 - k,

        sup^2 = sum_{a1 >= 0, a2 >= k} ((a2)_k)^2 x^{a1+a2-k}
              = k!^2 P_k(x) / (1 - x)^{2k+2},   P_k(x) = sum_j C(k,j)^2 x^j,

    which is _derivative_sup(k, |b|).  Over the bound it is
    sqrt(P_k(r^2)) / (2^{k+1} (1+r)^{k+1}) at r = |b|, and
    P_k(r^2) <= (sum_j C(k,j) r^j)^2 = (1+r)^{2k}, so the ratio is at
    most 1 / (2^{k+1} (1+r)) <= 2^{-(k+1)}, attained at b = 0 by
    f = z2^k.  The suite compares both sides for k = 0..6 at
    trial_count points of |b| in [0, 0.999]: at most 0.5, at k = b = 0."""
    if trial_count < 1:
        raise ConfigurationError("trial_count must be positive")

    def sides(r, k):
        return (_derivative_sup(k, r),
                math.factorial(k) * 2.0 ** (k + 1) / (1.0 - r) ** (k + 1))

    return _grid_certificate(
        VerificationReport("derivative_bound", trial_count),
        "derivative", "b", 0.999, [{"k": k} for k in range(7)], sides)


def check_schwarz_bound(trial_count: int) -> VerificationReport:
    """Vanishing-order refinement: for every f in H^2(D^2) whose h_k
    vanishes to order n at a, and |b - a| <= (rho/2)(1 - |a|), rho = 1/2,

        |h_k(b)| <= rho^n k! 4^{k+1} (1-|a|)^{-(k+1)} ||f||.

    Certificate.  Let R = (1 - |a|)/2.  The disk D(a, R) reaches out to
    modulus (1 + |a|)/2, and check_derivative_bound's sup grows with
    |b|, so |h_k| <= M = _derivative_sup(k, (1 + |a|)/2) ||f|| on it.
    By the Schwarz lemma on D(a, R), |h_k(b)| <= M (|b - a| / R)^n
    <= rho^n M.  check_derivative_bound puts the sup within 2^{-(k+1)}
    of k! 2^{k+1} (1 - |z|)^{-(k+1)}, so with 1 - |z| >= R,
    M <= k! 2^{k+1} (1-|a|)^{-(k+1)} ||f||, and rho^n M is at most
    2^{-(k+1)} of the bound.  The suite compares rho^n M with the bound
    for k = 0..4, n = 0..8 at trial_count points of |a| in [0, 0.9]:
    at most 1/3, at k = n = 0, a = 0 (rho^n, a power of two, scales
    both sides alike)."""
    if trial_count < 1:
        raise ConfigurationError("trial_count must be positive")

    def sides(a, k, vanish_order):
        scale = 0.5 ** vanish_order
        return (scale * _derivative_sup(k, (1.0 + a) / 2.0),
                scale * math.factorial(k) * 4.0 ** (k + 1)
                / (1.0 - a) ** (k + 1))

    return _grid_certificate(
        VerificationReport("schwarz_bound", trial_count),
        "schwarz", "a", 0.9,
        [{"k": k, "vanish_order": n} for k in range(5) for n in range(9)],
        sides)


# ---------------------------------------------------------------------------
# codimension counting


_GUARD_DIGITS = 10
_FIFTY_DIGITS = decimal.Context(prec=50)


def _floor_50(x: Decimal) -> int:
    """floor of x rounded to 50 digits.  x carries _GUARD_DIGITS more,
    so a quantity that is exactly an integer, as n shrink^(j theta) is
    for some n when j theta is whole, floors to that integer and not to
    the one below, however its last guard digit fell."""
    return math.floor(_FIFTY_DIGITS.plus(x))


def check_codim_count(n_list, params) -> VerificationReport:
    """Size of the coefficient-constraint system behind the rank
    reduction, at theta = params.theta and shrink = params.sigma:
    count(n) = n * sum_{j=1..N_n} ([n shrink^{j theta}] + 1) must stay
    below q * n^2 for one constant q across all n, and count / n^2
    approaches the geometric series limit
    shrink^theta / (1 - shrink^theta).  Every floor is cross-checked
    against 50-digit decimal arithmetic (ln(shrink) once, one exp per
    j, shared by every n, see _floor_50), so a double-rounding boundary
    case would surface as a violation."""
    theta, shrink = params.theta, params.sigma
    n_list = sorted({int(n) for n in n_list})
    if not n_list or n_list[0] < 1:
        raise ConfigurationError("need a non-empty list of sizes n >= 1")
    rep = VerificationReport("codim_count", len(n_list))
    ratios = {}
    with decimal.localcontext() as ctx:
        ctx.prec = 50 + _GUARD_DIGITS
        # Decimal(float) is exact, and ln and exp are correctly rounded
        log_shrink, theta_d = Decimal(shrink).ln(), Decimal(theta)
        powers = []  # shrink^(j theta) for j = 1, 2, ..., shared by every n
        for n in n_list:
            end = _covering_end(n, theta, shrink)
            end_exact = _floor_50(
                Decimal(2 * n).ln() / (theta_d * -log_shrink)) + 1
            if end != end_exact:
                rep.witness(
                    {"item": "range_formula", "n": n,
                     "double": end, "exact": end_exact})
                end = end_exact
            while len(powers) < end:
                powers.append(((len(powers) + 1) * theta_d * log_shrink).exp())
            total = 0
            for j, power in enumerate(powers[:end], 1):
                m_double = int(math.floor(n * shrink ** (j * theta))) + 1
                m_exact = _floor_50(n * power) + 1
                if m_double != m_exact:
                    rep.witness(
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
        rep.witness(
            {"item": "limit_convergence", "n": n_top, "ratio": ratios[n_top],
             "limit": limit, "relative_gap": rel})
    return rep


# ---------------------------------------------------------------------------
# orchestration


def run_all(params, sample_count: int, calibration_count: int,
            trial_count: int) -> list:
    """Run every suite with these budgets, each suite enforcing its own
    minimum; deterministic given the arguments.  Returns the reports in
    a fixed order; the sweep passed iff all(r.passed for r in reports)."""
    reports = [
        check_cusp_geometry(sample_count),
        check_calibration(params, calibration_count),
    ]
    for n in COVERING_SIZES:
        reports.append(check_covering(n, params))
    reports.append(check_derivative_bound(trial_count))
    reports.append(check_schwarz_bound(trial_count))
    reports.append(check_codim_count(CODIM_SIZES, params))
    return reports
