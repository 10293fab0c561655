"""Singular spectra of the truncated composition operators, decay-rate
fits, and the one-variable contrast and plateau runs.

Every spectrum here is reported as an honest interval: the computed
values are s-numbers of a truncation, which can only undershoot the
full operator (compressions shrink s-numbers), and the attached
tail_bound caps the gap in operator norm.  Values at or below the
tail, or below the eigensolver's rounding floor, carry no information;
the fitting code refuses to use them, and the upper endpoint of a
value under the rounding floor is the floor plus the tail.

The two-variable spectra come from one dense eigensolve of a small
core matrix that shares its nonzero eigenvalues with the column Gram
(see composition_spectrum), so every value is computed; values under
the eigensolver's noise floor are reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hardy, maps
from .errors import ConfigurationError, CuspDecayError


# ---------------------------------------------------------------------------
# spectra as data


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values plus a truncation uncertainty.

    The n-th approximation number of the underlying full operator lies
    in [values[n-1], max(values[n-1], noise_floor) + tail_bound], where
    noise_floor is the level below which the solver that produced the
    values cannot resolve them (0 when it certifies every value)."""

    values: np.ndarray
    tail_bound: float
    noise_floor: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ConfigurationError("spectrum needs a non-empty 1-D array")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ConfigurationError("singular values must be finite and >= 0")
        if np.any(np.diff(v) > 0.0):
            raise ConfigurationError("singular values must descend")
        if not 0.0 <= self.tail_bound < math.inf:
            raise ConfigurationError("tail_bound must be finite and >= 0")
        if not 0.0 <= self.noise_floor < math.inf:
            raise ConfigurationError("noise_floor must be finite and >= 0")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, kw_only=True)
class TruncatedSpectrum(SingularSpectrum):
    """The spectrum of a truncated composition operator with the record
    of its truncation: hs_sq is the Hilbert-Schmidt integral and
    tail_radicand the signed HS^2 - trace G for the discarded columns
    and t2 modes, whose positive part is tail_bound squared; t2_modes is
    the number of t2 modes the Gram G holds."""

    hs_sq: float
    tail_radicand: float
    t2_modes: int


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (n, log a_{n^exponent})."""

    intercept: float
    rate: float  # minus the fitted slope; positive means decay
    r_squared: float
    n_range: tuple
    usable_n: tuple


@dataclass(frozen=True)
class BetaReport:
    """Finite-n proxies for the geometric-decay parameters along the
    schedule n -> n^exponent: extremes of [a_{n^exponent}]^{1/n} over
    the asymptotic half of the probed range.  beta_minus uses the
    computed lower endpoints above the noise floor, beta_plus the
    truncation-capped upper ones, so the pair brackets anything the
    finite data can certify."""

    schedule_exponent: int
    beta_minus: float
    beta_plus: float

    def __post_init__(self):
        if self.schedule_exponent < 1:
            raise ConfigurationError("schedule exponent must be >= 1")
        ok = 0.0 <= self.beta_minus <= self.beta_plus <= 1.0
        if not ok:
            raise CuspDecayError(
                "decay proxies outside [0, 1] (got [%r, %r]): the probed "
                "range is not in the decaying regime"
                % (self.beta_minus, self.beta_plus)
            )


def gram_values(gram: np.ndarray, tail_bound: float) -> SingularSpectrum:
    """s-numbers from a Gram matrix: square roots of its eigenvalues.

    Rounding moves every eigenvalue by up to ~eps * ||G||, so s-numbers
    below sqrt(eps * lambda_max) are noise regardless of sign; negative
    eigenvalues are clipped to 0 and that level is recorded as the
    spectrum's noise_floor, which fit_decay enforces.  The Gram is
    replaced by its Hermitian part first; an exactly Hermitian Gram is
    its own Hermitian part, bit for bit."""
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ConfigurationError("gram matrix must be square")
    gram = 0.5 * (gram + gram.conj().T)
    try:
        ev = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise CuspDecayError("eigensolve failed: %s" % exc) from exc
    vals = np.sqrt(np.clip(ev[::-1], 0.0, None))
    noise = math.sqrt(float(np.finfo(float).eps) * max(float(ev[-1]), 0.0))
    return SingularSpectrum(vals, tail_bound, noise)


def _column_gram_spectrum(gram: hardy.ColumnGram) -> TruncatedSpectrum:
    """s-numbers of a ColumnGram from the eigenvalues of its core,
    truncated or zero-padded to its order n, with the values at or
    below the noise floor reported as 0; see composition_spectrum."""
    top = gram_values(gram.core, gram.tail)
    values = np.zeros(gram.order)
    k = min(len(top), gram.order)
    values[:k] = np.where(top.values[:k] > top.noise_floor,
                          top.values[:k], 0.0)
    return TruncatedSpectrum(values, top.tail_bound, top.noise_floor,
                             hs_sq=gram.hs_sq,
                             tail_radicand=gram.tail_radicand,
                             t2_modes=gram.t2_modes)


def composition_spectrum(params, degree: int, quad: hardy.CircleQuadrature,
                         kind: str = "paper") -> TruncatedSpectrum:
    """Spectrum pipeline for the two-variable symbols: column Gram of
    the kept monomials' images on the caller's t1 mesh quad, the exact
    eigenvalues of its small core, discarded-column tail.  This is the
    production route behind the headline decay run.

    hardy.column_gram_operator holds the Gram of P_J C, the image of the
    n = (D+1)^2 kept columns cut to the t2 modes <= J, as G = M^T M
    with M = [T_0 E_0; ...; T_J E_J] (ColumnGram has the layout), along
    with trace G, HS^2 and the signed radicand HS^2 - trace G, which the
    result carries as hs_sq and tail_radicand, and J + 1 as t2_modes.
    M M^T and M^T M share their nonzero eigenvalues, so one dense
    eigensolve of the core M M^T (288 square for the paper symbol at
    D = 48; J = 2, and J = 0 for the diagonal) gives every nonzero
    eigenvalue of G, and G's other n - rank eigenvalues are exact
    zeros.  Their square roots are the s-numbers of the compression
    P_J C.

    - Lower endpoints: P_J C compresses C (the t2 modes are orthogonal;
      hardy.column_gram_operator has the proof), so each s-number of
      P_J C is at most the matching one of the full operator.
    - Tail: by Parseval ||C_full - P_J C||_HS^2 = HS^2 - trace G, the
      discarded columns' mass plus the dropped modes', so a resolved
      row reads [s_n, s_n + tail] with
      tail = sqrt(max(HS^2 - trace G, 0)).
    - Noise: the eigensolve knows each eigenvalue only to about
      eps lambda_1, so a value at or below sqrt(eps lambda_1), the
      noise floor, carries no information: it is reported as 0, still
      a lower endpoint, and fit_decay never uses it.  Its row reads
      [0, noise_floor + tail] (approximation_numbers), so no upper
      endpoint reads 0 where the tail rounds to 0 (the diagonal from
      D = 120 on, the paper symbol from D = 195), though a_64 ~ 6.6e-9
      is not 0.  A resolved value's endpoints are not widened for this
      rounding."""
    return _column_gram_spectrum(
        hardy.column_gram_operator(params, degree, quad, kind))


def approximation_numbers(spectrum: SingularSpectrum, n: int) -> tuple:
    """Interval containing the full operator's n-th approximation
    number; 1-indexed, n = 1 is the operator norm.  A resolved value
    s_n reads [s_n, s_n + tail].  A value at or below the noise floor,
    0 when composition_spectrum zeroed it, is known only up to that
    floor, so its row reads [s_n, noise_floor + tail]."""
    if not 1 <= n <= len(spectrum):
        raise CuspDecayError(
            "n = %d outside the computed range 1..%d" % (n, len(spectrum)))
    low = float(spectrum.values[n - 1])
    return (low, max(low, spectrum.noise_floor) + spectrum.tail_bound)


def _admissible_n(spectrum: SingularSpectrum, schedule_exponent: int,
                  n_range) -> list:
    """Sorted n in n_range with n^exponent inside the computed range."""
    if schedule_exponent < 1:
        raise ConfigurationError("schedule exponent must be >= 1")
    admissible = sorted(
        {int(n) for n in n_range
         if n >= 1 and int(n) ** schedule_exponent <= len(spectrum)})
    if not admissible:
        raise CuspDecayError(
            "no n in the range has n^%d within the %d computed values"
            % (schedule_exponent, len(spectrum)))
    return admissible


def beta_estimate(spectrum: SingularSpectrum, schedule_exponent: int,
                  n_range) -> BetaReport:
    """Extremes of [a_{n^exponent}]^{1/n} over the upper half of
    n_range; the lower half is treated as transient and discarded.
    beta_minus skips every row with a_{n^exponent} <= noise_floor, as
    fit_decay does, and is 0, still a lower bound, when no kept row
    clears the floor; beta_plus takes every kept row's upper endpoint.

    Raises CuspDecayError when no n in n_range fits the spectrum, or
    (via BetaReport) when the surviving proxies leave [0, 1], which
    happens when the kept n are so small that a_{n^N} still exceeds 1."""
    admissible = _admissible_n(spectrum, schedule_exponent, n_range)
    kept = admissible[len(admissible) // 2:]
    lows, highs = [], []
    for n in kept:
        low, high = approximation_numbers(spectrum, n ** schedule_exponent)
        if low > spectrum.noise_floor:
            lows.append(low ** (1.0 / n))
        highs.append(high ** (1.0 / n))
    return BetaReport(schedule_exponent, min(lows, default=0.0), max(highs))


def fit_decay(spectrum: SingularSpectrum, schedule_exponent: int,
              n_range) -> DecayFit:
    """Fit log a_{n^exponent} = intercept - rate * n by least squares.

    Points with a_{n^exponent} <= max(10 * tail_bound, noise_floor)
    sit under the truncation or eigensolver noise and are excluded;
    fewer than 4 survivors is an error rather than a meaningless
    slope."""
    admissible = _admissible_n(spectrum, schedule_exponent, n_range)
    floor = max(10.0 * spectrum.tail_bound, spectrum.noise_floor)
    usable, logs = [], []
    for n in admissible:
        low, _ = approximation_numbers(spectrum, n ** schedule_exponent)
        if low > floor and low > 0.0:
            usable.append(n)
            logs.append(math.log(low))
    if len(usable) < 4:
        raise CuspDecayError(
            "only %d of %d points exceed the floor %.3e (10 x tail, or "
            "the eigensolver noise floor); "
            "need 4 for a fit" % (len(usable), len(admissible), floor))
    x = np.asarray(usable, dtype=float)
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    sst = float(total @ total)
    r_sq = 1.0 if sst == 0.0 else 1.0 - float(resid @ resid) / sst
    return DecayFit(
        intercept=float(intercept),
        rate=-float(slope),
        r_squared=min(max(r_sq, 0.0), 1.0),
        n_range=(admissible[0], admissible[-1]),
        usable_n=tuple(usable),
    )


# ---------------------------------------------------------------------------
# one-variable comparison runs


def one_dim_contrast(degree: int,
                     quad: hardy.CircleQuadrature) -> SingularSpectrum:
    """Spectrum of the one-variable cusp composition operator, columns
    exact in rows (rectangular factor SVD = full-column Gram route), on
    the caller's t1 mesh quad, which must resolve the cusp at t = 0 and
    the lens corner at pi/2 (hardy.graded_quadrature).

    This operator is not Hilbert-Schmidt-small: its a_n^{1/n} creeps
    toward 1, the contrast to the damped two-variable decay.  Degree is
    capped at 512, where the dense SVD outgrows the desk budget.  The
    tail sums the discarded column norms node by node, so it never
    cancels to zero.  The SVD resolves values only down to its rounding
    level eps * s_1, recorded as the noise_floor."""
    if degree > 512:
        raise ConfigurationError("one-dim contrast capped at degree 512")
    chi = maps.cusp_on_circle(quad.nodes)
    v = quad.factor(np.vander(chi, degree + 1, increasing=True))
    try:
        with hardy._one_blas_thread():
            s = np.linalg.svd(v, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise CuspDecayError("SVD failed to converge: %s" % exc) from exc
    # per node, 1/(1 - r) - sum_{k <= D} r^k = r^(D+1)/(1 - r), r = |chi|^2
    r = np.abs(chi) ** 2
    tail = math.sqrt(quad.mean(r ** (degree + 1) / (1.0 - r)))
    return SingularSpectrum(s, tail, float(np.finfo(float).eps * s[0]))


SUP_BOUND_GRID = 1 << 15
PLATEAU_DPS = 60


def scaled_sup_bound(scale: float) -> float:
    """Certified upper bound on sup |chi(scale * z)| over the closed
    disk: maximum over SUP_BOUND_GRID midpoints on the circle plus a
    derivative margin from the Schwarz-Pick bound
    |chi'| <= 1/(1 - scale^2)."""
    if not 0.0 < scale < 1.0:
        raise ConfigurationError("scale must lie in (0, 1)")
    t = hardy.midpoint_nodes(SUP_BOUND_GRID)
    vals = np.abs(maps.cusp_values(scale * maps.expi(t)))
    margin = scale / (1.0 - scale * scale) * (math.pi / SUP_BOUND_GRID)
    bound = float(vals.max()) + margin + 1e-12
    if bound >= 1.0:
        raise CuspDecayError(
            "no certified gap to 1 for scale %r; enlarge the grid" % scale)
    return bound


def one_dim_plateau(scale: float = 0.5,
                    block_size: int = 160) -> SingularSpectrum:
    """Spectrum of the shrunken one-variable operator f -> f(chi(r z)).

    Its singular values fall like sup|chi_r|^n, to about 5e-43 by rank
    64, far below double precision, so the block is built and
    decomposed at PLATEAU_DPS digits.  Column alpha + 1 holds the
    Taylor coefficients of chi(r z)^(alpha+1): column alpha times those
    of chi(r z) (maps.cusp_taylor_mp), one mp.fdot per entry, exact in
    the kept rows since the product is lower-triangular in the degree.
    They are real, so the block is mpf and the SVD is mp.svd_r.  The
    tail combines Cauchy estimates for the discarded rows (coefficients
    of a function analytic on |z| < 1/scale) with the certified sup
    bound for the discarded columns.  At scale 0.5 and the default
    block 160 it is 6.6e-44: 22 decades below a_32 = 1.55e-21, but only
    a factor 7.3 below a_64 = 4.77e-43, so the rank-64 interval is 14
    percent wide; ranks 128 and beyond lie under the tail."""
    if not 0.0 < scale <= 0.9:
        raise ConfigurationError("plateau experiment expects scale in (0, 0.9]")
    if block_size < 2:
        raise ConfigurationError("block_size must be at least 2")
    from mpmath import mp

    sup = scaled_sup_bound(scale)
    with mp.workdps(PLATEAU_DPS):
        coeffs = maps.cusp_taylor_mp(block_size, dps=PLATEAU_DPS)
        r = mp.mpf(scale)
        shrunk = [coeffs[k] * r ** k for k in range(block_size)]
        cols = [[mp.one] + [mp.zero] * (block_size - 1)]
        for _ in range(1, block_size):
            cols.append([mp.fdot(cols[-1][:b + 1], shrunk[b::-1])
                         for b in range(block_size)])
        block = mp.matrix(cols).T
        try:
            sv = mp.svd_r(block, compute_uv=False)
        except Exception as exc:
            raise CuspDecayError(
                "arbitrary-precision SVD failed: %s" % exc) from exc
    vals = np.sort(np.array([float(sv[i]) for i in range(block_size)]))[::-1]
    big_r = 0.995 / scale  # chi(scale * z) is analytic on |z| <= big_r
    log_rows = (math.log(block_size) - 2.0 * block_size * math.log(big_r)
                - math.log(1.0 - big_r ** -2.0))
    log_cols = (2.0 * block_size * math.log(sup)
                - math.log(1.0 - sup * sup))
    tail = math.exp(0.5 * float(np.logaddexp(log_rows, log_cols)))
    return SingularSpectrum(vals, tail)

