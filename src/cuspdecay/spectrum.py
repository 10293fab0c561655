"""Singular spectra of the truncated composition operators, decay-rate
fits, and the three-way splitting experiment.

Every spectrum here is reported as an honest interval: the computed
values are s-numbers of a truncation, which can only undershoot the
full operator (compressions shrink s-numbers), and the attached
tail_bound caps the gap in operator norm.  Values at or below the
tail, or below the eigensolver's rounding floor, carry no information;
the fitting code refuses to use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from . import hardy, maps
from .errors import (
    ComputationError,
    ConfigurationError,
    EstimationError,
    InsufficientDataError,
    InvalidInputError,
    RangeError,
)


# ---------------------------------------------------------------------------
# spectra as data


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values plus a truncation uncertainty.

    The n-th approximation number of the underlying full operator lies
    in [values[n-1], values[n-1] + tail_bound]."""

    values: np.ndarray
    tail_bound: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("spectrum needs a non-empty 1-D array")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise InvalidInputError("singular values must be finite and >= 0")
        if np.any(np.diff(v) > 0.0):
            raise InvalidInputError("singular values must descend")
        if not self.tail_bound >= 0.0:  # rejects NaN, admits +inf
            raise InvalidInputError("tail_bound must be >= 0")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (n, log a_{n^exponent})."""

    intercept: float
    rate: float  # minus the fitted slope; positive means decay
    r_squared: float
    n_range: tuple
    usable_n: tuple

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "rate": self.rate,
            "r_squared": self.r_squared,
            "n_range": list(self.n_range),
            "usable_n": list(self.usable_n),
        }


@dataclass(frozen=True)
class BetaReport:
    """Finite-n proxies for the geometric-decay parameters along the
    schedule n -> n^exponent: extremes of [a_{n^exponent}]^{1/n} over
    the asymptotic half of the probed range.  beta_minus uses the
    computed lower endpoints, beta_plus the truncation-capped upper
    ones, so the pair brackets anything the finite data can certify."""

    schedule_exponent: int
    beta_minus: float
    beta_plus: float

    def __post_init__(self):
        if self.schedule_exponent < 1:
            raise InvalidInputError("schedule exponent must be >= 1")
        ok = 0.0 <= self.beta_minus <= self.beta_plus <= 1.0
        if not ok:
            raise InvalidInputError(
                "decay proxies outside [0, 1] (got [%r, %r]): the probed "
                "range is not in the decaying regime"
                % (self.beta_minus, self.beta_plus)
            )

    def to_dict(self) -> dict:
        return {
            "schedule_exponent": self.schedule_exponent,
            "beta_minus": self.beta_minus,
            "beta_plus": self.beta_plus,
        }


def gram_values(gram: np.ndarray, tail_bound: float) -> SingularSpectrum:
    """s-numbers from a Gram matrix: square roots of its eigenvalues.

    Rounding can push eigenvalues below zero by ~eps * ||G||; those are
    clipped, and every reported value below sqrt(eps * ||G||) is noise
    regardless of sign.  Callers comparing against tail_bound (as
    fit_decay does) are unaffected whenever the tail dominates that
    floor, which holds for all the shipped experiments."""
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InvalidInputError("gram matrix must be square")
    try:
        ev = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    except np.linalg.LinAlgError as exc:
        raise ComputationError("eigensolve failed: %s" % exc) from exc
    vals = np.sqrt(np.clip(ev[::-1], 0.0, None))
    return SingularSpectrum(vals, tail_bound)


def composition_spectrum(params, spec: hardy.TruncationSpec,
                         kind: str = "paper",
                         scale: float = 0.5) -> SingularSpectrum:
    """Spectrum pipeline for the two-variable symbols: column Gram of
    the kept monomial images, eigenvalue square roots, discarded-column
    tail.  This is the production route behind the headline decay run."""
    gram, tail = hardy.column_gram(params, spec, kind, scale)
    return gram_values(gram, tail)


def approximation_numbers(spectrum: SingularSpectrum, n: int) -> tuple:
    """Interval [s_n, s_n + tail] containing the full operator's n-th
    approximation number; 1-indexed, n = 1 is the operator norm."""
    if not 1 <= n <= len(spectrum):
        raise RangeError(
            "n = %d outside the computed range 1..%d" % (n, len(spectrum)))
    low = float(spectrum.values[n - 1])
    return (low, low + spectrum.tail_bound)


def _admissible_n(spectrum: SingularSpectrum, schedule_exponent: int,
                  n_range) -> list:
    """Sorted n in n_range with n^exponent inside the computed range."""
    if schedule_exponent < 1:
        raise InvalidInputError("schedule exponent must be >= 1")
    admissible = sorted(
        {int(n) for n in n_range
         if n >= 1 and int(n) ** schedule_exponent <= len(spectrum)})
    if not admissible:
        raise RangeError(
            "no n in the range has n^%d within the %d computed values"
            % (schedule_exponent, len(spectrum)))
    return admissible


def beta_estimate(spectrum: SingularSpectrum, schedule_exponent: int,
                  n_range) -> BetaReport:
    """Extremes of [a_{n^exponent}]^{1/n} over the upper half of
    n_range; the lower half is treated as transient and discarded.

    Raises RangeError when no n in n_range fits the spectrum, and
    InvalidInputError (via BetaReport) when the surviving proxies leave
    [0, 1], which happens when the kept n are so small that a_{n^N}
    still exceeds 1."""
    admissible = _admissible_n(spectrum, schedule_exponent, n_range)
    kept = admissible[len(admissible) // 2:]
    lows, highs = [], []
    for n in kept:
        low, high = approximation_numbers(spectrum, n ** schedule_exponent)
        lows.append(low ** (1.0 / n))
        highs.append(high ** (1.0 / n))
    return BetaReport(schedule_exponent, min(lows), max(highs))


def fit_decay(spectrum: SingularSpectrum, schedule_exponent: int,
              n_range) -> DecayFit:
    """Fit log a_{n^exponent} = intercept - rate * n by least squares.

    Points with a_{n^exponent} <= 10 * tail_bound sit under the
    truncation noise and are excluded; fewer than 4 survivors is an
    error rather than a meaningless slope."""
    admissible = _admissible_n(spectrum, schedule_exponent, n_range)
    floor = 10.0 * spectrum.tail_bound
    usable, logs = [], []
    for n in admissible:
        low, _ = approximation_numbers(spectrum, n ** schedule_exponent)
        if low > floor and low > 0.0:
            usable.append(n)
            logs.append(math.log(low))
    if len(usable) < 4:
        raise InsufficientDataError(
            "only %d of %d points exceed the truncation floor %.3e; "
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
# the three-way splitting experiment


@dataclass(frozen=True)
class SplitSpec:
    """Cuts for restricting the pullback measure by max-modulus of the
    image point: the closed central bidisk up to inner_radius, the
    half-open shell up to outer_radius, and the open outer layer.

    inner_radius = 1 - sigma^j0 / (2 k_hat) is where the covering-scale
    budget guarantees the middle shell is still controlled;
    outer_radius = 1 - 1/n shrinks the outer layer as the target rank
    grows.  The cuts must be strictly ordered, which for the calibrated
    parameters needs n >= 84."""

    n: int
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("n must be positive")
        if not 0.0 < self.inner_radius < self.outer_radius < 1.0:
            raise ConfigurationError(
                "need 0 < inner %r < outer %r < 1; raise n"
                % (self.inner_radius, self.outer_radius))

    @classmethod
    def for_rank(cls, params, n: int) -> "SplitSpec":
        inner = 1.0 - params.sigma ** params.j0 / (2.0 * params.k_hat)
        return cls(n=n, inner_radius=inner, outer_radius=1.0 - 1.0 / n)


@dataclass(frozen=True)
class SplitGrams:
    """Gram matrices of the monomial embedding restricted to the three
    regions, plus the unpartitioned Gram on the same nodes.  Entrywise
    gram_inner + gram_middle + gram_outer = gram_full up to roundoff,
    because each node lands in exactly one region."""

    split: SplitSpec
    gram_inner: np.ndarray
    gram_middle: np.ndarray
    gram_outer: np.ndarray
    gram_full: np.ndarray
    node_count: int

    def masses(self) -> tuple:
        # alpha = 0 diagonal entry is the plain measure of each region
        return (float(self.gram_inner[0, 0].real),
                float(self.gram_middle[0, 0].real),
                float(self.gram_outer[0, 0].real))

    def outer_norm_bound(self) -> float:
        """Upper bound for the norm of the outer-region restriction:
        ||T|| = sqrt(||G||_2) <= sqrt(||G||_F)."""
        return math.sqrt(float(np.linalg.norm(self.gram_outer)))


def split_gram(params, spec: hardy.TruncationSpec,
               split: SplitSpec) -> SplitGrams:
    """Assemble the three region Grams over the kept index set.

    A dyadic circle_quadrature in the first boundary variable (reaching
    far enough below the cusp for the outer region at this n), a
    uniform midpoint grid in the second; all four Grams use identical
    nodes and weights, so the partition identity is exact up to float
    addition order.  The quadrature covers the half circle and the
    symbol is conjugation-symmetric, so each Gram is R^T R with
    R = [Re V; Im V] over the half-circle nodes."""
    t_floor = max(math.exp(-(math.pi / 2.0) * split.n * 1.25 - 30.0), 1e-300)
    quad = hardy.circle_quadrature(2, t_floor)
    data = hardy.symbol_boundary_data(params, quad.nodes, "paper")
    m2 = spec.quad_points
    t2 = hardy.midpoint_nodes(m2)
    w1 = np.repeat(data.F, m2)
    w2 = (data.A[:, None] + data.B[:, None] * np.exp(1j * t2)[None, :]).ravel()
    sqw = np.sqrt(np.repeat(quad.weights, m2) / math.pi / m2)
    mx = np.maximum(np.abs(w1), np.abs(w2))
    idx = hardy.index_set(spec.max_degree)

    def region(sel):
        if not np.any(sel):
            return np.zeros((idx.shape[0], idx.shape[0]))
        p1 = np.vander(w1[sel], spec.max_degree + 1, increasing=True)
        p2 = np.vander(w2[sel], spec.max_degree + 1, increasing=True)
        v = sqw[sel, None] * p1[:, idx[:, 0]] * p2[:, idx[:, 1]]
        r = np.concatenate([v.real, v.imag])
        return r.T @ r

    inner = region(mx <= split.inner_radius)
    middle = region((mx > split.inner_radius) & (mx <= split.outer_radius))
    outer = region(mx > split.outer_radius)
    full = region(np.ones(mx.size, dtype=bool))
    return SplitGrams(split=split, gram_inner=inner, gram_middle=middle,
                      gram_outer=outer, gram_full=full, node_count=mx.size)


# ---------------------------------------------------------------------------
# one-variable comparison runs


def one_dim_contrast(spec: hardy.TruncationSpec) -> SingularSpectrum:
    """Spectrum of the one-variable cusp composition operator, columns
    exact in rows (rectangular factor SVD = full-column Gram route).

    The boundary symbol touches the circle, so this operator is not
    Hilbert-Schmidt-small: its a_n^{1/n} creeps toward 1, the contrast
    to the damped two-variable decay.  Degree is capped at 512; beyond
    that the dense SVD cost outgrows the desk budget.  The tail sums the
    discarded column norms node by node, so it never cancels to zero."""
    if spec.max_degree > 512:
        raise ConfigurationError("one-dim contrast capped at degree 512")
    d = spec.max_degree
    quad = hardy.circle_quadrature(spec.quad_points, math.exp(-80.0))
    chi = maps.cusp_on_circle(quad.nodes)
    v = np.sqrt(quad.weights / math.pi)[:, None] * np.vander(
        chi, d + 1, increasing=True)
    try:
        s = np.linalg.svd(np.concatenate([v.real, v.imag]), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ComputationError("SVD failed to converge: %s" % exc) from exc
    # per node, 1/(1 - r) - sum_{k <= D} r^k = r^(D+1)/(1 - r), r = |chi|^2
    r = np.abs(chi) ** 2
    return SingularSpectrum(s, math.sqrt(quad.mean(r ** (d + 1) / (1.0 - r))))


def scaled_sup_bound(scale: float, grid: int = 1 << 15) -> float:
    """Certified upper bound on sup |chi(scale * z)| over the closed
    disk: grid maximum on the circle plus a derivative margin from the
    Schwarz-Pick bound |chi'| <= 1/(1 - scale^2)."""
    if not 0.0 < scale < 1.0:
        raise ConfigurationError("scale must lie in (0, 1)")
    t = 2.0 * math.pi * (np.arange(grid) + 0.5) / grid
    vals = np.abs(maps.cusp_values(scale * np.exp(1j * t)))
    margin = scale / (1.0 - scale * scale) * (math.pi / grid)
    bound = float(vals.max()) + margin + 1e-12
    if bound >= 1.0:
        raise EstimationError(
            "no certified gap to 1 for scale %r; enlarge the grid" % scale)
    return bound


def one_dim_plateau(scale: float = 0.5, block_size: int = 160,
                    precision_dps: int = 60) -> SingularSpectrum:
    """Spectrum of the shrunken one-variable operator f -> f(chi(r z)).

    Its singular values fall like sup|chi_r|^n, through ~1e-43 by rank
    64, far below double precision; the block is therefore built from
    arbitrary-precision Taylor coefficients (iterated series products,
    exact in the kept rows) and decomposed with the arbitrary-precision
    SVD.  The tail combines Cauchy estimates for the discarded rows
    (coefficients of a function analytic on |z| < 1/scale) with the
    certified sup bound for the discarded columns; both sit decades
    below the rank-64 value, so the plateau of a_n^{1/n} is genuine."""
    if not 0.0 < scale <= 0.9:
        raise ConfigurationError("plateau experiment expects scale in (0, 0.9]")
    if block_size < 2:
        raise ConfigurationError("block_size must be at least 2")
    sup = scaled_sup_bound(scale)
    with mp.workdps(precision_dps):
        coeffs = maps.cusp_taylor_mp(block_size, dps=precision_dps)
        r = mp.mpf(scale)
        shrunk = [coeffs[k] * r ** k for k in range(block_size)]
        col = [mp.mpc(0)] * block_size
        col[0] = mp.mpc(1)
        block = mp.matrix(block_size, block_size)
        block[0, 0] = mp.mpc(1)
        for alpha in range(1, block_size):
            nxt = [mp.mpc(0)] * block_size
            for i in range(block_size):
                ci = col[i]
                if ci == 0:
                    continue
                for j in range(block_size - i):
                    nxt[i + j] += ci * shrunk[j]
            col = nxt
            for b in range(block_size):
                block[b, alpha] = col[b]
        try:
            sv = mp.svd_c(block, compute_uv=False)
        except Exception as exc:
            raise ComputationError(
                "arbitrary-precision SVD failed: %s" % exc) from exc
    vals = np.sort(np.array([float(sv[i]) for i in range(block_size)]))[::-1]
    big_r = 0.995 / scale  # chi(scale * z) is analytic on |z| <= big_r
    log_rows = (math.log(block_size) - 2.0 * block_size * math.log(big_r)
                - math.log(1.0 - big_r ** -2.0))
    log_cols = (2.0 * block_size * math.log(sup)
                - math.log(1.0 - sup * sup))
    tail = math.exp(0.5 * float(np.logaddexp(log_rows, log_cols)))
    return SingularSpectrum(vals, tail)


# ---------------------------------------------------------------------------
# serialization


def save_spectrum_csv(spectrum: SingularSpectrum, path: str,
                      schedule_exponent: int = 1, comment: str = "") -> None:
    """Rows (n, lower, upper) for the schedule n -> n^exponent, one row
    per n with n^exponent inside the computed range."""
    if schedule_exponent < 1:
        raise InvalidInputError("schedule exponent must be >= 1")
    with open(path, "w") as fh:
        if comment:
            fh.write("# %s\n" % comment)
        fh.write("n,lower,upper\n")
        n = 1
        while n ** schedule_exponent <= len(spectrum):
            low, high = approximation_numbers(spectrum, n ** schedule_exponent)
            fh.write("%d,%.17g,%.17g\n" % (n, low, high))
            n += 1
