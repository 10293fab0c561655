"""Conformal cusp map onto a lens with a boundary cusp, an exponential
damping factor, and calibration of the two-variable symbol built from
them.

Conventions used throughout:

* all fractional powers and logarithms are principal-branch,
  argument in (-pi, pi];
* the cusp map is evaluated as a four-stage chain
      stage0: disk -> right half-disk          (Moebius + sqrt + Moebius)
      stage1: log                              (half-disk -> left strip)
      stage2: affine  v -> 1 - (2/pi) v        (strip -> {Re >= 1})
      stage3: reciprocal, then  w -> 1 - w
  whose composition sends the closed disk onto a lens inside
  D(1/2, 1/2) pinched to a cusp at w = 1;
* the double chain is written once.  Stage 0 has two forms: chi0_values
  takes z, and cusp_from_log_gap takes z = 1 - xi as (log|xi|, arg xi)
  and returns log chi0 directly, which keeps 1 - chi accurate however
  close z is to the cusp.  Both feed the shared tail
  _chain_tail (stages 2 and 3).  cusp_mp is the arbitrary-precision
  oracle;
* the chain commutes with conjugation.  We enforce that exactly by
  evaluating only in the closed upper half-plane and reflecting, so
  real inputs give real outputs bit-for-bit.

The inner Moebius factor (z - i)/(iz - 1) maps the closed disk onto the
closed upper half-plane.  Floating-point evaluation can land a hair
below the real axis, which would flip the principal sqrt; we clamp its
imaginary part at zero, which is exact for the true map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import (
    CalibrationError,
    ConfigurationError,
    EstimationError,
)

_TWO_OVER_PI = 2.0 / math.pi
_LOG_MINUS_I = complex(0.0, -math.pi / 2.0)
_LOG_ONE_PLUS_I = complex(math.log(2.0) / 2.0, math.pi / 4.0)

# Below this |t| the plain chain at e^{it} loses the digits of 1 - chi to
# the cancellation in 1 - e^{it}, so cusp_on_circle uses the log-gap form.
CIRCLE_LOG_GAP_SPLIT = 1e-6


# ---------------------------------------------------------------------------
# chain evaluation, double precision


def chi0_values(z) -> np.ndarray:
    """First chain stage: conformal map of the disk onto the right
    half-disk, fixing the four boundary points 1 -> 0, -1 -> 1,
    i -> -i, -i -> i.  Vectorized.

    Assumes inputs already lie in the closed disk; samplers and grid
    builders guarantee that, so no per-point validation happens here.
    """
    z = np.asarray(z, dtype=complex)
    lower = z.imag < 0.0
    zz = np.where(lower, np.conj(z), z)
    # the Moebius pole z = -i lies outside the closed upper half-plane
    m = (zz - 1j) / (1j * zz - 1.0)
    # <= catches imag = -0.0, which would flip the sqrt branch
    m = np.where(m.imag <= 0.0, m.real + 0.0j, m)
    s = np.sqrt(m)
    c0 = (s - 1j) / (1.0 - 1j * s)
    c0 = np.where(zz.imag == 0.0, c0.real + 0.0j, c0)  # real axis -> [0, 1]
    return np.where(lower, np.conj(c0), c0)[()]


def _chain_tail(c1):
    """Stages 2 and 3 applied to c1 = log chi0."""
    return 1.0 - 1.0 / (1.0 - _TWO_OVER_PI * c1)


def cusp_values(z) -> np.ndarray:
    """Cusp map, vectorized: chi0_values, its log, then the shared tail.

    chi(z) lies in the lens D(1/2, 1/2) minus the two disks
    D(1 + i/2, 1/2) and D(1 - i/2, 1/2); chi(1) = 1 by continuous
    extension.  Inputs must lie in the closed disk, as for chi0_values.
    """
    z = np.asarray(z, dtype=complex)
    at_one = z == 1.0
    chi = _chain_tail(np.log(np.where(at_one, 0.5, chi0_values(z))))
    chi = np.where(at_one, 1.0 + 0.0j, chi)
    return np.where(z.imag == 0.0, chi.real + 0.0j, chi)[()]


def cusp_from_log_gap(log_gap, phase) -> np.ndarray:
    """Cusp map at z = 1 - xi for xi = exp(log_gap + i*phase), without
    forming z.  Vectorized.

    Stage 0 in log form: with eta = (1+i) xi / ((1-i) + i xi),

        log chi0 = log(-i) + log(1+i) + log xi - log((1-i) + i xi)
                   - 2 log(1 + sqrt(1 - eta)),

    where log xi = log_gap + i*phase is exact.  No term cancels, and xi
    itself enters only the last two terms, which tend to the constants
    log(1-i) and log 2: where exp(log_gap) underflows to 0 the sum is
    the asymptote log(xi/4) to full precision.  For |xi| <= 1/4
    (log_gap <= log(1/4)), at any depth, the error in 1 - chi stays
    within 2e-15 relative plus the final rounding of chi, 2^-53.
    Callers guarantee |1 - xi| <= 1, so |phase| <= pi/2.
    """
    log_gap = np.asarray(log_gap, dtype=float)
    phase = np.asarray(phase, dtype=float)
    # Im z >= 0 means phase <= 0; reflect the rest
    lower = phase > 0.0
    log_xi = log_gap + 1j * np.where(lower, -phase, phase)
    xi = np.exp(log_xi)
    den = (1.0 - 1j) + 1j * xi
    eta = (1.0 + 1j) * xi / den
    c1 = (_LOG_MINUS_I + _LOG_ONE_PLUS_I + log_xi - np.log(den)
          - 2.0 * np.log(1.0 + np.sqrt(1.0 - eta)))
    chi = _chain_tail(c1)
    chi = np.where(phase == 0.0, chi.real + 0.0j, chi)
    return np.where(lower, np.conj(chi), chi)[()]


def cusp_on_circle(t) -> np.ndarray:
    """Cusp map at e^{it} for arbitrary real t, accurate down to
    |t| ~ 1e-300.  Vectorized; t = 0 maps to 1.

    Double evaluation of the chain at e^{it} loses all digits of 1 - chi
    once 1 - e^{it} drops near machine epsilon, so the evaluation is
    split by distance to the cusp into two zones:

      |t| >= CIRCLE_LOG_GAP_SPLIT   plain chain, cusp_values(e^{it})
      |t| <  CIRCLE_LOG_GAP_SPLIT   cusp_from_log_gap, using
                                    1 - e^{it} = 2 sin(t/2) e^{i(t - pi)/2}

    Both are double arithmetic.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t).copy()
    # range-reduce only arguments beyond [-pi, pi]: mod arithmetic at pi
    # scale flushes |t| < eps*pi to zero, losing the cusp distance entirely
    big = np.abs(t) > math.pi
    if np.any(big):
        t[big] = np.mod(t[big] + math.pi, 2.0 * math.pi) - math.pi
    neg = t < 0.0
    ta = np.abs(t)
    out = np.ones(t.shape, dtype=complex)
    far = ta >= CIRCLE_LOG_GAP_SPLIT
    out[far] = cusp_values(np.exp(1j * ta[far]))
    near = ~far & (ta > 0.0)
    out[near] = cusp_from_log_gap(np.log(2.0 * np.sin(ta[near] / 2.0)),
                                  (ta[near] - math.pi) / 2.0)
    out = np.where(neg, np.conj(out), out)
    return out[0] if scalar else out


def cusp_mp(z, dps: int | None = None):
    """Arbitrary-precision cusp map, the oracle for the double chain and
    the extended-precision path of map-eval.  z may be any
    mpmath-convertible complex.  Working precision defaults to 30
    digits plus the digits cancelled in 1 - z, which keeps the result
    accurate to ~30 digits arbitrarily close to the cusp."""
    zc = mp.mpc(z)
    if dps is None:
        gap = abs(mp.mpc(1) - zc)
        lost = 0 if gap == 0 or gap >= 1 else int(-mp.log10(gap)) + 1
        dps = 30 + lost
    with mp.workdps(dps):
        z_ = mp.mpc(z)
        if z_ == 1:
            return mp.mpc(1)
        reflect = mp.im(z_) < 0
        if reflect:
            z_ = mp.conj(z_)
        den = mp.mpc(0, 1) * z_ - 1
        if den == 0:
            c0 = mp.mpc(0, 1)
        else:
            m = (z_ - mp.mpc(0, 1)) / den
            if mp.im(m) <= 0:
                m = mp.mpc(mp.re(m), 0)
            s = mp.sqrt(m)
            c0 = (s - mp.mpc(0, 1)) / (1 - mp.mpc(0, 1) * s)
        if mp.im(z_) == 0:
            c0 = mp.mpc(mp.re(c0), 0)
        c1 = mp.log(c0)
        c2 = 1 - mp.mpf(2) / mp.pi * c1
        chi = 1 - 1 / c2
        if reflect:
            chi = mp.conj(chi)
        return +chi


# ---------------------------------------------------------------------------
# damping factor


def phi_values(z, theta: float) -> np.ndarray:
    """Exponential damping exp(-(1-z)^(-theta)) on the closed disk,
    extended by 0 at z = 1.  Vectorized; no domain validation.

    Since Re(1-z) >= 0 on the disk, |phi| <= exp(-delta |1-z|^(-theta))
    with delta = cos(pi*theta/2)."""
    z = np.asarray(z, dtype=complex)
    at_one = z == 1.0
    w = np.where(at_one, 0.5, 1.0 - z)
    out = np.exp(-(w ** (-theta)))
    return np.where(at_one, 0.0j, out)


def phi_mp(z, theta, dps: int = 40):
    with mp.workdps(dps):
        zc = mp.mpc(z)
        if zc == 1:
            return mp.mpc(0)
        return mp.exp(-((1 - zc) ** (-mp.mpf(theta))))


# ---------------------------------------------------------------------------
# symbol parameters and calibration


_G_KINDS = ("identity_in_z2", "constant_one")


@dataclass(frozen=True)
class SymbolParams:
    """Frozen parameter bundle for the two-variable symbol

        Phi(z1, z2) = (chi(z1), chi(z1) + c * phi(chi(z1)) * g(z2)).

    sigma and j0 drive the dyadic covering scales a_j = 1 - sigma^j,
    rho_j = sigma^j / 4; they must satisfy 2*sigma^j0 <= 1/8 so that the
    covering disks stay inside the admissible region.
    """

    theta: float
    c: float
    k_hat: float
    sigma: float = 0.875
    j0: int = 21
    g_kind: str = "identity_in_z2"

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError("theta must lie in (0, 1)")
        if not 0.0 < self.c < 1.0:
            raise ConfigurationError("c must lie in (0, 1)")
        if self.k_hat < 1.0:
            raise ConfigurationError("k_hat must be >= 1")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigurationError("sigma must lie in (0, 1)")
        if 2.0 * self.sigma ** self.j0 > 0.125 + 1e-15:
            raise ConfigurationError("need 2*sigma^j0 <= 1/8")
        if self.g_kind not in _G_KINDS:
            raise ConfigurationError("unknown g_kind %r" % (self.g_kind,))

    @property
    def delta(self) -> float:
        return math.cos(math.pi * self.theta / 2.0)

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "c": self.c,
            "k_hat": self.k_hat,
            "sigma": self.sigma,
            "j0": self.j0,
            "g_kind": self.g_kind,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SymbolParams":
        return cls(
            theta=float(d["theta"]),
            c=float(d["c"]),
            k_hat=float(d["k_hat"]),
            sigma=float(d.get("sigma", 0.875)),
            j0=int(d.get("j0", 21)),
            g_kind=str(d.get("g_kind", "identity_in_z2")),
        )


def disk_samples(count: int, seed: int, radius_cap: float = 1.0 - 1e-6,
                 bulk_fraction: float = 0.2) -> np.ndarray:
    """Deterministic sample of the open disk, clustered at the boundary.

    Radii come from the dyadic grid r = 1 - 2^-k crossed with uniform
    angles; every inequality we validate is tight only near the boundary
    or the cusp, so uniform-area sampling alone would never stress them.
    A bulk_fraction portion is uniform in area to keep interior coverage.
    """
    if count < 1:
        raise ConfigurationError("count must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    k_max = int(math.floor(-math.log2(1.0 - radius_cap)))
    n_bulk = int(count * bulk_fraction)
    n_ring = count - n_bulk
    k = rng.integers(1, k_max + 1, size=n_ring)
    r_ring = 1.0 - 0.5 ** k
    r_bulk = np.sqrt(rng.random(n_bulk)) * radius_cap
    r = np.concatenate([r_ring, r_bulk])
    ang = rng.random(count) * 2.0 * np.pi
    return r * np.exp(1j * ang)


def distortion_ratio(z) -> np.ndarray:
    """|1 - chi(z)| / (1 - |chi(z)|), the quantity whose supremum
    defines the comparability constant of the lens."""
    chi = cusp_values(z)
    return np.abs(1.0 - chi) / (1.0 - np.abs(chi))


def estimate_k(sample_count: int = 100_000, seed: int = 11,
               radius_cap: float = 1.0 - 1e-6) -> float:
    """Estimate the smallest K with |1 - chi| <= K (1 - |chi|) on the
    disk: sampled supremum times a 5 percent safety factor, floored at 1.
    """
    if sample_count < 10_000:
        raise ConfigurationError("need at least 1e4 samples for a stable estimate")
    z = disk_samples(sample_count, seed, radius_cap=radius_cap)
    ratio = distortion_ratio(z)
    ratio = ratio[np.isfinite(ratio)]
    if ratio.size == 0:
        raise EstimationError("no finite distortion ratios in the sample")
    return max(1.0, 1.05 * float(ratio.max()))


def perturbation_reach(z, params: SymbolParams) -> np.ndarray:
    """|chi(z)| + 2 c |phi(chi(z))|: must stay below 1 for the
    perturbed second coordinate to remain in the disk with margin."""
    chi = cusp_values(z)
    return np.abs(chi) + 2.0 * params.c * np.abs(phi_values(chi, params.theta))


def calibrate_c(theta: float, k_hat: float,
                validation_count: int = 1_000_000, seed: int = 13,
                grid_size: int = 481) -> float:
    """Choose the perturbation size c.

    On a geometric grid of X in [1e-8, 1], find the largest eta such
    that 2*exp(-delta X^-theta) < X / k_hat for every grid X < eta, set
    c = eta / (4 k_hat), then validate |chi| + 2c|phi(chi)| < 1 on a
    boundary-clustered sample.  Any violation raises CalibrationError
    with the witness point.
    """
    if not 0.0 < theta < 1.0:
        raise ConfigurationError("theta must lie in (0, 1)")
    if k_hat < 1.0:
        raise ConfigurationError("k_hat must be >= 1")
    delta = math.cos(math.pi * theta / 2.0)
    grid = np.geomspace(1e-8, 1.0, grid_size)
    bad = grid[2.0 * np.exp(-delta * grid ** (-theta)) >= grid / k_hat]
    eta = float(bad.min()) if bad.size else 1.0
    c = eta / (4.0 * k_hat)
    c = min(max(c, 1e-12), 1.0 - 1e-9)
    _validate_c(theta, c, k_hat, validation_count, seed)
    return c


def _validate_c(theta: float, c: float, k_hat: float,
                validation_count: int, seed: int) -> float:
    """Return the minimal margin 1 - (|chi| + 2c|phi(chi)|) over a fresh
    sample; raise CalibrationError if any sample point violates it."""
    params = SymbolParams(theta=theta, c=c, k_hat=k_hat)
    z = disk_samples(validation_count, seed)
    reach = perturbation_reach(z, params)
    margin = 1.0 - reach
    worst = int(np.argmin(margin))
    if margin[worst] <= 0.0:
        raise CalibrationError(
            "perturbation escapes the disk: margin %.3e at z = %r"
            % (margin[worst], complex(z[worst])),
            witness=complex(z[worst]),
        )
    return float(margin[worst])


def build_params(theta: float = 0.5, g_kind: str = "identity_in_z2",
                 k_samples: int = 100_000, validation_count: int = 200_000,
                 seed: int = 11) -> SymbolParams:
    """Full default pipeline: estimate the lens constant, calibrate the
    perturbation, freeze the bundle."""
    k_hat = estimate_k(sample_count=k_samples, seed=seed)
    c = calibrate_c(theta, k_hat, validation_count=validation_count, seed=seed + 1)
    return SymbolParams(theta=theta, c=c, k_hat=k_hat, g_kind=g_kind)


# ---------------------------------------------------------------------------
# Taylor coefficients at the origin
#
# Truncated power-series arithmetic over mpmath numbers (the plateau's
# values fall far below double precision).  Products of truncated series
# give the exact leading coefficients of the exact product (convolution
# is lower-triangular in the degree), so operator columns assembled from
# these coefficients carry no aliasing error at all, unlike boundary
# transforms of the log-singular cusp trace.


def _mp_ser_mul(a, b, n):
    out = [mp.mpc(0)] * n
    for i, ai in enumerate(a):
        if i >= n:
            break
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def _mp_ser_inv(a, n):
    out = [mp.mpc(0)] * n
    out[0] = 1 / a[0]
    for k in range(1, n):
        acc = mp.mpc(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * out[k - j]
        out[k] = -acc * out[0]
    return out


def _mp_ser_log(a, n):
    inv = _mp_ser_inv(a, n)
    da = [a[j] * j for j in range(1, min(len(a), n))]
    integ = _mp_ser_mul(da, inv, max(n - 1, 0))
    out = [mp.mpc(0)] * n
    out[0] = mp.log(a[0])
    for k in range(1, n):
        out[k] = integ[k - 1] / k
    return out


def _mp_ser_exp(a, n):
    out = [mp.mpc(0)] * n
    out[0] = mp.exp(a[0])
    for k in range(1, n):
        acc = mp.mpc(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += j * a[j] * out[k - j]
        out[k] = acc / k
    return out


def cusp_taylor_mp(n_terms: int, dps: int = 40):
    """Arbitrary-precision Taylor coefficients of the cusp map at 0."""
    with mp.workdps(dps + 10):
        n = n_terms
        i_ = mp.mpc(0, 1)
        geo = [-(i_ ** k) for k in range(n)]
        num = [mp.mpc(0)] * n
        num[0] = -i_
        if n > 1:
            num[1] = mp.mpc(1)
        m = _mp_ser_mul(num, geo, n)
        half_log = [x / 2 for x in _mp_ser_log(m, n)]
        s = _mp_ser_exp(half_log, n)
        den = [-i_ * x for x in s]
        den[0] += 1
        snum = list(s)
        snum[0] -= i_
        c0 = _mp_ser_mul(snum, _mp_ser_inv(den, n), n)
        c1 = _mp_ser_log(c0, n)
        c2 = [-mp.mpf(2) / mp.pi * x for x in c1]
        c2[0] += 1
        c3 = _mp_ser_inv(c2, n)
        chi = [-x for x in c3]
        chi[0] += 1
        return [+x for x in chi]
