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
* cusp_values evaluates the chain inside the disk.  On the circle,
  where the stage-0 Moebius value is real, cusp_on_circle evaluates
  the two lens arcs in closed form from real ufuncs, with no zone
  split.  cusp_mp is the arbitrary-precision oracle, and
  cusp_taylor_mp takes chi's Taylor coefficients at 0 from it.  The
  mpmath functions (cusp_mp, phi_mp, cusp_taylor_mp) import mpmath
  when called, so a run in double arithmetic never loads it;
* the double chain takes every log as log|w| + i arg w
  (_principal_log) and every e^{ix} as cos x + i sin x (expi), from
  real ufuncs, and the damping power w^(-theta) as exp(-theta log w)
  with that log; phi_modulus takes |phi| from the real part of that
  power alone.  numpy's complex log and power call libm's clog and
  cpow one element at a time, about ten times slower; expi gives the
  same bits as numpy's complex exponential, and the log agrees with
  clog to within 2e-15;
* the chain commutes with conjugation.  We enforce that exactly by
  evaluating only in the closed upper half-plane and reflecting, so
  real inputs give real outputs bit-for-bit.
* the chain functions are elementwise, and a slice of an input gets
  the bits the whole array gets, so a caller that streams its points
  in slices of SAMPLE_BLOCK, as every pass over many points does,
  gets the whole-array result.  cusp_on_circle, _lens_arcs and
  phi_modulus take their masked copies only in a block that needs
  them: one that holds t = 0, a NaN or infinite t, a point on the
  outer arc, a subnormal t or z = 1; made on every block, they would
  be most of a pass's page faults.  SAMPLE_BLOCK = 4096 points, which
  keeps each complex temporary (64 KiB) under glibc's 128 KiB mmap
  threshold, removes most of the rest (see SAMPLE_BLOCK).
  disk_sample_blocks yields the disk sample a block at a time, from
  two generators on one stream, and holds nothing between blocks;
* estimate_k is the only user of the disk sample, and its K enters
  the c rule.  The lens constant LENS_K = 1 + sqrt(2) is exact, and
  reach_fraction certifies the reach and half-gap inequalities of a
  given c in closed form, so no sample checks c.

The inner Moebius factor (z - i)/(iz - 1) maps the closed disk onto the
closed upper half-plane.  Floating-point evaluation can land a hair
below the real axis, which would flip the principal sqrt; we clamp its
imaginary part at zero, which is exact for the true map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CuspDecayError

_TWO_OVER_PI = 2.0 / math.pi
_HALF_PI = math.pi / 2.0
# pi/2 - _HALF_PI: with it pi/2 - t is formed to one rounding
_HALF_PI_LO = 6.123233995736766e-17
_TINY = np.finfo(float).tiny  # the smallest normal double


# ---------------------------------------------------------------------------
# chain evaluation, double precision


def _principal_log(w) -> np.ndarray:
    """log|w| + i arg w for complex w, from real ufuncs, written into the
    real and imaginary views of one complex output.  Agrees with the
    complex np.log to within ~2e-15 at ten times its speed."""
    w = np.asarray(w, dtype=complex)
    out = np.empty(w.shape, dtype=complex)
    np.log(np.abs(w), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
    return out


def expi(x) -> np.ndarray:
    """e^{ix} = cos x + i sin x for real x, the real part filled from
    cos and the imaginary part from sin.  Bit for bit numpy's complex
    exponential of 0 + ix; forming 1j * x first gives the same bits
    for every x but -0.0, whose sign that product drops."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


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


def cusp_values(z) -> np.ndarray:
    """Cusp map, vectorized: chi0_values, its log, then stages 2 and 3.

    chi(z) lies in the lens D(1/2, 1/2) minus the two disks
    D(1 + i/2, 1/2) and D(1 - i/2, 1/2); chi(1) = 1 by continuous
    extension.  Inputs must lie in the closed disk, as for chi0_values.
    """
    z = np.asarray(z, dtype=complex)
    at_one = z == 1.0
    c1 = _principal_log(np.where(at_one, 0.5, chi0_values(z)))
    chi = 1.0 - 1.0 / (1.0 - _TWO_OVER_PI * c1)
    return np.where(at_one, 1.0 + 0.0j, chi)[()]


def _lens_arcs(t) -> np.ndarray:
    """chi(e^{it}) for t in (0, pi], in real arithmetic.  There the
    stage-0 Moebius value (z - i)/(iz - 1) = -tan(pi/4 - t/2) is real,
    and chi = 1 - 1/(A + iB), so Re chi = 1 - A/(A^2 + B^2) and
    Im chi = B/(A^2 + B^2), with

      inner arc, t < pi/2: chi0 = -i r, r = (1 - sqrt mu)/(1 + sqrt mu)
        for mu = tan((pi/2 - t)/2), so B = 1 and A = 1 - (2/pi) log r.
        As 1 - mu = 2 tau/(1 + tau), tau = tan(t/2), log r is
        log(2 tau/((1 + tau)(1 + sqrt mu))) - log1p(sqrt mu), which
        keeps its relative accuracy as t -> 0.  For a subnormal t, t/2
        and that quotient would round, so 2 tau is taken as t, which
        it equals in double for every t below 1e-8, and the log of the
        quotient as the difference of logs;
      outer arc, t >= pi/2: |chi0| = 1, so A = 1 and
        B = 1 - (4/pi) arctan sqrt(tan((t - pi/2)/2)).

    pi/2 - t takes pi/2's low part, so the corner keeps every digit.
    A block on the inner arc alone, as every bracket-grid block is,
    skips the masked gathers and scatters; a slice gets the bits of the
    whole array either way."""
    d = (_HALF_PI - t) + _HALF_PI_LO  # pi/2 - t
    inner = d > 0.0
    if inner.all():
        a, b = _inner_arc_a(t, d), 1.0
    else:
        a, b = np.ones_like(t), np.ones_like(t)
        a[inner] = _inner_arc_a(t[inner], d[inner])
        outer = ~inner
        b[outer] = 1.0 - 2.0 * _TWO_OVER_PI * np.arctan(
            np.sqrt(np.tan(-d[outer] / 2.0)))
    den = a * a + b * b
    out = np.empty(t.shape, dtype=complex)
    np.subtract(1.0, a / den, out=out.real)
    np.divide(b, den, out=out.imag)
    return out


def _inner_arc_a(t, d) -> np.ndarray:
    """A = 1 - (2/pi) log r on the inner arc (see _lens_arcs), for t in
    (0, pi/2) and d = pi/2 - t."""
    tau = np.tan(t / 2.0)
    root = np.sqrt(np.tan(d / 2.0))
    den = (1.0 + tau) * (1.0 + root)
    sub = t < _TINY
    if sub.any():
        log_q = np.log(np.where(sub, t, 2.0 * tau / den))
        log_q[sub] -= np.log(den[sub])
    else:
        log_q = np.log(2.0 * tau / den)
    return 1.0 - _TWO_OVER_PI * (log_q - np.log1p(root))


def cusp_on_circle(t) -> np.ndarray:
    """Cusp map at e^{it} for arbitrary real t, from the two lens arcs'
    closed form (_lens_arcs), in which no term cancels: accurate down
    to the smallest subnormal |t|.  Vectorized; t = 0 maps to 1, a NaN
    or infinite t to nan + nan i, and negative t to the exact
    conjugate.  A block with no t = 0 and no NaN or infinite t skips
    the np.where, gather and scatter."""
    scalar = np.ndim(t) == 0
    t = np.array(t, dtype=float, ndmin=1)
    t[np.isinf(t)] = math.nan  # no point of the circle; NaN fails every test
    # range-reduce only arguments beyond [-pi, pi]: mod arithmetic at pi
    # scale flushes |t| < eps*pi to zero, losing the cusp distance entirely
    big = np.abs(t) > math.pi
    if np.any(big):
        t[big] = np.mod(t[big] + math.pi, 2.0 * math.pi) - math.pi
    ta = np.abs(t)
    on = ta > 0.0
    if on.all():
        out = _lens_arcs(ta)
    else:
        out = np.where(np.isnan(t), complex(math.nan, math.nan), 1.0 + 0.0j)
        out[on] = _lens_arcs(ta[on])
    np.negative(out.imag, out=out.imag, where=t < 0.0)
    return out[0] if scalar else out


def cusp_mp(z, dps: int | None = None):
    """Arbitrary-precision cusp map, the oracle for the double chain and
    the extended-precision path of map-eval.  z may be any
    mpmath-convertible complex.  Working precision defaults to 30
    digits plus the digits cancelled in 1 - z, which keeps the result
    accurate to ~30 digits arbitrarily close to the cusp."""
    import mpmath as mp

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
        # the Moebius pole z = -i lies outside the closed upper half-plane
        m = (z_ - mp.mpc(0, 1)) / (mp.mpc(0, 1) * z_ - 1)
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
    out = np.exp(-np.exp(-theta * _principal_log(w)))
    return np.where(at_one, 0.0j, out)[()]


def phi_modulus(z, theta: float) -> np.ndarray:
    """|phi| = exp(-|1-z|^(-theta) cos(theta arg(1-z))) from real ufuncs,
    0 at z = 1.  Vectorized; no domain validation.  The cosine is at
    least delta = cos(pi*theta/2), which gives phi_values' bound."""
    z = np.asarray(z, dtype=complex)
    at_one = z == 1.0
    fix = at_one.any()
    w = np.where(at_one, 0.5, 1.0 - z) if fix else 1.0 - z
    out = np.exp(-np.abs(w) ** -theta
                 * np.cos(theta * np.arctan2(w.imag, w.real)))
    return (np.where(at_one, 0.0, out) if fix else out)[()]


def phi_mp(z, theta, dps: int = 40):
    import mpmath as mp

    with mp.workdps(dps):
        zc = mp.mpc(z)
        if zc == 1:
            return mp.mpc(0)
        return mp.exp(-((1 - zc) ** (-mp.mpf(theta))))


# ---------------------------------------------------------------------------
# symbol parameters and calibration


_G_KINDS = ("identity_in_z2", "constant_one")


def check_symbol_choice(theta: float, g_kind: str) -> None:
    """The rules on the two choices a run makes before calibration:
    theta in (0, 1) and a known g_kind.  SymbolParams applies them too."""
    if not 0.0 < theta < 1.0:
        raise ConfigurationError("theta must lie in (0, 1)")
    if g_kind not in _G_KINDS:
        raise ConfigurationError("unknown g_kind %r" % (g_kind,))


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
        check_symbol_choice(self.theta, self.g_kind)
        if not 0.0 < self.c < 1.0:
            raise ConfigurationError("c must lie in (0, 1)")
        if not 1.0 <= self.k_hat < math.inf:
            raise ConfigurationError("k_hat must be finite and >= 1")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigurationError("sigma must lie in (0, 1)")
        if 2.0 * self.sigma ** self.j0 > 0.125 + 1e-15:
            raise ConfigurationError("need 2*sigma^j0 <= 1/8")


SAMPLE_RADIUS_CAP = 1.0 - 1e-6
SAMPLE_BULK_FRACTION = 0.2
# points per slice of every sample and chain pass.  A complex temporary
# of 4096 points is 64 KiB, under glibc's 128 KiB mmap threshold, and
# the pass reuses heap pages whatever ran before it: check_calibration
# at 1e6 points takes 2 to 20 minor faults.  At 8192 points (128 KiB)
# it takes about 100 after build_params and about 2 850 in a fresh
# process; build_params and the geometry, calibration and codim suites
# take 2 393 faults against 630 at 4096 (BENCH_36.json)
SAMPLE_BLOCK = 1 << 12


def disk_sample_blocks(count: int, seed: int):
    """Deterministic sample of the open disk, clustered at the boundary,
    yielded SAMPLE_BLOCK points at a time in sample order.

    Radii come from the dyadic grid r = 1 - 2^-k, up to
    SAMPLE_RADIUS_CAP, crossed with uniform angles; every inequality we
    validate is tight only near the boundary or the cusp, so
    uniform-area sampling alone would never stress them.  A
    SAMPLE_BULK_FRACTION portion is uniform in area to keep interior
    coverage.

    One stream, seeded by SeedSequence(seed), holds the ring exponents
    k, then the bulk radii, then the angles.  Two generators read it
    from that seed, so no array outlives its block.  The radii
    generator draws each block's exponents and bulk radii as the block
    is yielded.  The angle generator first draws the exponents a block
    at a time and discards them (their draws are rejection-sampled and
    cannot be skipped), then skips the bulk radii with
    bit_generator.advance, one 64-bit draw per double, and then draws
    each block's angles.  The stream does not depend on how a draw is
    split, so the blocks joined are bit for bit the whole-array sample,
    whatever SAMPLE_BLOCK is.
    """
    if count < 1:
        raise ConfigurationError("count must be positive")
    k_max = int(math.floor(-math.log2(1.0 - SAMPLE_RADIUS_CAP)))
    n_ring = count - int(count * SAMPLE_BULK_FRACTION)
    radii = np.random.default_rng(np.random.SeedSequence(seed))
    angles = np.random.default_rng(np.random.SeedSequence(seed))
    for lo in range(0, n_ring, SAMPLE_BLOCK):
        angles.integers(1, k_max + 1, size=min(SAMPLE_BLOCK, n_ring - lo))
    angles.bit_generator.advance(count - n_ring)
    for lo in range(0, count, SAMPLE_BLOCK):  # ring points, then bulk
        hi = min(lo + SAMPLE_BLOCK, count)
        split = min(max(lo, n_ring), hi)  # ring points below, bulk above
        # drawn as int64, which fixes the stream
        k = radii.integers(1, k_max + 1, size=split - lo)
        u = radii.random(hi - split)
        r = np.concatenate([1.0 - np.ldexp(1.0, -k.astype(np.intc)),
                            np.sqrt(u) * SAMPLE_RADIUS_CAP])
        yield r * expi(angles.random(hi - lo) * 2.0 * np.pi)


def estimate_k(sample_count: int, seed: int) -> float:
    """Estimate the smallest K with |1 - chi| <= K (1 - |chi|) on the
    disk: sampled supremum times a 5 percent safety factor, floored at 1.
    The sample is streamed block by block, keeping the running sup.
    The exact value is LENS_K; calibration's c rule still takes this
    estimate, so c keeps the value it has always had.
    """
    if sample_count < 10_000:
        raise ConfigurationError("need at least 1e4 samples for a stable estimate")
    sup = -math.inf
    for z in disk_sample_blocks(sample_count, seed):
        chi = cusp_values(z)
        ratio = np.abs(1.0 - chi) / (1.0 - np.abs(chi))
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            sup = max(sup, float(ratio.max()))
    if sup == -math.inf:
        raise CuspDecayError("no finite distortion ratios in the sample")
    return max(1.0, 1.05 * sup)


LENS_K = 1.0 + math.sqrt(2.0)
"""The lens constant: the least K with |1 - chi| <= K (1 - |chi|) on
the disk, approached at the lens corner chi(i) = (1 + i)/2.

u = log|1 - chi| - log(1 - |chi|) is subharmonic on the disk.  The
first term is harmonic, since chi never takes the value 1 inside; the
second is -log(1 - x), convex and increasing, applied to the
subharmonic |chi|.  u is bounded above, since every lens point w has
|w|^2 <= Re w and |Im w| <= 2 (1 - Re w)^2, which give
|1 - w| <= 2 sqrt(5) (1 - |w|).  So the sup of u over the disk is its
limsup at the circle, whose image is the two lens arcs (the cusp
point, one boundary point, does not count).  By conjugation symmetry
the upper arcs suffice:

* outer arc, w = 1/2 + e^{ia}/2 with a in [pi/2, pi]: |w| = cos(a/2)
  and |1 - w| = sin(a/2), so the ratio is cot(a/4), largest at the
  corner a = pi/2: cot(pi/8) = 1 + sqrt(2);
* inner arc, w = 1 + i/2 - e^{is}/2 with s in [0, pi/2):
  |1 - w|^2 = (1 - sin s)/2 and |w|^2 = 3/2 - cos s - (sin s)/2, and
  the ratio falls from 1 + sqrt(2) at the corner s = 0 to 1 at the
  cusp (checked on 2e6 grid points of s).
"""

REACH_SPLIT = 0.1
NEAR_CUSP_RATIO = (math.sqrt(1.0 + 4.0 * REACH_SPLIT ** 2)
                   / (1.0 - 2.0 * REACH_SPLIT ** 3 / (1.0 - REACH_SPLIT)))
"""rho(X_s) = sqrt(1 + 4 X_s^2) / (1 - 2 X_s^3 / (1 - X_s)) at
X_s = REACH_SPLIT, about 1.0221: |1 - w| <= rho(X_s) (1 - |w|) at every
lens point w with |1 - w| <= X_s <= 1/2.  Write w = 1 - x + iy; then
x <= |1 - w| <= x sqrt(1 + 4 x^2), as |y| <= 2 x^2 on the lens, and
1 - |w| >= 1 - sqrt((1 - x)^2 + 4 x^4) >= x - 2 x^4 / (1 - x), so the
ratio is at most rho(x), which increases with x."""

CALIBRATION_GRID_SIZE = 481


def _damping_peak(theta: float) -> tuple:
    """(X*, m) with m = max over X > 0 of exp(-delta X^-theta) / X,
    delta = cos(pi theta / 2).  The log of the ratio, -delta X^-theta
    - log X, has one critical point, X* = (delta theta)^(1/theta) < 1,
    and tends to -inf at both ends, so m = (e delta theta)^(-1/theta).
    m overflows to inf for theta below about 0.006."""
    delta = math.cos(math.pi * theta / 2.0)
    with np.errstate(over="ignore"):
        peak = float(np.float64(math.e * delta * theta) ** (-1.0 / theta))
    return (delta * theta) ** (1.0 / theta), peak


def reach_fraction(params: SymbolParams) -> float:
    """q with 2c|phi(chi)| <= q (1 - |chi|) on the whole disk.

    |phi(w)| <= exp(-delta X^-theta), X = |1 - w|, delta =
    cos(pi theta / 2) (see phi_values), which is at most _damping_peak's
    m times X, and X <= LENS_K (1 - |w|), or NEAR_CUSP_RATIO (1 - |w|)
    where X <= X_s = REACH_SPLIT.  Over X > X_s the damping bound over X
    peaks at m_far: m if X* >= X_s, else exp(-delta X_s^-theta) / X_s.
    So q = 2c max(NEAR_CUSP_RATIO m, LENS_K m_far), formed as
    2c LENS_K (e delta theta)^(-1/theta) when X* >= X_s (theta = 0.5,
    0.7, 0.9).  q < 1 proves the reach inequality
    |chi| + 2c|phi(chi)| < 1 and the half-gap inequality
    1 - |chi + c phi(chi) u| >= (1 - |chi|)/2 for |u| <= 1 at every
    point of the disk, with no sample."""
    return reach_bound(params)[0]


def reach_bound(params: SymbolParams) -> tuple:
    """(q, the lens ratio that sets q: "LENS_K" or "NEAR_CUSP_RATIO")"""
    x_star, peak = _damping_peak(params.theta)
    if x_star >= REACH_SPLIT:
        return 2.0 * params.c * LENS_K * peak, "LENS_K"
    delta = math.cos(math.pi * params.theta / 2.0)
    far = math.exp(-delta * REACH_SPLIT ** -params.theta) / REACH_SPLIT
    near, lens = NEAR_CUSP_RATIO * peak, LENS_K * far
    return (2.0 * params.c * max(near, lens),
            "NEAR_CUSP_RATIO" if near > lens else "LENS_K")


def build_params(theta: float, g_kind: str, k_samples: int,
                 seed: int) -> SymbolParams:
    """Calibrate the symbol.

    K = estimate_k(k_samples, seed).  On a geometric grid of
    CALIBRATION_GRID_SIZE values X in [1e-8, 1], find the largest eta
    such that 2*exp(-delta X^-theta) < X / K for every grid X < eta,
    and set c = eta / (4 K).  Raises CuspDecayError, naming the peak
    point X* of the damping bound, unless reach_fraction < 1
    certifies c.
    """
    k_hat = estimate_k(k_samples, seed)
    delta = math.cos(math.pi * theta / 2.0)
    grid = np.geomspace(1e-8, 1.0, CALIBRATION_GRID_SIZE)
    # theta past 1 overflows the bound to inf; SymbolParams rejects it
    with np.errstate(over="ignore"):
        bad = grid[2.0 * np.exp(-delta * grid ** (-theta)) >= grid / k_hat]
    eta = float(bad.min()) if bad.size else 1.0
    params = SymbolParams(theta=theta, c=eta / (4.0 * k_hat), k_hat=k_hat,
                          g_kind=g_kind)
    _certify_reach(params)
    return params


def _certify_reach(params: SymbolParams) -> None:
    """Raise CuspDecayError unless reach_fraction(params) < 1; the
    message gives X*, the |1 - chi| at which the damping bound peaks,
    to full precision."""
    q = reach_fraction(params)
    if not q < 1.0:
        x_star = _damping_peak(params.theta)[0]
        raise CuspDecayError(
            "reach not certified: 2c|phi| <= q (1 - |chi|) with q = %.3e "
            ">= 1, the damping bound peaking at |1 - chi| = %r"
            % (q, x_star))


# ---------------------------------------------------------------------------
# Taylor coefficients at the origin


TAYLOR_RADIUS = 0.75


def cusp_taylor_mp(n_terms: int, dps: int = 40):
    """Taylor coefficients a_0 .. a_{n_terms-1} of the cusp map at 0,
    from the cusp_mp oracle, to within about 10^-(dps+10).

    With N nodes z_j = rho w^j on |z| = rho = TAYLOR_RADIUS, where
    w = exp(2 pi i / N), the trapezoid rule for the Cauchy integral
    gives (1/(N rho^k)) sum_j chi(z_j) w^(-jk) = a_k + sum_{m >= 1}
    a_{k+mN} rho^(mN) for k < N.  chi maps the disk into the disk, so
    |a_j| <= 1 and the aliasing error is at most rho^N / (1 - rho^N).
    N is the least even count that brings it under 10^-(dps+10), and
    never less than n_terms.  Dividing by rho^k scales the rounding of
    the sum by up to rho^-n_terms, which n_terms log10(1/rho) guard
    digits absorb.  chi commutes with conjugation, so the a_k are real
    and only the upper half of the circle is evaluated."""
    import mpmath as mp

    per_node = -math.log10(TAYLOR_RADIUS)  # digits rho^N loses per node
    nodes = math.floor((dps + 10) / per_node) + 1
    nodes = max(nodes + nodes % 2, n_terms + n_terms % 2)
    work = dps + 10 + math.ceil(n_terms * per_node)
    with mp.workdps(work):
        rho, half = mp.mpf(TAYLOR_RADIUS), nodes // 2
        f = [cusp_mp(rho * mp.expjpi(mp.mpf(2 * j) / nodes), dps=work)
             for j in range(half + 1)]
        f += [mp.conj(x) for x in f[half - 1:0:-1]]  # the lower half
        roots = [mp.expjpi(mp.mpf(-2 * m) / nodes) for m in range(nodes)]
        coeffs = [mp.re(mp.fdot(f, [roots[j * k % nodes]
                                    for j in range(nodes)]))
                  / (nodes * rho ** k) for k in range(n_terms)]
    with mp.workdps(dps + 10):
        return [+a for a in coeffs]
