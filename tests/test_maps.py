"""Cusp chain, damping factor, calibration, Taylor blocks."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

from cuspdecay import cli, maps
from cuspdecay.errors import ConfigurationError, CuspDecayError
from conftest import cusp_from_log_gap, disk_samples, traced_peak

# exact chain value at 0: 1 - 1/(1 - (2/pi) log(sqrt(2) - 1))
CHI_AT_ZERO = 0.3594259851465734


def test_chain_golden_values():
    assert maps.cusp_values(1.0) == 1.0 + 0j
    assert abs(maps.cusp_values(-1.0)) == 0.0
    assert abs(maps.cusp_values(1j) - (0.5 + 0.5j)) < 1e-15
    assert abs(maps.cusp_values(-1j) - (0.5 - 0.5j)) < 1e-15
    assert abs(maps.cusp_values(0.0) - CHI_AT_ZERO) < 1e-15


def test_chain_golden_value_matches_mp():
    with mp.workdps(40):
        exact = 1 - 1 / (1 - 2 / mp.pi * mp.log(mp.sqrt(2) - 1))
        assert abs(float(exact) - CHI_AT_ZERO) < 1e-16


def test_first_stage_golden_values():
    assert abs(maps.chi0_values(1.0)) == 0.0
    assert abs(maps.chi0_values(-1.0) - 1.0) < 1e-15
    assert abs(maps.chi0_values(1j) + 1j) < 1e-15
    assert abs(maps.chi0_values(-1j) - 1j) < 1e-15
    assert abs(maps.chi0_values(0.0) - (math.sqrt(2.0) - 1.0)) < 1e-15


def test_trace_limit_values_at_one():
    # z = 1 is the continuous-extension limit in every form of the chain:
    # stage 0 vanishes and chi = 1 exactly
    assert maps.chi0_values(1.0) == 0j
    assert maps.cusp_values(1.0) == 1.0 + 0j
    assert maps.cusp_on_circle(0.0) == 1.0 + 0j


def test_domain_rejection():
    # the vectorized chain assumes the closed disk; points from outside
    # are rejected where they enter, in map-eval's point check
    for z in (1.5, 2j, complex("nan")):
        with pytest.raises(ConfigurationError,
                           match="arg:1: point (outside|is not finite)"):
            cli._check_points([("arg:1", complex(z))])
    cli._check_points([("arg:1", 1.0 + 0j), ("arg:2", -1j)])


def test_conjugation_symmetry():
    z = disk_samples(500, seed=3)
    chi = maps.cusp_values(z)
    chi_conj = maps.cusp_values(np.conj(z))
    assert np.max(np.abs(chi_conj - np.conj(chi))) == 0.0


def test_real_axis_stays_real():
    x = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, 2001)
    chi = maps.cusp_values(x)
    assert np.all(chi.imag == 0.0)
    assert np.all(chi.real >= 0.0)
    assert np.all(chi.real <= 1.0)


def test_lens_geometry_on_samples():
    # the double chain inside the disk, where verify checks only the
    # circle: the boundary-clustered sample, then near-cusp points
    # z = 1 - exp(l + i p) far beyond where 1 - z survives, kept where
    # |1 - z| <= 1, through the tests' cusp_from_log_gap
    rng = np.random.default_rng(np.random.SeedSequence((17, 1)))
    log_gap = rng.uniform(-280.0, -3.0, 5000)
    phase = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 5000)
    keep = log_gap < np.log(2.0 * np.cos(phase))
    chi = np.concatenate([maps.cusp_values(disk_samples(5000, seed=5)),
                          cusp_from_log_gap(log_gap[keep], phase[keep])])
    assert np.max(np.abs(chi - 0.5)) <= 0.5 + 1e-12
    assert np.min(np.abs(chi - (1.0 + 0.5j))) >= 0.5 - 1e-12
    assert np.min(np.abs(chi - (1.0 - 0.5j))) >= 0.5 - 1e-12
    # boundary touch only at 1: |1 - chi| <= 1 and the gap inequality
    assert np.max(np.abs(chi - 1.0)) <= 1.0 + 1e-12
    assert np.all(np.abs(chi.imag) <= 2.0 * (1.0 - chi.real) ** 2 + 1e-12)


def test_cusp_mp_agrees_with_double():
    # z = +-i map to the lens corners 1/2 +- i/2; z = -i is the pole of
    # stage 0's Moebius factor, reached only through reflection to i
    z = np.append(disk_samples(50, seed=6)[:25], [1j, -1j])
    for zz, chi in zip(z, maps.cusp_values(z)):
        ref = complex(maps.cusp_mp(complex(zz)))
        assert abs(chi - ref) < 1e-13
    for zz, corner in ((1j, 0.5 + 0.5j), (-1j, 0.5 - 0.5j)):
        assert abs(complex(maps.cusp_mp(zz)) - corner) < 1e-15


def test_cusp_on_circle_matches_chain():
    t = np.array([3.0, 1.0, 0.3, 1e-2, -0.7])
    chi = maps.cusp_on_circle(t)
    for tt, cc in zip(t, chi):
        assert abs(cc - maps.cusp_values(cmath.exp(1j * tt))) < 1e-14


def test_cusp_on_circle_non_finite_gives_nan():
    t = np.array([math.nan, 0.5, math.inf, -math.inf, -0.5, 0.0, 7.0])
    got = maps.cusp_on_circle(t)
    bad = ~np.isfinite(t)
    assert np.all(np.isnan(got[bad].real) & np.isnan(got[bad].imag))
    finite = t[~bad]
    want = np.array([maps.cusp_on_circle(x) for x in finite])
    assert got[~bad].tobytes() == want.tobytes()
    for x in (math.nan, math.inf, -math.inf):
        assert np.isnan(maps.cusp_on_circle(x).real)


def test_cusp_on_circle_range_reduction():
    # adding 2 pi k must not collapse small t to the cusp value
    t = np.array([1e-3, 1e-6])
    a = maps.cusp_on_circle(t)
    b = maps.cusp_on_circle(t + 2.0 * math.pi)
    assert np.max(np.abs(a - b)) < 1e-9
    assert abs(maps.cusp_on_circle(np.array([math.pi]))[0]) < 1e-15


def _err_1_minus_chi(got, ref):
    """|(1 - got) - (1 - ref)| and its bound: 2e-15 relative in 1 - chi
    plus one rounding of chi (got and ref are both doubles, and near the
    cusp an ulp of chi is a large share of 1 - chi)."""
    err = abs((1.0 - got) - (1.0 - ref))
    return err, 2e-15 * abs(1.0 - ref) + 2.0 ** -53


# log|xi| from |xi| ~ 1/4 down past exp underflow (log|xi| < -745) to
# -1740, where |xi| is far below the smallest double
@pytest.mark.parametrize("log_gap", [-1.4, -3.0, -8.0, -20.0, -45.0, -55.0,
                                     -280.0, -745.0, -800.0, -1740.0])
def test_log_gap_kernel_matches_mp(log_gap):
    dps = 40 + int(-log_gap / math.log(10.0))
    for phase in (0.0, 0.3, -0.3, 0.9, -0.9, 1.2, -1.2):
        assert log_gap < math.log(2.0 * math.cos(phase))  # |1 - xi| <= 1
        got = cusp_from_log_gap(log_gap, phase)
        # the reference gap must be formed at high dps or z rounds to 1
        with mp.workdps(dps):
            z = 1 - mp.exp(mp.mpc(log_gap, phase))
            ref = complex(maps.cusp_mp(z, dps=dps))
        err, bound = _err_1_minus_chi(got, ref)
        assert err <= bound, (phase, err)


def test_cusp_from_log_gap_matches_mp():
    # z = 1 - exp(l + i p): kernel vs the arbitrary-precision chain;
    # the reference gap must be formed at high dps or it rounds to 0
    for l, p in ((-55.0, 0.0), (-60.0, 1.2), (-80.0, -1.5)):
        got = cusp_from_log_gap(l, p)
        with mp.workdps(120):
            z = mp.mpf(1) - mp.exp(mp.mpc(l, p))
            ref = complex(maps.cusp_mp(z, dps=120))
        assert abs(got - ref) < 1e-12 * abs(1.0 - ref)


def test_cusp_from_log_gap_has_no_seam():
    # log|xi| = -50 was the seam between two near-cusp kernels; the one
    # kernel must show no step there
    for l in (-50.0 - 1e-9, -50.0, -50.0 + 1e-9):
        got = cusp_from_log_gap(l, 0.7)
        with mp.workdps(100):
            ref = complex(maps.cusp_mp(1 - mp.exp(mp.mpc(l, 0.7)), dps=100))
        err, bound = _err_1_minus_chi(got, ref)
        assert err <= bound, (l, err)


# fl(pi/2), below pi/2 by 6.1e-17, and four doubles on each side: the
# lens corner, where the two arcs meet in a square-root corner of t
CORNER = math.pi / 2.0 + np.arange(-4, 5) * 2.0 ** -52


def test_cusp_on_circle_matches_mp():
    # one bound on all of (0, pi]: the cusp zone down to 1e-300, both
    # arcs, the corner and pi
    t = np.concatenate([np.geomspace(1e-300, 1e-3, 300),
                        np.linspace(1e-3, math.pi, 400), CORNER, [7e-278]])
    got = maps.cusp_on_circle(t)
    for tt, g in zip(t, got):
        dps = 30 + max(int(-math.log10(tt)), 0) + 1
        with mp.workdps(dps):
            ref = complex(maps.cusp_mp(mp.expj(mp.mpf(tt)), dps=dps))
        err, bound = _err_1_minus_chi(g, ref)
        assert err <= bound, (tt, err)
    assert maps.cusp_on_circle(0.0) == 1.0 + 0j
    both = maps.cusp_on_circle(np.concatenate([t, -t]))
    assert np.array_equal(both[t.size:], np.conj(both[:t.size]))


@pytest.mark.parametrize("t", [5e-324, 1.5e-323, 2.5e-323, 1e-320,
                               np.finfo(float).tiny])
def test_cusp_on_circle_subnormal_t_matches_mp(t):
    # t/2 underflows to 0 at 5e-324 and rounds at 1.5e-323 and 2.5e-323;
    # the bound is the one of the whole circle, and any RuntimeWarning
    # fails the test
    got = maps.cusp_on_circle(np.array([t, -t]))
    with mp.workdps(400):
        ref = complex(maps.cusp_mp(mp.expj(mp.mpf(t)), dps=400))
    err, bound = _err_1_minus_chi(got[0], ref)
    assert err <= bound, err
    assert got[1] == np.conj(got[0])


def test_cusp_on_circle_lies_on_the_lens_arcs():
    # pi/2 - t is formed with pi/2's low part
    with mp.workdps(40):
        assert maps._HALF_PI_LO == float(mp.pi / 2 - maps._HALF_PI)
    t = np.concatenate([np.geomspace(1e-300, 1.5, 5000),
                        np.linspace(1.5, math.pi, 5000), CORNER])
    t = np.concatenate([t, -t])
    chi = maps.cusp_on_circle(t)
    # fl(pi/2) lies below pi/2, on the inner arc
    inner = np.abs(t) <= math.pi / 2.0
    centre = 1.0 + 0.5j * np.sign(t[inner])
    eps = 2.0 ** -52
    assert np.max(np.abs(np.abs(chi[~inner] - 0.5) - 0.5)) <= 2.0 * eps
    assert np.max(np.abs(np.abs(chi[inner] - centre) - 0.5)) <= 2.0 * eps


def test_interior_chain_agrees_on_the_circle():
    # cusp_values(e^{it}) cross-checks the closed form.  Beside 1e-11,
    # the bound carries the chain's own conditioning: the rounding of
    # 1 - e^{it}, eps/t relative, reaches 1 - chi shrunk by log(4/t),
    # 1.7e-11 |1 - chi| near t = 1e-6
    t = np.concatenate([np.geomspace(1e-6, math.pi, 20_001), CORNER])
    chi = maps.cusp_on_circle(t)
    err = np.abs(maps.cusp_values(maps.expi(t)) - chi)
    eps = 2.0 ** -52
    bound = (1e-11 + 2.0 * eps / (t * np.log(4.0 / t))) * np.abs(1.0 - chi)
    assert np.all(err <= bound)


def test_phi_values_bound_and_limit():
    assert maps.phi_values(1.0, 0.5) == 0j
    delta = math.cos(math.pi * 0.25)
    z = disk_samples(2000, seed=7)
    phi = maps.phi_values(z, 0.5)
    cap = np.exp(-delta * np.abs(1.0 - z) ** -0.5)
    assert np.all(np.abs(phi) <= cap + 1e-15)
    for zz, ph in zip(z[:10], phi):
        assert abs(complex(maps.phi_mp(complex(zz), 0.5)) - ph) < 1e-16


def test_cusp_values_near_the_circle_matches_mp():
    # on the arc t in (pi/2, pi] and its mirror |chi0| -> 1, so log|chi0|
    # is tiny: the real part of the principal log is taken as log|w|
    # there, which is where it parts most from libm's clog
    eps = 2.0 ** -52
    for t in (1.6, 2.0, 2.5, 3.1, math.pi, -1.7, -2.6):
        for r in (1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12,
                  1.0 - 1e-15, 1.0):
            z = r * cmath.exp(1j * t)
            assert abs(abs(maps.chi0_values(z)) - 1.0) < 5e-3
            got = maps.cusp_values(z)
            ref = complex(maps.cusp_mp(z))
            assert abs(got - ref) <= 4.0 * eps, (t, r, abs(got - ref))


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_phi_values_matches_mp_relative(theta):
    # phi = exp(-u), u = exp(-theta log w), w = 1 - z: an error of eps
    # in log w and in each rounding is a relative error of about
    # u (1 + theta |log w|) eps in phi, which grows toward the cusp
    eps = 2.0 ** -52
    near_cusp = [1.0 - cmath.exp(complex(lg, ph))
                 for lg in (-2.0, -4.0, -6.0, -8.0)
                 for ph in (0.0, 0.7, -1.2, 1.5)]
    unit_gap = [1.0 - r * cmath.exp(1j * ph)
                for r in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)
                for ph in (0.0, 0.3, -0.5, 1.0, -1.0)]
    for z in near_cusp + [z for z in unit_gap if abs(z) <= 1.0]:
        w = 1.0 - z
        u = abs(w) ** -theta
        got = maps.phi_values(z, theta)
        ref = complex(maps.phi_mp(z, theta, dps=60))
        bound = 2.0 * eps * (1.0 + u * (1.0 + theta * abs(cmath.log(w))))
        assert abs(got - ref) <= bound * abs(ref), (z, abs(got / ref - 1.0))


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_phi_modulus_matches_mp(theta):
    # |phi| = exp(-v), v = Re (1 - z)^(-theta) <= u = |1 - z|^(-theta):
    # an error of a few eps relative in v is one of v times that in
    # |phi|, so beside 1e-15 the bound grows with u toward the cusp
    eps = 2.0 ** -52
    z = disk_samples(1000, seed=7)
    got = maps.phi_modulus(z, theta)
    u = np.abs(1.0 - z) ** -theta
    for zz, g, uu in zip(z, got, u):
        ref = float(abs(maps.phi_mp(complex(zz), theta)))
        assert abs(g - ref) <= (1e-15 + 4.0 * eps * uu) * ref, (zz, g / ref)
    assert maps.phi_modulus(1.0, theta) == 0.0


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
def test_phi_modulus_below_damping_bound(theta):
    # cos(theta arg(1 - z)) >= delta = cos(pi theta / 2) on the disk, at
    # the sample and on the circle down to the cusp
    delta = math.cos(math.pi * theta / 2.0)
    t = np.geomspace(1e-12, math.pi, 20_000) * np.tile([1.0, -1.0], 10_000)
    z = np.concatenate([disk_samples(20_000, seed=7), maps.expi(t)])
    w = np.abs(1.0 - z)
    assert np.all(maps.phi_modulus(z, theta) <= np.exp(-delta * w ** -theta))


def test_expi_matches_complex_exp_bit_for_bit():
    rng = np.random.default_rng(14)
    x = np.concatenate([
        [0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, -math.pi / 2.0,
         1e3, -1e3, 1e-300, -1e-300],
        rng.random(100_000) * 2.0 * math.pi,
        rng.uniform(-1e3, 1e3, 100_000)])
    pure = np.zeros(x.shape, dtype=complex)
    pure.imag = x  # 0 + ix, with the sign of -0.0 kept
    assert maps.expi(x).tobytes() == np.exp(pure).tobytes()
    # 1j * x drops the sign of -0.0, and only there do the two differ
    plain = x.view(np.uint64) != np.array(-0.0).view(np.uint64)
    assert maps.expi(x)[plain].tobytes() == np.exp(1j * x[plain]).tobytes()
    one = maps.expi(-0.0)
    assert one == 1.0 and math.copysign(1.0, one.imag) < 0.0


def test_scalar_inputs_return_complex_scalars():
    # phi_modulus, a modulus, returns a real scalar
    assert type(maps.cusp_values(0.3 + 0.2j)) is np.complex128
    assert type(maps.cusp_on_circle(0.4)) is np.complex128
    assert type(maps.phi_values(0.3 + 0.2j, 0.5)) is np.complex128
    assert type(maps.phi_values(1.0, 0.5)) is np.complex128
    assert type(maps.phi_modulus(0.3 + 0.2j, 0.5)) is np.float64
    assert type(maps.phi_modulus(1.0, 0.5)) is np.float64


_B = maps.SAMPLE_BLOCK
# counts about one and three blocks, of SAMPLE_BLOCK and of a fixed 8192
# points, so that the counts checked do not all move with SAMPLE_BLOCK
_BLOCK_SIZES = sorted({1, _B - 1, _B, _B + 1, 3 * _B + 17,
                       8191, 8192, 8193, 3 * 8192 + 17})


def _chain_inputs(count):
    """Inputs of each public chain function, count points each: disk
    samples, and circle arguments of both signs, past pi too, a third
    of them within 3 ulps of the corner pi/2 and a third down to
    1e-300, the first ten including t = 0, pi and 1e-300, so that most
    blocks mix both arcs."""
    rng = np.random.default_rng(count)
    z = disk_samples(count, 5)
    t = rng.uniform(-4.0, 4.0, count)
    t[::3] = math.pi / 2.0 + rng.integers(-3, 4, t[::3].size) * 2.0 ** -52
    t[1::3] = np.exp(rng.uniform(-690.0, 0.0, t[1::3].size))
    t[::2] *= -1.0
    t[:10] = [0.0, math.pi / 2.0, -math.pi / 2.0, np.nextafter(math.pi / 2.0, 0),
              np.nextafter(math.pi / 2.0, 4.0), 1e-300, -1e-300, math.pi,
              -math.pi, 2.0 * math.pi][:count]
    return {"cusp_values": (z,), "phi_values": (z, 0.5),
            "phi_modulus": (z, 0.5), "cusp_on_circle": (t,)}


@pytest.mark.parametrize("count", _BLOCK_SIZES)
def test_chain_blocks_match_one_shot(count):
    # the chain functions are elementwise: a caller that evaluates its
    # points in slices of SAMPLE_BLOCK, as the streamed suites do, gets
    # every bit of the whole-array call
    for name, args in _chain_inputs(count).items():
        fn = getattr(maps, name)
        one_shot = fn(*args)
        blocked = np.concatenate([
            fn(*(a[lo:lo + _B] if np.ndim(a) else a for a in args))
            for lo in range(0, count, _B)])
        assert one_shot.shape == (count,)
        assert blocked.tobytes() == one_shot.tobytes(), name


def test_chain_blocks_keep_shape():
    # an input's shape is kept
    z = disk_samples(3 * 64 + 5, 9)
    got = maps.cusp_values(z.reshape(1, -1))
    assert got.shape == (1, z.size)
    assert got.tobytes() == maps.cusp_values(z).tobytes()
    t = np.linspace(-4.0, 4.0, 200)
    got = maps.cusp_on_circle(t.reshape(2, -1))
    assert got.shape == (2, 100)
    assert got.tobytes() == maps.cusp_on_circle(t).tobytes()


_ABOVE_CORNER = np.nextafter(math.pi / 2.0, 4.0)
# blocks on one arc, with no t = 0, no t beyond pi, no NaN and no
# subnormal t: cusp_on_circle and phi_modulus take their unmasked paths
# on each, _lens_arcs on the inner ones and its masked path on the outer
_ONE_ARC_BLOCKS = {
    "inner": np.geomspace(1e-12, 1.5, 257),
    "inner to the corner": np.append(np.geomspace(1e-8, 1.5, 64),
                                     math.pi / 2.0),
    "outer": np.linspace(_ABOVE_CORNER, math.pi, 257),
}


@pytest.mark.parametrize("name", sorted(_ONE_ARC_BLOCKS))
def test_one_arc_blocks_match_mixed_blocks(name):
    # each function must give a one-arc block the bits the same points
    # get inside a block that takes every mask
    t = _ONE_ARC_BLOCKS[name]
    n = t.size
    arcs = maps._lens_arcs(np.append(t, [5e-324, 0.3, 2.5]))
    assert maps._lens_arcs(t).tobytes() == arcs[:n].tobytes()
    extra = [0.0, -0.3, math.nan, math.inf, -math.inf, 4.0, -7.0, 5e-324]
    for sign in (1.0, -1.0):
        mixed = maps.cusp_on_circle(np.append(sign * t, extra))
        assert maps.cusp_on_circle(sign * t).tobytes() == mixed[:n].tobytes()
    chi = maps.cusp_on_circle(t)
    mixed = maps.phi_modulus(np.append(chi, [1.0, 0.0]), 0.5)
    assert maps.phi_modulus(chi, 0.5).tobytes() == mixed[:n].tobytes()
    assert mixed[n] == 0.0


def test_symbol_params_validation():
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.0, c=0.01, k_hat=2.0)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=1.5, k_hat=2.0)
    for k_hat in (0.5, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="k_hat"):
            maps.SymbolParams(theta=0.5, c=0.01, k_hat=k_hat)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=0.01, k_hat=2.0, sigma=0.99, j0=1)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=0.01, k_hat=2.0, g_kind="nope")


def test_disk_samples_deterministic_and_clustered():
    a = disk_samples(3000, seed=9)
    b = disk_samples(3000, seed=9)
    assert np.array_equal(a, b)
    assert a.size == 3000
    assert np.max(np.abs(a)) < 1.0
    # boundary clustering: a decent fraction beyond r = 0.99
    assert np.mean(np.abs(a) > 0.99) > 0.2
    with pytest.raises(ConfigurationError):
        disk_samples(0, seed=1)


def _whole_array_disk_samples(count, seed):
    """disk_sample_blocks' draws as whole arrays, in its order: ring
    radii, bulk radii, angles."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    k_max = int(math.floor(-math.log2(1.0 - maps.SAMPLE_RADIUS_CAP)))
    n_bulk = int(count * maps.SAMPLE_BULK_FRACTION)
    k = rng.integers(1, k_max + 1, size=count - n_bulk)
    r_ring = 1.0 - 0.5 ** k
    r_bulk = np.sqrt(rng.random(n_bulk)) * maps.SAMPLE_RADIUS_CAP
    r = np.concatenate([r_ring, r_bulk])
    ang = rng.random(count) * 2.0 * np.pi
    return r * np.exp(1j * ang)


def _n_ring(count):
    return count - int(count * maps.SAMPLE_BULK_FRACTION)


def _count_with_ring_edge(block, blocks):
    """The least count whose ring points fill exactly that many blocks."""
    count = blocks * block
    while _n_ring(count) < blocks * block:
        count += 1
    assert _n_ring(count) == blocks * block
    return count


# counts just past one and three blocks, of SAMPLE_BLOCK, of 8192 and
# of 2^16; the ring/bulk boundary falls mid-block but for the counts
# whose ring points end on the edge of the second block
@pytest.mark.parametrize("count", sorted({
    1, 7, maps.SAMPLE_BLOCK + 1, 3 * maps.SAMPLE_BLOCK + 17,
    _count_with_ring_edge(maps.SAMPLE_BLOCK, 2), 8192 + 1, 3 * 8192 + 17,
    _count_with_ring_edge(8192, 2), (1 << 16) + 1, 3 * (1 << 16) + 17}))
def test_disk_samples_match_whole_array_formula(count):
    for seed in (9, 17):
        got = disk_samples(count, seed)
        assert got.tobytes() == _whole_array_disk_samples(count, seed).tobytes()


@pytest.mark.parametrize("block", sorted({63, 64, 1000, maps.SAMPLE_BLOCK,
                                           8192}))
def test_disk_sample_blocks_match_whole_array_formula(block, monkeypatch):
    # every block but the last is full; the ring/bulk boundary falls
    # mid-block, then on the edge of the second block.  An odd block
    # ends the ring draws on half of a 64-bit word.
    monkeypatch.setattr(maps, "SAMPLE_BLOCK", block)
    mid, edge = 3 * block + 17, _count_with_ring_edge(block, 2)
    assert _n_ring(mid) % block
    for count in (mid, edge):
        blocks = list(maps.disk_sample_blocks(count, 17))
        assert [b.size for b in blocks] == \
            [block] * (count // block) + [count % block] * (count % block > 0)
        want = _whole_array_disk_samples(count, 17)
        assert np.concatenate(blocks).tobytes() == want.tobytes()


def test_estimate_k_memory_per_sample():
    # the streamed sample holds nothing between blocks
    small = traced_peak(maps.estimate_k, 200_000, 17)
    large = traced_peak(maps.estimate_k, 400_000, 17)
    assert large - small <= 200_000 * 1


def test_build_params_memory_per_sample():
    small = traced_peak(maps.build_params, 0.5, "identity_in_z2", 200_000,
                        11)
    large = traced_peak(maps.build_params, 0.5, "identity_in_z2", 400_000,
                        11)
    assert large - small <= 200_000 * 1


def test_estimate_k_frozen():
    # sampled sup * 1.05; the true sup is 1 + sqrt(2)
    k = maps.estimate_k(100_000, 11)
    assert abs(k - 2.5190540230250233) < 1e-12
    assert k > 1.0 + math.sqrt(2.0)
    with pytest.raises(ConfigurationError):
        maps.estimate_k(100, 11)


def test_build_params_c_frozen():
    got = maps.build_params(0.5, "identity_in_z2", 100_000, 11)
    assert abs(got.c - 0.0014566968931649326) < 1e-15


def test_build_params_rejects_bad_theta():
    with pytest.raises(ConfigurationError, match="theta"):
        maps.build_params(1.2, "identity_in_z2", 10_000, 11)


def _ratio_mp(z):
    """|1 - chi| / (1 - |chi|) at z from the cusp_mp oracle."""
    with mp.workdps(40):
        chi = maps.cusp_mp(z, dps=40)
        return abs(1 - chi) / (1 - abs(chi))


def test_lens_k_is_the_corner_ratio():
    # the sup of the distortion ratio, reached at the corner chi(i)
    assert abs(maps.LENS_K - float(_ratio_mp(mp.expjpi(0.5)))) < 1e-12
    # and no circle point exceeds it: a dense grid from the cusp zone
    # (log-gap evaluation) through the corner t = pi/2 to t = pi
    t = np.concatenate([np.geomspace(1e-300, 1e-3, 20_000),
                        np.linspace(1e-3, math.pi, 400_001), [math.pi / 2]])
    chi = maps.cusp_on_circle(t)
    ratio = np.abs(1.0 - chi) / (1.0 - np.abs(chi))
    assert np.all(ratio <= maps.LENS_K + 1e-12)
    # the ratio has a square-root corner, so the rounding of pi/2
    # (6e-17) costs it about 3e-8
    assert ratio[-1] > maps.LENS_K - 1e-7


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_damping_peak_matches_dense_grid(theta):
    # max over X of exp(-delta X^-theta) / X in closed form, against a
    # log grid wide enough to hold X* = (delta theta)^(1/theta) at
    # every theta (1.1e-10 at theta = 0.1)
    delta = math.cos(math.pi * theta / 2.0)
    x = np.geomspace(1e-14, 2.0, 1_000_001)
    ratio = np.exp(-delta * x ** (-theta)) / x
    grid_max = float(np.max(ratio))
    x_star, peak = maps._damping_peak(theta)
    # grid points are 3.3e-5 apart in log X
    assert abs(math.log(x[np.argmax(ratio)] / x_star)) < 1e-4
    assert abs(peak - grid_max) <= 1e-9 * grid_max
    assert peak >= grid_max * (1.0 - 1e-15)


def test_reach_certificate_rejects_large_c():
    loose = maps.SymbolParams(theta=0.5, c=0.6, k_hat=2.519054)
    assert maps.reach_fraction(loose) > 1.0
    with pytest.raises(CuspDecayError, match="reach not certified") as exc:
        maps._certify_reach(loose)
    # X* = (delta theta)^(1/theta) = (sqrt(2)/4)^2, printed to full
    # precision
    x_star = float(str(exc.value).rsplit("= ", 1)[1])
    assert abs(x_star - 0.125) < 1e-15


def test_near_cusp_ratio_bounds_the_lens():
    # |1 - w| / (1 - |w|) at lens points w = 1 - x + iy with
    # |1 - w| <= REACH_SPLIT, out to the arcs of D(1 +- i/2, 1/2);
    # both distances are formed without cancellation near the cusp
    x = np.geomspace(1e-9, maps.REACH_SPLIT, 2001)[:, None]
    width = x ** 2 / (0.5 + np.sqrt(0.25 - x ** 2))
    y = width * np.linspace(-1.0, 1.0, 401)[None, :]
    dist = np.hypot(x, y)
    gap = (2.0 * x - x ** 2 - y ** 2) / (1.0 + np.hypot(1.0 - x, y))
    ratio = (dist / gap)[dist <= maps.REACH_SPLIT]
    assert ratio.size > 0.9 * dist.size
    assert ratio.max() <= maps.NEAR_CUSP_RATIO
    assert abs(maps.NEAR_CUSP_RATIO - 1.0221) < 1e-4


def test_reach_certificate_near_the_cusp(params):
    # theta = 0.08 peaks the damping bound at |1 - chi| = 1.8e-14, where
    # the lens ratio is near 1, not LENS_K
    assert maps._damping_peak(0.08)[0] < maps.REACH_SPLIT
    got = maps.build_params(0.08, "identity_in_z2", 100_000, 17)
    assert maps.reach_fraction(got) < 0.5
    assert maps.reach_bound(got) == (maps.reach_fraction(got),
                                     "NEAR_CUSP_RATIO")
    # theta = 0.07 keeps the c of the rule's grid floor, 1e-8 / (4 K),
    # far too large for a peak at 2.9e-17
    with pytest.raises(CuspDecayError, match="reach not certified"):
        maps.build_params(0.07, "identity_in_z2", 100_000, 17)
    # where the peak lies past REACH_SPLIT, q is 2c LENS_K m bit for bit
    for theta in (0.5, 0.7, 0.9):
        x_star, peak = maps._damping_peak(theta)
        assert x_star >= maps.REACH_SPLIT
        assert maps.reach_fraction(replace(params, theta=theta)) \
            == 2.0 * params.c * maps.LENS_K * peak
        assert maps.reach_bound(replace(params, theta=theta))[1] == "LENS_K"


def test_reach_certificate_holds_pointwise(params):
    # 2c|phi| <= q (1 - |chi|) on the sample, with q well below 1; at
    # theta = 1/2, (e delta theta)^(-1/theta) = (e sqrt(2) / 4)^-2 = 8/e^2
    q = maps.reach_fraction(params)
    exact = 16.0 * params.c * (1.0 + math.sqrt(2.0)) / math.e ** 2
    assert abs(q - exact) <= 1e-14 * exact and q < 0.01
    chi = maps.cusp_values(disk_samples(200_000, 12))
    gap = 1.0 - np.abs(chi)
    margin = gap - 2.0 * params.c * np.abs(maps.phi_values(chi, params.theta))
    assert np.all(margin >= (1.0 - q) * gap)


def test_build_params_reproduces_frozen(params):
    got = maps.build_params(0.5, "constant_one", 100_000, 11)
    assert abs(got.c - 1.456697e-3) < 1e-9
    assert abs(got.k_hat - 2.519054) < 1e-6
    assert got.theta == params.theta
    # the run's g_kind reaches the one object build_params returns
    assert got.g_kind == "constant_one"


def test_perturbation_reach_margin(params):
    chi = maps.cusp_values(disk_samples(20_000, seed=10))
    reach = np.abs(chi) + 2.0 * params.c * np.abs(
        maps.phi_values(chi, params.theta))
    assert np.max(reach) < 1.0


def test_cusp_taylor_sums_to_chain():
    co = [complex(c) for c in maps.cusp_taylor_mp(40)]
    assert abs(co[0] - CHI_AT_ZERO) < 1e-15
    for z in (0.23, -0.2 + 0.1j):
        val = sum(co[k] * z ** k for k in range(40))
        assert abs(val - maps.cusp_values(z)) < 1e-12


# a_k of chi at 0, 75 digits, from truncated power-series arithmetic
# through every chain stage (Mobius, sqrt as exp(log / 2), log,
# reciprocal) at 70 digits: a method independent of the Cauchy sum
_SERIES_COEFFS = {
    1: "0.36943135726688966647879273155513664925455559902893939819255351"
       "216772972147",
    2: "-0.0283424919563892528029967871115825349116639383901885831293297"
       "264807196870648",
    10: "-0.00201884004589411668868831231385857491892085826007006480257035"
        "944889502183992",
    50: "-0.00000434728589029810554056977265993485662717504231099988073872"
        "179197045315158815",
    159: "0.0000330018790221743426696705661440114715587449378129278415630"
         "326655118121696221",
}


def test_cusp_taylor_matches_series_arithmetic():
    co = maps.cusp_taylor_mp(160, dps=60)
    with mp.workdps(80):
        for k, text in _SERIES_COEFFS.items():
            assert abs(co[k] - mp.mpf(text)) < mp.mpf("1e-70")


def test_cusp_taylor_node_count_covers_every_term():
    # 20 digits alone would need 162 nodes; coefficients past the node
    # count would alias and be amplified by rho^-k
    co = maps.cusp_taylor_mp(300, dps=10)
    assert len(co) == 300
    assert all(abs(a) <= 1 for a in co)


def test_distortion_ratio_below_k_hat(params):
    chi = maps.cusp_values(disk_samples(20_000, seed=15))
    ratio = np.abs(1.0 - chi) / (1.0 - np.abs(chi))
    ratio = ratio[np.isfinite(ratio)]
    assert np.max(ratio) <= params.k_hat
