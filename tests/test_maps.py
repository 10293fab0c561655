"""Cusp chain, damping factor, calibration, Taylor blocks."""

import cmath
import math

import numpy as np
import pytest
from mpmath import mp

from cuspdecay import cli, maps
from cuspdecay.errors import (
    CalibrationError,
    ConfigurationError,
    InvalidInputError,
)

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
        with pytest.raises(InvalidInputError):
            cli._check_points([("arg:1", complex(z))])
    cli._check_points([("arg:1", 1.0 + 0j), ("arg:2", -1j)])


def test_conjugation_symmetry():
    z = maps.disk_samples(500, seed=3)
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
    z = maps.disk_samples(5000, seed=5)
    chi = maps.cusp_values(z)
    assert np.max(np.abs(chi - 0.5)) <= 0.5 + 1e-12
    assert np.min(np.abs(chi - (1.0 + 0.5j))) >= 0.5 - 1e-12
    assert np.min(np.abs(chi - (1.0 - 0.5j))) >= 0.5 - 1e-12
    # boundary touch only at 1: |1 - chi| <= 1 and the gap inequality
    assert np.max(np.abs(chi - 1.0)) <= 1.0 + 1e-12
    assert np.all(np.abs(chi.imag) <= 2.0 * (1.0 - chi.real) ** 2 + 1e-12)


def test_cusp_mp_agrees_with_double():
    z = maps.disk_samples(50, seed=6)[:25]
    for zz, chi in zip(z, maps.cusp_values(z)):
        ref = complex(maps.cusp_mp(complex(zz)))
        assert abs(chi - ref) < 1e-13


def test_cusp_on_circle_matches_chain():
    t = np.array([3.0, 1.0, 0.3, 1e-2, -0.7])
    chi = maps.cusp_on_circle(t)
    for tt, cc in zip(t, chi):
        assert abs(cc - maps.cusp_values(cmath.exp(1j * tt))) < 1e-14


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


# log|xi| from |xi| ~ 1/4 down past exp underflow (log|xi| < -745), as
# deep as check_covering(1000) samples
@pytest.mark.parametrize("log_gap", [-1.4, -3.0, -8.0, -20.0, -45.0, -55.0,
                                     -280.0, -745.0, -800.0, -1740.0])
def test_log_gap_kernel_matches_mp(log_gap):
    dps = 40 + int(-log_gap / math.log(10.0))
    for phase in (0.0, 0.3, -0.3, 0.9, -0.9, 1.2, -1.2):
        assert log_gap < math.log(2.0 * math.cos(phase))  # |1 - xi| <= 1
        got = maps.cusp_from_log_gap(log_gap, phase)
        # the reference gap must be formed at high dps or z rounds to 1
        with mp.workdps(dps):
            z = 1 - mp.exp(mp.mpc(log_gap, phase))
            ref = complex(maps.cusp_mp(z, dps=dps))
        err, bound = _err_1_minus_chi(got, ref)
        assert err <= bound, (phase, err)


def test_cusp_near_one_matches_mp():
    # z = 1 - exp(l + i p): kernel vs the arbitrary-precision chain;
    # the reference gap must be formed at high dps or it rounds to 0
    for l, p in ((-55.0, 0.0), (-60.0, 1.2), (-80.0, -1.5)):
        got = maps.cusp_from_log_gap(l, p)
        with mp.workdps(120):
            z = mp.mpf(1) - mp.exp(mp.mpc(l, p))
            ref = complex(maps.cusp_mp(z, dps=120))
        assert abs(got - ref) < 1e-12 * abs(1.0 - ref)


def test_cusp_from_gap_joins_near_one_kernel():
    # log|xi| = -50 was the seam between two near-cusp kernels; the one
    # kernel must show no step there
    for l in (-50.0 - 1e-9, -50.0, -50.0 + 1e-9):
        got = maps.cusp_from_log_gap(l, 0.7)
        with mp.workdps(100):
            ref = complex(maps.cusp_mp(1 - mp.exp(mp.mpc(l, 0.7)), dps=100))
        err, bound = _err_1_minus_chi(got, ref)
        assert err <= bound, (l, err)


def test_cusp_on_circle_matches_mp():
    t = np.geomspace(1e-300, 1e-3, 300)  # crosses the seam at 1e-6
    got = maps.cusp_on_circle(t)
    for tt, g in zip(t, got):
        dps = 30 + int(-math.log10(tt)) + 1
        with mp.workdps(dps):
            ref = complex(maps.cusp_mp(mp.expj(mp.mpf(tt)), dps=dps))
        err, bound = _err_1_minus_chi(g, ref)
        if tt >= maps.CIRCLE_LOG_GAP_SPLIT:
            # the plain chain cancels in 1 - e^{it}; the previous
            # three-zone evaluator met 5.4e-12 here
            bound = 1e-11 * abs(1.0 - ref)
        assert err <= bound, (tt, err)
    assert maps.cusp_on_circle(0.0) == 1.0 + 0j
    both = maps.cusp_on_circle(np.concatenate([t, -t]))
    assert np.array_equal(both[t.size:], np.conj(both[:t.size]))


def test_phi_values_bound_and_limit():
    assert maps.phi_values(1.0, 0.5) == 0j
    delta = math.cos(math.pi * 0.25)
    z = maps.disk_samples(2000, seed=7)
    phi = maps.phi_values(z, 0.5)
    cap = np.exp(-delta * np.abs(1.0 - z) ** -0.5)
    assert np.all(np.abs(phi) <= cap + 1e-15)
    for zz, ph in zip(z[:10], phi):
        assert abs(complex(maps.phi_mp(complex(zz), 0.5)) - ph) < 1e-16


def test_symbol_params_validation():
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.0, c=0.01, k_hat=2.0)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=1.5, k_hat=2.0)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=0.01, k_hat=0.5)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=0.01, k_hat=2.0, sigma=0.99, j0=1)
    with pytest.raises(ConfigurationError):
        maps.SymbolParams(theta=0.5, c=0.01, k_hat=2.0, g_kind="nope")


def test_symbol_params_roundtrip(params):
    assert maps.SymbolParams.from_dict(params.to_dict()) == params
    assert abs(params.delta - math.cos(math.pi / 4.0)) < 1e-15


def test_disk_samples_deterministic_and_clustered():
    a = maps.disk_samples(3000, seed=9)
    b = maps.disk_samples(3000, seed=9)
    assert np.array_equal(a, b)
    assert a.size == 3000
    assert np.max(np.abs(a)) < 1.0
    # boundary clustering: a decent fraction beyond r = 0.99
    assert np.mean(np.abs(a) > 0.99) > 0.2
    with pytest.raises(ConfigurationError):
        maps.disk_samples(0, seed=1)


def test_estimate_k_frozen():
    # sampled sup * 1.05 with the default seed; true sup is 1 + sqrt(2)
    k = maps.estimate_k()
    assert abs(k - 2.5190540230250233) < 1e-12
    assert k > 1.0 + math.sqrt(2.0)
    with pytest.raises(ConfigurationError):
        maps.estimate_k(sample_count=100)


def test_calibrate_c_frozen():
    c = maps.calibrate_c(0.5, 2.5190540230250233, validation_count=50_000)
    assert abs(c - 0.0014566968931649326) < 1e-15


def test_calibrate_c_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        maps.calibrate_c(1.2, 2.5)
    with pytest.raises(ConfigurationError):
        maps.calibrate_c(0.5, 0.2)


def test_validate_c_catches_escape():
    # an absurdly large perturbation must trip the witness check
    with pytest.raises(CalibrationError) as exc:
        maps._validate_c(0.5, 0.9, 2.52, 20_000, seed=13)
    assert exc.value.witness is not None


def test_build_params_reproduces_frozen(params):
    got = maps.build_params(validation_count=50_000)
    assert abs(got.c - 1.456697e-3) < 1e-9
    assert abs(got.k_hat - 2.519054) < 1e-6
    assert got.theta == params.theta


def test_perturbation_reach_margin(params):
    z = maps.disk_samples(20_000, seed=10)
    reach = maps.perturbation_reach(z, params)
    assert np.max(reach) < 1.0


def test_cusp_taylor_sums_to_chain():
    co = [complex(c) for c in maps.cusp_taylor_mp(40)]
    assert abs(co[0] - CHI_AT_ZERO) < 1e-15
    for z in (0.23, -0.2 + 0.1j):
        val = sum(co[k] * z ** k for k in range(40))
        assert abs(val - maps.cusp_values(z)) < 1e-12


def test_distortion_ratio_below_k_hat(params):
    z = maps.disk_samples(20_000, seed=15)
    ratio = maps.distortion_ratio(z)
    ratio = ratio[np.isfinite(ratio)]
    assert np.max(ratio) <= params.k_hat
