"""Spectrum pipeline: oracle equivalence, honest intervals, decay
fits, the splitting experiment, one-variable contrast runs."""

import math

import numpy as np
import pytest
from mpmath import mp

from cuspdecay import hardy, maps, spectrum
from cuspdecay.errors import (
    ConfigurationError,
    EstimationError,
    InsufficientDataError,
    InvalidInputError,
    RangeError,
)


def test_singular_spectrum_validation():
    s = spectrum.SingularSpectrum(np.array([2.0, 1.0, 1.0]), 0.1)
    assert len(s) == 3
    spectrum.SingularSpectrum(np.array([1.0]), math.inf)  # inf tail is legal
    with pytest.raises(InvalidInputError):
        spectrum.SingularSpectrum(np.array([]), 0.0)
    with pytest.raises(InvalidInputError):
        spectrum.SingularSpectrum(np.array([1.0, 2.0]), 0.0)  # ascending
    with pytest.raises(InvalidInputError):
        spectrum.SingularSpectrum(np.array([1.0, -0.5]), 0.0)
    with pytest.raises(InvalidInputError):
        spectrum.SingularSpectrum(np.array([1.0]), -1.0)
    with pytest.raises(InvalidInputError):
        spectrum.SingularSpectrum(np.array([1.0]), math.nan)


def test_approximation_numbers_indexing():
    s = spectrum.gram_values(np.diag([9.0, 1.0, 4.0]), 0.5)
    assert np.allclose(s.values, [3.0, 2.0, 1.0])
    assert spectrum.approximation_numbers(s, 1) == (3.0, 3.5)
    assert spectrum.approximation_numbers(s, 3) == (1.0, 1.5)
    with pytest.raises(RangeError):
        spectrum.approximation_numbers(s, 0)
    with pytest.raises(RangeError):
        spectrum.approximation_numbers(s, 4)


def test_gram_values_validation_and_clipping():
    out = spectrum.gram_values(np.array([[-1e-18]]), 0.0)
    assert out.values[0] == 0.0
    with pytest.raises(InvalidInputError):
        spectrum.gram_values(np.zeros((2, 3)), 0.0)


def test_gram_route_equals_svd_route_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 17))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sv = np.linalg.svd(m, compute_uv=False)
        gv = spectrum.gram_values(m.conj().T @ m, 0.0).values
        assert np.max(np.abs(sv - gv)) < 1e-10


def test_direct_sum_subadditivity():
    # a_{m+n-1}(A (+) B) <= a_m(A) + a_n(B)
    rng = np.random.default_rng(1117)
    for _ in range(30):
        p = int(rng.integers(2, 17))
        q = int(rng.integers(2, 17))
        a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        b = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        d = np.zeros((p + q, p + q), dtype=complex)
        d[:p, :p] = a
        d[p:, p:] = b
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        sd = np.linalg.svd(d, compute_uv=False)
        m = int(rng.integers(1, p + 1))
        n = int(rng.integers(1, q + 1))
        assert sd[m + n - 2] <= sa[m - 1] + sb[n - 1] + 1e-12


def test_beta_estimate_geometric():
    vals = 0.5 ** np.arange(1, 65)
    s = spectrum.SingularSpectrum(vals, 0.0)
    rep = spectrum.beta_estimate(s, 2, range(1, 20))
    # admissible n = 1..8, kept upper half 5..8; a_{n^2} = 0.5^{n^2}
    assert rep.schedule_exponent == 2
    assert abs(rep.beta_minus - 0.5 ** 8) < 1e-15
    assert abs(rep.beta_plus - 0.5 ** 5) < 1e-15
    with pytest.raises(RangeError):
        spectrum.beta_estimate(spectrum.SingularSpectrum(vals[:3], 0.0),
                               2, [5, 6])
    with pytest.raises(InvalidInputError):
        spectrum.beta_estimate(s, 0, range(1, 4))
    growing = spectrum.SingularSpectrum(np.full(8, 1.5), 0.0)
    with pytest.raises(InvalidInputError):
        spectrum.beta_estimate(growing, 1, range(1, 9))


def test_fit_decay_recovers_synthetic_line():
    n = np.arange(1, 41)
    s = spectrum.SingularSpectrum(5.0 * np.exp(-0.3 * n), 0.0)
    fit = spectrum.fit_decay(s, 1, range(1, 41))
    assert abs(fit.rate - 0.3) < 1e-12
    assert abs(fit.intercept - math.log(5.0)) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_range == (1, 40)
    assert fit.usable_n == tuple(range(1, 41))
    d = fit.to_dict()
    assert d["rate"] == fit.rate and d["usable_n"] == list(range(1, 41))


def test_fit_decay_floor_filtering():
    n = np.arange(1, 41)
    # tail floor 10*tail = 5 e^{-6} cuts every n >= 20
    s = spectrum.SingularSpectrum(5.0 * np.exp(-0.3 * n),
                                  0.5 * math.exp(-6.0))
    fit = spectrum.fit_decay(s, 1, range(1, 41))
    assert fit.usable_n == tuple(range(1, 20))
    assert abs(fit.rate - 0.3) < 1e-12

    with pytest.raises(InsufficientDataError):
        spectrum.fit_decay(spectrum.SingularSpectrum(
            5.0 * np.exp(-0.3 * n), 10.0), 1, range(1, 41))
    with pytest.raises(RangeError):
        spectrum.fit_decay(s, 2, [9, 10])
    with pytest.raises(InvalidInputError):
        spectrum.fit_decay(s, 0, range(1, 41))


def test_composition_spectrum_frozen(params, small_spec):
    s = spectrum.composition_spectrum(params, small_spec)
    assert len(s) == 17 * 17
    assert abs(s.values[0] - 1.2330103813094013) < 1e-12
    assert abs(s.values[3] - 0.21513001647856267) < 1e-12
    assert abs(s.values[8] - 0.0082907126317043681) < 1e-12
    assert abs(s.tail_bound - 0.0086412574405732995) < 1e-12


def test_gram_route_brackets_svd_route(params):
    # the Gram route keeps every output mode, the assembled matrix cuts
    # rows at degree D: gram >= svd, gap capped by the row defect
    spec = hardy.TruncationSpec(8, 128)
    om = hardy.assemble_matrix(params, spec)
    s_svd = spectrum.SingularSpectrum(
        np.linalg.svd(om.entries, compute_uv=False), om.tail_hs)
    gram, tail = hardy.column_gram(params, spec)
    s_gram = spectrum.gram_values(gram, tail)
    defect = math.sqrt(max(
        float(np.trace(gram).real) - float(np.sum(np.abs(om.entries) ** 2)),
        0.0))
    assert np.all(s_svd.values <= s_gram.values + 1e-10)
    assert np.all(s_gram.values <= s_svd.values + defect + 1e-10)
    for n in range(1, 11):
        lo_g, hi_g = spectrum.approximation_numbers(s_gram, n)
        lo_s, hi_s = spectrum.approximation_numbers(s_svd, n)
        assert max(lo_g, lo_s) <= min(hi_g, hi_s) + 1e-12


def test_compression_monotonicity(params):
    # principal blocks of the Gram: s-numbers only grow with the degree
    g4, _ = hardy.column_gram(params, hardy.TruncationSpec(4, 256))
    g6, _ = hardy.column_gram(params, hardy.TruncationSpec(6, 256))
    assert np.max(np.abs(g6[:25, :25] - g4)) < 5e-13
    sv4 = spectrum.gram_values(g4, 0.0).values
    sv6 = spectrum.gram_values(g6, 0.0).values
    assert np.all(sv4 <= sv6[:25] + 1e-10)


def test_scaling_spectrum_exact(params):
    spec = hardy.TruncationSpec(4, 64)
    s = spectrum.composition_spectrum(params, spec, kind="scaling",
                                      scale=0.5)
    idx = hardy.index_set(4)
    expect = np.sort(0.5 ** (idx[:, 0] + idx[:, 1]))[::-1]
    assert np.max(np.abs(s.values - expect)) < 1e-12
    assert abs(s.tail_bound - 0.058911177218042614) < 1e-12


def test_split_spec_validation(params):
    sp = spectrum.SplitSpec.for_rank(params, 90)
    assert sp.n == 90
    assert 0.0 < sp.inner_radius < sp.outer_radius < 1.0
    with pytest.raises(ConfigurationError):
        spectrum.SplitSpec.for_rank(params, 50)
    with pytest.raises(ConfigurationError):
        spectrum.SplitSpec(n=0, inner_radius=0.5, outer_radius=0.9)
    with pytest.raises(ConfigurationError):
        spectrum.SplitSpec(n=10, inner_radius=0.9, outer_radius=0.5)


def test_split_gram_partition_and_masses(params):
    spec = hardy.TruncationSpec(12, 64)
    sg = spectrum.split_gram(params, spec, spectrum.SplitSpec.for_rank(params, 90))
    total = sg.gram_inner + sg.gram_middle + sg.gram_outer
    assert np.max(np.abs(total - sg.gram_full)) < 1e-14
    mi, mm, mo = sg.masses()
    assert abs(mi - 0.99999999999999811) < 1e-13
    assert 0.0 < mm < 1e-50
    assert 0.0 < mo < 1e-55
    assert abs(mi + mm + mo - float(sg.gram_full[0, 0].real)) < 1e-15
    logn = math.log(sg.outer_norm_bound())
    assert abs(logn - -67.312854350230154) < 1e-6
    # quadratic forms split to rounding on random polynomials
    rng = np.random.default_rng(5)
    size = sg.gram_full.shape[0]
    for _ in range(20):
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        parts = sum(float(np.real(c.conj() @ g @ c)) for g in
                    (sg.gram_inner, sg.gram_middle, sg.gram_outer))
        whole = float(np.real(c.conj() @ sg.gram_full @ c))
        assert abs(parts - whole) <= 1e-12 * max(abs(whole), 1.0)


def test_one_dim_contrast_frozen():
    s = spectrum.one_dim_contrast(hardy.TruncationSpec(64, 512))
    # the 50-digit value of test_one_dim_tail_matches_mp_oracle
    assert abs(s.tail_bound - 6.7764548454809858e-06) < 1e-15
    roots = [spectrum.approximation_numbers(s, n)[0] ** (1.0 / n)
             for n in (1, 2, 4, 8, 16)]
    frozen = [1.0873009991293119, 0.68494260753940517, 0.56004914397110916,
              0.52563831993736998, 0.52180955413379082]
    assert np.max(np.abs(np.array(roots) - frozen)) < 1e-10
    with pytest.raises(ConfigurationError):
        spectrum.one_dim_contrast(hardy.TruncationSpec(520, 4096))


def test_one_dim_tail_matches_mp_oracle():
    # discarded column norms on the same nodes at 50 digits, summed
    # without the closed form: (1/pi) sum w (1/(1 - r) - sum_{k<=D} r^k)
    d = 64
    got = spectrum.one_dim_contrast(hardy.TruncationSpec(d, 512)).tail_bound
    quad = hardy.circle_quadrature(512, math.exp(-80.0))
    total = mp.mpf(0)
    for t, w in zip(quad.nodes, quad.weights):
        dps = 50 + max(0, int(-math.log10(t)))  # digits lost in 1 - e^{it}
        with mp.workdps(dps):
            r = abs(maps.cusp_mp(mp.expj(mp.mpf(t)), dps=dps)) ** 2
            kept = mp.fsum(r ** k for k in range(d + 1))
            total += mp.mpf(w) * (1 / (1 - r) - kept)
    with mp.workdps(50):
        oracle = float(mp.sqrt(total / mp.pi))
    assert abs(oracle - 6.7764548454809858e-06) < 1e-20
    assert abs(got - oracle) <= 1e-11 * oracle


def test_scaled_sup_bound():
    assert abs(spectrum.scaled_sup_bound(0.5) - 0.53659864414306024) < 1e-12
    with pytest.raises(ConfigurationError):
        spectrum.scaled_sup_bound(0.0)
    with pytest.raises(ConfigurationError):
        spectrum.scaled_sup_bound(1.0)
    with pytest.raises(EstimationError):
        spectrum.scaled_sup_bound(0.9, grid=4)  # margin swamps the gap


def test_one_dim_plateau_small_block():
    s = spectrum.one_dim_plateau(0.5, block_size=24, precision_dps=30)
    assert len(s) == 24
    assert 1e-7 < s.tail_bound < 1e-6
    lo4 = spectrum.approximation_numbers(s, 4)[0]
    lo8 = spectrum.approximation_numbers(s, 8)[0]
    lo16 = spectrum.approximation_numbers(s, 16)[0]
    assert abs(lo4 - 0.010317056362703745) < 1e-15
    assert abs(lo8 - 2.1111753440584948e-05) < 1e-18
    assert abs(lo16 - 3.1735661320199555e-11) < 1e-24
    assert abs(lo8 ** 0.125 - 0.26035476957484749) < 1e-12
    with pytest.raises(ConfigurationError):
        spectrum.one_dim_plateau(0.95)
    with pytest.raises(ConfigurationError):
        spectrum.one_dim_plateau(0.5, block_size=1)


def test_save_spectrum_csv(tmp_path):
    s = spectrum.SingularSpectrum(np.array([0.9, 0.8, 0.7, 0.6, 0.5]), 0.01)
    path = str(tmp_path / "spec.csv")
    spectrum.save_spectrum_csv(s, path, schedule_exponent=2, comment="probe")
    lines = open(path).read().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "n,lower,upper"
    assert len(lines) == 4  # n = 1 and n = 2 fit; n = 3 needs rank 9
    n1 = lines[2].split(",")
    assert n1[0] == "1" and float(n1[1]) == 0.9 and float(n1[2]) == 0.91
    n2 = lines[3].split(",")
    assert n2[0] == "2" and float(n2[1]) == 0.6
    with pytest.raises(InvalidInputError):
        spectrum.save_spectrum_csv(s, path, schedule_exponent=0)
