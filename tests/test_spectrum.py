"""Spectrum pipeline: oracle equivalence, honest intervals, decay
fits, one-variable contrast runs."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from mpmath import mp

from cuspdecay import cli, hardy, maps, spectrum
from cuspdecay.errors import ConfigurationError, CuspDecayError
from conftest import (
    all_modes_column_gram,
    dense_column_gram,
    mode_masses,
    pair_stack_split_grams,
    split_quadrature,
    stacked_product_gram,
    tanh_sinh_quadrature,
    written_out_gram,
)


def test_singular_spectrum_validation():
    s = spectrum.SingularSpectrum(np.array([2.0, 1.0, 1.0]), 0.1)
    assert len(s) == 3
    with pytest.raises(ConfigurationError, match="non-empty 1-D"):
        spectrum.SingularSpectrum(np.array([]), 0.0)
    with pytest.raises(ConfigurationError, match="must descend"):
        spectrum.SingularSpectrum(np.array([1.0, 2.0]), 0.0)  # ascending
    with pytest.raises(ConfigurationError, match="finite and >= 0"):
        spectrum.SingularSpectrum(np.array([1.0, -0.5]), 0.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError,
                           match="tail_bound must be finite and >= 0"):
            spectrum.SingularSpectrum(np.array([1.0]), bad)
    assert s.noise_floor == 0.0
    for bad in (-1e-20, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="noise_floor must be"):
            spectrum.SingularSpectrum(np.array([1.0]), 0.0, bad)


def test_approximation_numbers_indexing():
    s = spectrum.gram_values(np.diag([9.0, 1.0, 4.0]), 0.5)
    assert np.allclose(s.values, [3.0, 2.0, 1.0])
    assert spectrum.approximation_numbers(s, 1) == (3.0, 3.5)
    assert spectrum.approximation_numbers(s, 3) == (1.0, 1.5)
    with pytest.raises(CuspDecayError, match=r"n = 0 outside .* 1\.\.3"):
        spectrum.approximation_numbers(s, 0)
    with pytest.raises(CuspDecayError, match=r"n = 4 outside .* 1\.\.3"):
        spectrum.approximation_numbers(s, 4)


def test_gram_values_validation_and_clipping():
    out = spectrum.gram_values(np.array([[-1e-18]]), 0.0)
    assert out.values[0] == 0.0 and out.noise_floor == 0.0
    eps = np.finfo(float).eps
    out = spectrum.gram_values(np.diag([1.0, 9.0, 4.0]), 0.0)
    assert out.noise_floor == math.sqrt(eps * 9.0)
    with pytest.raises(ConfigurationError, match="must be square"):
        spectrum.gram_values(np.zeros((2, 3)), 0.0)


def test_gram_values_takes_hermitian_part_bit_for_bit():
    # the eigenvalues are those of the Hermitian part, bit for bit, as
    # when every input was symmetrized
    rng = np.random.default_rng(11)
    m = rng.standard_normal((40, 30))
    sym = m.T @ m
    sym = np.triu(sym) + np.triu(sym, 1).T  # exactly symmetric
    skew = sym + 1e-3 * rng.standard_normal(sym.shape)
    h = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    herm = h.conj().T @ h
    herm = np.triu(herm) + np.triu(herm, 1).conj().T
    np.fill_diagonal(herm, herm.diagonal().real)  # exactly Hermitian
    for g in (sym, skew, herm, herm + 1e-3j * np.triu(np.ones((20, 20)))):
        ev = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        want = np.sqrt(np.clip(ev[::-1], 0.0, None))
        got = spectrum.gram_values(g, 0.0)
        assert np.array_equal(got.values, want)
        assert got.noise_floor == math.sqrt(np.finfo(float).eps * max(ev[-1], 0.0))
    # only the lower triangle reaches LAPACK, so a skipped
    # symmetrization would show on the non-symmetric input
    assert not np.array_equal(np.linalg.eigvalsh(skew),
                              np.linalg.eigvalsh(0.5 * (skew + skew.T)))


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
    with pytest.raises(CuspDecayError, match="no n in the range"):
        spectrum.beta_estimate(spectrum.SingularSpectrum(vals[:3], 0.0),
                               2, [5, 6])
    with pytest.raises(ConfigurationError, match="schedule exponent"):
        spectrum.beta_estimate(s, 0, range(1, 4))
    growing = spectrum.SingularSpectrum(np.full(8, 1.5), 0.0)
    with pytest.raises(CuspDecayError, match=r"proxies outside \[0, 1\]"):
        spectrum.beta_estimate(growing, 1, range(1, 9))


def test_beta_estimate_drops_rows_under_the_noise_floor():
    # kept upper half n = 5..8 reads a_25, a_36, a_49, a_64; only a_25
    # clears the floor 0.5^36 (a row at the floor is dropped, as in
    # fit_decay), so beta_minus never takes a noise row's 0, while
    # beta_plus still takes every kept row's [0, floor + tail]
    # enclosure: at n = 8, (floor + tail)^(1/8) tops (a_25 + tail)^(1/5)
    vals = 0.5 ** np.arange(1, 65)
    vals[40:] = 0.0
    s = spectrum.SingularSpectrum(vals, 1e-12, 0.5 ** 36)
    rep = spectrum.beta_estimate(s, 2, range(1, 9))
    assert rep.beta_minus == pytest.approx(0.5 ** 5, rel=1e-14)
    assert rep.beta_plus == pytest.approx((0.5 ** 36 + 1e-12) ** (1 / 8),
                                          rel=1e-14)
    assert rep.beta_plus > (0.5 ** 25 + 1e-12) ** 0.2
    # every kept row under the floor: 0 is the honest lower bound
    quiet = spectrum.SingularSpectrum(vals, 1e-12, 0.5 ** 25)
    rep = spectrum.beta_estimate(quiet, 2, range(1, 9))
    assert rep.beta_minus == 0.0
    assert rep.beta_plus == pytest.approx((0.5 ** 25 + 1e-12) ** (1 / 8),
                                          rel=1e-14)


def test_fit_decay_recovers_synthetic_line():
    n = np.arange(1, 41)
    s = spectrum.SingularSpectrum(5.0 * np.exp(-0.3 * n), 0.0)
    fit = spectrum.fit_decay(s, 1, range(1, 41))
    assert abs(fit.rate - 0.3) < 1e-12
    assert abs(fit.intercept - math.log(5.0)) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_range == (1, 40)
    assert fit.usable_n == tuple(range(1, 41))
    d = json.loads(json.dumps(dataclasses.asdict(fit)))
    assert d["rate"] == fit.rate and d["usable_n"] == list(range(1, 41))


def test_fit_decay_floor_filtering():
    n = np.arange(1, 41)
    # tail floor 10*tail = 5 e^{-6} cuts every n >= 20
    s = spectrum.SingularSpectrum(5.0 * np.exp(-0.3 * n),
                                  0.5 * math.exp(-6.0))
    fit = spectrum.fit_decay(s, 1, range(1, 41))
    assert fit.usable_n == tuple(range(1, 20))
    assert abs(fit.rate - 0.3) < 1e-12

    with pytest.raises(CuspDecayError, match="only 0 of 40 points"):
        spectrum.fit_decay(spectrum.SingularSpectrum(
            5.0 * np.exp(-0.3 * n), 10.0), 1, range(1, 41))
    with pytest.raises(CuspDecayError, match="no n in the range"):
        spectrum.fit_decay(s, 2, [9, 10])
    with pytest.raises(ConfigurationError, match="schedule exponent"):
        spectrum.fit_decay(s, 0, range(1, 41))


def test_fit_decay_noise_floor_filtering():
    n = np.arange(1, 41)
    vals = 5.0 * np.exp(-0.3 * n)
    # the tail is far below every value; the noise floor 5 e^{-5.85}
    # cuts every n >= 20
    s = spectrum.SingularSpectrum(vals, 1e-30, 5.0 * math.exp(-5.85))
    fit = spectrum.fit_decay(s, 1, range(1, 41))
    assert fit.usable_n == tuple(range(1, 20))
    assert abs(fit.rate - 0.3) < 1e-12
    # the higher floor wins: 10 * tail = 5 e^{-2.85} cuts n >= 10
    s = spectrum.SingularSpectrum(vals, 0.5 * math.exp(-2.85),
                                  5.0 * math.exp(-5.85))
    assert spectrum.fit_decay(s, 1, range(1, 41)).usable_n == tuple(
        range(1, 10))
    with pytest.raises(CuspDecayError, match="only 0 of 40 points"):
        spectrum.fit_decay(spectrum.SingularSpectrum(vals, 0.0, 10.0), 1,
                           range(1, 41))


def test_composition_spectrum_frozen(params):
    s = spectrum.composition_spectrum(params, 16, hardy.circle_quadrature(256))
    assert len(s) == 17 * 17
    assert abs(s.values[0] - 1.2330103813094013) < 1e-12
    assert abs(s.values[3] - 0.21513001647856267) < 1e-12
    assert abs(s.values[8] - 0.0082907126317043681) < 1e-12
    assert abs(s.tail_bound - 0.0086412574405732995) < 1e-12


def test_gram_route_brackets_svd_route(params):
    # the Gram route keeps every output mode, the assembled matrix cuts
    # rows at degree D: gram >= svd, gap capped by the row defect
    om = hardy.assemble_matrix(params, 8, 128)
    s_svd = spectrum.SingularSpectrum(
        np.linalg.svd(om.entries, compute_uv=False), om.tail_hs)
    gram, tail = dense_column_gram(params, 8, hardy.circle_quadrature(128))
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


def test_compression_monotonicity(params, meshes):
    # principal blocks of the Gram: s-numbers only grow with the degree
    for mesh, quad in meshes(256).items():
        g4, _ = dense_column_gram(params, 4, quad)
        g6, _ = dense_column_gram(params, 6, quad)
        assert np.max(np.abs(g6[:25, :25] - g4)) < 5e-13, mesh
        sv4 = spectrum.gram_values(g4, 0.0).values
        sv6 = spectrum.gram_values(g6, 0.0).values
        assert np.all(sv4 <= sv6[:25] + 1e-10), mesh


def test_scaling_spectrum_exact():
    # the column Gram of the scaling z -> z/2 at D = 4 is
    # diag(4^-(a1+a2)), its own core, and its discarded columns carry
    # 16/9 - trace G = HS^2 - trace G
    idx = hardy.index_set(4)
    lam = 0.25 ** (idx[:, 0] + idx[:, 1])
    tail = math.sqrt(16.0 / 9.0 - float(np.sum(lam)))
    s = spectrum._column_gram_spectrum(_stand_in(np.diag(lam), tail))
    expect = np.sort(0.5 ** (idx[:, 0] + idx[:, 1]))[::-1]
    assert len(s) == 25
    assert np.max(np.abs(s.values - expect)) < 1e-12
    assert abs(s.tail_bound - 0.058911177218042614) < 1e-12


EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("d, q, fits", [(16, 256, False), (32, 512, False),
                                        (48, 1024, True)])
def test_ritz_spectrum_matches_dense_oracle(params, meshes, d, q, fits):
    # the dense route, written out as the oracle: every eigenvalue of the
    # full column Gram, built by the per-j stacked products, which share
    # no code with the factored core; the 4 s dense case at D = 48 runs
    # on the uniform grid alone
    for mesh, quad in meshes(q).items():
        if d < 48 or mesh == "uniform":
            _check_against_dense_oracle(params, d, quad, fits)


def _check_against_dense_oracle(params, d, quad, fits):
    gram = stacked_product_gram(params, d, quad)
    tail = hardy.column_gram_operator(params, d, quad).tail
    lam = np.linalg.eigvalsh(gram)[::-1]
    dense = spectrum.SingularSpectrum(np.sqrt(np.clip(lam, 0.0, None)), tail,
                                      math.sqrt(EPS * lam[0]))
    got = spectrum.composition_spectrum(params, d, quad)
    assert len(got) == (d + 1) ** 2
    # every value, the zeros under the noise floor included, matches the
    # dense eigenvalues to the solver's own rounding
    tol = 64 * EPS * lam[0]
    assert np.all(np.abs(got.values ** 2 - np.clip(lam, 0.0, None)) <= tol)
    assert np.all((got.values > got.noise_floor) | (got.values == 0.0))
    assert abs(got.noise_floor - dense.noise_floor) <= 1e-12 * dense.noise_floor
    assert got.tail_bound >= tail - 1e-15 * tail
    # so every reported interval contains the oracle's value, the zeroed
    # rows, read as [0, noise floor + tail], included
    assert np.all(got.values ** 2 <= lam + tol)
    assert np.all(dense.values <= _upper_endpoints(got))
    # the route holds 3 of the D + 1 t2 modes; holding every mode, through
    # the same core, moves no value by eps * lambda_1, the solver's
    # resolution (the all-modes core is 1617 square at D = 32)
    if d <= 32:
        all_modes = all_modes_column_gram(params, d, quad)
        full = spectrum._column_gram_spectrum(all_modes)
        assert got.t2_modes == 3 and full.t2_modes == d + 1
        # the modes the route drops hold together under eps * lambda_1,
        # about 1/400 of it
        dropped = float(np.sum(mode_masses(all_modes)[got.t2_modes:]))
        assert 0.0 < dropped <= EPS * lam[0]
        assert np.all(np.abs(got.values ** 2 - full.values ** 2)
                      <= EPS * lam[0])
    n_max = math.isqrt(d + 1)
    if not fits:
        for s in (dense, got):
            with pytest.raises(CuspDecayError, match="need 4 for a fit"):
                spectrum.fit_decay(s, 2, range(1, n_max + 1))
        return
    want = spectrum.fit_decay(dense, 2, range(1, n_max + 1))
    fit = spectrum.fit_decay(got, 2, range(1, n_max + 1))
    assert fit.usable_n == want.usable_n == (1, 2, 3, 4)
    assert abs(fit.rate - want.rate) <= 1e-8 * abs(want.rate)
    assert abs(fit.r_squared - want.r_squared) <= 1e-8 * want.r_squared


def _upper_endpoints(s):
    return np.array([spectrum.approximation_numbers(s, n)[1]
                     for n in range(1, len(s) + 1)])


def _graded_values(params, d, panels=16):
    return spectrum.composition_spectrum(
        params, d, hardy.graded_quadrature(panels, 1e-14))


def test_graded_route_converges_at_degree_48(params):
    # halving the graded mesh's bulk panels (1184 -> 1288 nodes) moves no
    # a_{n^2} that stands 100x above the noise floor by 1e-10 relative
    coarse = _graded_values(params, 48)
    fine = _graded_values(params, 48, panels=32)
    floor = 100.0 * max(coarse.noise_floor, fine.noise_floor)
    checked = [n for n in range(1, 50) if fine.values[n * n - 1] >= floor]
    assert checked[:4] == [1, 2, 3, 4]
    for n in checked:
        a, b = coarse.values[n * n - 1], fine.values[n * n - 1]
        assert abs(a - b) <= 1e-10 * b, n


def _oracle_checked(values, floor):
    """n with the oracle's a_{n^2} 100x above floor: n = 1..5 at D = 32."""
    return [n for n in range(1, 8) if values[n * n - 1] >= 100.0 * floor]


def test_oracle_converges_under_step_halving(params, oracle_values):
    # step 1/64 over the same range of k * step moves no checked value by
    # more than 1e-9 relative, beyond eigvalsh's own resolution
    # eps * a_1^2 / a^2 (5e-10 at a_25 between BLAS thread counts)
    gram = stacked_product_gram(params, 32, tanh_sinh_quadrature(1 / 64, 320))
    fine = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None))
    floor = math.sqrt(EPS) * oracle_values[0]
    checked = _oracle_checked(oracle_values, floor)
    assert checked == [1, 2, 3, 4, 5]
    for n in checked:
        a, b = oracle_values[n * n - 1], fine[n * n - 1]
        assert abs(a - b) <= (1e-9 + EPS * (fine[0] / b) ** 2) * b, n


def test_graded_intervals_contain_oracle_values_at_degree_32(params,
                                                             oracle_values):
    # the tanh-sinh oracle shares no mesh and no Gram code with the route
    graded = _graded_values(params, 32)
    checked = _oracle_checked(oracle_values, graded.noise_floor)
    assert checked == [1, 2, 3, 4, 5]
    for n in checked:
        low, high = spectrum.approximation_numbers(graded, n * n)
        assert low - graded.noise_floor <= oracle_values[n * n - 1] <= high, n


@pytest.mark.xfail(
    reason="ROADMAP item 1: the uniform grid leaves chi's log cusp and "
    "the lens corners at t = +-pi/2 unresolved, and at D = 32 its a_4 "
    "and a_9 intervals lie wholly below the tanh-sinh oracle's values",
    strict=True)
def test_uniform_intervals_contain_oracle_values_at_degree_32(params,
                                                              oracle_values):
    uniform = spectrum.composition_spectrum(params, 32,
                                            hardy.circle_quadrature(1024))
    for n in (2, 3):
        low, high = spectrum.approximation_numbers(uniform, n * n)
        assert low <= oracle_values[n * n - 1] <= high, n


@pytest.mark.parametrize("d, q", [(8, 128), (16, 256)])
def test_constant_one_factor_matches_written_out_gram(params, d, q):
    # g = 1: column (a1, a2) is F^a1 A^a2 with F = chi and
    # A = chi + c phi(chi); its Gram R^T R is written out here from the
    # boundary values and compared with the operator that keeps R
    p = dataclasses.replace(params, g_kind="constant_one")
    quad = hardy.circle_quadrature(q)
    op = hardy.column_gram_operator(p, d, quad)
    assert op.expansion is None and len(op.factors) == 1
    f = maps.cusp_on_circle(quad.nodes)
    a = f + p.c * maps.phi_values(f, p.theta)
    idx = hardy.index_set(d)
    v = (np.sqrt(quad.weights / math.pi)[:, None]
         * f[:, None] ** idx[:, 0] * a[:, None] ** idx[:, 1])
    r = np.concatenate([v.real, v.imag])
    gram = r.T @ r
    assert op.order == gram.shape[0] == (d + 1) ** 2
    x = np.random.default_rng(5).standard_normal((op.order, 2 * (d + 1)))
    err = np.max(np.abs(written_out_gram(op) @ x - gram @ x))
    assert err <= 1e-14 * np.linalg.norm(gram, 2) * np.linalg.norm(x, 2)
    trace = float(np.trace(gram))
    assert abs(op.trace - trace) <= 1e-14 * trace
    # the core is R^T R at D = 8 (128 rows, 81 columns) and R R^T at
    # D = 16 (256 rows, 289 columns)
    assert op.core.shape[0] == min(r.shape)
    lam = np.linalg.eigvalsh(gram)[::-1]
    got = spectrum.composition_spectrum(p, d, quad)
    assert len(got) == (d + 1) ** 2
    tol = 64 * EPS * lam[0]
    assert np.all(np.abs(got.values ** 2 - np.clip(lam, 0.0, None)) <= tol)
    assert np.all((got.values > got.noise_floor) | (got.values == 0.0))
    assert np.all(got.values ** 2 <= lam + tol)
    assert np.all(np.sqrt(np.clip(lam, 0.0, None)) <= _upper_endpoints(got))
    assert got.hs_sq == op.hs_sq and got.tail_radicand == op.tail_radicand
    assert got.t2_modes == 1


def _stand_in(core, tail):
    """A stand-in for hardy.ColumnGram that holds a given PSD core, the
    Gram itself, of order its size."""
    trace = float(np.trace(core))
    return types.SimpleNamespace(
        order=core.shape[0], core=core, tail=tail,
        hs_sq=trace + tail ** 2, tail_radicand=tail ** 2, t2_modes=1)


def test_split_gram_partition_and_masses(params):
    regions = pair_stack_split_grams(params, 12, 64, 90)
    op = hardy.column_gram_operator(params, 12, split_quadrature(90))
    full = written_out_gram(op)
    assert np.max(np.abs(sum(regions) - full)) < 1e-14
    # the alpha = 0 entries are the plain region measures
    mi, mm, mo = (float(g[0, 0]) for g in regions)
    assert abs(mi - 0.99999999999999811) < 1e-13
    assert 0.0 < mm < 1e-50
    assert 0.0 < mo < 1e-55
    assert abs(mi + mm + mo - float(full[0, 0])) < 1e-15
    # ||T_outer|| = sqrt(||G_outer||_2) <= sqrt(||G_outer||_F)
    logn = 0.5 * math.log(float(np.linalg.norm(regions[2])))
    assert abs(logn - -67.312854350230154) < 1e-6
    # quadratic forms split to rounding on random polynomials
    rng = np.random.default_rng(5)
    size = full.shape[0]
    for _ in range(20):
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        parts = sum(float(np.real(c.conj() @ g @ c)) for g in regions)
        whole = float(np.real(c.conj() @ full @ c))
        assert abs(parts - whole) <= 1e-12 * max(abs(whole), 1.0)


def _one_dim_mesh():
    """The spectrum verb's one-dim mesh."""
    return hardy.graded_quadrature(cli.ONE_DIM_PANELS, cli.ONE_DIM_CUSP_FLOOR)


def test_one_dim_contrast_matches_oracle():
    s = spectrum.one_dim_contrast(64, _one_dim_mesh())
    # the 50-digit value of test_one_dim_tail_matches_mp_oracle
    assert abs(s.tail_bound - 6.776467430966265e-06) < 1e-15
    oracle = spectrum.one_dim_contrast(64, tanh_sinh_quadrature())
    for n in (1, 2, 4, 8, 16):
        root = spectrum.approximation_numbers(s, n)[0] ** (1.0 / n)
        assert abs(root - oracle.values[n - 1] ** (1.0 / n)) < 1e-10, n
    with pytest.raises(ConfigurationError):
        spectrum.one_dim_contrast(520, _one_dim_mesh())


def test_one_dim_intervals_contain_oracle_values_at_degree_256():
    # the corners at t = +-pi/2 decide these: first-cell panels toward
    # the cusp alone miss the oracle at every n = 1..32
    s = spectrum.one_dim_contrast(256, _one_dim_mesh())
    oracle = spectrum.one_dim_contrast(256, tanh_sinh_quadrature())
    for n in range(1, 33):
        low, high = spectrum.approximation_numbers(s, n)
        assert low > 100.0 * s.noise_floor, n
        assert low - s.noise_floor <= oracle.values[n - 1] <= high, n


def test_one_dim_noise_floor():
    s = spectrum.one_dim_contrast(64, _one_dim_mesh())
    assert s.noise_floor == np.finfo(float).eps * s.values[0]
    # a_n^{1/n} ~ 0.52, so the trailing values sit below eps * a_1
    assert 1e-16 < s.noise_floor < 1e-15
    assert s.values[-1] < s.noise_floor < s.values[40]


def test_one_dim_tail_matches_mp_oracle():
    # discarded column norms on the same nodes at 50 digits, summed
    # without the closed form: (1/pi) sum w (1/(1 - r) - sum_{k<=D} r^k)
    d = 64
    quad = _one_dim_mesh()
    got = spectrum.one_dim_contrast(d, quad).tail_bound
    total = mp.mpf(0)
    for t, w in zip(quad.nodes, quad.weights):
        dps = 50 + max(0, int(-math.log10(t)))  # digits lost in 1 - e^{it}
        with mp.workdps(dps):
            r = abs(maps.cusp_mp(mp.expj(mp.mpf(t)), dps=dps)) ** 2
            kept = mp.fsum(r ** k for k in range(d + 1))
            total += mp.mpf(w) * (1 / (1 - r) - kept)
    with mp.workdps(50):
        oracle = float(mp.sqrt(total / mp.pi))
    assert abs(oracle - 6.776467430966265e-06) < 1e-20
    assert abs(got - oracle) <= 1e-11 * oracle


def test_scaled_sup_bound(monkeypatch):
    assert abs(spectrum.scaled_sup_bound(0.5) - 0.53659864414306024) < 1e-12
    with pytest.raises(ConfigurationError):
        spectrum.scaled_sup_bound(0.0)
    with pytest.raises(ConfigurationError):
        spectrum.scaled_sup_bound(1.0)
    monkeypatch.setattr(spectrum, "SUP_BOUND_GRID", 4)
    with pytest.raises(CuspDecayError, match="no certified gap to 1"):
        spectrum.scaled_sup_bound(0.9)  # margin swamps the gap


def test_one_dim_plateau_small_block():
    s = spectrum.one_dim_plateau(0.5, block_size=24)
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

