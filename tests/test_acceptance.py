"""End-to-end acceptance runs at production budgets.

One test per headline property, named and ordered; `pytest -v` prints
the pass/fail line for each.  Budgets follow the shipped defaults
(degree 48 / 1024 quadrature points, 1e5-1e6 grid points, 1000-point
derivative grids), so the whole module takes about a minute.
"""

import math

import numpy as np
import pytest

from cuspdecay import cli, hardy, maps, spectrum, verifier
from conftest import (
    pair_stack_split_grams,
    split_quadrature,
    window_integrals,
    written_out_gram,
)


@pytest.fixture(scope="module")
def params():
    return maps.SymbolParams(theta=0.5, c=1.456697e-3, k_hat=2.519054)


def _linefit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    r_sq = 1.0 - float(resid @ resid) / float(total @ total)
    return float(slope), r_sq


def test_01_headline_decay_rate(params):
    # a_{n^2} falls like e^{-tau n} with tau > 0 at degree 48
    spct = spectrum.composition_spectrum(params, 48,
                                         hardy.circle_quadrature(1024))
    n_max = math.isqrt(48 + 1)
    fit = spectrum.fit_decay(spct, 2, range(1, n_max + 1))
    beta = spectrum.beta_estimate(spct, 2, range(1, n_max + 1))
    print("tau %.6f r2 %.6f beta_plus %.6f usable %s"
          % (fit.rate, fit.r_squared, beta.beta_plus, list(fit.usable_n)))
    assert fit.rate > 0.0
    assert fit.r_squared >= 0.98
    assert beta.beta_plus <= 0.95


@pytest.mark.xfail(
    reason="a_n^{1/n} of the undamped one-variable operator dips between "
    "n = 8 and n = 16 at degree 512 on the graded mesh that resolves the "
    "cusp and the lens corners; the computed lower endpoints are well "
    "above the truncation tail, so the dip is a property of the "
    "truncated operator, not noise",
    strict=True)
def test_02a_one_dim_root_strictly_increasing():
    spct = spectrum.one_dim_contrast(512, hardy.graded_quadrature(
        cli.ONE_DIM_PANELS, cli.ONE_DIM_CUSP_FLOOR))
    roots = [spectrum.approximation_numbers(spct, n)[0] ** (1.0 / n)
             for n in (8, 16, 32, 64)]
    print("roots", ["%.6f" % r for r in roots],
          "tail %.3e" % spct.tail_bound)
    assert all(a < b for a, b in zip(roots, roots[1:]))


def test_02b_shrunken_symbol_plateau():
    spct = spectrum.one_dim_plateau(0.5)
    roots = {}
    for n in (8, 16, 32, 64):
        low, high = spectrum.approximation_numbers(spct, n)
        roots[n] = (low ** (1.0 / n), high ** (1.0 / n))
    print("plateau roots", {n: "%.6f" % lo for n, (lo, _) in roots.items()})
    assert roots[32][1] < 0.9 and roots[64][1] < 0.9
    assert abs(roots[32][0] - roots[64][0]) < 0.02


def test_03_hs_stability_and_window_decay(params):
    value, doubled = (
        hardy.column_gram_operator(params, 48,
                                   hardy.circle_quadrature(q)).hs_sq
        for q in (1024, 2048))
    rel_change = abs(doubled - value) / abs(doubled)
    print("hs %.12f doubled %.12f rel %.3e" % (value, doubled, rel_change))
    assert rel_change < 0.01

    inv_h = np.array([5.0 * k for k in range(1, 9)])
    log_i0, log_i = [], []
    for ih in inv_h:
        i0, i = window_integrals(1.0 / ih, params)
        log_i0.append(math.log(i0))
        log_i.append(math.log(i))
    s0, r0 = _linefit(inv_h, np.array(log_i0))
    s1, r1 = _linefit(inv_h, np.array(log_i))
    print("slopes %.6f %.6f r2 %.6f %.6f" % (s0, s1, r0, r1))
    assert s0 < 0.0 and r0 >= 0.95
    assert s1 < 0.0 and r1 >= 0.95


def test_04_geometry_suite():
    rep = verifier.check_cusp_geometry(100_000)
    lo, hi = rep.constants["gap_log_bracket"]
    print("bracket [%.6f, %.6f] distortion %.6f"
          % (lo, hi, rep.constants["distortion_sup"]))
    assert rep.passed and rep.violations == []
    # the bracket value falls at every one of the grid's steps
    assert not [v for v in rep.violations if v["item"] == "gap_log_rise"]


def test_05_calibration_suite(params):
    rep = verifier.check_calibration(params, 1_000_000)
    print("reach margin %.6f half-gap margin %.6f"
          % (rep.constants["reach_margin_min"],
             rep.constants["half_gap_margin_min"]))
    assert rep.passed and rep.violations == []
    assert rep.constants["reach_margin_min"] > 0.0
    assert rep.constants["half_gap_margin_min"] > 0.0


def test_06_covering_suite(params):
    for n in (10, 100, 1000):
        rep = verifier.check_covering(n, params)
        slack = rep.constants["slack"]
        print("n %4d vacuous %-5s slack %s" % (
            n, rep.constants["vacuous"],
            " ".join("%s %.3e" % kv for kv in slack.items())))
        assert rep.passed and rep.violations == []


def test_07_derivative_and_schwarz_suites():
    d = verifier.check_derivative_bound(1000)
    s = verifier.check_schwarz_bound(1000)
    print("derivative max ratio %.6f at %s, schwarz max ratio %.6f at %s"
          % (d.constants["max_ratio"], d.constants["max_at"],
             s.constants["max_ratio"], s.constants["max_at"]))
    assert d.passed and d.violations == []
    assert s.passed and s.violations == []
    assert d.constants["max_ratio"] < 1.0
    assert s.constants["max_ratio"] < 1.0


def test_08_splitting_exactness(params):
    # the region Grams of the (t1, t2)-pair product rule sum to the
    # column Gram operator on the same t1 quadrature, which integrates
    # t2 exactly: two computations that share no Gram code
    rng = np.random.default_rng(8)
    log_norms = []
    for n in (90, 140, 190):
        regions = pair_stack_split_grams(params, 12, 64, n)
        op = hardy.column_gram_operator(params, 12, split_quadrature(n))
        full = written_out_gram(op)
        gap = float(np.max(np.abs(sum(regions) - full)))
        assert gap <= 1e-14
        # ||T_outer|| = sqrt(||G_outer||_2) <= sqrt(||G_outer||_F)
        log_norms.append(0.5 * math.log(float(np.linalg.norm(regions[2]))))
        if n == 90:
            size = full.shape[0]
            for _ in range(100):
                c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                c /= np.linalg.norm(c)
                parts = sum(float(np.real(c.conj() @ g @ c))
                            for g in regions)
                whole = float(np.real(c.conj() @ full @ c))
                assert abs(parts - whole) <= 1e-12
    slope, r_sq = _linefit(np.array([90.0, 140.0, 190.0]),
                           np.array(log_norms))
    print("log outer norms %s slope %.6f"
          % (["%.3f" % v for v in log_norms], slope))
    assert log_norms[0] > log_norms[1] > log_norms[2]
    assert slope < 0.0


def test_09_codimension_count(params):
    rep = verifier.check_codim_count([10, 100, 1000, 10_000], params)
    print("q %.4f limit %.6f gap %.3e"
          % (rep.constants["ratio_bound_q"], rep.constants["series_limit"],
             rep.constants["top_relative_gap"]))
    assert rep.passed and rep.violations == []
    assert rep.constants["ratio_bound_q"] < math.inf
    assert all(v <= rep.constants["ratio_bound_q"]
               for v in rep.constants["ratios"].values())
    assert rep.constants["top_relative_gap"] <= 0.05


def test_10_oracle_equivalence():
    rng = np.random.default_rng(10)
    worst_svd = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sv = np.linalg.svd(m, compute_uv=False)
        gv = spectrum.gram_values(m.conj().T @ m, 0.0).values
        worst_svd = max(worst_svd, float(np.max(np.abs(sv - gv))))
    assert worst_svd <= 1e-10

    violations = 0
    for _ in range(100):
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
        if sd[m + n - 2] > sa[m - 1] + sb[n - 1] + 1e-12:
            violations += 1
    assert violations == 0

    worst_kernel = 0.0
    for _ in range(100):
        deg = int(rng.integers(1, 17))
        coef = rng.standard_normal((deg + 1, deg + 1)) \
            + 1j * rng.standard_normal((deg + 1, deg + 1))
        a1 = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        a2 = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        f_at_a = a1 ** np.arange(deg + 1) @ coef @ a2 ** np.arange(deg + 1)
        kern = np.outer(np.conj(a1) ** np.arange(deg + 1),
                        np.conj(a2) ** np.arange(deg + 1))
        inner = np.sum(coef * np.conj(kern))
        worst_kernel = max(worst_kernel, abs(inner - f_at_a))
    print("svd-gram worst %.3e kernel worst %.3e"
          % (worst_svd, worst_kernel))
    assert worst_kernel <= 1e-10
