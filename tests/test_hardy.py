"""Coefficient-space assembly, Hilbert-Schmidt integrals, the
half-circle quadrature, Carleson window integrals (conftest's
window_integrals).  The matrix files are tested through the matrix verb
in test_cli."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cuspdecay import cli, hardy, maps, spectrum
from cuspdecay.errors import ConfigurationError, CuspDecayError
from conftest import (
    all_modes_column_gram,
    dense_column_gram,
    mode_masses,
    stacked_product_gram,
    window_integrals,
    written_out_gram,
)

EPS = float(np.finfo(float).eps)


def test_index_set_layout():
    idx = hardy.index_set(3)
    assert idx.shape == (16, 2)
    assert np.max(idx) == 3
    # degree blocks nest: the D=2 list is a prefix of the D=3 list
    assert np.array_equal(hardy.index_set(2), idx[:9])
    assert np.array_equal(idx[:4], [[0, 0], [0, 1], [1, 0], [1, 1]])
    with pytest.raises(ConfigurationError):
        hardy.index_set(-1)


def _index_set_loop(max_degree):
    rows = []
    for m in range(max_degree + 1):
        block = [(a1, m) for a1 in range(m)] + [(m, a2) for a2 in range(m + 1)]
        rows.extend(sorted(block))
    return np.array(rows, dtype=np.int64)


def test_index_set_matches_the_loop():
    # the block-by-block loop, sorted inside each block, is the oracle
    # of the vectorized layout: same order, same dtype
    for d in range(41):
        idx = hardy.index_set(d)
        assert idx.dtype == np.int64, d
        assert np.array_equal(idx, _index_set_loop(d)), d


def test_truncation_spec_validation():
    # the truncation rules, checked where a config enters:
    # D >= 1, Q a power of two, Q >= 4(D+1)
    cli.RunConfig(degree=16, quad=256).validate()
    for degree, quad in ((0, 256), (4, 100), (16, 32)):
        with pytest.raises(ConfigurationError, match="power of two"):
            cli.RunConfig(degree=degree, quad=quad).validate()


def test_kernel_reproduces_point_evaluation():
    # <f, K_a> in coefficient space equals f(a), random degree <= 16
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = int(rng.integers(1, 17))
        coef = rng.standard_normal((d + 1, d + 1)) \
            + 1j * rng.standard_normal((d + 1, d + 1))
        a1 = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        a2 = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        pow1 = a1 ** np.arange(d + 1)
        pow2 = a2 ** np.arange(d + 1)
        f_at_a = pow1 @ coef @ pow2
        kern = np.outer(np.conj(a1) ** np.arange(d + 1),
                        np.conj(a2) ** np.arange(d + 1))
        inner = np.sum(coef * np.conj(kern))
        assert abs(inner - f_at_a) < 1e-10


def test_boundary_data_kinds(params):
    t = hardy.midpoint_nodes(32)
    d = hardy.symbol_boundary_data(params, t, "paper")
    assert d.structure == "binomial"
    chi = maps.cusp_on_circle(t)
    assert np.max(np.abs(d.F - chi)) == 0.0
    assert np.max(np.abs(d.A - chi)) == 0.0
    expect_b = params.c * maps.phi_values(chi, params.theta)
    assert np.max(np.abs(d.B - expect_b)) == 0.0

    dd = hardy.symbol_boundary_data(params, t, "diagonal")
    assert np.all(dd.B == 0.0) and dd.structure == "binomial"

    # only the two symbols a verb runs; the model operators are built
    # by hand where a test needs them
    for kind in ("nope", "identity", "scaling"):
        with pytest.raises(ConfigurationError, match="unknown symbol kind"):
            hardy.symbol_boundary_data(params, t, kind)
    with pytest.raises(ConfigurationError):
        hardy.symbol_boundary_data(None, t, "paper")


def test_boundary_data_constant_g(params):
    p2 = maps.SymbolParams(theta=params.theta, c=params.c,
                           k_hat=params.k_hat, g_kind="constant_one")
    t = hardy.midpoint_nodes(16)
    d = hardy.symbol_boundary_data(p2, t, "paper")
    assert np.all(d.B == 0.0) and d.structure == "product"
    chi = maps.cusp_on_circle(t)
    expect = chi + p2.c * maps.phi_values(chi, p2.theta)
    assert np.max(np.abs(d.A - expect)) < 1e-15


_SYMBOL_KINDS = [("paper", "identity_in_z2"), ("paper", "constant_one"),
                 ("diagonal", "identity_in_z2")]


def _with_g_kind(params, g_kind):
    return maps.SymbolParams(theta=params.theta, c=params.c,
                             k_hat=params.k_hat, g_kind=g_kind)


@pytest.mark.parametrize("kind,g_kind", _SYMBOL_KINDS)
def test_boundary_data_conjugation_symmetry(params, kind, g_kind):
    # X(-t) = conj X(t) is what reduces every t1 integral to the half
    # circle; check it on uniform and on deeply graded nodes
    p = _with_g_kind(params, g_kind)
    t = np.concatenate([hardy.circle_quadrature(4096).nodes,
                        hardy.graded_quadrature(16, 1e-300).nodes])
    up = hardy.symbol_boundary_data(p, t, kind)
    down = hardy.symbol_boundary_data(p, -t, kind)
    for name in ("F", "A", "B"):
        assert np.array_equal(getattr(down, name),
                              np.conj(getattr(up, name))), name


def _brute_force_entries(params, d, q, kind):
    """Every Fourier coefficient by plain 2-D midpoint quadrature."""
    t = hardy.midpoint_nodes(q)
    data = hardy.symbol_boundary_data(params, t, kind)
    w2 = data.A[:, None] + data.B[:, None] * np.exp(1j * t)[None, :]
    m1 = np.exp(-1j * np.outer(np.arange(d + 1), t)) / q
    m2 = m1.copy()
    idx = hardy.index_set(d)
    size = idx.shape[0]
    ent = np.empty((size, size), dtype=complex)
    for col, (a1, a2) in enumerate(idx):
        g = (data.F ** a1)[:, None] * w2 ** a2
        coef = m1 @ g @ m2.T  # [beta1, beta2]
        ent[:, col] = coef[idx[:, 0], idx[:, 1]]
    return ent


@pytest.mark.parametrize("kind", ["paper", "diagonal"])
def test_assembly_matches_brute_force(params, kind):
    om = hardy.assemble_matrix(params, 4, 64, kind)
    brute = _brute_force_entries(params, 4, 64, kind)
    assert np.max(np.abs(om.entries - brute)) < 1e-10


def test_assembly_matches_brute_force_constant_g(params):
    # B = 0 but F = chi != A = chi + c phi(chi): entry((b1, 0), (a1, a2))
    # is coefficient b1 of F^a1 A^a2; c large enough that mistaking A^a1
    # for F^a1 moves entries by ~1e-2
    p2 = maps.SymbolParams(theta=params.theta, c=0.05, k_hat=params.k_hat,
                           g_kind="constant_one")
    om = hardy.assemble_matrix(p2, 4, 128)
    brute = _brute_force_entries(p2, 4, 128, "paper")
    assert np.max(np.abs(om.entries - brute)) < 1e-10


def test_assembled_matrix_metadata(params):
    om = hardy.assemble_matrix(params, 16, 256)
    assert om.max_degree == 16 and om.quad_points == 256
    assert om.entries.shape == (17 * 17, 17 * 17)
    assert om.entries.dtype == np.float64
    assert abs(om.hs_sq - 2.2610460801227479) < 1e-12
    assert abs(om.tail_hs - 0.10938138192816624) < 1e-12


def _hand_built(quad, f, a, b):
    """Boundary data F = f(t), constant A = a and B = b on the nodes;
    only the Hilbert-Schmidt integral reads it, which needs no column
    structure."""
    one = np.ones(quad.nodes.size, dtype=complex)
    return hardy.SeparableBoundaryData(f(quad.nodes) * one, a * one, b * one,
                                       structure=None)


def test_identity_symbol_is_not_hilbert_schmidt():
    # the identity (F = e^{it}, A = 0, B = 1) has |F| = 1 at every node,
    # and (r z1, a + b z2) with |a| + |b| = 1 reaches the torus in z2:
    # neither has a Hilbert-Schmidt integral on the nodes
    for quad in (hardy.circle_quadrature(32), hardy.graded_quadrature(4, 1e-3)):
        for f, a, b in ((lambda t: np.exp(1j * t), 0.0, 1.0),
                        (lambda t: 0.5 * np.exp(1j * t), 0.25, 0.75j)):
            with pytest.raises(CuspDecayError, match="reaches the torus"):
                hardy._hs_quadrature(_hand_built(quad, f, a, b), quad)


def _hs(params, d, q):
    return hardy.column_gram_operator(
        params, d, hardy.circle_quadrature(q)).hs_sq


def test_hs_norm_frozen_values(params):
    value = _hs(params, 16, 256)
    doubled = _hs(params, 16, 512)
    rel_change = abs(doubled - value) / abs(doubled)
    assert abs(value - 2.2610460801227479) < 1e-12
    assert abs(doubled - 2.2640255460019545) < 1e-12
    assert abs(rel_change - 1.3160036486637942e-3) < 1e-9
    assert rel_change < 0.05

    value2 = _hs(params, 16, 1024)
    doubled2 = _hs(params, 16, 2048)
    assert abs(value2 - 2.2655443895795493) < 1e-12
    assert abs(abs(doubled2 - value2) / abs(doubled2)
               - 3.4447723006987633e-4) < 1e-9


def _scaling(quad, r=0.5):
    # z -> (r z1, r z2): F = r e^{it}, A = 0, B = r
    return _hand_built(quad, lambda t: r * np.exp(1j * t), 0.0, r)


def test_hs_scaling_closed_form():
    # sum over alpha of 4^-(a1+a2) = (4/3)^2
    quad = hardy.circle_quadrature(64)
    val = hardy._hs_quadrature(_scaling(quad), quad)
    assert abs(val - 16.0 / 9.0) < 1e-12


def test_hs_closed_form_with_affine_second_coordinate():
    # (r z1, a + b z2): the t2 integral in closed form against the sum
    # of the column norms, r^(2 a1) sum_j C(a2, j)^2 |a|^2(a2-j) |b|^2j,
    # a series of ratio (|a| + |b|)^2 = 0.36 that 120 degrees exhaust
    r, a, b = 0.6, 0.35, -0.25j
    aa, bb = abs(a) ** 2, abs(b) ** 2
    series = sum(math.comb(n, j) ** 2 * aa ** (n - j) * bb ** j
                 for n in range(120) for j in range(n + 1))
    expect = series / (1.0 - r * r)
    quad = hardy.circle_quadrature(64)
    data = _hand_built(quad, lambda t: r * np.exp(1j * t), a, b)
    assert abs(hardy._hs_quadrature(data, quad) - expect) <= 4e-16 * expect


def test_hs_brute_force(params):
    # torus double integral of 1/((1-|w1|^2)(1-|w2|^2))
    t = hardy.midpoint_nodes(512)
    data = hardy.symbol_boundary_data(params, t, "paper")
    w2 = data.A[:, None] + data.B[:, None] * np.exp(1j * t)[None, :]
    vals = 1.0 / ((1.0 - np.abs(data.F[:, None]) ** 2)
                  * (1.0 - np.abs(w2) ** 2))
    brute = float(np.mean(vals))
    exact = _hs(params, 4, 512)
    assert abs(brute - exact) / exact < 1e-6


def test_truncation_error_scaling_closed_form():
    # the kept norms 4^-(a1+a2) of the scaling z -> z/2 at D = 2 leave
    # the tail sqrt(16/9 - kept) of the discarded columns
    d = 2
    quad = hardy.circle_quadrature(64)
    kept = sum(0.25 ** (a1 + a2) for a1 in range(d + 1)
               for a2 in range(d + 1))
    gram = hardy.ColumnGram((d + 1) ** 2, kept,
                            *hardy._truncation_tail(_scaling(quad), quad, kept))
    assert abs(gram.tail - math.sqrt(16.0 / 9.0 - kept)) < 1e-12


def _column_quadrature_norms(params, d, quad, kind="paper"):
    """||e_alpha o Phi||^2 under the discrete pullback measure in closed
    form, t2 exact: per node sum_j C(a2,j)^2 |A|^{2(a2-j)} |B|^{2j},
    averaged in t1 over the half-circle quadrature quad."""
    data = hardy.symbol_boundary_data(params, quad.nodes, kind)
    idx = hardy.index_set(d)
    aa = np.abs(data.A) ** 2
    bb = np.abs(data.B) ** 2
    t2_int = np.zeros((quad.nodes.size, d + 1))
    for a2 in range(d + 1):
        for j in range(a2 + 1):
            t2_int[:, a2] += math.comb(a2, j) ** 2 * aa ** (a2 - j) * bb ** j
    f_pows = np.vander(np.abs(data.F) ** 2, d + 1, increasing=True)
    vals = f_pows[:, idx[:, 0]] * t2_int[:, idx[:, 1]]
    return idx, quad.weights @ vals / math.pi


def test_column_norms_parseval(params):
    quad = hardy.circle_quadrature(256)
    idx, cols = _column_quadrature_norms(params, 16, quad)
    assert idx.shape[0] == cols.size == 17 * 17
    op = hardy.column_gram_operator(params, 16, quad)
    hs, tail = op.hs_sq, op.tail
    assert np.all(cols > 0.0)
    assert np.sum(cols) < hs
    assert abs(tail ** 2 + np.sum(cols) - hs) < 1e-12


@pytest.mark.parametrize("kind,g_kind", _SYMBOL_KINDS)
def test_column_gram_matches_torus_oracle(params, kind, g_kind):
    p = _with_g_kind(params, g_kind)
    gram, tail = dense_column_gram(p, 6, hardy.circle_quadrature(256), kind)
    t = hardy.midpoint_nodes(256)
    data = hardy.symbol_boundary_data(p, t, kind)
    w2 = data.A[:, None] + data.B[:, None] * np.exp(1j * t)[None, :]
    idx = hardy.index_set(6)
    v = (data.F[:, None, None] ** idx[:, 0]) * w2[:, :, None] ** idx[:, 1]
    v = v.reshape(-1, idx.shape[0])
    brute = v.conj().T @ v / 256 ** 2
    assert gram.dtype == np.float64  # half-circle reduction of brute
    assert np.max(np.abs(gram - brute)) < 1e-12
    # only g = 1 (image F^a1 A^a2) has no moment form: it keeps its
    # factor R alone, with no expansion
    op = hardy.column_gram_operator(p, 6, hardy.circle_quadrature(256), kind)
    factored = kind == "paper" and g_kind == "constant_one"
    assert (op.expansion is None) == factored

    # a caller's graded quadrature that reaches the cusp: the oracle sums
    # the complex Gram over the +-t nodes with their weights, each node a
    # plain mean over a 256-point t2 grid
    quad = hardy.graded_quadrature(16, 1e-30)
    graded, graded_tail = dense_column_gram(p, 6, quad, kind)
    t1 = np.concatenate([quad.nodes, -quad.nodes])
    w = np.concatenate([quad.weights, quad.weights]) / (2.0 * math.pi)
    gd = hardy.symbol_boundary_data(p, t1, kind)
    f_pows = np.vander(gd.F, 7, increasing=True)[:, idx[:, 0]]
    brute = np.zeros_like(brute)
    for t2 in hardy.midpoint_nodes(256):
        w2 = gd.A + gd.B * np.exp(1j * t2)
        v = f_pows * np.vander(w2, 7, increasing=True)[:, idx[:, 1]]
        brute += v.conj().T @ (w[:, None] * v) / 256
    assert graded.dtype == np.float64
    assert np.max(np.abs(graded - brute)) < 1e-12

    # trace + tail^2 = the HS integral on the same grid
    hs = op.hs_sq
    assert abs(float(np.trace(gram).real) + tail ** 2 - hs) < 1e-12
    # and on the graded nodes, the t2 integral in closed form
    aa, bb = np.abs(gd.A) ** 2, np.abs(gd.B) ** 2
    hs = float(np.sum(w / ((1.0 - np.abs(gd.F) ** 2)
                           * np.sqrt((1.0 - aa - bb) ** 2 - 4.0 * aa * bb))))
    assert abs(float(np.trace(graded)) + graded_tail ** 2 - hs) < 1e-12


@pytest.mark.parametrize("d,q", [(16, 256), (32, 512)])
def test_column_gram_matches_stacked_products(params, meshes, d, q):
    for mesh, quad in meshes(q).items():
        gram, _ = dense_column_gram(params, d, quad)
        assert np.array_equal(gram, gram.T), mesh
        oracle = stacked_product_gram(params, d, quad)
        assert np.max(np.abs(gram - oracle)) <= 1e-14, mesh


@pytest.mark.parametrize("kind", ["paper", "diagonal"])
@pytest.mark.parametrize("d,q", [(16, 256), (32, 512)])
def test_column_gram_operator_matches_stacked_products(params, meshes, kind,
                                                       d, q):
    for mesh, quad in meshes(q).items():
        op = hardy.column_gram_operator(params, d, quad, kind)
        gram = stacked_product_gram(params, d, quad, kind)
        assert op.order == gram.shape[0] == (d + 1) ** 2
        x = np.random.default_rng(5).standard_normal((op.order, 2 * (d + 1)))
        err = np.max(np.abs(written_out_gram(op) @ x - gram @ x))
        assert err <= 1e-14 * np.linalg.norm(gram, 2) * np.linalg.norm(x, 2), \
            mesh
        trace = float(np.trace(gram))
        assert abs(op.trace - trace) <= 1e-14 * trace, mesh
        # HS^2 in closed form in t2 on the same half-circle nodes
        data = hardy.symbol_boundary_data(params, quad.nodes, kind)
        ff, aa, bb = (np.abs(v) ** 2 for v in (data.F, data.A, data.B))
        hs = float(np.sum(quad.weights / ((1.0 - ff) * np.sqrt(
            (1.0 - aa - bb) ** 2 - 4.0 * aa * bb)))) / math.pi
        assert abs(op.hs_sq - hs) <= 1e-14 * hs, mesh
        assert op.tail_radicand == op.hs_sq - op.trace, mesh


@pytest.mark.parametrize("d,q", [(16, 256), (32, 512)])
def test_column_gram_holds_the_visible_t2_modes(params, meshes, d, q):
    # the paper symbol's t2 modes lose ~1e-6 of their mass a mode; the
    # operator holds modes 0..J, the first mass <= eps lambda_lo ends
    # them, lambda_lo = max_s H_0[s, s] <= lambda_1, and the cut is a
    # compression whose lost mass joins the tail
    for mesh, quad in meshes(q).items():
        op = hardy.column_gram_operator(params, d, quad)
        full = all_modes_column_gram(params, d, quad)
        masses = mode_masses(full)
        j = op.t2_modes - 1
        lam_lo = float(np.max(np.sum(full.factors[0] ** 2, axis=0)))
        assert masses[j + 1] <= EPS * lam_lo < masses[j], mesh
        assert all(np.array_equal(t, u) for t, u in
                   zip(op.factors, full.factors[:j + 1],
                       strict=True)), mesh
        assert np.array_equal(op.expansion, full.expansion[:, :j + 1]), mesh
        # G X against the stacked products: rounding plus the dropped
        # mass, which bounds the 2-norm of what the cut leaves out
        gram = stacked_product_gram(params, d, quad)
        dropped = float(np.sum(masses[j + 1:]))
        x = np.random.default_rng(5).standard_normal((op.order, 2 * (d + 1)))
        err = np.max(np.abs(written_out_gram(op) @ x - gram @ x))
        assert err <= (1e-14 * np.linalg.norm(gram, 2) + dropped) \
            * np.linalg.norm(x, 2), mesh
        # the cut radicand counts the dropped mass: never below the full
        # radicand beyond the rounding of two traces
        trace = float(np.trace(gram))
        assert op.tail_radicand >= op.hs_sq - trace - 8 * EPS * trace, mesh
        # B = 0: every mode past 0 has mass 0
        diagonal = hardy.column_gram_operator(params, d, quad, "diagonal")
        assert diagonal.t2_modes == len(diagonal.factors) == 1, mesh


def test_paper_symbol_holds_three_t2_modes_at_degree_48(params):
    # masses 2.3, 1.1e-6, 8.5e-13, then 8.6e-19 under eps lambda_lo =
    # 2.2e-16 (lambda_lo = max_s H_0[s, s] = 1)
    op = hardy.column_gram_operator(params, 48, hardy.circle_quadrature(1024))
    assert op.t2_modes == 3
    assert [t.shape for t in op.factors] == [(97 - j, 97) for j in range(3)]
    assert op.expansion.shape == (49, 3)
    # the core M M^T stacks the three triangular factors' rows
    assert op.core.shape == (288, 288)


_FACTOR_PROBE = """
import hashlib, sys
from cuspdecay import hardy, maps
params = maps.SymbolParams(theta=0.5, c=float(sys.argv[1]),
                           k_hat=float(sys.argv[2]))
d = int(sys.argv[3])
quad = (hardy.circle_quadrature(1024) if sys.argv[4] == "uniform"
        else hardy.graded_quadrature(16, 1e-14))
op = hardy.column_gram_operator(params, d, quad)
print(hashlib.sha256(b"".join(t.tobytes() for t in op.factors)).hexdigest())
"""


_SETTER = hardy._openblas_symbol("openblas_set_num_threads_local")


@pytest.mark.parametrize("d,mesh", [(48, "uniform"), (240, "graded")])
def test_column_gram_factors_ignore_the_blas_thread_count(params, d, mesh):
    # at D = 48 (97 columns, the unblocked dgeqrf) the QR bits do not
    # depend on the thread count; at D = 240 on the graded mesh (481
    # columns, the blocked dgeqrf's dgemm) they do, unless the QRs run
    # at one thread
    if d == 240 and _SETTER is None:
        pytest.skip("no OpenBLAS thread setter: the QRs run at any count")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hardy.__file__)))
    digests = set()
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _FACTOR_PROBE, repr(params.c),
             repr(params.k_hat), str(d), mesh],
            env=dict(os.environ, PYTHONPATH=src,
                     OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1


def test_qr_and_svd_run_at_one_blas_thread_and_restore_the_count(
        params, monkeypatch):
    # the count is read from the library's own getter
    count = hardy._openblas_symbol("openblas_get_num_threads")
    if count is None or _SETTER is None:
        pytest.skip("no OpenBLAS thread getter and setter")
    before = count()
    seen = []

    def counted(call):
        def wrapper(*args, **kwargs):
            seen.append(count())
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "qr", counted(np.linalg.qr))
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    hardy.column_gram_operator(params, 16, hardy.circle_quadrature(256))
    assert count() == before
    spectrum.one_dim_contrast(16, hardy.graded_quadrature(16, 1e-14))
    assert count() == before
    assert seen and set(seen) == {1}


def test_column_gram_diagonal_matches_column_norms(params, meshes):
    for mesh, quad in meshes(256).items():
        gram, _ = dense_column_gram(params, 16, quad)
        idx, cols = _column_quadrature_norms(params, 16, quad)
        assert np.max(np.abs(np.diag(gram).real - cols)) < 1e-13, mesh


def test_graded_quadrature():
    quad = hardy.graded_quadrature(16, 1e-12)
    assert quad.nodes.size == 8 * (13 + 38 + 2 * 45)
    assert quad.nodes[0] < 1e-12 < quad.nodes[-1] <= math.pi
    assert np.all(np.diff(quad.nodes) > 0)
    assert np.all(quad.weights > 0)
    # plain dt weights integrate over (0, pi] up to the holes
    assert abs(np.sum(quad.weights) - math.pi) < 1e-12
    assert abs(np.sum(quad.weights * np.cos(quad.nodes) ** 2)
               - math.pi / 2.0) < 1e-12
    # below the bulk, the cusp panels are exactly [pi/2^(m+1), pi/2^m]
    x, _ = np.polynomial.legendre.leggauss(8)
    for m in range(4, 42):
        lo, hi = math.pi / 2 ** (m + 1), math.pi / 2 ** m
        panel = quad.nodes[(quad.nodes > lo) & (quad.nodes < hi)]
        assert np.array_equal(panel, (hi + lo) / 2 + (hi - lo) / 2 * x), m
    for panels, floor in ((8, 0.0), (8, math.pi / 8), (2, 1e-3), (12, 1e-3)):
        with pytest.raises(ConfigurationError):
            hardy.graded_quadrature(panels, floor)


def test_circle_quadrature():
    # the upper half of the midpoint grid, whose mean of a
    # conjugation-symmetric function is the full-grid mean
    quad = hardy.circle_quadrature(64)
    assert np.array_equal(quad.nodes, hardy.midpoint_nodes(64)[:32])
    assert np.all(np.diff(quad.nodes) > 0)
    assert np.all(quad.weights == 2.0 * math.pi / 64)
    t = hardy.midpoint_nodes(64)
    f = np.exp(3j * t) / (2.0 - np.cos(t))
    assert abs(quad.mean(f[:32]) - np.mean(f).real) < 1e-15
    for q in (1, 63):
        with pytest.raises(ConfigurationError):
            hardy.circle_quadrature(q)


def test_window_integrals_frozen(params):
    i0_5, i_5 = window_integrals(1.0 / 5.0, params)
    i0_40, i_40 = window_integrals(1.0 / 40.0, params)
    assert abs(i0_5 - 0.60685273051704791) < 1e-12
    assert abs(i0_40 - 3.3551195012117396e-23) < 1e-35
    assert abs(i_5 - 0.096583644509401045) < 1e-12
    assert abs(i_40 - 5.339838560390786e-24) < 1e-36


def test_window_integral_monotone_and_comparable(params):
    vals = [window_integrals(h, params)[0] for h in (0.2, 0.1, 0.05)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    # I <= I0 / pi by the calibrated half-gap; observed ratio ~ 1/(2 pi)
    for h in (0.2, 0.05):
        i0, ii = window_integrals(h, params)
        assert ii <= i0 / math.pi
        assert abs(math.pi * ii / i0 - 0.5) < 0.01


def test_window_integral_floor_invariance(params):
    # pushing the mesh floor 36 decades deeper adds only panels whose
    # entire mass is ~ 1e-20 relative: the reported value is converged
    deep = hardy.graded_quadrature(16, 1e-60)
    a = window_integrals(0.1, params)[0]
    b = window_integrals(0.1, params, quad=deep)[0]
    assert abs(a - b) <= 1e-12 * a


def test_operator_matrix_tail_must_be_nonnegative():
    # every assembled symbol is Hilbert-Schmidt, so a tail is finite
    def make(tail_hs):
        return hardy.OperatorMatrix(
            entries=np.eye(1), indices=hardy.index_set(0), max_degree=0,
            quad_points=4, kind="paper", tail_hs=tail_hs, hs_sq=1.0)

    for bad in (math.inf, -math.inf, math.nan, -1e-300):
        with pytest.raises(CuspDecayError,
                           match="tail_hs must be finite and >= 0"):
            make(bad)
    for good in (0.0, 1e-300):
        assert make(good).tail_hs == good
