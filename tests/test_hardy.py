"""Coefficient-space assembly, Hilbert-Schmidt integrals, the
half-circle quadrature, window integrals, serialization."""

import math

import numpy as np
import pytest

from cuspdecay import hardy, maps
from cuspdecay.errors import (
    ConfigurationError,
    DomainError,
    InvalidInputError,
)


def test_index_set_layout():
    idx = hardy.index_set(3)
    assert idx.shape == (16, 2)
    assert np.max(idx) == 3
    # degree blocks nest: the D=2 list is a prefix of the D=3 list
    assert np.array_equal(hardy.index_set(2), idx[:9])
    assert np.array_equal(idx[:4], [[0, 0], [0, 1], [1, 0], [1, 1]])
    with pytest.raises(ConfigurationError):
        hardy.index_set(-1)


def test_truncation_spec_validation():
    hardy.TruncationSpec(16, 256)
    with pytest.raises(ConfigurationError):
        hardy.TruncationSpec(0, 256)
    with pytest.raises(ConfigurationError):
        hardy.TruncationSpec(4, 100)  # not a power of two
    with pytest.raises(ConfigurationError):
        hardy.TruncationSpec(16, 32)  # below the alias floor


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
    assert d.f_equals_a and d.kind == "paper"
    chi = maps.cusp_on_circle(t)
    assert np.max(np.abs(d.F - chi)) == 0.0
    assert np.max(np.abs(d.A - chi)) == 0.0
    expect_b = params.c * maps.phi_values(chi, params.theta)
    assert np.max(np.abs(d.B - expect_b)) == 0.0

    dd = hardy.symbol_boundary_data(params, t, "diagonal")
    assert np.all(dd.B == 0.0) and dd.f_equals_a

    di = hardy.symbol_boundary_data(None, t, "identity")
    assert np.all(di.A == 0.0) and np.all(di.B == 1.0)

    ds = hardy.symbol_boundary_data(None, t, "scaling", scale=0.5)
    assert np.max(np.abs(ds.F - 0.5 * np.exp(1j * t))) < 1e-15
    with pytest.raises(ConfigurationError):
        hardy.symbol_boundary_data(None, t, "scaling", scale=1.5)
    with pytest.raises(ConfigurationError):
        hardy.symbol_boundary_data(params, t, "nope")
    with pytest.raises(ConfigurationError):
        hardy.symbol_boundary_data(None, t, "paper")


def test_boundary_data_constant_g(params):
    p2 = maps.SymbolParams(theta=params.theta, c=params.c,
                           k_hat=params.k_hat, g_kind="constant_one")
    t = hardy.midpoint_nodes(16)
    d = hardy.symbol_boundary_data(p2, t, "paper")
    assert np.all(d.B == 0.0)
    chi = maps.cusp_on_circle(t)
    expect = chi + p2.c * maps.phi_values(chi, p2.theta)
    assert np.max(np.abs(d.A - expect)) < 1e-15


@pytest.mark.parametrize("kind,g_kind", [
    ("paper", "identity_in_z2"), ("paper", "constant_one"),
    ("diagonal", "identity_in_z2"), ("identity", None), ("scaling", None)])
def test_boundary_data_conjugation_symmetry(params, kind, g_kind):
    # X(-t) = conj X(t) is what reduces every t1 integral to the half
    # circle; check it on uniform and on deeply graded nodes
    p = None if g_kind is None else maps.SymbolParams(
        theta=params.theta, c=params.c, k_hat=params.k_hat, g_kind=g_kind)
    t = np.concatenate([hardy.circle_quadrature(4096).nodes,
                        hardy.circle_quadrature(64, 1e-300).nodes])
    up = hardy.symbol_boundary_data(p, t, kind)
    down = hardy.symbol_boundary_data(p, -t, kind)
    for name in ("F", "A", "B"):
        assert np.array_equal(getattr(down, name),
                              np.conj(getattr(up, name))), name


def _brute_force_entries(params, spec, kind):
    """Every Fourier coefficient by plain 2-D midpoint quadrature."""
    d, q = spec.max_degree, spec.quad_points
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
    spec = hardy.TruncationSpec(4, 64)
    om = hardy.assemble_matrix(params, spec, kind)
    brute = _brute_force_entries(params, spec, kind)
    assert np.max(np.abs(om.entries - brute)) < 1e-10


def test_assembly_matches_brute_force_scaling(params):
    spec = hardy.TruncationSpec(4, 64)
    om = hardy.assemble_matrix(params, spec, "scaling", scale=0.5)
    brute = _brute_force_entries(None, spec, "scaling")
    assert np.max(np.abs(om.entries - brute)) < 1e-10
    # exact diagonal: entry((b),(a)) = delta * 2^-(a1+a2)
    idx = om.indices
    expect = np.diag([0.5 ** (a1 + a2) for a1, a2 in idx])
    assert np.max(np.abs(om.entries - expect)) < 1e-12


def test_assembled_matrix_metadata(params, small_spec):
    om = hardy.assemble_matrix(params, small_spec)
    assert om.max_degree == 16 and om.quad_points == 256
    assert om.entries.shape == (17 * 17, 17 * 17)
    assert abs(om.hs_sq - 2.2610460801227479) < 1e-12
    assert abs(om.tail_hs - 0.10938138192816624) < 1e-12


def test_identity_symbol_is_not_hilbert_schmidt(params):
    om = hardy.assemble_matrix(None, hardy.TruncationSpec(2, 32), "identity")
    assert math.isinf(om.tail_hs)
    with pytest.raises(DomainError):
        hardy.hs_norm_squared(None, hardy.TruncationSpec(2, 32), "identity")


def test_hs_norm_frozen_values(params):
    est = hardy.hs_stability(params, hardy.TruncationSpec(16, 256))
    assert abs(est.value - 2.2610460801227479) < 1e-12
    assert abs(est.value_doubled - 2.2640255460019545) < 1e-12
    assert abs(est.rel_change - 1.3160036486637942e-3) < 1e-9
    assert est.converged

    est2 = hardy.hs_stability(params, hardy.TruncationSpec(16, 1024))
    assert abs(est2.value - 2.2655443895795493) < 1e-12
    assert abs(est2.rel_change - 3.4447723006987633e-4) < 1e-9


def test_hs_scaling_closed_form(params):
    # sum over alpha of 4^-(a1+a2) = (4/3)^2
    val = hardy.hs_norm_squared(params, hardy.TruncationSpec(4, 64),
                                kind="scaling", scale=0.5)
    assert abs(val - 16.0 / 9.0) < 1e-12


def test_hs_brute_force(params):
    # torus double integral of 1/((1-|w1|^2)(1-|w2|^2))
    spec = hardy.TruncationSpec(4, 512)
    t = hardy.midpoint_nodes(spec.quad_points)
    data = hardy.symbol_boundary_data(params, t, "paper")
    w2 = data.A[:, None] + data.B[:, None] * np.exp(1j * t)[None, :]
    vals = 1.0 / ((1.0 - np.abs(data.F[:, None]) ** 2)
                  * (1.0 - np.abs(w2) ** 2))
    brute = float(np.mean(vals))
    exact = hardy.hs_norm_squared(params, spec)
    assert abs(brute - exact) / exact < 1e-6


def test_truncation_error_scaling_closed_form(params):
    d = 2
    _, tail = hardy.column_gram(params, hardy.TruncationSpec(d, 64),
                                kind="scaling", scale=0.5)
    kept = sum(0.25 ** (a1 + a2) for a1 in range(d + 1)
               for a2 in range(d + 1))
    assert abs(tail - math.sqrt(16.0 / 9.0 - kept)) < 1e-12


def test_column_norms_parseval(params, small_spec):
    idx, cols = hardy.column_quadrature_norms(params, small_spec)
    assert idx.shape[0] == cols.size == 17 * 17
    hs = hardy.hs_norm_squared(params, small_spec)
    assert np.all(cols > 0.0)
    assert np.sum(cols) < hs
    _, tail = hardy.column_gram(params, small_spec)
    assert abs(tail ** 2 + np.sum(cols) - hs) < 1e-12


def test_column_gram_matches_torus_oracle(params):
    spec = hardy.TruncationSpec(6, 256)
    gram, tail = hardy.column_gram(params, spec)
    t = hardy.midpoint_nodes(spec.quad_points)
    data = hardy.symbol_boundary_data(params, t, "paper")
    w2 = data.A[:, None] + data.B[:, None] * np.exp(1j * t)[None, :]
    idx = hardy.index_set(6)
    v = (data.F[:, None, None] ** idx[:, 0]) * w2[:, :, None] ** idx[:, 1]
    v = v.reshape(-1, idx.shape[0])
    brute = v.conj().T @ v / (spec.quad_points ** 2)
    assert gram.dtype == np.float64  # half-circle reduction of brute
    assert np.max(np.abs(gram - brute)) < 1e-12
    # trace + tail^2 = the HS integral on the same grid
    hs = hardy.hs_norm_squared(params, spec)
    assert abs(float(np.trace(gram).real) + tail ** 2 - hs) < 1e-12


def test_column_gram_diagonal_matches_column_norms(params, small_spec):
    gram, _ = hardy.column_gram(params, small_spec)
    idx, cols = hardy.column_quadrature_norms(params, small_spec)
    assert np.max(np.abs(np.diag(gram).real - cols)) < 1e-13


def test_column_gram_infinite_tail_for_identity():
    gram, tail = hardy.column_gram(None, hardy.TruncationSpec(2, 32),
                                   "identity")
    assert math.isinf(tail)
    # columns e_{a} o identity are orthonormal
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def test_graded_mesh():
    quad = hardy.circle_quadrature(2, 1e-12)
    assert quad.nodes[0] < 1e-12 < quad.nodes[-1] <= math.pi
    assert np.all(np.diff(quad.nodes) > 0)
    assert np.all(quad.weights > 0)
    # plain dt weights integrate t over the covered interval
    covered = math.pi - quad.nodes[0]
    assert abs(np.sum(quad.weights) - covered) < 1e-8
    with pytest.raises(ConfigurationError):
        hardy.circle_quadrature(2, 0.0)
    with pytest.raises(ConfigurationError):
        hardy.circle_quadrature(1)


def test_hybrid_mesh():
    quad = hardy.circle_quadrature(64, 1e-9)
    assert np.all(np.diff(quad.nodes) > 0)
    assert quad.nodes[0] < 1e-9
    # integrates smooth periodic functions to midpoint-rule accuracy
    val = float(np.sum(quad.weights * np.cos(quad.nodes) ** 2))
    assert abs(val - math.pi / 2.0) < 1e-3
    # without a floor: the upper half of the midpoint grid, whose mean
    # of a conjugation-symmetric function is the full-grid mean
    plain = hardy.circle_quadrature(64)
    assert np.array_equal(plain.nodes, hardy.midpoint_nodes(64)[:32])
    t = hardy.midpoint_nodes(64)
    f = np.exp(3j * t) / (2.0 - np.cos(t))
    assert abs(plain.mean(f[:32]) - np.mean(f).real) < 1e-15
    with pytest.raises(ConfigurationError):
        hardy.circle_quadrature(63, 1e-9)
    with pytest.raises(ConfigurationError):
        hardy.circle_quadrature(64, 1.0)  # above the first cell


def test_window_integrals_frozen(params):
    i0_5 = hardy.window_integral_i0(1.0 / 5.0)
    i0_40 = hardy.window_integral_i0(1.0 / 40.0)
    assert not i0_5.empty
    assert abs(i0_5.value - 0.60685273051704791) < 1e-12
    assert abs(i0_40.value - 3.3551195012117396e-23) < 1e-35
    i_5 = hardy.window_integral_i(1.0 / 5.0, params)
    i_40 = hardy.window_integral_i(1.0 / 40.0, params)
    assert abs(i_5.value - 0.096583644509401045) < 1e-12
    assert abs(i_40.value - 5.339838560390786e-24) < 1e-36


def test_window_integral_monotone_and_comparable(params):
    vals = [hardy.window_integral_i0(h).value for h in (0.2, 0.1, 0.05)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    # I <= I0 / pi by the calibrated half-gap; observed ratio ~ 1/(2 pi)
    for h in (0.2, 0.05):
        i0 = hardy.window_integral_i0(h).value
        ii = hardy.window_integral_i(h, params).value
        assert ii <= i0 / math.pi
        assert abs(math.pi * ii / i0 - 0.5) < 0.01


def test_window_integral_floor_invariance():
    # pushing the mesh floor 36 decades deeper adds only panels whose
    # entire mass is ~ 1e-20 relative: the reported value is converged
    deep = hardy.circle_quadrature(2, 1e-60)
    a = hardy.window_integral_i0(0.1)
    b = hardy.window_integral_i0(0.1, quad=deep)
    assert abs(a.value - b.value) <= 1e-12 * a.value


def test_window_integral_validation(params):
    with pytest.raises(InvalidInputError):
        hardy.window_integral_i0(0.0)
    with pytest.raises(InvalidInputError):
        hardy.window_integral_i(2.0, params)


def test_window_empty_when_floor_excludes(params):
    # a mesh that stays far from the cusp sees no window points
    quad = hardy.CircleQuadrature(nodes=np.array([2.0, 3.0]),
                                  weights=np.array([0.5, 0.5]))
    out = hardy.window_integral_i0(1e-3, quad=quad)
    assert out.empty and out.value == 0.0


def test_save_load_roundtrip(params, tmp_path):
    spec = hardy.TruncationSpec(3, 64)
    om = hardy.assemble_matrix(params, spec)
    path = str(tmp_path / "m.npz")
    hardy.save_matrix(om, path, params=params)
    back = hardy.load_matrix(path)
    assert np.array_equal(back.entries, om.entries)
    assert np.array_equal(back.indices, om.indices)
    assert back.max_degree == om.max_degree
    assert back.quad_points == om.quad_points
    assert back.kind == om.kind
    assert back.tail_hs == om.tail_hs and back.hs_sq == om.hs_sq


def test_matrix_csv(params, tmp_path):
    spec = hardy.TruncationSpec(2, 32)
    om = hardy.assemble_matrix(params, spec)
    path = str(tmp_path / "m.csv")
    hardy.matrix_csv(om, path, params_hash="deadbeef")
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# D=2 Q=32 kind=paper params_hash=deadbeef")
    assert len(lines) == 2 + 9  # two comment rows + one row per beta
    first = [float(x) for x in lines[2].split(",")]
    assert len(first) == 2 * 9
