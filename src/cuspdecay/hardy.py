"""Coefficient-space model of H^2 on the bidisk.

Monomials z1^a1 z2^a2 are an orthonormal basis (norm = l2 norm of
Taylor coefficients, normalized Haar measure on the torus).  The
composition operator is represented by the matrix

    entry(beta, alpha) = Fourier coefficient beta of Phi1^a1 Phi2^a2

over all multi-indices with max(alpha1, alpha2) <= D.

Every symbol handled here is separable on the torus:

    Phi1(t1, t2) = F(t1),   Phi2(t1, t2) = A(t1) + B(t1) e^{i t2},

which covers the perturbed-diagonal symbol (F = A = cusp, B = c phi),
the pure diagonal (B = 0), the identity and radial scalings (A = 0).
The t2 integral is then a single binomial term and only 1-D transforms
in t1 remain.

Every t1 integral is a weighted sum over one CircleQuadrature on the
half circle (0, pi]: F, A and B satisfy X(-t) = conj X(t), so the
normalized circle mean of any product of them and their conjugates is
(1/pi) sum w Re(...).  Matrix entries, column norms, the column Gram
and the Hilbert-Schmidt integral share the same nodes and weights, so
the truncation tail HS^2 - sum of kept column norms is a quadrature
Parseval remainder and cannot go negative except by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maps
from .errors import (
    ConfigurationError,
    DomainError,
    InconsistencyError,
    InvalidInputError,
)


# ---------------------------------------------------------------------------
# index bookkeeping


def index_set(max_degree: int) -> np.ndarray:
    """All (a1, a2) with max(a1, a2) <= D, ordered by max-degree block,
    lexicographic inside a block.  The degree-d truncation is then a
    leading principal submatrix."""
    if max_degree < 0:
        raise ConfigurationError("max_degree must be non-negative")
    rows = []
    for m in range(max_degree + 1):
        block = [(a1, m) for a1 in range(m)] + [(m, a2) for a2 in range(m + 1)]
        rows.extend(sorted(block))
    return np.array(rows, dtype=np.int64)


@dataclass(frozen=True)
class TruncationSpec:
    """Degree/quadrature pair.  Q must be a power of two and at least
    4(D+1), keeping the kept Fourier bins clear of the alias fold."""

    max_degree: int
    quad_points: int

    def __post_init__(self):
        d, q = self.max_degree, self.quad_points
        if d < 1:
            raise ConfigurationError("max_degree must be positive")
        if q < 1 or (q & (q - 1)) != 0:
            raise ConfigurationError("quad_points must be a power of two")
        if q < 4 * (d + 1):
            raise ConfigurationError(
                "quad_points %d below anti-aliasing floor 4*(D+1) = %d"
                % (q, 4 * (d + 1))
            )


# ---------------------------------------------------------------------------
# boundary data for separable symbols


@dataclass(frozen=True)
class SeparableBoundaryData:
    """Sampled torus data (F, A, B) of a separable symbol.

    f_equals_a marks the symbols with F identical to A, which lets the
    assembly collapse F^a1 A^j into a single power table.
    """

    kind: str
    t1: np.ndarray
    F: np.ndarray
    A: np.ndarray
    B: np.ndarray
    f_equals_a: bool


def symbol_boundary_data(params, t1, kind: str = "paper",
                         scale: float = 0.5) -> SeparableBoundaryData:
    """Evaluate the separable components on the t1 nodes.

    kind: "paper" (perturbed diagonal), "diagonal", "identity",
    or "scaling" (z -> (r z1, r z2) with r = scale < 1, test symbol).
    The cusp values come from cusp_on_circle, whose two double zones
    keep graded meshes reaching t ~ 1e-300 accurate.
    """
    t1 = np.asarray(t1, dtype=float)
    if kind == "paper":
        if params is None:
            raise ConfigurationError("paper symbol needs calibrated params")
        chi = maps.cusp_on_circle(t1)
        b = params.c * maps.phi_values(chi, params.theta)
        a = chi
        if params.g_kind == "constant_one":
            a, b = a + b, np.zeros_like(b)
        return SeparableBoundaryData("paper", t1, chi, a, b, True)
    if kind == "diagonal":
        chi = maps.cusp_on_circle(t1)
        return SeparableBoundaryData("diagonal", t1, chi,
                                     chi, np.zeros_like(chi), True)
    if kind == "identity":
        f = np.exp(1j * t1)
        return SeparableBoundaryData("identity", t1, f,
                                     np.zeros_like(f), np.ones_like(f), False)
    if kind == "scaling":
        if not 0.0 < scale < 1.0:
            raise ConfigurationError("scaling factor must lie in (0, 1)")
        f = scale * np.exp(1j * t1)
        return SeparableBoundaryData("scaling", t1, f, np.zeros_like(f),
                                     np.full_like(f, scale), False)
    raise ConfigurationError("unknown symbol kind %r" % (kind,))


def midpoint_nodes(q: int) -> np.ndarray:
    # midpoint grid never contains t = 0, so chi = 1 is never a node
    return 2.0 * math.pi * (np.arange(q) + 0.5) / q


# ---------------------------------------------------------------------------
# half-circle quadrature


PANEL_POINTS = 8


@dataclass(frozen=True)
class CircleQuadrature:
    """Nodes on (0, pi], ascending, with plain-dt weights.

    For X(-t) = conj X(t), which holds for F, A, B and every product of
    them and their conjugates, the normalized circle mean is
    (1/2pi) int_{-pi}^{pi} X dt = (1/pi) sum w Re X(nodes)."""

    nodes: np.ndarray
    weights: np.ndarray

    def mean(self, values) -> float:
        return float(np.sum(self.weights * np.real(values))) / math.pi


def circle_quadrature(q: int,
                      t_floor: float | None = None) -> CircleQuadrature:
    """Midpoint cells of width 2pi/q on (0, pi]; with t_floor, the
    cusp-adjacent cell (0, 2pi/q) is replaced by dyadic Gauss-Legendre
    panels [h/2, h] until the left edge drops below t_floor.

    Uniform cells resolve the bulk, where columns of degree up to D
    oscillate like e^{iDt}; only the panels reach the log-singular cusp
    at t = 0.  The hole (0, ~t_floor) is left uncovered; callers pick
    t_floor far below the scale they integrate.  q = 2 gives the purely
    dyadic mesh on (0, pi]."""
    if q < 2 or (q & (q - 1)) != 0:
        raise ConfigurationError("q must be a power of two, at least 2")
    nodes = [midpoint_nodes(q)[: q // 2]]
    weights = [np.full(q // 2, 2.0 * math.pi / q)]
    if t_floor is not None:
        hi = 2.0 * math.pi / q
        if not 0.0 < t_floor < hi:
            raise ConfigurationError("t_floor must lie in (0, 2pi/q)")
        nodes[0], weights[0] = nodes[0][1:], weights[0][1:]
        x, w = np.polynomial.legendre.leggauss(PANEL_POINTS)
        while hi > t_floor:
            lo = hi / 2.0
            mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
            nodes.append(mid + half * x)
            weights.append(half * w)
            hi = lo
    nodes = np.concatenate(nodes)
    order = np.argsort(nodes)
    return CircleQuadrature(nodes[order], np.concatenate(weights)[order])


def _quadrature_data(params, spec: TruncationSpec, kind: str, scale: float):
    quad = circle_quadrature(spec.quad_points)
    return quad, symbol_boundary_data(params, quad.nodes, kind, scale)


# ---------------------------------------------------------------------------
# matrix assembly


@dataclass
class OperatorMatrix:
    entries: np.ndarray
    indices: np.ndarray
    max_degree: int
    quad_points: int
    kind: str
    tail_hs: float
    hs_sq: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise InconsistencyError("matrix has non-finite entries")
        if not (self.tail_hs >= 0.0 or math.isinf(self.tail_hs)):
            raise InconsistencyError("tail_hs must be non-negative")


def _coefficient_table(data: SeparableBoundaryData, d: int, p_max: int):
    """ct[p, q, m] = m-th Fourier coefficient of A^p B^q (midpoint
    twiddle included), m = 0..d.  For f_equals_a symbols A^p absorbs the
    F power as well.

    data holds the half-circle midpoint nodes t_k; the full grid's node
    q-1-k is -t_k, where every factor takes the conjugate value."""
    def full(x):
        return np.concatenate([x, np.conj(x[::-1])])

    base = data.A if data.f_equals_a else data.F
    a_pows = np.vander(full(base), p_max + 1, increasing=True).T
    b_pows = np.vander(full(data.B), d + 1, increasing=True).T
    q_nodes = a_pows.shape[1]
    twiddle = np.exp(-1j * math.pi * np.arange(d + 1) / q_nodes) / q_nodes
    ct = np.empty((p_max + 1, d + 1, d + 1), dtype=complex)
    for p in range(p_max + 1):
        spec = np.fft.fft(a_pows[p][None, :] * b_pows, axis=1)[:, : d + 1]
        ct[p] = spec * twiddle[None, :]
    return ct


def assemble_matrix(params, spec: TruncationSpec, kind: str = "paper",
                    scale: float = 0.5) -> OperatorMatrix:
    """Matrix of the composition operator on the degree-D block.

    Expanding Phi2^a2 = (A + B e^{i t2})^a2 binomially kills the t2
    transform: entry((b1,b2),(a1,a2)) = C(a2,b2) * coeff_{b1} of
    F^{a1} A^{a2-b2} B^{b2}, zero for b2 > a2.

    When the symbol is not Hilbert-Schmidt (identity, |scale| -> 1)
    tail_hs is +inf, as is the tail column_gram returns.
    """
    d, q = spec.max_degree, spec.quad_points
    quad, data = _quadrature_data(params, spec, kind, scale)
    idx = index_set(d)
    a1 = idx[:, 0]
    a2 = idx[:, 1]

    binom = np.zeros((d + 1, d + 1))
    for n_ in range(d + 1):
        for k_ in range(n_ + 1):
            binom[n_, k_] = math.comb(n_, k_)

    b2col = a2[:, None]  # rows carry beta, columns alpha; same index list
    valid = b2col <= a2[None, :]
    if data.f_equals_a:
        ct = _coefficient_table(data, d, 2 * d)
        p = a1[None, :] + a2[None, :] - b2col
        p = np.where(valid, p, 0)
        ent = ct[p, b2col, a1[:, None]]
    else:
        if not np.all(data.A == 0):
            raise ConfigurationError(
                "separable assembly supports F = A or A = 0 symbols only")
        # A = 0: only beta2 = alpha2 survives
        ct = _coefficient_table(data, d, d)  # here table is F^p B^q
        valid &= a2[:, None] == a2[None, :]
        p = np.where(valid, a1[None, :], 0)
        ent = ct[p, b2col, a1[:, None]]
    ent = np.where(valid, ent * binom[a2[None, :], b2col], 0.0)

    hs_sq, tail = _truncation_tail(data, quad,
                                   float(np.sum(np.abs(ent) ** 2)))
    return OperatorMatrix(entries=ent, indices=idx, max_degree=d,
                          quad_points=q, kind=kind, tail_hs=tail,
                          hs_sq=hs_sq)


def _hs_quadrature(data: SeparableBoundaryData,
                   quad: CircleQuadrature) -> float:
    """Hilbert-Schmidt norm squared on the t1 quadrature, t2 integrated
    in closed form:

      (1/2pi) int dt2 / (1 - |A + B e^{it2}|^2)
          = 1 / sqrt((1 - |A|^2 - |B|^2)^2 - 4 |A|^2 |B|^2),

    valid iff |A| + |B| < 1.  Raises DomainError when the symbol is not
    Hilbert-Schmidt on the nodes (identity: |F| = 1)."""
    f2 = np.abs(data.F) ** 2
    a2 = np.abs(data.A) ** 2
    b2 = np.abs(data.B) ** 2
    gap1 = 1.0 - f2
    rad = (1.0 - a2 - b2) ** 2 - 4.0 * a2 * b2
    if np.any(gap1 <= 0.0) or np.any((1.0 - a2 - b2) <= 0.0) or np.any(rad <= 0.0):
        raise DomainError(
            "symbol touches the torus on the quadrature nodes; "
            "Hilbert-Schmidt integral diverges")
    return quad.mean(1.0 / (gap1 * np.sqrt(rad)))


def _truncation_tail(data: SeparableBoundaryData, quad: CircleQuadrature,
                     kept: float):
    """(HS^2, sqrt(HS^2 - kept)), or (inf, inf) when the symbol is not
    Hilbert-Schmidt.  kept is the sum of kept norms on the same nodes
    and weights, so the radicand is a Parseval remainder that only
    rounding can push below zero."""
    try:
        hs_sq = _hs_quadrature(data, quad)
    except DomainError:
        return math.inf, math.inf
    rad = hs_sq - kept
    if rad < -1e-10:
        raise InconsistencyError(
            "kept norms exceed the Hilbert-Schmidt integral by %.3e; "
            "the shared-quadrature Parseval identity is broken" % (-rad,))
    return hs_sq, math.sqrt(max(rad, 0.0))


def hs_norm_squared(params, spec: TruncationSpec, kind: str = "paper",
                    scale: float = 0.5) -> float:
    """Quadrature value of int dm_Phi / ((1-|w1|^2)(1-|w2|^2))."""
    quad, data = _quadrature_data(params, spec, kind, scale)
    return _hs_quadrature(data, quad)


@dataclass(frozen=True)
class HsEstimate:
    value: float
    value_doubled: float
    rel_change: float
    converged: bool


def hs_stability(params, spec: TruncationSpec, kind: str = "paper",
                 scale: float = 0.5, gate: float = 0.05) -> HsEstimate:
    """hs_norm_squared at Q and 2Q with a relative-change flag."""
    v1 = hs_norm_squared(params, spec, kind, scale)
    spec2 = TruncationSpec(spec.max_degree, 2 * spec.quad_points)
    v2 = hs_norm_squared(params, spec2, kind, scale)
    rel = abs(v2 - v1) / abs(v2)
    return HsEstimate(v1, v2, rel, rel < gate)


def column_quadrature_norms(params, spec: TruncationSpec,
                            kind: str = "paper", scale: float = 0.5):
    """||e_alpha o Phi||^2 under the discrete pullback measure, t2 exact:
    per node sum_j C(a2,j)^2 |A|^{2(a2-j)} |B|^{2j}, averaged in t1."""
    quad, data = _quadrature_data(params, spec, kind, scale)
    d = spec.max_degree
    idx = index_set(d)
    aa = np.abs(data.A) ** 2
    bb = np.abs(data.B) ** 2
    t2_int = np.zeros((data.t1.size, d + 1))
    for a2 in range(d + 1):
        for j in range(a2 + 1):
            t2_int[:, a2] += math.comb(a2, j) ** 2 * aa ** (a2 - j) * bb ** j
    f_pows = np.vander(np.abs(data.F) ** 2, d + 1, increasing=True)
    vals = f_pows[:, idx[:, 0]] * t2_int[:, idx[:, 1]]
    return idx, quad.weights @ vals / math.pi


def column_gram(params, spec: TruncationSpec, kind: str = "paper",
                scale: float = 0.5):
    """Gram matrix G[alpha, alpha'] = <C e_alpha', C e_alpha> of the
    composed kept monomials under the discrete pullback measure, plus
    the discarded-column tail bound.  Returns (gram, tail); the Gram is
    real symmetric.

    Unlike the assembled matrix, the inner products here keep every
    output Fourier mode (the t2 integral is exact; t1 is a plain node
    sum), so sqrt of the Gram eigenvalues gives the s-numbers of
    C restricted to the kept columns with no row truncation.  Those are
    lower bounds for the full operator's s-numbers, and adding the tail
    sqrt(HS^2 - trace G) caps the gap from the discarded columns, which
    is how the spectrum pipeline reports honest intervals.

    Expanding the second coordinate binomially, the t2 integral leaves
    one term per shared e^{i j t2} power, so G splits into rank
    contributions G += M_j^H M_j with

        M_j[node, (a1, a2)] = sqrt(w) F^{a1} C(a2, j) A^{a2-j} |B|^j

    (the phase of B^j cancels between the two sides).  The node at -t
    carries conj M_j, so over the half circle each contribution is
    R_j^T R_j with R_j = sqrt(1/pi) [Re M_j; Im M_j], added straight
    into the index_set layout."""
    d = spec.max_degree
    quad, data = _quadrature_data(params, spec, kind, scale)
    idx = index_set(d)
    pos = np.empty((d + 1, d + 1), dtype=np.int64)
    pos[idx[:, 0], idx[:, 1]] = np.arange(idx.shape[0])
    f_pows = np.sqrt(quad.weights / math.pi)[:, None] * np.vander(
        data.F, d + 1, increasing=True)
    a_pows = np.vander(data.A, d + 1, increasing=True)
    b_pows = np.vander(np.abs(data.B), d + 1, increasing=True)
    j_max = 0 if np.all(data.B == 0.0) else d
    gram = np.zeros((idx.shape[0], idx.shape[0]))
    for j in range(j_max + 1):
        a2s = np.arange(j, d + 1)
        comb = np.array([math.comb(int(a2), j) for a2 in a2s], dtype=float)
        cols_t2 = comb * a_pows[:, a2s - j] * b_pows[:, j, None]
        m = (f_pows[:, :, None] * cols_t2[:, None, :]).reshape(
            data.t1.size, -1)
        r = np.concatenate([m.real, m.imag])
        cols = pos[:, a2s].ravel()
        gram[np.ix_(cols, cols)] += r.T @ r
    return gram, _truncation_tail(data, quad, float(np.trace(gram)))[1]


# ---------------------------------------------------------------------------
# the window integrals


@dataclass(frozen=True)
class WindowValue:
    h: float
    value: float
    empty: bool


def _window_floor(h: float) -> float:
    # the set {|chi(e^it) - 1| <= h} is an interval around 0 of
    # half-length ~ exp(-pi/(2h) + 2.2); go a few decades below it
    return max(math.exp(-math.pi / (2.0 * h) * 1.5 - 30.0), 1e-300)


def window_integral_i0(h: float,
                       quad: CircleQuadrature | None = None) -> WindowValue:
    """I0(h) = int_{|chi(e^it)-1| <= h} dt / (1 - |chi(e^it)|)^2,
    plain dt over the full circle (both signs of t)."""
    if not 0.0 < h <= 1.0:
        raise InvalidInputError("window size must lie in (0, 1]")
    if quad is None:
        quad = circle_quadrature(2, _window_floor(h))
    chi = maps.cusp_on_circle(quad.nodes)
    mask = np.abs(chi - 1.0) <= h
    if not np.any(mask):
        return WindowValue(h, 0.0, True)
    integrand = 1.0 / (1.0 - np.abs(chi[mask])) ** 2
    return WindowValue(h, 2.0 * float(np.sum(quad.weights[mask] * integrand)),
                       False)


def window_integral_i(h: float, params, quad: CircleQuadrature | None = None,
                      t2_points: int = 256) -> WindowValue:
    """Two-variable window integral, normalized Haar measure:

      I(h) = (2pi)^{-2} int_{|chi(e^{it1})-1| <= h}
                 dt1 dt2 / ((1-|w1|)(1-|w2|)),

    so that I(h) <= (2/(2pi)) I0(h) by the calibration margin
    1-|w2| >= (1-|w1|)/2.  The t2 integral is a smooth periodic
    average, done on a uniform grid."""
    if not 0.0 < h <= 1.0:
        raise InvalidInputError("window size must lie in (0, 1]")
    if quad is None:
        quad = circle_quadrature(2, _window_floor(h))
    data = symbol_boundary_data(params, quad.nodes, "paper")
    mask = np.abs(data.F - 1.0) <= h
    if not np.any(mask):
        return WindowValue(h, 0.0, True)
    t2 = midpoint_nodes(t2_points)
    w2 = data.A[mask, None] + data.B[mask, None] * np.exp(1j * t2)[None, :]
    inner = np.mean(1.0 / (1.0 - np.abs(w2)), axis=1)
    outer = inner / (1.0 - np.abs(data.F[mask]))
    val = float(np.sum(quad.weights[mask] * outer)) / math.pi
    return WindowValue(h, val, False)


# ---------------------------------------------------------------------------
# serialization


def save_matrix(om: OperatorMatrix, path: str, params=None) -> None:
    """Binary dump: entries + index list + assembly metadata."""
    meta = {}
    if params is not None:
        meta = {"params_" + k: v for k, v in params.to_dict().items()}
    np.savez_compressed(
        path, entries=om.entries, indices=om.indices,
        max_degree=om.max_degree, quad_points=om.quad_points,
        kind=om.kind, tail_hs=om.tail_hs, hs_sq=om.hs_sq, **meta)


def load_matrix(path: str) -> OperatorMatrix:
    z = np.load(path, allow_pickle=False)
    return OperatorMatrix(
        entries=z["entries"], indices=z["indices"],
        max_degree=int(z["max_degree"]), quad_points=int(z["quad_points"]),
        kind=str(z["kind"]), tail_hs=float(z["tail_hs"]),
        hs_sq=float(z["hs_sq"]))


def matrix_csv(om: OperatorMatrix, path: str, params_hash: str = "") -> None:
    """Plain-text dump: comment header, then one row per beta with
    re,im pairs across alpha (row-major)."""
    with open(path, "w") as fh:
        fh.write("# D=%d Q=%d kind=%s params_hash=%s\n"
                 % (om.max_degree, om.quad_points, om.kind, params_hash))
        fh.write("# row=beta col=alpha, complex entries as re,im pairs\n")
        for row in om.entries:
            fh.write(",".join("%.17g,%.17g" % (v.real, v.imag) for v in row))
            fh.write("\n")
