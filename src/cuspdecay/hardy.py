"""Coefficient-space model of H^2 on the bidisk.

Monomials z1^a1 z2^a2 are an orthonormal basis (norm = l2 norm of
Taylor coefficients, normalized Haar measure on the torus).  The
composition operator is represented by the matrix

    entry(beta, alpha) = Fourier coefficient beta of Phi1^a1 Phi2^a2

over all multi-indices with max(alpha1, alpha2) <= D.

Every symbol handled here is separable on the torus:

    Phi1(t1, t2) = F(t1),   Phi2(t1, t2) = A(t1) + B(t1) e^{i t2},

which covers the perturbed-diagonal symbol (F = A = cusp, B = c phi),
the pure diagonal (F = A, B = 0) and the constant perturbation g = 1
(F = cusp, A = cusp + c phi, B = 0).  For F = A the image of
z1^a1 z2^a2 is

    sum_j W[a2, j] F^(a1 + a2 - j) B^j e^{i j t2},

with W[a2, j] = C(a2, j), so the t2 transform is a single term per j
and only 1-D transforms in t1 remain.
A column's j-th term depends on (a1, a2) only through p = a1 + a2 - j,
so the column Gram is built from one (2D+1)^2 moment matrix per j,
H_j[p, p'] = <|B|^j F^p', |B|^j F^p>, each held as the triangular
factor T_j of H_j = T_j^T T_j, and the (D+1)^2 x (D+1)^2 Gram is
never formed: the factors stack into M with G = M^T M, and the small
core M M^T has all of G's nonzero eigenvalues.  Only the t2 modes
j = 0..J whose Gram mass clears the eigensolver's noise level are
held: |B| <= 5.4e-4 makes each mode carry about 1e-6 of the mass of
the one before, so J = 2 for the paper symbol (3 of 49 modes at
D = 48, a 288-square core) and J = 0 for the diagonal.  The t2 modes
are orthogonal, so the cut Gram is the Gram of P_J C, the image
projected onto t2 modes <= J: a compression of C, whose values stay
lower endpoints, and HS^2 - trace G counts the dropped modes' mass
with the discarded columns (column_gram_operator has the proof).  g = 1 (image
F^a1 A^a2) has no such form; its Gram is kept as the real factor R of
G = R^T R, two rows per half-circle node and one column per kept
monomial, and its core is the smaller of R R^T and R^T R.

Every t1 integral is a weighted sum over one CircleQuadrature on the
half circle (0, pi]: F, A, B and e^{imt} satisfy X(-t) = conj X(t), so
the normalized circle mean of any product of them and their conjugates
is (1/pi) sum w Re(...), and CircleQuadrature.factor writes the mean
of conj(X) Y as one real matrix product.  circle_quadrature builds the
uniform grid, graded_quadrature the mesh that resolves chi's cusp and
lens corners.  The column Gram runs on the mesh its caller passes, and
the assembled matrix on the uniform grid of Q points; each shares its
nodes and weights with its Hilbert-Schmidt integral, so the truncation
tail HS^2 - trace G is a quadrature Parseval remainder and cannot go
negative except by rounding.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import maps
from .errors import ConfigurationError, CuspDecayError


# ---------------------------------------------------------------------------
# index bookkeeping


def index_set(max_degree: int) -> np.ndarray:
    """All (a1, a2) with max(a1, a2) <= D, ordered by max-degree block,
    lexicographic inside a block.  The degree-d truncation is then a
    leading principal submatrix."""
    if max_degree < 0:
        raise ConfigurationError("max_degree must be non-negative")
    # block m holds 2m + 1 entries from offset m^2 on: (0, m), ...,
    # (m - 1, m), then (m, 0), ..., (m, m)
    m = np.repeat(np.arange(max_degree + 1), 2 * np.arange(max_degree + 1) + 1)
    k = np.arange(m.size) - m * m
    return np.stack([np.minimum(k, m), np.where(k < m, m, k - m)], axis=1)


# ---------------------------------------------------------------------------
# boundary data for separable symbols


@dataclass(frozen=True)
class SeparableBoundaryData:
    """Sampled torus data (F, A, B) of a separable symbol and the
    column structure its kind fixes (see _expansion):

      "binomial"  F = A (paper with g = z2, diagonal)
      "product"   B = 0 and F != A (paper with g = 1)
    """

    F: np.ndarray
    A: np.ndarray
    B: np.ndarray
    structure: str


def symbol_boundary_data(params, t1,
                         kind: str = "paper") -> SeparableBoundaryData:
    """Evaluate the separable components on the t1 nodes.

    kind: "paper" (perturbed diagonal) or "diagonal".  The cusp values
    come from cusp_on_circle, whose closed form on the lens arcs keeps
    graded meshes reaching t ~ 1e-300 accurate.
    """
    t1 = np.asarray(t1, dtype=float)
    if kind == "paper":
        if params is None:
            raise ConfigurationError("paper symbol needs calibrated params")
        chi = maps.cusp_on_circle(t1)
        b = params.c * maps.phi_values(chi, params.theta)
        if params.g_kind == "constant_one":
            return SeparableBoundaryData(chi, chi + b, np.zeros_like(b),
                                         "product")
        return SeparableBoundaryData(chi, chi, b, "binomial")
    if kind == "diagonal":
        chi = maps.cusp_on_circle(t1)
        return SeparableBoundaryData(chi, chi, np.zeros_like(chi), "binomial")
    raise ConfigurationError("unknown symbol kind %r" % (kind,))


def midpoint_nodes(q: int) -> np.ndarray:
    # midpoint grid never contains t = 0, so chi = 1 is never a node
    return 2.0 * math.pi * (np.arange(q) + 0.5) / q


# ---------------------------------------------------------------------------
# half-circle quadrature


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

    def factor(self, values) -> np.ndarray:
        """The real stack [Re; Im] of sqrt(w/pi) values, values given
        as (nodes, columns).  For conjugation-symmetric X and Y,
        factor(X).T @ factor(Y) holds the circle means of conj(X) Y."""
        v = np.sqrt(self.weights / math.pi)[:, None] * values
        return np.concatenate([v.real, v.imag])


def circle_quadrature(q: int) -> CircleQuadrature:
    """The upper half of the q-point midpoint grid, on (0, pi]; it
    resolves neither chi's cusp nor its corners (graded_quadrature)."""
    if q < 2 or (q & (q - 1)) != 0:
        raise ConfigurationError("q must be a power of two, at least 2")
    return CircleQuadrature(midpoint_nodes(q)[: q // 2],
                            np.full(q // 2, 2.0 * math.pi / q))


def graded_quadrature(panels: int, floor: float) -> CircleQuadrature:
    """8-point Gauss-Legendre panels pi/panels wide on (0, pi], graded
    toward chi's log cusp at t = 0 and its lens corner at pi/2
    (geometric meshes after Babuska and Guo): the panels that touch 0
    and either side of pi/2 are split dyadically, [h/2, h] from the
    point, until the near edge is below floor at 0 and 1e-14 at pi/2.
    Callers pick floor far below the scale they integrate."""
    h = math.pi / panels
    if panels < 4 or panels & (panels - 1) or not 0.0 < floor < h:
        raise ConfigurationError(
            "need panels a power of two >= 4 and floor in (0, pi/panels)")
    edges = [(k * h, (k + 1) * h) for k in range(1, panels)
             if k not in (panels // 2 - 1, panels // 2)]
    for point, side, stop in ((0.0, 1.0, floor), (math.pi / 2, -1.0, 1e-14),
                              (math.pi / 2, 1.0, 1e-14)):
        gap = h
        while gap > stop:
            edges.append(sorted((point + side * gap, point + side * gap / 2)))
            gap /= 2.0
    lo, hi = np.array(edges).T
    mid, half = (hi + lo)[:, None] / 2.0, (hi - lo)[:, None] / 2.0
    x, w = np.polynomial.legendre.leggauss(8)
    nodes = (mid + half * x).ravel()
    order = np.argsort(nodes)
    return CircleQuadrature(nodes[order], (half * w).ravel()[order])


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
            raise CuspDecayError("matrix has non-finite entries")
        if not 0.0 <= self.tail_hs < math.inf:
            raise CuspDecayError("tail_hs must be finite and >= 0")


def _binomials(d: int, k: int) -> np.ndarray:
    """Column k of W: C(n, k) for n = 0..d, zero for n < k."""
    return np.array([math.comb(n, k) for n in range(d + 1)], dtype=float)


def _expansion(data: SeparableBoundaryData, d: int):
    """(X, Y, W) with the image of z1^a1 z2^a2 equal to

        sum_j W[a2, j] X^(a1 + a2 - j) Y^j e^{i j t2},   a2, j <= d.

    "binomial" (F = A): X = F, Y = B and W[a2, j] = C(a2, j), the
    binomial expansion of (F + B e^{i t2})^a2.  "product" (B = 0,
    F != A) has image F^a1 A^a2, which has no such form: it is returned
    as (F, A, None)."""
    if data.structure == "binomial":
        return data.F, data.B, np.stack([_binomials(d, k)
                                         for k in range(d + 1)], axis=1)
    return data.F, data.A, None


def assemble_matrix(params, degree: int, q: int,
                    kind: str = "paper") -> OperatorMatrix:
    """Matrix of the composition operator on the degree-D block.

    With the expansion (X, Y, W) of _expansion the t2 transform is one
    term per j, so entry((b1, b2), (a1, a2)) = W[a2, b2] times the
    Fourier coefficient b1 of X^(a1 + a2 - b2) Y^b2; for g = 1 it is
    the coefficient b1 of F^a1 A^a2 when b2 = 0 and zero otherwise.
    The coefficients come from one table ct[p, k, m], the circle means
    factor(X^p Y^k).T @ factor(e^{imt}) on the uniform q-point grid,
    the grid the matrix verb records; they are Fourier coefficients of
    conjugation-symmetric functions, so the entries are real."""
    d = degree
    quad = circle_quadrature(q)
    data = symbol_boundary_data(params, quad.nodes, kind)
    idx = index_set(d)
    a1, a2 = idx[None, :, 0], idx[None, :, 1]  # columns carry alpha,
    b1, b2 = idx[:, 0, None], idx[:, 1, None]  # rows carry beta
    x, y, w = _expansion(data, d)
    p_max = d if w is None else 2 * d
    pows = (np.vander(x, p_max + 1, increasing=True)[:, :, None]
            * np.vander(y, d + 1, increasing=True)[:, None, :])
    modes = maps.expi(np.outer(quad.nodes, np.arange(d + 1)))
    ct = quad.factor(pows.reshape(x.size, -1)).T @ quad.factor(modes)
    ct = ct.reshape(p_max + 1, d + 1, d + 1)
    if w is None:
        ent = np.where(b2 == 0, ct[a1, a2, b1], 0.0)
    else:
        # W[a2, b2] = 0 for b2 > a2, where a negative p picks a finite
        # entry from the end of the table
        ent = ct[a1 + a2 - b2, b2, b1]
        ent *= w[a2, b2]

    hs_sq, rad = _truncation_tail(data, quad, float(np.sum(ent ** 2)))
    return OperatorMatrix(entries=ent, indices=idx, max_degree=d,
                          quad_points=q, kind=kind,
                          tail_hs=math.sqrt(max(rad, 0.0)), hs_sq=hs_sq)


def _hs_quadrature(data: SeparableBoundaryData,
                   quad: CircleQuadrature) -> float:
    """Hilbert-Schmidt norm squared on the t1 quadrature, t2 integrated
    in closed form:

      (1/2pi) int dt2 / (1 - |A + B e^{it2}|^2)
          = 1 / sqrt((1 - |A|^2 - |B|^2)^2 - 4 |A|^2 |B|^2),

    valid iff |A| + |B| < 1.  A symbol that reaches the torus at a
    node (|F| >= 1 or |A| + |B| >= 1) raises CuspDecayError."""
    f2 = np.abs(data.F) ** 2
    a2 = np.abs(data.A) ** 2
    b2 = np.abs(data.B) ** 2
    gap1 = 1.0 - f2
    rad = (1.0 - a2 - b2) ** 2 - 4.0 * a2 * b2
    if np.any(gap1 <= 0.0) or np.any((1.0 - a2 - b2) <= 0.0) or np.any(rad <= 0.0):
        raise CuspDecayError("the symbol reaches the torus at a node: "
                             "no Hilbert-Schmidt integral on this quadrature")
    return quad.mean(1.0 / (gap1 * np.sqrt(rad)))


def _truncation_tail(data: SeparableBoundaryData, quad: CircleQuadrature,
                     kept: float):
    """(HS^2, HS^2 - kept).  kept is the sum of kept norms on the same
    nodes and weights, so the radicand is a Parseval remainder that
    only rounding can push below zero; it is returned signed, and the
    tail is the square root of its positive part."""
    hs_sq = _hs_quadrature(data, quad)
    rad = hs_sq - kept
    if rad < -1e-10:
        raise CuspDecayError(
            "kept norms exceed the Hilbert-Schmidt integral by %.3e; "
            "the shared-quadrature Parseval identity is broken" % (-rad,))
    return hs_sq, rad


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
_EPS = float(np.finfo(float).eps)


@cache
def _openblas_symbol(name):
    """The function name (scipy_<name>64_ in numpy's wheels) of the
    OpenBLAS numpy bundles, returning int; None under MKL, Accelerate
    or a system or older OpenBLAS."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_%s64_" % name, name):
            func = getattr(lib, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one OpenBLAS thread, then restore the caller's
    count; without the setter, change nothing.  The thin QRs and SVDs
    here run faster so (2.5x on the D = 48 QRs, 2 cores) and take the
    1-thread bits at every count.  numpy's pthreads OpenBLAS applies
    the "local" setter process-wide; the package runs single-threaded."""
    setter = _openblas_symbol("openblas_set_num_threads_local")
    previous = setter(1) if setter is not None else None
    try:
        yield
    finally:
        if previous is not None:
            setter(previous)


@dataclass(frozen=True, eq=False)
class ColumnGram:
    """The column Gram G of column_gram_operator, held as real factors,
    with its order n, trace and truncation tail.  hs_sq is the
    Hilbert-Schmidt integral on the same quadrature and tail_radicand
    the signed HS^2 - trace G before the clamp.

    For F = A, with W[a2, j] = C(a2, j) (_binomials), G is held on
    the t2 modes j = 0..J that column_gram_operator keeps: factors[j] is
    the triangular T_j with H_j = T_j^T T_j, placed at the columns
    s >= j (zero before them), and expansion = W[:, :J+1].  With
    E_j[s, (a1, a2)] = W[a2, j] if s = a1 + a2 and 0 otherwise,

        G = sum_{j <= J} E_j^T T_j^T T_j E_j = M^T M,

    M the stack of the T_j E_j.  That G is the Gram of P_J C, C with its
    image projected onto the t2 modes <= J: a compression, so its
    eigenvalues stay below those of the full Gram, and trace G leaves
    the dropped modes' mass in HS^2 - trace G, inside the tail.  Paper
    with g = 1 holds factors = (R,), G = R^T R, and no expansion; its
    image has the t2 mode 0 alone."""

    order: int
    trace: float
    hs_sq: float
    tail_radicand: float
    factors: tuple = ()
    expansion: np.ndarray | None = None

    @property
    def tail(self) -> float:
        return math.sqrt(max(self.tail_radicand, 0.0))

    @property
    def t2_modes(self) -> int:
        """J + 1, the number of t2 modes the Gram holds."""
        return len(self.factors)

    @cached_property
    def core(self) -> np.ndarray:
        """A small PSD matrix whose nonzero eigenvalues are G's: M M^T.
        Its block (j, j') is T_j E_j E_j'^T T_j'^T = (T_j * c) T_j'^T, c
        the diagonal c[s] = sum_{a1 + a2 = s} W[a2, j] W[a2, j'], so it
        is at most sum_{j <= J} (2D + 1 - j) square (288 at D = 48)
        against n = (D+1)^2.  For g = 1, the smaller of R R^T and
        R^T R."""
        if self.expansion is None:
            (r,) = self.factors
            return r @ r.T if r.shape[0] < r.shape[1] else r.T @ r
        idx = index_set(self.expansion.shape[0] - 1)
        s, w = idx.sum(axis=1), self.expansion[idx[:, 1]]
        return np.block([[(t_j * np.bincount(s, w[:, j] * w[:, k])) @ t_k.T
                          for k, t_k in enumerate(self.factors)]
                         for j, t_j in enumerate(self.factors)])


def column_gram_operator(params, degree: int, quad: CircleQuadrature,
                         kind: str = "paper") -> ColumnGram:
    """Gram G[alpha, alpha'] = <C e_alpha', C e_alpha> of the composed
    kept monomials under the discrete pullback measure, as a ColumnGram
    of real factors with the discarded-column tail.  G is real and
    symmetric, in the index_set layout, for max(a1, a2) <= degree.  The
    t1 integrals run over the caller's mesh quad.

    Unlike the assembled matrix, the inner products here keep every
    output Fourier mode (the t2 integral is exact; t1 is a plain node
    sum), so sqrt of the Gram eigenvalues gives the s-numbers of
    C restricted to the kept columns with no row truncation.  Those are
    lower bounds for the full operator's s-numbers, and adding the tail
    sqrt(HS^2 - trace G) caps the gap from the discarded columns, which
    is how the spectrum pipeline reports honest intervals.

    Expanding the second coordinate (see _expansion), the t2 integral
    leaves one term per shared e^{i j t2} power (the phase of B^j
    cancels between the two sides).  The j-term of column (a1, a2) is
    W[a2, j] |B|^j F^p with p = a1 + a2 - j, so

        G[(a1, a2), (b1, b2)]
            = sum_j W[a2, j] W[b2, j] H_j[a1 + a2 - j, b1 + b2 - j],
        H_j[p, p'] = (1/pi) sum_nodes w |B|^{2j} Re(conj(F^p) F^{p'}).

    The moment matrices are H_j = S_j^T S_j, S_j = factor(F^p) scaled
    by |B|^j, p up to 2D - j, and H_j is never formed: mode j is held
    as T_j, the R factor of the thin QR of S_j (Golub and Kahan 1965),
    so H_j = T_j^T T_j.  The QRs run at one BLAS thread
    (_one_blas_thread), so the T_j take the same bits at every thread
    count; only the core's products and its eigensolve depend on it.
    Mode j carries the Gram mass
    m_j = sum_alpha W[a2, j]^2 H_j[a1 + a2 - j, a1 + a2 - j], read off
    the column sums of squares of S_j.  The build stops at the first
    j >= 1 with m_j <= eps lambda_lo, lambda_lo = max_s H_0[s, s]
    (H_0[0, 0] = 1, as |F| < 1), and holds the modes j = 0..J before it
    (O(J D^2 N) flops on N rows, at most (J+1)(2D+1)^2 doubles).  Each
    diagonal entry of G is at least its j = 0 term H_0[s, s], so
    lambda_lo <= max diag G <= lambda_1, and the cut sits under the
    eigensolver's noise level eps lambda_1 (gram_values' noise floor,
    squared): it is written from that floor and moves with it.  B = 0
    gives J = 0, and the paper symbol, whose masses fall by about 1e-6
    a mode (|B| <= 5.4e-4), J = 2 at D = 2 to 240 (m_3 = 8.6e-19).
    trace G is the sum of the held masses, j = 0 first; a dropped
    m_{J+1} <= eps lambda_lo <= eps trace G moves it by at most an ulp,
    and m_3 lies far under half an ulp of the paper symbol's 2.27, so
    its bits do not depend on the cut.  The cut leaves the intervals
    honest:

    - Mode j is the Gram of the t2-mode-j component of the image, and
      the modes are orthogonal in L^2(t2).  So the held G is the Gram
      of P_J C, with P_J the projection onto t2 modes <= J, a
      compression of C: its eigenvalues are still lower endpoints.
    - HS^2 - trace G is exactly the discarded columns' mass plus the
      dropped modes' mass ||(1 - P_J) C||_HS^2, so the tail
      sqrt(HS^2 - trace G) covers every dropped mode, whatever J is.
    - G_full - G is the PSD sum of the dropped modes' Grams, of trace
      delta = sum_{j > J} m_j, so ||G_full - G||_2 <= delta and, by
      Weyl, no eigenvalue moves by more than delta.  Node by node,
      C(a2, j) <= C(a2, k) C(a2 - k, j - k) and
      sum_i C(n, i)^2 x^(n-i) y^i <= (sqrt x + sqrt y)^(2n) give

          sum_{j >= k} C(a2, j)^2 |F|^(2(a2-j)) |B|^(2j)
              <= C(a2, k)^2 |B|^(2k) (|F| + |B|)^(2(a2-k)),

      so delta is at most m_{J+1} with |F|^(2(a2-J-1)) widened to
      (|F| + |B|)^(2(a2-J-1)).  For the paper symbol (seed 17, both
      meshes, D = 48 to 240) the widening is a factor 1.008 on
      m_3 = 8.6e-19: delta <= 8.7e-19, about 1/400 of
      eps lambda_1 = 3.4e-16.

    Paper with g = 1 has one t2 term per column: G = R^T R with
    R = factor(F^a1 A^a2) over the (D+1)^2 columns, and trace G is the
    sum of R's squared entries."""
    d = degree
    data = symbol_boundary_data(params, quad.nodes, kind)
    idx = index_set(d)
    a1, a2 = idx[:, 0], idx[:, 1]
    if data.structure == "product":
        r = quad.factor(np.vander(data.F, d + 1, increasing=True)[:, a1]
                        * np.vander(data.A, d + 1, increasing=True)[:, a2])
        trace = float(np.sum(r * r))
        return ColumnGram(r.shape[1], trace,
                          *_truncation_tail(data, quad, trace), factors=(r,))
    r = quad.factor(np.vander(data.F, 2 * d + 1, increasing=True))
    b = np.abs(np.concatenate([data.B, data.B]))[:, None]
    factors, expansion = [], []
    trace = 0.0
    for j in range(d + 1):
        s_j = r[:, :2 * d + 1 - j] * b ** j
        # keep every entry normal: subnormal ones slow the BLAS kernels
        # (5x on the products S_j^T S_j at D = 48), and what is dropped
        # moves no entry of H_j by more than ~1e-150
        s_j[np.abs(s_j) < _SQRT_TINY] = 0.0
        # m_j from the column sums of squares, diag H_j; a negative
        # index (a2 < j) meets W[a2, j] = 0
        w_j = _binomials(d, j)
        cols = np.einsum("ij,ij->j", s_j, s_j)
        mass = float(np.sum(w_j[a2] ** 2 * cols[a1 + a2 - j]))
        if j == 0:
            # eps lambda_lo <= eps lambda_1, the eigensolver's noise level
            cut = _EPS * float(cols.max())
        elif mass <= cut:
            break
        trace += mass
        t_j = np.zeros((min(s_j.shape), 2 * d + 1))
        with _one_blas_thread():
            t_j[:, j:] = np.linalg.qr(s_j, mode="r")
        factors.append(t_j)
        expansion.append(w_j)
    return ColumnGram(idx.shape[0], trace,
                      *_truncation_tail(data, quad, trace),
                      factors=tuple(factors),
                      expansion=np.stack(expansion, axis=1))
