import math
import tracemalloc

import numpy as np
import pytest

from cuspdecay import hardy, maps, verifier
from cuspdecay.maps import SymbolParams


@pytest.fixture(scope="session")
def params():
    # frozen output of maps.build_params(0.5, "identity_in_z2", 100_000,
    # 11); test_maps checks the pipeline still reproduces these
    return SymbolParams(theta=0.5, c=1.456697e-3, k_hat=2.519054)


def tanh_sinh_quadrature(step=1.0 / 32.0, kmax=160):
    """The tanh-sinh rule (Takahasi and Mori) with nodes k * step,
    |k| <= kmax, on each lens arc of chi, (0, pi/2) and (pi/2, pi): the
    tests' independent oracle mesh, clustered doubly exponentially at
    the cusp t = 0 and at the corner pi/2.  With e = exp(-pi |sinh|),
    1 -+ tanh are 2e/(1 + e) and 2/(1 + e), formed without cancellation
    at both ends.  The defaults give 642 nodes, the smallest ~9e-102."""
    u = step * np.arange(-kmax, kmax + 1)
    e = np.exp(-math.pi * np.abs(np.sinh(u)))
    near = 2.0 * e / (1.0 + e)  # distance to the closer end, in half-widths
    weight = step * math.pi / 2.0 * np.cosh(u) * 4.0 * e / (1.0 + e) ** 2
    half, arcs = math.pi / 4.0, ((0.0, math.pi / 2), (math.pi / 2, math.pi))
    nodes = np.concatenate([np.where(u < 0, a + half * near, b - half * near)
                            for a, b in arcs])
    order = np.argsort(nodes, kind="stable")
    return hardy.CircleQuadrature(nodes[order],
                                  np.tile(half * weight, 2)[order])


@pytest.fixture(scope="session")
def oracle_values(params):
    """Descending square roots of the eigenvalues of the D = 32 column
    Gram on tanh_sinh_quadrature(), built by stacked_product_gram."""
    gram = stacked_product_gram(params, 32, tanh_sinh_quadrature())
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None))


@pytest.fixture(scope="session")
def meshes():
    """q -> the two t1 meshes every same-quadrature oracle runs its
    operator on: the uniform q-point grid and the 1184-node graded
    mesh."""
    graded = hardy.graded_quadrature(16, 1e-14)
    return lambda q: {"uniform": hardy.circle_quadrature(q),
                      "graded": graded}


def disk_samples(count, seed):
    """The whole maps.disk_sample_blocks stream as one array."""
    return np.concatenate(list(maps.disk_sample_blocks(count, seed)))


_LOG_MINUS_I = complex(0.0, -math.pi / 2.0)
_LOG_ONE_PLUS_I = complex(math.log(2.0) / 2.0, math.pi / 4.0)


def cusp_from_log_gap(log_gap, phase) -> np.ndarray:
    """Cusp map at z = 1 - xi for xi = exp(log_gap + i*phase), without
    forming z: the tests' near-cusp interior points, far beyond where
    1 - z survives in double.  Vectorized.

    Stage 0 in log form: with eta = (1+i) xi / ((1-i) + i xi),

        log chi0 = log(-i) + log(1+i) + log xi - log((1-i) + i xi)
                   - 2 log(1 + sqrt(1 - eta)),

    where log xi = log_gap + i*phase is exact.  No term cancels, and xi
    itself enters only the last two terms, which tend to the constants
    log(1-i) and log 2: where exp(log_gap) underflows to 0 the sum is
    the asymptote log(xi/4) to full precision.  For |xi| <= 1/4
    (log_gap <= log(1/4)), at any depth, the error in 1 - chi stays
    within 2e-15 relative plus the final rounding of chi, 2^-53.
    Callers guarantee |1 - xi| <= 1, so |phase| <= pi/2.
    """
    log_gap = np.asarray(log_gap, dtype=float)
    phase = np.asarray(phase, dtype=float)
    # Im z >= 0 means phase <= 0; reflect the rest
    lower = phase > 0.0
    log_xi = log_gap + 1j * np.where(lower, -phase, phase)
    xi = np.exp(log_xi)
    den = (1.0 - 1j) + 1j * xi
    eta = (1.0 + 1j) * xi / den
    c1 = (_LOG_MINUS_I + _LOG_ONE_PLUS_I + log_xi - maps._principal_log(den)
          - 2.0 * maps._principal_log(1.0 + np.sqrt(1.0 - eta)))
    chi = 1.0 - 1.0 / (1.0 - 2.0 / math.pi * c1)
    chi = np.where(phase == 0.0, chi.real + 0.0j, chi)
    return np.where(lower, np.conj(chi), chi)[()]


# kept points per block of sampled_covering's disk test, which bounds
# its (points x disks) distance array
COVER_CHUNK = 1 << 12


def sampled_covering(params, n, count=100_000, seed=17):
    """(kept, uncovered): the sampled covering check, the cross-check of
    verifier.check_covering's certificate.  count log gaps in
    [-(1.7 n + 40), -6] and as many phases in (-pi/2, pi/2), one seeded
    stream, give the cusp images chi(1 - xi) with |1 - xi| <= 1.  kept
    counts those deep (|chi| > 1 - sigma^j0 / k_hat) and farther than
    1/n from the cusp, and uncovered those of them outside every open
    disk D(1 - sigma^j, sigma^j / 4), j0 <= j <= N_n, tested against
    all disks at once."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    log_gap = rng.uniform(-(1.7 * n + 40.0), -6.0, count)
    phase = rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, count)
    inside = log_gap < np.log(2.0 * np.cos(phase))
    chi = cusp_from_log_gap(log_gap[inside], phase[inside])
    depth = 1.0 - params.sigma ** params.j0 / params.k_hat
    chi = chi[(np.abs(chi) > depth) & (np.abs(chi - 1.0) > 1.0 / n)]
    j = np.arange(params.j0, verifier._covering_end(
        n, params.theta, params.sigma) + 1)
    centres, radii = 1.0 - params.sigma ** j, params.sigma ** j / 4.0
    uncovered = 0
    for lo in range(0, chi.size, COVER_CHUNK):
        w = chi[lo:lo + COVER_CHUNK, None]
        uncovered += np.count_nonzero(
            ~np.any(np.abs(w - centres) < radii, axis=1))
    return chi.size, uncovered


def diag_derivative(coef: np.ndarray, k: int, b: complex) -> complex:
    """h_k(b) for f with coefficient table coef[a1, a2]: apply the
    k-th second-variable derivative exactly, then evaluate on the
    diagonal (b, b) by summing c * (a2)_k * b^(a1 + a2 - k)."""
    d1, d2 = coef.shape
    if k >= d2:
        return 0j
    falling = np.ones(d2 - k)
    for i in range(k):
        falling *= np.arange(k - i, d2 - i)
    # after dropping k: power a1 + a2 - k for a2 >= k, a Hankel index
    powers = np.vander([b], d1 + d2 - k - 1, increasing=True)[0]
    hankel = np.add.outer(np.arange(d1), np.arange(d2 - k))
    return complex(np.sum(coef[:, k:] * falling * powers[hankel]))


def derivative_trials(count, seed):
    """(coef, k, b) of the derivative suite's former random trials:
    coefficient-normalized polynomials of degree <= 10 per variable,
    k <= 6, and b uniform in area on |b| <= 0.999, from
    SeedSequence((seed, 2))."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    for _ in range(count):
        d = int(rng.integers(0, 11))
        coef = rng.standard_normal((d + 1, d + 1)) \
            + 1j * rng.standard_normal((d + 1, d + 1))
        coef /= np.linalg.norm(coef)
        k = int(rng.integers(0, 7))
        radius = math.sqrt(rng.random()) * 0.999
        yield coef, k, radius * np.exp(2j * math.pi * rng.random())


def schwarz_trials(count, seed):
    """(coef, k, n, a, b) of the Schwarz suite's former random trials:
    f = (z1 - a)^n q(z1) z2^k p(z2), coefficient-normalized, with q and
    p of degree 4, n <= 8, k <= 4, |a| <= 0.9 and
    |b - a| <= (rho/2)(1 - |a|) for rho = 1/2, from
    SeedSequence((seed, 3))."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    for _ in range(count):
        n = int(rng.integers(0, 9))
        k = int(rng.integers(0, 5))
        a = math.sqrt(rng.random()) * 0.9 * np.exp(2j * math.pi * rng.random())
        q = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        p = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lead = np.array([1.0 + 0j])
        for _ in range(n):
            lead = np.convolve(lead, np.array([-a, 1.0]))
        coef = np.outer(np.convolve(lead, q),
                        np.concatenate([np.zeros(k, complex), p]))
        coef /= np.linalg.norm(coef)
        r = rng.random() / 4.0 * (1.0 - abs(a))
        yield coef, k, n, a, a + r * np.exp(2j * math.pi * rng.random())


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc (numpy buffers included) above
    the level at the call.  One untraced warm-up call first, so that
    allocations a process makes once (caches, lazy imports) do not
    count."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def written_out_gram(op):
    """The column Gram of a hardy.ColumnGram built from the factors it
    holds: R^T R for g = 1, else G = sum_j E_j^T T_j^T T_j E_j with
    E_j[s, (a1, a2)] = W[a2, j] where s = a1 + a2, so that column
    (a1, a2) of T_j E_j is W[a2, j] times column a1 + a2 of T_j."""
    if op.expansion is None:
        (r,) = op.factors
        return r.T @ r
    idx = hardy.index_set(op.expansion.shape[0] - 1)
    gram = np.zeros((op.order, op.order))
    for j, t_j in enumerate(op.factors):
        m = t_j[:, idx.sum(axis=1)] * op.expansion[idx[:, 1], j]
        gram += m.T @ m
    return gram


def dense_column_gram(params, d, quad, kind="paper"):
    """(G, tail): the column Gram of hardy.column_gram_operator written
    out from its factors, symmetrised from its upper triangle, and the
    operator's truncation tail."""
    op = hardy.column_gram_operator(params, d, quad, kind)
    gram = written_out_gram(op)
    return np.triu(gram) + np.triu(gram, 1).T, op.tail


def all_modes_column_gram(params, d, quad, kind="paper"):
    """hardy.ColumnGram for an F = A symbol with a factor for every t2
    mode j = 0..D (j = 0 alone when B = 0), the oracle of
    column_gram_operator's cut at the modes it can see: the same
    factors T_j, the R of the thin QR of S_j, none dropped, and trace G
    as one sum over every held mode's column sums of squares."""
    data = hardy.symbol_boundary_data(params, quad.nodes, kind)
    idx = hardy.index_set(d)
    a1, a2 = idx[:, 0], idx[:, 1]
    modes = d + 1 if np.any(data.B) else 1
    w = np.stack([hardy._binomials(d, j) for j in range(modes)], axis=1)
    r = quad.factor(np.vander(data.F, 2 * d + 1, increasing=True))
    b = np.abs(np.concatenate([data.B, data.B]))[:, None]
    factors, diag = [], np.zeros((modes, 2 * d + 1))
    for j in range(modes):
        s_j = r[:, :2 * d + 1 - j] * b ** j
        s_j[np.abs(s_j) < hardy._SQRT_TINY] = 0.0
        diag[j, j:] = np.sum(s_j * s_j, axis=0)
        t_j = np.zeros((min(s_j.shape), 2 * d + 1))
        t_j[:, j:] = np.linalg.qr(s_j, mode="r")
        factors.append(t_j)
    trace = float(np.sum(w[a2] ** 2 * diag[:, a1 + a2].T))
    return hardy.ColumnGram(idx.shape[0], trace,
                            *hardy._truncation_tail(data, quad, trace),
                            factors=tuple(factors), expansion=w)


def mode_masses(op):
    """m_j = sum_alpha W[a2, j]^2 H_j[a1 + a2 - j, a1 + a2 - j], the Gram
    mass of each t2 mode op holds, from the column sums of squares of
    its factors, diag T_j^T T_j = diag H_j."""
    idx = hardy.index_set(op.expansion.shape[0] - 1)
    diag = np.array([np.sum(t * t, axis=0) for t in op.factors])
    return np.sum(op.expansion[idx[:, 1]].T ** 2
                  * diag[:, idx.sum(axis=1)], axis=1)


def stacked_product_gram(params, d, quad, kind="paper"):
    """Column Gram oracle for F = A symbols, by the per-j build:
    G = sum_j R_j^T R_j with R_j = [Re M_j; Im M_j],
    M_j[node, (a1, a2)] = sqrt(w/pi) F^a1 C(a2, j) A^(a2-j) |B|^j over
    the half-circle nodes of quad, each product scattered into the
    index_set layout.  It shares no code with hardy's moment route."""
    data = hardy.symbol_boundary_data(params, quad.nodes, kind)
    sqw = np.sqrt(quad.weights / math.pi)[:, None]
    f_pows = np.vander(data.F, d + 1, increasing=True)
    a_pows = np.vander(data.A, d + 1, increasing=True)
    pos = {(int(a1), int(a2)): i
           for i, (a1, a2) in enumerate(hardy.index_set(d))}
    gram = np.zeros((len(pos), len(pos)))
    for j in range(d + 1 if np.any(data.B) else 1):
        a1, a2 = np.mgrid[0:d + 1, j:d + 1].reshape(2, -1)
        comb = np.array([math.comb(int(n), j) for n in a2], dtype=float)
        m = (sqw * f_pows[:, a1] * comb * a_pows[:, a2 - j]
             * np.abs(data.B)[:, None] ** j)
        r = np.concatenate([m.real, m.imag])
        at = [pos[c] for c in zip(a1.tolist(), a2.tolist())]
        gram[np.ix_(at, at)] += r.T @ r
    return gram


def split_cuts(params, n):
    """(inner, outer) max-modulus cuts of the three-way split at rank n:
    the closed central bidisk up to inner = 1 - sigma^j0 / (2 k_hat),
    where the covering-scale budget still controls the middle shell,
    the half-open shell up to outer = 1 - 1/n, and the open outer
    layer.  For the calibrated parameters the cuts are strictly ordered
    only from n = 84 on."""
    inner = 1.0 - params.sigma ** params.j0 / (2.0 * params.k_hat)
    outer = 1.0 - 1.0 / n
    assert 0.0 < inner < outer < 1.0, "cuts out of order at n = %d" % n
    return inner, outer


def split_quadrature(n):
    """The graded t1 quadrature of the split at rank n, floored far
    enough below the cusp for the outer layer at this n."""
    floor = max(math.exp(-(math.pi / 2.0) * n * 1.25 - 30.0), 1e-300)
    return hardy.graded_quadrature(16, floor)


# (t1 node, t2 point) pairs per block of pair_stack_split_grams, which
# bounds the stacked rows to PAIR_CHUNK x (D+1)^2 complex entries
PAIR_CHUNK = 1 << 13


def pair_stack_split_grams(params, d, m2, n):
    """Real Gram matrices, in the index_set layout, of the monomial
    embedding restricted to the three regions of split_cuts(params, n),
    by the product rule over (t1, t2) pairs: on split_quadrature(n) in
    t1 and the midpoint grid of m2 points in t2, each pair's row
    sqrt(w/(pi m2)) w1^a1 w2^a2 over the index_set columns goes to the
    Gram R^T R, R = [Re V; Im V], of the region its max(|w1|, |w2|)
    falls in.  A column's t2 integrand has degree <= 2D < m2, so the
    grid integrates t2 exactly and the three Grams sum to the column
    Gram of hardy.column_gram_operator on the same t1 quadrature, which
    shares no Gram code with this product rule.  Returns (inner,
    middle, outer)."""
    quad = split_quadrature(n)
    data = hardy.symbol_boundary_data(params, quad.nodes, "paper")
    t2 = hardy.midpoint_nodes(m2)
    w1 = np.repeat(data.F, m2)
    w2 = (data.A[:, None] + data.B[:, None] * np.exp(1j * t2)[None, :]).ravel()
    sqw = np.sqrt(np.repeat(quad.weights, m2) / math.pi / m2)
    mx = np.maximum(np.abs(w1), np.abs(w2))
    region = np.digitize(mx, split_cuts(params, n), right=True)
    idx = hardy.index_set(d)
    grams = np.zeros((3, idx.shape[0], idx.shape[0]))
    for lo in range(0, mx.size, PAIR_CHUNK):
        part = slice(lo, lo + PAIR_CHUNK)
        p1 = np.vander(w1[part], d + 1, increasing=True)
        p2 = np.vander(w2[part], d + 1, increasing=True)
        v = sqw[part, None] * p1[:, idx[:, 0]] * p2[:, idx[:, 1]]
        for k in range(3):
            sel = region[part] == k
            if np.any(sel):
                r = np.concatenate([v[sel].real, v[sel].imag])
                grams[k] += r.T @ r
    return tuple(grams)


def window_integrals(h, params, quad=None):
    """(I0, I) over the Carleson window {t1 : |chi(e^{it1}) - 1| <= h}:

      I0(h) = int dt / (1 - |chi(e^{it})|)^2, plain dt over the full
              circle (both signs of t),
      I(h)  = (2pi)^{-2} int dt1 dt2 / ((1 - |w1|)(1 - |w2|)),

    the latter in normalized Haar measure, so that I <= (2/(2pi)) I0 by
    the calibration margin 1 - |w2| >= (1 - |w1|)/2.  The t1 integrals
    run on quad, by default hardy.graded_quadrature(16, floor) with the
    floor a few decades below the window's half-length
    ~ exp(-pi/(2h) + 2.2); the t2 integral is a smooth periodic average
    over 256 midpoints."""
    if quad is None:
        floor = max(math.exp(-math.pi / (2.0 * h) * 1.5 - 30.0), 1e-300)
        quad = hardy.graded_quadrature(16, floor)
    data = hardy.symbol_boundary_data(params, quad.nodes, "paper")
    mask = np.abs(data.F - 1.0) <= h
    assert np.any(mask), "no quadrature node inside the window"
    w, gap1 = quad.weights[mask], 1.0 - np.abs(data.F[mask])
    i0 = 2.0 * float(np.sum(w * (1.0 / gap1 ** 2)))
    t2 = hardy.midpoint_nodes(256)
    w2 = data.A[mask, None] + data.B[mask, None] * maps.expi(t2)[None, :]
    inner = np.mean(1.0 / (1.0 - np.abs(w2)), axis=1)
    return i0, float(np.sum(w * (inner / gap1))) / math.pi
