import math

import numpy as np
import pytest

from cuspdecay import hardy
from cuspdecay.maps import SymbolParams


@pytest.fixture(scope="session")
def params():
    # frozen output of maps.build_params() with the default seeds;
    # test_maps checks the pipeline still reproduces these
    return SymbolParams(theta=0.5, c=1.456697e-3, k_hat=2.519054)


@pytest.fixture(scope="session")
def small_spec():
    return hardy.TruncationSpec(16, 256)


def stacked_product_gram(params, spec, kind="paper"):
    """Column Gram oracle for F = A symbols, by the per-j build:
    G = sum_j R_j^T R_j with R_j = [Re M_j; Im M_j],
    M_j[node, (a1, a2)] = sqrt(w/pi) F^a1 C(a2, j) A^(a2-j) |B|^j over
    the half-circle nodes, each product scattered into the index_set
    layout.  It shares no code with hardy's moment route."""
    d = spec.max_degree
    quad = hardy.circle_quadrature(spec.quad_points)
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
