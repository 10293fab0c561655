"""Verification suites: frozen witnesses at reduced budgets, report
plumbing, budget validation, and the random oracles the certificates
must dominate."""

import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from mpmath import mp

from cuspdecay import cli, maps, verifier
from cuspdecay.errors import ConfigurationError
from conftest import (derivative_trials, diag_derivative, sampled_covering,
                      schwarz_trials, traced_peak)


def _json(rep) -> str:
    """A report as the verify verb writes it into verify.json."""
    return json.dumps(dict(asdict(rep), passed=rep.passed), sort_keys=True)


def test_report_plumbing():
    rep = verifier.VerificationReport("demo", 10)
    assert rep.passed
    rep.constants["x"] = 1.5
    d = json.loads(_json(rep))
    assert set(d) == {"suite", "samples", "violations", "constants",
                      "passed"}
    assert d["suite"] == "demo" and d["samples"] == 10
    assert d["passed"] is True and d["constants"] == {"x": 1.5}
    first = _json(rep)
    assert first == _json(rep)  # deterministic
    rep.violations.append({"item": "boom"})
    assert not rep.passed
    assert json.loads(_json(rep))["passed"] is False


def test_geometry_suite_reduced_budget():
    rep = verifier.check_cusp_geometry(10_000)
    assert rep.passed and rep.suite == "cusp_geometry"
    assert rep.violations == []
    lo, hi = rep.constants["gap_log_bracket"]
    assert abs(lo - 0.09740776362905418) < 1e-15
    assert abs(hi - 1.3462467442945374) < 1e-13
    # the bracket value falls at every grid step: no gap_log_rise
    assert not [v for v in rep.violations if v["item"] == "gap_log_rise"]
    assert abs(rep.constants["k_hat"] - (1 + math.sqrt(2))) < 1e-15
    # the corner t = pi/2 is a node, where the ratio reaches K
    assert rep.constants["k_hat"] - 1e-7 < rep.constants["distortion_sup"]
    assert rep.constants["distortion_sup"] <= rep.constants["k_hat"]
    with pytest.raises(ConfigurationError):
        verifier.check_cusp_geometry(2_000)


def _grouped_first_ten(rep, items):
    """The report's witnesses per item, after checking that each item's
    are contiguous, in the given order, and at most ten."""
    order = [v["item"] for v in rep.violations]
    assert order == sorted(order, key=items.index)
    got = {item: [v for v in rep.violations if v["item"] == item]
           for item in items}
    assert all(len(w) <= 10 for w in got.values())
    return got


_GEOMETRY_ITEMS = ("lens_outer", "lens_upper", "lens_lower", "near_one",
                   "real_part", "imag_vs_gap", "distortion", "gap_log_rise")


def _circle_points(count):
    """(grid, t): the geometry and calibration suites' bracket grid of
    count points, and t, that grid followed by the rest of the half
    circle, as whole arrays."""
    grid = np.geomspace(1e-8, math.pi / 4.0, count)
    return grid, np.concatenate([
        grid, np.geomspace(1e-300, 1e-8, 2000, endpoint=False),
        np.linspace(math.pi / 4.0, math.pi / 2.0, 1001)[1:],
        np.linspace(math.pi / 2.0, math.pi, 1001)[1:]])


def _geometry_point_witnesses(tol, block, count=10_000):
    """The geometry suite's witnesses at tolerance tol, the real axis
    aside, from whole-array masks over its circle points: the bracket
    grid, then the rest of the half circle.  The suite checks the grid
    block by block, the seven point items and then gap_log_rise in
    each, and the rest as one more block, and files each item's
    witnesses together, the items in the order they first fail: the
    oracle for the streamed suite.  Also returns each item's hit
    indices, a rise's being the index of the step's second point."""
    grid, t = _circle_points(count)
    chi = maps.cusp_on_circle(t)
    gap = 1.0 - np.abs(chi)
    value = (1.0 - chi[:count].real) * np.log(1.0 / grid)
    hits = {item: np.nonzero(mask)[0] for item, mask in (
        ("lens_outer", np.abs(chi - 0.5) > 0.5 + tol),
        ("lens_upper", np.abs(chi - (1.0 + 0.5j)) < 0.5 - tol),
        ("lens_lower", np.abs(chi - (1.0 - 0.5j)) < 0.5 - tol),
        ("near_one", np.abs(chi - 1.0) > 1.0 + tol),
        ("real_part", (chi.real < -tol) | (chi.real > 1.0 + tol)),
        ("imag_vs_gap", np.abs(chi.imag) > 2.0 * (1.0 - chi.real) ** 2 + tol),
        ("distortion",
         np.abs(1.0 - chi) > (1 + math.sqrt(2)) * gap + tol))}
    hits["gap_log_rise"] = 1 + np.nonzero(np.diff(value) > tol)[0]
    witnesses = {item: [{"item": item, "t": t[i],
                         "chi": verifier._c2s(chi[i])} for i in idx[:10]]
                 for item, idx in hits.items()}
    witnesses["gap_log_rise"] = [
        {"item": "gap_log_rise", "t": [grid[i - 1], grid[i]],
         "value": [value[i - 1], value[i]]}
        for i in hits["gap_log_rise"][:10]]

    def first_fail(item):
        i = hits[item][0]
        return (i // block if i < count else math.inf,
                _GEOMETRY_ITEMS.index(item))

    order = sorted((item for item in hits if hits[item].size), key=first_fail)
    return [w for item in order for w in witnesses[item]], hits


def test_geometry_suite_witnesses_every_item(monkeypatch):
    # a negative tolerance turns the inequalities but the exact real
    # axis one into violations: at -1 nearly everywhere, at -0.03 on
    # stretches of the circle, so that with 64-point blocks an item's
    # first witness can sit blocks after another item's, and the items
    # file out of their check order
    hits_at = {}
    for tol, block in ((-1.0, maps.SAMPLE_BLOCK), (-1.0, 64),
                       (-0.03, maps.SAMPLE_BLOCK), (-0.03, 64)):
        monkeypatch.setattr(verifier, "GEOMETRY_TOLERANCE", tol)
        monkeypatch.setattr(maps, "SAMPLE_BLOCK", block)
        rep = verifier.check_cusp_geometry(10_000)
        want, hits_at[tol] = _geometry_point_witnesses(tol, block)
        got = _grouped_first_ten(rep, [v["item"] for v in want])
        assert all(len(got[item]) == 10 for item in _GEOMETRY_ITEMS)
        assert rep.violations == want
    # at -1, every item fires from the grid's first point or step on
    assert all(idx[0] <= 1 for idx in hits_at[-1.0].values())
    # at -0.03, real_part and distortion first fail in the deep
    # stretch after the grid, lens_outer blocks into the grid
    hits = hits_at[-0.03]
    assert hits["real_part"][0] >= 10_000 and hits["distortion"][0] >= 10_000
    assert hits["lens_outer"][0] >= 2 * 64 and hits["lens_upper"][0] == 0


def test_geometry_suite_witnesses_bracket_rise(monkeypatch):
    # lowering Re chi at three grid points makes the bracket value rise
    # there, the first at the first point of the second 64-point block,
    # whose step starts in the block before
    grid = np.geomspace(1e-8, math.pi / 4.0, 10_000)
    raised = grid[[64, 130, 5000]]
    on_circle = maps.cusp_on_circle
    monkeypatch.setattr(maps, "cusp_on_circle",
                        lambda t: on_circle(t) - 0.01 * np.isin(t, raised))
    tol = verifier.GEOMETRY_TOLERANCE
    want, hits = _geometry_point_witnesses(tol, 64)
    assert list(hits["gap_log_rise"]) == [64, 130, 5000]
    assert [v["item"] for v in want] == ["gap_log_rise"] * 3
    for block in (maps.SAMPLE_BLOCK, 64):
        monkeypatch.setattr(maps, "SAMPLE_BLOCK", block)
        assert verifier.check_cusp_geometry(10_000).violations == want


def _unclamped_chi0(z):
    """chi0_values without its real-axis clamp: on the axis, Im chi0
    is left as the rounding of the Moebius and square-root steps."""
    z = np.asarray(z, dtype=complex)
    lower = z.imag < 0.0
    zz = np.where(lower, np.conj(z), z)
    m = (zz - 1j) / (1j * zz - 1.0)
    m = np.where(m.imag <= 0.0, m.real + 0.0j, m)
    s = np.sqrt(m)
    c0 = (s - 1j) / (1.0 - 1j * s)
    return np.where(lower, np.conj(c0), c0)[()]


def test_geometry_suite_witnesses_real_axis(monkeypatch):
    # the real_axis item reads the chain's own output: with stage 0
    # unclamped, the axis points whose chi picks up an imaginary part
    # are its witnesses, and at the suite's tolerance no other item
    # fires.  At -1 every item fires from the first block on, and the
    # real axis, checked after the circle, files its witnesses last
    monkeypatch.setattr(maps, "chi0_values", _unclamped_chi0)
    axis = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001) + 0j
    chi = maps.cusp_values(axis)
    first = np.nonzero(chi.imag != 0.0)[0][:10]
    assert first.size == 10
    on_axis = [{"item": "real_axis", "z": verifier._c2s(axis[i]),
                "chi": verifier._c2s(chi[i])} for i in first]
    for tol, block in ((verifier.GEOMETRY_TOLERANCE, maps.SAMPLE_BLOCK),
                       (verifier.GEOMETRY_TOLERANCE, 64), (-1.0, 64)):
        monkeypatch.setattr(verifier, "GEOMETRY_TOLERANCE", tol)
        monkeypatch.setattr(maps, "SAMPLE_BLOCK", block)
        rep = verifier.check_cusp_geometry(10_000)
        if tol < 0.0:
            points, _ = _geometry_point_witnesses(tol, block)
            assert rep.violations == points + on_axis
        else:
            assert rep.violations == on_axis


def test_covering_suite_witnesses_uncovered(params):
    # sigma = 1/2: scaled, consecutive disks meet at a = 19/64 from the
    # larger centre, past its radius 1/4, so the union leaves gaps
    # between them that the sample finds and the strip item witnesses
    coarse = replace(params, sigma=0.5, j0=4)
    for n, end in ((100, 16), (1000, 22)):
        rep = verifier.check_covering(n, coarse)
        assert rep.violations == [
            {"item": "strip", "x": [0.5 ** end, 0.0625],
             "value": 4.0 / 16 ** 2, "bound": 1.0 / 16 - (19 / 64) ** 2}]
        assert rep.constants["slack"]["strip"] == -0.041259765625
        kept, uncovered = sampled_covering(coarse, n)
        assert 0 < uncovered < kept
    # at n = 10 the hypothesis region is empty, so the gaps do not count
    rep = verifier.check_covering(10, coarse)
    assert rep.passed and rep.constants["vacuous"]
    assert rep.constants["slack"]["strip"] < 0.0
    assert sampled_covering(coarse, 10) == (0, 0)


def test_calibration_suite_reduced_budget(params):
    rep = verifier.check_calibration(params, 50_000)
    assert rep.passed and rep.suite == "calibration"
    # both margins are least at the point nearest the cusp, t = 1e-300
    assert abs(rep.constants["reach_margin_min"]
               - 0.002264256027144983) < 1e-16
    assert rep.constants["half_gap_margin_min"] \
        == rep.constants["reach_margin_min"] / 2.0
    assert rep.constants["reach_fraction"] == maps.reach_fraction(params)
    # at theta = 1/2 the damping bound peaks far from the cusp, where
    # LENS_K sets q
    assert rep.constants["reach_bound"] == "LENS_K"
    assert rep.constants["reach_slack"] == 1.0 - maps.reach_fraction(params)
    assert rep.constants["damping_peak_gap"] == maps._damping_peak(0.5)[0]
    # the margin at the worst u is the min over the disk: no u on a
    # 4096-point unimodular grid does worse, beyond the rounding of the
    # squared form below (its terms are near 1 by the cusp, where the
    # min sits), and the grid comes within 1e-10.
    # |chi + c phi u|^2 = |chi|^2 + |c phi|^2 + 2 Re(b u) with
    # b = conj(chi) c phi, so each point needs only max_u Re(b u).
    chi = maps.cusp_on_circle(_circle_points(50_000)[1])
    cphi = params.c * maps.phi_values(chi, params.theta)
    b = np.conj(chi) * cphi
    re_bu = np.full(chi.size, -np.inf)
    for k in range(0, 4096, 64):  # 64 grid points of u at a time
        t = 2.0 * math.pi * np.arange(k, k + 64) / 4096.0
        cos_sin = np.stack([np.cos(t), np.sin(t)])
        re_bu = np.maximum(re_bu, np.max(
            np.stack([b.real, -b.imag], axis=1) @ cos_sin, axis=1))
    w2 = np.sqrt(np.abs(chi) ** 2 + np.abs(cphi) ** 2 + 2.0 * re_bu)
    grid_min = float(np.min((1.0 - w2) - (1.0 - np.abs(chi)) / 2.0))
    half_min = rep.constants["half_gap_margin_min"]
    assert half_min - 4 * 2.0 ** -52 <= grid_min <= half_min + 1e-10
    with pytest.raises(ConfigurationError):
        verifier.check_calibration(params, 9_999)


def _broadcast_calibration(params, sample_count):
    """The calibration suite's reach witnesses and margins from
    whole-array masks over its circle points, |phi| from
    maps.phi_modulus and the half-gap margin in closed form,
    (1 - |chi|) / 2 - c |phi|, its value at the worst
    u* = exp(i (arg chi - arg phi)): the oracle for the streamed suite."""
    rep = verifier.VerificationReport("calibration", sample_count)
    t = _circle_points(sample_count)[1]
    chi = maps.cusp_on_circle(t)
    phi = maps.phi_modulus(chi, params.theta)
    gap = 1.0 - np.abs(chi)
    reach_margin = gap - 2.0 * (params.c * phi)
    half_margin = gap / 2.0 - params.c * phi
    bad = np.nonzero(reach_margin <= 0.0)[0]
    for i in bad[:10]:
        rep.violations.append(
            {"item": "reach", "t": t[i], "margin": float(reach_margin[i])})
    rep.constants["reach_margin_min"] = float(reach_margin.min())
    rep.constants["half_gap_margin_min"] = float(half_margin.min())
    rep.constants["reach_fraction"] = maps.reach_fraction(params)
    rep.constants["reach_bound"] = maps.reach_bound(params)[1]
    rep.constants["reach_slack"] = 1.0 - maps.reach_fraction(params)
    rep.constants["damping_peak_gap"] = maps._damping_peak(params.theta)[0]
    return rep, bad


def test_calibration_blocks_match_broadcast_oracle(params, monkeypatch):
    block = maps.SAMPLE_BLOCK
    count = 3 * block + 1234  # the grid's last slice is a partial one
    got = verifier.check_calibration(params, count)
    want, _ = _broadcast_calibration(params, count)
    assert got.passed and got.violations == []
    assert got.constants == want.constants  # bit for bit
    # a c far past calibration at theta = 0.1 breaks the reach
    # inequality all over the circle
    loose = maps.SymbolParams(theta=0.1, c=0.6, k_hat=2.519054)
    got = verifier.check_calibration(loose, count)
    want, reach = _broadcast_calibration(loose, count)
    # it fails in every slice of the grid, the last partial one
    # included, and in the rest of the circle
    assert np.all(np.isin(np.arange(4), reach // block))
    assert reach[-1] >= count
    assert _json(got) == _json(want)
    assert [v["item"] for v in got.violations] == ["reach"] * 10
    # with 4-point slices the first ten witnesses span three
    monkeypatch.setattr(maps, "SAMPLE_BLOCK", 4)
    assert reach[9] >= 2 * 4
    assert _json(verifier.check_calibration(loose, count)) == _json(want)


def test_calibration_memory_per_sample(params):
    # the (samples x 16) arrays cost ~570 B per sample; the streamed
    # suite holds nothing between fixed-size blocks, so its peak does
    # not grow with the sample
    small = traced_peak(verifier.check_calibration, params, 200_000)
    large = traced_peak(verifier.check_calibration, params, 400_000)
    assert large - small <= 200_000 * 1


_FAULT_PROBE = """
import resource, sys
from cuspdecay import maps, verifier
params = maps.SymbolParams(theta=0.5, c=float(sys.argv[1]),
                           k_hat=float(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
verifier.check_calibration(params, int(sys.argv[3]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count depends on glibc's malloc")
def test_calibration_takes_no_page_faults_per_block(params):
    # in a fresh interpreter, so that no earlier test has shaped the
    # heap, the suite takes about 20 minor faults at 4096-point blocks,
    # about 2 850 at 8192 (128 KiB complex temporaries, glibc's mmap
    # threshold) and about 19 700 at 8192 with masked copies made on
    # every block
    default = cli.RunConfig().calibration_samples
    src = os.path.dirname(os.path.dirname(os.path.abspath(maps.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, repr(params.c),
         repr(params.k_hat), str(default)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_geometry_memory_per_sample():
    # the whole-array suite grew 136 B per sample; the streamed one
    # forms the bracket's t grid a slice at a time, so its peak does
    # not grow with the sample
    small = traced_peak(verifier.check_cusp_geometry, 100_000)
    large = traced_peak(verifier.check_cusp_geometry, 200_000)
    assert large - small <= 100_000 * 4


# counts about one block of SAMPLE_BLOCK and about a fixed 8192 points
@pytest.mark.parametrize("count", sorted({
    2, 3, maps.SAMPLE_BLOCK - 1, maps.SAMPLE_BLOCK, maps.SAMPLE_BLOCK + 1,
    8191, 8192, 8193, 100_000, 200_000}))
def test_bracket_grid_slices_match_geomspace(count):
    slices = list(verifier._bracket_grid_slices(count))
    assert all(0 < t.size <= maps.SAMPLE_BLOCK for t in slices)
    want = np.geomspace(1e-8, math.pi / 4.0, count)
    assert np.concatenate(slices).tobytes() == want.tobytes()


def test_covering_family_for_size(params):
    family = {n: verifier.check_covering(n, params).constants["family"]
              for n in (10, 100, 1000)}
    assert {n: f["end_index"] for n, f in family.items()} == {
        10: 45, 100: 80, 1000: 114}
    assert all(f["start_index"] == params.j0 and f["shrink"] == params.sigma
               for f in family.values())


def test_covering_suite_frozen_counts(params):
    sampled = {}
    for n in (10, 100, 1000):
        rep = verifier.check_covering(n, params)
        assert rep.passed and rep.violations == []
        assert rep.samples == 0 and rep.suite == "covering_n%d" % n
        assert rep.constants["vacuous"] == (n == 10)
        assert all(v > 0.0 for v in rep.constants["slack"].values())
        sampled[n] = sampled_covering(params, n)
    # n = 10: comparability forces |chi - 1| < 1/10 on the whole deep
    # region, so the hypothesis set is empty by design
    assert sampled == {10: (0, 0), 100: (45045, 0), 1000: (86610, 0)}
    with pytest.raises(ConfigurationError):
        verifier.check_covering(1, params)
    # N_2 = 3 < j0 = 4: no family to cover with
    with pytest.raises(ConfigurationError, match="empty"):
        verifier.check_covering(2, replace(params, theta=0.9, sigma=0.5,
                                           j0=4))


def _build_default(params):
    return maps.build_params(0.5, "identity_in_z2", 100_000, 17)


@pytest.mark.parametrize("case", [
    _build_default,
    lambda p: p,
    lambda p: replace(p, sigma=0.7, j0=10),
    lambda p: replace(p, sigma=0.9, j0=27),
    lambda p: replace(p, k_hat=1.0),
    lambda p: replace(p, sigma=0.5, j0=4),
], ids=["defaults", "conftest", "sigma0.7", "sigma0.9", "k1", "sigma0.5"])
def test_covering_certificate_agrees_with_sample(params, case):
    # the certificate passes exactly where 1e5 samples find no
    # uncovered point, and calls the region empty exactly where they
    # keep none
    family = case(params)
    for n in verifier.COVERING_SIZES:
        rep = verifier.check_covering(n, family)
        kept, uncovered = sampled_covering(family, n)
        assert rep.passed == (uncovered == 0)
        assert rep.constants["vacuous"] == (kept == 0)


def test_diag_derivative_matches_polynomial_calculus():
    # numpy's polynomial module differentiates in z2 and evaluates at
    # (b, b); the sums differ in order, so allow 64 eps of the sum of
    # the terms' moduli
    P = np.polynomial.polynomial
    rng = np.random.default_rng(21)
    for d1, d2, k in ((1, 1, 0), (4, 7, 2), (11, 11, 6), (3, 5, 4),
                      (6, 2, 1), (9, 3, 0)):
        coef = rng.standard_normal((d1, d2)) \
            + 1j * rng.standard_normal((d1, d2))
        b = 0.99 * np.exp(2j * math.pi * rng.random())
        der = P.polyder(coef, m=k, axis=1)
        ref = P.polyval2d(b, b, der)
        scale = P.polyval2d(abs(b), abs(b), np.abs(der))
        got = diag_derivative(coef, k, b)
        assert type(got) is complex
        assert abs(got - ref) <= 64.0 * 2.0 ** -52 * scale, (d1, d2, k)
    assert diag_derivative(np.ones((3, 2)), 2, 0.5) == 0j


def _derivative_bound(k, r):
    """The stated bound k! 2^{k+1} (1 - r)^{-(k+1)} at |b| = r."""
    return math.factorial(k) * 2.0 ** (k + 1) / (1.0 - r) ** (k + 1)


def test_representer_reaches_the_closed_form():
    # the representer of h_k(b), v[a1, a2] = (a2)_k conj(b)^(a1+a2-k),
    # truncated at degree 60, attains |h_k(b)| = ||v|| at f = v / ||v||,
    # the closed-form sup
    a1, a2 = np.mgrid[0:61, 0:61]
    for k in range(7):
        falling = np.prod([a2 - i for i in range(k)], axis=0).astype(float)
        for r in (0.0, 0.1, 0.3, 0.5):
            b = r * np.exp(0.7j)
            v = np.where(a2 >= k, falling * np.conj(b) ** np.maximum(
                a1 + a2 - k, 0), 0.0)
            v /= np.linalg.norm(v)
            got = abs(diag_derivative(v, k, b))
            want = verifier._derivative_sup(k, r)
            assert abs(got - want) <= 1e-12 * want, (k, r)


def test_random_trials_lie_below_the_derivative_certificate():
    # every former random trial (seed 17) lies at or below the exact sup
    # at its own (k, |b|), up to 64 eps of the sum of its terms' moduli,
    # and the trials reproduce the former suite's largest ratio
    eps, worst = 2.0 ** -52, 0.0
    for coef, k, b in derivative_trials(1000, 17):
        value = abs(diag_derivative(coef, k, b))
        terms = diag_derivative(np.abs(coef), k, abs(b)).real
        assert value <= verifier._derivative_sup(k, abs(b)) + 64 * eps * terms
        worst = max(worst, value / _derivative_bound(k, abs(b)))
    assert abs(worst - 0.3036408492053577) < 1e-14


def test_random_trials_lie_below_the_schwarz_certificate():
    # each product f = (z1 - a)^n q(z1) z2^k p(z2) of the former suite
    # (seed 17) has h_k vanishing to order n at a, so |h_k(b)| is at
    # most rho^n times the exact sup at (1 + |a|) / 2
    eps, worst = 2.0 ** -52, 0.0
    for coef, k, n, a, b in schwarz_trials(1000, 17):
        value = abs(diag_derivative(coef, k, b))
        terms = diag_derivative(np.abs(coef), k, abs(b)).real
        cert = 0.5 ** n * verifier._derivative_sup(k, (1.0 + abs(a)) / 2.0)
        assert value <= cert + 64 * eps * terms
        bound = 0.5 ** n * math.factorial(k) * 4.0 ** (k + 1) \
            / (1.0 - abs(a)) ** (k + 1)
        worst = max(worst, value / bound)
    assert abs(worst - 0.07944318896582407) < 1e-14


def test_derivative_bound_suite():
    rep = verifier.check_derivative_bound(1000)
    assert rep.passed and rep.violations == []
    assert rep.samples == 1000
    assert rep.constants["max_ratio"] == 0.5
    assert rep.constants["max_at"] == {"k": 0, "b": 0.0}
    # the proof's ratio bound 1 / (2^{k+1} (1 + r)) on the whole grid
    r = np.linspace(0.0, 0.999, 1000)
    for k in range(7):
        ratio = verifier._derivative_sup(k, r) / _derivative_bound(k, r)
        assert np.all(ratio <= (1 + 1e-14) / (2.0 ** (k + 1) * (1.0 + r)))
    with pytest.raises(ConfigurationError):
        verifier.check_derivative_bound(0)


def test_schwarz_bound_suite():
    rep = verifier.check_schwarz_bound(1000)
    assert rep.passed and rep.violations == []
    assert rep.constants["max_ratio"] == 1.0 / 3.0
    assert rep.constants["max_at"] == {"k": 0, "vanish_order": 0, "a": 0.0}
    with pytest.raises(ConfigurationError):
        verifier.check_schwarz_bound(-3)


def test_derivative_suites_keep_ten_witnesses(monkeypatch):
    # an infinite sup breaks both certificates at every grid point; each
    # suite keeps the first ten, its first case's first ten grid points,
    # whatever the slice length
    monkeypatch.setattr(verifier, "_derivative_sup",
                        lambda k, r: np.full(np.shape(r), np.inf))
    default_block = maps.SAMPLE_BLOCK
    for check, key, stop in ((verifier.check_derivative_bound, "b", 0.999),
                             (verifier.check_schwarz_bound, "a", 0.9)):
        rep = check(1000)
        assert not rep.passed and len(rep.violations) == 10
        grid = np.linspace(0.0, stop, 1000)
        assert [v[key] for v in rep.violations] == list(grid[:10])
        assert all(v["k"] == 0 and v.get("vanish_order", 0) == 0
                   for v in rep.violations)
        monkeypatch.setattr(maps, "SAMPLE_BLOCK", 4)
        assert check(1000).violations == rep.violations
        monkeypatch.setattr(maps, "SAMPLE_BLOCK", default_block)


@pytest.mark.parametrize("check", [verifier.check_derivative_bound,
                                   verifier.check_schwarz_bound])
def test_derivative_grid_memory_per_point(check):
    # a whole-array grid would grow several arrays of 8 B per point;
    # the streamed suites form it a slice at a time
    small = traced_peak(check, 50_000)
    large = traced_peak(check, 100_000)
    assert large - small <= 50_000 * 1


def test_codim_count_suite(params):
    rep = verifier.check_codim_count([10, 100, 1000, 10_000], params)
    assert rep.passed and rep.violations == []
    assert rep.constants["ratio_bound_q"] == 16.0
    assert rep.constants["ratios"] == {
        "10": 16.0, "100": 14.79, "1000": 14.535, "10000": 14.4901}
    assert abs(rep.constants["series_limit"] - 14.48331477354788) < 1e-13
    assert abs(rep.constants["top_relative_gap"]
               - 0.0004684857408824965) < 1e-16
    # one constant works across the whole range and the ratios decrease
    vals = [rep.constants["ratios"][k] for k in ("10", "100", "1000", "10000")]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] > rep.constants["series_limit"]
    with pytest.raises(ConfigurationError):
        verifier.check_codim_count([], params)
    with pytest.raises(ConfigurationError):
        verifier.check_codim_count([0, 10], params)


def _codim_oracle(n, theta, shrink):
    """(N_n, [block sizes for j = 1..N_n]) in 50-digit mpmath."""
    with mp.workdps(50):
        theta_mp, shrink_mp = mp.mpf(theta), mp.mpf(shrink)
        end = int(mp.floor(mp.log(2 * n) / (theta_mp * mp.log(1 / shrink_mp))))
        sizes = [int(mp.floor(n * shrink_mp ** (j * theta_mp))) + 1
                 for j in range(1, end + 2)]
    return end + 1, sizes


@pytest.mark.parametrize("shrink", [0.5, 0.875])
@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_codim_floors_match_mpmath_oracle(theta, shrink, params,
                                         monkeypatch):
    # at theta = 0.5 and shrink = 0.5, n shrink^(j theta) is a whole
    # number for even j whenever 2^(j/2) divides n (n = 8, 32, 1000,
    # 8192), and 2n is a whole power of shrink^-theta at n = 2 and 8
    sizes = [1, 2, 3, 8, 10, 32, 100, 1000, 8192, 10_000]
    monkeypatch.setattr(verifier, "WITNESS_CAP", 10 ** 6)
    rep = verifier.check_codim_count(
        sizes, replace(params, theta=theta, sigma=shrink))
    want = {"range_formula": [], "block_size_formula": []}
    for n in sizes:
        end, blocks = _codim_oracle(n, theta, shrink)
        double = verifier._covering_end(n, theta, shrink)
        if double != end:
            want["range_formula"].append(
                {"item": "range_formula", "n": n, "double": double,
                 "exact": end})
        for j, m in enumerate(blocks, start=1):
            double = int(math.floor(n * shrink ** (j * theta))) + 1
            if double != m:
                want["block_size_formula"].append(
                    {"item": "block_size_formula", "n": n, "j": j,
                     "double": double, "exact": m})
        assert rep.constants["ratios"][str(n)] == float(sum(blocks)) / n
    for item, entries in want.items():
        assert [v for v in rep.violations if v["item"] == item] == entries


def test_codim_limit_formula(params):
    # the calibrated parameters: theta = 0.5, sigma = 0.875
    rep = verifier.check_codim_count([10_000], params)
    s = 0.875 ** 0.5
    assert rep.constants["series_limit"] == s / (1.0 - s)


def test_run_all_reduced_budgets(params, monkeypatch):
    monkeypatch.setattr(verifier, "COVERING_SIZES", (100,))
    monkeypatch.setattr(verifier, "CODIM_SIZES", (10, 100))
    budgets = (10_000, 10_000, 50)
    reports = verifier.run_all(params, *budgets)
    assert [r.suite for r in reports] == [
        "cusp_geometry", "calibration", "covering_n100",
        "derivative_bound", "schwarz_bound", "codim_count"]
    assert all(r.passed for r in reports)
    # deterministic end to end
    again = verifier.run_all(params, *budgets)
    assert [_json(r) for r in again] == [_json(r) for r in reports]


def test_run_all_draws_nothing(params, monkeypatch):
    # no suite draws a random number: with numpy's generators and the
    # global stream disabled the sweep still runs, and gives the same
    # reports as with them
    monkeypatch.setattr(verifier, "COVERING_SIZES", (10, 100))
    monkeypatch.setattr(verifier, "CODIM_SIZES", (10, 100))
    want = verifier.run_all(params, 10_000, 10_000, 50)

    def no_draw(*args, **kwargs):
        raise AssertionError("a suite draws a random number")

    for name in ("default_rng", "SeedSequence", "Generator",
                 "RandomState", "seed", "random", "uniform", "normal"):
        monkeypatch.setattr(np.random, name, no_draw)
    got = verifier.run_all(params, 10_000, 10_000, 50)
    assert got == want
