import math

import numpy as np
import pytest

from bvqlab import build_mollifier
from bvqlab._special import gauss_jacobi
from bvqlab.mollifier import (
    _NODES,
    _ball_rule_cached,
    _radial_rule,
    defect_moment,
    energy_bound_coefficients,
    polynomial_moment_closed_form,
    sphere_surface,
)


def _d_eta(eta, nodes=_NODES):
    """The cubic chain's bound constant
    (int |z|^{1/2} |grad eta|^{3/2} dz)^2 + (int |z|^2 eta^3 dz)^{1/2}."""
    m1 = eta.radial_moment(0.5, 1.5, True, nodes)
    m2 = eta.radial_moment(2.0, 3.0, False, nodes)
    return m1 * m1 + math.sqrt(m2)


def test_polynomial_normalization_closed_form():
    eta = build_mollifier("polynomial-bump", 1, k=2)
    assert eta.normalization == pytest.approx(15.0 / 16.0, rel=1e-14)


@pytest.mark.parametrize("profile,dim,k", [
    ("polynomial-bump", 1, 2),
    ("polynomial-bump", 2, 3),
    ("polynomial-bump", 3, 2),
    ("exponential-bump", 1, None),
    ("exponential-bump", 2, None),
])
def test_unit_mass_double_resolution(profile, dim, k):
    eta = build_mollifier(profile, dim, k=k)
    doubled = eta.radial_moment(0.0, 1.0, False, 2 * _NODES)
    assert abs(doubled - 1.0) < 1e-10
    assert abs(doubled - eta.mass()) < 1e-9 * 1.0


def test_exponential_2d_normalization_vs_double_resolution():
    eta = build_mollifier("exponential-bump", 2)
    c_double = 1.0 / (eta.radial_moment(0.0, 1.0, False, 128) / eta.normalization)
    assert abs(c_double - eta.normalization) < 1e-10


@pytest.mark.parametrize("k", [2.5, 3.0, True])
def test_polynomial_k_must_be_an_integer(k):
    # int() would build k = 2 from 2.5
    with pytest.raises(ValueError, match="k must be an integer"):
        build_mollifier("polynomial-bump", 2, k=k)


def test_polynomial_k_takes_numpy_integers():
    eta = build_mollifier("polynomial-bump", 2, k=np.int64(3))
    assert type(eta.k) is int and eta.normalization == build_mollifier("polynomial-bump", 2, k=3).normalization


def test_support_and_sign():
    eta = build_mollifier("exponential-bump", 2)
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [0.9, 0.0], [1.1, 0.0], [2.0, 2.0]])
    vals = eta.value(pts)
    assert (vals >= 0).all()
    assert vals[3] == 0.0 and vals[4] == 0.0


@pytest.mark.parametrize("profile,k", [("polynomial-bump", 2), ("exponential-bump", None)])
def test_gradient_integral_vanishes(profile, k):
    eta = build_mollifier(profile, 2, k=k)
    nodes, w = eta.ball_rule()
    total = (w[:, None] * eta.gradient(nodes)).sum(axis=0)
    assert np.abs(total).max() < 1e-9


def test_gradient_matches_finite_difference():
    eta = build_mollifier("polynomial-bump", 2, k=3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.6, 0.6, size=(40, 2))
    g = eta.gradient(pts)
    d = 1e-6
    for a in range(2):
        shift = np.zeros(2)
        shift[a] = d
        fd = (eta.value(pts + shift) - eta.value(pts - shift)) / (2 * d)
        np.testing.assert_allclose(g[:, a], fd, atol=1e-7)


def test_d_eta_stable_under_resolution_doubling():
    for profile, k in [("polynomial-bump", 2), ("exponential-bump", None)]:
        for dim in (1, 2):
            eta = build_mollifier(profile, dim, k=k)
            d1 = _d_eta(eta)
            d2 = _d_eta(eta, 2 * _NODES)
            assert d1 > 0
            assert abs(d1 - d2) < 1e-8


def test_d_eta_matches_beta_closed_form():
    eta = build_mollifier("polynomial-bump", 2, k=2)
    m1 = polynomial_moment_closed_form(eta, 0.5, 1.5, of_gradient=True)
    m2 = polynomial_moment_closed_form(eta, 2.0, 3.0, of_gradient=False)
    d_eta = sum(energy_bound_coefficients(eta, 3.0, 3.0))
    assert d_eta == pytest.approx(m1 * m1 + math.sqrt(m2), rel=1e-12)


def test_d_eta_monte_carlo_oracle():
    # oracle: plain Monte-Carlo over the bounding box, 1e7 samples, 3 sigma
    eta = build_mollifier("polynomial-bump", 1, k=2)
    rng = np.random.default_rng(12345)
    n = 10**7
    z = rng.uniform(-1.0, 1.0, size=n)
    vol = 2.0
    f1 = np.abs(z) ** 0.5 * np.abs(eta.gradient(z[:, None])[:, 0]) ** 1.5
    f2 = z**2 * eta.radial(np.abs(z)) ** 3
    m1, s1 = f1.mean() * vol, f1.std(ddof=1) * vol / math.sqrt(n)
    m2, s2 = f2.mean() * vol, f2.std(ddof=1) * vol / math.sqrt(n)
    d_mc = m1 * m1 + math.sqrt(m2)
    # delta method for the combined standard error
    sigma = math.sqrt((2 * m1 * s1) ** 2 + (s2 / (2 * math.sqrt(m2))) ** 2)
    assert abs(sum(energy_bound_coefficients(eta, 3.0, 3.0)) - d_mc) < 3.0 * sigma


def test_defect_moment_rejects_p2():
    eta = build_mollifier("polynomial-bump", 2, k=2)
    with pytest.raises(ValueError):
        defect_moment(eta, 2.0)


def test_bound_coefficients_positive():
    eta = build_mollifier("exponential-bump", 2)
    cq, cp = energy_bound_coefficients(eta, 3.0, 3.0)
    assert cq > 0 and cp > 0
    assert cq + cp == pytest.approx(_d_eta(eta), rel=1e-12)


def test_ball_rule_volume():
    for dim in (1, 2, 3):
        eta = build_mollifier("polynomial-bump", dim, k=2)
        _, w = eta.ball_rule()
        vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
        assert w.sum() == pytest.approx(vol, rel=1e-12)
    assert sphere_surface(2) == pytest.approx(2 * math.pi)


@pytest.mark.parametrize("n", [64, 65, 128])
def test_3d_ball_rule_equals_the_node_loop(n):
    # the nodes in the order and to the bit of a loop over radius, then mu,
    # then theta
    r, wr = _radial_rule(n, 2.0, 0.0)
    mu, wmu = gauss_jacobi(n, 0.0, 0.0)
    smu = np.sqrt(1.0 - mu * mu)
    na = n + (n % 2)
    theta = 2.0 * math.pi * (np.arange(na) + 0.5) / na
    wa = 2.0 * math.pi / na
    xs, ys, zs, ws = [], [], [], []
    for ri, wri in zip(r, wr):
        for mi, wi, si in zip(mu, wmu, smu):
            xs.append(ri * si * np.cos(theta))
            ys.append(ri * si * np.sin(theta))
            zs.append(np.full_like(theta, ri * mi))
            ws.append(np.full_like(theta, wri * wi * wa))
    nodes, weights = _ball_rule_cached(3, n)
    expect = np.stack([np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)], axis=-1)
    assert nodes.tobytes() == expect.tobytes()
    assert weights.tobytes() == np.concatenate(ws).tobytes()


JACOBI_EXPONENTS = [0.0, 0.5, 1.0, 1.5, 3.0, 7.5, 22.0, 44.0]


@pytest.mark.parametrize("n", [64, 128])
def test_gauss_jacobi_matches_scipy(n):
    # scipy is the oracle only; the package itself never imports it
    from scipy.special import roots_jacobi

    from bvqlab._special import gauss_jacobi

    for a in JACOBI_EXPONENTS:
        for b in JACOBI_EXPONENTS:
            x, w = gauss_jacobi(n, a, b)
            xs, ws = roots_jacobi(n, a, b)
            assert np.abs(x - xs).max() <= 1e-14, (a, b)
            assert (np.abs(w - ws) / ws).max() <= 1e-10, (a, b)


ROBUST_EXPONENTS = [-0.9, -0.5, 0.0, 1.0, 7.5, 44.0, 100.0]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 128, 256, 512])
def test_gauss_jacobi_rules_are_well_formed(n):
    from bvqlab._special import beta_fn, gauss_jacobi

    for a in ROBUST_EXPONENTS:
        for b in ROBUST_EXPONENTS:
            x, w = gauss_jacobi(n, a, b)
            assert x.shape == w.shape == (n,)
            assert np.isfinite(x).all() and np.isfinite(w).all(), (a, b)
            assert -1.0 < x[0] and x[-1] < 1.0 and (np.diff(x) > 0).all(), (a, b)
            # mu0 as the package computes it (by Stirling's formula once
            # a + b + 2 reaches 171; at a = b = 100 it is 1.1e-14 off a
            # 40-digit reference, and scipy's beta 1.2e-13)
            mu0 = 2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0)
            assert abs(math.fsum(w) - mu0) <= 1e-13 * mu0, (a, b)
            # the rule integrates x exactly: its mean is (b - a) / (a + b + 2),
            # here within 6e-12 (the weights next to a singular endpoint,
            # a or b < 0, are the least accurate)
            mean = math.fsum(w * x) / math.fsum(w)
            assert abs(mean - (b - a) / (a + b + 2.0)) <= 1e-11, (a, b)


@pytest.mark.parametrize("x, y, bound", [(7.5, 200.0, 1e-15), (150.0, 200.0, 5e-14), (300.0, 300.0, 5e-14)])
def test_beta_past_gamma_overflow_against_mpmath(x, y, bound):
    # 8e-17, 2.3e-14 and 2.1e-14 off; exp(lgamma + lgamma - lgamma), whose
    # error grows with lgamma(x + y), was 7.9e-14, 2.6e-13 and 3.0e-13 off
    mpmath = pytest.importorskip("mpmath")
    from bvqlab._special import beta_fn

    with mpmath.workdps(40):
        ref = mpmath.beta(mpmath.mpf(x), mpmath.mpf(y))
        for got in (beta_fn(x, y), beta_fn(y, x)):
            assert float(abs((mpmath.mpf(got) - ref) / ref)) < bound, got


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 128, 256, 512])
def test_gauss_legendre_matches_numpy(n):
    # numpy.polynomial is the oracle only; the package never imports it
    from numpy.polynomial.legendre import leggauss

    from bvqlab._special import gauss_jacobi

    x, w = gauss_jacobi(n, 0.0, 0.0)
    xl, wl = leggauss(n)
    assert np.abs(x - xl).max() <= 1e-14
    assert np.abs(w - wl).max() <= 1e-14


def test_gauss_jacobi_rebuilds_a_rule_that_fails_the_sturm_check(monkeypatch):
    from scipy.special import roots_jacobi

    from bvqlab import _special

    bisected, rebuild = [], _special._bisected_nodes

    def bisect(diag, off2):
        bisected.append(len(diag))
        return rebuild(diag, off2)

    monkeypatch.setattr(_special, "_bisected_nodes", bisect)
    # every guess at 0: Newton sends several nodes to one zero, which the
    # Sturm count at the midpoints refuses
    monkeypatch.setattr(_special, "_phase_guesses", lambda n, a, b: np.zeros(n))
    for n, a, b in [(8, -0.9, 100.0), (64, 2.0, 1.0), (128, 44.0, 0.5)]:
        x, w = _special.gauss_jacobi(n, a, b)
        xs, ws = roots_jacobi(n, a, b)
        assert np.abs(x - xs).max() <= 1e-14, (n, a, b)
        assert (np.abs(w - ws) / ws).max() <= 1e-10, (n, a, b)
    assert bisected == [8, 64, 128]


def test_gauss_jacobi_never_returns_an_unchecked_rule(monkeypatch):
    from bvqlab import _special

    monkeypatch.setattr(_special, "_phase_guesses", lambda n, a, b: np.zeros(n))
    monkeypatch.setattr(_special, "_bisected_nodes", lambda diag, off2: np.zeros(len(diag)))
    with pytest.raises(ArithmeticError, match="no checked 16-point"):
        _special.gauss_jacobi(16, 1.0, 2.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_radial_moments_match_beta_closed_form(dim, k):
    eta = build_mollifier("polynomial-bump", dim, k=k)
    # q = 1.1 puts the Jacobi exponent of the hessian moment near 22
    for alpha, s, of_gradient in [
        (0.0, 1.0, False), (2.0, 3.0, False), (0.5, 1.5, True),
        (1.0 / 0.1, 1.1 / 0.1, True), (1.0, 4.0, False),
    ]:
        quad = eta.radial_moment(alpha, s, of_gradient)
        closed = polynomial_moment_closed_form(eta, alpha, s, of_gradient)
        assert quad == pytest.approx(closed, rel=1e-13, abs=0.0), (alpha, s, of_gradient)
