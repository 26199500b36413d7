import math

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    ag_energy,
    bbm_value,
    build_mollifier,
    check_ag_chain,
    check_ag_upper_bound,
    gamma_limit_value,
    make_field,
    mollifier_d_eta,
    mollify,
    sample_analytic,
    verify_gamma_consistency,
)
from bvqlab.aviles import YOUNG_CONSTANT, _moment_bound


@pytest.fixture(scope="module")
def roof_setup():
    g = Grid.for_box([-1.0], [1.0], [1024])
    mask = DomainMask.full(g)
    psi = sample_analytic(make_field("pyramid-eikonal", lo=(-1.0,), hi=(1.0,)), mask)
    eta = build_mollifier("polynomial-bump", 1, k=2, resolution=512)
    return g, mask, psi, eta


@pytest.fixture(scope="module")
def pyramid_setup():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    mask = DomainMask.full(g)
    psi = sample_analytic(make_field("pyramid-eikonal"), mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    return g, mask, psi, eta


def test_linear_psi_smoothing_is_exact(square_mask):
    spec = make_field("linear", slope=(0.6, 0.8))
    u = sample_analytic(spec, square_mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    h = square_mask.grid.spacing
    mf = mollify(u, eta, 16 * h)
    ins = mf.inner.inside
    assert np.abs(mf.psi[ins] - u.values[ins][:, 0]).max() < 1e-12
    assert np.abs(mf.grad[ins] - np.array([0.6, 0.8])).max() < 1e-12
    assert np.abs(mf.hess[ins]).max() < 1e-12
    t1, t2 = ag_energy(mf, 2.0)
    assert t1 < 1e-24 and t2 < 1e-20


def test_constant_psi_all_zero(square_mask):
    u = sample_analytic(make_field("constant", value=(2.0,), dim=2), square_mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    mf = mollify(u, eta, 16 * square_mask.grid.spacing)
    ins = mf.inner.inside
    assert np.abs(mf.grad[ins]).max() < 1e-14
    assert np.abs(mf.hess[ins]).max() < 1e-14


def test_mollify_requires_source(square_mask):
    from bvqlab import SampledField

    bare = SampledField(square_mask, np.zeros(square_mask.grid.extents))
    eta = build_mollifier("polynomial-bump", 2, k=2)
    with pytest.raises(ValueError):
        mollify(bare, eta, 16 * square_mask.grid.spacing)


def test_roof_hessian_closed_form(roof_setup):
    # smoothing -|x|-type profiles: hess psi_eps(x) = -(2/eps) eta(x/eps)
    g, mask, psi, eta = roof_setup
    eps = 64 * g.spacing
    mf = mollify(psi, eta, eps)
    ins = mf.inner.inside
    x = g.points()[ins.ravel()][:, 0]
    sel = np.abs(x) < 0.9 * eps
    measured = mf.hess[ins][:, 0, 0][sel]
    exact = -(2.0 / eps) * eta.radial(np.abs(x[sel]) / eps)
    scale = np.abs(exact).max()
    assert np.abs(measured - exact).max() < 0.01 * scale
    # gradient norm strictly below 1 on the transition
    gn = np.abs(mf.grad[ins][:, 0])
    center = np.argmin(np.abs(x))
    assert gn[center] < 1.0


def test_gradient_norm_never_exceeds_one(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    mf = mollify(psi, eta, GridRadius.from_cells(16))
    assert mf.gradient_norms().max() <= 1.0 + 1e-12


def test_gradient_conv_vs_centered_differences(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    h = g.spacing
    eps = 16 * h
    mf = mollify(psi, eta, eps)
    ins = mf.inner.inside
    fd = np.gradient(mf.psi, h, axis=0), np.gradient(mf.psi, h, axis=1)
    # compare on cells whose full FD stencil stays in the inner mask
    core = ins.copy()
    core[1:, :] &= ins[:-1, :]
    core[:-1, :] &= ins[1:, :]
    core[:, 1:] &= ins[:, :-1]
    core[:, :-1] &= ins[:, 1:]
    tol = 10 * h * h / (eps * eps)
    for a in range(2):
        diff = np.abs(fd[a][core] - mf.grad[core][:, a])
        assert diff.max() < tol


def test_roof_energy_matches_dense_quadrature_oracle(roof_setup):
    g, mask, psi, eta = roof_setup
    eps = 64 * g.spacing
    mf = mollify(psi, eta, eps)
    t1, t2 = ag_energy(mf, 2.0)
    # oracle: 1D closed-form smoothed profile, dense midpoint quadrature
    t = np.linspace(-1.0, 1.0, 200001)[:-1] + 1.0 / 200000
    dt = t[1] - t[0]
    eta_t = eta.radial(np.abs(t))
    cum = np.cumsum(eta_t) * dt  # H(t) = integral of eta up to t
    slope = 2.0 * cum - 1.0      # psi_eps'(eps t) for the roof profile
    oracle_t1 = 4.0 * float((eta_t**2).sum() * dt)
    oracle_t2 = float(((1.0 - slope**2) ** 2).sum() * dt)
    assert t1 == pytest.approx(oracle_t1, rel=0.01)
    assert t2 == pytest.approx(oracle_t2, rel=0.01)


def test_roof_energy_eps_independent(roof_setup):
    g, mask, psi, eta = roof_setup
    inner = mask.erode(64 * g.spacing)
    vals = []
    for m in (64, 48, 32, 16):
        mf = mollify(psi, eta, GridRadius.from_cells(m), inner)
        t1, t2 = ag_energy(mf, 2.0)
        vals.append(t1 + t2)
    assert max(vals) - min(vals) < 0.05 * max(vals)


def test_ag_energy_requires_p_above_one(roof_setup):
    g, mask, psi, eta = roof_setup
    mf = mollify(psi, eta, 32 * g.spacing)
    with pytest.raises(ValueError):
        ag_energy(mf, 1.0)


def test_upper_bound_rejects_p2(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    with pytest.raises(ValueError):
        check_ag_upper_bound(psi, eta, 3.0, 2.0, [GridRadius.from_cells(16)])


def test_upper_bound_linear_field(square_mask):
    u = sample_analytic(make_field("linear", slope=(1.0, 0.0)), square_mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    ladder = [GridRadius.from_cells(m) for m in (16, 12, 8)]
    rep = check_ag_upper_bound(u, eta, 3.0, 3.0, ladder)
    assert rep.passed
    assert rep.lhs < 1e-12  # roundoff-level energy for an exactly linear field


def test_upper_bound_pyramid(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16, 12)]
    rep = check_ag_upper_bound(psi, eta, 3.0, 3.0, ladder)
    assert rep.passed
    assert rep.details["trend_ok"]
    lhs_vals = rep.details["lhs_values"]
    assert lhs_vals[-1] <= rep.rhs * 1.10
    assert lhs_vals[-2] <= rep.rhs * 1.10


def test_chain_roof(roof_setup):
    g, mask, psi, eta = roof_setup
    ladder = [GridRadius.from_cells(m) for m in (64, 48, 32, 16)]
    rep = check_ag_chain(psi, eta, ladder)
    assert rep.passed
    assert rep.details["young_exact_ok"]
    assert rep.lhs <= rep.mid  # Young step in the aggregate too


def test_chain_pyramid_and_upper_bound_bit_identity(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16, 12)]
    chain = check_ag_chain(psi, eta, ladder)
    upper = check_ag_upper_bound(psi, eta, 3.0, 3.0, ladder)
    assert chain.passed
    assert chain.details["limit_bound"] == upper.rhs  # same code path, bit for bit


def test_chain_gradient_ladder_is_one_pass(roof_setup, monkeypatch):
    from bvqlab import kernels
    from bvqlab.fields import sample_gradient

    g, mask, psi, eta = roof_setup
    ladder = [GridRadius.from_cells(m) for m in (64, 48, 32, 16)]
    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    rep = check_ag_chain(psi, eta, ladder)
    assert calls == [len(kernels.lattice_offsets(1, 64 * 64)[0])]
    monkeypatch.undo()
    grad = sample_gradient(psi.source, mask)
    inner = mask.erode(64 * g.spacing)
    per_rung = [bbm_value(grad, 3.0, e, inner) for e in ladder]
    assert rep.details["gradient_sweep"] == per_rung
    assert rep.details["matched_bounds"] == [_moment_bound(eta, 3.0, 3.0, a, a) for a in per_rung]


def test_chain_rejects_bad_ladder(roof_setup):
    g, mask, psi, eta = roof_setup
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_ag_chain(psi, eta, [GridRadius.from_cells(m) for m in (16, 32, 24)])


def test_chain_rejects_3d():
    g = Grid.for_box([0.0] * 3, [1.0] * 3, [16] * 3)
    mask = DomainMask.full(g)
    u = sample_analytic(make_field("constant", value=(1.0,), dim=3), mask)
    eta = build_mollifier("polynomial-bump", 3, k=2)
    with pytest.raises(ValueError):
        check_ag_chain(u, eta, [GridRadius.from_cells(4)])


def test_young_constant_value():
    assert YOUNG_CONSTANT == pytest.approx(3.0 / 4.0 ** (1 / 3), rel=1e-15)
    # pointwise Young inequality at a generic sample
    rng = np.random.default_rng(0)
    for _ in range(1000):
        hess, defect, eps = rng.uniform(0.01, 10, size=3)
        lhs = eps**2 * hess**3 + defect**1.5 / eps
        assert lhs >= YOUNG_CONSTANT * hess * defect * (1 - 1e-12)


def test_gamma_limit_pyramid_value():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    spec = make_field("pyramid-eikonal")
    val = gamma_limit_value(spec.jump_spec(g))
    # four ridge segments, jump sqrt(2), total length 2 sqrt(2)
    assert val == pytest.approx((math.sqrt(2.0) ** 3) * 2.0 * math.sqrt(2.0) / 3.0)
    assert val == pytest.approx(8.0 / 3.0)
    assert gamma_limit_value(None) == 0.0


def test_gamma_consistency_pyramid(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (24, 16, 12, 8)]
    rep = verify_gamma_consistency(psi, ladder, tolerance=0.05)
    assert rep.passed
    assert rep.lhs == pytest.approx(8.0 / 3.0)
    # the alternative normalization is reported alongside
    assert "alt_value_over_3_c3" in rep.details


def test_moment_bound_shares_d_eta(pyramid_setup):
    g, mask, psi, eta = pyramid_setup
    a = 1.2345
    assert _moment_bound(eta, 3.0, 3.0, a, a) == pytest.approx(
        mollifier_d_eta(eta) * a, rel=1e-12
    )


def test_mollify_rejects_shallow_inner_mask(roof_setup):
    g, mask, psi, eta = roof_setup
    shallow = mask.erode(8 * g.spacing)
    with pytest.raises(ValueError):
        mollify(psi, eta, 32 * g.spacing, inner=shallow)
