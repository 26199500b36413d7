import math

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    ag_chain_reports,
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
    sample_gradient,
    verify_gamma_consistency,
)
from bvqlab.aviles import YOUNG_CONSTANT, _moment_bound
from bvqlab.errors import RegimeError
from conftest import _oracle


@pytest.fixture(scope="module")
def roof_setup():
    g = Grid.for_box([-1.0], [1.0], [1024])
    mask = DomainMask.full(g)
    spec = make_field("pyramid-eikonal", lo=(-1.0,), hi=(1.0,))
    eta = build_mollifier("polynomial-bump", 1, k=2, resolution=512)
    return g, mask, sample_gradient(spec, mask), eta


@pytest.fixture(scope="module")
def pyramid_setup():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    mask = DomainMask.full(g)
    spec = make_field("pyramid-eikonal")
    eta = build_mollifier("polynomial-bump", 2, k=2)
    return g, mask, sample_gradient(spec, mask), eta


def test_linear_psi_smoothing_is_exact(square_mask):
    spec = make_field("linear", slope=(0.6, 0.8))
    eta = build_mollifier("polynomial-bump", 2, k=2)
    h = square_mask.grid.spacing
    mf = mollify(sample_gradient(spec, square_mask), eta, 16 * h)
    ins = mf.inner.inside
    assert np.abs(mf.grad[ins] - np.array([0.6, 0.8])).max() < 1e-12
    assert np.abs(mf.hess[ins]).max() < 1e-12
    t1, t2 = ag_energy(mf, 2.0)
    assert t1 < 1e-24 and t2 < 1e-20


def test_constant_psi_all_zero(square_mask):
    spec = make_field("constant", value=(2.0,), dim=2)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    mf = mollify(sample_gradient(spec, square_mask), eta, 16 * square_mask.grid.spacing)
    ins = mf.inner.inside
    assert np.abs(mf.grad[ins]).max() < 1e-14
    assert np.abs(mf.hess[ins]).max() < 1e-14


def test_mollify_rejects_a_gradient_that_is_not_a_d_equals_dim_field(pyramid_setup):
    g, mask, grad, eta = pyramid_setup
    psi = sample_analytic(make_field("pyramid-eikonal"), mask)  # d = 1 in 2D
    with pytest.raises(ValueError, match="grad must be a d = dim field"):
        mollify(psi, eta, 16 * g.spacing)


def test_mollify_rejects_an_inner_mask_on_another_grid():
    # same 64^2 extents, four times the cell area: taken as the result's grid,
    # it would scale every energy by 4
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    wide = Grid.for_box([0.0, 0.0], [2.0, 2.0], [64, 64])
    grad = sample_gradient(make_field("pyramid-eikonal"), DomainMask.full(g))
    eta = build_mollifier("polynomial-bump", 2, k=2)
    eps = GridRadius.from_cells(16)
    inner = DomainMask.full(wide).erode(eps.length(wide.spacing))
    assert inner.grid.extents == g.extents
    with pytest.raises(ValueError, match="inner mask must share the field grid"):
        mollify(grad, eta, eps, inner)


def test_roof_hessian_closed_form(roof_setup):
    # smoothing -|x|-type profiles: hess psi_eps(x) = -(2/eps) eta(x/eps)
    g, mask, grad, eta = roof_setup
    eps = 64 * g.spacing
    mf = mollify(grad, eta, eps)
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
    g, mask, grad, eta = pyramid_setup
    mf = mollify(grad, eta, GridRadius.from_cells(16))
    assert mf.gradient_norms().max() <= 1.0 + 1e-12


def test_gradient_conv_vs_centered_differences(pyramid_setup):
    # psi_eps from the shift-and-add oracle, differenced against the
    # convolution gradient
    g, mask, grad, eta = pyramid_setup
    h = g.spacing
    eps = 16 * h
    mf = mollify(grad, eta, eps)
    ins = mf.inner.inside
    psi_eps = _oracle(sample_analytic(make_field("pyramid-eikonal"), mask), grad, eta, eps)[0]
    fd = np.gradient(psi_eps, h, axis=0), np.gradient(psi_eps, h, axis=1)
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
    g, mask, grad, eta = roof_setup
    eps = 64 * g.spacing
    mf = mollify(grad, eta, eps)
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
    g, mask, grad, eta = roof_setup
    inner = mask.erode(64 * g.spacing)
    vals = []
    for m in (64, 48, 32, 16):
        mf = mollify(grad, eta, GridRadius.from_cells(m), inner)
        t1, t2 = ag_energy(mf, 2.0)
        vals.append(t1 + t2)
    assert max(vals) - min(vals) < 0.05 * max(vals)


def test_ag_energy_requires_p_above_one(roof_setup):
    g, mask, grad, eta = roof_setup
    mf = mollify(grad, eta, 32 * g.spacing)
    with pytest.raises(ValueError):
        ag_energy(mf, 1.0)


def test_upper_bound_rejects_p2(pyramid_setup):
    g, mask, grad, eta = pyramid_setup
    with pytest.raises(ValueError):
        check_ag_upper_bound(grad, eta, 3.0, 2.0, [GridRadius.from_cells(16)])


def test_upper_bound_linear_field(square_mask):
    grad = sample_gradient(make_field("linear", slope=(1.0, 0.0)), square_mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    ladder = [GridRadius.from_cells(m) for m in (16, 12, 8)]
    rep = check_ag_upper_bound(grad, eta, 3.0, 3.0, ladder)
    assert rep.passed
    assert rep.lhs < 1e-12  # roundoff-level energy for an exactly linear field


def test_upper_bound_pyramid(pyramid_setup):
    g, mask, grad, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16, 12)]
    rep = check_ag_upper_bound(grad, eta, 3.0, 3.0, ladder)
    assert rep.passed
    assert rep.details["trend_ok"]
    lhs_vals = rep.details["lhs_values"]
    assert lhs_vals[-1] <= rep.rhs * 1.10
    assert lhs_vals[-2] <= rep.rhs * 1.10


def test_chain_roof(roof_setup):
    g, mask, grad, eta = roof_setup
    ladder = [GridRadius.from_cells(m) for m in (64, 48, 32, 16)]
    rep = check_ag_chain(grad, eta, ladder)
    assert rep.passed
    assert rep.details["young_exact_ok"]
    assert rep.lhs <= rep.mid  # Young step in the aggregate too


def test_chain_pyramid_and_upper_bound_bit_identity(pyramid_setup):
    g, mask, grad, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16, 12)]
    chain = check_ag_chain(grad, eta, ladder)
    upper = check_ag_upper_bound(grad, eta, 3.0, 3.0, ladder)
    assert chain.passed
    # same code path, bit for bit
    assert chain.details["limit_bound"] == upper.rhs
    assert chain.details["middle_energy"] == upper.details["lhs_values"]


def test_chain_gradient_ladder_is_one_pass(roof_setup, monkeypatch):
    from bvqlab import kernels

    g, mask, grad, eta = roof_setup
    ladder = [GridRadius.from_cells(m) for m in (64, 48, 32, 16)]
    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    rep = check_ag_chain(grad, eta, ladder)
    assert calls == [len(kernels.lattice_offsets(1, 64 * 64)[0])]
    monkeypatch.undo()
    inner = mask.erode(64 * g.spacing)
    per_rung = [bbm_value(grad, 3.0, e, inner) for e in ladder]
    assert rep.details["gradient_sweep"] == per_rung
    assert rep.details["matched_bounds"] == [_moment_bound(eta, 3.0, 3.0, a, a) for a in per_rung]


@pytest.mark.parametrize("with_jump", [True, False])
def test_chain_reports_share_one_pass_and_equal_the_separate_checks(pyramid_setup, monkeypatch, with_jump):
    from bvqlab import kernels

    g, mask, grad, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (16, 12, 9)]
    jump = make_field("pyramid-eikonal").jump_spec(g) if with_jump else None
    passes = []
    real = kernels._pair_sums

    def counted(field, offsets, requests):
        passes.append([m is None for _, m in requests])
        return real(field, offsets, requests)

    monkeypatch.setattr(kernels, "_pair_sums", counted)
    reports = ag_chain_reports(grad, eta, ladder, jump, 0.05)
    # the masked chain sweep and, with a jump, the unmasked ridge sweep
    assert passes == [[False, True] if with_jump else [False]]
    monkeypatch.undo()
    separate = [check_ag_chain(grad, eta, ladder)]
    if with_jump:
        separate.append(verify_gamma_consistency(grad, jump, ladder, 0.05))
    assert [vars(r) for r in reports] == [vars(r) for r in separate]


def test_chain_rejects_bad_ladder(roof_setup):
    g, mask, grad, eta = roof_setup
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_ag_chain(grad, eta, [GridRadius.from_cells(m) for m in (16, 32, 24)])


BAD_LADDERS = [
    ([], "constant", "at least one eps"),
    ([], "linear-in-eps", "at least one eps"),
    ([16, 32, 24], "constant", "strictly decreasing"),
    ([32, 16], "linear-in-eps", ">= 3 eps values"),
    ([32, 24, 16], "quadratic", "unknown fit model"),
]


@pytest.mark.parametrize("cells, fit_model, message", BAD_LADDERS)
def test_ag_checks_refuse_a_bad_ladder_before_any_mollify(roof_setup, monkeypatch, cells, fit_model, message):
    from bvqlab import aviles

    def boom(*args, **kwargs):
        raise AssertionError("mollify ran before the ladder was checked")

    monkeypatch.setattr(aviles, "mollify", boom)
    g, mask, grad, eta = roof_setup
    ladder = [GridRadius.from_cells(m) for m in cells]
    with pytest.raises(ValueError, match=message):
        check_ag_chain(grad, eta, ladder, fit_model=fit_model)
    with pytest.raises(ValueError, match=message):
        check_ag_upper_bound(grad, eta, 3.0, 4.0, ladder, fit_model=fit_model)


def test_ag_checks_refuse_a_rung_below_kappa_h_before_any_mollify(roof_setup, monkeypatch):
    from bvqlab import aviles

    def boom(*args, **kwargs):
        raise AssertionError("mollify ran before every rung's kappa*h guard")

    monkeypatch.setattr(aviles, "mollify", boom)
    g, mask, grad, eta = roof_setup
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 4)]  # 4 cells < kappa = 8 cells
    with pytest.raises(RegimeError, match="below kappa"):
        check_ag_chain(grad, eta, ladder)
    with pytest.raises(RegimeError, match="below kappa"):
        check_ag_upper_bound(grad, eta, 3.0, 4.0, ladder)


@pytest.mark.parametrize("check", ["chain", "upper"])
def test_ag_checks_hold_one_mollified_rung_at_a_time(pyramid_setup, monkeypatch, check):
    import weakref

    from bvqlab import aviles

    g, mask, grad, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16, 12)]
    real_mollify, real_sweep = aviles.mollify, aviles.bbm_sweep
    held = []  # weak references to every rung's field and to the array behind it

    def alive():
        return [r for r in held if r() is not None]

    def mollify_one(*args, **kwargs):
        assert not alive(), "an earlier rung is still held while the next is mollified"
        mf = real_mollify(*args, **kwargs)
        held.extend([weakref.ref(mf), weakref.ref(mf.grad.base)])
        return mf

    def sweep(*args, **kwargs):
        assert not alive(), "a mollified rung is still held during the gradient sweep"
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(aviles, "mollify", mollify_one)
    monkeypatch.setattr(aviles, "bbm_sweep", sweep)
    if check == "chain":
        rep = check_ag_chain(grad, eta, ladder)
    else:
        rep = check_ag_upper_bound(grad, eta, 3.0, 4.0, ladder)
    assert rep.passed
    assert len(held) == 2 * len(ladder)


@pytest.mark.parametrize("n", [128, 256])
def test_mollify_peak_memory_in_grid_floats(n):
    # the N channel spectra and one kernel spectrum at a time: the peak, 18.6
    # grid floats, stays under 24 (the batched transform took 49) at
    # eps = n/4 cells, where the padded grid is 2.25 times the grid
    import tracemalloc

    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [n, n])
    mask = DomainMask.full(g)
    spec = make_field("pyramid-eikonal")
    grad = sample_gradient(spec, mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    eps = GridRadius.from_cells(n // 4)
    inner = mask.erode(eps.length(g.spacing))
    mollify(grad, eta, eps, inner)  # first-call set-up
    tracemalloc.start()
    try:
        mf = mollify(grad, eta, eps, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * n * n, peak / (8 * n * n)
    assert mf.grad.base is mf.hess.base  # views of one result


def test_chain_rejects_3d():
    g = Grid.for_box([0.0] * 3, [1.0] * 3, [16] * 3)
    mask = DomainMask.full(g)
    grad = sample_gradient(make_field("constant", value=(1.0,), dim=3), mask)
    eta = build_mollifier("polynomial-bump", 3, k=2)
    with pytest.raises(ValueError):
        check_ag_chain(grad, eta, [GridRadius.from_cells(4)])


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
    g, mask, grad, eta = pyramid_setup
    ladder = [GridRadius.from_cells(m) for m in (24, 16, 12, 8)]
    rep = verify_gamma_consistency(
        grad, make_field("pyramid-eikonal").jump_spec(g), ladder, tolerance=0.05
    )
    assert rep.passed
    assert rep.lhs == pytest.approx(8.0 / 3.0)
    # the alternative normalization is reported alongside
    assert "alt_value_over_3_c3" in rep.details


def test_moment_bound_shares_d_eta(pyramid_setup):
    g, mask, grad, eta = pyramid_setup
    a = 1.2345
    assert _moment_bound(eta, 3.0, 3.0, a, a) == pytest.approx(
        mollifier_d_eta(eta) * a, rel=1e-12
    )


def test_mollify_rejects_shallow_inner_mask(roof_setup):
    g, mask, grad, eta = roof_setup
    shallow = mask.erode(8 * g.spacing)
    with pytest.raises(ValueError):
        mollify(grad, eta, 32 * g.spacing, inner=shallow)
