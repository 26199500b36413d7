import math
import warnings

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    PowerPairCost,
    SmoothRationalPairCost,
    dimensional_constant,
    dimensional_constant_closed_form,
    directional_value,
    directional_w_limit,
    jump_energy_rhs,
    make_field,
    sample_analytic,
    unit_ball_volume,
    verify_jump_formula,
    verify_q1_full_bv,
    verify_two_sided,
    w_limit_rhs,
)
from conftest import random_block_field


def test_dimensional_constants_exact_values():
    assert dimensional_constant(1) == pytest.approx(2.0, abs=1e-12)
    assert dimensional_constant(2) == pytest.approx(2.0, abs=1e-12)
    assert dimensional_constant(3) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)
    for n in (1, 2, 3):
        assert abs(dimensional_constant(n) - dimensional_constant_closed_form(n)) < 1e-10
    with pytest.raises(ValueError):
        dimensional_constant(4)


def test_half_gamma_matches_scipy_bit_for_bit():
    # the closed forms used scipy.special.gamma; the recurrence keeps every bit
    from scipy.special import gamma

    from bvqlab.jumps import _half_gamma

    for n in range(1, 7):
        assert _half_gamma(n) == gamma(n / 2.0), n
    for dim in (1, 2, 3):
        assert unit_ball_volume(dim) == float(math.pi ** (dim / 2.0) / gamma(dim / 2.0 + 1.0))
        assert dimensional_constant_closed_form(dim) == float(
            2.0 / dim * math.pi ** ((dim - 1) / 2.0) / gamma((dim + 1) / 2.0)
        )
    assert dimensional_constant_closed_form(2) == 2.0  # math.gamma(1.5) would give 1.9999999999999998


def test_jump_energy_rhs_examples(line_mask, square_mask):
    step = make_field("step-1d", position=0.0)
    assert jump_energy_rhs(step.jump_spec(line_mask.grid), 3.0, 1) == pytest.approx(2.0)
    hp = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.503)
    # amplitude 1 over a segment of length 1: C_2 * 1 * 1
    assert jump_energy_rhs(hp.jump_spec(square_mask.grid), 2.0, 2) == pytest.approx(2.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert jump_energy_rhs(None, 2.0, 1) == 0.0
    assert len(rec) == 1


def test_verify_jump_formula_step():
    g = Grid.for_box([-1.0], [1.0], [4096])
    mask = DomainMask.full(g)
    ladder = [GridRadius.from_cells(m) for m in (256, 128, 64, 32)]
    rep = verify_jump_formula(make_field("step-1d", position=0.0), mask, 3.0, ladder, tolerance=0.03)
    assert rep.passed
    assert rep.rhs == pytest.approx(2.0)


def test_verify_jump_formula_needs_q_above_one(line_mask):
    with pytest.raises(ValueError):
        verify_jump_formula(make_field("step-1d"), line_mask, 1.0, [0.05])


def test_verify_jump_formula_constant(line_mask):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = verify_jump_formula(
            make_field("piecewise-constant-multi", positions=(0.0,), levels=(1.0, 1.0)),
            line_mask, 2.0,
            [GridRadius.from_cells(m) for m in (64, 32, 16)],
        )
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_verify_jump_formula_polygon_square():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    mask = DomainMask.full(g)
    s = 0.5014
    verts = [(0.25, 0.251), (0.25 + s, 0.251), (0.25 + s, 0.251 + s), (0.25, 0.251 + s)]
    spec = make_field("polygon-indicator", vertices=verts)
    ladder = [GridRadius.from_cells(m) for m in (24, 16, 12)]
    rep = verify_jump_formula(spec, mask, 2.0, ladder, tolerance=0.05)
    assert rep.rhs == pytest.approx(2.0 * 4 * s)
    assert rep.passed


def test_q1_linear_and_sine():
    g = Grid.for_box([0.0], [1.0], [4096])
    mask = DomainMask.full(g)
    ladder = [GridRadius.from_cells(m) for m in (64, 48, 32, 24, 16)]
    rep = verify_q1_full_bv(make_field("linear", slope=(1.0,)), mask, ladder, tolerance=0.03)
    assert rep.passed and rep.rhs == pytest.approx(2.0)
    rep2 = verify_q1_full_bv(make_field("sine-1d"), mask, ladder, tolerance=0.03)
    assert rep2.passed and rep2.rhs == pytest.approx(4.0)
    with pytest.raises(ValueError):
        verify_q1_full_bv(make_field("hoelder"), mask, ladder)


def test_q1_constant_zero(line_mask):
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16)]
    rep = verify_q1_full_bv(make_field("constant", value=(4.0,)), line_mask, ladder)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


# --------------------------------------------------------------------------
# directional limits with a pair-cost catalog
# --------------------------------------------------------------------------


def test_w_power_bit_identical_to_directional(square_mask):
    u = random_block_field(square_mask, seed=3)
    h = square_mask.grid.spacing
    k = np.array([math.cos(1.1), math.sin(1.1)])
    for q in (2.0, 3.0):
        a = directional_w_limit(u, PowerPairCost(q), k, 12 * h)
        b = directional_value(u, q, 12 * h, k)
        assert a == b  # same accumulation path, bit for bit


def test_power_cost_requires_q2():
    with pytest.raises(ValueError):
        PowerPairCost(1.5)


def test_w_limit_half_plane_aligned():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    mask = DomainMask.full(g)
    spec = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.5 + 0.0024)
    u = sample_analytic(spec, mask)
    h = g.spacing
    jump = spec.jump_spec(g)
    inner = mask.erode(16 * h)
    # the inner domain clips the jump segment to length 1 - 2*16h
    clip = 1.0 - 32 * h
    for cost in (PowerPairCost(2.0), SmoothRationalPairCost()):
        rhs = w_limit_rhs(jump, cost, [1.0, 0.0]) * clip
        val = directional_w_limit(u, cost, [1.0, 0.0], 16 * h, x_mask=inner)
        assert val == pytest.approx(rhs, rel=0.02)
    # k perpendicular to the jump normal: the limit vanishes
    val_perp = directional_w_limit(u, PowerPairCost(2.0), [0.0, 1.0], 32 * h, x_mask=mask.erode(32 * h))
    assert val_perp <= 0.05 * jump.total_measure


def test_w_limit_rhs_projects_normal():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    jump = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.5).jump_spec(g)
    k = np.array([math.cos(0.7), math.sin(0.7)])
    assert w_limit_rhs(jump, PowerPairCost(2.0), k) == pytest.approx(abs(math.cos(0.7)))


# --------------------------------------------------------------------------
# two-sided comparability
# --------------------------------------------------------------------------


def test_two_sided_step_numbers(step_field):
    h = step_field.grid.spacing
    rep = verify_two_sided(step_field, 2.0, GridRadius.from_cells(32))
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)   # A / |B1|
    assert rep.mid == pytest.approx(1.0, rel=1e-12)   # directional sup
    assert rep.rhs == pytest.approx(2.0 ** (1 + 2), rel=1e-12)
    assert rep.details["ball_measure_discrete"] == pytest.approx(2.0)


def test_two_sided_constant(line_mask):
    u = sample_analytic(make_field("constant", value=(1.0,)), line_mask)
    rep = verify_two_sided(u, 2.0, GridRadius.from_cells(16))
    assert rep.passed and rep.lhs == 0.0 and rep.mid == 0.0 and rep.rhs == 0.0


def test_two_sided_random_2d_fields():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    mask = DomainMask.full(g)
    for seed in range(6):
        u = random_block_field(mask, seed=seed, blocks=7)
        for q in (1.5, 2.0, 3.0):
            for m in (8, 12, 16):
                rep = verify_two_sided(u, q, GridRadius.from_cells(m))
                assert rep.passed, (seed, q, m)


def test_two_sided_ball_measure_near_continuum():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    u = random_block_field(DomainMask.full(g), seed=0)
    rep = verify_two_sided(u, 2.0, GridRadius.from_cells(16))
    disc = rep.details["ball_measure_discrete"]
    assert disc == pytest.approx(unit_ball_volume(2), rel=0.02)


def test_w_limit_aligned_direction_t_independent():
    # for a flat jump with k parallel to the normal the directional sums on a
    # fixed inner domain barely move across the sweep
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    mask = DomainMask.full(g)
    spec = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.5 + 0.0024)
    u = sample_analytic(spec, mask)
    h = g.spacing
    inner = mask.erode(32 * h)
    vals = [
        directional_w_limit(u, PowerPairCost(2.0), [1.0, 0.0], m * h, x_mask=inner)
        for m in (32, 24, 16)
    ]
    assert max(vals) - min(vals) <= 0.02 * max(vals)


def test_verify_jump_formula_ball_2d():
    # curved jump: straddle counting carries an O(h/eps) deficit, so the
    # sweep stays at moderate eps/h where both h/eps and eps/radius are small
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    mask = DomainMask.full(g)
    r = 0.2513
    spec = make_field("ball-indicator", center=(0.5024, 0.5037), radius=r)
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16)]
    rep = verify_jump_formula(spec, mask, 2.0, ladder, tolerance=0.05)
    assert rep.rhs == pytest.approx(2.0 * 2.0 * math.pi * r)
    assert rep.passed
    assert abs(rep.lhs / rep.rhs - 1.0) < 0.02


def test_verify_jump_formula_piecewise_multi():
    g = Grid.for_box([-1.0], [1.0], [4096])
    mask = DomainMask.full(g)
    spec = make_field("piecewise-constant-multi")
    ladder = [GridRadius.from_cells(m) for m in (128, 64, 32)]
    rep = verify_jump_formula(spec, mask, 2.0, ladder, tolerance=0.03)
    # jumps 1, -1.5, 1.25 between the default levels
    assert rep.rhs == pytest.approx(2.0 * (1.0 + 1.5**2 + 1.25**2))
    assert rep.passed and rep.lhs == pytest.approx(rep.rhs, rel=1e-9)


def test_verify_jump_formula_interval_indicator_1d():
    g = Grid.for_box([-1.0], [1.0], [4096])
    mask = DomainMask.full(g)
    spec = make_field("ball-indicator", center=(0.1,), radius=0.4)
    ladder = [GridRadius.from_cells(m) for m in (128, 64, 32)]
    rep = verify_jump_formula(spec, mask, 3.0, ladder, tolerance=0.03)
    assert rep.rhs == pytest.approx(4.0)  # two unit jumps
    assert rep.passed


def test_two_sided_masked_domain_with_hole():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    mask = DomainMask.from_predicate(
        g,
        lambda p: (((p - 0.5) ** 2).sum(1) < 0.45**2)
        & (((p - 0.3) ** 2).sum(1) > 0.08**2),
    )
    u = random_block_field(mask, seed=1, blocks=7)
    for m in (8, 10):
        rep = verify_two_sided(u, 2.0, GridRadius.from_cells(m))
        assert rep.passed
