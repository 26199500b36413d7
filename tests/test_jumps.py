import math
import warnings

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    PowerPairCost,
    RegimeError,
    SampledField,
    bbm_sweep,
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
from conftest import SmoothRationalPairCost, random_block_field


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

    from bvqlab._special import half_gamma

    for n in range(1, 7):
        assert half_gamma(n) == gamma(n / 2.0), n
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


@pytest.mark.parametrize("case", ["half-plane", "step-0-2"])
def test_jump_verify_q2_sweep_is_bbm_sweep_bit_for_bit(case):
    if case == "half-plane":  # a {0, 1} field: the sweep reads exact pair counts
        g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
        spec = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.50243)
        ladder = [GridRadius.from_cells(m) for m in (16, 12, 9)]
    else:  # levels 0 and 2: the sweep reads window sums
        g = Grid.for_box([-1.0], [1.0], [1024])
        spec = make_field("step-1d", position=0.0, high=2.0)
        ladder = [GridRadius.from_cells(m) for m in (64, 32, 16)]
    mask = DomainMask.full(g)
    rep = verify_jump_formula(spec, mask, 2.0, ladder, tolerance=0.05)
    ref = bbm_sweep(sample_analytic(spec, mask), 2.0, ladder, "constant")
    assert [v.hex() for v in rep.details["sweep_values"]] == [v.hex() for v in ref.values]
    assert rep.lhs.hex() == ref.limit.hex()
    assert rep.passed


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
    h = square_mask.grid.spacing
    full = random_block_field(square_mask, seed=3)
    disc = DomainMask.from_predicate(
        square_mask.grid, lambda p: ((p - 0.5) ** 2).sum(axis=-1) <= 0.16
    )
    on_disc = SampledField(disc, np.where(disc.inside[..., None], full.values, 0.0))
    cases = [(full, None), (on_disc, None), (on_disc, disc.erode(6 * h))]
    # one lattice shift (eps k = 12h along axis 0) and five fractional ones
    for u, x_mask in cases:
        for k in ([1.0, 0.0], [math.cos(1.1), math.sin(1.1)], [-0.6, -0.8]):
            for eps in (12 * h, 12.3 * h):
                for q in (2.0, 3.0):
                    a = directional_w_limit(u, PowerPairCost(q), k, eps, x_mask)
                    b = directional_value(u, q, eps, k, x_mask)
                    assert a == b  # same accumulation path, bit for bit


def test_w_limit_checks_direction_and_diameter():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    u = sample_analytic(make_field("ball-indicator"), DomainMask.full(g))
    h = g.spacing
    cost = PowerPairCost(2.0)
    for k in ([0.0, 0.0, 1.0], [1.0]):  # zip used to drop or ignore axes here
        with pytest.raises(ValueError, match="dimension"):
            directional_w_limit(u, cost, k, 16 * h)
        with pytest.raises(ValueError, match="dimension"):
            directional_value(u, 2.0, 16 * h, k)
    with pytest.raises(RegimeError, match="diameter"):
        directional_w_limit(u, cost, [1.0, 0.0], g.diameter)
    with pytest.raises(RegimeError, match="kappa"):
        directional_w_limit(u, cost, [1.0, 0.0], 4 * h)


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


@pytest.mark.parametrize("k", [[1.0, 0.0], [0.0, -1.0], [2**-0.5, 2**-0.5], [0.6, -0.8]])
def test_w_limit_rhs_of_a_ball_is_the_same_for_every_direction(k):
    # the sphere mean of |k . n| is 2/pi in 2D: W * 2 pi r * 2/pi = 4 r W
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    jump = make_field("ball-indicator", center=(0.5, 0.5), radius=0.3).jump_spec(g)
    assert w_limit_rhs(jump, PowerPairCost(2.0), k) == pytest.approx(4 * 0.3, rel=1e-14)
    # and 1/2 in 3D: W * 4 pi r^2 / 2
    g3 = Grid.for_box([0.0] * 3, [1.0] * 3, [8, 8, 8])
    jump3 = make_field("ball-indicator", center=(0.5, 0.5, 0.5), radius=0.3).jump_spec(g3)
    assert w_limit_rhs(jump3, PowerPairCost(2.0), k + [0.0]) == pytest.approx(2 * math.pi * 0.09, rel=1e-14)


def test_w_limit_rhs_of_a_ball_matches_the_measured_limit():
    # exact lattice shifts on 512^2: 8 cells along e1, (6, -8) cells along (0.6, -0.8)
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    spec = make_field("ball-indicator", center=(0.5, 0.5), radius=0.3)
    u = sample_analytic(spec, DomainMask.full(g))
    for k, cells in (([1.0, 0.0], 8), ([0.6, -0.8], 10)):
        val = directional_w_limit(u, PowerPairCost(2.0), k, cells * g.spacing)
        assert val == pytest.approx(w_limit_rhs(spec.jump_spec(g), PowerPairCost(2.0), k), rel=0.01), k


def test_off_lattice_shifts_read_the_ball_w_limit():
    # every shift is taken at its nearest lattice vector: on 512^2 the
    # lattice shifts read 1.1992 and 1.1996 against 4 r W = 1.2, and the
    # off-lattice ones 1.1975-1.2001 (within 0.21%) at 8-32 cells
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    spec = make_field("ball-indicator", radius=0.3)
    u = sample_analytic(spec, DomainMask.full(g))
    cost = PowerPairCost(2.0)
    assert w_limit_rhs(spec.jump_spec(g), cost, [1.0, 0.0]) == pytest.approx(1.2, rel=1e-14)
    for k, cells in (([1.0, 0.0], 8), ([0.6, -0.8], 10)):
        assert abs(directional_w_limit(u, cost, k, cells * g.spacing) / 1.2 - 1.0) < 0.005, k
    for k in ([2**-0.5, 2**-0.5], [0.6, -0.8], [math.cos(1.0), math.sin(1.0)]):
        for cells in (8, 16, 32):
            t = cells * np.asarray(k)
            assert np.max(np.abs(t - np.rint(t))) > 0.1, (k, cells)
            val = directional_w_limit(u, cost, k, cells * g.spacing)
            assert abs(val / 1.2 - 1.0) < 0.005, (k, cells)


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


def test_two_sided_checks_q_and_diameter():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    u = sample_analytic(make_field("ball-indicator"), DomainMask.full(g))
    with pytest.raises(ValueError, match="q must be"):
        verify_two_sided(u, 0.5, GridRadius.from_cells(8))  # bbm_value refuses it too
    with pytest.raises(RegimeError, match="diameter"):
        verify_two_sided(u, 2.0, g.diameter)
    with pytest.raises(RegimeError, match="kappa"):
        verify_two_sided(u, 2.0, GridRadius.from_cells(4))


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
