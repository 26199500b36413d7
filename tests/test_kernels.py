import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    RegimeError,
    SampledField,
    bbm_ladder,
    bbm_sweep,
    bbm_value,
    besov_seminorm_pow,
    directional_sup,
    directional_value,
    gagliardo_dominates_bbm,
    make_field,
    sample_analytic,
)
from conftest import (
    gagliardo_seminorm_pow,
    q_monotonicity_holds,
    random_block_field,
    single_pair_sum,
    splitting_inequality_holds,
    translated,
)


def test_constant_field_zero(line_mask):
    u = sample_analytic(make_field("constant", value=(7.0,)), line_mask)
    assert bbm_value(u, 2.0, 0.05) == 0.0
    assert directional_value(u, 2.0, 16 * line_mask.grid.spacing, [1.0]) == 0.0
    assert gagliardo_seminorm_pow(u, 2.0) == 0.0


def test_step_value_closed_form():
    g = Grid.for_box([-1.0], [1.0], [8192])
    u = sample_analytic(make_field("step-1d", position=0.0), DomainMask.full(g))
    v = bbm_value(u, 2.0, 0.05)
    assert abs(v - 2.0) < 0.05
    # at an exact whole-cell radius the discrete value is exactly 2
    assert bbm_value(u, 2.0, GridRadius.from_cells(128)) == pytest.approx(2.0, rel=1e-12)


def test_homogeneity(line_mask):
    u = random_block_field(line_mask, seed=7)
    lam = -2.37
    scaled = SampledField(line_mask, lam * u.values)
    h = line_mask.grid.spacing
    for q in (1.0, 1.5, 2.0, 3.0):
        a = bbm_value(u, q, 32 * h)
        b = bbm_value(scaled, q, 32 * h)
        assert b == pytest.approx(abs(lam) ** q * a, rel=1e-12)
        da = directional_value(u, q, 16 * h, [1.0])
        db = directional_value(scaled, q, 16 * h, [1.0])
        assert db == pytest.approx(abs(lam) ** q * da, rel=1e-12)
        ga = gagliardo_seminorm_pow(u, q)
        gb = gagliardo_seminorm_pow(scaled, q)
        assert gb == pytest.approx(abs(lam) ** q * ga, rel=1e-12)


def _disc_field(seed: int) -> SampledField:
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [40, 40])
    mask = DomainMask.from_predicate(g, lambda p: ((p - 0.5) ** 2).sum(axis=-1) <= 0.16)
    vals = np.random.default_rng(seed).normal(size=(40, 40, 2))
    return SampledField(mask, np.where(mask.inside[..., None], vals, 0.0), d=2)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["line", "disc", "asymmetric-slice", "x-mask"])
def test_pair_symmetry_per_displacement(line_mask, case, q):
    # mirror reuse fills -v from v; the result must equal summing every offset
    from bvqlab.kernels import lattice_offsets, pair_power_sums

    x_mask = None
    if case == "line":
        u = random_block_field(line_mask, seed=11)
        offs, _ = lattice_offsets(1, 24 * 24)
    else:
        u = _disc_field(seed=3)
        offs, _ = lattice_offsets(2, 7 * 7)
        if case == "asymmetric-slice":
            offs = offs[: len(offs) // 3]
        elif case == "x-mask":
            x_mask = u.mask.erode(4 * u.grid.spacing)
    sums = pair_power_sums(u, offs, q, x_mask)
    x_inside = None if x_mask is None else x_mask.inside
    loop = [single_pair_sum(u, x_inside, off, q) for off in offs]
    assert sums.tolist() == loop
    if case in ("line", "disc"):
        assert (sums == sums[::-1]).all()


def test_translation_equivariance_bit_identical():
    g = Grid.for_box([-1.0], [1.0], [512])
    inside = np.zeros(512, dtype=bool)
    inside[64:384] = True
    rng = np.random.default_rng(5)
    vals = np.where(inside, rng.normal(size=512), 0.0)
    u = SampledField(DomainMask(g, inside), vals)
    shifted = translated(u, [100])
    h = g.spacing
    for q in (1.5, 2.0):
        assert bbm_value(u, q, 16 * h) == bbm_value(shifted, q, 16 * h)
    assert gagliardo_seminorm_pow(u, 2.0) == gagliardo_seminorm_pow(shifted, 2.0)


def test_indicator_q_independence_bit_identical(square_mask):
    u = sample_analytic(make_field("ball-indicator"), square_mask)
    h = square_mask.grid.spacing
    vals = {q: bbm_value(u, q, 12 * h) for q in (1.0, 1.5, 2.0, 3.0)}
    base = vals[1.0]
    assert base > 0
    for q, v in vals.items():
        assert v == base  # bit identical


def test_q_monotonicity_random_fields(line_mask):
    h = line_mask.grid.spacing
    for seed in range(10):
        u = random_block_field(line_mask, seed=seed)
        for q1, q2 in [(1.0, 2.0), (1.5, 2.0), (2.0, 3.0)]:
            lhs, rhs, ok = q_monotonicity_holds(u, q1, q2, 16 * h)
            assert ok and lhs <= rhs


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    m1=st.integers(-20, 20),
    m2=st.integers(-20, 20),
)
def test_splitting_inequality_property(seed, q, m1, m2):
    g = Grid.for_box([-1.0], [1.0], [256])
    mask = DomainMask.full(g)
    u = random_block_field(mask, seed=seed, blocks=9)
    if m1 + m2 == 0 or (m1 == 0 and m2 == 0):
        return
    assert splitting_inequality_holds(u, q, [m1], [m2])


def test_splitting_inequality_2d(square_mask):
    rng = np.random.default_rng(0)
    for trial in range(10):
        u = random_block_field(square_mask, seed=trial, blocks=5)
        o1 = rng.integers(-6, 7, size=2)
        o2 = rng.integers(-6, 7, size=2)
        if (o1 + o2 == 0).all():
            continue
        assert splitting_inequality_holds(u, 1.5, o1, o2)


def test_splitting_rejects_offsets_of_another_dimension(square_mask):
    u = random_block_field(square_mask, seed=0, blocks=5)
    for o1, o2 in (([3], [4]), ([3, 0], [4]), ([3, 0, 1], [4, 0, 0])):
        with pytest.raises(ValueError, match="grid dimension"):
            splitting_inequality_holds(u, 1.5, o1, o2)


def test_shifts_reject_an_x_mask_on_another_grid():
    from bvqlab import PowerPairCost, directional_w_limit

    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [32, 32])
    other = DomainMask.full(Grid.for_box([0.0, 0.0], [2.0, 2.0], [32, 32]))
    u = random_block_field(DomainMask.full(g), seed=0, blocks=5)
    eps = 8 * g.spacing
    with pytest.raises(ValueError, match="x_mask must share the field grid"):
        directional_value(u, 2.0, eps, [1.0, 0.0], other)
    with pytest.raises(ValueError, match="x_mask must share the field grid"):
        directional_w_limit(u, PowerPairCost(2.0), [1.0, 0.0], eps, other)
    with pytest.raises(ValueError, match="x_mask must share the field grid"):
        splitting_inequality_holds(u, 1.5, [3, 0], [0, 4], other)


def test_regime_guards(step_field):
    h = step_field.grid.spacing
    with pytest.raises(RegimeError):
        bbm_value(step_field, 2.0, 4 * h)  # below kappa*h
    with pytest.raises(RegimeError):
        bbm_value(step_field, 2.0, 5.0)  # beyond the domain diameter
    with pytest.raises(ValueError):
        bbm_value(step_field, 0.5, 16 * h)  # q < 1


def test_sweep_step_flat_constant_model(step_field):
    h = step_field.grid.spacing
    ladder = [GridRadius.from_cells(m) for m in (128, 64, 32, 16)]
    sweep = bbm_sweep(step_field, 3.0, ladder, "constant")
    assert all(abs(v - 2.0) < 1e-9 for v in sweep.values)
    assert sweep.limit == pytest.approx(2.0, rel=0.02)
    assert sweep.monotone


def test_sweep_requires_three_points_for_linear(step_field):
    h = step_field.grid.spacing
    with pytest.raises(ValueError):
        bbm_sweep(step_field, 2.0, [32 * h, 16 * h], "linear-in-eps")
    with pytest.raises(ValueError):
        bbm_sweep(step_field, 2.0, [16 * h, 32 * h], "constant")  # not decreasing


def test_hoelder_sweep_decreases():
    # a field above the critical smoothness: the sweep must sink toward zero,
    # so the ladder reaches right down to the kappa*h floor before fitting
    g = Grid.for_box([0.0], [1.0], [8192])
    u = sample_analytic(make_field("hoelder", s=0.75), DomainMask.full(g))
    ladder = [GridRadius.from_cells(m) for m in (2048, 1024, 512, 256, 128, 64, 32, 16, 12, 8)]
    sweep = bbm_sweep(u, 2.0, ladder, "linear-in-eps")
    assert sweep.values[-1] * 2.0 <= sweep.values[0]
    assert sweep.limit <= 0.10 * sweep.values[0]


def test_directional_step_exact(step_field):
    h = step_field.grid.spacing
    for m in (8, 16, 57, 128):
        assert directional_value(step_field, 2.0, m * h, [1.0]) == pytest.approx(1.0, rel=1e-12)
    assert directional_value(step_field, 2.0, 16 * h, [-1.0]) == pytest.approx(1.0, rel=1e-12)


def test_directional_linear_scaling():
    g = Grid.for_box([0.0], [1.0], [1024])
    u = sample_analytic(make_field("linear", slope=(1.0,)), DomainMask.full(g))
    h = g.spacing
    v16 = directional_value(u, 2.0, 16 * h, [1.0])
    v32 = directional_value(u, 2.0, 32 * h, [1.0])
    # (1/eps)*eps^2*|Omega'| with |Omega'| shrinking by eps: ratio ~ 2
    assert v32 / v16 == pytest.approx(2.0, rel=0.05)
    expect = 16 * h * (1.0 - 16 * h)
    assert v16 == pytest.approx(expect, rel=1e-9)


def test_directional_unit_norm_required(step_field):
    h = step_field.grid.spacing
    with pytest.raises(ValueError):
        directional_value(step_field, 2.0, 16 * h, [1.0 + 1e-6])
    # a NaN norm is no unit length either (it once passed the check)
    with pytest.raises(ValueError, match="unit length"):
        directional_value(step_field, 2.0, 16 * h, [float("nan")])


def test_directional_sup_1d_and_2d(step_field, square_mask):
    h = step_field.grid.spacing
    assert directional_sup(step_field, 2.0, 16 * h) == pytest.approx(1.0, rel=1e-12)
    hp = sample_analytic(make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.503), square_mask)
    h2 = square_mask.grid.spacing
    sup = directional_sup(hp, 2.0, 12 * h2)
    along = directional_value(hp, 2.0, 12 * h2, [1.0, 0.0])
    assert sup == pytest.approx(along, rel=1e-12)  # axis normal maximizes
    assert sup == pytest.approx(1.0, rel=0.05)  # jump length 1, amplitude 1


def test_interpolated_direction_within_range(square_mask):
    hp = sample_analytic(make_field("half-plane-indicator"), square_mask)
    h = square_mask.grid.spacing
    k = np.array([math.cos(0.3), math.sin(0.3)])
    v = directional_value(hp, 2.0, 12 * h, k)
    assert 0.0 <= v <= 1.5  # taken at the nearest lattice vector, an indicator stays in range


def test_besov_step_every_radius(step_field):
    h = step_field.grid.spacing
    rhos = [GridRadius.from_cells(m) for m in (8, 16, 32, 64)]
    assert besov_seminorm_pow(step_field, 2.0, rhos) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        besov_seminorm_pow(step_field, 2.0, [])


def test_besov_brute_force_equality_1d():
    # sup over radii of the radius-normalized shift modulus == brute force
    # over every admissible grid shift (coarse grid keeps it cheap)
    g = Grid.for_box([0.0], [1.0], [64])
    mask = DomainMask.full(g)
    h = g.spacing
    rng = np.random.default_rng(2)
    for trial in range(5):
        vals = np.repeat(rng.uniform(0, 1, size=8), 8)
        u = SampledField(mask, vals)
        rhos = [GridRadius.from_cells(m) for m in range(8, 25)]
        ours = besov_seminorm_pow(u, 2.0, rhos)
        best = 0.0
        for m in range(8, 25):
            s = float(np.sum((vals[m:] - vals[:-m]) ** 2)) * h
            best = max(best, s / (m * h))
        assert ours == pytest.approx(best, rel=1e-12)


def test_gagliardo_linear_unit_value():
    g = Grid.for_box([0.0], [1.0], [2048])
    u = sample_analytic(make_field("linear", slope=(1.0,)), DomainMask.full(g))
    # integrand is identically 1, so the double integral over (0,1)^2 is 1
    assert gagliardo_seminorm_pow(u, 2.0) == pytest.approx(1.0, rel=0.02)


def test_gagliardo_dominates_every_eps():
    g = Grid.for_box([0.0], [1.0], [2048])
    u = sample_analytic(make_field("hoelder", s=0.75), DomainMask.full(g))
    ladder = [GridRadius.from_cells(m) for m in (256, 64, 16)]
    triples = gagliardo_dominates_bbm(u, 2.0, ladder)
    assert len(triples) == len(ladder)
    for bbm, gag, ok in triples:
        assert ok and bbm <= gag


def _ladder_field(line_mask, case):
    """(field, x_mask, cells) for the one-pass ladder tests."""
    if case.startswith("line"):
        u = random_block_field(line_mask, seed=11)
        cells = (64.4, 31.7, 16.05, 9.05, 9.02, 8.2)
    else:
        u = _disc_field(seed=3)
        cells = (12.3, 10.7, 9.05, 9.02, 8.2)
    x_mask = u.mask.erode(4 * u.grid.spacing) if case.endswith("x-mask") else None
    return u, x_mask, cells


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("rungs", ["grid-radius", "float"])
@pytest.mark.parametrize("case", ["line", "line-x-mask", "disc", "disc-x-mask"])
def test_bbm_sweep_reads_every_rung_bit_exact(line_mask, case, rungs, q):
    # one pass at the largest rung, every smaller rung read from it: each
    # value must equal a fresh bbm_value at that rung, bit for bit
    u, x_mask, cells = _ladder_field(line_mask, case)
    h = u.grid.spacing
    if rungs == "grid-radius":
        ladder = [GridRadius.from_cells(m) for m in sorted({int(c) for c in cells}, reverse=True)]
    else:
        ladder = [c * h for c in cells]  # 9.05 and 9.02 cells share m2 = 81
    sweep = bbm_sweep(u, q, ladder, "constant", x_mask)
    assert sweep.values == tuple(bbm_value(u, q, e, x_mask) for e in ladder)


def test_ladder_runs_one_pair_pass(line_mask, monkeypatch):
    from bvqlab import kernels
    from bvqlab.kernels import lattice_offsets

    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    u = random_block_field(line_mask, seed=11)
    bbm_sweep(u, 2.0, [GridRadius.from_cells(m) for m in (64, 32, 16, 8)], "constant")
    assert calls == [len(lattice_offsets(1, 64 * 64)[0])]
    calls.clear()
    g = Grid.for_box([0.0], [1.0], [256])
    v = random_block_field(DomainMask.full(g), seed=2)
    gagliardo_dominates_bbm(v, 2.0, [GridRadius.from_cells(m) for m in (64, 32, 16, 8)])
    assert calls == [len(lattice_offsets(1, 255 * 255)[0])]


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_bbm_ladder_any_order_is_one_pass(line_mask, monkeypatch, q):
    from bvqlab import kernels

    u, x_mask, cells = _ladder_field(line_mask, "disc-x-mask")
    ladder = [c * u.grid.spacing for c in (cells[2], cells[0], cells[4], cells[1])]
    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    values = bbm_ladder(u, q, ladder, x_mask)
    assert calls == [len(kernels.lattice_offsets(2, kernels.resolve_radius(ladder[1], u.grid.spacing)[0])[0])]
    monkeypatch.setattr(kernels, "pair_power_sums", real)
    assert values == [bbm_value(u, q, e, x_mask) for e in ladder]
    with pytest.raises(ValueError, match="at least one eps"):
        bbm_ladder(u, q, [])


def _gagliardo_reference(u, q, ladder):
    # the pre-ladder computation: one full pair_power_sums, one rung at a time
    from bvqlab.kernels import lattice_offsets, pair_power_sums, resolve_radius

    g = u.grid
    h = g.spacing
    offs, r2 = lattice_offsets(g.dim, sum((e - 1) ** 2 for e in g.extents))
    sums = pair_power_sums(u, offs, q)
    dist = h * np.sqrt(r2)
    gag = math.fsum(sums / dist ** (g.dim + 1)) * h ** (2 * g.dim)
    out = []
    for eps in ladder:
        m2, eps_len = resolve_radius(eps, h)
        near = r2 <= m2
        bbm = math.fsum(sums[near] / dist[near]) * h ** (2 * g.dim) / eps_len**g.dim
        out.append((bbm, gag, bool(bbm <= gag)))
    return out


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", ["line", "disc"])
def test_gagliardo_ladder_bit_exact(line_mask, case, q):
    u, _, cells = _ladder_field(line_mask, case)
    ladder = [c * u.grid.spacing for c in cells]
    triples = gagliardo_dominates_bbm(u, q, ladder)
    assert triples == _gagliardo_reference(u, q, ladder)
    assert [t[0] for t in triples] == [bbm_value(u, q, e) for e in ladder]
    assert triples[0][1] == gagliardo_seminorm_pow(u, q)


def test_ladder_errors_before_any_pair_pass(line_mask, monkeypatch):
    from bvqlab import kernels

    def boom(*args, **kwargs):
        raise AssertionError("pair sums ran before the ladder was validated")

    monkeypatch.setattr(kernels, "pair_power_sums", boom)
    u = random_block_field(line_mask, seed=11)
    h = u.grid.spacing
    with pytest.raises(ValueError):
        bbm_sweep(u, 2.0, [16 * h, 32 * h, 8 * h], "constant")  # not decreasing
    with pytest.raises(RegimeError):
        bbm_sweep(u, 2.0, [u.grid.diameter, 16 * h, 8 * h], "constant")
    with pytest.raises(ValueError):
        bbm_sweep(u, 0.5, [32 * h, 16 * h, 8 * h], "constant")  # q < 1
    with pytest.raises(ValueError, match=">= 3 eps values"):
        bbm_sweep(u, 2.0, [32 * h, 16 * h], "linear-in-eps")  # too few to fit
    with pytest.raises(ValueError, match="unknown fit model"):
        bbm_sweep(u, 2.0, [32 * h, 16 * h, 8 * h], "quadratic")
    with pytest.raises(ValueError, match="at least one eps"):
        bbm_sweep(u, 2.0, [], "constant")
    with pytest.raises(RegimeError):
        gagliardo_dominates_bbm(u, 2.0, [16 * h, u.grid.diameter])
    with pytest.raises(RegimeError):
        gagliardo_dominates_bbm(u, 2.0, [16 * h, 4 * h])  # below kappa*h
    with pytest.raises(ValueError):
        gagliardo_dominates_bbm(u, 0.5, [16 * h])
    with pytest.raises(ValueError, match="at least one eps"):
        gagliardo_dominates_bbm(u, 2.0, [])


def test_grid_radius_validation():
    with pytest.raises(ValueError):
        GridRadius(0)
    r = GridRadius.from_cells(5).scaled_sqrt_dim(2)
    assert r.m2 == 50


@pytest.mark.parametrize("count", [0, -3])
def test_direction_count_below_one_rejected(square_mask, count):
    u = sample_analytic(make_field("half-plane-indicator"), square_mask)
    h = square_mask.grid.spacing
    with pytest.raises(ValueError, match="n_directions"):
        directional_sup(u, 2.0, 12 * h, n_directions=count)
    with pytest.raises(ValueError, match="n_directions"):
        besov_seminorm_pow(u, 2.0, [12 * h, 8 * h], n_directions=count)


def test_gagliardo_domination_tie_is_ok():
    # inside cells 0 and 2 of four: at eps = 2 cells the two sides are equal
    # in exact arithmetic, and their computed totals differ by one ulp
    g = Grid.for_box([0.0], [0.3], [4])
    inside = np.array([True, False, True, False])
    u = SampledField(DomainMask(g, inside), np.array([0.0, 0.0, 1.0, 0.0]))
    (bbm, gag, ok), = gagliardo_dominates_bbm(u, 1.5, [GridRadius(4)], kappa=2.0)
    assert ok
    assert bbm == 0.5 and gag == 0.49999999999999994  # bbm > gag by one ulp
    assert bbm == bbm_value(u, 1.5, GridRadius(4), kappa=2.0)
    assert gag == gagliardo_seminorm_pow(u, 1.5)


def test_directional_sup_and_besov_constant_zero(line_mask):
    u = sample_analytic(make_field("constant", value=(2.0,)), line_mask)
    h = line_mask.grid.spacing
    assert directional_sup(u, 2.0, 16 * h) == 0.0
    assert besov_seminorm_pow(u, 2.0, [16 * h, 8 * h]) == 0.0


def test_shifts_reproduce_linear_fields_at_the_nearest_lattice_vector(square_mask):
    # on an affine field the directional sum has a closed form at the lattice
    # vector v nearest eps k / h, for any direction, on- or off-grid
    u = sample_analytic(make_field("linear", slope=(0.8, -0.6)), square_mask)
    h = square_mask.grid.spacing
    eps = 12 * h
    for ang in (0.0, 0.37, 1.2):
        k = np.array([math.cos(ang), math.sin(ang)])
        val = directional_value(u, 2.0, eps, k)
        # h^2 |grad.v h|^2 (valid samples) / (|v| h); on the full mask x is
        # valid when x + v stays on the grid, which loses |v_a| samples per axis
        v = np.rint(eps * k / h)
        count = int(np.prod(np.array(square_mask.grid.extents) - np.abs(v)))
        expect = (h * (0.8 * v[0] - 0.6 * v[1])) ** 2 * count * h**2 / (np.linalg.norm(v) * h)
        assert val == pytest.approx(expect, rel=1e-9)


def test_two_sided_erosion_guard(step_field):
    from bvqlab import EmptyMaskError, verify_two_sided

    with pytest.raises(EmptyMaskError):
        verify_two_sided(step_field, 2.0, 0.8)  # 2*eps erosion empties (-1,1)


def test_three_dimensional_exact_properties():
    # exact lattice properties in 3D: indicator q-independence, kernel
    # homogeneity, and the two-sided comparability on a coarse grid
    from bvqlab import verify_two_sided

    g = Grid.for_box([0.0] * 3, [1.0] * 3, [48] * 3)
    mask = DomainMask.full(g)
    # half-space indicator built directly (the catalog half-plane is 2D)
    x = g.points().reshape(g.extents + (3,))
    vals = (x[..., 0] > 0.5024).astype(float)
    u = SampledField(mask, vals)
    h = g.spacing
    r = GridRadius.from_cells(8)
    base = bbm_value(u, 1.0, r)
    assert base > 0
    for q in (1.5, 2.0, 3.0):
        assert bbm_value(u, q, r) == base
    scaled = SampledField(mask, 3.0 * vals)
    assert bbm_value(scaled, 2.0, r) == pytest.approx(9.0 * base, rel=1e-12)
    rep = verify_two_sided(u, 2.0, r)
    assert rep.passed
    assert rep.details["ball_measure_discrete"] == pytest.approx(
        4.0 * math.pi / 3.0, rel=0.05
    )
