import math

import numpy as np
import pytest

from bvqlab import _rng, kernels
from bvqlab import (
    ConfigError,
    DomainMask,
    Grid,
    UnknownFieldError,
    list_fields,
    make_field,
    sample_analytic,
    sample_gradient,
)
from bvqlab.fields import FIELD_REGISTRY, JumpPiece

EIKONAL_KINDS = ["pyramid-eikonal", "cone-eikonal", "zigzag-eikonal"]
INDICATOR_KINDS = ["half-plane-indicator", "polygon-indicator", "ball-indicator"]


def test_constant_sampling(line_mask):
    f = sample_analytic(make_field("constant", value=(3.0,)), line_mask)
    assert (f.values == 3.0).all()


def test_step_small_grid_pattern():
    g = Grid.for_box([-1.0], [1.0], [8])
    f = sample_analytic(make_field("step-1d", position=0.0), DomainMask.full(g))
    np.testing.assert_array_equal(f.values[:, 0], [0, 0, 0, 0, 1, 1, 1, 1])


def test_pyramid_center_value():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    spec = make_field("pyramid-eikonal")
    val = spec.evaluate(np.array([[0.5, 0.5]]))
    assert val[0, 0] == pytest.approx(0.5)


def test_dimension_mismatch_and_unknown_kind(line_mask):
    with pytest.raises(ValueError):
        sample_analytic(make_field("half-plane-indicator"), line_mask)
    with pytest.raises(UnknownFieldError):
        make_field("not-a-kind")


@pytest.mark.parametrize("kind", INDICATOR_KINDS)
def test_indicator_values_exact(kind, square_mask):
    spec = make_field(kind)
    f = sample_analytic(spec, square_mask)
    assert set(np.unique(f.values)) <= {0.0, 1.0}
    assert kernels._is_indicator(f)  # so its pair sums are exact counts


@pytest.mark.parametrize("kind", EIKONAL_KINDS)
def test_eikonal_gradient_unit_norm_analytic(kind, square_mask):
    spec = make_field(kind)
    pts = square_mask.grid.points()[square_mask.inside.ravel()]
    away = spec.ridge_distance(pts) > 1e-3
    g = spec.gradient(pts[away])
    norms = np.sqrt((g**2).sum(axis=1))
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


@pytest.mark.parametrize("kind", EIKONAL_KINDS)
def test_eikonal_one_sided_differences(kind):
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    mask = DomainMask.full(g)
    spec = make_field(kind)
    u = sample_analytic(spec, mask).values[..., 0]
    h = g.spacing
    # forward differences on interior cells away from ridges and boundary
    dx = (u[1:, :] - u[:-1, :]) / h
    dy = (u[:, 1:] - u[:, :-1]) / h
    grad_norm = np.sqrt(dx[:, :-1] ** 2 + dy[:-1, :] ** 2)
    pts = g.points().reshape(g.extents + (2,))[:-1, :-1]
    dist = spec.ridge_distance(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    # one-sided differences carry an O(h * curvature) error, so for the cone
    # "away from the ridge" must also clear the curvature scale at the apex;
    # the piecewise-linear profiles only need to clear the ridge lines
    margin = max(5 * h, 0.15) if kind == "cone-eikonal" else 5 * h
    interior = dist > margin
    assert interior.sum() > 1000
    assert np.abs(grad_norm[interior] - 1.0).max() < 5 * h


def test_pyramid_ridge_total_measure():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    spec = make_field("pyramid-eikonal")
    jump = spec.jump_spec(g)
    assert jump.total_measure == pytest.approx(2.0 * math.sqrt(2.0))
    for p in jump.pieces:
        assert p.amplitude() == pytest.approx(math.sqrt(2.0))


def test_ball_jump_measure():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    spec = make_field("ball-indicator", center=(0.5, 0.5), radius=0.25)
    assert spec.jump_spec(g).total_measure == pytest.approx(2 * math.pi * 0.25)


@pytest.mark.parametrize("radius", [1e300, 2e154, math.inf, math.nan])
def test_ball_radius_with_no_finite_square_is_refused(radius):
    # evaluate compares r^2 < radius**2, which overflowed at 1e300
    from bvqlab.fields import BallField

    with pytest.raises(ValueError, match="radius"):
        BallField(radius=radius)
    assert make_field("ball-indicator", radius=1e150).radius == 1e150


def test_half_plane_jump_clipping():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    axis = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.5)
    assert axis.jump_spec(g).total_measure == pytest.approx(1.0)
    diag = make_field(
        "half-plane-indicator",
        normal=(1 / math.sqrt(2), 1 / math.sqrt(2)),
        offset=1 / math.sqrt(2),
    )
    # the diagonal of the unit square
    assert diag.jump_spec(g).total_measure == pytest.approx(math.sqrt(2.0))


def test_polygon_square_perimeter():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    s = 0.4
    verts = [(0.3, 0.3), (0.3 + s, 0.3), (0.3 + s, 0.3 + s), (0.3, 0.3 + s)]
    spec = make_field("polygon-indicator", vertices=verts)
    jump = spec.jump_spec(g)
    assert jump.total_measure == pytest.approx(4 * s)
    for p in jump.pieces:
        assert abs(np.linalg.norm(p.normal) - 1.0) < 1e-12


def test_zigzag_jump_lines():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    spec = make_field("zigzag-eikonal", halfwidth=0.25, offset=0.01)
    jump = spec.jump_spec(g)
    # kinks at 0.01 + m*0.25 inside (0,1): m = 0..3
    assert len(jump.pieces) == 4
    assert jump.total_measure == pytest.approx(4.0)
    for p in jump.pieces:
        assert p.amplitude() == pytest.approx(2.0)


def test_hoelder_term_count_and_range():
    g = Grid.for_box([0.0], [1.0], [1024])
    spec = make_field("hoelder", s=0.75)
    f = sample_analytic(spec, DomainMask.full(g))
    # geometric series bound
    assert np.abs(f.values).max() <= 1.0 / (1.0 - 2.0**-0.75) + 1e-9
    with pytest.raises(ValueError):
        spec.evaluate(np.array([[0.5]]))  # needs h or explicit terms
    pinned = make_field("hoelder", s=0.75, terms=3)
    assert pinned.evaluate(np.array([[0.5]])).shape == (1, 1)


def test_seeded_hoelder_matches_numpy_phases():
    # numpy.random is the oracle: the phases are default_rng(seed).uniform(0, 2 pi)
    g = Grid.for_box([0.0], [1.0], [1024])
    spec = make_field("hoelder", s=0.75, seed=11)
    values = sample_analytic(spec, DomainMask.full(g)).values[:, 0]
    x = g.points()[:, 0]
    n = spec._n_terms(g.spacing)
    phases = np.random.default_rng(11).uniform(0.0, 2 * math.pi, size=n + 1)
    expected = np.zeros_like(x)
    for j in range(n + 1):
        expected += 2.0 ** (-j * 0.75) * np.cos(2.0**j * math.pi * x + phases[j])
    np.testing.assert_array_equal(values.view(np.uint64), expected.view(np.uint64))


def test_block_random_levels_are_drawn_once(monkeypatch):
    draws, uniform = [], _rng.uniform

    def counted(*args):
        draws.append(args)
        return uniform(*args)

    monkeypatch.setattr(_rng, "uniform", counted)
    spec = make_field("block-random", seed=7, blocks=12, low=-3.5, high=7.25)
    # 256^2 cells are sampled in four blocks of rows, each evaluated apart
    f = sample_analytic(spec, DomainMask.full(Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])))
    assert draws == [(7, -3.5, 7.25, 144)]
    levels = np.random.default_rng(7).uniform(-3.5, 7.25, size=(12, 12))
    np.testing.assert_array_equal(spec._levels.view(np.uint64), levels.view(np.uint64))
    np.testing.assert_array_equal(np.unique(f.values), np.unique(levels))


def test_piecewise_multi_levels(line_mask):
    spec = make_field(
        "piecewise-constant-multi", positions=(-0.5, 0.25), levels=(0.0, 2.0, -1.0)
    )
    f = sample_analytic(spec, line_mask)
    x = line_mask.grid.axis_centers(0)
    np.testing.assert_array_equal(f.values[x < -0.5, 0], 0.0)
    np.testing.assert_array_equal(f.values[(x > -0.5) & (x < 0.25), 0], 2.0)
    np.testing.assert_array_equal(f.values[x > 0.25, 0], -1.0)
    assert spec.jump_spec(line_mask.grid).total_measure == pytest.approx(2.0)


def test_ramp_and_sine_gradient_mass():
    g = Grid.for_box([-1.0], [1.0], [512])
    ramp = make_field("ramp", x0=-0.25, x1=0.25)
    assert ramp.total_gradient_mass(g) == pytest.approx(1.0)
    g01 = Grid.for_box([0.0], [1.0], [512])
    sine = make_field("sine-1d")
    assert sine.total_gradient_mass(g01) == pytest.approx(2.0)
    sine3 = make_field("sine-1d", amplitude=0.5, cycles=3)
    assert sine3.total_gradient_mass(g01) == pytest.approx(3.0)


def test_gradient_sampling_shapes(square_mask):
    spec = make_field("pyramid-eikonal")
    gfield = sample_gradient(spec, square_mask)
    assert gfield.d == 2
    assert gfield.values.shape == square_mask.grid.extents + (2,)


def test_list_fields_covers_catalog():
    kinds = list_fields()
    for k in EIKONAL_KINDS + INDICATOR_KINDS + ["constant", "linear", "step-1d"]:
        assert k in kinds


# --------------------------------------------------------------------------
# Jump specs measure only what lies inside the grid box.
# --------------------------------------------------------------------------


def test_step_outside_the_box_is_jump_free(line_mask):
    lo, hi = line_mask.grid.origin[0], line_mask.grid.upper[0]
    for position in (lo - 4.0, lo, hi, hi + 4.0):
        assert make_field("step-1d", position=position).jump_spec(line_mask.grid) is None
    inside = make_field("step-1d", position=0.5 * (lo + hi)).jump_spec(line_mask.grid)
    assert [p.measure for p in inside.pieces] == [1.0]


def test_piecewise_constant_counts_only_positions_inside_the_box():
    g = Grid.for_box([-1.0], [1.0], [64])
    spec = make_field("piecewise-constant-multi", positions=(-3.0, -1.0, 0.25, 5.0), levels=(0.0, 1.0, 3.0, 2.0, 7.0))
    (piece,) = spec.jump_spec(g).pieces  # only x = 0.25 lies strictly inside
    assert piece.minus == (3.0,) and piece.plus == (2.0,) and piece.measure == 1.0
    outside = make_field("piecewise-constant-multi", positions=(-2.0, 3.0), levels=(0.0, 1.0, 2.0))
    assert outside.jump_spec(g) is None


def test_ball_leaving_the_box_is_refused(square_mask):
    g = square_mask.grid
    for center, radius in (((0.5, 0.5), 0.6), ((0.1, 0.5), 0.2), ((0.5, 0.9), 0.15)):
        with pytest.raises(ValueError, match="inside the grid box"):
            make_field("ball-indicator", center=center, radius=radius).jump_spec(g)
    (piece,) = make_field("ball-indicator", center=(0.5, 0.5), radius=0.5).jump_spec(g).pieces
    assert piece.measure == pytest.approx(math.pi)
    line = Grid.for_box([0.0], [1.0], [64])
    with pytest.raises(ValueError, match="inside the grid box"):
        make_field("ball-indicator", center=(0.9,), radius=0.2).jump_spec(line)


def test_ball_jump_is_one_whole_sphere(square_mask):
    # a ball's normals cover the sphere: no single normal stands for them
    (piece,) = make_field("ball-indicator", center=(0.5, 0.5), radius=0.3).jump_spec(square_mask.grid).pieces
    assert piece.normal is None and piece.measure == pytest.approx(2 * math.pi * 0.3)


def test_jump_piece_traces_may_differ_by_any_amount_but_not_be_equal():
    for plus, minus in (((1e-9,), (0.0,)), ((0.0, 1e-12), (0.0, 0.0)), ((1.0,), (1.0 + 2.0**-52,))):
        assert JumpPiece(1.0, plus, minus, (1.0,)).amplitude() > 0.0
    for traces in (((0.5,), (0.5,)), ((0.0, 1.0), (-0.0, 1.0))):
        with pytest.raises(ValueError, match="plus and minus must differ"):
            JumpPiece(1.0, *traces, (1.0,))


@pytest.mark.parametrize("dim, hi, area", [(1, (2.0,), 1.0), (2, (2.0, 3.0), 3.0), (3, (2.0, 3.0, 1.0), 3.0), (3, (1.0, 0.5, 0.25), 0.125)])
def test_zigzag_kink_measure_is_the_transverse_section(dim, hi, area):
    g = Grid.for_box([0.0] * dim, list(hi), [int(round(16 * h)) for h in hi])
    pieces = make_field("zigzag-eikonal", dim=dim).jump_spec(g).pieces
    assert pieces and all(p.measure == area for p in pieces)


# --------------------------------------------------------------------------
# The parameters a kind takes are exactly its annotated class attributes.
# --------------------------------------------------------------------------

# kind -> {parameter: (declared type, default)}, in catalog and declaration order
CATALOG = {
    "constant": {"value": ("tuple[float, ...]", (0.0,)), "dim": ("int", 1)},
    "linear": {"slope": ("tuple[float, ...]", (1.0,)), "offset": ("float", 0.0)},
    "step-1d": {"position": ("float", 0.0024336904896885545), "low": ("float", 0.0), "high": ("float", 1.0)},
    "half-plane-indicator": {"normal": ("tuple[float, float]", (1.0, 0.0)), "offset": ("float", 0.5024336904896886)},
    "polygon-indicator": {"vertices": ("tuple[tuple[float, float], ...]", (
        (0.25243369048968856, 0.25366560674666455), (0.7524336904896886, 0.25366560674666455),
        (0.7524336904896886, 0.7536656067466646), (0.25243369048968856, 0.7536656067466646),
    ))},
    "ball-indicator": {"center": ("tuple[float, ...]", (0.5024336904896886, 0.5036656067466646)), "radius": ("float", 0.25243369048968856)},
    "piecewise-constant-multi": {
        "positions": ("tuple[float, ...]", (-0.49756630951031144, 0.003665606746664559, 0.49756630951031144)),
        "levels": ("tuple[float, ...]", (0.0, 1.0, -0.5, 0.75)),
    },
    "block-random": {"seed": ("int", 0), "blocks": ("int", 6), "low": ("float", 0.0), "high": ("float", 1.0), "dim": ("int", 2)},
    "hoelder": {"s": ("float", 0.75), "seed": ("int", 0), "terms": ("int | None", None)},
    "ramp": {"x0": ("float", -0.24633439325333545), "x1": ("float", 0.25366560674666455)},
    "sine-1d": {"amplitude": ("float", 1.0), "cycles": ("int", 1)},
    "pyramid-eikonal": {"lo": ("tuple[float, ...]", (0.0, 0.0)), "hi": ("tuple[float, ...]", (1.0, 1.0))},
    "cone-eikonal": {"center": ("tuple[float, ...]", (0.5024336904896886, 0.5036656067466646)), "radius0": ("float", 0.5)},
    "zigzag-eikonal": {"halfwidth": ("float", 0.25), "offset": ("float", 0.0024336904896885545), "dim": ("int", 2)},
}


def test_catalog_parameters_types_and_defaults_are_pinned():
    kinds = list_fields()
    assert list(kinds) == list(CATALOG)
    for kind, params in CATALOG.items():
        assert list(kinds[kind].items()) == [(name, declared) for name, (declared, _) in params.items()]
        spec = make_field(kind)
        for name, (_, default) in params.items():
            value = getattr(spec, name)
            assert (value, type(value)) == (default, type(default)), (kind, name)
        with pytest.raises(TypeError, match="'bogus'"):
            FIELD_REGISTRY[kind](bogus=1)

FIXED_DIM_KINDS = {
    "step-1d": 1, "piecewise-constant-multi": 1, "hoelder": 1, "ramp": 1, "sine-1d": 1,
    "half-plane-indicator": 2, "polygon-indicator": 2,
}


@pytest.mark.parametrize("kind", sorted(FIXED_DIM_KINDS))
def test_fixed_dimension_kinds_take_no_dim(kind):
    assert "dim" not in list_fields()[kind]
    assert make_field(kind).dim == FIXED_DIM_KINDS[kind]
    with pytest.raises(ConfigError, match=f"field {kind} takes no parameter 'dim'"):
        make_field(kind, dim=FIXED_DIM_KINDS[kind])


def test_kind_is_a_class_constant_not_a_parameter():
    kinds = list_fields()
    for kind in ("constant", "block-random", "zigzag-eikonal"):
        assert "dim" in kinds[kind]
    for kind, params in kinds.items():
        assert make_field(kind).kind == kind
        assert "kind" not in params and "is_indicator" not in params
        with pytest.raises(ConfigError, match="'kind'"):
            make_field(kind, kind=kind)
