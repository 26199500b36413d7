import itertools
import math

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    SampledField,
    bbm_value,
    check_b_bound,
    cube_functional,
    cube_score,
    make_field,
    sample_analytic,
)
from bvqlab.cubes import CubePacking, packing_cap
from conftest import random_block_field


def brute_cube_score(u, origin, side):
    block = tuple(slice(a, a + side) for a in origin)
    vals = u.values[block].reshape(-1, u.d)
    total = 0.0
    for i in range(len(vals)):
        for j in range(len(vals)):
            total += float(np.linalg.norm(vals[i] - vals[j]))
    h = u.grid.spacing
    eps = side * h
    n = u.grid.dim
    return eps ** (n - 1) / eps ** (2 * n) * total * h ** (2 * n)


def test_cube_score_matches_brute_force(square_mask):
    u = random_block_field(square_mask, seed=2, blocks=5)
    for origin in [(0, 0), (10, 20), (40, 40)]:
        fast = cube_score(u, origin, 8)
        slow = brute_cube_score(u, origin, 8)
        assert fast == pytest.approx(slow, rel=1e-10)


def test_cube_score_constant_zero(square_mask):
    u = sample_analytic(make_field("constant", value=(3.0,), dim=2), square_mask)
    assert cube_score(u, (5, 5), 16) == 0.0


def test_cube_score_one_sided_jump_zero(square_mask):
    u = sample_analytic(
        make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.75), square_mask
    )
    # cube fully on one side of the jump
    assert cube_score(u, (0, 0), 16) == 0.0


def test_step_cube_value_half(step_field):
    # a cube straddling the jump at its center scores exactly 1/2
    h = step_field.grid.spacing
    val, packing = cube_functional(step_field, GridRadius.from_cells(32), stride_cells=2)
    assert packing.count == 1
    assert val == pytest.approx(0.5, rel=0.02)


def test_constant_cube_functional_empty(line_mask):
    u = sample_analytic(make_field("constant", value=(1.0,)), line_mask)
    val, packing = cube_functional(u, GridRadius.from_cells(16))
    assert val == 0.0 and packing.count == 0


def _exact_packing_value(u, side, stride):
    """The best packing value over the stride-lattice candidates, by walking
    every disjoint set of at most the cap positive-score cubes: the exact
    oracle for the greedy search, on at most 20 candidates."""
    cands = [(o, _loop_score(u, o, side)) for o in _loop_candidates(u.mask.inside, side, stride)]
    assert 0 < len(cands) <= 20
    cap = packing_cap(side * u.grid.spacing, u.grid.dim)
    best = 0.0

    def walk(start, chosen, total):
        nonlocal best
        best = max(best, total)
        if len(chosen) == cap:
            return
        for j in range(start, len(cands)):
            o, score = cands[j]
            if score > 0 and all(any(abs(a - b) >= side for a, b in zip(o, c)) for c in chosen):
                walk(j + 1, chosen + [o], total + score)

    walk(0, [], 0.0)
    return best


def test_exact_small_matches_greedy_on_step(step_field):
    val_g, _ = cube_functional(step_field, GridRadius.from_cells(128), stride_cells=64)
    val_e = _exact_packing_value(step_field, 128, 64)
    assert val_g > 0 and val_e == pytest.approx(val_g, rel=1e-12)


def test_greedy_never_beats_exact_small():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    mask = DomainMask.full(g)
    for seed in range(5):
        u = random_block_field(mask, seed=seed, blocks=4)
        val_g, _ = cube_functional(u, GridRadius.from_cells(16), stride_cells=16)
        val_e = _exact_packing_value(u, 16, 16)
        assert val_g <= val_e + 1e-12


def test_packing_feasibility_enforced(square_mask):
    with pytest.raises(ValueError):
        CubePacking(0.25, 8, ((0, 0), (4, 4))).validate(square_mask)  # overlap
    with pytest.raises(ValueError):
        CubePacking(0.25, 8, ((94, 94),)).validate(square_mask)  # leaves grid
    assert packing_cap(0.125, 2) == 8
    assert packing_cap(0.125, 1) == 1


def test_packing_cap_respected():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [96, 96])
    mask = DomainMask.full(g)
    u = random_block_field(mask, seed=8, blocks=12)
    eps = GridRadius.from_cells(12)  # eps = 0.125 -> cap 8
    _, packing = cube_functional(u, eps, stride_cells=12)
    assert packing.count <= 8
    packing.validate(mask)


def test_check_b_bound_step(step_field):
    (rep,) = check_b_bound(step_field, 2.0, [GridRadius.from_cells(32)], stride_cells=2)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.5, rel=0.02)
    assert rep.rhs == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_check_b_bound_random_fields_every_eps():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [96, 96])
    mask = DomainMask.full(g)
    cells = (16, 12, 8)
    for seed in range(5):
        u = random_block_field(mask, seed=seed, blocks=8)
        for q in (1.5, 2.0, 3.0):
            reports = check_b_bound(u, q, [GridRadius.from_cells(m) for m in cells])
            assert len(reports) == len(cells)
            for m, rep in zip(cells, reports):
                assert rep.passed, (seed, m, q)


def test_check_b_bound_catalog_2d(square_mask):
    for kind in ("half-plane-indicator", "ball-indicator", "zigzag-eikonal"):
        u = sample_analytic(make_field(kind), square_mask)
        (rep,) = check_b_bound(u, 2.0, [GridRadius.from_cells(12)])
        assert rep.passed, kind


def test_check_b_bound_constant_zero(line_mask):
    u = sample_analytic(make_field("constant", value=(1.0,)), line_mask)
    (rep,) = check_b_bound(u, 2.0, [GridRadius.from_cells(16)])
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_cube_functional_positive_iff_nonconstant(square_mask):
    u = sample_analytic(make_field("ball-indicator"), square_mask)
    val, packing = cube_functional(u, GridRadius.from_cells(12))
    assert val > 0 and packing.count >= 1


# --------------------------------------------------------------------------
# Batched scoring against the per-cube loop it replaced.
# --------------------------------------------------------------------------


def _loop_score(u, origin, side):
    """The per-cube score as computed before batching, one cube at a time."""
    block = tuple(slice(a, a + side) for a in origin)
    vals = u.values[block].reshape(-1, u.d)
    if vals.shape[1] == 1:
        s = np.sort(vals[:, 0])
        k = len(s)
        coef = 2.0 * np.arange(k) - (k - 1.0)
        pair = 2.0 * float(s @ coef)
    else:
        diff = vals[:, None, :] - vals[None, :, :]
        pair = math.fsum(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum(axis=1))
    h = u.grid.spacing
    eps = side * h
    n = u.grid.dim
    return eps ** (n - 1) / eps ** (2 * n) * (pair * h ** (2 * n))


def _loop_candidates(inside, side, stride):
    ranges = [range(0, e - side + 1, stride) for e in inside.shape]
    return [
        o for o in itertools.product(*ranges)
        if inside[tuple(slice(a, a + side) for a in o)].all()
    ]


def _scoring_field(extents, d, mask_kind, seed):
    g = Grid.for_box([0.0] * len(extents), [e / 16.0 for e in extents], extents)
    c = np.array([e / 32.0 for e in extents])
    r2 = ((g.points() - c) ** 2).sum(axis=1).reshape(g.extents)
    rad2 = (min(extents) / 32.0) ** 2
    if mask_kind == "full":
        inside = np.ones(g.extents, dtype=bool)
    elif mask_kind == "disc":
        inside = r2 < 0.9 * rad2
    else:  # holed: a disc hole plus a few scattered outside cells
        rng = np.random.default_rng(seed + 50)
        inside = (r2 > 0.1 * rad2) & (rng.random(g.extents) > 0.01)
    rng = np.random.default_rng(seed)
    vals = np.where(inside[..., None], rng.normal(size=g.extents + (d,)), 0.0)
    return SampledField(DomainMask(g, inside), vals, d=d)


@pytest.mark.parametrize("mask_kind", ["full", "disc", "holed"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("extents, side", [((40,), 7), ((19, 16), 5), ((9, 8, 10), 3)])
def test_batched_scores_match_the_loop_bit_for_bit(extents, side, d, mask_kind):
    from bvqlab.cubes import _candidates, _cube_scores

    u = _scoring_field(extents, d, mask_kind, seed=len(extents) + d)
    for stride in range(1, side + 1):
        origins = _candidates(u.mask, side, stride)
        expect = _loop_candidates(u.mask.inside, side, stride)
        assert [tuple(o) for o in origins.tolist()] == expect, stride
        assert expect, stride
        scores = _cube_scores(u, origins, side).tolist()
        assert scores == [_loop_score(u, o, side) for o in expect], stride
        assert scores == [cube_score(u, o, side) for o in expect], stride


def test_batched_scores_span_several_chunks(monkeypatch):
    from bvqlab import cubes

    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    u = random_block_field(DomainMask.full(g), seed=5, blocks=7)
    origins = cubes._candidates(u.mask, 8, 1)
    one_chunk = cubes._cube_scores(u, origins, 8).tolist()
    monkeypatch.setattr(cubes, "_CHUNK_FLOATS", 3 * 64 + 5)  # 3 cubes per chunk
    assert cubes._cube_scores(u, origins, 8).tolist() == one_chunk
    assert one_chunk == [_loop_score(u, o, 8) for o in origins.tolist()]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("budget", [1, 300, 1000])
def test_vector_cubes_split_into_row_chunks_score_as_the_loop(monkeypatch, d, budget):
    # sides 11 and 23 give 121 and 529 pair-norm rows: one cube sums as
    # hundreds of row chunks, down to a single row per chunk
    from bvqlab import cubes

    u = _scoring_field((40, 36), d, "holed", seed=d)
    monkeypatch.setattr(cubes, "_CHUNK_FLOATS", budget)
    for side in (11, 23):
        origins = cubes._candidates(u.mask, side, side // 2)
        expect = [_loop_score(u, o, side) for o in origins.tolist()]
        assert cubes._cube_scores(u, origins, side).tolist() == expect, side


def test_scoring_never_writes_the_field():
    # the scalar sort runs in place on the gathered copy, never on the values
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [48, 48])
    for d in (1, 2):
        vals = np.random.default_rng(d).normal(size=(48, 48, d))
        u = SampledField(DomainMask.full(g), vals, d=d)
        before = u.values.tobytes()
        cube_functional(u, GridRadius.from_cells(8), stride_cells=3, kappa=2.0)
        cube_score(u, (5, 7), 16)
        assert u.values.tobytes() == before, d


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("side", [32, 48])
def test_vector_cube_score_memory_is_set_by_the_budget_not_the_side(side):
    # the dense k x k x d differences took 32 and 162 MiB here.  Live now:
    # the gathered cube and its contiguous copy (2kd floats), one row
    # chunk's differences and norms (at most the budget) and the k row
    # sums, so 8 (budget + (2d + 1) k) bytes, under 8 (budget + 10 k)
    from bvqlab import cubes

    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    u = SampledField(DomainMask.full(g), np.random.default_rng(side).normal(size=(128, 128, 2)), d=2)
    cube_score(u, (1, 2), 16)  # first-call set-up
    peak, score = _traced_peak(lambda: cube_score(u, (1, 2), side))
    assert score == _loop_score(u, (1, 2), side)
    assert peak < 8 * (cubes._CHUNK_FLOATS + 10 * side * side), peak
    assert peak < 2 * 2**20, peak


def test_scalar_cube_scores_memory_is_one_chunk_and_the_scores():
    from bvqlab import cubes

    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    u = random_block_field(DomainMask.full(g), seed=6, blocks=12)
    origins = cubes._candidates(u.mask, 16, 4)
    cubes._cube_scores(u, origins[:4], 16)  # first-call set-up
    peak, scores = _traced_peak(lambda: cubes._cube_scores(u, origins, 16))
    assert len(scores) == 61 * 61
    # one gathered chunk of whole cubes, sorted in place, and the scores,
    # with 64 KiB for index arrays and per-chunk dot products
    assert peak < 8 * cubes._CHUNK_FLOATS + scores.nbytes + 64 * 2**10, peak


@pytest.mark.parametrize("k", [7, 25, 64, 100, 255, 256, 999, 1000])
def test_pair_abs_sums_round_each_row_as_its_own_dot(k):
    from bvqlab.cubes import _pair_abs_sums

    blocks = np.random.default_rng(k).normal(size=(37, k, 1)) * 3.0 + 1.0
    s = np.sort(blocks[:, :, 0], axis=-1)
    coef = 2.0 * np.arange(k) - (k - 1.0)
    assert _pair_abs_sums(blocks).tolist() == [2.0 * float(row @ coef) for row in s]
    assert blocks[:, :, 0].tobytes() == s.tobytes()  # sorted in place


def test_greedy_selection_reads_candidates_only_up_to_its_stop():
    from bvqlab.cubes import _greedy_select

    def ranked(head):
        yield from head
        raise AssertionError("read past the stop")

    # a score at or below zero stops the walk, and so does the cap
    kept = _greedy_select(ranked([(2.0, (0, 0)), (1.5, (2, 3)), (1.0, (8, 0)), (0.0, (16, 16))]), 8, 5)
    assert kept == [(2.0, (0, 0)), (1.0, (8, 0))]
    assert _greedy_select(ranked([(2.0, (0, 0)), (1.0, (8, 0)), (0.5, (16, 0))]), 8, 2) == kept


def _assert_loop_search(u):
    """The whole greedy search on loop-scored candidates picks the same cubes."""
    from bvqlab.cubes import _greedy_select

    eps = GridRadius.from_cells(8)
    val, packing = cube_functional(u, eps, stride_cells=3, kappa=2.0)
    scored = sorted(
        ((_loop_score(u, o, 8), o) for o in _loop_candidates(u.mask.inside, 8, 3)),
        key=lambda t: (-t[0], t[1]),
    )
    chosen = _greedy_select(scored, 8, packing_cap(eps.length(u.grid.spacing), 2))
    assert packing.origins == tuple(o for _, o in chosen)
    assert val == math.fsum(s for s, _ in chosen)


def test_cube_functional_matches_the_loop_search():
    _assert_loop_search(_scoring_field((48, 40), 1, "holed", seed=9))


def test_cube_ranking_breaks_score_ties_by_origin():
    # every cube across the step scores the same, so the origin order alone
    # ranks them (reversed origins would pick (18, 30) first)
    u = _scoring_field((48, 40), 1, "holed", seed=9)
    step = (np.arange(48) >= 21).astype(float)[:, None, None]
    _assert_loop_search(SampledField(u.mask, np.broadcast_to(step, u.values.shape).copy()))


@pytest.mark.parametrize("extents, side", [((16,), 20), ((30, 10), 12), ((12, 12, 6), 8)])
def test_cube_wider_than_the_grid_gives_the_empty_packing(extents, side):
    u = _scoring_field(extents, 1, "full", seed=1)
    val, packing = cube_functional(u, GridRadius.from_cells(side), kappa=2.0)
    assert val == 0.0 and packing.count == 0 and packing.side_cells == side


@pytest.mark.parametrize("stride", [0, -2])
def test_stride_below_one_is_refused(stride):
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    u = sample_analytic(make_field("ball-indicator"), DomainMask.full(g))
    eps = GridRadius.from_cells(16)
    with pytest.raises(ValueError, match="stride_cells"):
        cube_functional(u, eps, stride_cells=stride)
    with pytest.raises(ValueError, match="stride_cells"):
        check_b_bound(u, 2.0, [eps], stride_cells=stride)


# --------------------------------------------------------------------------
# The b-space ladder: one kernel pass, every rung equal to bbm_value.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_check_b_bound_ladder_is_one_pass_and_bit_exact(monkeypatch, dim, q):
    from bvqlab import kernels

    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    n = 256 if dim == 1 else 72
    g = Grid.for_box([0.0] * dim, [1.0] * dim, [n] * dim)
    u = random_block_field(DomainMask.full(g), seed=3 + dim, blocks=9)
    cells = (16, 12, 9, 8) if dim == 1 else (12, 10, 9, 8)
    ladder = [GridRadius.from_cells(m) for m in cells]
    reports = check_b_bound(u, q, ladder)
    wide = [GridRadius.from_cells(m).scaled_sqrt_dim(dim) for m in cells]
    assert calls == [len(kernels.lattice_offsets(dim, wide[0].m2)[0])]
    monkeypatch.setattr(kernels, "pair_power_sums", real)
    for eps, w, rep in zip(ladder, wide, reports):
        assert rep.details["kernel_at_sqrtN"] == bbm_value(u, q, w)
        assert rep.details["eps_wide"] == w.length(g.spacing)
        assert rep.lhs == cube_functional(u, eps)[0]
        assert rep.passed


def test_check_b_bound_bad_ladder_raises_before_any_pair_pass(monkeypatch):
    from bvqlab import RegimeError, kernels

    def boom(*args, **kwargs):
        raise AssertionError("pair sums ran before the ladder was validated")

    monkeypatch.setattr(kernels, "pair_power_sums", boom)
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [64, 64])
    u = random_block_field(DomainMask.full(g), seed=1)
    ok = GridRadius.from_cells(12)
    with pytest.raises(ValueError, match="whole number"):
        check_b_bound(u, 2.0, [ok, GridRadius(50)])
    with pytest.raises(RegimeError):
        check_b_bound(u, 2.0, [ok, GridRadius.from_cells(4)])  # below kappa*h
    with pytest.raises(RegimeError):
        check_b_bound(u, 2.0, [ok, GridRadius.from_cells(64)])  # sqrt(2)*eps = diameter
    with pytest.raises(ValueError, match="stride_cells"):
        check_b_bound(u, 2.0, [ok, ok], stride_cells=0)
    with pytest.raises(ValueError, match="q must be"):
        check_b_bound(u, 0.5, [ok])
    with pytest.raises(ValueError, match="at least one eps"):
        check_b_bound(u, 2.0, [])
