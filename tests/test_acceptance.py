"""Acceptance suite: one test per release criterion, at its stated tolerance.

Every test prints a single PASS line on success (pytest -s shows them); a
failure message names the criterion.  Tolerances are pinned here and nowhere
else.
"""

import json
import math
import time

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    ag_chain_reports,
    bbm_sweep,
    bbm_value,
    build_mollifier,
    check_b_bound,
    check_vq_embedding,
    cube_functional,
    dimensional_constant,
    dimensional_constant_closed_form,
    gagliardo_dominates_bbm,
    make_field,
    q_variation_pow,
    sample_analytic,
    sample_gradient,
    verify_gamma_consistency,
    verify_jump_formula,
    verify_q1_full_bv,
    verify_two_sided,
)
from conftest import q_monotonicity_holds, random_block_field, splitting_inequality_holds
from test_variation import exhaustive_q_variation_pow, line_field


def _report(num, text):
    print(f"criterion {num:02d} PASS - {text}")


def _catalog_fields():
    """One sampled instance per catalog kind, at desk scale."""
    g1 = Grid.for_box([-1.0], [1.0], [512])
    m1 = DomainMask.full(g1)
    g2 = Grid.for_box([0.0, 0.0], [1.0, 1.0], [96, 96])
    m2 = DomainMask.full(g2)
    one_d = [
        make_field("constant", value=(2.0,)),
        make_field("linear", slope=(1.5,)),
        make_field("step-1d", position=0.0),
        make_field("piecewise-constant-multi"),
        make_field("ramp"),
        make_field("hoelder", s=0.75),
        make_field("sine-1d"),
        make_field("ball-indicator", center=(0.1,), radius=0.4),
        make_field("block-random", dim=1, seed=3),
        make_field("pyramid-eikonal", lo=(-1.0,), hi=(1.0,)),
    ]
    two_d = [
        make_field("half-plane-indicator"),
        make_field("polygon-indicator"),
        make_field("ball-indicator"),
        make_field("block-random", seed=5),
        make_field("zigzag-eikonal"),
        make_field("pyramid-eikonal"),
        make_field("cone-eikonal"),
    ]
    fields = [(spec.kind, sample_analytic(spec, m1)) for spec in one_d]
    fields += [(spec.kind, sample_analytic(spec, m2)) for spec in two_d]
    # vector-valued coverage: the exact gradient of the pyramid
    fields.append(("pyramid-gradient", sample_gradient(make_field("pyramid-eikonal"), m2)))
    return fields


def test_criterion_01_dimensional_constants():
    t0 = time.perf_counter()
    expected = {1: 2.0, 2: 2.0, 3: 2.0 * math.pi / 3.0}
    for n, target in expected.items():
        quad = dimensional_constant(n)
        closed = dimensional_constant_closed_form(n)
        assert abs(quad - closed) < 1e-10, f"criterion 1: N={n}"
        assert quad == pytest.approx(target, abs=1e-10), f"criterion 1: N={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 runtime {elapsed:.3f}s"
    _report(1, f"C_1=C_2=2, C_3=2*pi/3 to 1e-10 in {elapsed * 1e3:.1f} ms")


def test_criterion_02_jump_identity_1d():
    t0 = time.perf_counter()
    g = Grid.for_box([-1.0], [1.0], [8192])
    mask = DomainMask.full(g)
    u = sample_analytic(make_field("step-1d", position=0.0), mask)
    ladder = [GridRadius.from_cells(m) for m in (256, 128, 64, 32)]
    for q in (2.0, 3.0):
        sweep = bbm_sweep(u, q, ladder, "constant")
        for v in sweep.values:
            assert abs(v - 2.0) <= 0.03 * 2.0, f"criterion 2: q={q}, value {v}"
        assert abs(sweep.limit - 2.0) <= 0.02 * 2.0, f"criterion 2: q={q} limit"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 runtime {elapsed:.2f}s"
    _report(2, f"1D step sweep flat at 2 (q=2,3; n=8192) in {elapsed:.2f} s")


def test_criterion_03_jump_identity_2d():
    t0 = time.perf_counter()
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [512, 512])
    mask = DomainMask.full(g)
    spec = make_field("half-plane-indicator", normal=(1.0, 0.0), offset=0.5 + 0.00243)
    ladder = [GridRadius.from_cells(m) for m in (32, 24, 16)]
    rep = verify_jump_formula(spec, mask, 2.0, ladder, fit_model="constant", tolerance=0.05)
    assert rep.rhs == pytest.approx(2.0), "criterion 3: analytic side"
    assert rep.passed, f"criterion 3: {rep.lhs} vs 2 at 5%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.1f}s"
    _report(3, f"2D half-plane limit {rep.lhs:.4f} ~ 2 at 5% (512^2) in {elapsed:.1f} s")


def test_criterion_04_indicator_q_independence():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [128, 128])
    mask = DomainMask.full(g)
    h = g.spacing
    for kind in ("ball-indicator", "half-plane-indicator", "polygon-indicator"):
        u = sample_analytic(make_field(kind), mask)
        vals = [bbm_value(u, q, 12 * h) for q in (1.0, 1.5, 2.0, 3.0)]
        assert vals[0] > 0
        for v in vals[1:]:
            assert v == vals[0], f"criterion 4: {kind} not q-independent"
    _report(4, "indicator kernel sums bit-identical across q in {1,1.5,2,3}")


def test_criterion_05_q1_full_gradient():
    g = Grid.for_box([0.0], [1.0], [4096])
    mask = DomainMask.full(g)
    ladder = [GridRadius.from_cells(m) for m in (64, 48, 32, 24, 16)]
    rep = verify_q1_full_bv(make_field("sine-1d"), mask, ladder, tolerance=0.03)
    assert rep.rhs == pytest.approx(4.0), "criterion 5: analytic side"
    assert rep.passed, f"criterion 5: {rep.lhs} vs 4 at 3%"
    _report(5, f"q=1 sweep limit {rep.lhs:.4f} ~ 4 at 3% for sin(pi x)")


def test_criterion_06_supercritical_trend_and_domination():
    g = Grid.for_box([0.0], [1.0], [8192])
    mask = DomainMask.full(g)
    u = sample_analytic(make_field("hoelder", s=0.75), mask)
    cells = (2048, 1024, 512, 256, 128, 64, 32, 16, 12, 8)
    ladder = [GridRadius.from_cells(m) for m in cells]
    sweep = bbm_sweep(u, 2.0, ladder, "linear-in-eps")
    assert sweep.values[-1] * 2.0 <= sweep.values[0], "criterion 6: decay < 2x"
    assert sweep.limit <= 0.10 * sweep.values[0], "criterion 6: intercept > 10%"
    for eps, (bbm, gag, ok) in zip(ladder, gagliardo_dominates_bbm(u, 2.0, ladder)):
        assert ok, f"criterion 6: domination failed at eps={eps}"
    _report(6, f"smooth-class sweep sinks {sweep.values[0] / sweep.values[-1]:.1f}x, "
               f"intercept {sweep.limit / sweep.values[0]:.1%}; domination exact at 10 scales")


def test_criterion_07_two_sided_all_catalog():
    checked = 0
    for kind, u in _catalog_fields():
        for m in (8, 12, 16):
            rep = verify_two_sided(u, 2.0, GridRadius.from_cells(m))
            assert rep.passed, f"criterion 7: {kind} at {m} cells"
            checked += 1
    _report(7, f"two-sided comparability exact on {checked} field/scale pairs")


def test_criterion_08_q_monotonicity_and_splitting():
    rng = np.random.default_rng(2024)
    g1 = Grid.for_box([0.0], [1.0], [256])
    m1 = DomainMask.full(g1)
    g2 = Grid.for_box([0.0, 0.0], [1.0, 1.0], [48, 48])
    m2 = DomainMask.full(g2)
    fields = [random_block_field(m1, seed=s, blocks=8) for s in range(25)]
    fields += [random_block_field(m2, seed=s, blocks=6) for s in range(25)]
    for i, u in enumerate(fields):
        h = u.grid.spacing
        eps = (16 if u.grid.dim == 1 else 8) * h
        for q1, q2 in ((1.0, 2.0), (1.5, 3.0)):
            lhs, rhs, ok = q_monotonicity_holds(u, q1, q2, eps)
            assert ok, f"criterion 8: q-monotonicity field {i} ({q1},{q2})"
        for _ in range(4):
            o1 = rng.integers(-10, 11, size=u.grid.dim)
            o2 = rng.integers(-10, 11, size=u.grid.dim)
            if not (o1 + o2).any():
                continue
            q = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            assert splitting_inequality_holds(u, q, o1, o2), f"criterion 8: splitting field {i}"
    _report(8, "q-monotonicity and two-leg splitting exact on 50 random fields")


def test_criterion_09_variation_embedding():
    rng = np.random.default_rng(77)
    ladder = [GridRadius.from_cells(m) for m in (32, 16, 8)]
    for trial in range(100):
        blocks = int(rng.integers(4, 33))
        levels = rng.choice([-1.0, 1.0], size=blocks)
        reps = np.full(blocks, 256 // blocks)
        reps[: 256 - reps.sum()] += 1
        vals = np.repeat(levels, reps)
        u = line_field(vals)
        for q in (1.5, 2.0, 3.0):
            rep = check_vq_embedding(u, q, ladder)
            assert rep.passed, f"criterion 9: trial {trial} q={q}"
    for n in (6, 10, 14):
        vals = rng.normal(size=n)
        for q in (1.5, 2.0):
            assert q_variation_pow(vals, q) == pytest.approx(
                exhaustive_q_variation_pow(vals, q), rel=1e-12
            ), f"criterion 9: DP vs exhaustive n={n}"
    _report(9, "kernel sup <= 4 * q-variation on 100 signals; DP matches enumeration")


def test_criterion_10_cube_packing_bound():
    for kind, u in _catalog_fields():
        m = 16 if u.grid.dim == 1 else 12
        (rep,) = check_b_bound(u, 2.0, [GridRadius.from_cells(m)])
        assert rep.passed, f"criterion 10: {kind}"
    g = Grid.for_box([-1.0], [1.0], [1024])
    step = sample_analytic(make_field("step-1d", position=0.0), DomainMask.full(g))
    val, _ = cube_functional(step, GridRadius.from_cells(32), stride_cells=2)
    assert abs(val - 0.5) <= 0.02 * 0.5, f"criterion 10: step cube value {val}"
    _report(10, f"cube value <= moment bound on the catalog; step cube = {val:.4f}")


def test_criterion_11_eikonal_energy_chain():
    g = Grid.for_box([0.0, 0.0], [1.0, 1.0], [192, 192])
    mask = DomainMask.full(g)
    spec = make_field("pyramid-eikonal")
    grad = sample_gradient(spec, mask)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    ladder = [GridRadius.from_cells(m) for m in (36, 24, 18, 12)]
    chain = ag_chain_reports(grad, eta, ladder)[0]
    assert chain.tolerance == 0.10, "criterion 11: chain slack"
    d = chain.details
    assert d["young_exact_ok"], "criterion 11: Young step not exact"
    for mid, bound in list(zip(d["middle_energy"], d["matched_bounds"]))[-2:]:
        assert mid <= bound * 1.10, "criterion 11: moment bound at matching eps"
    assert chain.passed, "criterion 11: chain verdict"
    # the ridge-energy consistency runs on a finer grid: the kernel sweep of
    # the gradient field converges like the jump identity it instantiates
    g_fine = Grid.for_box([0.0, 0.0], [1.0, 1.0], [256, 256])
    grad_fine = sample_gradient(spec, DomainMask.full(g_fine))
    fine_ladder = [GridRadius.from_cells(m) for m in (48, 32, 24, 16)]
    gamma = verify_gamma_consistency(grad_fine, spec.jump_spec(g_fine), fine_ladder, tolerance=0.05)
    assert gamma.lhs == pytest.approx(8.0 / 3.0), "criterion 11: ridge value"
    assert gamma.passed, f"criterion 11: gamma {gamma.lhs} vs {gamma.rhs} at 5%"
    _report(11, f"Young exact at 4 scales; I3 {d['middle_energy'][-1]:.3f} <= "
                f"bound {d['matched_bounds'][-1]:.2f}; ridge energy {gamma.rhs:.4f} ~ 8/3 at 5%")


def test_criterion_12_worker_determinism(tmp_path):
    from bvqlab.cli import main

    cfg = {
        "experiment": "two-sided",
        "field": {"kind": "block-random", "params": {"seed": 9, "dim": 2}},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [96, 96]},
        "q": 2.0,
        "eps_ladder": {"start_cells": 16, "ratio": 0.5, "count": 2},
        "out_dir": str(tmp_path / "w1"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "w2")]) == 0
    a = (tmp_path / "w1" / "sweep.csv").read_bytes()
    b = (tmp_path / "w2" / "sweep.csv").read_bytes()
    assert a == b, "criterion 12: CSV differs across runs"
    _report(12, "two-sided CSV bit-identical across two runs")
