import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    SampledField,
    bbm_value,
    check_vq_embedding,
    q_variation_pow,
)
from bvqlab.kernels import _power_in_place


def line_field(values) -> SampledField:
    """(n,) or (n, d) samples as a field on n equal cells of [0, 1]."""
    v = np.asarray(values, dtype=float).reshape(len(values), -1)
    return SampledField(DomainMask.full(Grid.for_box([0.0], [1.0], [len(v)])), v, d=v.shape[1])


def exhaustive_q_variation_pow(values: np.ndarray, q: float) -> float:
    """Oracle: brute force over every increasing chain of sample indices."""
    n = len(values)
    vals = values if values.ndim == 2 else values[:, None]
    best = 0.0
    for size in range(2, n + 1):
        for chain in itertools.combinations(range(n), size):
            total = 0.0
            for a, b in zip(chain, chain[1:]):
                total += float(np.linalg.norm(vals[b] - vals[a])) ** q
            best = max(best, total)
    return best


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_dp_equals_exhaustive_small(q):
    rng = np.random.default_rng(17)
    for n in (2, 5, 9, 12):
        vals = rng.normal(size=n)
        assert q_variation_pow(vals, q) == pytest.approx(
            exhaustive_q_variation_pow(vals, q), rel=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-3, 3), min_size=2, max_size=10),
    q=st.sampled_from([1.0, 1.7, 2.0, 3.0]),
)
def test_dp_equals_exhaustive_property(data, q):
    vals = np.asarray(data)
    assert q_variation_pow(vals, q) == pytest.approx(
        exhaustive_q_variation_pow(vals, q), rel=1e-12, abs=1e-12
    )


def uncollapsed_q_variation_pow(values: np.ndarray, q: float) -> float:
    """The O(n^2) chain DP over every sample, repeats included."""
    best = np.zeros(len(values))
    for j in range(1, len(values)):
        d = values[j] - values[:j]
        inc = _power_in_place(np.einsum("ik,ik->i", d, d), q)
        best[j] = float(np.max(best[:j] + inc))
    return float(best.max())


@pytest.mark.parametrize("d", [1, 2])
def test_run_collapse_is_the_uncollapsed_dp_bit_for_bit(d):
    # run-length signals: a few levels, each repeated, with +0.0 and -0.0
    # levels that compare equal but differ in sign
    rng = np.random.default_rng(31 + d)
    for trial in range(600):
        levels = rng.normal(size=(int(rng.integers(1, 8)), d))
        levels[rng.random(levels.shape) < 0.2] = 0.0
        levels[rng.random(levels.shape) < 0.2] = -0.0
        runs = rng.integers(1, 6, size=len(levels))
        vals = np.repeat(levels, runs, axis=0)
        if len(vals) < 2:
            vals = np.concatenate([vals, -vals])
        zero = vals == 0.0
        vals[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        for q in (1.0, 1.5, 2.0, 3.0):
            got = q_variation_pow(vals, q)
            assert got.hex() == uncollapsed_q_variation_pow(vals, q).hex(), (trial, q)


def test_monotone_ramp_single_jump_optimal():
    for n in (5, 9, 14):
        assert q_variation_pow(np.linspace(0, 1, n), 2.0) == pytest.approx(1.0, rel=1e-12)


def test_alternating_signal():
    for m, q in [(5, 2.0), (8, 3.0), (12, 1.5)]:
        vals = np.array([(-1.0) ** i for i in range(m)])
        assert q_variation_pow(vals, q) == pytest.approx((m - 1) * 2.0**q, rel=1e-12)


def test_constant_signal_zero():
    assert q_variation_pow(np.full(6, 2.5), 2.0) == 0.0


def test_adding_sample_never_decreases():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        vals = rng.normal(size=n)
        full = q_variation_pow(vals, 2.0)
        drop = int(rng.integers(1, n - 1))
        reduced = q_variation_pow(np.delete(vals, drop), 2.0)
        assert reduced <= full + 1e-12


def test_q_monotone_for_small_oscillation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        vals = rng.uniform(-0.5, 0.5, size=10)  # oscillation <= 1
        v15 = q_variation_pow(vals, 1.5)
        v2 = q_variation_pow(vals, 2.0)
        v3 = q_variation_pow(vals, 3.0)
        assert v3 <= v2 + 1e-12 <= v15 + 2e-12


def test_q_variation_and_vq_check_refusals():
    with pytest.raises(ValueError, match="q must be >= 1"):
        q_variation_pow(np.ones(3), 0.5)
    for empty in (np.zeros(0), np.zeros((0, 2))):
        with pytest.raises(ValueError, match="non-empty"):
            q_variation_pow(empty, 2.0)
    with pytest.raises(ValueError, match="finite"):
        q_variation_pow(np.array([0.0, np.nan, 1.0]), 2.0)
    ladder = [GridRadius.from_cells(2)]
    g2 = Grid.for_box([0.0, 0.0], [1.0, 1.0], [8, 8])
    flat = SampledField(DomainMask.full(g2), np.zeros((8, 8)))
    with pytest.raises(ValueError, match="1D field on a full mask"):
        check_vq_embedding(flat, 2.0, ladder)
    g1 = Grid.for_box([0.0], [1.0], [16])
    holed = DomainMask(g1, np.arange(16) % 5 != 2)
    with pytest.raises(ValueError, match="1D field on a full mask"):
        check_vq_embedding(SampledField(holed, np.arange(16.0)), 2.0, ladder)


def test_embedding_single_step():
    vals = np.where(np.arange(128) < 64, 0.0, 1.0)
    rep = check_vq_embedding(line_field(vals), 2.0, [GridRadius.from_cells(m) for m in (16, 8)])
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0, rel=1e-9)
    assert rep.rhs == pytest.approx(4.0, rel=1e-12)


def test_embedding_constant():
    rep = check_vq_embedding(line_field(np.zeros(64)), 2.0, [GridRadius.from_cells(8)])
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_embedding_random_signals_all_q():
    rng = np.random.default_rng(100)
    ladder = [GridRadius.from_cells(m) for m in (32, 16, 8)]
    for trial in range(30):
        vals = rng.choice([-1.0, 1.0], size=32).repeat(8)
        u = line_field(vals)
        for q in (1.5, 2.0, 3.0):
            rep = check_vq_embedding(u, q, ladder)
            assert rep.passed, (trial, q)


def test_embedding_sweep_is_one_pass(monkeypatch):
    from bvqlab import kernels

    rng = np.random.default_rng(7)
    u = line_field(rng.normal(size=(256, 2)))
    ladder = [GridRadius.from_cells(m) for m in (32, 16, 8)]
    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    rep = check_vq_embedding(u, 1.5, ladder)
    assert calls == [len(kernels.lattice_offsets(1, 32 * 32)[0])]
    monkeypatch.undo()
    assert rep.details["sweep_values"] == [bbm_value(u, 1.5, e) for e in ladder]
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_vq_embedding(u, 1.5, ladder[::-1])
