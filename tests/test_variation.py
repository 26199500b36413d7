import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvqlab import (
    GridRadius,
    Signal1D,
    bbm_value,
    check_vq_embedding,
    q_variation_pow,
    signal_as_field,
)
from bvqlab.kernels import _power_in_place


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
        sig = Signal1D(np.arange(float(n)), vals)
        assert q_variation_pow(sig, q) == pytest.approx(
            exhaustive_q_variation_pow(vals, q), rel=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-3, 3), min_size=2, max_size=10),
    q=st.sampled_from([1.0, 1.7, 2.0, 3.0]),
)
def test_dp_equals_exhaustive_property(data, q):
    vals = np.asarray(data)
    sig = Signal1D(np.arange(float(len(vals))), vals)
    assert q_variation_pow(sig, q) == pytest.approx(
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
        sig = Signal1D(np.arange(float(len(vals))), vals)
        for q in (1.0, 1.5, 2.0, 3.0):
            got = q_variation_pow(sig, q)
            assert got.hex() == uncollapsed_q_variation_pow(sig.values, q).hex(), (trial, q)


def test_monotone_ramp_single_jump_optimal():
    for n in (5, 9, 14):
        sig = Signal1D(np.linspace(0, 1, n), np.linspace(0, 1, n))
        assert q_variation_pow(sig, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_alternating_signal():
    for m, q in [(5, 2.0), (8, 3.0), (12, 1.5)]:
        vals = np.array([(-1.0) ** i for i in range(m)])
        sig = Signal1D(np.arange(float(m)), vals)
        assert q_variation_pow(sig, q) == pytest.approx((m - 1) * 2.0**q, rel=1e-12)


def test_constant_signal_zero():
    sig = Signal1D(np.arange(6.0), np.full(6, 2.5))
    assert q_variation_pow(sig, 2.0) == 0.0


def test_adding_sample_never_decreases():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        vals = rng.normal(size=n)
        x = np.arange(float(n))
        full = q_variation_pow(Signal1D(x, vals), 2.0)
        drop = int(rng.integers(1, n - 1))
        reduced = q_variation_pow(
            Signal1D(np.delete(x, drop), np.delete(vals, drop)), 2.0
        )
        assert reduced <= full + 1e-12


def test_q_monotone_for_small_oscillation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        vals = rng.uniform(-0.5, 0.5, size=10)  # oscillation <= 1
        sig = Signal1D(np.arange(10.0), vals)
        v15 = q_variation_pow(sig, 1.5)
        v2 = q_variation_pow(sig, 2.0)
        v3 = q_variation_pow(sig, 3.0)
        assert v3 <= v2 + 1e-12 <= v15 + 2e-12


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal1D(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Signal1D(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        q_variation_pow(Signal1D(np.arange(3.0), np.ones(3)), 0.5)


def test_signal_as_field_layout():
    sig = Signal1D(np.linspace(0, 1, 8), np.arange(8.0))
    f = signal_as_field(sig)
    assert f.grid.extents == (8,)
    np.testing.assert_array_equal(f.values[:, 0], np.arange(8.0))


def test_embedding_single_step():
    vals = np.where(np.arange(128) < 64, 0.0, 1.0)
    sig = Signal1D(np.linspace(0.0, 1.0, 128), vals)
    rep = check_vq_embedding(sig, 2.0, [GridRadius.from_cells(m) for m in (16, 8)])
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0, rel=1e-9)
    assert rep.rhs == pytest.approx(4.0, rel=1e-12)


def test_embedding_constant():
    sig = Signal1D(np.linspace(0.0, 1.0, 64), np.zeros(64))
    rep = check_vq_embedding(sig, 2.0, [GridRadius.from_cells(8)])
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_embedding_random_signals_all_q():
    rng = np.random.default_rng(100)
    ladder = [GridRadius.from_cells(m) for m in (32, 16, 8)]
    for trial in range(30):
        vals = rng.choice([-1.0, 1.0], size=32).repeat(8)
        sig = Signal1D(np.linspace(0.0, 1.0, 256), vals)
        for q in (1.5, 2.0, 3.0):
            rep = check_vq_embedding(sig, q, ladder)
            assert rep.passed, (trial, q)


def test_embedding_sweep_is_one_pass(monkeypatch):
    from bvqlab import kernels

    rng = np.random.default_rng(7)
    sig = Signal1D(np.linspace(0.0, 1.0, 256), rng.normal(size=(256, 2)))
    ladder = [GridRadius.from_cells(m) for m in (32, 16, 8)]
    calls = []
    real = kernels.pair_power_sums

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "pair_power_sums", counted)
    rep = check_vq_embedding(sig, 1.5, ladder)
    assert calls == [len(kernels.lattice_offsets(1, 32 * 32)[0])]
    monkeypatch.undo()
    field = signal_as_field(sig)
    assert rep.details["sweep_values"] == [bbm_value(field, 1.5, e) for e in ladder]
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_vq_embedding(sig, 1.5, ladder[::-1])
