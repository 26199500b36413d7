"""Exact discrete q-variation and its kernel-sum embedding bound."""

from __future__ import annotations

import numpy as np

from . import defaults
from .grid import DomainMask, Grid, SampledField
# bbm_value is unused here; bench/tests/test_bench.py pins variation.bbm_value
from .kernels import _power_in_place, bbm_sweep, bbm_value
from .reports import ComparisonReport, leq


class Signal1D:
    """Finitely many R^d samples at strictly increasing abscissae."""

    def __init__(self, abscissae: np.ndarray, values: np.ndarray):
        x = np.ascontiguousarray(abscissae, dtype=float)
        v = np.ascontiguousarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if x.ndim != 1 or len(x) < 2:
            raise ValueError("need at least two samples on a 1D axis")
        if (np.diff(x) <= 0).any():
            raise ValueError("abscissae must be strictly increasing")
        if len(v) != len(x):
            raise ValueError("one value per abscissa required")
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise ValueError("signal must be finite")
        self.abscissae = x
        self.values = v

    @property
    def n(self) -> int:
        return len(self.abscissae)

    @property
    def d(self) -> int:
        return self.values.shape[1]


def q_variation_pow(sig: Signal1D, q: float) -> float:
    """Max over increasing sample chains of sum |f(x_{k+1}) - f(x_k)|^q.

    Dynamic program over chain endpoints: best[j] = max_{i<j} best[i] +
    |f_j - f_i|^q, O(n^2).  The restriction to sample abscissae is exact for
    the piecewise-constant interpretation of the signal.

    A sample equal to its predecessor in every component is dropped first:
    ``best`` is constant along a run of equal samples, and every increment
    from a run is the same float, so the result is the same bit for bit.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    v = sig.values
    v = v[np.concatenate([[True], (v[1:] != v[:-1]).any(axis=1)])]
    n = len(v)
    best = np.zeros(n)
    for j in range(1, n):
        d = v[j] - v[:j]
        inc = _power_in_place(np.einsum("ik,ik->i", d, d), q)
        best[j] = float(np.max(best[:j] + inc))
    return float(best.max())


def signal_as_field(sig: Signal1D, span: tuple[float, float] | None = None) -> SampledField:
    """The signal as a piecewise-constant field on equal-width cells.

    Cell i carries sample i.  The interval defaults to the abscissa range
    widened by half the mean spacing at each end, so abscissae at the cell
    centres of a grid rebuild that grid.
    """
    if span is None:
        x0, x1 = float(sig.abscissae[0]), float(sig.abscissae[-1])
        half = (x1 - x0) / (sig.n - 1) / 2.0
        span = (x0 - half, x1 + half)
    a, b = span
    if not b > a:
        raise ValueError("span must have positive length")
    grid = Grid.for_box([a], [b], [sig.n])
    mask = DomainMask.full(grid)
    return SampledField(mask, sig.values, d=sig.d)


def check_vq_embedding(
    sig: Signal1D,
    q: float,
    eps_list,
    *,
    kappa: float = defaults.KAPPA,
) -> ComparisonReport:
    """sup over the sweep of the kernel sum <= 4 * q_variation_pow.

    Sound because the discrete chain maximum is the exact q-variation of the
    piecewise-constant representative the kernel sum measures.
    """
    field = signal_as_field(sig)
    sweep = bbm_sweep(field, q, eps_list, "constant", kappa=kappa)
    lhs = max(sweep.values)
    rhs = 4.0 * q_variation_pow(sig, q)
    return leq(
        lhs,
        rhs,
        f"q-variation embedding bound (q={q:g}, n={sig.n})",
        sweep_eps=list(sweep.eps),
        sweep_values=list(sweep.values),
    )
