"""Exact discrete q-variation and its kernel-sum embedding bound.

``q_variation_pow`` reads samples in order and never their positions;
``check_vq_embedding`` sweeps a 1D field on its own grid, so its swept eps
are the ladder's lengths bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import defaults
from .grid import SampledField
# bbm_value is unused here; bench/tests/test_bench.py pins variation.bbm_value
from .kernels import _power_in_place, bbm_sweep, bbm_value
from .reports import ComparisonReport, leq


def q_variation_pow(values, q: float) -> float:
    """Max over increasing sample chains of sum |f(x_{k+1}) - f(x_k)|^q.

    ``values`` holds the samples in order, as an (n,) or (n, d) array.
    Dynamic program over chain endpoints: best[j] = max_{i<j} best[i] +
    |f_j - f_i|^q, O(n^2).  The restriction to the samples is exact for the
    piecewise-constant interpretation of the signal.

    A sample equal to its predecessor in every component is dropped first:
    ``best`` is constant along a run of equal samples, and every increment
    from a run is the same float, so the result is the same bit for bit.
    A q-variation that overflows float64 is a ``ValueError``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or not len(v):
        raise ValueError("need a non-empty (n,) or (n, d) array of samples")
    if not np.isfinite(v).all():
        raise ValueError("samples must be finite")
    v = v[np.concatenate([[True], (v[1:] != v[:-1]).any(axis=1)])]
    n = len(v)
    best = np.zeros(n)
    with np.errstate(over="ignore"):  # an overflow is refused below
        for j in range(1, n):
            d = v[j] - v[:j]
            inc = _power_in_place(np.einsum("ik,ik->i", d, d), q)
            best[j] = float(np.max(best[:j] + inc))
    result = float(best.max())
    if not np.isfinite(result):
        raise ValueError("the q-variation overflows float64")
    return result


def check_vq_embedding(
    u: SampledField,
    q: float,
    eps_list,
    *,
    kappa: float = defaults.KAPPA,
) -> ComparisonReport:
    """sup over the sweep of the kernel sum <= 4 * q_variation_pow.

    ``u`` is a 1D field on a full mask, swept on its own grid.  Sound
    because the discrete chain maximum is the exact q-variation of the
    piecewise-constant representative the kernel sum measures.  A bound
    4 V_q that overflows float64 is a ``ValueError``.
    """
    if u.grid.dim != 1 or not u.mask.all_inside:
        raise ValueError("the q-variation check needs a 1D field on a full mask")
    sweep = bbm_sweep(u, q, eps_list, "constant", kappa=kappa)
    lhs = max(sweep.values)
    rhs = 4.0 * q_variation_pow(u.values, q)
    if not np.isfinite(rhs):
        raise ValueError("the q-variation bound 4 V_q overflows float64")
    return leq(
        lhs,
        rhs,
        f"q-variation embedding bound (q={q:g}, n={u.grid.extents[0]})",
        sweep_eps=list(sweep.eps),
        sweep_values=list(sweep.values),
    )
