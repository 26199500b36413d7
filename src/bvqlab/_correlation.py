"""The exact pair counts of a {0, 1} field for every lattice offset at once,
from zero-padded FFT cross-correlations.

``kernels.pair_power_sums`` decides when they stand in for its window sums;
its module docstring states why they equal those sums bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _BLOCK_CELLS, SampledField


def _indicator_pair_counts(field: SampledField, offsets: np.ndarray, x_inside) -> np.ndarray:
    """``kernels.pair_power_sums`` of a {0, 1} field for every offset at once.

    Each term |u(x+v) - u(x)|^q is exactly 0.0 or 1.0 whatever q, so every
    partial sum of numpy's pairwise reduction in ``kernels._window_sum`` is
    an exact integer below 2^53 and the window sum is the pair count

        S(v) = #{x in X, x + v in Y : u(x) != u(x + v)},

    X being ``x_inside`` (the field mask when ``None``; it need not lie in
    the field mask) and Y the field mask.  S is the sum of the zero-padded
    FFT cross-correlations C_10 of X & (u = 1) against Y & (u = 0) and C_01
    of X & (u = 0) against Y & (u = 1), rounded to the nearest integer; so it
    equals the window sum bit for bit.  Without ``x_inside``, X = Y and
    C_01(v) = C_10(-v), so one product and one inverse give
    S(v) = C_10(v) + C_10(-v) for any offset list.  A sum more than 0.25
    from an integer raises ``RuntimeError`` instead of being rounded.

    Memory: each product holds two padded half spectra, and the second is
    freed before the inverse; every product writes in place.
    """
    y_in = field.mask.inside
    u = field.values[..., 0]
    reach, shape = _padding(field.grid.extents, offsets)

    def cross(x_in, level):
        """The half spectrum of C: X & (u = level) against Y & (u = 1 - level)."""
        acc = _padded_spectrum(x_in, u, level, shape)
        np.conjugate(acc, out=acc)
        acc *= _padded_spectrum(y_in, u, 1.0 - level, shape)
        return acc

    if x_inside is None:
        n = len(offsets)
        both = _lag_values(cross(y_in, 1.0), shape, reach, np.concatenate([offsets, -offsets]))
        corr = both[:n] + both[n:]
    else:
        corr = _lag_values(cross(x_inside, 1.0), shape, reach, offsets)
        corr += _lag_values(cross(x_inside, 0.0), shape, reach, offsets)
    counts = np.rint(corr)
    off = float(np.abs(corr - counts).max(initial=0.0))
    if off > 0.25:
        raise RuntimeError(f"pair-count correlation is {off:g} from an integer")
    counts += 0.0  # a count rounded from just below 0 is -0.0; the window sum is +0.0
    return counts


def _padding(extents, offsets: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(reach, padded shape) of a correlation pass over ``offsets``: lags up
    to reach, at most the extent less one per axis, stay clear of their
    images one period away."""
    reach = np.minimum(np.abs(offsets).max(axis=0), np.array(extents) - 1)
    return reach, (np.array(extents) + reach).tolist()


def _lag_values(acc: np.ndarray, shape, reach: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The inverse transform of the half spectrum ``acc`` at every offset.

    Each axis but the last is inverted in place and cut to its lags
    -reach..reach before the next; an offset beyond reach on some axis pairs
    no cells and reads 0.  ``acc`` is consumed.
    """
    lags = [np.arange(-r, r + 1) % p for r, p in zip(reach, shape)]
    for ax in range(len(shape) - 1):
        np.fft.ifft(acc, axis=ax, out=acc)
        acc = acc.take(lags[ax], axis=ax)
    corr = np.fft.irfft(acc, n=shape[-1], axis=-1).take(lags[-1], axis=-1)
    values = np.zeros(len(offsets))
    near = (np.abs(offsets) <= reach).all(axis=1)
    values[near] = corr[tuple((offsets[near] + reach).T)]
    return values


def _padded_spectrum(inside: np.ndarray, u: np.ndarray, level: float, shape) -> np.ndarray:
    """The real FFT of the 0/1 cells ``inside & (u == level)``, zero-padded
    to ``shape``, as a new half spectrum.

    One axis at a time, in place: the cells are built and ``rfft``-ed along
    the last axis in blocks of whole axis-0 rows (at most ``_BLOCK_CELLS``
    cells, one row when a row is larger; the whole line in 1D) into the
    leading block of the result, then each earlier axis is ``fft``-ed over
    the rows that are not all zero yet.  So no full-size grid of the cells
    is ever held.
    """
    ext = u.shape
    out = np.zeros(shape[:-1] + [shape[-1] // 2 + 1], dtype=complex)
    rows = max(1, _BLOCK_CELLS // math.prod(ext[1:])) if len(ext) > 1 else ext[0]
    cells = np.empty((min(rows, ext[0]),) + ext[1:])
    tail = tuple(slice(e) for e in ext[1:-1])
    for start in range(0, ext[0], rows):
        stop = min(start + rows, ext[0])
        block = cells[: stop - start]
        np.logical_and(inside[start:stop], u[start:stop] == level, out=block)
        target = out[(slice(start, stop),) + tail] if len(ext) > 1 else out
        np.fft.rfft(block, n=shape[-1], axis=-1, out=target)
    for ax in range(len(ext) - 2, -1, -1):
        part = out[tuple(slice(e) for e in ext[:ax])]
        np.fft.fft(part, axis=ax, out=part)
    return out
