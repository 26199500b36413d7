"""Pair sums of every lattice offset at once, from zero-padded FFT
correlations: the exact pair counts of a {0, 1} field and the q = 2 sums
behind ``kernels.correlation_sweep``.

``kernels`` holds the window sums these stand in for and decides when each
one is used; the module docstring there states what each promises.
"""

from __future__ import annotations

import numpy as np

from .grid import SampledField


def _indicator_pair_counts(field: SampledField, offsets: np.ndarray, x_inside) -> np.ndarray:
    """``kernels.pair_power_sums`` of a {0, 1} field for every offset at once.

    Each term |u(x+v) - u(x)|^q is exactly 0.0 or 1.0 whatever q, so every
    partial sum of numpy's pairwise reduction in ``kernels._window_sum`` is
    an exact integer below 2^53 and the window sum is the pair count

        S(v) = #{x in X, x + v in Y : u(x) != u(x + v)},

    X being ``x_inside`` (the field mask when ``None``; it need not lie in
    the field mask) and Y the field mask.  S is the sum of two zero-padded
    FFT cross-correlations, of X & (u = 1) against Y & (u = 0) and of
    X & (u = 0) against Y & (u = 1), rounded to the nearest integer; so it
    equals the window sum bit for bit.  A correlation more than 0.25 from an
    integer raises ``RuntimeError`` instead of being rounded.  Each
    correlation is inverted on its own, so two padded half spectra are live
    at the peak, and every product writes in place.
    """
    y_in = field.mask.inside
    x_in = y_in if x_inside is None else x_inside
    one = field.values[..., 0] == 1.0
    reach, shape = _padding(field.grid.extents, offsets)

    def spectrum(cells, out):
        _padded_spectrum(cells.astype(np.float64), shape, out)
        return out

    acc = np.empty(shape[:-1] + [shape[-1] // 2 + 1], dtype=complex)
    spec = np.empty_like(acc)
    corr = np.zeros(len(offsets))
    for x_cells, y_cells in ((one, ~one), (~one, one)):
        np.conjugate(spectrum(x_in & x_cells, acc), out=acc)
        acc *= spectrum(y_in & y_cells, spec)
        corr += _lag_values(acc, shape, reach, offsets)
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


def _padded_spectrum(a: np.ndarray, shape, out: np.ndarray) -> None:
    """Write the real FFT of ``a``, zero-padded to ``shape``, into ``out``.

    One axis at a time, in place: the last axis is ``rfft``-ed into the
    leading block of ``out``, then each earlier axis is ``fft``-ed over the
    rows that are not all zero yet.
    """
    out[...] = 0.0
    ext = a.shape
    np.fft.rfft(a, n=shape[-1], axis=-1, out=out[tuple(slice(e) for e in ext[:-1])])
    for ax in range(len(ext) - 2, -1, -1):
        rows = out[tuple(slice(e) for e in ext[:ax])]
        np.fft.fft(rows, axis=ax, out=rows)


def _correlation_pair_sums(field: SampledField, offsets: np.ndarray) -> np.ndarray:
    """q = 2 pair sums S(v) = sum_x m(x) m(x+v) |u(x+v) - u(x)|^2 for every
    offset, from one pass of FFT correlations.

    With u zero outside the mask m, S is the inverse transform of
    2 Re(conj(M) W) - 2 sum_k |U_k|^2, where M, W and U_k are the transforms
    of m, w = |u|^2 and each component, zero-padded per axis by the largest
    offset (at most the extent less one) so that no lag wraps round; an
    offset that reaches past the grid pairs no cells and sums to 0.  Each
    component is first centred on its mean over the inside cells: the
    differences do not change, and the round-off no longer grows with the
    mean.  A sum at or below tau = 1e-12 * sum_x m |u - mean|^2 is returned
    as exact 0, so constant fields and offsets along a straight jump keep
    their zeros and no negative round-off is returned.  The stated tolerance
    against ``pair_power_sums(field, offsets, 2.0)`` is tau per offset; the
    transforms' own round-off is a few ulps of the centred energy.

    Memory: two padded half spectra and one real grid, allocated once.  The
    means are taken first (a gather of the inside values per component, or
    none on an all-inside mask, where ``comp.mean()`` is the same float).
    Then the zeroed real grid holds w, then m, then each centred component
    in turn; no write touches its outside cells after m, and every
    transform and product writes in place.  w is summed before either
    spectrum is allocated, so the second real grid that holds each further
    component's square never coexists with them.
    """
    inside = field.mask.inside
    ext = field.grid.extents
    reach, shape = _padding(ext, offsets)
    comps = [field.values[..., k] for k in range(field.d)]
    if field.mask.all_inside:
        means, where = [c.mean() for c in comps], True
    else:
        means, where = [c[inside].mean() for c in comps], inside

    def centred(k, out):
        """u_k - mean_k at the inside cells of ``out``, whose outside cells
        must hold zeros."""
        return np.subtract(comps[k], means[k], out=out, where=where)

    real = np.zeros(ext)
    w = real
    np.square(centred(0, w), out=w)
    if field.d > 1:
        sq = np.zeros(ext)
        for k in range(1, field.d):
            w += np.square(centred(k, sq), out=sq)
        del sq
    tau = 1e-12 * float(w.sum())
    spec = np.empty(shape[:-1] + [shape[-1] // 2 + 1], dtype=complex)
    _padded_spectrum(w, shape, spec)
    acc = np.empty_like(spec)
    np.copyto(real, inside)
    _padded_spectrum(real, shape, acc)
    # acc = Re(conj(M) W) - sum_k |U_k|^2, and S = 2 * inverse(acc)
    np.conjugate(acc, out=acc)
    acc *= spec
    acc.imag = 0.0
    re = acc.real
    for k in range(field.d):
        _padded_spectrum(centred(k, real), shape, spec)
        re -= np.square(spec.real, out=spec.real)
        re -= np.square(spec.imag, out=spec.imag)
    del spec, real, w
    sums = _lag_values(acc, shape, reach, offsets)
    sums *= 2.0
    sums[sums <= tau] = 0.0
    return sums
