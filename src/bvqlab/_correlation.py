"""The exact pair counts of a {0, 1} field for every lattice offset at once,
from one zero-padded FFT correlation of its signed cells.

``kernels.pair_power_sums`` decides when they stand in for its window sums;
its module docstring states why they equal those sums bit for bit.

Memory: a correlation is built in column blocks of the last (``rfft``) axis
of its padded half spectrum (the whole line in 1D).  A half spectrum of S
complex values is cut into about sqrt(S / ``grid._BLOCK_CELLS``) blocks of
about sqrt(S * ``grid._BLOCK_CELLS``) values each, and into twice as many,
half as wide, once that is three blocks or more.  For each column block the
cells are ``rfft``-ed again in blocks of whole axis-0 rows and that block's
columns kept; the leading axes are then transformed, multiplied and inverted
in place, and the result is cut to the lags -reach..reach into one small lag
table.  An autocorrelation is even, so its table keeps only the lags
0..reach of axis 0.  One ``irfft`` along the last axis finishes.  So a pass
holds one or two column blocks, one row block and the lag table (half of one
for an autocorrelation), never a full padded spectrum, and runs the row
``rfft``s once per column block.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import _BLOCK_CELLS, SampledField, _bounding_box


def _indicator_pair_counts(field: SampledField, offsets: np.ndarray, x_inside) -> np.ndarray:
    """``kernels.pair_power_sums`` of a {0, 1} field for every offset at once.

    Each term |u(x+v) - u(x)|^q is exactly 0.0 or 1.0 whatever q, so every
    partial sum of numpy's pairwise reduction in ``kernels._window_sum`` is
    an exact integer below 2^53 and the window sum is the pair count

        S(v) = #{x in X, x + v in Y : u(x) != u(x + v)},

    X being ``x_inside`` (the field mask when ``None``; it need not lie in
    the field mask) and Y the field mask.  With s = 2u - 1 = +-1 on the
    cells, a pair differs exactly when s(x) s(x + v) = -1, so

        S(v) = (N(v) - C(v)) / 2,

    C the correlation of s X against s Y and N(v) = #{x in X : x + v in Y}.
    C is one zero-padded FFT correlation rounded to the nearest integer: an
    autocorrelation without ``x_inside`` (one spectrum, squared), a cross
    product with it.  N is the product over axes of the overlaps of two
    intervals when X and Y both fill their bounding boxes (every full or
    eroded box), and the same rounded correlation of the 0/1 masks
    otherwise.  Every term is an exact integer below 2^53, so S equals the
    window sum bit for bit.  A correlation more than 0.25 from an integer
    raises ``RuntimeError`` instead of being rounded.
    """
    u = field.values[..., 0]
    reach, shape = _padding(field.grid.extents, offsets)
    # X and Y, or Y alone when X is Y: one filler per side correlated
    sides = [field.mask.inside] if x_inside is None else [x_inside, field.mask.inside]
    signed = _rounded(_correlation_values(shape, reach, offsets, [_cells(m, u) for m in sides]))
    boxes = [_filled_box(m) for m in sides]
    if None in boxes:
        pairs = _rounded(_correlation_values(shape, reach, offsets, [_cells(m) for m in sides]))
    else:
        pairs = _box_overlaps(boxes[0], boxes[-1], offsets)
    counts = pairs - signed
    counts *= 0.5
    counts += 0.0  # a count rounded from just below 0 can leave -0.0; the window sum is +0.0
    return counts


def _padding(extents, offsets: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """(reach, padded shape) of a correlation pass over ``offsets``: lags up
    to reach, at most the extent less one per axis, stay clear of their
    images one period away."""
    reach = np.minimum(np.abs(offsets).max(axis=0), np.array(extents) - 1)
    return reach, (np.array(extents) + reach).tolist()


def _rounded(corr: np.ndarray) -> np.ndarray:
    """``corr`` rounded to the nearest integers; ``RuntimeError`` if one is
    more than 0.25 away."""
    counts = np.rint(corr)
    off = float(np.abs(corr - counts).max(initial=0.0))
    if off > 0.25:
        raise RuntimeError(f"pair-count correlation is {off:g} from an integer")
    return counts


def _filled_box(inside: np.ndarray):
    """Per-axis [lo, hi) of the cells of ``inside`` when they fill their
    bounding box, else ``None``."""
    box = _bounding_box(inside)
    return box if np.count_nonzero(inside) == math.prod(hi - lo for lo, hi in box) else None


def _box_overlaps(x_box, y_box, offsets: np.ndarray) -> np.ndarray:
    """N(v) = #{x in X : x + v in Y} for the boxes X and Y: the product over
    axes of |[x_lo, x_hi) & [y_lo - v, y_hi - v)|, as exact floats."""
    n = np.ones(len(offsets), dtype=np.int64)
    for (xl, xh), (yl, yh), v in zip(x_box, y_box, offsets.T):
        n *= np.maximum(np.minimum(xh, yh - v) - np.maximum(xl, yl - v), 0)
    return n.astype(np.float64)


def _cells(inside: np.ndarray, u: np.ndarray | None = None):
    """A filler ``fill(rows, out)`` writing, for the axis-0 rows ``rows``,
    the cells of ``inside``: 1 on them (s = 2u - 1 when ``u`` is given),
    0 elsewhere."""
    if u is None:
        def fill(rows, out):
            out[...] = inside[rows]
    else:
        def fill(rows, out):
            np.multiply(u[rows], 2.0, out=out)
            out -= 1.0
            np.copyto(out, 0.0, where=~inside[rows])
    return fill


def _correlation_values(shape, reach: np.ndarray, offsets: np.ndarray, fills) -> np.ndarray:
    """sum_x a(x) b(x + v) at every offset v, as the FFT gives it, for the
    cells a and b of the fillers ``fills`` ([a, b], or [a] for b = a),
    zero-padded to ``shape``.  An offset beyond reach on some axis pairs no
    cells and reads 0.

    An autocorrelation is even, C(-v) = C(v) exactly, so its lag table keeps
    only the lags v_0 >= 0 of the leading axis and an offset with v_0 < 0
    reads -v.
    """
    low = -reach
    if len(fills) == 1:
        low[0] = 0
        offsets = np.where(offsets[:, :1] < 0, -offsets, offsets)
    table = _lag_table(shape, reach, low, fills)
    lags = np.arange(low[-1], reach[-1] + 1) % shape[-1]
    corr = np.fft.irfft(table, n=shape[-1], axis=-1).take(lags, axis=-1)
    values = np.zeros(len(offsets))
    near = (np.abs(offsets) <= reach).all(axis=1)
    values[near] = corr[tuple((offsets[near] - low).T)]
    return values


def _lag_table(shape, reach: np.ndarray, low: np.ndarray, fills) -> np.ndarray:
    """The half spectrum of the correlation of ``fills``, inverted along
    every axis but the last and cut there to the lags low..reach.

    Built one column block of the last axis at a time (the module docstring
    gives the memory model): each filler's block of the padded spectrum,
    then |A|^2 (one filler) or conj(A) B (two) in place, then the in-place
    inverse and cut of each leading axis in turn.
    """
    ext = [p - r for p, r in zip(shape, reach.tolist())]
    lead, half = shape[:-1], shape[-1] // 2 + 1
    lead_cells = math.prod(lead)
    lags = [np.arange(lo, r + 1) % p for lo, r, p in zip(low, reach, lead)]
    # sqrt(S / _BLOCK_CELLS) column blocks balance block memory against the
    # row rffts rerun per block for a half spectrum of S complex values
    # (blocks of _BLOCK_CELLS each made a 1024^2 pass 7x slower).  Past
    # 4 _BLOCK_CELLS values, where that is three blocks or more, twice as
    # many: a block, which sets a 512^2 pass's peak, holds half as much for
    # twice the row rffts.  Smaller spectra keep the balance, as halving
    # their blocks made a 192^2 two-sided check slower and no peak lower.
    count = math.ceil(math.sqrt(half * lead_cells / _BLOCK_CELLS)) if lead else 1
    if count > 2:
        count *= 2
    width = -(-half // count)
    rows = max(1, _BLOCK_CELLS // math.prod(ext[1:])) if lead else ext[0]
    cells = np.empty([min(rows, ext[0])] + ext[1:])
    # a block of every column takes each row block's rfft straight; a
    # narrower one copies its columns from the staged row rffts
    staged = np.empty(cells.shape[:-1] + (half,), dtype=complex) if width < half else None
    # flat, so that every column block is a contiguous array: numpy buffers
    # an in-place ufunc on a strided view, 128 KiB per complex operand
    flats = [np.empty(lead_cells * width, dtype=complex) for _ in fills]
    table = np.empty([len(g) for g in lags] + [half], dtype=complex)
    for c0 in range(0, half, width):
        cols = slice(c0, min(c0 + width, half))
        spectra = [flat[: lead_cells * (cols.stop - c0)].reshape(lead + [-1]) for flat in flats]
        for fill, block in zip(fills, spectra):
            _spectrum_block(fill, ext, shape[-1], cols, cells, staged, block)
        acc = spectra[0]
        if len(spectra) == 1:
            parts = acc.view(np.float64)
            re, im = parts[..., 0::2], parts[..., 1::2]
            np.multiply(re, re, out=re)
            np.multiply(im, im, out=im)
            re += im
            im[...] = 0.0
        else:
            np.conjugate(acc, out=acc)
            acc *= spectra[1]
        for ax, keep in enumerate(lags):
            np.fft.ifft(acc, axis=ax, out=acc)
            acc = acc.take(keep, axis=ax)
        table[..., cols] = acc
    return table


def _spectrum_block(fill, ext, n_last: int, cols: slice, cells, staged, block) -> None:
    """Columns ``cols`` of the half spectrum of the cells ``fill`` writes,
    zero-padded to ``ext`` plus reach with ``n_last`` along the last axis,
    written into ``block``.

    The cells are built in ``cells``, blocks of whole axis-0 rows, and
    ``rfft``-ed along the last axis straight into the block's rows (into
    ``staged``, whose columns ``cols`` are then copied, when the block holds
    only some columns); each earlier axis is then ``fft``-ed in place over
    the rows that are not all zero yet.
    """
    block[...] = 0.0
    tail = tuple(slice(e) for e in ext[1:-1])
    for start in range(0, ext[0], len(cells)):
        stop = min(start + len(cells), ext[0])
        part = cells[: stop - start]
        fill(slice(start, stop), part)
        target = block[(slice(start, stop),) + tail] if len(ext) > 1 else block
        if staged is None:
            np.fft.rfft(part, n=n_last, axis=-1, out=target)
        else:
            row_spectra = staged[: stop - start]
            np.fft.rfft(part, n=n_last, axis=-1, out=row_spectra)
            target[...] = row_spectra[..., cols]
    for ax in range(len(ext) - 2, -1, -1):
        part = block[tuple(slice(e) for e in ext[:ax])]
        np.fft.fft(part, axis=ax, out=part)
