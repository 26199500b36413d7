"""Uniform grids, domain masks, and sampled fields.

Sampling follows the cell-center convention: along axis ``a`` the i-th sample
sits at ``origin[a] + (i + 1/2) * spacing``.  No container is changed after
construction, and their arrays are read-only.

A grid holds no coordinate arrays.  Catalog fields and their gradients are
evaluated by ``_sample_rows`` over C-ordered blocks of whole axis-0 rows,
each block's centres built from ``Grid.axis_centers``, and written into one
preallocated result.  So sampling holds the result plus one block, never
N x dim coordinates.  ``DomainMask.from_predicate`` calls its predicate once,
on ``Grid.points()``, which is built for the call and not kept.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import EmptyMaskError, RegimeError


def _squared_cells(length: float, h: float) -> int:
    """floor((length / h)^2), snapped up by a relative 1e-12 so that a length
    computed as h * sqrt(m2) gives back the integer m2; a ``RegimeError``
    when that square is not finite (a NaN, infinite or huge length)."""
    ratio = float(length) / h
    m2 = ratio * ratio * (1.0 + 1e-12) + 1e-12
    if not math.isfinite(m2):
        raise RegimeError(f"length {length!r} is not a finite number of cells")
    return int(math.floor(m2))


def _whole(value, what: str) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool, and
    never a float, which ``int`` would silently truncate."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _clear_of(target: np.ndarray, m2: int, box) -> np.ndarray:
    """Over the cells of ``box`` (per-axis [lo, hi) ranges), whether the
    exact squared distance, in cells, to every True cell of ``target``
    exceeds ``m2``.

    The squared distance is taken one axis at a time, capped at m2 + 1:
    min over a of d^2(x + a e_axis) + a^2, where only |a| <= isqrt(m2) can
    fall under the cap.  Each pass keeps the rows of ``box`` along its axis
    only, since the passes after it read no other.  Values stay below
    2 m2 + 2, so they take the narrowest unsigned type that holds that.
    """
    cap, r = m2 + 1, math.isqrt(m2)
    d2 = np.full(target.shape, cap, dtype=np.min_scalar_type(2 * cap))
    d2[target] = 0
    for axis, (lo, hi) in enumerate(box):
        src = np.moveaxis(d2, axis, 0)
        out = src[lo:hi].copy()
        for a in range(-r, r + 1):
            start, stop = max(lo, -a), min(hi, len(src) - a)
            if a and start < stop:
                rows = out[start - lo : stop - lo]
                np.minimum(rows, src[start + a : stop + a] + a * a, out=rows)
        d2 = np.moveaxis(out, 0, axis)
    return d2 > m2


def _bounding_box(inside: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Per-axis [lo, hi) index range of the True cells of a non-empty mask."""
    box = []
    for a in range(inside.ndim):
        others = tuple(b for b in range(inside.ndim) if b != a)
        hit = np.flatnonzero(inside.any(axis=others))
        box.append((int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


# Cells per sampling block: whole axis-0 rows, at least one row.  A 2D
# block's centres take 256 KiB, a 3D one's 384 KiB.  Measured on catalog
# fields from 512^2 to 2048^2 and 64^3 to 128^3: 2^14 was as fast as
# 2^13-2^16 or faster, and the largest evaluation temporaries it leaves
# stay below the values of a 512^2 or 64^3 field.
_BLOCK_CELLS = 1 << 14


def _sample_rows(grid: "Grid", fn, tail: tuple[int, ...], dtype) -> np.ndarray:
    """``fn`` at every cell centre of ``grid``, as an array of shape
    ``extents + tail`` and type ``dtype``.

    ``fn`` maps an (n, dim) array of centres in C order to n results of
    shape ``tail`` and must act point by point: it is called on C-ordered
    blocks of whole axis-0 rows, at most ``_BLOCK_CELLS`` cells per block
    (one row when a row is larger), and each block's results are written
    into one preallocated array.
    """
    n0 = grid.extents[0]
    rows = max(1, _BLOCK_CELLS // math.prod(grid.extents[1:]))
    out = np.empty(grid.extents + tail, dtype=dtype)
    for start in range(0, n0, rows):
        stop = min(start + rows, n0)
        block = out[start:stop]
        block[...] = np.asarray(fn(grid._row_points(start, stop)), dtype=dtype).reshape(block.shape)
    return out


class Grid:
    """Uniform cell-centered grid over an axis-aligned box.

    Two grids are equal, and hash alike, when their dim, origin, spacing and
    extents are.
    """

    def __init__(
        self, dim: int, origin: tuple[float, ...], spacing: float, extents: tuple[int, ...]
    ):
        self.dim = dim
        self.origin = tuple(float(o) for o in origin)
        self.spacing = spacing
        self.extents = tuple(_whole(e, "extent") for e in extents)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.origin) != self.dim or len(self.extents) != self.dim:
            raise ValueError("origin/extents length must match dim")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if not (math.isfinite(self.spacing) and all(math.isfinite(o) for o in self.origin)):
            raise ValueError("origin and spacing must be finite")
        if any(e < 4 for e in self.extents):
            raise ValueError("every extent must be at least 4 cells")

    def _key(self) -> tuple:
        return (self.dim, self.origin, self.spacing, self.extents)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def for_box(cls, lo, hi, n) -> "Grid":
        """Grid with ``n`` cells per axis covering the box [lo, hi].

        The spacing must come out uniform across axes.
        """
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        # an object array keeps each count's own type: no float or bool is cast
        n = tuple(_whole(v, "cell count") for v in np.atleast_1d(np.asarray(n, dtype=object)))
        dims = len(lo)
        if len(hi) != dims or len(n) != dims:
            raise ValueError("lo, hi, n must have equal length")
        spacings = [(b - a) / m for a, b, m in zip(lo, hi, n)]
        h = spacings[0]
        if any(abs(s - h) > 1e-12 * abs(h) for s in spacings):
            raise ValueError("box and cell counts give non-uniform spacing")
        return cls(dim=dims, origin=lo, spacing=h, extents=n)

    def axis_centers(self, axis: int, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Centers of cells start..stop-1 along ``axis`` (all by default);
        each is the same float whatever the range."""
        stop = self.extents[axis] if stop is None else stop
        return self.origin[axis] + (np.arange(start, stop) + 0.5) * self.spacing

    def _row_points(self, start: int, stop: int) -> np.ndarray:
        """Cell centers of axis-0 rows start..stop-1, as an (n, dim) array in
        C order: each column is an ``axis_centers`` broadcast over the block."""
        shape = (stop - start,) + self.extents[1:]
        pts = np.empty(shape + (self.dim,))
        for a in range(self.dim):
            c = self.axis_centers(0, start, stop) if a == 0 else self.axis_centers(a)
            pts[..., a] = c.reshape([-1 if b == a else 1 for b in range(self.dim)])
        return pts.reshape(-1, self.dim)

    def points(self) -> np.ndarray:
        """All cell centers as an (n_cells, dim) array in C order, built on
        each call and not kept."""
        return self._row_points(0, self.extents[0])

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(o + e * self.spacing for o, e in zip(self.origin, self.extents))

    @property
    def diameter(self) -> float:
        return math.sqrt(sum((e * self.spacing) ** 2 for e in self.extents))


class DomainMask:
    """A grid plus a boolean inside/outside flag per cell."""

    def __init__(self, grid: Grid, inside: np.ndarray):
        ins = np.ascontiguousarray(inside, dtype=bool)
        if ins.shape != grid.extents:
            raise ValueError("inside array shape must equal grid extents")
        if not ins.any():
            raise EmptyMaskError("mask has no inside points")
        ins.setflags(write=False)
        self.grid = grid
        self.inside = ins

    @classmethod
    def full(cls, grid: Grid) -> "DomainMask":
        return cls(grid, np.ones(grid.extents, dtype=bool))

    @classmethod
    def from_predicate(cls, grid: Grid, predicate) -> "DomainMask":
        """Cells whose center ``predicate`` flags.  ``predicate`` maps the
        (n_cells, dim) array of ``grid.points()`` to n_cells flags, in one
        call."""
        flags = np.asarray(predicate(grid.points()), dtype=bool).reshape(grid.extents)
        return cls(grid, flags)

    @cached_property
    def all_inside(self) -> bool:
        return bool(self.inside.all())

    @property
    def count(self) -> int:
        return int(self.inside.sum())

    def area(self) -> float:
        return self.count * self.grid.spacing ** self.grid.dim

    def _farther_than(self, delta: float) -> np.ndarray:
        """Inside cells whose distance to the domain boundary exceeds ``delta``.

        The face test runs first, one axis at a time: a cell is kept when
        min(c - origin, upper - c) > delta for its centre c on every axis.
        Face distances are half-integer multiples of h, so they never tie
        with a snapped radius and compare as floats.
        On the bounding box of the cells it keeps, and only when the mask
        has outside cells, distances to outside cells compare as exact
        integers (``_clear_of``): d^2 > m^2 with m^2 =
        ``_squared_cells(delta, h)``, the snapping of ``kernels.resolve_radius``,
        so a cell exactly m cells from the nearest outside cell is dropped.
        """
        if not delta >= 0:
            raise ValueError(f"erosion distance must be nonnegative, got {delta!r}")
        g = self.grid
        kept = self.inside.copy()
        for a in range(g.dim):
            c = g.axis_centers(a)
            far = np.minimum(c - g.origin[a], g.upper[a] - c) > delta
            kept &= far.reshape([-1 if b == a else 1 for b in range(g.dim)])
        if not self.all_inside and kept.any():
            box = _bounding_box(kept)
            at = tuple(slice(lo, hi) for lo, hi in box)
            kept[at] &= _clear_of(~self.inside, _squared_cells(delta, self.grid.spacing), box)
        return kept

    def erode(self, delta: float) -> "DomainMask":
        """Cells whose distance to the domain boundary exceeds ``delta``."""
        kept = self._farther_than(delta)
        if not kept.any():
            raise EmptyMaskError(f"erosion by {delta} emptied the mask")
        return DomainMask(self.grid, kept)


class SampledField:
    """Values of u: Omega -> R^d at the inside cell centers of a mask.

    ``values`` has shape extents + (d,).  Outside cells hold whatever was
    sampled there (``sample_analytic`` evaluates the field at every cell
    center) and need not be finite, so consumers mask them with
    ``mask.inside``.  The samples are all there is: a consumer that needs
    more of u (the exact gradient of an eikonal field, say) takes it as
    another sampled field.
    """

    def __init__(self, mask: DomainMask, values: np.ndarray, d: int = 1):
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.ndim == mask.grid.dim:
            vals = vals[..., None]
        expected = mask.grid.extents + (d,)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        # no gather: a cell fails when a component is not finite and it is inside
        finite = np.isfinite(vals)
        if not finite.all() and not (finite.all(axis=-1) | ~mask.inside).all():
            raise ValueError("field has non-finite values inside the mask")
        vals.setflags(write=False)
        self.mask = mask
        self.values = vals
        self.d = d

    @property
    def grid(self) -> Grid:
        return self.mask.grid
