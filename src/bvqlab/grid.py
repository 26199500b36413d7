"""Uniform grids, domain masks, and sampled fields.

Sampling follows the cell-center convention: along axis ``a`` the i-th sample
sits at ``origin[a] + (i + 1/2) * spacing``.  All containers are immutable
after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyMaskError


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over an axis-aligned box."""

    dim: int
    origin: tuple[float, ...]
    spacing: float
    extents: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.origin) != self.dim or len(self.extents) != self.dim:
            raise ValueError("origin/extents length must match dim")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        if any(e < 4 for e in self.extents):
            raise ValueError("every extent must be at least 4 cells")

    @classmethod
    def for_box(cls, lo, hi, n) -> "Grid":
        """Grid with ``n`` cells per axis covering the box [lo, hi].

        The spacing must come out uniform across axes.
        """
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        n = tuple(int(v) for v in np.atleast_1d(n))
        dims = len(lo)
        if len(hi) != dims or len(n) != dims:
            raise ValueError("lo, hi, n must have equal length")
        spacings = [(b - a) / m for a, b, m in zip(lo, hi, n)]
        h = spacings[0]
        if any(abs(s - h) > 1e-12 * abs(h) for s in spacings):
            raise ValueError("box and cell counts give non-uniform spacing")
        return cls(dim=dims, origin=lo, spacing=h, extents=n)

    def axis_centers(self, axis: int) -> np.ndarray:
        return self.origin[axis] + (np.arange(self.extents[axis]) + 0.5) * self.spacing

    @cached_property
    def center_mesh(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def points(self) -> np.ndarray:
        """All cell centers as an (n_cells, dim) array in C order."""
        return np.stack([m.ravel() for m in self.center_mesh], axis=-1)

    @property
    def upper(self) -> tuple[float, ...]:
        return tuple(o + e * self.spacing for o, e in zip(self.origin, self.extents))

    @property
    def diameter(self) -> float:
        return math.sqrt(sum((e * self.spacing) ** 2 for e in self.extents))

    def face_distance(self) -> np.ndarray:
        """Distance from every cell center to the grid box boundary."""
        dist = np.full(self.extents, np.inf)
        for a in range(self.dim):
            c = self.axis_centers(a)
            d = np.minimum(c - self.origin[a], self.upper[a] - c)
            shape = [1] * self.dim
            shape[a] = self.extents[a]
            dist = np.minimum(dist, d.reshape(shape))
        return dist


@dataclass(frozen=True, eq=False)
class DomainMask:
    """A grid plus a boolean inside/outside flag per cell."""

    grid: Grid
    inside: np.ndarray = field(repr=False)

    def __post_init__(self):
        ins = np.ascontiguousarray(self.inside, dtype=bool)
        if ins.shape != self.grid.extents:
            raise ValueError("inside array shape must equal grid extents")
        if not ins.any():
            raise EmptyMaskError("mask has no inside points")
        object.__setattr__(self, "inside", ins)
        ins.setflags(write=False)

    @classmethod
    def full(cls, grid: Grid) -> "DomainMask":
        return cls(grid, np.ones(grid.extents, dtype=bool))

    @classmethod
    def from_predicate(cls, grid: Grid, predicate) -> "DomainMask":
        pts = grid.points()
        flags = np.asarray(predicate(pts), dtype=bool).reshape(grid.extents)
        return cls(grid, flags)

    @cached_property
    def all_inside(self) -> bool:
        return bool(self.inside.all())

    @property
    def count(self) -> int:
        return int(self.inside.sum())

    def area(self) -> float:
        return self.count * self.grid.spacing ** self.grid.dim

    @cached_property
    def boundary_distance(self) -> np.ndarray:
        """Per-cell distance to the domain boundary.

        Combines the distance to the grid box faces with the distance to the
        nearest outside cell center (when outside cells exist).
        """
        dist = self.grid.face_distance()
        if not self.all_inside:
            from scipy import ndimage

            edt = ndimage.distance_transform_edt(
                self.inside, sampling=[self.grid.spacing] * self.grid.dim
            )
            dist = np.minimum(dist, edt)
        return dist

    def erode(self, delta: float) -> "DomainMask":
        """Cells whose distance to the domain boundary exceeds ``delta``."""
        if delta < 0:
            raise ValueError("erosion distance must be nonnegative")
        kept = self.inside & (self.boundary_distance > delta)
        if not kept.any():
            raise EmptyMaskError(f"erosion by {delta} emptied the mask")
        return DomainMask(self.grid, kept)

    def points_inside(self) -> np.ndarray:
        return self.grid.points()[self.inside.ravel()]


@dataclass(frozen=True, eq=False)
class SampledField:
    """Values of u: Omega -> R^d at the inside cell centers of a mask.

    ``values`` has shape extents + (d,), with zeros at outside cells.  The
    optional ``source`` keeps a handle on the analytic field the samples came
    from, so downstream consumers can re-evaluate u (and, for the eikonal
    catalog, its exact gradient).
    """

    mask: DomainMask
    values: np.ndarray = field(repr=False)
    d: int = 1
    source: object | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim == self.mask.grid.dim:
            vals = vals[..., None]
        expected = self.mask.grid.extents + (self.d,)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        if not np.isfinite(vals[self.mask.inside]).all():
            raise ValueError("field has non-finite values inside the mask")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    @property
    def grid(self) -> Grid:
        return self.mask.grid

    def sup_norm(self) -> float:
        """L-infinity norm of |u| (Euclidean norm over components) inside."""
        ss = np.einsum("...k,...k->...", self.values, self.values)
        return float(np.sqrt(np.max(ss[self.mask.inside])))

    def translated(self, offset_cells) -> "SampledField":
        """Shift mask and values by whole cells (used by equivariance checks)."""
        off = np.asarray(offset_cells, dtype=int)
        vals = np.zeros_like(self.values)
        ins = np.zeros_like(self.mask.inside)
        src, dst = [], []
        for o, e in zip(off, self.grid.extents):
            if abs(o) >= e:
                raise ValueError("translation exceeds grid extents")
            src.append(slice(max(0, -o), e - max(0, o)))
            dst.append(slice(max(0, o), e - max(0, -o)))
        src, dst = tuple(src), tuple(dst)
        vals[dst] = self.values[src]
        ins[dst] = self.mask.inside[src]
        return SampledField(DomainMask(self.grid, ins), vals, self.d, None)
