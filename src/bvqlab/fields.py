"""Analytic test-field catalog and jump-set descriptions.

Each catalog entry can be evaluated at arbitrary points and, where
meaningful, carries an exact description of its jump set (or of the jump set
of its gradient, for the eikonal entries) with analytic surface measures.
Fields are addressed by kind name through ``make_field`` so the CLI can build
them from configuration files.  A class's ``kind``, and ``dim`` where the
kind fixes it, are class constants.  Its parameters are exactly its own
annotated class attributes, each annotation a type string that
``typed_value`` reads and each value the default, as in

    class RampField(AnalyticField):
        x0: float = -0.25 + _IRR2
        x1: float = 0.25 + _IRR2
        kind = "ramp"

``AnalyticField.__init__`` binds them by keyword and then runs the class's
``_check``; ``list_fields`` and ``make_field`` read the same annotations.

Every ``evaluate`` and ``gradient`` acts point by point.  ``sample_analytic``
and ``sample_gradient`` rely on that: they evaluate over blocks of whole
grid rows (``grid._sample_rows``) and hold the values plus one block.

Default positional offsets are irrational so that a jump surface never passes
exactly through a cell center on any binary grid.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import cached_property

import numpy as np

from . import _rng
from ._special import gauss_jacobi
from .errors import ConfigError, UnknownFieldError
from .grid import DomainMask, Grid, SampledField, _sample_rows

# Irrational nudges used by default offsets.
_IRR1 = (math.sqrt(5.0) - 2.0) / 97.0        # ~ 0.002434
_IRR2 = (math.sqrt(2.0) - 1.0) / 113.0       # ~ 0.003666


class JumpPiece:
    """One piece of a jump set: analytic measure, traces, unit normal.

    ``normal`` is ``None`` for a whole sphere, whose normals cover the unit
    sphere evenly.  The traces may differ by any amount, however small, but
    not be equal.
    """

    def __init__(
        self,
        measure: float,
        plus: tuple[float, ...],
        minus: tuple[float, ...],
        normal: tuple[float, ...] | None,
    ):
        self.measure = measure
        self.plus = plus
        self.minus = minus
        self.normal = normal
        if self.normal is not None:
            n = np.asarray(self.normal, dtype=float)
            if abs(float(np.linalg.norm(n)) - 1.0) > 1e-12:
                raise ValueError("piece normal must be a unit vector")
        if np.array_equal(self.plus, self.minus):
            raise ValueError(f"piece traces plus and minus must differ, both are {self.plus}")
        if not self.measure > 0:
            raise ValueError("piece measure must be positive")

    def amplitude(self) -> float:
        dif = np.asarray(self.plus, float) - np.asarray(self.minus, float)
        return float(np.linalg.norm(dif))


class JumpSpec:
    """Jump set of a piecewise field as a list of analytically measured pieces."""

    def __init__(self, pieces: tuple[JumpPiece, ...]):
        self.pieces = pieces
        total = sum(p.measure for p in self.pieces)
        if self.pieces and not (0 < total < math.inf):
            raise ValueError("total jump measure must be positive and finite")

    @property
    def total_measure(self) -> float:
        return sum(p.measure for p in self.pieces)


class AnalyticField:
    """Base class for catalog fields.

    Subclasses implement ``evaluate`` (and ``gradient`` where the catalog
    promises an exact gradient).  ``jump_spec`` returns the jump description
    of the field itself for piecewise entries, and of the *gradient* for the
    eikonal entries; ``None`` means jump-free.
    """

    kind = "?"
    dim = 1
    d = 1

    def __init__(self, **params):
        """Bind each parameter of the class (its annotated class attributes)
        to its keyword, or to the class attribute, its default; then run the
        class's ``_check``."""
        cls = type(self)
        for name in _parameters(cls):
            setattr(self, name, params.pop(name, getattr(cls, name)))
        if params:
            raise TypeError(f"{cls.__name__} takes no parameter {', '.join(map(repr, params))}")
        self._check()

    def _check(self) -> None:
        """Refuse parameter values the kind cannot take."""

    def evaluate(self, pts: np.ndarray, h: float | None = None) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        raise ValueError(f"{self.kind} has no analytic gradient")

    def jump_spec(self, grid: Grid) -> JumpSpec | None:
        return None

    def total_gradient_mass(self, grid: Grid) -> float | None:
        """Analytic value of the integral of |grad u| over the grid box."""
        return None

    def ridge_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the gradient-discontinuity set (eikonal kinds only)."""
        raise NotImplementedError


def _parameters(cls: type) -> dict[str, str]:
    """A catalog class's parameters, in declaration order, with their
    declared type strings: the annotations of its own class body."""
    return vars(cls).get("__annotations__", {})


def _pts(pts: np.ndarray, dim: int) -> np.ndarray:
    p = np.asarray(pts, dtype=float)
    if p.ndim == 1:
        p = p[:, None] if dim == 1 else p[None, :]
    if p.shape[-1] != dim:
        raise ValueError(f"points have dimension {p.shape[-1]}, field has {dim}")
    return p


class ConstantField(AnalyticField):
    value: tuple[float, ...] = (0.0,)
    dim: int = 1
    kind = "constant"

    @property
    def d(self) -> int:  # type: ignore[override]
        return len(self.value)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        return np.broadcast_to(np.asarray(self.value, float), p.shape[:-1] + (self.d,)).copy()

    def gradient(self, pts):
        p = _pts(pts, self.dim)
        return np.zeros(p.shape[:-1] + (self.dim,))

    def total_gradient_mass(self, grid):
        return 0.0


class LinearField(AnalyticField):
    """u(x) = slope . x + offset (scalar valued)."""

    slope: tuple[float, ...] = (1.0,)
    offset: float = 0.0
    kind = "linear"

    @property
    def dim(self) -> int:  # type: ignore[override]
        return len(self.slope)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        return (p @ np.asarray(self.slope, float) + self.offset)[..., None]

    def gradient(self, pts):
        p = _pts(pts, self.dim)
        return np.broadcast_to(np.asarray(self.slope, float), p.shape[:-1] + (self.dim,)).copy()

    def total_gradient_mass(self, grid):
        vol = 1.0
        for o, u in zip(grid.origin, grid.upper):
            vol *= u - o
        return float(np.linalg.norm(self.slope)) * vol


class Step1DField(AnalyticField):
    """1D step: ``low`` for x < position, ``high`` for x > position."""

    position: float = _IRR1
    low: float = 0.0
    high: float = 1.0
    kind = "step-1d"

    def evaluate(self, pts, h=None):
        p = _pts(pts, 1)
        return np.where(p[..., 0] > self.position, self.high, self.low)[..., None]

    def jump_spec(self, grid):
        """The jump, when its position lies strictly inside the box."""
        if not _inside_line(self.position, grid):
            return None
        return JumpSpec((JumpPiece(1.0, (self.high,), (self.low,), (1.0,)),))


class PiecewiseConstant1DField(AnalyticField):
    """1D piecewise-constant field with jumps at ``positions``."""

    positions: tuple[float, ...] = (-0.5 + _IRR1, _IRR2, 0.5 - _IRR1)
    levels: tuple[float, ...] = (0.0, 1.0, -0.5, 0.75)
    kind = "piecewise-constant-multi"

    def _check(self):
        if len(self.levels) != len(self.positions) + 1:
            raise ValueError("need one more level than jump positions")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("positions must be strictly increasing")

    def evaluate(self, pts, h=None):
        p = _pts(pts, 1)[..., 0]
        idx = np.searchsorted(np.asarray(self.positions), p)
        return np.asarray(self.levels, float)[idx][..., None]

    def jump_spec(self, grid):
        """One piece per position strictly inside the box where the levels
        on its two sides differ."""
        pieces = []
        for i, x in enumerate(self.positions):
            lo, hi = self.levels[i], self.levels[i + 1]
            if hi != lo and _inside_line(x, grid):
                pieces.append(JumpPiece(1.0, (hi,), (lo,), (1.0,)))
        return JumpSpec(tuple(pieces)) if pieces else None


def _inside_line(x: float, grid: Grid) -> bool:
    """Whether the point x lies strictly inside a 1D grid's box."""
    return grid.origin[0] < x < grid.upper[0]


class HalfPlaneField(AnalyticField):
    """Indicator of the half plane ``normal . x > offset`` (dim 2)."""

    normal: tuple[float, float] = (1.0, 0.0)
    offset: float = 0.5 + _IRR1
    kind = "half-plane-indicator"
    dim = 2

    def _check(self):
        n = np.asarray(self.normal, float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector")

    def evaluate(self, pts, h=None):
        p = _pts(pts, 2)
        side = p @ np.asarray(self.normal, float) - self.offset
        return (side > 0).astype(float)[..., None]

    def jump_spec(self, grid):
        length = _line_box_length(self.normal, self.offset, grid)
        if length <= 0:
            return None
        return JumpSpec((JumpPiece(length, (1.0,), (0.0,), tuple(self.normal)),))


def _line_box_length(normal, offset, grid: Grid) -> float:
    """Length of the segment {normal.x = offset} clipped to the grid box."""
    n = np.asarray(normal, float)
    tau = np.array([-n[1], n[0]])
    base = n * offset
    lo_t, hi_t = -math.inf, math.inf
    for a in range(2):
        lo, hi = grid.origin[a], grid.upper[a]
        if abs(tau[a]) < 1e-15:
            if not (lo <= base[a] <= hi):
                return 0.0
            continue
        t0 = (lo - base[a]) / tau[a]
        t1 = (hi - base[a]) / tau[a]
        lo_t = max(lo_t, min(t0, t1))
        hi_t = min(hi_t, max(t0, t1))
    return max(0.0, hi_t - lo_t)


class PolygonField(AnalyticField):
    """Indicator of a simple polygon given by its vertices (dim 2)."""

    vertices: tuple[tuple[float, float], ...] = (
        (0.25 + _IRR1, 0.25 + _IRR2),
        (0.75 + _IRR1, 0.25 + _IRR2),
        (0.75 + _IRR1, 0.75 + _IRR2),
        (0.25 + _IRR1, 0.75 + _IRR2),
    )
    kind = "polygon-indicator"
    dim = 2

    def _check(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")

    def evaluate(self, pts, h=None):
        p = _pts(pts, 2)
        x, y = p[..., 0], p[..., 1]
        inside = np.zeros(x.shape, dtype=bool)
        verts = self.vertices
        for i in range(len(verts)):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % len(verts)]
            crosses = (y0 > y) != (y1 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= crosses & (x < np.where(crosses, xint, 0.0))
        return inside.astype(float)[..., None]

    def jump_spec(self, grid):
        verts = np.asarray(self.vertices, float)
        if (verts.min(0) < grid.origin).any() or (verts.max(0) > np.asarray(grid.upper)).any():
            raise ValueError("polygon must lie inside the grid box")
        signed2 = 0.0
        for i in range(len(verts)):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % len(verts)]
            signed2 += x0 * y1 - x1 * y0
        ccw = signed2 > 0
        pieces = []
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            edge = b - a
            length = float(np.linalg.norm(edge))
            outward = np.array([edge[1], -edge[0]]) / length
            if not ccw:
                outward = -outward
            pieces.append(JumpPiece(length, (0.0,), (1.0,), tuple(outward)))
        return JumpSpec(tuple(pieces))


class BallField(AnalyticField):
    """Indicator of a ball."""

    center: tuple[float, ...] = (0.5 + _IRR1, 0.5 + _IRR2)
    radius: float = 0.25 + _IRR1
    kind = "ball-indicator"

    def _check(self):
        # evaluate compares against radius**2, which overflows past ~1.3e154
        if not math.isfinite(self.radius * self.radius):
            raise ValueError(f"radius must have a finite square, got {self.radius!r}")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return len(self.center)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        r2 = np.einsum("...k,...k->...", p - np.asarray(self.center), p - np.asarray(self.center))
        return (r2 < self.radius**2).astype(float)[..., None]

    def jump_spec(self, grid):
        r = self.radius
        c = np.asarray(self.center, float)
        if (c - r < grid.origin).any() or (c + r > np.asarray(grid.upper)).any():
            raise ValueError("ball must lie inside the grid box")
        if self.dim == 1:
            pieces = (
                JumpPiece(1.0, (1.0,), (0.0,), (-1.0,)),
                JumpPiece(1.0, (1.0,), (0.0,), (1.0,)),
            )
            return JumpSpec(pieces)
        measure = 2 * math.pi * r if self.dim == 2 else 4 * math.pi * r**2
        return JumpSpec((JumpPiece(measure, (1.0,), (0.0,), None),))


class BlockRandomField(AnalyticField):
    """Seeded blockwise-constant field (for randomized inequality checks)."""

    seed: int = 0
    blocks: int = 6
    low: float = 0.0
    high: float = 1.0
    dim: int = 2
    kind = "block-random"

    def _check(self):
        if self.blocks < 1:
            raise ValueError("block-random needs blocks >= 1")
        if self.seed < 0:
            raise ValueError(f"block-random needs seed >= 0, got {self.seed}")
        if not 0.0 <= self.high - self.low < math.inf:
            raise ValueError(
                "block-random needs low <= high with a finite high - low, "
                f"got low={self.low!r}, high={self.high!r}"
            )

    @cached_property
    def _levels(self) -> np.ndarray:
        # default_rng(seed).uniform(low, high, blocks**dim), drawn once per field
        draws = _rng.uniform(self.seed, self.low, self.high, self.blocks**self.dim)
        return draws.reshape((self.blocks,) * self.dim)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        levels = self._levels
        # Blocks tile the unit box; points outside clamp to the edge blocks.
        idx = []
        for a in range(self.dim):
            t = np.clip((p[..., a] * self.blocks).astype(int), 0, self.blocks - 1)
            idx.append(t)
        return levels[tuple(idx)][..., None]


class HoelderField(AnalyticField):
    """Finite lacunary cosine sum with Hoelder exponent ``s``.

    u(x) = sum_{j<=J} 2^{-j s} cos(2^j pi x + phase_j).  The number of terms
    defaults to ceil(log2(1/h)) at sampling time; ``terms`` (>= 0) pins it.
    Points where 2^J pi x is not a finite float are refused.
    """

    s: float = 0.75
    seed: int = 0
    terms: int | None = None
    kind = "hoelder"

    def _check(self):
        if not (0 < self.s <= 1):
            raise ValueError("Hoelder exponent must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"hoelder needs seed >= 0, got {self.seed}")
        if self.terms is not None and self.terms < 0:
            raise ValueError(f"hoelder needs terms >= 0, got {self.terms}")

    def _n_terms(self, h: float | None) -> int:
        if self.terms is not None:
            return self.terms
        if h is None:
            raise ValueError("hoelder field needs a grid spacing or explicit terms")
        return max(1, math.ceil(math.log2(1.0 / h)))

    def evaluate(self, pts, h=None):
        p = _pts(pts, 1)[..., 0]
        n = self._n_terms(h)
        if n > 1023 or not math.isfinite(2.0**n * math.pi * float(np.abs(p).max(initial=0.0))):
            raise ValueError(f"hoelder terms = {n} overflows float64: 2^terms pi x is not finite")
        if self.seed:
            phases = _rng.uniform(self.seed, 0.0, 2 * math.pi, n + 1)
        else:
            phases = np.zeros(n + 1)
        out = np.zeros_like(p)
        for j in range(n + 1):
            out += 2.0 ** (-j * self.s) * np.cos(2.0**j * math.pi * p + phases[j])
        return out[..., None]


class RampField(AnalyticField):
    """0 before x0, linear rise to 1 at x1, then 1 (dim 1)."""

    x0: float = -0.25 + _IRR2
    x1: float = 0.25 + _IRR2
    kind = "ramp"

    def _check(self):
        if not self.x1 > self.x0:
            raise ValueError("need x1 > x0")

    def evaluate(self, pts, h=None):
        p = _pts(pts, 1)[..., 0]
        return np.clip((p - self.x0) / (self.x1 - self.x0), 0.0, 1.0)[..., None]

    def gradient(self, pts):
        p = _pts(pts, 1)[..., 0]
        g = np.where((p > self.x0) & (p < self.x1), 1.0 / (self.x1 - self.x0), 0.0)
        return g[..., None]

    def total_gradient_mass(self, grid):
        lo, hi = grid.origin[0], grid.upper[0]
        if self.x0 < lo or self.x1 > hi:
            return None
        return 1.0


class Sine1DField(AnalyticField):
    """u(x) = amplitude * sin(cycles * pi * x) on a 1D grid."""

    amplitude: float = 1.0
    cycles: int = 1
    kind = "sine-1d"

    def evaluate(self, pts, h=None):
        p = _pts(pts, 1)[..., 0]
        return (self.amplitude * np.sin(self.cycles * math.pi * p))[..., None]

    def gradient(self, pts):
        p = _pts(pts, 1)[..., 0]
        g = self.amplitude * self.cycles * math.pi * np.cos(self.cycles * math.pi * p)
        return g[..., None]

    def total_gradient_mass(self, grid):
        lo, hi = grid.origin[0], grid.upper[0]
        half = self.cycles * (hi - lo)
        if abs(half - round(half)) < 1e-12:
            # integer count of half periods: each contributes 2*|amplitude|
            return 2.0 * abs(self.amplitude) * round(half)
        t, w = gauss_jacobi(256, 0.0, 0.0)  # Gauss-Legendre
        x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        g = abs(self.amplitude) * self.cycles * math.pi * np.abs(
            np.cos(self.cycles * math.pi * x)
        )
        return float(0.5 * (hi - lo) * (w @ g))


# --------------------------------------------------------------------------
# Eikonal catalog: |grad psi| = 1 almost everywhere.
# --------------------------------------------------------------------------


class PyramidField(AnalyticField):
    """Distance to the boundary of a square box (a roof profile in dim 1).

    The gradient is piecewise constant with jumps of size sqrt(2) across the
    square's diagonals (size 2 across the midpoint in dim 1).
    """

    lo: tuple[float, ...] = (0.0, 0.0)
    hi: tuple[float, ...] = (1.0, 1.0)
    kind = "pyramid-eikonal"

    def _check(self):
        sides = [b - a for a, b in zip(self.lo, self.hi)]
        if len(self.lo) != len(self.hi) or any(s <= 0 for s in sides):
            raise ValueError("box needs lo and hi of one length and positive sides")
        if len(sides) == 2 and abs(sides[0] - sides[1]) > 1e-12:
            raise ValueError("pyramid field requires a square box")

    @property
    def dim(self) -> int:  # type: ignore[override]
        return len(self.lo)

    def _edge_distances(self, p):
        cols = []
        for a in range(self.dim):
            cols.append(p[..., a] - self.lo[a])
            cols.append(self.hi[a] - p[..., a])
        return np.stack(cols, axis=-1)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        return self._edge_distances(p).min(axis=-1)[..., None]

    def _dirs(self):
        dirs = []
        for a in range(self.dim):
            e = np.zeros(self.dim)
            e[a] = 1.0
            dirs.extend([e, -e])
        return np.asarray(dirs)

    def gradient(self, pts):
        p = _pts(pts, self.dim)
        dists = self._edge_distances(p)
        return self._dirs()[dists.argmin(axis=-1)]

    # unused in the package; bench/tests/test_bench.py pins this method
    def evaluate_with_gradient(self, pts, h=None):
        p = _pts(pts, self.dim)
        dists = self._edge_distances(p)
        return dists.min(axis=-1)[..., None], self._dirs()[dists.argmin(axis=-1)]

    def jump_spec(self, grid):
        if self.dim == 1:
            return JumpSpec((JumpPiece(1.0, (-1.0,), (1.0,), (1.0,)),))
        side = self.hi[0] - self.lo[0]
        halfdiag = side * math.sqrt(2.0) / 2.0
        r = math.sqrt(2.0) / 2.0
        # one piece per corner-to-center ridge segment
        pieces = (
            JumpPiece(halfdiag, (0.0, 1.0), (1.0, 0.0), (r, -r)),
            JumpPiece(halfdiag, (0.0, 1.0), (-1.0, 0.0), (r, r)),
            JumpPiece(halfdiag, (0.0, -1.0), (1.0, 0.0), (r, r)),
            JumpPiece(halfdiag, (0.0, -1.0), (-1.0, 0.0), (r, -r)),
        )
        return JumpSpec(pieces)

    def ridge_distance(self, pts):
        p = _pts(pts, self.dim)
        if self.dim == 1:
            mid = 0.5 * (self.lo[0] + self.hi[0])
            return np.abs(p[..., 0] - mid)
        c = 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))
        u = p - c
        d1 = np.abs(u[..., 0] - u[..., 1]) / math.sqrt(2.0)
        d2 = np.abs(u[..., 0] + u[..., 1]) / math.sqrt(2.0)
        return np.minimum(d1, d2)


class ConeField(AnalyticField):
    """psi(x) = radius0 - |x - center|; gradient is smooth away from the apex."""

    center: tuple[float, ...] = (0.5 + _IRR1, 0.5 + _IRR2)
    radius0: float = 0.5
    kind = "cone-eikonal"

    @property
    def dim(self) -> int:  # type: ignore[override]
        return len(self.center)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        r = np.linalg.norm(p - np.asarray(self.center), axis=-1)
        return (self.radius0 - r)[..., None]

    def gradient(self, pts):
        p = _pts(pts, self.dim)
        u = p - np.asarray(self.center)
        r = np.linalg.norm(u, axis=-1, keepdims=True)
        safe = np.where(r > 0, r, 1.0)
        g = -u / safe
        if (r == 0).any():
            e = np.zeros(self.dim)
            e[0] = 1.0
            g = np.where(r > 0, g, -e)
        return g

    def ridge_distance(self, pts):
        p = _pts(pts, self.dim)
        return np.linalg.norm(p - np.asarray(self.center), axis=-1)


class ZigzagField(AnalyticField):
    """Sawtooth of x_1 with slope +-1: distance to the nearest even multiple
    of ``halfwidth`` (shifted by ``offset``).  Gradient jumps of size 2 on the
    lines x_1 = offset + m * halfwidth."""

    halfwidth: float = 0.25
    offset: float = _IRR1
    dim: int = 2
    kind = "zigzag-eikonal"

    def _check(self):
        if not self.halfwidth > 0:
            raise ValueError("halfwidth must be positive")

    def _saw(self, t):
        u = np.mod(t - self.offset, 2.0 * self.halfwidth)
        return self.halfwidth - np.abs(u - self.halfwidth)

    def evaluate(self, pts, h=None):
        p = _pts(pts, self.dim)
        return self._saw(p[..., 0])[..., None]

    def gradient(self, pts):
        p = _pts(pts, self.dim)
        u = np.mod(p[..., 0] - self.offset, 2.0 * self.halfwidth)
        sign = np.where(u < self.halfwidth, 1.0, -1.0)
        g = np.zeros(p.shape[:-1] + (self.dim,))
        g[..., 0] = sign
        return g

    def _kink_positions(self, grid: Grid):
        lo, hi = grid.origin[0], grid.upper[0]
        out = []
        # a bounded range, so an offset far outside the box cannot stall it
        for m in range(math.ceil((lo - self.offset) / self.halfwidth),
                       math.ceil((hi - self.offset) / self.halfwidth) + 1):
            x = self.offset + m * self.halfwidth
            if lo < x < hi:
                out.append((x, m % 2 == 0))
        return out

    def jump_spec(self, grid):
        # each kink is a line or plane across the box: its measure is the
        # product of the transverse sides (1 for a point in 1D)
        height = math.prod((grid.upper[a] - grid.origin[a] for a in range(1, self.dim)), start=1.0)
        pieces = []
        for _, is_trough in self._kink_positions(grid):
            e1 = (1.0,) + (0.0,) * (self.dim - 1)
            up = (1.0,) + (0.0,) * (self.dim - 1)
            dn = (-1.0,) + (0.0,) * (self.dim - 1)
            if is_trough:
                pieces.append(JumpPiece(height, up, dn, e1))
            else:
                pieces.append(JumpPiece(height, dn, up, e1))
        return JumpSpec(tuple(pieces)) if pieces else None

    def ridge_distance(self, pts):
        p = _pts(pts, self.dim)
        t = np.mod(p[..., 0] - self.offset, self.halfwidth)
        return np.minimum(t, self.halfwidth - t)


# --------------------------------------------------------------------------
# Registry and sampling.
# --------------------------------------------------------------------------

FIELD_REGISTRY: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ConstantField, LinearField, Step1DField, HalfPlaneField, PolygonField, BallField,
        PiecewiseConstant1DField, BlockRandomField, HoelderField, RampField, Sine1DField,
        PyramidField, ConeField, ZigzagField,
    )
}


def typed_value(value, annotation: str, key: str):
    """``value`` as the declared type ``annotation``, else a ConfigError naming
    ``key``: a float is any finite number, an int only an integer, a tuple a
    non-empty list of its item types; a bool is neither number."""
    if annotation.endswith(" | None"):
        return None if value is None else typed_value(value, annotation[: -len(" | None")], key)
    plain = {"int": int, "float": (int, float), "str": str, "dict": dict}.get(annotation, ())
    if isinstance(value, plain) and not isinstance(value, bool):
        if annotation != "float":
            return value
        if abs(value) <= sys.float_info.max:
            return float(value)
    if annotation.startswith("tuple[") and isinstance(value, (list, tuple)):
        items = annotation[len("tuple["):-1]
        types = [items[: -len(", ...")]] * len(value) if items.endswith(", ...") else items.split(", ")
        if value and len(types) == len(value):
            return tuple(typed_value(v, t, key) for v, t in zip(value, types))
    raise ConfigError(f"{key} must be {annotation}, got {value!r}")


def make_field(kind: str, /, **params) -> AnalyticField:
    """The catalog field ``kind``; each param must be one that ``list_fields``
    names for it, with a value of its declared type (see ``typed_value``)."""
    try:
        types = _parameters(FIELD_REGISTRY[kind])
    except KeyError:
        raise UnknownFieldError(f"unknown field kind {kind!r}") from None
    for name in params:
        if name not in types:
            raise ConfigError(f"field {kind} takes no parameter {name!r}, only {', '.join(types)}")
    return FIELD_REGISTRY[kind](**{
        name: typed_value(value, types[name], f"field {kind} parameter {name!r}")
        for name, value in params.items()
    })


def list_fields() -> dict[str, dict[str, str]]:
    """Catalog kinds, each with its parameter names and declared types: the
    annotated class attributes of its class."""
    return {name: dict(_parameters(cls)) for name, cls in FIELD_REGISTRY.items()}


def sample_analytic(spec: AnalyticField, mask: DomainMask) -> SampledField:
    """Evaluate a catalog field at the cell centers of ``mask``.

    Indicator kinds come out exactly {0, 1} valued.  The field is evaluated
    over blocks of whole grid rows (``grid._sample_rows``), so sampling holds
    the values plus one block of centers; every evaluation acts point by
    point, so the values are those of one evaluation at all centers.
    """
    h = mask.grid.spacing
    return _sampled(spec, mask, lambda pts: spec.evaluate(pts, h=h), spec.d)


def sample_gradient(spec: AnalyticField, mask: DomainMask) -> SampledField:
    """Sample the exact gradient of a catalog field as a d = dim field, over
    blocks of whole grid rows like ``sample_analytic``."""
    return _sampled(spec, mask, spec.gradient, spec.dim)


def _sampled(spec: AnalyticField, mask: DomainMask, evaluate, d: int) -> SampledField:
    if spec.dim != mask.grid.dim:
        raise ValueError(
            f"field dimension {spec.dim} does not match grid dimension {mask.grid.dim}"
        )
    return SampledField(mask, _sample_rows(mask.grid, evaluate, (d,), np.float64), d=d)


def warn_if_jump_free(spec: JumpSpec | None) -> bool:
    if spec is None or not spec.pieces:
        warnings.warn("field has no jump pieces; jump energy is zero", stacklevel=3)
        return True
    return False
