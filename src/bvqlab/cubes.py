"""Disjoint eps-cube packings and the oscillation functional they score.

A packing is a collection of at most floor(eps^-(N-1)) pairwise disjoint
axis-aligned eps-cubes inside the domain; each cube is scored by

    eps^(N-1) / vol(Q)^2 * double integral over Q x Q of |u(y) - u(x)|.

The packing search is one greedy selection over a shifted candidate lattice
(stride eps/4 by default), so the returned functional value is a feasible
lower bound of the true sup; every check that consumes it is stated so that
a lower bound keeps the check sound (the tests check it against an exact
search on small candidate sets).  Cube sides pass the one kappa*h guard of
:mod:`bvqlab.kernels`, and ``cube_score`` and ``CubePacking.validate``
share one check that a cube lies on the grid and in the mask.

Scoring is batched.  One ``sliding_window_view`` of the inside flags finds
every candidate cube of the stride lattice at once, and the scores stay one
float64 array; the greedy search builds an origin tuple only for each
candidate it reaches in rank order.  Every batched score equals
``cube_score`` at that origin bit for bit.

Memory is one budget, ``_CHUNK_FLOATS`` (2^15 floats, 256 KiB), live at a
time while scoring, whatever the grid, the scale and the number of
candidates (a cube larger than the budget is its own chunk):

- Scalar fields gather the value windows of the candidates in chunks of
  whole cubes, at most one budget each.  Fancy indexing makes each chunk a
  private copy, so it is sorted row by row in place, with one call, and
  never writes the field.  Each row keeps its own dot product with the
  prefix coefficients (``np.vecdot``, which rounds as ``row @ coef`` does):
  the operations ``cube_score`` applies to one cube.  (One matrix-vector
  product over the chunk would be faster but rounds differently.)
- Vector fields score one cube at a time, and never hold its k x k pair
  norms at once: they are built a chunk of whole rows at a time, at most
  one budget of differences and norms, and each row's ``.sum()`` is kept.
  The score is the ``math.fsum`` of the k row sums, so it does not depend
  on the chunking (the loop oracle of the tests sums the dense norms'
  ``.sum(axis=1)`` the same way).

``check_b_bound`` takes an eps ladder and gets the kernel side of every rung
from one ``kernels.bbm_ladder`` pass at the radii eps*sqrt(N).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults
from .grid import DomainMask, SampledField
from .kernels import (
    GridRadius,
    _check_kappa_h,
    bbm_ladder,
    bbm_value,  # unused here; bench/tests/test_bench.py pins cubes.bbm_value
    resolve_radius,
)
from .reports import ComparisonReport, leq

# Floats live at once while scoring (256 KiB of float64): the values of a
# chunk of whole scalar cubes, or one row chunk of a vector cube's pair norms.
_CHUNK_FLOATS = 1 << 15


class CubePacking:
    """Disjoint eps-cubes, addressed by their lower-corner cell indices."""

    def __init__(self, eps: float, side_cells: int, origins: tuple[tuple[int, ...], ...]):
        self.eps = eps
        self.side_cells = side_cells
        self.origins = origins

    @property
    def count(self) -> int:
        return len(self.origins)

    def validate(self, mask: DomainMask) -> None:
        dim = mask.grid.dim
        cap = packing_cap(self.eps, dim)
        if self.count > cap:
            raise ValueError(f"{self.count} cubes exceed the cap {cap}")
        m = self.side_cells
        for o in self.origins:
            _check_cube(mask, o, m)
        for i, a in enumerate(self.origins):
            for b in self.origins[i + 1 :]:
                if all(abs(x - y) < m for x, y in zip(a, b)):
                    raise ValueError("cubes overlap")


def _check_cube(mask: DomainMask, origin, side: int) -> None:
    """Refuse a side^N cube at ``origin`` that leaves the grid or the mask."""
    if any(a < 0 or a + side > e for a, e in zip(origin, mask.grid.extents)):
        raise ValueError("cube leaves the grid")
    if not mask.inside[tuple(slice(a, a + side) for a in origin)].all():
        raise ValueError("cube leaves the domain mask")


def packing_cap(eps: float, dim: int) -> int:
    """floor(eps^-(N-1)); the cap is 1 for N = 1."""
    return int(math.floor(eps ** (-(dim - 1)) + 1e-12)) if dim > 1 else 1


def _pair_abs_sums(blocks: np.ndarray) -> np.ndarray:
    """sum over ordered pairs (i, j) of |v_i - v_j| for each (k, d) value block.

    ``blocks`` has shape (cubes, k, d).  Scalar blocks are sorted row by row
    in one call, in place, so the caller's ``blocks`` comes back sorted; each
    row then takes the sorted prefix trick
    sum_{i<j} (s_j - s_i) = sum_j s_j (2j - (k-1)) as its own dot product.
    Vector blocks are scored one at a time from a contiguous copy: their
    k x k pair norms are built ``max(1, _CHUNK_FLOATS // (k (d + 1)))`` rows
    at a time, each row summed with ``.sum()`` into one k-float array, and
    the chunk released before the next is built; the score is the
    ``math.fsum`` of the k row sums.
    """
    k, d = blocks.shape[1:]
    if d == 1:
        s = blocks[:, :, 0]
        s.sort(axis=-1)
        coef = 2.0 * np.arange(k) - (k - 1.0)
        return 2.0 * np.vecdot(s, coef)
    out = np.empty(len(blocks))
    rows = max(1, _CHUNK_FLOATS // (k * (d + 1)))
    row_sums = np.empty(k)
    for i, vals in enumerate(blocks):
        vals = np.ascontiguousarray(vals)
        for r0 in range(0, k, rows):
            diff = vals[r0 : r0 + rows, None, :] - vals[None, :, :]
            norms = np.einsum("ijk,ijk->ij", diff, diff)
            np.sqrt(norms, out=norms)
            norms.sum(axis=1, out=row_sums[r0 : r0 + rows])
            del diff, norms  # so the next chunk is built in their place
        out[i] = math.fsum(row_sums)
    return out


def _cube_scores(u: SampledField, origins: np.ndarray, side: int) -> np.ndarray:
    """Scores of the side^N cubes with the given lower corners, in order.

    Scalar value windows are gathered in chunks of whole cubes, at most
    ``_CHUNK_FLOATS`` values per chunk, and vector ones a cube at a time, so
    memory stays bounded whatever the grid, the scale and the number of
    candidates.
    """
    scores = np.empty(len(origins))
    if not len(origins):
        return scores  # also when the cube is wider than the grid
    g = u.grid
    h = g.spacing
    eps = side * h
    norm = eps ** (g.dim - 1) / eps ** (2 * g.dim)
    h2n = h ** (2 * g.dim)
    windows = sliding_window_view(u.values, (side,) * g.dim, axis=tuple(range(g.dim)))
    k = side**g.dim
    # a vector cube's pair sum holds one row chunk of its own beside the cube
    per_chunk = max(1, _CHUNK_FLOATS // k) if u.d == 1 else 1
    for start in range(0, len(origins), per_chunk):
        chunk = windows[tuple(origins[start : start + per_chunk].T)]
        pair = _pair_abs_sums(chunk.reshape(len(chunk), u.d, k).transpose(0, 2, 1))
        del chunk  # so the next chunk is gathered in its place, not beside it
        pair *= h2n
        np.multiply(norm, pair, out=scores[start : start + len(pair)])
    return scores


def cube_score(u: SampledField, origin_cells, side_cells: int) -> float:
    """Normalized mean oscillation of one eps-cube (zero for constants)."""
    m = int(side_cells)
    o = tuple(int(a) for a in np.atleast_1d(origin_cells))
    _check_cube(u.mask, o, m)
    return float(_cube_scores(u, np.array([o]), m)[0])


def _candidates(mask: DomainMask, side: int, stride: int) -> np.ndarray:
    """Lower corners on the stride lattice whose cube lies inside, in C order."""
    dim = mask.grid.dim
    if any(e < side for e in mask.grid.extents):
        return np.empty((0, dim), dtype=np.intp)
    lattice = (slice(None, None, stride),) * dim
    windows = sliding_window_view(mask.inside, (side,) * dim)[lattice]
    fits = windows.all(axis=tuple(range(dim, 2 * dim)))
    return np.argwhere(fits) * stride


def _cube_side(eps, h: float, kappa: float) -> tuple[int, float]:
    """Validate one eps as a cube scale; return its side in cells and length."""
    m2, eps_len = resolve_radius(eps, h)
    side = math.isqrt(m2)
    if side * side != m2:
        raise ValueError("cube side must be a whole number of cells")
    _check_kappa_h(eps_len, h, kappa)
    return side, eps_len


def _stride(stride_cells, side: int):
    """The candidate lattice stride: eps/4 by default, else at least one cell."""
    if stride_cells is None:
        return max(1, side // defaults.CUBE_STRIDE_DIVISOR)
    if stride_cells < 1:
        raise ValueError(f"stride_cells must be at least 1, got {stride_cells}")
    return stride_cells


def _greedy_select(scored, side_cells: int, cap: int):
    """Keep each (score, origin), walked in rank order, whose cube is
    disjoint from those kept, until ``cap`` cubes or a score <= 0.
    ``scored`` may be a lazy iterable: the walk stops reading it there."""
    chosen = []
    for score, origin in scored:
        if len(chosen) >= cap or score <= 0.0:
            break
        if all(
            any(abs(a - b) >= side_cells for a, b in zip(origin, kept))
            for _, kept in chosen
        ):
            chosen.append((score, origin))
    return chosen


def cube_functional(
    u: SampledField,
    eps,
    stride_cells: int | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> tuple[float, CubePacking]:
    """Best found disjoint-cube packing value at scale eps.

    Scores every candidate on a stride-eps/4 lattice and keeps the top
    disjoint cubes greedily (lexicographic tie-break), so the value is a
    feasible packing score, i.e. a lower bound for the supremum over all
    packings.  ``stride_cells`` below 1 is refused; a cube wider than the
    grid leaves no candidate and gives the empty packing.

    All candidates are found and scored in one batch (see the module
    docstring); each score equals ``cube_score`` at that origin bit for bit.
    """
    h = u.grid.spacing
    side, eps_len = _cube_side(eps, h, kappa)
    stride = _stride(stride_cells, side)
    origins = _candidates(u.mask, side, stride)
    scores = _cube_scores(u, origins, side)
    # by score, highest first, then by origin: columns are lexsort keys, last primary
    order = np.lexsort((*origins.T[::-1], np.negative(scores)))
    scored = ((float(scores[i]), tuple(origins[i].tolist())) for i in order)
    chosen = _greedy_select(scored, side, packing_cap(eps_len, u.grid.dim))
    packing = CubePacking(eps_len, side, tuple(o for _, o in chosen))
    packing.validate(u.mask)
    return math.fsum(s for s, _ in chosen), packing


def check_b_bound(
    u: SampledField,
    q: float,
    eps_list,
    stride_cells: int | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> list[ComparisonReport]:
    """Packing value <= N^((N+1)/(2q)) * (kernel sum at eps*sqrt(N))^(1/q),
    one report per eps of the ladder.

    Untoleranced: the chain behind it (per-cube Hoelder, kernel domination
    by the cube diameter, the packing cap) holds term by term on the grid,
    and any feasible packing value only lowers the left side.

    Every cube side and the stride are validated first; then one
    ``bbm_ladder`` pass at the sqrt(N)-scaled radii validates q and the
    regime of every eps*sqrt(N) and gives each rung's kernel side, equal to
    ``bbm_value(u, q, eps*sqrt(N))`` bit for bit.
    """
    h = u.grid.spacing
    n = u.grid.dim
    rungs = []
    for eps in eps_list:
        side, eps_len = _cube_side(eps, h, kappa)
        _stride(stride_cells, side)
        rungs.append((eps, eps_len, GridRadius.from_cells(side).scaled_sqrt_dim(n)))
    kernel_sides = bbm_ladder(u, q, [wide for _, _, wide in rungs], kappa=kappa)
    reports = []
    for (eps, eps_len, wide), kernel in zip(rungs, kernel_sides):
        value, packing = cube_functional(u, eps, stride_cells, kappa=kappa)
        rhs = n ** ((n + 1) / (2.0 * q)) * kernel ** (1.0 / q)
        reports.append(
            leq(
                value,
                rhs,
                f"cube-packing vs kernel bound (q={q:g}, eps={eps_len:g})",
                cubes=packing.count,
                kernel_at_sqrtN=kernel,
                eps_wide=wide.length(h),
                lhs_is_feasible_lower_bound=True,
            )
        )
    return reports
