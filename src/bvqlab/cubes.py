"""Disjoint eps-cube packings and the oscillation functional they score.

A packing is a collection of at most floor(eps^-(N-1)) pairwise disjoint
axis-aligned eps-cubes inside the domain; each cube is scored by

    eps^(N-1) / vol(Q)^2 * double integral over Q x Q of |u(y) - u(x)|.

The packing search is a greedy selection over a shifted candidate lattice
(stride eps/4 by default), so the returned functional value is a feasible
lower bound of the true sup; every check that consumes it is stated so that
a lower bound keeps the check sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import RegimeError
from .grid import DomainMask, SampledField
from .kernels import GridRadius, bbm_value, resolve_radius
from .reports import ComparisonReport, leq


@dataclass(frozen=True)
class CubePacking:
    """Disjoint eps-cubes, addressed by their lower-corner cell indices."""

    eps: float
    side_cells: int
    origins: tuple[tuple[int, ...], ...]

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
            block = tuple(slice(a, a + m) for a in o)
            if any(a < 0 or a + m > e for a, e in zip(o, mask.grid.extents)):
                raise ValueError("cube leaves the grid")
            if not mask.inside[block].all():
                raise ValueError("cube leaves the domain mask")
        for i, a in enumerate(self.origins):
            for b in self.origins[i + 1 :]:
                if all(abs(x - y) < m for x, y in zip(a, b)):
                    raise ValueError("cubes overlap")


def packing_cap(eps: float, dim: int) -> int:
    """floor(eps^-(N-1)); the cap is 1 for N = 1."""
    return int(math.floor(eps ** (-(dim - 1)) + 1e-12)) if dim > 1 else 1


def _pair_abs_sum(vals: np.ndarray) -> float:
    """sum over ordered pairs (i, j) of |v_i - v_j| for a flat value block."""
    if vals.shape[1] == 1:
        # sorted prefix trick: sum_{i<j} (s_j - s_i) = sum_j s_j (2j - (k-1))
        s = np.sort(vals[:, 0])
        k = len(s)
        coef = 2.0 * np.arange(k) - (k - 1.0)
        return 2.0 * float(s @ coef)
    diff = vals[:, None, :] - vals[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum())


def cube_score(u: SampledField, origin_cells, side_cells: int) -> float:
    """Normalized mean oscillation of one eps-cube (zero for constants)."""
    m = int(side_cells)
    o = tuple(int(a) for a in np.atleast_1d(origin_cells))
    g = u.grid
    if any(a < 0 or a + m > e for a, e in zip(o, g.extents)):
        raise ValueError("cube leaves the grid")
    block = tuple(slice(a, a + m) for a in o)
    if not u.mask.inside[block].all():
        raise ValueError("cube leaves the domain mask")
    vals = u.values[block].reshape(-1, u.d)
    h = g.spacing
    eps = m * h
    double_int = _pair_abs_sum(vals) * h ** (2 * g.dim)
    return eps ** (g.dim - 1) / eps ** (2 * g.dim) * double_int


def _candidate_origins(mask: DomainMask, side_cells: int, stride_cells: int):
    ranges = []
    for e in mask.grid.extents:
        last = e - side_cells
        if last < 0:
            return []
        ranges.append(range(0, last + 1, stride_cells))
    out = []
    for o in np.stack(np.meshgrid(*[np.asarray(r) for r in ranges], indexing="ij"), axis=-1).reshape(-1, mask.grid.dim):
        block = tuple(slice(int(a), int(a) + side_cells) for a in o)
        if mask.inside[block].all():
            out.append(tuple(int(a) for a in o))
    return out


def _greedy_select(scored, side_cells: int, cap: int):
    chosen = []
    for score, origin in scored:
        if len(chosen) >= cap:
            break
        if score <= 0.0:
            break
        if all(
            any(abs(a - b) >= side_cells for a, b in zip(origin, kept))
            for _, kept in chosen
        ):
            chosen.append((score, origin))
    return chosen


def _exact_select(scored, side_cells: int, cap: int):
    n = len(scored)
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if all(
                abs(a - b) < side_cells
                for a, b in zip(scored[i][1], scored[j][1])
            ):
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    best_val, best_set = 0.0, []

    def walk(idx, banned, total, picked):
        nonlocal best_val, best_set
        if total > best_val:
            best_val, best_set = total, list(picked)
        if idx == n or len(picked) >= cap:
            return
        remaining = sum(s for s, _ in scored[idx:])
        if total + remaining <= best_val:
            return
        for i in range(idx, n):
            if banned & (1 << i):
                continue
            picked.append(scored[i])
            walk(i + 1, banned | conflict[i], total + scored[i][0], picked)
            picked.pop()

    walk(0, 0, 0.0, [])
    return best_set


def cube_functional(
    u: SampledField,
    eps,
    strategy: str = "greedy",
    stride_cells: int | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> tuple[float, CubePacking]:
    """Best found disjoint-cube packing value at scale eps.

    ``greedy`` scores every candidate on a stride-eps/4 lattice and keeps the
    top disjoint cubes (lexicographic tie-break); ``exact-small`` enumerates
    packings and needs at most 20 candidates.  Either way the value is a
    feasible packing score, i.e. a lower bound for the supremum over all
    packings.
    """
    h = u.grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    side = math.isqrt(m2)
    if side * side != m2:
        raise ValueError("cube side must be a whole number of cells")
    if eps_len < kappa * h:
        raise RegimeError("eps below kappa*h")
    stride = stride_cells or max(1, side // defaults.CUBE_STRIDE_DIVISOR)
    cands = _candidate_origins(u.mask, side, stride)
    scored = sorted(
        ((cube_score(u, o, side), o) for o in cands),
        key=lambda t: (-t[0], t[1]),
    )
    cap = packing_cap(eps_len, u.grid.dim)
    if strategy == "greedy":
        chosen = _greedy_select(scored, side, cap)
    elif strategy == "exact-small":
        if len(scored) > 20:
            raise ValueError("exact-small strategy allows at most 20 candidates")
        chosen = _exact_select(scored, side, cap)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    packing = CubePacking(eps_len, side, tuple(o for _, o in chosen))
    packing.validate(u.mask)
    total = math.fsum(s for s, _ in chosen)
    return total, packing


def check_b_bound(
    u: SampledField,
    q: float,
    eps,
    stride_cells: int | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> ComparisonReport:
    """Packing value <= N^((N+1)/(2q)) * (kernel sum at eps*sqrt(N))^(1/q).

    Untoleranced: the chain behind it (per-cube Hoelder, kernel domination
    by the cube diameter, the packing cap) holds term by term on the grid,
    and any feasible packing value only lowers the left side.
    """
    h = u.grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    side = math.isqrt(m2)
    if side * side != m2:
        raise ValueError("cube side must be a whole number of cells")
    value, packing = cube_functional(u, eps, "greedy", stride_cells, kappa=kappa)
    n = u.grid.dim
    wide = GridRadius.from_cells(side).scaled_sqrt_dim(n)
    kernel = bbm_value(u, q, wide, kappa=kappa)
    rhs = n ** ((n + 1) / (2.0 * q)) * kernel ** (1.0 / q)
    return leq(
        value,
        rhs,
        f"cube-packing vs kernel bound (q={q:g}, eps={eps_len:g})",
        cubes=packing.count,
        kernel_at_sqrtN=kernel,
        eps_wide=wide.length(h),
        lhs_is_feasible_lower_bound=True,
    )
