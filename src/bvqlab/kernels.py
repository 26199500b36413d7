"""Nonlocal kernel functionals on sampled fields.

The central object is the double Riemann sum

    bbm_value(u, q, eps) = (1/eps^N) * sum_{x, y inside, 0 < |y-x| <= eps}
                           h^{2N} |u(y) - u(x)|^q / |y - x|,

the midpoint-rule discretization of the kernel double integral with
denominator eps^N |y - x|.  Pairs are enumerated by lattice displacement
vector (the grid specialization of binned neighbor search): for each integer
offset v with 0 < |v| <= eps the inner sum over x is one vectorized pass, and
displacement inclusion is decided on exact integer squared radii, so a radius
like eps*sqrt(N) never suffers a floating-point boundary tie.

Reductions are ordered: per-displacement sums are always combined with
``math.fsum`` in lexicographic displacement order, which makes repeated runs
bit-identical and keeps the sample-wise inequalities asserted elsewhere exact
in floating point.  Without an outer sub-mask the sum for -v repeats the sum
for v bit for bit, so only half of a symmetric offset list is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import defaults
from .errors import EmptyMaskError, RegimeError
from .grid import DomainMask, SampledField


@dataclass(frozen=True)
class GridRadius:
    """A pair-search radius whose square is an exact integer multiple of h^2.

    ``GridRadius(m2)`` stands for the radius h*sqrt(m2).  Constructing radii
    this way keeps the inclusion test |y - x| <= radius exact: it compares
    integer squared offsets, never floating-point lengths.
    """

    m2: int

    def __post_init__(self):
        if self.m2 < 1:
            raise ValueError("squared radius must be a positive integer")

    def length(self, h: float) -> float:
        return h * math.sqrt(self.m2)

    @classmethod
    def from_cells(cls, m: int) -> "GridRadius":
        return cls(m * m)

    def scaled_sqrt_dim(self, dim: int) -> "GridRadius":
        """The radius times sqrt(dim), still exactly representable."""
        return GridRadius(self.m2 * dim)


def resolve_radius(eps, h: float) -> tuple[int, float]:
    """Map an eps (float or GridRadius) to (integer squared cells, length)."""
    if isinstance(eps, GridRadius):
        return eps.m2, eps.length(h)
    ratio = float(eps) / h
    m2 = int(math.floor(ratio * ratio * (1.0 + 1e-12) + 1e-12))
    return m2, float(eps)


@lru_cache(maxsize=64)
def _offsets_cached(dim: int, m2max: int):
    m = math.isqrt(m2max)
    axis = np.arange(-m, m + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    offs = np.stack([g.ravel() for g in mesh], axis=-1)
    r2 = (offs * offs).sum(axis=1)
    keep = (r2 > 0) & (r2 <= m2max)
    offs = offs[keep]
    r2 = r2[keep]
    offs.setflags(write=False)
    r2.setflags(write=False)
    return offs, r2


def lattice_offsets(dim: int, m2max: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer displacement vectors with 0 < |v|^2 <= m2max (in cells).

    Returned in the deterministic lexicographic order used by every
    reduction in this module.
    """
    if m2max < 1:
        raise RegimeError("radius smaller than one cell")
    return _offsets_cached(dim, m2max)


def _power_from_sq(ss: np.ndarray, q: float) -> np.ndarray:
    """|d|^q given squared norms ss = |d|^2."""
    if q == 2.0:
        return ss
    if q == 1.0:
        return np.sqrt(ss)
    return ss ** (0.5 * q)


def _offset_slices(extents, off):
    sx, sy = [], []
    for ext, o in zip(extents, off):
        o = int(o)
        lo = max(0, -o)
        hi = min(ext, ext - o)
        if hi <= lo:
            return None, None
        sx.append(slice(lo, hi))
        sy.append(slice(lo + o, hi + o))
    return tuple(sx), tuple(sy)


def _pair_power_sum(field: SampledField, x_inside, off, q: float) -> float:
    """sum over x of |u(x+off) - u(x)|^q with x in x_inside, x+off inside."""
    inside = field.mask.inside
    sx, sy = _offset_slices(field.grid.extents, off)
    if sx is None:
        return 0.0
    dv = field.values[sy] - field.values[sx]
    ss = np.einsum("...k,...k->...", dv, dv)
    t = _power_from_sq(ss, q)
    if x_inside is None and field.mask.all_inside:
        return float(t.sum())
    xin = (x_inside if x_inside is not None else inside)[sx]
    valid = xin & inside[sy] if not field.mask.all_inside else xin
    return float(t[valid].sum())


def pair_power_sums(
    field: SampledField,
    offsets: np.ndarray,
    q: float,
    x_mask: DomainMask | None = None,
) -> np.ndarray:
    """Per-displacement sums of |u(x+v) - u(x)|^q, in offset order.

    Without ``x_mask`` the -v windows are the v windows swapped: the same
    differences, negated, over the same validity mask and in the same C
    order.  So when the offset list is symmetric (``offsets[::-1] ==
    -offsets``, true for every ``lattice_offsets`` result) only its first
    half is summed and the rest is filled by reversal, bit for bit.
    """
    x_inside = None
    if x_mask is not None:
        if x_mask.grid != field.grid:
            raise ValueError("x_mask must share the field grid")
        if not x_mask.count:
            raise EmptyMaskError("x_mask is empty")
        x_inside = x_mask.inside
    n = len(offsets)
    half = n
    if x_inside is None and np.array_equal(offsets[::-1], -offsets):
        half = (n + 1) // 2
    out = np.empty(n, dtype=np.float64)
    for i in range(half):
        out[i] = _pair_power_sum(field, x_inside, offsets[i], q)
    out[half:] = out[: n - half][::-1]
    return out


def _check_regime(eps_len: float, h: float, kappa: float, diameter: float):
    if eps_len < kappa * h:
        raise RegimeError(
            f"eps = {eps_len:g} is below kappa*h = {kappa * h:g}; "
            "the discretization regime h << eps is not met"
        )
    if eps_len >= diameter:
        raise RegimeError(f"eps = {eps_len:g} reaches the domain diameter")


def bbm_value(
    u: SampledField,
    q: float,
    eps,
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> float:
    """Kernel double sum at scale eps (see module docstring).

    ``x_mask`` restricts the outer variable to a sub-mask while y still
    ranges over the full mask; that is the compact-subset variant used by the
    nested-domain and mollified-energy checks.  Without it both variables run
    over the mask, matching the B_eps(x) intersected with Omega convention.

    Zero for constant fields; homogeneous of degree q in u; symmetric in the
    pair (x, y) because every displacement is enumerated with both signs.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    h = u.grid.spacing
    m2max, eps_len = resolve_radius(eps, h)
    _check_regime(eps_len, h, kappa, u.grid.diameter)
    offs, r2 = lattice_offsets(u.grid.dim, m2max)
    sums = pair_power_sums(u, offs, q, x_mask)
    dist = h * np.sqrt(r2)
    terms = sums / dist
    n = u.grid.dim
    return math.fsum(terms) * h ** (2 * n) / eps_len**n


@dataclass(frozen=True)
class EpsSweep:
    """A scale sweep of a functional with its extrapolated limit.

    ``eps`` is strictly decreasing.  The raw values are always kept; the
    fitted limit never replaces them.  ``monotone`` flags whether the sweep
    was monotone within a 1% band (a non-monotone sweep is reported, not
    suppressed: the underlying limit is a limsup).
    """

    eps: tuple[float, ...]
    values: tuple[float, ...]
    limit: float
    fit_model: str
    residual: float
    monotone: bool

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("eps values must be strictly decreasing")
        if any(v < -1e-300 for v in self.values):
            raise ValueError("functional values must be nonnegative")


FIT_MODELS = ("constant", "linear-in-eps")


def _fit_limit(eps: np.ndarray, vals: np.ndarray, model: str, points: int):
    k = min(points, len(eps))
    e = eps[-k:]
    v = vals[-k:]
    if model == "constant":
        limit = float(v.mean())
        resid = float(np.sqrt(np.mean((v - limit) ** 2)))
        return limit, resid
    if model == "linear-in-eps":
        if len(e) < 3:
            raise ValueError("linear-in-eps extrapolation needs >= 3 eps values")
        coef = np.polyfit(e, v, 1)
        limit = float(coef[1])
        resid = float(np.sqrt(np.mean((np.polyval(coef, e) - v) ** 2)))
        return limit, resid
    raise ValueError(f"unknown fit model {model!r}")


def sweep_functional(
    values_fn,
    eps_list,
    h: float,
    fit_model: str = "linear-in-eps",
    *,
    kappa: float = defaults.KAPPA,
    fit_points: int = defaults.FIT_POINTS,
) -> EpsSweep:
    """Evaluate ``values_fn(eps)`` along a decreasing ladder and extrapolate."""
    eps_arr = [resolve_radius(e, h)[1] for e in eps_list]
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if any(e < kappa * h for e in eps_arr):
        raise RegimeError("eps ladder dips below kappa*h")
    vals = np.array([values_fn(e) for e in eps_list], dtype=float)
    limit, resid = _fit_limit(np.asarray(eps_arr), vals, fit_model, fit_points)
    diffs = np.diff(vals)
    span = max(abs(vals).max(), 1e-300)
    monotone = bool((diffs <= 0.01 * span).all() or (diffs >= -0.01 * span).all())
    return EpsSweep(
        eps=tuple(eps_arr),
        values=tuple(float(v) for v in vals),
        limit=float(limit),
        fit_model=fit_model,
        residual=resid,
        monotone=monotone,
    )


def bbm_sweep(
    u: SampledField,
    q: float,
    eps_list,
    fit_model: str = "linear-in-eps",
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> EpsSweep:
    """bbm_value along a decreasing eps ladder plus an extrapolated limit."""
    return sweep_functional(
        lambda e: bbm_value(u, q, e, x_mask, kappa=kappa),
        eps_list,
        u.grid.spacing,
        fit_model,
        kappa=kappa,
    )


# --------------------------------------------------------------------------
# Directional (single-shift) functionals.
# --------------------------------------------------------------------------


def _shift_windows(u: SampledField, eps_len: float, k: np.ndarray, x_mask):
    """Common x-window, shifted values u(x + eps*k), and validity mask.

    Integer shifts are evaluated exactly; fractional ones by multilinear
    interpolation of inside values, with a sample dropped as soon as any
    stencil corner leaves the mask.
    """
    h = u.grid.spacing
    t = eps_len * k / h
    t_round = np.rint(t)
    if np.max(np.abs(t - t_round)) < 1e-9:
        off = t_round.astype(int)
        sx, sy = _offset_slices(u.grid.extents, off)
        if sx is None:
            raise RegimeError("shift leaves the grid entirely")
        uy = u.values[sy]
        valid = u.mask.inside[sy]
    else:
        base = np.floor(t).astype(int)
        frac = t - base
        lo, hi = [], []
        for ext, b, fr in zip(u.grid.extents, base, frac):
            extra = 1 if fr > 0 else 0
            lo.append(max(0, -b))
            hi.append(min(ext, ext - b - extra))
        if any(b <= a for a, b in zip(lo, hi)):
            raise RegimeError("shift leaves the grid entirely")
        sx = tuple(slice(a, b) for a, b in zip(lo, hi))
        corners = [(0, 1) if frac[a] > 0 else (0,) for a in range(u.grid.dim)]
        uy = 0.0
        valid = None
        for corner in np.ndindex(*[len(c) for c in corners]):
            cvec = [corners[a][corner[a]] for a in range(u.grid.dim)]
            w = 1.0
            for a, c in enumerate(cvec):
                w *= frac[a] if c else (1.0 - frac[a]) if corners[a] == (0, 1) else 1.0
            sy = tuple(
                slice(a + int(b0) + c, b + int(b0) + c)
                for (a, b), b0, c in zip(zip(lo, hi), base, cvec)
            )
            uy = uy + w * u.values[sy]
            v = u.mask.inside[sy]
            valid = v if valid is None else (valid & v)
    ux = u.values[sx]
    xin = (x_mask.inside if x_mask is not None else u.mask.inside)[sx]
    if not u.mask.all_inside or x_mask is not None:
        valid = valid & xin
    else:
        valid = None  # everything valid
    return ux, uy, valid


def _directional_sum(u, eps_len, k, x_mask, cost_from_sq) -> float:
    ux, uy, valid = _shift_windows(u, eps_len, k, x_mask)
    dv = uy - ux
    ss = np.einsum("...k,...k->...", dv, dv)
    t = cost_from_sq(ss)
    total = float(t.sum()) if valid is None else float(t[valid].sum())
    return total * u.grid.spacing ** u.grid.dim / eps_len


def directional_value(
    u: SampledField,
    q: float,
    eps,
    k,
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> float:
    """(1/eps) * h^N * sum_x |u(x + eps k) - u(x)|^q over valid samples x.

    ``k`` must be a unit vector (tolerance 1e-12).  Samples whose shifted
    point cannot be interpolated from inside values are dropped, matching the
    convention that both endpoints live in Omega.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.size != u.grid.dim:
        raise ValueError("direction dimension mismatch")
    if abs(np.linalg.norm(k) - 1.0) > 1e-12:
        raise ValueError("direction must have unit length")
    if q < 1:
        raise ValueError("q must be >= 1")
    _, eps_len = resolve_radius(eps, u.grid.spacing)
    _check_regime(eps_len, u.grid.spacing, kappa, u.grid.diameter)
    return _directional_sum(u, eps_len, k, x_mask, lambda ss: _power_from_sq(ss, q))


@lru_cache(maxsize=32)
def direction_set(dim: int, count: int) -> tuple[tuple[float, ...], ...]:
    """The +/- axis directions plus a deterministic low-discrepancy tail."""
    dirs: list[tuple[float, ...]] = []
    for a in range(dim):
        e = [0.0] * dim
        e[a] = 1.0
        dirs.append(tuple(e))
        e2 = list(e)
        e2[a] = -1.0
        dirs.append(tuple(e2))
    if dim == 1:
        return tuple(dirs)
    extra = max(0, count - len(dirs))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    if dim == 2:
        for j in range(1, extra + 1):
            th = 2 * math.pi * ((j * golden) % 1.0)
            dirs.append((math.cos(th), math.sin(th)))
    else:
        for j in range(1, extra + 1):
            z = 1.0 - 2.0 * j / (extra + 1.0)
            r = math.sqrt(max(0.0, 1.0 - z * z))
            th = 2 * math.pi * ((j * golden) % 1.0)
            dirs.append((r * math.cos(th), r * math.sin(th), z))
    return tuple(dirs)


def directional_sup(
    u: SampledField,
    q: float,
    eps,
    n_directions: int | None = None,
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> float:
    """Max of ``directional_value`` over the deterministic direction set.

    A lower bound for the true supremum over the unit sphere; callers treat
    it as such.
    """
    count = n_directions or defaults.direction_count(u.grid.dim)
    if count < 2 * u.grid.dim and u.grid.dim > 1:
        raise ValueError("need at least the 2*dim axis directions")
    best = 0.0
    for k in direction_set(u.grid.dim, count):
        best = max(best, directional_value(u, q, eps, k, x_mask, kappa=kappa))
    return best


def besov_seminorm_pow(
    u: SampledField,
    q: float,
    rhos,
    n_directions: int | None = None,
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> float:
    """q-th power of the scale-sup directional seminorm.

    Takes the max over the given radii of ``directional_sup``; by the
    sup-reduction argument the sup over shifts |z| <= rho of the
    rho-normalized modulus equals the sup over exact radii, so a radius list
    is all that is needed.  Reported as a lower bound (finite direction set).
    """
    rhos = list(rhos)
    if not rhos:
        raise ValueError("need at least one radius")
    return max(
        directional_sup(u, q, r, n_directions, x_mask, kappa=kappa) for r in rhos
    )


def gagliardo_seminorm_pow(
    u: SampledField,
    q: float,
) -> float:
    """Discrete double sum of |u(x)-u(y)|^q / |x-y|^{N+1} over distinct pairs.

    For fields with jumps this diverges as h -> 0; the raw value is reported
    as is.  Every displacement up to the grid diameter is enumerated, so the
    cost grows with the full pair count; intended for 1D grids and small 2D
    grids.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    g = u.grid
    m2max = sum((e - 1) ** 2 for e in g.extents)
    offs, r2 = lattice_offsets(g.dim, m2max)
    sums = pair_power_sums(u, offs, q)
    dist_pow = (g.spacing * np.sqrt(r2)) ** (g.dim + 1)
    return math.fsum(sums / dist_pow) * g.spacing ** (2 * g.dim)


def gagliardo_dominates_bbm(
    u: SampledField,
    q: float,
    eps,
    *,
    kappa: float = defaults.KAPPA,
) -> tuple[float, float, bool]:
    """(bbm value, gagliardo value, bbm <= gagliardo) with shared pair sums.

    The domination holds term by term: for |v| <= eps the bbm kernel weight
    1/(eps^N |v|) never exceeds 1/|v|^{N+1}, and the gagliardo sum contains
    every bbm pair plus the tail |v| > eps.
    """
    g = u.grid
    h = g.spacing
    m2eps, eps_len = resolve_radius(eps, h)
    _check_regime(eps_len, h, kappa, g.diameter)
    m2max = sum((e - 1) ** 2 for e in g.extents)
    offs, r2 = lattice_offsets(g.dim, m2max)
    sums = pair_power_sums(u, offs, q)
    dist = h * np.sqrt(r2)
    gag = math.fsum(sums / dist ** (g.dim + 1)) * h ** (2 * g.dim)
    near = r2 <= m2eps
    bbm = math.fsum(sums[near] / dist[near]) * h ** (2 * g.dim) / eps_len**g.dim
    return bbm, gag, bool(bbm <= gag)


# --------------------------------------------------------------------------
# Exact sample-wise inequality checks tied to the kernel algebra.
# --------------------------------------------------------------------------


def q_monotonicity_holds(
    u: SampledField,
    q1: float,
    q2: float,
    eps,
    *,
    kappa: float = defaults.KAPPA,
) -> tuple[float, float, bool]:
    """Check bbm(u, q2, eps) <= (2 sup|u|)^(q2-q1) * bbm(u, q1, eps).

    Holds pair by pair because |u(y) - u(x)| <= 2 sup|u|; returns the two
    sides and the verdict of the untoleranced comparison.
    """
    if not q2 > q1 >= 1:
        raise ValueError("need q2 > q1 >= 1")
    lhs = bbm_value(u, q2, eps, kappa=kappa)
    rhs = bbm_value(u, q1, eps, kappa=kappa)
    factor = (2.0 * u.sup_norm()) ** (q2 - q1)
    return lhs, factor * rhs, bool(lhs <= factor * rhs)


def splitting_inequality_holds(
    u: SampledField,
    q: float,
    off1,
    off2,
    x_mask: DomainMask | None = None,
) -> bool:
    """Sample-wise triangle/convexity splitting for a two-leg shift.

    For integer offsets v1, v2 checks, at every sample x where all three
    points are inside,

        |u(x+v1+v2) - u(x)|^q
            <= 2^(q-1) (|u(x+v1+v2) - u(x+v1)|^q + |u(x+v1) - u(x)|^q).

    Exact-equality samples (the two legs coincide) are accepted as equality.
    """
    off1 = np.asarray(off1, dtype=int)
    off2 = np.asarray(off2, dtype=int)
    off = off1 + off2
    sx, s_mid, sy = [], [], []
    for ext, o1, o in zip(u.grid.extents, off1, off):
        o1, o = int(o1), int(o)
        lo = max(0, -o1, -o)
        hi = min(ext, ext - o1, ext - o)
        if hi <= lo:
            raise RegimeError("splitting offsets leave the grid entirely")
        sx.append(slice(lo, hi))
        s_mid.append(slice(lo + o1, hi + o1))
        sy.append(slice(lo + o, hi + o))
    sx, s_mid, sy = tuple(sx), tuple(s_mid), tuple(sy)
    u0 = u.values[sx]
    u1 = u.values[s_mid]
    u2 = u.values[sy]
    inside = u.mask.inside
    valid = inside[sx] & inside[s_mid] & inside[sy]
    if x_mask is not None:
        valid = valid & x_mask.inside[sx]
    a = u2 - u1
    b = u1 - u0
    ssa = np.einsum("...k,...k->...", a, a)
    ssb = np.einsum("...k,...k->...", b, b)
    c = u2 - u0
    ssc = np.einsum("...k,...k->...", c, c)
    lhs = _power_from_sq(ssc, q)
    rhs = 2.0 ** (q - 1.0) * (_power_from_sq(ssa, q) + _power_from_sq(ssb, q))
    equal_legs = ssa == ssb
    ok = (lhs <= rhs) | equal_legs
    return bool(ok[valid].all())
