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

An eps ladder is one pass: ``bbm_ladder`` (behind ``bbm_value`` and
``bbm_sweep``) and ``gagliardo_dominates_bbm`` compute the per-displacement
sums once, at the largest radius they need, and every smaller rung reduces
the subset |v|^2 <= m2 of that table.  The subset holds the same per-offset
floats as the rung's own pass, and ``math.fsum`` is correctly rounded, so
each rung reads its ``bbm_value`` bit for bit.

Every sum of shifted differences has one path.  ``_offset_slices`` is the
only code that computes window bounds: the x window where every x + v of a
list of integer offsets stays on the grid, and one y window per offset.
``_window_sum`` sums cost(|sum_c w_c u(x + v_c) - u(x)|^2) over the valid x
of such a window.  A pair sum is its one-corner case; a directional shift
(``directional_value`` and ``jumps.directional_w_limit``, which share one
direction and regime check) is one exact corner on a lattice vector and the
multilinear corners otherwise; the splitting check takes its three windows
from ``_offset_slices`` too.

A window's arithmetic allocates nothing.  ``pair_power_sums`` allocates
one flat buffer, sized to its x box (the grid without a mask), and every
window takes views of it: window x d floats for the differences and, when
d >= 2, one more window for the squared norms; a directional shift's one
window gets its own buffer, with a second window x d block for the
weighted corners of a multilinear stencil.  ``_window_sum`` writes every
step into them with ``out=`` in the order of the plain expressions (``sum``
of the corners, the subtraction, ``einsum`` or, at d = 1, one
multiplication, then the cost with the ufunc ``ss ** (q/2)`` picks), so
every value is theirs bit for bit.  Only a window that is summed whole,
with no x mask on an all-inside field, skips the boolean gather; any other
builds its validity mask and gathers the valid terms first.

``_power_in_place`` is the one cost power |d|^q, for pair sums, shifts,
W costs, the splitting check and the q-variation.  ``_check_kappa_h`` is the
one kappa*h guard: ``_check_regime`` adds the diameter half for pairs and
shifts, and cube sides and ``aviles.mollify`` call it alone.

A {0, 1} field skips the windows altogether: each term is exactly 0 or 1, so
its pair sums are integer counts, and ``_indicator_pair_counts`` (in
``bvqlab._correlation``) returns them all, bit for bit, as
S(v) = (N(v) - C(v)) / 2: C one rounded FFT correlation of the signed cells
2u - 1, N the number of pairs the masks admit (in closed form for boxes).
Its spectra are built in column blocks of about sqrt(S * ``grid._BLOCK_CELLS``)
of a half spectrum's S complex values, so a pass holds O(block + lag table)
memory, not a padded grid.  So every pair sum here, and every check built on them, is the
pair-by-pair window sum bit for bit; none carries a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import defaults
from ._correlation import _indicator_pair_counts
from .errors import RegimeError
from .grid import _BLOCK_CELLS, DomainMask, SampledField, _bounding_box, _squared_cells


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
    return _squared_cells(eps, h), float(eps)


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


def _offset_slices(extents, offsets, box=None):
    """The x window where every x + v stays on the grid, and one y = x + v
    window per offset v.

    ``box``, per-axis [lo, hi), crops the x window further.  Returns
    ``(None, None)`` when the window is empty.  This is the one place window
    bounds are computed.
    """
    sx = []
    for a, (ext, col) in enumerate(zip(extents, zip(*offsets))):
        lo = max(0, -min(col))
        hi = min(ext, ext - max(col))
        if box is not None:
            lo = max(lo, box[a][0])
            hi = min(hi, box[a][1])
        if hi <= lo:
            return None, None
        sx.append(slice(lo, hi))
    return tuple(sx), [
        tuple([slice(s.start + o, s.stop + o) for s, o in zip(sx, v)]) for v in offsets
    ]


def _power_in_place(t: np.ndarray, q: float) -> np.ndarray:
    """|d|^q given squared norms t = |d|^2, written over t (t itself at
    q = 2).  The one cost power of the package.  ``t **= e`` picks its ufunc
    as ``t ** e`` does (``np.square`` at e = 2), so every value is the same."""
    if q == 1.0:
        np.sqrt(t, out=t)
    elif q != 2.0:
        t **= 0.5 * q
    return t


def _buffer_floats(shape, corners: int) -> int:
    """Floats ``_window_sum`` writes for a window x d block of ``shape``: the
    differences, then the squared norms when d >= 2, then the weighted
    corner of a multi-corner stencil."""
    n = math.prod(shape)
    d = shape[-1]
    return n + (n // d if d > 1 else 0) + (n if corners > 1 else 0)


def _window_sum(field: SampledField, x_inside, stencil, cost, box=None, buf=None) -> float | None:
    """sum over valid x of cost(|sum_c w_c u(x + v_c) - u(x)|^2).

    ``stencil`` lists the corners (v_c, w_c), v_c integer offsets.  x is
    valid when it lies in ``x_inside`` (the field mask when ``None``) and
    every x + v_c lies inside the field mask.  ``box``, the bounding box of
    ``x_inside``, crops the x window to it.  ``None`` when the x window is
    empty.  A one-corner stencil reads u(x + v) as is: pair sums and exact
    shifts never multiply by the weight.

    Every step writes into ``buf``, a flat float64 array of at least
    ``_buffer_floats`` elements for this window (a fresh one when ``None``),
    in the order the plain expressions ``sum(w_c * u(x + v_c)) - u(x)``,
    ``einsum`` and ``cost`` take, so each value is theirs bit for bit;
    ``cost`` may overwrite its argument.
    """
    sx, sys_ = _offset_slices(field.grid.extents, [v for v, _ in stencil], box)
    if sx is None:
        return None
    values, inside = field.values, field.mask.inside
    ux = values[sx]
    if buf is None:
        buf = np.empty(_buffer_floats(ux.shape, len(stencil)))
    n = ux.size
    m = n // field.d if field.d > 1 else 0
    dv = buf[:n].reshape(ux.shape)
    if len(stencil) == 1:
        np.subtract(values[sys_[0]], ux, out=dv)
    else:
        # the corners added left to right, as ``sum`` adds them
        term = buf[n + m : 2 * n + m].reshape(ux.shape)
        np.multiply(values[sys_[0]], stencil[0][1], out=dv)
        for (_, w), sy in zip(stencil[1:], sys_[1:]):
            dv += np.multiply(values[sy], w, out=term)
        dv -= ux
    if field.d == 1:
        t = dv[..., 0]
        np.multiply(t, t, out=t)
    else:
        t = np.einsum("...k,...k->...", dv, dv, out=buf[n : n + m].reshape(ux.shape[:-1]))
    t = cost(t)
    if x_inside is None and field.mask.all_inside:
        return float(t.sum())
    valid = (inside if x_inside is None else x_inside)[sx]
    if not field.mask.all_inside:
        for sy in sys_:
            valid = valid & inside[sy]
    return float(t[valid].sum())


def _x_inside(field: SampledField, x_mask: DomainMask | None) -> np.ndarray | None:
    """``x_mask.inside`` (``None`` without a mask); the mask must share the
    field grid."""
    if x_mask is None:
        return None
    if x_mask.grid != field.grid:
        raise ValueError("x_mask must share the field grid")
    return x_mask.inside


def pair_power_sums(
    field: SampledField,
    offsets: np.ndarray,
    q: float,
    x_mask: DomainMask | None = None,
) -> np.ndarray:
    """Per-displacement sums of |u(x+v) - u(x)|^q, in offset order.

    Each sum is the one-corner ``_window_sum`` over x with x and x+v inside
    (x in ``x_mask`` when given); a displacement with no such x sums to 0.

    Without ``x_mask`` the -v windows are the v windows swapped: the same
    differences, negated, over the same validity mask and in the same C
    order.  So when the offset list is symmetric (``offsets[::-1] ==
    -offsets``, true for every ``lattice_offsets`` result) only its first
    half is summed and the rest is filled by reversal, bit for bit.

    With ``x_mask`` every x window is cropped to the bounding box of
    ``x_mask.inside``.  Every x the mask keeps lies in that box, and the
    cropped window is a sub-block of the full one, so ``t[valid]`` holds the
    same elements in the same C order and its sum is unchanged, bit for bit;
    only samples the mask would discard are no longer computed.

    A {0, 1} field (``_is_indicator``) skips the windows: its sums are the
    exact pair counts of ``_indicator_pair_counts``, which equal the window
    sums bit for bit at every q.
    """
    x_inside = _x_inside(field, x_mask)
    box = None if x_mask is None else _bounding_box(x_inside)
    if _is_indicator(field):
        return _indicator_pair_counts(field, offsets, x_inside)
    n = len(offsets)
    half = n
    if x_inside is None and np.array_equal(offsets[::-1], -offsets):
        half = (n + 1) // 2
    cost = partial(_power_in_place, q=q)
    # one buffer for every window: each lies in the box (the grid without one)
    extents = field.grid.extents if box is None else [hi - lo for lo, hi in box]
    buf = np.empty(_buffer_floats([*extents, field.d], 1))
    out = np.empty(n, dtype=np.float64)
    for i, off in enumerate(offsets[:half]):
        total = _window_sum(field, x_inside, [(off.tolist(), 1.0)], cost, box, buf)
        out[i] = 0.0 if total is None else total
    out[half:] = out[: n - half][::-1]
    return out


def _is_indicator(field: SampledField) -> bool:
    """A {0, 1} field: one component, every grid value 0.0 or 1.0.

    Read in blocks of ``_BLOCK_CELLS`` values, so its boolean temporaries
    stay block-sized, and it stops at the first block that fails.
    """
    if field.d != 1:
        return False
    v = field.values.reshape(-1)
    for start in range(0, v.size, _BLOCK_CELLS):
        block = v[start : start + _BLOCK_CELLS]
        if not ((block == 0.0) | (block == 1.0)).all():
            return False
    return True


def _check_kappa_h(eps_len: float, h: float, kappa: float):
    """The one kappa*h guard: radii, shifts, cube sides, mollifier scales."""
    if eps_len < kappa * h:
        raise RegimeError(
            f"eps = {eps_len:g} is below kappa*h = {kappa * h:g}; "
            "the discretization regime h << eps is not met"
        )


def _check_regime(eps_len: float, h: float, kappa: float, diameter: float):
    """The kappa*h guard, then the diameter half that pairs and shifts need."""
    _check_kappa_h(eps_len, h, kappa)
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
    return bbm_ladder(u, q, [eps], x_mask, kappa=kappa)[0]


def bbm_ladder(
    u: SampledField,
    q: float,
    eps_list,
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> list[float]:
    """``bbm_value`` at every eps of the list, from one pair-sum pass.

    Every rung is validated first.  The pair sums are then computed once, at
    the largest rung, and each rung reduces the offsets with |v|^2 <= its
    own m2: its own ``lattice_offsets`` list with the same per-offset terms,
    so, ``math.fsum`` being correctly rounded, each value is the rung's
    single-scale value bit for bit.  The list may come in any order.
    """
    rungs = [_bbm_rung(u, q, eps, kappa) for eps in eps_list]
    if not rungs:
        raise ValueError("need at least one eps")
    offs, r2 = lattice_offsets(u.grid.dim, max(m2 for m2, _ in rungs))
    terms = pair_power_sums(u, offs, q, x_mask) / (u.grid.spacing * np.sqrt(r2))
    return [_bbm_total(u, terms[r2 <= m2], eps_len) for m2, eps_len in rungs]


def _bbm_rung(u: SampledField, q: float, eps, kappa: float) -> tuple[int, float]:
    """Validate q and the regime of one eps; return its (m2, length)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    h = u.grid.spacing
    m2max, eps_len = resolve_radius(eps, h)
    _check_regime(eps_len, h, kappa, u.grid.diameter)
    return m2max, eps_len


def _bbm_total(u: SampledField, terms: np.ndarray, eps_len: float) -> float:
    n = u.grid.dim
    return math.fsum(terms) * u.grid.spacing ** (2 * n) / eps_len**n


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


def sweep_functional(eps_lengths, values, fit_model: str = "linear-in-eps") -> EpsSweep:
    """Extrapolate a functional's values along a checked eps ladder.

    ``eps_lengths`` is strictly decreasing, ``fit_model`` one of
    ``FIT_MODELS``, and ``linear-in-eps`` has at least three fit points;
    ``bbm_sweep`` checks all three before any value is computed.  The fit
    uses the ``defaults.FIT_POINTS`` smallest scales.
    """
    vals = np.array(values, dtype=float)
    e = np.asarray(eps_lengths)[-defaults.FIT_POINTS:]
    v = vals[-defaults.FIT_POINTS:]
    if fit_model == "constant":
        limit = float(v.mean())
        resid = float(np.sqrt(np.mean((v - limit) ** 2)))
    else:
        coef = np.polyfit(e, v, 1)
        limit = float(coef[1])
        resid = float(np.sqrt(np.mean((np.polyval(coef, e) - v) ** 2)))
    diffs = np.diff(vals)
    span = max(abs(vals).max(), 1e-300)
    monotone = bool((diffs <= 0.01 * span).all() or (diffs >= -0.01 * span).all())
    return EpsSweep(
        eps=tuple(eps_lengths),
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
    """bbm_value along a decreasing eps ladder plus an extrapolated limit.

    The ladder order and the fit model are checked first; the values then
    come from one ``bbm_ladder`` pass, which checks every rung's regime, so
    each equals ``bbm_value(u, q, eps, x_mask)`` bit for bit.
    """
    eps_list = list(eps_list)
    eps_lengths = [resolve_radius(e, u.grid.spacing)[1] for e in eps_list]
    if any(b >= a for a, b in zip(eps_lengths, eps_lengths[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if fit_model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {fit_model!r}")
    if fit_model == "linear-in-eps" and min(defaults.FIT_POINTS, len(eps_lengths)) < 3:
        raise ValueError("linear-in-eps extrapolation needs >= 3 eps values")
    values = bbm_ladder(u, q, eps_list, x_mask, kappa=kappa)
    return sweep_functional(eps_lengths, values, fit_model)


# --------------------------------------------------------------------------
# Directional (single-shift) functionals.
# --------------------------------------------------------------------------


def _shift_stencil(t: list[float]) -> list[tuple[list[int], float]]:
    """Corners (v_c, w_c) with u(x + t*h) = sum_c w_c u(x + v_c).

    A shift within 1e-9 of a lattice vector is one exact corner; any other is
    multilinear interpolation, with the corners in ``np.ndindex`` order and
    each weight the product, in axis order, of frac or 1 - frac per
    fractional axis.  On Python floats: ``round`` rounds half to even as
    ``np.rint`` does, so every value is the one numpy arrays would give.
    """
    nearest = [round(ta) for ta in t]
    if max(abs(ta - r) for ta, r in zip(t, nearest)) < 1e-9:
        return [(nearest, 1.0)]
    legs = []
    for ta in t:
        b = math.floor(ta)
        f = ta - b
        legs.append(((b, 1.0 - f), (b + 1, f)) if f > 0 else ((b, 1.0),))
    stencil = []
    for corner in np.ndindex(*[len(leg) for leg in legs]):
        v, w = [], 1.0
        for leg, c in zip(legs, corner):
            v.append(leg[c][0])
            w *= leg[c][1]
        stencil.append((v, w))
    return stencil


def _directional_sum(u, eps_len, k, x_mask, cost) -> float:
    """(1/eps) * h^N * sum_x cost(|u(x + eps k) - u(x)|^2) over valid x.

    A sample is dropped as soon as one stencil corner leaves the mask.
    """
    h = u.grid.spacing
    stencil = _shift_stencil([eps_len * kk / h for kk in k])
    total = _window_sum(u, _x_inside(u, x_mask), stencil, cost)
    if total is None:
        raise RegimeError("shift leaves the grid entirely")
    return total * h**u.grid.dim / eps_len


def _check_shift(u: SampledField, eps, k, kappa: float) -> tuple[list[float], float]:
    """Validate a shift eps along the direction k; return (k, eps length),
    k as a list of floats.

    k must have the grid's dimension and unit length (tolerance 1e-12), and
    eps must pass the kappa*h and diameter guards.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.size != u.grid.dim:
        raise ValueError("direction dimension mismatch")
    if not abs(np.linalg.norm(k) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("direction must have unit length")
    _, eps_len = resolve_radius(eps, u.grid.spacing)
    _check_regime(eps_len, u.grid.spacing, kappa, u.grid.diameter)
    return k.tolist(), eps_len


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

    Off the lattice the multilinear stencil smears a jump over a cell: on a
    512^2 ball of radius 0.3, q = 2 reads the limit 1.2 within 0.1% at 8h
    along e1 and 10h along (0.6, -0.8), but 4-5% low at 8h along
    (1, 1)/sqrt 2 and (0.6, -0.8).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    k, eps_len = _check_shift(u, eps, k, kappa)
    return _directional_sum(u, eps_len, k, x_mask, partial(_power_in_place, q=q))


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
    *,
    kappa: float = defaults.KAPPA,
) -> float:
    """Max of ``directional_value`` over the deterministic direction set.

    A lower bound for the true supremum over the unit sphere; callers treat
    it as such.
    """
    if n_directions is not None and n_directions < 1:
        raise ValueError("n_directions must be at least 1")
    count = defaults.direction_count(u.grid.dim) if n_directions is None else n_directions
    if count < 2 * u.grid.dim and u.grid.dim > 1:
        raise ValueError("need at least the 2*dim axis directions")
    best = 0.0
    for k in direction_set(u.grid.dim, count):
        best = max(best, directional_value(u, q, eps, k, kappa=kappa))
    return best


def besov_seminorm_pow(
    u: SampledField,
    q: float,
    rhos,
    n_directions: int | None = None,
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
    return max(directional_sup(u, q, r, n_directions, kappa=kappa) for r in rhos)


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
    return _gagliardo_pass(u, q)[0]


def _gagliardo_pass(u: SampledField, q: float):
    """(value, pair sums, |v|^2, h|v|) over every offset v up to the diameter."""
    g = u.grid
    m2max = sum((e - 1) ** 2 for e in g.extents)
    offs, r2 = lattice_offsets(g.dim, m2max)
    sums = pair_power_sums(u, offs, q)
    dist = g.spacing * np.sqrt(r2)
    return math.fsum(sums / dist ** (g.dim + 1)) * g.spacing ** (2 * g.dim), sums, r2, dist


def gagliardo_dominates_bbm(
    u: SampledField,
    q: float,
    eps_list,
    *,
    kappa: float = defaults.KAPPA,
) -> list[tuple[float, float, bool]]:
    """(bbm value, gagliardo value, bbm <= gagliardo) for every eps in the list.

    One ``pair_power_sums`` pass up to the grid diameter serves every rung:
    the gagliardo value reduces all of it, and each bbm value reduces the
    offsets with |v| <= eps, which equals ``bbm_value(u, q, eps)`` bit for
    bit.  Every rung is validated before the pass runs.

    The domination holds term by term: for |v| <= eps the bbm kernel weight
    1/(eps^N |v|) never exceeds 1/|v|^{N+1}, and the gagliardo sum contains
    every bbm pair plus the tail |v| > eps.  The verdict is decided that way
    too, not by comparing the two totals, which are rounded differently and
    can swap order by an ulp where they are equal in exact arithmetic: it is
    the sign of the ``fsum`` of sums_v * (weight difference) over the rung
    plus the tail.  Both weights come from the same operations on |v| and
    eps, so each difference is >= 0 whenever |v| <= eps in floating point.
    """
    rungs = [_bbm_rung(u, q, eps, kappa) for eps in eps_list]
    n = u.grid.dim
    gag, sums, r2, dist = _gagliardo_pass(u, q)
    terms = sums / dist
    w_gag = 1.0 / (_int_power(dist, n) * dist)
    out = []
    for m2eps, eps_len in rungs:
        near = r2 <= m2eps
        bbm = _bbm_total(u, terms[near], eps_len)
        w_bbm = np.where(near, 1.0 / (_int_power(eps_len, n) * dist), 0.0)
        out.append((bbm, gag, math.fsum(sums * (w_gag - w_bbm)) >= 0.0))
    return out


def _int_power(x, n: int):
    """x**n by repeated multiplication: monotone in x >= 0, scalar or array."""
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


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
    Both offsets must have the grid's dimension.
    """
    if any(np.size(o) != u.grid.dim for o in (off1, off2)):
        raise ValueError("splitting offsets must have the grid dimension")
    off1 = np.asarray(off1, dtype=int).tolist()
    off = (np.asarray(off2, dtype=int) + off1).tolist()
    sx, ys = _offset_slices(u.grid.extents, [off1, off])
    if sx is None:
        raise RegimeError("splitting offsets leave the grid entirely")
    s_mid, sy = ys
    u0 = u.values[sx]
    u1 = u.values[s_mid]
    u2 = u.values[sy]
    inside = u.mask.inside
    valid = inside[sx] & inside[s_mid] & inside[sy]
    x_inside = _x_inside(u, x_mask)
    if x_inside is not None:
        valid = valid & x_inside[sx]
    a = u2 - u1
    b = u1 - u0
    ssa = np.einsum("...k,...k->...", a, a)
    ssb = np.einsum("...k,...k->...", b, b)
    c = u2 - u0
    ssc = np.einsum("...k,...k->...", c, c)
    equal_legs = ssa == ssb  # before the powers overwrite the legs
    lhs = _power_in_place(ssc, q)
    rhs = 2.0 ** (q - 1.0) * (_power_in_place(ssa, q) + _power_in_place(ssb, q))
    ok = (lhs <= rhs) | equal_legs
    return bool(ok[valid].all())
