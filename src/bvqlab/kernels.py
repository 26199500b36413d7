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
in floating point.  The window of v holds every term of -v too, as
t_{-v}(x) = t_v(x - v) bit for bit: without an x mask the sum for -v repeats
the sum for v, and under an x mask A it gathers the y with y + v in A.  So
only half of a symmetric offset list is computed, masked or not.

An eps ladder is one pass.  ``_pair_table`` is the one place a pass starts;
``bbm_ladder`` (behind ``bbm_value`` and ``bbm_sweep``),
``gagliardo_dominates_bbm`` and ``jumps.verify_two_sided`` reduce its table.
A ladder's table is built at its largest radius; each rung sums the subset
|v|^2 <= m2 (``_bbm_totals``), the floats of its own pass, with the
correctly rounded ``fsum``, so it reads its ``bbm_value`` bit for bit.

A pass serves a list of (q, x mask) requests on one field (``bbm_ladders``
and ``bbm_sweeps``; ``bbm_ladder`` and ``bbm_sweep`` are the one-request
case): per offset, one region is differenced and squared, each distinct q
is applied once, and each request gathers its terms.

Every sum of shifted differences has one path.  ``_offset_slices`` is the
only code that computes window bounds: the x window where every x + v of a
list of integer offsets stays on the grid, and one y window per offset.
``_window_sum`` sums cost(|u(x + v) - u(x)|^2) over the valid x of one
integer offset v.  A pair sum is one such window; a directional shift
(``directional_value`` and ``jumps.directional_w_limit``, which share one
direction and regime check) is the window of the lattice vector nearest
eps k / h, normalised by |v| h.

A window's arithmetic allocates nothing: a pass allocates one flat buffer
for its largest region (a directional shift, one for its window), and
``_window_sum`` writes every step into it with ``out=`` in the order of the
plain expressions (the subtraction, ``einsum`` or, at d = 1, one
multiplication, then the cost with the ufunc ``ss ** (q/2)`` picks), so
every value is theirs bit for bit.  Only a window summed whole, with no x
mask on an all-inside field, skips the boolean gather; any other gathers
its valid terms in C order, the floats of its own cropped window.

``_power_in_place`` is the one cost power |d|^q, for pair sums, shifts,
W costs and the q-variation.  ``_check_kappa_h`` is the
one kappa*h guard: ``_check_regime`` adds the diameter half for pairs and
shifts, and cube sides and ``aviles.mollify`` call it alone.

A {0, 1} field skips the windows altogether: each term is exactly 0 or 1, so
its pair sums are integer counts, and ``_indicator_pair_counts`` (in
``bvqlab._correlation``) returns them all, bit for bit, as
S(v) = (N(v) - C(v)) / 2: C one rounded FFT correlation of the signed cells
2u - 1, N the number of pairs the masks admit (in closed form for boxes).
Its spectra are built in column blocks of about sqrt(S * ``grid._BLOCK_CELLS``)
of a half spectrum's S complex values (half that once a spectrum takes three
such blocks), and an autocorrelation, being even, keeps only the lags
v_0 >= 0, so a pass holds O(block + lag table) memory, not a padded grid.
So every pair sum here, and every check built on them, is the pair-by-pair
window sum bit for bit; none carries a tolerance.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import defaults
from ._correlation import _indicator_pair_counts
from .errors import RegimeError
from .grid import _BLOCK_CELLS, DomainMask, SampledField, _bounding_box, _squared_cells


class GridRadius:
    """A pair-search radius whose square is an exact integer multiple of h^2.

    ``GridRadius(m2)`` stands for the radius h*sqrt(m2).  Constructing radii
    this way keeps the inclusion test |y - x| <= radius exact: it compares
    integer squared offsets, never floating-point lengths.
    """

    def __init__(self, m2: int):
        self.m2 = m2
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


def _buffer_floats(shape, costs: int = 1) -> int:
    """Floats ``_window_sum`` writes for a region x d block of ``shape`` under
    ``costs`` distinct costs: the differences, then one more region when
    d >= 2 (the squared norms) or ``costs`` > 1 (their copy)."""
    n = math.prod(shape)
    return n + (n // shape[-1] if shape[-1] > 1 or costs > 1 else 0)


def _window_sum(field: SampledField, off, requests, box=None, buf=None, mirror=False):
    """Per (cost, x_inside) request, the tuple of the sum over valid x of
    cost(|u(x + v) - u(x)|^2) for one integer offset v and, with ``mirror``,
    the sum at -v.

    x is valid when it lies in ``x_inside`` (the field mask when ``None``)
    and x + v inside the field mask; the -v sum takes t_v(y) over the y with
    y + v in ``x_inside`` and y inside the mask.  ``box``, per-axis [lo, hi)
    holding every ``x_inside`` (``None``: no crop), crops the x window to
    box and, with ``mirror``, box - v; ``None`` when that region is empty.
    Every step writes into ``buf``, of ``_buffer_floats`` floats for the
    region (fresh when ``None``).  Each distinct cost runs once, on a copy of
    the squared norms for all but the last, and may overwrite its argument.
    """
    if box is not None and mirror:
        box = [(min(lo, lo - o), max(hi, hi - o)) for (lo, hi), o in zip(box, off)]
    sx, ys = _offset_slices(field.grid.extents, [off], box)
    if sx is None:
        return None
    sy = ys[0]
    values, inside, whole = field.values, field.mask.inside, field.mask.all_inside
    costs = list(dict.fromkeys(cost for cost, _ in requests))
    ux = values[sx]
    if buf is None:
        buf = np.empty(_buffer_floats(ux.shape, len(costs)))
    n = ux.size
    m = n // field.d
    dv = buf[:n].reshape(ux.shape)
    np.subtract(values[sy], ux, out=dv)
    if field.d == 1:
        t = dv[..., 0]
        np.multiply(t, t, out=t)
        spare = buf[n : n + m]
    else:
        t = np.einsum("...k,...k->...", dv, dv, out=buf[n : n + m].reshape(ux.shape[:-1]))
        spare = buf[:m]
    sums = [None] * len(requests)
    for cost in costs:
        c = t
        if cost is not costs[-1]:
            c = spare.reshape(t.shape)
            np.copyto(c, t)
        c = cost(c)
        for i, (rc, x_in) in enumerate(requests):
            if rc is not cost:
                continue
            if x_in is None:
                total = float(c.sum() if whole else c[inside[sx] & inside[sy]].sum())
                sums[i] = (total, total)[: 1 + mirror]
            else:
                sides = ((sx, sy), (sy, sx))[: 1 + mirror]
                sums[i] = tuple(float(c[x_in[a] if whole else x_in[a] & inside[b]].sum()) for a, b in sides)
    return sums


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

    Each sum is the ``_window_sum`` of v over x with x and x+v inside
    (x in ``x_mask`` when given); a displacement with no such x sums to 0.

    When the offset list is symmetric (``offsets[::-1] == -offsets``, true
    for every ``lattice_offsets`` result) only its first half is windowed:
    the window of v also gives the sum at -v, bit for bit.  With ``x_mask``
    every region is cropped to the bounding box of ``x_mask.inside`` and its
    shift by -v; ``t[valid]`` gathers the same elements in the same C order
    as the uncropped window, so only samples the mask would discard are no
    longer computed.

    A {0, 1} field (``_is_indicator``) skips the windows: its sums are the
    exact pair counts of ``_indicator_pair_counts``, which equal the window
    sums bit for bit at every q.  A sum that overflows is a ``ValueError``.
    """
    return _pair_sums(field, offsets, [(q, x_mask)])[0]


def _pair_sums(field: SampledField, offsets: np.ndarray, requests) -> list[np.ndarray]:
    """``pair_power_sums`` of every (q, x_mask) request, from one pass: one
    ``_window_sum`` per offset of the computed half serves them all."""
    insides = [_x_inside(field, x_mask) for _, x_mask in requests]
    if _is_indicator(field):
        return [_indicator_pair_counts(field, offsets, x_in) for x_in in insides]
    n = len(offsets)
    half = (n + 1) // 2 if np.array_equal(offsets[::-1], -offsets) else n
    mirror = half < n
    costs = {q: partial(_power_in_place, q=q) for q, _ in requests}
    reqs = [(costs[q], x_in) for (q, _), x_in in zip(requests, insides)]
    # one box holds every x mask, and one buffer every region: the box,
    # widened by the longest offset per axis when mirroring (no box: the grid)
    box, extents = None, field.grid.extents
    if all(x_in is not None for x_in in insides):
        box = [(min(lo for lo, _ in ax), max(hi for _, hi in ax)) for ax in zip(*map(_bounding_box, insides))]
        reach = np.abs(offsets).max(axis=0, initial=0) * mirror
        extents = [min(e, hi - lo + int(r)) for e, (lo, hi), r in zip(extents, box, reach)]
    buf = np.empty(_buffer_floats([*extents, field.d], len(costs)))
    out = np.zeros((len(reqs), n))
    with np.errstate(over="ignore"):
        for i, off in enumerate(offsets[:half]):
            for row, sums in zip(out, _window_sum(field, off.tolist(), reqs, box, buf, mirror) or ()):
                row[i] = sums[0]
                if mirror:
                    row[n - 1 - i] = sums[1]
    if not np.isfinite(out).all():
        raise ValueError("a pair sum overflows float64")
    return list(out)


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
    """``bbm_value`` at every eps of the list, from one pair-sum pass: the
    one-request case of ``bbm_ladders``."""
    return bbm_ladders(u, [(q, x_mask)], eps_list, kappa=kappa)[0]


def bbm_ladders(u: SampledField, requests, eps_list, *, kappa: float = defaults.KAPPA) -> list[list[float]]:
    """``bbm_ladder`` of each (q, x_mask) request, from one pair-sum pass.

    Every rung is validated first, for every q.  One ``_pair_table`` at the
    largest rung then serves every rung, each reducing the offsets with
    |v|^2 <= its own m2, so each value is the rung's single-scale value bit
    for bit.  The list may come in any order.
    """
    rungs = [_bbm_rung(u, min(q for q, _ in requests), eps, kappa) for eps in eps_list]
    if not rungs:
        raise ValueError("need at least one eps")
    r2, dist, tables = _pair_table(u, requests, max(m2 for m2, _ in rungs))
    with np.errstate(over="ignore"):
        return [_bbm_totals(u, sums / dist, r2, rungs) for sums in tables]


def _pair_table(u: SampledField, requests, m2max: int):
    """(|v|^2, |v| h, [pair sums per (q, x_mask) request]) over
    ``lattice_offsets(dim, m2max)``: one request runs through the public
    ``pair_power_sums``, several through ``_pair_sums``."""
    offs, r2 = lattice_offsets(u.grid.dim, m2max)
    if len(requests) == 1:
        tables = [pair_power_sums(u, offs, *requests[0])]
    else:
        tables = _pair_sums(u, offs, requests)
    return r2, u.grid.spacing * np.sqrt(r2), tables


def _bbm_rung(u: SampledField, q: float, eps, kappa: float) -> tuple[int, float]:
    """Validate q and the regime of one eps; return its (m2, length)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    h = u.grid.spacing
    m2max, eps_len = resolve_radius(eps, h)
    _check_regime(eps_len, h, kappa, u.grid.diameter)
    return m2max, eps_len


def _bbm_totals(u: SampledField, terms: np.ndarray, r2: np.ndarray, rungs) -> list[float]:
    """Each (m2, eps length) rung's bbm value from the terms sums / (|v| h)."""
    n = u.grid.dim
    return [_fsum(terms[r2 <= m2]) * u.grid.spacing ** (2 * n) / eps_len**n for m2, eps_len in rungs]


def _fsum(terms) -> float:
    """``math.fsum``; a sum that overflows is a ``ValueError``."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("a kernel sum overflows float64")
    return total


class EpsSweep:
    """A scale sweep of a functional with its extrapolated limit.

    ``eps`` is strictly decreasing.  The raw values are always kept; the
    fitted limit never replaces them.  ``monotone`` flags whether the sweep
    was monotone within a 1% band (a non-monotone sweep is reported, not
    suppressed: the underlying limit is a limsup).
    """

    def __init__(
        self,
        eps: tuple[float, ...],
        values: tuple[float, ...],
        limit: float,
        fit_model: str,
        monotone: bool,
    ):
        self.eps = eps
        self.values = values
        self.limit = limit
        self.fit_model = fit_model
        self.monotone = monotone
        if any(b >= a for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("eps values must be strictly decreasing")
        if any(v < -1e-300 for v in self.values):
            raise ValueError("functional values must be nonnegative")


FIT_MODELS = ("constant", "linear-in-eps")


def _check_sweep_ladder(eps_list, h: float, fit_model: str) -> list[float]:
    """The eps lengths of a sweep's ladder, after the checks that need no field.

    The ladder must be non-empty and strictly decreasing, ``fit_model`` one of
    ``FIT_MODELS``, and ``linear-in-eps`` needs at least three fit points.
    """
    eps_lengths = [resolve_radius(e, h)[1] for e in eps_list]
    if not eps_lengths:
        raise ValueError("need at least one eps")
    if any(b >= a for a, b in zip(eps_lengths, eps_lengths[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    if fit_model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {fit_model!r}")
    if fit_model == "linear-in-eps" and min(defaults.FIT_POINTS, len(eps_lengths)) < 3:
        raise ValueError("linear-in-eps extrapolation needs >= 3 eps values")
    return eps_lengths


def sweep_functional(eps_lengths, values, fit_model: str = "linear-in-eps") -> EpsSweep:
    """Extrapolate a functional's values along a checked eps ladder.

    ``eps_lengths`` is strictly decreasing, ``fit_model`` one of
    ``FIT_MODELS``, and ``linear-in-eps`` has at least three fit points;
    ``_check_sweep_ladder`` checks all three, and ``bbm_sweep`` calls it before
    any value is computed.  The fit uses the ``defaults.FIT_POINTS`` smallest
    scales.  ``linear-in-eps`` is the least-squares line through them in
    closed form about the mean scale: every sum is a ``math.fsum``, and the
    limit is the line's value at eps = 0.
    """
    vals = np.array(values, dtype=float)
    e = np.asarray(eps_lengths)[-defaults.FIT_POINTS:]
    v = vals[-defaults.FIT_POINTS:]
    if fit_model == "constant":
        limit = float(v.mean())
    else:
        e, v = e.tolist(), v.tolist()
        e_mean, v_mean = math.fsum(e) / len(e), math.fsum(v) / len(v)
        de = [x - e_mean for x in e]
        slope = math.fsum(d * (y - v_mean) for d, y in zip(de, v)) / math.fsum(d * d for d in de)
        limit = v_mean - slope * e_mean
    diffs = np.diff(vals)
    span = max(abs(vals).max(), 1e-300)
    monotone = bool((diffs <= 0.01 * span).all() or (diffs >= -0.01 * span).all())
    return EpsSweep(
        eps=tuple(eps_lengths),
        values=tuple(float(v) for v in vals),
        limit=float(limit),
        fit_model=fit_model,
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
    """bbm_value along a decreasing eps ladder plus an extrapolated limit:
    the one-request case of ``bbm_sweeps``."""
    return bbm_sweeps(u, [(q, x_mask)], eps_list, fit_model, kappa=kappa)[0]


def bbm_sweeps(
    u: SampledField, requests, eps_list, fit_model: str = "linear-in-eps", *, kappa: float = defaults.KAPPA
) -> list[EpsSweep]:
    """``bbm_sweep`` of each (q, x_mask) request.

    The ladder order and the fit model are checked first; the values then
    come from one ``bbm_ladders`` pass, which checks every rung's regime, so
    each equals ``bbm_value(u, q, eps, x_mask)`` bit for bit.
    """
    eps_list = list(eps_list)
    eps_lengths = _check_sweep_ladder(eps_list, u.grid.spacing, fit_model)
    ladders = bbm_ladders(u, requests, eps_list, kappa=kappa)
    return [sweep_functional(eps_lengths, values, fit_model) for values in ladders]


# --------------------------------------------------------------------------
# Directional (single-shift) functionals.
# --------------------------------------------------------------------------


def _directional_sum(u, eps_len, k, x_mask, cost) -> float:
    """h^N * sum_x cost(|u(x + v h) - u(x)|^2) / (|v| h) over valid x.

    v is the lattice vector nearest eps k / h, rounded per axis half to even
    (Python's ``round``, as ``np.rint``), so it lies within sqrt(N)/2 cells
    of the shift and the value is the exact quotient at v h.
    """
    h = u.grid.spacing
    v = [round(eps_len * kk / h) for kk in k]
    r2 = sum(c * c for c in v)
    if r2 == 0:
        raise RegimeError(f"shift eps = {eps_len:g} rounds to the zero lattice vector")
    with np.errstate(over="ignore"):
        sums = _window_sum(u, v, [(cost, _x_inside(u, x_mask))])
    if sums is None:
        raise RegimeError("shift leaves the grid entirely")
    if not math.isfinite(sums[0][0]):
        raise ValueError("a shift sum overflows float64")
    return sums[0][0] * h**u.grid.dim / (math.sqrt(r2) * h)


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
    """h^N * sum_x |u(x + v h) - u(x)|^q / (|v| h) over valid samples x.

    The evaluated shift is v h, v the lattice vector nearest eps k / h
    (rounded per axis, half to even), within sqrt(N)/2 cells of eps k; on
    the lattice v h = eps k.  ``k`` must be a unit vector (tolerance 1e-12).
    Samples whose shifted point leaves the mask are dropped, matching the
    convention that both endpoints live in Omega.  The value is the pair sum
    of ``pair_power_sums`` at v times h^N / (|v| h), bit for bit.  A shift
    that rounds to the zero vector (eps under sqrt(N)/2 cells, possible only
    for a float eps with a small ``kappa``) is a ``RegimeError``.

    On a 512^2 ball of radius 0.3, q = 2 reads the limit 1.2 within 0.21%
    at 8-32 cells along e1, (1, 1)/sqrt 2, (0.6, -0.8) and (cos 1, sin 1).
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

    Each direction is evaluated at the lattice vector v nearest eps k / h and
    normalised by |v| h.  The max is a lower bound for the true supremum
    over all shifts; callers treat it as such.
    """
    count = defaults.direction_count(u.grid.dim) if n_directions is None else n_directions
    if count < 2 * u.grid.dim:
        raise ValueError(f"n_directions must be at least 2*dim = {2 * u.grid.dim}, got {count}")
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

    Takes the max over the given radii of ``directional_sup``: each value is
    the exact quotient ||u(. + v h) - u||_q^q / (|v| h) at the lattice vector
    v nearest rho k / h, so every value is attained by a shift of length
    |v| h, within sqrt(N)/2 cells of rho.  Reported as a lower bound (finite
    direction set).
    """
    rhos = list(rhos)
    if not rhos:
        raise ValueError("need at least one radius")
    return max(directional_sup(u, q, r, n_directions, kappa=kappa) for r in rhos)


def gagliardo_dominates_bbm(
    u: SampledField,
    q: float,
    eps_list,
    *,
    kappa: float = defaults.KAPPA,
) -> list[tuple[float, float, bool]]:
    """(bbm value, gagliardo value, bbm <= gagliardo) for every eps in the list.

    One ``_pair_table`` pass up to the grid diameter serves every rung:
    the gagliardo value reduces all of it, and each bbm value reduces the
    offsets with |v| <= eps, which equals ``bbm_value(u, q, eps)`` bit for
    bit.  Every rung is validated, and an empty list refused, before the pass.

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
    if not rungs:
        raise ValueError("need at least one eps")
    n = u.grid.dim
    r2, dist, (sums,) = _pair_table(u, [(q, None)], sum((e - 1) ** 2 for e in u.grid.extents))
    with np.errstate(over="ignore"):
        gag = _fsum(sums / dist ** (n + 1)) * u.grid.spacing ** (2 * n)
        w_gag = 1.0 / (_int_power(dist, n) * dist)
        out = []
        for bbm, (m2eps, eps_len) in zip(_bbm_totals(u, sums / dist, r2, rungs), rungs):
            w_bbm = np.where(r2 <= m2eps, 1.0 / (_int_power(eps_len, n) * dist), 0.0)
            out.append((bbm, gag, _fsum(sums * (w_gag - w_bbm)) >= 0.0))
    return out


def _int_power(x, n: int):
    """x**n by repeated multiplication: monotone in x >= 0, scalar or array."""
    out = x
    for _ in range(n - 1):
        out = out * x
    return out
