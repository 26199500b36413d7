"""Analytic jump energies, dimensional constants, and identity checks.

The right-hand sides here are exact: surface measures come from the jump
descriptions in the field catalog, and the dimensional constant is a
Gauss-Legendre sphere quadrature (``_special.gauss_jacobi``) cross-checked
against its Gamma-function closed form.  The left
sides are kernel measurements from :mod:`bvqlab.kernels`; comparison reports
tie the two together.

The closed forms need Gamma only at half-integers n/2 with n <= 5, which
``_special.half_gamma`` builds by recurrence, bit for bit what
``scipy.special.gamma`` gives; no scipy is imported.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import defaults
from ._special import gauss_jacobi, half_gamma
from .fields import AnalyticField, JumpSpec, sample_analytic, warn_if_jump_free
from .grid import DomainMask, SampledField
from .kernels import (
    _bbm_rung,
    _check_shift,
    _directional_sum,
    _pair_table,
    _power_in_place,
    bbm_sweep,
    pair_power_sums,  # unused here; bench/tests/test_bench.py pins jumps.pair_power_sums
)
from .reports import ComparisonReport, equal_within


def unit_ball_volume(dim: int) -> float:
    return float(math.pi ** (dim / 2.0) / half_gamma(dim + 2))


def dimensional_constant_closed_form(dim: int) -> float:
    """(2/N) * pi^((N-1)/2) / Gamma((N+1)/2)."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    return float(2.0 / dim * math.pi ** ((dim - 1) / 2.0) / half_gamma(dim + 1))


@lru_cache(maxsize=8)
def dimensional_constant(dim: int) -> float:
    """(1/N) * integral of |z_1| over the unit sphere, by quadrature.

    Split at the kinks of |z_1| so each panel is smooth; the result must
    agree with the closed form to 1e-10 or construction fails.
    """
    closed = dimensional_constant_closed_form(dim)  # refuses dim outside 1, 2, 3
    if dim == 1:
        val = 2.0  # S^0 = {-1, +1}, |z_1| = 1 at both points
    else:
        t, w = gauss_jacobi(64, 0.0, 0.0)  # Gauss-Legendre
        if dim == 2:
            # (1/2) * 4 * int_0^{pi/2} cos(theta) dtheta
            theta = 0.25 * math.pi * (t + 1.0)
            val = 0.5 * 4.0 * float(w @ np.cos(theta)) * 0.25 * math.pi
        else:
            # (1/3) * 2*pi * 2 * int_0^{pi/2} cos(phi) sin(phi) dphi
            phi = 0.25 * math.pi * (t + 1.0)
            integrand = np.cos(phi) * np.sin(phi)
            val = (1.0 / 3.0) * 2.0 * math.pi * 2.0 * float(w @ integrand) * 0.25 * math.pi
    if abs(val - closed) > 1e-10:
        raise AssertionError(
            f"sphere quadrature {val!r} disagrees with closed form {closed!r}"
        )
    return val


def jump_energy_rhs(jump: JumpSpec | None, q: float, dim: int) -> float:
    """C_N * sum over pieces of |u+ - u-|^q * measure."""
    if warn_if_jump_free(jump):
        return 0.0
    cn = dimensional_constant(dim)
    return cn * math.fsum(p.amplitude() ** q * p.measure for p in jump.pieces)


def verify_jump_formula(
    spec: AnalyticField,
    mask: DomainMask,
    q: float,
    eps_list,
    fit_model: str = "constant",
    tolerance: float = defaults.TOLERANCE,
    *,
    kappa: float = defaults.KAPPA,
) -> ComparisonReport:
    """Extrapolated kernel sweep against the analytic jump energy (q > 1).

    The sweep is ``bbm_sweep(u, q, eps_list, fit_model)`` of the sampled
    field, bit for bit at every q, and its fitted limit is compared with
    the right-hand side at ``tolerance``.  An eikonal kind is refused: its
    jump description is that of its gradient, while the Lipschitz field
    itself has limit 0.
    """
    if spec.eikonal:
        raise ValueError(
            f"jump-verify does not apply to {spec.kind}: its jump description is "
            "that of its gradient; check it with ag-chain"
        )
    if not q > 1:
        raise ValueError("the jump-energy identity needs q > 1")
    return _sweep_against(
        spec, mask, q, eps_list, fit_model, tolerance, kappa,
        lambda: jump_energy_rhs(spec.jump_spec(mask.grid), q, mask.grid.dim),
        f"jump-energy identity (q={q:g}, kind={spec.kind})",
        with_monotone=True,
    )


def verify_q1_full_bv(
    spec: AnalyticField,
    mask: DomainMask,
    eps_list,
    fit_model: str = "linear-in-eps",
    tolerance: float = defaults.TOLERANCE,
    *,
    kappa: float = defaults.KAPPA,
) -> ComparisonReport:
    """At q = 1 the kernel sweep sees the full gradient mass: limit should be
    C_N * integral of |grad u| for a smooth catalog field."""
    mass = spec.total_gradient_mass(mask.grid)
    if mass is None:
        raise ValueError(
            f"field kind {spec.kind!r} has no analytic gradient mass; "
            "pick a smooth catalog entry"
        )
    return _sweep_against(
        spec, mask, 1.0, eps_list, fit_model, tolerance, kappa,
        lambda: dimensional_constant(mask.grid.dim) * mass,
        f"q=1 full-gradient recovery (kind={spec.kind})",
    )


def _sweep_against(
    spec, mask, q, eps_list, fit_model, tolerance, kappa, rhs, provenance, with_monotone=False
) -> ComparisonReport:
    """The fitted limit of the sampled field's sweep against ``rhs()``, which
    runs once the field has sampled (and its dimension matched) and swept."""
    u = sample_analytic(spec, mask)
    sweep = bbm_sweep(u, q, eps_list, fit_model, kappa=kappa)
    return equal_within(
        sweep.limit,
        rhs(),
        tolerance,
        provenance,
        sweep_eps=list(sweep.eps),
        sweep_values=list(sweep.values),
        fit_model=sweep.fit_model,
        **({"monotone": sweep.monotone} if with_monotone else {}),
    )


# --------------------------------------------------------------------------
# Directional limits for general pair costs W.
# --------------------------------------------------------------------------


class PowerPairCost:
    """W(a, b) = |a - b|^q; continuously differentiable on the diagonal for
    q >= 2, which is what the directional-limit statement assumes."""

    def __init__(self, q: float):
        self.q = q
        if self.q < 2:
            raise ValueError("power pair cost requires q >= 2 for a C^1 W")

    def from_sq(self, ss: np.ndarray) -> np.ndarray:
        """W from squared differences ss = |a - b|^2; may overwrite ss."""
        return _power_in_place(ss, self.q)


def directional_w_limit(
    u: SampledField,
    w_cost,
    k,
    t,
    x_mask: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> float:
    """h^N * sum_x W(u(x + v h), u(x)) / (|v| h) over valid samples.

    v is the lattice vector nearest t k / h, rounded per axis, so the shift
    is within sqrt(N)/2 cells of t k, and the value is the exact quotient at
    v h.  ``k`` and ``t`` pass the checks of ``directional_value``: a unit
    vector of the grid's dimension, and the kappa*h and diameter guards.
    With ``w_cost = PowerPairCost(q)`` this is bit-identical to
    ``directional_value`` (same accumulation path).  As t -> 0 the sum
    concentrates on the jump set weighted by |v/|v| . normal|; off the
    lattice a 512^2 ball reads its limit within 0.21% at 8-32 cells (see
    ``directional_value``).
    """
    k, t_len = _check_shift(u, t, k, kappa)
    return _directional_sum(u, t_len, k, x_mask, w_cost.from_sq)


def w_limit_rhs(jump: JumpSpec | None, w_cost, k) -> float:
    """Analytic limit: sum over pieces of W(u+, u-) |k . normal| * measure.

    A whole sphere (``normal`` ``None``) takes the mean of |k . n| over the
    unit sphere, |k| C_N / |B^N|: 2|k|/pi in 2D and |k|/2 in 3D.
    """
    if jump is None or not jump.pieces:
        return 0.0
    k = np.asarray(k, dtype=float)
    total = 0.0
    for p in jump.pieces:
        d = np.asarray(p.plus, float)[None, :] - np.asarray(p.minus, float)[None, :]
        w_val = float(w_cost.from_sq(np.einsum("...k,...k->...", d, d))[0])
        if p.normal is None:
            mean = dimensional_constant_closed_form(k.size) / unit_ball_volume(k.size)
            proj = float(np.linalg.norm(k)) * mean
        else:
            proj = abs(float(k @ np.asarray(p.normal)))
        total += w_val * proj * p.measure
    return total


# --------------------------------------------------------------------------
# Two-sided comparability of the kernel sum and the directional sup.
# --------------------------------------------------------------------------


def verify_two_sided(
    u: SampledField,
    q: float,
    eps,
    *,
    kappa: float = defaults.KAPPA,
) -> ComparisonReport:
    """Nested-domain two-sided bound between the kernel sum and the
    directional sup at scale eps:

        A / |B1| <= sup_v B(v) <= 2^(N+q) A' / |B1|

    with A over the mask eroded by 2*eps, A' over the mask eroded by eps, and
    the sup over every lattice displacement 0 < |v| <= eps (all shifts exact,
    no interpolation).  |B1| is the discrete ball measure #offsets * h^N /
    eps^N, the measure the kernel sum itself uses, which makes the left
    inequality an average-vs-max identity that holds exactly; the continuum
    ball volume is reported alongside.  Both comparisons are untoleranced.
    q and eps are checked as for ``bbm_value``: q >= 1, and eps between
    kappa*h and the domain diameter.
    """
    h = u.grid.spacing
    n = u.grid.dim
    m2, eps_len = _bbm_rung(u, q, eps, kappa)
    inner1 = u.mask.erode(2.0 * eps_len)   # domain of the directional sums
    inner2 = u.mask.erode(eps_len)         # domain of the wider kernel sum
    r2, dist, (s1,) = _pair_table(u, [(q, inner1)], m2)
    _, _, (s2,) = _pair_table(u, [(q, inner2)], m2)
    scale = h**n
    c1 = s1 * scale / dist
    c2 = s2 * scale / dist
    count = len(r2)
    vol_disc = count * h**n / eps_len**n
    a1 = math.fsum(c1) * h**n / eps_len**n
    a2 = math.fsum(c2) * h**n / eps_len**n
    b_sup = float(c1.max())
    # left: ordered so the comparison is exactly average <= max
    left_ok = math.fsum(c1) <= count * float(c1.max())
    upper = 2.0 ** (n + q) * a2 / vol_disc
    right_ok = b_sup * count <= 2.0 ** (n + q) * math.fsum(c2)
    # verdict from the division-free ordered comparisons: the displayed
    # normalized values may round by an ulp right at equality (1D step).
    return ComparisonReport(
        lhs=a1 / vol_disc,
        rhs=upper,
        relation="between",
        tolerance=0.0,
        passed=left_ok and right_ok,
        provenance=f"two-sided kernel/directional comparability (q={q:g}, eps={eps_len:g})",
        mid=b_sup,
        details={
            "ball_measure_discrete": vol_disc,
            "ball_measure_continuum": unit_ball_volume(n),
            "offsets": count,
            "left_ok": left_ok,
            "right_ok": right_ok,
            "kernel_sum_inner": a1,
            "kernel_sum_outer": a2,
        },
    )
