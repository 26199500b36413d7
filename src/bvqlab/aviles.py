"""Mollified eikonal fields and singular-perturbation energy bounds.

For a Lipschitz psi with |grad psi| = 1 a.e. and a unit-mass mollifier eta,
the smoothed field psi_eps(x) = int eta(z) psi(x + eps z) dz has

    grad psi_eps(x)       =  int eta(z)      grad psi(x + eps z) dz
    eps * hess psi_eps(x) = -int grad eta(z) (x) grad psi(x + eps z) dz

and both are computed from these identities with the exact gradient of psi,
which the caller samples once on the grid and passes in as a field, never by
differencing psi_eps.  Nothing here reads the analytic catalog.  The
integrals become lattice sums over the offsets inside the eps-ball,
evaluated as zero-padded FFT correlations.  The energies measured here are

    I_p(eps) = int eps^(p-1) |hess psi_eps|^p
             + int (1/eps) (1 - |grad psi_eps|^2)^(p/(p-1))

together with the bound-side combination whose defect exponent is p/2.
Upper bounds multiply mollifier moments against kernel sweeps of the exact
gradient field; the cubic case additionally carries a pointwise Young-type
lower inequality with constant 3/cbrt(4) that holds sample by sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import defaults
from .fields import JumpSpec
from .grid import DomainMask, SampledField
from .jumps import dimensional_constant
from .kernels import (
    _check_kappa_h,
    bbm_sweep,
    bbm_value,  # unused here; bench/tests/test_bench.py pins aviles.bbm_value
    lattice_offsets,
    resolve_radius,
)
from .mollifier import Mollifier, energy_bound_coefficients
from .reports import ComparisonReport, equal_within, leq

YOUNG_CONSTANT = 3.0 / 4.0 ** (1.0 / 3.0)

# roundoff deadband: energies of exactly-eikonal smooth fields are 0 in exact
# arithmetic but accumulate ~1e-16-per-sample noise in the sums
ZERO_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class MollifiedField:
    """psi_eps with its convolution gradient and scaled hessian on an inner mask.

    Arrays are full-grid shaped; only entries under ``inner.inside`` are
    meaningful.  ``hess`` stores hess psi_eps (the identity above divided by
    eps).
    """

    inner: DomainMask
    eps: float
    eta: Mollifier
    psi: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    hess: np.ndarray = field(repr=False)

    @property
    def grid(self):
        return self.inner.grid

    def gradient_norms(self) -> np.ndarray:
        g = self.grad[self.inner.inside]
        return np.sqrt(np.einsum("ik,ik->i", g, g))

    def hessian_frobenius(self) -> np.ndarray:
        hmat = self.hess[self.inner.inside]
        return np.sqrt(np.einsum("ijk,ijk->i", hmat, hmat))

    def eikonal_defect(self) -> np.ndarray:
        """1 - |grad psi_eps|^2, clamped at zero (it is nonnegative up to
        rounding because grad psi_eps is an eta-average of unit vectors)."""
        g = self.gradient_norms()
        return np.clip(1.0 - g * g, 0.0, None)


def mollify(
    psi: SampledField,
    grad: SampledField,
    eta: Mollifier,
    eps,
    inner: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> MollifiedField:
    """Smooth a sampled eikonal field at scale eps over an eroded inner mask.

    ``grad`` holds the exact gradient g of psi, sampled as a d = dim field on
    psi's grid and mask.  Over the lattice offsets v with |v|^2 <= m2 (the
    exact integer radius of eps) and v = 0, with weights w_v = eta(v h/eps)
    scaled to unit sum and gw_v = grad eta(v h/eps) (h/eps)^N,

        psi_eps(x) = sum_v w_v psi(x + v h),   grad psi_eps(x) = sum_v w_v g(x + v h),
        hess psi_eps(x)[a, b] = -(1/eps) sum_v gw_v[a] g_b(x + v h),

    evaluated as FFT correlations zero-padded so nothing wraps around.
    Samples outside ``psi.mask`` are zeroed first; no inner sample reads them.
    ``inner`` defaults to the mask eroded by eps and may be any mask eroded
    at least that much (fixed across a sweep, typically).
    """
    n = psi.grid.dim
    if (
        grad.d != n
        or grad.grid != psi.grid
        or not np.array_equal(grad.mask.inside, psi.mask.inside)
    ):
        raise ValueError("grad must be a d = dim field on the grid and mask of psi")
    h = psi.grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    _check_kappa_h(eps_len, h, kappa)
    if inner is None:
        inner = psi.mask.erode(eps_len)
    elif (inner.inside & ~psi.mask._farther_than(eps_len)).any():
        raise ValueError("inner mask must keep distance > eps from the boundary")
    offs = np.concatenate([np.zeros((1, n), dtype=int), lattice_offsets(n, m2)[0]])
    z = offs * (h / eps_len)
    w = eta.value(z)
    weights = np.concatenate(
        [(w / w.sum())[:, None], eta.gradient(z) * (h / eps_len) ** n], axis=1
    )
    # channel 0 is psi, channels 1..n the exact gradient
    f = np.concatenate([psi.values[..., :1], grad.values], axis=-1)
    f[~psi.mask.inside] = 0.0
    m = math.isqrt(m2)
    shape = tuple(e + 2 * m for e in psi.grid.extents)
    axes = tuple(range(n))
    kern = np.zeros(shape + (1 + n,))
    kern[tuple((-offs % shape).T)] = weights  # corr weight w_v sits at index -v
    f_hat = np.fft.rfftn(f, s=shape, axes=axes)
    k_hat = np.fft.rfftn(kern, axes=axes)
    del f, kern
    # one spectrum of every product; negating a rounded product rounds the
    # negated one, so the Hessian channels are -(gw_a * g_b) bit for bit
    prod = np.empty(f_hat.shape[:-1] + (1 + n + n * n,), dtype=complex)
    np.multiply(f_hat, k_hat[..., :1], out=prod[..., : 1 + n])
    hess = prod[..., 1 + n :].reshape(f_hat.shape[:-1] + (n, n))  # [a, b]: gw_a against g_b
    np.multiply(k_hat[..., 1:, None], f_hat[..., None, 1:], out=hess)
    np.negative(hess, out=hess)
    del f_hat, k_hat
    out = np.fft.irfftn(prod, s=shape, axes=axes)[tuple(slice(e) for e in psi.grid.extents)]
    out[~inner.inside] = 0.0
    full_psi = out[..., 0]
    full_grad = out[..., 1 : 1 + n]
    full_hess = out[..., 1 + n :].reshape(psi.grid.extents + (n, n)) / eps_len
    return MollifiedField(inner, eps_len, eta, full_psi, full_grad, full_hess)


def _mollified_ladder(psi, grad, eta, eps_list, kappa):
    """Yield (mollified field, |hess|, defect) per eps, one rung at a time.

    Every rung shares the mask eroded by the largest eps, so the energies of
    a sweep are integrated over one region; only one rung is held at once.
    """
    h = psi.grid.spacing
    inner = psi.mask.erode(max(resolve_radius(e, h)[1] for e in eps_list))
    for e in eps_list:
        mf = mollify(psi, grad, eta, e, inner, kappa=kappa)
        yield mf, mf.hessian_frobenius(), mf.eikonal_defect()


def _energy(mf: MollifiedField, hn, defect, a: float, b: float) -> tuple[float, float]:
    """(eps^(a-1) int |hess|^a, (1/eps) int defect^b) over the inner mask."""
    cell = mf.grid.spacing**mf.grid.dim
    return (
        mf.eps ** (a - 1.0) * cell * math.fsum(hn**a),
        cell / mf.eps * math.fsum(defect**b),
    )


def ag_energy(mf: MollifiedField, p: float) -> tuple[float, float]:
    """(hessian term, eikonal-defect term) of I_p(eps) for the smoothed field.

    Defect exponent p/(p-1); the sum of the pair is the energy itself.
    """
    if not p > 1:
        raise ValueError("p must exceed 1")
    return _energy(mf, mf.hessian_frobenius(), mf.eikonal_defect(), p, p / (p - 1.0))


def _moment_bound(eta: Mollifier, q: float, p: float, a_q: float, a_p: float) -> float:
    """Moment-weighted combination that dominates the smoothed energies."""
    coef_q, coef_p = energy_bound_coefficients(eta, q, p)
    return coef_q * a_q + coef_p * a_p


def check_ag_upper_bound(
    psi: SampledField,
    grad: SampledField,
    eta: Mollifier,
    q: float,
    p: float,
    eps_list,
    *,
    kappa: float = defaults.KAPPA,
    fit_model: str = "linear-in-eps",
) -> ComparisonReport:
    """Smoothed-energy upper bound against moment-weighted gradient sweeps.

    The left side int eps^(q-1)|hess|^q + (1/eps)(1-|grad|^2)^(p/2) is
    checked at finite scale: at the smallest eps it must stay under the
    bound built from the kernel sweeps of ``grad`` with ``defaults.AG_SLACK``
    slack, and it must not increase along the sweep (within
    ``defaults.TREND_SLACK``).  p = 2 is rejected: the defect-moment exponent
    degenerates there.
    """
    if not q > 1:
        raise ValueError("q must exceed 1")
    if not p > 2:
        raise ValueError(
            "p must exceed 2: the defect moment exponent p/(p-2) degenerates at p = 2"
        )
    lhs_vals, eps_lens = [], []
    for mf, hn, defect in _mollified_ladder(psi, grad, eta, eps_list, kappa):
        lhs_vals.append(sum(_energy(mf, hn, defect, q, p / 2.0)))
        eps_lens.append(mf.eps)
    inner = mf.inner  # the last rung's inner mask is shared by every rung
    sweep_q = bbm_sweep(grad, q, eps_list, fit_model, inner, kappa=kappa)
    sweep_p = (
        sweep_q
        if p == q
        else bbm_sweep(grad, p, eps_list, fit_model, inner, kappa=kappa)
    )
    rhs = _moment_bound(eta, q, p, sweep_q.limit, sweep_p.limit)
    trend_ok = all(
        b <= a * (1.0 + defaults.TREND_SLACK) + ZERO_ATOL
        for a, b in zip(lhs_vals, lhs_vals[1:])
    )
    rep = leq(
        lhs_vals[-1],
        rhs,
        f"smoothed-energy upper bound (q={q:g}, p={p:g})",
        slack=defaults.AG_SLACK,
        atol=ZERO_ATOL,
        eps=eps_lens,
        lhs_values=lhs_vals,
        gradient_sweep_q=list(sweep_q.values),
        gradient_sweep_p=list(sweep_p.values),
        gradient_limit_q=sweep_q.limit,
        gradient_limit_p=sweep_p.limit,
        trend_ok=trend_ok,
    )
    return rep if trend_ok else replace(rep, passed=False)


def check_ag_chain(
    psi: SampledField,
    grad: SampledField,
    eta: Mollifier,
    eps_list,
    *,
    kappa: float = defaults.KAPPA,
    fit_model: str = "linear-in-eps",
) -> ComparisonReport:
    """Cubic energy chain: pointwise Young step, then the moment bound.

    At every sweep eps and every sample the inequality

        eps^2 H^3 + (1/eps) d^(3/2)  >=  (3 / cbrt 4) H d

    (H = |hess psi_eps|, d = |1 - |grad psi_eps|^2|) is verified exactly in
    extended precision.  The middle quantity I_3(eps) is then compared, with
    ``defaults.AG_SLACK`` slack, against the moment bound at the matching
    scale (two smallest eps) and against the bound built from the
    extrapolated sweep of ``grad``.  The energies and the q = p = 3 bound
    values come from the same code path as ``check_ag_upper_bound``, so the
    two instances agree bit for bit.
    """
    if psi.grid.dim not in (1, 2):
        raise ValueError("the cubic chain check runs in dimension 1 or 2")
    slack = defaults.AG_SLACK
    cell = psi.grid.spacing**psi.grid.dim
    young_lhs, mids, eps_lens, young_ok = [], [], [], True
    for mf, hn, defect in _mollified_ladder(psi, grad, eta, eps_list, kappa):
        e_len = mf.eps
        young_lhs.append(YOUNG_CONSTANT * cell * math.fsum(hn * defect))
        mids.append(sum(_energy(mf, hn, defect, 3.0, 1.5)))
        eps_lens.append(e_len)
        hl = hn.astype(np.longdouble)
        dl = defect.astype(np.longdouble)
        lhs_pt = e_len**2 * hl**3 + dl**1.5 / e_len
        rhs_pt = np.longdouble(YOUNG_CONSTANT) * hl * dl
        young_ok = young_ok and bool((lhs_pt >= rhs_pt).all())
    # the last rung's inner mask is shared by every rung
    sweep3 = bbm_sweep(grad, 3.0, eps_list, fit_model, mf.inner, kappa=kappa)
    matched_bounds = [_moment_bound(eta, 3.0, 3.0, a3, a3) for a3 in sweep3.values]
    limit_bound = _moment_bound(eta, 3.0, 3.0, sweep3.limit, sweep3.limit)
    matched_ok = all(
        m <= b * (1.0 + slack) + ZERO_ATOL for m, b in list(zip(mids, matched_bounds))[-2:]
    )
    limit_ok = mids[-1] <= limit_bound * (1.0 + slack) + ZERO_ATOL
    passed = young_ok and matched_ok and limit_ok
    return ComparisonReport(
        lhs=young_lhs[-1],
        rhs=matched_bounds[-1],
        relation="between",
        tolerance=slack,
        passed=passed,
        provenance="cubic energy chain (Young step + moment bound)",
        mid=mids[-1],
        details={
            "eps": eps_lens,
            "young_lhs": young_lhs,
            "middle_energy": mids,
            "matched_bounds": matched_bounds,
            "limit_bound": limit_bound,
            "young_exact_ok": young_ok,
            "matched_ok": matched_ok,
            "limit_ok": limit_ok,
            "gradient_sweep": list(sweep3.values),
        },
    )


def gamma_limit_value(jump: JumpSpec | None) -> float:
    """(1/3) * sum over gradient-jump pieces of |g+ - g-|^3 * measure."""
    if jump is None or not jump.pieces:
        return 0.0
    return math.fsum(p.amplitude() ** 3 * p.measure for p in jump.pieces) / 3.0


def verify_gamma_consistency(
    grad: SampledField,
    jump: JumpSpec | None,
    eps_list,
    tolerance: float = defaults.TOLERANCE,
    *,
    kappa: float = defaults.KAPPA,
    fit_model: str = "linear-in-eps",
) -> ComparisonReport:
    """Analytic ridge energy against the normalized cubic kernel sweep.

    lhs = (1/3) int over the gradient jumps ``jump`` of |jump|^3; rhs =
    extrapolated kernel limit of the sampled gradient ``grad`` divided by
    3 C_N.  The alternative normalization by 3 C_3 (the three-dimensional
    constant) is reported in the details for side-by-side comparison but not
    asserted.
    """
    lhs = gamma_limit_value(jump)
    sweep = bbm_sweep(grad, 3.0, eps_list, fit_model, kappa=kappa)
    cn = dimensional_constant(grad.grid.dim)
    rhs = sweep.limit / (3.0 * cn)
    return equal_within(
        lhs,
        rhs,
        tolerance,
        "ridge energy vs normalized cubic kernel limit",
        kernel_limit=sweep.limit,
        normalization_dim_constant=cn,
        alt_value_over_3_c3=sweep.limit / (3.0 * dimensional_constant(3)),
        sweep_values=list(sweep.values),
    )
