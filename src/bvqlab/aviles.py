"""Mollified eikonal fields and singular-perturbation energy bounds.

For a Lipschitz psi with |grad psi| = 1 a.e. and a unit-mass mollifier eta,
the smoothed field psi_eps(x) = int eta(z) psi(x + eps z) dz has

    grad psi_eps(x)       =  int eta(z)      grad psi(x + eps z) dz
    eps * hess psi_eps(x) = -int grad eta(z) (x) grad psi(x + eps z) dz

and both are computed from these identities with the exact gradient of psi,
which the caller samples once on the grid and passes in as a field, never by
differencing psi_eps.  The energies below read only these two, so psi
itself is never sampled, and nothing here reads the analytic catalog.  The
integrals become lattice sums over the offsets inside the eps-ball,
evaluated as zero-padded FFT correlations, one spectrum at a time, into one
grid-sized result per rung.  A sweep holds one rung at a time: each is
reduced to its energies before the next is mollified.  The energies
measured here are

    I_p(eps) = int eps^(p-1) |hess psi_eps|^p
             + int (1/eps) (1 - |grad psi_eps|^2)^(p/(p-1))

together with the bound-side combination whose defect exponent is p/2.
Upper bounds multiply mollifier moments against kernel sweeps of the exact
gradient field; the cubic case additionally carries a pointwise Young-type
lower inequality with constant 3/cbrt(4) that holds sample by sample.
"""

from __future__ import annotations

import math

import numpy as np

from . import defaults
from .fields import JumpSpec
from .grid import DomainMask, SampledField
from .jumps import dimensional_constant
from .kernels import (
    EpsSweep,
    _check_kappa_h,
    _check_sweep_ladder,
    bbm_sweep,
    bbm_sweeps,
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


class MollifiedField:
    """grad psi_eps and hess psi_eps on an inner mask.

    Arrays are full-grid shaped views of one array of N + N^2 channels;
    entries outside ``inner.inside`` are zero.  ``hess`` stores
    hess psi_eps (the identity above divided by eps).
    """

    def __init__(self, inner: DomainMask, eps: float, grad: np.ndarray, hess: np.ndarray):
        self.inner = inner
        self.eps = eps
        self.grad = grad
        self.hess = hess

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
    grad: SampledField,
    eta: Mollifier,
    eps,
    inner: DomainMask | None = None,
    *,
    kappa: float = defaults.KAPPA,
) -> MollifiedField:
    """Smooth an eikonal field, given by its gradient, at scale eps over an
    eroded inner mask.

    ``grad`` holds the exact gradient g of psi, sampled as a d = dim field.
    Over the lattice offsets v with |v|^2 <= m2 (the exact integer radius of
    eps) and v = 0, with weights w_v = eta(v h/eps) scaled to unit sum and
    gw_v = grad eta(v h/eps) (h/eps)^N,

        grad psi_eps(x) = sum_v w_v g(x + v h),
        hess psi_eps(x)[a, b] = -(1/eps) sum_v gw_v[a] g_b(x + v h),

    evaluated as FFT correlations zero-padded so nothing wraps around.
    Samples outside ``grad.mask`` are zeroed first; no inner sample reads
    them.  ``inner`` defaults to the mask eroded by eps and may be any mask
    on the field grid eroded at least that much (fixed across a sweep,
    typically).

    Memory: one kernel spectrum at a time.  Each gradient channel g_c is
    transformed once, and its N half spectra are held across the kernel
    loop; each of the 1 + N kernels is transformed once, and its product
    with g_c is written into one half spectrum, inverted in place and
    cropped into channel j N + c (kernel j) of one grid-sized result of
    N + N^2 channels, of which the returned fields are views.  Besides that
    result a call holds N + 2 padded half spectra and the kept rows of one
    padded inverse at most: about 18.6 grid floats at its peak in 2D with
    eps = 1/4 of the grid width, against 49 for a batched transform, with
    the same bits in every channel.
    """
    n = grad.grid.dim
    if grad.d != n:
        raise ValueError("grad must be a d = dim field")
    h = grad.grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    _check_kappa_h(eps_len, h, kappa)
    if inner is None:
        inner = grad.mask.erode(eps_len)
    elif inner.grid != grad.grid:
        raise ValueError("inner mask must share the field grid")
    elif (inner.inside & ~grad.mask._farther_than(eps_len)).any():
        raise ValueError("inner mask must keep distance > eps from the boundary")
    offs = np.concatenate([np.zeros((1, n), dtype=int), lattice_offsets(n, m2)[0]])
    z = offs * (h / eps_len)
    w = eta.value(z)
    # kernel 0 is w, kernels 1..n the components of gw
    weights = np.concatenate(
        [(w / w.sum())[:, None], eta.gradient(z) * (h / eps_len) ** n], axis=1
    )
    ext = grad.grid.extents
    m = math.isqrt(m2)
    shape = tuple(e + 2 * m for e in ext)
    axes = tuple(range(n))
    at = tuple((-offs % shape).T)  # corr weight w_v sits at index -v
    crop = tuple(slice(e) for e in ext)
    outside = ~grad.mask.inside
    buf = np.empty(ext)
    f_hats = []
    for c in range(n):
        np.copyto(buf, grad.values[..., c])
        buf[outside] = 0.0
        f_hats.append(np.fft.rfftn(buf, s=shape, axes=axes))
    del buf
    out = np.empty(ext + (n + n * n,))
    k_hat = np.empty_like(f_hats[0])
    for j in range(1 + n):
        kern = np.zeros(shape)
        kern[at] = weights[:, j]
        np.fft.rfftn(kern, out=k_hat)
        del kern
        prod = np.empty_like(k_hat)
        # kernel 0 against g_c gives grad psi_eps; kernel 1 + a against g_c
        # gives the Hessian entry [a, c], negated in place (negating a
        # rounded product rounds the negated one)
        for c, f_hat in enumerate(f_hats):
            if j == 0:
                np.multiply(f_hat, k_hat, out=prod)
            else:
                np.multiply(k_hat, f_hat, out=prod)
                np.negative(prod, out=prod)
            # irfftn's steps: the complex inverses in place, then the real
            # one on the rows the crop keeps
            for a in axes[:-1]:
                np.fft.ifft(prod, axis=a, out=prod)
            out[..., j * n + c] = np.fft.irfft(prod[crop[:-1]], n=shape[-1], axis=-1)[..., : ext[-1]]
        del prod
    out[~inner.inside] = 0.0
    out[..., n:] /= eps_len
    return MollifiedField(inner, eps_len, out[..., :n], out[..., n:].reshape(ext + (n, n)))


def _ladder_measures(grad, eta, eps_list, eps_lens, kappa, measure):
    """(inner mask, [measure(mollified field) for each eps]).

    Every rung's kappa*h guard runs first, on ``eps_lens`` (the lengths
    ``_check_sweep_ladder`` returns).  Every rung shares the mask
    eroded by the largest eps, so the energies of a sweep are integrated
    over one region.  ``measure`` reduces a rung to numbers, and nothing
    holds the rung's field or its per-sample arrays once it returns, so only
    one rung is alive while the next is mollified.
    """
    for e_len in eps_lens:
        _check_kappa_h(e_len, grad.grid.spacing, kappa)
    inner = grad.mask.erode(max(eps_lens))
    return inner, [measure(mollify(grad, eta, e, inner, kappa=kappa)) for e in eps_list]


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
        raise ValueError("the energy I_p needs p > 1")
    return _energy(mf, mf.hessian_frobenius(), mf.eikonal_defect(), p, p / (p - 1.0))


def check_ag_upper_bound(
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
    ``defaults.TREND_SLACK``).  The bound's coefficients
    (``energy_bound_coefficients``, which refuses q <= 1, p <= 2 and a
    coefficient that overflows float64), the ladder (``_check_sweep_ladder``)
    and every rung's kappa*h guard are checked before any rung is mollified.
    """
    coef_q, coef_p = energy_bound_coefficients(eta, q, p)
    eps_lens = _check_sweep_ladder(eps_list, grad.grid.spacing, fit_model)

    def lhs(mf):
        return sum(_energy(mf, mf.hessian_frobenius(), mf.eikonal_defect(), q, p / 2.0))

    inner, lhs_vals = _ladder_measures(grad, eta, eps_list, eps_lens, kappa, lhs)
    requests = [(q, inner)] if p == q else [(q, inner), (p, inner)]
    sweeps = bbm_sweeps(grad, requests, eps_list, fit_model, kappa=kappa)
    sweep_q, sweep_p = sweeps[0], sweeps[-1]
    trend_ok = all(
        b <= a * (1.0 + defaults.TREND_SLACK) + ZERO_ATOL
        for a, b in zip(lhs_vals, lhs_vals[1:])
    )
    rep = leq(
        lhs_vals[-1],
        coef_q * sweep_q.limit + coef_p * sweep_p.limit,
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
    rep.passed = rep.passed and trend_ok
    return rep


def ag_chain_reports(
    grad: SampledField,
    eta: Mollifier,
    eps_list,
    jump: JumpSpec | None = None,
    tolerance: float = defaults.TOLERANCE,
    *,
    kappa: float = defaults.KAPPA,
    fit_model: str = "linear-in-eps",
) -> list[ComparisonReport]:
    """Cubic energy chain: pointwise Young step, then the moment bound; for
    a ``jump``, then ``verify_gamma_consistency``'s report as well.

    At every sweep eps and every sample the inequality

        eps^2 H^3 + (1/eps) d^(3/2)  >=  (3 / cbrt 4) H d

    (H = |hess psi_eps|, d = |1 - |grad psi_eps|^2|) is verified exactly in
    extended precision.  The middle quantity I_3(eps) is then compared, with
    ``defaults.AG_SLACK`` slack, against the moment bound at the matching
    scale (two smallest eps) and against the bound built from the
    extrapolated sweep of ``grad``.  The energies and the q = p = 3 bound
    values come from the same code path as ``check_ag_upper_bound``, so the
    two instances agree bit for bit.  As there, the coefficients, the ladder
    and every rung's kappa*h guard are checked before any rung is mollified.
    The chain's sweep over the inner mask and the ridge energy's unmasked one
    share one pair pass, each bit for bit its own ``bbm_sweep``.
    """
    if grad.grid.dim not in (1, 2):
        raise ValueError("the cubic chain check runs in dimension 1 or 2")
    coef_q, coef_p = energy_bound_coefficients(eta, 3.0, 3.0)
    eps_lens = _check_sweep_ladder(eps_list, grad.grid.spacing, fit_model)
    slack = defaults.AG_SLACK
    cell = grad.grid.spacing**grad.grid.dim

    def young_and_middle(mf):
        hn, defect = mf.hessian_frobenius(), mf.eikonal_defect()
        hl = hn.astype(np.longdouble)
        dl = defect.astype(np.longdouble)
        lhs_pt = mf.eps**2 * hl**3 + dl**1.5 / mf.eps
        rhs_pt = np.longdouble(YOUNG_CONSTANT) * hl * dl
        return (
            YOUNG_CONSTANT * cell * math.fsum(hn * defect),
            sum(_energy(mf, hn, defect, 3.0, 1.5)),
            bool((lhs_pt >= rhs_pt).all()),
        )

    inner, rungs = _ladder_measures(grad, eta, eps_list, eps_lens, kappa, young_and_middle)
    young_lhs, mids, young_oks = (list(column) for column in zip(*rungs))
    young_ok = all(young_oks)
    requests = [(3.0, inner)] + ([(3.0, None)] if jump is not None else [])
    sweep3, *full = bbm_sweeps(grad, requests, eps_list, fit_model, kappa=kappa)
    matched_bounds = [coef_q * a3 + coef_p * a3 for a3 in sweep3.values]
    limit_bound = coef_q * sweep3.limit + coef_p * sweep3.limit
    matched_ok = all(
        m <= b * (1.0 + slack) + ZERO_ATOL for m, b in list(zip(mids, matched_bounds))[-2:]
    )
    limit_ok = mids[-1] <= limit_bound * (1.0 + slack) + ZERO_ATOL
    passed = young_ok and matched_ok and limit_ok
    chain = ComparisonReport(
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
    return [chain] + [_gamma_report(grad.grid.dim, jump, sweep, tolerance) for sweep in full]


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
    sweep = bbm_sweep(grad, 3.0, eps_list, fit_model, kappa=kappa)
    return _gamma_report(grad.grid.dim, jump, sweep, tolerance)


def _gamma_report(dim: int, jump: JumpSpec | None, sweep: EpsSweep, tolerance: float) -> ComparisonReport:
    lhs = gamma_limit_value(jump)
    cn = dimensional_constant(dim)
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
