"""Gamma, Beta and Gauss-Jacobi rules from ``math`` and numpy alone.

Gamma at half-integers n/2 comes from the recurrence Gamma(x + 1) = x Gamma(x)
(``half_gamma``), which is exact for the small integer values and keeps the
closed forms of :mod:`bvqlab.jumps` and :mod:`bvqlab.mollifier` bit-stable;
other arguments go to ``math.gamma``, and Beta to Stirling's formula where
Gamma would overflow.  Gauss-Jacobi nodes are found without LAPACK: Newton
steps on the three-term recurrence start from WKB phase guesses (after Hale
and Townsend, 2013), and a Sturm count on the symmetric Jacobi matrix
confirms that each node is a distinct zero; a rule that fails the count is
rebuilt by Sturm bisection.  The weights come from the derivative formula and
are rescaled to the exact total mass of the weight function.
"""

from __future__ import annotations

import math

import numpy as np

_NEWTON_TOL = 1e-13  # largest final Newton step of an accepted rule
_MAX_NEWTON = 12
_PHASE_POINTS_PER_NODE = 4  # quadrature points of the WKB phase per node
_BISECTION_STEPS = 54  # halves [-1, 1] down to below one ulp
_GAMMA_MAX = 171.0  # math.gamma overflows from here on
_STIRLING_MIN = 16.0  # Stirling's series to z^-9 is exact to 2e-16 from here on


def half_gamma(n: int) -> float:
    """Gamma(n/2) for an integer n >= 1, by Gamma(x + 1) = x Gamma(x).

    Starts from Gamma(1/2) = sqrt(pi) or Gamma(1) = 1.  For n <= 6 the
    result equals ``scipy.special.gamma(n / 2)`` bit for bit; ``math.gamma``
    does not (its Gamma(3/2) is one ulp high).
    """
    g, k = (math.sqrt(math.pi), 1) if n % 2 else (1.0, 2)
    while k < n:
        g *= k / 2.0
        k += 2
    return g


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0: the recurrence at half-integers, else ``math.gamma``."""
    if (2.0 * x).is_integer() and x < _GAMMA_MAX:
        return half_gamma(int(2.0 * x))
    return math.gamma(x)


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log sqrt(2 pi)) for z >= 16: the
    Stirling series through z^-9, whose next term is below 2e-16 there."""
    w = 1.0 / (z * z)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w / 1188)))) / z


def beta_fn(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0.

    From x + y = 171 on, where Gamma overflows, Stirling's formula scaled by
    the ratios x / (x + y) and y / (x + y): no term the size of
    lgamma(x + y) is formed, so the error follows |log B| instead.  Against
    a 40-digit reference it is 8e-17 at B(7.5, 200), 2.3e-14 at B(150, 200)
    and 2.1e-14 at B(300, 300), where exp(lgamma + lgamma - lgamma) was
    7.9e-14, 2.6e-13 and 3.0e-13 off; over random x, y <= 600 with B above
    1e-300 it was at most 1.7e-13, against 2.3e-12.
    """
    if x + y < _GAMMA_MAX:
        return gamma_fn(x) * gamma_fn(y) / gamma_fn(x + y)
    x, y = min(x, y), max(x, y)
    s = x + y
    rest = _stirling_rest(y) - _stirling_rest(s)
    if x < _STIRLING_MIN:  # Gamma(x) itself, Stirling for Gamma(y) / Gamma(s)
        return gamma_fn(x) * s**-x * math.exp(x - (y - 0.5) * math.log1p(x / y) + rest)
    rest += _stirling_rest(x) - x * math.log1p(y / x) - y * math.log1p(x / y)
    return math.sqrt(2.0 * math.pi * s / (x * y)) * math.exp(rest)


def _jacobi_matrix(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and squared off-diagonal of the symmetric Jacobi matrix of the
    weight (1 - x)^a (1 + x)^b; its eigenvalues are the n Gauss nodes."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        # a + b = 0 makes the k = 0 entry 0/0, a + b = -1 the k = 1 factor k(k+a+b)/(s-1)
        diag = np.where(k == 0, (b - a) / (a + b + 2.0), (b * b - a * a) / (s * (s + 2.0)))
        k, s = k[1:], s[1:]
        off2 = (4.0 / (s * s)) * (
            (k + a) * (k + b) / (s + 1.0) * np.where(k == 1, 1.0, k * (k + a + b) / (s - 1.0))
        )
    return diag, off2


def _sturm_count(diag: np.ndarray, off2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the Jacobi matrix below each point of x.

    Counts the negative pivots of the LDL^T factorization of T - x I.  A zero
    pivot sends the next one to an infinity of the opposite sign, and its own
    sign bit decides, so exactly one of the two is counted.
    """
    q = diag[0] - x
    count = np.signbit(q).astype(int)
    t = np.empty_like(q)
    with np.errstate(divide="ignore"):
        for d, e2 in zip(diag[1:].tolist(), off2.tolist()):
            np.divide(e2, q, out=q)
            np.subtract(d, x, out=t)
            np.subtract(t, q, out=q)
            count += np.signbit(q)
    return count


def _recurrence(n: int, a: float, b: float) -> list[tuple[float, float, float]]:
    """(alpha_k, beta_k, gamma_k), k = 2..n, of P_k = (alpha_k x + beta_k) P_{k-1}
    - gamma_k P_{k-2} for the Jacobi polynomials P_k^(a, b)."""
    k = np.arange(2, n + 1, dtype=float)
    c = 2.0 * k + a + b
    den = 2.0 * k * (k + a + b) * (c - 2.0)
    alpha = (c - 1.0) * c * (c - 2.0) / den
    beta = (c - 1.0) * (a * a - b * b) / den
    gamma = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c / den
    return list(zip(alpha.tolist(), beta.tolist(), gamma.tolist()))


def _jacobi_pair(n: int, a: float, b: float, coef, x: np.ndarray):
    """(P_n, (1 - x^2) P_n') of the Jacobi polynomial P_n^(a, b) at x.

    P_n comes from the three-term recurrence ``coef`` (``_recurrence``); the
    derivative from (2n+a+b)(1-x^2) P_n' = n((a-b) - (2n+a+b) x) P_n
    + 2(n+a)(n+b) P_{n-1}.
    """
    p_prev = np.ones_like(x)
    p = 0.5 * (a - b + (a + b + 2.0) * x)
    t = np.empty_like(x)
    for alpha, beta, gamma in coef:
        np.multiply(x, alpha, out=t)
        t += beta
        t *= p
        p_prev *= gamma
        t -= p_prev
        p_prev, p, t = p, t, p_prev
    c = 2.0 * n + a + b
    dp = (n * ((a - b) - c * x) * p + 2.0 * (n + a) * (n + b) * p_prev) / c
    return p, dp


def _phase_guesses(n: int, a: float, b: float) -> np.ndarray:
    """Ascending starting guesses for the n zeros of P_n^(a, b), from the WKB phase.

    With x = cos t, v(t) = sin(t/2)^(a+1/2) cos(t/2)^(b+1/2) P_n(cos t) solves
    v'' + F v = 0, and the Langer form F = rho^2 - a^2 / (4 sin^2(t/2))
    - b^2 / (4 cos^2(t/2)), rho = n + (a+b+1)/2, puts the k-th zero where the
    phase int sqrt(F) dt from the turning point near t = 0 reaches
    (k - 1/4) pi.  The phase is integrated numerically between the two
    turning points.  An exponent in (-1, 0) has no turning point: its term is
    left out of F, shifts the phase by a pi / 2 and adds the first-order
    boundary correction of Hale and Townsend (2013).
    """
    rho = n + 0.5 * (a + b + 1.0)
    r2 = rho * rho
    al, bl = max(a, 0.0), max(b, 0.0)
    # the turning points cos t solve rho^2 (1 - x^2) = al^2 (1 + x)/2 + bl^2 (1 - x)/2
    lin = 0.5 * (al * al - bl * bl)
    disc = math.sqrt(lin * lin + 4.0 * r2 * (r2 - 0.5 * (al * al + bl * bl)))
    t0 = math.acos(min((disc - lin) / (2.0 * r2), 1.0))
    t1 = math.acos(max((-disc - lin) / (2.0 * r2), -1.0))
    m = _PHASE_POINTS_PER_NODE * n + 32
    s = np.linspace(0.0, math.pi, m + 1)
    t = t0 + (t1 - t0) * 0.5 * (1.0 - np.cos(s))  # clusters points at both turning points
    with np.errstate(divide="ignore", invalid="ignore"):
        f = r2 - al * al / (4.0 * np.sin(0.5 * t) ** 2) - bl * bl / (4.0 * np.cos(0.5 * t) ** 2)
    g = np.sqrt(np.maximum(np.nan_to_num(f), 0.0)) * np.sin(s) * (0.5 * (t1 - t0))
    phase = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * (math.pi / m))])
    target = (np.arange(n, 0, -1) - 0.25 + 0.5 * min(a, 0.0)) * math.pi
    t = np.interp(target, phase, t)
    if a < 0:
        t += (0.25 - a * a) / (4.0 * r2) / np.tan(0.5 * t)
    if b < 0:
        t -= (0.25 - b * b) / (4.0 * r2) * np.tan(0.5 * t)
    return np.cos(t)


def _newton(n: int, a: float, b: float, coef, x: np.ndarray) -> np.ndarray | None:
    """Newton steps on P_n from x until every step is below ``_NEWTON_TOL``;
    None when that takes more than ``_MAX_NEWTON`` steps."""
    with np.errstate(all="ignore"):
        for _ in range(_MAX_NEWTON):
            p, dp = _jacobi_pair(n, a, b, coef, x)
            step = p * ((1.0 - x) * (1.0 + x)) / dp
            x = x - step
            if np.abs(step).max() <= _NEWTON_TOL:
                return x
    return None


def _is_gauss_rule(x: np.ndarray | None, diag: np.ndarray, off2: np.ndarray) -> bool:
    """True when x holds n finite, strictly ascending nodes in (-1, 1) and the
    Sturm counts at -1, the midpoints between nodes and 1 read 0, 1, ..., n:
    each Newton limit is then a zero of P_n in its own eigenvalue interval."""
    if x is None or not np.isfinite(x).all():
        return False
    if not (-1.0 < x[0] and x[-1] < 1.0 and (x[1:] > x[:-1]).all()):
        return False
    pts = np.concatenate([[-1.0], 0.5 * (x[1:] + x[:-1]), [1.0]])
    return bool((_sturm_count(diag, off2, pts) == np.arange(len(x) + 1)).all())


def _bisected_nodes(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the Jacobi matrix to about one ulp, by Sturm bisection."""
    n = len(diag)
    lo, hi, index = np.full(n, -1.0), np.full(n, 1.0), np.arange(n)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = _sturm_count(diag, off2, mid) > index  # eigenvalue `index` lies below mid
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return 0.5 * (lo + hi)


def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss rule on [-1, 1]
    for the weight (1 - x)^a (1 + x)^b, a, b > -1 (``roots_jacobi``'s order).

    Newton steps on P_n start from ``_phase_guesses``; the result is kept
    only if ``_is_gauss_rule`` accepts it.  Otherwise the nodes are isolated
    by Sturm bisection on the Jacobi matrix and polished by Newton, and that
    rule must pass the same check, or ``ArithmeticError`` is raised.  The
    weights sum to mu0 = 2^(a+b+1) B(a+1, b+1) exactly, up to rounding.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not (a > -1 and b > -1):
        raise ValueError("Jacobi exponents must exceed -1")
    diag, off2 = _jacobi_matrix(n, a, b)
    coef = _recurrence(n, a, b)
    x = _newton(n, a, b, coef, _phase_guesses(n, a, b))
    if not _is_gauss_rule(x, diag, off2):
        x = _newton(n, a, b, coef, _bisected_nodes(diag, off2))
        if not _is_gauss_rule(x, diag, off2):
            raise ArithmeticError(f"no checked {n}-point Gauss-Jacobi rule for a={a!r}, b={b!r}")
    _, dp = _jacobi_pair(n, a, b, coef, x)
    # w = C / ((1 - x^2) P_n'^2), C = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n!)
    c = math.exp(
        (a + b + 1.0) * math.log(2.0) + math.lgamma(n + a + 1.0) + math.lgamma(n + b + 1.0)
        - math.lgamma(n + a + b + 1.0) - math.lgamma(n + 1.0)
    )
    w = c * ((1.0 - x) * (1.0 + x)) / dp / dp
    mu0 = 2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0)
    return x, w * (mu0 / math.fsum(w))
