"""Gamma, Beta and Gauss-Jacobi rules from ``math`` and numpy alone.

Gamma at half-integers n/2 comes from the recurrence Gamma(x + 1) = x Gamma(x)
(``half_gamma``), which is exact for the small integer values and keeps the
closed forms of :mod:`bvqlab.jumps` and :mod:`bvqlab.mollifier` bit-stable;
other arguments go to ``math.gamma``, or ``math.lgamma`` where Gamma would
overflow.  Gauss-Jacobi nodes are the eigenvalues of the symmetric Jacobi
matrix (Golub and Welsch, 1969), polished by Newton steps on the three-term
recurrence; the weights come from the derivative formula and are rescaled to
the exact total mass of the weight function.
"""

from __future__ import annotations

import math

import numpy as np

_NEWTON_STEPS = 2
_GAMMA_MAX = 171.0  # math.gamma overflows from here on


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


def beta_fn(x: float, y: float) -> float:
    """B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0."""
    if x + y < _GAMMA_MAX:
        return gamma_fn(x) * gamma_fn(y) / gamma_fn(x + y)
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _jacobi_pair(n: int, a: float, b: float, x: np.ndarray):
    """(P_n, (1 - x^2) P_n') of the Jacobi polynomial P_n^(a, b) at x.

    P_n comes from the three-term recurrence; the derivative from
    (2n+a+b)(1-x^2) P_n' = n((a-b) - (2n+a+b) x) P_n + 2(n+a)(n+b) P_{n-1}.
    """
    p_prev = np.ones_like(x)
    p = 0.5 * (a - b + (a + b + 2.0) * x)
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        p_prev, p = p, (
            (c - 1.0) * (c * (c - 2.0) * x + a * a - b * b) * p
            - 2.0 * (k + a - 1.0) * (k + b - 1.0) * c * p_prev
        ) / (2.0 * k * (k + a + b) * (c - 2.0))
    c = 2.0 * n + a + b
    dp = (n * ((a - b) - c * x) * p + 2.0 * (n + a) * (n + b) * p_prev) / c
    return p, dp


def gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss rule on [-1, 1]
    for the weight (1 - x)^a (1 + x)^b, a, b > -1 (``roots_jacobi``'s order).

    The weights sum to mu0 = 2^(a+b+1) B(a+1, b+1) exactly, up to rounding.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not (a > -1 and b > -1):
        raise ValueError("Jacobi exponents must exceed -1")
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        # a + b = 0 makes the k = 0 entry 0/0, a + b = -1 the k = 1 factor k(k+a+b)/(s-1)
        diag = np.where(k == 0, (b - a) / (a + b + 2.0), (b * b - a * a) / (s * (s + 2.0)))
        k, s = k[1:], s[1:]
        off = (2.0 / s) * np.sqrt(
            (k + a) * (k + b) / (s + 1.0) * np.where(k == 1, 1.0, k * (k + a + b) / (s - 1.0))
        )
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(_NEWTON_STEPS):
        p, dp = _jacobi_pair(n, a, b, x)
        x = x - p * ((1.0 - x) * (1.0 + x)) / dp
    _, dp = _jacobi_pair(n, a, b, x)
    # w = C / ((1 - x^2) P_n'^2), C = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n!)
    c = math.exp(
        (a + b + 1.0) * math.log(2.0) + math.lgamma(n + a + 1.0) + math.lgamma(n + b + 1.0)
        - math.lgamma(n + a + b + 1.0) - math.lgamma(n + 1.0)
    )
    w = c * ((1.0 - x) * (1.0 + x)) / dp / dp
    mu0 = 2.0 ** (a + b + 1.0) * beta_fn(a + 1.0, b + 1.0)
    return x, w * (mu0 / math.fsum(w))
