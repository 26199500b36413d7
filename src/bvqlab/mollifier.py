"""Radial mollifiers supported in the closed unit ball.

The catalog is fixed to two profiles with closed-form gradients:

  polynomial-bump(k):  eta(z) = c (1 - |z|^2)^k        (C^{k-1}, k >= 2)
  exponential-bump:    eta(z) = c exp(-1/(1 - |z|^2))  (C-infinity)

both normalized to unit mass.  All radial integrals reduce to
int_0^1 r^gamma (1-r)^beta g(r) dr with g smooth, evaluated by Gauss-Jacobi
rules that absorb the endpoint powers into the weight; for the polynomial
profile every moment also has a Beta-function closed form used as an
independent cross-check.  Ball quadratures are tensor products of a radial
rule and a uniform angular rule in polar/spherical form.

The Gauss-Jacobi rules and the Gamma values come from :mod:`bvqlab._special`
(numpy and ``math`` only), so building a mollifier imports no scipy.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import defaults
from ._special import beta_fn, gamma_fn, gauss_jacobi, half_gamma
from .grid import _whole

PROFILES = ("polynomial-bump", "exponential-bump")


def sphere_surface(dim: int) -> float:
    """Surface measure of S^{dim-1} (2 points for dim = 1)."""
    return float(2.0 * math.pi ** (dim / 2.0) / half_gamma(dim))


@lru_cache(maxsize=256)
def _radial_rule(n: int, gamma: float, beta: float):
    """Nodes/weights for int_0^1 r^gamma (1-r)^beta g(r) dr, g smooth.

    Gauss-Jacobi on [-1, 1] with weight (1-x)^beta (1+x)^gamma, mapped by
    x = 2r - 1.
    """
    x, w = gauss_jacobi(n, beta, gamma)
    r = 0.5 * (x + 1.0)
    scale = 0.5 ** (gamma + beta + 1.0)
    return r, w * scale


def _boundary_power(profile: str, k: int | None, s: float, of_gradient: bool) -> float:
    """Exponent of (1 - r) extractable from |eta|^s or |grad eta|^s."""
    if profile != "polynomial-bump":
        return 0.0
    base = (k - 1) if of_gradient else k
    return base * s


class Mollifier:
    """A normalized radial bump with analytic gradient.

    ``normalization`` multiplies the raw profile so the ball integral is 1.
    ``resolution`` is the radial node count of the attached quadratures (the
    angular count is twice that).
    """

    def __init__(self, profile: str, dim: int, k: int | None, normalization: float, resolution: int):
        self.profile = profile
        self.dim = dim
        self.k = k
        self.normalization = normalization
        self.resolution = resolution

    # -- profile evaluations ------------------------------------------------

    def _raw(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.profile == "polynomial-bump":
            t = np.clip(1.0 - r * r, 0.0, None)
            return t**self.k
        t = 1.0 - r * r
        out = np.zeros_like(r)
        ok = t > 0
        out[ok] = np.exp(-1.0 / t[ok])
        return out

    def _raw_dr(self, r: np.ndarray) -> np.ndarray:
        """Radial derivative of the raw profile (nonpositive)."""
        r = np.asarray(r, dtype=float)
        if self.profile == "polynomial-bump":
            t = np.clip(1.0 - r * r, 0.0, None)
            return -2.0 * self.k * r * t ** (self.k - 1)
        t = 1.0 - r * r
        out = np.zeros_like(r)
        ok = t > 0
        out[ok] = np.exp(-1.0 / t[ok]) * (-2.0 * r[ok] / t[ok] ** 2)
        return out

    def radial(self, r) -> np.ndarray:
        """eta as a function of |z|."""
        return self.normalization * self._raw(r)

    def value(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self.radial(np.linalg.norm(z, axis=-1))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        """Closed-form grad eta(z); zero at the origin and outside the ball."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        r = np.linalg.norm(z, axis=-1, keepdims=True)
        safe = np.where(r > 0, r, 1.0)
        mag = self.normalization * self._raw_dr(r[..., 0])
        return (mag[..., None] / safe) * z

    # -- radial integrals ---------------------------------------------------

    def radial_moment(self, alpha: float, s: float, of_gradient: bool) -> float:
        """int_{R^N} |z|^alpha * g(|z|)^s dz for g = |grad eta| or eta.

        The r^gamma factor at 0 and, for the polynomial profile, the
        (1-r)^beta factor at 1 are absorbed into the Gauss-Jacobi weight so
        the remaining integrand is smooth.
        """
        c = self.normalization
        if of_gradient:
            # |grad eta| = r * (smooth, positive) for both profiles
            gamma = self.dim - 1 + alpha + s
            beta = _boundary_power(self.profile, self.k, s, of_gradient=True)
            r, w = _radial_rule(self.resolution, gamma, beta)
            if self.profile == "polynomial-bump":
                vals = (2.0 * self.k * c) ** s * (1.0 + r) ** ((self.k - 1) * s)
            else:
                t = 1.0 - r * r
                vals = (c * np.exp(-1.0 / t) * 2.0 / (t * t)) ** s
        else:
            gamma = self.dim - 1 + alpha
            beta = _boundary_power(self.profile, self.k, s, of_gradient=False)
            r, w = _radial_rule(self.resolution, gamma, beta)
            if self.profile == "polynomial-bump":
                vals = c**s * (1.0 + r) ** (self.k * s)
            else:
                vals = (c * np.exp(-1.0 / (1.0 - r * r))) ** s
        return sphere_surface(self.dim) * float(w @ vals)

    def mass(self) -> float:
        """Ball integral of eta at the mollifier's radial resolution."""
        return self.radial_moment(0.0, 1.0, of_gradient=False)

    # -- ball quadrature (tensor product in polar form) ----------------------

    def ball_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes (K, dim) and weights for smooth integrands over the ball."""
        return _ball_rule_cached(self.dim, self.resolution)


@lru_cache(maxsize=32)
def _ball_rule_cached(dim: int, n: int):
    r, wr = _radial_rule(n, dim - 1.0, 0.0)
    if dim == 1:
        nodes = np.concatenate([r, -r])[:, None]
        weights = np.concatenate([wr, wr])
    elif dim == 2:
        na = n + (n % 2)  # even count keeps the rule symmetric under z -> -z
        theta = 2.0 * math.pi * (np.arange(na) + 0.5) / na
        wa = 2.0 * math.pi / na
        ct, st = np.cos(theta), np.sin(theta)
        nodes = np.stack(
            [np.outer(r, ct).ravel(), np.outer(r, st).ravel()], axis=-1
        )
        weights = np.repeat(wr * wa, na)
    else:
        na = n + (n % 2)
        theta = 2.0 * math.pi * (np.arange(na) + 0.5) / na
        mu, wmu = gauss_jacobi(n, 0.0, 0.0)  # Gauss-Legendre in mu = cos(polar angle)
        smu = np.sqrt(1.0 - mu * mu)
        wa = 2.0 * math.pi / na
        xs, ys, zs, ws = [], [], [], []
        for ri, wri in zip(r, wr):
            for mi, wi, si in zip(mu, wmu, smu):
                xs.append(ri * si * np.cos(theta))
                ys.append(ri * si * np.sin(theta))
                zs.append(np.full_like(theta, ri * mi))
                ws.append(np.full_like(theta, wri * wi * wa))
        nodes = np.stack(
            [np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)], axis=-1
        )
        weights = np.concatenate(ws)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_POLY_DEFAULT_K = 2


def build_mollifier(
    profile: str,
    dim: int,
    resolution: int = defaults.MOLLIFIER_RESOLUTION,
    k: int | None = None,
) -> Mollifier:
    """Construct a unit-mass mollifier from the fixed two-profile catalog.

    The normalization for the polynomial bump is the Beta-function closed
    form; for the exponential bump it comes from the radial quadrature.  In
    both cases an independent evaluation at doubled resolution must agree to
    1e-10, otherwise construction fails.
    """
    if resolution < 64:
        raise ValueError("quadrature resolution must be at least 64 per axis")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if profile == "polynomial-bump":
        k = _POLY_DEFAULT_K if k is None else _whole(k, "k")
        if k < 2:
            raise ValueError("polynomial-bump needs k >= 2 for a C^1 profile")
        raw_mass = float(
            math.pi ** (dim / 2.0) * gamma_fn(k + 1) / gamma_fn(dim / 2.0 + k + 1)
        )
    elif profile == "exponential-bump":
        if k is not None:
            raise ValueError("exponential-bump takes no k parameter")
        probe = Mollifier(profile, dim, None, 1.0, resolution)
        raw_mass = probe.mass()
    else:
        raise ValueError(f"unknown mollifier profile {profile!r}")
    eta = Mollifier(profile, dim, k, 1.0 / raw_mass, resolution)
    check = Mollifier(profile, dim, k, eta.normalization, 2 * resolution).mass()
    if abs(check - 1.0) > 1e-10:
        raise ValueError(
            f"mollifier mass check failed: quadrature at doubled resolution "
            f"gives {check!r}"
        )
    return eta


def polynomial_moment_closed_form(
    eta: Mollifier, alpha: float, s: float, of_gradient: bool
) -> float:
    """Beta-function value of a radial moment (polynomial profile only)."""
    if eta.profile != "polynomial-bump":
        raise ValueError("closed form only for the polynomial bump")
    c, k, dim = eta.normalization, eta.k, eta.dim
    if of_gradient:
        a = dim - 1 + alpha + s
        b = (k - 1) * s
        coef = (2.0 * k * c) ** s
    else:
        a = dim - 1 + alpha
        b = k * s
        coef = c**s
    # int_0^1 r^a (1-r^2)^b dr = Beta((a+1)/2, b+1) / 2
    beta_val = beta_fn((a + 1) / 2.0, b + 1.0)
    return sphere_surface(dim) * coef * beta_val / 2.0


def hessian_moment(eta: Mollifier, q: float) -> float:
    """int |z|^{1/(q-1)} |grad eta|^{q/(q-1)} dz (needs q > 1)."""
    if not q > 1:
        raise ValueError("the hessian moment needs q > 1")
    return eta.radial_moment(1.0 / (q - 1.0), q / (q - 1.0), of_gradient=True)


def defect_moment(eta: Mollifier, p: float) -> float:
    """int |z|^{2/(p-2)} |eta|^{p/(p-2)} dz (needs p > 2).

    At p = 2 the exponent degenerates; that case is rejected rather than
    approximated.
    """
    if not p > 2:
        raise ValueError(
            "the defect moment is defined for p > 2 only; p = 2 is unsupported"
        )
    return eta.radial_moment(2.0 / (p - 2.0), p / (p - 2.0), of_gradient=False)


def energy_bound_coefficients(eta: Mollifier, q: float, p: float) -> tuple[float, float]:
    """(hessian_moment^(q-1), defect_moment^((p-2)/2)) for the upper bound."""
    return (
        hessian_moment(eta, q) ** (q - 1.0),
        defect_moment(eta, p) ** ((p - 2.0) / 2.0),
    )


def mollifier_d_eta(eta: Mollifier) -> float:
    """The cubic-exponent bound constant of the smoothing energy chain:

        D = (int |z|^{1/2} |grad eta|^{3/2} dz)^2 + (int |z|^2 eta^3 dz)^{1/2}
    """
    m1 = hessian_moment(eta, 3.0)
    m2 = defect_moment(eta, 3.0)
    return m1 * m1 + math.sqrt(m2)
