"""mollify against a direct shift-and-add lattice sum on tiny grids, and bit
for bit against the batched seven-channel transform it replaced, on the
gradient and Hessian channels (mollify no longer smooths psi itself)."""

import math

import numpy as np
import pytest

from bvqlab import (
    DomainMask,
    Grid,
    GridRadius,
    SampledField,
    build_mollifier,
    make_field,
    mollify,
    sample_analytic,
    sample_gradient,
)
from bvqlab.kernels import lattice_offsets, resolve_radius
from conftest import _oracle

# float64 FFT rounding, relative to the largest magnitude of each output
RTOL = 1e-12


def _disc(grid, radius):
    c = 0.5 * (np.asarray(grid.origin) + np.asarray(grid.upper))
    return DomainMask.from_predicate(grid, lambda p: np.linalg.norm(p - c, axis=-1) < radius)


def _cases():
    line = Grid.for_box([-1.0], [1.0], [64])
    square = Grid.for_box([0.0, 0.0], [1.0, 1.0], [32, 32])
    roof = make_field("pyramid-eikonal", lo=(-1.0,), hi=(1.0,))
    pyramid = make_field("pyramid-eikonal")
    cone = make_field("cone-eikonal")
    h1, h2 = line.spacing, square.spacing
    return {
        "1d-full-int": (roof, DomainMask.full(line), 8 * h1),
        "1d-full-frac": (roof, DomainMask.full(line), 9.4 * h1),
        "1d-full-gridradius": (roof, DomainMask.full(line), GridRadius(90)),
        "2d-full-int": (pyramid, DomainMask.full(square), 8 * h2),
        "2d-disc-frac": (cone, _disc(square, 0.45), 8.6 * h2),
        "2d-disc-gridradius": (pyramid, _disc(square, 0.48), GridRadius(70)),
    }


@pytest.mark.parametrize("case", list(_cases()))
def test_mollify_matches_shift_and_add(case):
    spec, mask, eps = _cases()[case]
    psi, grad = sample_analytic(spec, mask), sample_gradient(spec, mask)
    eta = build_mollifier("polynomial-bump", mask.grid.dim, k=2)
    mf = mollify(grad, eta, eps)
    ins = mf.inner.inside
    for got, ref in zip((mf.grad, mf.hess), _oracle(psi, grad, eta, eps)[1:]):
        scale = np.abs(ref[ins]).max()
        assert scale > 0
        assert np.abs(got[ins] - ref[ins]).max() <= RTOL * scale
        assert not got[~ins].any()  # zero outside the inner mask


@pytest.mark.parametrize("bad", [math.nan, 1e300])
def test_values_outside_mask_never_reach_the_transform(bad):
    grid = Grid.for_box([0.0, 0.0], [1.0, 1.0], [48, 48])
    mask = _disc(grid, 0.45)
    spec = make_field("cone-eikonal")
    clean_grad = sample_gradient(spec, mask)
    # the gradient carries ``bad`` at every outside cell
    grads = np.array(clean_grad.values)
    grads[~mask.inside] = bad
    dirty_grad = SampledField(mask, grads, d=2)
    eta = build_mollifier("polynomial-bump", 2, k=2)
    eps = 8 * grid.spacing
    ref = mollify(clean_grad, eta, eps)
    got = mollify(dirty_grad, eta, eps, inner=ref.inner)
    for a, b in ((got.grad, ref.grad), (got.hess, ref.hess)):
        assert np.isfinite(a).all()
        assert np.array_equal(a, b)


def _batched_mollify(psi, grad, eta, eps, inner=None):
    """(psi_eps, grad psi_eps, hess psi_eps) from one batched transform.

    The earlier ``mollify`` body: every input channel and every kernel
    channel in one spectrum each, all 1 + N + N^2 products in one spectrum
    and one batched inverse.  ``mollify`` must equal it bit for bit.
    """
    n = psi.grid.dim
    h = psi.grid.spacing
    m2, eps_len = resolve_radius(eps, h)
    if inner is None:
        inner = psi.mask.erode(eps_len)
    offs = np.concatenate([np.zeros((1, n), dtype=int), lattice_offsets(n, m2)[0]])
    z = offs * (h / eps_len)
    w = eta.value(z)
    weights = np.concatenate(
        [(w / w.sum())[:, None], eta.gradient(z) * (h / eps_len) ** n], axis=1
    )
    f = np.concatenate([psi.values[..., :1], grad.values], axis=-1)
    f[~psi.mask.inside] = 0.0
    m = math.isqrt(m2)
    shape = tuple(e + 2 * m for e in psi.grid.extents)
    axes = tuple(range(n))
    kern = np.zeros(shape + (1 + n,))
    kern[tuple((-offs % shape).T)] = weights
    f_hat = np.fft.rfftn(f, s=shape, axes=axes)
    k_hat = np.fft.rfftn(kern, axes=axes)
    prod = np.empty(f_hat.shape[:-1] + (1 + n + n * n,), dtype=complex)
    np.multiply(f_hat, k_hat[..., :1], out=prod[..., : 1 + n])
    hess = prod[..., 1 + n :].reshape(f_hat.shape[:-1] + (n, n))
    np.multiply(k_hat[..., 1:, None], f_hat[..., None, 1:], out=hess)
    np.negative(hess, out=hess)
    out = np.fft.irfftn(prod, s=shape, axes=axes)[tuple(slice(e) for e in psi.grid.extents)]
    out[~inner.inside] = 0.0
    full_hess = out[..., 1 + n :].reshape(psi.grid.extents + (n, n)) / eps_len
    return out[..., 0], out[..., 1 : 1 + n], full_hess


def _bit_cases():
    line = Grid.for_box([-1.0], [1.0], [96])
    square = Grid.for_box([0.0, 0.0], [1.0, 1.0], [40, 40])
    cube = Grid.for_box([0.0] * 3, [1.0] * 3, [16, 16, 16])
    roof = make_field("pyramid-eikonal", lo=(-1.0,), hi=(1.0,))
    return {
        "1d-full": (roof, DomainMask.full(line), 9.4 * line.spacing),
        "1d-eroded": (roof, DomainMask.full(line).erode(5 * line.spacing), GridRadius(64)),
        "2d-full": (make_field("pyramid-eikonal"), DomainMask.full(square), 7 * square.spacing),
        "2d-eroded": (
            make_field("cone-eikonal"),
            DomainMask.full(square).erode(3 * square.spacing),
            6.5 * square.spacing,
        ),
        "3d-full": (make_field("pyramid-eikonal", lo=(0.0,) * 3, hi=(1.0,) * 3), DomainMask.full(cube), 3 * cube.spacing),
        "3d-eroded": (
            make_field("cone-eikonal", center=(0.5,) * 3),
            DomainMask.full(cube).erode(cube.spacing),
            GridRadius(8),
        ),
    }


@pytest.mark.parametrize("explicit_inner", [False, True])
@pytest.mark.parametrize("case", list(_bit_cases()))
def test_mollify_equals_the_batched_transform_bit_for_bit(case, explicit_inner):
    spec, mask, eps = _bit_cases()[case]
    psi, grad = sample_analytic(spec, mask), sample_gradient(spec, mask)
    eta = build_mollifier("polynomial-bump", mask.grid.dim, k=2)
    inner = None
    if explicit_inner:  # eroded one cell more than eps needs
        inner = mask.erode(resolve_radius(eps, mask.grid.spacing)[1] + mask.grid.spacing)
    mf = mollify(grad, eta, eps, inner, kappa=2.0)  # small grids: eps from 2 cells
    ref = _batched_mollify(psi, grad, eta, eps, inner)
    for got, want in zip((mf.grad, mf.hess), ref[1:]):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
