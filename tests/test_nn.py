"""nn.conv3 against a per-voxel oracle, and conv3_grads by the adjoint identity."""

import numpy as np
import pytest

from pointcarve import nn

# (grid, C_in, C_out, stride). The 26^3 and 18^3 grids span more than one
# row chunk of the C_in = 1 and the flat kernels, and several im2col slabs.
CASES = [
    ((4, 6, 8), 1, 3, 1),
    ((4, 6, 8), 3, 2, 1),
    ((4, 6, 8), 3, 16, 1),
    ((4, 6, 8), 24, 5, 1),
    ((4, 6, 8), 1, 3, 2),
    ((4, 6, 8), 3, 2, 2),
    ((4, 6, 8), 24, 5, 2),
    ((26, 26, 26), 1, 4, 1),
    ((18, 18, 18), 3, 4, 1),
    ((18, 18, 18), 24, 3, 2),
]


def brute_force_conv3(x, w, b, stride):
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    H, W, M, _ = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (1, 1), (0, 0)))
    out = np.empty((H // stride, W // stride, M // stride, w.shape[-1]))
    for i, j, k in np.ndindex(*out.shape[:3]):
        a, c, d = stride * i, stride * j, stride * k
        window = xp[a : a + 3, c : c + 3, d : d + 3]
        out[i, j, k] = np.tensordot(window, w, axes=4) + b
    return out


def make_case(rng, grid, cin, cout, stride, dtype):
    x = rng.standard_normal((*grid, cin)).astype(dtype)
    w = rng.standard_normal((3, 3, 3, cin, cout)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    out_grid = tuple(n // stride for n in grid)
    u = rng.standard_normal((*out_grid, cout)).astype(dtype)
    return x, w, b, u


def kernels(grid, cin, cout, stride):
    """The (conv3, conv3_grads) kernels a case runs."""
    x, w = np.empty((*grid, cin)), np.empty((3, 3, 3, cin, cout))
    forward = "flat" if nn._uses_flat(x, stride) else "im2col"
    if stride == 1 and cin == 1:
        return forward, "single-channel"
    if forward == "flat" and nn._flat_grads_waste(x, w) < nn.FLAT_GRADS_MAX_WASTE:
        return forward, "flat"
    return forward, "shifted"


def test_cases_cover_every_kernel():
    assert {kernels(g, cin, cout, s) for g, cin, cout, s in CASES} == {
        ("flat", "flat"), ("flat", "shifted"), ("im2col", "single-channel"), ("im2col", "shifted")
    }
    rows = {cin: nn._flat_rows(*g) for g, cin, _, s in CASES if s == 1 and g[0] > 4}
    assert rows[1] > nn.SINGLE_CHANNEL_CHUNK_ROWS and rows[3] > nn.FLAT_CHUNK_ROWS
    slab_x = [nn.IM2COL_SLAB_ELEMS // ((g[1] // s) * (g[2] // s) * 27 * cin) for g, cin, _, s in CASES]
    assert any(0 < n < g[0] // s for n, (g, _, _, s) in zip(slab_x, CASES))


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("grid,cin,cout,stride", CASES)
def test_conv3_matches_brute_force(grid, cin, cout, stride, dtype, rtol):
    rng = np.random.default_rng(cin * 100 + stride)
    x, w, b, _ = make_case(rng, grid, cin, cout, stride, dtype)
    out = nn.conv3(x, w, b, stride)
    ref = brute_force_conv3(x, w, b, stride)
    assert out.shape == ref.shape
    assert out.dtype == dtype
    assert np.abs(out - ref).max() <= rtol * np.abs(ref).max()


@pytest.mark.parametrize("grid,cin,cout,stride", CASES)
def test_conv3_grads_adjoint(grid, cin, cout, stride):
    rng = np.random.default_rng(7 + cin + stride)
    x, w, b, u = make_case(rng, grid, cin, cout, stride, np.float64)
    # conv3 - b is bilinear in (x, w): <conv3(x) - b, u> = <x, gx> = <w, gw>.
    lhs = float(np.vdot(nn.conv3(x, w, b, stride) - b, u))
    gx, gw, gb = nn.conv3_grads(x, w, u, stride)
    assert gx.shape == x.shape and gw.shape == w.shape
    scale = max(1.0, abs(lhs))
    assert abs(float(np.vdot(x, gx)) - lhs) <= 1e-10 * scale
    assert abs(float(np.vdot(w, gw)) - lhs) <= 1e-10 * scale
    np.testing.assert_allclose(gb, u.sum(axis=(0, 1, 2)), rtol=1e-12)
