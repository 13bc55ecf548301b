"""nn.conv3 against a per-voxel oracle, conv3_grads by the adjoint identity,
and the elementwise layers against their reference forms."""

import re

import numpy as np
import pytest

from pointcarve import nn

# (grid, C_in, C_out, stride). The 26^3 and 18^3 grids span more than one
# row chunk of the flat kernels, at C_in = 1 and 3, and several im2col slabs.
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


def kernels(cin, stride):
    """The (conv3, conv3_grads) kernels a layer runs."""
    if stride == 2:
        return "im2col", "shifted"
    return ("single-channel" if cin == 1 else "flat"), "flat"


def test_cases_cover_every_kernel():
    assert {kernels(cin, s) for _, cin, _, s in CASES} == {
        ("flat", "flat"), ("single-channel", "flat"), ("im2col", "shifted"),
    }
    # The flat backward also runs the wide stride-1 layers.
    assert any(s == 1 and cin > 1 and cout >= 16 for _, cin, cout, s in CASES)
    rows = {cin: nn._flat_rows(*g) for g, cin, _, s in CASES if s == 1 and g[0] > 4}
    assert rows[1] > nn.FLAT_CHUNK_ROWS and rows[3] > nn.FLAT_CHUNK_ROWS
    slab_x = [nn.IM2COL_SLAB_ELEMS // ((g[1] // s) * (g[2] // s) * 27 * cin) for g, cin, _, s in CASES]
    assert any(0 < n < g[0] // s for n, (g, _, _, s) in zip(slab_x, CASES))
    # The upsampled layers run every stride-1 kernel on their skip channels,
    # more than one slab of coarse x-planes, and planes longer than a chunk.
    assert {kernels(cs, 1) for _, _, cs, _ in UP_CASES} == {
        ("flat", "flat"), ("single-channel", "flat")
    }
    planes = [(g[1] + 2) * (g[2] + 2) for g, *_ in UP_CASES]
    assert any(max(1, nn.FLAT_CHUNK_ROWS // p) < g[0] for p, (g, *_) in zip(planes, UP_CASES))
    assert any(p > nn.FLAT_CHUNK_ROWS for p in planes)


@pytest.mark.parametrize("grid,cin,cout,stride", CASES)
def test_conv3_grads_runs_the_listed_kernel(grid, cin, cout, stride, monkeypatch):
    ran = []
    for name, label in (("_conv3_flat_grads", "flat"), ("_conv3_shifted_grads", "shifted")):
        def spy(*args, _kernel=getattr(nn, name), _label=label):
            ran.append(_label)
            return _kernel(*args)
        monkeypatch.setattr(nn, name, spy)
    x, w, _, u = make_case(np.random.default_rng(0), grid, cin, cout, stride, np.float32)
    nn.conv3_grads(x, w, u, stride)
    nn.conv3_grads(x, w, u, stride, input_grad=False)
    assert ran == [kernels(cin, stride)[1]] * 2


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


@pytest.mark.parametrize("grid,cin,cout,stride", CASES)
def test_conv3_grads_without_input_grad(grid, cin, cout, stride):
    rng = np.random.default_rng(11 + cin + stride)
    x, w, _, u = make_case(rng, grid, cin, cout, stride, np.float32)
    _, gw, gb = nn.conv3_grads(x, w, u, stride)
    gx_skipped, gw_only, gb_only = nn.conv3_grads(x, w, u, stride, input_grad=False)
    assert gx_skipped is None
    np.testing.assert_array_equal(gw_only, gw)
    np.testing.assert_array_equal(gb_only, gb)


def activation_inputs(dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 6, 7, 4)).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    x.flat[:6] = [0.0, -0.0, tiny, -tiny, np.finfo(dtype).max, -np.finfo(dtype).max]
    return x, rng.standard_normal(x.shape)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_equals_where_form(dtype):
    x, _ = activation_inputs(dtype)
    ref = np.where(x > 0, x, nn.LEAKY_SLOPE * x)
    out = nn.leaky_relu(x)
    assert out.dtype == ref.dtype
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("updtype", [np.float32, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_grad_equals_where_form(dtype, updtype):
    x, u = activation_inputs(dtype)
    u = u.astype(updtype)
    u.flat[6:8] = [0.0, -0.0]
    ref = u * np.where(x > 0, 1.0, nn.LEAKY_SLOPE).astype(x.dtype)
    out = nn.leaky_relu_grad(x, u)
    assert out.dtype == ref.dtype
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("shape", [(2, 4, 6, 3), (8, 8, 8, 16), (16, 16, 16, 8)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample2_concat_and_grad(shape, dtype):
    # conv3 with up= and its gradients equal conv3 of the explicit
    # concatenation [upsample2(y), skip], with the upsampling's adjoint
    # summing each coarse voxel's 8 fine copies.
    rng = np.random.default_rng(4)
    y, skip, w, b, u = make_up_case(rng, shape[:3], shape[3], 5, 4, dtype)
    ref, cat = upsampled_reference(y, skip, w, b)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    out = nn.conv3(skip, w, b, up=y)
    assert out.dtype == dtype
    assert np.abs(out - ref).max() <= tol * np.abs(ref).max()
    gx, gw, gb, gy = nn.conv3_grads(skip, w, u, up=y)
    g64 = nn.conv3_grads(cat, w.astype(np.float64), u.astype(np.float64))
    H, W, M, c = shape
    gy_ref = g64[0][..., :c].reshape(H, 2, W, 2, M, 2, c).sum(axis=(1, 3, 5))
    for got, want in ((gx, g64[0][..., c:]), (gw, g64[1]), (gb, g64[2]), (gy, gy_ref)):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


def test_gradcheck_conv3_covers_every_backward_kernel():
    from pointcarve.gradcheck import CONV3_CASES, check_conv3

    plain = [case[:4] for case in CONV3_CASES if not case[4]]
    upsampled = [case[:4] for case in CONV3_CASES if case[4]]
    assert {kernels(cin, s)[1] for _, cin, _, s in plain} == {"flat", "shifted"}
    assert {(s, min(cin, 2)) for _, cin, _, s in plain} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    # The flat backward at C_in = 1, with few output channels and wide.
    assert {(min(cin, 2), cout >= 16) for _, cin, cout, s in plain if s == 1} == {
        (1, False), (2, False), (2, True)
    }
    # With up=, the skip channels run the flat backward at C_in = 1 and >= 2.
    assert {kernels(cin, s)[1] for _, cin, _, s in upsampled} == {"flat"}
    assert {min(cin, 2) for _, cin, _, _ in upsampled} == {1, 2}
    result = check_conv3(seed=3, instances=len(CONV3_CASES))
    assert result.passed, f"max rel err {result.max_rel_err}"


def _halo_is_zero(inner):
    buf = inner.base
    mask = np.ones(buf.shape[:3], bool)
    mask[1:-1, 1:-1, 1:-1] = False
    return not buf[mask].any()


@pytest.mark.parametrize("grid,cin,cout,stride", CASES)
def test_conv3_on_padded_buffers_equals_plain_arrays(grid, cin, cout, stride):
    rng = np.random.default_rng(21 + cin + stride)
    x, w, b, u = make_case(rng, grid, cin, cout, stride, np.float32)
    xin = nn.padded(x.shape, x.dtype)
    xin[...] = x
    out = nn.padded(u.shape, x.dtype, "test.out")
    # Garbage from an earlier user of the workspace buffer is overwritten.
    out[...] = np.nan
    got = nn.conv3(xin, w, b, stride, out=out)
    assert got is out and _halo_is_zero(out)
    np.testing.assert_array_equal(out, nn.conv3(x, w, b, stride))
    up = nn.padded(u.shape, u.dtype)
    up[...] = u
    for plain, fed in zip(nn.conv3_grads(x, w, u, stride), nn.conv3_grads(xin, w, up, stride)):
        np.testing.assert_array_equal(plain, fed)
    np.testing.assert_array_equal(x, xin)


def test_conv3_rejects_strides_and_grids_it_cannot_run():
    w, b = np.ones((3, 3, 3, 2, 3)), np.zeros(3)
    odd = np.ones((5, 6, 4, 2))
    for call in (lambda: nn.conv3(odd, w, b, 2),
                 lambda: nn.conv3_grads(odd, w, np.ones((2, 3, 2, 3)), 2)):
        with pytest.raises(ValueError, match=r"even grid sides, got \(5, 6, 4\)"):
            call()
    x = np.ones((4, 4, 4, 2))
    for stride in (0, 3):
        for call in (lambda: nn.conv3(x, w, b, stride),
                     lambda: nn.conv3_grads(x, w, np.ones((4, 4, 4, 3)), stride)):
            message = rf"stride must be 1 or 2, got {stride} for grid \(4, 4, 4\)"
            with pytest.raises(ValueError, match=message):
                call()


def test_conv3_rejects_mis_shaped_out_and_upstream():
    # A (5, 5, 5, 3) out for a (4, 4, 4, 2) input used to return wrong values
    # (sum 4614 instead of 6000), and a (5, 5, 5, 3) upstream a wrong gradient.
    x, w, b = np.ones((4, 4, 4, 2)), np.ones((3, 3, 3, 2, 3)), np.zeros(3)
    assert nn.conv3(x, w, b).sum() == 6000
    w_up, y = np.ones((3, 3, 3, 3, 3)), np.ones((2, 2, 2, 1))

    def out(*shape):
        return nn.padded(shape, np.float64)

    cases = [
        (lambda: nn.conv3(x, w, b, out=out(5, 5, 5, 3)), "out", (4, 4, 4, 3), (5, 5, 5, 3)),
        (lambda: nn.conv3(x, w, b, out=out(4, 4, 3, 3)), "out", (4, 4, 4, 3), (4, 4, 3, 3)),
        (lambda: nn.conv3(x, w, b, 2, out=out(3, 3, 3, 3)), "out", (2, 2, 2, 3), (3, 3, 3, 3)),
        (lambda: nn.conv3(x, w_up, b, out=out(4, 4, 4, 2), up=y), "out", (4, 4, 4, 3), (4, 4, 4, 2)),
        (lambda: nn.conv3_grads(x, w, np.ones((5, 5, 5, 3))), "upstream", (4, 4, 4, 3), (5, 5, 5, 3)),
        (lambda: nn.conv3_grads(x, w, np.ones((4, 4, 4, 3)), 2), "upstream", (2, 2, 2, 3), (4, 4, 4, 3)),
        (lambda: nn.conv3_grads(x, w_up, np.ones((4, 4, 4, 2)), up=y),
         "upstream", (4, 4, 4, 3), (4, 4, 4, 2)),
    ]
    for call, role, expected, given in cases:
        message = f"conv3 {role} must have shape {expected}, got {given}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_conv3_flat_out_must_be_padded():
    x = np.ones((4, 4, 4, 3))
    with pytest.raises(ValueError, match="nn.padded"):
        nn.conv3(x, np.ones((3, 3, 3, 3, 2)), np.zeros(2), out=np.empty((4, 4, 4, 2)))


def test_interior_of_a_foreign_array_is_copied():
    # An interior view whose surroundings are not a padded buffer's zero halo.
    rng = np.random.default_rng(8)
    big = rng.standard_normal((6, 7, 8, 3))
    x = big[1:-1, 1:-1, 1:-1]
    w, b = rng.standard_normal((3, 3, 3, 3, 2)), np.zeros(2)
    np.testing.assert_allclose(nn.conv3(x, w, b), brute_force_conv3(x, w, b, 1), rtol=1e-12)


def test_workspace_is_per_key_and_per_thread():
    import threading

    # One buffer per (role, dtype): every shape of the role is a view of
    # it, and a larger request grows it.
    a = nn.workspace("test.ws", (3, 4), np.float32)
    assert a.shape == (3, 4)
    assert np.shares_memory(nn.workspace("test.ws", (2, 5), np.float32), a)
    big = nn.workspace("test.ws", (4, 4), np.float32)
    assert np.shares_memory(nn.workspace("test.ws", (3, 4), np.float32), big)
    assert not np.shares_memory(nn.workspace("test.ws", (3, 4), np.float64), big)
    assert not np.shares_memory(nn.workspace("test.ws2", (3, 4), np.float32), big)
    other = []
    t = threading.Thread(target=lambda: other.append(nn.workspace("test.ws", (3, 4), np.float32)))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert not np.shares_memory(other[0], big)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_in_place_and_across_slabs(dtype):
    x, _ = activation_inputs(dtype)
    ref = np.where(x > 0, x, nn.LEAKY_SLOPE * x)
    # More rows than one slab, and a padded interior run in place.
    long = np.repeat(x, 1 + nn.LEAKY_SLAB_ELEMS // x[:1].size, axis=0)
    np.testing.assert_array_equal(nn.leaky_relu(long), np.where(long > 0, long, nn.LEAKY_SLOPE * long))
    inner = nn.padded(x.shape, dtype)
    inner[...] = x
    assert nn.leaky_relu(inner, out=inner) is inner
    np.testing.assert_array_equal(inner, ref)
    np.testing.assert_array_equal(np.signbit(inner), np.signbit(ref))
    assert _halo_is_zero(inner)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_grad_reads_activation_or_pre_activation(dtype):
    x, u = activation_inputs(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    # Negative values whose scaled activation underflows to -0.
    x.flat[6:10] = [-tiny, -4 * tiny, -np.finfo(dtype).tiny, -0.0]
    act = nn.leaky_relu(x)
    assert np.signbit(act.flat[6]) and act.flat[6] == 0
    for ud in (np.float32, np.float64):
        up = u.astype(ud)
        np.testing.assert_array_equal(nn.leaky_relu_grad(act, up), nn.leaky_relu_grad(x, up))
        out = nn.padded(x.shape, np.result_type(x, up))
        nn.leaky_relu_grad(act, up, out=out)
        np.testing.assert_array_equal(out, nn.leaky_relu_grad(x, up))


@pytest.mark.parametrize("shape", [(40, 16, 16, 8), (3000, 64), (2, 300, 300, 1), (0, 4)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_grad_in_slabs_equals_the_whole_array_formula(shape, dtype):
    # Several slabs (or one row wider than a slab), with signed zeros in
    # every slab; a padded interior `out` keeps its halo zero.
    rng = np.random.default_rng(8)
    y = rng.standard_normal(shape).astype(dtype)
    y.flat[::7] = 0.0
    y.flat[3::7] = -0.0
    for ud in (np.float32, np.float64):
        up = rng.standard_normal(shape).astype(ud)
        ref = np.multiply(up, np.maximum(np.sign(y), nn.LEAKY_SLOPE))
        got = nn.leaky_relu_grad(y, up)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
        if len(shape) == 4:
            out = nn.padded(shape, ref.dtype)
            assert nn.leaky_relu_grad(y, up, out=out) is out
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
            assert _halo_is_zero(out)


def test_upsample2_concat_into_padded_buffer():
    # conv3 with up= writes only the interior of a garbage-filled padded
    # output and reads padded and plain inputs alike.
    rng = np.random.default_rng(9)
    y, skip, w, b, u = make_up_case(rng, (3, 4, 2), 2, 3, 5, np.float64)
    plain = nn.conv3(skip, w, b, up=y)
    yin, xin = nn.padded(y.shape, y.dtype), nn.padded(skip.shape, skip.dtype)
    yin[...], xin[...] = y, skip
    out = nn.padded(plain.shape, plain.dtype, "test.up_out")
    out[...] = np.nan
    assert nn.conv3(xin, w, b, out=out, up=yin) is out
    assert _halo_is_zero(out)
    np.testing.assert_array_equal(out, plain)
    up = nn.padded(u.shape, u.dtype)
    up[...] = u
    grads = nn.conv3_grads(skip, w, u, up=y)
    for got, want in zip(nn.conv3_grads(xin, w, up, up=yin), grads):
        np.testing.assert_array_equal(got, want)
    assert _halo_is_zero(grads[0]) and _halo_is_zero(grads[3])


# (coarse grid, C_up, C_skip, C_out). Grids are not cubes; the skip runs
# the flat backward at C_skip = 1 and >= 2, with up to 16 output channels;
# (9, 30, 30) spans three slabs of coarse x-planes and (2, 66, 64) planes
# longer than a chunk.
UP_CASES = [
    ((1, 1, 1), 1, 1, 1),
    ((2, 3, 4), 1, 2, 3),
    ((3, 2, 2), 4, 1, 2),
    ((2, 2, 3), 3, 5, 16),
    ((4, 3, 5), 7, 6, 4),
    ((9, 30, 30), 2, 2, 3),
    ((2, 66, 64), 1, 2, 2),
]


def make_up_case(rng, coarse, cup, cskip, cout, dtype):
    fine = tuple(2 * n for n in coarse)
    y = rng.standard_normal((*coarse, cup)).astype(dtype)
    skip = rng.standard_normal((*fine, cskip)).astype(dtype)
    w = rng.standard_normal((3, 3, 3, cup + cskip, cout)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    u = rng.standard_normal((*fine, cout)).astype(dtype)
    return y, skip, w, b, u


def upsampled_reference(y, skip, w, b):
    """conv3 in float64 over the explicit [upsample2(y), skip], and that input."""
    y, skip, w, b = (a.astype(np.float64) for a in (y, skip, w, b))
    cat = np.concatenate([y.repeat(2, axis=0).repeat(2, axis=1).repeat(2, axis=2), skip], axis=-1)
    return nn.conv3(cat, w, b), cat


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("coarse,cup,cskip,cout", UP_CASES)
def test_upsampled_conv3_matches_reference(coarse, cup, cskip, cout, dtype, rtol):
    rng = np.random.default_rng(cup * 10 + cskip)
    y, skip, w, b, _ = make_up_case(rng, coarse, cup, cskip, cout, dtype)
    ref, _ = upsampled_reference(y, skip, w, b)
    out = nn.conv3(skip, w, b, up=y)
    assert out.shape == ref.shape and out.dtype == dtype
    assert np.abs(out - ref).max() <= rtol * np.abs(ref).max()
    assert _halo_is_zero(out)


@pytest.mark.parametrize("coarse,cup,cskip,cout", UP_CASES)
def test_upsampled_conv3_grads_match_reference(coarse, cup, cskip, cout):
    rng = np.random.default_rng(cup + cskip + cout)
    y, skip, w, b, u = make_up_case(rng, coarse, cup, cskip, cout, np.float64)
    _, cat = upsampled_reference(y, skip, w, b)
    gcat, gw_ref, gb_ref = nn.conv3_grads(cat, w, u)
    gy_ref = gcat[..., :cup].reshape(coarse[0], 2, coarse[1], 2, coarse[2], 2, cup).sum(axis=(1, 3, 5))
    gx, gw, gb, gy = nn.conv3_grads(skip, w, u, up=y)
    for got, want in ((gx, gcat[..., cup:]), (gw, gw_ref), (gb, gb_ref), (gy, gy_ref)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    gx_skipped, gw_only, gb_only, gy_skipped = nn.conv3_grads(skip, w, u, up=y, input_grad=False)
    assert gx_skipped is None and gy_skipped is None
    np.testing.assert_array_equal(gw_only, gw)
    np.testing.assert_array_equal(gb_only, gb)


def test_upsampled_conv3_rejects_mismatched_inputs():
    y, skip = np.ones((2, 2, 2, 3)), np.ones((4, 4, 4, 2))
    w, b = np.ones((3, 3, 3, 5, 2)), np.zeros(2)
    with pytest.raises(ValueError, match="stride 1"):
        nn.conv3(skip, w, b, stride=2, up=y)
    with pytest.raises(ValueError, match="half"):
        nn.conv3(skip, w, b, up=np.ones((2, 2, 3, 3)))
    with pytest.raises(ValueError, match="input channels"):
        nn.conv3_grads(skip, np.ones((3, 3, 3, 4, 2)), np.ones((4, 4, 4, 2)), up=y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1_channels_first_is_bit_equal(dtype):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((8, 6, 4, 8)).astype(dtype)
    w = rng.standard_normal((8, 27)).astype(dtype)
    b = rng.standard_normal(27).astype(dtype)
    planes = nn.conv1(x, w, b)
    assert planes.shape == (27, 8, 6, 4) and planes.flags.c_contiguous
    rows = nn.linear(x.reshape(-1, 8), w, b)
    np.testing.assert_array_equal(np.moveaxis(planes, 0, -1), rows.reshape(8, 6, 4, 27))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_writes_into_out_bit_equal(dtype):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((9, 5)).astype(dtype)
    w = rng.standard_normal((5, 7)).astype(dtype)
    b = rng.standard_normal(7).astype(dtype)
    buf = np.full((12, 7), np.nan, dtype)
    got = nn.linear(x, w, b, out=buf[2:11])
    assert np.shares_memory(got, buf)
    np.testing.assert_array_equal(got, nn.linear(x, w, b))
    np.testing.assert_array_equal(got, x @ w + b)
    assert np.isnan(buf[:2]).all() and np.isnan(buf[11:]).all()


# (FLAT_CHUNK_ROWS, chunks of lag) on a (6, 4, 8) grid: a chunk's output rows
# sit c = 71 rows past its first input row, so the flat kernel commits each
# chunk 1, 1 (c equal to the chunk), 2 and 5 chunks late; 338 rows leave
# every last chunk partial.
IN_PLACE_CHUNKS = [(80, 1), (71, 1), (40, 2), (16, 5)]


@pytest.mark.parametrize("with_up", [True, False])
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("chunk,lag", IN_PLACE_CHUNKS)
def test_conv3_over_its_own_input_equals_out_of_place(
    chunk, lag, dtype, rtol, with_up, monkeypatch
):
    monkeypatch.setattr(nn, "FLAT_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(chunk)
    y, skip, w, b, _ = make_up_case(rng, (3, 2, 4), 3, 4, 4, dtype)
    Hp, Wp, Mp = (n + 2 for n in skip.shape[:3])
    offsets, rows = nn._flat_layout(np.empty((Hp, Wp, Mp, 1)))[1:]
    assert -(-offsets[13] // chunk) == lag and rows % chunk
    if not with_up:
        y, w = None, w[..., 3:, :]
    x = nn.padded(skip.shape, dtype)
    x[...] = skip
    want = nn.conv3(skip, w, b, up=y)
    got = nn.conv3(x, w, b, out=x, up=y)
    assert got is x and _halo_is_zero(x)
    np.testing.assert_array_equal(got, want)
    # Across slabs of one coarse x-plane, each parity added on its own.
    ref = brute_force_conv3(skip, w, b, 1) if y is None else upsampled_reference(y, skip, w, b)[0]
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


def test_conv3_rejects_aliasing_it_cannot_run():
    def buffer(*shape):
        out = nn.padded(shape, np.float64)
        out[...] = 1.0
        return out

    b2 = np.zeros(2)
    stem = buffer(4, 4, 4, 1)
    x = buffer(4, 4, 4, 2)
    wide = buffer(4, 4, 4, 3)
    cases = [
        # The single-channel stem kernel, written over its input.
        (lambda: nn.conv3(stem, np.ones((3, 3, 3, 1, 1)), np.zeros(1), out=stem), "x"),
        # Stride 2 into a corner of its own input.
        (lambda: nn.conv3(x, np.ones((3, 3, 3, 2, 2)), b2, 2, out=x[:2, :2, :2]), "x"),
        # The flat kernel into a buffer x is only some channels of.
        (lambda: nn.conv3(wide[..., :2], np.ones((3, 3, 3, 2, 3)), np.zeros(3), out=wide), "x"),
        # Any overlap with up, even with x itself allowed.
        (lambda: nn.conv3(x, np.ones((3, 3, 3, 4, 2)), b2, out=x, up=x[:2, :2, :2]), "up"),
    ]
    for call, role in cases:
        with pytest.raises(ValueError, match=f"share memory with {role}"):
            call()
    for arr in (stem, x, wide):
        np.testing.assert_array_equal(arr, 1.0)
