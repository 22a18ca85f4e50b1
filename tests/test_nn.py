import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from nets import five_pool_net, unet_net
from oracles import loop_maxpool, naive_conv3d, tapwise_conv3d
from wmhkit.errors import ShapeMismatch, UnknownConcatSource
from wmhkit import layers, network
from wmhkit.layers import (
    BatchNorm,
    Concat,
    Conv3D,
    MaxPool,
    ReLU,
    Softmax,
    UpsampleNearest,
    apply_layer,
)
from wmhkit.ensemble import tiled_forward
from wmhkit.network import NetworkSpec, forward, infer_shapes
from wmhkit.volume import Volume3D


def _conv(cout, cin, k, stride=(1, 1, 1), padding=(0, 0, 0), rng=None, weight=None, bias=None):
    if rng is not None:
        w = rng.normal(size=(cout, cin, k, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
    else:
        w = np.full((cout, cin, k, k, k), weight, dtype=np.float32)
        b = np.full(cout, bias, dtype=np.float32)
    return Conv3D(weights=w, bias=b, stride=stride, padding=padding)


# (cin, cout, kernel, stride, padding, spatial) of convs whose depth planes cycle
# through the accumulators, strides 1 to 4
_PLANE_CASES = [
    (3, 4, (3, 3, 3), (2, 1, 1), (1, 1, 1), (13, 7, 9)),  # sd = 2: two accumulators, 7 outputs
    (2, 3, (3, 3, 3), (1, 2, 2), (2, 0, 1), (9, 8, 7)),  # two padding planes at each end
    (2, 3, (5, 3, 1), (1, 1, 1), (2, 1, 0), (11, 6, 5)),  # kd = 5: five accumulators, 11 outputs
    (3, 2, (2, 2, 3), (3, 2, 1), (1, 0, 1), (20, 5, 6)),  # sd > kd: planes no output reads
    (2, 2, (1, 1, 1), (1, 1, 1), (1, 0, 1), (4, 3, 5)),  # padded 1^3 kernel
    (3, 4, (3, 3, 3), (2, 2, 1), (0, 1, 1), (13, 6, 5)),  # sd = 2, no depth padding
    (3, 4, (2, 3, 3), (3, 1, 1), (1, 1, 1), (16, 5, 6)),  # sd > kd: one accumulator
    (3, 4, (1, 3, 3), (4, 1, 1), (2, 1, 1), (20, 5, 6)),  # sd > kd, padding planes some outputs read
    (2, 3, (5, 2, 3), (2, 1, 1), (2, 0, 1), (17, 4, 5)),  # sd = 2, kd = 5: odd planes' 2 taps wrap a ring of 3
]


class TestConv3D:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        out = apply_layer(x, _conv(1, 1, 1, weight=1.0, bias=0.0))
        assert np.array_equal(out, x)

    def test_constant_field_sum(self):
        x = np.full((1, 5, 5, 5), 7.0, dtype=np.float32)
        out = apply_layer(x, _conv(1, 1, 3, padding=(1, 1, 1), weight=1.0, bias=0.0))
        assert out.shape == (1, 5, 5, 5)
        assert out[0, 2, 2, 2] == pytest.approx(189.0)  # 27 * 7

    def test_matches_naive_oracle_strided(self, rng):
        x = rng.normal(size=(2, 6, 6, 6)).astype(np.float32)
        p = _conv(3, 2, 3, stride=(2, 2, 2), padding=(1, 1, 1), rng=rng)
        got = apply_layer(x, p)
        want = naive_conv3d(x, p.weights, p.bias, p.stride, p.padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_channel_mismatch(self, rng):
        x = rng.normal(size=(3, 4, 4, 4)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            apply_layer(x, _conv(1, 2, 1, rng=rng))

    def test_kernel_too_large(self, rng):
        x = rng.normal(size=(1, 2, 2, 2)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            apply_layer(x, _conv(1, 1, 3, rng=rng))

    def test_deterministic(self, rng):
        x = rng.normal(size=(2, 5, 5, 5)).astype(np.float32)
        p = _conv(4, 2, 3, padding=(1, 1, 1), rng=rng)
        a = apply_layer(x, p)
        b = apply_layer(x, p)
        assert np.array_equal(a, b)


def _rel_err(got, want):
    return float(np.max(np.abs(got.astype(np.float64) - want)) / np.max(np.abs(want)))


class TestConvAtScale:
    """The GEMM kernel against the per-tap kernel on U-Net-sized layers."""

    @pytest.mark.parametrize(
        "cin, cout, k, stride, padding, spatial",
        [
            (1, 3, 3, (1, 1, 1), (1, 1, 1), (5, 6, 7)),
            (2, 3, 3, (2, 1, 2), (0, 1, 1), (7, 6, 5)),
            (3, 2, 2, (1, 2, 1), (1, 0, 0), (4, 5, 6)),
            (4, 2, 1, (1, 1, 1), (1, 0, 1), (3, 4, 5)),
        ],
    )
    def test_tapwise_oracle_matches_naive(self, rng, cin, cout, k, stride, padding, spatial):
        x = rng.normal(size=(cin, *spatial)).astype(np.float32)
        p = _conv(cout, cin, k, stride=stride, padding=padding, rng=rng)
        got = tapwise_conv3d(x, p.weights, p.bias, stride, padding)
        want = naive_conv3d(x, p.weights, p.bias, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "cin, cout, k, stride, padding, spatial",
        [
            (32, 16, 3, (1, 1, 1), (1, 1, 1), (49, 48, 48)),
            (16, 16, 3, (2, 2, 2), (1, 1, 1), (33, 32, 32)),
            (16, 2, 1, (1, 1, 1), (0, 0, 0), (32, 32, 32)),  # pointwise path
            (16, 4, 1, (2, 2, 2), (0, 0, 0), (32, 32, 32)),  # 1^3 kernel, strided: plane path
        ],
    )
    def test_matches_tapwise_kernel(self, rng, cin, cout, k, stride, padding, spatial):
        x = rng.normal(size=(cin, *spatial)).astype(np.float32)
        p = _conv(cout, cin, k, stride=stride, padding=padding, rng=rng)
        got = apply_layer(x, p)
        want = tapwise_conv3d(x, p.weights, p.bias, stride, padding)
        assert got.shape == want.shape and got.dtype == np.float32
        assert _rel_err(got, want) < 1e-6
        print(f"conv {cin}->{cout} k{k} stride {stride} on {spatial}: "
              f"bit-identical to the per-tap kernel: {np.array_equal(got, want)}")

    @pytest.mark.parametrize("cin, cout, kernel, stride, padding, spatial", _PLANE_CASES)
    def test_plane_ring_cycles(self, rng, cin, cout, kernel, stride, padding, spatial):
        # every case has more output planes than kd + sd, so each of the ceil(kd / sd)
        # accumulators of the cycle serves several output planes
        kd, sd = kernel[0], stride[0]
        x = rng.normal(size=(cin, *spatial)).astype(np.float32)
        p = Conv3D(weights=rng.normal(size=(cout, cin, *kernel)), bias=rng.normal(size=cout),
                   stride=stride, padding=padding)
        got = apply_layer(x, p)
        assert got.shape[1] > kd + sd
        assert _rel_err(got, tapwise_conv3d(x, p.weights, p.bias, stride, padding)) < 1e-6

    def test_no_whole_volume_copy(self, rng):
        # a float64 copy of the padded input would alone exceed the float64 size of the input
        x = rng.normal(size=(32, 48, 48, 48)).astype(np.float32)
        p = _conv(8, 32, 3, padding=(1, 1, 1), rng=rng)
        tracemalloc.start()
        try:
            apply_layer(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.size * 8

    def test_transient_memory_is_a_plane_column(self, rng):
        # beyond its float32 output, a conv with Cin kw >= 64 holds its bands'
        # padded input rows (float32, each band's rows and its kh - 1 row halo
        # at the padded pitch), those rows lowered over (Cin, kw) only (float64)
        # and each band's ring of kd float64 accumulators at the padded pitch;
        # the rest (its weight matrices, numpy's cast buffers) is in the 30%. A
        # (Cin, kh, kw) plane-column and partial sums would take 2.5 times the three
        x = rng.normal(size=(32, 48, 48, 48)).astype(np.float32)
        p = _conv(8, 32, 3, padding=(1, 1, 1), rng=rng)
        tracemalloc.start()
        try:
            out = apply_layer(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cout, cin, kd, kh, kw = p.weights.shape
        _, _, ho, wo = out.shape
        wp = x.shape[3] + 2
        rows = ho + len(layers._bands(ho, wo)) * (kh - 1)
        assert peak < out.nbytes + 1.3 * (4 * cin * rows * wp + 8 * cin * kw * rows * wp + 8 * kd * cout * ho * wp)

    def test_output_plane_of_padding_only_is_its_bias(self, rng):
        # kd = 2, pd = 3 over 2 planes: output planes 0, 1, 5 and 6 read only zero padding
        x = rng.normal(size=(3, 2, 5, 6)).astype(np.float32)
        p = Conv3D(weights=rng.normal(size=(4, 3, 2, 3, 3)), bias=rng.normal(size=4),
                   padding=(3, 1, 1))
        got = apply_layer(x, p)
        assert got.shape[1] == 7
        for z in (0, 1, 5, 6):
            assert (got[:, z] == p.bias[:, None, None]).all()
        assert _rel_err(got, tapwise_conv3d(x, p.weights, p.bias, p.stride, p.padding)) < 1e-6

    @pytest.mark.parametrize("k, stride, padding", [(3, (1, 1, 1), (1, 1, 1)), (1, (1, 1, 1), (0, 0, 0))])
    def test_non_contiguous_input(self, rng, k, stride, padding):
        base = rng.normal(size=(20, 8, 24, 12)).astype(np.float32)
        x = base[2:18:2, :, ::2].transpose(0, 3, 2, 1)  # (8, 12, 12, 8), no contiguous axis order
        assert not x.flags["C_CONTIGUOUS"] and not x.flags["F_CONTIGUOUS"]
        p = _conv(5, 8, k, stride=stride, padding=padding, rng=rng)
        got = apply_layer(x, p)
        assert np.array_equal(got, apply_layer(np.ascontiguousarray(x), p))
        assert _rel_err(got, tapwise_conv3d(x, p.weights, p.bias, stride, padding)) < 1e-6


def _several_runs(rng, channels=3, spatial=(40, 41, 42), special=()):
    """A float32 tensor of normal values, with the ``special`` values at some voxels."""
    x = rng.normal(scale=3.0, size=(channels, *spatial)).astype(np.float32)
    if special:
        flat = x.reshape(-1)
        at = rng.choice(flat.size, size=40, replace=False)
        flat[at] = np.resize(np.array(special, dtype=np.float32), at.size)
    return x


# infinities and signed zeros; NaN is pinned apart, as outputs that hold it never compare equal
_SPECIAL = (np.inf, -np.inf, 0.0, -0.0)


def _running_max(x, layer):
    """MaxPool's former kernel: a running np.maximum over the taps, in order."""
    _, do, ho, wo = layer.out_shape(x.shape, {})
    (sd, sh, sw), out = layer.stride, None
    for a, b, c in product(*map(range, layer.kernel)):
        tap = x[:, a : a + sd * do : sd, b : b + sh * ho : sh, c : c + sw * wo : sw]
        out = tap.copy() if out is None else np.maximum(out, tap, out=out)
    return out


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(
        got.view(np.uint32), want.view(np.uint32))


class _CountingPool:
    """Stands in for the conv pool: three threads, whatever the core count,
    and a count of the tasks it was given."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=3)
        self.tasks = 0

    def submit(self, fn, *args):
        self.tasks += 1
        return self.pool.submit(fn, *args)


class TestBands:
    """Work spread over the pool gives the same bits on 1, 2 or 3 workers: the
    conv's bands of output rows, with the shipped band size and with one-row
    bands, and the other kernels' runs and channels."""

    @pytest.fixture(params=[layers._BAND_COLS, 1], ids=["shipped bands", "one-row bands"])
    def at_workers(self, request, monkeypatch):
        monkeypatch.setattr(layers, "_BAND_COLS", request.param)

        def run(fn):
            outs = []
            for n in (1, 2, 3):
                pool = _CountingPool()
                monkeypatch.setattr(layers, "POOL", pool)
                monkeypatch.setattr(layers, "_workers", lambda: n)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)  # workers switch often, so a shared write would show
                try:
                    outs.append(fn())
                finally:
                    sys.setswitchinterval(interval)
                    pool.pool.shutdown()
                assert (pool.tasks > 0) == (n > 1)
            for out in outs[1:]:
                assert out.dtype == outs[0].dtype and np.array_equal(out, outs[0])
            return outs[0]

        return run

    @pytest.mark.parametrize(
        "cin, cout, kernel, stride, padding, spatial",
        # the last case pads beyond its kernel, so some bands read only padding rows
        [*_PLANE_CASES, (2, 3, (1, 2, 2), (1, 1, 2), (0, 4, 5), (3, 3, 4))],
    )
    def test_plane_cases(self, rng, at_workers, cin, cout, kernel, stride, padding, spatial):
        x = rng.normal(size=(cin, *spatial)).astype(np.float32)
        p = Conv3D(weights=rng.normal(size=(cout, cin, *kernel)), bias=rng.normal(size=cout),
                   stride=stride, padding=padding)
        got = at_workers(lambda: apply_layer(x, p))
        assert _rel_err(got, tapwise_conv3d(x, p.weights, p.bias, stride, padding)) < 1e-6

    @pytest.mark.parametrize("seed", range(24))
    def test_random_kernels_match_tapwise(self, at_workers, seed):
        # one case in three is lowered by kernel row (in-plane stride 1 and Cin
        # kw >= 64), one in three is one kernel row tall with an in-plane stride
        # (half of them with Cin kw >= 64 too), the rest any kernel and stride
        rng = np.random.default_rng(seed)
        kernel, stride = rng.integers(1, 5, size=3), rng.integers(1, 4, size=3)
        cin = int(rng.integers(1, 33))
        if seed % 3 == 0:
            stride[1:] = 1
            kernel[2] = max(2, kernel[2])
        elif seed % 3 == 1:
            kernel[1] = 1
            stride[1 + seed % 2] = rng.integers(2, 4)
        if seed % 3 == 0 or seed % 6 == 1:
            cin = -(-64 // int(kernel[2])) + int(rng.integers(0, 8))
        kernel, stride = tuple(map(int, kernel)), tuple(map(int, stride))
        # at least two output planes, rows and columns, and never the pointwise path
        padding = tuple(int(rng.integers(0, k + 1)) for k in kernel)
        padding = (max(padding[0], (kernel, stride) == ((1, 1, 1), (1, 1, 1))), *padding[1:])
        x = rng.normal(size=(cin, *(int(rng.integers(k + s, 15)) for k, s in zip(kernel, stride))))
        x = x.astype(np.float32)
        cout = int(rng.integers(1, 7))
        p = Conv3D(weights=rng.normal(size=(cout, cin, *kernel)), bias=rng.normal(size=cout), stride=stride,
                   padding=padding)
        got = at_workers(lambda: apply_layer(x, p))
        assert _rel_err(got, tapwise_conv3d(x, p.weights, p.bias, stride, padding)) < 1e-6

    @pytest.mark.parametrize("cin, cout, kernel, stride, padding, spatial", [
        (32, 16, (3, 3, 3), (1, 1, 1), (1, 1, 1), (12, 20, 17)),  # lowered by kernel row
        (16, 16, (3, 3, 3), (2, 2, 2), (1, 1, 1), (13, 16, 15)),  # K = 432: BLAS splits the reduction
        *_PLANE_CASES[:3],
    ])
    def test_gemm_fallback_gives_the_same_bits(self, rng, at_workers, monkeypatch, cin, cout, kernel, stride,
                                               padding, spatial):
        # without numpy's cblas_dgemm each GEMM goes to np.matmul into a scratch
        # buffer and is added into the accumulators
        x = rng.normal(size=(cin, *spatial)).astype(np.float32)
        p = Conv3D(weights=rng.normal(size=(cout, cin, *kernel)), bias=rng.normal(size=cout), stride=stride,
                   padding=padding)
        want = at_workers(lambda: apply_layer(x, p))
        monkeypatch.setattr(layers, "_dgemm", lambda: None)
        assert _same_bits(at_workers(lambda: apply_layer(x, p)), want)

    def test_output_plane_of_padding_only(self, rng, at_workers):
        x = rng.normal(size=(3, 2, 5, 6)).astype(np.float32)
        p = Conv3D(weights=rng.normal(size=(4, 3, 2, 3, 3)), bias=rng.normal(size=4), padding=(3, 1, 1))
        got = at_workers(lambda: apply_layer(x, p))
        for z in (0, 1, 5, 6):
            assert (got[:, z] == p.bias[:, None, None]).all()

    def test_non_contiguous_input(self, rng, at_workers):
        base = rng.normal(size=(20, 8, 24, 12)).astype(np.float32)
        x = base[2:18:2, :, ::2].transpose(0, 3, 2, 1)
        p = _conv(5, 8, 3, padding=(1, 1, 1), rng=rng)
        got = at_workers(lambda: apply_layer(x, p))
        assert _rel_err(got, tapwise_conv3d(x, p.weights, p.bias, p.stride, p.padding)) < 1e-6

    def test_unet_forward(self, rng, at_workers):
        net = unet_net(rng, 1, 4)
        x = rng.normal(size=(1, 16, 16, 16)).astype(np.float32)
        at_workers(lambda: forward(net, x))

    # The other kernels run over runs of _RUN_BYTES // 8 voxels or over channels
    # on the same pool. Each test compares one kernel, bit for bit, with the
    # whole-tensor formula it replaced, on 3 channels of 40 x 41 x 42 voxels:
    # two full runs and a short last one.

    def test_batchnorm_kernel(self, rng, at_workers):
        x = _several_runs(rng)
        g, b, m = (rng.normal(size=3).astype(np.float32) for _ in range(3))
        v = rng.uniform(0.1, 3.0, size=3).astype(np.float32)
        layer = BatchNorm(gamma=g, beta=b, mean=m, var=v, eps=1e-3)
        g, b, m, v = (a.astype(np.float64).reshape(3, 1, 1, 1) for a in (g, b, m, v))
        want = (g * (x - m) / np.sqrt(v + 1e-3) + b).astype(np.float32)
        assert _same_bits(at_workers(lambda: apply_layer(x, layer)), want)

    def test_relu_kernel(self, rng, at_workers):
        x = _several_runs(rng, special=_SPECIAL)
        assert _same_bits(at_workers(lambda: apply_layer(x, ReLU())), np.maximum(x, np.float32(0.0)))

    @pytest.mark.parametrize("kernel, stride", [((2, 2, 2), (2, 2, 2)), ((3, 2, 1), (1, 2, 3))])
    def test_maxpool_kernel(self, rng, at_workers, kernel, stride):
        x = _several_runs(rng, special=_SPECIAL)
        layer = MaxPool(kernel=kernel, stride=stride)
        assert _same_bits(at_workers(lambda: apply_layer(x, layer)), _running_max(x, layer))

    @pytest.mark.parametrize("factor, spatial", [(2, (20, 21, 22)), (3, (9, 13, 11)), (1, (40, 41, 42))])
    def test_upsample_kernel(self, rng, at_workers, factor, spatial):
        # each output holds more than one run per channel
        x = _several_runs(rng, special=_SPECIAL, spatial=spatial)
        want = x
        for axis in (1, 2, 3):
            want = np.repeat(want, factor, axis=axis)
        assert _same_bits(at_workers(lambda: apply_layer(x, UpsampleNearest(factor=factor))), want)

    def test_concat_kernel(self, rng, at_workers):
        x, skip = _several_runs(rng, special=_SPECIAL), _several_runs(rng, channels=2)[:, ::-1]
        got = at_workers(lambda: apply_layer(x, Concat(source="skip"), {"skip": skip}))
        assert _same_bits(got, np.concatenate([x, skip], axis=0))

    @pytest.mark.parametrize("channels", [2, 5])
    def test_softmax_kernel(self, rng, at_workers, channels):
        x = _several_runs(rng, channels=channels) * np.float32(20.0)
        z = x.astype(np.float64)
        z = z - z.max(axis=0, keepdims=True)
        e = np.exp(z)
        want = (e / e.sum(axis=0, keepdims=True)).astype(np.float32)
        assert _same_bits(at_workers(lambda: apply_layer(x, Softmax())), want)

    @pytest.mark.parametrize("layer, channels", [
        (BatchNorm(gamma=[0.5, -2.0, 1.5], beta=[0.1, 0.0, -3.0], mean=[1.0, -0.5, 0.0], var=[0.2, 2.0, 1.0]), 3),
        (ReLU(), 3),
        (Softmax(), 2),
        (Softmax(), 5),
    ], ids=["batchnorm", "relu", "softmax2", "softmax5"])
    def test_in_place_kernel(self, rng, at_workers, layer, channels):
        # network.forward hands these layers out = x when x is dead; each run is
        # read before it is written, so the bits are those of a fresh out
        x = _several_runs(rng, channels=channels, special=_SPECIAL if isinstance(layer, ReLU) else ())
        want = apply_layer(x, layer)

        def over_x():
            y = x.copy()
            assert apply_layer(y, layer, out=y) is y
            return y

        assert layer.IN_PLACE and _same_bits(at_workers(over_x), want)

    @pytest.mark.parametrize("cin, cout", [(1, 2), (1, 5), (3, 2), (16, 2), (2, 16)])
    def test_pointwise_conv_kernel(self, rng, at_workers, cin, cout):
        # with one input channel the kernel is a broadcast product, not a K = 1 GEMM
        x = _several_runs(rng, channels=cin)
        p = _conv(cout, cin, 1, rng=rng)
        acc = p.weights.reshape(cout, cin).astype(np.float64) @ x.astype(np.float64).reshape(cin, -1)
        acc += p.bias.astype(np.float64)[:, None]
        want = acc.reshape(cout, *x.shape[1:]).astype(np.float32)
        assert _same_bits(at_workers(lambda: apply_layer(x, p)), want)

    @pytest.mark.parametrize("ho, wo", [(1, 5), (2, 3000), (7, 9), (64, 64), (192, 160), (5, 10**4)])
    def test_bands_split_the_rows(self, ho, wo):
        bands = layers._bands(ho, wo)
        assert [r0 for r0, _ in bands] == [0] + [r1 for _, r1 in bands[:-1]] and bands[-1][1] == ho
        sizes = [r1 - r0 for r0, r1 in bands]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert len(bands) == min(ho, 2) or max(sizes) * wo <= max(wo, layers._BAND_COLS)


def test_one_run_stays_on_the_calling_thread(rng, monkeypatch):
    # batch segment runs a pointwise net one run at a time on each batch thread;
    # splitting such a run would hand tiny tasks to the shared pool from every one
    c = 3
    bn = BatchNorm(gamma=rng.normal(size=c), beta=rng.normal(size=c), mean=rng.normal(size=c),
                   var=rng.uniform(0.5, 2.0, size=c))
    net = NetworkSpec(
        layers=(("expand", _conv(c, 1, 1, rng=rng)), ("bn", bn), ("relu", ReLU()), ("skip", Concat(source="expand")),
                ("head", _conv(2, 2 * c, 1, rng=rng)), ("post", Softmax())),
        in_channels=1,
        out_channels=2,
    )
    assert net.pointwise
    n = layers._RUN_BYTES // 8
    pool = _CountingPool()
    monkeypatch.setattr(layers, "POOL", pool)
    monkeypatch.setattr(layers, "_workers", lambda: 2)
    try:
        forward(net, rng.normal(size=(1, n, 1, 1)).astype(np.float32))
        assert pool.tasks == 0
        forward(net, rng.normal(size=(1, n + 1, 1, 1)).astype(np.float32))
        assert pool.tasks > 0
    finally:
        pool.pool.shutdown()


def _traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """Beyond its float32 output, a layer kernel holds at most a few float64 runs
    per worker, never a whole-tensor temporary. Two workers, on any machine."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(layers, "_workers", lambda: 2)

    def test_pointwise_conv(self, rng):
        # the 16 -> 2 head of a 16-channel U-Net at 64^3: a float64 copy of the
        # input alone is 32 MiB
        x = rng.normal(size=(16, 64, 64, 64)).astype(np.float32)
        out, peak = _traced_peak(lambda: apply_layer(x, _conv(2, 16, 1, rng=rng)))
        assert peak < out.nbytes + 3 * (16 + 2) * layers._RUN_BYTES

    def test_softmax(self, rng):
        x = rng.normal(size=(2, 64, 64, 64)).astype(np.float32)
        out, peak = _traced_peak(lambda: apply_layer(x, Softmax()))
        assert peak < out.nbytes + 3 * (2 + 2) * layers._RUN_BYTES

    def test_upsample(self, rng):
        # a 16-channel 64^3 output; three np.repeat passes held two intermediates
        x = rng.normal(size=(16, 32, 32, 32)).astype(np.float32)
        out, peak = _traced_peak(lambda: apply_layer(x, UpsampleNearest(factor=2)))
        assert peak < out.nbytes + x.nbytes // 2

    def test_batchnorm(self, rng):
        x = rng.normal(size=(16, 64, 64, 64)).astype(np.float32)
        layer = BatchNorm(gamma=rng.normal(size=16), beta=rng.normal(size=16), mean=rng.normal(size=16),
                          var=rng.uniform(0.5, 2.0, size=16))
        out, peak = _traced_peak(lambda: apply_layer(x, layer))
        assert peak < out.nbytes + 3 * layers._RUN_BYTES


_SEEDED_FORWARDS = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from wmhkit.layers import BatchNorm, Concat, Conv3D, MaxPool, ReLU, Softmax, UpsampleNearest, apply_layer
    from wmhkit.network import NetworkSpec, forward

    rng = np.random.default_rng(7)

    def conv(cout, cin, k):
        w = rng.normal(scale=0.2, size=(cout, cin, k, k, k)).astype(np.float32)
        return Conv3D(weights=w, bias=rng.normal(size=cout).astype(np.float32), padding=(k // 2,) * 3)

    def bn(c):
        return BatchNorm(gamma=rng.normal(size=c), beta=rng.normal(size=c),
                         mean=rng.normal(size=c), var=rng.uniform(0.5, 2.0, size=c))

    x = rng.normal(size=(32, 24, 24, 24)).astype(np.float32)
    print(hashlib.sha256(apply_layer(x, conv(16, 32, 3)).tobytes()).hexdigest())
    net = NetworkSpec(
        layers=(
            ("enc", conv(8, 1, 3)), ("enc_bn", bn(8)), ("enc_relu", ReLU()),
            ("pool", MaxPool()), ("mid", conv(16, 8, 3)), ("mid_bn", bn(16)), ("mid_relu", ReLU()),
            ("up", UpsampleNearest(factor=2)), ("skip", Concat(source="enc_relu")),
            ("dec", conv(8, 24, 3)), ("dec_relu", ReLU()), ("head", conv(2, 8, 1)), ("post", Softmax()),
        ),
        in_channels=1,
        out_channels=2,
    )
    x = rng.normal(size=(1, 64, 64, 64)).astype(np.float32)
    print(hashlib.sha256(forward(net, x).tobytes()).hexdigest())
    """
)


def test_output_independent_of_blas_threads():
    # a library caller's BLAS thread count, and with it the number of band workers, must not
    # change a subject's bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _SEEDED_FORWARDS], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


class TestLayers:
    def test_batchnorm_identity(self, rng):
        x = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        layer = BatchNorm(
            gamma=np.ones(2), beta=np.zeros(2), mean=np.zeros(2), var=np.ones(2), eps=0.0
        )
        np.testing.assert_allclose(apply_layer(x, layer), x, atol=1e-7)

    def test_batchnorm_formula(self):
        x = np.full((1, 1, 1, 2), 3.0, dtype=np.float32)
        layer = BatchNorm(gamma=np.array([2.0]), beta=np.array([1.0]),
                          mean=np.array([1.0]), var=np.array([4.0]), eps=0.0)
        np.testing.assert_allclose(apply_layer(x, layer), np.full((1, 1, 1, 2), 3.0), atol=1e-6)

    def test_batchnorm_rejects_negative_var(self):
        with pytest.raises(ShapeMismatch):
            BatchNorm(gamma=np.ones(1), beta=np.zeros(1), mean=np.zeros(1), var=np.array([-1.0]))

    @pytest.mark.parametrize(
        "var, eps",
        [([1.0, 1.0], -1.0), ([1.0, 1.0], float("nan")), ([1.0, 1.0], float("inf")), ([1.0, 0.0], 0.0),
         ([1.0, float("nan")], 1e-5)],
    )
    def test_batchnorm_rejects_bad_eps(self, var, eps):
        with pytest.raises(ShapeMismatch):
            BatchNorm(gamma=np.ones(2), beta=np.zeros(2), mean=np.zeros(2), var=np.array(var), eps=eps)

    def test_batchnorm_matches_formula_bitwise(self, rng):
        c, run = 6, layers._RUN_BYTES // 8
        # fewer voxels than one run, and more voxels than one run but not a whole number of runs
        for spatial in [(9, 10, 11), (33, 32, 35)]:
            assert np.prod(spatial) < run or np.prod(spatial) % run
            x = rng.normal(scale=3.0, size=(c, *spatial)).astype(np.float32)
            g, b, m = (rng.normal(size=c).astype(np.float32) for _ in range(3))
            v = rng.uniform(0.0, 3.0, size=c).astype(np.float32)
            layer = BatchNorm(gamma=g, beta=b, mean=m, var=v, eps=1e-3)
            shape = (c, 1, 1, 1)
            g, b, m, v = (a.astype(np.float64).reshape(shape) for a in (g, b, m, v))
            want = (g * (x - m) / np.sqrt(v + 1e-3) + b).astype(np.float32)
            assert np.array_equal(apply_layer(x, layer), want)
        # one voxel per channel, from a seeded search with beta near -gamma (x - mean) / s,
        # where the sum cancels: the float32 bits of (x, gamma, beta, mean, var) whose output
        # tells the order g * (x - m) / s from (x - m) / s * g
        x, g, b, m, v = np.array([
            [0x40710F1D, 0xBD4EB8AA, 0x3DEA7810, 0x3E2D696B, 0x4020DED4],
            [0xBEFA2874, 0x3E06C0AF, 0x3E75327F, 0x3FF1C16F, 0x3FDA5BA4],
            [0xC05E6007, 0x4047F171, 0x415A8A0A, 0x3FB61B83, 0x3FA07A68],
            [0x3FD2EFD0, 0xBF90C4DF, 0x3F74C9FA, 0x3F86558E, 0x3F000448],
        ], dtype=np.uint32).view(np.float32).T
        layer = BatchNorm(gamma=g, beta=b, mean=m, var=v, eps=1e-3)
        z, s = x.astype(np.float64) - m, np.sqrt(v.astype(np.float64) + 1e-3)
        want = (g * z / s + b).astype(np.float32)
        assert not np.any(want == (z / s * g + b).astype(np.float32))
        assert np.array_equal(apply_layer(x.reshape(-1, 1, 1, 1), layer).ravel(), want)

    def test_relu(self):
        x = np.array([[-1.0, 2.0]], dtype=np.float32).reshape(1, 1, 1, 2)
        assert apply_layer(x, ReLU()).ravel().tolist() == [0.0, 2.0]

    def test_softmax_symmetry(self):
        x = np.zeros((2, 2, 2, 2), dtype=np.float32)
        out = apply_layer(x, Softmax())
        np.testing.assert_allclose(out, 0.5)

    def test_softmax_sums_to_one(self, rng):
        x = rng.normal(scale=5.0, size=(4, 3, 3, 3)).astype(np.float32)
        out = apply_layer(x, Softmax())
        assert out.min() >= 0.0 and out.max() <= 1.0
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)

    def test_softmax_divides_by_the_sum(self):
        # two-channel voxels from a seeded search: the float32 bits of x whose output
        # tells e / sum(e) from e * (1 / sum(e))
        x = np.array([[0x3EA0A6B6, 0x3EA0A5CC], [0xBF6766C9, 0xBF676778], [0x3F3E0776, 0x3F3E0709]],
                     dtype=np.uint32).view(np.float32).T.reshape(2, 3, 1, 1)
        z = x.astype(np.float64)
        e = np.exp(z - z.max(axis=0, keepdims=True))
        total = e.sum(axis=0, keepdims=True)
        want = (e / total).astype(np.float32)
        assert (want != (e * (1.0 / total)).astype(np.float32)).any(axis=0).all()
        assert _same_bits(apply_layer(x, Softmax()), want)

    @staticmethod
    def _unclamped_softmax(logits):
        """The float64 softmax formula the kernel computes, without its clamp."""
        z = logits.astype(np.float64)
        z = z - z.max(axis=0, keepdims=True)
        e = np.exp(z)
        return (e / e.sum(axis=0, keepdims=True)).astype(np.float32)

    @pytest.mark.parametrize("channels", [2, 3])
    def test_softmax_clamp_keeps_the_bits(self, rng, channels):
        # the kernel clamps z - max z at -110, and every probability the clamp
        # moves rounds to 0 in float32: logit gaps from 0 to 2000, past where
        # a probability rounds to 0 (about 104), exp turns subnormal (708) and
        # exp is 0 (745), each with the top logit in a random channel
        gaps = np.concatenate([np.linspace(0.0, 2000.0, 8001), [103.2, 103.3, 103.9, 104.0, 110.0, 708.4, 745.2]])
        top = rng.normal(scale=30.0, size=gaps.size)
        x = np.stack([top, top - gaps, top - gaps * rng.random(gaps.size)][:channels])
        x = np.take_along_axis(x, rng.permuted(np.tile(np.arange(channels)[:, None], gaps.size), axis=0), axis=0)
        special = np.array([[np.inf, 0.0], [-np.inf, 0.0], [np.nan, 0.0], [np.inf, -np.inf],
                            [-np.inf, -np.inf], [np.inf, np.inf], [np.nan, np.inf], [-np.inf, 5.0]]).T
        x = np.concatenate([x, np.resize(special, (channels, special.shape[1]))], axis=1).astype(np.float32)
        with np.errstate(invalid="ignore"):
            want = self._unclamped_softmax(x)
            got = apply_layer(x.reshape(channels, -1, 1, 1), Softmax())
        assert _same_bits(got.reshape(x.shape), want)

    def test_conv_softmax_with_wide_logit_gaps_matches_the_naive_oracle(self, rng):
        # logits up to about 2000 apart through a 3^3 conv: the posterior the
        # forward pass gives is the naive convolution's, softmaxed unclamped
        conv = _conv(3, 2, 3, padding=(1, 1, 1), rng=rng)
        conv = Conv3D(weights=conv.weights * np.float32(60.0), bias=conv.bias, padding=(1, 1, 1))
        net = NetworkSpec(layers=(("logits", conv), ("post", Softmax())), in_channels=2, out_channels=3)
        x = rng.normal(size=(2, 6, 5, 4)).astype(np.float32)
        logits = naive_conv3d(x, conv.weights, conv.bias, conv.stride, conv.padding)
        assert np.ptp(logits, axis=0).max() > 708.0
        np.testing.assert_allclose(forward(net, x), self._unclamped_softmax(logits), rtol=1e-5, atol=1e-6)

    def test_maxpool_enumeration(self):
        x = np.arange(1.0, 9.0, dtype=np.float32).reshape(1, 2, 2, 2)
        out = apply_layer(x, MaxPool(kernel=(2, 2, 2), stride=(2, 2, 2)))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 8.0

    @pytest.mark.parametrize(
        "kernel, stride",
        [((3, 3, 3), (2, 2, 2)), ((2, 2, 2), (1, 1, 1)), ((1, 2, 3), (2, 1, 1)), ((2, 2, 2), (2, 2, 2))],
    )
    def test_maxpool_matches_loop_oracle(self, rng, kernel, stride):
        x = rng.normal(size=(3, 7, 8, 9)).astype(np.float32)
        got = apply_layer(x, MaxPool(kernel=kernel, stride=stride))
        assert np.array_equal(got, loop_maxpool(x, kernel, stride))
        assert got.dtype == np.float32

    def test_maxpool_stride_one(self):
        x = np.arange(27.0, dtype=np.float32).reshape(1, 3, 3, 3)
        out = apply_layer(x, MaxPool(kernel=(2, 2, 2), stride=(1, 1, 1)))
        assert out.shape == (1, 2, 2, 2)
        assert out[0, 0, 0, 0] == x[0, :2, :2, :2].max()

    def test_upsample_nearest(self):
        x = np.array([1.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 2)
        out = apply_layer(x, UpsampleNearest(factor=2))
        assert out.shape == (1, 2, 2, 4)
        assert out[0, 0, 0].tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_concat_orders_current_first(self, rng):
        x = rng.normal(size=(2, 2, 2, 2)).astype(np.float32)
        skip = rng.normal(size=(3, 2, 2, 2)).astype(np.float32)
        out = apply_layer(x, Concat(source="enc"), {"enc": skip})
        assert out.shape == (5, 2, 2, 2)
        assert np.array_equal(out[:2], x)
        assert np.array_equal(out[2:], skip)

    def test_nan_bits(self, rng):
        # a NaN input passes through the copying kernels with its bits, as before
        x = _several_runs(rng, special=(np.nan, -np.nan, np.inf, -0.0))
        skip = _several_runs(rng, channels=1, special=(np.nan,))
        pairs = [(apply_layer(x, ReLU()), np.maximum(x, np.float32(0.0))),
                 (apply_layer(x, Concat(source="s"), {"s": skip}), np.concatenate([x, skip])),
                 (apply_layer(x, UpsampleNearest(factor=2)), x.repeat(2, 1).repeat(2, 2).repeat(2, 3)),
                 (apply_layer(x, MaxPool()), _running_max(x, MaxPool()))]
        for got, want in pairs:
            assert np.isnan(want).any() and _same_bits(got, want)

    def test_concat_unknown_source(self, rng):
        x = rng.normal(size=(1, 2, 2, 2)).astype(np.float32)
        with pytest.raises(UnknownConcatSource):
            apply_layer(x, Concat(source="missing"), {})

    def test_concat_spatial_mismatch(self, rng):
        x = rng.normal(size=(1, 2, 2, 2)).astype(np.float32)
        with pytest.raises(ShapeMismatch):
            apply_layer(x, Concat(source="enc"), {"enc": np.zeros((1, 3, 2, 2), np.float32)})


def _unet(rng):
    return NetworkSpec(
        layers=(
            ("enc", _conv(4, 1, 3, padding=(1, 1, 1), rng=rng)),
            ("enc_relu", ReLU()),
            ("pool", MaxPool(kernel=(2, 2, 2), stride=(2, 2, 2))),
            ("mid", _conv(8, 4, 3, padding=(1, 1, 1), rng=rng)),
            ("mid_relu", ReLU()),
            ("up", UpsampleNearest(factor=2)),
            ("skip", Concat(source="enc_relu")),
            ("head", _conv(2, 12, 1, rng=rng)),
            ("post", Softmax()),
        ),
        in_channels=1,
        out_channels=2,
    )


def _twice(rng):
    """Two readers of one source, and an output read by the very next layer."""
    return NetworkSpec(
        layers=(
            ("a", _conv(2, 1, 1, rng=rng)),
            ("b", Concat(source="a")),
            ("c", Concat(source="b")),
            ("d", Concat(source="a")),
            ("post", Softmax()),
        ),
        in_channels=1,
        out_channels=10,
    )


def _nested(rng):
    """Concat c (b then a) is the source of Concat e (d then c), so a and b
    land in the channels of e that c takes."""
    return NetworkSpec(
        layers=(
            ("a", _conv(2, 1, 3, padding=(1, 1, 1), rng=rng)),
            ("b", ReLU()),
            ("c", Concat(source="a")),
            ("d", _conv(3, 4, 1, rng=rng)),
            ("e", Concat(source="c")),
            ("post", Softmax()),
        ),
        in_channels=1,
        out_channels=7,
    )


def _two_readers_later(rng):
    """Two ReLUs after an output that two later Concats read: the first ReLU
    reads it and has its own output, the second is a part of c."""
    return NetworkSpec(
        layers=(
            ("a", _conv(2, 1, 3, padding=(1, 1, 1), rng=rng)),
            ("relu", ReLU()),
            ("b", ReLU()),
            ("c", Concat(source="a")),
            ("d", Concat(source="a")),
            ("post", Softmax()),
        ),
        in_channels=1,
        out_channels=6,
    )


def _spy_outputs(monkeypatch):
    """The list of outputs forward hands to network.apply_layer, in call order."""
    outs, real = [], network.apply_layer

    def spy(x, layer, bindings, out):
        outs.append(out)
        return real(x, layer, bindings, out)

    monkeypatch.setattr(network, "apply_layer", spy)
    return outs


def _layer_by_layer(net, x):
    """Each layer's output by name, every layer run through apply_layer into a
    fresh array."""
    bindings, y = {}, x
    for name, layer in net.layers:
        y = bindings[name] = apply_layer(y, layer, bindings)
    return bindings


def _forward_leaving_inputs(net, x, want):
    """forward(net, x), checking that it leaves its inputs alone: x is bitwise
    unchanged after it, and before each layer runs, its input and every output
    a later Concat reads hold the bits of ``want`` (``_layer_by_layer``)."""
    before, names = x.copy(), [name for name, _ in net.layers]
    real, seen = network.apply_layer, []

    def spy(y, layer, bindings, out):
        i = len(seen)
        seen.append(layer)
        assert _same_bits(y, want[names[i - 1]] if i else before)
        assert all(_same_bits(b, want[name]) for name, b in bindings.items())
        return real(y, layer, bindings, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "apply_layer", spy)
        got = forward(net, x)
    assert len(seen) == len(net.layers) and _same_bits(x, before)
    return got


class TestForward:
    def test_empty_network_is_identity(self, rng):
        net = NetworkSpec(layers=(), in_channels=2, out_channels=2)
        x = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        assert np.array_equal(forward(net, x), x)

    def test_conv_softmax_definition(self, rng):
        w = np.zeros((2, 2, 1, 1, 1), dtype=np.float32)
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        net = NetworkSpec(
            layers=(("id", Conv3D(weights=w, bias=np.zeros(2, np.float32))), ("post", Softmax())),
            in_channels=2,
            out_channels=2,
        )
        x = rng.normal(size=(2, 2, 2, 2)).astype(np.float32)
        out = forward(net, x)
        a, b = x[0].astype(np.float64), x[1].astype(np.float64)
        expect = np.exp(a) / (np.exp(a) + np.exp(b))
        np.testing.assert_allclose(out[0], expect, rtol=1e-5, atol=1e-6)

    def test_unet_matches_layer_composition(self, rng):
        # forward writes BatchNorm, ReLU and Softmax over dead inputs, but never
        # over its own input or an output a later Concat reads
        for net in (_unet(rng), unet_net(rng, 1, 4), unet_net(rng, 2, 3)):
            x = rng.normal(size=(net.in_channels, 8, 8, 8)).astype(np.float32)
            want = _layer_by_layer(net, x)
            got = _forward_leaving_inputs(net, x, want)
            assert _same_bits(got, want[net.layers[-1][0]])
            np.testing.assert_allclose(got.sum(axis=0), 1.0, atol=1e-6)

    def test_forward_binds_only_outputs_a_later_layer_reads(self, rng, monkeypatch):
        # the bindings each layer sees: an output is bound from the layer that
        # makes it until its last Concat reader, and nothing else is kept
        seen = []
        real = network.apply_layer

        def spy(x, layer, bindings, out):
            seen.append(sorted(bindings))
            return real(x, layer, bindings, out)

        monkeypatch.setattr(network, "apply_layer", spy)
        unet = _unet(rng)
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        forward(unet, x)
        assert seen == [[], [], *[["enc_relu"]] * 5, [], []]

        # two readers of one source, and an output read by the very next layer
        seen.clear()
        twice = _twice(rng)
        forward(twice, x)
        assert seen == [[], ["a"], ["a", "b"], ["a"], []]

        # the same bits as keeping every output bound; the nested net's Concats
        # write into a later Concat's output, so its parts land two levels deep
        monkeypatch.undo()
        for net in (unet, twice, _nested(rng)):
            assert np.array_equal(forward(net, x), _layer_by_layer(net, x)[net.layers[-1][0]])

    @pytest.mark.parametrize("make", [_twice, _nested, _two_readers_later])
    def test_forward_leaves_its_inputs_alone(self, rng, make):
        # a first layer that could write over its input, an output that two
        # Concats read, and Concats nested in Concats
        inner = make(rng)
        net = NetworkSpec(layers=(("first", ReLU()), *inner.layers), in_channels=1, out_channels=inner.out_channels)
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        want = _layer_by_layer(net, x)
        assert _same_bits(_forward_leaving_inputs(net, x, want), want["post"])

    def test_concat_parts_land_in_place(self, rng, monkeypatch):
        # forward hands each producer of a Concat part a view of the Concat's
        # output, so the U-Net's Concat has nothing left to copy
        outs = _spy_outputs(monkeypatch)
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)

        def shared(net):
            outs.clear()
            forward(net, x)
            # kernels write through out.reshape, which silently copies a
            # non-contiguous array, so such a write would be lost
            assert len(outs) == len(net.layers) and all(out.flags["C_CONTIGUOUS"] for out in outs)
            named = zip((name for name, _ in net.layers), outs)
            return {(p, q) for (p, a), (q, b) in combinations(named, 2) if np.shares_memory(a, b)}

        net = unet_net(rng, 1, 4)
        # BatchNorm, ReLU and Softmax write over a dead input that is its
        # producer's own array; enc1_relu is a part of skip's output, so it
        # does not write over enc1_bn
        in_place = {("enc1", "enc1_bn"), ("head", "post"),
                    *(pair for b in ("enc2", "dec1") for pair in combinations((b, f"{b}_bn", f"{b}_relu"), 2))}
        assert shared(net) == {("enc1_relu", "skip"), ("up", "skip"), *in_place}
        by_name = dict(zip((name for name, _ in net.layers), outs))
        assert by_name["up"].ctypes.data == by_name["skip"].ctypes.data
        assert by_name["enc1_relu"].ctypes.data == by_name["skip"][4:].ctypes.data
        # c is a part of e, and c's own parts, a and b, land inside it; b reads
        # a, which c reads too, so b has its output in c's; post writes over e
        assert shared(_nested(rng)) == {("a", "c"), ("b", "c"), *((p, "e") for p in "abcd"),
                                        *((p, "post") for p in "abcde")}
        # a is read by two Concats, and b by the Concat of b with itself (as is a
        # by b), so both live on their own; only c lands in d's output, and post
        # writes over d
        assert shared(_twice(rng)) == {("c", "d"), ("c", "post"), ("d", "post")}

    @pytest.mark.parametrize("error, layers", [
        # the last layer makes 2 channels, the net declares 3
        (ShapeMismatch, lambda rng: (("a", _conv(2, 1, 1, rng=rng)), ("b", ReLU()))),
        # a Concat as the first layer has no earlier output to read, so the
        # network input is never a Concat part
        (UnknownConcatSource, lambda rng: (("a", Concat(source="a")), ("b", _conv(3, 2, 1, rng=rng)))),
    ])
    def test_shape_errors_raise_before_any_layer_runs(self, rng, monkeypatch, error, layers):
        outs = _spy_outputs(monkeypatch)
        net = NetworkSpec(layers=layers(rng), in_channels=1, out_channels=3)
        with pytest.raises(error):
            forward(net, rng.normal(size=(1, 4, 4, 4)).astype(np.float32))
        assert outs == []

    def test_input_channel_check(self, rng):
        net = _unet(rng)
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros((2, 8, 8, 8), np.float32))

    def test_forward_deterministic(self, rng):
        net = _unet(rng)
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        assert np.array_equal(forward(net, x), forward(net, x))


class TestPointwise:
    def test_rule_per_layer(self, rng):
        # (layer, reach, step) per axis: a conv reaches max(p, k-1-p) and steps
        # by its stride, a pool reaches k-1 and steps by its stride, an
        # upsample reaches 0 and steps by 1/factor, any other layer is 0 and 1
        half, one = Fraction(1, 2), Fraction(1)
        bn = BatchNorm(gamma=np.ones(2), beta=np.zeros(2), mean=np.zeros(2), var=np.ones(2))
        table = [
            (_conv(3, 2, 1, rng=rng), (0, 0, 0), (1, 1, 1)),
            (_conv(3, 2, 3, padding=(1, 1, 1), rng=rng), (1, 1, 1), (1, 1, 1)),
            (_conv(3, 2, 3, rng=rng), (2, 2, 2), (1, 1, 1)),
            (_conv(3, 2, 5, padding=(1, 2, 4), rng=rng), (3, 2, 4), (1, 1, 1)),
            (_conv(3, 2, 1, stride=(1, 2, 1), rng=rng), (0, 0, 0), (1, 2, 1)),
            (_conv(3, 2, 1, padding=(0, 0, 1), rng=rng), (0, 0, 1), (1, 1, 1)),
            (Conv3D(weights=np.ones((1, 1, 1, 1, 3)), bias=np.zeros(1)), (0, 0, 2), (1, 1, 1)),
            (bn, (0, 0, 0), (1, 1, 1)),
            (ReLU(), (0, 0, 0), (1, 1, 1)),
            (Concat(source="a"), (0, 0, 0), (1, 1, 1)),
            (Softmax(), (0, 0, 0), (1, 1, 1)),
            (MaxPool(), (1, 1, 1), (2, 2, 2)),
            (MaxPool(kernel=(1, 1, 1), stride=(1, 1, 1)), (0, 0, 0), (1, 1, 1)),
            (MaxPool(kernel=(1, 1, 1), stride=(2, 1, 1)), (0, 0, 0), (2, 1, 1)),
            (MaxPool(kernel=(3, 2, 1), stride=(1, 1, 1)), (2, 1, 0), (1, 1, 1)),
            (UpsampleNearest(factor=2), (0, 0, 0), (half, half, half)),
            (UpsampleNearest(factor=1), (0, 0, 0), (one, one, one)),
        ]
        for layer, reach, step in table:
            assert layer.receptive_field() == (reach, step), layer.TYPE

    def test_network_rule(self, rng):
        empty = NetworkSpec(layers=(), in_channels=1, out_channels=1)
        assert (empty.halo, empty.align, empty.pointwise) == ((0, 0, 0), (1, 1, 1), True)
        # 1 (enc) + 1 (pool) + 2 * 1 (mid, at half resolution); the skip's 1 is smaller
        unet = _unet(rng)
        assert (unet.halo, unet.align, unet.pointwise) == ((4, 4, 4), (2, 2, 2), False)
        # a conv after the skip adds its 1: the 5 of the benchmark's U-Net
        assert (unet_net(rng, 1, 2).halo, unet_net(rng, 1, 2).align) == ((5, 5, 5), (2, 2, 2))
        head = NetworkSpec(
            layers=(("c", _conv(2, 1, 1, rng=rng)), ("skip", Concat(source="c")), ("post", Softmax())),
            in_channels=1,
            out_channels=4,
        )
        assert (head.halo, head.align, head.pointwise) == ((0, 0, 0), (1, 1, 1), True)
        # a strided 1^3 pool reads one voxel but not on the input's grid
        subsample = NetworkSpec(
            layers=(("pool", MaxPool(kernel=(1, 1, 1), stride=(1, 2, 1))),), in_channels=1, out_channels=1
        )
        assert (subsample.halo, subsample.align, subsample.pointwise) == ((0, 0, 0), (1, 2, 1), False)
        # two levels: 1 + 1 + 2 + 2 + 4 * 1, and a skip around them
        deep = NetworkSpec(
            layers=(
                ("a", _conv(1, 1, 3, padding=(1, 1, 1), rng=rng)),
                ("p1", MaxPool()),
                ("b", _conv(1, 1, 3, padding=(1, 1, 1), rng=rng)),
                ("p2", MaxPool()),
                ("c", _conv(1, 1, 3, padding=(1, 1, 1), rng=rng)),
                ("u2", UpsampleNearest(factor=2)),
                ("u1", UpsampleNearest(factor=2)),
                ("skip", Concat(source="a")),
            ),
            in_channels=1,
            out_channels=2,
        )
        assert (deep.halo, deep.align) == ((10, 10, 10), (4, 4, 4))

    def test_halo_bounds_a_one_voxel_probe_and_tiles_are_exact(self, rng):
        # random size-preserving nets: every output voxel that moves when one
        # input voxel moves lies within the halo of it, and the block plan
        # gives the bits of one pass over the whole volume
        reached, grids = np.zeros(3, dtype=np.int64), set()
        for _ in range(30):
            net = _random_size_preserving_net(rng)
            grids.add(max(net.align))
            halo, align = np.array(net.halo), np.array(net.align)
            margin = -(-halo // align) * align
            core = margin + align * rng.integers(1, 4, size=3)
            tile = tuple(int(t) for t in 2 * margin + core)
            # some axes longer than the tile (several blocks), the rest one block
            extra = rng.integers(-2, 3, size=3)
            extra[rng.integers(0, 3)] = rng.integers(1, 3)
            dims = tuple(int(d) for d in np.array(tile) + align * extra)
            x = rng.normal(size=(1, *dims)).astype(np.float32)
            whole = forward(net, x)
            for _ in range(2):
                voxel = tuple(int(rng.integers(0, d)) for d in dims)
                probe = x.copy()
                probe[(0, *voxel)] += 10.0
                moved = np.argwhere(np.any(forward(net, probe) != whole, axis=0))
                assert moved.size > 0
                offsets = np.abs(moved - np.array(voxel))
                assert np.all(offsets <= halo), (net.halo, offsets.max(axis=0))
                reached = np.maximum(reached, offsets.max(axis=0))
            assert np.array_equal(tiled_forward(net, Volume3D(x[0]), tile=tile).data, whole[1])
        assert reached.min() >= 4  # the probe saw more than the 3^3 neighbourhood
        assert grids == {1, 2, 4}  # no pool, one level, two levels


    def test_pointwise_nets_commute_with_any_partition(self, rng):
        # random stacks of the pointwise layer kinds: forward over blocks of
        # any size gives the bits of one pass over the whole volume
        x = rng.normal(size=(1, 7, 9, 5)).astype(np.float32)
        for _ in range(30):
            layers, channels, produced = [], 1, {}
            for i in range(int(rng.integers(1, 6))):
                kind = str(rng.choice(["conv", "bn", "relu", "concat", "softmax"]))
                if kind == "conv":
                    cout = int(rng.integers(1, 5))
                    layer, channels = _conv(cout, channels, 1, rng=rng), cout
                elif kind == "bn":
                    layer = BatchNorm(gamma=rng.normal(size=channels), beta=rng.normal(size=channels),
                                      mean=rng.normal(size=channels), var=rng.uniform(0.5, 2.0, size=channels))
                elif kind == "concat" and produced:
                    source = str(rng.choice(list(produced)))
                    layer, channels = Concat(source=source), channels + produced[source]
                else:
                    layer = Softmax() if kind == "softmax" else ReLU()
                layers.append((f"l{i}", layer))
                produced[f"l{i}"] = channels
            net = NetworkSpec(layers=tuple(layers), in_channels=1, out_channels=channels)
            assert net.pointwise
            whole = forward(net, x)
            b = tuple(int(n) for n in rng.integers(1, 5, size=3))
            parts = np.empty_like(whole)
            for d in range(0, 7, b[0]):
                for h in range(0, 9, b[1]):
                    for w in range(0, 5, b[2]):
                        sl = (slice(None), slice(d, d + b[0]), slice(h, h + b[1]), slice(w, w + b[2]))
                        parts[sl] = forward(net, x[sl])
            assert np.array_equal(parts, whole)


def _random_size_preserving_net(rng) -> NetworkSpec:
    """A random 2-output net that maps any dims on its pool grid to themselves:
    centred 3^3 and 5^3 convs, or (first, at full resolution) a pair of 3^3
    convs whose per-axis paddings shrink and then regrow the volume, 2^3 pools each
    undone by a 2x upsample, and a Concat skip around each pooled level."""
    layers = []

    def add(layer):
        layers.append((f"l{len(layers)}", layer))

    def conv(cin, depth, pair):
        cout = int(rng.integers(1, 3)) if depth == 0 else 1
        k = int(rng.choice([3, 5] if depth == 0 and not pair else [3]))
        if pair:
            p1 = tuple(int(p) for p in rng.integers(0, k, size=3))
            add(_conv(cout, cin, k, padding=p1, rng=rng))
            add(_conv(cout, cout, k, padding=tuple(k - 1 - p for p in p1), rng=rng))
        else:
            add(_conv(cout, cin, k, padding=((k - 1) // 2,) * 3, rng=rng))
        if rng.random() < 0.3:
            add(ReLU())
        return cout

    def level(cin, depth):
        c = conv(cin, depth, pair=depth == 0 and rng.random() < 0.6)
        if depth < 2 and rng.random() < (0.7 if depth == 0 else 0.1):
            skip = layers[-1][0]
            add(MaxPool())
            inner = level(c, depth + 1)
            add(UpsampleNearest(factor=2))
            add(Concat(source=skip))
            c = conv(inner + c, depth, pair=False)
        return c

    add(_conv(2, level(1, 0), 1, rng=rng))
    return NetworkSpec(layers=tuple(layers), in_channels=1, out_channels=2)


class TestShapeCheck:
    def test_infer_matches_forward(self, rng):
        net = _unet(rng)
        shapes = infer_shapes(net, (8, 8, 8))
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        assert forward(net, x).shape == shapes[-1]

    def test_validate_accepts_unet(self, rng):
        _unet(rng).validate(spatial=(8, 8, 8))

    def test_validate_probes_a_deep_net_at_a_size_it_runs_on(self):
        # five 2x pools take a 16^3 probe to nothing, so such a net once failed
        # to load though forward runs it at 32^3 and up
        from wmhkit.errors import ShapeCheckFailed
        from wmhkit.phantom import threshold_detector_net

        net = five_pool_net(threshold_detector_net(0.5))
        assert (net.halo, net.align) == ((31,) * 3, (32,) * 3)
        net.validate()
        assert forward(net, np.zeros((1, 32, 32, 32), np.float32)).shape == (2, 32, 32, 32)
        with pytest.raises(ShapeCheckFailed, match="pool kernel"):
            net.validate(spatial=(16, 16, 16))

    def test_validate_rejects_channel_mismatch(self, rng):
        net = NetworkSpec(
            layers=(("conv", _conv(2, 3, 1, rng=rng)),),
            in_channels=1,
            out_channels=2,
        )
        from wmhkit.errors import ShapeCheckFailed

        with pytest.raises(ShapeCheckFailed):
            net.validate()

    def test_validate_rejects_wrong_out_channels(self, rng):
        net = NetworkSpec(
            layers=(("conv", _conv(2, 1, 1, rng=rng)),),
            in_channels=1,
            out_channels=3,
        )
        from wmhkit.errors import ShapeCheckFailed

        with pytest.raises(ShapeCheckFailed):
            net.validate()

    def test_degenerate_layer_parameters_rejected_at_construction(self):
        with pytest.raises(ShapeMismatch):
            UpsampleNearest(factor=0)
        with pytest.raises(ShapeMismatch):
            MaxPool(kernel=(2, 2, 2), stride=(0, 1, 1))
        with pytest.raises(ShapeMismatch):
            BatchNorm(gamma=np.ones(2), beta=np.zeros(3), mean=np.zeros(2), var=np.ones(2))
        with pytest.raises(ShapeMismatch):
            Conv3D(weights=np.zeros((1, 1, 1, 1, 1)), bias=np.zeros(1), stride=(1, 1))
        # integer parameters must be Python ints, not floats or bools
        w, b = np.zeros((1, 1, 1, 1, 1)), np.zeros(1)
        for bad in ((1.0, 1, 1), (1, True, 1), (1, 1, 2.5)):
            with pytest.raises(ShapeMismatch):
                Conv3D(weights=w, bias=b, stride=bad)
            with pytest.raises(ShapeMismatch):
                Conv3D(weights=w, bias=b, padding=bad)
            with pytest.raises(ShapeMismatch):
                MaxPool(kernel=bad)
            with pytest.raises(ShapeMismatch):
                MaxPool(stride=bad)
        for bad in (2.7, 2.0, True):
            with pytest.raises(ShapeMismatch):
                UpsampleNearest(factor=bad)
        for bad in (3, None, ("enc",)):
            with pytest.raises(ShapeMismatch):
                Concat(source=bad)
        assert Conv3D(weights=w, bias=b, stride=[2, 1, 1]).stride == (2, 1, 1)

    def test_shape_check_agrees_with_forward_on_random_nets(self, rng):
        # networks with random layer stacks of all seven kinds: validate()
        # accepts iff the layers run one by one through apply_layer, and then
        # forward gives their output with the inferred shape
        kinds = ["conv", "conv3", "bn", "pool", "up", "relu", "concat", "softmax"]
        seen = {kind: 0 for kind in kinds}
        outcomes = set()
        for _ in range(200):
            depth = int(rng.integers(1, 6))
            layers = []
            produced = {}  # layer name -> channels it outputs
            channels = 1
            for i in range(depth):
                kind = str(rng.choice(kinds))
                seen[kind] += 1
                if kind in ("conv", "conv3"):
                    cout = int(rng.integers(1, 4))
                    cin = channels if rng.random() < 0.8 else channels + 1
                    if kind == "conv":
                        layer = _conv(cout, cin, 1, rng=rng)
                    else:
                        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
                        padding = tuple(int(p) for p in rng.integers(0, 2, size=3))
                        layer = _conv(cout, cin, 3, stride=stride, padding=padding, rng=rng)
                    channels = cout
                elif kind == "bn":
                    n = channels if rng.random() < 0.8 else channels + 1
                    layer = BatchNorm(gamma=rng.normal(size=n), beta=rng.normal(size=n),
                                      mean=rng.normal(size=n), var=rng.uniform(0.5, 2.0, size=n))
                elif kind == "pool":
                    layer = MaxPool(kernel=(2, 2, 2), stride=(2, 2, 2))
                elif kind == "up":
                    layer = UpsampleNearest(factor=2)
                elif kind == "relu":
                    layer = ReLU()
                elif kind == "concat":
                    # an earlier output (possibly at another resolution) or an unknown name
                    source = str(rng.choice([*produced, "missing"]))
                    layer = Concat(source=source)
                    channels += produced.get(source, 0)
                else:
                    layer = Softmax()
                layers.append((f"l{i}", layer))
                produced[f"l{i}"] = channels
            net = NetworkSpec(layers=tuple(layers), in_channels=1, out_channels=channels)
            x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
            try:
                net.validate(spatial=(8, 8, 8))
                ok = True
            except Exception:
                ok = False
            try:
                bindings = _layer_by_layer(net, x)
                ran = True
            except Exception:
                ran = False
            assert ok == ran
            if ran:
                # and forward leaves its input, and each output a later Concat
                # reads, as they were
                y = bindings[net.layers[-1][0]]
                assert _same_bits(_forward_leaving_inputs(net, x, bindings), y)
                assert y.shape == infer_shapes(net, (8, 8, 8))[-1]
            outcomes.add(ok)
        assert min(seen.values()) > 0 and outcomes == {True, False}
