"""Layer vocabulary and forward kernels for 3D CNN inference.

Activations are float32 arrays of shape (C, D, H, W). Convolution is
cross-correlation (no kernel flip) with zero padding, lowered to float64 GEMM
and streamed over the input's depth planes, input-stationary: each real input
plane i is lowered once to its im2col (Cin, kh, kw, Ho, Wo), a plane-column
(lowering over some kernel axes only, as in MEC, arXiv 1706.06873), and
multiplied once by the weight rows of the depth taps a that read it: all kd
at depth stride 1, those with a = i (mod sd) at stride sd. That one GEMM gives
a (Cout, Ho Wo) partial sum per tap; at stride 1 its kd Cout rows do kd times
the flops per column byte streamed that one output plane's Cout rows would (a
taller weight panel, as in Goto and van de Geijn, ACM TOMS 2008). Each partial
is added into the float64 accumulator of the output plane that reads plane i
through tap a; ceil(kd / sd) accumulators serve the output planes in turn. So
each output voxel is, per depth tap a in increasing order, one float64 dot
product over the taps (Cin, kh, kw), summed, then the bias, and it is rounded
to float32 once. Zero-padding planes add exact zeros and are skipped, so an
output plane that reads only padding is its bias. A 1x1x1 stride-1 unpadded
kernel is one GEMM over the whole input, converted to float64.

That loop runs in bands of output rows, each over every depth plane on its
own rows: it fills its padded input rows (its rows and a halo of kh - sh
rows), lowers its rows of the plane-column and adds its GEMM's (Cout, rows
Wo) partials into its rows of the accumulators. The bands, at least two, of at
most ``_BAND_COLS`` output columns each, follow from the output plane's shape
alone. They run on one pool of as many threads as the process may use cores,
``_workers()`` bands at once: the cores over the BLAS thread count, or one
where that count is unknown. ``cli.main`` sets numpy's OpenBLAS to one thread
while a command runs (``one_blas_thread``) and restores the count it found,
so a conv's bands use every core and the im2col copies, plane fills and
accumulations run in parallel too, not only the GEMM. Beyond its float32
output, such a conv holds one allocation shared by its bands: one
plane-column (8 Cin kh kw Ho Wo bytes), the partial sums and the
accumulators (8 ceil(kd / sd) Cout Ho Wo bytes each), and each band's padded
float64 input rows.

The GEMM shapes follow from the layer and the input shape alone, never from
the core or BLAS thread count, so repeated runs are bit-identical, and so are
runs on any number of workers. They are not free of the GEMM's column count
N, a band's rows times Wo: in OpenBLAS 0.3.31 the float64 bits of a (48, 288),
(48, 144) or (48, 27) DGEMM (the 32-, 16- and 3-channel 3x3x3 convs to 16
channels) differ from a wider product's in some of the last 8 columns for
about half of all N up to 300, while those of a (48, 9) one differ only at N =
1. At N = 160, 576 and 4096 these four did not depend on the thread count (1
or 2), but a (48, 432) one did. That a tiled forward equals the whole-volume
one, and that outputs do not depend on the BLAS thread count, is therefore
pinned by tests on float32 outputs, not guaranteed by construction. The CLI
runs every GEMM on one thread, so its outputs depend on neither
``OPENBLAS_NUM_THREADS`` nor the core count.

Each layer type is one frozen dataclass that owns its SGWT manifest tag
(``TYPE``), its shape rule (``out_shape``), its receptive field
(``receptive_field``) and its kernel (``forward``); its fields are its
manifest entry. A new layer type is one class plus its entry in
``LAYER_TYPES``.
"""

from __future__ import annotations

import ctypes
import importlib
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np

from .errors import ShapeMismatch, UnknownConcatSource

Shape = tuple[int, int, int, int]

# float64 bytes of one channel over a run of voxels that a pointwise layer (or a
# pointwise net, see ``ensemble``) works on at a time, so its few float64
# temporaries stay in L2 (64^3 blocks made each of them 4 MB). On a
# 160x192x160 grid, one thread ran a threshold net in 47-49 ms at 16384-65536
# voxels per run, 72 ms on 64^3 blocks and 87 ms at 2048; two batch threads,
# which share the GIL for each run's Python overhead, took 304/275/267 ms of
# inference per subject at 16384/32768/65536 voxels per run. BatchNorm over a
# 16x64^3 activation took a median 13.5-14.1 ms in runs of this size and
# 14.3-14.7 ms a 2 MB channel at a time (2 MiB of L2 per core).
_RUN_BYTES = 256 * 2**10

# most output columns (rows x Wo) in one band of a non-pointwise conv; the bands,
# and so the GEMM shapes, follow from the layer and the input shape alone. On 2
# vCPUs, two workers ran the 32->16 3^3 conv at 64^3 in 109-134 ms in bands of
# 2048 columns, 121-147 ms of 1024 and 125-164 ms of 512 (more bands, more
# Python steps per plane)
_BAND_COLS = 2048

_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the bands of every conv run on these threads; they start on first use
_POOL = ThreadPoolExecutor(max_workers=_NPROC, thread_name_prefix="wmhkit-conv")


@cache
def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None without one."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs one GEMM on, or None if it is not found."""
    fns = _openblas()
    return None if fns is None else int(fns[0]())


def set_blas_threads(n: int) -> None:
    """Set the thread count of numpy's OpenBLAS, for the whole process (a no-op
    if it is not found)."""
    fns = _openblas()
    if fns is not None:
        fns[1](n)


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, so that conv bands run
    on every core (see ``_workers``), and restore the count found on exit."""
    found = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if found is not None:
            set_blas_threads(found)


def _workers() -> int:
    """Bands of one conv run at once: the cores each GEMM's BLAS threads leave
    free, or one where the BLAS thread count is unknown."""
    threads = blas_threads()
    return 1 if threads is None else max(1, _NPROC // threads)


def _bands(ho: int, wo: int) -> list[tuple[int, int]]:
    """Output rows [r0, r1) of each band: at least two bands (unless there is
    one row), each of at most _BAND_COLS output columns (or one row), their
    sizes as even as can be."""
    count = min(ho, max(2, -(-ho // max(1, _BAND_COLS // wo))))
    return [(ho * k // count, ho * (k + 1) // count) for k in range(count)]


def _run(task, count: int) -> None:
    """task(0), ..., task(count - 1), on ``_workers()`` pool threads at once,
    worker j taking j, j + workers, ..."""
    workers = min(_workers(), count)
    if workers == 1:
        for k in range(count):
            task(k)
        return

    def share(j):
        for k in range(j, count, workers):
            task(k)

    futures = [_POOL.submit(share, j) for j in range(workers)]
    wait(futures)
    for f in futures:
        f.result()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_triple(value, least: int, what: str) -> tuple[int, int, int]:
    if not isinstance(value, (tuple, list)) or len(value) != 3:
        raise ShapeMismatch(f"{what} must be a triple, got {value!r}")
    if not all(_is_int(v) and v >= least for v in value):
        raise ShapeMismatch(f"{what} must hold ints >= {least}, got {value!r}")
    return tuple(value)


class Layer:
    """Base of the vocabulary; by default a layer keeps its input's shape, maps
    each voxel on its own and reads no earlier output."""

    def out_shape(self, shape: Shape, produced: dict[str, Shape]) -> Shape:
        """Output shape for an input of ``shape``, given the shapes of earlier
        named outputs. Raises ShapeMismatch or UnknownConcatSource exactly when
        ``forward`` cannot run on such an input."""
        return shape

    def receptive_field(self) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        """Per axis, the reach (input voxels to either side of its own position
        an output voxel reads) and the step (input voxels per output voxel)."""
        return (0, 0, 0), (Fraction(1),) * 3

    def sources(self) -> tuple[str, ...]:
        """Names of the earlier outputs that ``forward`` reads from its bindings."""
        return ()


@dataclass(frozen=True)
class Conv3D(Layer):
    TYPE = "conv3d"
    weights: np.ndarray  # (Cout, Cin, kd, kh, kw)
    bias: np.ndarray  # (Cout,)
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float32)
        b = np.asarray(self.bias, dtype=np.float32)
        if w.ndim != 5:
            raise ShapeMismatch(f"conv weights must be 5D, got shape {w.shape}")
        if b.shape != (w.shape[0],):
            raise ShapeMismatch(f"bias shape {b.shape} != ({w.shape[0]},)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "stride", _int_triple(self.stride, 1, "conv stride"))
        object.__setattr__(self, "padding", _int_triple(self.padding, 0, "conv padding"))

    def out_shape(self, shape, produced):
        cout, cin, *kernel = self.weights.shape
        if len(shape) != 4 or shape[0] != cin:
            raise ShapeMismatch(f"conv expects {cin} input channels, got shape {shape}")
        dims = tuple(zip(shape[1:], kernel, self.stride, self.padding))
        if any(n + 2 * p < k for n, k, s, p in dims):
            raise ShapeMismatch(
                f"kernel {tuple(kernel)} padding {self.padding} does not fit input {shape[1:]}"
            )
        return (cout, *((n + 2 * p - k) // s + 1 for n, k, s, p in dims))

    def receptive_field(self):
        kernel = self.weights.shape[2:]
        return tuple(max(p, k - 1 - p) for k, p in zip(kernel, self.padding)), tuple(map(Fraction, self.stride))

    def forward(self, x, bindings):
        return conv3d(x, self)


@dataclass(frozen=True)
class BatchNorm(Layer):
    TYPE = "batchnorm"
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "mean", "var"):
            arr = np.asarray(getattr(self, name), dtype=np.float32)
            if arr.ndim != 1:
                raise ShapeMismatch(f"batchnorm {name} must be 1D")
            object.__setattr__(self, name, arr)
        if not (self.gamma.shape == self.beta.shape == self.mean.shape == self.var.shape):
            raise ShapeMismatch("batchnorm parameter vectors must share one length")
        if np.any(self.var < 0):
            raise ShapeMismatch("batchnorm variance must be non-negative")
        object.__setattr__(self, "eps", float(self.eps))
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise ShapeMismatch(f"batchnorm eps must be finite and non-negative, got {self.eps}")
        if not np.all(self.var.astype(np.float64) + self.eps > 0):
            raise ShapeMismatch("batchnorm var + eps must be positive in every channel")

    def out_shape(self, shape, produced):
        if self.gamma.shape != shape[:1]:
            raise ShapeMismatch(f"batchnorm sized for {self.gamma.shape[0]} channels, got {shape[0]}")
        return shape

    def forward(self, x, bindings):
        self.out_shape(x.shape, {})
        g = self.gamma.astype(np.float64)
        b = self.beta.astype(np.float64)
        m = self.mean.astype(np.float64)
        s = np.sqrt(self.var.astype(np.float64) + self.eps)
        # the operations of g * (x - m) / sqrt(v + eps) + b in its order, so the bits
        # match, over cache-sized runs of each channel in one reused float64 buffer
        src = x.reshape(x.shape[0], -1)
        out = np.empty(x.shape, dtype=np.float32)
        dst = out.reshape(src.shape)
        n = _RUN_BYTES // 8
        buf = np.empty(min(n, src.shape[1]), dtype=np.float64)
        for c, lo in product(range(src.shape[0]), range(0, src.shape[1], n)):
            z = buf[: min(n, src.shape[1] - lo)]
            z[...] = src[c, lo : lo + n]
            z -= m[c]
            z *= g[c]
            z /= s[c]
            z += b[c]
            dst[c, lo : lo + n] = z
        return out


@dataclass(frozen=True)
class ReLU(Layer):
    TYPE = "relu"

    def forward(self, x, bindings):
        return np.maximum(x, np.float32(0.0))


@dataclass(frozen=True)
class MaxPool(Layer):
    TYPE = "maxpool"
    kernel: tuple[int, int, int] = (2, 2, 2)
    stride: tuple[int, int, int] = (2, 2, 2)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _int_triple(self.kernel, 1, "pool kernel"))
        object.__setattr__(self, "stride", _int_triple(self.stride, 1, "pool stride"))

    def out_shape(self, shape, produced):
        c, *spatial = shape
        if any(n < k for n, k in zip(spatial, self.kernel)):
            raise ShapeMismatch(f"pool kernel {self.kernel} exceeds input {tuple(spatial)}")
        return (c, *((n - k) // s + 1 for n, k, s in zip(spatial, self.kernel, self.stride)))

    def receptive_field(self):
        return tuple(k - 1 for k in self.kernel), tuple(map(Fraction, self.stride))

    def forward(self, x, bindings):
        _, do, ho, wo = self.out_shape(x.shape, {})
        sd, sh, sw = self.stride
        out = None
        for a, b, c in product(*map(range, self.kernel)):
            tap = x[:, a : a + sd * do : sd, b : b + sh * ho : sh, c : c + sw * wo : sw]
            out = tap.copy() if out is None else np.maximum(out, tap, out=out)
        return out


@dataclass(frozen=True)
class UpsampleNearest(Layer):
    TYPE = "upsample"
    factor: int = 2

    def __post_init__(self):
        if not _is_int(self.factor) or self.factor < 1:
            raise ShapeMismatch(f"upsample factor must be an int >= 1, got {self.factor!r}")

    def out_shape(self, shape, produced):
        c, *spatial = shape
        return (c, *(n * self.factor for n in spatial))

    def receptive_field(self):
        return (0, 0, 0), (Fraction(1, self.factor),) * 3

    def forward(self, x, bindings):
        out = x
        for axis in (1, 2, 3):
            out = np.repeat(out, self.factor, axis=axis)
        return out


@dataclass(frozen=True)
class Concat(Layer):
    """Current tensor's channels first, then those of the earlier output ``source``."""

    TYPE = "concat"
    source: str

    def __post_init__(self):
        if not isinstance(self.source, str):
            raise ShapeMismatch(f"concat source must be a layer name, got {self.source!r}")

    def out_shape(self, shape, produced):
        if self.source not in produced:
            raise UnknownConcatSource(f"no earlier output named {self.source!r}")
        src = produced[self.source]
        if src[1:] != shape[1:]:
            raise ShapeMismatch(
                f"concat source {self.source!r} spatial dims {src[1:]} != current {shape[1:]}"
            )
        return (shape[0] + src[0], *shape[1:])

    def sources(self):
        return (self.source,)

    def forward(self, x, bindings):
        return np.concatenate([x, bindings[self.source]], axis=0)


@dataclass(frozen=True)
class Softmax(Layer):
    TYPE = "softmax"

    def forward(self, x, bindings):
        z = x.astype(np.float64)
        z = z - z.max(axis=0, keepdims=True)
        e = np.exp(z)
        return (e / e.sum(axis=0, keepdims=True)).astype(np.float32)


LAYER_TYPES: dict[str, type[Layer]] = {
    cls.TYPE: cls for cls in (Conv3D, BatchNorm, ReLU, MaxPool, UpsampleNearest, Concat, Softmax)
}


def conv3d(x: np.ndarray, p: Conv3D) -> np.ndarray:
    """Strided zero-padded cross-correlation over a (C, D, H, W) tensor.

    Lowered to float64 GEMM: a 1x1x1 stride-1 unpadded kernel is one matmul
    over the input; any other kernel streams over the input's depth planes,
    in bands of output rows that the pool's workers run at once. Within a
    band, each real input plane is lowered once to the band's rows of its
    im2col (Cin, kh, kw, rows, Wo) and multiplied once by the weight rows of
    the depth taps that read it, giving one (Cout, rows Wo) partial sum per
    tap. Each partial is added into the band's rows of the float64 accumulator
    of the output plane that reads the input plane through that tap. An output
    plane takes its bias and is rounded to float32 once its last real input
    plane is in; one that reads only zero padding is its bias.
    """
    cout, cin, kd, kh, kw = p.weights.shape
    _, do, ho, wo = p.out_shape(x.shape, {})
    sd, sh, sw = p.stride
    pd, ph, pw = p.padding
    bias = p.bias.astype(np.float64)[:, None]

    if (kd, kh, kw) == (1, 1, 1) and p.stride == (1, 1, 1) and p.padding == (0, 0, 0):
        wt = p.weights.reshape(cout, cin).astype(np.float64)
        acc = wt @ np.ascontiguousarray(x, dtype=np.float64).reshape(cin, -1)
        acc += bias
        return acc.reshape(cout, do, ho, wo).astype(np.float32)

    d, h, w = x.shape[1:]
    # padded plane i reaches output plane z through depth tap a = i - z*sd, so the
    # taps a = i (mod sd) read it: one weight matrix per residue, rows in the
    # order (a, cout), taps in the order (cin, kh, kw)
    by_tap = p.weights.transpose(2, 0, 1, 3, 4).astype(np.float64)
    wts = [by_tap[r::sd].reshape(-1, cin * kh * kw) for r in range(min(sd, kd))]
    # at most ceil(kd / sd) output planes read one input plane, so as many
    # accumulators serve them in turn: output plane z uses slot z mod nacc
    nacc = len(wts[0]) // cout
    out = np.empty((cout, do, ho, wo), dtype=np.float32)
    flat = out.reshape(cout, do, -1)
    for z in range(do):
        if not (pd < z * sd + kd and z * sd < pd + d):  # reads only padding
            flat[:, z] = bias
    # each real padded plane i that some output plane reads, with those planes
    planes = [(i, zs) for i in range(pd, min(pd + d, (do - 1) * sd + kd))
              if (zs := range(max(0, -(-(i - kd + 1) // sd)), min(do - 1, i // sd) + 1))]
    bands = _bands(ho, wo)
    # every band's plane-column rows, partial sums and accumulators are carved
    # out of one allocation made here: a plane-column and 2 nacc Cout Ho Wo more
    per_col = cin * kh * kw + 2 * nacc * cout
    buf = np.empty(per_col * ho * wo, dtype=np.float64)
    # and each band's padded input rows, its kh - sh halo included, zeroed once
    pads = [np.zeros((cin, (r1 - r0 - 1) * sh + kh, w + 2 * pw), dtype=np.float64) for r0, r1 in bands]

    def run_band(k):
        (r0, r1), plane = bands[k], pads[k]
        n = (r1 - r0) * wo
        col, part, accs = np.split(buf[per_col * r0 * wo : per_col * r1 * wo],
                                   [cin * kh * kw * n, (cin * kh * kw + nacc * cout) * n])
        col = col.reshape(cin, kh, kw, r1 - r0, wo)
        part, accs = part.reshape(nacc, cout, n), accs.reshape(nacc, cout, n)
        # the band's padded rows start at padded row r0*sh, input row top
        top = r0 * sh - ph
        lo = max(0, top)
        hi = max(lo, min(h, top + plane.shape[1]))  # lo = hi: the band reads only padding rows
        # windows[c, j, k, b, e] = plane[c, j*sh + b, k*sw + e]
        windows = np.lib.stride_tricks.sliding_window_view(plane, (kh, kw), axis=(1, 2))
        windows = windows[:, ::sh, ::sw].transpose(0, 3, 4, 1, 2)
        for i, zs in planes:
            plane[:, lo - top : hi - top, pw : pw + w] = x[:, i - pd, lo:hi]
            col[...] = windows
            wt = wts[i % sd]
            np.matmul(wt, col.reshape(-1, n), out=part[: len(wt) // cout].reshape(len(wt), n))
            for z in zs:
                a, acc = i - z * sd, accs[z % nacc]
                if i == max(z * sd, pd):  # the first real plane z reads
                    acc[...] = part[a // sd]
                else:
                    acc += part[a // sd]
                if i == min(z * sd + kd, pd + d) - 1:  # the last one
                    acc += bias
                    flat[:, z, r0 * wo : r1 * wo] = acc

    _run(run_band, len(bands))
    return out


def apply_layer(
    x: np.ndarray, layer: Layer, bindings: dict[str, np.ndarray] | None = None
) -> np.ndarray:
    """Apply one layer to a (C, D, H, W) tensor after checking its shape rule.

    ``bindings`` maps earlier layer names to their outputs; only Concat reads it.
    """
    bindings = bindings or {}
    layer.out_shape(x.shape, {name: out.shape for name, out in bindings.items()})
    return layer.forward(x, bindings)
