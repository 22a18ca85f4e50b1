"""Layer vocabulary and forward kernels for 3D CNN inference.

Activations are float32 arrays of shape (C, D, H, W). Convolution is
cross-correlation (no kernel flip) with zero padding, lowered to float64 GEMM
and streamed over the input's depth planes, input-stationary: each real input
plane i is lowered once to a plane-column (lowering over some kernel axes
only, as in MEC, arXiv 1706.06873) and multiplied by the weight rows of the
depth taps a that read it: all kd at depth stride 1, those with a = i (mod sd)
at stride sd. At stride 1 those kd Cout rows do kd times the flops per column
byte streamed that one output plane's Cout rows would (a taller weight panel,
as in Goto and van de Geijn, ACM TOMS 2008). Each GEMM adds its products
straight into the float64 accumulators of the output planes that read plane i
(dgemm with beta = 1): a ring of ceil(kd / sd) accumulators serves the output
planes in turn, each zeroed when its output plane starts. Weight rows go in
descending depth tap, so a plane's taps land in consecutive slots of the ring,
one GEMM per run of slots; a plane with all ceil(kd / sd) taps fills the ring,
its rows rotated into slot order.

At in-plane stride 1 a plane-column's columns run at the padded row pitch
W + 2 pw, of which the last kw - 1 of each row are not outputs, so the lowering
copies shifted runs of the flat padded rows. With Cin kw >= 64 a plane is
lowered over (Cin, kw) only, and each kernel row b is one GEMM on those lowered
rows shifted down b rows: the copy is a third of the (Cin, kh, kw) lowering at
kh = 3. With fewer input channels it is lowered over (Cin, kh, kw), one GEMM,
as at any other in-plane stride, where the columns run at pitch Wo. So each
output voxel is, per depth tap a in increasing order and per kernel row (or
all kh rows at once), one float64 dot product over (Cin, kw) (or (Cin, kh, kw))
added into its accumulator, then the bias, and it is rounded to float32 once:
when an output plane's last real input plane is in, the bias is added into its
finished accumulator in place and one casting copy stores it in ``out``.
Zero-padding planes add exact zeros and are skipped, so an output plane that
reads only padding is its bias.

That loop runs in bands of output rows, each over every depth plane on its
own rows: it fills its padded float32 input rows (its rows and a halo of
kh - sh rows), lowers them (the copy casts to float64) and runs its GEMMs into
its rows of the ring. The bands, at least two, of at most ``_BAND_COLS`` output
columns each, follow from the output plane's shape alone. They run on one pool
of as many threads as the process may use cores, ``_workers()`` bands at once:
the cores over the BLAS thread count, or one where that count is unknown.
``cli.main`` sets numpy's OpenBLAS to one thread while a command runs
(``one_blas_thread``) and restores the count it found, so a conv's bands use
every core and the lowering copies and plane fills run in parallel too, not
only the GEMM. Beyond its float32 output, such a conv holds one allocation
shared by its bands: each band's lowered rows (8 Cin kw (rows + kh - 1)
(W + 2 pw) bytes when lowered by kernel row, 8 Cin kh kw rows pitch otherwise)
and its ring (8 ceil(kd / sd) Cout rows pitch bytes), and each band's padded
float32 input rows.

The GEMMs call the ``cblas_dgemm`` of the OpenBLAS that numpy bundles through
ctypes (``_dgemm``; ``scipy_cblas_dgemm64_``, with 64-bit ints, in numpy 2's
wheels), bound on the first conv call, not at import. Where numpy exposes no
such symbol, each GEMM is ``np.matmul`` into a scratch buffer plus an add into
the ring: the same float64 bits where BLAS does not split the reduction (up to
K = 384 in OpenBLAS 0.3.31 on AVX-512), and the same float32 bits in every case
tested.

The GEMM shapes follow from the layer and the input shape alone, never from
the core or BLAS thread count, so repeated runs are bit-identical, and so are
runs on any number of workers. They are not free of the GEMM's column count
N, a band's rows times the pitch: in OpenBLAS 0.3.31 the float64 bits of a
(48, 288), (48, 144) or (48, 27) DGEMM (32-, 16- and 3-channel 3x3x3 convs to
16 channels, lowered over (Cin, kh, kw)) differ from a wider product's in some
of the last 8 columns for about half of all N up to 300, while those of a
(48, 9) one differ only at N = 1. At N = 160, 576 and 4096 these four did not depend on the thread count
(1 or 2), but a (48, 432) one did. That a tiled forward equals the
whole-volume one, and that outputs do not depend on the BLAS thread count, is
therefore pinned by tests on float32 outputs, not guaranteed by construction.
The CLI runs every GEMM on one thread, so its outputs depend on neither
``OPENBLAS_NUM_THREADS`` nor the core count.

A kernel, ``forward(x, out, bindings)``, writes into ``out``: a C-contiguous
float32 array of the layer's output shape that its caller allocates
(``network.forward``, or ``apply_layer`` called without one) after checking the
shape rule. It neither allocates its output nor checks shapes, and it writes
through ``out.reshape``, which would silently copy a non-contiguous array.
Concat copies only the parts that are not already in their channels of
``out``: ``network.forward`` has most producers write there (see its
docstring for the cases it does not place). BatchNorm, ReLU and Softmax
(``IN_PLACE``) may be handed ``out is x``: each reads a run of its input before
it writes that run, and no other, so ``network.forward`` has them write over
an input that no later layer reads.

Every other kernel, and a 1x1x1 stride-1 unpadded conv, runs on the same pool,
``_workers()`` pieces at once (``_run``): BatchNorm, ReLU and Concat over runs
of ``_RUN_BYTES // 8`` voxels of one channel; Softmax and that conv over runs
of every channel, the conv as one GEMM per run (with one input channel, a
broadcast product); MaxPool and UpsampleNearest over channels. A worker's
float64 temporaries are one run, made once per call and reused: the float32
input is copied into it (the cast on load), the formula's operations run on it
in place and in their order, and it is copied out (the cast on store, which
rounds to float32). A cast inside the first or last ufunc
(``np.subtract(src, m, out=z, dtype=np.float64)``) saves a pass but ran
slower, 24 against 17 us per run of 32768 voxels (numpy 2.4, AVX-512). So each
voxel goes through the IEEE operations of the whole-tensor formula, in its
order, on any number of workers; that the 1x1x1 conv's GEMMs over runs give
the bits of one over the whole tensor is pinned by tests, as for the bands. A tensor of at most one run per channel stays on the
calling thread: a pointwise net runs one run at a time on each batch thread
(see ``ensemble``), and splitting such runs would hand tiny tasks to the
shared pool from every batch thread.

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
# vCPUs, two workers ran the 32->16 3^3 conv at 64^3 in a median 104 ms in bands
# of 2048 columns, 110 ms of 1024 and 124 ms of 512 (more bands, more Python
# steps per plane), and the 1->16 one in 14, 18 and 28 ms (16 alternating
# calls each). At 64^3 any larger size gives the same two bands; on an 8 x 192
# x 160 input the 32->16 conv took a median 95 ms at 2048 and 4096 alike
_BAND_COLS = 2048

_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the pieces of every layer kernel run on these threads; they start on first use
POOL = ThreadPoolExecutor(max_workers=_NPROC, thread_name_prefix="wmhkit")


def _numpy_libs():
    """numpy's own extension module loaded as a shared library, through which the
    symbols of the BLAS it bundles resolve."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            yield ctypes.CDLL(importlib.import_module(name).__file__)
        except (ImportError, OSError):
            continue


@cache
def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None without one."""
    for lib in _numpy_libs():
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
    return None


@cache
def _dgemm():
    """(name, cblas_dgemm) of the BLAS numpy bundles, or None without one; a
    conv binds it on its first call. Row-major C += A @ B is
    ``dgemm(101, 111, 111, m, n, k, 1.0, A, lda, B, ldb, 1.0, C, ldc)``, with
    pointers as ints and 64-bit ints for a "64_" symbol."""
    for lib in _numpy_libs():
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                name = f"{prefix}cblas_dgemm{suffix}"
                fn = getattr(lib, name, None)
                if fn is not None:
                    i = ctypes.c_int64 if suffix else ctypes.c_int
                    fn.restype = None
                    fn.argtypes = [ctypes.c_int] * 3 + [i] * 3 + [ctypes.c_double] + [ctypes.c_void_p, i] * 2 + [
                        ctypes.c_double, ctypes.c_void_p, i]
                    return name, fn
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
    """Pieces of one kernel (a conv's bands, runs or channels) run at once: the
    cores each GEMM's BLAS threads leave free, or one where the BLAS thread
    count is unknown."""
    threads = blas_threads()
    return 1 if threads is None else max(1, _NPROC // threads)


def _bands(ho: int, wo: int) -> list[tuple[int, int]]:
    """Output rows [r0, r1) of each band: at least two bands (unless there is
    one row), each of at most _BAND_COLS output columns (or one row), their
    sizes as even as can be."""
    count = min(ho, max(2, -(-ho // max(1, _BAND_COLS // wo))))
    return [(ho * k // count, ho * (k + 1) // count) for k in range(count)]


def _run(task, count: int, scratch=None, inline: bool = False) -> None:
    """task(k, s) for k in range(count), on ``_workers()`` pool threads at once,
    worker j taking k = j, j + workers, ... with s = scratch(), made once per
    worker (None without ``scratch``). All run on the calling thread when
    ``inline`` or when there is one worker."""
    workers = 1 if inline else min(_workers(), count)

    def share(j):
        s = None if scratch is None else scratch()
        for k in range(j, count, workers):
            task(k, s)

    if workers == 1:
        share(0)
        return
    futures = [POOL.submit(share, j) for j in range(workers)]
    wait(futures)
    for f in futures:
        f.result()


def _over_runs(task, channels: int, voxels: int, scratch=None) -> None:
    """task(c, lo, hi, s) for each channel c < ``channels`` and each run [lo, hi)
    of ``_RUN_BYTES // 8`` voxels out of ``voxels`` (the last one shorter),
    through ``_run``; a tensor of one run stays on the calling thread."""
    n = _RUN_BYTES // 8
    runs = [(lo, min(lo + n, voxels)) for lo in range(0, voxels, n)]
    _run(lambda k, s: task(k // len(runs), *runs[k % len(runs)], s), channels * len(runs), scratch,
         inline=len(runs) <= 1)


def _fits_run(*tensors) -> bool:
    """True when every tensor holds at most one run of voxels per channel."""
    return all(np.prod(t.shape[1:]) <= _RUN_BYTES // 8 for t in tensors)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_triple(value, least: int, what: str) -> tuple[int, int, int]:
    if not isinstance(value, (tuple, list)) or len(value) != 3:
        raise ShapeMismatch(f"{what} must be a triple, got {value!r}")
    if not all(_is_int(v) and v >= least for v in value):
        raise ShapeMismatch(f"{what} must hold ints >= {least}, got {value!r}")
    return tuple(value)


class Layer:
    """Base of the vocabulary; by default a layer keeps its input's shape and
    maps each voxel on its own. Only Concat reads an earlier output."""

    # True when ``forward`` may be handed ``out is x``: the kernel reads each
    # run of its input before it writes that run, and no other
    IN_PLACE = False

    def out_shape(self, shape: Shape, produced: dict[str, Shape]) -> Shape:
        """Output shape for an input of ``shape``, given the shapes of earlier
        named outputs. Raises ShapeMismatch or UnknownConcatSource exactly when
        ``forward`` cannot run on such an input."""
        return shape

    def receptive_field(self) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        """Per axis, the reach (input voxels to either side of its own position
        an output voxel reads) and the step (input voxels per output voxel)."""
        return (0, 0, 0), (Fraction(1),) * 3


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

    def forward(self, x, out, bindings):
        conv3d(x, self, out)


@dataclass(frozen=True)
class BatchNorm(Layer):
    TYPE = "batchnorm"
    IN_PLACE = True
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

    def forward(self, x, out, bindings):
        """``out`` may be ``x``: each run is read into a float64 buffer first."""
        g = self.gamma.astype(np.float64)
        b = self.beta.astype(np.float64)
        m = self.mean.astype(np.float64)
        s = np.sqrt(self.var.astype(np.float64) + self.eps)
        # the operations of g * (x - m) / sqrt(v + eps) + b in its order, so the bits
        # match, over cache-sized runs of each channel in one float64 run per worker
        src = x.reshape(x.shape[0], -1)
        dst = out.reshape(src.shape)

        def piece(c, lo, hi, buf):
            z = buf[: hi - lo]
            z[...] = src[c, lo:hi]
            z -= m[c]
            z *= g[c]
            z /= s[c]
            z += b[c]
            dst[c, lo:hi] = z

        _over_runs(piece, *src.shape, lambda: np.empty(min(_RUN_BYTES // 8, src.shape[1])))


@dataclass(frozen=True)
class ReLU(Layer):
    TYPE = "relu"
    IN_PLACE = True

    def forward(self, x, out, bindings):
        """``out`` may be ``x``: np.maximum reads each voxel before writing it."""
        src = x.reshape(x.shape[0], -1)
        dst = out.reshape(src.shape)

        def piece(c, lo, hi, _):
            np.maximum(src[c, lo:hi], np.float32(0.0), out=dst[c, lo:hi])

        _over_runs(piece, *src.shape)


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

    def forward(self, x, out, bindings):
        _, do, ho, wo = out.shape
        sd, sh, sw = self.stride
        taps = list(product(*map(range, self.kernel)))

        def piece(c, _):
            # a running max over the taps in order, one channel of the output at a time
            for t, (a, b, e) in enumerate(taps):
                tap = x[c, a : a + sd * do : sd, b : b + sh * ho : sh, e : e + sw * wo : sw]
                if t == 0:
                    out[c] = tap
                else:
                    np.maximum(out[c], tap, out=out[c])

        _run(piece, len(out), inline=_fits_run(x, out))


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

    def forward(self, x, out, bindings):
        f = self.factor
        c, d, h, w = x.shape
        # blocks[k, i, a, j, b, :] is output row (i f + a, j f + b) of channel k
        blocks = out.reshape(c, d, f, h, f, w * f)

        def piece(k, row):
            # one channel: f strided copies widen each input row f times into a
            # float32 buffer per worker, and one broadcast copy writes each wide
            # row to its f^2 output rows. On 16 x 32^3 at f = 2 this took 1.4-1.8
            # ms, three np.repeat passes 4.8-7.8, and one broadcast copy from the
            # input, whose inner loop is f long, 9.7-14
            wide = row.reshape(d, h, w, f)
            for e in range(f):
                wide[..., e] = x[k]
            blocks[k] = row.reshape(d, 1, h, 1, w * f)

        _run(piece, c, lambda: np.empty(d * h * w * f, dtype=np.float32), inline=_fits_run(x, out))


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

    def forward(self, x, out, bindings):
        # a part that ``forward`` had its producer write into its channels of
        # ``out`` is already in place; the others are copied there
        parts = ((x, 0), (bindings[self.source], len(x)))
        rows = [(first + c, row) for part, first in parts if part.ctypes.data != out[first:].ctypes.data
                for c, row in enumerate(part.reshape(len(part), -1))]
        dst = out.reshape(len(out), -1)

        def piece(k, lo, hi, _):
            dst[rows[k][0], lo:hi] = rows[k][1][lo:hi]

        _over_runs(piece, len(rows), dst.shape[1])


@dataclass(frozen=True)
class Softmax(Layer):
    TYPE = "softmax"
    IN_PLACE = True

    def forward(self, x, out, bindings):
        """``out`` may be ``x``: each run of every channel is read into a
        float64 buffer first."""
        # exp(z - max z) / sum exp(z - max z) over the channels in float64, one run
        # of every channel at a time in float64 buffers per worker
        src = x.reshape(x.shape[0], -1)
        dst = out.reshape(src.shape)
        c, v = src.shape
        n = min(_RUN_BYTES // 8, v)

        def piece(_, lo, hi, bufs):
            (z, top, total), k = bufs, hi - lo
            z, top, total = z[: c * k].reshape(c, k), top[:k], total[:k]
            z[...] = src[:, lo:hi]
            np.max(z, axis=0, out=top)
            z -= top
            # a z below about -104 gives a probability that rounds to 0 in
            # float32, so the clamp keeps every output bit, and np.exp is about
            # 17x slower where its float64 result is subnormal (z below -708)
            np.maximum(z, -110.0, out=z)
            np.exp(z, out=z)
            np.sum(z, axis=0, out=total)
            z /= total
            dst[:, lo:hi] = z

        _over_runs(piece, 1, v, lambda: (np.empty(c * n), np.empty(n), np.empty(n)))


LAYER_TYPES: dict[str, type[Layer]] = {
    cls.TYPE: cls for cls in (Conv3D, BatchNorm, ReLU, MaxPool, UpsampleNearest, Concat, Softmax)
}


def conv3d(x: np.ndarray, p: Conv3D, out: np.ndarray) -> None:
    """Strided zero-padded cross-correlation over a (C, D, H, W) tensor, written
    into ``out``.

    Lowered to float64 GEMM: a 1x1x1 stride-1 unpadded kernel is one matmul
    per run of voxels; any other kernel streams over the input's depth planes,
    in bands of output rows that the pool's workers run at once. Within a
    band, each real input plane is lowered once, over (Cin, kw) at in-plane
    stride 1 with Cin kw >= 64 and over (Cin, kh, kw) otherwise, and its GEMMs
    (one per kernel row, or one) add the weight rows of the depth taps that
    read it times the lowered rows straight into the band's rows of the
    float64 accumulators of the output planes that read it through those
    taps. An output plane's accumulator is zeroed at its first real input
    plane; once its last one is in, it takes its bias in place and one casting
    copy rounds it into ``out``. An output plane that reads only zero padding
    is its bias.
    """
    cout, cin, kd, kh, kw = p.weights.shape
    _, do, ho, wo = out.shape
    sd, sh, sw = p.stride
    pd, ph, pw = p.padding
    bias = p.bias.astype(np.float64)[:, None]

    if (kd, kh, kw) == (1, 1, 1) and p.stride == (1, 1, 1) and p.padding == (0, 0, 0):
        wt = p.weights.reshape(cout, cin).astype(np.float64)
        src = x.reshape(cin, -1)
        dst = out.reshape(cout, -1)
        n = min(_RUN_BYTES // 8, src.shape[1])

        def piece(_, lo, hi, bufs):
            # one GEMM per run of voxels in float64 buffers per worker; with one
            # input channel, a broadcast product, which rounds each output once
            # as a GEMM with K = 1 does: a (2, 1) @ (1, 32768) matmul took about
            # 200 us, the product 30
            (cols, acc), k = bufs, hi - lo
            cols, acc = cols[: cin * k].reshape(cin, k), acc[: cout * k].reshape(cout, k)
            cols[...] = src[:, lo:hi]
            if cin == 1:
                np.multiply(wt, cols, out=acc)
            else:
                np.matmul(wt, cols, out=acc)
            acc += bias
            dst[:, lo:hi] = acc

        _over_runs(piece, 1, src.shape[1], lambda: (np.empty(cin * n), np.empty(cout * n)))
        return

    d, h, w = x.shape[1:]
    wp = w + 2 * pw
    # lowered over kl = 1 kernel row (one GEMM per kernel row) or all kl = kh
    # (one GEMM), with columns at the padded row pitch wp at in-plane stride 1
    stride1 = (sh, sw) == (1, 1)
    kl = 1 if stride1 and cin * kw >= 64 else kh
    pitch = wp if stride1 else wo
    # by_row[b, a]: depth tap a's (cout, (cin, kl, kw)) weights for kernel rows [b kl, (b + 1) kl)
    by_row = p.weights.astype(np.float64).reshape(cout, cin, kd, kh // kl, kl, kw).transpose(3, 2, 0, 1, 4, 5)
    # padded plane i reaches output plane z through depth tap a = i - z*sd, so
    # the taps a = i (mod sd) read it, and output plane z accumulates in slot z
    # mod nacc of the ring. In descending order those taps reach consecutive
    # output planes, the last z = i // sd: a run of slots that wraps at most
    # once, one GEMM per run, keyed by (i mod sd, the last one's slot)
    nacc = -(-kd // sd)
    gemms = {}
    for r, last in product(range(min(sd, kd)), range(nacc)):
        taps = list(range(r, kd, sd))[::-1]
        cut = nacc - (last - len(taps) + 1) % nacc  # taps before the ring wraps
        runs = [(0, taps[cut:] + taps[:cut])] if len(taps) == nacc else [(nacc - cut, taps[:cut]), (0, taps[cut:])]
        assert all(s0 + len(run) <= nacc for s0, run in runs)  # the GEMMs write inside the ring
        gemms[r, last] = [(s0, [np.ascontiguousarray(w[run].reshape(len(run) * cout, -1)) for w in by_row])
                          for s0, run in runs if run]
    for z in range(do):
        if not (pd < z * sd + kd and z * sd < pd + d):  # reads only padding
            out[:, z] = bias[:, :, None]
    # each real padded plane i that some output plane reads, with the output
    # planes whose first and whose last real plane it is
    planes = [(i, [z for z in zs if i == max(z * sd, pd)], [z for z in zs if i == min(z * sd + kd, pd + d) - 1])
              for i in range(pd, min(pd + d, (do - 1) * sd + kd))
              if (zs := range(max(0, -(-(i - kd + 1) // sd)), min(do - 1, i // sd) + 1))]
    bands = _bands(ho, wo)
    k_rows = cin * kl * kw
    # each band lowers its output rows, and at stride 1 the kh - kl rows below
    # them that the shifted GEMMs read. Every band's lowered rows and ring (nacc
    # Cout rows pitch) are carved out of one zeroed allocation made here, and
    # each band has its padded float32 input rows, halo and kw - 1 spare zeros
    # included, zeroed once
    lowered = [((r1 - r0 + kh - kl) if stride1 else (r1 - r0)) * pitch for r0, r1 in bands]
    spans = np.cumsum([0] + [k_rows * n + nacc * cout * (r1 - r0) * pitch for n, (r0, r1) in zip(lowered, bands)])
    buf = np.zeros(spans[-1], dtype=np.float64)
    pads = [np.zeros((cin, ((r1 - r0 - 1) * sh + kh) * wp + kw - 1), dtype=np.float32) for r0, r1 in bands]
    _, dgemm = _dgemm() or (None, None)

    def run_band(k, scratch):
        (r0, r1), pad, lcol = bands[k], pads[k], lowered[k]
        n = (r1 - r0) * pitch
        # the bias over a ring slot's columns: an add of two contiguous arrays is
        # one inner loop, while a broadcast (cout, 1) one took 21 against 10 us
        # per 16 x 2112 slot
        biases = np.repeat(bias, n, axis=1)
        col, ring = np.split(buf[spans[k] : spans[k + 1]], [k_rows * lcol])
        col, ring = col.reshape(k_rows, lcol), ring.reshape(nacc, cout, n)
        # the band's padded rows start at padded row r0*sh, input row top
        rows_p = (r1 - r0 - 1) * sh + kh
        plane = pad[:, : rows_p * wp].reshape(cin, rows_p, wp)
        top = r0 * sh - ph
        lo = max(0, top)
        hi = max(lo, min(h, top + rows_p))  # lo = hi: the band reads only padding rows
        if stride1:
            # windows[c, b, e, j] = the flat padded rows at b wp + e + j
            windows = np.lib.stride_tricks.as_strided(pad, (cin, kl, kw, lcol), (pad.strides[0], 4 * wp, 4, 4),
                                                      writeable=False)
        else:
            # windows[c, b, e, j, q] = plane[c, j*sh + b, q*sw + e]
            windows = np.lib.stride_tricks.sliding_window_view(plane, (kh, kw), axis=(1, 2))
            windows = windows[:, ::sh, ::sw].transpose(0, 3, 4, 1, 2)
        lowering = col.reshape(windows.shape)
        if dgemm is not None:
            at, ld = col.ctypes.data, ring.ctypes.data
        for i, starts, ends in planes:
            plane[:, lo - top : hi - top, pw : pw + w] = x[:, i - pd, lo:hi]
            lowering[...] = windows  # the cast to float64
            for z in starts:
                ring[z % nacc] = 0.0
            for s0, mats in gemms[i % sd, (i // sd) % nacc]:
                for b, wt in enumerate(mats):
                    # ring[s0:] += wt @ (the lowered rows shifted down b kernel rows)
                    if dgemm is None:
                        acc = ring[s0 : s0 + len(wt) // cout].reshape(len(wt), n)
                        part = scratch[: acc.size].reshape(acc.shape)
                        np.matmul(wt, col[:, b * wp : b * wp + n], out=part)
                        acc += part
                    else:
                        dgemm(101, 111, 111, len(wt), n, k_rows, 1.0, wt.ctypes.data, k_rows,
                              at + 8 * b * wp, lcol, 1.0, ld + 8 * s0 * cout * n, n)
            for z in ends:
                # the bias goes into the finished accumulator in place, then one
                # copy casts its outputs to float32. A casting np.add into ``out``
                # does the same add and rounding but runs buffered loops one row
                # long: 56 us per plane of a 1->16 conv's band at 64^3 against 23
                # (numpy 2.4)
                acc = ring[z % nacc]
                acc += biases
                out[:, z, r0:r1] = acc.reshape(cout, r1 - r0, pitch)[..., :wo]

    _run(run_band, len(bands),
         None if dgemm is not None else lambda: np.empty(nacc * cout * max(r1 - r0 for r0, r1 in bands) * pitch))


def apply_layer(
    x: np.ndarray, layer: Layer, bindings: dict[str, np.ndarray] | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply one layer to a (C, D, H, W) tensor and return its output.

    ``bindings`` maps earlier layer names to their outputs; only Concat reads it.
    The layer writes into ``out``, a C-contiguous float32 array of its output
    shape; without one, its shape rule is checked and its output allocated here.
    For a layer with ``IN_PLACE`` (BatchNorm, ReLU, Softmax) ``out`` may be
    ``x``, which it then writes over.
    """
    bindings = bindings or {}
    if out is None:
        shape = layer.out_shape(x.shape, {name: b.shape for name, b in bindings.items()})
        out = np.empty(shape, dtype=np.float32)
    layer.forward(x, out, bindings)
    return out
