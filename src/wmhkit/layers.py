"""Layer vocabulary and forward kernels for 3D CNN inference.

Activations are float32 arrays of shape (C, D, H, W). Convolution is
cross-correlation (no kernel flip) with zero padding, lowered to float64 GEMM
and streamed over depth: each zero-padded input plane is lowered once to its
im2col (Cin, kh, kw, Ho, Wo) in a ring of kd + sd such plane-columns, and
each output plane is one GEMM over the kd adjacent plane-columns it reads,
taken as one view (lowering over some kernel axes only, as in MEC, arXiv
1706.06873). Each output voxel is one float64 dot product over the taps in
the order (kd, Cin, kh, kw), and the bias is added after it. Beyond its
float32 output, such a conv holds the ring (8 (kd + sd) Cin kh kw Ho Wo
bytes), one padded float64 input plane and a (Cout, Ho Wo) float64
accumulator. A 1x1x1 stride-1 unpadded kernel skips the ring: it is one GEMM
over the whole input, converted to float64.

The GEMM shapes follow from the layer and the input shape alone, so repeated
runs are bit-identical. They are not free of the GEMM's column count N = Ho
Wo: in OpenBLAS 0.3.31 the float64 bits of a (16, 864) DGEMM differ between
N <= 64 and N >= 100, and those of a (16, 432) one up to N = 128. That a
tiled forward equals the whole-volume one, and that outputs do not depend on
the BLAS thread count, is therefore pinned by tests on float32 outputs, not
guaranteed by construction.

Each layer type is one frozen dataclass that owns its SGWT manifest tag
(``TYPE``), its shape rule (``out_shape``), its receptive field
(``receptive_field``) and its kernel (``forward``); its fields are its
manifest entry. A new layer type is one class plus its entry in
``LAYER_TYPES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import ShapeMismatch, UnknownConcatSource

Shape = tuple[int, int, int, int]


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
        # match, channel by channel in one reused float64 buffer
        z = np.empty(x.shape[1:], dtype=np.float64)
        out = np.empty(x.shape, dtype=np.float32)
        for c in range(x.shape[0]):
            z[...] = x[c]
            z -= m[c]
            z *= g[c]
            z /= s[c]
            z += b[c]
            out[c] = z
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
    over the input; any other kernel streams over depth. Each padded input
    plane's im2col, of shape (Cin, kh, kw, Ho, Wo), is built once into a ring
    of kd + sd plane-columns, and each output plane is one GEMM of the
    (Cout, kd*Cin*kh*kw) weight matrix by the kd consecutive plane-columns it
    reads, taken as one contiguous view.
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
    # taps in depth-major order, so the kd planes an output reads are adjacent rows
    wt = p.weights.transpose(0, 2, 1, 3, 4).reshape(cout, -1).astype(np.float64)
    ring = np.empty((kd + sd, cin, kh, kw, ho, wo), dtype=np.float64)
    plane = np.zeros((cin, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    # windows[c, j, k, b, e] = plane[c, j*sh + b, k*sw + e]
    windows = np.lib.stride_tricks.sliding_window_view(plane, (kh, kw), axis=(1, 2))
    windows = windows[:, ::sh, ::sw].transpose(0, 3, 4, 1, 2)
    acc = np.empty((cout, ho * wo), dtype=np.float64)
    out = np.empty((cout, do, ho, wo), dtype=np.float32)
    base = filled = 0  # ring slot 0 holds padded plane ``base``; planes below ``filled`` are built
    for z in range(do):
        lo = z * sd
        if lo + kd - base > len(ring):
            kept = ring[lo - base : filled - base]  # empty when the stride skips planes
            ring[: len(kept)] = kept
            base = lo
        for i in range(max(filled, lo), lo + kd):
            if pd <= i < pd + d:
                plane[:, ph : ph + h, pw : pw + w] = x[:, i - pd]
                ring[i - base] = windows
            else:
                ring[i - base] = 0.0
        filled = lo + kd
        np.matmul(wt, ring[lo - base : lo - base + kd].reshape(-1, ho * wo), out=acc)
        acc += bias
        out[:, z] = acc.reshape(cout, ho, wo)
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
