"""Layer vocabulary and forward kernels for 3D CNN inference.

Activations are float32 arrays of shape (C, D, H, W). Convolution is
cross-correlation (no kernel flip) with zero padding, lowered to float64 GEMM
(im2col, as in cuDNN). The reduction order is fixed: each output voxel is one
float64 dot product over (Cin, kd, kh, kw) taken by the BLAS GEMM, whose
operand shapes follow from the layer and the input shape alone (the slab
height comes from ``_COL_BYTES``), and the bias is added after it. Repeated
runs are therefore bit-identical, and so are runs at different BLAS thread
counts, since OpenBLAS splits a GEMM over its output, not its reduction.

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

# bound on the float64 im2col buffer that conv3d fills per slab; a slab is
# never less than one output plane, whatever that plane needs
_COL_BYTES = 32 * 2**20


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
        shape = (x.shape[0], 1, 1, 1)
        g = self.gamma.astype(np.float64).reshape(shape)
        b = self.beta.astype(np.float64).reshape(shape)
        m = self.mean.astype(np.float64).reshape(shape)
        v = self.var.astype(np.float64).reshape(shape)
        # the operations of g * (x - m) / sqrt(v + eps) + b in its order, so the bits
        # match, but in one float64 buffer instead of four temporaries
        z = x - m
        z *= g
        z /= np.sqrt(v + self.eps)
        z += b
        return z.astype(np.float32)


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

    Lowered to float64 GEMM: a 1x1x1 stride-1 kernel is one matmul over the
    padded input; any other kernel fills a reused im2col buffer for a slab of
    output planes at a time and multiplies it by the (Cout, Cin*kd*kh*kw)
    weight matrix. A slab holds as many planes as fit in ``_COL_BYTES``, and
    at least one.
    """
    cout, cin, kd, kh, kw = p.weights.shape
    _, do, ho, wo = p.out_shape(x.shape, {})
    sd, sh, sw = p.stride
    pd, ph, pw = p.padding

    d, h, w = x.shape[1:]
    xpad = np.zeros((cin, d + 2 * pd, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xpad[:, pd : pd + d, ph : ph + h, pw : pw + w] = x

    wt = p.weights.reshape(cout, -1).astype(np.float64)
    bias = p.bias.astype(np.float64)[:, None]
    if (kd, kh, kw) == (1, 1, 1) and p.stride == (1, 1, 1):
        acc = wt @ xpad.reshape(cin, -1)
        acc += bias
        return acc.reshape(cout, do, ho, wo).astype(np.float32)

    # windows[c, i, j, k, a, b, e] = xpad[c, i*sd + a, j*sh + b, k*sw + e]
    windows = np.lib.stride_tricks.sliding_window_view(xpad, (kd, kh, kw), axis=(1, 2, 3))
    windows = windows[:, ::sd, ::sh, ::sw].transpose(0, 4, 5, 6, 1, 2, 3)
    taps = cin * kd * kh * kw
    plane = ho * wo
    rows = max(1, min(do, _COL_BYTES // (8 * taps * plane)))
    col_buf = np.empty(taps * rows * plane, dtype=np.float64)
    acc_buf = np.empty(cout * rows * plane, dtype=np.float64)
    out = np.empty((cout, do, ho, wo), dtype=np.float32)
    for r0 in range(0, do, rows):
        n = min(rows, do - r0)
        col = col_buf[: taps * n * plane].reshape(taps, n * plane)
        col.reshape(cin, kd, kh, kw, n, ho, wo)[...] = windows[..., r0 : r0 + n, :, :]
        acc = np.matmul(wt, col, out=acc_buf[: cout * n * plane].reshape(cout, n * plane))
        acc += bias
        out[:, r0 : r0 + n] = acc.reshape(cout, n, ho, wo)
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
