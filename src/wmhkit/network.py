"""Declarative feed-forward network description and its evaluator.

A network is an ordered list of named layers; Concat layers may reference any
earlier output by name, which is enough to express U-Net style skip
connections and the posterior-fusing meta network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from .errors import ShapeCheckFailed, ShapeMismatch, UnknownConcatSource
from .layers import Concat, Layer, apply_layer


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[tuple[str, Layer], ...]
    in_channels: int
    out_channels: int
    # per axis: the input voxels a block needs past each side of its core so
    # that the core's output is exact, and the pool grid its input must start
    # on (the lcm of the integer jumps)
    halo: tuple[int, ...] = field(init=False, repr=False, compare=False)
    align: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple((str(n), l) for n, l in self.layers))
        names = [n for n, _ in self.layers]
        if len(set(names)) != len(names):
            raise ShapeCheckFailed(f"duplicate layer names in {names}")
        # as in Araujo et al., "Computing Receptive Fields of CNNs" (Distill,
        # 2019), with jump the input voxels per voxel of the current tensor. A
        # Concat reads an earlier output of the same chain, whose halo cannot
        # exceed the current one, so the larger of the two is the current one
        halo, jump, align = [Fraction(0)] * 3, [Fraction(1)] * 3, [1] * 3
        for _, layer in self.layers:
            reach, step = layer.receptive_field()
            halo = [h + r * j for h, r, j in zip(halo, reach, jump)]
            jump = [j * s for j, s in zip(jump, step)]
            align = [lcm(a, j.numerator) if j.denominator == 1 else a for a, j in zip(align, jump)]
        object.__setattr__(self, "halo", tuple(ceil(h) for h in halo))
        object.__setattr__(self, "align", tuple(align))

    @property
    def pointwise(self) -> bool:
        """True when the receptive field is one voxel: each output voxel is a
        function of the input at that voxel alone, so any partition of the
        volume into blocks gives the same output as one pass."""
        return self.halo == (0, 0, 0) and self.align == (1, 1, 1)

    def validate(self, spatial: tuple[int, int, int] | None = None) -> None:
        """Dry-run shape inference; raises ShapeCheckFailed on any violation.

        The default probe is, per axis, the smallest multiple of ``align`` that
        is at least 16 and at least ``2 * halo + align``, so a net deep enough
        to pool 16 voxels away is probed at a size it can run on.
        """
        if spatial is None:
            spatial = tuple(-(-max(16, 2 * h + a) // a) * a for h, a in zip(self.halo, self.align))
        try:
            shape = infer_shapes(self, spatial)[-1] if self.layers else (self.in_channels, *spatial)
        except (ShapeMismatch, UnknownConcatSource) as exc:
            raise ShapeCheckFailed(str(exc)) from exc
        if shape[0] != self.out_channels:
            raise ShapeCheckFailed(
                f"network produces {shape[0]} channels, declared {self.out_channels}"
            )


def infer_shapes(
    net: NetworkSpec, spatial: tuple[int, int, int]
) -> list[tuple[int, int, int, int]]:
    """Shapes after each layer for an input of (in_channels, *spatial).

    Runs every layer's ``out_shape`` rule, as ``forward`` does once before a
    pass, so it succeeds iff forward succeeds on a conforming input of that size.
    """
    shape = (net.in_channels, *spatial)
    produced: dict[str, tuple[int, int, int, int]] = {}
    for name, layer in net.layers:
        shape = produced[name] = layer.out_shape(shape, produced)
    return list(produced.values())


def forward(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Run the network on a (C, D, H, W) float32 tensor.

    Every shape is inferred, and the declared output channels checked, before
    any layer runs. Layer outputs are allocated here and nowhere else: a
    Concat's output when its first part is made, and its parts' producers
    write straight into their channels of it. The current tensor goes to the
    first channels unless some Concat also reads it as a source; the source
    goes after it if no other Concat reads it and it is not also the current
    tensor. Every other output lives on its own and is copied by the Concats
    that read it: a source two Concats read, and a tensor that is a source and
    also a current tensor (both halves of a Concat of a tensor with itself).
    The network input is never a part, as no Concat is the first layer. A
    layer with ``IN_PLACE`` (BatchNorm, ReLU, Softmax) that is no Concat's part
    gets no output of its own: it writes over its input, unless that input is
    the network input or some Concat reads it, so neither ``x`` nor an output
    a Concat reads is ever written over (static memory planning, as in TVM,
    arXiv:1802.04799). A named output stays bound only while a later Concat
    still reads it.
    Deterministic: identical inputs and weights give bit-identical outputs.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or x.shape[0] != net.in_channels:
        raise ShapeMismatch(
            f"network declares {net.in_channels} input channels, got tensor shape {x.shape}"
        )
    shapes = infer_shapes(net, x.shape[1:])
    channels = shapes[-1][0] if shapes else x.shape[0]
    if channels != net.out_channels:
        raise ShapeMismatch(f"network produces {channels} channels, declared {net.out_channels}")
    names = [name for name, _ in net.layers]
    readers: dict[str, list[int]] = {}  # output name -> the Concats that read it, in order
    for k, (_, layer) in enumerate(net.layers):
        if isinstance(layer, Concat):
            readers.setdefault(layer.source, []).append(k)
    # layer -> (the Concat whose output it writes into, its first channel
    # there); a Concat placed in a later one hands its parts that one's output,
    # so the Concats are walked from the last
    home: dict[int, tuple[int, int]] = {}
    for k, (_, layer) in reversed(list(enumerate(net.layers))):
        if isinstance(layer, Concat):  # never the first layer: its source is an earlier output
            root, first = home.get(k, (k, 0))
            cur, src = k - 1, names.index(layer.source)
            if names[cur] not in readers:
                home[cur] = (root, first)
            if readers[layer.source] == [k] and src != cur:
                home[src] = (root, first + shapes[cur][0])
    bufs: dict[int, np.ndarray] = {}  # outputs of Concats yet to run, made with their first part
    bindings: dict[str, np.ndarray] = {}
    for i, (name, layer) in enumerate(net.layers):
        k, lo = home.get(i, (i, 0))
        if layer.IN_PLACE and 0 < i and k == i and names[i - 1] not in readers:
            # written over its input, which no later layer reads; that input is
            # its producer's own array, as only a Concat's source or its
            # current tensor is placed in its output
            out = x
        else:
            if k not in bufs:
                bufs[k] = np.empty(shapes[k], dtype=np.float32)
            out = bufs.pop(i) if k == i else bufs[k][lo : lo + shapes[i][0]]
        x = apply_layer(x, layer, bindings, out)
        bindings = {src: y for src, y in bindings.items() if readers[src][-1] > i}
        if name in readers:
            bindings[name] = x
    return x
