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
from .layers import Layer, apply_layer

DEFAULT_PROBE_SPATIAL = (16, 16, 16)


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

    def validate(self, spatial: tuple[int, int, int] = DEFAULT_PROBE_SPATIAL) -> None:
        """Dry-run shape inference; raises ShapeCheckFailed on any violation."""
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

    Runs the same ``out_shape`` rules that ``apply_layer`` checks before each
    layer, so it succeeds iff forward succeeds on a conforming input of that size.
    """
    shape = (net.in_channels, *spatial)
    produced: dict[str, tuple[int, int, int, int]] = {}
    for name, layer in net.layers:
        shape = produced[name] = layer.out_shape(shape, produced)
    return list(produced.values())


def forward(net: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Run the network on a (C, D, H, W) float32 tensor.

    A named output stays bound only while a later layer (a Concat) still reads
    it, and is dropped after its last reader. Deterministic: identical inputs
    and weights give bit-identical outputs.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4 or x.shape[0] != net.in_channels:
        raise ShapeMismatch(
            f"network declares {net.in_channels} input channels, got tensor shape {x.shape}"
        )
    last_read = {src: i for i, (_, layer) in enumerate(net.layers) for src in layer.sources()}
    bindings: dict[str, np.ndarray] = {}
    for i, (name, layer) in enumerate(net.layers):
        x = apply_layer(x, layer, bindings)
        for src in layer.sources():
            if last_read[src] == i:
                del bindings[src]
        if last_read.get(name, -1) > i:
            bindings[name] = x
    if x.shape[0] != net.out_channels:
        raise ShapeMismatch(
            f"network produced {x.shape[0]} channels, declared {net.out_channels}"
        )
    return x
