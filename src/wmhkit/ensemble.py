"""Orthogonal-plane ensemble inference with meta-network fusion.

The pipeline: run each plane's network over the normalized volume in that
plane's frame, stack the three posteriors as channels, and fuse them with the
meta network. Every whole volume is stored in the normalized FLAIR's memory
order, x-fastest for a parsed volume, and the canonical frame is only a view
of it (``volume.canonical_view``). Each voxel goes through the same
operations whatever the storage order, so results are bit-exact regardless
of the input volume's on-disk orientation.

Inference indexes the FLAIR and the mask so that C order walks that memory,
their axes reversed when the FLAIR is F-ordered. The tile plan follows from
each network's receptive field. A pointwise net (receptive field of one
voxel) commutes with any flip or permutation of the axes, so it runs over
runs of consecutive voxels in memory order, each sized by ``_RUN_BYTES`` and
viewed as a (C, n, 1, 1) tensor: each voxel is computed once, and the tile
geometry is unused. Any other net runs in its plane's frame, an
axis-permuted canonical view of the storage, by U-Net's overlap-tile
strategy (arXiv:1505.04597, Fig. 2): disjoint core blocks, each computed
with the net's halo and cropped to its core, give one whole-volume pass bit
for bit. Each core is written through the same view of the posterior, so no
plane makes a copy of either.

A pointwise meta net fuses only the in-mask voxels, since every other
posterior voxel is 0: they are gathered once from the FLAIR, in memory
order, and every pointwise net, plane or meta, runs over that compact buffer
in runs, each plane net's run made as the meta net needs it. Only the
posteriors of plane nets that need tiles are stacked as volumes, each then
compacted in place to its in-mask voxels, so that a run of it is a slice.
The fused runs are written over the compact buffer once read, then
scattered into a zeroed posterior. With 1x1x1 nets the plane posteriors are
never whole volumes, and the out-of-mask voxels are never computed. A meta
net that needs tiles reads out-of-mask neighbours, so it and the plane nets
run over the whole grid, and its out-of-mask posterior is zeroed one slab
of the slowest memory axis at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import InputError, ShapeCheckFailed, ShapeMismatch, TileTooSmall
from .layers import _RUN_BYTES
from .network import NetworkSpec, forward, infer_shapes
from .reformat import PLANE_AXES, PlaneOrientation, to_canonical
from .volume import CANONICAL_ORIENTATION, Volume3D, binary_mask, canonical_view, require_binary, require_same_grid

DEFAULT_TILE = (64, 64, 64)
DEFAULT_THRESHOLD = 0.5

_PLANES = (PlaneOrientation.AXIAL, PlaneOrientation.SAGITTAL, PlaneOrientation.CORONAL)


@dataclass(frozen=True)
class EnsembleSpec:
    """Configured ensemble: three plane networks (1-in/2-out), one meta
    network (3-in/2-out), binarization threshold, and the largest input tile.
    ``cores`` holds each net's block core (see ``_core``), in field order."""

    axial_net: NetworkSpec
    sagittal_net: NetworkSpec
    coronal_net: NetworkSpec
    meta_net: NetworkSpec
    threshold: float = DEFAULT_THRESHOLD
    tile: tuple[int, int, int] = DEFAULT_TILE
    cores: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise InputError(f"threshold must lie in (0, 1), got {self.threshold}")
        if min(self.tile) < 1:
            raise InputError(f"tile dims must be at least 1, got {self.tile}")
        nets = (self.axial_net, self.sagittal_net, self.coronal_net, self.meta_net)
        for net, cin in zip(nets, (1, 1, 1, 3)):
            if net.in_channels != cin or net.out_channels != 2:
                raise ShapeCheckFailed(
                    f"expected a {cin}-in/2-out network, got "
                    f"{net.in_channels}-in/{net.out_channels}-out"
                )
        object.__setattr__(self, "cores", tuple(_core(net, self.tile) for net in nets))


def _core(net: NetworkSpec, tile: tuple[int, int, int]) -> tuple[int, int, int]:
    """Per axis, the largest multiple of ``net.align`` whose input tile, the
    core plus the halo on both sides rounded out to the pool grid, fits in
    ``tile``. Raises TileTooSmall when that leaves less than one grid step."""
    core = tuple((t // a + 2 * (-h // a)) * a for t, h, a in zip(tile, net.halo, net.align))
    if any(c < a for c, a in zip(core, net.align)):
        raise TileTooSmall(f"tile {tuple(tile)} leaves no core for a net with halo {net.halo} on pool grid {net.align}")
    return core


def _blocks(n: int, tile: int, core: int, halo: int, align: int) -> list[tuple[slice, slice, slice]]:
    """(core, input, core within input) slices of each block along one axis.
    An axis no longer than the tile is one block. Otherwise a block's input
    reaches the margin past its core on each side, clipped at the volume edge,
    where zero padding is also what one whole-volume pass sees."""
    if n <= tile:
        return [(slice(0, n), slice(0, n), slice(0, n))]
    m = -(-halo // align) * align  # the halo rounded up to the pool grid
    out = []
    for s in range(0, n, core):
        e, a = min(s + core, n), max(s - m, 0)
        out.append((slice(s, e), slice(a, min(e + m, n)), slice(s - a, e - a)))
    return out


def _run_posterior(net: NetworkSpec, run: np.ndarray) -> np.ndarray:
    """Channel-1 posterior of a pointwise net over a (C, n) run of voxels,
    which it sees as a (C, n, 1, 1) tensor."""
    return forward(net, run[..., np.newaxis, np.newaxis])[1, :, 0, 0]


def _pointwise_posterior(net: NetworkSpec, out: np.ndarray, run_input) -> np.ndarray:
    """Channel-1 posterior of the pointwise ``net``, written into the
    C-contiguous ``out`` over runs of ``_RUN_BYTES // 8`` voxels in C order,
    the last one shorter. ``run_input(s, e)`` gives the (C, e - s) input of
    voxels [s, e). Each run is written after its input is made, so that input
    may be read from ``out`` itself."""
    flat = out.reshape(-1)
    n = _RUN_BYTES // 8
    for s in range(0, flat.size, n):
        e = min(s + n, flat.size)
        flat[s:e] = _run_posterior(net, run_input(s, e))
    return out


def _tiled_posterior(
    net: NetworkSpec,
    x: np.ndarray,
    tile: tuple[int, int, int],
    core: tuple[int, int, int],
    out: np.ndarray | None = None,
    orientation: tuple[str, str, str] = CANONICAL_ORIENTATION,
    axes: tuple[int, int, int] = (0, 1, 2),
) -> np.ndarray:
    """Channel-1 posterior for a (C, D, H, W) input array, as float32 (D, H, W),
    written into ``out`` when given, C-contiguous for a pointwise net. Both
    are indexed in ``orientation``.

    A pointwise net runs by ``_pointwise_posterior`` in C order, each run a
    view of the input, so each voxel is computed once and ``tile``, ``core``,
    ``orientation`` and ``axes`` are unused.
    Any other net runs in the frame whose axis i is canonical axis
    ``axes[i]``, and must map that frame's dims to themselves. It runs on a
    view of each block's input of ``_blocks`` in that frame and writes the
    block's core through the same view of ``out``.
    """
    if net.out_channels < 2:
        raise ShapeMismatch(
            f"posterior extraction needs a >=2-channel network, got {net.out_channels}"
        )
    if out is None:
        out = np.empty(x.shape[1:], dtype=np.float32)

    if net.pointwise:
        flat = x.reshape(x.shape[0], -1)
        return _pointwise_posterior(net, out, lambda s, e: flat[:, s:e])

    x = canonical_view(x, orientation).transpose(0, *(a + 1 for a in axes))
    frame = canonical_view(out, orientation).transpose(axes)
    spatial = x.shape[1:]
    produced = infer_shapes(net, spatial)[-1][1:]
    if produced != spatial:
        raise ShapeMismatch(f"tiled inference needs a size-preserving network; {spatial} -> {produced}")
    for blocks in product(*map(_blocks, spatial, tile, core, net.halo, net.align)):
        kept, inputs, crop = zip(*blocks)
        frame[kept] = forward(net, x[(slice(None), *inputs)])[(1, *crop)]
    return out


def tiled_forward(net: NetworkSpec, v: Volume3D, tile: tuple[int, int, int] = DEFAULT_TILE) -> Volume3D:
    """Channel-1 posterior of ``net`` over the volume, bit for bit its output
    on the whole volume. A pointwise net runs over cache-sized runs of voxels
    and ignores ``tile``. Any other net runs on disjoint core blocks, each
    computed with its halo and no input tile larger than ``tile``; an axis no
    longer than the tile is one block. Raises TileTooSmall when ``tile``
    leaves no core.
    """
    post = _tiled_posterior(net, v.data[np.newaxis], tile, _core(net, tile))
    return v.with_data(post)


def _reversed(v: Volume3D) -> Volume3D:
    """``v`` indexed with its axes reversed: the same memory, whose C order
    is ``v``'s F order, and the same ``canonical_view``."""
    return Volume3D(v.data.T, v.spacing[::-1], v.orientation[::-1])


def predict_ensemble(spec: EnsembleSpec, flair: Volume3D, mask: Volume3D) -> Volume3D:
    """Full ensemble posterior for a normalized volume, in the canonical frame.

    Expects ``flair`` already intensity-normalized within ``mask``, float32
    as ``normalize_intensity`` returns it, and consumes it: the posterior,
    with out-of-mask voxels forced to 0, is written over ``flair.data`` once
    every net has read the FLAIR, and returned as its canonical view. A mask
    stored in another layout is copied once.

    The posteriors of plane nets that are not pointwise are stacked in the
    FLAIR's storage order (F when it is F-contiguous, C otherwise). A meta
    net that is not pointwise fuses the stack of all three, and the
    out-of-mask voxels of its posterior are zeroed one slab of the slowest
    memory axis at a time. A pointwise meta net computes only the
    in-mask voxels, gathered in memory order into one compact buffer, each
    stacked plane first compacted in place the same way: it makes each run
    of its (3, n) input in one buffer, from a pointwise plane net's forward
    on that run of the compact FLAIR or from that slice of a stacked plane,
    and writes the fused run over the compact FLAIR. The compact posterior
    is then scattered into the zeroed FLAIR. So no out-of-mask value
    reaches its pointwise nets, and no more than the FLAIR, the stacked
    planes and the compact buffer are ever large.
    """
    require_same_grid(flair, mask, "volume and mask")
    mask = binary_mask(mask, "brain mask")
    if flair.data.flags.f_contiguous:  # so that C order walks the FLAIR's memory
        flair, mask = _reversed(flair), _reversed(mask)
    inside = np.ascontiguousarray(mask.data)
    x = flair.data[np.newaxis]

    meta = spec.meta_net
    plane_nets = (spec.axial_net, spec.sagittal_net, spec.coronal_net)
    in_stack = [k for k, net in enumerate(plane_nets) if not (meta.pointwise and net.pointwise)]
    stacked = np.empty((len(in_stack), *flair.dims), dtype=np.float32)
    for post, k in zip(stacked, in_stack):
        plane = PLANE_AXES[_PLANES[k]]
        _tiled_posterior(plane_nets[k], x, spec.tile, spec.cores[k], post, flair.orientation, plane)

    if not meta.pointwise:
        _tiled_posterior(meta, stacked, spec.tile, spec.cores[3], flair.data, flair.orientation)
        for slab, keep in zip(flair.data, inside):
            slab[~keep] = 0.0
        return to_canonical(flair)

    for post in stacked:  # compacted in place to its in-mask voxels, in memory order
        gathered = post[inside]
        post.reshape(-1)[: gathered.size] = gathered
        del gathered
    compact = flair.data[inside]
    rows = {k: post.reshape(-1) for k, post in zip(in_stack, stacked)}
    buf = np.empty((len(plane_nets), min(_RUN_BYTES // 8, compact.size)), dtype=np.float32)

    def planes(s, e):
        run = buf[:, : e - s]
        for k, (row, net) in enumerate(zip(run, plane_nets)):
            row[:] = rows[k][s:e] if k in rows else _run_posterior(net, compact[np.newaxis, s:e])
        return run

    _pointwise_posterior(meta, compact, planes)
    flair.data.fill(0.0)
    flair.data[inside] = compact
    return to_canonical(flair)


def binarize(post: Volume3D, threshold: float = DEFAULT_THRESHOLD) -> Volume3D:
    """Threshold a posterior map into a bool mask; a voxel is lesion iff
    posterior > threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return post.with_data(post.data > threshold)


def wmh_volume_ml(mask: Volume3D) -> float:
    """Lesion volume in millilitres: foreground voxels times voxel volume."""
    require_binary(mask, "lesion mask")
    count = float(np.count_nonzero(mask.data))
    return count * mask.voxel_volume_mm3 / 1000.0
