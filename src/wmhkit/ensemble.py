"""Orthogonal-plane ensemble inference with meta-network fusion.

The pipeline: run each plane's network over the normalized volume in that
plane's frame, stack the three posteriors as channels in the canonical frame,
and fuse them with the meta network. Fusion happens in canonical space, so
results are bit-exact regardless of the input volume's on-disk orientation.

The tile plan follows from each network's receptive field. A pointwise net
(receptive field of one voxel) commutes with the plane's axis permutation, so
it runs on the canonical volume directly, over runs of consecutive voxels in
storage order, each sized by ``_RUN_BYTES`` and viewed as a (C, n, 1, 1)
tensor: each voxel is computed once, and the tile geometry is unused. Any other
net runs on the volume reformatted into its plane, over overlapping tiles whose
predictions are averaged per voxel, and its posterior is mapped back to the
canonical frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ShapeCheckFailed, ShapeMismatch, TileTooSmall
from .network import NetworkSpec, forward, infer_shapes
from .reformat import PlaneOrientation, reformat_from, reformat_to, to_canonical
from .volume import Volume3D, require_binary, require_same_grid

DEFAULT_TILE = (64, 64, 64)
DEFAULT_OVERLAP = 16
DEFAULT_THRESHOLD = 0.5

_PLANES = (PlaneOrientation.AXIAL, PlaneOrientation.SAGITTAL, PlaneOrientation.CORONAL)

# float64 bytes of one channel over a run of a pointwise net, so the few 2- or
# 3-channel float64 temporaries a conv or Softmax holds over a run stay in L2
# (64^3 blocks made each of them 4 MB). On a 160x192x160 grid, one thread ran
# a threshold net in 47-49 ms at 16384-65536 voxels per run, 72 ms on 64^3
# blocks and 87 ms at 2048; two batch threads, which share the GIL for each
# run's Python overhead, took 304/275/267 ms of inference per subject at
# 16384/32768/65536 voxels per run.
_RUN_BYTES = 256 * 2**10


@dataclass(frozen=True)
class EnsembleSpec:
    """Configured ensemble: three plane networks (1-in/2-out), one meta
    network (3-in/2-out), binarization threshold, and tile geometry."""

    axial_net: NetworkSpec
    sagittal_net: NetworkSpec
    coronal_net: NetworkSpec
    meta_net: NetworkSpec
    threshold: float = DEFAULT_THRESHOLD
    tile: tuple[int, int, int] = DEFAULT_TILE
    overlap: int = DEFAULT_OVERLAP

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if min(self.tile) < 1 or self.overlap < 0 or self.overlap >= min(self.tile):
            raise ValueError(f"overlap {self.overlap} must be < tile dims {self.tile}")
        for net, cin in ((self.axial_net, 1), (self.sagittal_net, 1), (self.coronal_net, 1), (self.meta_net, 3)):
            if net.in_channels != cin or net.out_channels != 2:
                raise ShapeCheckFailed(
                    f"expected a {cin}-in/2-out network, got "
                    f"{net.in_channels}-in/{net.out_channels}-out"
                )

    def plane_net(self, plane: PlaneOrientation) -> NetworkSpec:
        return {
            PlaneOrientation.AXIAL: self.axial_net,
            PlaneOrientation.SAGITTAL: self.sagittal_net,
            PlaneOrientation.CORONAL: self.coronal_net,
        }[plane]


def _tile_starts(n: int, tile: int, overlap: int) -> list[int]:
    if tile >= n:
        return [0]
    step = tile - overlap
    starts = list(range(0, n - tile + 1, step))
    if starts[-1] + tile < n:
        starts.append(n - tile)  # edge tile shifted inward, never padded
    return starts


def _coverage(n: int, tile: int, starts: list[int]) -> np.ndarray:
    """How many of the tiles starting at ``starts`` cover each index of one axis."""
    cnt = np.zeros(n, dtype=np.int64)
    for s in starts:
        cnt[s : s + tile] += 1
    return cnt


def _tiled_posterior(
    net: NetworkSpec,
    x: np.ndarray,
    tile: tuple[int, int, int],
    overlap: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Channel-1 posterior for a (C, D, H, W) input array, as float32 (D, H, W),
    written into ``out`` (C-contiguous) when given.

    A pointwise net runs on consecutive runs of ``_RUN_BYTES // 8`` voxels in
    C order (the last run shorter), each a (C, n, 1, 1) view of the input, so
    each voxel is computed once and ``tile`` and ``overlap`` are unused. Any
    other net runs on overlapping tiles of ``tile`` (edge tiles shifted inward)
    and each voxel gets the mean over the tiles covering it.
    """
    if net.out_channels < 2:
        raise ShapeMismatch(
            f"posterior extraction needs a >=2-channel network, got {net.out_channels}"
        )
    spatial = x.shape[1:]
    if out is None:
        out = np.empty(spatial, dtype=np.float32)

    if net.pointwise:
        flat = x.reshape(x.shape[0], -1)
        out_flat = out.reshape(-1)
        n = _RUN_BYTES // 8
        for s in range(0, flat.shape[1], n):
            run = flat[:, s : s + n]
            pred = forward(net, run[..., np.newaxis, np.newaxis])
            out_flat[s : s + run.shape[1]] = pred[1, :, 0, 0]
        return out

    actual = tuple(min(t, n) for t, n in zip(tile, spatial))
    try:
        shapes = infer_shapes(net, actual)
    except Exception as exc:
        raise TileTooSmall(f"tile {actual} is not viable for this network: {exc}") from exc
    if shapes and shapes[-1][1:] != actual:
        raise ShapeMismatch(
            f"tiled inference needs a size-preserving network; {actual} -> {shapes[-1][1:]}"
        )

    acc = np.zeros(spatial, dtype=np.float64)
    starts = [_tile_starts(n, t, overlap) for n, t in zip(spatial, actual)]
    for sl in product(*([slice(s, s + t) for s in axis] for axis, t in zip(starts, actual))):
        pred = forward(net, x[(slice(None), *sl)])
        acc[sl] += pred[1].astype(np.float64)
    # the tiles are the product of per-axis starts, so a voxel's tile count is
    # the product of its per-axis coverage counts
    cnt_d, cnt_h, cnt_w = (_coverage(n, t, s) for n, t, s in zip(spatial, actual, starts))
    cnt_hw = np.multiply.outer(cnt_h, cnt_w)
    for d, c in enumerate(cnt_d):
        acc[d] /= c * cnt_hw
    out[...] = acc
    return out


def tiled_forward(
    net: NetworkSpec,
    v: Volume3D,
    tile: tuple[int, int, int] = DEFAULT_TILE,
    overlap: int = DEFAULT_OVERLAP,
) -> Volume3D:
    """Channel-1 posterior of ``net`` over the volume, computed tile by tile.

    A pointwise net (receptive field of one voxel) runs over cache-sized runs
    of consecutive voxels in storage order and ignores ``tile`` and
    ``overlap``; every partition gives the same result. Any other net is run
    on tiles of ``tile`` that overlap by ``overlap``, and each voxel's
    posterior is the arithmetic mean over all tiles containing it; edge tiles
    are shifted inward to stay inside the volume. A volume smaller than one
    tile degenerates to a single forward pass.
    """
    post = _tiled_posterior(net, v.data[np.newaxis], tile, overlap)
    return v.with_data(post)


def predict_ensemble(spec: EnsembleSpec, flair: Volume3D, mask: Volume3D) -> Volume3D:
    """Full ensemble posterior for a normalized volume, in the canonical frame.

    Expects ``flair`` already intensity-normalized within ``mask``. Returns a
    posterior map with out-of-mask voxels forced to 0.
    """
    require_same_grid(flair, mask, "volume and mask")
    require_binary(mask, "brain mask")
    flair_c = to_canonical(flair)
    mask_c = to_canonical(mask)

    stacked = np.empty((len(_PLANES), *flair_c.dims), dtype=np.float32)
    for post, plane in zip(stacked, _PLANES):
        net = spec.plane_net(plane)
        if net.pointwise:
            # a per-voxel net commutes with the plane's axis permutation
            _tiled_posterior(net, flair_c.data[np.newaxis], spec.tile, spec.overlap, out=post)
        else:
            vp = reformat_to(flair_c, plane)
            post[...] = reformat_from(tiled_forward(net, vp, spec.tile, spec.overlap), plane).data

    fused = _tiled_posterior(spec.meta_net, stacked, spec.tile, spec.overlap)
    fused[mask_c.data == 0] = 0.0
    return flair_c.with_data(fused)


def binarize(post: Volume3D, threshold: float = DEFAULT_THRESHOLD) -> Volume3D:
    """Threshold a posterior map; a voxel is lesion iff posterior > threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return post.with_data((post.data > threshold).astype(np.float32))


def wmh_volume_ml(mask: Volume3D) -> float:
    """Lesion volume in millilitres: foreground voxels times voxel volume."""
    require_binary(mask, "lesion mask")
    count = float(np.count_nonzero(mask.data))
    return count * mask.voxel_volume_mm3 / 1000.0
