"""Orthogonal-plane ensemble inference with meta-network fusion.

The pipeline: reformat the normalized volume into each processing plane, run
tiled inference with that plane's network, map the posteriors back to the
canonical frame, stack them as channels, and fuse with the meta network.
Fusion happens in canonical space, so results are bit-exact regardless of the
input volume's on-disk orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeCheckFailed, ShapeMismatch, TileTooSmall
from .network import NetworkSpec, forward, infer_shapes
from .reformat import PlaneOrientation, reformat_from, reformat_to, to_canonical
from .volume import Volume3D, require_binary, require_same_grid

DEFAULT_TILE = (64, 64, 64)
DEFAULT_OVERLAP = 16
DEFAULT_THRESHOLD = 0.5

_PLANES = (PlaneOrientation.AXIAL, PlaneOrientation.SAGITTAL, PlaneOrientation.CORONAL)


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


def _tiled_posterior(
    net: NetworkSpec,
    x: np.ndarray,
    tile: tuple[int, int, int],
    overlap: int,
) -> np.ndarray:
    """Mean-of-tiles channel-1 posterior for a (C, D, H, W) input array."""
    if net.out_channels < 2:
        raise ShapeMismatch(
            f"posterior extraction needs a >=2-channel network, got {net.out_channels}"
        )
    spatial = x.shape[1:]
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
    cnt = np.zeros(spatial, dtype=np.int64)
    starts = [_tile_starts(n, t, overlap) for n, t in zip(spatial, actual)]
    for d0 in starts[0]:
        for h0 in starts[1]:
            for w0 in starts[2]:
                sl = (
                    slice(d0, d0 + actual[0]),
                    slice(h0, h0 + actual[1]),
                    slice(w0, w0 + actual[2]),
                )
                pred = forward(net, x[(slice(None),) + sl])
                acc[sl] += pred[1].astype(np.float64)
                cnt[sl] += 1
    return (acc / cnt).astype(np.float32)


def tiled_forward(
    net: NetworkSpec,
    v: Volume3D,
    tile: tuple[int, int, int] = DEFAULT_TILE,
    overlap: int = DEFAULT_OVERLAP,
) -> Volume3D:
    """Cover the volume with overlapping tiles and average the predictions.

    Each voxel's posterior is the arithmetic mean over all tiles containing
    it; edge tiles are clamped to the volume bounds. A volume smaller than
    one tile degenerates to a single forward pass.
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

    plane_posteriors = []
    for plane in _PLANES:
        vp = reformat_to(flair_c, plane)
        post = tiled_forward(spec.plane_net(plane), vp, spec.tile, spec.overlap)
        plane_posteriors.append(reformat_from(post, plane).data)

    stacked = np.stack(plane_posteriors, axis=0)
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
