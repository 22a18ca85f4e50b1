"""Synthetic phantoms and handcrafted weights for self-contained verification.

The phantom is a two-population volume: smoothly varying background tissue
inside an ellipsoidal brain mask plus a few bright lesion blobs. Because the
populations are separated by a wide intensity margin, an analytic ground
truth exists: lesion = (normalized intensity > t) for a cutoff t placed in
the gap. The companion weights implement exactly that rule end to end:

* each plane network is a 1x1x1 convolution emitting logits (0, w·(x - t))
  followed by softmax, i.e. posterior sigmoid(w·(x - t)), which crosses 0.5
  exactly at intensity t;
* the meta network applies the same construction to the mean of its three
  posterior channels, thresholding at 0.5.

With the default sharpness w = 50 and a margin of >= 0.1 z-units, the
pipeline's binarized output equals the analytic mask voxel for voxel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .layers import Conv3D, Softmax
from .network import NetworkSpec
from .volume import Volume3D

SHARPNESS = 50.0
BACKGROUND_LEVEL = 100.0
BACKGROUND_JITTER = 5.0
LESION_LEVEL = 180.0


def threshold_detector_net(t: float, w: float = SHARPNESS) -> NetworkSpec:
    """1-in/2-out per-voxel network with posterior sigmoid(w·(x - t))."""
    weights = np.zeros((2, 1, 1, 1, 1), dtype=np.float32)
    bias = np.zeros(2, dtype=np.float32)
    weights[1, 0, 0, 0, 0] = w
    bias[1] = -w * t
    layers = (("logits", Conv3D(weights=weights, bias=bias)), ("posterior", Softmax()))
    return NetworkSpec(layers=layers, in_channels=1, out_channels=2)


def mean_threshold_meta_net(cutoff: float = 0.5, w: float = SHARPNESS) -> NetworkSpec:
    """3-in/2-out network with posterior sigmoid(w·(mean(channels) - cutoff))."""
    weights = np.zeros((2, 3, 1, 1, 1), dtype=np.float32)
    bias = np.zeros(2, dtype=np.float32)
    weights[1, :, 0, 0, 0] = w / 3.0
    bias[1] = -w * cutoff
    layers = (("logits", Conv3D(weights=weights, bias=bias)), ("posterior", Softmax()))
    return NetworkSpec(layers=layers, in_channels=3, out_channels=2)


@dataclass(frozen=True)
class Phantom:
    flair: Volume3D  # raw (un-normalized) intensities
    brain_mask: Volume3D
    gt_mask: Volume3D  # analytic lesion mask
    networks: dict  # role -> NetworkSpec, threshold encoded in normalized units
    z_cutoff: float  # lesion iff normalized intensity > z_cutoff


def _ellipsoid_mask(shape: tuple[int, int, int]) -> np.ndarray:
    """The ellipsoid of semi-axes 0.42·n (at least 1) about the grid centre.
    Each axis's squared offsets are a broadcast 1-D axis, added in axis order."""
    acc = 0.0
    for axis, n in enumerate(shape):
        c = (n - 1) / 2.0
        r = max(n * 0.42, 1.0)
        offsets = (np.arange(n, dtype=np.float64) - c) / r
        acc = acc + (offsets**2).reshape([n if a == axis else 1 for a in range(3)])
    return acc <= 1.0


def make_phantom(
    seed: int = 0,
    shape: tuple[int, int, int] = (64, 64, 64),
    n_lesions: int = 4,
) -> Phantom:
    """Deterministic phantom volume, mask, analytic ground truth, and weights,
    on a 1 mm grid.

    Background intensities are jittered uniformly within ±BACKGROUND_JITTER
    of BACKGROUND_LEVEL; lesion blobs sit at LESION_LEVEL ± the same. The
    detection cutoff is placed midway across the (wide) gap between the two
    populations, expressed in normalized z-units. A blob is a whole cube of
    edge 2 to 5 inside the brain; raises InputError when none fits, or
    for a negative seed.
    """
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    inside = _ellipsoid_mask(shape)

    data = np.zeros(shape, dtype=np.float64)
    data[inside] = BACKGROUND_LEVEL + rng.uniform(-BACKGROUND_JITTER, BACKGROUND_JITTER, int(inside.sum()))

    gt = np.zeros(shape, dtype=bool)
    placed = 0
    attempts = 0
    while placed < n_lesions and attempts < 200:
        attempts += 1
        size = int(rng.integers(2, 6))
        lo = [int(rng.integers(0, max(n - size, 1))) for n in shape]
        block = tuple(slice(l, l + size) for l in lo)
        # a blob clipped by the volume edge is rejected like one outside the brain
        if inside[block].shape != (size,) * 3 or not inside[block].all():
            continue
        data[block] = LESION_LEVEL + rng.uniform(-BACKGROUND_JITTER, BACKGROUND_JITTER, (size,) * 3)
        gt[block] = True
        placed += 1
    if placed == 0:
        raise InputError(f"no lesion blob fits inside the brain of a {tuple(shape)} phantom")

    flair = Volume3D(data.astype(np.float32))
    brain_mask = Volume3D(inside.astype(np.float32))
    gt_mask = Volume3D(gt.astype(np.float32))

    # Normalize exactly as the pipeline will, then split the gap.
    vals = flair.data[inside].astype(np.float64)
    mu, sigma = vals.mean(), vals.std()
    hi_background = (BACKGROUND_LEVEL + BACKGROUND_JITTER - mu) / sigma
    lo_lesion = (LESION_LEVEL - BACKGROUND_JITTER - mu) / sigma
    z_cutoff = float((hi_background + lo_lesion) / 2.0)

    plane_net = threshold_detector_net(z_cutoff)
    networks = {
        "axial": plane_net,
        "sagittal": plane_net,
        "coronal": plane_net,
        "meta": mean_threshold_meta_net(),
    }
    return Phantom(
        flair=flair,
        brain_mask=brain_mask,
        gt_mask=gt_mask,
        networks=networks,
        z_cutoff=z_cutoff,
    )
