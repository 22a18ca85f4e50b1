"""Histogram-based comparator segmentation.

Fits a Gaussian to the dominant mode of the in-mask intensity histogram
(sample mean/SD of the voxels inside the half-maximum region around the modal
bin) and labels as lesion every in-mask voxel brighter than
``mode_mean + alpha * mode_sd``. This is the looser, intensity-threshold
style baseline the agreement statistics are exercised against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMask, InputError, NonFiniteInput
from .volume import Volume3D, binary_mask, require_same_dims


@dataclass(frozen=True)
class HistParams:
    alpha: float = 3.0  # SD multiplier above the fitted mode
    bins: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"alpha must be positive and finite, got {self.alpha}")
        if self.bins < 16:
            raise InputError(f"need at least 16 bins, got {self.bins}")


def modal_threshold(flair: Volume3D, mask: Volume3D, p: HistParams = HistParams()) -> float:
    """The intensity cutoff implied by the modal-Gaussian fit. Raises
    NonFiniteInput when an in-mask intensity is NaN or infinite."""
    require_same_dims(flair, mask, "volume and mask")
    vals = flair.data[binary_mask(mask, "brain mask").data].astype(np.float64)
    if vals.size < 2:
        raise DegenerateMask(f"mask selects {vals.size} voxels; need at least 2")
    lo, hi = float(vals.min()), float(vals.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteInput("in-mask intensities hold a NaN or infinite voxel")
    if lo == hi:
        raise DegenerateMask("constant in-mask intensity; no mode to fit")

    counts, edges = np.histogram(vals, bins=p.bins, range=(lo, hi))
    mode = int(np.argmax(counts))  # ties resolve to the lowest-intensity bin
    half = counts[mode] / 2.0

    left = mode
    while left > 0 and counts[left - 1] >= half:
        left -= 1
    right = mode
    while right < p.bins - 1 and counts[right + 1] >= half:
        right += 1

    sel = (vals >= edges[left]) & (vals <= edges[right + 1])
    region = vals[sel]
    if region.size < 2:
        raise DegenerateMask("half-maximum region holds fewer than 2 voxels")
    mu = float(region.mean())
    sd = float(region.std(ddof=1))
    if sd == 0.0:
        raise DegenerateMask("zero variance inside the half-maximum region")
    return mu + p.alpha * sd


def histogram_segment(
    flair: Volume3D, mask: Volume3D, p: HistParams = HistParams()
) -> tuple[Volume3D, float]:
    """Bool lesion mask from the modal-Gaussian intensity threshold, and the
    ``modal_threshold`` cutoff it thresholds at, from one fit.

    The mask shrinks monotonically (set inclusion) as alpha grows and is
    always a subset of the brain mask.
    """
    mask = binary_mask(mask, "brain mask")
    cutoff = modal_threshold(flair, mask, p)
    return flair.with_data(mask.data & (flair.data > cutoff)), cutoff
