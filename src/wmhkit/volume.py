"""Voxel grid container and in-mask intensity normalization.

Volumes are computed in the memory order they are stored in. NIfTI voxels
are x-fastest, so a parsed volume is F-ordered, and so is every whole
volume ``segment`` makes from it: the normalized FLAIR, the posterior and
the lesion mask. The canonical RAS frame is only a view of that storage
(``canonical_view``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMask, NonBinaryInput, NonFiniteInput, OrientationMismatch, ShapeMismatch

CANONICAL_ORIENTATION = ("R", "A", "S")

# Anatomical axis (0=left/right, 1=posterior/anterior, 2=inferior/superior)
# named by each code, and the code of each axis's negative direction.
AXIS_OF_CODE = {"R": 0, "L": 0, "A": 1, "P": 1, "S": 2, "I": 2}
NEGATIVE_CODES = ("L", "P", "I")

# normalize_intensity gathers the in-mask values this many voxels at a time,
# so that no float32 copy of them all is made: such a copy, freed at once,
# raised the peak RSS of a two-subject 160x192x160 batch by about 16 MB
_GATHER_VOXELS = 1 << 18


@dataclass(frozen=True)
class Volume3D:
    """A 3D scalar field with voxel spacing (mm) and anatomical orientation.

    ``data`` has shape (nx, ny, nz) and is stored as float32, except that a
    bool array is kept as it is: a mask that is binary by its type, which
    ``require_binary`` need not scan. ``orientation`` names the anatomical
    direction of each *increasing* index axis, e.g. ("R", "A", "S") for a
    canonical RAS volume. The same container carries intensities, posterior
    probabilities, binary masks, and label maps.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    orientation: tuple[str, str, str] = CANONICAL_ORIENTATION

    def __post_init__(self):
        arr = self.data
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.bool_):
            arr = np.asarray(arr, dtype=np.float32)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3D, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"volume dims must be positive, got {arr.shape}")
        object.__setattr__(self, "data", arr)

        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(np.isfinite(s) and s > 0 for s in spacing):
            raise ValueError(f"spacing must be three positive values, got {self.spacing}")
        object.__setattr__(self, "spacing", spacing)

        ori = tuple(str(c) for c in self.orientation)
        if len(ori) != 3 or any(c not in AXIS_OF_CODE for c in ori):
            raise ValueError(f"bad orientation codes {self.orientation}")
        if len({AXIS_OF_CODE[c] for c in ori}) != 3:
            raise ValueError(f"orientation axes must be mutually orthogonal, got {ori}")
        object.__setattr__(self, "orientation", ori)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def voxel_volume_mm3(self) -> float:
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def with_data(self, data: np.ndarray) -> "Volume3D":
        """New volume on the same grid with replaced voxel values."""
        return Volume3D(data, self.spacing, self.orientation)


def is_binary(v: Volume3D | np.ndarray) -> bool:
    """Whether every value of ``v``, a volume or an array, is 0 or 1."""
    d = v.data if isinstance(v, Volume3D) else v
    return bool(((d == 0) | (d == 1)).all())


def require_binary(v: Volume3D | np.ndarray, name: str = "mask") -> None:
    """Raise NonBinaryInput unless every value of ``v``, a volume or an
    array, is 0 or 1. A bool mask is binary by its type and is not scanned."""
    d = v.data if isinstance(v, Volume3D) else v
    if d.dtype != np.bool_ and not is_binary(d):
        raise NonBinaryInput(f"{name} must contain only 0/1 values")


def _flips(orientation) -> tuple[slice, slice, slice]:
    return tuple(slice(None, None, -1) if code in NEGATIVE_CODES else slice(None) for code in orientation)


def canonical_order(orientation) -> tuple[int, int, int]:
    """The index axis that runs along each canonical (R, A, S) axis."""
    order = [0, 0, 0]
    for axis, code in enumerate(orientation):
        order[AXIS_OF_CODE[code]] = axis
    return tuple(order)


def canonical_view(data: np.ndarray, orientation) -> np.ndarray:
    """``data``, whose last three axes are indexed in ``orientation``, as a
    view whose last three are indexed in RAS order: those axes flipped and
    permuted, no value moved or copied. A leading axis, such as the
    channels of a stack, stays in front."""
    lead = data.ndim - 3
    axes = (*range(lead), *(lead + a for a in canonical_order(orientation)))
    return data[(..., *_flips(orientation))].transpose(axes)


def binary_mask(v: Volume3D, name: str = "mask") -> Volume3D:
    """``v`` as a bool mask. A bool ``v``, such as ``nifti.parse_mask``
    returns, is returned as it is; any other is checked for 0/1 values once
    and converted in its own storage order. Every later ``binary_mask`` or
    ``require_binary`` on the result is free, and it takes a quarter of a
    float32 volume."""
    if v.data.dtype == np.bool_:
        return v
    require_binary(v, name)
    return v.with_data(v.data != 0)


def require_same_dims(a: Volume3D, b: Volume3D, what: str = "volumes") -> None:
    if a.dims != b.dims:
        raise ShapeMismatch(f"{what} have different dims: {a.dims} vs {b.dims}")


def require_same_grid(a: Volume3D, b: Volume3D, what: str = "volumes") -> None:
    require_same_dims(a, b, what)
    if a.orientation != b.orientation:
        raise OrientationMismatch(
            f"{what} have different orientations: {a.orientation} vs {b.orientation}"
        )
    if not np.allclose(a.spacing, b.spacing, rtol=0, atol=1e-5):
        raise OrientationMismatch(
            f"{what} have different spacing: {a.spacing} vs {b.spacing}"
        )


def normalize_intensity(v: Volume3D, mask: Volume3D) -> Volume3D:
    """Z-score intensities inside the brain mask; zero everything outside.

    Uses the in-mask mean and *population* standard deviation, so downstream
    networks see a stable intensity scale regardless of scanner units. The
    output is indexed like ``v`` and stored in ``v``'s memory order: F when
    ``v`` is F-contiguous, as ``parse_nifti`` returns it, and C otherwise.
    Every pass walks that order: the in-mask values are gathered through
    flat views of ``v`` and the mask straight into float64, a chunk at a
    time, z-scored in place and scattered into the zeroed output. A mask
    stored in another layout is copied to that order once.

    The output consumes ``v``: it is written over ``v.data`` when that is a
    contiguous float32 array, as ``parse_nifti`` returns it, once every
    in-mask value is gathered, and ``v.data`` is left as it was when this
    raises. Only a volume of another type or layout gets a new array.

    Raises DegenerateMask when the mask selects fewer than two voxels or the
    in-mask intensities have zero variance, and NonFiniteInput when one of
    them is NaN or infinite.
    """
    require_same_dims(v, mask, "volume and mask")
    order = "F" if v.data.flags.f_contiguous else "C"
    keep = binary_mask(mask, "brain mask").data.ravel(order)
    n = int(np.count_nonzero(keep))
    if n < 2:
        raise DegenerateMask(f"mask selects {n} voxels; need at least 2")
    flat = v.data.ravel(order)
    vals = np.empty(n, dtype=np.float64)
    pos = 0
    for s in range(0, flat.size, _GATHER_VOXELS):
        got = flat[s : s + _GATHER_VOXELS][keep[s : s + _GATHER_VOXELS]]
        vals[pos : pos + got.size] = got
        pos += got.size
    mu = vals.mean()
    if not np.isfinite(mu):  # a float64 mean of float32 values is finite iff they all are
        raise NonFiniteInput("in-mask intensities hold a NaN or infinite voxel")
    sigma = vals.std()  # population SD
    if sigma == 0.0:
        raise DegenerateMask("in-mask intensity variance is zero")
    vals -= mu
    vals /= sigma
    in_place = v.data.dtype == np.float32 and v.data.flags[order + "_CONTIGUOUS"]
    out = v.data if in_place else np.empty(v.dims, np.float32, order=order)
    out.fill(0.0)
    out.ravel(order)[keep] = vals
    return v.with_data(out)
