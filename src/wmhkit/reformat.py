"""Deterministic axis reorientation between canonical RAS and processing planes.

Every operation here is a pure signed index permutation: no interpolation,
no resampling. ``PLANE_AXES`` is the one table of plane frames: the
ensemble reads and writes each plane's frame through it as an axis-permuted
view of the canonical volume, never a copy.

Plane permutation table (canonical axes -> output axes, slice axis last):

* axial:    (x, y, z)  identity; axial slices are xy-planes
* coronal:  (x, z, y)  slices advance along y
* sagittal: (y, z, x)  slices advance along x
"""

from __future__ import annotations

from enum import Enum

from .volume import CANONICAL_ORIENTATION, Volume3D, canonical_order, canonical_view


class PlaneOrientation(Enum):
    AXIAL = "axial"
    CORONAL = "coronal"
    SAGITTAL = "sagittal"


# a plane frame's axis i is canonical axis PLANE_AXES[plane][i]
PLANE_AXES = {
    PlaneOrientation.AXIAL: (0, 1, 2),
    PlaneOrientation.CORONAL: (0, 2, 1),
    PlaneOrientation.SAGITTAL: (1, 2, 0),
}


def to_canonical(v: Volume3D) -> Volume3D:
    """Permute/flip axes so the volume is in RAS order, values untouched. The
    data is ``canonical_view`` of ``v``'s: a view, never a copy."""
    spacing = tuple(v.spacing[p] for p in canonical_order(v.orientation))
    return Volume3D(canonical_view(v.data, v.orientation), spacing, CANONICAL_ORIENTATION)
