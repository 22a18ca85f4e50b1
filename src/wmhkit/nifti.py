"""NIfTI-1 reader/writer for single-frame 3D volumes.

Implements exactly the subset the pipeline needs: .nii bytes or their gzip
wrapping, 3D single-frame images, datatypes uint8/int16/float32/float64,
orientation from sform (preferred) or qform snapped to the nearest signed
principal axes. Everything is materialized as float32 ``Volume3D`` values.

Writing produces float32 (``write_nifti``, e.g. posteriors and intensities) or,
for binary masks, uint8 (``write_nifti_mask``, datatype 2), which holds the same
0/1 values in a quarter of the bytes. Gzip output uses deflate level
``GZIP_LEVEL``.

The parser is defensive by design: arbitrary header bytes must produce a
categorized ``FormatError``, never an unchecked crash and never an allocation
sized from unvalidated header fields.
"""

from __future__ import annotations

import gzip
import io
import math
import struct
import zlib

import numpy as np

from .errors import (
    BadGzip,
    BadHeader,
    BadMagic,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDim,
)
from .volume import AXIS_OF_CODE, Volume3D, require_binary

HEADER_SIZE = 348
DATA_OFFSET = 352  # header + 4-byte extension flag
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"

# NIfTI datatype code -> struct format char
_DTYPE_CODES = {2: "B", 4: "h", 16: "f", 64: "d"}
_DTYPE_NUMPY = {2: np.uint8, 4: np.int16, 16: np.float32, 64: np.float64}
_CODE_UINT8 = 2
_CODE_FLOAT32 = 16

# Deflate level of every gzip write. Level 1 costs much less CPU than Python's
# default 9 for little size. Measured on a 160x192x160 grid (one core of a
# 2-vCPU Xeon, zlib via gzip.compress), level 9 -> level 1:
#   sparse phantom posterior   98 -> 24 ms,    61 -> 204 KB
#   dense sigmoid posterior   285 -> 148 ms, 5461 -> 5568 KB
#   lesion mask (float32 at 9 -> uint8 at 1)   46 -> 5.6 ms, 20 -> 23 KB
# Level-1 files inflate no slower (8.0 vs 16.1, 34.9 vs 35.6, 1.4 vs 11.8 ms).
GZIP_LEVEL = 1

_POSITIVE_CODE = ("R", "A", "S")
_NEGATIVE_CODE = ("L", "P", "I")


def _gunzip(raw: bytes) -> bytes:
    try:
        with gzip.GzipFile(fileobj=io.BytesIO(raw)) as fh:
            return fh.read()
    except (OSError, EOFError, zlib.error) as exc:
        raise BadGzip(f"gzip payload is corrupt: {exc}") from exc


def _snap_orientation(affine: np.ndarray) -> tuple[str, str, str]:
    """Reduce a 3x3 voxel->world matrix to the nearest signed principal axes.

    Column j is the world-space step of voxel axis j. Axes are assigned
    greedily by descending magnitude so the result never duplicates a world
    axis, even for degenerate inputs.
    """
    entries = sorted(
        ((abs(affine[w, v]), w, v) for w in range(3) for v in range(3)),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    world_of_voxel: dict[int, int] = {}
    used_world: set[int] = set()
    for _, w, v in entries:
        if v in world_of_voxel or w in used_world:
            continue
        world_of_voxel[v] = w
        used_world.add(w)
    codes = []
    for v in range(3):
        w = world_of_voxel[v]
        codes.append(_NEGATIVE_CODE[w] if affine[w, v] < 0 else _POSITIVE_CODE[w])
    return tuple(codes)


def _quaternion_rotation(b: float, c: float, d: float) -> np.ndarray:
    # Allows non-unit quaternions; near-zero norm falls back to identity.
    a2 = 1.0 - (b * b + c * c + d * d)
    a = math.sqrt(a2) if a2 > 0 else 0.0
    nq = a * a + b * b + c * c + d * d
    if nq < 1e-12:
        return np.eye(3)
    s = 2.0 / nq
    bs, cs, ds = b * s, c * s, d * s
    ab, ac, ad = a * bs, a * cs, a * ds
    bb, bc, bd = b * bs, b * cs, b * ds
    cc, cd, dd = c * cs, c * ds, d * ds
    return np.array(
        [
            [1.0 - (cc + dd), bc - ad, bd + ac],
            [bc + ad, 1.0 - (bb + dd), cd - ab],
            [bd - ac, cd + ab, 1.0 - (bb + cc)],
        ]
    )


def parse_nifti(raw: bytes) -> Volume3D:
    """Parse a .nii or .nii.gz byte stream into a float32 Volume3D.

    scl_slope/scl_inter are applied when scl_slope is nonzero. Orientation
    comes from the sform when sform_code > 0, else the qform when
    qform_code > 0, else RAS is assumed.

    Raises BadGzip, BadMagic, UnsupportedDim, UnsupportedDatatype,
    TruncatedData, or BadHeader.
    """
    if raw[:2] == GZIP_MAGIC:
        raw = _gunzip(raw)
    if len(raw) < HEADER_SIZE:
        raise TruncatedData(f"file is {len(raw)} bytes; NIfTI-1 header needs {HEADER_SIZE}")
    if raw[344:348] != MAGIC:
        raise BadMagic(f"magic {raw[344:348]!r} is not a NIfTI-1 single-file magic")

    # Endianness: dim[0] must land in 1..7 under exactly one byte order.
    end = "<"
    ndim = struct.unpack_from("<h", raw, 40)[0]
    if not 1 <= ndim <= 7:
        end = ">"
        ndim = struct.unpack_from(">h", raw, 40)[0]
        if not 1 <= ndim <= 7:
            raise UnsupportedDim(f"dim[0]={ndim} is not a sane dimension count")
    if ndim != 3:
        raise UnsupportedDim(f"only 3D single-frame volumes supported, got dim[0]={ndim}")

    dim = struct.unpack_from(end + "8h", raw, 40)
    nx, ny, nz = (int(d) for d in dim[1:4])
    if nx < 1 or ny < 1 or nz < 1:
        raise BadHeader(f"non-positive voxel counts {(nx, ny, nz)}")

    datatype = struct.unpack_from(end + "h", raw, 70)[0]
    if datatype not in _DTYPE_CODES:
        raise UnsupportedDatatype(f"datatype code {datatype} not supported")
    itemsize = struct.calcsize(_DTYPE_CODES[datatype])

    vox_offset = struct.unpack_from(end + "f", raw, 108)[0]
    if not math.isfinite(vox_offset) or vox_offset < HEADER_SIZE:
        raise BadHeader(f"vox_offset {vox_offset} is invalid for a single-file image")
    start = int(vox_offset)

    nvox = nx * ny * nz
    needed = nvox * itemsize
    if start + needed > len(raw):
        raise TruncatedData(
            f"data extent needs {needed} bytes at offset {start}, file has {len(raw)}"
        )
    payload = raw[start : start + needed]

    pixdim = struct.unpack_from(end + "8f", raw, 76)
    scl_slope = struct.unpack_from(end + "f", raw, 112)[0]
    scl_inter = struct.unpack_from(end + "f", raw, 116)[0]
    qform_code = struct.unpack_from(end + "h", raw, 252)[0]
    sform_code = struct.unpack_from(end + "h", raw, 254)[0]

    if sform_code > 0:
        rows = [struct.unpack_from(end + "4f", raw, off) for off in (280, 296, 312)]
        affine = np.array([r[:3] for r in rows], dtype=np.float64)
        if not np.isfinite(affine).all():
            raise BadHeader("sform matrix contains non-finite entries")
        spacing = tuple(float(np.linalg.norm(affine[:, j])) for j in range(3))
    elif qform_code > 0:
        b, c, d = struct.unpack_from(end + "3f", raw, 256)
        if not all(math.isfinite(x) for x in (b, c, d)):
            raise BadHeader("quaternion contains non-finite entries")
        if not all(math.isfinite(p) for p in pixdim[:4]):
            raise BadHeader("pixdim contains non-finite entries")
        qfac = -1.0 if pixdim[0] < 0 else 1.0
        rot = _quaternion_rotation(b, c, d)
        spacing = tuple(abs(float(p)) for p in pixdim[1:4])
        affine = rot @ np.diag([spacing[0], spacing[1], spacing[2] * qfac])
    else:
        spacing = tuple(abs(float(p)) for p in pixdim[1:4])
        affine = None

    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise BadHeader(f"non-positive voxel spacing {spacing}")
    orientation = _snap_orientation(affine) if affine is not None else ("R", "A", "S")

    np_dtype = np.dtype(_DTYPE_NUMPY[datatype]).newbyteorder(end)
    flat = np.frombuffer(payload, dtype=np_dtype, count=nvox)
    data = flat.reshape((nx, ny, nz), order="F").astype(np.float32)
    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        with np.errstate(over="ignore", invalid="ignore"):
            data = (data.astype(np.float64) * scl_slope + scl_inter).astype(np.float32)

    try:
        return Volume3D(data, spacing, orientation)
    except ValueError as exc:
        raise BadHeader(str(exc)) from exc


def _encode(v: Volume3D, datatype: int) -> bytes:
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    nx, ny, nz = v.dims
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    itemsize = struct.calcsize(_DTYPE_CODES[datatype])
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<h", header, 72, itemsize * 8)
    sx, sy, sz = v.spacing
    struct.pack_into("<8f", header, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, float(DATA_OFFSET))
    struct.pack_into("<2f", header, 112, 0.0, 0.0)  # scl_slope=0: no scaling
    header[123] = 2  # spatial units: mm
    header[148 : 148 + 6] = b"wmhkit"
    struct.pack_into("<2h", header, 252, 0, 1)  # qform unused, sform set

    # sform column j = spacing[j] * signed world axis of orientation[j]
    affine = np.zeros((3, 4))
    for j, code in enumerate(v.orientation):
        w = AXIS_OF_CODE[code]
        affine[w, j] = -v.spacing[j] if code in _NEGATIVE_CODE else v.spacing[j]
    struct.pack_into("<4f", header, 280, *affine[0])
    struct.pack_into("<4f", header, 296, *affine[1])
    struct.pack_into("<4f", header, 312, *affine[2])
    header[344:348] = MAGIC

    # x-fastest voxel order: the C-order bytes of the transposed array, cast and
    # laid out in one pass and joined to the header in one copy
    dtype = np.dtype(_DTYPE_NUMPY[datatype]).newbyteorder("<")
    payload = v.data.T.astype(dtype, order="C")
    return b"".join((header, b"\x00\x00\x00\x00", payload))


def _maybe_gzip(encoded: bytes, compress: bool) -> bytes:
    if not compress:
        return encoded
    # Fixed mtime keeps outputs byte-identical run to run.
    return gzip.compress(encoded, compresslevel=GZIP_LEVEL, mtime=0)


def write_nifti(v: Volume3D, compress: bool = False) -> bytes:
    """Serialize a volume as float32 NIfTI-1 bytes, optionally gzip-wrapped."""
    return _maybe_gzip(_encode(v, _CODE_FLOAT32), compress)


def write_nifti_mask(v: Volume3D, compress: bool = False) -> bytes:
    """Serialize a binary mask as uint8 NIfTI-1 bytes (datatype 2), optionally
    gzip-wrapped. Raises NonBinaryInput for any value other than 0 or 1, so the
    cast never truncates."""
    require_binary(v, "mask to write")
    return _maybe_gzip(_encode(v, _CODE_UINT8), compress)
