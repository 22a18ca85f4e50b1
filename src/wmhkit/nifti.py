"""NIfTI-1 reader/writer for single-frame 3D volumes.

Implements exactly the subset the pipeline needs: .nii bytes or their gzip
wrapping, 3D single-frame images, datatypes uint8/int16/float32/float64,
orientation from sform (preferred) or qform snapped to the nearest signed
principal axes. An image is materialized as a float32 ``Volume3D``
(``parse_nifti``), and a binary mask straight as a bool one (``parse_mask``),
whatever the payload's datatype.

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
    FormatError,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDim,
)
from .volume import AXIS_OF_CODE, CANONICAL_ORIENTATION, NEGATIVE_CODES, Volume3D, require_binary

HEADER_SIZE = 348
DATA_OFFSET = 352  # header + 4-byte extension flag
MAGIC = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"

# NIfTI datatype code -> numpy type
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
# The 10-byte member header of gzip.compress(..., mtime=0), taken from it:
# its OS byte is 255 under Python 3.10 and zlib's (3 on Unix) from 3.11 on.
_GZIP_HEADER = gzip.compress(b"", GZIP_LEVEL, mtime=0)[:10]
_MAX_INFLATE = 1032  # deflate's largest expansion ratio
_CHUNK_BYTES = 2**18  # piece size of the streamed gunzip and encode, and of parse_mask in float32


def _gunzip(raw: bytes) -> bytearray:
    """The inflated bytes, in one writable buffer that ``parse_nifti`` can
    hand to numpy as it is, filled ``_CHUNK_BYTES`` at a time so that no
    second copy of the image is held. The buffer is sized before the stream
    is verified: the image extent the inflated header names, but no more than
    the trailer's length field or deflate's largest expansion of ``raw``. In
    a cut file the trailer is deflate noise while the header is genuine; a
    header that names no valid image preallocates nothing. Whatever lies
    beyond the buffer is read after it, and reading to the end checks every
    member's CRC and length."""
    try:
        with gzip.GzipFile(fileobj=io.BytesIO(raw)) as fh:
            head = fh.read(DATA_OFFSET)
            try:
                extent = _layout(head)[4]
            except FormatError:
                extent = 0
            size = min(extent, int.from_bytes(raw[-4:], "little"), _MAX_INFLATE * len(raw))
            out = bytearray(max(size, len(head)))
            out[: len(head)] = head
            n = len(head)
            with memoryview(out) as view:
                while n < size and (got := fh.readinto(view[n : n + _CHUNK_BYTES])):
                    n += got
            rest = fh.read()
    except (OSError, EOFError, zlib.error) as exc:
        raise BadGzip(f"gzip payload is corrupt: {exc}") from exc
    del out[n:]
    out += rest
    return out


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
        codes.append(NEGATIVE_CODES[w] if affine[w, v] < 0 else CANONICAL_ORIENTATION[w])
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


def _layout(raw: bytes) -> tuple[str, tuple[int, int, int], int, int, int]:
    """Byte order, voxel counts, datatype code, and the payload's first and
    end offsets, as the header at the front of ``raw`` names them.

    Raises TruncatedData, BadMagic, UnsupportedDim, BadHeader or
    UnsupportedDatatype.
    """
    if len(raw) < HEADER_SIZE:
        raise TruncatedData(f"file is {len(raw)} bytes; NIfTI-1 header needs {HEADER_SIZE}")
    if raw[344:348] != MAGIC:
        # as bytes: an inflated .nii.gz is a bytearray, and its message is the .nii's
        raise BadMagic(f"magic {bytes(raw[344:348])!r} is not a NIfTI-1 single-file magic")

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
    if datatype not in _DTYPE_NUMPY:
        raise UnsupportedDatatype(f"datatype code {datatype} not supported")
    itemsize = np.dtype(_DTYPE_NUMPY[datatype]).itemsize

    vox_offset = struct.unpack_from(end + "f", raw, 108)[0]
    if not math.isfinite(vox_offset) or vox_offset < HEADER_SIZE:
        raise BadHeader(f"vox_offset {vox_offset} is invalid for a single-file image")
    start = int(vox_offset)

    return end, (nx, ny, nz), datatype, start, start + nx * ny * nz * itemsize


def _open(raw: bytes):
    """The voxels of a .nii or .nii.gz byte stream as a flat array in file
    order (x fastest), a view of the buffer they lie in; the volume's dims;
    its scaling as (slope, intercept), None when there is none; its
    (spacing, orientation); and whether the buffer was made here by
    ``_gunzip``, not passed in by the caller.

    scl_slope/scl_inter scale when scl_slope is nonzero; a NaN or infinite
    one reads as 0. Orientation comes from the sform when sform_code > 0,
    else the qform when qform_code > 0, else RAS is assumed.

    Raises BadGzip, BadMagic, UnsupportedDim, UnsupportedDatatype,
    TruncatedData, or BadHeader.
    """
    inflated = raw[:2] == GZIP_MAGIC
    if inflated:
        raw = _gunzip(raw)
    end, (nx, ny, nz), datatype, start, stop = _layout(raw)
    if stop > len(raw):
        raise TruncatedData(
            f"data extent needs {stop - start} bytes at offset {start}, file has {len(raw)}"
        )

    pixdim = struct.unpack_from(end + "8f", raw, 76)
    # a non-finite scale field reads as 0, as in the NIfTI-1 reference library
    scl_slope, scl_inter = (x if math.isfinite(x) else 0.0 for x in struct.unpack_from(end + "2f", raw, 112))
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
    orientation = _snap_orientation(affine) if affine is not None else CANONICAL_ORIENTATION

    scale = None if scl_slope == 0.0 or (scl_slope == 1.0 and scl_inter == 0.0) else (scl_slope, scl_inter)
    np_dtype = np.dtype(_DTYPE_NUMPY[datatype]).newbyteorder(end)
    flat = np.frombuffer(raw, dtype=np_dtype, count=nx * ny * nz, offset=start)
    return flat, (nx, ny, nz), scale, (spacing, orientation), inflated


def _float32(values: np.ndarray, scale, copy: bool) -> np.ndarray:
    """``values`` cast to float32 and scaled by ``scale``, as ``_open`` gives
    them; with ``copy`` false, native float32 values with no scaling are
    returned as they are."""
    data = values.astype(np.float32, copy=copy)
    if scale is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            data = (data.astype(np.float64) * scale[0] + scale[1]).astype(np.float32)
    return data


def _volume(data: np.ndarray, grid) -> Volume3D:
    try:
        return Volume3D(data, *grid)
    except ValueError as exc:
        raise BadHeader(str(exc)) from exc


def parse_nifti(raw: bytes) -> Volume3D:
    """Parse a .nii or .nii.gz byte stream into a float32 Volume3D, F-ordered
    (see ``_open`` for the header fields read and the errors raised)."""
    flat, dims, scale, grid, inflated = _open(raw)
    # A native float32 payload in the buffer _gunzip made here is used where
    # it lies; any other payload, the caller's buffer included, is cast or
    # copied once, so the volume never shares the caller's memory.
    data = _float32(flat, scale, copy=not (inflated and flat.flags.aligned))
    return _volume(data.reshape(dims, order="F"), grid)


def parse_mask(raw: bytes, name: str) -> Volume3D:
    """Parse a .nii or .nii.gz binary mask into a bool Volume3D, F-ordered:
    ``binary_mask(parse_nifti(raw), name)`` bit for bit, with no float32
    volume made. The payload is decoded ``_CHUNK_BYTES // 4`` voxels at a
    time: each chunk is cast and scaled to float32 as ``parse_nifti`` does,
    checked for 0/1 values and written as ``!= 0``.

    Raises what ``parse_nifti`` raises, and NonBinaryInput when a voxel is
    neither 0 nor 1 (NaN included), after the whole header is checked.
    """
    flat, dims, scale, grid, _ = _open(raw)
    mask = np.empty(dims, dtype=np.bool_, order="F")
    out = mask.reshape(-1, order="F")  # a view: the file's voxel order
    step = _CHUNK_BYTES // 4
    for s in range(0, flat.size, step):
        values = _float32(flat[s : s + step], scale, copy=False)
        require_binary(values, name)
        np.not_equal(values, 0, out=out[s : s + step])
    return _volume(mask, grid)


def _header(v: Volume3D, datatype: int) -> bytes:
    """The 348-byte header and the 4-byte empty extension flag."""
    header = bytearray(DATA_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    nx, ny, nz = v.dims
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    itemsize = np.dtype(_DTYPE_NUMPY[datatype]).itemsize
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
        affine[w, j] = -v.spacing[j] if code in NEGATIVE_CODES else v.spacing[j]
    struct.pack_into("<4f", header, 280, *affine[0])
    struct.pack_into("<4f", header, 296, *affine[1])
    struct.pack_into("<4f", header, 312, *affine[2])
    header[344:348] = MAGIC
    return bytes(header)


def _slabs(v: Volume3D, datatype: int):
    """The voxel bytes in x-fastest order, cast a few whole z-slices (about
    ``_CHUNK_BYTES``) at a time into one reused C-contiguous buffer: each
    slab yielded is overwritten by the next."""
    dtype = np.dtype(_DTYPE_NUMPY[datatype]).newbyteorder("<")
    nx, ny, nz = v.dims
    step = min(nz, max(1, _CHUNK_BYTES // (nx * ny * dtype.itemsize)))
    buf = np.empty((step, ny, nx), dtype)
    for z in range(0, nz, step):
        src = v.data[:, :, z : z + step].T
        slab = buf[: len(src)]
        np.copyto(slab, src, casting="unsafe")
        yield slab


def _encode(v: Volume3D, datatype: int, compress: bool) -> bytes:
    """NIfTI-1 bytes of ``v``, or their gzip wrapping. The gzip member is
    built here, not by ``gzip.compress``: one raw deflate stream is fed slab
    by slab with a running CRC, so no full-size copy of the payload exists,
    and the bytes equal ``gzip.compress(plain, GZIP_LEVEL, mtime=0)``."""
    header = _header(v, datatype)
    if not compress:
        return b"".join([header, *(slab.tobytes() for slab in _slabs(v, datatype))])
    deflate = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, -15)
    crc, size = zlib.crc32(header), len(header)
    parts = [_GZIP_HEADER, deflate.compress(header)]
    for slab in _slabs(v, datatype):
        crc, size = zlib.crc32(slab, crc), size + slab.nbytes
        parts.append(deflate.compress(slab))
    parts += (deflate.flush(), struct.pack("<2I", crc, size & 0xFFFFFFFF))
    return b"".join(parts)


def write_nifti(v: Volume3D, compress: bool = False) -> bytes:
    """Serialize a volume as float32 NIfTI-1 bytes, optionally gzip-wrapped."""
    return _encode(v, _CODE_FLOAT32, compress)


def write_nifti_mask(v: Volume3D, compress: bool = False) -> bytes:
    """Serialize a binary mask as uint8 NIfTI-1 bytes (datatype 2), optionally
    gzip-wrapped. Raises NonBinaryInput for any value other than 0 or 1, so the
    cast never truncates."""
    require_binary(v, "mask to write")
    return _encode(v, _CODE_UINT8, compress)
