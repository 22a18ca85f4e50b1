import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from oracles import all_signed_orientations
from wmhkit import nifti
from wmhkit.errors import (
    BadGzip,
    BadMagic,
    FormatError,
    NonBinaryInput,
    TruncatedData,
    UnsupportedDatatype,
    UnsupportedDim,
)
from wmhkit.nifti import (
    DATA_OFFSET,
    GZIP_LEVEL,
    HEADER_SIZE,
    parse_mask,
    parse_nifti,
    write_nifti,
    write_nifti_mask,
)
from wmhkit.volume import Volume3D, binary_mask


def _volume(rng, shape=(4, 5, 6), spacing=(1.0, 1.2, 0.8), orientation=("R", "A", "S")):
    return Volume3D(rng.normal(size=shape).astype(np.float32), spacing, orientation)


class TestRoundTrip:
    def test_identity_plain(self, rng):
        v = _volume(rng)
        out = parse_nifti(write_nifti(v))
        assert out.dims == v.dims
        assert np.allclose(out.spacing, v.spacing, atol=1e-5)
        assert out.orientation == v.orientation
        assert np.array_equal(out.data, v.data)

    def test_identity_gzip(self, rng):
        v = _volume(rng)
        raw = write_nifti(v, compress=True)
        assert raw[:2] == b"\x1f\x8b"
        out = parse_nifti(raw)
        assert np.array_equal(out.data, v.data)

    @pytest.mark.parametrize("orientation", [("L", "A", "S"), ("P", "I", "R"), ("S", "L", "P")])
    def test_orientation_survives(self, rng, orientation):
        v = _volume(rng, orientation=orientation)
        assert parse_nifti(write_nifti(v)).orientation == orientation

    def test_all_48_orientations_survive(self, rng):
        for orientation in all_signed_orientations():
            v = _volume(rng, shape=(2, 3, 4), orientation=orientation)
            assert parse_nifti(write_nifti(v)).orientation == orientation

    def test_int16_file_reads(self, rng):
        # no writer emits int16; build the file from a float32 header
        labels = rng.integers(-300, 300, size=(4, 5, 3)).astype(np.int16)
        raw = bytearray(write_nifti(Volume3D(np.zeros((4, 5, 3), dtype=np.float32)))[:DATA_OFFSET])
        struct.pack_into("<2h", raw, 70, 4, 16)  # datatype int16, bitpix 16
        raw = bytes(raw) + labels.astype("<i2").ravel(order="F").tobytes()
        for compress in (False, True):
            out = parse_nifti(gzip.compress(raw) if compress else raw)
            assert out.data.dtype == np.float32
            assert np.array_equal(out.data, labels)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float32_payload_is_the_x_fastest_little_endian_values(self, rng, order):
        data = np.asarray(rng.normal(size=(4, 5, 6)).astype(np.float32), order=order)
        data[0, 0, :3] = (-0.0, np.nan, np.inf)
        raw = write_nifti(Volume3D(data))
        assert struct.unpack_from("<2h", raw, 70) == (16, 32)
        assert raw[DATA_OFFSET:] == data.astype("<f4").ravel(order="F").tobytes()

    def test_minimal_file_size(self):
        v = Volume3D(np.zeros((1, 1, 1), dtype=np.float32))
        raw = write_nifti(v)
        assert len(raw) == DATA_OFFSET + 4  # 352 header+extension bytes, 4 data bytes


class TestMaskWriter:
    @pytest.mark.parametrize("compress", [False, True])
    def test_round_trip_as_uint8(self, rng, compress):
        data = (rng.random((5, 4, 3)) < 0.3).astype(np.float32)
        v = Volume3D(data, (1.0, 1.2, 0.8), ("L", "P", "S"))
        raw = write_nifti_mask(v, compress=compress)
        plain = gzip.decompress(raw) if compress else raw
        assert struct.unpack_from("<2h", plain, 70) == (2, 8)  # datatype uint8, bitpix 8
        assert plain[DATA_OFFSET:] == data.astype(np.uint8).ravel(order="F").tobytes()
        assert plain[:70] == write_nifti(v)[:70]
        out = parse_nifti(raw)
        assert out.orientation == v.orientation
        assert np.allclose(out.spacing, v.spacing, atol=1e-5)
        assert np.array_equal(out.data, data)

    def test_negative_zero_is_background(self):
        v = Volume3D(np.array([[[-0.0, 1.0]]], dtype=np.float32))
        assert write_nifti_mask(v)[DATA_OFFSET:] == b"\x00\x01"

    @pytest.mark.parametrize("value", [0.5, np.nan, 2.0, -1.0, np.inf])
    def test_rejects_non_binary(self, value):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 0, 1] = value
        with pytest.raises(NonBinaryInput):
            write_nifti_mask(Volume3D(data), compress=True)

    def test_gzip_is_deflate_level_1(self, rng):
        v = Volume3D((rng.random((6, 6, 6)) < 0.5).astype(np.float32))
        assert GZIP_LEVEL == 1
        assert write_nifti_mask(v, compress=True) == gzip.compress(write_nifti_mask(v), compresslevel=1, mtime=0)
        assert write_nifti(v, compress=True) == gzip.compress(write_nifti(v), compresslevel=1, mtime=0)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sparse_posterior(rng, shape) -> np.ndarray:
    data = np.zeros(shape, dtype=np.float32)
    spots = rng.random(shape) < 0.001
    data[spots] = rng.random(int(spots.sum()), dtype=np.float32)
    return data


class TestParseBuffers:
    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize("writer", [write_nifti, write_nifti_mask])
    def test_returns_a_writable_array(self, rng, compress, writer):
        v = Volume3D((rng.random((4, 5, 6)) < 0.5).astype(np.float32), orientation=("L", "I", "A"))
        out = parse_nifti(writer(v, compress=compress))
        assert out.data.flags.writeable and out.data.dtype == np.float32
        assert np.array_equal(out.data, v.data)

    def test_gzip_float32_payload_is_not_copied(self, rng):
        # 4 MiB payload: the inflated buffer is the array, so the peak is one
        # payload plus the few chunks gzip's read layers hold (about three),
        # where each copy of the payload would add a whole payload
        raw = write_nifti(Volume3D(_sparse_posterior(rng, (128, 128, 64))), compress=True)
        payload = 128 * 128 * 64 * 4
        assert _traced_peak(lambda: parse_nifti(raw)) < payload + 4 * nifti._CHUNK_BYTES

    def test_cut_gzip_with_forged_length_allocates_no_more_than_its_image(self, rng):
        # a noise float32 file, cut to 60% and its last 4 bytes (the trailer's
        # length field, were the file whole) set near 4 GiB: the buffer is
        # sized from the inflated header's extent, not from that field or
        # deflate's largest expansion of the file (about 1000 times its size)
        payload = 32 * 32 * 32 * 4
        raw = bytearray(write_nifti(_volume(rng, shape=(32, 32, 32)), compress=True))
        raw = raw[: len(raw) * 3 // 5]
        raw[-4:] = (0xFFFFFFF0).to_bytes(4, "little")

        def parse():
            with pytest.raises(BadGzip):
                parse_nifti(bytes(raw))

        assert _traced_peak(parse) < DATA_OFFSET + payload + len(raw) + 4 * nifti._CHUNK_BYTES

    @pytest.mark.parametrize("make", [bytearray, lambda b: memoryview(bytearray(b))])
    def test_caller_buffer_is_not_shared(self, rng, make):
        buf = make(write_nifti(_volume(rng)))
        out = parse_nifti(buf)
        before = out.data.copy()
        buf[DATA_OFFSET:] = bytes(len(buf) - DATA_OFFSET)
        assert np.array_equal(out.data, before) and out.data.flags.writeable

    def test_multi_member_and_zero_padded_gzip(self, rng):
        v = _volume(rng)
        plain = write_nifti(v)
        cut = len(plain) // 3
        raw = gzip.compress(plain[:cut], mtime=0) + gzip.compress(plain[cut:], mtime=0) + b"\x00" * 8
        assert np.array_equal(parse_nifti(raw).data, v.data)


# the header fields the reader reads, as (struct format, offset)
_HEADER_FIELDS = (("i", 0), ("8h", 40), ("h", 70), ("h", 72), ("8f", 76), ("f", 108), ("2f", 112),
                  ("2h", 252), ("3f", 256), ("4f", 280), ("4f", 296), ("4f", 312))


def _image_bytes(values, dtype, end="<", scale=(0.0, 0.0), compress=False):
    """A NIfTI-1 file of ``values`` stored as ``dtype`` in byte order ``end``,
    with scl_slope and scl_inter ``scale``, from the float32 writer's header."""
    le = write_nifti(Volume3D(np.zeros(values.shape, np.float32), (1.0, 1.2, 0.8), ("L", "I", "A")))
    raw = bytearray(le[:DATA_OFFSET])
    for fmt, off in _HEADER_FIELDS:
        struct.pack_into(end + fmt, raw, off, *struct.unpack_from("<" + fmt, le, off))
    code = {np.uint8: 2, np.int16: 4, np.float32: 16, np.float64: 64}[dtype]
    struct.pack_into(end + "2h", raw, 70, code, 8 * np.dtype(dtype).itemsize)
    struct.pack_into(end + "2f", raw, 112, *scale)
    raw += values.astype(np.dtype(dtype).newbyteorder(end)).ravel(order="F").tobytes()
    return gzip.compress(bytes(raw), mtime=0) if compress else bytes(raw)


def _outcome(fn):
    """``fn()``'s bool data, orientation and spacing, or its error's class and message."""
    try:
        v = fn()
    except Exception as exc:  # noqa: BLE001  (compared, not handled)
        return type(exc), str(exc)
    return v.data.dtype, v.data.strides, v.data.tobytes(), v.orientation, v.spacing


def _mask_reference(raw, name="brain mask"):
    return binary_mask(parse_nifti(raw), name)


class TestParseMask:
    @pytest.mark.parametrize("compress", [False, True], ids=["nii", "nii.gz"])
    @pytest.mark.parametrize("end", ["<", ">"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32, np.float64])
    def test_equals_binary_mask_of_parse_nifti(self, rng, monkeypatch, dtype, end, compress):
        # 7x5x6 = 210 voxels in chunks of 16, the last one of 2; then the real
        # chunk size, 65536 voxels, over 82861 (one chunk and a part)
        for chunk_bytes, shape in ((4 * 16, (7, 5, 6)), (nifti._CHUNK_BYTES, (41, 43, 47))):
            monkeypatch.setattr(nifti, "_CHUNK_BYTES", chunk_bytes)
            values = rng.random(shape) < 0.4
            if dtype in (np.float32, np.float64):
                values = np.where(values, 1.0, np.where(rng.random(shape) < 0.5, -0.0, 0.0))
            raw = _image_bytes(values, dtype, end, compress=compress)
            got = parse_mask(raw, "brain mask")
            assert got.data.dtype == np.bool_ and got.data.flags.f_contiguous
            assert _outcome(lambda: got) == _outcome(lambda: _mask_reference(raw))
            assert got.orientation == ("L", "I", "A")

    @pytest.mark.parametrize("compress", [False, True], ids=["nii", "nii.gz"])
    @pytest.mark.parametrize(
        "dtype, stored, scale",
        [(np.int16, (4, 6), (0.5, -2.0)), (np.uint8, (0, 2), (0.5, 0.0)), (np.float32, (3.0, 5.0), (0.5, -1.5)),
         (np.float64, (0.0, 1.0), (1.0, 0.0)), (np.int16, (0, 1), (np.nan, 7.0)), (np.int16, (0, 3), (3.0, 1.0))],
        ids=["int16", "uint8", "float32", "identity", "nan-slope", "non-binary"],
    )
    def test_scaling_is_applied_per_chunk_as_parse_nifti_does(self, rng, monkeypatch, dtype, stored, scale, compress):
        # the last case scales 0 and 3 to 1 and 10, so it is rejected
        monkeypatch.setattr(nifti, "_CHUNK_BYTES", 4 * 16)
        shape = (7, 5, 6)
        values = np.where(rng.random(shape) < 0.4, stored[1], stored[0])
        raw = _image_bytes(values, dtype, scale=scale, compress=compress)
        got = _outcome(lambda: parse_mask(raw, "gt mask"))
        assert got == _outcome(lambda: _mask_reference(raw, "gt mask"))
        assert got[0] == (NonBinaryInput if scale == (3.0, 1.0) else np.bool_)

    @pytest.mark.parametrize("compress", [False, True], ids=["nii", "nii.gz"])
    @pytest.mark.parametrize("value", [0.5, np.nan, 2.0, -1.0, np.inf])
    @pytest.mark.parametrize("where", [0, 100, 209], ids=["first", "middle", "last"])
    def test_non_binary_and_nan_voxels_raise_as_before(self, monkeypatch, value, where, compress):
        # in the first chunk, a middle one and the last, shorter one
        monkeypatch.setattr(nifti, "_CHUNK_BYTES", 4 * 16)
        values = np.zeros(210, np.float32)
        values[where] = value
        raw = _image_bytes(values.reshape((7, 5, 6), order="F"), np.float32, compress=compress)
        got = _outcome(lambda: parse_mask(raw, "pred mask"))
        assert got == (NonBinaryInput, "pred mask must contain only 0/1 values")
        assert got == _outcome(lambda: _mask_reference(raw, "pred mask"))

    @pytest.mark.parametrize("compress", [False, True], ids=["nii", "nii.gz"])
    def test_truncated_and_corrupt_files_raise_as_before(self, rng, compress):
        # every cut of the file, and for gzip a flipped byte at each of
        # several offsets: the same error class and message as parse_nifti
        values = (rng.random((4, 3, 5)) < 0.5).astype(np.float32)
        raw = write_nifti_mask(Volume3D(values), compress=compress)
        for cut in range(0, len(raw), 3):
            assert _outcome(lambda: parse_mask(raw[:cut], "mask")) == _outcome(lambda: _mask_reference(raw[:cut], "mask"))
        if compress:
            for pos in range(2, len(raw), 5):
                bad = bytearray(raw)
                bad[pos] ^= 0xFF
                bad = bytes(bad)
                assert _outcome(lambda: parse_mask(bad, "mask")) == _outcome(lambda: _mask_reference(bad, "mask"))

    def test_truncation_wins_over_non_binary(self):
        raw = write_nifti(Volume3D(np.full((4, 4, 4), 0.5, np.float32)))
        assert _outcome(lambda: parse_mask(raw[:-5], "mask"))[0] is TruncatedData

    def test_peak_is_the_bool_mask_and_one_chunk(self, rng):
        # a uint8 .nii.gz mask: the inflated payload, the bool mask and the
        # float32 and bool temporaries of one chunk; a float32 volume of the
        # mask, four times the bool mask, would break the bound
        shape = (128, 128, 64)
        raw = write_nifti_mask(Volume3D(rng.random(shape) < 0.3), compress=True)
        voxels = int(np.prod(shape))
        assert _traced_peak(lambda: parse_mask(raw, "mask")) < 2 * voxels + 8 * nifti._CHUNK_BYTES


class TestStreamedWrite:
    """The writer feeds z-slabs to one deflate stream; its bytes must be those
    of the header and the whole payload, gzip-compressed in one shot."""

    @staticmethod
    def _payload(data, dtype) -> bytes:
        return np.asarray(data).astype(dtype).ravel(order="F").tobytes()

    @pytest.mark.parametrize("slices", [2, 3])
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.normal(size=(5, 4, 11)).astype(np.float32),
            lambda rng: np.asfortranarray(rng.normal(size=(5, 4, 11)).astype(np.float32)),
            lambda rng: rng.normal(size=(10, 4, 22)).astype(np.float32)[::-2, :, ::-2],  # flipped, strided
            lambda rng: np.full((1, 1, 1), 0.25, dtype=np.float32),
        ],
        ids=["c-order", "f-order", "flipped-strided", "one-voxel"],
    )
    def test_bytes_equal_one_shot_gzip(self, rng, monkeypatch, slices, make):
        data = make(rng)
        nx, ny, _ = data.shape
        monkeypatch.setattr(nifti, "_CHUNK_BYTES", slices * nx * ny * 4)  # float32 slabs of `slices` z-slices
        v = Volume3D(data, spacing=(1.0, 0.5, 2.0), orientation=("P", "S", "L"))
        plain = write_nifti(v)
        assert plain[DATA_OFFSET:] == self._payload(data, "<f4")
        assert write_nifti(v, compress=True) == gzip.compress(plain, GZIP_LEVEL, mtime=0)
        mask = Volume3D(data > 0, v.spacing, v.orientation)
        plain = write_nifti_mask(mask)
        assert plain[:DATA_OFFSET] == write_nifti_mask(mask.with_data((data > 0).astype(np.float32)))[:DATA_OFFSET]
        assert plain[DATA_OFFSET:] == self._payload(data > 0, np.uint8)
        assert write_nifti_mask(mask, compress=True) == gzip.compress(plain, GZIP_LEVEL, mtime=0)

    def test_encode_peak_is_below_one_payload(self, rng):
        data = _sparse_posterior(rng, (160, 128, 96))
        post = Volume3D(data, orientation=("L", "P", "S"))
        assert _traced_peak(lambda: write_nifti(post, compress=True)) < data.nbytes
        mask = Volume3D(data > 0.5)
        assert _traced_peak(lambda: write_nifti_mask(mask, compress=True)) < data.size


class TestHeaderFields:
    def test_scl_slope_applied(self):
        v = Volume3D(np.full((1, 1, 1), 5.0, dtype=np.float32))
        raw = bytearray(write_nifti(v))
        struct.pack_into("<h", raw, 70, 4)  # datatype int16
        struct.pack_into("<h", raw, 72, 16)
        struct.pack_into("<2f", raw, 112, 2.0, 1.0)  # slope, intercept
        payload = struct.pack("<h", 5)
        raw = bytes(raw[:DATA_OFFSET]) + payload
        out = parse_nifti(raw)
        assert out.data[0, 0, 0] == pytest.approx(11.0)

    @pytest.mark.parametrize(
        "slope, inter, factor",
        [(np.nan, 3.0, 1.0), (np.inf, 0.0, 1.0), (2.0, np.nan, 2.0), (2.0, -np.inf, 2.0)],
        ids=["nan-slope", "inf-slope", "nan-inter", "inf-inter"],
    )
    def test_non_finite_scale_field_reads_as_zero(self, rng, slope, inter, factor):
        # as the NIfTI-1 reference library does: a slope read as 0 means no
        # scaling at all, an intercept read as 0 leaves the slope alone
        v = _volume(rng)
        raw = bytearray(write_nifti(v))
        struct.pack_into("<2f", raw, 112, slope, inter)
        out = parse_nifti(bytes(raw))
        assert np.isfinite(out.data).all()
        assert np.array_equal(out.data, (v.data.astype(np.float64) * factor).astype(np.float32))

    def test_big_endian_header_accepted(self, rng):
        # rebuild the written header with swapped byte order
        v = _volume(rng, shape=(2, 2, 2), spacing=(1.0, 1.0, 1.0))
        raw = bytearray(write_nifti(v))
        le = bytes(raw)
        be = bytearray(le)
        struct.pack_into(">i", be, 0, HEADER_SIZE)
        struct.pack_into(">8h", be, 40, *struct.unpack_from("<8h", le, 40))
        struct.pack_into(">h", be, 70, *struct.unpack_from("<h", le, 70))
        struct.pack_into(">h", be, 72, *struct.unpack_from("<h", le, 72))
        struct.pack_into(">8f", be, 76, *struct.unpack_from("<8f", le, 76))
        struct.pack_into(">f", be, 108, *struct.unpack_from("<f", le, 108))
        struct.pack_into(">2f", be, 112, *struct.unpack_from("<2f", le, 112))
        struct.pack_into(">2h", be, 252, *struct.unpack_from("<2h", le, 252))
        for off in (280, 296, 312):
            struct.pack_into(">4f", be, off, *struct.unpack_from("<4f", le, off))
        data = np.frombuffer(le[DATA_OFFSET:], dtype="<f4")
        be = bytes(be[:DATA_OFFSET]) + data.astype(">f4").tobytes()
        out = parse_nifti(be)
        assert np.array_equal(out.data, v.data)

    def test_qform_fallback(self, rng):
        v = _volume(rng, shape=(3, 3, 3), spacing=(2.0, 3.0, 4.0))
        raw = bytearray(write_nifti(v))
        struct.pack_into("<2h", raw, 252, 1, 0)  # qform_code=1, sform off
        struct.pack_into("<3f", raw, 256, 0.0, 0.0, 0.0)  # identity quaternion
        struct.pack_into("<3f", raw, 268, 0.0, 0.0, 0.0)
        out = parse_nifti(bytes(raw))
        assert out.orientation == ("R", "A", "S")
        assert np.allclose(out.spacing, (2.0, 3.0, 4.0), atol=1e-5)

    def test_no_transform_assumes_ras(self, rng):
        v = _volume(rng, shape=(3, 3, 3), spacing=(2.0, 3.0, 4.0))
        raw = bytearray(write_nifti(v))
        struct.pack_into("<2h", raw, 252, 0, 0)
        out = parse_nifti(bytes(raw))
        assert out.orientation == ("R", "A", "S")


class TestErrors:
    def test_bad_magic(self):
        raw = bytearray(HEADER_SIZE)
        raw[344:348] = b"abc\x00"
        with pytest.raises(BadMagic):
            parse_nifti(bytes(raw))

    @pytest.mark.parametrize("compress", [False, True], ids=["nii", "nii.gz"])
    def test_bad_magic_message_is_the_same_in_both_containers(self, rng, compress):
        raw = bytearray(write_nifti(_volume(rng, shape=(2, 2, 2))))
        raw[344:348] = b"abcd"
        with pytest.raises(BadMagic) as exc:
            parse_nifti(gzip.compress(bytes(raw), mtime=0) if compress else bytes(raw))
        assert str(exc.value) == "magic b'abcd' is not a NIfTI-1 single-file magic"

    def test_short_file_truncated(self):
        with pytest.raises(TruncatedData):
            parse_nifti(b"\x00" * 100)

    def test_unsupported_dim(self, rng):
        raw = bytearray(write_nifti(_volume(rng, shape=(2, 2, 2))))
        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 3, 1, 1, 1)
        with pytest.raises(UnsupportedDim):
            parse_nifti(bytes(raw))

    def test_unsupported_datatype(self, rng):
        raw = bytearray(write_nifti(_volume(rng, shape=(2, 2, 2))))
        struct.pack_into("<h", raw, 70, 32)  # complex64
        with pytest.raises(UnsupportedDatatype):
            parse_nifti(bytes(raw))

    def test_truncated_payload(self, rng):
        raw = write_nifti(_volume(rng, shape=(4, 4, 4)))
        with pytest.raises(TruncatedData):
            parse_nifti(raw[:-5])

    def test_bad_gzip(self):
        with pytest.raises(BadGzip):
            parse_nifti(b"\x1f\x8b" + b"\x00" * 64)

    def test_corrupt_gzip_tail(self, rng):
        raw = bytearray(write_nifti(_volume(rng), compress=True))
        raw = raw[: len(raw) // 2]
        with pytest.raises((BadGzip, TruncatedData)):
            parse_nifti(bytes(raw))


class TestFuzzing:
    def test_header_fuzz_never_crashes(self, rng):
        base = write_nifti(_volume(rng, shape=(3, 4, 5)))
        ok = 0
        errors = 0
        for _ in range(500):
            raw = bytearray(base)
            for _ in range(int(rng.integers(1, 8))):
                pos = int(rng.integers(0, DATA_OFFSET))
                raw[pos] = int(rng.integers(0, 256))
            if rng.random() < 0.25:
                raw = raw[: int(rng.integers(0, len(raw)))]
            try:
                parse_nifti(bytes(raw))
                ok += 1
            except FormatError:
                errors += 1
        assert ok + errors == 500

    def test_truncation_fuzz_categorized(self, rng):
        base = write_nifti(_volume(rng, shape=(3, 4, 5)))
        for cut in range(0, len(base), 7):
            try:
                parse_nifti(base[:cut])
            except FormatError:
                continue
            assert cut >= len(base), f"truncated file at {cut} bytes parsed successfully"

    def test_gzip_member_fuzz(self, rng):
        base = write_nifti(_volume(rng, shape=(3, 4, 5)), compress=True)
        for _ in range(100):
            raw = bytearray(base)
            pos = int(rng.integers(2, len(raw)))
            raw[pos] = int(rng.integers(0, 256))
            try:
                parse_nifti(bytes(raw))
            except FormatError:
                continue
