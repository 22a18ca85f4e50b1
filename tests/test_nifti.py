import gzip
import struct

import numpy as np
import pytest

from oracles import all_signed_orientations
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
    parse_nifti,
    write_nifti,
    write_nifti_mask,
)
from wmhkit.volume import Volume3D


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
