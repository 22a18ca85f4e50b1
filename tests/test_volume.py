import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_signed_orientations, remap_to_ras, zscore_in_mask
from wmhkit import volume
from wmhkit.errors import DegenerateMask, NonBinaryInput, NonFiniteInput, ShapeMismatch
from wmhkit.reformat import to_canonical
from wmhkit.volume import (
    Volume3D,
    binary_mask,
    canonical_view,
    is_binary,
    normalize_intensity,
    require_binary,
)


def _vol(data, **kw):
    return Volume3D(np.asarray(data, dtype=np.float32), **kw)


def _full_mask(shape):
    return Volume3D(np.ones(shape, dtype=np.float32))


class TestVolume3D:
    def test_data_coerced_to_float32(self):
        v = Volume3D(np.arange(8, dtype=np.int64).reshape(2, 2, 2))
        assert v.data.dtype == np.float32
        assert v.dims == (2, 2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 2)))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("orientation", [("R", "R", "S"), ("R", "L", "S"), ("X", "A", "S")])
    def test_rejects_bad_orientation(self, orientation):
        with pytest.raises(ValueError):
            Volume3D(np.zeros((2, 2, 2)), orientation=orientation)

    def test_voxel_volume(self):
        v = Volume3D(np.zeros((2, 2, 2)), spacing=(1.2, 1.0, 1.25))
        assert v.voxel_volume_mm3 == pytest.approx(1.5)


class TestBinaryHelpers:
    def test_is_binary(self):
        assert is_binary(_vol([[[0, 1], [1, 0]], [[1, 1], [0, 0]]]))
        assert not is_binary(_vol([[[0.5, 1], [1, 0]], [[1, 1], [0, 0]]]))
        assert is_binary(_vol([[[-0.0, 1], [1, 0]], [[1, 1], [0, 0]]]))
        for bad in (np.nan, np.inf, -np.inf, 0.5, -1.0, 2.0):
            assert not is_binary(_vol([[[bad, 1], [1, 0]], [[1, 1], [0, 0]]])), bad

    def test_require_binary_raises(self):
        with pytest.raises(NonBinaryInput):
            require_binary(_vol(np.full((2, 2, 2), 0.3)))

    def test_bool_data_is_kept_and_never_scanned(self, monkeypatch):
        v = Volume3D(np.array([[[True, False]]]))
        assert v.data.dtype == np.bool_
        calls = []
        monkeypatch.setattr(volume, "is_binary", lambda v: calls.append(v) or True)
        require_binary(v)
        assert calls == []

    def test_binary_mask_checks_once_and_holds_bool(self, rng, monkeypatch):
        data = np.asfortranarray((rng.random((4, 5, 6)) < 0.4).astype(np.float32))
        calls = []
        real = volume.is_binary
        monkeypatch.setattr(volume, "is_binary", lambda v: calls.append(v) or real(v))
        m = binary_mask(Volume3D(data, orientation=("P", "I", "R")), "brain mask")
        assert len(calls) == 1
        assert m.data.dtype == np.bool_ and m.orientation == ("P", "I", "R")
        assert np.array_equal(m.data, data != 0)
        assert m.data.flags.f_contiguous  # the order it was given in, as parsed
        assert binary_mask(m) is m and len(calls) == 1
        with pytest.raises(NonBinaryInput, match="brain mask"):
            binary_mask(_vol(np.full((2, 2, 2), 0.5)), "brain mask")


@pytest.mark.parametrize("orientation", all_signed_orientations())
def test_canonical_zeros_read_canonically_without_a_copy(orientation):
    # normalize_intensity's zeroed output, stored in its input's memory order
    # (F as parsed, or C), is read in the canonical frame as a view of that
    # storage, and so is a leading channel axis's stack
    dims = (2, 3, 4)
    c = np.arange(1, 25, dtype=np.float32).reshape(dims)
    inside = np.arange(24).reshape(dims) % 3 > 0
    for order in ("C", "F"):
        v = Volume3D(np.array(c, order=order), orientation=orientation)
        out = normalize_intensity(v, v.with_data(np.asarray(inside, order=order)))
        assert out.data.flags[f"{order}_CONTIGUOUS"]
        assert not out.data[~inside].any()
        view = to_canonical(out)
        assert np.shares_memory(view.data, out.data)
        assert np.array_equal(view.data, remap_to_ras(out.data, orientation))
        assert np.array_equal(canonical_view(out.data[np.newaxis], orientation)[0], view.data)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNormalizeIntensity:
    def test_in_place_z_score_keeps_the_bits_and_lowers_the_peak(self, rng):
        # F-ordered and flipped, as parse_nifti returns a volume, and C-ordered,
        # each with masks stored either way; 31% in mask. The output is
        # written over the volume's own buffer. Also: x-slabs the
        # mask leaves empty, the first and last among them, and grids with an
        # axis of length 1
        for shape, empty in [((64, 48, 40), []), ((64, 48, 40), [0, 1, 17, 18, 40, 63]),
                             ((1, 48, 40), []), ((64, 48, 1), [5]), ((64, 1, 40), [0, 63])]:
            for order, mask_order in [("F", "F"), ("F", "C"), ("C", "C"), ("C", "F")]:
                case = (shape, order, mask_order)
                data = np.asarray(rng.normal(100.0, 15.0, shape).astype(np.float32), order=order)
                v = Volume3D(data.copy(order="K"), orientation=("L", "P", "S"))
                inside = np.asarray(rng.random(shape) < 0.31, order=mask_order)
                inside[empty] = False
                mask = binary_mask(Volume3D(inside.astype(np.float32, order="K"), orientation=v.orientation))
                assert mask.data.flags[f"{mask_order}_CONTIGUOUS"]
                n = int(np.count_nonzero(mask.data))
                old = _traced_peak(lambda: zscore_in_mask(data, mask.data))
                got = []
                new = _traced_peak(lambda: got.append(normalize_intensity(v, mask)))
                got = got[0]
                assert got.data.tobytes() == zscore_in_mask(data, mask.data).tobytes(), case
                assert got.orientation == v.orientation
                assert got.data is v.data, case  # written over the volume's own buffer
                assert new < old, (case, new, old)
                # the float64 in-mask values, std's one temporary of them and
                # the last chunk's float32 gather, here all of them; a mask
                # stored in the other order is copied once
                copied = 0 if mask.data.flags[f"{order}_CONTIGUOUS"] else inside.size
                assert new <= (2 * 8 + 4) * n + copied + 2**16, (case, new, old)

    def test_volume_is_left_as_it_was_on_error(self):
        data = np.full((3, 3, 3), 7.0, dtype=np.float32, order="F")
        with pytest.raises(DegenerateMask):
            normalize_intensity(Volume3D(data), _full_mask((3, 3, 3)))
        assert (data == 7.0).all()

    @pytest.mark.parametrize("layout", ["float64", "strided"])
    def test_other_volumes_are_left_as_they_were(self, rng, layout):
        # only a contiguous float32 buffer can take the output; any other
        # volume gets a new float32 array with the same bits
        data = rng.normal(100.0, 15.0, (6, 5, 4)).astype(np.float32)
        mask = Volume3D(rng.random(data.shape) < 0.5)
        v = data.astype(np.float64) if layout == "float64" else np.repeat(data, 2, axis=0)[::2]
        before = v.copy()
        got = normalize_intensity(Volume3D(v), mask)
        assert not np.shares_memory(got.data, v) and np.array_equal(v, before)
        assert got.data.tobytes() == zscore_in_mask(data, mask.data).tobytes()

    def test_two_point(self):
        v = _vol(np.array([1.0, 3.0, 99.0, 99.0]).reshape(1, 2, 2))
        mask = _vol(np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 2, 2))
        out = normalize_intensity(v, mask)
        assert out.data.reshape(-1)[:2] == pytest.approx([-1.0, 1.0])
        assert out.data.reshape(-1)[2:] == pytest.approx([0.0, 0.0])

    def test_hand_computed_four_values(self):
        v = _vol(np.array([2.0, 4.0, 6.0, 8.0]).reshape(4, 1, 1))
        out = normalize_intensity(v, _full_mask((4, 1, 1)))
        expected = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(out.data.reshape(-1), expected, atol=1e-6)

    def test_constant_intensity_degenerate(self):
        v = _vol(np.full((3, 3, 3), 7.0))
        with pytest.raises(DegenerateMask):
            normalize_intensity(v, _full_mask((3, 3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_mask_voxel(self, bad):
        data = np.arange(27.0).reshape(3, 3, 3)
        data[1, 2, 0] = bad
        with pytest.raises(NonFiniteInput):
            normalize_intensity(_vol(data), _full_mask((3, 3, 3)))
        mask = np.ones((3, 3, 3), dtype=np.float32)
        mask[1, 2, 0] = 0.0  # out of the mask it is never read
        assert np.isfinite(normalize_intensity(_vol(data), _vol(mask)).data).all()

    def test_single_voxel_mask_degenerate(self):
        v = _vol(np.arange(8.0).reshape(2, 2, 2))
        mask_data = np.zeros((2, 2, 2), dtype=np.float32)
        mask_data[0, 0, 0] = 1.0
        with pytest.raises(DegenerateMask):
            normalize_intensity(v, _vol(mask_data))

    def test_dims_must_match(self):
        with pytest.raises(ShapeMismatch):
            normalize_intensity(_vol(np.zeros((2, 2, 2))), _full_mask((3, 3, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_output_standardized_in_mask(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in rng.integers(3, 8, size=3))
        v = Volume3D(rng.normal(50.0, 12.0, size=shape).astype(np.float32))
        mask = Volume3D((rng.random(shape) < 0.6).astype(np.float32))
        if mask.data.sum() < 2 or np.unique(v.data[mask.data > 0]).size < 2:
            return
        out = normalize_intensity(v, mask)
        inside = out.data[mask.data > 0].astype(np.float64)
        assert abs(inside.mean()) < 1e-5
        assert abs(inside.std() - 1.0) < 1e-5
        assert np.all(out.data[mask.data == 0] == 0.0)
