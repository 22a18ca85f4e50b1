import numpy as np
import pytest

from oracles import PLANE_AXES, all_signed_orientations, remap_plane, remap_to_ras
from wmhkit.reformat import PLANE_AXES as FRAME_AXES
from wmhkit.reformat import PlaneOrientation, to_canonical
from wmhkit.volume import Volume3D

PLANES = list(PlaneOrientation)


def _ras(rng, shape=(5, 6, 7)):
    return Volume3D(rng.normal(size=shape).astype(np.float32), (1.0, 1.1, 1.2))


class TestToCanonical:
    def test_identity_on_ras(self, rng):
        v = _ras(rng)
        out = to_canonical(v)
        assert np.array_equal(out.data, v.data)
        assert out.spacing == v.spacing

    def test_las_flips_x(self, rng):
        data = rng.normal(size=(4, 3, 2)).astype(np.float32)
        v = Volume3D(data, orientation=("L", "A", "S"))
        out = to_canonical(v)
        assert np.array_equal(out.data, data[::-1])

    def test_all_48_orientations_match_oracle(self, rng):
        for orientation in all_signed_orientations():
            data = rng.normal(size=(3, 4, 5)).astype(np.float32)
            v = Volume3D(data, spacing=(1.0, 2.0, 3.0), orientation=orientation)
            out = to_canonical(v)
            assert np.array_equal(out.data, remap_to_ras(data, orientation)), orientation
            assert out.orientation == ("R", "A", "S")

    def test_spacing_follows_axes(self, rng):
        v = Volume3D(
            rng.normal(size=(2, 3, 4)).astype(np.float32),
            spacing=(1.0, 2.0, 3.0),
            orientation=("S", "R", "P"),
        )
        out = to_canonical(v)
        # world x came from axis 1, y from axis 2, z from axis 0
        assert out.spacing == (2.0, 3.0, 1.0)

    def test_idempotent(self, rng):
        for orientation in [("I", "P", "L"), ("A", "S", "R")]:
            v = Volume3D(rng.normal(size=(3, 4, 5)).astype(np.float32), orientation=orientation)
            once = to_canonical(v)
            twice = to_canonical(once)
            assert np.array_equal(once.data, twice.data)


class TestPlaneReformat:
    """Each plane's frame is an axis-permuted view of the canonical volume:
    the ensemble reads its input and writes its posterior through it."""

    def test_axial_is_identity(self, rng):
        v = _ras(rng)
        out = v.data.transpose(FRAME_AXES[PlaneOrientation.AXIAL])
        assert np.array_equal(out, v.data)
        assert np.shares_memory(out, v.data)

    def test_sagittal_dims_and_indexing(self, rng):
        v = _ras(rng, shape=(2, 3, 4))
        out = v.data.transpose(FRAME_AXES[PlaneOrientation.SAGITTAL])
        assert out.shape == (3, 4, 2)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert out[j, k, i] == v.data[i, j, k]

    @pytest.mark.parametrize("plane", PLANES)
    def test_matches_remap_oracle(self, rng, plane):
        v = _ras(rng, shape=(3, 4, 5))
        out = v.data.transpose(FRAME_AXES[plane])
        assert np.array_equal(out, remap_plane(v.data, PLANE_AXES[plane.value]))

    @pytest.mark.parametrize("plane", PLANES)
    def test_round_trip_bit_exact(self, rng, plane):
        v = _ras(rng)
        frame = remap_plane(v.data, PLANE_AXES[plane.value])
        back = np.empty_like(v.data)
        back.transpose(FRAME_AXES[plane])[...] = frame  # as a plane net writes its posterior
        assert np.array_equal(back, v.data)
