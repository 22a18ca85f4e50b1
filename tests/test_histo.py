import numpy as np
import pytest

from wmhkit.errors import DegenerateMask, InputError, NonFiniteInput
from wmhkit.histo import HistParams, histogram_segment, modal_threshold
from wmhkit.volume import Volume3D


def _mixture_phantom(seed=7, n_background=10_000, n_lesion=200):
    """Background: N(100, 10) truncated to [85, 115]; lesions near 180.

    Truncation keeps the brightest background voxel safely below the fitted
    mode + 3*SD cutoff, so the lesion group is exactly separable. Lesion
    intensities are jittered across [175, 185] so they spread over many bins
    and never outmass the background's modal bin.
    """
    rng = np.random.default_rng(seed)
    background = []
    while len(background) < n_background:
        draw = rng.normal(100.0, 10.0, size=n_background)
        background.extend(draw[(draw >= 85.0) & (draw <= 115.0)].tolist())
    lesions = rng.uniform(175.0, 185.0, size=n_lesion).tolist()
    values = np.array(background[:n_background] + lesions, dtype=np.float32)
    side = int(np.ceil(len(values) ** (1 / 3)))
    data = np.zeros(side**3, dtype=np.float32)
    data[: len(values)] = values
    mask = np.zeros(side**3, dtype=np.float32)
    mask[: len(values)] = 1.0
    shape = (side, side, side)
    return (
        Volume3D(data.reshape(shape)),
        Volume3D(mask.reshape(shape)),
        np.array(background[:n_background]),
    )


class TestHistParams:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            HistParams(alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(InputError):
            HistParams(alpha=alpha)

    def test_rejects_too_few_bins(self):
        with pytest.raises(ValueError):
            HistParams(bins=8)


class TestHistogramSegment:
    def test_constant_intensity_degenerate(self):
        v = Volume3D(np.full((4, 4, 4), 5.0, dtype=np.float32))
        mask = Volume3D(np.ones((4, 4, 4), dtype=np.float32))
        with pytest.raises(DegenerateMask):
            histogram_segment(v, mask)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_mask_voxel(self, bad):
        data = np.arange(64.0, dtype=np.float32).reshape(4, 4, 4)
        data[2, 1, 3] = bad
        with pytest.raises(NonFiniteInput):
            histogram_segment(Volume3D(data), Volume3D(np.ones((4, 4, 4), dtype=np.float32)))

    def test_synthetic_mixture_exact_separation(self):
        flair, mask, background = _mixture_phantom()
        cutoff = modal_threshold(flair, mask, HistParams(alpha=3.0))
        assert background.max() < cutoff < 175.0
        out, out_cutoff = histogram_segment(flair, mask, HistParams(alpha=3.0))
        assert out_cutoff == cutoff
        expected = ((mask.data > 0) & (flair.data >= 175.0)).astype(np.float32)
        assert np.array_equal(out.data, expected)
        assert int(out.data.sum()) == 200

    def test_cutoff_tracks_mode_statistics(self):
        # half-maximum fit of a near-Gaussian mode: SD ~= 6 (truncated at
        # half max, i.e. 1.18 sigma), so the alpha=3 cutoff sits near 118
        flair, mask, _ = _mixture_phantom()
        cutoff = modal_threshold(flair, mask, HistParams(alpha=3.0))
        assert 114.0 < cutoff < 123.0

    def test_huge_alpha_empty_mask(self):
        flair, mask, _ = _mixture_phantom()
        out, _ = histogram_segment(flair, mask, HistParams(alpha=1e9))
        assert out.data.sum() == 0

    def test_monotone_in_alpha(self):
        flair, mask, _ = _mixture_phantom(seed=11)
        previous = None
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
            current = histogram_segment(flair, mask, HistParams(alpha=alpha))[0].data > 0
            if previous is not None:
                assert np.all(current <= previous), f"mask grew at alpha={alpha}"
            previous = current

    def test_output_within_brain_mask(self, rng):
        data = rng.normal(100.0, 15.0, size=(12, 12, 12)).astype(np.float32)
        mask = Volume3D((rng.random((12, 12, 12)) < 0.7).astype(np.float32))
        out, _ = histogram_segment(Volume3D(data), mask, HistParams(alpha=1.0))
        assert np.all(out.data <= mask.data)

    def test_deterministic(self):
        flair, mask, _ = _mixture_phantom(seed=3)
        a, _ = histogram_segment(flair, mask)
        b, _ = histogram_segment(flair, mask)
        assert np.array_equal(a.data, b.data)
