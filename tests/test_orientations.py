"""``segment`` over all 48 signed orientations, through the NIfTI writer and
parser as in real runs, against the copy-based composition it replaced:
normalize in the input frame, copy both volumes to the canonical frame, then
``predict_ensemble``. The written posterior and mask must match it bit for bit,
for the pointwise phantom nets (whose meta net fuses into the stack of plane
posteriors) and for a small 3^3 U-Net (whose meta net keeps its own output)."""

import numpy as np
import pytest

from nets import unet_net
from oracles import all_signed_orientations, remap_to_ras, zscore_in_mask
from wmhkit.cli import main
from wmhkit.ensemble import EnsembleSpec, predict_ensemble
from wmhkit.nifti import parse_nifti, write_nifti, write_nifti_mask
from wmhkit.phantom import mean_threshold_meta_net, threshold_detector_net
from wmhkit.volume import AXIS_OF_CODE, Volume3D
from wmhkit.weights_io import save_ensemble

SHAPE = (8, 6, 10)  # even, for the U-Net's 2^3 pool
SPACING = (1.0, 1.5, 2.0)


def _nets(kind, rng):
    if kind == "phantom":
        return (*(threshold_detector_net(t) for t in (-0.2, 0.1, 0.4)), mean_threshold_meta_net())
    return (*(unet_net(rng, 1, 4) for _ in range(3)), unet_net(rng, 3, 4))


def _copy_composition(flair: Volume3D, mask: Volume3D, spec: EnsembleSpec) -> np.ndarray:
    norm = zscore_in_mask(flair.data, mask.data)
    canonical = [np.ascontiguousarray(remap_to_ras(a, flair.orientation)) for a in (norm, mask.data)]
    return predict_ensemble(spec, *(Volume3D(a) for a in canonical)).data


@pytest.mark.parametrize("kind", ["phantom", "unet"])
def test_segment_matches_the_copy_composition_in_every_orientation(tmp_path, capsys, rng, kind):
    axial, sagittal, coronal, meta = nets = _nets(kind, rng)
    spec = EnsembleSpec(axial_net=axial, sagittal_net=sagittal, coronal_net=coronal, meta_net=meta)
    weights = tmp_path / "weights.sgwt"
    weights.write_bytes(save_ensemble(dict(zip(("axial", "sagittal", "coronal", "meta"), nets))))
    for i, orientation in enumerate(all_signed_orientations()):
        # both parse paths (gzip and plain) and both mask writers
        suffix = ".nii.gz" if i % 2 else ".nii"
        flair = Volume3D(rng.normal(100.0, 15.0, SHAPE).astype(np.float32), SPACING, orientation)
        mask = flair.with_data((rng.random(SHAPE) < 0.7).astype(np.float32))
        write_mask = write_nifti_mask if i % 3 else write_nifti
        flair_path, mask_path = tmp_path / f"flair{suffix}", tmp_path / f"mask{suffix}"
        flair_path.write_bytes(write_nifti(flair, compress=i % 2 == 1))
        mask_path.write_bytes(write_mask(mask, compress=i % 2 == 1))
        flair, mask = (parse_nifti(p.read_bytes()) for p in (flair_path, mask_path))
        assert flair.data.flags.writeable and mask.data.flags.writeable
        assert not flair.data.flags.c_contiguous  # F-ordered, as parsed

        out = tmp_path / "out"
        assert main(["segment", "--flair", str(flair_path), "--mask", str(mask_path),
                     "--weights", str(weights), "--out-dir", str(out)]) == 0, orientation
        capsys.readouterr()
        want = _copy_composition(flair, mask, spec)
        post = parse_nifti((out / "flair.posterior.nii.gz").read_bytes())
        lesions = parse_nifti((out / "flair.mask.nii.gz").read_bytes())
        assert post.orientation == lesions.orientation == ("R", "A", "S")
        axes = [AXIS_OF_CODE[code] for code in orientation]
        assert post.spacing == tuple(SPACING[axes.index(axis)] for axis in range(3)), orientation
        assert post.data.tobytes() == want.tobytes(), orientation
        assert np.array_equal(lesions.data, (want > spec.threshold).astype(np.float32)), orientation
