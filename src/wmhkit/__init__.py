"""wmhkit: WMH segmentation, quantification, and agreement statistics."""

__version__ = "0.1.0"

from .volume import Volume3D, normalize_intensity
from .nifti import parse_nifti, write_nifti
from .reformat import PlaneOrientation, to_canonical
from .network import NetworkSpec, forward
from .ensemble import EnsembleSpec, binarize, predict_ensemble, tiled_forward, wmh_volume_ml
from .histo import HistParams, histogram_segment
from .lesions import LesionMatching, LesionSet, label_components, match_lesions
from .metrics import MetricReport, abs_volume_diff_pct, dice_lesion, dice_pixel, pr_curve_auc
from .stats import (
    BlandAltmanResult,
    RegressionResult,
    bland_altman,
    build_design_matrix,
    ols_regress,
    paired_ttest,
)
from .cohort import SubjectRecord, parse_cohort_csv, summarize

__all__ = [
    "Volume3D",
    "normalize_intensity",
    "parse_nifti",
    "write_nifti",
    "PlaneOrientation",
    "to_canonical",
    "NetworkSpec",
    "forward",
    "EnsembleSpec",
    "tiled_forward",
    "predict_ensemble",
    "binarize",
    "wmh_volume_ml",
    "HistParams",
    "histogram_segment",
    "LesionSet",
    "LesionMatching",
    "label_components",
    "match_lesions",
    "MetricReport",
    "dice_pixel",
    "dice_lesion",
    "abs_volume_diff_pct",
    "pr_curve_auc",
    "BlandAltmanResult",
    "RegressionResult",
    "bland_altman",
    "paired_ttest",
    "build_design_matrix",
    "ols_regress",
    "SubjectRecord",
    "parse_cohort_csv",
    "summarize",
]
