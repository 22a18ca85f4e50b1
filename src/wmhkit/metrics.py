"""Segmentation quality metrics: voxel Dice, lesion Dice, volume difference,
and the precision-recall curve with its trapezoidal area."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NoPositives, ZeroReference
from .lesions import LesionMatching, label_components, match_lesions
from .tsv import write_tsv
from .volume import Volume3D, binary_mask, require_same_dims


@dataclass(frozen=True)
class PRCurve:
    thresholds: np.ndarray  # distinct posterior values, descending
    precision: np.ndarray
    recall: np.ndarray
    auc: float


@dataclass(frozen=True)
class MetricReport:
    dice_pixel: float
    dice_lesion: float
    avd_percent: float
    auc_pr: float | None
    counts: dict[str, int]

    def to_dict(self) -> dict:
        out = {
            "dice_pixel": self.dice_pixel,
            "dice_lesion": self.dice_lesion,
            "avd_percent": self.avd_percent,
            "counts": dict(self.counts),
        }
        if self.auc_pr is not None:
            out["auc_pr"] = self.auc_pr
        return out


def _dice(tp: int, fp: int, fn: int) -> float:
    """2·TP / (2·TP + FP + FN), with all three 0 defined as 1.0."""
    return 1.0 if tp + fp + fn == 0 else 2.0 * tp / (2 * tp + fp + fn)


def _voxel_counts(p: np.ndarray, g: np.ndarray) -> tuple[int, int, int]:
    """(TP, FP, FN) voxel counts of two bool masks, with one temporary:
    FP = |P| - TP and FN = |G| - TP."""
    tp = int(np.count_nonzero(p & g))
    return tp, int(np.count_nonzero(p)) - tp, int(np.count_nonzero(g)) - tp


def dice_pixel(pred: Volume3D, gt: Volume3D) -> float:
    """2|P∩G| / (|P|+|G|), with the both-empty case defined as 1.0."""
    require_same_dims(pred, gt, "masks")
    return _dice(*_voxel_counts(binary_mask(pred, "pred mask").data, binary_mask(gt, "gt mask").data))


def dice_lesion(matching: LesionMatching) -> float:
    """Detection Dice over lesions: 2·TP / (2·TP + FP + FN); 1.0 if all zero."""
    return _dice(matching.tp_lesions, matching.fp_lesions, matching.fn_lesions)


def abs_volume_diff_pct(pred_ml: float, gt_ml: float) -> float:
    """Absolute volume difference as a percentage of the reference volume."""
    if gt_ml <= 0:
        raise ZeroReference(f"reference volume must be positive, got {gt_ml}")
    return 100.0 * abs(pred_ml - gt_ml) / gt_ml


def pr_curve_auc(post: Volume3D, gt: Volume3D, mask: Volume3D) -> PRCurve:
    """Precision-recall curve over in-mask voxels.

    One operating point per distinct in-mask posterior value v (descending),
    predicting positive where posterior >= v. The area is the trapezoid over
    recall, anchored at (recall 0, precision of the first operating point).

    The points come from two value sorts of the float32 scores, not from an
    ordering of the voxels: all in-mask scores, and the scores of the
    positives. If v first occurs at index j of the ascending scores, n - j
    voxels score >= v, and the positives scoring >= v are npos less those
    below v, found by ``searchsorted(..., side="left")``. Neither count
    depends on how voxels that tie at v are ordered, so voxels are gathered
    in storage order. -0.0 counts as +0.0, and a zero threshold is always
    0. A NaN or infinite in-mask posterior raises NonFiniteInput; values
    outside the mask are never read.

    Each temporary is dropped after its last use, and precision, recall and
    the trapezoid are computed in place, so the peak stays below twice the
    returned curve.
    """
    require_same_dims(post, gt, "posterior and gt")
    require_same_dims(post, mask, "posterior and mask")
    gt = binary_mask(gt, "gt mask")
    mask = binary_mask(mask, "brain mask")
    order = "F" if post.data.flags.f_contiguous else "C"
    inside = mask.data.ravel(order)
    scores = post.data.ravel(order)[inside]
    finite = np.isfinite(scores)
    if not finite.all():
        bad = finite.size - int(np.count_nonzero(finite))
        raise NonFiniteInput(f"posterior holds {bad} NaN or infinite in-mask voxel(s)")
    del finite
    positive = gt.data.ravel(order)[inside]
    del inside
    npos = int(np.count_nonzero(positive))
    if npos == 0:
        raise NoPositives("reference mask holds no in-mask positive voxel")

    scores += 0.0  # -0.0 + 0.0 is +0.0
    positives = np.sort(scores[positive])
    del positive
    scores.sort()  # ascending, in place
    starts = np.empty(scores.size, dtype=bool)
    starts[0] = True
    np.not_equal(scores[1:], scores[:-1], out=starts[1:])
    first = np.flatnonzero(starts)[::-1]  # first index of each distinct value, descending
    del starts
    values = scores[first]
    thresholds = values.astype(np.float64)
    below = np.searchsorted(positives, values, side="left")
    del values, positives
    tp = np.subtract(npos, below, dtype=np.float64)
    del below
    npred = np.subtract(scores.size, first, dtype=np.float64)
    del first, scores

    precision = np.divide(tp, npred, out=npred)
    recall = np.divide(tp, npos, out=tp)

    # the trapezoid over (0, precision[0]), (recall[i], precision[i]), one
    # interval at a time: width * height / 2, summed by one np.sum
    width = np.empty_like(recall)
    width[0] = recall[0] - 0.0
    np.subtract(recall[1:], recall[:-1], out=width[1:])
    height = np.empty_like(precision)
    height[0] = precision[0] + precision[0]
    np.add(precision[1:], precision[:-1], out=height[1:])
    width *= height
    del height
    width /= 2.0
    auc = float(np.sum(width))
    return PRCurve(thresholds=thresholds, precision=precision, recall=recall, auc=auc)


PR_TSV_HEADER = ("threshold", "precision", "recall")


def write_pr_curve_tsv(curve: PRCurve, path: str | os.PathLike) -> None:
    """Write the PR curve to ``path`` as ASCII TSV: a header, then one row
    per operating point with threshold, precision and recall, each as
    ``format(v, '.9g')``.

    ``tsv.write_tsv`` renders the rows with numpy, TSV_CHUNK_ROWS (16384) at
    a time, and writes each chunk without holding the whole text. Each
    value's nine digits are ``rint(x·10**k)`` for an exact power of ten, so
    they carry a single rounding; a value that rounding could leave
    ambiguous (within 1e-6 of a tie), one outside [1e-4, 2**29), zero, a
    negative or a non-finite value is formatted by Python's own ``format``.
    Recall takes few distinct values, so each of its runs of equal values
    is formatted once. The bytes are those of per-row ``str.format``.
    """
    write_tsv(path, PR_TSV_HEADER, (curve.thresholds, curve.precision, curve.recall))


def metric_report(
    pred: Volume3D,
    gt: Volume3D,
    auc_pr: float | None = None,
    connectivity: int = 26,
) -> MetricReport:
    """All Results-style metrics for one subject.

    ``auc_pr`` is the ``auc`` of the subject's ``pr_curve_auc``; without
    one, PR-AUC is absent from the report, not zero.
    """
    pred = binary_mask(pred, "pred mask")
    gt = binary_mask(gt, "gt mask")
    pred_set = label_components(pred, connectivity)
    gt_set = label_components(gt, connectivity)
    matching = match_lesions(pred_set, gt_set)

    tp, fp, fn = _voxel_counts(pred.data, gt.data)
    counts = {
        "tp_voxels": tp,
        "fp_voxels": fp,
        "fn_voxels": fn,
        "tp_lesions": matching.tp_lesions,
        "fp_lesions": matching.fp_lesions,
        "fn_lesions": matching.fn_lesions,
    }

    # match_lesions has checked both masks for dims
    return MetricReport(
        dice_pixel=_dice(tp, fp, fn),
        dice_lesion=dice_lesion(matching),
        avd_percent=abs_volume_diff_pct(float(tp + fp) * pred.voxel_volume_mm3 / 1000.0,
                                        float(tp + fn) * gt.voxel_volume_mm3 / 1000.0),
        auc_pr=auc_pr,
        counts=counts,
    )
