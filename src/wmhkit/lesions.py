"""Connected-component lesion extraction and pred/reference lesion matching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .volume import Volume3D, binary_mask, require_same_dims

CONNECTIVITY_RANK = {6: 1, 18: 2, 26: 3}
DEFAULT_CONNECTIVITY = 26


@dataclass(frozen=True)
class Lesion:
    id: int
    voxel_count: int
    volume_ml: float
    bbox: tuple[int, int, int, int, int, int]  # (x0, y0, z0, x1, y1, z1) inclusive


@dataclass(frozen=True)
class LesionSet:
    labels: Volume3D  # integer labels stored as float32; 0 = background
    lesions: tuple[Lesion, ...]
    connectivity: int

    @property
    def count(self) -> int:
        return len(self.lesions)

    @property
    def foreground_voxels(self) -> int:
        return sum(l.voxel_count for l in self.lesions)


@dataclass(frozen=True)
class LesionMatching:
    pairs: tuple[tuple[int, int], ...]  # (pred_id, gt_id), overlap >= 1 voxel
    unmatched_pred: tuple[int, ...]  # predictions with zero reference overlap
    unmatched_gt: tuple[int, ...]  # reference lesions with zero prediction overlap
    n_pred: int
    n_gt: int

    @property
    def tp_lesions(self) -> int:
        """Reference lesions touched by at least one predicted voxel."""
        return self.n_gt - len(self.unmatched_gt)

    @property
    def fp_lesions(self) -> int:
        return len(self.unmatched_pred)

    @property
    def fn_lesions(self) -> int:
        return len(self.unmatched_gt)


def _box(rev: np.ndarray) -> tuple[slice, slice, slice]:
    """The bounding box of ``rev``'s nonzero voxels, from one reduction per
    axis; the first voxel where there are none, which labels to nothing."""
    box = []
    for axis in range(3):
        hits = np.flatnonzero(np.any(rev, axis=tuple(a for a in range(3) if a != axis)))
        if hits.size == 0:
            return (slice(0, 1),) * 3
        box.append(slice(int(hits[0]), int(hits[-1]) + 1))
    return tuple(box)


def _foreground(mask: Volume3D, connectivity: int) -> tuple[np.ndarray, tuple[slice, slice, slice], np.ndarray]:
    """The mask's foreground with its axes reversed, cropped to its bounding
    box and C-contiguous; that box in the reversed axes; and the structuring
    element of ``connectivity``.

    The reversed array walks the voxels x-fastest in C order, and so does its
    box, so a component's first voxel in the box is its first in the grid.
    Of the bool mask (``binary_mask``), only the box is copied, once. The
    6/18/26 structuring elements are symmetric under any axis permutation,
    so it has the same components as the mask.
    """
    rev = binary_mask(mask, "lesion mask").data.T
    if connectivity not in CONNECTIVITY_RANK:
        raise ValueError(f"connectivity must be 6, 18, or 26, got {connectivity}")
    structure = ndimage.generate_binary_structure(3, CONNECTIVITY_RANK[connectivity])
    box = _box(rev)
    return np.ascontiguousarray(rev[box]), box, structure


def count_components(mask: Volume3D, connectivity: int = DEFAULT_CONNECTIVITY) -> int:
    """The number of connected foreground components, which is
    ``label_components(mask, connectivity).count`` without the label map,
    sizes and boxes. Labelling runs on the foreground's bounding box."""
    fg, _, structure = _foreground(mask, connectivity)
    return int(ndimage.label(fg, structure=structure)[1])


def label_components(mask: Volume3D, connectivity: int = DEFAULT_CONNECTIVITY) -> LesionSet:
    """Label connected foreground components under 6/18/26-connectivity.

    Lesion ids are 1..K, assigned by descending voxel count with ties broken
    by the lowest x-fastest linear index. The cost is O(N + K log K) for N
    voxels and K components: finding the foreground's bounding box and
    writing the float32 map are whole-volume passes; labelling and the
    components' boxes are passes over the box, which for sparse lesions is a
    fraction of the grid; sizes and first indices are passes over the
    foreground, and only the id order is a sort.

    Labelling runs on the mask with its axes reversed, so its storage order
    is x-fastest, and only on its foreground's bounding box, of which one
    bool copy is made. Box coordinates keep the x-fastest order, so ids
    follow from them directly; the boxes and the map's indices are offset
    back to the grid. The boxes are reversed back, and the map is
    built in that order and returned transposed, F-contiguous, in the mask's
    axes.
    """
    fg, box, structure = _foreground(mask, connectivity)
    raw, n = ndimage.label(fg, structure=structure)
    del fg
    flat = raw.reshape(-1)  # x-fastest linear index in the box
    fg_idx = np.flatnonzero(flat)
    fg_raw = flat[fg_idx]
    counts = np.bincount(fg_raw, minlength=n + 1)[1:]
    first_idx = np.full(n, flat.size, dtype=fg_idx.dtype)
    np.minimum.at(first_idx, fg_raw - 1, fg_idx)
    order = np.lexsort((first_idx, -counts))  # raw label - 1, in new-id order

    remap = np.zeros(n + 1, dtype=np.float32)
    remap[order + 1] = np.arange(1, n + 1, dtype=np.float32)
    label_map = np.zeros(mask.data.shape[::-1], dtype=np.float32)
    label_map[box][np.unravel_index(fg_idx, raw.shape)] = remap[fg_raw]
    boxes = [
        tuple(slice(s.start + b.start, s.stop + b.start) for s, b in zip(obj, box))[::-1]
        for obj in ndimage.find_objects(raw)
    ]
    voxel_ml = mask.voxel_volume_mm3 / 1000.0
    lesions = tuple(
        Lesion(
            id=new_id,
            voxel_count=int(counts[old]),
            volume_ml=float(counts[old]) * voxel_ml,
            bbox=tuple(s.start for s in boxes[old]) + tuple(s.stop - 1 for s in boxes[old]),
        )
        for new_id, old in enumerate(order.tolist(), start=1)
    )
    return LesionSet(labels=mask.with_data(label_map.T), lesions=lesions, connectivity=connectivity)


def match_lesions(pred: LesionSet, gt: LesionSet) -> LesionMatching:
    """Detection-style matching between predicted and reference lesions.

    A reference lesion counts as detected when any predicted voxel overlaps
    it; a predicted lesion is a false positive only when it overlaps no
    reference voxel at all. Pairs are formed greedily by descending overlap
    (ties to the smaller reference id, then smaller predicted id); extra
    predictions collapsing onto an already-paired reference lesion are
    neither paired nor counted as false positives.
    """
    require_same_dims(pred.labels, gt.labels, "label maps")
    # voxels are visited in storage order; the overlap counts do not depend on it
    order = "F" if pred.labels.data.flags.f_contiguous else "C"
    pred_ids = pred.labels.data.ravel(order)
    gt_ids = gt.labels.data.ravel(order)
    both = (pred_ids > 0) & (gt_ids > 0)
    overlaps: dict[tuple[int, int], int] = {}
    if both.any():
        p = pred_ids[both].astype(np.int64)
        g = gt_ids[both].astype(np.int64)
        base = int(g.max()) + 1
        uniq, cnt = np.unique(p * base + g, return_counts=True)
        pids, gids = np.divmod(uniq, base)
        overlaps = dict(zip(zip(pids.tolist(), gids.tolist()), cnt.tolist()))

    pred_hit = {pid for pid, _ in overlaps}
    gt_hit = {gid for _, gid in overlaps}

    pairs: list[tuple[int, int]] = []
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    for (pid, gid), _ in sorted(overlaps.items(), key=lambda kv: (-kv[1], kv[0][1], kv[0][0])):
        if pid in used_pred or gid in used_gt:
            continue
        pairs.append((pid, gid))
        used_pred.add(pid)
        used_gt.add(gid)

    unmatched_pred = tuple(l.id for l in pred.lesions if l.id not in pred_hit)
    unmatched_gt = tuple(l.id for l in gt.lesions if l.id not in gt_hit)
    return LesionMatching(
        pairs=tuple(sorted(pairs, key=lambda t: t[1])),
        unmatched_pred=unmatched_pred,
        unmatched_gt=unmatched_gt,
        n_pred=pred.count,
        n_gt=gt.count,
    )
