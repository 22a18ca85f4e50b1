"""Connected-component lesion extraction and pred/reference lesion matching.

Components are labelled from runs: the foreground's maximal stretches of
voxels along x. Runs in nearby rows that touch are joined by a union-find
over arrays, so labelling takes numpy alone, with no structuring element
and no per-voxel label pass. A labelling is its label map and one array of
component sizes, and matching works on the pairs of ids that overlap, so no
step makes a Python object per lesion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Volume3D, binary_mask, require_same_dims

DEFAULT_CONNECTIVITY = 26

# For each connectivity, the earlier rows a run can touch, as (dz, dy, reach)
# in the x-fastest axes: the row dz slices and dy rows back, whose runs touch
# a run [s, e) when they start before e + reach and stop after s - reach.
# The later rows' edges are the same pairs seen from the other run.
NEIGHBOUR_ROWS = {
    6: ((0, -1, 0), (-1, 0, 0)),
    18: ((0, -1, 1), (-1, 0, 1), (-1, -1, 0), (-1, 1, 0)),
    26: ((0, -1, 1), (-1, -1, 1), (-1, 0, 1), (-1, 1, 1)),
}


@dataclass(frozen=True)
class LesionSet:
    labels: Volume3D  # integer labels stored as float32; 0 = background
    sizes: np.ndarray  # int64 voxel counts in id order: sizes[i] is id i + 1's
    connectivity: int

    @property
    def count(self) -> int:
        return self.sizes.size


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


def _foreground(mask: Volume3D, connectivity: int) -> tuple[np.ndarray, tuple[slice, slice, slice]]:
    """The mask's foreground with its axes reversed, cropped to its bounding
    box and C-contiguous, and that box in the reversed axes.

    The reversed array walks the voxels x-fastest in C order, and so does its
    box, so a component's first voxel in the box is its first in the grid.
    Of the bool mask (``binary_mask``), only the box is copied, once. The
    6/18/26 neighbourhoods are symmetric under any axis permutation, so it
    has the same components as the mask.
    """
    rev = binary_mask(mask, "lesion mask").data.T
    if connectivity not in NEIGHBOUR_ROWS:
        raise ValueError(f"connectivity must be 6, 18, or 26, got {connectivity}")
    box = _box(rev)
    return np.ascontiguousarray(rev[box]), box


def _runs(fg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each run's start and stop in ``fg``, in linear-index order, as
    positions in its rows (along the last axis) padded to one voxel more:
    row ``r``'s column ``c`` is at ``r * (fg.shape[2] + 1) + c``."""
    rows = fg.reshape(-1, fg.shape[2]).view(np.int8)
    zero = np.zeros((rows.shape[0], 1), np.int8)
    steps = np.flatnonzero(np.diff(rows, axis=1, prepend=zero, append=zero))  # +1 at a start, -1 at a stop
    return steps[0::2], steps[1::2]


def _touching(
    start: np.ndarray, stop: np.ndarray, ny: int, width: int, dz: int, dy: int, reach: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (run, other) of runs (``_runs``) where ``other`` lies in the
    row (dz, dy) from ``run``'s and touches it. The runs of a row are sorted
    and disjoint, so the runs that one run touches in another row are a
    contiguous range, found by two binary searches."""
    shift = (dz * ny + dy) * width
    lo = np.searchsorted(stop, start + (shift - reach), side="right")
    n = np.searchsorted(start, stop + (shift + reach), side="left")
    n -= lo  # every run that stops before the range also starts before its end, so n >= 0
    if dy:  # past the box's y edge, the shifted row lies in another slice
        y = (start // width) % ny + dy
        n[(y < 0) | (y >= ny)] = 0
    run = np.repeat(np.arange(start.size), n)
    lo -= np.cumsum(n) - n  # so that edge k of run i is to run lo[i] + k
    other = np.repeat(lo, n)
    other += np.arange(run.size)
    return run, other


def _components(fg: np.ndarray, connectivity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of ``fg`` (``_runs``) and, for each, its component's root:
    the component's first run.

    A union-find over arrays joins the runs that touch, one neighbouring row
    offset's edges at a time. Each round, every root that shares an edge
    with a smaller root hooks onto the smallest such root, and pointer
    jumping flattens the trees again, so every run points at its root. A
    root that neither hooks nor is hooked onto has only larger neighbouring
    roots, which all hooked lower, so it hooks in the next round: every tree
    with an edge left merges within two rounds, and there are O(log R)
    rounds for R runs.
    """
    start, stop = _runs(fg)
    ny, width = fg.shape[1], fg.shape[2] + 1
    parent = np.arange(start.size)
    for dz, dy, reach in NEIGHBOUR_ROWS[connectivity]:
        run, other = _touching(start, stop, ny, width, dz, dy, reach)
        while True:
            root, other_root = parent[run], parent[other]
            live = root != other_root
            if not live.any():
                break
            run, other = run[live], other[live]  # in two steps, to hold fewer copies at once
            root, other_root = root[live], other_root[live]
            np.minimum.at(parent, np.maximum(root, other_root), np.minimum(root, other_root))
            while True:
                up = parent[parent]
                if np.array_equal(up, parent):
                    break
                parent = up
    return start, stop, parent


def count_components(mask: Volume3D, connectivity: int = DEFAULT_CONNECTIVITY) -> int:
    """The number of connected foreground components, which is
    ``label_components(mask, connectivity).count`` without the label map
    and sizes: the number of runs that are their component's first."""
    fg, _ = _foreground(mask, connectivity)
    _, _, root = _components(fg, connectivity)
    return int(np.count_nonzero(root == np.arange(root.size)))


def label_components(mask: Volume3D, connectivity: int = DEFAULT_CONNECTIVITY) -> LesionSet:
    """Label connected foreground components under 6/18/26-connectivity.

    Lesion ids are 1..K, assigned by descending voxel count with ties broken
    by the lowest x-fastest linear index. Finding the foreground's bounding
    box and writing the float32 map are whole-volume passes; finding the runs
    is a pass over the box, which for sparse lesions is a fraction of the
    grid; joining them, and each component's size, are passes over the
    runs, and only the id order is a sort.

    Labelling runs on the mask with its axes reversed, so its storage order
    is x-fastest, and only on its foreground's bounding box, of which one
    bool copy is made. Runs are numbered in x-fastest order, so a
    component's first run holds its first voxel and is the root its runs
    join to. The map is built in the reversed axes and returned transposed,
    F-contiguous, in the mask's axes.
    """
    fg, box = _foreground(mask, connectivity)
    start, stop, root = _components(fg, connectivity)
    first = np.flatnonzero(root == np.arange(root.size))  # each component's first run
    n = first.size
    comp = np.empty(root.size, dtype=np.intp)
    comp[first] = np.arange(n)
    comp = comp[root]  # the component of each run, numbered by first voxel
    length = stop - start
    counts = np.bincount(comp, weights=length, minlength=n).astype(np.int64)
    order = np.argsort(-counts, kind="stable")  # stable: size ties stay in first-voxel order

    remap = np.empty(n, dtype=np.float32)
    remap[order] = np.arange(1, n + 1, dtype=np.float32)
    label_map = np.zeros(mask.data.shape[::-1], dtype=np.float32)
    label_map[box][fg] = np.repeat(remap[comp], length)

    return LesionSet(labels=mask.with_data(label_map.T), sizes=counts[order], connectivity=connectivity)


def match_lesions(pred: LesionSet, gt: LesionSet) -> LesionMatching:
    """Detection-style matching between predicted and reference lesions.

    A reference lesion counts as detected when any predicted voxel overlaps
    it; a predicted lesion is a false positive only when it overlaps no
    reference voxel at all. Pairs are formed greedily by descending overlap
    (ties to the smaller reference id, then smaller predicted id); extra
    predictions collapsing onto an already-paired reference lesion are
    neither paired nor counted as false positives.

    The overlapping pairs and their voxel counts come from one ``np.unique``
    of pair keys, and the unmatched ids are those no pair names. A pair
    whose ids each occur in no other pair is uncontested: the greedy always
    takes it, and it blocks no other pair, so these pairs are taken by array
    ops and only the contested ones are walked, in the greedy's order.
    """
    require_same_dims(pred.labels, gt.labels, "label maps")
    # voxels are visited in storage order; the overlap counts do not depend on it
    order = "F" if pred.labels.data.flags.f_contiguous else "C"
    pred_ids = pred.labels.data.ravel(order)
    gt_ids = gt.labels.data.ravel(order)
    both = (pred_ids > 0) & (gt_ids > 0)
    # int64 ids, so the pair keys and the ids split from them index arrays
    # even when no voxel overlaps
    p = pred_ids[both].astype(np.int64)
    g = gt_ids[both].astype(np.int64)
    base = gt.count + 1
    keys, overlap = np.unique(p * base + g, return_counts=True)
    pids, gids = np.divmod(keys, base)
    pred_pairs = np.bincount(pids, minlength=pred.count + 1)
    gt_pairs = np.bincount(gids, minlength=base)

    taken = (pred_pairs[pids] == 1) & (gt_pairs[gids] == 1)
    contested = np.flatnonzero(~taken)
    used_pred = [False] * (pred.count + 1)
    used_gt = [False] * base
    # descending overlap, then smaller gt id, then smaller pred id
    walk = contested[np.lexsort((pids[contested], gids[contested], -overlap[contested]))]
    for i, pid, gid in zip(walk.tolist(), pids[walk].tolist(), gids[walk].tolist()):
        if not (used_pred[pid] or used_gt[gid]):
            taken[i] = used_pred[pid] = used_gt[gid] = True
    pairs = np.flatnonzero(taken)
    pairs = pairs[np.argsort(gids[pairs])]  # each gt id is in one taken pair at most

    return LesionMatching(
        pairs=tuple(zip(pids[pairs].tolist(), gids[pairs].tolist())),
        unmatched_pred=tuple((np.flatnonzero(pred_pairs[1:] == 0) + 1).tolist()),
        unmatched_gt=tuple((np.flatnonzero(gt_pairs[1:] == 0) + 1).tolist()),
        n_pred=pred.count,
        n_gt=gt.count,
    )
