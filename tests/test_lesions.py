import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from oracles import copying_label_components, flood_fill_label, partitions_equal
from wmhkit.errors import NonBinaryInput, ShapeMismatch
from wmhkit.lesions import count_components, label_components, match_lesions
from wmhkit.volume import Volume3D


def _mask(data, spacing=(1.0, 1.0, 1.0)):
    return Volume3D(np.asarray(data, dtype=np.float32), spacing)


def _edge_masks(shape, rng):
    """Masks whose foreground box meets the grid's edges, where labelling on
    the box has to offset its indices back: empty, full, one voxel in each
    corner, and, for each of the six faces, sparse foreground in the half of
    the grid next to that face and a voxel on it."""
    masks = [np.zeros(shape, np.float32), np.ones(shape, np.float32)]
    for corner in product(*((0, n - 1) for n in shape)):
        data = np.zeros(shape, np.float32)
        data[corner] = 1.0
        masks.append(data)
    for axis, end in product(range(3), (0, -1)):
        data = (rng.random(shape) < 0.3).astype(np.float32)
        half = [slice(None)] * 3
        half[axis] = slice(shape[axis] // 2 + 1, None) if end == 0 else slice(None, (shape[axis] - 1) // 2)
        data[tuple(half)] = 0.0
        face = [n // 2 for n in shape]
        face[axis] = end
        data[tuple(face)] = 1.0
        masks.append(data)
    return masks


def _serpentine(shape):
    """One 6-connected path through the grid: x rows on every other y of
    every other z slice, walked back and forth, joined at their ends by one
    voxel in the odd y between them and in the odd z between slices."""
    data = np.zeros(shape, np.float32)
    nx, ny, nz = shape
    x_end, y_end = nx - 1, 0
    for z in range(0, nz, 2):
        if z:
            data[x_end, y_end, z - 1] = 1.0
        ys = list(range(0, ny, 2))
        for i, y in enumerate(ys if y_end == 0 else ys[::-1]):
            if i:
                data[x_end, (y + y_end) // 2, z] = 1.0
            data[:, y, z] = 1.0
            x_end, y_end = nx - 1 - x_end, y
    return data


def _run_masks(shape, rng):
    """Masks that stress labelling by runs: random ones from sparse to
    dense, a serpentine single component, and the stride-2 lattice, whose
    voxels are all isolated, even under 26-connectivity. The all-False and
    all-True masks are among ``_edge_masks``."""
    masks = [(rng.random(shape) < p).astype(np.float32) for p in (0.02, 0.1, 0.3, 0.6)]
    lattice = np.zeros(shape, np.float32)
    lattice[::2, ::2, ::2] = 1.0
    return masks + [_serpentine(shape), lattice]


def _corner_pair():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = 1.0
    return _mask(data)


class TestLabelComponents:
    def test_empty_mask(self):
        out = label_components(_mask(np.zeros((4, 4, 4))))
        assert out.count == 0
        assert out.labels.data.sum() == 0

    def test_corner_adjacency_by_connectivity(self):
        corner = _corner_pair()
        assert label_components(corner, connectivity=26).count == 1
        assert label_components(corner, connectivity=18).count == 2
        assert label_components(corner, connectivity=6).count == 2

    def test_rejects_non_binary(self):
        with pytest.raises(NonBinaryInput):
            label_components(_mask(np.full((2, 2, 2), 0.5)))

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            label_components(_corner_pair(), connectivity=10)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_flood_fill_oracle(self, rng, connectivity):
        for shape in ((16, 16, 16), (12, 1, 9)):
            masks = [(rng.random(shape) < 0.25).astype(np.float32) for _ in range(5)]
            for mask in masks + _edge_masks(shape, rng) + _run_masks(shape, rng):
                got = label_components(_mask(mask), connectivity)
                want = flood_fill_label(mask > 0, connectivity)
                assert partitions_equal(got.labels.data.astype(np.int64), want)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_dense_mask_peak_is_bounded_in_float32_volumes(self, connectivity):
        # p = 0.5 has about one run per four voxels, and each run about as many
        # edges per neighbouring row: the union-find holds a few arrays of each
        shape = (64, 64, 64)
        mask = _mask(np.random.default_rng(5).random(shape) < 0.5)
        tracemalloc.start()
        try:
            label_components(mask, connectivity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 4 * int(np.prod(shape)), peak

    @pytest.mark.parametrize("shape", [(64, 64, 64), (96, 112, 80)])
    def test_lattice_peak_is_bounded_in_float32_volumes(self, shape):
        # every eighth voxel is its own component: labelling holds a few
        # arrays per run and per component, and no object per component
        data = np.zeros(shape, np.float32)
        data[::2, ::2, ::2] = 1.0
        mask = _mask(data)
        tracemalloc.start()
        try:
            out = label_components(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.count == int(data.sum())
        assert peak <= 5 * 4 * data.size, peak / (4 * data.size)

    def test_ids_contiguous_sorted_by_size(self, rng):
        mask = (rng.random((12, 12, 12)) < 0.2).astype(np.float32)
        out = label_components(_mask(mask))
        assert out.sizes.dtype == np.int64
        assert np.array_equal(np.unique(out.labels.data), np.arange(out.count + 1))
        assert np.array_equal(np.bincount(out.labels.data.astype(np.int64).ravel())[1:], out.sizes)
        assert np.all(np.diff(out.sizes) <= 0)

    def test_size_tie_breaks_by_linear_index(self):
        # two single-voxel lesions; x-fastest order ranks (0,0,0) before (0,0,3)
        data = np.zeros((4, 4, 4), dtype=np.float32)
        data[0, 0, 0] = 1.0
        data[0, 0, 3] = 1.0
        out = label_components(_mask(data))
        assert out.labels.data[0, 0, 0] == 1.0
        assert out.labels.data[0, 0, 3] == 2.0

    def test_counts_partition_foreground(self, rng):
        mask = (rng.random((10, 10, 10)) < 0.3).astype(np.float32)
        out = label_components(_mask(mask))
        assert int(out.sizes.sum()) == int(mask.sum())
        fg = out.labels.data > 0
        assert np.array_equal(fg, mask > 0)

    def test_size_of_one_lesion(self):
        data = np.zeros((5, 5, 5), dtype=np.float32)
        data[1:3, 1:4, 2] = 1.0
        out = label_components(_mask(data, spacing=(2.0, 1.0, 1.0)))
        assert out.sizes.tolist() == [6]
        assert np.array_equal(out.labels.data, data)


class TestMatchLesions:
    def test_identical_masks_full_pairing(self, rng):
        mask = (rng.random((10, 10, 10)) < 0.15).astype(np.float32)
        s = label_components(_mask(mask))
        m = match_lesions(s, s)
        assert len(m.pairs) == s.count
        assert m.unmatched_pred == ()
        assert m.unmatched_gt == ()
        assert m.tp_lesions == s.count

    def test_empty_prediction_all_false_negative(self, rng):
        mask = (rng.random((8, 8, 8)) < 0.2).astype(np.float32)
        gt = label_components(_mask(mask))
        pred = label_components(_mask(np.zeros((8, 8, 8))))
        m = match_lesions(pred, gt)
        assert m.pairs == ()
        assert m.fn_lesions == gt.count
        assert m.fp_lesions == 0
        assert m.tp_lesions == 0

    def test_split_prediction_counts_once(self):
        # one 10-voxel reference lesion, two disjoint predictions inside it
        gt_data = np.zeros((10, 3, 3), dtype=np.float32)
        gt_data[0:10, 1, 1] = 1.0
        pred_data = np.zeros((10, 3, 3), dtype=np.float32)
        pred_data[0:2, 1, 1] = 1.0
        pred_data[5:8, 1, 1] = 1.0
        pred = label_components(_mask(pred_data))
        gt = label_components(_mask(gt_data))
        assert pred.count == 2 and gt.count == 1
        m = match_lesions(pred, gt)
        assert m.tp_lesions == 1
        assert m.fp_lesions == 0
        assert m.fn_lesions == 0
        assert len(m.pairs) == 1

    def test_swapping_swaps_fp_fn(self, rng):
        a = (rng.random((10, 10, 10)) < 0.1).astype(np.float32)
        b = (rng.random((10, 10, 10)) < 0.1).astype(np.float32)
        sa, sb = label_components(_mask(a)), label_components(_mask(b))
        forward_m = match_lesions(sa, sb)
        backward_m = match_lesions(sb, sa)
        assert forward_m.fp_lesions == backward_m.fn_lesions
        assert forward_m.fn_lesions == backward_m.fp_lesions

    def test_pairs_take_greatest_overlap(self):
        gt_data = np.zeros((8, 8, 1), dtype=np.float32)
        gt_data[0:4, 0, 0] = 1.0  # gt lesion A (4 voxels)
        gt_data[0:4, 4, 0] = 1.0  # gt lesion B (4 voxels)
        pred_data = np.zeros((8, 8, 1), dtype=np.float32)
        pred_data[0:1, 0, 0] = 1.0  # overlaps A by 1
        pred_data[1:4, 0, 0] = 0.0
        pred_data[0:3, 4, 0] = 1.0  # overlaps B by 3 -- same component? no, disjoint rows
        pred = label_components(_mask(pred_data))
        gt = label_components(_mask(gt_data))
        m = match_lesions(pred, gt)
        assert m.tp_lesions == 2
        assert len(m.pairs) == 2

    def test_shape_mismatch(self, rng):
        a = label_components(_mask(np.zeros((4, 4, 4))))
        b = label_components(_mask(np.zeros((5, 5, 5))))
        with pytest.raises(ShapeMismatch):
            match_lesions(a, b)


def _reference_lesions(mask: np.ndarray, connectivity: int):
    """The voxel count of each component in id order, and each component's
    voxels, from the flood-fill oracle and one np.nonzero per component."""
    flood = flood_fill_label(mask > 0, connectivity)
    nx, ny, _ = mask.shape
    comps = []
    for k in range(1, int(flood.max()) + 1):
        xs, ys, zs = np.nonzero(flood == k)
        first = int((xs + nx * (ys + ny * zs)).min())
        comps.append((-xs.size, first, flood == k))
    comps.sort(key=lambda c: (c[0], c[1]))
    return [-c[0] for c in comps], [c[2] for c in comps]


class TestManyComponents:
    @staticmethod
    def _specks_and_blobs(rng):
        # specks on even coordinates in x < 25 are pairwise non-adjacent under
        # 26-connectivity; the blobs sit in x >= 27, out of their reach
        data = np.zeros((40, 24, 24), dtype=np.float32)
        even = np.stack(np.meshgrid(*(np.arange(0, n, 2) for n in (25, 24, 24)), indexing="ij"), -1)
        picks = rng.choice(even.reshape(-1, 3), size=1100, replace=False)
        data[tuple(picks.T)] = 1.0
        data[28:32, 2:7, 3:9] = 1.0  # solid box
        data[35, 2:9, 12] = 1.0  # cross: one blob at every connectivity
        data[32:39, 5, 12] = 1.0
        for i in range(5):
            data[28 + i, 12 + i, 18] = 1.0  # edge-diagonal: 18/26-connected only
            data[33 + i, 14 + i, 14 + i] = 1.0  # body-diagonal: 26-connected only
        return data

    @pytest.mark.parametrize("connectivity,blobs", [(6, 12), (18, 8), (26, 4)])
    def test_specks_match_flood_fill_oracle(self, rng, connectivity, blobs):
        data = self._specks_and_blobs(rng)
        got = label_components(_mask(data), connectivity)
        assert got.count == 1100 + blobs
        want = flood_fill_label(data > 0, connectivity)
        assert partitions_equal(got.labels.data.astype(np.int64), want)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_sizes_and_order_match_brute_force(self, rng, connectivity):
        for shape, p in (((9, 13, 7), 0.15), ((11, 6, 10), 0.3), ((5, 8, 12), 0.5)):
            mask = (rng.random(shape) < p).astype(np.float32)
            got = label_components(_mask(mask, spacing=(0.5, 1.0, 2.0)), connectivity)
            want, voxels = _reference_lesions(mask, connectivity)
            assert got.sizes.tolist() == want
            for lesion_id, where in enumerate(voxels, start=1):
                assert np.all(got.labels.data[where] == lesion_id)
            assert got.labels.data.dtype == np.float32


# non-cubic shapes, singleton axes among them
SHAPES = [(9, 13, 7), (1, 11, 6), (8, 1, 10), (7, 9, 1), (1, 1, 23), (14, 5, 3)]


class TestStorageOrder:
    """Labelling the axis-reversed foreground against the copying labeller,
    which labels in the mask's own axes."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_copying_labeller(self, rng, shape, connectivity, order):
        randoms = [(rng.random(shape) < p).astype(np.float32) for p in (0.1, 0.35, 0.6)]
        for data in randoms + _edge_masks(shape, rng) + _run_masks(shape, rng):
            data = np.asfortranarray(data) if order == "F" else np.ascontiguousarray(data)
            want_map, want_sizes = copying_label_components(data, connectivity)
            for dtype in (np.float32, np.bool_):  # a bool mask is cropped without a comparison
                got = label_components(Volume3D(data.astype(dtype, order="K"), (0.5, 1.0, 2.0)), connectivity)
                assert got.labels.data.dtype == np.float32
                assert np.array_equal(got.labels.data, want_map)
                assert got.sizes.dtype == np.int64
                assert np.array_equal(got.sizes, want_sizes)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_count_components_is_the_label_count(self, rng, connectivity, order):
        for shape in SHAPES:
            randoms = [(rng.random(shape) < p).astype(np.float32) for p in (0.2, 0.5, 0.8)]
            for data in randoms + _edge_masks(shape, rng) + _run_masks(shape, rng):
                mask = _mask(np.asfortranarray(data) if order == "F" else np.ascontiguousarray(data))
                assert count_components(mask, connectivity) == label_components(mask, connectivity).count

    def test_count_components_validates_like_label_components(self):
        with pytest.raises(NonBinaryInput):
            count_components(_mask(np.full((2, 2, 2), 0.5)))
        with pytest.raises(ValueError):
            count_components(_corner_pair(), connectivity=10)
        assert [count_components(_corner_pair(), c) for c in (6, 18, 26)] == [2, 2, 1]


def _reference_matching(pred: np.ndarray, gt: np.ndarray):
    overlaps: dict[tuple[int, int], int] = {}
    for pid, gid in zip(pred.ravel().tolist(), gt.ravel().tolist()):
        if pid > 0 and gid > 0:
            key = (int(pid), int(gid))
            overlaps[key] = overlaps.get(key, 0) + 1
    pairs, used_pred, used_gt = [], set(), set()
    for (pid, gid), _ in sorted(overlaps.items(), key=lambda kv: (-kv[1], kv[0][1], kv[0][0])):
        if pid not in used_pred and gid not in used_gt:
            pairs.append((pid, gid))
            used_pred.add(pid)
            used_gt.add(gid)
    return overlaps, sorted(pairs, key=lambda t: t[1])


def _assert_matches_reference(pred, gt):
    """``match_lesions(pred, gt)`` against ``_reference_matching``; returns
    the reference overlaps."""
    overlaps, pairs = _reference_matching(pred.labels.data, gt.labels.data)
    m = match_lesions(pred, gt)
    assert list(m.pairs) == pairs
    pred_hit = {p for p, _ in overlaps}
    gt_hit = {g for _, g in overlaps}
    assert m.unmatched_pred == tuple(i for i in range(1, pred.count + 1) if i not in pred_hit)
    assert m.unmatched_gt == tuple(i for i in range(1, gt.count + 1) if i not in gt_hit)
    assert (m.n_pred, m.n_gt) == (pred.count, gt.count)
    assert all(type(i) is int for pair in m.pairs for i in pair)
    assert all(type(i) is int for i in m.unmatched_pred + m.unmatched_gt)
    return overlaps


class TestMatchDense:
    def test_noisy_pair_matches_brute_force(self, rng):
        pred = label_components(_mask((rng.random((24, 24, 24)) < 0.3).astype(np.float32)), 6)
        gt = label_components(_mask((rng.random((24, 24, 24)) < 0.3).astype(np.float32)), 6)
        assert len(_assert_matches_reference(pred, gt)) >= 300

    def test_label_map_layout_does_not_change_the_matching(self, rng):
        pred = label_components(_mask((rng.random((9, 14, 11)) < 0.3).astype(np.float32)), 6)
        gt = label_components(_mask((rng.random((9, 14, 11)) < 0.3).astype(np.float32)), 6)
        want = match_lesions(pred, gt)
        c_pred, c_gt = (replace(s, labels=s.labels.with_data(np.ascontiguousarray(s.labels.data))) for s in (pred, gt))
        assert not c_pred.labels.data.flags.f_contiguous
        assert match_lesions(c_pred, gt) == match_lesions(pred, c_gt) == match_lesions(c_pred, c_gt) == want


class TestMatchEdges:
    """Matchings with no overlap at all, where the pair keys are empty, and
    overlaps that leave the first and the last id unmatched."""

    @staticmethod
    def _sets(pred_data, gt_data):
        return label_components(_mask(pred_data)), label_components(_mask(gt_data))

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_one_side_empty(self, rng, side):
        data = (rng.random((9, 8, 7)) < 0.2).astype(np.float32)
        empty = np.zeros_like(data)
        pred, gt = self._sets(data, empty) if side == "pred" else self._sets(empty, data)
        assert max(pred.count, gt.count) > 1
        assert _assert_matches_reference(pred, gt) == {}

    def test_both_empty(self):
        pred, gt = self._sets(np.zeros((4, 5, 6), np.float32), np.zeros((4, 5, 6), np.float32))
        assert _assert_matches_reference(pred, gt) == {}
        m = match_lesions(pred, gt)
        assert (m.pairs, m.unmatched_pred, m.unmatched_gt, m.n_pred, m.n_gt) == ((), (), (), 0, 0)

    def test_disjoint_sets_overlap_nothing(self, rng):
        data = (rng.random((10, 9, 8)) < 0.3).astype(np.float32)
        pred_data, gt_data = data.copy(), data.copy()
        pred_data[:, :, 4:] = 0.0
        gt_data[:, :, :4] = 0.0
        pred, gt = self._sets(pred_data, gt_data)
        assert pred.count > 1 and gt.count > 1
        assert _assert_matches_reference(pred, gt) == {}

    @pytest.mark.parametrize("swap", [False, True])
    def test_first_and_last_ids_unmatched(self, swap):
        # three lesions of 8, 4 and 1 voxels, so ids 1..3 by size; the other
        # mask overlaps only the middle one, leaving ids 1 and K = 3 unmatched
        three = np.zeros((12, 4, 4), np.float32)
        three[0:2, 0:2, 0:2] = 1.0
        three[4:8, 1, 1] = 1.0
        three[10, 2, 2] = 1.0
        middle = np.zeros_like(three)
        middle[5:7, 1, 1] = 1.0
        pred, gt = self._sets(middle, three) if swap else self._sets(three, middle)
        assert _assert_matches_reference(pred, gt) == ({(1, 2): 2} if swap else {(2, 1): 2})
        m = match_lesions(pred, gt)
        assert (m.unmatched_gt if swap else m.unmatched_pred) == (1, 3)
        assert (m.unmatched_pred if swap else m.unmatched_gt) == ()

    def test_stride_2_lattice_matched_against_itself(self):
        # each single-voxel component overlaps only itself, so every pair is
        # uncontested and no pair is walked
        lattice = np.zeros((12, 10, 8), np.float32)
        lattice[::2, ::2, ::2] = 1.0
        pred, gt = self._sets(lattice, lattice)
        assert pred.count == gt.count == 6 * 5 * 4
        assert len(_assert_matches_reference(pred, gt)) == pred.count
        assert match_lesions(pred, gt).pairs == tuple((i, i) for i in range(1, pred.count + 1))

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_random_pairs_match_brute_force(self, rng, connectivity):
        # sparse to dense pairs on small grids, many with an empty side or no overlap
        for _ in range(40):
            shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
            p_pred, p_gt = rng.choice([0.0, 0.05, 0.2, 0.5], size=2)
            pred = label_components(_mask((rng.random(shape) < p_pred).astype(np.float32)), connectivity)
            gt = label_components(_mask((rng.random(shape) < p_gt).astype(np.float32)), connectivity)
            _assert_matches_reference(pred, gt)
