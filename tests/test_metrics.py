import tracemalloc

import numpy as np
import pytest

from oracles import argsort_pr_curve, pr_enumeration, pr_tsv_text
from wmhkit.ensemble import wmh_volume_ml
from wmhkit.errors import NonBinaryInput, NonFiniteInput, NoPositives, ShapeMismatch, ZeroReference
from wmhkit.lesions import label_components, match_lesions
from wmhkit.metrics import (
    PRCurve,
    abs_volume_diff_pct,
    dice_lesion,
    dice_pixel,
    metric_report,
    pr_curve_auc,
    write_pr_curve_tsv,
)
from wmhkit.tsv import TSV_CHUNK_ROWS, tsv_chunks
from wmhkit.volume import Volume3D


def _vol(data):
    return Volume3D(np.asarray(data, dtype=np.float32))


def _ones(shape):
    return Volume3D(np.ones(shape, dtype=np.float32))


def _written(curve, tmp_path) -> str:
    """The text ``write_pr_curve_tsv`` writes for ``curve``."""
    path = tmp_path / "pr.tsv"
    write_pr_curve_tsv(curve, path)
    return path.read_text()


class TestDicePixel:
    def test_identical_nonempty(self, rng):
        m = _vol(rng.random((6, 6, 6)) < 0.3)
        assert dice_pixel(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=np.float32)
        b = np.zeros((4, 4, 4), dtype=np.float32)
        a[0, 0, 0] = 1.0
        b[1, 1, 1] = 1.0
        assert dice_pixel(_vol(a), _vol(b)) == 0.0

    def test_both_empty_is_one(self):
        assert dice_pixel(_vol(np.zeros((3, 3, 3))), _vol(np.zeros((3, 3, 3)))) == 1.0

    def test_hand_counts(self):
        a = np.zeros((16, 1, 1), dtype=np.float32)
        b = np.zeros((16, 1, 1), dtype=np.float32)
        a[0:8] = 1.0
        b[2:10] = 1.0  # overlap 6, |P|=|G|=8
        assert dice_pixel(_vol(a), _vol(b)) == pytest.approx(0.75)

    def test_symmetric(self, rng):
        a = _vol(rng.random((5, 5, 5)) < 0.4)
        b = _vol(rng.random((5, 5, 5)) < 0.4)
        assert dice_pixel(a, b) == dice_pixel(b, a)

    def test_permutation_invariant(self, rng):
        a = (rng.random(64) < 0.4).astype(np.float32)
        b = (rng.random(64) < 0.4).astype(np.float32)
        perm = rng.permutation(64)
        d1 = dice_pixel(_vol(a.reshape(4, 4, 4)), _vol(b.reshape(4, 4, 4)))
        d2 = dice_pixel(_vol(a[perm].reshape(4, 4, 4)), _vol(b[perm].reshape(4, 4, 4)))
        assert d1 == pytest.approx(d2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            dice_pixel(_vol(np.zeros((2, 2, 2))), _vol(np.zeros((3, 3, 3))))


class TestDiceLesion:
    def _matching(self, pred_data, gt_data):
        return match_lesions(
            label_components(_vol(pred_data)), label_components(_vol(gt_data))
        )

    def test_perfect(self, rng):
        m = (rng.random((8, 8, 8)) < 0.15).astype(np.float32)
        assert dice_lesion(self._matching(m, m)) == 1.0

    def test_zero_tp(self):
        a = np.zeros((4, 4, 4), dtype=np.float32)
        b = np.zeros((4, 4, 4), dtype=np.float32)
        a[0, 0, 0] = 1.0
        b[3, 3, 3] = 1.0
        assert dice_lesion(self._matching(a, b)) == 0.0

    def test_formula(self):
        # TP=3, FP=1, FN=2 -> 6/9
        pred = np.zeros((20, 1, 1), dtype=np.float32)
        gt = np.zeros((20, 1, 1), dtype=np.float32)
        for start in (0, 4, 8):  # three matched pairs
            pred[start : start + 2] = 1.0
            gt[start : start + 2] = 1.0
        pred[12:14] = 1.0  # FP
        gt[16:17] = 1.0  # FN 1
        gt[18:19] = 1.0  # FN 2
        m = self._matching(pred, gt)
        assert (m.tp_lesions, m.fp_lesions, m.fn_lesions) == (3, 1, 2)
        assert dice_lesion(m) == pytest.approx(6.0 / 9.0)

    def test_empty_everything(self):
        m = self._matching(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)))
        assert dice_lesion(m) == 1.0


class TestAbsVolumeDiff:
    def test_equal(self):
        assert abs_volume_diff_pct(5.0, 5.0) == 0.0

    def test_proportional_overestimate(self):
        assert abs_volume_diff_pct(1.137 * 8.0, 8.0) == pytest.approx(13.7, abs=1e-9)

    def test_hand_arithmetic(self):
        assert abs_volume_diff_pct(4.0, 5.0) == pytest.approx(20.0)

    def test_zero_reference(self):
        with pytest.raises(ZeroReference):
            abs_volume_diff_pct(1.0, 0.0)


class TestPRCurve:
    def test_perfect_separation(self):
        gt = np.zeros((2, 2, 2), dtype=np.float32)
        gt[0, 0, 0] = 1.0
        gt[0, 0, 1] = 1.0
        post = Volume3D(gt.copy())
        curve = pr_curve_auc(post, _vol(gt), _ones((2, 2, 2)))
        assert curve.auc == pytest.approx(1.0)

    def test_constant_posterior_auc_is_prevalence(self, rng):
        gt = (rng.random((4, 4, 4)) < 0.3).astype(np.float32)
        if gt.sum() == 0:
            gt[0, 0, 0] = 1.0
        post = Volume3D(np.full((4, 4, 4), 0.5, dtype=np.float32))
        curve = pr_curve_auc(post, _vol(gt), _ones((4, 4, 4)))
        prevalence = gt.sum() / gt.size
        assert curve.thresholds.size == 1
        assert curve.auc == pytest.approx(prevalence)

    def test_six_voxel_worked_example(self):
        post = np.array([0.9, 0.8, 0.7, 0.6, 0.4, 0.2], dtype=np.float32).reshape(6, 1, 1)
        gt = np.array([1, 1, 0, 1, 0, 0], dtype=np.float32).reshape(6, 1, 1)
        curve = pr_curve_auc(Volume3D(post), _vol(gt), _ones((6, 1, 1)))
        points, auc = pr_enumeration(post.reshape(-1).astype(np.float64), gt.reshape(-1) > 0)
        np.testing.assert_allclose(curve.precision, [p for _, p, _ in points], atol=1e-12)
        np.testing.assert_allclose(curve.recall, [r for _, _, r in points], atol=1e-12)
        assert curve.auc == pytest.approx(auc, abs=1e-12)
        assert curve.auc == pytest.approx(65.0 / 72.0, abs=1e-9)

    def test_matches_enumeration_oracle_random(self, rng):
        for _ in range(10):
            shape = (6, 6, 6)
            post = (rng.integers(0, 9, size=shape) / 8.0).astype(np.float32)
            gt = (rng.random(shape) < 0.3).astype(np.float32)
            mask = (rng.random(shape) < 0.8).astype(np.float32)
            if (gt * mask).sum() == 0:
                continue
            curve = pr_curve_auc(Volume3D(post), _vol(gt), _vol(mask))
            inside = mask > 0
            _, auc = pr_enumeration(post[inside].astype(np.float64), gt[inside] > 0)
            assert curve.auc == pytest.approx(auc, abs=1e-9)

    def test_recall_non_decreasing(self, rng):
        post = rng.random((5, 5, 5)).astype(np.float32)
        gt = (rng.random((5, 5, 5)) < 0.4).astype(np.float32)
        curve = pr_curve_auc(Volume3D(post), _vol(gt), _ones((5, 5, 5)))
        assert np.all(np.diff(curve.recall) >= 0)

    def test_auc_invariant_to_monotone_transform(self, rng):
        post = rng.random((5, 5, 5)).astype(np.float32)
        gt = (rng.random((5, 5, 5)) < 0.4).astype(np.float32)
        mask = _ones((5, 5, 5))
        a = pr_curve_auc(Volume3D(post), _vol(gt), mask).auc
        b = pr_curve_auc(Volume3D(np.sqrt(post)), _vol(gt), mask).auc
        assert a == pytest.approx(b, abs=1e-12)

    def test_no_positives(self):
        post = Volume3D(np.random.default_rng(0).random((3, 3, 3)).astype(np.float32))
        with pytest.raises(NoPositives):
            pr_curve_auc(post, _vol(np.zeros((3, 3, 3))), _ones((3, 3, 3)))

    def test_tsv_has_one_row_per_operating_point(self, rng, tmp_path):
        post = (rng.integers(0, 5, size=(4, 4, 4)) / 4.0).astype(np.float32)
        gt = (rng.random((4, 4, 4)) < 0.4).astype(np.float32)
        gt[0, 0, 0] = 1.0
        curve = pr_curve_auc(Volume3D(post), _vol(gt), _ones((4, 4, 4)))
        lines = _written(curve, tmp_path).strip().splitlines()
        assert lines[0] == "threshold\tprecision\trecall"
        assert len(lines) == curve.thresholds.size + 1

    def test_tsv_matches_per_row_formatting_across_chunks(self, rng, tmp_path):
        n = 2 * TSV_CHUNK_ROWS + 7
        thresholds = np.sort(rng.random(n))[::-1]
        thresholds[0], thresholds[-1] = 1.0, 0.0
        thresholds[TSV_CHUNK_ROWS - 1 : TSV_CHUNK_ROWS + 1] = (1 / 3, 2e-10)
        precision = rng.random(n)
        precision[TSV_CHUNK_ROWS] = 1.0
        recall = np.linspace(0.0, 1.0, n)
        curve = PRCurve(thresholds=thresholds, precision=precision, recall=recall, auc=0.5)
        text = _written(curve, tmp_path)
        assert text == pr_tsv_text(curve)
        lines = text.splitlines()  # lines[i + 1] is row i
        assert lines[1].startswith("1\t") and lines[-1].startswith("0\t")
        assert lines[TSV_CHUNK_ROWS].startswith("0.333333333\t")  # last row of chunk 1
        assert lines[TSV_CHUNK_ROWS + 1].startswith("2e-10\t1\t")  # first row of chunk 2


# non-cubic shapes, singleton axes among them
SHAPES = [(6, 7, 5), (1, 9, 8), (7, 1, 6), (5, 8, 1), (1, 1, 17), (12, 3, 4)]


def _layout(a, order):
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


def _assert_matches_argsort(post, gt, mask):
    curve = pr_curve_auc(Volume3D(post), _vol(gt), _vol(mask))
    thresholds, precision, recall, auc = argsort_pr_curve(post, gt, mask)
    assert np.array_equal(curve.thresholds, thresholds)
    assert np.array_equal(curve.precision, precision)
    assert np.array_equal(curve.recall, recall)
    assert curve.auc == auc
    return curve


class TestPRCurveValueSort:
    """The value-sort curve against the voxel-ordering (argsort) oracle."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_argsort_oracle(self, rng, shape, order):
        for levels in (2, 3, 9, 1000, None):  # heavy ties down to none
            if levels is None:
                post = rng.random(shape, dtype=np.float32)
            else:
                post = (rng.integers(0, levels, size=shape) / (levels - 1)).astype(np.float32)
            gt = (rng.random(shape) < 0.3).astype(np.float32)
            mask = (rng.random(shape) < 0.8).astype(np.float32)
            gt.flat[0] = mask.flat[0] = 1.0
            _assert_matches_argsort(*(_layout(a, order) for a in (post, gt, mask)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_all_equal_posterior(self, rng, order):
        shape = (4, 6, 5)
        gt = (rng.random(shape) < 0.4).astype(np.float32)
        gt[0, 0, 0] = 1.0
        post = np.full(shape, 0.25, dtype=np.float32)
        curve = _assert_matches_argsort(*(_layout(a, order) for a in (post, gt, np.ones(shape, np.float32))))
        assert curve.thresholds.tolist() == [0.25]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_single_positive(self, rng, order):
        shape = (5, 3, 7)
        post = (rng.integers(0, 6, size=shape) / 5.0).astype(np.float32)
        gt = np.zeros(shape, dtype=np.float32)
        gt[4, 1, 2] = 1.0
        mask = (rng.random(shape) < 0.7).astype(np.float32)
        mask[4, 1, 2] = 1.0
        curve = _assert_matches_argsort(*(_layout(a, order) for a in (post, gt, mask)))
        assert set(curve.recall.tolist()) <= {0.0, 1.0}

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_signed_zeros_are_one_point_written_as_0(self, rng, order, tmp_path):
        shape = (6, 5, 4)
        post = (rng.integers(0, 4, size=shape) / 3.0).astype(np.float32)
        post[post == 0] = -0.0
        post[::2][post[::2] == 0] = 0.0  # +0.0 and -0.0 both present
        gt = (rng.random(shape) < 0.4).astype(np.float32)
        gt[0, 0, 0] = 1.0
        mask = np.ones(shape, np.float32)
        curve = _assert_matches_argsort(*(_layout(a, order) for a in (post, gt, mask)))
        assert curve.thresholds[-1] == 0.0 and not np.signbit(curve.thresholds).any()
        assert _written(curve, tmp_path).splitlines()[-1].startswith("0\t")

    def test_only_negative_zeros_still_write_0(self, tmp_path):
        post = np.array([0.5, -0.0, -0.0, 0.5], dtype=np.float32).reshape(2, 2, 1)
        gt = np.array([1, 0, 1, 0], dtype=np.float32).reshape(2, 2, 1)
        curve = pr_curve_auc(Volume3D(post), _vol(gt), _ones((2, 2, 1)))
        assert _written(curve, tmp_path).splitlines()[1:] == ["0.5\t0.5\t0.5", "0\t0.5\t1"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_in_mask_is_rejected(self, rng, bad):
        post = rng.random((6, 5, 4)).astype(np.float32)
        post[2, 3, 1] = bad
        gt = (rng.random((6, 5, 4)) < 0.4).astype(np.float32)
        gt[0, 0, 0] = 1.0
        with pytest.raises(NonFiniteInput, match="1 NaN or infinite"):
            pr_curve_auc(Volume3D(post), _vol(gt), _ones((6, 5, 4)))

    def test_non_finite_outside_mask_is_ignored(self, rng):
        shape = (6, 5, 4)
        post = rng.random(shape).astype(np.float32)
        gt = (rng.random(shape) < 0.4).astype(np.float32)
        gt[0, 0, 0] = 1.0
        mask = np.ones(shape, np.float32)
        mask[5] = 0.0
        clean = pr_curve_auc(Volume3D(post), _vol(gt), _vol(mask))
        post[5, :, :2] = (np.nan, np.inf)
        post[5, :, 2:] = -np.inf
        dirty = pr_curve_auc(Volume3D(post), _vol(gt), _vol(mask))
        assert np.array_equal(dirty.thresholds, clean.thresholds) and dirty.auc == clean.auc

    def test_peak_is_at_most_twice_the_curve_it_returns(self, rng):
        # a many-valued posterior: about one operating point per in-mask voxel
        shape = (64, 64, 48)
        post = rng.random(shape, dtype=np.float32)
        gt = (rng.random(shape) < 0.1).astype(np.float32)
        mask = (rng.random(shape) < 0.7).astype(np.float32)
        gt.flat[0] = mask.flat[0] = 1.0
        args = (Volume3D(post), _vol(gt), _vol(mask))
        tracemalloc.start()
        try:
            curve = pr_curve_auc(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = curve.thresholds.nbytes + curve.precision.nbytes + curve.recall.nbytes
        assert curve.thresholds.size > 0.9 * np.count_nonzero(mask)
        assert peak <= 2 * held, f"peak {peak / held:.2f}x the curve"
        # the oracle's precision, recall and trapezoid are the formulas the
        # curve computed before it dropped its temporaries: bit for bit
        _assert_matches_argsort(post, gt, mask)

    def test_written_file_is_the_text_across_chunks(self, rng, tmp_path):
        n = 2 * TSV_CHUNK_ROWS + 7
        thresholds = np.sort(rng.random(n))[::-1]
        precision = rng.random(n)
        recall = np.linspace(0.0, 1.0, n)
        # a 16-character value: its chunk (the second) is formatted value by value
        precision[TSV_CHUNK_ROWS + 3] = -3.194756905e140
        curve = PRCurve(thresholds=thresholds, precision=precision, recall=recall, auc=0.5)
        path = tmp_path / "pr.tsv"
        write_pr_curve_tsv(curve, path)
        assert path.read_bytes() == pr_tsv_text(curve).encode()
        chunks = list(tsv_chunks((thresholds, precision, recall)))
        assert [c.count(b"\n") for c in chunks] == [TSV_CHUNK_ROWS, TSV_CHUNK_ROWS, 7]
        assert f"\t{precision[TSV_CHUNK_ROWS + 3]:.9g}\t".encode() in chunks[1]


class TestMetricReport:
    def test_report_fields(self, rng):
        gt = (rng.random((8, 8, 8)) < 0.2).astype(np.float32)
        pred = gt.copy()
        report = metric_report(_vol(pred), _vol(gt))
        assert report.dice_pixel == 1.0
        assert report.dice_lesion == 1.0
        assert report.avd_percent == 0.0
        assert report.auc_pr is None
        assert "auc_pr" not in report.to_dict()

    def test_report_with_posterior(self, rng):
        gt = np.zeros((6, 6, 6), dtype=np.float32)
        gt[2:4, 2:4, 2:4] = 1.0
        post = Volume3D(gt * 0.9 + 0.05)
        report = metric_report(_vol(gt), _vol(gt), pr_curve_auc(post, _vol(gt), _ones((6, 6, 6))))
        assert report.auc_pr == pytest.approx(1.0)
        assert report.to_dict()["auc_pr"] == pytest.approx(1.0)

    def test_report_keeps_its_pr_curve(self, rng):
        gt = (rng.random((6, 6, 6)) < 0.3).astype(np.float32)
        post = Volume3D(rng.random((6, 6, 6)).astype(np.float32))
        curve = pr_curve_auc(post, _vol(gt), _ones((6, 6, 6)))
        report = metric_report(_vol(gt), _vol(gt), curve)
        assert report.pr_curve.auc == report.auc_pr == curve.auc
        assert np.array_equal(report.pr_curve.thresholds, curve.thresholds)
        assert "pr_curve" not in report.to_dict()
        assert metric_report(_vol(gt), _vol(gt)).pr_curve is None

    def test_counts_consistent(self, rng):
        pred = (rng.random((8, 8, 8)) < 0.25).astype(np.float32)
        gt = (rng.random((8, 8, 8)) < 0.25).astype(np.float32)
        if gt.sum() == 0:
            gt[0, 0, 0] = 1.0
        report = metric_report(_vol(pred), _vol(gt))
        c = report.counts
        assert c["tp_voxels"] + c["fp_voxels"] == int(pred.sum())
        assert c["tp_voxels"] + c["fn_voxels"] == int(gt.sum())

    @pytest.mark.parametrize("spacings", [((1.0, 1.0, 1.0),) * 2, ((1.2, 1.0, 1.25), (0.9, 2.0, 1.0))])
    def test_dice_and_volumes_match_the_standalone_metrics(self, rng, spacings):
        # the report takes them from its voxel counts, with each mask's own
        # voxel volume: the same bits as dice_pixel and wmh_volume_ml
        pred = (rng.random((9, 8, 7)) < 0.3).astype(np.float32)
        gt = (rng.random((9, 8, 7)) < 0.2).astype(np.float32)
        p, g = (Volume3D(a, s) for a, s in zip((pred, gt), spacings))
        report = metric_report(p, g)
        assert report.dice_pixel == dice_pixel(p, g)
        assert report.avd_percent == abs_volume_diff_pct(wmh_volume_ml(p), wmh_volume_ml(g))
        with pytest.raises(NonBinaryInput):
            metric_report(Volume3D(pred * 0.5), g)
        with pytest.raises(ShapeMismatch):
            metric_report(p, Volume3D(gt[:-1]))
