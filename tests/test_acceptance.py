"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.stats

from oracles import (
    PLANE_AXES,
    all_signed_orientations,
    flood_fill_label,
    naive_conv3d,
    pr_enumeration,
    remap_plane,
    remap_to_ras,
    t_two_sided_p_series,
)
from wmhkit.cli import main
from wmhkit.cohort import synthetic_cohort
from wmhkit.ensemble import binarize, wmh_volume_ml
from wmhkit.errors import FormatError
from wmhkit.histo import HistParams, histogram_segment
from wmhkit.layers import Conv3D, apply_layer
from wmhkit.metrics import metric_report, pr_curve_auc
from wmhkit.nifti import DATA_OFFSET, parse_nifti, write_nifti
from wmhkit.reformat import PlaneOrientation, to_canonical
from wmhkit.reformat import PLANE_AXES as FRAME_AXES
from wmhkit.stats import (
    DEFAULT_COVARIATES,
    bland_altman,
    build_design_matrix,
    ols_regress,
    paired_ttest,
    t_two_sided_p,
)
from wmhkit.volume import Volume3D


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS")


def test_criterion_1_convolution_oracle():
    with criterion(1, "convolution engine matches naive direct convolution"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for case in range(200):
            cin = int(rng.integers(1, 5))
            cout = int(rng.integers(1, 5))
            spatial = tuple(int(d) for d in rng.integers(1, 9, size=3))
            stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
            padding = tuple(int(p) for p in rng.integers(0, 2, size=3))
            kernel = tuple(
                int(rng.integers(1, min(3, n + 2 * p) + 1))
                for n, p in zip(spatial, padding)
            )
            if any((n + 2 * p - k) < 0 for n, k, p in zip(spatial, kernel, padding)):
                continue
            x = rng.normal(size=(cin, *spatial)).astype(np.float32)
            layer = Conv3D(
                weights=rng.normal(size=(cout, cin, *kernel)).astype(np.float32),
                bias=rng.normal(size=cout).astype(np.float32),
                stride=stride,
                padding=padding,
            )
            got = apply_layer(x, layer)
            want = naive_conv3d(x, layer.weights, layer.bias, stride, padding)
            denom = np.maximum(np.abs(want), 1e-3)
            rel = float(np.max(np.abs(got - want) / denom))
            assert rel < 1e-5, f"case {case}: rel err {rel}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_reformat_round_trips():
    with criterion(2, "reformat and reorientation agree with index-remapping oracles"):
        rng = np.random.default_rng(202)
        planes = list(PlaneOrientation)
        for orientation in all_signed_orientations():
            shape = tuple(int(d) for d in rng.integers(2, (5, 6, 7), endpoint=True))
            data = rng.normal(size=shape).astype(np.float32)
            v = Volume3D(data, orientation=orientation)
            canonical = to_canonical(v)
            assert np.array_equal(canonical.data, remap_to_ras(data, orientation))
            assert np.array_equal(to_canonical(canonical).data, canonical.data)
            for plane in planes:
                # the plane frame the ensemble reads, and writes its posterior through
                frame = canonical.data.transpose(FRAME_AXES[plane])
                assert np.array_equal(frame, remap_plane(canonical.data, PLANE_AXES[plane.value]))
                back = np.empty_like(canonical.data)
                back.transpose(FRAME_AXES[plane])[...] = frame
                assert np.array_equal(back, canonical.data)


def test_criterion_3_end_to_end_phantom(tmp_path, capsys):
    with criterion(3, "phantom pipeline reproduces the analytic mask exactly"):
        t0 = time.perf_counter()
        phantom_dir = tmp_path / "phantom"
        seg_dir = tmp_path / "seg"
        assert main(["phantom", "--out-dir", str(phantom_dir), "--seed", "0"]) == 0
        assert (
            main(
                [
                    "segment",
                    "--flair", str(phantom_dir / "flair.nii.gz"),
                    "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                    "--weights", str(phantom_dir / "weights.sgwt"),
                    "--out-dir", str(seg_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        pred = parse_nifti((seg_dir / "flair.mask.nii.gz").read_bytes())
        post = parse_nifti((seg_dir / "flair.posterior.nii.gz").read_bytes())
        gt = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        mask = parse_nifti((phantom_dir / "brain_mask.nii.gz").read_bytes())
        assert pred.dims == (64, 64, 64)
        assert np.array_equal(pred.data, gt.data)
        report = metric_report(pred, gt, pr_curve_auc(post, gt, mask))
        assert report.dice_pixel == 1.0
        assert report.dice_lesion == 1.0
        assert report.avd_percent == 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_metric_oracles():
    with criterion(4, "metrics match brute-force enumeration"):
        rng = np.random.default_rng(404)
        for case in range(100):
            shape = (16, 16, 16)
            pred_arr = (rng.random(shape) < 0.2).astype(np.float32)
            gt_arr = (rng.random(shape) < 0.2).astype(np.float32)
            if gt_arr.sum() == 0:
                gt_arr[0, 0, 0] = 1.0
            posterior = (rng.integers(0, 17, size=shape) / 16.0).astype(np.float32)
            pred = Volume3D(pred_arr)
            gt = Volume3D(gt_arr)
            ones = Volume3D(np.ones(shape, dtype=np.float32))

            report = metric_report(pred, gt, pr_curve_auc(Volume3D(posterior), gt, ones))

            # voxel-level brute force
            tp = fp = fn = 0
            for p, g in zip(pred_arr.ravel(), gt_arr.ravel()):
                tp += p == 1 and g == 1
                fp += p == 1 and g == 0
                fn += p == 0 and g == 1
            want_dice = 1.0 if (2 * tp + fp + fn) == 0 else 2 * tp / (2 * tp + fp + fn)
            assert report.counts["tp_voxels"] == tp
            assert report.counts["fp_voxels"] == fp
            assert report.counts["fn_voxels"] == fn
            assert report.dice_pixel == want_dice

            # lesion-level counts against flood-fill oracle + counting rule
            pred_lab = flood_fill_label(pred_arr > 0, 26)
            gt_lab = flood_fill_label(gt_arr > 0, 26)
            gt_ids = set(np.unique(gt_lab[gt_lab > 0]).tolist())
            pred_ids = set(np.unique(pred_lab[pred_lab > 0]).tolist())
            detected = {int(g) for g in gt_ids if np.any((gt_lab == g) & (pred_arr > 0))}
            tp_l = len(detected)
            fn_l = len(gt_ids) - tp_l
            fp_l = len([p for p in pred_ids if not np.any((pred_lab == p) & (gt_arr > 0))])
            assert report.counts["tp_lesions"] == tp_l
            assert report.counts["fn_lesions"] == fn_l
            assert report.counts["fp_lesions"] == fp_l
            want_lesion_dice = (
                1.0 if (tp_l + fp_l + fn_l) == 0 else 2 * tp_l / (2 * tp_l + fp_l + fn_l)
            )
            assert report.dice_lesion == want_lesion_dice

            # AVD: definitional formula applied to brute-force voxel counts
            pred_ml = (tp + fp) * 1.0 / 1000.0
            gt_ml = (tp + fn) * 1.0 / 1000.0
            assert report.avd_percent == 100.0 * abs(pred_ml - gt_ml) / gt_ml

            # PR-AUC against exhaustive threshold enumeration
            _, want_auc = pr_enumeration(
                posterior.ravel().astype(np.float64), gt_arr.ravel() > 0
            )
            assert abs(report.auc_pr - want_auc) < 1e-9


def test_criterion_5_statistics_cross_checks():
    with criterion(5, "statistics reproduce extended-precision and series oracles"):
        from oracles import ols_normal_equations

        rng = np.random.default_rng(505)
        for seed in range(20):
            case_rng = np.random.default_rng(1000 + seed)
            n = int(case_rng.integers(30, 120))
            k = int(case_rng.integers(3, 7))
            X = np.column_stack([np.ones(n), case_rng.normal(size=(n, k - 1))])
            y = X @ case_rng.normal(size=k) + case_rng.normal(0, 0.8, size=n)
            mine = ols_regress(X, y)
            beta_o, se_o, t_o, p_o, r2_o = ols_normal_equations(X, y)
            assert np.all(
                np.abs(mine.estimates - beta_o) <= 1e-8 * np.maximum(np.abs(beta_o), 1e-12)
            )
            assert np.all(np.abs(mine.p_values - p_o) < 1e-6)
            assert abs(mine.r_squared - r2_o) < 1e-9

            a = case_rng.normal(25.0, 6.0, size=max(3, n // 4))
            b = a + case_rng.normal(0.8, 1.7, size=a.size)
            ba = bland_altman(a, b)
            d = (b - a).astype(np.longdouble)
            bias_o = float(d.mean())
            sd_o = float(np.sqrt(((d - d.mean()) ** 2).sum() / (d.size - 1)))
            gm_o = float(((a.astype(np.longdouble) + b) / 2.0).mean())
            assert abs(ba.bias - bias_o) < 1e-10
            assert abs(ba.sd_diff - sd_o) < 1e-10
            assert abs(ba.cv_percent - 100.0 * sd_o / gm_o) < 1e-8
            assert abs(ba.rpc_percent - 1.96 * 100.0 * sd_o / gm_o) < 1e-8

            tt = paired_ttest(a, b)
            dd = (a - b).astype(np.longdouble)
            sd_d = float(np.sqrt(((dd - dd.mean()) ** 2).sum() / (dd.size - 1)))
            t_oracle = float(dd.mean()) / (sd_d / math.sqrt(dd.size))
            assert abs(tt.t - t_oracle) < 1e-9
            assert abs(tt.p - t_two_sided_p_series(t_oracle, dd.size - 1)) < 1e-6

        # two-sided t tail probability against Monte Carlo at the probe degrees of freedom
        for df in (2, 10, 100):
            samples = np.abs(np.random.default_rng(7000 + df).standard_t(df, size=10**6))
            for t in (-2.0, -0.5, 0.5, 2.0):
                emp = float((samples >= abs(t)).mean())
                se = math.sqrt(emp * (1.0 - emp) / samples.size)
                assert abs(t_two_sided_p(t, df) - emp) < 3.0 * se


def test_criterion_6_synthetic_cohort_association():
    with criterion(6, "covariate-adjusted association recovers the planted effect"):
        records = synthetic_cohort(seed=42, target_exposure_t=3.0)
        assert len(records) == 290
        for outcome in ("adni_ef", "adni_mem", "adni_lan"):
            dm = build_design_matrix(records, outcome, "wmh_stackgen", DEFAULT_COVARIATES)
            assert dm.X.shape == (290, 9)
            result = ols_regress(dm.X, dm.y, dm.names, dm.n_dropped)
            c = result.coefficient("wmh_stackgen")
            assert c["estimate"] < 0, outcome
            assert c["p"] < 0.05, outcome

        # zero-effect cohorts: exposure p-values are uniform over seeds
        pvals = {"adni_ef": [], "adni_mem": [], "adni_lan": []}
        for seed in range(200):
            null = synthetic_cohort(
                n_per_group=(40, 15, 5),
                f_per_group=(20, 8, 2),
                seed=10_000 + seed,
                wmh_effect=0.0,
            )
            for outcome in pvals:
                dm = build_design_matrix(null, outcome, "wmh_stackgen", DEFAULT_COVARIATES)
                result = ols_regress(dm.X, dm.y, dm.names)
                pvals[outcome].append(result.coefficient("wmh_stackgen")["p"])
        for outcome, ps in pvals.items():
            ks = scipy.stats.kstest(ps, "uniform")
            assert ks.pvalue > 0.01, f"{outcome}: KS p={ks.pvalue}"


def test_criterion_7_monotonicity():
    with criterion(7, "baseline and threshold sweeps are monotone"):
        rng = np.random.default_rng(707)
        background = rng.normal(100.0, 10.0, size=(18, 18, 18))
        background = np.clip(background, 85.0, 115.0)
        background[2:5, 2:5, 2:5] = rng.uniform(170.0, 190.0, (3, 3, 3))
        flair = Volume3D(background.astype(np.float32))
        mask = Volume3D(np.ones((18, 18, 18), dtype=np.float32))
        previous = None
        for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 10.0):
            current = histogram_segment(flair, mask, HistParams(alpha=alpha))[0].data > 0
            if previous is not None:
                assert np.all(current <= previous), f"baseline mask grew at alpha={alpha}"
            previous = current

        posterior = Volume3D(rng.random((20, 20, 20)).astype(np.float32))
        volumes = [
            wmh_volume_ml(binarize(posterior, float(t))) for t in np.linspace(0.02, 0.98, 33)
        ]
        assert all(a >= b for a, b in zip(volumes, volumes[1:]))


def test_criterion_8_nifti_conformance():
    with criterion(8, "NIfTI round-trips and categorized fuzzing"):
        rng = np.random.default_rng(808)
        v = Volume3D(
            rng.normal(size=(5, 6, 7)).astype(np.float32),
            spacing=(0.9, 1.1, 1.3),
            orientation=("L", "S", "A"),
        )
        plain = parse_nifti(write_nifti(v))
        assert np.array_equal(plain.data, v.data)
        assert plain.orientation == v.orientation
        assert np.allclose(plain.spacing, v.spacing, atol=1e-5)
        zipped = parse_nifti(write_nifti(v, compress=True))
        assert np.array_equal(zipped.data, v.data)

        base = write_nifti(v)
        outcomes = {"ok": 0, "error": 0}
        for case in range(500):
            raw = bytearray(base)
            for _ in range(int(rng.integers(1, 10))):
                raw[int(rng.integers(0, DATA_OFFSET))] = int(rng.integers(0, 256))
            if rng.random() < 0.3:
                raw = raw[: int(rng.integers(0, len(raw)))]
            try:
                parse_nifti(bytes(raw))
                outcomes["ok"] += 1
            except FormatError:
                outcomes["error"] += 1
            # any other exception type propagates and fails the criterion
        assert outcomes["ok"] + outcomes["error"] == 500
        assert outcomes["error"] > 0
