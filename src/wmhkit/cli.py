"""Command-line front end: segment, baseline, evaluate, agree, ttest,
regress, cohort-summary, phantom.

Every subcommand emits JSON reports that embed a run manifest (tool version,
resolved parameters, input digests, per-stage timings). Exit codes: 0
success, 1 computation degeneracy, 2 input/IO error, 3 format or shape error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .cohort import parse_cohort_csv, parse_numeric_columns, summarize, summary_table
from .ensemble import EnsembleSpec, binarize, predict_ensemble, wmh_volume_ml
from .errors import ContractError, DegenerateError, FormatError
from .histo import HistParams, histogram_segment, modal_threshold
from .lesions import count_components, label_components  # noqa: F401  (perfbench/tracing.py wraps label_components here)
from .metrics import metric_report, write_pr_curve_tsv
from .nifti import parse_nifti, write_nifti, write_nifti_mask
from .phantom import make_phantom
from .stats import (
    DEFAULT_COVARIATES,
    bland_altman,
    bland_altman_points,
    build_design_matrix,
    ols_regress,
    paired_ttest,
)
from .tsv import write_tsv
from .volume import normalize_intensity
from .weights_io import ENSEMBLE_ROLES, load_ensemble, load_network, save_ensemble

WEIGHTS_DIR_ENV = "WMHKIT_WEIGHTS_DIR"
DEFAULT_WEIGHTS_NAME = "weights.sgwt"


class StageTimer:
    def __init__(self):
        self.timings_ms: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings_ms[name] = round((time.perf_counter() - t0) * 1000.0, 3)


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _manifest(subcommand: str, parameters: dict, digests: dict, timer: StageTimer) -> dict:
    return {
        "tool": "wmhkit",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "input_digests": digests,
        "timings_ms": timer.timings_ms,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_path:
        Path(out_path).write_text(text + "\n")


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _stem(path: str) -> str:
    name = Path(path).name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return Path(path).stem


# ---------------------------------------------------------------------------
# segment


def _resolve_weights(arg: str | None) -> str:
    if arg:
        return arg
    env_dir = os.environ.get(WEIGHTS_DIR_ENV)
    if env_dir:
        return str(Path(env_dir) / DEFAULT_WEIGHTS_NAME)
    raise FileNotFoundError(
        f"no --weights given and {WEIGHTS_DIR_ENV} is unset"
    )


def _segment_one(
    flair_path: str, mask_path: str, spec: EnsembleSpec, args, out_dir: Path, extra_digests: dict
) -> dict:
    timer = StageTimer()
    digests = dict(extra_digests)
    with timer.stage("parse"):
        flair_raw = _read(flair_path)
        mask_raw = _read(mask_path)
        digests[flair_path] = _digest(flair_raw)
        digests[mask_path] = _digest(mask_raw)
        flair = parse_nifti(flair_raw)
        mask = parse_nifti(mask_raw)
    with timer.stage("normalize"):
        normalized = normalize_intensity(flair, mask)
    with timer.stage("inference"):
        posterior = predict_ensemble(spec, normalized, mask)
    with timer.stage("postprocess"):
        lesion_mask = binarize(posterior, spec.threshold)
        volume_ml = wmh_volume_ml(lesion_mask)
        lesion_count = count_components(lesion_mask)
    stem = _stem(flair_path)
    with timer.stage("write"):
        (out_dir / f"{stem}.posterior.nii.gz").write_bytes(write_nifti(posterior, compress=True))
        (out_dir / f"{stem}.mask.nii.gz").write_bytes(write_nifti_mask(lesion_mask, compress=True))
    params = {
        "flair": flair_path,
        "mask": mask_path,
        "weights": args.weights,
        "threshold": args.threshold,
        "tile": args.tile,
    }
    report = {
        "manifest": _manifest("segment", params, digests, timer),
        "wmh_ml": volume_ml,
        "lesion_count": lesion_count,
        "threshold": args.threshold,
        "outputs": {
            "posterior": str(out_dir / f"{stem}.posterior.nii.gz"),
            "mask": str(out_dir / f"{stem}.mask.nii.gz"),
        },
    }
    report_path = out_dir / f"{stem}.report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _load_networks(weights_path: str) -> dict:
    """Role -> network map from one bundle or a directory of <role>.sgwt files."""
    path = Path(weights_path)
    if path.is_dir():
        nets = {}
        for role in ENSEMBLE_ROLES:
            candidate = path / f"{role}.sgwt"
            if not candidate.exists():
                raise FileNotFoundError(f"weights directory lacks {candidate.name}")
            nets[role] = load_network(candidate.read_bytes())
        return nets
    nets = load_ensemble(path.read_bytes())
    for role in ENSEMBLE_ROLES:
        if role not in nets:
            raise FormatError(f"weights container is missing the {role!r} network")
    return nets


def _input_error(message: str) -> int:
    print(f"error [input]: {message}", file=sys.stderr)
    return 2


def cmd_segment(args) -> int:
    if args.jobs < 1:
        return _input_error(f"--jobs must be at least 1, got {args.jobs}")
    weights_path = _resolve_weights(args.weights)
    args.weights = weights_path
    nets = _load_networks(weights_path)
    try:
        spec = EnsembleSpec(
            axial_net=nets["axial"],
            sagittal_net=nets["sagittal"],
            coronal_net=nets["coronal"],
            meta_net=nets["meta"],
            threshold=args.threshold,
            tile=(args.tile,) * 3,
        )
    except ValueError as exc:
        return _input_error(str(exc))
    weights_digests = (
        {weights_path: _digest(Path(weights_path).read_bytes())}
        if Path(weights_path).is_file()
        else {}
    )
    out_dir = Path(args.out_dir)

    flair_path = Path(args.flair)
    if flair_path.is_dir():
        mask_dir = Path(args.mask)
        if not mask_dir.is_dir():
            raise NotADirectoryError(f"--flair is a directory, so --mask must be one: {args.mask}")
        flairs = sorted(p for p in flair_path.iterdir() if p.name.endswith((".nii", ".nii.gz")))
        if not flairs:
            raise FileNotFoundError(f"no NIfTI volumes found in {flair_path}")
        # outputs and the mask are found by stem, so two volumes with one stem
        # would share a mask and overwrite each other's outputs
        by_stem: dict[str, Path] = {}
        for f in flairs:
            stem = _stem(str(f))
            if stem in by_stem:
                return _input_error(f"{by_stem[stem]} and {f} share the subject stem {stem!r}")
            by_stem[stem] = f
        pairs = []
        for stem, f in by_stem.items():
            candidates = [mask_dir / f"{stem}.nii.gz", mask_dir / f"{stem}.nii"]
            match = next((c for c in candidates if c.exists()), None)
            if match is None:
                raise FileNotFoundError(f"no mask for {f.name} in {mask_dir}")
            pairs.append((str(f), str(match)))
        out_dir.mkdir(parents=True, exist_ok=True)
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [
                pool.submit(_segment_one, f, m, spec, args, out_dir, weights_digests)
                for f, m in pairs
            ]
            reports = [fut.result() for fut in futures]
        print(json.dumps({"subjects": len(reports), "out_dir": str(out_dir)}, indent=2))
        return 0

    out_dir.mkdir(parents=True, exist_ok=True)
    report = _segment_one(args.flair, args.mask, spec, args, out_dir, weights_digests)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# baseline


def cmd_baseline(args) -> int:
    timer = StageTimer()
    with timer.stage("parse"):
        flair_raw = _read(args.flair)
        mask_raw = _read(args.mask)
        flair = parse_nifti(flair_raw)
        mask = parse_nifti(mask_raw)
    params = HistParams(alpha=args.alpha, bins=args.bins)
    with timer.stage("segment"):
        cutoff = modal_threshold(flair, mask, params)
        lesion_mask = histogram_segment(flair, mask, params)
        volume_ml = wmh_volume_ml(lesion_mask)
        lesion_count = count_components(lesion_mask)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _stem(args.flair)
    with timer.stage("write"):
        mask_path = out_dir / f"{stem}.baseline_mask.nii.gz"
        mask_path.write_bytes(write_nifti_mask(lesion_mask, compress=True))
    report = {
        "manifest": _manifest(
            "baseline",
            {"flair": args.flair, "mask": args.mask, "alpha": args.alpha, "bins": args.bins},
            {args.flair: _digest(flair_raw), args.mask: _digest(mask_raw)},
            timer,
        ),
        "wmh_ml": volume_ml,
        "lesion_count": lesion_count,
        "intensity_cutoff": cutoff,
        "outputs": {"mask": str(mask_path)},
    }
    _emit(report, str(out_dir / f"{stem}.baseline_report.json"))
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    if args.posterior and not args.mask:
        raise ContractError("--posterior needs --mask for in-mask PR evaluation")
    if args.out_pr_tsv and not args.posterior:
        raise ContractError("--out-pr-tsv needs --posterior (and --mask): there is no PR curve without one")
    timer = StageTimer()
    digests = {}
    with timer.stage("parse"):
        pred_raw = _read(args.pred)
        gt_raw = _read(args.gt)
        digests[args.pred] = _digest(pred_raw)
        digests[args.gt] = _digest(gt_raw)
        pred = parse_nifti(pred_raw)
        gt = parse_nifti(gt_raw)
        posterior = mask = None
        if args.posterior:
            post_raw = _read(args.posterior)
            mask_raw = _read(args.mask)
            digests[args.posterior] = _digest(post_raw)
            digests[args.mask] = _digest(mask_raw)
            posterior = parse_nifti(post_raw)
            mask = parse_nifti(mask_raw)
    with timer.stage("metrics"):
        report_obj = metric_report(pred, gt, posterior, mask, connectivity=args.connectivity)
    if args.out_pr_tsv:
        with timer.stage("write"):
            write_pr_curve_tsv(report_obj.pr_curve, args.out_pr_tsv)
    params = {
        "pred": args.pred,
        "gt": args.gt,
        "posterior": args.posterior,
        "mask": args.mask,
        "connectivity": args.connectivity,
    }
    report = {"manifest": _manifest("evaluate", params, digests, timer)}
    report.update(report_obj.to_dict())
    _emit(report, args.out_report)
    return 0


# ---------------------------------------------------------------------------
# agreement / t-test / regression / summary


def cmd_agree(args) -> int:
    timer = StageTimer()
    raw = _read(args.csv)
    with timer.stage("analyze"):
        rows = parse_numeric_columns(raw, [args.col_a, args.col_b])
        a = [r[0] for r in rows]
        b = [r[1] for r in rows]
        result = bland_altman(a, b)
        points = bland_altman_points(a, b)
    if args.out_tsv:
        write_tsv(args.out_tsv, ("mean", "difference"), tuple(zip(*points)))
    report = {
        "manifest": _manifest(
            "agree",
            {"csv": args.csv, "col_a": args.col_a, "col_b": args.col_b},
            {args.csv: _digest(raw)},
            timer,
        ),
        **result.to_dict(),
    }
    _emit(report, args.out_json)
    return 0


def cmd_ttest(args) -> int:
    timer = StageTimer()
    raw = _read(args.csv)
    with timer.stage("analyze"):
        rows = parse_numeric_columns(raw, [args.col_a, args.col_b])
        result = paired_ttest([r[0] for r in rows], [r[1] for r in rows])
    report = {
        "manifest": _manifest(
            "ttest",
            {"csv": args.csv, "col_a": args.col_a, "col_b": args.col_b},
            {args.csv: _digest(raw)},
            timer,
        ),
        "n": len(rows),
        **result.to_dict(),
    }
    _emit(report, args.out_json)
    return 0


def cmd_regress(args) -> int:
    timer = StageTimer()
    raw = _read(args.csv)
    covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
    with timer.stage("analyze"):
        records = parse_cohort_csv(raw)
        if args.log10:
            from .cohort import resolve_field

            attr = resolve_field(args.exposure)
            for rec in records:
                value = getattr(rec, attr)
                setattr(rec, attr, math.log10(value) if value is not None and value > 0 else None)
        dm = build_design_matrix(records, args.outcome, args.exposure, covariates)
        result = ols_regress(dm.X, dm.y, names=dm.names, n_dropped=dm.n_dropped)
    report = {
        "manifest": _manifest(
            "regress",
            {
                "csv": args.csv,
                "outcome": args.outcome,
                "exposure": args.exposure,
                "covariates": list(covariates),
                "log10": args.log10,
            },
            {args.csv: _digest(raw)},
            timer,
        ),
        **result.to_dict(),
    }
    _emit(report, args.out_json)
    return 0


def cmd_cohort_summary(args) -> int:
    timer = StageTimer()
    raw = _read(args.csv)
    with timer.stage("analyze"):
        records = parse_cohort_csv(raw)
        summary = summarize(records)
    print(summary_table(summary), end="")
    report = {
        "manifest": _manifest("cohort-summary", {"csv": args.csv}, {args.csv: _digest(raw)}, timer),
        **summary.to_dict(),
    }
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# phantom


def cmd_phantom(args) -> int:
    timer = StageTimer()
    shape = tuple(int(s) for s in args.shape.split(","))
    if len(shape) != 3:
        raise ContractError(f"--shape must be three comma-separated sizes, got {args.shape}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with timer.stage("generate"):
        phantom = make_phantom(seed=args.seed, shape=shape)
    with timer.stage("write"):
        (out_dir / "flair.nii.gz").write_bytes(write_nifti(phantom.flair, compress=True))
        (out_dir / "brain_mask.nii.gz").write_bytes(write_nifti_mask(phantom.brain_mask, compress=True))
        (out_dir / "gt.nii.gz").write_bytes(write_nifti_mask(phantom.gt_mask, compress=True))
        (out_dir / DEFAULT_WEIGHTS_NAME).write_bytes(save_ensemble(phantom.networks))
        # deterministic metadata only: no timings, no absolute paths
        meta = {
            "seed": args.seed,
            "shape": list(shape),
            "z_cutoff": phantom.z_cutoff,
            "gt_voxels": int(np.count_nonzero(phantom.gt_mask.data)),
        }
        (out_dir / "phantom.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    report = {
        "manifest": _manifest("phantom", {"out_dir": args.out_dir, "seed": args.seed, "shape": list(shape)}, {}, timer),
        "outputs": {
            "flair": str(out_dir / "flair.nii.gz"),
            "brain_mask": str(out_dir / "brain_mask.nii.gz"),
            "gt": str(out_dir / "gt.nii.gz"),
            "weights": str(out_dir / DEFAULT_WEIGHTS_NAME),
        },
        "z_cutoff": phantom.z_cutoff,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser & dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmhkit",
        description="WMH segmentation, quantification, and agreement statistics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("segment", help="ensemble WMH segmentation of a FLAIR volume")
    p.add_argument("--flair", required=True, help="FLAIR NIfTI file (or directory for batch mode)")
    p.add_argument("--mask", required=True, help="brain mask NIfTI file (or directory)")
    p.add_argument("--weights", default=None, help=f"SGWT bundle; defaults to ${WEIGHTS_DIR_ENV}/{DEFAULT_WEIGHTS_NAME}")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--tile", type=int, default=64, help="largest input tile edge of a net, halo included")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--jobs", type=int, default=1, help="parallel subjects in batch mode")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("baseline", help="histogram-threshold comparator segmentation")
    p.add_argument("--flair", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="segmentation metrics against a reference mask")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--posterior", default=None, help="posterior map for PR metrics")
    p.add_argument("--mask", default=None, help="brain mask (required with --posterior)")
    p.add_argument("--connectivity", type=int, default=26, choices=(6, 18, 26))
    p.add_argument("--out-report", default=None)
    p.add_argument("--out-pr-tsv", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("agree", help="Bland-Altman agreement between two CSV columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--col-a", required=True)
    p.add_argument("--col-b", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-tsv", default=None, help="per-pair (mean, difference) points")
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("ttest", help="two-sided paired t-test between two CSV columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--col-a", required=True)
    p.add_argument("--col-b", required=True)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=cmd_ttest)

    p = sub.add_parser("regress", help="covariate-adjusted linear regression on a cohort CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--exposure", required=True)
    p.add_argument("--covariates", default=",".join(DEFAULT_COVARIATES))
    p.add_argument("--log10", action="store_true", help="log10-transform the exposure")
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("cohort-summary", help="per-diagnosis demographic summary")
    p.add_argument("--csv", required=True)
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=cmd_cohort_summary)

    p = sub.add_parser("phantom", help="emit a synthetic phantom and matching weights")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape", default="64,64,64")
    p.set_defaults(func=cmd_phantom)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateError as exc:
        print(f"error [degenerate]: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, PermissionError) as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error [format]: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"error [shape]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
