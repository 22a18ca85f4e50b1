"""Command-line front end: segment, baseline, evaluate, agree, ttest,
regress, cohort-summary, phantom.

Every subcommand prints one JSON report: a run manifest (tool version,
resolved parameters, input digests, per-stage timings) plus its payload.
Exit codes (``FAILURES``): 0 success, 1 computation degeneracy, 2 input/IO
error, 3 format or shape error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .cohort import parse_cohort_csv, parse_numeric_columns, summarize
from .ensemble import DEFAULT_THRESHOLD, DEFAULT_TILE, EnsembleSpec, binarize, predict_ensemble, wmh_volume_ml
from .errors import ContractError, DegenerateError, FormatError, InputError
from .histo import HistParams, histogram_segment
from .layers import POOL, one_blas_thread
from .lesions import count_components, label_components  # noqa: F401  (perfbench/tracing.py wraps label_components here)
from .metrics import metric_report, pr_curve_auc, write_pr_curve_tsv
from .nifti import parse_mask, parse_nifti, write_nifti, write_nifti_mask
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
from .volume import Volume3D, normalize_intensity, require_same_grid
from .weights_io import ENSEMBLE_ROLES, load_ensemble, load_network, save_ensemble

WEIGHTS_DIR_ENV = "WMHKIT_WEIGHTS_DIR"
DEFAULT_WEIGHTS_NAME = "weights.sgwt"

# Exception family -> error category and exit code; the first match wins.
FAILURES = (
    (DegenerateError, "degenerate", 1),
    (InputError, "input", 2),
    (FormatError, "format", 3),
    (ContractError, "shape", 3),
    (OSError, "io", 2),
)
FAILURE_TYPES = tuple(family for family, _, _ in FAILURES)


def _failure(exc: Exception) -> tuple[str, int]:
    return next((category, code) for family, category, code in FAILURES if isinstance(exc, family))


class Run:
    """One run of a subcommand: the parameters, input digests and stage
    timings of its manifest, and its exit code.

    ``parameters`` is the argparse namespace as the command leaves it, so a
    command records what it resolved (the weights path, the shape triple) by
    assigning it there. A stage's time excludes the stages nested in it on
    its own thread; stages on two threads may overlap."""

    def __init__(self, args: argparse.Namespace, input_digests: dict | None = None):
        self.args = args
        self.input_digests = dict(input_digests or {})
        self.exit_code = 0
        self._seconds: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()  # .nested: time of the stages nested in this thread's open one

    @contextmanager
    def stage(self, name: str):
        local = self._local
        t0, outer = time.perf_counter(), getattr(local, "nested", 0.0)
        local.nested = 0.0
        yield
        spent = time.perf_counter() - t0
        with self._lock:
            self._seconds[name] = self._seconds.get(name, 0.0) + spent - local.nested
        local.nested = outer + spent

    def read(self, path) -> bytes:
        raw = Path(path).read_bytes()
        with self.stage("digest"):
            self.input_digests[str(path)] = hashlib.sha256(raw).hexdigest()
        return raw

    def envelope(self, payload: dict) -> dict:
        parameters = {k: v for k, v in vars(self.args).items() if k not in ("func", "subcommand")}
        manifest = {
            "tool": "wmhkit",
            "version": __version__,
            "subcommand": self.args.subcommand,
            "parameters": parameters,
            "input_digests": self.input_digests,
            "timings_ms": {name: round(s * 1000.0, 3) for name, s in self._seconds.items()},
        }
        return {"manifest": manifest, **payload}


def _dump(report: dict, path=None) -> str:
    """The report as JSON text, also written to ``path`` when one is given."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    return text


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


def _load_networks(run: Run, weights_path: str) -> dict:
    """Role -> network map from one bundle or a directory of <role>.sgwt files."""
    path = Path(weights_path)
    if path.is_dir():
        nets = {}
        for role in ENSEMBLE_ROLES:
            candidate = path / f"{role}.sgwt"
            if not candidate.exists():
                raise FileNotFoundError(f"weights directory lacks {candidate.name}")
            nets[role] = load_network(run.read(candidate))
        return nets
    nets = load_ensemble(run.read(path))
    for role in ENSEMBLE_ROLES:
        if role not in nets:
            raise FormatError(f"weights container is missing the {role!r} network")
    return nets


def _posterior(run: Run, flair_path: str, mask_path: str, spec: EnsembleSpec) -> Volume3D:
    """One subject's ensemble posterior. The mask is decoded straight to
    bool, its one binariness check, and the parsed FLAIR's buffer is the one
    whole float32 volume: normalized in place, then overwritten by the
    posterior once every net has read it."""
    with run.stage("parse"):
        flair = parse_nifti(run.read(flair_path))
        mask = parse_mask(run.read(mask_path), "brain mask")
    with run.stage("normalize"):
        flair = normalize_intensity(flair, mask)
    with run.stage("inference"):
        return predict_ensemble(spec, flair, mask)


def _segment_one(run: Run, flair_path: str, mask_path: str, spec: EnsembleSpec, out_dir: Path) -> dict:
    posterior = _posterior(run, flair_path, mask_path, spec)
    with run.stage("postprocess"):
        lesion_mask = binarize(posterior, spec.threshold)
        volume_ml = wmh_volume_ml(lesion_mask)
        lesion_count = count_components(lesion_mask)
    stem = _stem(flair_path)
    outputs = {"posterior": str(out_dir / f"{stem}.posterior.nii.gz"), "mask": str(out_dir / f"{stem}.mask.nii.gz")}
    with run.stage("write"):
        Path(outputs["posterior"]).write_bytes(write_nifti(posterior, compress=True))
        Path(outputs["mask"]).write_bytes(write_nifti_mask(lesion_mask, compress=True))
    return {"wmh_ml": volume_ml, "lesion_count": lesion_count, "threshold": spec.threshold, "outputs": outputs}


def _batch_pairs(flair_dir: Path, mask_dir: Path) -> list[tuple[str, str]]:
    """(flair, mask) paths of each subject of a batch, in stem order."""
    if not mask_dir.is_dir():
        raise NotADirectoryError(f"--flair is a directory, so --mask must be one: {mask_dir}")
    flairs = sorted(p for p in flair_dir.iterdir() if p.name.endswith((".nii", ".nii.gz")))
    if not flairs:
        raise FileNotFoundError(f"no NIfTI volumes found in {flair_dir}")
    # outputs and the mask are found by stem, so two volumes with one stem
    # would share a mask and overwrite each other's outputs
    by_stem: dict[str, Path] = {}
    for f in flairs:
        stem = _stem(str(f))
        if stem in by_stem:
            raise InputError(f"{by_stem[stem]} and {f} share the subject stem {stem!r}")
        by_stem[stem] = f
    pairs = []
    for stem, f in sorted(by_stem.items()):
        candidates = [mask_dir / f"{stem}.nii.gz", mask_dir / f"{stem}.nii"]
        match = next((c for c in candidates if c.exists()), None)
        if match is None:
            raise FileNotFoundError(f"no mask for {f.name} in {mask_dir}")
        pairs.append((str(f), str(match)))
    return pairs


def _batch_subject(flair: str, mask: str, batch: Run, spec: EnsembleSpec, out_dir: Path) -> tuple[dict, int]:
    """Segment one subject of a batch and write its report. A failure that
    ``FAILURES`` maps becomes the subject's record and exit code, so the rest
    of the batch still runs."""
    run = Run(argparse.Namespace(**{**vars(batch.args), "flair": flair, "mask": mask}), batch.input_digests)
    try:
        payload = _segment_one(run, flair, mask, spec, out_dir)
        report = out_dir / f"{_stem(flair)}.report.json"
        _dump(run.envelope(payload), report)
    except FAILURE_TYPES as exc:
        category, code = _failure(exc)
        return {"flair": flair, "status": "error", "category": category, "message": str(exc)}, code
    return {"flair": flair, "status": "ok", "report": str(report),
            "wmh_ml": payload["wmh_ml"], "lesion_count": payload["lesion_count"]}, 0


def cmd_segment(run: Run, args):
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    args.weights = _resolve_weights(args.weights)
    nets = _load_networks(run, args.weights)
    spec = EnsembleSpec(
        axial_net=nets["axial"],
        sagittal_net=nets["sagittal"],
        coronal_net=nets["coronal"],
        meta_net=nets["meta"],
        threshold=args.threshold,
        tile=(args.tile,) * 3,
    )
    out_dir = Path(args.out_dir)
    if not Path(args.flair).is_dir():
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = _segment_one(run, args.flair, args.mask, spec, out_dir)
        return payload, out_dir / f"{_stem(args.flair)}.report.json"

    pairs = _batch_pairs(Path(args.flair), Path(args.mask))
    out_dir.mkdir(parents=True, exist_ok=True)
    with run.stage("subjects"), ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_batch_subject, f, m, run, spec, out_dir) for f, m in pairs]
        results = [fut.result() for fut in futures]
    for record, code in results:
        if code:
            print(f"error [{record['category']}]: {record['flair']}: {record['message']}", file=sys.stderr)
    run.exit_code = next((code for _, code in results if code), 0)
    return {"subjects": [record for record, _ in results], "failed": sum(1 for _, code in results if code)}, None


# ---------------------------------------------------------------------------
# baseline


def cmd_baseline(run: Run, args):
    with run.stage("parse"):
        flair = parse_nifti(run.read(args.flair))
        mask = parse_mask(run.read(args.mask), "brain mask")
    params = HistParams(alpha=args.alpha, bins=args.bins)
    with run.stage("segment"):
        lesion_mask, cutoff = histogram_segment(flair, mask, params)
        volume_ml = wmh_volume_ml(lesion_mask)
        lesion_count = count_components(lesion_mask)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _stem(args.flair)
    with run.stage("write"):
        mask_path = out_dir / f"{stem}.baseline_mask.nii.gz"
        mask_path.write_bytes(write_nifti_mask(lesion_mask, compress=True))
    payload = {
        "wmh_ml": volume_ml,
        "lesion_count": lesion_count,
        "intensity_cutoff": cutoff,
        "outputs": {"mask": str(mask_path)},
    }
    return payload, out_dir / f"{stem}.baseline_report.json"


# ---------------------------------------------------------------------------
# evaluate


def _write_stage(run: Run, curve, path) -> None:
    """The PR-TSV write as the ``write`` stage, timed on the thread that runs
    it. It runs on a ``POOL`` thread, which on one core is the pool's only
    one, so it must submit no pool work of its own."""
    with run.stage("write"):
        write_pr_curve_tsv(curve, path)


def cmd_evaluate(run: Run, args):
    """Every input check and the PR curve come first, so a bad input writes no
    TSV. The TSV is then written on a pool thread while this one labels and
    matches the lesions, so the report's ``write`` stage overlaps ``metrics``."""
    if args.posterior and not args.mask:
        raise ContractError("--posterior needs --mask for in-mask PR evaluation")
    if args.out_pr_tsv and not args.posterior:
        raise ContractError("--out-pr-tsv needs --posterior (and --mask): there is no PR curve without one")
    with run.stage("parse"):
        pred = parse_mask(run.read(args.pred), "pred mask")
        gt = parse_mask(run.read(args.gt), "gt mask")
        posterior = mask = None
        if args.posterior:
            posterior = parse_nifti(run.read(args.posterior))
            mask = parse_mask(run.read(args.mask), "brain mask")
    with run.stage("metrics"):
        # voxels are compared by index, so every input must lie on gt's grid
        require_same_grid(pred, gt, "masks")
        curve = None
        if posterior is not None:
            require_same_grid(posterior, gt, "posterior and gt")
            require_same_grid(mask, gt, "brain mask and gt")
            curve = pr_curve_auc(posterior, gt, mask)
            del posterior, mask
    writer = POOL.submit(_write_stage, run, curve, args.out_pr_tsv) if args.out_pr_tsv else None
    try:
        with run.stage("metrics"):
            report_obj = metric_report(pred, gt, curve, connectivity=args.connectivity)
    finally:
        if writer is not None:
            wait([writer])
    if writer is not None:
        writer.result()
    return report_obj.to_dict(), args.out_report


# ---------------------------------------------------------------------------
# agreement / t-test / regression / summary


def cmd_agree(run: Run, args):
    with run.stage("analyze"):
        rows = parse_numeric_columns(run.read(args.csv), [args.col_a, args.col_b])
        a = [r[0] for r in rows]
        b = [r[1] for r in rows]
        result = bland_altman(a, b)
        points = bland_altman_points(a, b)
    if args.out_tsv:
        write_tsv(args.out_tsv, ("mean", "difference"), tuple(zip(*points)))
    return result.to_dict(), args.out_json


def cmd_ttest(run: Run, args):
    with run.stage("analyze"):
        rows = parse_numeric_columns(run.read(args.csv), [args.col_a, args.col_b])
        result = paired_ttest([r[0] for r in rows], [r[1] for r in rows])
    return {"n": len(rows), **result.to_dict()}, args.out_json


def cmd_regress(run: Run, args):
    args.covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    with run.stage("analyze"):
        records = parse_cohort_csv(run.read(args.csv))
        if args.log10:
            from .cohort import resolve_field

            attr = resolve_field(args.exposure)
            for rec in records:
                value = getattr(rec, attr)
                setattr(rec, attr, math.log10(value) if value is not None and value > 0 else None)
        dm = build_design_matrix(records, args.outcome, args.exposure, args.covariates)
        result = ols_regress(dm.X, dm.y, names=dm.names, n_dropped=dm.n_dropped)
    return result.to_dict(), args.out_json


def cmd_cohort_summary(run: Run, args):
    with run.stage("analyze"):
        summary = summarize(parse_cohort_csv(run.read(args.csv)))
    return summary.to_dict(), args.out_json


# ---------------------------------------------------------------------------
# phantom


def _shape(text: str) -> tuple[int, int, int]:
    try:
        shape = tuple(int(s) for s in text.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 1:
        raise InputError(f"--shape must be three positive comma-separated sizes, got {text!r}")
    return shape


def cmd_phantom(run: Run, args):
    args.shape = shape = _shape(args.shape)
    with run.stage("generate"):
        phantom = make_phantom(seed=args.seed, shape=shape)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with run.stage("write"):
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
    payload = {
        "outputs": {
            "flair": str(out_dir / "flair.nii.gz"),
            "brain_mask": str(out_dir / "brain_mask.nii.gz"),
            "gt": str(out_dir / "gt.nii.gz"),
            "weights": str(out_dir / DEFAULT_WEIGHTS_NAME),
        },
        "z_cutoff": phantom.z_cutoff,
    }
    return payload, None


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
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--tile", type=int, default=DEFAULT_TILE[0], help="largest input tile edge of a net, halo included")
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
    """Run one subcommand. Each ``cmd_*`` returns its payload and the path its
    report is also written to (or None); only here is the payload wrapped in
    the envelope, written and printed."""
    args = build_parser().parse_args(argv)
    run = Run(args)
    try:
        with one_blas_thread():
            payload, report_path = args.func(run, args)
        text = _dump(run.envelope(payload), report_path)
    except FAILURE_TYPES as exc:
        category, code = _failure(exc)
        print(f"error [{category}]: {exc}", file=sys.stderr)
        return code
    print(text, end="")
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
