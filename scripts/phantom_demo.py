#!/usr/bin/env python3
"""End-to-end demo on a synthetic phantom: generate, segment, evaluate.

Builds a phantom volume with known lesions, runs the full ensemble pipeline
plus the histogram baseline on it, and prints the segmentation metrics for
both. With handcrafted threshold weights the ensemble reproduces the analytic
ground truth exactly: the script exits 1 unless the ensemble's pixel and
lesion Dice are 1.0 and its absolute volume difference is 0%.

Usage: python scripts/phantom_demo.py [--seed 0] [--size 64] [--workdir DIR]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from wmhkit.cli import main as wmhkit_main


def run(argv) -> int:
    code = wmhkit_main(argv)
    if code != 0:
        print(f"subcommand failed with exit code {code}: {argv}", file=sys.stderr)
        sys.exit(code)
    return code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--workdir", default=None, help="keep outputs here instead of a temp dir")
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="wmhkit_demo_"))
    phantom = workdir / "phantom"
    seg = workdir / "segmentation"
    shape = f"{args.size},{args.size},{args.size}"

    print(f"== phantom (seed {args.seed}, {shape}) -> {phantom}")
    run(["phantom", "--out-dir", str(phantom), "--seed", str(args.seed), "--shape", shape])

    print(f"\n== ensemble segmentation -> {seg}")
    run(
        [
            "segment",
            "--flair", str(phantom / "flair.nii.gz"),
            "--mask", str(phantom / "brain_mask.nii.gz"),
            "--weights", str(phantom / "weights.sgwt"),
            "--out-dir", str(seg),
        ]
    )

    print("\n== ensemble vs analytic ground truth")
    run(
        [
            "evaluate",
            "--pred", str(seg / "flair.mask.nii.gz"),
            "--gt", str(phantom / "gt.nii.gz"),
            "--posterior", str(seg / "flair.posterior.nii.gz"),
            "--mask", str(phantom / "brain_mask.nii.gz"),
            "--out-report", str(workdir / "ensemble_metrics.json"),
        ]
    )

    print("\n== histogram baseline for comparison")
    run(
        [
            "baseline",
            "--flair", str(phantom / "flair.nii.gz"),
            "--mask", str(phantom / "brain_mask.nii.gz"),
            "--out-dir", str(seg),
        ]
    )
    run(
        [
            "evaluate",
            "--pred", str(seg / "flair.baseline_mask.nii.gz"),
            "--gt", str(phantom / "gt.nii.gz"),
            "--out-report", str(workdir / "baseline_metrics.json"),
        ]
    )

    ensemble = json.loads((workdir / "ensemble_metrics.json").read_text())
    baseline = json.loads((workdir / "baseline_metrics.json").read_text())
    print("\n== summary")
    for name, report in (("ensemble", ensemble), ("baseline", baseline)):
        print(
            f"{name:9s} dice_pixel={report['dice_pixel']:.4f} "
            f"dice_lesion={report['dice_lesion']:.4f} avd={report['avd_percent']:.2f}%"
        )
    print(f"\noutputs kept in {workdir}")
    exact = {"dice_pixel": 1.0, "dice_lesion": 1.0, "avd_percent": 0.0}
    missed = {k: ensemble[k] for k, v in exact.items() if ensemble[k] != v}
    if missed:
        print(f"ensemble does not reproduce the ground truth exactly: {missed}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
