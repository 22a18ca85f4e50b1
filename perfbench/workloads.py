"""The three benchmark workloads: seeded inputs, the CLI call, output checks.

Each workload is a closed loop with one caller: the measuring process calls
``wmhkit.cli.main(argv)`` again as soon as the previous call returns and its
outputs are checked. ``generate`` writes every input (and what the outputs
must be) under a work directory and returns a JSON-able manifest; ``check``
returns one ``(subject, error or None)`` per subject of a call.

Input generation uses ``wmhkit.phantom``, ``wmhkit.volume`` and
``wmhkit.nifti`` outside the timed region. Expected outputs come from
construction or from ``reference``, never from the program under test.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage

import reference

BRAIN = (160, 192, 160)  # 1 mm brain-sized grid, ~4.9 M voxels
POSTERIOR_TOL = 1e-4  # |posterior - reference| allowed on unet_segment
AUC_TOL = 1e-9
THRESHOLD = 0.5  # the CLI default


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, str, Path], dict]
    check: Callable[[dict, str], list]


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _subject_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _write(path: Path, volume) -> str:
    from wmhkit.nifti import write_nifti

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(write_nifti(volume, compress=True))
    return str(path)


def _read_canonical(path: str) -> np.ndarray:
    from wmhkit.nifti import parse_nifti
    from wmhkit.reformat import to_canonical

    return to_canonical(parse_nifti(Path(path).read_bytes())).data


# ---------------------------------------------------------------------------
# unet_segment


def _gen_unet(seed: int, size: str, work: Path) -> dict:
    from wmhkit.phantom import make_phantom

    shape = (64, 64, 64) if size == "full" else (16, 16, 16)
    rng = np.random.default_rng(_subject_seed(seed, 0))
    nets = {role: reference.unet(rng, 3 if role == "meta" else 1)
            for role in ("axial", "sagittal", "coronal", "meta")}
    weights = work / "unet.sgwt"
    weights.write_bytes(reference.sgwt_bundle(nets))
    ph = make_phantom(seed=_subject_seed(seed, 1), shape=shape)
    flair = _write(work / "in" / "flair.nii.gz", ph.flair)
    mask = _write(work / "in" / "mask.nii.gz", ph.brain_mask)
    ref = reference.ensemble_posterior(nets, ph.flair.data, ph.brain_mask.data)
    np.save(work / "reference_posterior.npy", ref)
    out = work / "out"
    return {
        "argv": ["segment", "--flair", flair, "--mask", mask, "--weights", str(weights),
                 "--out-dir", str(out)],
        "weights": str(weights),
        "subjects_per_call": 1,
        "outputs": [str(out / "flair.posterior.nii.gz"), str(out / "flair.mask.nii.gz")],
        "reference": str(work / "reference_posterior.npy"),
    }


def _check_unet(m: dict, stdout: str) -> list:
    ref = np.load(m["reference"])
    try:
        post = _read_canonical(m["outputs"][0])
        mask = _read_canonical(m["outputs"][1])
    except Exception as exc:  # any unreadable output fails the subject
        return [("flair", f"output unreadable: {exc!r}")]
    if post.shape != ref.shape or mask.shape != ref.shape:
        return [("flair", f"output shape {post.shape}/{mask.shape} != {ref.shape}")]
    err = float(np.max(np.abs(post.astype(np.float64) - ref)))
    if err > POSTERIOR_TOL:
        return [("flair", f"posterior deviates from the reference by {err:.3g}")]
    decided = np.abs(ref - THRESHOLD) > POSTERIOR_TOL
    wrong = int(np.count_nonzero((mask > 0)[decided] != (ref > THRESHOLD)[decided]))
    if wrong:
        return [("flair", f"{wrong} mask voxels disagree with reference > {THRESHOLD}")]
    return [("flair", None)]


# ---------------------------------------------------------------------------
# phantom_brain_batch


def _gen_batch(seed: int, size: str, work: Path) -> dict:
    from wmhkit.phantom import make_phantom
    from wmhkit.volume import Volume3D

    shape, n_subjects, n_lesions = (BRAIN, 2, 40) if size == "full" else ((24, 32, 24), 2, 3)
    phantoms = [make_phantom(seed=_subject_seed(seed, i), shape=shape, n_lesions=n_lesions)
                for i in range(n_subjects)]
    # One weights bundle serves the whole batch, so its cutoff must lie in the
    # intensity gap of every subject (background 100 +- 5, lesions 180 +- 5).
    lo, hi = -np.inf, np.inf
    for ph in phantoms:
        vals = ph.flair.data[ph.brain_mask.data > 0].astype(np.float64)
        mu, sd = vals.mean(), vals.std()
        lo, hi = max(lo, (105.0 - mu) / sd), min(hi, (175.0 - mu) / sd)
    if hi - lo < 0.2:
        raise RuntimeError(f"subjects share no detection cutoff: gap [{lo}, {hi}]")
    cutoff = float((lo + hi) / 2.0)
    weights = work / "phantom.sgwt"
    weights.write_bytes(reference.sgwt_bundle({
        "axial": reference.threshold_net(1, cutoff),
        "sagittal": reference.threshold_net(1, cutoff),
        "coronal": reference.threshold_net(1, cutoff),
        "meta": reference.threshold_net(3, 0.5),
    }))
    out = work / "out"
    subjects = {}
    for i, ph in enumerate(phantoms):
        vols = {"flair": ph.flair, "mask": ph.brain_mask, "gt": ph.gt_mask}
        if i % 2:  # store half of the batch as LPS so reorientation runs
            vols = {k: Volume3D(v.data[::-1, ::-1, :], v.spacing, ("L", "P", "S")) for k, v in vols.items()}
        stem = f"sub{i:02d}"
        for kind, vol in vols.items():
            _write(work / kind / f"{stem}.nii.gz", vol)
        subjects[stem] = {"gt": str(work / "gt" / f"{stem}.nii.gz"),
                          "mask": str(out / f"{stem}.mask.nii.gz")}
    return {
        "argv": ["segment", "--flair", str(work / "flair"), "--mask", str(work / "mask"),
                 "--weights", str(weights), "--out-dir", str(out), "--jobs", str(nproc())],
        "weights": str(weights),
        "jobs": nproc(),
        "blas_threads": 1,  # jobs x BLAS threads <= nproc
        "subjects_per_call": n_subjects,
        "outputs": [s["mask"] for s in subjects.values()]
                   + [str(out / f"{s}.posterior.nii.gz") for s in subjects],
        "subjects": subjects,
    }


def _check_batch(m: dict, stdout: str) -> list:
    results = []
    for stem, s in m["subjects"].items():
        try:
            got = _read_canonical(s["mask"]) > 0
        except Exception as exc:  # any unreadable output fails the subject
            results.append((stem, f"output unreadable: {exc!r}"))
            continue
        want = _read_canonical(s["gt"]) > 0
        if got.shape != want.shape:
            results.append((stem, f"mask shape {got.shape} != ground truth {want.shape}"))
            continue
        wrong = int(np.count_nonzero(got != want))
        results.append((stem, f"{wrong} voxels differ from the ground truth" if wrong else None))
    return results


# ---------------------------------------------------------------------------
# evaluate_dense


def _gen_evaluate(seed: int, size: str, work: Path) -> dict:
    from wmhkit.phantom import make_phantom
    from wmhkit.volume import Volume3D

    shape, n_lesions, n_specks = (BRAIN, 40, 1000) if size == "full" else ((32, 32, 32), 3, 20)
    ph = make_phantom(seed=_subject_seed(seed, 0), shape=shape, n_lesions=n_lesions)
    rng = np.random.default_rng(_subject_seed(seed, 1))
    gt = ph.gt_mask.data > 0
    inside = ph.brain_mask.data > 0
    # Specks are isolated single voxels at Chebyshev distance >= 2 from each
    # other and from every lesion, so each is its own 26-connected component.
    blocked = ndimage.binary_dilation(gt, structure=np.ones((3, 3, 3), dtype=bool))
    pred = gt.copy()
    placed = 0
    for idx in rng.permutation(np.flatnonzero(inside & ~blocked)):
        x, y, z = np.unravel_index(idx, shape)
        if blocked[x, y, z]:
            continue
        pred[x, y, z] = True
        blocked[max(x - 1, 0) : x + 2, max(y - 1, 0) : y + 2, max(z - 1, 0) : z + 2] = True
        placed += 1
        if placed == n_specks:
            break
    if placed < n_specks:
        raise RuntimeError(f"placed only {placed} of {n_specks} specks")
    # continuous posterior: lesions score high, specks middling, tissue low
    noise = rng.random(shape, dtype=np.float32)
    post = np.where(gt, 0.35 + 0.65 * noise, np.where(pred, 0.3 + 0.5 * noise, 0.55 * noise))
    post = np.where(inside, post, 0.0).astype(np.float32)
    auc, points = reference.pr_auc(post[inside], gt[inside])

    n_gt = int(ndimage.label(gt, structure=np.ones((3, 3, 3), dtype=bool))[1])
    gt_voxels = int(gt.sum())
    spacing = ph.flair.spacing
    files = {}
    for name, arr in (("pred", pred), ("gt", gt), ("posterior", post), ("mask", inside)):
        files[name] = _write(work / "in" / f"{name}.nii.gz", Volume3D(arr.astype(np.float32), spacing))
    tsv = work / "out" / "pr.tsv"
    tsv.parent.mkdir(parents=True, exist_ok=True)
    return {
        "argv": ["evaluate", "--pred", files["pred"], "--gt", files["gt"],
                 "--posterior", files["posterior"], "--mask", files["mask"],
                 "--out-pr-tsv", str(tsv)],
        "weights": None,
        "subjects_per_call": 1,
        "outputs": [str(tsv)],
        "expected": {
            "counts": {"tp_voxels": gt_voxels, "fp_voxels": n_specks, "fn_voxels": 0,
                       "tp_lesions": n_gt, "fp_lesions": n_specks, "fn_lesions": 0},
            "dice_pixel": 2.0 * gt_voxels / (2.0 * gt_voxels + n_specks),
            "dice_lesion": 2.0 * n_gt / (2.0 * n_gt + n_specks),
            "avd_percent": 100.0 * n_specks / gt_voxels,
            "auc_pr": auc,
            "pr_points": points,
        },
    }


def _check_evaluate(m: dict, stdout: str) -> list:
    want = m["expected"]
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [("evaluate", f"report is not JSON: {exc}")]
    problems = []
    if got.get("counts") != want["counts"]:
        problems.append(f"counts {got.get('counts')} != {want['counts']}")
    for key in ("dice_pixel", "dice_lesion", "avd_percent"):
        if not np.isclose(got.get(key, np.nan), want[key], rtol=1e-12, atol=0.0):
            problems.append(f"{key} {got.get(key)} != {want[key]}")
    if not abs(got.get("auc_pr", np.nan) - want["auc_pr"]) <= AUC_TOL:
        problems.append(f"auc_pr {got.get('auc_pr')} != reference {want['auc_pr']}")
    try:
        with open(m["outputs"][0], "rb") as fh:
            rows = sum(1 for _ in fh) - 1
    except OSError as exc:
        rows = f"unreadable ({exc})"
    if rows != want["pr_points"]:
        problems.append(f"PR TSV has {rows} points, expected {want['pr_points']}")
    return [("evaluate", "; ".join(problems) or None)]


WORKLOADS = {
    "unet_segment": Workload(_gen_unet, _check_unet),
    "phantom_brain_batch": Workload(_gen_batch, _check_batch),
    "evaluate_dense": Workload(_gen_evaluate, _check_evaluate),
}
