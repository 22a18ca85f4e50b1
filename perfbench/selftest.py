"""Self-test of the benchmark on tiny grids, run from the source root:

    python3 perfbench/selftest.py

1. Every workload runs end to end through ``run.py --size tiny``, traced and
   untraced, reports exactly the metrics BENCHMARK.json declares, passes its
   output check, and in the traced run the self times of each subject's spans
   sum to the subject's wall time.
2. Every output check rejects a deliberately corrupted output.
3. ``run.py`` fails without printing a result where there is no source tree.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import WORKLOADS, THRESHOLD, POSTERIOR_TOL  # noqa: E402


def _fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def end_to_end() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                _fail(f"{name} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            detail, final = json.loads(lines[-2]), json.loads(lines[-1])
            if set(final) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name}: result keys {sorted(final)}")
            if not final["correct"] or final["failed"] or final["attempted"] < 1:
                _fail(f"{name} trace={trace}: {final['failed']} of {final['attempted']} failed: "
                      f"{[c['errors'] for c in detail['calls'] if c['errors']][:2]}")
            if list(final["metrics"]) != [m["name"] for m in declared]:
                _fail(f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            if trace and detail["self_residual_s"] > 1e-6:
                _fail(f"{name}: self times miss the subject wall by {detail['self_residual_s']} s")
            print(f"PASS {name} trace={trace}: {final['attempted']} subjects checked")


def _call(manifest: dict) -> str:
    import wmhkit.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = wmhkit.cli.main(manifest["argv"])
    if rc != 0:
        _fail(f"{manifest['workload']}: cli exited {rc}")
    return out.getvalue()


def _poke(path: str, index: tuple, change) -> None:
    """Rewrite one voxel of a NIfTI output as ``change(old value)``."""
    from wmhkit.nifti import parse_nifti, write_nifti

    vol = parse_nifti(Path(path).read_bytes())
    data = vol.data.copy()
    data[index] = change(data[index])
    Path(path).write_bytes(write_nifti(vol.with_data(data), compress=True))


def _expect_rejected(name: str, what: str, manifest: dict, stdout: str) -> None:
    verdicts = WORKLOADS[name].check(manifest, stdout)
    if not any(err for _, err in verdicts):
        _fail(f"{name}: the check accepted {what}")
    print(f"PASS {name} rejects {what}")


def corruptions(work: Path) -> None:
    for name in WORKLOADS:
        wdir = work / name
        wdir.mkdir(parents=True)
        manifest = WORKLOADS[name].generate(3, "tiny", wdir)
        manifest["workload"] = name
        stdout = _call(manifest)
        if any(err for _, err in WORKLOADS[name].check(manifest, stdout)):
            _fail(f"{name}: the check rejected an uncorrupted output")

        if name == "unet_segment":
            ref = np.load(manifest["reference"])
            far = np.unravel_index(np.argmax(np.abs(ref - THRESHOLD)), ref.shape)
            post_file, mask_file = manifest["outputs"]
            backup = Path(post_file).read_bytes()
            _poke(post_file, far, lambda v: v + 10 * POSTERIOR_TOL)
            _expect_rejected(name, "a posterior voxel off by 1e-3", manifest, stdout)
            Path(post_file).write_bytes(backup)
            _poke(mask_file, far, lambda v: 1.0 - v)
            _expect_rejected(name, "one flipped mask voxel", manifest, stdout)
        elif name == "phantom_brain_batch":
            mask_file = next(iter(manifest["subjects"].values()))["mask"]
            _poke(mask_file, (5, 5, 5), lambda v: 1.0 - v)
            _expect_rejected(name, "one flipped mask voxel", manifest, stdout)
        else:
            report = json.loads(stdout)
            bad = dict(report, counts=dict(report["counts"], fp_lesions=report["counts"]["fp_lesions"] + 1))
            _expect_rejected(name, "one changed lesion count", manifest, json.dumps(bad))
            _expect_rejected(name, "auc_pr off by 1e-6", manifest,
                             json.dumps(dict(report, auc_pr=report["auc_pr"] + 1e-6)))
            tsv = Path(manifest["outputs"][0])
            tsv.write_text("".join(tsv.read_text().splitlines(keepends=True)[:-1]))
            _expect_rejected(name, "a PR TSV missing one point", manifest, stdout)


def no_source_tree(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unet_segment", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"run.py without a source tree exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"PASS no source tree: exit {proc.returncode}, nothing printed")


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        end_to_end()
        corruptions(work)
        no_source_tree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
