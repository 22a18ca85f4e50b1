"""Child-process entry points of the benchmark.

``python3 perfbench/worker.py generate --workload W --seed N --size S --work DIR``
    writes the workload's inputs and ``DIR/manifest.json``.
``python3 perfbench/worker.py measure --work DIR --seconds T --trace 0|1 --result FILE``
    runs the closed loop of ``wmhkit.cli.main`` calls for about T seconds,
    checks every output and writes the samples, peak RSS, environment and,
    when tracing, the per-layer figures to FILE.

``run.py`` starts both with ``src`` on ``PYTHONPATH``; each runs in a fresh
process, so the measured process holds no generator memory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import cpuclock
import tracing
from workloads import WORKLOADS, nproc


def _blas() -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in getters:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_identity(root: Path) -> dict:
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        **_source_identity(Path.cwd()),
        "seed": seed,
    }


def generate(args) -> None:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    manifest = WORKLOADS[args.workload].generate(args.seed, args.size, work)
    manifest.update(workload=args.workload, seed=args.seed, size=args.size)
    (work / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _one_call(cli, argv: list, tracer, label: str) -> tuple[float, float, int | None, str, str | None]:
    """Wall seconds, granted CPU share (``cpuclock``), exit code, captured
    stdout and traceback of one ``cli.main`` call."""
    out = io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracer.install()
    try:
        k0 = cpuclock.ticks()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.call(label):
                        rc = cli.main(argv)
        except Exception:  # a crash of the program is a failed subject, not a benchmark error
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        granted = cpuclock.granted(k0, cpuclock.ticks())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, granted, rc, out.getvalue(), error


def measure(args) -> None:
    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text())
    workload = WORKLOADS[manifest["workload"]]
    import wmhkit.cli as cli

    tracer = tracing.Tracer() if args.trace else None
    calls = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        for out in manifest["outputs"]:
            Path(out).unlink(missing_ok=True)
        iteration_start = time.perf_counter()
        wall, granted, rc, stdout, error = _one_call(cli, manifest["argv"], tracer if traced else None, f"call{len(calls)}")
        if rc == 0:
            verdicts = workload.check(manifest, stdout)
        else:
            reason = error or f"exit code {rc}"
            verdicts = [(f"subject{i}", reason) for i in range(manifest["subjects_per_call"])]
        calls.append({
            "wall_s": wall,
            "cpu_granted": granted,
            "subjects": manifest["subjects_per_call"],
            "failed": sum(1 for _, e in verdicts if e),
            "errors": [f"{s}: {e}" for s, e in verdicts if e][:4],
            "traced": traced,
            "iteration_s": time.perf_counter() - iteration_start,
        })
        elapsed = time.perf_counter() - loop_start
        both_modes = not args.trace or len(calls) >= 2
        next_call = statistics.median(c["iteration_s"] for c in calls)
        if both_modes and elapsed + next_call > args.seconds:
            break

    result = {
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(manifest["seed"]),
        "jobs": manifest.get("jobs", 1),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["jobs"])
        result["self_residual_s"] = tracing.self_residual_s(tracer.spans)
        result["unmeasured"] = sorted(tracer.unmeasured)
        spans = Path(args.spans)
        spans.parent.mkdir(parents=True, exist_ok=True)
        with spans.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({k: v for k, v in s.items() if k != "net"}) + "\n")
        result["spans_file"] = str(spans)
    Path(args.result).write_text(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    g = sub.add_parser("generate")
    g.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--size", choices=("full", "tiny"), default="full")
    g.add_argument("--work", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--work", required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--result", required=True)
    m.add_argument("--spans", default=None)
    args = parser.parse_args()
    {"generate": generate, "measure": measure}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
