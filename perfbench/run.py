"""wmhkit benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1``.

Run from the root of a wmhkit source tree. One run:

1. generates the workload's inputs from the seed in a fresh process
   (``worker.py generate``), outside any timing;
2. times set-up -- a fresh interpreter importing ``wmhkit.cli`` and parsing
   the workload's weights -- in SETUP_PROBES separate processes;
3. runs the workload in a fresh process (``worker.py measure``): a closed
   loop of ``wmhkit.cli.main`` calls for about T seconds, each call's
   outputs checked against the construction or an independent reference;
4. prints a detail record (environment, every call, failures) and, as the
   last line, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
subject_s_p50, subjects_per_min, peak_rss_mb). With ``--trace 1`` the loop
alternates untraced and traced calls and the metrics are the per-layer
figures of the traced calls plus the tracing overhead. The detail record
and the spans are also written under ``.perfbench_out/``; inputs live under
``.perfbench_work/`` and are deleted when the run ends.

``--size tiny`` shrinks every grid for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
DEADLINE_S = 175.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _run(cmd: list, env: dict, deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {cmd[2]}")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:3])} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _seconds(call: dict) -> float:
    """A call's wall time without the time the host stole (``cpuclock``)."""
    return call["wall_s"] * call["cpu_granted"]


def _end_to_end(calls: list, setup: list, rss_mb: float) -> dict:
    plain = [c for c in calls if not c["traced"]]
    completed = sum(c["subjects"] - c["failed"] for c in plain)
    return {
        "setup_s": statistics.median(setup),
        "subject_s_p50": statistics.median(_seconds(c) / c["subjects"] for c in plain),
        "subjects_per_min": 60.0 * completed / sum(_seconds(c) for c in plain),
        "peak_rss_mb": rss_mb,
    }


def _per_layer(calls: list, layers: dict) -> dict:
    def p50(traced):
        return statistics.median(_seconds(c) / c["subjects"] for c in calls if c["traced"] == traced)

    return dict(layers, **{"trace.overhead_pct": 100.0 * (p50(True) / p50(False) - 1.0)})


def _declared(values: dict, declared: list) -> dict:
    """Every metric BENCHMARK.json declares, with its declared unit, and no other."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared but not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def bench(args, root: Path, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    py = sys.executable or "python3"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    try:
        _run([py, str(HERE / "worker.py"), "generate", "--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--work", str(work)], env, deadline)
        manifest = json.loads((work / "manifest.json").read_text())
        probe = [py, str(HERE / "setup_probe.py")] + ([manifest["weights"]] if manifest["weights"] else [])
        setup = [float(_run(probe, env, deadline).split()[-1]) for _ in range(SETUP_PROBES)]

        wenv = dict(env)
        if "blas_threads" in manifest:
            threads = str(manifest["blas_threads"])
            wenv.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        result_file = work / "result.json"
        _run([py, str(HERE / "worker.py"), "measure", "--work", str(work), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--result", str(result_file),
              "--spans", str(out / f"{tag}.spans.jsonl")], wenv, deadline)
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = result["calls"]
    attempted = sum(c["subjects"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    if args.trace:
        metrics = _declared(_per_layer(calls, result["layers"]), spec["per_layer"])
    else:
        metrics = _declared(_end_to_end(calls, setup, result["peak_rss_mb"]), spec["end_to_end"])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "env": result["env"], "jobs": result["jobs"],
        "setup_s_samples": setup, "untraced_calls": sum(1 for c in calls if not c["traced"]),
        "calls": calls, "failed_ratio": failed / attempted,
        **{k: result[k] for k in ("unmeasured", "self_residual_s", "spans_file") if k in result},
        "metrics": metrics,
    }
    (out / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, final


def main(argv=None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (root / "src" / "wmhkit" / "cli.py").is_file():
        print(f"error: no wmhkit source tree (src/wmhkit/cli.py) under {root}", file=sys.stderr)
        return 2
    try:
        detail, final = bench(args, root, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
