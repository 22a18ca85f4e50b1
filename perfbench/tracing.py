"""Spans around wmhkit's public functions, recorded from outside the program.

``Tracer.install`` replaces module attributes such as ``wmhkit.cli.parse_nifti``
with timing wrappers and ``uninstall`` puts the originals back, so untraced
calls run the program untouched. A name that a later refactor removes is
listed in ``Tracer.unmeasured`` and its metrics read 0; nothing crashes.

Each span records its name, start, end, parent and subject id. Spans stay in
memory; ``layer_metrics`` derives per-layer figures and self times from them
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYER_KINDS = {"Conv3D": "conv3d", "BatchNorm": "batchnorm", "ReLU": "relu", "MaxPool": "maxpool",
               "UpsampleNearest": "upsample", "Concat": "concat", "Softmax": "softmax"}
ENSEMBLE_NETS = 4  # forward passes each voxel needs: three planes and the meta net


def _nbytes(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray)) else 0


def _volume_bytes(value) -> int:
    return int(getattr(getattr(value, "data", None), "nbytes", 0))


def _layer_info(args, kwargs, out) -> dict:
    x, layer = args[0], args[1]
    info = {"kind": LAYER_KINDS.get(type(layer).__name__, type(layer).__name__.lower())}
    w = getattr(layer, "weights", None)
    if info["kind"] == "conv3d" and w is not None:
        taps = int(np.prod(w.shape[1:]))  # cin * kd * kh * kw
        info["flop"] = 2 * taps * int(out.size)
        info["bytes"] = 4 * (int(x.size) + int(w.size) + int(w.shape[0]) + int(out.size))
    return info


# (module, attribute, span name, extractor of counts from (args, kwargs, result))
TARGETS = (
    ("wmhkit.cli", "load_ensemble", "weights_io.load", None),
    ("wmhkit.cli", "parse_nifti", "nifti.parse", lambda a, k, r: {"bytes": _nbytes(a[0])}),
    ("wmhkit.cli", "write_nifti", "nifti.write", lambda a, k, r: {"bytes": _nbytes(r)}),
    ("wmhkit.cli", "normalize_intensity", "volume.normalize", None),
    ("wmhkit.cli", "predict_ensemble", "ensemble.predict", lambda a, k, r: {"voxels": _volume_bytes(a[1]) // 4}),
    ("wmhkit.cli", "label_components", "lesions.label", lambda a, k, r: {"components": int(getattr(r, "count", 0))}),
    ("wmhkit.cli", "metric_report", "metrics.report", None),
    ("wmhkit.cli", "pr_curve_auc", "metrics.pr", lambda a, k, r: {"points": len(getattr(r, "thresholds", ()))}),
    ("wmhkit.ensemble", "forward", "network.forward", None),  # shape and net recorded by the tracer
    ("wmhkit.ensemble", "to_canonical", "reformat", lambda a, k, r: {"op": "canonical", "bytes": _volume_bytes(r)}),
    ("wmhkit.ensemble", "reformat_to", "reformat",
     lambda a, k, r: {"op": "to", "plane": str(getattr(a[1], "value", a[1])), "bytes": _volume_bytes(r)}),
    ("wmhkit.ensemble", "reformat_from", "reformat",
     lambda a, k, r: {"op": "from", "plane": str(getattr(a[1], "value", a[1])), "bytes": _volume_bytes(r)}),
    ("wmhkit.network", "apply_layer", "layers", _layer_info),
    ("wmhkit.metrics", "label_components", "lesions.label", lambda a, k, r: {"components": int(getattr(r, "count", 0))}),
    ("wmhkit.metrics", "match_lesions", "lesions.match", lambda a, k, r: {"pairs": len(getattr(r, "pairs", ()))}),
    ("wmhkit.metrics", "pr_curve_auc", "metrics.pr", lambda a, k, r: {"points": len(getattr(r, "thresholds", ()))}),
)


def _lookup(mod_name: str, attr: str):
    """(module, attribute), with None for whatever a refactor has removed."""
    try:
        module = importlib.import_module(mod_name)
    except ModuleNotFoundError:
        return None, None
    return module, getattr(module, attr, None)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.unmeasured: set[str] = set()
        self.nets: dict[int, object] = {}  # id -> network seen by forward, for shape inference
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: dict | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: dict | None = None, subject: str | None = None):
        stack = self._stack()
        parent = parent or (stack[-1] if stack else self._root)
        rec = {"id": next(self._ids), "name": name,
               "parent": parent["id"] if parent else None,
               "subject": subject or (parent["subject"] if parent else None)}
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    @contextmanager
    def call(self, subject: str):
        """Root span around one ``cli.main`` call."""
        with self.span("cli.main", subject=subject) as rec:
            self._root = rec
            try:
                yield rec
            finally:
                self._root = None

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if info is not None:
                rec.update(info(args, kwargs, result))
            return result

        return traced

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def traced(net, x, *args, **kwargs):
            with self.span("network.forward") as rec:
                result = fn(net, x, *args, **kwargs)
            self.nets[id(net)] = net
            rec.update(net=id(net), shape=[int(n) for n in np.shape(x)])
            return result

        return traced

    def _traced_pool(self, base):
        tracer = self

        class TracedPool(base):
            """Thread pool whose tasks each run inside a per-subject span."""

            def submit(self, fn, *args, **kwargs):
                parent = tracer._stack()[-1] if tracer._stack() else tracer._root
                label = Path(str(args[0])).name if args else "task"
                subject = f"{parent['subject']}/{label}" if parent else label

                def run():
                    with tracer.span("cli.subject", parent=parent, subject=subject):
                        return fn(*args, **kwargs)

                return super().submit(run)

        return TracedPool

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, name, info in TARGETS:
            module, fn = _lookup(mod_name, attr)
            if fn is None:
                self.unmeasured.add(f"{mod_name}.{attr}")
            elif name == "network.forward":
                self._patch(module, attr, self._wrap_forward(fn))
            else:
                self._patch(module, attr, self._wrap(fn, name, info))
        cli, pool = _lookup("wmhkit.cli", "ThreadPoolExecutor")
        if pool is None:
            self.unmeasured.add("wmhkit.cli.ThreadPoolExecutor")
        else:
            self._patch(cli, "ThreadPoolExecutor", self._traced_pool(pool))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# derivation


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        cover = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in cover if iv[1] > iv[0]])
    return out


def subject_spans(spans: list[dict]) -> list[dict]:
    """One span per subject: the pool task in batch mode, else the whole call."""
    return [s for s in spans if s["name"] == "cli.subject"] or [s for s in spans if s["name"] == "cli.main"]


def self_residual_s(spans: list[dict]) -> float:
    """Largest |sum of self times in a subject's subtree - the subject's wall|."""
    selfs = self_times(spans)
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def subtree(s):
        return selfs[s["id"]] + sum(subtree(c) for c in children.get(s["id"], ()))

    return max((abs(subtree(s) - (s["end"] - s["start"])) for s in subject_spans(spans)), default=0.0)


def _plane_ms(spans: list[dict], predicts: list[dict]) -> dict[str, float]:
    """Per-plane wall inside each prediction: reformat_to(plane) .. reformat_from(plane);
    the meta share runs from the last reformat_from to the end of the prediction."""
    by_parent: dict[int, list] = {}
    for s in spans:
        if s["name"] == "reformat":
            by_parent.setdefault(s["parent"], []).append(s)
    totals = {"axial": 0.0, "sagittal": 0.0, "coronal": 0.0, "meta": 0.0}
    for p in predicts:
        kids = by_parent.get(p["id"], [])
        starts = {k["plane"]: k["start"] for k in kids if k.get("op") == "to"}
        ends = {k["plane"]: k["end"] for k in kids if k.get("op") == "from"}
        for plane in ("axial", "sagittal", "coronal"):
            if plane in starts and plane in ends:
                totals[plane] += ends[plane] - starts[plane]
        if ends:
            totals["meta"] += p["end"] - max(ends.values())
    return {k: v * 1000.0 for k, v in totals.items()}


def _peak_activation_bytes(tracer: Tracer) -> float:
    """Largest float32 footprint of one forward pass when, as ``forward`` does
    today, every layer output stays bound until the pass returns."""
    _, infer = _lookup("wmhkit.network", "infer_shapes")
    if infer is None:
        tracer.unmeasured.add("wmhkit.network.infer_shapes")
        return 0.0
    peak = 0
    seen = set()
    for s in tracer.spans:
        if "net" not in s or (s["net"], tuple(s["shape"])) in seen:
            continue
        seen.add((s["net"], tuple(s["shape"])))
        shapes = infer(tracer.nets[s["net"]], tuple(s["shape"][1:]))
        peak = max(peak, int(np.prod(s["shape"])) + sum(int(np.prod(sh)) for sh in shapes))
    return 4.0 * peak


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-subject figures for every layer, from the traced calls' spans."""
    spans = tracer.spans
    selfs = self_times(spans)
    subjects = subject_spans(spans)
    n = max(len(subjects), 1)
    by_name: dict[str, list] = {}
    for s in spans:
        key = f"layers.{s.get('kind')}" if s["name"] == "layers" else s["name"]
        by_name.setdefault(key, []).append(s)

    def ms(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ())) * 1000.0 / n

    def self_ms(*names):
        return sum(selfs[s["id"]] for name in names for s in by_name.get(name, ())) * 1000.0 / n

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ())) / n

    roots = by_name.get("cli.main", [])
    busy = sum(s["end"] - s["start"] for s in subjects)
    batch_jobs = jobs if by_name.get("cli.subject") else 1
    wall = sum(s["end"] - s["start"] for s in roots) * batch_jobs
    predicts = by_name.get("ensemble.predict", [])
    forwards = by_name.get("network.forward", [])
    volume_voxels = ENSEMBLE_NETS * total("ensemble.predict", "voxels")
    tile_voxels = sum(int(np.prod(s["shape"][1:])) for s in forwards)
    conv_s = ms("layers.conv3d") / 1000.0
    conv_gflop = total("layers.conv3d", "flop") / 1e9 / n
    conv_mb = total("layers.conv3d", "bytes") / 1e6 / n
    pr_calls = len(by_name.get("metrics.pr", ()))

    return {
        "cli.self_ms": self_ms("cli.main", "cli.subject"),
        "cli.batch_parallel_eff": busy / wall if wall else 0.0,
        "weights_io.load_ms": ms("weights_io.load"),
        "nifti.parse_ms": ms("nifti.parse"),
        "nifti.parse_mb": total("nifti.parse", "bytes") / 1e6 / n,
        "nifti.write_ms": ms("nifti.write"),
        "nifti.write_mb": total("nifti.write", "bytes") / 1e6 / n,
        "volume.normalize_ms": ms("volume.normalize"),
        "reformat.ms": ms("reformat"),
        "reformat.calls": calls("reformat"),
        "reformat.mb_copied": total("reformat", "bytes") / 1e6 / n,
        "ensemble.predict_ms": ms("ensemble.predict"),
        "ensemble.self_ms": self_ms("ensemble.predict"),
        **{f"ensemble.{k}_ms": v / n for k, v in _plane_ms(spans, predicts).items()},
        "ensemble.tiles": len(forwards) / n,
        "ensemble.tile_redundancy": tile_voxels / volume_voxels if volume_voxels else 0.0,
        "network.forward_ms": ms("network.forward"),
        "network.forward_calls": calls("network.forward"),
        "network.self_ms": self_ms("network.forward"),
        "network.peak_activation_mb": _peak_activation_bytes(tracer) / 1e6,
        "layers.conv3d.ms": ms("layers.conv3d"),
        "layers.conv3d.calls": calls("layers.conv3d"),
        "layers.conv3d.gflop": conv_gflop,
        "layers.conv3d.gflops": conv_gflop / conv_s if conv_s else 0.0,
        "layers.conv3d.mb_moved": conv_mb,
        "layers.conv3d.flop_per_byte": conv_gflop * 1e3 / conv_mb if conv_mb else 0.0,
        **{f"layers.{k}.ms": ms(f"layers.{k}")
           for k in ("batchnorm", "relu", "maxpool", "upsample", "concat", "softmax")},
        "lesions.label_ms": ms("lesions.label"),
        "lesions.label_calls": calls("lesions.label"),
        "lesions.components": total("lesions.label", "components") / n,
        "lesions.match_ms": ms("lesions.match"),
        "lesions.overlap_pairs": total("lesions.match", "pairs") / n,
        "metrics.pr_ms": ms("metrics.pr"),
        "metrics.pr_calls": pr_calls / n,
        "metrics.pr_points": total("metrics.pr", "points") / pr_calls if pr_calls else 0.0,
        "metrics.report_self_ms": self_ms("metrics.report"),
        "trace.subject_ms": busy * 1000.0 / n,
    }
