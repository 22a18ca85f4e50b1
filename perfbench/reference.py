"""Independent references the benchmark checks wmhkit's outputs against.

Nothing here imports wmhkit. The network description, the SGWT writer, the
float64 forward pass and the precision-recall area are written from the
documented formats and definitions, so a regression in the program cannot
also move the reference.

A network is a list of ``(name, kind, params)`` triples with NumPy arrays in
``params``; the same list is serialised to SGWT for the program and evaluated
by :func:`forward` here.
"""

from __future__ import annotations

import json
import struct

import numpy as np

SGWT_MAGIC = b"SGWT"
SGWT_VERSION = 1


# ---------------------------------------------------------------------------
# networks


def unet(rng: np.random.Generator, in_channels: int, channels: int = 16) -> list:
    """Seeded random-weight 2-level U-Net, 2 output classes.

    3^3 conv + BatchNorm + ReLU at full resolution, 2^3 max-pool, the same
    block at half resolution, nearest upsampling, a Concat skip, one more
    block, then a 1^3 head and softmax. He-scaled weights keep activations
    O(1), so the posterior is neither saturated nor constant.
    """

    def conv(cin, cout, k):
        w = rng.normal(0.0, np.sqrt(2.0 / (cin * k**3)), (cout, cin, k, k, k))
        b = rng.normal(0.0, 0.05, cout)
        return {"weights": w.astype(np.float32), "bias": b.astype(np.float32), "padding": k // 2}

    def bn(c):
        return {
            "gamma": rng.uniform(0.8, 1.2, c).astype(np.float32),
            "beta": rng.normal(0.0, 0.1, c).astype(np.float32),
            "mean": rng.normal(0.0, 0.1, c).astype(np.float32),
            "var": rng.uniform(0.5, 1.5, c).astype(np.float32),
        }

    c = channels
    return [
        ("enc1", "conv3d", conv(in_channels, c, 3)),
        ("enc1_bn", "batchnorm", bn(c)),
        ("enc1_relu", "relu", {}),
        ("pool", "maxpool", {}),
        ("enc2", "conv3d", conv(c, c, 3)),
        ("enc2_bn", "batchnorm", bn(c)),
        ("enc2_relu", "relu", {}),
        ("up", "upsample", {}),
        ("skip", "concat", {"source": "enc1_relu"}),
        ("dec1", "conv3d", conv(2 * c, c, 3)),
        ("dec1_bn", "batchnorm", bn(c)),
        ("dec1_relu", "relu", {}),
        ("head", "conv3d", conv(c, 2, 1)),
        ("softmax", "softmax", {}),
    ]


def threshold_net(in_channels: int, cutoff: float, sharpness: float = 50.0) -> list:
    """Per-voxel net whose posterior is sigmoid(sharpness * (mean(x) - cutoff))."""
    w = np.zeros((2, in_channels, 1, 1, 1), dtype=np.float32)
    w[1, :, 0, 0, 0] = sharpness / in_channels
    b = np.array([0.0, -sharpness * cutoff], dtype=np.float32)
    return [
        ("logits", "conv3d", {"weights": w, "bias": b, "padding": 0}),
        ("posterior", "softmax", {}),
    ]


# ---------------------------------------------------------------------------
# SGWT container


def sgwt_bundle(networks: dict[str, list]) -> bytes:
    """Role-tagged SGWT v1 bundle: magic, version, manifest length, JSON, float32 blob."""
    chunks: list[bytes] = []
    offset = 0

    def tensor(arr) -> dict:
        nonlocal offset
        raw = np.asarray(arr, dtype="<f4").tobytes()
        entry = {"shape": list(np.shape(arr)), "offset": offset}
        chunks.append(raw)
        offset += len(raw)
        return entry

    manifest_nets = []
    for role in sorted(networks):
        layers = networks[role]
        entries = []
        for name, kind, p in layers:
            e = {"name": name, "type": kind}
            if kind == "conv3d":
                e.update(stride=[1, 1, 1], padding=[p["padding"]] * 3,
                         weights=tensor(p["weights"]), bias=tensor(p["bias"]))
            elif kind == "batchnorm":
                e.update(eps=1e-5, **{k: tensor(p[k]) for k in ("gamma", "beta", "mean", "var")})
            elif kind == "maxpool":
                e.update(kernel=[2, 2, 2], stride=[2, 2, 2])
            elif kind == "upsample":
                e.update(factor=2)
            elif kind == "concat":
                e.update(source=p["source"])
            entries.append(e)
        first = layers[0][2]["weights"]
        last_conv = [p for _, k, p in layers if k == "conv3d"][-1]["weights"]
        manifest_nets.append({
            "role": role,
            "in_channels": int(first.shape[1]),
            "out_channels": int(last_conv.shape[0]),
            "layers": entries,
        })
    body = json.dumps({"networks": manifest_nets}, sort_keys=True, separators=(",", ":")).encode()
    return SGWT_MAGIC + struct.pack("<II", SGWT_VERSION, len(body)) + body + b"".join(chunks)


# ---------------------------------------------------------------------------
# float64 forward pass


def _conv(x: np.ndarray, p: dict, slab: int = 4) -> np.ndarray:
    """Zero-padded cross-correlation by im2col over depth slabs, float64 throughout."""
    w = p["weights"].astype(np.float64)
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    pad = p["padding"]
    xp = np.pad(x, ((0, 0),) + ((pad, pad),) * 3)
    d, h, wd = (n - k + 1 for n in xp.shape[1:])
    wmat = w.reshape(cout, cin * k**3)
    out = np.empty((cout, d, h, wd))
    for z0 in range(0, d, slab):
        z1 = min(z0 + slab, d)
        win = np.lib.stride_tricks.sliding_window_view(xp[:, z0 : z1 + k - 1], (k, k, k), axis=(1, 2, 3))
        cols = win.transpose(0, 4, 5, 6, 1, 2, 3).reshape(cin * k**3, -1)
        out[:, z0:z1] = (wmat @ cols).reshape(cout, z1 - z0, h, wd)
    return out + p["bias"].astype(np.float64)[:, None, None, None]


def forward(layers: list, x: np.ndarray) -> np.ndarray:
    """Evaluate a network on a (C, D, H, W) array in float64."""
    x = np.asarray(x, dtype=np.float64)
    outputs = {}
    for name, kind, p in layers:
        if kind == "conv3d":
            x = _conv(x, p)
        elif kind == "batchnorm":
            g, b, m, v = (p[k].astype(np.float64)[:, None, None, None] for k in ("gamma", "beta", "mean", "var"))
            x = g * (x - m) / np.sqrt(v + 1e-5) + b
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "maxpool":
            c, d, h, w = x.shape
            x = x[:, : d // 2 * 2, : h // 2 * 2, : w // 2 * 2]
            x = x.reshape(c, d // 2, 2, h // 2, 2, w // 2, 2).max(axis=(2, 4, 6))
        elif kind == "upsample":
            x = x.repeat(2, axis=1).repeat(2, axis=2).repeat(2, axis=3)
        elif kind == "concat":
            x = np.concatenate([x, outputs[p["source"]]], axis=0)
        elif kind == "softmax":
            e = np.exp(x - x.max(axis=0, keepdims=True))
            x = e / e.sum(axis=0, keepdims=True)
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        outputs[name] = x
    return x


# canonical axes taken by each processing plane, slice axis last
PLANE_AXES = {"axial": (0, 1, 2), "sagittal": (1, 2, 0), "coronal": (0, 2, 1)}


def ensemble_posterior(networks: dict[str, list], flair: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Meta-fused plane-ensemble posterior of a canonical volume that fits one tile.

    Z-scores ``flair`` inside ``mask`` (population SD), runs each plane net
    on its reformat, maps posteriors back, fuses them with the meta net and
    zeroes voxels outside the mask.
    """
    inside = mask > 0
    vals = flair[inside].astype(np.float64)
    z = np.zeros(flair.shape)
    z[inside] = (vals - vals.mean()) / vals.std()
    z = z.astype(np.float32)  # the program hands float32 to its nets
    planes = []
    for plane, axes in PLANE_AXES.items():
        post = forward(networks[plane], z.transpose(axes)[None])[1]
        planes.append(post.transpose(np.argsort(axes)).astype(np.float32))
    fused = forward(networks["meta"], np.stack(planes))[1]
    fused[~inside] = 0.0
    return fused


# ---------------------------------------------------------------------------
# precision-recall area


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Trapezoidal PR area and the number of operating points.

    One operating point per distinct score, taken in descending order and
    predicting positive where score >= the point; the curve is anchored at
    recall 0 with the first point's precision.
    """
    values, inverse = np.unique(scores.astype(np.float64), return_inverse=True)
    pos = np.bincount(inverse, weights=labels.astype(np.float64), minlength=len(values))[::-1]
    tot = np.bincount(inverse, minlength=len(values))[::-1]
    tp = np.cumsum(pos)
    precision = tp / np.cumsum(tot)
    recall = tp / pos.sum()
    r = np.concatenate(([0.0], recall))
    p = np.concatenate(([precision[0]], precision))
    return float(np.sum(np.diff(r) * (p[1:] + p[:-1]) / 2.0)), len(values)
