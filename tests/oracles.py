"""Independent reference implementations used only to check the package.

Everything here is deliberately naive (explicit loops, brute-force
enumeration, extended precision) and shares no code with the implementations
under test.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

AXIS_PAIRS = (("R", "L"), ("A", "P"), ("S", "I"))
_AXIS_OF = {"R": 0, "L": 0, "A": 1, "P": 1, "S": 2, "I": 2}
_NEG = {"L", "P", "I"}


def all_signed_orientations():
    """All 48 right/left-handed axis labelings."""
    out = []
    for pair_order in permutations(AXIS_PAIRS):
        for signs in product((0, 1), repeat=3):
            out.append(tuple(pair[s] for pair, s in zip(pair_order, signs)))
    return out


def zscore_in_mask(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """In-mask z-score with the population SD, in float64 by temporaries,
    in ``data``'s own storage order; zero outside the mask."""
    inside = mask > 0
    vals = data[inside].astype(np.float64)
    out = np.zeros_like(data)
    out[inside] = ((vals - vals.mean()) / vals.std()).astype(np.float32)
    return out


def _target_index(orientation, dims, idx):
    tgt = [0, 0, 0]
    for axis in range(3):
        code = orientation[axis]
        w = _AXIS_OF[code]
        tgt[w] = dims[axis] - 1 - idx[axis] if code in _NEG else idx[axis]
    return tuple(tgt)


def remap_to_ras(data: np.ndarray, orientation) -> np.ndarray:
    """Voxel-by-voxel reorientation oracle: explicit index arithmetic."""
    dims = data.shape
    out_dims = [0, 0, 0]
    for axis, code in enumerate(orientation):
        out_dims[_AXIS_OF[code]] = dims[axis]
    out = np.zeros(tuple(out_dims), dtype=data.dtype)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                out[_target_index(orientation, dims, (i, j, k))] = data[i, j, k]
    return out


def remap_plane(data: np.ndarray, perm) -> np.ndarray:
    """Index-remapping oracle for a plane permutation (out axis i <- in axis perm[i])."""
    dims = data.shape
    out = np.zeros(tuple(dims[p] for p in perm), dtype=data.dtype)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                src = (i, j, k)
                out[tuple(src[p] for p in perm)] = data[i, j, k]
    return out


def naive_conv3d(x, weights, bias, stride, padding):
    """Direct convolution: loop over every output voxel and kernel tap."""
    cout, cin, kd, kh, kw = weights.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    d, h, w = x.shape[1:]
    do = (d + 2 * pd - kd) // sd + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xpad = np.zeros((cin, d + 2 * pd, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xpad[:, pd : pd + d, ph : ph + h, pw : pw + w] = x
    wt = weights.astype(np.float64)
    out = np.zeros((cout, do, ho, wo), dtype=np.float64)
    for od in range(do):
        for oh in range(ho):
            for ow in range(wo):
                window = xpad[:, od * sd : od * sd + kd, oh * sh : oh * sh + kh, ow * sw : ow * sw + kw]
                for oc in range(cout):
                    out[oc, od, oh, ow] = float(np.sum(wt[oc] * window)) + float(bias[oc])
    return out.astype(np.float32)


def tapwise_conv3d(x, weights, bias, stride, padding):
    """Per-tap convolution: one tensordot over input channels for each kernel
    tap, accumulated tap by tap in float64, with the bias added last."""
    cout, cin, kd, kh, kw = weights.shape
    sd, sh, sw = stride
    pd, ph, pw = padding
    d, h, w = x.shape[1:]
    do = (d + 2 * pd - kd) // sd + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xpad = np.zeros((cin, d + 2 * pd, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xpad[:, pd : pd + d, ph : ph + h, pw : pw + w] = x
    wt = weights.astype(np.float64)
    acc = np.zeros((cout, do, ho, wo), dtype=np.float64)
    for a in range(kd):
        for b in range(kh):
            for c in range(kw):
                sub = xpad[:, a : a + sd * do : sd, b : b + sh * ho : sh, c : c + sw * wo : sw]
                acc += np.tensordot(wt[:, :, a, b, c], sub, axes=(1, 0))
    acc += bias.astype(np.float64)[:, None, None, None]
    return acc.astype(np.float32)


def loop_maxpool(x, kernel, stride):
    """Max pooling by an explicit loop over every output voxel's window."""
    kd, kh, kw = kernel
    sd, sh, sw = stride
    c, d, h, w = x.shape
    out = np.empty((c, (d - kd) // sd + 1, (h - kh) // sh + 1, (w - kw) // sw + 1), dtype=x.dtype)
    for ch in range(c):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                for k in range(out.shape[3]):
                    window = x[ch, i * sd : i * sd + kd, j * sh : j * sh + kh, k * sw : k * sw + kw]
                    out[ch, i, j, k] = max(window.ravel().tolist())
    return out


# canonical axes of each plane's frame (out axis i <- canonical axis perm[i]),
# by plane name, in the ensemble's order: axial, sagittal, coronal
PLANE_AXES = {"axial": (0, 1, 2), "sagittal": (1, 2, 0), "coronal": (0, 2, 1)}


def whole_volume_ensemble(forward, nets, flair, mask):
    """Ensemble posterior of canonical (D, H, W) arrays in one pass per net:
    each plane net runs on the whole volume transposed into its plane, and its
    channel-1 posterior is transposed back; the three are stacked for the meta
    net, and voxels outside ``mask`` are set to 0. ``nets`` is (axial,
    sagittal, coronal, meta); ``forward(net, x)`` runs one net."""
    planes = []
    for net, perm in zip(nets[:3], PLANE_AXES.values()):
        xp = np.ascontiguousarray(flair.transpose(perm))
        planes.append(forward(net, xp[np.newaxis])[1].transpose(np.argsort(perm)))
    fused = forward(nets[3], np.stack(planes))[1].copy()
    fused[mask == 0] = 0.0
    return fused


def flood_fill_label(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """BFS connected-component labeling with explicit neighbor offsets."""
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                order = abs(dx) + abs(dy) + abs(dz)
                if order == 0:
                    continue
                if connectivity == 6 and order > 1:
                    continue
                if connectivity == 18 and order > 2:
                    continue
                offsets.append((dx, dy, dz))
    labels = np.zeros(mask.shape, dtype=np.int64)
    next_label = 0
    nx, ny, nz = mask.shape
    for sx in range(nx):
        for sy in range(ny):
            for sz in range(nz):
                if not mask[sx, sy, sz] or labels[sx, sy, sz]:
                    continue
                next_label += 1
                queue = [(sx, sy, sz)]
                labels[sx, sy, sz] = next_label
                while queue:
                    cx, cy, cz = queue.pop()
                    for dx, dy, dz in offsets:
                        px, py, pz = cx + dx, cy + dy, cz + dz
                        if 0 <= px < nx and 0 <= py < ny and 0 <= pz < nz:
                            if mask[px, py, pz] and not labels[px, py, pz]:
                                labels[px, py, pz] = next_label
                                queue.append((px, py, pz))
    return labels


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two label maps induce the same partition up to relabeling."""
    if (a > 0).sum() != (b > 0).sum() or not np.array_equal(a > 0, b > 0):
        return False
    fg = a > 0
    pairs = {(int(x), int(y)) for x, y in zip(a[fg], b[fg])}
    return len({p[0] for p in pairs}) == len(pairs) == len({p[1] for p in pairs})


def pr_enumeration(scores: np.ndarray, labels: np.ndarray):
    """Exhaustive precision-recall enumeration over distinct score values."""
    npos = int(labels.sum())
    points = []
    for v in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= v
        tp = int((pred & labels).sum())
        fp = int((pred & ~labels).sum())
        points.append((v, tp / (tp + fp), tp / npos))
    auc = 0.0
    prev_r, prev_p = 0.0, points[0][1]
    for _, p, r in points:
        auc += (r - prev_r) * (p + prev_p) / 2.0
        prev_r, prev_p = r, p
    return points, auc


def pr_tsv_text(curve) -> str:
    """The PR curve's TSV text: a header, then threshold, precision and
    recall of each operating point, each value by one ``format(v, '.9g')``."""
    lines = ["threshold\tprecision\trecall\n"]
    for row in zip(curve.thresholds.tolist(), curve.precision.tolist(), curve.recall.tolist()):
        lines.append("\t".join(format(v, ".9g") for v in row) + "\n")
    return "".join(lines)


def argsort_pr_curve(post: np.ndarray, gt: np.ndarray, mask: np.ndarray):
    """The PR curve by ordering voxels: a stable argsort of the negated
    float64 in-mask scores, a cumulative positive count along it, and one
    point at the last sorted index of each distinct score. Returns
    (thresholds, precision, recall, auc)."""
    inside = mask > 0
    scores = post[inside].astype(np.float64)
    labels = gt[inside] > 0
    order = np.argsort(-scores, kind="stable")
    scores_sorted = scores[order]
    tp_cum = np.cumsum(labels[order])
    last = np.nonzero(np.diff(scores_sorted, append=-np.inf))[0]
    tp = tp_cum[last].astype(np.float64)
    precision = tp / (last + 1).astype(np.float64)
    recall = tp / int(labels.sum())
    r = np.concatenate(([0.0], recall))
    p = np.concatenate(([precision[0]], precision))
    auc = float(np.sum((r[1:] - r[:-1]) * (p[1:] + p[:-1]) / 2.0))
    return scores_sorted[last], precision, recall, auc


def copying_label_components(mask: np.ndarray, connectivity: int):
    """Component labels in the mask's own axes: ``ndimage.label``, sizes by a
    bincount of every voxel, first x-fastest indices from an F-order copy of
    the labels, ids by (size desc, first index). Returns the float32 id map
    and the voxel counts in id order."""
    from scipy import ndimage

    rank = {6: 1, 18: 2, 26: 3}[connectivity]
    raw, n = ndimage.label(mask > 0, structure=ndimage.generate_binary_structure(3, rank))
    counts = np.bincount(raw.ravel())[1:]
    flat = raw.ravel(order="F")
    fg_idx = np.flatnonzero(flat)
    first_idx = np.full(n, flat.size, dtype=fg_idx.dtype)
    np.minimum.at(first_idx, flat[fg_idx] - 1, fg_idx)
    order = np.lexsort((first_idx, -counts))
    remap = np.zeros(n + 1, dtype=np.float32)
    remap[order + 1] = np.arange(1, n + 1, dtype=np.float32)
    return remap[raw], counts[order]


# ---------------------------------------------------------------------------
# statistics oracles


def solve_longdouble(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting at extended precision."""
    a = a.astype(np.longdouble).copy()
    b = b.astype(np.longdouble).copy()
    n = a.shape[0]
    for i in range(n):
        piv = int(np.argmax(np.abs(a[i:, i]))) + i
        if piv != i:
            a[[i, piv]] = a[[piv, i]]
            b[[i, piv]] = b[[piv, i]]
        for j in range(i + 1, n):
            f = a[j, i] / a[i, i]
            a[j, i:] -= f * a[i, i:]
            b[j] -= f * b[i]
    x = np.zeros(n, dtype=np.longdouble)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def inverse_longdouble(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    cols = [solve_longdouble(a, np.eye(n, dtype=np.longdouble)[:, i]) for i in range(n)]
    return np.stack(cols, axis=1)


def ols_normal_equations(X: np.ndarray, y: np.ndarray):
    """OLS by normal equations at extended precision; returns beta, se, t, p."""
    Xl = X.astype(np.longdouble)
    yl = y.astype(np.longdouble)
    xtx = Xl.T @ Xl
    beta = solve_longdouble(xtx, Xl.T @ yl)
    resid = yl - Xl @ beta
    n, k = X.shape
    rss = float(resid @ resid)
    sigma2 = rss / (n - k)
    cov = inverse_longdouble(xtx) * np.longdouble(sigma2)
    se = np.sqrt(np.diag(cov)).astype(np.float64)
    beta64 = beta.astype(np.float64)
    t = beta64 / se
    p = np.array([t_two_sided_p_series(float(tv), n - k) for tv in t])
    tss = float(((yl - yl.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss
    return beta64, se, t, p, r2


def betainc_series(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta via the hypergeometric power series."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc_series(b, a, 1.0 - x)
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front) / a
    total = term = 1.0
    n = 0
    while n < 200000:
        term *= (a + b + n) * x / (a + 1.0 + n)
        total += term
        n += 1
        if abs(term) < 1e-18 * abs(total):
            break
    return front * total


def t_two_sided_p_series(t: float, df: float) -> float:
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return min(1.0, max(0.0, betainc_series(df / 2.0, 0.5, x)))


def t_cdf_series(t: float, df: float) -> float:
    half = t_two_sided_p_series(t, df) / 2.0
    return half if t < 0 else 1.0 - half
