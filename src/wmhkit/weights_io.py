"""SGWT weight container: a JSON manifest plus one float32 blob.

Layout: bytes 0-3 magic ``SGWT``; bytes 4-7 version (u32 LE, currently 1);
bytes 8-11 manifest length (u32 LE); UTF-8 JSON manifest; tensor blob of
little-endian float32 values with offsets relative to the blob start.

The manifest lists one or more networks. A bundle for the full ensemble tags
each network with a role (``axial``/``sagittal``/``coronal``/``meta``);
single-network containers leave the role null.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from .errors import BadMagic, BadManifest, BadVersion, ShapeMismatch, TruncatedTensor
from .layers import LAYER_TYPES, Layer, _is_int
from .network import NetworkSpec

MAGIC = b"SGWT"
VERSION = 1

ENSEMBLE_ROLES = ("axial", "sagittal", "coronal", "meta")

# per layer class, the fields stored as blob tensors
_TENSOR_FIELDS = {
    cls: {name for name, hint in get_type_hints(cls).items() if hint is np.ndarray}
    for cls in LAYER_TYPES.values()
}


class _BlobWriter:
    def __init__(self):
        self.chunks: list[bytes] = []
        self.offset = 0

    def add(self, arr: np.ndarray) -> dict:
        entry = {"shape": list(arr.shape), "offset": self.offset}
        raw = np.asarray(arr, dtype="<f4").tobytes()
        self.chunks.append(raw)
        self.offset += len(raw)
        return entry


def _layer_to_manifest(name: str, layer: Layer, blob: _BlobWriter) -> dict:
    """Array fields become blob tensors in field order, tuples int lists."""
    entry = {"name": name, "type": layer.TYPE}
    for f in fields(layer):
        value = getattr(layer, f.name)
        if isinstance(value, np.ndarray):
            value = blob.add(value)
        elif isinstance(value, tuple):
            value = list(value)
        entry[f.name] = value
    return entry


def _network_to_manifest(net: NetworkSpec, role: str | None, blob: _BlobWriter) -> dict:
    return {
        "role": role,
        "in_channels": net.in_channels,
        "out_channels": net.out_channels,
        "layers": [_layer_to_manifest(name, layer, blob) for name, layer in net.layers],
    }


def _assemble(manifest: dict, blob: _BlobWriter) -> bytes:
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<II", VERSION, len(body))
    return header + body + b"".join(blob.chunks)


def save_ensemble(networks: dict[str, NetworkSpec]) -> bytes:
    """Bundle role-tagged networks (axial/sagittal/coronal/meta) in one container."""
    blob = _BlobWriter()
    manifest = {
        "networks": [_network_to_manifest(net, role, blob) for role, net in sorted(networks.items())]
    }
    return _assemble(manifest, blob)


def _read_tensor(entry, blob: bytes, what: str) -> np.ndarray:
    if not isinstance(entry, dict) or "shape" not in entry or "offset" not in entry:
        raise BadManifest(f"{what}: tensor entry must carry shape and offset")
    shape = entry["shape"]
    offset = entry["offset"]
    # JSON integers only: ``true`` is not an offset of 1 nor a dimension of 1
    if (
        not isinstance(shape, list)
        or not all(_is_int(d) and d >= 1 for d in shape)
        or not _is_int(offset)
        or offset < 0
    ):
        raise BadManifest(f"{what}: malformed tensor entry {entry}")
    count = 1
    for d in shape:
        count *= d
    end = offset + 4 * count
    if end > len(blob):
        raise TruncatedTensor(
            f"{what}: needs bytes [{offset}, {end}) but blob has {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    return flat.reshape(shape).astype(np.float32)


def _layer_from_manifest(entry: dict, blob: bytes) -> tuple[str, Layer]:
    if not isinstance(entry, dict) or "type" not in entry or "name" not in entry:
        raise BadManifest(f"layer entry must carry name and type: {entry}")
    name = str(entry["name"])
    kind = entry["type"]
    cls = LAYER_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise BadManifest(f"unknown layer type {kind!r}")
    # a field left out of the entry takes its default; without one the constructor refuses
    params = {}
    for f in fields(cls):
        if f.name in entry:
            value = entry[f.name]
            params[f.name] = _read_tensor(value, blob, f"{name}.{f.name}") if f.name in _TENSOR_FIELDS[cls] else value
    try:
        return name, cls(**params)
    except (ShapeMismatch, TypeError, ValueError) as exc:
        raise BadManifest(f"layer {name!r} has malformed parameters: {exc}") from exc


def _channel_count(entry: dict, key: str) -> int:
    """A network's channel count, which must be a JSON integer: ``1.9``, ``"1"``
    and ``true`` are refused, not read as 1."""
    value = entry[key]
    if not _is_int(value):
        raise BadManifest(f"network {key} must be an integer, got {value!r}")
    return value


def _network_from_manifest(entry: dict, blob: bytes) -> NetworkSpec:
    try:
        layers = tuple(_layer_from_manifest(e, blob) for e in entry["layers"])
        net = NetworkSpec(
            layers=layers,
            in_channels=_channel_count(entry, "in_channels"),
            out_channels=_channel_count(entry, "out_channels"),
        )
    except KeyError as exc:
        raise BadManifest(f"network entry missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BadManifest(f"network entry is malformed: {exc}") from exc
    net.validate()  # raises ShapeCheckFailed
    return net


def _parse_container(raw: bytes) -> tuple[list[dict], bytes]:
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagic(f"container magic {raw[:4]!r} is not {MAGIC!r}")
    if len(raw) < 12:
        raise BadManifest("container too short for version and manifest length")
    version, mlen = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise BadVersion(f"container version {version}, expected {VERSION}")
    if 12 + mlen > len(raw):
        raise BadManifest(f"manifest claims {mlen} bytes, container has {len(raw) - 12}")
    try:
        manifest = json.loads(raw[12 : 12 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadManifest(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("networks"), list):
        raise BadManifest("manifest must be an object with a 'networks' list")
    return manifest["networks"], raw[12 + mlen :]


def load_network(raw: bytes) -> NetworkSpec:
    """Materialize a single-network container; the result passes shape check."""
    entries, blob = _parse_container(raw)
    if len(entries) != 1:
        raise BadManifest(
            f"expected a single network, container holds {len(entries)}; use load_ensemble"
        )
    return _network_from_manifest(entries[0], blob)


def load_ensemble(raw: bytes) -> dict[str, NetworkSpec]:
    """Materialize a role-tagged bundle as a role -> network mapping."""
    entries, blob = _parse_container(raw)
    out: dict[str, NetworkSpec] = {}
    for entry in entries:
        role = entry.get("role") if isinstance(entry, dict) else None
        if role is None:
            raise BadManifest("ensemble container requires a role tag on every network")
        if role in out:
            raise BadManifest(f"duplicate role {role!r} in container")
        out[str(role)] = _network_from_manifest(entry, blob)
    return out
