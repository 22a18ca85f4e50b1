import json
import struct

import numpy as np
import pytest

from wmhkit.errors import (
    BadMagic,
    BadManifest,
    BadVersion,
    ShapeCheckFailed,
    TruncatedTensor,
)
from wmhkit.layers import BatchNorm, Concat, Conv3D, MaxPool, ReLU, Softmax, UpsampleNearest
from wmhkit.network import NetworkSpec, forward
from wmhkit.phantom import mean_threshold_meta_net, threshold_detector_net
from wmhkit.weights_io import load_ensemble, load_network, save_ensemble


def _rich_net(rng):
    conv1 = Conv3D(
        weights=rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32),
        bias=rng.normal(size=4).astype(np.float32),
        padding=(1, 1, 1),
    )
    bn = BatchNorm(
        gamma=rng.normal(size=4).astype(np.float32),
        beta=rng.normal(size=4).astype(np.float32),
        mean=rng.normal(size=4).astype(np.float32),
        var=rng.uniform(0.5, 2.0, size=4).astype(np.float32),
        eps=1e-5,
    )
    head = Conv3D(
        weights=rng.normal(size=(2, 8, 1, 1, 1)).astype(np.float32),
        bias=rng.normal(size=2).astype(np.float32),
    )
    return NetworkSpec(
        layers=(
            ("enc", conv1),
            ("bn", bn),
            ("act", ReLU()),
            ("pool", MaxPool(kernel=(2, 2, 2), stride=(2, 2, 2))),
            ("up", UpsampleNearest(factor=2)),
            ("skip", Concat(source="act")),
            ("head", head),
            ("post", Softmax()),
        ),
        in_channels=1,
        out_channels=2,
    )


DROP = object()


def _edit_layer(raw: bytes, layer_name: str, **changes) -> bytes:
    """Container whose named layer entry has ``changes`` applied; DROP removes a key."""
    (mlen,) = struct.unpack_from("<I", raw, 8)
    manifest = json.loads(raw[12 : 12 + mlen])
    for net in manifest["networks"]:
        for entry in net["layers"]:
            if entry["name"] == layer_name:
                for key, value in changes.items():
                    if value is DROP:
                        del entry[key]
                    else:
                        entry[key] = value
    body = json.dumps(manifest).encode()
    return raw[:4] + struct.pack("<II", 1, len(body)) + body + raw[12 + mlen :]


class TestRoundTrip:
    def test_single_network(self, rng):
        net = _rich_net(rng)
        raw = save_ensemble({None: net})
        loaded = load_network(raw)
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        assert np.array_equal(forward(net, x), forward(loaded, x))

    def test_canonical_bytes_stable(self, rng):
        net = _rich_net(rng)
        raw = save_ensemble({None: net})
        assert save_ensemble({None: load_network(raw)}) == raw

    def test_wire_format_pinned(self, rng):
        # every manifest key of all seven layer types, and the blob order
        net = _rich_net(rng)
        raw = save_ensemble({None: net})
        (mlen,) = struct.unpack_from("<I", raw, 8)
        manifest = json.loads(raw[12 : 12 + mlen])
        assert raw[12 : 12 + mlen] == json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()

        def t(shape, offset):
            return {"shape": shape, "offset": offset}

        assert manifest == {
            "networks": [
                {
                    "role": None,
                    "in_channels": 1,
                    "out_channels": 2,
                    "layers": [
                        {"name": "enc", "type": "conv3d", "stride": [1, 1, 1], "padding": [1, 1, 1],
                         "weights": t([4, 1, 3, 3, 3], 0), "bias": t([4], 432)},
                        {"name": "bn", "type": "batchnorm", "eps": 1e-5, "gamma": t([4], 448),
                         "beta": t([4], 464), "mean": t([4], 480), "var": t([4], 496)},
                        {"name": "act", "type": "relu"},
                        {"name": "pool", "type": "maxpool", "kernel": [2, 2, 2], "stride": [2, 2, 2]},
                        {"name": "up", "type": "upsample", "factor": 2},
                        {"name": "skip", "type": "concat", "source": "act"},
                        {"name": "head", "type": "conv3d", "stride": [1, 1, 1], "padding": [0, 0, 0],
                         "weights": t([2, 8, 1, 1, 1], 512), "bias": t([2], 576)},
                        {"name": "post", "type": "softmax"},
                    ],
                }
            ]
        }
        layers = dict(net.layers)
        conv, bn, head = layers["enc"], layers["bn"], layers["head"]
        tensors = (conv.weights, conv.bias, bn.gamma, bn.beta, bn.mean, bn.var, head.weights, head.bias)
        assert raw[12 + mlen :] == b"".join(np.asarray(a, "<f4").tobytes() for a in tensors)

    def test_optional_fields_take_their_defaults(self, rng):
        raw = save_ensemble({None: _rich_net(rng)})
        trimmed = _edit_layer(raw, "pool", kernel=DROP, stride=DROP)
        trimmed = _edit_layer(trimmed, "head", stride=DROP, padding=DROP)
        trimmed = _edit_layer(trimmed, "bn", eps=DROP)
        assert save_ensemble({None: load_network(trimmed)}) == raw

    def test_ensemble_roles(self):
        nets = {
            "axial": threshold_detector_net(1.0),
            "sagittal": threshold_detector_net(1.0),
            "coronal": threshold_detector_net(1.0),
            "meta": mean_threshold_meta_net(),
        }
        loaded = load_ensemble(save_ensemble(nets))
        assert set(loaded) == {"axial", "sagittal", "coronal", "meta"}
        assert loaded["meta"].in_channels == 3

    def test_role_tagged_single_network_loads(self):
        raw = save_ensemble({"axial": threshold_detector_net(0.5)})
        assert load_network(raw).in_channels == 1

    def test_multi_network_container_rejected_by_load_network(self):
        raw = save_ensemble(
            {"axial": threshold_detector_net(0.5), "meta": mean_threshold_meta_net()}
        )
        with pytest.raises(BadManifest):
            load_network(raw)

    def test_ensemble_requires_roles(self):
        raw = save_ensemble({None: threshold_detector_net(0.5)})
        with pytest.raises(BadManifest):
            load_ensemble(raw)


class TestContainerErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_network(b"XXXX" + b"\x00" * 20)

    def test_bad_version(self):
        raw = bytearray(save_ensemble({None: threshold_detector_net(0.5)}))
        struct.pack_into("<I", raw, 4, 99)
        with pytest.raises(BadVersion):
            load_network(bytes(raw))

    def test_manifest_length_beyond_file(self):
        raw = bytearray(save_ensemble({None: threshold_detector_net(0.5)}))
        struct.pack_into("<I", raw, 8, 10**6)
        with pytest.raises(BadManifest):
            load_network(bytes(raw))

    def test_manifest_not_json(self):
        raw = bytearray(save_ensemble({None: threshold_detector_net(0.5)}))
        mlen = struct.unpack_from("<I", raw, 8)[0]
        raw[12 : 12 + 4] = b"!!!!"
        with pytest.raises(BadManifest):
            load_network(bytes(raw))

    def test_truncated_tensor(self):
        raw = save_ensemble({None: threshold_detector_net(0.5)})
        with pytest.raises(TruncatedTensor):
            load_network(raw[:-4])

    def test_shape_check_failed_on_channel_mismatch(self, rng):
        # manifest declares a conv whose Cin disagrees with the upstream channels
        net = NetworkSpec(
            layers=(
                (
                    "a",
                    Conv3D(
                        weights=rng.normal(size=(2, 1, 1, 1, 1)).astype(np.float32),
                        bias=np.zeros(2, np.float32),
                    ),
                ),
                (
                    "b",
                    Conv3D(
                        weights=rng.normal(size=(2, 3, 1, 1, 1)).astype(np.float32),
                        bias=np.zeros(2, np.float32),
                    ),
                ),
            ),
            in_channels=1,
            out_channels=2,
        )
        raw = save_ensemble({None: net})
        with pytest.raises(ShapeCheckFailed):
            load_network(raw)

    @pytest.mark.parametrize(
        "layer, changes",
        [
            ("enc", {"stride": [1.0, 1, 1]}),
            ("enc", {"padding": [1, True, 1]}),
            ("pool", {"kernel": [2, 2.0, 2]}),
            ("pool", {"stride": 2}),
            ("up", {"factor": 2.7}),
            ("up", {"factor": 2.0}),
            ("skip", {"source": 3}),
            ("bn", {"eps": [1e-5]}),
            ("post", {"type": "dense"}),
            ("post", {"type": ["softmax"]}),
            ("enc", {"weights": DROP}),
            ("bn", {"var": DROP}),
            ("skip", {"source": DROP}),
            ("up", {"factor": DROP, "type": "conv3d"}),
        ],
    )
    def test_malformed_layer_entry(self, rng, layer, changes):
        raw = _edit_layer(save_ensemble({None: _rich_net(rng)}), layer, **changes)
        with pytest.raises(BadManifest):
            load_network(raw)

    @pytest.mark.parametrize("key", ["in_channels", "out_channels"])
    @pytest.mark.parametrize("loose", [lambda n: n + 0.9, float, str, lambda n: True, lambda n: None, lambda n: [n]],
                             ids=["fraction", "float", "string", "true", "null", "list"])
    def test_channel_count_must_be_a_json_integer(self, key, loose):
        # the first three once loaded as the count through int(...), and true as 1
        raw = save_ensemble({None: threshold_detector_net(0.5)})
        (mlen,) = struct.unpack_from("<I", raw, 8)
        manifest = json.loads(raw[12 : 12 + mlen])
        manifest["networks"][0][key] = loose(manifest["networks"][0][key])
        body = json.dumps(manifest).encode()
        with pytest.raises(BadManifest, match=f"network {key} must be an integer"):
            load_network(raw[:8] + struct.pack("<I", len(body)) + body + raw[12 + mlen :])

    @pytest.mark.parametrize(
        "tensor, key, loose",
        [("bias", "offset", lambda v: True), ("weights", "shape", lambda v: [v[0], True, *v[2:]])],
        ids=["offset-true", "shape-true"],
    )
    def test_tensor_entry_must_hold_json_integers(self, rng, tensor, key, loose):
        # true once passed as 1: an offset of true read the bias one byte off,
        # and a dimension of true failed only later, as a malformed network
        raw = save_ensemble({None: _rich_net(rng)})
        (mlen,) = struct.unpack_from("<I", raw, 8)
        layers = json.loads(raw[12 : 12 + mlen])["networks"][0]["layers"]
        entry = next(e for e in layers if e["name"] == "head")[tensor]
        edited = _edit_layer(raw, "head", **{tensor: {**entry, key: loose(entry[key])}})
        with pytest.raises(BadManifest, match=rf"head\.{tensor}: malformed tensor entry"):
            load_network(edited)

    @pytest.mark.parametrize("eps", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_bad_batchnorm_eps(self, rng, eps):
        # json writes NaN and Infinity as bare tokens, which the reader accepts
        raw = _edit_layer(save_ensemble({None: _rich_net(rng)}), "bn", eps=eps)
        with pytest.raises(BadManifest, match="eps"):
            load_network(raw)
