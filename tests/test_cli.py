import argparse
import gzip
import hashlib
import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from scipy import ndimage

from nets import five_pool_net, unet_net
from oracles import pr_tsv_text
from wmhkit import cli, volume
from wmhkit.cli import main
from wmhkit.cohort import parse_numeric_columns, synthetic_cohort, write_cohort_csv
from wmhkit.ensemble import EnsembleSpec, predict_ensemble
from wmhkit.errors import DegenerateError
from wmhkit.histo import HistParams, histogram_segment
from wmhkit.layers import blas_threads, set_blas_threads
from wmhkit.nifti import DATA_OFFSET, parse_nifti, write_nifti
from wmhkit.phantom import _ellipsoid_mask, make_phantom
from wmhkit.stats import paired_ttest
from wmhkit.volume import Volume3D, normalize_intensity
from wmhkit.weights_io import load_ensemble, save_ensemble

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text())


def _schema_errors(value, schema: dict, where: str) -> list[str]:
    """What ``value`` breaks of ``schema``, in the subset of JSON Schema that
    the shipped schema uses: $ref, oneOf, type, const, enum, required,
    properties and items."""
    if "$ref" in schema:
        schema = SCHEMA["definitions"][schema["$ref"].rsplit("/", 1)[1]]
    if "oneOf" in schema:
        matches = sum(not _schema_errors(value, alt, where) for alt in schema["oneOf"])
        if matches != 1:
            return [f"{where} matches {matches} of its oneOf alternatives"]
    kinds = {"object": dict, "array": list, "string": str, "integer": int}
    if "type" in schema and not isinstance(value, kinds[schema["type"]]):
        return [f"{where} is not of type {schema['type']}"]
    if value != schema.get("const", value) or value not in schema.get("enum", [value]):
        return [f"{where} has the disallowed value {value!r}"]
    errors = [f"{where} lacks {key}" for key in schema.get("required", ()) if key not in value]
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            errors += _schema_errors(value[key], sub, f"{where}.{key}")
    for i, item in enumerate(value if "items" in schema else ()):
        errors += _schema_errors(item, schema["items"], f"{where}[{i}]")
    return errors


def validate_report(report: dict) -> None:
    """Check a report against the shipped schema (manifest + payload), and
    each input digest against the file it names."""
    errors = _schema_errors(report, SCHEMA, "report")
    assert not errors, errors
    manifest = report["manifest"]
    errors = _schema_errors(report, SCHEMA["payloads"][manifest["subcommand"]], "payload")
    assert not errors, errors
    for path, digest in manifest["input_digests"].items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest, path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def envelope(out: str) -> dict:
    """The one JSON report that makes up a run's stdout, validated."""
    report = json.loads(out)
    validate_report(report)
    return report


def _network(manifest: dict, role: str) -> dict:
    return next(net for net in manifest["networks"] if net["role"] == role)


def _edited_bundle(phantom_dir, tmp_path, edit) -> Path:
    """A copy of the phantom's weight bundle after ``edit(manifest, blob)``,
    where ``blob`` is a bytearray of the tensors that ``edit`` may extend."""
    raw = (phantom_dir / "weights.sgwt").read_bytes()
    (mlen,) = struct.unpack_from("<I", raw, 8)
    manifest = json.loads(raw[12 : 12 + mlen])
    blob = bytearray(raw[12 + mlen :])
    edit(manifest, blob)
    body = json.dumps(manifest).encode()
    path = tmp_path / "edited.sgwt"
    path.write_bytes(raw[:8] + struct.pack("<I", len(body)) + body + bytes(blob))
    return path


def _segment(phantom_dir, tmp_path, weights) -> int:
    return main(
        [
            "segment",
            "--flair", str(phantom_dir / "flair.nii.gz"),
            "--mask", str(phantom_dir / "brain_mask.nii.gz"),
            "--weights", str(weights),
            "--out-dir", str(tmp_path / "seg"),
        ]
    )


def _datatype(path) -> tuple[int, int]:
    """(datatype, bitpix) from the header of a .nii.gz file."""
    return struct.unpack_from("<2h", gzip.decompress(Path(path).read_bytes()), 70)


def _expected_posterior_payload(phantom_dir, flair_path, mask_path) -> bytes:
    """The posterior's NIfTI payload as a float32 writer lays it out: the
    ensemble posterior cast to little-endian float32, x fastest."""
    nets = load_ensemble((phantom_dir / "weights.sgwt").read_bytes())
    flair = parse_nifti(Path(flair_path).read_bytes())
    mask = parse_nifti(Path(mask_path).read_bytes())
    spec = EnsembleSpec(axial_net=nets["axial"], sagittal_net=nets["sagittal"],
                        coronal_net=nets["coronal"], meta_net=nets["meta"])
    post = predict_ensemble(spec, normalize_intensity(flair, mask), mask)
    return post.data.astype("<f4").ravel(order="F").tobytes()


def _assert_segment_outputs(phantom_dir, flair_path, mask_path, out_dir, stem) -> None:
    """The posterior is float32 with the ensemble's bits; the mask is uint8 and
    equals posterior > 0.5."""
    post_path = out_dir / f"{stem}.posterior.nii.gz"
    mask_out = out_dir / f"{stem}.mask.nii.gz"
    assert _datatype(post_path) == (16, 32)
    assert gzip.decompress(post_path.read_bytes())[DATA_OFFSET:] == _expected_posterior_payload(
        phantom_dir, flair_path, mask_path
    )
    assert _datatype(mask_out) == (2, 8)
    post = parse_nifti(post_path.read_bytes())
    mask = parse_nifti(mask_out.read_bytes())
    assert np.array_equal(mask.data, (post.data > 0.5).astype(np.float32))
    assert mask.orientation == post.orientation


def _batch_dirs(tmp_path, capsys, names) -> tuple[Path, Path, Path]:
    """Flair and mask directories holding one 16^3 phantom per file name (the
    mask under the name's stem, as .nii.gz), and the weights of the last."""
    flair_dir, mask_dir = tmp_path / "flairs", tmp_path / "masks"
    flair_dir.mkdir()
    mask_dir.mkdir()
    for seed, name in enumerate(names):
        pdir = tmp_path / f"p{seed}"
        assert main(["phantom", "--out-dir", str(pdir), "--seed", str(seed), "--shape", "16,16,16"]) == 0
        (flair_dir / name).write_bytes((pdir / "flair.nii.gz").read_bytes())
        stem = name.split(".")[0]
        (mask_dir / f"{stem}.nii.gz").write_bytes((pdir / "brain_mask.nii.gz").read_bytes())
    capsys.readouterr()
    return flair_dir, mask_dir, pdir / "weights.sgwt"


def _with_nan(flair_path, mask_path, out_path) -> Path:
    """Write to ``out_path`` a FLAIR volume with its first in-mask voxel set to NaN."""
    flair = parse_nifti(Path(flair_path).read_bytes())
    mask = parse_nifti(Path(mask_path).read_bytes())
    data = flair.data.copy()
    data[tuple(np.argwhere(mask.data > 0)[0])] = np.nan
    Path(out_path).write_bytes(write_nifti(flair.with_data(data), compress=True))
    return Path(out_path)


@pytest.fixture
def phantom_dir(tmp_path, capsys):
    out = tmp_path / "phantom"
    code = main(["phantom", "--out-dir", str(out), "--seed", "0", "--shape", "24,24,24"])
    capsys.readouterr()
    assert code == 0
    return out


def test_stage_times_exclude_nested_stages_and_add_up(monkeypatch):
    clock = iter([0.0, 1.0, 1.25, 2.0, 2.5, 4.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    run = cli.Run(argparse.Namespace(subcommand="evaluate", func=None, pred="p.nii"))
    with run.stage("parse"):
        with run.stage("digest"):
            pass
        with run.stage("digest"):
            pass
    manifest = run.envelope({})["manifest"]
    assert manifest["timings_ms"] == {"parse": 3250.0, "digest": 750.0}
    assert manifest["parameters"] == {"pred": "p.nii"}


class TestPhantom:
    def test_outputs_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["phantom", "--out-dir", str(a), "--seed", "3", "--shape", "16,16,16"]) == 0
        assert main(["phantom", "--out-dir", str(b), "--seed", "3", "--shape", "16,16,16"]) == 0
        capsys.readouterr()
        for name in ("flair.nii.gz", "brain_mask.nii.gz", "gt.nii.gz", "weights.sgwt", "phantom.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seeds_differ(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["phantom", "--out-dir", str(a), "--seed", "1", "--shape", "16,16,16"])
        main(["phantom", "--out-dir", str(b), "--seed", "2", "--shape", "16,16,16"])
        capsys.readouterr()
        assert (a / "flair.nii.gz").read_bytes() != (b / "flair.nii.gz").read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 1), (64, 64, 3), (48, 40, 36), (96, 112, 80)])
    def test_brain_mask_is_the_whole_grid_ellipsoid(self, shape):
        # the reference sums three whole float64 coordinate grids in axis order
        acc = np.zeros(shape)
        for g, n in zip(np.meshgrid(*(np.arange(n, dtype=np.float64) for n in shape), indexing="ij"), shape):
            acc += ((g - (n - 1) / 2.0) / max(n * 0.42, 1.0)) ** 2
        assert np.array_equal(_ellipsoid_mask(shape), acc <= 1.0)

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        code = main(["phantom", "--out-dir", str(tmp_path / "p"), "--seed", "-1", "--shape", "16,16,16"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error [input]: seed must be non-negative, got -1\n"
        assert not (tmp_path / "p").exists()

    def test_emitted_weights_load(self, phantom_dir):
        from wmhkit.weights_io import load_ensemble, save_ensemble

        nets = load_ensemble((phantom_dir / "weights.sgwt").read_bytes())
        assert set(nets) == {"axial", "sagittal", "coronal", "meta"}

    def test_report_schema(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "phantom", "--out-dir", str(tmp_path / "p"), "--seed", "0", "--shape", "16,16,16"
        )
        assert code == 0
        assert envelope(out)["manifest"]["parameters"] == {
            "out_dir": str(tmp_path / "p"), "seed": 0, "shape": [16, 16, 16]
        }

    def test_thin_axis_places_whole_blobs(self, tmp_path, capsys):
        # a blob the volume edge would clip is rejected, so each one is a whole cube
        out_dir = tmp_path / "thin"
        assert main(["phantom", "--out-dir", str(out_dir), "--seed", "0", "--shape", "64,64,3"]) == 0
        capsys.readouterr()
        gt = parse_nifti((out_dir / "gt.nii.gz").read_bytes()).data
        labels, n = ndimage.label(gt)
        boxes = ndimage.find_objects(labels)
        assert n == 4 and int(gt.sum()) == 70
        assert sorted(tuple(b.stop - b.start for b in box) for box in boxes) == [(2, 2, 2)] * 2 + [(3, 3, 3)] * 2
        assert all(np.all(gt[box]) for box in boxes)

    def test_masks_are_uint8_and_flair_float32(self, phantom_dir):
        phantom = make_phantom(seed=0, shape=(24, 24, 24))
        assert _datatype(phantom_dir / "flair.nii.gz") == (16, 32)
        for name, want in (("brain_mask.nii.gz", phantom.brain_mask), ("gt.nii.gz", phantom.gt_mask)):
            assert _datatype(phantom_dir / name) == (2, 8)
            assert np.array_equal(parse_nifti((phantom_dir / name).read_bytes()).data, want.data)


class TestSegment:
    def test_phantom_segmentation_reproduces_gt(self, phantom_dir, tmp_path, capsys):
        out_dir = tmp_path / "seg"
        code, out = run_cli(
            capsys,
            "segment",
            "--flair", str(phantom_dir / "flair.nii.gz"),
            "--mask", str(phantom_dir / "brain_mask.nii.gz"),
            "--weights", str(phantom_dir / "weights.sgwt"),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        report = envelope(out)
        pred = parse_nifti((out_dir / "flair.mask.nii.gz").read_bytes())
        gt = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        assert np.array_equal(pred.data, gt.data)
        assert report["wmh_ml"] == pytest.approx(float(gt.data.sum()) / 1000.0)
        assert report["lesion_count"] >= 1
        assert (out_dir / "flair.report.json").exists()
        _assert_segment_outputs(
            phantom_dir, phantom_dir / "flair.nii.gz", phantom_dir / "brain_mask.nii.gz", out_dir, "flair"
        )

    def test_missing_weights_is_io_error(self, phantom_dir, tmp_path, capsys):
        code = main(
            [
                "segment",
                "--flair", str(phantom_dir / "flair.nii.gz"),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--weights", str(tmp_path / "nope.sgwt"),
                "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_no_weights_and_no_env_is_io_error(self, phantom_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("WMHKIT_WEIGHTS_DIR", raising=False)
        code = main(
            [
                "segment",
                "--flair", str(phantom_dir / "flair.nii.gz"),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_env_weights_dir(self, phantom_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WMHKIT_WEIGHTS_DIR", str(phantom_dir))
        code, out = run_cli(
            capsys,
            "segment",
            "--flair", str(phantom_dir / "flair.nii.gz"),
            "--mask", str(phantom_dir / "brain_mask.nii.gz"),
            "--out-dir", str(tmp_path / "seg"),
        )
        assert code == 0
        manifest = envelope(out)["manifest"]
        weights = str(phantom_dir / "weights.sgwt")
        assert manifest["parameters"]["weights"] == weights and weights in manifest["input_digests"]
        assert set(manifest["timings_ms"]) == {"digest", "parse", "normalize", "inference", "postprocess", "write"}

    def test_weights_directory_with_one_container_per_network(
        self, phantom_dir, tmp_path, capsys
    ):
        nets = load_ensemble((phantom_dir / "weights.sgwt").read_bytes())
        wdir = tmp_path / "weights"
        wdir.mkdir()
        for role, net in nets.items():
            (wdir / f"{role}.sgwt").write_bytes(save_ensemble({role: net}))
        out_dir = tmp_path / "seg"
        code = main(
            [
                "segment",
                "--flair", str(phantom_dir / "flair.nii.gz"),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--weights", str(wdir),
                "--out-dir", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        pred = parse_nifti((out_dir / "flair.mask.nii.gz").read_bytes())
        gt = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        assert np.array_equal(pred.data, gt.data)

    def test_garbage_flair_is_format_error(self, phantom_dir, tmp_path, capsys):
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"not a volume" * 100)
        code = main(
            [
                "segment",
                "--flair", str(bad),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--weights", str(phantom_dir / "weights.sgwt"),
                "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 3

    def test_float_stride_in_bundle_is_format_error(self, phantom_dir, tmp_path, capsys):
        def float_stride(manifest, blob):
            manifest["networks"][0]["layers"][0]["stride"] = [1.0, 1, 1]

        code = _segment(phantom_dir, tmp_path, _edited_bundle(phantom_dir, tmp_path, float_stride))
        assert code == 3
        assert capsys.readouterr().err.startswith("error [format]:")

    def test_negative_batchnorm_eps_in_bundle_is_format_error(self, phantom_dir, tmp_path, capsys):
        def add_batchnorm(manifest, blob):
            axial = _network(manifest, "axial")
            entry = {"name": "bn", "type": "batchnorm", "eps": -1.0}
            for field, value in (("gamma", 1.0), ("beta", 0.0), ("mean", 0.0), ("var", 1.0)):
                entry[field] = {"shape": [2], "offset": len(blob)}
                blob += np.full(2, value, dtype="<f4").tobytes()
            axial["layers"].insert(1, entry)  # between the logits conv and the softmax

        code = _segment(phantom_dir, tmp_path, _edited_bundle(phantom_dir, tmp_path, add_batchnorm))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error [format]:") and "eps" in err

    def test_non_integer_channel_count_in_bundle_is_format_error(self, phantom_dir, tmp_path, capsys):
        def float_channels(manifest, blob):
            _network(manifest, "meta")["in_channels"] = 3.0

        code = _segment(phantom_dir, tmp_path, _edited_bundle(phantom_dir, tmp_path, float_channels))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error [format]:") and "in_channels must be an integer" in err

    def test_boolean_tensor_offset_in_bundle_is_format_error(self, phantom_dir, tmp_path, capsys):
        # an offset of true once loaded the bias one byte off
        def true_offset(manifest, blob):
            _network(manifest, "axial")["layers"][0]["bias"]["offset"] = True

        code = _segment(phantom_dir, tmp_path, _edited_bundle(phantom_dir, tmp_path, true_offset))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error [format]:") and ".bias: malformed tensor entry" in err

    def test_five_pool_bundle_loads_and_segments(self, tmp_path, capsys):
        # loading once probed every net at 16^3, which five 2x pools cannot take
        ph = tmp_path / "ph"
        assert main(["phantom", "--out-dir", str(ph), "--seed", "0", "--shape", "64,64,64"]) == 0
        nets = load_ensemble((ph / "weights.sgwt").read_bytes())
        weights = tmp_path / "deep.sgwt"
        weights.write_bytes(save_ensemble({role: five_pool_net(net) for role, net in nets.items()}))
        code = main(
            [
                "segment",
                "--flair", str(ph / "flair.nii.gz"),
                "--mask", str(ph / "brain_mask.nii.gz"),
                "--weights", str(weights),
                "--tile", "128",
                "--out-dir", str(tmp_path / "seg"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "seg" / "flair.mask.nii.gz").exists()

    def test_wrong_channel_count_in_bundle_is_format_error(self, phantom_dir, tmp_path, capsys):
        def one_input_meta(manifest, blob):
            meta = _network(manifest, "meta")
            meta["in_channels"] = 1
            meta["layers"][0]["weights"]["shape"] = [2, 1, 1, 1, 1]  # a valid 1-in net

        code = _segment(phantom_dir, tmp_path, _edited_bundle(phantom_dir, tmp_path, one_input_meta))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error [format]:") and "3-in/2-out" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--threshold", "1.5"), ("--threshold", "0"), ("--tile", "0"), ("--jobs", "0"), ("--jobs", "-1"),
        ],
    )
    def test_bad_ensemble_arguments_are_input_errors(self, phantom_dir, tmp_path, capsys, flag, value):
        code = main(
            [
                "segment",
                "--flair", str(phantom_dir / "flair.nii.gz"),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--weights", str(phantom_dir / "weights.sgwt"),
                "--out-dir", str(tmp_path),
                flag, value,
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error [input]:") and len(err.splitlines()) == 1

    def test_constant_flair_is_degenerate(self, phantom_dir, tmp_path, capsys):
        flat = Volume3D(np.full((24, 24, 24), 5.0, dtype=np.float32))
        p = tmp_path / "flat.nii"
        p.write_bytes(write_nifti(flat))
        code = main(
            [
                "segment",
                "--flair", str(p),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--weights", str(phantom_dir / "weights.sgwt"),
                "--out-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 1

    def test_non_finite_in_mask_flair_fails_only_its_subject(self, tmp_path, capsys):
        flair_dir, mask_dir, weights = _batch_dirs(tmp_path, capsys, ["a.nii.gz", "b.nii.gz", "c.nii.gz"])
        _with_nan(flair_dir / "b.nii.gz", mask_dir / "b.nii.gz", flair_dir / "b.nii.gz")
        code = main(["segment", "--flair", str(flair_dir), "--mask", str(mask_dir), "--weights", str(weights),
                     "--out-dir", str(tmp_path / "batch"), "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 3
        report = envelope(captured.out)
        assert report["failed"] == 1
        assert [(s["status"], s.get("category")) for s in report["subjects"]] == [
            ("ok", None), ("error", "shape"), ("ok", None)
        ]

    def test_batch_mode_with_jobs(self, tmp_path, capsys):
        flair_dir, mask_dir, weights = _batch_dirs(tmp_path, capsys, [f"s{seed}.nii.gz" for seed in (0, 1, 2)])
        out_dir = tmp_path / "batch"
        code, out = run_cli(
            capsys,
            "segment",
            "--flair", str(flair_dir),
            "--mask", str(mask_dir),
            "--weights", str(weights),
            "--out-dir", str(out_dir),
            "--jobs", "2",
        )
        assert code == 0
        report = envelope(out)
        assert report["failed"] == 0
        assert set(report["manifest"]["timings_ms"]) == {"digest", "subjects"}
        assert [s["flair"] for s in report["subjects"]] == [str(flair_dir / f"s{seed}.nii.gz") for seed in (0, 1, 2)]
        for seed, subject in enumerate(report["subjects"]):
            assert subject["status"] == "ok" and subject["report"] == str(out_dir / f"s{seed}.report.json")
            subject_report = json.loads((out_dir / f"s{seed}.report.json").read_text())
            validate_report(subject_report)
            assert subject_report["wmh_ml"] == subject["wmh_ml"]
            mask = str(mask_dir / f"s{seed}.nii.gz")
            assert subject_report["manifest"]["parameters"]["flair"] == subject["flair"]
            assert subject_report["manifest"]["parameters"]["mask"] == mask
            assert set(subject_report["manifest"]["input_digests"]) == {subject["flair"], mask, str(weights)}
            _assert_segment_outputs(weights.parent, flair_dir / f"s{seed}.nii.gz",
                                    mask_dir / f"s{seed}.nii.gz", out_dir, f"s{seed}")

    def test_batch_rejects_two_volumes_with_one_stem(self, tmp_path, capsys):
        flair_dir, mask_dir, weights = _batch_dirs(tmp_path, capsys, ["sub.nii.gz", "other.nii.gz"])
        plain = gzip.decompress((flair_dir / "sub.nii.gz").read_bytes())
        (flair_dir / "sub.nii").write_bytes(plain)
        out_dir = tmp_path / "batch"
        code = main(["segment", "--flair", str(flair_dir), "--mask", str(mask_dir),
                     "--weights", str(weights), "--out-dir", str(out_dir), "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input]:") and len(captured.err.splitlines()) == 1
        assert str(flair_dir / "sub.nii") in captured.err and str(flair_dir / "sub.nii.gz") in captured.err
        assert not out_dir.exists()

    def test_tile_below_the_nets_minimum_is_shape_error(self, tmp_path, capsys, rng):
        # 3^3 U-Nets have halo 5 on pool grid 2: an input tile needs 6 + 2 + 6
        # voxels per axis, so --tile 13 leaves no core
        weights = tmp_path / "unet.sgwt"
        weights.write_bytes(save_ensemble({role: unet_net(rng, 3 if role == "meta" else 1, 2)
                                           for role in ("axial", "sagittal", "coronal", "meta")}))
        flair_dir, mask_dir, _ = _batch_dirs(tmp_path, capsys, ["a.nii.gz", "b.nii.gz"])
        for flair, mask in ((flair_dir / "a.nii.gz", mask_dir / "a.nii.gz"), (flair_dir, mask_dir)):
            out_dir = tmp_path / "seg"
            code = main(["segment", "--flair", str(flair), "--mask", str(mask), "--weights", str(weights),
                         "--out-dir", str(out_dir), "--tile", "13"])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error [shape]:") and len(captured.err.splitlines()) == 1
            assert not out_dir.exists()
        assert main(["segment", "--flair", str(flair_dir), "--mask", str(mask_dir), "--weights", str(weights),
                     "--out-dir", str(tmp_path / "seg"), "--tile", "16"]) == 0

    def test_concat_net_batch_is_the_same_on_two_jobs(self, tmp_path, capsys, rng):
        # batch threads share one ensemble of U-Nets whose Concat parts forward
        # places in each call's own output buffers
        weights = tmp_path / "unet.sgwt"
        weights.write_bytes(save_ensemble({role: unet_net(rng, 3 if role == "meta" else 1, 4)
                                           for role in ("axial", "sagittal", "coronal", "meta")}))
        flair_dir, mask_dir, _ = _batch_dirs(tmp_path, capsys, ["a.nii.gz", "b.nii.gz"])
        for jobs in ("1", "2"):
            assert main(["segment", "--flair", str(flair_dir), "--mask", str(mask_dir), "--weights", str(weights),
                         "--out-dir", str(tmp_path / f"jobs{jobs}"), "--jobs", jobs]) == 0
        capsys.readouterr()
        for stem, kind in product("ab", ("posterior", "mask")):
            name = f"{stem}.{kind}.nii.gz"
            one, two = (gzip.decompress((tmp_path / f"jobs{jobs}" / name).read_bytes()) for jobs in "12")
            assert one == two

    def test_failing_subject_keeps_the_rest_of_the_batch(self, tmp_path, capsys):
        names = [f"s{seed}.nii.gz" for seed in (0, 1, 2)]
        flair_dir, mask_dir, weights = _batch_dirs(tmp_path, capsys, names)
        argv = ["segment", "--mask", str(mask_dir), "--weights", str(weights), "--jobs", "2"]
        good_dir = tmp_path / "good"
        good_dir.mkdir()
        for name in ("s0.nii.gz", "s2.nii.gz"):
            (good_dir / name).write_bytes((flair_dir / name).read_bytes())
        assert main(argv + ["--flair", str(good_dir), "--out-dir", str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        bad = flair_dir / "s1.nii.gz"
        bad.write_bytes(b"garbage!")
        out_dir = tmp_path / "batch"
        code = main(argv + ["--flair", str(flair_dir), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error [format]: {bad}: ")
        report = envelope(captured.out)
        assert report["failed"] == 1
        assert [(s["flair"], s["status"]) for s in report["subjects"]] == [
            (str(flair_dir / "s0.nii.gz"), "ok"), (str(bad), "error"), (str(flair_dir / "s2.nii.gz"), "ok")
        ]
        assert report["subjects"][1]["category"] == "format"
        assert not (out_dir / "s1.report.json").exists()
        for stem in ("s0", "s2"):
            assert (out_dir / f"{stem}.report.json").exists()
            for kind in ("posterior", "mask"):
                name = f"{stem}.{kind}.nii.gz"
                assert (out_dir / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    @pytest.mark.parametrize("first, want", [("degenerate", 1), ("format", 3)])
    def test_batch_exits_with_the_first_failing_subject(self, tmp_path, capsys, first, want):
        flair_dir, mask_dir, weights = _batch_dirs(tmp_path, capsys, ["a.nii.gz", "b.nii.gz", "c.nii.gz"])
        flat = write_nifti(Volume3D(np.full((16, 16, 16), 5.0, dtype=np.float32)))
        degenerate, garbage = ("a", "c") if first == "degenerate" else ("c", "a")
        (flair_dir / f"{degenerate}.nii.gz").write_bytes(flat)
        (flair_dir / f"{garbage}.nii.gz").write_bytes(b"garbage!")
        code = main(["segment", "--flair", str(flair_dir), "--mask", str(mask_dir), "--weights", str(weights),
                     "--out-dir", str(tmp_path / "batch"), "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == want
        report = envelope(captured.out)
        assert report["failed"] == 2
        assert [s.get("category") for s in report["subjects"]] == (
            ["degenerate", None, "format"] if first == "degenerate" else ["format", None, "degenerate"]
        )
        assert [line.split("]")[0] for line in captured.err.splitlines()] == [
            f"error [{s['category']}" for s in report["subjects"] if s["status"] == "error"
        ]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_batch_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        flair_dir, mask_dir, weights = _batch_dirs(tmp_path, capsys, ["a.nii.gz"])
        out_dir = tmp_path / "batch"
        code = main(["segment", "--flair", str(flair_dir), "--mask", str(mask_dir),
                     "--weights", str(weights), "--out-dir", str(out_dir), "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input]:") and len(captured.err.splitlines()) == 1
        assert not out_dir.exists()

    def test_each_mask_is_checked_for_binariness_once(self, phantom_dir, tmp_path, capsys, monkeypatch):
        # each mask once, as parse_mask decodes it to bool: a 24^3 mask is
        # one decoded chunk, scanned once, and no whole volume is scanned;
        # every stage after that, and binarize's and histogram_segment's
        # outputs, are bool
        decoded, scanned = [], []
        real_parse, real_check = cli.parse_mask, volume.is_binary
        monkeypatch.setattr(cli, "parse_mask", lambda raw, name: decoded.append(name) or real_parse(raw, name))
        monkeypatch.setattr(volume, "is_binary", lambda d: scanned.append(d.shape) or real_check(d))
        assert _segment(phantom_dir, tmp_path, phantom_dir / "weights.sgwt") == 0
        assert (decoded, scanned) == (["brain mask"], [(24**3,)])  # --mask
        decoded.clear(), scanned.clear()
        assert main(["baseline", "--flair", str(phantom_dir / "flair.nii.gz"),
                     "--mask", str(phantom_dir / "brain_mask.nii.gz"), "--out-dir", str(tmp_path / "base")]) == 0
        assert (decoded, scanned) == (["brain mask"], [(24**3,)])  # --mask
        decoded.clear(), scanned.clear()
        seg = tmp_path / "seg"
        assert main(["evaluate", "--pred", str(seg / "flair.mask.nii.gz"), "--gt", str(phantom_dir / "gt.nii.gz"),
                     "--posterior", str(seg / "flair.posterior.nii.gz"),
                     "--mask", str(phantom_dir / "brain_mask.nii.gz"), "--out-pr-tsv", str(tmp_path / "pr.tsv")]) == 0
        assert decoded == ["pred mask", "gt mask", "brain mask"]
        assert scanned == [(24**3,)] * 3
        capsys.readouterr()

    def test_non_binary_brain_mask_is_shape_error(self, phantom_dir, tmp_path, capsys):
        mask = parse_nifti((phantom_dir / "brain_mask.nii.gz").read_bytes())
        data = mask.data.copy()
        data[tuple(np.argwhere(data > 0)[0])] = 0.5
        path = tmp_path / "mask.nii.gz"
        path.write_bytes(write_nifti(mask.with_data(data), compress=True))
        code = main(["segment", "--flair", str(phantom_dir / "flair.nii.gz"), "--mask", str(path),
                     "--weights", str(phantom_dir / "weights.sgwt"), "--out-dir", str(tmp_path / "seg")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error [shape]: brain mask must contain only 0/1 values\n"

    def test_subject_peak_is_bounded_in_float32_volumes(self, tmp_path, capsys, monkeypatch):
        # 96x112x80 with the 1^3 phantom nets: one float32 volume is 3.3 MiB,
        # and the brain mask holds 31% of its voxels. The mask is decoded
        # straight to bool (0.25 volumes), and the parsed FLAIR's buffer is
        # the one float32 volume: normalized in place, then overwritten by
        # the posterior. The subject peaks in normalize, holding the FLAIR,
        # the bool mask, the float64 in-mask values (0.62 volumes) and
        # np.std's temporary of them (0.62): 2.51 volumes. A float32 copy of
        # the mask, or a normalized FLAIR apart from the parsed one, breaks
        # the bound. Inference holds the FLAIR, the bool mask and the FLAIR's
        # in-mask voxels in one compact buffer (0.31 volumes), over which
        # the fused runs are written. The run buffers, 2 MiB here, 0.61
        # volumes (the meta net's (3, n) input, one forward's outputs and
        # float64 scratch over a run of 32768 voxels), are all but the (3, n)
        # input freed when the runs are scattered into the FLAIR's buffer:
        # inference peaks at 2.16 volumes. What does not scale with the grid,
        # the weights, the compressed files and the report, fits in the
        # margin. A posterior apart from the FLAIR's buffer, or any other
        # volume kept through inference, breaks both bounds.
        shape = (96, 112, 80)
        pdir = tmp_path / "phantom"
        assert main(["phantom", "--out-dir", str(pdir), "--seed", "1", "--shape", ",".join(map(str, shape))]) == 0
        argv = ["segment", "--flair", str(pdir / "flair.nii.gz"), "--mask", str(pdir / "brain_mask.nii.gz"),
                "--weights", str(pdir / "weights.sgwt"), "--out-dir", str(tmp_path / "seg")]
        assert main(argv) == 0  # warm: first-call allocations are not the subject's
        capsys.readouterr()
        peaks = []  # the peak before inference, and inference's own

        def predict(*args, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            post = predict_ensemble(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return post

        monkeypatch.setattr(cli, "predict_ensemble", predict)
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = max(tracemalloc.get_traced_memory()[1], *peaks)
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        volume_bytes = 4 * int(np.prod(shape))
        assert peak <= 2.6 * volume_bytes, peak / volume_bytes
        assert peaks[1] <= 2.25 * volume_bytes, peaks[1] / volume_bytes

    @pytest.mark.skipif(blas_threads() is None, reason="numpy's OpenBLAS thread count cannot be read or set")
    def test_posterior_independent_of_the_blas_threads_found(self, phantom_dir, tmp_path, capsys, rng,
                                                            monkeypatch):
        # segment runs every GEMM on one BLAS thread, whatever count it finds, and puts that count back
        weights = tmp_path / "unet.sgwt"
        weights.write_bytes(save_ensemble({role: unet_net(rng, 3 if role == "meta" else 1, 4)
                                           for role in ("axial", "sagittal", "coronal", "meta")}))
        during = []

        def predict(*args, **kwargs):
            during.append(blas_threads())
            return predict_ensemble(*args, **kwargs)

        monkeypatch.setattr(cli, "predict_ensemble", predict)
        found, payloads = blas_threads(), []
        try:
            for preset in (1, 2):
                set_blas_threads(preset)
                out_dir = tmp_path / f"seg{preset}"
                code, _ = run_cli(capsys, "segment", "--flair", str(phantom_dir / "flair.nii.gz"),
                                  "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                                  "--weights", str(weights), "--out-dir", str(out_dir))
                assert code == 0
                assert blas_threads() == preset
                payloads.append(gzip.decompress((out_dir / "flair.posterior.nii.gz").read_bytes()))
        finally:
            set_blas_threads(found)
        assert during == [1, 1]
        assert payloads[0] == payloads[1]


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [
        ("baseline", "--bins", "0"), ("baseline", "--alpha", "-1"), ("baseline", "--alpha", "nan"),
        ("baseline", "--alpha", "inf"), ("phantom", "--shape", "4,x,4"), ("phantom", "--shape", "0,4,4"),
        ("phantom", "--shape", "4,4"), ("phantom", "--shape", "3,3,3"), ("phantom", "--shape", "1,1,1"),
    ],
)
def test_bad_arguments_are_input_errors(phantom_dir, tmp_path, capsys, subcommand, flag, value):
    out_dir = tmp_path / "out"
    inputs = ["--flair", str(phantom_dir / "flair.nii.gz"), "--mask", str(phantom_dir / "brain_mask.nii.gz")]
    code = main([subcommand, *(inputs if subcommand == "baseline" else []), "--out-dir", str(out_dir), flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error [input]:") and len(captured.err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("subcommand", ["segment", "baseline"])
def test_non_finite_in_mask_flair_is_shape_error(phantom_dir, tmp_path, capsys, subcommand):
    mask, out_dir = phantom_dir / "brain_mask.nii.gz", tmp_path / "out"
    flair = _with_nan(phantom_dir / "flair.nii.gz", mask, tmp_path / "nan.nii.gz")
    weights = ["--weights", str(phantom_dir / "weights.sgwt")] if subcommand == "segment" else []
    code = main([subcommand, "--flair", str(flair), "--mask", str(mask), *weights, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error [shape]:") and len(captured.err.splitlines()) == 1
    assert not out_dir.exists() or not any(out_dir.iterdir())


class TestBaseline:
    def test_runs_on_phantom(self, phantom_dir, tmp_path, capsys):
        out_dir = tmp_path / "base"
        code, out = run_cli(
            capsys,
            "baseline",
            "--flair", str(phantom_dir / "flair.nii.gz"),
            "--mask", str(phantom_dir / "brain_mask.nii.gz"),
            "--alpha", "3.0",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        report = envelope(out)
        assert report["wmh_ml"] >= 0.0
        # the mask is written as uint8 and holds the histogram segmentation
        out = out_dir / "flair.baseline_mask.nii.gz"
        assert _datatype(out) == (2, 8)
        flair = parse_nifti((phantom_dir / "flair.nii.gz").read_bytes())
        mask = parse_nifti((phantom_dir / "brain_mask.nii.gz").read_bytes())
        want, cutoff = histogram_segment(flair, mask, HistParams(alpha=3.0, bins=256))
        got = parse_nifti(out.read_bytes())
        assert report["intensity_cutoff"] == cutoff
        assert np.count_nonzero(want.data) > 0
        assert np.array_equal(got.data, want.data)

    def test_fits_the_histogram_once(self, phantom_dir, tmp_path, capsys, monkeypatch):
        # the reported cutoff is the one the mask was thresholded at, not a
        # second fit; modal_threshold's histogram is counted wherever it is called from
        fits = []
        real = np.histogram
        monkeypatch.setattr(np, "histogram", lambda *a, **k: fits.append(k["bins"]) or real(*a, **k))
        assert main(["baseline", "--flair", str(phantom_dir / "flair.nii.gz"),
                     "--mask", str(phantom_dir / "brain_mask.nii.gz"), "--out-dir", str(tmp_path / "base")]) == 0
        capsys.readouterr()
        assert fits == [256]


class TestEvaluate:
    def test_identical_masks(self, phantom_dir, tmp_path, capsys):
        gt = str(phantom_dir / "gt.nii.gz")
        report_path = tmp_path / "metrics.json"
        code, out = run_cli(
            capsys, "evaluate", "--pred", gt, "--gt", gt, "--out-report", str(report_path)
        )
        assert code == 0
        report = envelope(out)
        assert report["dice_pixel"] == 1.0
        assert report["dice_lesion"] == 1.0
        assert report["avd_percent"] == 0.0
        assert "auc_pr" not in report
        assert json.loads(report_path.read_text()) == report

    def test_posterior_adds_auc_and_tsv(self, phantom_dir, tmp_path, capsys):
        seg_dir = tmp_path / "seg"
        main(
            [
                "segment",
                "--flair", str(phantom_dir / "flair.nii.gz"),
                "--mask", str(phantom_dir / "brain_mask.nii.gz"),
                "--weights", str(phantom_dir / "weights.sgwt"),
                "--out-dir", str(seg_dir),
            ]
        )
        capsys.readouterr()
        tsv = tmp_path / "pr.tsv"
        code, out = run_cli(
            capsys,
            "evaluate",
            "--pred", str(seg_dir / "flair.mask.nii.gz"),
            "--gt", str(phantom_dir / "gt.nii.gz"),
            "--posterior", str(seg_dir / "flair.posterior.nii.gz"),
            "--mask", str(phantom_dir / "brain_mask.nii.gz"),
            "--out-pr-tsv", str(tsv),
        )
        assert code == 0
        report = envelope(out)
        assert report["auc_pr"] == pytest.approx(1.0)
        lines = tsv.read_text().strip().splitlines()
        assert lines[0] == "threshold\tprecision\trecall"
        assert len(lines) > 1

    def test_pr_curve_computed_once_and_written_as_tsv(self, phantom_dir, tmp_path, capsys, monkeypatch):
        import wmhkit.cli as cli
        import wmhkit.metrics as metrics

        calls = []
        original = metrics.pr_curve_auc

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (metrics, cli):  # also catches a second call made from the CLI
            monkeypatch.setattr(module, "pr_curve_auc", counting, raising=False)
        # a continuous posterior, so the curve has many operating points
        gt_path = phantom_dir / "gt.nii.gz"
        gt = parse_nifti(gt_path.read_bytes())
        noise = np.random.default_rng(5).random(gt.data.shape)
        post_path = tmp_path / "post.nii.gz"
        post_path.write_bytes(write_nifti(gt.with_data((0.3 * gt.data + 0.7 * noise).astype(np.float32))))
        tsv = tmp_path / "pr.tsv"
        code, out = run_cli(
            capsys,
            "evaluate",
            "--pred", str(gt_path),
            "--gt", str(gt_path),
            "--posterior", str(post_path),
            "--mask", str(phantom_dir / "brain_mask.nii.gz"),
            "--out-pr-tsv", str(tsv),
        )
        assert code == 0
        assert len(calls) == 1
        mask = parse_nifti((phantom_dir / "brain_mask.nii.gz").read_bytes())
        curve = original(parse_nifti(post_path.read_bytes()), gt, mask)
        assert tsv.read_text() == pr_tsv_text(curve)
        assert curve.thresholds.size > 1000
        assert envelope(out)["auc_pr"] == curve.auc

    def test_posterior_without_mask_is_shape_error(self, phantom_dir, capsys):
        code = main(
            [
                "evaluate",
                "--pred", str(phantom_dir / "gt.nii.gz"),
                "--gt", str(phantom_dir / "gt.nii.gz"),
                "--posterior", str(phantom_dir / "gt.nii.gz"),
            ]
        )
        capsys.readouterr()
        assert code == 3

    @pytest.mark.parametrize(
        "extra", [[], ["--posterior", "gt.nii.gz"]], ids=["no-posterior", "posterior-without-mask"]
    )
    def test_pr_tsv_contract_errors_come_before_any_parse(self, phantom_dir, tmp_path, capsys, monkeypatch, extra):
        import wmhkit.cli as cli

        parsed = []
        monkeypatch.setattr(cli, "parse_nifti", lambda raw: parsed.append(raw))
        tsv = tmp_path / "pr.tsv"
        extra = [str(phantom_dir / a) if a.endswith(".nii.gz") else a for a in extra]
        code = main(
            [
                "evaluate",
                "--pred", str(phantom_dir / "gt.nii.gz"),
                "--gt", str(phantom_dir / "gt.nii.gz"),
                "--out-pr-tsv", str(tsv),
                *extra,
            ]
        )
        assert "error [shape]" in capsys.readouterr().err
        assert code == 3
        assert not tsv.exists()
        assert parsed == []

    def test_tsv_write_is_a_timed_stage(self, phantom_dir, tmp_path, capsys):
        gt = str(phantom_dir / "gt.nii.gz")
        args = ["evaluate", "--pred", gt, "--gt", gt, "--posterior", gt, "--mask", str(phantom_dir / "brain_mask.nii.gz")]
        code, out = run_cli(capsys, *args)
        assert code == 0
        report = envelope(out)
        assert "auc_pr" in report
        assert set(report["manifest"]["timings_ms"]) == {"digest", "parse", "metrics"}
        code, out = run_cli(capsys, *args, "--out-pr-tsv", str(tmp_path / "pr.tsv"))
        assert code == 0
        report = envelope(out)
        assert set(report["manifest"]["timings_ms"]) == {"digest", "parse", "metrics", "write"}

    def test_non_finite_posterior_exits_3_without_tsv(self, phantom_dir, tmp_path, capsys):
        gt_path = phantom_dir / "gt.nii.gz"
        mask_path = phantom_dir / "brain_mask.nii.gz"
        gt = parse_nifti(gt_path.read_bytes())
        inside = np.argwhere(parse_nifti(mask_path.read_bytes()).data > 0)
        post = 0.5 * gt.data
        post[tuple(inside[:3].T)] = np.nan
        post_path = tmp_path / "post.nii.gz"
        post_path.write_bytes(write_nifti(gt.with_data(post)))
        tsv = tmp_path / "pr.tsv"
        code = main(
            [
                "evaluate",
                "--pred", str(gt_path),
                "--gt", str(gt_path),
                "--posterior", str(post_path),
                "--mask", str(mask_path),
                "--out-pr-tsv", str(tsv),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "error [shape]" in err and "3 NaN or infinite" in err
        assert not tsv.exists()

    def _evaluate(self, capsys, phantom_dir, tmp_path, **replaced):
        """``evaluate --out-pr-tsv`` with the phantom's gt as pred, gt and
        posterior, but for the volumes given in ``replaced``. Returns the exit
        code, stdout, stderr and the TSV's path."""
        paths = {role: phantom_dir / "gt.nii.gz" for role in ("pred", "gt", "posterior")}
        for role, vol in replaced.items():
            paths[role] = tmp_path / f"{role}.nii.gz"
            paths[role].write_bytes(write_nifti(vol))
        tsv = tmp_path / "pr.tsv"
        argv = ["evaluate", "--mask", str(phantom_dir / "brain_mask.nii.gz"), "--out-pr-tsv", str(tsv)]
        for role, path in paths.items():
            argv += [f"--{role}", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, tsv

    @pytest.mark.parametrize("role", ["pred", "gt"])
    def test_non_binary_mask_exits_3_without_tsv(self, phantom_dir, tmp_path, capsys, role):
        gt = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        code, _, err, tsv = self._evaluate(capsys, phantom_dir, tmp_path, **{role: gt.with_data(0.5 * gt.data)})
        assert code == 3
        assert err == f"error [shape]: {role} mask must contain only 0/1 values\n"
        assert not tsv.exists()

    def test_mis_sized_pred_exits_3_without_tsv(self, phantom_dir, tmp_path, capsys):
        gt = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        code, _, err, tsv = self._evaluate(capsys, phantom_dir, tmp_path, pred=gt.with_data(gt.data[:-1]))
        assert code == 3
        assert err.startswith("error [shape]: masks have different dims")
        assert not tsv.exists()

    def test_gt_on_another_grid_exits_3_without_tsv(self, tmp_path, capsys):
        # a subject stored as LPS, its voxels unchanged: segment writes RAS
        # outputs, whose voxels lie mirrored in x and y against the gt's in
        # world space, so comparing them by index gave a Dice of 0.197
        ph, seg = tmp_path / "ph", tmp_path / "seg"
        assert main(["phantom", "--out-dir", str(ph), "--seed", "0", "--shape", "48,40,36"]) == 0
        for name in ("flair", "brain_mask", "gt"):
            v = parse_nifti((ph / f"{name}.nii.gz").read_bytes())
            (ph / f"{name}.nii.gz").write_bytes(write_nifti(Volume3D(v.data, v.spacing, ("L", "P", "S"))))
        assert main(["segment", "--flair", str(ph / "flair.nii.gz"), "--mask", str(ph / "brain_mask.nii.gz"),
                     "--weights", str(ph / "weights.sgwt"), "--out-dir", str(seg)]) == 0
        capsys.readouterr()
        tsv = tmp_path / "pr.tsv"
        code = main(["evaluate", "--pred", str(seg / "flair.mask.nii.gz"), "--gt", str(ph / "gt.nii.gz"),
                     "--posterior", str(seg / "flair.posterior.nii.gz"), "--mask", str(ph / "brain_mask.nii.gz"),
                     "--out-pr-tsv", str(tsv)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error [shape]: masks have different orientations")
        assert captured.err.count("\n") == 1
        assert not tsv.exists()

    @pytest.mark.parametrize("role", ["posterior", "mask"])
    def test_posterior_or_mask_on_another_grid_exits_3_without_tsv(self, phantom_dir, tmp_path, capsys, role):
        v = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        moved = tmp_path / f"{role}.nii.gz"
        moved.write_bytes(write_nifti(Volume3D(v.data, (1.0, 1.0, 2.0), v.orientation)))
        gt, tsv = str(phantom_dir / "gt.nii.gz"), tmp_path / "pr.tsv"
        paths = {"posterior": gt, "mask": str(phantom_dir / "brain_mask.nii.gz"), role: str(moved)}
        code = main(["evaluate", "--pred", gt, "--gt", gt, "--posterior", paths["posterior"], "--mask", paths["mask"],
                     "--out-pr-tsv", str(tsv)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error [shape]: ") and "different spacing" in err
        assert not tsv.exists()

    def test_unwritable_tsv_exits_2(self, phantom_dir, tmp_path, capsys):
        code, _, err, _ = self._evaluate(capsys, phantom_dir, tmp_path / "missing")
        assert code == 2
        assert err.startswith("error [io]:") and "pr.tsv" in err

    def test_tsv_is_written_after_the_lesions_and_without_the_pool(self, phantom_dir, tmp_path, capsys, monkeypatch):
        import wmhkit.layers as layers
        import wmhkit.metrics as metrics

        def no_pool(*args, **kwargs):
            raise RuntimeError("evaluate submitted work to the kernel pool")

        log = []
        label_components, write_pr_curve_tsv = metrics.label_components, cli.write_pr_curve_tsv
        monkeypatch.setattr(layers.POOL, "submit", no_pool)
        monkeypatch.setattr(metrics, "label_components", lambda *a, **k: log.append("label") or label_components(*a, **k))
        monkeypatch.setattr(cli, "write_pr_curve_tsv", lambda *a: log.append("write") or write_pr_curve_tsv(*a))
        code, _, _, tsv = self._evaluate(capsys, phantom_dir, tmp_path)
        assert code == 0
        assert log == ["label", "label", "write"]
        gt = parse_nifti((phantom_dir / "gt.nii.gz").read_bytes())
        curve = metrics.pr_curve_auc(gt, gt, parse_nifti((phantom_dir / "brain_mask.nii.gz").read_bytes()))
        assert tsv.read_text() == pr_tsv_text(curve)

    def test_peak_is_bounded_in_float32_volumes_and_the_curve(self, tmp_path, capsys, monkeypatch):
        # A dense 96x112x80 subject: 15 lesions, specks in 0.2% of the brain
        # and a posterior with a distinct value at nearly every brain voxel,
        # so the curve (three float64 per point) is about 1.9 volumes.
        shape = (96, 112, 80)
        ph = make_phantom(seed=2, shape=shape, n_lesions=15)
        rng = np.random.default_rng(2)
        gt = ph.gt_mask.data > 0
        inside = ph.brain_mask.data > 0
        pred = gt | (inside & (rng.random(shape) < 0.002))
        post = np.where(inside, np.where(gt, 0.35 + 0.65 * rng.random(shape), 0.55 * rng.random(shape)), 0.0)
        paths = {}
        for role, arr in (("pred", pred), ("gt", gt), ("posterior", post), ("mask", inside)):
            paths[role] = tmp_path / f"{role}.nii.gz"
            paths[role].write_bytes(write_nifti(Volume3D(arr.astype(np.float32), ph.flair.spacing)))
        argv = ["evaluate", "--out-pr-tsv", str(tmp_path / "pr.tsv")]
        for role, path in paths.items():
            argv += [f"--{role}", str(path)]
        peaks = {}

        def traced_curve(*args):
            peaks["parse"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            curve = pr_curve_auc(*args)
            peaks["curve"] = tracemalloc.get_traced_memory()[1]
            return curve

        pr_curve_auc = cli.pr_curve_auc
        monkeypatch.setattr(cli, "pr_curve_auc", traced_curve)
        assert main(argv) == 0  # warm: first-call allocations are not the subject's
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks["rest"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        volume_bytes = 4 * int(np.prod(shape))
        curve_bytes = 3 * 8 * np.unique(post.astype(np.float32)[inside]).size
        # Around the curve: the posterior and the bool masks beside the
        # curve's own peak of at most twice its size. Measured: 1.15 volumes
        # over that. The parsed float32 brain mask kept alive through the
        # curve adds a whole volume.
        assert peaks["curve"] <= 2 * curve_bytes + 1.5 * volume_bytes, peaks["curve"] / volume_bytes
        # After it: the curve beside both bool masks, both float32 label
        # maps and the int32 labels of a foreground's box, about 3 volumes.
        # 3 MiB more are allowed for what does not scale with the grid: the
        # TSV writer's chunk buffers, the compressed files and the report.
        # Measured: 3.02 volumes over the curve, with the TSV written after
        # the labelling. Labelling the whole grid or 65536-row chunks break
        # the bound.
        peak = max(peaks.values())
        assert peak <= curve_bytes + 3.5 * volume_bytes + 3 * 2**20, (peak - curve_bytes) / volume_bytes

    def test_labelling_failure_writes_no_tsv(self, phantom_dir, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise DegenerateError("no lesions today")

        monkeypatch.setattr(cli, "metric_report", failing)
        code, _, err, tsv = self._evaluate(capsys, phantom_dir, tmp_path)
        assert code == 1 and "no lesions today" in err
        assert not tsv.exists()


@pytest.fixture
def cohort_csv(tmp_path):
    records = synthetic_cohort(seed=42, target_exposure_t=3.0)
    path = tmp_path / "cohort.csv"
    path.write_bytes(write_cohort_csv(records))
    return path


class TestAgree:
    def test_identical_columns(self, cohort_csv, capsys):
        code, out = run_cli(
            capsys, "agree", "--csv", str(cohort_csv),
            "--col-a", "wmh_stackgen_ml", "--col-b", "wmh_stackgen_ml",
        )
        assert code == 0
        report = envelope(out)
        assert report["bias"] == 0.0
        assert report["r_squared"] == 1.0

    def test_worked_example_and_tsv(self, tmp_path, capsys):
        csv_path = tmp_path / "pairs.csv"
        csv_path.write_text("manual,auto\n10,12\n20,18\n30,33\n")
        tsv = tmp_path / "points.tsv"
        code, out = run_cli(
            capsys, "agree", "--csv", str(csv_path),
            "--col-a", "manual", "--col-b", "auto", "--out-tsv", str(tsv),
        )
        assert code == 0
        report = envelope(out)
        assert report["bias"] == pytest.approx(1.0)
        assert report["sd_diff"] == pytest.approx(2.6457513, abs=1e-6)
        assert report["loa_low"] == pytest.approx(-4.18567, abs=1e-4)
        assert report["loa_high"] == pytest.approx(6.18567, abs=1e-4)
        rows = tsv.read_text().strip().splitlines()
        assert len(rows) - 1 == report["n"] == 3

    def test_tsv_bytes_match_per_row_format(self, cohort_csv, tmp_path, capsys):
        from wmhkit.cohort import parse_numeric_columns
        from wmhkit.stats import bland_altman_points

        tsv = tmp_path / "points.tsv"
        code, _ = run_cli(
            capsys, "agree", "--csv", str(cohort_csv),
            "--col-a", "wmh_stackgen_ml", "--col-b", "wmh_adni_ml", "--out-tsv", str(tsv),
        )
        assert code == 0
        rows = parse_numeric_columns(cohort_csv.read_bytes(), ["wmh_stackgen_ml", "wmh_adni_ml"])
        points = bland_altman_points([r[0] for r in rows], [r[1] for r in rows])
        assert any(d < 0 for _, d in points) and any(d > 0 for _, d in points)
        expected = "\n".join(["mean\tdifference"] + [f"{m:.9g}\t{d:.9g}" for m, d in points]) + "\n"
        assert tsv.read_bytes() == expected.encode()

    def test_missing_cells_dropped_from_pairs(self, tmp_path, capsys):
        csv_path = tmp_path / "pairs.csv"
        csv_path.write_text("a,b\n1,2\n,3\n4,5\n6,\n7,8\n")
        tsv = tmp_path / "points.tsv"
        code, out = run_cli(
            capsys, "agree", "--csv", str(csv_path), "--col-a", "a", "--col-b", "b",
            "--out-tsv", str(tsv),
        )
        assert code == 0
        assert envelope(out)["n"] == 3
        assert len(tsv.read_text().strip().splitlines()) - 1 == 3


class TestTTest:
    def test_runs(self, cohort_csv, capsys):
        code, out = run_cli(
            capsys, "ttest", "--csv", str(cohort_csv),
            "--col-a", "wmh_stackgen_ml", "--col-b", "wmh_adni_ml",
        )
        assert code == 0
        report = envelope(out)
        assert 0.0 <= report["p"] <= 1.0
        assert report["df"] == report["n"] - 1


@pytest.mark.parametrize("subcommand", ["agree", "ttest"])
def test_payload_keys_are_the_schema_required_list(subcommand, cohort_csv, capsys):
    # every result field goes into the report, so a field added to the
    # result must be added to the schema as well
    code, out = run_cli(
        capsys, subcommand, "--csv", str(cohort_csv), "--col-a", "wmh_stackgen_ml", "--col-b", "wmh_adni_ml",
    )
    assert code == 0
    payload = {key for key in envelope(out) if key != "manifest"}
    assert sorted(payload) == sorted(SCHEMA["payloads"][subcommand]["required"])


_SCIPY_FREE_RUN = textwrap.dedent(
    """
    import contextlib, io, json, sys
    out, csv, scipy_state = sys.argv[1:]
    if scipy_state == "unimportable":
        sys.modules["scipy"] = None  # every import of scipy now raises ImportError
    from wmhkit.cli import main

    ph, seg = f"{out}/ph", f"{out}/seg"
    flair, mask = ["--flair", f"{ph}/flair.nii.gz"], ["--mask", f"{ph}/brain_mask.nii.gz"]
    pair = ["--csv", csv, "--col-a", "wmh_stackgen_ml", "--col-b", "wmh_adni_ml"]
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(list(argv)) == 0, argv
        return json.loads(stdout.getvalue())
    run("phantom", "--out-dir", ph, "--seed", "0", "--shape", "24,24,24")
    run("segment", *flair, *mask, "--weights", f"{ph}/weights.sgwt", "--out-dir", seg)
    run("baseline", *flair, *mask, "--out-dir", f"{out}/base")
    run("evaluate", "--pred", f"{seg}/flair.mask.nii.gz", "--gt", f"{ph}/gt.nii.gz", *mask,
        "--posterior", f"{seg}/flair.posterior.nii.gz", "--out-pr-tsv", f"{out}/pr.tsv")
    run("agree", *pair)
    run("cohort-summary", "--csv", csv)
    ttest = run("ttest", *pair)
    regress = run("regress", "--csv", csv, "--outcome", "adni_ef", "--exposure", "wmh_stackgen")
    loaded = [m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module is not None]
    print(json.dumps({"scipy_modules": loaded, "ttest_p": ttest["p"], "regress_p": regress["coefficients"][1]["p"]}))
    """
)


@pytest.mark.parametrize("scipy_state", ["installed", "unimportable"])
def test_no_command_loads_scipy(tmp_path, cohort_csv, scipy_state):
    # a fresh process per subject pays every module it imports, and numpy is the
    # one runtime dependency: all eight subcommands run without scipy, p-values
    # included, whether or not it is installed
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path), str(cohort_csv), scipy_state],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["scipy_modules"] == []
    rows = parse_numeric_columns(cohort_csv.read_bytes(), ["wmh_stackgen_ml", "wmh_adni_ml"])
    a, b = [r[0] for r in rows], [r[1] for r in rows]
    assert got["ttest_p"] == paired_ttest(a, b).p
    assert got["ttest_p"] == pytest.approx(float(scipy.stats.ttest_rel(a, b).pvalue), abs=1e-12)
    assert 0.0 < got["regress_p"] < 0.05


@pytest.mark.parametrize("subcommand", ["agree", "ttest"])
@pytest.mark.parametrize("flag", ["--col-a", "--col-b"])
def test_unknown_columns_are_input_errors(cohort_csv, capsys, subcommand, flag):
    # a column the CSV lacks is named on the command line, as an unknown regress field is
    options = {"--col-a": "wmh_stackgen_ml", "--col-b": "wmh_adni_ml", flag: "nope"}
    code = main([subcommand, "--csv", str(cohort_csv)] + [x for option in options.items() for x in option])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error [input]: CSV has no column named 'nope'\n"


@pytest.mark.parametrize("argv", [["agree", "--col-a", "a", "--col-b", "b"], ["cohort-summary"]])
def test_csv_header_defects_stay_format_errors(tmp_path, capsys, argv):
    # an empty CSV, and a cohort CSV without its id and diagnosis columns, are defects of the file
    path = tmp_path / "bad.csv"
    path.write_text("" if argv[0] == "agree" else "age,sex\n70,F\n")
    code = main([argv[0], "--csv", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error [format]:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["cohort-summary"], ["ttest", "--col-a", "id", "--col-b", "age"]])
def test_csv_that_is_not_utf8_is_a_format_error(tmp_path, capsys, argv):
    # a Latin-1 byte once ended in a UnicodeDecodeError traceback and exit 1
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,age,diagnosis\nJos\xe9,70,CN\n".encode("latin-1"))
    code = main([argv[0], "--csv", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error [format]: CSV is not UTF-8") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cohort-summary"],
        ["regress", "--outcome", "adni_ef", "--exposure", "wmh_stackgen"],
        ["agree", "--col-a", "manual", "--col-b", "auto"],
        ["ttest", "--col-a", "manual", "--col-b", "auto"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_with_a_byte_order_mark_reads_as_without(cohort_csv, tmp_path, capsys, argv):
    # a BOM once stuck to the first header name, so cohort-summary found no id
    # column and agree/ttest could not name the first column
    plain = cohort_csv
    if "--col-a" in argv:
        plain = tmp_path / "pairs.csv"
        plain.write_text("manual,auto\n10,12\n20,18\n30,33\n41,40\n")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    payloads = []
    for path in (plain, bom):
        code, out = run_cli(capsys, argv[0], "--csv", str(path), *argv[1:])
        assert code == 0
        payloads.append({k: v for k, v in envelope(out).items() if k != "manifest"})
    assert payloads[0] == payloads[1]


class TestRegress:
    def test_default_covariates_and_negative_effect(self, cohort_csv, capsys):
        code, out = run_cli(
            capsys, "regress", "--csv", str(cohort_csv),
            "--outcome", "adni_ef", "--exposure", "wmh_stackgen",
        )
        assert code == 0
        report = envelope(out)
        names = [c["name"] for c in report["coefficients"]]
        assert names == [
            "intercept", "wmh_stackgen", "age", "icv", "sex",
            "education", "apoe4", "diagnosis_MCI", "diagnosis_AD",
        ]
        exposure = report["coefficients"][1]
        assert exposure["estimate"] < 0
        assert exposure["p"] < 0.05
        assert report["n_used"] == 290

    def test_log10_flag(self, cohort_csv, capsys):
        code, out = run_cli(
            capsys, "regress", "--csv", str(cohort_csv),
            "--outcome", "adni_mem", "--exposure", "wmh_stackgen", "--log10",
        )
        assert code == 0
        parameters = envelope(out)["manifest"]["parameters"]
        assert parameters["log10"] is True
        assert parameters["covariates"] == ["age", "icv", "sex", "education", "apoe4", "diagnosis"]

    @pytest.mark.parametrize("flag, value", [
        ("--exposure", "nope"), ("--outcome", "nope"), ("--covariates", "age,bogus"),
        ("--exposure", "sex"), ("--exposure", "diagnosis"), ("--exposure", "id"), ("--outcome", "sex"),
    ])
    def test_unknown_fields_are_input_errors(self, cohort_csv, capsys, flag, value):
        options = {"--outcome": "adni_ef", "--exposure": "wmh_stackgen", flag: value}
        code = main(["regress", "--csv", str(cohort_csv)] + [x for option in options.items() for x in option])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error [input]:") and len(captured.err.splitlines()) == 1

    def test_log10_of_a_text_exposure_is_an_input_error(self, cohort_csv, capsys):
        code = main(["regress", "--csv", str(cohort_csv), "--outcome", "adni_ef", "--exposure", "sex", "--log10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error [input]: cohort field 'sex' is not numeric\n"

    def test_rank_deficient_exits_degenerate(self, tmp_path, capsys):
        records = synthetic_cohort(n_per_group=(20, 0, 0), f_per_group=(10, 0, 0), seed=1)
        path = tmp_path / "cn_only.csv"
        path.write_bytes(write_cohort_csv(records))
        code = main(
            [
                "regress", "--csv", str(path),
                "--outcome", "adni_ef", "--exposure", "wmh_stackgen",
            ]
        )
        capsys.readouterr()
        assert code == 1


class TestCohortSummary:
    def test_table_and_json(self, cohort_csv, tmp_path, capsys):
        out_json = tmp_path / "summary.json"
        code, out = run_cli(
            capsys, "cohort-summary", "--csv", str(cohort_csv), "--out-json", str(out_json)
        )
        assert code == 0
        report = envelope(out)
        assert json.loads(out_json.read_text()) == report
        assert report["overall_n"] == 290
        assert set(report["groups"]) == {"CN", "MCI", "AD"}
        assert sum(g["n"] for g in report["groups"].values()) == 290
