import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nets import unet_net
from oracles import all_signed_orientations, whole_volume_ensemble
from wmhkit import ensemble
from wmhkit.ensemble import (
    EnsembleSpec,
    binarize,
    predict_ensemble,
    tiled_forward,
    wmh_volume_ml,
)
from wmhkit.errors import NonBinaryInput, ShapeMismatch, TileTooSmall
from wmhkit.layers import BatchNorm, Concat, Conv3D, MaxPool, ReLU, Softmax, UpsampleNearest
from wmhkit.network import NetworkSpec, forward
from wmhkit.phantom import make_phantom, mean_threshold_meta_net, threshold_detector_net
from wmhkit.volume import Volume3D, canonical_order, normalize_intensity


def _averaging_meta_net(level_a, level_b):
    """Meta network that reproduces the common posterior of its inputs.

    Valid for inputs whose three channels are identical and two-valued
    {level_a, level_b}: the conv maps the mean p back to logit(p) at both
    levels, so softmax returns p exactly there.
    """
    logit = lambda p: math.log(p / (1.0 - p))
    w = (logit(level_b) - logit(level_a)) / (level_b - level_a)
    weights = np.zeros((2, 3, 1, 1, 1), dtype=np.float32)
    bias = np.zeros(2, dtype=np.float32)
    weights[1, :, 0, 0, 0] = w / 3.0
    bias[1] = logit(level_a) - w * level_a
    layers = (("logits", Conv3D(weights=weights, bias=bias)), ("posterior", Softmax()))
    return NetworkSpec(layers=layers, in_channels=3, out_channels=2)


def _phantom_ensemble(p):
    return EnsembleSpec(**{f"{role}_net": net for role, net in p.networks.items()})


def _receptive_net(rng, cin=1):
    """Size-preserving 2-class net with a 3x3x3 receptive field."""
    return NetworkSpec(
        layers=(
            (
                "conv",
                Conv3D(
                    weights=rng.normal(scale=0.3, size=(2, cin, 3, 3, 3)).astype(np.float32),
                    bias=rng.normal(size=2).astype(np.float32),
                    padding=(1, 1, 1),
                ),
            ),
            ("post", Softmax()),
        ),
        in_channels=cin,
        out_channels=2,
    )


class TestTiledForward:
    def test_volume_smaller_than_tile(self, rng, monkeypatch):
        net = _receptive_net(rng)
        v = Volume3D(rng.normal(size=(6, 7, 8)).astype(np.float32))
        direct = forward(net, v.data[None])[1]
        passes, shapes, _ = _spy_plan(monkeypatch)
        for tile in [(16, 16, 16), (6, 7, 8)]:
            assert np.array_equal(tiled_forward(net, v, tile=tile).data, direct)
        # one pass over the whole volume each time, with no halo
        assert shapes[id(net)] == [(6, 7, 8)] * 2 and np.all(passes[id(net)] == 2)

    def test_per_voxel_net_is_tiling_invariant(self, rng):
        net = threshold_detector_net(0.3)
        v = Volume3D(rng.normal(size=(20, 17, 13)).astype(np.float32))
        full = tiled_forward(net, v, tile=(32, 32, 32))
        for tile in [(8, 8, 8), (5, 7, 6), (20, 4, 9)]:
            tiled = tiled_forward(net, v, tile=tile)
            assert np.array_equal(tiled.data, full.data), tile

    @pytest.mark.parametrize("kind", ["receptive", "pool", "unet"])
    def test_matches_whole_volume_forward(self, rng, kind):
        # halo 1 on grid 1, halo 1 on grid 2, halo 5 on grid 2: tiles from the
        # smallest the net allows up to the volume, with ragged last cores
        net = _nets(kind, rng)[0]
        v = Volume3D(rng.normal(size=(26, 16, 34)).astype(np.float32))
        whole = forward(net, v.data[None])[1]
        for tile in [(14, 16, 14), (16, 20, 24), (25, 16, 33), (26, 16, 34)]:
            assert np.array_equal(tiled_forward(net, v, tile=tile).data, whole), tile

    def test_dims_off_the_pool_grid_are_a_shape_mismatch(self, rng):
        v = Volume3D(rng.normal(size=(17, 16, 16)).astype(np.float32))
        unet = unet_net(rng, 1, 2)
        with pytest.raises(ShapeMismatch):
            forward(unet, v.data[None])
        for net in (unet, _pool_net(rng, 1)):
            for tile in [(14, 14, 14), (64, 64, 64)]:
                with pytest.raises(ShapeMismatch):
                    tiled_forward(net, v, tile=tile)

    def test_tile_too_small_for_pooling_net(self, rng):
        net = NetworkSpec(
            layers=(
                ("pool", MaxPool(kernel=(8, 8, 8), stride=(8, 8, 8))),
                (
                    "head",
                    Conv3D(
                        weights=rng.normal(size=(2, 1, 1, 1, 1)).astype(np.float32),
                        bias=np.zeros(2, np.float32),
                    ),
                ),
                ("post", Softmax()),
            ),
            in_channels=1,
            out_channels=2,
        )
        v = Volume3D(rng.normal(size=(16, 16, 16)).astype(np.float32))
        with pytest.raises(TileTooSmall):
            tiled_forward(net, v, tile=(4, 4, 4))

    def test_spec_rejects_a_tile_below_the_nets_minimum(self, rng):
        # halo 5 rounds up to 6 on grid 2: a tile needs 6 + 2 + 6 voxels
        nets = _nets("unet", rng)
        for tile in [(13, 13, 13), (14, 13, 14)]:
            with pytest.raises(TileTooSmall):
                _spec(nets, tile)
        assert _spec(nets, (14, 15, 17)).cores == ((2, 2, 4),) * 4
        assert _spec(_nets("pointwise", rng), (1, 2, 3)).cores == ((1, 2, 3),) * 4


def _pointwise_net(rng, cin):
    """A multi-layer net with a receptive field of one voxel: 1^3 conv to 8
    channels, BatchNorm, ReLU, a Concat of the conv output, 1^3 conv to 2, softmax."""
    return NetworkSpec(
        layers=(
            ("c1", Conv3D(weights=rng.normal(size=(8, cin, 1, 1, 1)), bias=rng.normal(size=8))),
            ("bn", BatchNorm(gamma=rng.normal(size=8), beta=rng.normal(size=8),
                             mean=rng.normal(size=8), var=rng.uniform(0.5, 2.0, size=8))),
            ("relu", ReLU()),
            ("skip", Concat(source="c1")),
            ("head", Conv3D(weights=rng.normal(scale=0.5, size=(2, 16, 1, 1, 1)), bias=rng.normal(size=2))),
            ("post", Softmax()),
        ),
        in_channels=cin,
        out_channels=2,
    )


def _pool_net(rng, cin):
    """1^3 convs around a 2^3 pool and an upsample: not pointwise."""
    return NetworkSpec(
        layers=(
            ("c1", Conv3D(weights=rng.normal(size=(4, cin, 1, 1, 1)), bias=rng.normal(size=4))),
            ("pool", MaxPool()),
            ("up", UpsampleNearest(factor=2)),
            ("head", Conv3D(weights=rng.normal(size=(2, 4, 1, 1, 1)), bias=rng.normal(size=2))),
            ("post", Softmax()),
        ),
        in_channels=cin,
        out_channels=2,
    )


def _small_unet(rng, cin):
    return unet_net(rng, cin, 4)


def _nets(kind, rng):
    """(axial, sagittal, coronal, meta), four distinct network objects. Under
    a pointwise meta net, "mixed" has one plane net that needs tiles, the
    sagittal, and "tiled_planes" has three."""
    if kind == "phantom":
        return (*(threshold_detector_net(t) for t in (-0.2, 0.1, 0.4)), mean_threshold_meta_net())
    if kind == "mixed":
        return _pointwise_net(rng, 1), _receptive_net(rng), _pointwise_net(rng, 1), _pointwise_net(rng, 3)
    if kind == "tiled_planes":
        return (*(_receptive_net(rng) for _ in range(3)), _pointwise_net(rng, 3))
    make = {"pointwise": _pointwise_net, "receptive": _receptive_net, "pool": _pool_net, "unet": _small_unet}[kind]
    return (*(make(rng, 1) for _ in range(3)), make(rng, 3))


def _spec(nets, tile):
    axial, sagittal, coronal, meta = nets
    return EnsembleSpec(axial_net=axial, sagittal_net=sagittal, coronal_net=coronal, meta_net=meta, tile=tile)


def _inputs(rng, shape):
    flair = rng.normal(size=shape).astype(np.float32)
    mask = (rng.random(shape) < 0.8).astype(np.float32)
    return flair, mask


class TestTilePlan:
    @pytest.mark.parametrize("kind", ["phantom", "pointwise"])
    @pytest.mark.parametrize(
        "shape, tile",
        [
            ((70, 33, 129), (24, 16, 40)),
            ((70, 33, 129), (96, 16, 64)),
            ((70, 33, 129), (80, 64, 160)),
            ((5, 7, 3), (2, 3, 2)),
            ((5, 7, 3), (8, 8, 8)),
        ],
    )
    def test_pointwise_ensemble_matches_overlap_tile_reference(self, rng, kind, shape, tile):
        nets = _nets(kind, rng)
        assert all(net.pointwise for net in nets)
        flair, mask = _inputs(rng, shape)
        want = whole_volume_ensemble(forward, nets, flair, mask)
        got = predict_ensemble(_spec(nets, tile), Volume3D(flair), Volume3D(mask))
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("kind", ["phantom", "pointwise", "mixed", "tiled_planes"])
    def test_pointwise_ensemble_matches_reference_in_every_orientation(self, rng, monkeypatch, kind):
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, (5, 7, 3))
        spec = _spec(nets, (4, 4, 3))
        want = whole_volume_ensemble(forward, nets, flair, mask).tobytes()
        # the storage orders of (FLAIR, mask): C, F as parsed, and either one mixed
        layouts = [("C", "C"), ("F", "F"), ("C", "F"), ("F", "C")]
        for run in (ensemble._RUN_BYTES, 8 * 16):  # 105 voxels: one run, or six of 16 and one of 9
            monkeypatch.setattr(ensemble, "_RUN_BYTES", run)
            for orientation in all_signed_orientations():
                source = _inverse_remap(flair, orientation), _inverse_remap(mask, orientation)
                for layout in layouts:
                    v, m = (Volume3D(np.array(a, order=o), orientation=orientation) for a, o in zip(source, layout))
                    assert v.data.flags[f"{layout[0]}_CONTIGUOUS"] and m.data.flags[f"{layout[1]}_CONTIGUOUS"]
                    got = predict_ensemble(spec, v, m).data.tobytes()
                    assert got == want, (run, orientation, layout)

    @pytest.mark.parametrize("kind", ["phantom", "pointwise", "mixed", "tiled_planes", "receptive"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_posterior_is_written_over_the_flair(self, rng, kind, order):
        # the FLAIR's buffer takes the posterior only after every net has
        # read it: under a pointwise meta net with pointwise and tiled plane
        # nets, and under a tiled meta net ("receptive"), each over several
        # blocks
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, (9, 7, 5))
        want = whole_volume_ensemble(forward, nets, flair, mask)
        orientation = ("P", "I", "R")
        v, m = (Volume3D(np.array(_inverse_remap(a, orientation), order=order), orientation=orientation)
                for a in (flair, mask))
        got = predict_ensemble(_spec(nets, (4, 4, 3)), v, m)
        assert np.shares_memory(got.data, v.data)
        assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["receptive", "pool", "unet"])
    def test_other_nets_match_overlap_tile_reference(self, rng, kind):
        # the overlap-tile strategy computes each block with its halo and keeps
        # its core, so it equals one pass over the whole volume bit for bit
        nets = _nets(kind, rng)
        assert not any(net.pointwise for net in nets)
        for shape, tile in [((48, 40, 56), (24, 16, 32)), ((26, 34, 18), (20, 20, 20))]:
            flair, mask = _inputs(rng, shape)
            want = whole_volume_ensemble(forward, nets, flair, mask)
            got = predict_ensemble(_spec(nets, tile), Volume3D(flair), Volume3D(mask))
            assert np.array_equal(got.data, want), shape

    def test_pointwise_ensemble_passes_each_voxel_once(self, rng, monkeypatch):
        nets = _nets("pointwise", rng)
        shape = (20, 17, 13)
        # each FLAIR value is its voxel's flat index, so a run's input names its voxels
        flair = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
        _, mask = _inputs(rng, shape)
        monkeypatch.setattr(ensemble, "_RUN_BYTES", 8 * 1000)
        seen = _spy_runs(monkeypatch)
        spied = ensemble.forward

        def forward_naming_meta_runs(net, x):
            # the meta net answers its k-th run with k
            y = spied(net, x)
            return np.full_like(y, len(seen[id(net)])) if net is nets[3] else y

        monkeypatch.setattr(ensemble, "forward", forward_naming_meta_runs)
        post = predict_ensemble(_spec(nets, (8, 8, 8)), Volume3D(flair), Volume3D(mask))
        # runs of 1000 in-mask voxels in canonical C order, whatever the tile;
        # the last of them form a shorter run
        inside = np.flatnonzero(mask)
        runs = [min(1000, inside.size - s) for s in range(0, inside.size, 1000)]
        assert len(runs) == 4 and runs[-1] < 1000
        assert sorted(seen) == sorted(id(net) for net in nets)
        assert all([run.shape[1] for run in seen[id(net)]] == runs for net in nets)
        for net in nets[:3]:
            # every in-mask voxel once, in C order, and no voxel outside the mask
            assert np.array_equal(np.concatenate(seen[id(net)], axis=1)[0], inside)
        # the meta net reads its runs from a buffer, so its runs are counted by
        # where they land in the fused posterior; every other voxel is 0
        want = np.zeros(mask.size, np.float32)
        want[inside] = np.repeat(np.arange(1, len(runs) + 1), runs)
        assert np.array_equal(post.data.reshape(-1), want)

    @pytest.mark.parametrize("kind", ["phantom", "pointwise", "mixed", "tiled_planes"])
    @pytest.mark.parametrize(
        "shape, run",
        [
            ((20, 17, 13), 1000),  # about 3540 of 4420 voxels in the mask: runs of 1000 and a shorter one
            ((10, 10, 10), 250),
            ((5, 7, 3), None),  # 105 voxels: less than one run at the module budget
            ((3, 1, 2), 1),  # one voxel per run
        ],
    )
    def test_run_plan_matches_overlap_tile_reference(self, rng, monkeypatch, kind, shape, run):
        if run is not None:
            monkeypatch.setattr(ensemble, "_RUN_BYTES", 8 * run)
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, shape)
        seen = _spy_runs(monkeypatch)
        got = predict_ensemble(_spec(nets, (6, 5, 4)), Volume3D(flair.copy()), Volume3D(mask))
        assert np.array_equal(got.data, whole_volume_ensemble(forward, nets, flair, mask))
        # every pointwise net runs over the in-mask voxels alone, in runs
        inside = flair[mask > 0]
        n = ensemble._RUN_BYTES // 8
        want = [min(n, inside.size - s) for s in range(0, inside.size, n)]
        assert all([r.shape[1] for r in seen.get(id(net), [])] == want for net in nets if net.pointwise)
        for net in nets[:3]:
            if net.pointwise:
                # every in-mask voxel once, in C order, and no voxel outside the mask
                assert np.array_equal(np.concatenate(seen[id(net)], axis=1)[0], inside)

    @pytest.mark.parametrize("kind", ["phantom", "pointwise", "mixed", "tiled_planes"])
    def test_last_in_mask_run_of_one_voxel_matches_reference(self, rng, monkeypatch, kind):
        # 3 * 16 + 1 in-mask voxels in runs of 16: the last run holds one voxel
        nets = _nets(kind, rng)
        shape = (5, 7, 3)
        flair, _ = _inputs(rng, shape)
        mask = np.zeros(shape, np.float32)
        mask.reshape(-1)[rng.choice(mask.size, 3 * 16 + 1, replace=False)] = 1.0
        monkeypatch.setattr(ensemble, "_RUN_BYTES", 8 * 16)
        seen = _spy_runs(monkeypatch)
        spec = _spec(nets, (4, 4, 3))
        want = whole_volume_ensemble(forward, nets, flair, mask)
        for orientation in all_signed_orientations():
            seen.clear()
            v = Volume3D(_inverse_remap(flair, orientation), orientation=orientation)
            m = Volume3D(_inverse_remap(mask, orientation), orientation=orientation)
            assert np.array_equal(predict_ensemble(spec, v, m).data, want), orientation
            assert [r.shape[1] for r in seen[id(nets[3])]] == [16, 16, 16, 1], orientation

    @pytest.mark.parametrize("kind", ["phantom", "pointwise"])
    def test_non_finite_flair_outside_the_mask_reaches_no_pointwise_net(self, rng, monkeypatch, kind):
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, (9, 8, 7))
        outside = np.flatnonzero(mask == 0)
        flair.reshape(-1)[outside] = np.resize(np.array([np.nan, np.inf, -np.inf], np.float32), outside.size)
        with warnings.catch_warnings():  # the oracle computes the non-finite voxels too
            warnings.simplefilter("ignore", RuntimeWarning)
            want = whole_volume_ensemble(forward, nets, flair, mask)
        seen = _spy_runs(monkeypatch)
        got = predict_ensemble(_spec(nets, (4, 4, 4)), Volume3D(flair), Volume3D(mask))
        assert np.array_equal(got.data, want)
        assert sorted(seen) == sorted(id(net) for net in nets)
        assert all(np.isfinite(run).all() for runs in seen.values() for run in runs)

    @pytest.mark.parametrize("kind", ["phantom", "pointwise", "mixed", "tiled_planes"])
    def test_empty_mask_gives_a_zero_posterior_without_pointwise_runs(self, rng, monkeypatch, kind):
        nets = _nets(kind, rng)
        flair, _ = _inputs(rng, (6, 5, 4))
        seen = _spy_runs(monkeypatch)
        post = predict_ensemble(_spec(nets, (4, 4, 4)), Volume3D(flair), Volume3D(np.zeros_like(flair)))
        assert post.data.tobytes() == bytes(4 * flair.size)  # +0.0 everywhere
        assert seen == {}

    def test_tiled_meta_zeroes_outside_the_mask_one_slab_at_a_time(self, rng, monkeypatch):
        # the out-of-mask voxels of a tiled meta net's posterior are zeroed one
        # canonical x-slab at a time: that allocates one bool slab, and 16 KiB
        # is allowed for numpy's iterator buffers, where an inverted mask of the
        # whole volume would take eight slabs
        nets = _nets("receptive", rng)
        shape = (8, 192, 160)
        flair, mask = _inputs(rng, shape)
        spec = _spec(nets, (192, 192, 192))
        real = ensemble._tiled_posterior
        fused = []

        def spy(net, *args, **kwargs):
            post = real(net, *args, **kwargs)
            if net is nets[3]:
                fused.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return post

        monkeypatch.setattr(ensemble, "_tiled_posterior", spy)
        for orientation in all_signed_orientations()[::7]:
            # the mask stored in Fortran order, as a parsed NIfTI is
            v = Volume3D(_stored(flair.copy(), orientation), orientation=orientation)
            m = Volume3D(np.asfortranarray(_stored(mask > 0, orientation)), orientation=orientation)
            fused.clear()
            tracemalloc.start()
            try:
                predict_ensemble(spec, v, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - fused[0] <= shape[1] * shape[2] + 2**14, (orientation, peak - fused[0])

    def test_tiled_planes_and_pointwise_meta_peak_adds_at_most_the_compact_buffer(self, rng, monkeypatch):
        # The three tiled plane posteriors are stacked. Once they were fused,
        # the inverted mask, a quarter volume, came on top of them; now the
        # compact in-mask buffer may come on top of that. A compact copy of
        # each stacked plane breaks the bound. 512 KiB is allowed for one
        # block's or one run's forward and buffers.
        monkeypatch.setattr(ensemble, "_RUN_BYTES", 8 * 1024)
        nets = _nets("tiled_planes", rng)
        shape = (64, 96, 96)
        flair = rng.normal(size=shape).astype(np.float32)
        mask = rng.random(shape) < 0.3
        spec = _spec(nets, (24, 24, 24))
        tracemalloc.start()
        try:
            predict_ensemble(spec, Volume3D(flair), Volume3D(mask))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        volume_bytes = 4 * mask.size
        in_mask = np.count_nonzero(mask) / mask.size
        assert peak <= (3.25 + in_mask) * volume_bytes + 2**19, peak / volume_bytes

    @pytest.mark.parametrize("kind", ["receptive", "pool"])
    def test_other_nets_overlap_tiles_in_their_planes(self, rng, monkeypatch, kind):
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, (20, 18, 22))
        passes, shapes, _ = _spy_plan(monkeypatch)
        predict_ensemble(_spec(nets, (8, 8, 8)), Volume3D(flair), Volume3D(mask))
        for net in nets:
            # input tiles overlap by the halo and none exceeds the tile
            assert passes[id(net)].min() == 1 and passes[id(net)].max() > 1
            assert max(max(s) for s in shapes[id(net)]) <= 8

    @pytest.mark.parametrize("kind", ["receptive", "pool", "unet"])
    def test_plane_nets_read_views_of_the_canonical_input(self, rng, monkeypatch, kind):
        # every block of a plane net is a view of the canonical input itself,
        # stepping along the canonical axes in its plane's order: no plane
        # reformats a copy of the volume
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, (20, 18, 22))
        _, _, frames = _spy_plan(monkeypatch)
        predict_ensemble(_spec(nets, (16, 14, 16)), Volume3D(flair), Volume3D(mask))
        # axial (x, y, z), sagittal (y, z, x), coronal (x, z, y)
        for net, axes in zip(nets, [(0, 1, 2), (1, 2, 0), (0, 2, 1)]):
            assert len(frames[id(net)]) > 1
            assert all(root is flair and got == axes for root, got in frames[id(net)])

    @pytest.mark.parametrize("kind", ["receptive", "pool", "unet"])
    def test_other_nets_compute_each_voxel_once(self, rng, monkeypatch, kind):
        # forward answers each call with its index as the posterior, so each
        # voxel of a net's posterior names the one block that computed it
        nets = _nets(kind, rng)
        flair, mask = _inputs(rng, (20, 18, 22))
        tiles, posteriors = {}, {}
        real = ensemble._tiled_posterior

        def spy_forward(net, x):
            tiles.setdefault(id(net), []).append(_view(x)[2])
            return np.full((2, *x.shape[1:]), len(tiles[id(net)]), np.float32)

        def spy_posterior(net, *args, **kwargs):
            post = real(net, *args, **kwargs)
            posteriors[id(net)] = post.copy()
            return post

        monkeypatch.setattr(ensemble, "forward", spy_forward)
        monkeypatch.setattr(ensemble, "_tiled_posterior", spy_posterior)
        predict_ensemble(_spec(nets, (16, 14, 16)), Volume3D(flair), Volume3D(mask))
        for net in nets:
            post, boxes = posteriors[id(net)], tiles[id(net)]
            assert len(boxes) > 1 and all(b.stop - b.start <= 16 for box in boxes for b in box)
            assert set(np.unique(post).tolist()) == set(range(1, len(boxes) + 1))
            for k, box in enumerate(boxes, 1):
                kept = np.argwhere(post == k)
                core = tuple(slice(lo, hi + 1) for lo, hi in zip(kept.min(axis=0), kept.max(axis=0)))
                assert np.all(post[core] == k)  # a box, inside its input tile
                assert all(box[i].start <= core[i].start and core[i].stop <= box[i].stop for i in range(3))


def _origin(x):
    """The C-contiguous array ``x`` is a view of, and the flat index of
    ``x``'s first voxel in that array's spatial grid."""
    root = x
    while isinstance(root.base, np.ndarray):
        root = root.base
    assert root.flags.c_contiguous
    offset = x.__array_interface__["data"][0] - root.__array_interface__["data"][0]
    return root, offset // root.itemsize % int(np.prod(root.shape[-3:]))


def _view(x):
    """The C-contiguous array a (C, D, H, W) block ``x`` is a view of, the
    grid axis of that array each spatial axis of ``x`` steps along, and the
    box of its spatial grid that ``x`` covers."""
    root, first = _origin(x)
    start = np.unravel_index(first, root.shape[-3:])
    axes = tuple(root.strides[-3:].index(s) for s in x.strides[1:])
    box = [None] * 3
    for a, n in zip(axes, x.shape[1:]):
        box[a] = slice(start[a], start[a] + n)
    return root, axes, tuple(box)


def _spy_plan(monkeypatch):
    """Spy on the ensemble's forward calls.

    Returns ``passes`` (id(net) -> how often forward saw each voxel of the
    net's input array), ``shapes`` (id(net) -> spatial shape of each forward
    call) and ``frames`` (id(net) -> the array each block is a view of and the
    axis order of the view, one pair per block). A tile's position is read
    from its offset and strides in the contiguous array it is a view of.
    """
    passes, shapes, frames = {}, {}, {}
    real_forward = ensemble.forward

    def spy_forward(net, x):
        root, axes, box = _view(x)
        passes.setdefault(id(net), np.zeros(root.shape[-3:], np.int64))[box] += 1
        frames.setdefault(id(net), []).append((root, axes))
        shapes.setdefault(id(net), []).append(x.shape[1:])
        return real_forward(net, x)

    monkeypatch.setattr(ensemble, "forward", spy_forward)
    return passes, shapes, frames


def _spy_runs(monkeypatch):
    """Spy on the ensemble's forward calls on pointwise nets: returns id(net)
    -> a copy of the (C, n) input of each (C, n, 1, 1) run, in call order."""
    seen = {}
    real_forward = ensemble.forward

    def spy_forward(net, x):
        if net.pointwise:
            seen.setdefault(id(net), []).append(x[:, :, 0, 0].copy())
        return real_forward(net, x)

    monkeypatch.setattr(ensemble, "forward", spy_forward)
    return seen


def _normalized_phantom(seed=0, shape=(24, 24, 24)):
    p = make_phantom(seed=seed, shape=shape)
    return p, normalize_intensity(p.flair, p.brain_mask)


class TestPredictEnsemble:
    def test_zero_posterior_propagates(self, rng):
        # plane nets emit ~0 posterior everywhere; meta thresholds the mean at 0.5
        plane = threshold_detector_net(t=1e6)
        spec = EnsembleSpec(
            axial_net=plane,
            sagittal_net=plane,
            coronal_net=plane,
            meta_net=mean_threshold_meta_net(),
            tile=(16, 16, 16),
        )
        v = Volume3D(rng.normal(size=(12, 12, 12)).astype(np.float32))
        mask = Volume3D(np.ones((12, 12, 12), dtype=np.float32))
        post = predict_ensemble(spec, v, mask)
        assert float(post.data.max()) < 0.5
        assert np.array_equal(binarize(post).data, np.zeros((12, 12, 12), np.float32))

    def test_averaging_meta_reproduces_common_posterior(self, rng):
        # exactly two-valued input with a mild detector: posterior levels
        # land strictly inside (0, 1), where the averaging meta is exact
        z = np.where(rng.random((10, 11, 12)) < 0.3, 1.5, -0.5).astype(np.float32)
        v = Volume3D(z)
        mask = Volume3D(np.ones_like(z))
        plane = threshold_detector_net(t=0.25, w=2.0)
        single = tiled_forward(plane, v)
        levels = np.unique(single.data)
        assert levels.size == 2
        lo, hi = float(levels[0]), float(levels[1])
        spec = EnsembleSpec(
            axial_net=plane,
            sagittal_net=plane,
            coronal_net=plane,
            meta_net=_averaging_meta_net(lo, hi),
        )
        fused = predict_ensemble(spec, v, mask)
        np.testing.assert_allclose(fused.data, single.data, atol=1e-5)

    def test_phantom_threshold_detection_exact(self):
        p, norm = _normalized_phantom(seed=0)
        post = predict_ensemble(_phantom_ensemble(p), norm, p.brain_mask)
        got = binarize(post, 0.5)
        assert np.array_equal(got.data, p.gt_mask.data)

    def test_out_of_mask_forced_to_zero(self):
        p, norm = _normalized_phantom(seed=1)
        post = predict_ensemble(_phantom_ensemble(p), norm, p.brain_mask)
        assert np.all(post.data[p.brain_mask.data == 0] == 0.0)

    def test_posterior_in_unit_range(self):
        p, norm = _normalized_phantom(seed=2)
        post = predict_ensemble(_phantom_ensemble(p), norm, p.brain_mask)
        assert float(post.data.min()) >= 0.0
        assert float(post.data.max()) <= 1.0 + 1e-6

    def test_invariant_to_on_disk_orientation(self):
        p, norm = _normalized_phantom(seed=4, shape=(10, 12, 14))
        spec = _phantom_ensemble(p)
        reference = predict_ensemble(spec, norm.with_data(norm.data.copy()), p.brain_mask)
        for orientation in all_signed_orientations()[::7]:
            # express the same physical volume with a different axis labeling:
            # remap data so that interpreting it under `orientation` recovers norm
            reoriented_data = _inverse_remap(norm.data, orientation)
            reoriented_mask = _inverse_remap(p.brain_mask.data, orientation)
            v = Volume3D(reoriented_data, orientation=orientation)
            m = Volume3D(reoriented_mask, orientation=orientation)
            out = predict_ensemble(spec, v, m)
            assert np.array_equal(out.data, reference.data), orientation


def _inverse_remap(canonical: np.ndarray, orientation) -> np.ndarray:
    """Array that remaps to `canonical` when interpreted under `orientation`.

    to_canonical sends source voxel idx to canonical voxel target(idx), so the
    source array is built by gathering: inv[idx] = canonical[target(idx)].
    """
    inv = np.zeros(_source_dims(canonical.shape, orientation), dtype=np.float32)
    for i in range(inv.shape[0]):
        for j in range(inv.shape[1]):
            for k in range(inv.shape[2]):
                inv[i, j, k] = canonical[_target(orientation, inv.shape, (i, j, k))]
    return inv


def _stored(canonical: np.ndarray, orientation) -> np.ndarray:
    """A view of `canonical` indexed in `orientation`: the array whose
    canonical view is `canonical`, built by axis permutes and flips."""
    order = canonical_order(orientation)
    flips = tuple(slice(None, None, -1) if code in "LPI" else slice(None) for code in orientation)
    return canonical.transpose(np.argsort(order))[flips]


def _source_dims(canonical_dims, orientation):
    axis_of = {"R": 0, "L": 0, "A": 1, "P": 1, "S": 2, "I": 2}
    return tuple(canonical_dims[axis_of[c]] for c in orientation)


def _target(orientation, dims, idx):
    axis_of = {"R": 0, "L": 0, "A": 1, "P": 1, "S": 2, "I": 2}
    neg = {"L", "P", "I"}
    tgt = [0, 0, 0]
    for axis in range(3):
        code = orientation[axis]
        w = axis_of[code]
        tgt[w] = dims[axis] - 1 - idx[axis] if code in neg else idx[axis]
    return tuple(tgt)


class TestBinarize:
    def test_above_threshold(self):
        v = Volume3D(np.full((1, 1, 1), 0.7, dtype=np.float32))
        assert binarize(v, 0.5).data[0, 0, 0] == 1.0

    def test_tie_goes_to_background(self):
        v = Volume3D(np.full((1, 1, 1), 0.5, dtype=np.float32))
        assert binarize(v, 0.5).data[0, 0, 0] == 0.0

    def test_counting_oracle(self, rng):
        post = Volume3D(rng.random((8, 8, 8)).astype(np.float32))
        for thr in (0.2, 0.5, 0.9):
            got = int(binarize(post, thr).data.sum())
            want = int((post.data > thr).sum())
            assert got == want

    def test_volume_monotone_in_threshold(self, rng):
        post = Volume3D(rng.random((10, 10, 10)).astype(np.float32))
        volumes = [wmh_volume_ml(binarize(post, t)) for t in np.linspace(0.05, 0.95, 19)]
        assert all(a >= b for a, b in zip(volumes, volumes[1:]))


class TestWmhVolume:
    def test_unit_conversion(self):
        mask = Volume3D(np.ones((10, 10, 10), dtype=np.float32), spacing=(1.0, 1.0, 1.0))
        assert wmh_volume_ml(mask) == pytest.approx(1.0)

    def test_empty_mask(self):
        assert wmh_volume_ml(Volume3D(np.zeros((4, 4, 4), np.float32))) == 0.0

    def test_anisotropic_spacing(self):
        data = np.zeros((10, 10, 10), dtype=np.float32)
        data.reshape(-1)[:37] = 1.0
        mask = Volume3D(data, spacing=(1.2, 1.0, 1.25))
        assert wmh_volume_ml(mask) == pytest.approx(0.0555)

    def test_rejects_non_binary(self):
        with pytest.raises(NonBinaryInput):
            wmh_volume_ml(Volume3D(np.full((2, 2, 2), 0.5, np.float32)))
