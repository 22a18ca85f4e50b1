"""Seeded networks shared by the tests."""

import numpy as np

from wmhkit.layers import BatchNorm, Concat, Conv3D, MaxPool, ReLU, Softmax, UpsampleNearest
from wmhkit.network import NetworkSpec


def unet_net(rng, cin, channels):
    """Seeded 2-class 2-level U-Net: a 3^3 conv block (conv, BatchNorm, ReLU)
    at full resolution, a 2^3 max-pool, a block at half resolution, nearest
    upsampling, a Concat skip, one more block, a 1^3 head and softmax. Its halo
    is 5 voxels per axis on a pool grid of 2."""

    def block(name, cin, cout):
        conv = Conv3D(weights=rng.normal(0.0, np.sqrt(2.0 / (27 * cin)), (cout, cin, 3, 3, 3)),
                      bias=rng.normal(0.0, 0.05, cout), padding=(1, 1, 1))
        bn = BatchNorm(gamma=rng.uniform(0.8, 1.2, cout), beta=rng.normal(0.0, 0.1, cout),
                       mean=rng.normal(0.0, 0.1, cout), var=rng.uniform(0.5, 1.5, cout))
        return [(name, conv), (f"{name}_bn", bn), (f"{name}_relu", ReLU())]

    c = channels
    layers = [*block("enc1", cin, c), ("pool", MaxPool()), *block("enc2", c, c),
              ("up", UpsampleNearest(factor=2)), ("skip", Concat(source="enc1_relu")), *block("dec1", 2 * c, c),
              ("head", Conv3D(weights=rng.normal(0.0, 0.5, (2, c, 1, 1, 1)), bias=rng.normal(0.0, 0.05, 2))),
              ("post", Softmax())]
    return NetworkSpec(layers=tuple(layers), in_channels=cin, out_channels=2)
