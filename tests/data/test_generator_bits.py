"""Pins the synthetic generator's output bits with SHA-256 digests.

The determinism tests in ``test_synthetic.py`` compare the generator with
itself, so a refactor that moves one bit of every sample would pass them.
A change to the arithmetic order of ``gaussian_random_field`` or
``fine_sample`` that moves any float32 output bit fails here.  Like the
golden files, the digests assume numpy's PCG64 normal stream and FFT are
bit-stable across the numpy versions in use.
"""

import hashlib

import numpy as np
import pytest

from repro.data import ClimateWorld, Grid, ObservationWorld, gaussian_random_field, us_grid


def _digest(a: np.ndarray) -> str:
    assert a.dtype == np.float32
    h = hashlib.sha256(repr(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: name -> (world factory, year, index, coarsening factor)
WORLD_CASES = {
    "global_32x64": (lambda: ClimateWorld(Grid(32, 64), seed=7, samples_per_year=4), 2001, 3, 4),
    "global_16x32": (lambda: ClimateWorld(Grid(16, 32), seed=1, samples_per_year=3), 2000, 2, 2),
    "obs_us_16x36": (lambda: ObservationWorld(us_grid(16, 36), seed=2), 2000, 5, 4),
}


def _world_digests(name: str) -> dict[str, str]:
    make_world, year, index, factor = WORLD_CASES[name]
    world = make_world()
    coarse, target = world.paired_sample(year, index, factor)
    return {"fine": _digest(world.fine_sample(year, index)),
            "coarse": _digest(coarse), "target": _digest(target)}


PINNED = {
    "global_32x64": {
        "fine": "0bf7654f8934e941d6cc9dd811e3b943936404f4955fb6e1fdf5022780c0e5e4",
        "coarse": "6d46171a9758d2b20648c79719ac3d09cb1c05e7c43df204a80e81d6e086a25d",
        "target": "0efa1cec9482e78ec3c627a7aa331f4b877248bfa6ffd7d5a890acdaab5cf459",
    },
    "global_16x32": {
        "fine": "dc3e736623ac58509dda46803dcfae9e35904aa4e7ee77ef1c454798c26fbed9",
        "coarse": "77149cffbcdb23c31172ad1ce071507d2c6693e22350879fbec9e75b80c08da9",
        "target": "1961eb45e6364d801fe08d10ea8db0c55f60ae5fefebb1cdb594e583b537bde6",
    },
    "obs_us_16x36": {
        "fine": "a488edf840c91165306b7379f8c41cb9fe3e5cc744ca7252f5063fd9ad8f7d96",
        "coarse": "e9949627478e3f27578bbe61b06a8e65f2abc6d3bae985a8089146355b295cc7",
        "target": "74a87a69c4a8a8d11ea9db4fdfca3677d40c7db473c67e9793563239c98c7e1a",
    },
}

PINNED_GRF_NONPERIODIC = "020a16ce0f17c7a9cd653993c21c24b5c9287ca9f30f749ac4de696f6a7d5125"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_world_sample_bits(name):
    assert _world_digests(name) == PINNED[name]


def test_nonperiodic_grf_bits():
    f = gaussian_random_field((16, 32), 2.0, np.random.default_rng(3), periodic_lon=False)
    assert _digest(f) == PINNED_GRF_NONPERIODIC
