"""Bad requests fail at the service boundary, before any event runs.

Unchecked, two inputs would be served silently: a field larger than
the service's ``coarse_shape`` (the tile slices crop it to the top-left
region and answer with that), and a field holding a NaN (its non-finite
output is cached, poisoning later hits).  ``run`` rejects both with a
``ValueError`` naming the request, in both serving modes, without
hashing the input or probing the cache.
"""

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.serve import BatchPolicy, DownscalingService, Request, TileCache

COARSE = (8, 16)


def _service(tiled: bool) -> DownscalingService:
    kw = dict(n_tiles=4, halo=1, tile_serving=True) if tiled else {}
    return DownscalingService(
        policy=BatchPolicy(max_batch=4, max_wait_s=0.01),
        cache=TileCache(16), coarse_shape=COARSE, **kw)


def _field(shape=(23, *COARSE), seed=0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape) \
        .astype(np.float32)


def _requests(bad: np.ndarray) -> list[Request]:
    return [Request(rid=0, arrival_s=0.0, sample=0, input=_field()),
            Request(rid=7, arrival_s=0.1, sample=1, input=bad)]


@pytest.fixture(autouse=True)
def no_hashing_or_lookups(monkeypatch):
    """Validation must not hash inputs or touch the cache."""
    def boom(*args, **kwargs):
        raise AssertionError("called while validating")

    monkeypatch.setattr(service_mod, "content_key", boom)
    monkeypatch.setattr(TileCache, "get", boom)


@pytest.mark.parametrize("tiled", [False, True], ids=["request", "tile"])
class TestBoundary:
    def test_wrong_grid_is_rejected(self, tiled):
        service = _service(tiled)
        with pytest.raises(ValueError, match=r"request 7: input shape "
                                             r"\(23, 16, 32\) is not "
                                             r"\(C, 8, 16\)"):
            service.run(_requests(_field((23, 16, 32))))
        assert len(service.cache) == 0

    def test_missing_channel_axis_is_rejected(self, tiled):
        with pytest.raises(ValueError, match="request 7: input shape"):
            _service(tiled).run(_requests(_field(COARSE)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, tiled, bad):
        x = _field()
        x[3, 2, 5] = bad
        service = _service(tiled)
        with pytest.raises(ValueError,
                           match="request 7: input has non-finite values"):
            service.run(_requests(x))
        assert len(service.cache) == 0
