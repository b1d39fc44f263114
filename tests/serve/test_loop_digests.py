"""Pin everything a serving run observably produces, as one SHA-256 each.

Each case hashes a canonical dump of its :class:`ServeResult`: every
``Response`` field (output bytes included), every span (name, rank,
start, duration, depth, args), every counter and gauge, every histogram
summary with its percentiles, and — when a monitor is attached — the
alert timeline, the flight-recorder event ring and the monitor's own
metrics.  Floats enter through ``repr``, which round-trips exactly, so a
digest moves when any value moves by one ulp or any event reorders.

The grid covers {request, tile} x {cache on, off} x {1, 3 replicas}
with an executed model; the extra cases cover admission control
(``max_queue_depth``), the autoscaler, an attached monitor, and
latency-only runs.  The model is a strictly-local windowed sum with a
nearest-neighbour upsample: elementwise float32 adds only, so its bytes
do not depend on the BLAS build, and with ``radius <= halo`` the tiled
and whole-request outputs agree bitwise.

After an intended behaviour change, each failing case reports its new
digest; re-record only once the change is understood.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.nn import Module
from repro.obs import Monitor, default_serve_rules, tile_serve_rules
from repro.serve import (
    ROLLING,
    AutoscalePolicy,
    BatchPolicy,
    DownscalingService,
    TileCache,
    TrafficGenerator,
)
from repro.tensor import Tensor

COARSE = (8, 16)
N_TILES, HALO, FACTOR = 4, 1, 2


class _LocalSum(Module):
    """Radius-1 windowed sum + nearest-neighbour x2 (elementwise only)."""

    factor = FACTOR

    def forward(self, x: Tensor) -> Tensor:
        a = x.data
        _, _, h, w = a.shape
        padded = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
        out = np.zeros_like(a)
        for dy in range(3):
            for dx in range(3):
                out = out + padded[:, :, dy:dy + h, dx:dx + w]
        return Tensor(out.repeat(FACTOR, axis=2).repeat(FACTOR, axis=3))


class _Affine:
    def denormalize(self, x):
        return x * np.float32(0.5) + np.float32(1.0)


def _inputs(n=6):
    """Integer-derived float32 fields (no RNG stream involved)."""
    size = 3 * COARSE[0] * COARSE[1]
    base = np.arange(size, dtype=np.int64)
    return [(((base * 2654435761 + 977 * k) % 1009).astype(np.float32)
             / np.float32(64.0)).reshape(3, *COARSE) for k in range(n)]


def _service(tiled, *, model=True, cache=True, n_replicas=1, **kw):
    if tiled:
        kw.update(n_tiles=N_TILES, halo=HALO, tile_serving=True)
    return DownscalingService(
        _LocalSum() if model else None, n_replicas=n_replicas,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.01),
        cache=TileCache(12) if cache else None,
        target_normalizer=_Affine() if model else None,
        coarse_shape=COARSE, factor=FACTOR,
        service_time=(lambda b: 0.004 + 0.003 * b) if not tiled else None,
        **kw)


def _executed(tiled, cache, n_replicas):
    gen = TrafficGenerator("burst", 80.0, 0.6, seed=4, n_inputs=6,
                           popularity=1.1)
    service = _service(tiled, cache=cache, n_replicas=n_replicas)
    return service.run(gen.generate(inputs=_inputs())), None


def _latency_only(tiled):
    if tiled:
        gen = TrafficGenerator(ROLLING, 120.0, 1.0, seed=2, n_tiles=N_TILES,
                               tile_update_rate=20.0)
    else:
        gen = TrafficGenerator("steady", 120.0, 1.0, seed=2, n_inputs=10)
    return _service(tiled, model=False, n_replicas=2).run(gen.generate()), None


def _burst(tiled, **kw):
    gen = TrafficGenerator("burst", 150.0, 1.5, seed=6, n_inputs=40,
                           burst_factor=8.0)
    monitor = kw.pop("monitor", None)
    service = _service(tiled, model=False, **kw)
    return service.run(gen.generate(), monitor=monitor), monitor


def _monitored(tiled):
    rules = (tile_serve_rules(slo_p99_s=0.05, max_queue_depth=12,
                              min_hit_rate=0.5, window=16) if tiled
             else default_serve_rules(slo_p99_s=0.05, max_queue_depth=12))
    return _burst(tiled, n_replicas=2, max_queue_depth=20,
                  autoscale=AutoscalePolicy(min_replicas=1, scale_up_depth=3,
                                            cooldown_s=0.05, spinup_s=0.004),
                  monitor=Monitor(rules, wall_metrics=False))


CASES = {}
for _mode in ("request", "tile"):
    _tiled = _mode == "tile"
    for _cache in (True, False):
        for _reps in (1, 3):
            CASES[f"{_mode}-cache_{'on' if _cache else 'off'}-r{_reps}"] = (
                lambda t=_tiled, c=_cache, r=_reps: _executed(t, c, r))
    CASES[f"{_mode}-shed"] = lambda t=_tiled: _burst(
        t, n_replicas=1, max_queue_depth=6)
    CASES[f"{_mode}-autoscale"] = lambda t=_tiled: _burst(
        t, n_replicas=3, autoscale=AutoscalePolicy(
            min_replicas=1, scale_up_depth=2, cooldown_s=0.03,
            spinup_s=0.003))
    CASES[f"{_mode}-monitor"] = lambda t=_tiled: _monitored(t)
    CASES[f"{_mode}-latency_only"] = lambda t=_tiled: _latency_only(t)


def _canon(value):
    """JSON-ready, exact: floats as ``repr``, arrays as dtype/shape/hash."""
    if isinstance(value, np.ndarray):
        return {"dtype": value.dtype.str, "shape": list(value.shape),
                "sha256": hashlib.sha256(
                    np.ascontiguousarray(value).data).hexdigest()}
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def canonical_dump(result, monitor=None) -> dict:
    m = result.metrics
    doc = {
        "responses": [{
            "rid": r.request.rid, "arrival_s": r.request.arrival_s,
            "sample": r.request.sample,
            "tile_versions": r.request.tile_versions,
            "dispatch_s": r.dispatch_s, "complete_s": r.complete_s,
            "replica": r.replica, "batch_size": r.batch_size,
            "cache_hit": r.cache_hit, "status": r.status, "tiles": r.tiles,
            "tiles_hit": r.tiles_hit, "tiles_computed": r.tiles_computed,
            "output": r.output,
        } for r in result.responses],
        # span args as ordered pairs: exported traces keep their order
        "spans": [{"name": s.name, "rank": s.rank, "start_s": s.start_s,
                   "dur_s": s.dur_s, "depth": s.depth,
                   "args": list(s.args.items())} for s in result.spans],
        "counters": m.counters,
        "gauges": m.gauges,
        "histograms": {name: {"count": h.count, "total": h.total,
                              "min": h.min, "max": h.max,
                              "p50": h.percentile(50),
                              "p90": h.percentile(90),
                              "p99": h.percentile(99)}
                       for name, h in m.histograms.items()},
        "duration_s": result.duration_s,
        "utilization": result.utilization,
    }
    if monitor is not None:
        doc["alerts"] = monitor.alert_timeline()
        doc["events"] = list(monitor.recorder.events)
        doc["monitor_metrics"] = monitor.metrics.as_dict()
    return _canon(doc)


def digest(result, monitor=None) -> str:
    text = json.dumps(canonical_dump(result, monitor), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# recorded from the two-loop scheduler (request loop + tile loop), after
# the tile-mode queue-wait fix and before the loops were merged
DIGESTS = {
    "request-autoscale": "2573bd60426ea2ba5f0094d93600713058706d0283f77e1c89f85ba475d98b93",
    "request-cache_off-r1": "56bf8665a4b788f1b7d750c8e3dfcb197aefb0f1309a1f722deca39412df07e2",
    "request-cache_off-r3": "73462efd1bc2fee4612e02edab7c6158a256d5a6b7b127e9aca62f6b0c470848",
    "request-cache_on-r1": "c0ea5c21792d4e05c0948d0c31c3fa94d1b309bac91782c1d14cab818e3a9063",
    "request-cache_on-r3": "85ced1927b4e91a97a7dc9190888832d530ba2fcb3a398770df28908298c833b",
    "request-latency_only": "18accfbf8d2fd920cf488c9c969d5af2ea34bc0996f8c08589f1f1663d4fd756",
    "request-monitor": "24e025fd06b7a27844be986bda5e635cc67dc133a4648dbd0cf32793f5ec5f81",
    "request-shed": "c39f9fc10b9df5ea33003b0131695b3e1d2c11f3c0771a30ba4858f44b9f78cf",
    "tile-autoscale": "2c6d879037ec965bbf3f2a1fe63de44a88e2a6c48a6cc3fc82352b1cb2383880",
    "tile-cache_off-r1": "77b6b02a842929ce6b0dd892263b71b0cf1744ac7d0961a02a17cc91687c0743",
    "tile-cache_off-r3": "7c1be786134eabd04337b3c2f2336c09b7955f05814cbb19a30f4457935eb9be",
    "tile-cache_on-r1": "b8f74bb075b00c3a77fe70f7e5d7d40650d83efd1123ee4cc9c533d207f17da3",
    "tile-cache_on-r3": "a461cd69940bf714e2b5541a867da905853699d8418a18c2b6f3dad0056d2f95",
    "tile-latency_only": "2154c8b3c62b2d6176e3c92f438584b1902b75ce47ba0e27ea2c0f6fd434cf86",
    "tile-monitor": "1dc5e834f17f21b6536ed10e9dec9423e4f1d085bc158589e06e24a972260815",
    "tile-shed": "8d4c7d53a08b4ffb3a372805cb60293d48249f5d63d9b8da29edd73b02349f1c",
}


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("mode", ["request", "tile"])
def test_cases_exercise_what_they_name(mode):
    """Each digest pins a run that actually hit the path it is named
    after, so a digest cannot pass by pinning an idle scheduler."""
    def summary(case):
        result, monitor = CASES[f"{mode}-{case}"]()
        return result.summary(), monitor

    hits = "tile_hits" if mode == "tile" else "cache_hits"
    on, _ = summary("cache_on-r3")
    off, _ = summary("cache_off-r3")
    assert on[hits] > 0 and off[hits] == 0
    assert summary("shed")[0]["shed"] > 0
    scaled, _ = summary("autoscale")
    assert scaled["scale_ups"] > 0 and scaled["scale_downs"] > 0
    watched, monitor = summary("monitor")
    assert {"p99-slo-burn", "queue-depth", "shed-rate"} <= {
        a.rule for a in monitor.alerts}
    assert summary("latency_only")[0][hits] > 0
    if mode == "tile":
        assert off["tile_coalesced"] > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_digest(case):
    got = digest(*CASES[case]())
    assert got == DIGESTS.get(case), f"{case}: serving run changed ({got})"
