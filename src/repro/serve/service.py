"""The production downscaling service: queue, batcher, cache, replicas.

:class:`DownscalingService` turns the bare ``predict_dataset`` loop into
a *system*: requests arrive on a simulated clock, a dynamic batcher
coalesces work under a max-batch/max-wait policy, an LRU cache
short-circuits repeat coarse inputs by content hash, and N model
replicas — each owning a contiguous slice of the virtual cluster —
serve batches in parallel.  It all runs as one deterministic
discrete-event loop over *units* of work: a whole request is one unit,
a tile-served request one unit per halo tile.  *Time* is modeled
(dispatch overhead + roofline inference time, as in
``repro.distributed.perf_model``); *outputs* are real.

**Determinism contract.**  Served outputs are bit-identical to a direct
:func:`repro.train.predict_dataset` pass over the same inputs, however
they were batched, cached, coalesced or placed: the engine is
batch-invariant, the cache stores frozen bytes keyed by content, tile
reassembly transcribes ``stitch_tiles``, replicas share one set of
weights.  Instrumentation is ``repro.obs``: latency/queue histograms,
hit rates, utilization gauges, and ``serve/replica`` > ``serve/batch``
spans whose coverage reproduces those gauges exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..core.tiles import extract_tile
from ..distributed.comm import VirtualCluster
from ..distributed.perf_model import (DEFAULT_SERVICE_TIME, SERVE_DISPATCH_S,
                                      service_time_model,
                                      tile_service_time_model)
from ..obs.clock import SimClock
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Span
from ..tensor import Tensor, no_grad
from ..train.inference import build_inference_runner
from .cache import TileCache, content_key
from .tiling import TilePlan
from .traffic import Request

__all__ = ["AutoscalePolicy", "BatchPolicy", "Response", "ServeResult",
           "DownscalingService"]


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching policy: dispatch at ``max_batch`` requests or
    once the oldest queued request has waited ``max_wait_s``, whichever
    comes first (and an idle replica exists)."""

    max_batch: int = 8
    max_wait_s: float = 0.05

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0.0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth replica autoscaling over a fixed maximum fleet.

    The service starts with ``min_replicas`` active.  When an arrival
    leaves more than ``scale_up_depth`` pending requests *per active
    replica*, one standby replica is activated — it becomes usable
    ``spinup_s`` later, the modeled downtime of remapping the shared
    weights onto the new replica's ranks (the same canonical-state move
    a training reshard performs).  Once the queue drains, idle surplus
    replicas are deactivated down to ``min_replicas``.  ``cooldown_s``
    rate-limits consecutive scaling actions so a single burst edge
    cannot thrash the fleet.
    """

    min_replicas: int = 1
    scale_up_depth: int = 8
    cooldown_s: float = 0.25
    spinup_s: float = 5.0e-3

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.scale_up_depth < 1:
            raise ValueError("scale_up_depth must be >= 1")
        if self.cooldown_s < 0.0 or self.spinup_s < 0.0:
            raise ValueError("cooldown_s and spinup_s must be >= 0")


@dataclass
class Response:
    """One served request with its full timing record."""

    request: Request
    dispatch_s: float
    complete_s: float
    replica: int | None      # None for cache hits (never reached a replica)
    batch_size: int          # coalesced batch size (1 for cache hits)
    cache_hit: bool
    output: np.ndarray | None
    status: str = "ok"       # "ok" | "shed" (rejected by admission control)
    # tile-granular serving only (0 on the whole-request path):
    tiles: int = 0           # tiles the request was split into
    tiles_hit: int = 0       # tiles answered from the tile cache at arrival
    tiles_computed: int = 0  # tiles resolved by a batch completion

    @property
    def arrival_s(self) -> float:
        return self.request.arrival_s

    @property
    def latency_s(self) -> float:
        return self.complete_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.dispatch_s - self.request.arrival_s


@dataclass
class ServeResult:
    """Everything one service run produced: responses, spans, metrics."""

    responses: list[Response]
    spans: list[Span]
    metrics: MetricsRegistry
    duration_s: float
    n_replicas: int
    gpus_per_replica: int
    utilization: dict[int, float] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-ready headline numbers (the ``BENCH_serve`` schema)."""
        m = self.metrics
        lat = m.histograms.get("serve/latency_s")
        wait = m.histograms.get("serve/queue_wait_s")
        depth = m.histograms.get("serve/queue_depth")
        bsize = m.histograms.get("serve/batch_size")
        n = len(self.responses)
        out = {
            "requests": n,
            "duration_s": self.duration_s,
            "throughput_rps": n / self.duration_s if self.duration_s else 0.0,
            "latency_p50_s": lat.percentile(50) if lat else 0.0,
            "latency_p99_s": lat.percentile(99) if lat else 0.0,
            "latency_mean_s": lat.mean if lat else 0.0,
            "latency_max_s": lat.max if lat and lat.count else 0.0,
            "queue_wait_p99_s": wait.percentile(99) if wait else 0.0,
            "queue_depth_max": depth.max if depth and depth.count else 0.0,
            "queue_depth_p99": depth.percentile(99) if depth else 0.0,
            "batches": m.counters.get("serve/batches", 0.0),
            "batch_size_mean": bsize.mean if bsize else 0.0,
            "cache_hits": m.counters.get("serve/cache/hits", 0.0),
            "cache_misses": m.counters.get("serve/cache/misses", 0.0),
            "cache_evictions": m.counters.get("serve/cache/evictions", 0.0),
            "cache_hit_rate": m.gauges.get("serve/cache/hit_rate", 0.0),
            "n_replicas": self.n_replicas,
            "gpus_per_replica": self.gpus_per_replica,
            "utilization_mean": (sum(self.utilization.values())
                                 / len(self.utilization)
                                 if self.utilization else 0.0),
            "utilization": {str(r): u for r, u in self.utilization.items()},
            "shed": m.counters.get("serve/shed", 0.0),
            "scale_ups": m.counters.get("serve/scale_up", 0.0),
            "scale_downs": m.counters.get("serve/scale_down", 0.0),
            "replica_seconds": m.gauges.get(
                "serve/replica_seconds",
                self.n_replicas * self.duration_s),
        }
        tile_lookups = (m.counters.get("serve/tile/hits", 0.0)
                        + m.counters.get("serve/tile/misses", 0.0))
        if tile_lookups:
            occ = m.histograms.get("serve/tile/batch_occupancy")
            out.update({
                "tile_hits": m.counters.get("serve/tile/hits", 0.0),
                "tile_misses": m.counters.get("serve/tile/misses", 0.0),
                "tile_coalesced": m.counters.get("serve/tile/coalesced", 0.0),
                "tile_hit_rate": m.gauges.get("serve/tile/hit_rate", 0.0),
                "tile_batch_occupancy_mean": occ.mean if occ else 0.0,
            })
        return out

    def export_chrome(self, path) -> None:
        from ..obs.export import write_chrome_trace
        write_chrome_trace(path, self.spans)


# event ordering at equal timestamps: completions populate the cache
# before same-instant arrivals probe it, and both precede deadline checks
_COMPLETE, _ARRIVAL, _DEADLINE = 0, 1, 2

_MISS_SENTINEL = object()


class DownscalingService:
    """Queue + batcher + cache + replicas over a virtual cluster.

    Parameters
    ----------
    model:
        The downscaler to execute (any ``(1, C, h, w) -> (1, C', H, W)``
        module).  ``None`` runs the scheduler latency-only — same queue
        dynamics, no outputs — which is how
        :func:`repro.distributed.perf_model.serve_report` prices replica
        counts without paying for compute.
    n_replicas:
        Model replicas; the cluster's ranks are split into contiguous
        equal slices, one per replica (replica sharding).
    policy:
        Dynamic-batching policy (:class:`BatchPolicy`).
    cache:
        A :class:`TileCache`, or ``None`` to disable caching.
    cluster:
        The :class:`VirtualCluster` to shard replicas across; defaults
        to ``n_replicas * gpus_per_replica`` ranks.
    target_normalizer:
        Maps model outputs back to physical units, exactly as
        ``predict_dataset`` does (pass the dataset's).
    n_tiles / halo / factor / coarse_shape:
        Tiled-inference configuration, validated up front through
        :func:`repro.train.build_inference_runner`.  With
        ``coarse_shape``, :meth:`run` rejects inputs not ``(C, h, w)``.
    tile_serving:
        Make the *tile* the unit of work: each request becomes one unit
        per halo tile, keyed per tile (halo-region content hash + crop
        geometry + plan epoch); only missed tiles are recomputed,
        coalesced across requests into per-signature batches.  Needs
        ``n_tiles >= 2`` and ``coarse_shape``; outputs stay bitwise
        identical to the whole-request path.
    plan_epoch:
        Starting epoch folded into every tile key;
        :meth:`bump_plan_epoch` (call it after a reshard / weight swap)
        invalidates all resident tile entries without touching the
        cache.
    service_time:
        ``batch_size -> seconds`` pricing of one dispatched batch;
        defaults to :func:`repro.distributed.perf_model.service_time_model`
        for ``config`` (or a generic constant model when no config is
        given).
    hit_latency_s:
        Modeled latency of answering from the cache.
    max_queue_depth:
        Admission control: cache misses arriving while this many
        requests are already pending are *shed* — answered immediately
        with ``status="shed"`` and no output, counted on ``serve/shed``
        — so the queue (and tail latency) stays bounded under overload.
        ``None`` (default) admits everything.
    autoscale:
        An :class:`AutoscalePolicy` enabling queue-depth replica
        autoscaling; ``n_replicas`` is then the *maximum* fleet and the
        run starts with ``autoscale.min_replicas`` active.
    """

    def __init__(self, model=None, *, n_replicas: int = 1,
                 gpus_per_replica: int = 1,
                 policy: BatchPolicy | None = None,
                 cache: TileCache | None = None,
                 cluster: VirtualCluster | None = None,
                 target_normalizer=None, n_tiles: int = 1, halo: int = 0,
                 factor: int | None = None,
                 coarse_shape: tuple[int, int] | None = None,
                 tile_serving: bool = False, plan_epoch: int = 0,
                 service_time=None, config=None,
                 tokens_per_sample: int = 4096,
                 hit_latency_s: float = 1.0e-4,
                 compile: bool = False,
                 max_queue_depth: int | None = None,
                 autoscale: AutoscalePolicy | None = None):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if hit_latency_s < 0.0:
            raise ValueError("hit_latency_s must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if autoscale is not None and autoscale.min_replicas > n_replicas:
            raise ValueError(
                f"autoscale min_replicas {autoscale.min_replicas} > fleet "
                f"of {n_replicas}")
        self.max_queue_depth = max_queue_depth
        self.autoscale = autoscale
        self.policy = policy or BatchPolicy()
        self.cache = cache
        self.cluster = cluster or VirtualCluster(n_replicas * gpus_per_replica)
        if self.cluster.world_size % n_replicas:
            raise ValueError(
                f"world {self.cluster.world_size} not divisible into "
                f"{n_replicas} replicas")
        self.n_replicas = n_replicas
        self.gpus_per_replica = self.cluster.world_size // n_replicas
        self.hit_latency_s = hit_latency_s
        self.model = model
        self._runner = None
        if model is not None:
            model.eval()
            self._runner = build_inference_runner(
                model, n_tiles=n_tiles, halo=halo, factor=factor,
                coarse_shape=coarse_shape, compile=compile)
        self._target_normalizer = target_normalizer
        self.coarse_shape = (None if coarse_shape is None else
                             (int(coarse_shape[0]), int(coarse_shape[1])))
        if service_time is not None:
            self.service_time = service_time
        elif config is not None:
            self.service_time = service_time_model(
                config, tokens_per_sample=tokens_per_sample,
                gpus_per_replica=self.gpus_per_replica,
                topology=self.cluster.topology)
        else:
            self.service_time = DEFAULT_SERVICE_TIME
        self.plan_epoch = int(plan_epoch)
        self.tile_plan: TilePlan | None = None
        self.tile_service_time = None
        if tile_serving:
            if n_tiles < 2:
                raise ValueError("tile_serving needs n_tiles >= 2")
            if coarse_shape is None:
                raise ValueError("tile_serving needs coarse_shape=(h, w)")
            plan_factor = factor
            if plan_factor is None:
                # latency-only runs have no model; the factor only scales
                # the crop geometry inside keys, so any constant works
                plan_factor = getattr(model, "factor", None) or 1
            self.tile_plan = TilePlan.build(coarse_shape, n_tiles, halo,
                                            int(plan_factor))
            if hasattr(service_time, "tile_time"):
                self.tile_service_time = service_time
            else:
                # the per-tile roofline of ``config``; without one, the
                # request-level model (or the generic default) scaled by
                # tile area
                plain = service_time if config is None else None
                self.tile_service_time = tile_service_time_model(
                    config, coarse_shape=self.tile_plan.coarse_shape,
                    n_tiles=n_tiles, halo=halo,
                    tokens_per_sample=tokens_per_sample,
                    gpus_per_replica=self.gpus_per_replica,
                    topology=self.cluster.topology,
                    per_sample_s=getattr(plain, "per_sample_s", None),
                    dispatch_s=getattr(plain, "dispatch_s", SERVE_DISPATCH_S))

    # ------------------------------------------------------------------ #
    # replica layout and whole-request execution
    # ------------------------------------------------------------------ #
    def replica_ranks(self, replica: int) -> list[int]:
        g = self.gpus_per_replica
        return list(range(replica * g, (replica + 1) * g))

    def home_rank(self, replica: int) -> int:
        return replica * self.gpus_per_replica

    def _execute(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            pred = self._runner(Tensor(x[None])).data
        if self._target_normalizer is not None:
            pred = np.stack([self._target_normalizer.denormalize(p)
                             for p in pred])
        return pred[0]

    def bump_plan_epoch(self) -> int:
        """Invalidate every tile key — call after a reshard/weight swap.

        The epoch participates in every key :class:`TilePlan` derives,
        so bumping it orphans all resident entries (they age out of the
        LRU) without clearing the cache or blocking traffic.
        """
        self.plan_epoch += 1
        return self.plan_epoch

    # ------------------------------------------------------------------ #
    # the discrete-event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: list[Request], monitor=None) -> ServeResult:
        """Serve every request; returns responses + spans + metrics.

        The loop owns what both modes share — events, autoscaling,
        admission, dispatch by signature, fan-out of completed units to
        waiting requests, close-out — and asks the mode's front end
        (:class:`_Requests` or :class:`_Tiles`) the rest.  Inputs that
        are not ``(C, *coarse_shape)`` or not finite raise ``ValueError``
        before any event runs.  Deterministic, event for event.

        ``monitor`` (a :class:`repro.obs.monitor.Monitor`) receives the
        health stream on the simulated clock: per-request latency
        (``serve/latency_s``), queue depth and a shed indicator at every
        arrival, and ``scale_up``/``scale_down`` events annotating the
        autoscaler's decisions — so SLO-burn/queue/shed rules evaluate
        at deterministic timestamps and replay bitwise.
        """
        clock = SimClock.frozen()
        metrics = MetricsRegistry()
        spans: list[Span] = []
        front = (_Tiles if self.tile_plan is not None else _Requests)(
            self, metrics, spans, monitor)
        cache, policy = self.cache, self.policy
        responses: dict[int, Response | None] = {}
        pending: list[_Unit] = []           # FIFO queue of units to compute
        open_units: dict[str, _Unit] = {}   # key -> unit queued or in flight
        assemblies: dict[int, _Assembly] = {}  # rid -> request awaiting units
        busy_s = [0.0] * self.n_replicas
        # authoritative replica frontiers: plain floats so the idle check
        # compares bit-exactly against completion-event timestamps (the
        # SimClock mirrors them for the per-rank trace timelines)
        free = [0.0] * self.n_replicas
        # autoscaling state: which replicas are active, when each active
        # window opened (for replica-seconds accounting), last scale time
        start_active = (self.autoscale.min_replicas
                        if self.autoscale is not None else self.n_replicas)
        active = [r < start_active for r in range(self.n_replicas)]
        window_open: dict[int, float] = {r: 0.0 for r in range(start_active)}
        replica_seconds = [0.0] * self.n_replicas
        last_scale = float("-inf")

        heap: list[tuple[float, int, int, object]] = []
        seq = itertools.count()     # FIFO among equal (time, kind)

        def push(t: float, kind: int, payload) -> None:
            heapq.heappush(heap, (t, kind, next(seq), payload))

        shape, checked = self.coarse_shape, set()
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.rid)):
            if req.rid in responses:
                raise ValueError(f"duplicate request id {req.rid}")
            x = req.input
            # fail at the boundary: a wrong grid would be cropped silently
            # by the tile slices, a non-finite field served and cached
            if x is not None and id(x) not in checked:
                checked.add(id(x))
                if shape is not None and (x.ndim != 3
                                          or x.shape[1:] != shape):
                    raise ValueError(f"request {req.rid}: input shape "
                                     f"{x.shape} is not (C, {shape[0]}, "
                                     f"{shape[1]})")
                if not np.isfinite(x).all():
                    raise ValueError(f"request {req.rid}: input has "
                                     f"non-finite values")
            responses[req.rid] = None  # reserve; filled on completion
            push(req.arrival_s, _ARRIVAL, req)

        def maybe_scale_up(now: float) -> None:
            nonlocal last_scale
            au = self.autoscale
            if (au is None or (n_act := sum(active)) == self.n_replicas
                    or len(pending) < au.scale_up_depth * n_act
                    or now - last_scale < au.cooldown_s):
                return
            r = active.index(False)
            active[r] = True
            # the new replica is usable after the modeled downtime of
            # remapping the shared weights onto its ranks
            free[r] = max(free[r], now + au.spinup_s)
            window_open[r] = now
            last_scale = now
            metrics.inc("serve/scale_up")
            if monitor is not None:
                monitor.event("scale_up", t=now, replica=r,
                              queue_depth=len(pending), active=sum(active))
            spans.append(Span(
                name="serve/scale_up", cat="serve", rank=self.home_rank(r),
                start_s=now, dur_s=au.spinup_s, depth=1,
                args={"replica": r, "queue_depth": len(pending),
                      "modeled": True}))
            push(now + au.spinup_s, _DEADLINE, None)

        def maybe_scale_down(now: float) -> None:
            nonlocal last_scale
            au = self.autoscale
            if (au is None or pending or sum(active) <= au.min_replicas
                    or now - last_scale < au.cooldown_s):
                return
            for r in reversed(range(self.n_replicas)):
                if active[r] and free[r] <= now:
                    active[r] = False
                    replica_seconds[r] += now - window_open.pop(r)
                    last_scale = now
                    metrics.inc("serve/scale_down")
                    if monitor is not None:
                        monitor.event("scale_down", t=now, replica=r,
                                      active=sum(active))
                    break

        def try_dispatch(now: float) -> None:
            while pending:
                idle = [r for r in range(self.n_replicas)
                        if active[r] and free[r] <= now]
                if not idle:
                    return
                # the deadline event was scheduled at exactly
                # arrival + max_wait_s, so this comparison is exact
                due = pending[0].arrival_s + policy.max_wait_s <= now
                if not due and len(pending) < policy.max_batch:
                    return
                # the batch leads with the oldest unit's signature: units
                # in one batch share an input shape, so one compiled plan
                # serves the whole forward
                sig, batch = pending[0].sig, []
                for unit in pending:
                    if unit.sig == sig:
                        batch.append(unit)
                        if len(batch) == policy.max_batch:
                            break
                if not (due or len(batch) == policy.max_batch):
                    return
                if batch[-1] is pending[len(batch) - 1]:
                    del pending[:len(batch)]     # the batch is the head
                else:
                    taken = set(map(id, batch))
                    pending[:] = [u for u in pending if id(u) not in taken]
                replica = idle[0]
                dur = float(front.price(len(batch), sig))
                if dur < 0.0:
                    raise ValueError(
                        "service_time returned a negative duration")
                end = now + dur
                free[replica] = end
                for rank in self.replica_ranks(replica):
                    clock.advance(rank, max(0.0, end - clock.now(rank)))
                busy_s[replica] += dur
                metrics.inc("serve/batches")
                metrics.inc(f"serve/replica/{replica}/batches")
                metrics.observe("serve/batch_size", len(batch))
                spans.append(Span(
                    name="serve/batch", cat="serve",
                    rank=self.home_rank(replica), start_s=now, dur_s=dur,
                    depth=1, args={"replica": replica,
                                   "batch_size": len(batch),
                                   **front.batch_args(batch, sig),
                                   "modeled": True}))
                front.dispatched(batch, replica, now, dur)
                outputs = ([front.execute(u) for u in batch]
                           if self._runner is not None else None)
                push(end, _COMPLETE, (replica, batch, now, outputs))

        def respond(asm: _Assembly, dispatch_s: float, complete_s: float,
                    replica: int | None, batch_size: int,
                    cache_hit: bool) -> None:
            req = asm.req
            responses[req.rid] = Response(
                request=req, dispatch_s=dispatch_s, complete_s=complete_s,
                replica=replica, batch_size=batch_size, cache_hit=cache_hit,
                output=front.assemble(asm.parts), **front.fields(asm))
            metrics.inc("serve/requests")
            metrics.observe("serve/latency_s", complete_s - req.arrival_s)
            metrics.observe("serve/queue_wait_s", dispatch_s - req.arrival_s)
            if monitor is not None:
                monitor.record("serve/latency_s", complete_s - req.arrival_s,
                               t=complete_s)

        duration = 0.0
        while heap:
            now, kind, _, payload = heapq.heappop(heap)
            duration = max(duration, now)
            if kind == _COMPLETE:
                replica, batch, start, outputs = payload
                for idx, unit in enumerate(batch):
                    output = outputs[idx] if outputs is not None else None
                    if cache is not None:
                        evicted = cache.put(unit.key, output) is not None
                        metrics.inc("serve/cache/evictions", evicted)
                    open_units.pop(unit.key, None)
                    for rid, slot in unit.waiters:
                        asm = assemblies[rid]
                        asm.remaining -= 1
                        asm.parts[slot] = output
                        # with several replicas an earlier-dispatched
                        # batch can complete later: keep the earliest
                        asm.dispatch_s = min(asm.dispatch_s, start)
                        if asm.remaining == 0:
                            del assemblies[rid]
                            # a coalesced unit may have been dispatched
                            # before this request arrived — queue wait
                            # is never negative
                            respond(asm, max(asm.dispatch_s,
                                             asm.req.arrival_s),
                                    now, replica, len(batch), False)
            elif kind == _ARRIVAL:
                req = payload
                shed_this = 0.0
                keys, found, needs_new = front.probe(req, open_units)
                if (needs_new and self.max_queue_depth is not None
                        and len(pending) >= self.max_queue_depth):
                    # admission control: the queue is full — shed rather
                    # than let it (and tail latency) grow without bound.
                    # Shed responses stay out of the latency histograms so
                    # rejections can't masquerade as fast service.
                    metrics.inc("serve/shed")
                    metrics.inc("serve/requests")
                    shed_this = 1.0
                    responses[req.rid] = Response(
                        request=req, dispatch_s=now, complete_s=now,
                        replica=None, batch_size=0, cache_hit=False,
                        output=None, status="shed",
                        **front.fields(_Assembly(req, [], 0, 0)))
                else:
                    parts = [None] * len(keys)
                    hits = remaining = created = 0
                    for i, key in enumerate(keys):
                        value = (found[i] if found is not None
                                 else front.lookup(key))
                        if value is not _MISS_SENTINEL:
                            hits += 1
                            parts[i] = value
                            continue
                        remaining += 1
                        unit = open_units.get(key) if front.coalesced else None
                        if unit is not None:
                            # identical unit already queued or in flight
                            # (another request, or a duplicate-content
                            # tile of this one): wait on its compute
                            unit.waiters.append((req.rid, i))
                            metrics.inc(front.coalesced)
                        else:
                            unit = _Unit(key, i, front.sigs[i], now,
                                         req.input, [(req.rid, i)])
                            if front.coalesced:
                                open_units[key] = unit
                            pending.append(unit)
                            created += 1
                    asm = _Assembly(req, parts, remaining, hits)
                    if remaining == 0:
                        end = now + self.hit_latency_s
                        duration = max(duration, end)
                        respond(asm, now, end, None, 1, True)
                    else:
                        assemblies[req.rid] = asm
                        if created:
                            push(req.arrival_s + policy.max_wait_s,
                                 _DEADLINE, None)
                        maybe_scale_up(now)
                    front.admitted(remaining, now)
                metrics.observe("serve/queue_depth", len(pending))
                if monitor is not None:
                    monitor.record("serve/queue_depth", len(pending), t=now)
                    monitor.record("serve/shed_event", shed_this, t=now)
            # _DEADLINE events carry no state; they exist to wake the
            # batcher at the max-wait boundary
            try_dispatch(now)
            maybe_scale_down(now)
            if pending and not heap:
                # all arrivals and completions processed but units remain
                # queued: wake at the earliest dispatch opportunity
                wake = min(min(free[r] for r in range(self.n_replicas)
                               if active[r]),
                           pending[0].arrival_s + policy.max_wait_s)
                push(max(wake, now), _DEADLINE, None)

        # ---------------- close out: roots, gauges ---------------- #
        for r, opened in window_open.items():
            replica_seconds[r] += duration - opened
        metrics.gauge("serve/replica_seconds", sum(replica_seconds))
        utilization: dict[int, float] = {}
        for r in range(self.n_replicas):
            util = busy_s[r] / duration if duration else 0.0
            utilization[r] = util
            metrics.inc(f"serve/replica/{r}/busy_s", busy_s[r])
            metrics.gauge(f"serve/replica/{r}/utilization", util)
            spans.append(Span(
                name="serve/replica", cat="serve", rank=self.home_rank(r),
                start_s=0.0, dur_s=duration, depth=0,
                args={"replica": r, "ranks": self.replica_ranks(r),
                      "utilization": util,
                      "active_s": replica_seconds[r], "modeled": True}))
        if cache is not None:
            metrics.gauge("serve/cache/hit_rate", cache.hit_rate)
            metrics.gauge("serve/cache/size", len(cache))
        front.close()
        metrics.gauge("serve/duration_s", duration)
        if duration:
            metrics.gauge("serve/throughput_rps", len(responses) / duration)
        ordered = [responses[rid] for rid in sorted(responses)]
        if any(resp is None for resp in ordered):
            raise RuntimeError("scheduler dropped a request")  # unreachable
        return ServeResult(responses=ordered, spans=spans, metrics=metrics,
                           duration_s=duration, n_replicas=self.n_replicas,
                           gpus_per_replica=self.gpus_per_replica,
                           utilization=utilization)


# ---------------------------------------------------------------------- #
# units of work and the per-mode front ends
# ---------------------------------------------------------------------- #
@dataclass(slots=True)
class _Unit:
    """One schedulable forward: a whole request, or one tile of one.
    ``waiters`` are the ``(rid, slot)`` pairs its output resolves."""

    key: str | None
    index: int
    sig: tuple[int, int] | None
    arrival_s: float
    input: np.ndarray | None
    waiters: list[tuple[int, int]]


@dataclass(slots=True)
class _Assembly:
    """An admitted request waiting on its units: ``parts`` fills in as
    batches complete; ``dispatch_s`` is the earliest unit start."""

    req: Request
    parts: list
    remaining: int
    hits: int
    dispatch_s: float = float("inf")


class _Requests:
    """Whole-request front end: a request is one unit, keyed by content
    hash, run through :meth:`DownscalingService._execute` and priced by
    ``service_time(B)``; reassembly is the identity.  Everything that
    differs between the serving modes is decided by a front end."""

    hits, misses = "serve/cache/hits", "serve/cache/misses"
    coalesced = None    # in-flight duplicates each compute their own unit
    sigs = (None,)      # every unit batches with every other

    def __init__(self, service: DownscalingService, metrics, spans, monitor):
        self.service, self.metrics = service, metrics
        self.cache, self.spans, self.monitor = service.cache, spans, monitor

    def probe(self, req: Request, open_units) -> tuple:
        """``(keys, found, needs_new)`` at arrival, before the shed
        decision.  Whole requests look the cache up (counted) first, so
        a hit is answered even when the queue is full."""
        if self.cache is None:
            return [None], [_MISS_SENTINEL], True
        key = (content_key(req.input) if req.input is not None
               else f"sample:{req.sample}")
        value = self.lookup(key)
        return [key], [value], value is _MISS_SENTINEL

    def lookup(self, key):
        """One counted cache probe (a miss when there is no cache)."""
        value = (_MISS_SENTINEL if self.cache is None
                 else self.cache.get(key, _MISS_SENTINEL))
        self.metrics.inc(self.misses if value is _MISS_SENTINEL
                         else self.hits)
        return value

    def price(self, batch_size: int, sig) -> float:
        return self.service.service_time(batch_size)

    def execute(self, unit: _Unit) -> np.ndarray:
        return self.service._execute(unit.input)

    def assemble(self, parts: list):
        return parts[0]

    def batch_args(self, batch: list[_Unit], sig) -> dict:
        return {"rids": [u.waiters[0][0] for u in batch]}

    def fields(self, asm: _Assembly) -> dict:
        """Extra :class:`Response` fields (the ``tiles*`` stay 0 here)."""
        return {}

    def dispatched(self, *args) -> None:
        """Tile-only observability hooks; whole requests have none."""

    admitted = close = dispatched


class _Tiles(_Requests):
    """Tile front end: a request is ``n_tiles`` units keyed by
    :meth:`TilePlan.tile_key`, run one tile each, priced by
    ``tile_service_time(B, sig)`` and stitched back by :meth:`assemble`.
    Identical tiles in flight are coalesced across requests."""

    hits, misses = "serve/tile/hits", "serve/tile/misses"
    coalesced = "serve/tile/coalesced"

    def __init__(self, service, metrics, spans, monitor):
        super().__init__(service, metrics, spans, monitor)
        self.plan = service.tile_plan
        self.n_tiles = self.plan.n_tiles
        self.sigs = [self.plan.signature(i) for i in range(self.n_tiles)]
        self.price = service.tile_service_time   # (batch_size, sig)

    def probe(self, req, open_units):
        """Keys plus an uncounted membership pre-check, so a shed
        request never moves the hit/miss counters; admitted tiles are
        then looked up one by one."""
        epoch = self.service.plan_epoch
        keys = [self.plan.tile_key(i, input=req.input,
                                   versions=req.tile_versions,
                                   sample=req.sample, epoch=epoch)
                for i in range(self.n_tiles)]
        cache = self.cache
        needs_new = any(k not in open_units
                        and (cache is None or k not in cache) for k in keys)
        return keys, None, needs_new

    def execute(self, unit):
        """One tile forward as :class:`TiledDownscaler` runs it: slice the
        halo region, run the *inner* model (compiled per tile when
        ``compile=True``), return the frozen normalized core."""
        spec = self.plan.specs[unit.index]
        with no_grad():
            out = self.service._runner.model(
                extract_tile(Tensor(unit.input[None]), spec)).data
        return self.plan.crop_core(out, unit.index)

    def assemble(self, parts):
        """Stitch normalized cores (``stitch_tiles`` arithmetic), then
        denormalize — :meth:`DownscalingService._execute` op for op, so
        the bytes match a whole-request forward whichever tiles hit."""
        if self.service._runner is None:
            return None
        pred = self.plan.assemble(parts)
        if self.service._target_normalizer is not None:
            pred = self.service._target_normalizer.denormalize(pred)
        return pred

    def batch_args(self, batch, sig):
        return {"tiles": [u.index for u in batch], "signature": list(sig)}

    def fields(self, asm):
        return {"tiles": self.n_tiles, "tiles_hit": asm.hits,
                "tiles_computed": len(asm.parts) - asm.hits}

    def dispatched(self, batch, replica, start, dur):
        service = self.service
        self.metrics.observe("serve/tile/batch_occupancy",
                             len(batch) / service.policy.max_batch)
        # child spans: the dispatch overhead leads, then the tiles run
        # back to back inside the batch window
        dispatch_s = getattr(service.tile_service_time, "dispatch_s", 0.0)
        tile_s = max(0.0, dur - dispatch_s) / len(batch)
        t0 = start + (dur - tile_s * len(batch))
        for k, unit in enumerate(batch):
            self.spans.append(Span(
                name="serve/tile", cat="serve",
                rank=service.home_rank(replica),
                start_s=t0 + k * tile_s, dur_s=tile_s, depth=2,
                args={"tile": unit.index, "waiters": len(unit.waiters),
                      "modeled": True}))

    def admitted(self, remaining, now):
        if self.monitor is not None:
            self.monitor.record("serve/tile_miss_rate",
                                remaining / self.n_tiles, t=now)

    def close(self):
        th = self.metrics.counters.get(self.hits, 0.0)
        tm = self.metrics.counters.get(self.misses, 0.0)
        self.metrics.gauge("serve/tile/hit_rate",
                           th / (th + tm) if th + tm else 0.0)
