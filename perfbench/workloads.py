"""The four benchmark workloads, from training to serving.

Each workload is built from ``--seed`` and runs as a sequence of
*episodes*.  An episode starts from a fresh :meth:`Workload.setup` (timed
as ``setup_s``) and replays a fixed amount of work, so every episode of
one seed does identical work and produces identical results: a train
episode runs a fixed number of epochs, a serve episode serves a fixed
list of traffic windows.  Timing samples come from every episode; counts
and losses repeat exactly and are checked to.

Why these four (each stresses layers the others bypass):

* ``train_single`` — eager ``Trainer`` on the ``repro train`` default
  task.  The autograd tape, the fused kernels, AdamW, checkpointing and
  the synthetic data generator are all on the blocking path; data
  generation is a large share of wall time.  Nothing in
  ``repro.distributed`` or ``repro.serve`` runs.
* ``train_composite`` — ``DistributedEngine`` on a tp=1 x fsdp=2 x
  tiles=2 x ddp=2 plan over 8 virtual ranks, bucketed overlap and
  compiled replay.  Ring collectives, the bucketer, flat buffers, TILES
  halo slicing and ``CompiledStep`` replay dominate; the eager tape runs
  only at capture, which is part of set-up.
* ``serve_tiles`` — tile-granular ``DownscalingService`` with compiled
  forwards on the rolling-forecast scenario.  The tile update rate is
  well below the arrival rate, so most tiles hit: the read side (tile
  keys, cache hits, coalescing, per-signature batches) dominates.
* ``serve_requests`` — whole-request ``DownscalingService`` with an eager
  forward on steady Zipf traffic over 64 inputs and a 16-entry cache, so
  the cache misses, inserts and evicts and the request-level loop
  ``DownscalingService.run`` is measured.

Serving inputs and models are built during set-up, so the data layer
does no timed work in either serve workload.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.hostspeed import HostSpeed
from repro.core import PAPER_CONFIGS, ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.distributed import CompositePlan, VirtualCluster
from repro.serve import (ROLLING, BatchPolicy, DownscalingService, Request,
                         TileCache, TrafficGenerator)
from repro.tensor import Tensor, graph_counters, no_grad
from repro.train import (DistributedEngine, TrainConfig, Trainer,
                         build_inference_runner, load_checkpoint,
                         measure_sample_flops, save_checkpoint)

__all__ = ["WORKLOADS", "EpisodeLog", "Tally", "check_response"]

#: per-seed sub-seeds: one stream each for the data, the weights, and
#: the batch order (training) or the responses checked (serving)
_DATA, _WEIGHTS, _SAMPLE = range(3)


def _subseed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# ---------------------------------------------------------------------- #
# bookkeeping shared by every workload
# ---------------------------------------------------------------------- #
@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok


@dataclass
class EpisodeLog:
    """Everything one episode measured.

    Timings are ``(raw seconds, probe index)`` pairs: the episode calls
    :meth:`tick` before each timed operation, which closes the current
    segment of the timed region, probes the host and opens the next
    segment.  :meth:`scaled` turns a pair into seconds at the host's
    reference speed (see :mod:`perfbench.hostspeed`).  ``untimed_s`` is
    time spent outside the timed region (probes, correctness checks,
    per-step bookkeeping).
    """

    speed: HostSpeed
    steps: list[tuple] = field(default_factory=list)
    data: list[tuple] = field(default_factory=list)
    ckpt_save: list[tuple] = field(default_factory=list)
    ckpt_load: list[tuple] = field(default_factory=list)
    segments: list[tuple] = field(default_factory=list)
    ckpt_bytes: int = 0
    items: int = 0
    losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    graph_deltas: list[dict] = field(default_factory=list)
    comm: list[dict] = field(default_factory=list)
    windows: list[dict] = field(default_factory=list)
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    untimed_s: float = 0.0
    timed_s: float = 0.0  # wall time of the episode minus untimed_s
    arena_base: int = 0  # compiled-arena gauge before set-up
    _segment: tuple | None = None

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - t0

    def _close(self, now: float) -> None:
        if self._segment is not None:
            start, untimed0, probe = self._segment
            self.segments.append(
                (now - start - (self.untimed_s - untimed0), probe))
            self._segment = None

    def tick(self) -> None:
        """Probe the host before a timed operation."""
        self._close(time.perf_counter())
        with self.untimed():
            probe = self.speed.probe()
        self._segment = (time.perf_counter(), self.untimed_s, probe)

    def close(self) -> None:
        self._close(time.perf_counter())

    def add(self, series: list, seconds: float) -> None:
        series.append((seconds, len(self.speed.samples) - 1))

    def scaled(self, pairs) -> list[float]:
        return [raw * self.speed.scale(i) for raw, i in pairs]

    @property
    def scaled_timed_s(self) -> float:
        return sum(self.scaled(self.segments))

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else math.nan


_UNTRACED = nullcontext()


def _span(rec, name: str, layer: str):
    return _UNTRACED if rec is None else rec.span(name, layer)


def check_response(resp, reference: np.ndarray | None) -> str | None:
    """Why one served response is a failure, or ``None`` when it is not.

    A shed request fails; a sampled request whose output is not
    bitwise-equal to its reference fails.
    """
    if resp.status != "ok":
        return f"request {resp.request.rid} {resp.status}"
    if reference is None:
        return None
    out = resp.output
    if out is None or out.shape != reference.shape \
            or out.dtype != reference.dtype \
            or not np.array_equal(out, reference):
        return f"request {resp.request.rid} differs from its reference"
    return None


# ---------------------------------------------------------------------- #
# training workloads
# ---------------------------------------------------------------------- #
class _TrainWorkload:
    """Drives ``train_step`` the way ``Trainer.train_epoch`` does:
    iterate ``DownscalingDataset.batches(shuffle=True)`` once per epoch."""

    unit = "samples"
    compiled = False

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def _dataset(self, grid, n_years, per_year) -> DownscalingDataset:
        years = tuple(range(2000, 2000 + n_years))
        spec = DatasetSpec(name=self.name, fine_grid=Grid(*grid), factor=4,
                           years=years, samples_per_year=per_year,
                           seed=_subseed(self.seed, _DATA) % (2 ** 31),
                           output_channels=(17, 18, 19))
        return DownscalingDataset(spec, years=years)

    def _batches(self, state):
        rng = state["order_rng"]
        return state["dataset"].batches(state["batch"], shuffle=True, rng=rng)

    def episode(self, state, log: EpisodeLog, tally: Tally, rec=None) -> None:
        trainer = state["trainer"]
        log.counters_before = graph_counters()
        pending = state.pop("pending", None)  # epoch 0 after a capture step
        for epoch in range(state["epochs"]):
            losses = []
            if pending is not None:
                batches, first_loss = pending
                losses.append(first_loss)
                pending = None
            else:
                batches = self._batches(state)
            while True:
                if rec is not None:
                    rec.op = len(log.steps)
                log.tick()
                t0 = time.perf_counter()
                with _span(rec, "data.next", "data"):
                    batch = next(batches, None)
                t1 = time.perf_counter()
                if batch is None:
                    break
                log.add(log.data, t1 - t0)
                if rec is not None:
                    with log.untimed():
                        g0 = graph_counters()
                t1 = time.perf_counter()
                try:
                    with _span(rec, "train.step", "train"):
                        loss = trainer.train_step(batch)
                except Exception as exc:  # count the failure, keep going
                    tally.check(False, f"train_step raised {exc!r}")
                    continue
                log.add(log.steps, time.perf_counter() - t1)
                log.items += len(batch.inputs)
                with log.untimed():
                    if rec is not None:
                        g1 = graph_counters()
                        log.graph_deltas.append(
                            {k: g1[k] - g0[k] for k in g1})
                        if hasattr(trainer, "communication_summary"):
                            log.comm.append(
                                trainer.communication_summary(reset=True))
                    tally.check(math.isfinite(loss),
                                f"non-finite loss {loss} at step "
                                f"{len(log.losses)}")
                    losses.append(loss)
                    log.losses.append(loss)
            log.epoch_losses.append(float(np.mean(losses)))
            self._epoch_end(state, log, tally, rec)
        with log.untimed():
            log.counters_after = graph_counters()
            first, last = log.epoch_losses[0], log.epoch_losses[-1]
            tally.check(last < first,
                        f"last epoch loss {last} not below first {first}")

    def _epoch_end(self, state, log, tally, rec) -> None:
        pass

    def flops_per_sample(self, state) -> float:
        shape = state["dataset"].spec.coarse_grid
        return measure_sample_flops(
            state["factory"](), (1, 23, shape.n_lat, shape.n_lon),
            training=True)


class TrainSingle(_TrainWorkload):
    name = "train_single"

    def setup(self) -> dict:
        tiny = self.tiny
        grid = (16, 32) if tiny else (32, 64)
        dataset = self._dataset(grid, 2 if tiny else 5, 2 if tiny else 6)
        dim, depth, heads = (16, 1, 2) if tiny else (32, 2, 4)
        config = ModelConfig(self.name, embed_dim=dim, depth=depth,
                             num_heads=heads)
        wseed = _subseed(self.seed, _WEIGHTS)

        def factory():
            return Reslim(config, in_channels=23, out_channels=3, factor=4,
                          max_tokens=4096, rng=np.random.default_rng(wseed))

        model = factory()
        epochs = 2 if tiny else 3
        trainer = Trainer(model, dataset, TrainConfig(
            epochs=epochs, batch_size=4, lr=4e-3, seed=self.seed))
        self.workdir.mkdir(parents=True, exist_ok=True)
        return {"dataset": dataset, "trainer": trainer, "model": model,
                "factory": factory, "shadow": factory(), "batch": 4,
                "epochs": epochs,
                "order_rng": np.random.default_rng(
                    _subseed(self.seed, _SAMPLE)),
                "ckpt": self.workdir / f"ckpt_{self.name}_{os.getpid()}.pkl"}

    def _epoch_end(self, state, log, tally, rec) -> None:
        model, shadow, path = state["model"], state["shadow"], state["ckpt"]
        t0 = time.perf_counter()
        try:
            with _span(rec, "train.ckpt_save", "train"):
                save_checkpoint(model, path)
            t1 = time.perf_counter()
            with _span(rec, "train.ckpt_load", "train"):
                load_checkpoint(shadow, path)
            t2 = time.perf_counter()
        except Exception as exc:
            tally.check(False, f"checkpoint round trip raised {exc!r}")
            return
        log.add(log.ckpt_save, t1 - t0)
        log.add(log.ckpt_load, t2 - t1)
        with log.untimed():
            log.ckpt_bytes = path.stat().st_size
            saved, loaded = model.state_dict(), shadow.state_dict()
            tally.check(
                saved.keys() == loaded.keys()
                and all(np.array_equal(saved[k], loaded[k]) for k in saved),
                "reloaded checkpoint differs from the saved parameters")


class TrainComposite(_TrainWorkload):
    name = "train_composite"
    compiled = True

    def setup(self) -> dict:
        tiny = self.tiny
        dataset = self._dataset((16, 32), 1 if tiny else 2, 4 if tiny else 8)
        dim = 16 if tiny else 32
        config = ModelConfig(self.name, embed_dim=dim, depth=1, num_heads=4)
        wseed = _subseed(self.seed, _WEIGHTS)

        def factory(unit_index=0):
            return Reslim(config, 23, 3, factor=4, max_tokens=64,
                          rng=np.random.default_rng(wseed))

        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)
        epochs = 2 if tiny else 3
        engine = DistributedEngine(
            factory, dataset, TrainConfig(epochs=epochs, batch_size=2,
                                          lr=2e-3, seed=self.seed),
            plan, halo=2, factor=4, overlap=True, compile=True)
        state = {"dataset": dataset, "trainer": engine, "factory": factory,
                 "batch": 2, "epochs": epochs,
                 "order_rng": np.random.default_rng(
                     _subseed(self.seed, _SAMPLE))}
        # the first step captures the compiled programs: set-up work
        batches = self._batches(state)
        first = engine.train_step(next(batches))
        engine.communication_summary(reset=True)
        state["pending"] = (batches, first)
        return state

    def _epoch_end(self, state, log, tally, rec) -> None:
        with log.untimed():
            try:
                state["trainer"].assert_synchronized(atol=0.0)
                ok, why = True, ""
            except AssertionError as exc:
                ok, why = False, str(exc)
            tally.check(ok, f"units out of sync: {why}")


# ---------------------------------------------------------------------- #
# serving workloads
# ---------------------------------------------------------------------- #
_SERVE_MODEL = ModelConfig("serve", embed_dim=16, depth=1, num_heads=2)
_SERVE_COARSE = (16, 32)
_SERVE_POLICY = BatchPolicy(max_batch=8, max_wait_s=0.02)


class _ServeWorkload:
    """Serves a fixed list of traffic windows, one ``run`` call each.

    The cache lives across the windows of an episode, so later windows
    see the working set the earlier ones left behind.
    """

    unit = "requests"
    compiled = False
    n_tiles, halo = 1, 0
    n_refs = 2  # sampled reference checks per window

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self._refs: dict = {}

    def _dataset(self, n_years: int, per_year: int) -> DownscalingDataset:
        years = tuple(range(2000, 2000 + n_years))
        h, w = _SERVE_COARSE
        spec = DatasetSpec(name=self.name, fine_grid=Grid(h * 4, w * 4),
                           factor=4, years=years, samples_per_year=per_year,
                           seed=_subseed(self.seed, _DATA) % (2 ** 31),
                           output_channels=(17, 18, 19))
        ds = DownscalingDataset(spec, years=years)
        ds.fit_normalizer()
        return ds

    def _factory(self):
        wseed = _subseed(self.seed, _WEIGHTS)
        return lambda: Reslim(_SERVE_MODEL, 23, 3, factor=4, max_tokens=256,
                              rng=np.random.default_rng(wseed))

    def _service(self, model, dataset, cache, **kw) -> DownscalingService:
        return DownscalingService(
            model, n_replicas=2, gpus_per_replica=8, policy=_SERVE_POLICY,
            cache=cache, target_normalizer=dataset.target_normalizer,
            config=PAPER_CONFIGS["9.5M"], **kw)

    def _window_seed(self, k: int, n_windows: int) -> int:
        """Traffic seed of window ``k``: every workload seed serves the
        same set of window realizations, in an order rotated by the seed.

        The cache carries over from window to window, so the order
        changes what hits.  A fixed set keeps the traffic mix (misses per
        request, tile updates) equal across seeds: with independent
        per-seed traffic the miss fraction alone moved throughput by
        3-5% between seeds, as much as the host's own noise.
        """
        return (k + self.seed) % n_windows

    def _sample(self, windows) -> list[set]:
        """A seeded sample of the states each window serves."""
        rng = np.random.default_rng(_subseed(self.seed, _SAMPLE))
        picked = []
        for w in windows:
            samples = sorted({r.sample for r in w["requests"]})
            k = min(self.n_refs, len(samples))
            picked.append({int(s) for s in rng.choice(samples, k,
                                                      replace=False)})
        return picked

    def _reference(self, state, window: int, sample: int) -> np.ndarray:
        """The eager ``build_inference_runner`` output for one state, tiled
        like the service.  Computed once per process: every episode of a
        seed builds the same weights and inputs."""
        key = (window, sample)
        ref = self._refs.get(key)
        if ref is None:
            if "ref_runner" not in state:
                model = state["factory"]()
                model.eval()
                state["ref_runner"] = build_inference_runner(
                    model, n_tiles=self.n_tiles, halo=self.halo,
                    coarse_shape=_SERVE_COARSE)
            runner = state["ref_runner"]
            x = state["windows"][window]["states"][sample]
            with no_grad():
                pred = runner(Tensor(x[None])).data
            norm = state["dataset"].target_normalizer
            ref = np.stack([norm.denormalize(p) for p in pred])[0]
            self._refs[key] = ref
        return ref

    def episode(self, state, log: EpisodeLog, tally: Tally, rec=None) -> None:
        service = state["service"]
        log.counters_before = graph_counters()
        for k, window in enumerate(state["windows"]):
            if rec is not None:
                rec.op = k
                with log.untimed():
                    g0 = graph_counters()
            requests = window["requests"]
            log.tick()
            t0 = time.perf_counter()
            try:
                with _span(rec, "serve.run", "serve"):
                    result = service.run(requests)
            except Exception as exc:  # every request of the window failed
                for _ in requests:
                    tally.check(False, f"window {k} run raised {exc!r}")
                continue
            log.add(log.steps, time.perf_counter() - t0)
            log.items += len(requests)
            with log.untimed():
                if rec is not None:
                    g1 = graph_counters()
                    log.graph_deltas.append({c: g1[c] - g0[c] for c in g1})
                s = result.summary()
                log.windows.append(s)
                sampled = state["sampled"][k]
                for resp in result.responses:
                    ref = (self._reference(state, k, resp.request.sample)
                           if resp.request.sample in sampled else None)
                    why = check_response(resp, ref)
                    tally.check(why is None, f"window {k}: {why}")
        with log.untimed():
            log.counters_after = graph_counters()

    def flops_per_sample(self, state) -> float:
        h, w = _SERVE_COARSE
        return measure_sample_flops(state["factory"](), (1, 23, h, w),
                                    training=False)


class ServeTiles(_ServeWorkload):
    name = "serve_tiles"
    compiled = True
    n_tiles, halo = 16, 2

    def setup(self) -> dict:
        tiny = self.tiny
        dataset = self._dataset(1, 1)
        base = dataset.normalizer.normalize(dataset.raw_pair(0)[0])
        factory = self._factory()
        model = factory()
        capacity = 64
        service = self._service(
            model, dataset, TileCache(capacity), n_tiles=self.n_tiles,
            halo=self.halo, coarse_shape=_SERVE_COARSE, tile_serving=True,
            compile=True)
        # one request computes every tile: captures each tile signature
        service.run([Request(rid=0, arrival_s=0.0, sample=0, input=base)])
        service.cache = TileCache(capacity)
        rate, span_s, n_windows = (100.0, 0.1, 2) if tiny else (400.0, 0.25, 24)
        windows = []
        for k in range(n_windows):
            gen = TrafficGenerator(
                ROLLING, rate, span_s,
                seed=self._window_seed(k, n_windows),
                n_tiles=self.n_tiles, tile_update_rate=rate / 10)
            requests = gen.generate(inputs=[base])
            windows.append({"requests": requests, "states": gen.states})
            base = gen.states[-1]
        state = {"dataset": dataset, "service": service, "factory": factory,
                 "windows": windows}
        state["sampled"] = self._sample(windows)
        return state


class ServeRequests(_ServeWorkload):
    name = "serve_requests"

    def setup(self) -> dict:
        tiny = self.tiny
        n_years, per_year = (1, 8) if tiny else (4, 16)
        dataset = self._dataset(n_years, per_year)
        inputs = [dataset.normalizer.normalize(dataset.raw_pair(i)[0])
                  for i in range(len(dataset))]
        factory = self._factory()
        service = self._service(factory(), dataset,
                                TileCache(4 if tiny else 16))
        rate, span_s, n_windows = (100.0, 0.1, 2) if tiny else (400.0, 0.25, 24)
        windows = []
        for k in range(n_windows):
            gen = TrafficGenerator(
                "steady", rate, span_s,
                seed=self._window_seed(k, n_windows),
                n_inputs=len(inputs))
            windows.append({"requests": gen.generate(inputs=inputs),
                            "states": inputs})
        state = {"dataset": dataset, "service": service, "factory": factory,
                 "windows": windows}
        state["sampled"] = self._sample(windows)
        return state


WORKLOADS = {w.name: w for w in (TrainSingle, TrainComposite, ServeTiles,
                                 ServeRequests)}
