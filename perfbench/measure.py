"""Run a workload's episodes and turn them into metrics.

:func:`measure` runs untraced episodes (``--trace 0``) and reports the
end-to-end metrics.  :func:`measure_traced` alternates untraced and
traced episodes (``--trace 1``): the traced ones give the per-layer
metrics and the per-layer table, the untraced ones the base of
``obs.trace_overhead``.  Every phase is timed directly around its own
call; timings are reported as medians and percentiles with their sample
counts, never best-of.  The one subtraction is self time inside a single
traced run (``serve.loop_self_s`` and the per-layer busy times).

Per-layer metrics, and the end-to-end metric each should move (on the
workloads not named, the prediction is no change):

* ``data.*`` — ``next()`` on ``DownscalingDataset.batches``: the median
  batch and its share of wall time; ``samples_per_s`` on
  ``train_single``, less on ``train_composite``.
* ``tensor.*`` / ``nn.optim_p50_s`` — medians per call of the root
  module's ``__call__``, ``Tensor.backward`` and ``AdamW.step``; per-step
  ``graph_counters()`` deltas; ``measure_sample_flops`` and FLOPs over
  eager forward+backward time (0 where the eager tape does not run);
  ``step_p50_s`` on ``train_single``, ``samples_per_s`` on
  ``serve_requests``.
* ``compile.*`` — counter deltas per episode and the median replay of
  ``CompiledStep.__call__``; ``step_p50_s`` and ``setup_s`` on
  ``train_composite``, ``samples_per_s`` on ``serve_tiles``.
* ``dist.*`` — per-step ``communication_summary(reset=True)`` counts and
  bytes, and the wall time inside ``ProcessGroup`` collectives and
  ``Work.wait``; ``step_p50_s`` on ``train_composite``.
* ``tiles.*`` and ``serve.*_s`` — self time per serving window (per step
  for ``tiles`` on training) of halo slicing, cropping and assembly, tile
  and content keys, cache reads and writes, forwards, and the ``run``
  loop itself; counts per episode from ``ServeResult.summary()``;
  ``samples_per_s`` on ``serve_tiles`` (reads) and ``serve_requests``
  (writes).  ``serve.loop_self_s`` must not rise when the two serving
  loops become one.
* ``train.ckpt_*`` — ``save_checkpoint`` / ``load_checkpoint`` medians and
  file size; ``samples_per_s`` on ``train_single``.
* ``obs.*`` — traced over untraced episode time (host-speed scaled),
  minus 1, and the share of traced wall time the benchmark's top-level
  spans cover.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.hostspeed import HostSpeed
from perfbench.spans import END, EXTRA, LAYER, NAME, PARENT, START, \
    SpanRecorder, self_times
from perfbench.workloads import EpisodeLog, Tally

__all__ = ["Run", "measure", "measure_traced", "end_to_end", "per_layer",
           "report_lines", "layer_table", "install_wrappers", "check_repeats"]

MIN_SETUPS = 3


@dataclass
class Run:
    """All episodes of one invocation, traced or not."""

    workload: object
    tally: Tally = field(default_factory=Tally)
    speed: HostSpeed = field(default_factory=HostSpeed)
    setups: list[tuple] = field(default_factory=list)  # (raw s, probe)
    logs: list[EpisodeLog] = field(default_factory=list)
    traced: list[EpisodeLog] = field(default_factory=list)
    recorder: SpanRecorder | None = None
    state: dict | None = None


def _setup(run: Run):
    run.state = None
    gc.collect()
    from repro.tensor import graph_counters
    base = graph_counters()["arena_bytes"]
    run.speed.probe()
    t0 = time.perf_counter()
    state = run.workload.setup()
    raw = time.perf_counter() - t0
    run.setups.append((raw, run.speed.probe()))
    return state, base


def _episode(run: Run, state, base: int, rec=None) -> EpisodeLog:
    log = EpisodeLog(run.speed)
    t0 = time.perf_counter()
    run.workload.episode(state, log, run.tally, rec)
    log.close()
    log.timed_s = time.perf_counter() - t0 - log.untimed_s
    log.arena_base = base
    run.state = state
    return log


def measure(workload, seconds: float) -> Run:
    run = Run(workload)
    deadline = time.perf_counter() + seconds
    while not run.logs or time.perf_counter() < deadline:
        state, base = _setup(run)
        run.logs.append(_episode(run, state, base))
    while len(run.setups) < MIN_SETUPS:
        _setup(run)
    return run


def measure_traced(workload, seconds: float) -> Run:
    run = Run(workload, recorder=SpanRecorder())
    deadline = time.perf_counter() + seconds
    while len(run.traced) < 1 or time.perf_counter() < deadline:
        state, base = _setup(run)
        if len(run.logs) <= len(run.traced):
            run.logs.append(_episode(run, state, base))
            continue
        first_span = len(run.recorder.spans)
        install_wrappers(run.recorder, state)
        try:
            log = _episode(run, state, base, run.recorder)
        finally:
            run.recorder.uninstall()
        run.traced.append(log)
        cross_check(run, state, log, first_span)
    return run


# ---------------------------------------------------------------------- #
# the wrapped entry points
# ---------------------------------------------------------------------- #
def _batch_of(args, result, _):
    x = args[1]
    return int(getattr(x, "data", x).shape[0])


def _cache_hit(args, result, _):
    return result is not args[2] if len(args) > 2 else result is not None


def _evicted(args, result, _):
    return result is not None


def _captures() -> int:
    from repro.tensor import graph_counters
    return graph_counters()["captures"]


def _captured(args, result, before) -> bool:
    return _captures() != before


def install_wrappers(rec: SpanRecorder, state: dict) -> None:
    """Wrap each layer's public entry points where callers look them up."""
    import repro.serve.service as service_mod
    import repro.serve.tiling as tiling_mod
    from repro.distributed import ProcessGroup, Work
    from repro.nn import AdamW
    from repro.serve import TileCache, TilePlan
    from repro.tensor import CompiledForward, CompiledStep, Tensor

    root = type(state["factory"]())
    rec.wrap(root, "__call__", "tensor.forward", "tensor", extra=_batch_of)
    rec.wrap(Tensor, "backward", "tensor.backward", "tensor")
    rec.wrap(AdamW, "step", "nn.optim_step", "nn")
    rec.wrap(CompiledStep, "__call__", "compile.step", "compile",
             extra=_captured, before=_captures)
    rec.wrap(CompiledForward, "__call__", "compile.forward", "compile")
    for op in ("all_reduce", "all_gather", "reduce_scatter"):
        for name in (op, op + "_async"):
            rec.wrap(ProcessGroup, name, f"dist.{op}", "dist",
                     extra=lambda args, result, _, name=name: (id(args[0]),
                                                               name))
    rec.wrap(Work, "wait", "dist.wait", "dist")
    rec.wrap(TilePlan, "slice_halo", "tiles.slice_halo", "tiles")
    rec.wrap(service_mod, "extract_tile", "tiles.extract_tile", "tiles")
    rec.wrap(TilePlan, "crop_core", "tiles.crop_core", "tiles")
    rec.wrap(TilePlan, "assemble", "tiles.assemble", "tiles")
    rec.wrap(TilePlan, "tile_key", "serve.tile_key", "serve")
    rec.wrap(service_mod, "content_key", "serve.content_key", "serve")
    rec.wrap(tiling_mod, "content_key", "serve.content_key", "serve")
    rec.wrap(TileCache, "get", "serve.cache_get", "serve", extra=_cache_hit)
    rec.wrap(TileCache, "put", "serve.cache_put", "serve", extra=_evicted)


# ---------------------------------------------------------------------- #
# end-to-end metrics (untraced)
# ---------------------------------------------------------------------- #
def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _raw(pairs) -> list[float]:
    return [raw for raw, _ in pairs]


def end_to_end(run: Run) -> dict:
    """``{name: value}`` for every bounded end-to-end metric.

    Times are scaled to the host's reference speed; throughput is the
    median over episodes of samples (or requests) per scaled second.
    """
    steps = [t for log in run.logs for t in log.scaled(log.steps)]
    return {
        "setup_s": statistics.median(
            raw * run.speed.scale(i) for raw, i in run.setups),
        "samples_per_s": statistics.median(
            log.items / log.scaled_timed_s for log in run.logs),
        "step_p50_s": _pct(steps, 50),
        "step_p90_s": _pct(steps, 90),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_lines(run: Run, metrics: dict) -> list[str]:
    """Every end-to-end number with its unit and sample count — the
    workload-specific ones that are not bounded metrics too — with the
    raw wall-clock figure beside each scaled one."""
    logs, wl = run.logs, run.workload
    raw_steps = _raw(s for log in logs for s in log.steps)
    n = len(raw_steps)
    items = sum(log.items for log in logs)
    raw_rate = statistics.median(log.items / log.timed_s
                                 for log in logs)
    step = "train_step" if wl.unit == "samples" else "service.run window"

    def row(name, unit, raw, note):
        value = metrics[name]
        return (f"{name:<16s} {value:12.6g} {unit:<9s} raw {raw:12.6g}  "
                f"({note})")

    rate_name = "samples/s" if wl.unit == "samples" else "req/s"
    lines = [
        f"host speed index {run.speed.index():.3f} (median probe over "
        f"reference, {len(run.speed.samples)} probes)",
        row("setup_s", "s", statistics.median(_raw(run.setups)),
            f"median of {len(run.setups)} set-ups"),
        row("samples_per_s", rate_name, raw_rate,
            f"median of {len(logs)} episodes, {items} {wl.unit}"),
        row("step_p50_s", "s", _pct(raw_steps, 50), f"{step}, n={n}"),
        row("step_p90_s", "s", _pct(raw_steps, 90), f"{step}, n={n}"),
        row("peak_rss_mb", "MB", metrics["peak_rss_mb"], "ru_maxrss"),
    ]
    if wl.unit == "requests":
        lines.append(f"requests_per_s   {metrics['samples_per_s']:12.6g} "
                     f"req/s     (= samples_per_s: one request downscales "
                     f"one sample)")
        lines.append(f"modeled_p99_s    {_modeled_p99(logs[0]):12.9g} s  "
                     f"(median over {len(logs[0].windows)} windows of "
                     f"ServeResult.summary()['latency_p99_s'])")
    else:
        lines.append(f"final_loss       {logs[0].final_loss:12.9g}  "
                     f"(mean step loss of the last epoch)")
    return lines


def _modeled_p99(log: EpisodeLog) -> float:
    return statistics.median(w["latency_p99_s"] for w in log.windows) \
        if log.windows else 0.0


def check_repeats(run: Run) -> None:
    """Episodes of one seed replay identical work: losses, graph-counter
    deltas and serving summaries must repeat exactly."""
    logs = run.logs + run.traced
    first = logs[0]
    for log in logs[1:]:
        run.tally.check(log.losses == first.losses,
                        "losses differ between episodes of one seed")
        run.tally.check(
            [_counts(w) for w in log.windows]
            == [_counts(w) for w in first.windows],
            "serving counts differ between episodes of one seed")
        run.tally.check(
            _compile_counts(log) == _compile_counts(first),
            "compile counters differ between episodes of one seed")


def _counts(summary: dict) -> tuple:
    keys = ("requests", "latency_p99_s", "cache_hits", "cache_misses",
            "cache_evictions", "tile_hits", "tile_misses", "tile_coalesced",
            "batches", "shed")
    return tuple(summary.get(k, 0.0) for k in keys)


def _compile_counts(log: EpisodeLog) -> tuple:
    return tuple(log.counters_after[k] - log.counters_before[k]
                 for k in ("captures", "replays", "guard_misses"))


def cross_check(run: Run, state: dict, log: EpisodeLog, first: int) -> None:
    """The counts the program reports for one traced episode must equal
    the calls the wrappers saw: collectives per level and op against
    ``communication_summary``, cache lookups, evictions and forwards
    against ``ServeResult.summary()``."""
    check = run.tally.check
    all_spans = run.recorder.spans
    spans = all_spans[first:]
    if log.comm:
        level_of = {id(g): level for level, groups in
                    state["trainer"].strategy.level_groups().items()
                    for g in groups}
        seen: dict = {}
        launched: dict = {}
        for s in spans:
            if s[LAYER] == "dist" and s[EXTRA] is not None:
                gid, method = s[EXTRA]
                key = (level_of.get(gid), method.removesuffix("_async"))
                seen[key] = seen.get(key, 0) + 1
                if method.endswith("_async"):
                    launched[key] = launched.get(key, 0) + 1
        calls: dict = {}
        launches: dict = {}
        for c in log.comm:
            for out, table in ((calls, c["calls"]),
                               (launches, c["async_launches"])):
                for level, ops in table.items():
                    for op, n in ops.items():
                        out[(level, op)] = out.get((level, op), 0) + n
        check(seen == calls, f"wrapped collectives {seen} != "
                             f"communication_summary calls {calls}")
        check(launched == launches, f"wrapped async launches {launched} != "
                                    f"communication_summary {launches}")
    if log.windows:
        pre = "tile_" if "tile_hits" in log.windows[0] else "cache_"
        hits = sum(w[pre + "hits"] for w in log.windows)
        misses = sum(w[pre + "misses"] for w in log.windows)
        evictions = sum(w["cache_evictions"] for w in log.windows)
        batched = round(sum(w["batches"] * w["batch_size_mean"]
                            for w in log.windows))
        gets = [s[EXTRA] for s in spans if s[NAME] == "serve.cache_get"]
        evicted = sum(1 for s in spans
                      if s[NAME] == "serve.cache_put" and s[EXTRA])
        run_idx = {first + i for i, s in enumerate(spans)
                   if s[NAME] == "serve.run"}
        forwards = sum(1 for s in spans if s[PARENT] in run_idx
                       and s[NAME] in ("tensor.forward", "compile.forward"))
        check((sum(gets), len(gets) - sum(gets)) == (hits, misses),
              f"wrapped cache lookups ({sum(gets)} hits, "
              f"{len(gets) - sum(gets)} misses) != ServeResult.summary() "
              f"({hits}, {misses})")
        check(evicted == evictions,
              f"wrapped evictions {evicted} != summary {evictions}")
        check(forwards == batched,
              f"wrapped forwards {forwards} != batched items {batched}")


# ---------------------------------------------------------------------- #
# per-layer metrics (traced)
# ---------------------------------------------------------------------- #
_LEVELS = ("tp", "fsdp", "tiles", "ddp")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(run: Run, names: list[str]) -> dict:
    """``{name: value}`` for every per-layer metric in ``names`` (0 where
    a workload bypasses the layer)."""
    traced, wl = run.traced, run.workload
    spans = run.recorder.spans
    selfs = self_times(spans)
    n_eps = len(traced)
    steps = sum(len(log.steps) for log in traced)
    timed = sum(log.timed_s for log in traced)
    first = traced[0]

    def durs(name):
        return [s[END] - s[START] for s in spans if s[NAME] == name]

    def self_sum(*names):
        return sum(selfs[i] for i, s in enumerate(spans) if s[NAME] in names)

    m = dict.fromkeys(names, 0.0)
    # data
    data = _raw(d for log in traced for d in log.data)
    m["data.batch_p50_s"] = _median(data)
    m["data.share"] = sum(data) / timed
    # eager tensor engine and optimizer
    fwd = durs("tensor.forward")
    bwd = durs("tensor.backward")
    m["tensor.forward_p50_s"] = _median(fwd)
    m["tensor.backward_p50_s"] = _median(bwd)
    m["nn.optim_p50_s"] = _median(durs("nn.optim_step"))
    deltas = [d for log in traced for d in log.graph_deltas]
    if deltas:
        m["tensor.nodes_per_step"] = float(np.mean([d["nodes"]
                                                    for d in deltas]))
        m["tensor.bwd_new_buffers_per_step"] = float(
            np.mean([d["bwd_new_buffers"] for d in deltas]))
    flops = wl.flops_per_sample(run.state)
    m["tensor.flops_per_sample"] = flops
    forwarded = sum(s[EXTRA] or 0 for s in spans
                    if s[NAME] == "tensor.forward")
    if fwd and not wl.compiled:
        m["tensor.gflops_per_s"] = flops * forwarded / (sum(fwd) + sum(bwd)) \
            / 1e9
    # compiled replay
    captures, replays, misses = _compile_counts(first)
    m["compile.captures"], m["compile.replays"] = captures, replays
    m["compile.guard_misses"] = misses
    if captures + replays:
        m["compile.replay_ratio"] = replays / (captures + replays)
    m["compile.arena_bytes"] = (first.counters_after["arena_bytes"]
                                - first.arena_base)
    m["compile.replay_p50_s"] = _median(
        [s[END] - s[START] for s in spans
         if s[NAME] == "compile.step" and not s[EXTRA]])
    # collectives
    dist_total = sum(s[END] - s[START] for s in spans
                     if s[LAYER] == "dist"
                     and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "dist"))
    comm = [c for log in traced for c in log.comm]
    if comm:
        for level in _LEVELS:
            m[f"dist.bytes.{level}"] = float(np.mean(
                [c[f"{level}_level_bytes"] for c in comm]))
        for name in names:
            if name.startswith("dist.calls."):
                _, _, level, op = name.split(".")
                m[name] = float(np.mean([c["calls"][level].get(op, 0)
                                         for c in comm]))
        m["dist.async_launches"] = float(np.mean(
            [sum(n for ops in c["async_launches"].values()
                 for n in ops.values()) for c in comm]))
        step_wall = sum(_raw(s for log in traced for s in log.steps))
        m["dist.comm_s_per_step"] = dist_total / steps
        m["dist.comm_share"] = dist_total / step_wall
    # tiles
    m["tiles.slice_s"] = self_sum("tiles.slice_halo",
                                  "tiles.extract_tile") / steps
    m["tiles.assemble_s"] = self_sum("tiles.crop_core",
                                     "tiles.assemble") / steps
    # checkpoints and loss
    if first.ckpt_save:
        m["train.ckpt_save_s"] = _median(_raw(t for log in traced
                                              for t in log.ckpt_save))
        m["train.ckpt_load_s"] = _median(_raw(t for log in traced
                                              for t in log.ckpt_load))
        m["train.ckpt_bytes"] = float(first.ckpt_bytes)
    if first.epoch_losses:
        m["train.final_loss"] = first.final_loss
    # serving
    if first.windows:
        m.update(_serve_metrics(run, spans, selfs, steps, n_eps))
    # tracing itself
    # host-speed scaled, like the end-to-end times: traced and untraced
    # episodes alternate, but a speed phase can still favour one side
    m["obs.trace_overhead"] = (
        _median([log.scaled_timed_s for log in traced])
        / _median([log.scaled_timed_s for log in run.logs]) - 1.0)
    top = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["obs.span_coverage"] = top / timed
    return m


def _serve_metrics(run: Run, spans, selfs, steps: int, n_eps: int) -> dict:
    """Serving counts from ``ServeResult.summary()``, summed over one
    episode's windows."""
    first = run.traced[0]
    tiled = "tile_hits" in first.windows[0]
    pre = "tile_" if tiled else "cache_"
    ws = first.windows
    hits = sum(w[pre + "hits"] for w in ws)
    misses = sum(w[pre + "misses"] for w in ws)
    batches = sum(w["batches"] for w in ws)
    batched = round(sum(w["batches"] * w["batch_size_mean"] for w in ws))
    out = {
        "serve.hits": hits, "serve.misses": misses,
        "serve.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.evictions": sum(w["cache_evictions"] for w in ws),
        "serve.coalesced": sum(w.get("tile_coalesced", 0.0) for w in ws),
        "serve.batch_size_mean": batched / batches if batches else 0.0,
        "serve.shed": sum(w["shed"] for w in ws),
        "serve.modeled_p99_s": _modeled_p99(first),
    }
    run_idx = {i for i, s in enumerate(spans) if s[NAME] == "serve.run"}
    forwards = [i for i, s in enumerate(spans) if s[PARENT] in run_idx
                and s[NAME] in ("tensor.forward", "compile.forward")]
    out["serve.forward_calls"] = len(forwards) / n_eps
    out["serve.forward_s"] = sum(spans[i][END] - spans[i][START]
                                 for i in forwards) / steps
    out["serve.loop_self_s"] = sum(selfs[i] for i in run_idx) / steps
    out["serve.key_s"] = sum(selfs[i] for i, s in enumerate(spans)
                             if s[NAME] in ("serve.content_key",
                                            "serve.tile_key")) / steps
    out["serve.cache_get_s"] = sum(
        selfs[i] for i, s in enumerate(spans)
        if s[NAME] == "serve.cache_get") / steps
    out["serve.cache_put_s"] = sum(
        selfs[i] for i, s in enumerate(spans)
        if s[NAME] == "serve.cache_put") / steps
    return out


# ---------------------------------------------------------------------- #
# the per-layer table
# ---------------------------------------------------------------------- #
_RATIO = {
    "compile": "compile.replay_ratio",
    "serve": "serve.hit_rate",
}


def layer_table(run: Run, metrics: dict) -> list[str]:
    """Per module: busy (self) time, calls, share of traced wall, ratio."""
    spans = run.recorder.spans
    selfs = self_times(spans)
    timed = sum(log.timed_s for log in run.traced)
    busy: dict = {}
    calls: dict = {}
    for i, s in enumerate(spans):
        busy[s[LAYER]] = busy.get(s[LAYER], 0.0) + selfs[i]
        calls[s[LAYER]] = calls.get(s[LAYER], 0) + 1
    lines = [f"{'module':<10s} {'busy_s':>10s} {'calls':>9s} {'share':>7s} "
             f"{'ratio':>7s}"]
    for layer in sorted(busy, key=busy.get, reverse=True):
        key = _RATIO.get(layer)
        ratio = f"{metrics[key]:7.3f}" if key else f"{'-':>7s}"
        lines.append(f"{layer:<10s} {busy[layer]:10.4f} {calls[layer]:9d} "
                     f"{busy[layer] / timed:7.1%} {ratio}")
    gap = timed - sum(busy.values())
    lines.append(f"{'(outside)':<10s} {gap:10.4f} {'':>9s} "
                 f"{gap / timed:7.1%} {'-':>7s}")
    lines.append(f"top-level spans cover {metrics['obs.span_coverage']:.1%} "
                 f"of {timed:.3f} s traced wall over {len(run.traced)} "
                 f"episode(s); trace overhead "
                 f"{metrics['obs.trace_overhead']:+.1%}")
    return lines
