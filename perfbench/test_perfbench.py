"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at its tiny size for well under a second of
measuring, in a subprocess, exactly as the benchmark command runs it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import HostSpeed  # noqa: E402
from perfbench.workloads import (WORKLOADS, EpisodeLog, Tally,  # noqa: E402
                                 check_response)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.3", "--trace",
         str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace=trace)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = {line.split()[1]: line.split()[3]
               for line in proc.stdout.splitlines()
               if line.startswith("metric ")}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _inputs(workload: str, seed: int) -> list[np.ndarray]:
    wl = WORKLOADS[workload](seed, True, ROOT / "perfbench" / "out")
    state = wl.setup()
    if "windows" in state:
        first = state["windows"][0]["requests"]
        return [r.input for r in first] + [np.array([r.arrival_s
                                                     for r in first])]
    return [next(state["dataset"].batches(state["batch"])).inputs]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_inputs_but_not_the_metric_set(workload):
    a, b = _inputs(workload, 1), _inputs(workload, 2)
    assert len(a) != len(b) or any(
        x.shape != y.shape or not np.array_equal(x, y) for x, y in zip(a, b))
    again = _inputs(workload, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a, again))
    if workload == "train_single":
        one, two = _result(_run(workload, seed=1)), _result(_run(workload,
                                                                 seed=2))
        assert set(one["metrics"]) == set(two["metrics"])


def test_corrupted_response_is_counted_as_failed():
    wl = WORKLOADS["serve_requests"](1, True, ROOT / "perfbench" / "out")
    state = wl.setup()
    service = state["service"]
    serve = service.run
    corrupted = []

    def corrupting_run(requests):
        result = serve(requests)
        for resp in result.responses:
            if not corrupted and resp.request.sample in state["sampled"][0]:
                out = resp.output.copy()
                out.flat[0] = np.nextafter(out.flat[0], np.inf)
                resp.output = out
                corrupted.append(resp.request.rid)
        return result

    service.run = corrupting_run
    tally = Tally()
    wl.episode(state, EpisodeLog(HostSpeed()), tally)
    assert corrupted and tally.failed == 1
    assert tally.failed / tally.attempted > 0
    assert "differs from its reference" in tally.reasons[0]


def test_check_response_passes_equal_and_rejects_shed():
    class Req:
        rid = 7

    class Resp:
        request, status, output = Req(), "ok", np.ones((3, 4, 4),
                                                         np.float32)

    assert check_response(Resp(), np.ones((3, 4, 4), np.float32)) is None
    Resp.status = "shed"
    assert "shed" in check_response(Resp(), None)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("train_single", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
