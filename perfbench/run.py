"""perfbench: the repository benchmark, from training to serving.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_single --seed 1 \\
        --seconds 10 --trace 0

``--workload`` is one of ``train_single``, ``train_composite``,
``serve_tiles`` and ``serve_requests`` (see ``perfbench/workloads.py``
for what each runs and why it was chosen).  ``--seed`` makes the inputs:
the synthetic climate data, the model weights and the request traffic.
``--seconds`` is how long the run measures.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
traced run, prints the per-layer table and writes a Chrome trace to
``perfbench/out/trace_<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat every metric with its unit and sample count, together with the
host fingerprint.  The exit code is 1 when a correctness check failed,
and 2 when the checkout holds no ``src/repro`` to benchmark.
"""

import os
import sys

# Thread policy, applied before numpy is imported: BLAS and OpenMP run
# one thread (never more than the CPUs this process may use).  Measured
# on a 2-vCPU host, the eager train step's p90 grows several-fold with a
# second BLAS thread at an unchanged median.
THREADS = str(min(1, len(os.sched_getaffinity(0))))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("train_single", "train_composite", "serve_tiles",
             "serve_requests")


def fingerprint() -> dict:
    """CPU count, BLAS library and thread count, numpy and Python."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to "
              "benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure
    from perfbench.workloads import WORKLOADS as CLASSES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = CLASSES[args.workload](args.seed, args.tiny, OUT)
    host = fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" tiny" if args.tiny else ""))
    print("fingerprint " + json.dumps(host, sort_keys=True))
    try:
        if args.trace:
            run = measure.measure_traced(workload, args.seconds)
            measure.check_repeats(run)
            values = measure.per_layer(run, list(declared))
            for line in measure.layer_table(run, values):
                print(line)
            run.tally.check(values["obs.span_coverage"] >= 0.95,
                            "top-level spans cover under 95% of the traced "
                            "wall time")
            run.recorder.write_chrome(OUT / f"trace_{args.workload}.json",
                                      {"workload": args.workload,
                                       "seed": args.seed, "fingerprint": host})
        else:
            run = measure.measure(workload, args.seconds)
            measure.check_repeats(run)
            values = measure.end_to_end(run)
            for line in measure.report_lines(run, values):
                print(line)
    finally:
        for ckpt in OUT.glob(f"ckpt_*_{os.getpid()}.pkl"):
            ckpt.unlink()
    tally = run.tally
    tally.check(set(values) == set(declared),
                f"measured metrics {sorted(values)} differ from those "
                f"BENCHMARK.json declares")
    tally.check(all(math.isfinite(v) for v in values.values()),
                "a metric is not finite")
    metrics = {name: (values.get(name, math.nan), unit)
               for name, unit in declared.items()}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.9g} {unit}")
    print(f"failed_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v) if math.isfinite(v) else 0.0,
                        "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
