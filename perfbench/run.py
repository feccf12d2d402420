"""convexwave benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in a fresh process

A run repeats its workload's unit of work (see ``workloads.py``) for about
``--seconds`` seconds, at least twice (three times when traced), in one
single-threaded process.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
  fresh processes of interpreter start, ``import convexwave`` and input
  generation), ``wall_s`` (median wall time of one unit) and ``peak_rss_mb``
  (``ru_maxrss`` of this process).  ``failure_rate`` is printed and carried by
  the result's ``attempted`` and ``failed`` counts.
* ``--trace 1`` alternates untraced and traced units after one untraced
  warm-up unit, and reports the per-layer metrics of the traced units, each
  layer's self-time share, the attribution check of the workload and
  ``trace.overhead_pct`` against the untraced units.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_runs"
BLAS_THREADS = 1  # a plain single-threaded baseline; the CLI runs are --threads 1 too
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
MIN_UNITS = {0: 2, 1: 3}  # a traced run needs a warm-up, a traced and an untraced unit
WORKLOAD_NAMES = ("verdict", "fixed_time", "gallery", "dispersion")

# The property each workload was chosen for, checked on the traced run.
ATTRIBUTION = {
    "verdict": ("cusp.field_s >= 0.5 wall",
                lambda m, wall: m["cusp.field_s"] >= 0.5 * wall),
    "fixed_time": ("cusp.evaluator.build_self_s + airy.table.* >= 0.5 wall",
                   lambda m, wall: m["cusp.evaluator.build_self_s"] + m["airy.table.build_s"]
                   + m["airy.table.lookup_s"] >= 0.5 * wall),
    "gallery": ("no cusp.* spans", lambda m, wall: m["self.cusp_s"] == 0.0),
    "dispersion": ("no cusp.* spans and no numpy.fft calls",
                   lambda m, wall: m["self.cusp_s"] == 0.0 and m["numpy.fft.calls"] == 0),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs only smoke-test the code paths")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": np.__version__}


def setup_seconds(workload: str, seed: int, size: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed), size],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def load_pins(size: str, workload: str) -> dict:
    path = BENCH / "reference.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(size, {}).get(workload, {})


def run_one(args) -> dict:
    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    setup = None if args.trace else setup_seconds(args.workload, args.seed, args.size)
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    pins = load_pins(args.size, args.workload) if args.seed == workloads.DEFAULT_SEED else None
    WORKDIR.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    walls, traced_walls, failures = [], [], []
    attempted, cpu_s = 0, 0.0
    notes: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        index = len(walls) + len(traced_walls)
        traced = tracer is not None and index % 2 == 1
        unit = workloads.Unit(pins, WORKDIR)
        if traced:
            tracer.run_id = index
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            workloads.RUNNERS[args.workload](inputs, unit)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        attempted += unit.attempted
        failures += unit.failures
        if traced:
            traced_walls.append(wall)
            cpu_s += time.process_time() - cpu0
            for key, value in unit.notes.items():
                notes[key] = notes.get(key, 0.0) + value
        else:
            walls.append(wall)
        elapsed = time.perf_counter() - start
        if index + 1 >= MIN_UNITS[args.trace] and elapsed + max(walls + traced_walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for key, problem in failures:
        print(f"FAILED {key}: {problem}")
    print(f"failure_rate {len(failures) / attempted:.4g} ratio  ({len(failures)} of {attempted} "
          f"operations failed over {len(walls) + len(traced_walls)} units)")
    correct = not failures

    if tracer is None:
        metrics = {"setup_s": setup, "wall_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb}
        print(f"setup_s {setup:.4f} s  (median of {SETUP_PROBES} fresh processes)")
        print(f"wall_s {metrics['wall_s']:.4f} s  (median of {len(walls)} units: "
              + ", ".join(f"{w:.3f}" for w in walls) + ")")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MiB")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        traced_wall = statistics.median(traced_walls)
        untraced = walls[1:] or walls  # the first unit is the warm-up
        metrics, detail = tracer.layer_metrics(len(traced_walls), traced_wall)
        n = len(traced_walls)
        metrics.update({f"cli.stage.{stage}_s": 0.0 for stage in ("boundary_residual", "region_norms", "verdict")})
        metrics.update({key: value / n for key, value in notes.items()})
        metrics["process.cpu_s"] = cpu_s / n
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(untraced) - 1.0)
        tracer.dump(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed, traced_walls=traced_walls)
        print(f"traced units {n}, median wall {traced_wall:.4f} s; untraced units "
              + ", ".join(f"{w:.3f}" for w in untraced)
              + f" s; trace.overhead_pct {metrics['trace.overhead_pct']:.2f} %")
        print("self-time share of the traced wall: "
              + "  ".join(f"{k} {v:.1%}" for k, v in detail["shares"].items()))
        if detail["slices"]:
            print(f"cusp.field.tail_ms is the p{detail['tail_percentile']:g} of {detail['slices']} slices")
        rule, holds = ATTRIBUTION[args.workload]
        ok = holds(metrics, traced_wall)
        print(f"attribution check ({rule}): {'holds' if ok else 'FAILS'}")
        correct = correct and ok
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise KeyError(f"per-layer metrics not computed: {missing}")
        absent = [k for k in units if metrics[k] == 0]
        if absent:
            print(f"absent on {args.workload} (reported as 0): {', '.join(absent)}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, so peaks and caches do not carry over."""
    rows, result = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--size", args.size],
                              check=True, capture_output=True, text=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("attempted", "failed"):
            result[key] += out[key]
        result["correct"] = result["correct"] and out["correct"]
        result["metrics"].update({f"{name}.{k}": v for k, v in out["metrics"].items()})
        rows.append((name, out))
    if not args.trace:
        print(f"{'workload':12s} {'setup_s':>10s} {'wall_s':>10s} {'peak_rss_mb':>12s} {'failure_rate':>13s}")
        for name, out in rows:
            m = out["metrics"]
            print(f"{name:12s} {m['setup_s']['value']:8.4f} s {m['wall_s']['value']:8.4f} s "
                  f"{m['peak_rss_mb']['value']:8.1f} MiB {out['failed'] / out['attempted']:7.4f} ratio")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexwave" / "__init__.py").is_file():
        print(f"error: no convexwave package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
