"""Write ``reference.json`` (the pinned outputs) and ``setup.json`` (the recorded set-up).

    python3 perfbench/pin.py

Runs one unit of every workload at the default seed, in both sizes, with its
outputs held to the acceptance bands; refuses to pin if any operation fails
(tiny units only have to run).
The full-size units run traced, which gives the computed cusp tensor bytes.
Rerun it only when a change is meant to move the physics outputs.
"""

import json
import os
import sys
from pathlib import Path

import run

os.environ.update({name: str(run.BLAS_THREADS) for name in run.BLAS_ENV})
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.WORKDIR.mkdir(exist_ok=True)
    pins, failures = {}, []
    setup = {"machine": run.machine(), "workloads": {}}
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    setup["machine"]["l3_cache"] = l3.read_text().strip() if l3.exists() else "unknown"
    for size in workloads.SIZES:
        pins[size] = {}
        for entry in spec["workloads"]:
            name = entry["name"]
            inputs = workloads.make_inputs(name, workloads.DEFAULT_SEED, size)
            unit = workloads.Unit(None, run.WORKDIR)
            tracer = Tracer()
            if size == "full":
                tracer.install()
            try:
                workloads.RUNNERS[name](inputs, unit)
            finally:
                tracer.uninstall()
            # tiny inputs are too small for the acceptance bands: pin them as they come out
            failures += [(size, name, key, problem) for key, problem in unit.failures
                         if size == "full" or key not in unit.record]
            pins[size][name] = unit.record
            if size == "full":
                tensors = [s[5] for s in tracer.spans if s[0] == "cusp.evaluator.build"]
                setup["workloads"][name] = {"why": entry["why"], "inputs": inputs}
                if tensors:
                    setup["workloads"][name]["cusp_tensor_bytes_computed"] = {
                        "note": "x.size * eta.size * xi.size * 16 B per CuspEvaluator, computed "
                                "from array sizes, not measured; compare with l3_cache",
                        "per_evaluator_min": min(tensors), "per_evaluator_max": max(tensors),
                        "evaluators_per_unit": len(tensors), "live_max": tracer.live_max}
    for failure in failures:
        print("FAILED", *failure)
    if failures:
        return 1
    (run.BENCH / "reference.json").write_text(
        json.dumps({"seed": workloads.DEFAULT_SEED, **pins}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    (run.BENCH / "setup.json").write_text(json.dumps(setup, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
