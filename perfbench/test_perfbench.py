"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from convexwave.cusp import CuspError  # noqa: E402


def _run(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def all_tiny():
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_runs_clean_on_tiny_inputs(all_tiny):
    assert all_tiny["correct"] and all_tiny["failed"] == 0 and all_tiny["attempted"] > 0
    for name in ("verdict", "fixed_time", "gallery", "dispersion"):
        for metric in ("setup_s", "wall_s", "peak_rss_mb"):
            assert all_tiny["metrics"][f"{name}.{metric}"]["value"] > 0


def test_peak_rss_is_per_fresh_process(all_tiny):
    # dispersion runs after verdict; one shared process would report verdict's peak again
    peak = {name: all_tiny["metrics"][f"{name}.peak_rss_mb"]["value"] for name in ("verdict", "dispersion")}
    assert peak["dispersion"] < 0.8 * peak["verdict"]


def test_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "gallery", "--seconds", "1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"], proc.stdout
    assert result["metrics"]["gallery.h_points"]["value"] == 12
    assert "attribution check (no cusp.* spans): holds" in proc.stdout


def test_perturbed_reference_value_fails_the_operation(tmp_path):
    pins = json.loads((BENCH / "reference.json").read_text())["tiny"]["gallery"]
    inputs = workloads.make_inputs("gallery", workloads.DEFAULT_SEED, "tiny")
    unit = workloads.Unit(pins, tmp_path)
    workloads.run_gallery(inputs, unit)
    assert unit.attempted == 2 and not unit.failures

    pins["schrodinger.coherent"]["Q.3"] *= 1.0 + 1e-6
    unit = workloads.Unit(pins, tmp_path)
    workloads.run_gallery(inputs, unit)
    assert [key for key, _ in unit.failures] == ["schrodinger.coherent"]
    assert len(unit.failures) / unit.attempted > 0


def test_package_error_counts_as_failed_and_the_run_goes_on(tmp_path):
    import convexwave.cusp as cw_cusp
    import convexwave.params as cw_params

    unit = workloads.Unit(None, tmp_path)
    params = cw_params.make_params(2.0**-10, 0.1, 0.25)  # N = 1, so n = 5 has no partner trace
    with pytest.raises(CuspError):
        cw_cusp.boundary_residual(5, params)
    assert unit.attempt("bad", lambda: cw_cusp.boundary_residual(5, params), lambda r: {"ratio": r}) is None
    assert unit.attempt("good", lambda: params.n_reflections, lambda n: {"n": n}) == 1
    assert unit.attempted == 2
    assert unit.failures[0][0] == "bad" and "CuspError" in unit.failures[0][1]
    assert len(unit.failures) == 1


def test_other_seeds_jitter_h_but_keep_the_default_seed_exact():
    assert workloads.make_inputs("verdict", 0)["h_list"] == [2.0**-10, 2.0**-12]
    a, b = (workloads.make_inputs("fixed_time", 7)["h_list"] for _ in range(2))
    assert a == b
    assert a != workloads.make_inputs("fixed_time", 8)["h_list"]
    for h, e in zip(a, (10, 14, 18, 22)):
        assert abs(h / 2.0**-e - 1.0) <= workloads.H_JITTER


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verdict", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
