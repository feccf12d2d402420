"""Physics fingerprint: the outputs that a refactor must not move, and how far two trees differ.

    python3 tools/fingerprint.py [--out fingerprint.json] [--compare parent.json]

The script fingerprints the tree it sits in (it imports ``convexwave`` from the
``src/`` beside it) and writes one entry per output to ``--out``: the SHA-256 of
the output's bytes (a file's, or its float64 values') and, for numbers, the
values.  With ``--compare`` it prints, per output, "bit-identical" or the largest
relative change against the other fingerprint, beside the largest change relative
to that output's peak |value|.  To compare with a parent commit,
export it (``git archive``), run the same script in that copy, and compare.

The outputs are:

* the four artifacts of the README run ``convexwave cusp --epsilon 0.1 --r 6``
  over h = 2^-10, 2^-14, 2^-18, 2^-22 at the default t-resolution;
* criteria 4-6 at the same h: the L^r norms (r = 2, 3, 5, 6, 8) of u^0 at
  t = 0, the L^2 norm of its wave residual, and the boundary-residual ratios
  at the two h of the benchmark's criterion 5 leg;
* the verdict walk (``cusp.uh_mixed_norms``) at 2^-12 and 2^-16, t-resolution
  3: the inner norms for r = 4, 5, 6, 8, inf, ``l2_initial``, the third-cusp
  fractions and the t = 0 region split;
* ``CuspEvaluator.field_values`` at 2^-10, 2^-12 and 2^-18 (n_x = 50) for a
  single cusp, a pair and a pair on a shifted centre: the values (hashed, with
  their peak modulus and l2 sum as numbers), and the norm-only row powers
  (``r_list``, r = 2, 5, 6, 8, inf) of the same slices; and at 2^-12 a single
  u^1 slice built on a cleared held-factor slot, so that it fills its own Airy
  factor where the pairs read a view of u^0's: a table rule under which that
  fill and the view differ moves this output;
* ``TraceEvaluator.signal`` at 2^-18 for Tr_-(u^1) and Tr_+(u^2) on one centre
  (hashed like the slices), and ``dirichlet_residual`` at 2^-18 and 2^-20
  (its ratio, windows and edges);
* criterion 7's verdict (r = 6, epsilon = 0.1) over the README run's h at
  t-resolution 3: the verdict and the control's monotonicity, Q(h) and the
  control Q(h), the fitted exponent with its stderr, and the L^q L^r norm per h;
* ``gallery.norm_equivalence`` (r = 2, 6, inf) at h = 2^-8 ... 2^-14;
* every subcommand through ``cli.main``, each run's exit code, artifacts and
  ``manifest.json`` without its timings: ``airy --count 10``, the README
  ``billiard`` run, ``gallery`` over 2^-8 ... 2^-13 in 6 steps (enough for its
  exponent fit), ``dispersion --flow wave`` and ``dispersion --flow
  schrodinger`` at 2 h with lambda from 30 to 3000 in 4 steps (the two fits of
  ``DispersionCurve.fit``, with and without a mu cut), ``cusp --r-list 3,6`` and ``cusp --r 3`` at 2^-10 and 2^-12
  (t-resolution 3), a ``gallery`` run from a config file that sets the
  config-only ``h_list`` and ``t_steps`` and whose ``--r`` flag overrides the
  file's ``r``, and ``report`` on the first cusp run; and each subcommand's
  ``--help`` text at a fixed ``COLUMNS``, so that an added or dropped flag shows.

Each group of outputs is computed in its own fresh interpreter, two at a time,
so that no output depends on the heap layout that another group's calls leave
behind (``norm_equivalence`` at r = inf moves by 1 ulp with it).  BLAS runs
single-threaded unless the environment says otherwise, so that the bits do not
depend on the thread count.  The whole run takes 20–35 s on a 2-CPU Xeon (the CLI
runs about 3.5 s of it).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
README_H = [2.0**-10, 2.0**-14, 2.0**-18, 2.0**-22]
CRITERION_R = (2, 3, 5, 6, 8)
BOUNDARY_H = [2.7702767488752873e-06, 3.283046367631605e-07]
WALK_E = (12, 16)
WALK_R = (4.0, 5.0, 6.0, 8.0, math.inf)
SLICE_E = (10, 12, 18)
SLICE_R = (2.0, 5.0, 6.0, 8.0, math.inf)
DIRICHLET_E = (18, 20)
EQUIVALENCE_E = (8, 10, 12, 14)
CLI_H = (2.0**-10, 2.0**-12)


def _numbers(values) -> dict:
    values = np.asarray(values, dtype=np.float64).ravel()
    return {"sha256": hashlib.sha256(values.tobytes()).hexdigest(), "values": values.tolist()}


def _array(values, grid) -> dict:
    """A sampled field: the SHA-256 of its complex values' bytes and its y-grid's, and as values
    only its peak modulus and its l2 sum, so that the fingerprint stays small."""
    values = np.ascontiguousarray(values, dtype=complex)
    digest = hashlib.sha256(values.tobytes())
    digest.update(np.ascontiguousarray(grid, dtype=np.float64).tobytes())
    mod = np.abs(values)
    return {"sha256": digest.hexdigest(), "values": [float(mod.max()), float(np.sqrt(np.sum(mod**2)))]}


def _file(path: Path) -> dict:
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def readme_run(out: dict) -> None:
    from convexwave import cli

    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "cusp"
        code = cli.main(["cusp", "--epsilon", "0.1", "--r", "6",
                         "--h-list", ",".join(repr(h) for h in README_H), "--out", str(run)])
        out["cusp run exit code"] = _numbers([code])
        for name in ("verdict.json", "cusp_norms.csv", "region_norms.csv", "boundary_residual.json"):
            out[f"cusp run {name}"] = _file(run / name)


def criteria(out: dict) -> None:
    from convexwave import cusp, normlab
    from convexwave.params import make_params

    norms = {r: [] for r in CRITERION_R}
    residuals = []
    for h in README_H:
        params = make_params(h, 0.1, 0.25)
        fld = cusp.cusp_field(0, 0.0, params)
        for r in CRITERION_R:
            norms[r].append(normlab.lr_norm(fld, r))
        del fld
        residuals.append(normlab.lr_norm(cusp.wave_residual(0, 0.0, params), 2))
    for r in CRITERION_R:
        out[f"criterion 4 L^{r} of u^0"] = _numbers(norms[r])
    out["criterion 6 L^2 of the wave residual"] = _numbers(residuals)
    out["criterion 5 boundary residual ratio"] = _numbers(
        [cusp.boundary_residual(0, make_params(h, 0.1, 0.25)) for h in BOUNDARY_H])


def walks(out: dict) -> None:
    from convexwave import cusp
    from convexwave.params import make_params

    for e in WALK_E:
        walk = cusp.uh_mixed_norms(make_params(2.0**-e, 0.1, 0.25), WALK_R, samples_per_sqrt_a=3)
        name = f"walk 2^-{e}"
        out[f"{name} times"] = _numbers(walk["times"])
        for r, inner in zip(WALK_R, walk["inner"]):
            out[f"{name} inner L^{r:g}"] = _numbers(inner)
        out[f"{name} l2_initial"] = _numbers([walk["l2_initial"]])
        out[f"{name} third_cusp_fraction"] = _numbers(walk["third_cusp_fraction"] or [])
        out[f"{name} region_norms"] = _numbers([v for split in walk["region_norms"] for v in split.values()])


def slices(out: dict) -> None:
    from convexwave import cusp
    from convexwave.cusp import CuspEvaluator
    from convexwave.params import make_params

    for e in SLICE_E:
        params = make_params(2.0**-e, 0.1, 0.25)
        root = math.sqrt((1.0 + params.a) * params.a)  # not params.time_unit: older exports lack it
        lo = CuspEvaluator(params, 0, n_x=50)
        hi = CuspEvaluator(params, 1, n_x=50, symbol=lo.symbol)
        t = 1.3 * root
        shifted = lo.field_values(t)[2] + 0.3 * root
        for name, args in (("single", (t,)), ("pair", (t, None, hi)), ("shifted pair", (t, shifted, hi))):
            values, offsets, center = lo.field_values(*args)
            out[f"field_values 2^-{e} {name}"] = _array(values, center + offsets)
            out[f"field_values 2^-{e} {name} row powers"] = _numbers(lo.field_values(*args, r_list=SLICE_R)[0])
        if e == 12:
            cusp._HELD.entry = None
            alone = CuspEvaluator(params, 1, n_x=50, symbol=lo.symbol)
            values, offsets, center = alone.field_values(t + 4.0 * root)  # the symbol argument of lo's t
            out["field_values 2^-12 u^1 single, filled alone"] = _array(values, center + offsets)


def traces(out: dict) -> None:
    from convexwave import cusp
    from convexwave.params import make_params

    params = make_params(2.0**-18, 0.1, 0.25)
    # symbol argument 0.7 past u^1; not params.time_unit, which older exports lack
    t = 2.7 * 2.0 * math.sqrt((1.0 + params.a) * params.a)
    lower = cusp.TraceEvaluator(params, 1, -1)
    minus = lower.signal(t)
    plus = cusp.TraceEvaluator(params, 2, +1, symbol=lower.symbol).signal(t, minus.y_center)
    for name, sig in (("Tr_-(u^1)", minus), ("Tr_+(u^2)", plus)):
        out[f"trace 2^-18 {name}"] = _array(sig.values, sig.y)
    for e in DIRICHLET_E:
        res = cusp.dirichlet_residual(make_params(2.0**-e, 0.1, 0.25))
        out[f"dirichlet_residual 2^-{e}"] = _numbers(
            [res["ratio"], res["n_reflections"]]
            + [row[key] for row in res["windows"] for key in ("n", "pair_l2", "trace_l2")]
            + [row[key] for row in res["edges"] for key in ("n", "l2", "n_times")])


def criterion7(out: dict) -> None:
    from convexwave import normlab

    [rep] = normlab.counterexample_report((6,), 0.1, README_H, c0=0.25, samples_per_sqrt_a=3)
    name = "criterion 7 t-resolution 3"
    out[f"{name} verdict, control monotone"] = _numbers(
        [("PASS", "FAIL", "UNRELIABLE", None).index(rep.verdict), rep.control_monotone_ok])
    out[f"{name} Q"] = _numbers(rep.samples)
    out[f"{name} control Q"] = _numbers(rep.control_samples)
    out[f"{name} fitted exponent, stderr"] = _numbers([rep.fitted_exponent, rep.stderr])
    out[f"{name} lqlr"] = _numbers([row["lqlr"] for row in rep.norms])


def norm_equivalence(out: dict) -> None:
    from convexwave import gallery
    from convexwave.fields import make_transverse_grid

    for r in (2.0, 6.0, math.inf):
        values = []
        for e in EQUIVALENCE_E:
            h = 2.0**-e
            grid = make_transverse_grid(h, -1.0, 1.0)
            ratios = gallery.norm_equivalence(0, h, gallery.coherent_state(1.0, h, grid), grid, r)
            values += [ratios[key] for key in ("lower_ratio", "upper_ratio", "middle", "left", "right")]
        out[f"norm_equivalence r={r:g}"] = _numbers(values)


def _run_dir(out: dict, name: str, code: int, run: Path) -> None:
    """A CLI run: its exit code, every artifact, and its manifest without the timings."""
    out[f"cli {name} exit code"] = _numbers([code])
    for path in sorted(run.iterdir()):
        if path.name != "manifest.json":
            out[f"cli {name} {path.name}"] = _file(path)
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    del manifest["timings"]
    out[f"cli {name} manifest.json"] = {
        "sha256": hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()}


def cli(out: dict) -> None:
    from convexwave.cli import build_parser
    from convexwave.cli import main as cli_main

    os.environ["COLUMNS"] = "100"  # argparse wraps the help text at the terminal width
    for command in ("airy", "dispersion", "gallery", "cusp", "billiard", "report"):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
            build_parser().parse_args([command, "--help"])
        out[f"cli {command} --help"] = {"sha256": hashlib.sha256(text.getvalue().encode()).hexdigest()}
    h_list = ",".join(repr(h) for h in CLI_H)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"  # sets the config-only t_steps and h_list; the flag overrides r
        config.write_text(json.dumps({"gallery": {"h_list": h_list, "t_steps": 5, "r": 4}}), encoding="utf-8")
        runs = {
            "airy": ["airy", "--count", "10"],
            "billiard": ["billiard", "--eta", "1", "--tau", "1.4142135623730951", "--sign", "+", "--n", "5"],
            "gallery": ["gallery", "--h-max", repr(2.0**-8), "--h-min", repr(2.0**-13), "--h-steps", "6"],
            "dispersion": ["dispersion", "--flow", "wave", "--h-min", "1e-3", "--h-max", "1e-2", "--h-steps", "2",
                           "--lambda-min", "30", "--lambda-max", "3000", "--lambda-steps", "4"],
            "dispersion schrodinger": ["dispersion", "--flow", "schrodinger", "--h-min", "1e-3", "--h-max", "1e-2",
                                       "--h-steps", "2", "--lambda-min", "30", "--lambda-max", "3000",
                                       "--lambda-steps", "4"],
            "cusp r-list 3,6": ["cusp", "--epsilon", "0.1", "--r-list", "3,6", "--h-list", h_list,
                                "--t-resolution", "3"],
            "cusp r 3": ["cusp", "--epsilon", "0.1", "--r", "3", "--h-list", h_list, "--t-resolution", "3"],
            "gallery from a config": ["gallery", "--config", str(config), "--r", "6"],
        }
        for name, argv in runs.items():
            run = Path(tmp) / name.replace(" ", "_")
            _run_dir(out, name, cli_main(argv + ["--out", str(run)]), run)
        run = Path(tmp) / "cusp_r-list_3,6"
        code = cli_main(["report", "--out", str(run)])
        out["cli report exit code"] = _numbers([code])
        out["cli report summary.json"] = _file(run / "summary.json")


PARTS = {part.__name__: part
         for part in (readme_run, criteria, walks, slices, traces, criterion7, norm_equivalence, cli)}


def _run_part(name: str) -> dict:
    """The outputs of one part, computed in a fresh interpreter."""
    env = dict(os.environ)
    for var in BLAS_ENV:
        env.setdefault(var, "1")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.json"
        done = subprocess.run([sys.executable, __file__, "--part", name, "--out", str(path)], env=env,
                              capture_output=True, text=True, check=False)
        if done.returncode:
            raise RuntimeError(f"fingerprint part {name} failed:\n{done.stderr}")
        return json.loads(path.read_text(encoding="utf-8"))


def fingerprint() -> dict:
    outputs = {}
    with ThreadPoolExecutor(max_workers=2) as pool:  # each part peaks below 200 MiB
        for part in pool.map(_run_part, PARTS):
            outputs.update(part)
    return outputs


def _change(new: dict, old: dict) -> str:
    if new["sha256"] == old["sha256"]:
        return "bit-identical"
    if "values" not in new or "values" not in old:
        return "bytes differ"
    a, b = np.array(new["values"]), np.array(old["values"])
    if a.shape != b.shape:
        return f"{a.size} values against {b.size}"
    tiny = np.finfo(float).tiny
    rel = np.abs(a - b) / np.maximum(np.abs(b), tiny)
    # entries far below the output's peak (rows off the fold, rounding-floor values) read
    # large relative changes at rounding level, so the change is given on the peak as well
    on_peak = np.abs(a - b).max(initial=0.0) / max(np.abs(b).max(initial=0.0), tiny)
    return f"max relative change {rel.max():.2e}, on its peak {on_peak:.2e}"


def compare(new: dict, old: dict) -> list[tuple[str, str]]:
    """(output, "bit-identical" or its largest relative change) for every output of either."""
    return [(name, "only in this tree" if name not in old else
             "only in the other tree" if name not in new else _change(new[name], old[name]))
            for name in sorted(new.keys() | old.keys())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="fingerprint.json", help="where to write this tree's fingerprint")
    parser.add_argument("--compare", help="a fingerprint.json to compare this tree's against")
    parser.add_argument("--part", choices=sorted(PARTS), help=argparse.SUPPRESS)  # one part's outputs to --out
    args = parser.parse_args(argv)
    if args.part:
        sys.path.insert(0, str(SRC))
        outputs = {}
        PARTS[args.part](outputs)
        Path(args.out).write_text(json.dumps(outputs), encoding="utf-8")
        return 0
    t0 = time.perf_counter()
    outputs = fingerprint()
    seconds = time.perf_counter() - t0
    payload = {"seconds": round(seconds, 1), "numpy": np.__version__,
               "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "1"), "outputs": outputs}
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(outputs)} outputs in {seconds:.1f} s -> {args.out}")
    if args.compare:
        old = json.loads(Path(args.compare).read_text(encoding="utf-8"))["outputs"]
        rows = compare(outputs, old)
        width = max(len(name) for name, _ in rows)
        for name, change in rows:
            print(f"{name:<{width}}  {change}")
        return 0 if all(change == "bit-identical" for _, change in rows) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
