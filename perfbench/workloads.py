"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload is one fixed unit of work that drives ``convexwave`` only
through its public functions.  A unit is a sequence of operations; an
operation is one top-level public call (one h-point, one CLI run, one scan or
one fit).  It fails when it raises a package error or when its output fails
the check: at the default seed every physics output is compared with the pins
in ``reference.json``; at any other seed it is checked against the band of
the acceptance criterion it reproduces.  Cancellation residuals are never
pinned; they are held to their acceptance bound at every seed.

Calls go through module attributes (``cw_cusp.cusp_field``), never through
names bound at import, so that the traced run sees every call it patches.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np

import convexwave.airy as cw_airy
import convexwave.cli as cw_cli
import convexwave.cusp as cw_cusp
import convexwave.fields as cw_fields
import convexwave.gallery as cw_gallery
import convexwave.normlab as cw_normlab
import convexwave.oscillatory as cw_osc
import convexwave.params as cw_params

DEFAULT_SEED = 0
H_JITTER = 0.004  # relative; keeps N, every grid size and the fit spans fixed
PIN_REL = 1e-9
PIN_EXPONENT_ABS = 1e-6

PACKAGE_ERRORS = (
    cw_params.ParameterError, cw_airy.AiryError, cw_osc.QuadratureError,
    cw_osc.GridCoverageError, cw_osc.StationaryPhaseError, cw_gallery.GalleryError,
    cw_cusp.CuspError, cw_normlab.NormError,
)


class OutputError(Exception):
    """An operation returned, but not the output the workload expects."""


# Each workload's input sizes.  "full" is what the benchmark measures; "tiny"
# only sends every operation through its code path, for the benchmark's tests.
SIZES = {
    "full": {
        "verdict": {"h_exp": [10, 12], "t_resolution": 3},
        "fixed_time": {"h_exp": [10, 14, 18, 22], "r_list": [2, 3, 5, 6, 8],
                       "lambda_targets": [64.0, 128.0], "evaluator_opts": {}},
        "gallery": {"schrodinger_h_exp": [8, 9, 10, 11, 12, 13],
                    "halfwave_h_exp": [8, 9, 10, 11, 12, 13], "n_t": 16},
        "dispersion": {"h_list": [1e-2, 1e-3, 1e-4], "wave_lambdas": 8,
                       "schrodinger_lambdas": 4},
    },
    "tiny": {
        "verdict": {"h_exp": [10, 11], "t_resolution": 1},
        "fixed_time": {"h_exp": [10, 11, 12, 13], "r_list": [2, 6],
                       "lambda_targets": [64.0, 128.0], "evaluator_opts": {"n_x": 48}},
        "gallery": {"schrodinger_h_exp": [8, 9, 10, 11, 12, 13],
                    "halfwave_h_exp": [8, 9, 10, 11, 12, 13], "n_t": 2},
        "dispersion": {"h_list": [1e-2, 1e-3], "wave_lambdas": 4,
                       "schrodinger_lambdas": 4},
    },
}


def jitter(seed: int, n: int) -> list[float]:
    """Relative h factors: exactly 1 at the default seed, sub-percent otherwise."""
    if seed == DEFAULT_SEED:
        return [1.0] * n
    rng = np.random.default_rng(seed)
    return [float(1.0 + u) for u in rng.uniform(-H_JITTER, H_JITTER, n)]


def make_inputs(name: str, seed: int, size: str = "full") -> dict:
    """The generated inputs of one workload; the same seed gives the same inputs."""
    spec = SIZES[size][name]
    if name == "verdict":
        hs = [2.0**-e for e in spec["h_exp"]]
        return {"h_list": [h * f for h, f in zip(hs, jitter(seed, len(hs)))],
                "t_resolution": spec["t_resolution"]}
    if name == "fixed_time":
        hs = [2.0**-e for e in spec["h_exp"]] + [lt ** (-1.0 / 0.325) for lt in spec["lambda_targets"]]
        hs = [h * f for h, f in zip(hs, jitter(seed, len(hs)))]
        n = len(spec["h_exp"])
        return {"h_list": hs[:n], "boundary_h_list": hs[n:], "r_list": spec["r_list"],
                "evaluator_opts": spec["evaluator_opts"]}
    if name == "gallery":
        hs_s = [2.0**-e for e in spec["schrodinger_h_exp"]]
        hs_w = [2.0**-e for e in spec["halfwave_h_exp"]]
        f = jitter(seed, len(hs_s) + len(hs_w))
        return {"schrodinger_h_list": [h * g for h, g in zip(hs_s, f)],
                "halfwave_h_list": [h * g for h, g in zip(hs_w, f[len(hs_s):])],
                "n_t": spec["n_t"]}
    if name == "dispersion":
        return {"h_list": spec["h_list"],
                "wave_lambdas": np.geomspace(30.0, 3000.0, spec["wave_lambdas"]).tolist(),
                "schrodinger_lambdas": np.geomspace(30.0, 3000.0, spec["schrodinger_lambdas"]).tolist(),
                "grid_seed": None if seed == DEFAULT_SEED else seed}
    raise KeyError(name)


# ---------------------------------------------------------------------------
# output checks


def within(center: float, tol: float) -> tuple[float, float]:
    return (center - tol, center + tol)


def _band_problem(name, value, band):
    if isinstance(band, tuple):
        lo, hi = band
        if not isinstance(value, (int, float)) or not (lo <= value <= hi):
            return f"{name}={value!r} outside [{lo}, {hi}]"
    elif value != band:
        return f"{name}={value!r}, expected {band!r}"
    return None


def _pin_problem(name, value, pin):
    if isinstance(pin, float) and isinstance(value, float):
        if name.endswith("exponent"):
            ok = abs(value - pin) <= PIN_EXPONENT_ABS
        else:
            ok = abs(value - pin) <= PIN_REL * abs(pin)
        if not ok:
            return f"{name}={value!r} differs from pinned {pin!r}"
    elif value != pin:
        return f"{name}={value!r}, pinned {pin!r}"
    return None


class Unit:
    """Runs the operations of one unit, checks their outputs and counts failures.

    ``pins`` maps operation key -> output name -> pinned value; with
    ``pins=None`` outputs are held to their bands only.  ``record`` collects
    every output, which is how ``pin.py`` writes the pins.
    """

    def __init__(self, pins: dict | None, workdir: Path):
        self.pins = pins
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.record: dict[str, dict] = {}
        self.notes: dict[str, float] = {}

    def attempt(self, key, call, summarize, bands=None, unpinned=()):
        """Run one operation; return its result, or None when it failed."""
        self.attempted += 1
        bands = bands or {}
        try:
            result = call()
            values = summarize(result)
        except PACKAGE_ERRORS + (OutputError,) as exc:
            self.failures.append((key, f"{type(exc).__name__}: {exc}"))
            return None
        problems = [f"{k}={v!r} is not finite" for k, v in values.items()
                    if isinstance(v, float) and not math.isfinite(v)]
        for k, v in values.items():
            if self.pins is not None and k not in unpinned:
                pin = self.pins.get(key, {}).get(k, "<no pin>")
                problems.append(_pin_problem(k, v, pin))
            elif k in bands:
                problems.append(_band_problem(k, v, bands[k]))
        problems = [p for p in problems if p]
        self.record[key] = {k: v for k, v in values.items() if k not in unpinned}
        if problems:
            self.failures.append((key, "; ".join(problems)))
            return None
        return result


# ---------------------------------------------------------------------------
# workloads


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def run_verdict(inputs: dict, unit: Unit):
    """The counterexample pipeline through ``convexwave cusp``, in-process."""
    with tempfile.TemporaryDirectory(dir=unit.workdir) as out:
        out = Path(out)
        argv = ["cusp", "--epsilon", "0.1", "--r", "6",
                "--h-list", ",".join(repr(h) for h in inputs["h_list"]),
                "--t-resolution", str(inputs["t_resolution"]), "--threads", "1", "--out", str(out)]

        def call():
            code = cw_cli.main(argv)
            if code != 0:
                raise OutputError(f"convexwave cusp exited with code {code}")
            return out

        def summarize(out):
            verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["verdicts"][0]
            values = {"verdict": verdict["verdict"], "control_monotone_ok": verdict["control_monotone_ok"]}
            qs = [q for _, q in sorted(verdict["samples"], key=lambda s: -s[0])]
            values["Q_increasing"] = all(b > a for a, b in zip(qs, qs[1:]))
            values.update({f"Q.{i}": q for i, q in enumerate(qs)})
            for i, row in enumerate(_read_csv(out / "region_norms.csv")):
                values[f"region_norm.{i}.{row['region']}"] = float(row["norm"])
            timings = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["timings"]
            for stage, seconds in timings.items():
                unit.notes[f"cli.stage.{stage}_s"] = unit.notes.get(f"cli.stage.{stage}_s", 0.0) + seconds
            return values

        unit.attempt("cli cusp", call, summarize,
                     bands={"verdict": "PASS", "control_monotone_ok": True, "Q_increasing": True})


def run_fixed_time(inputs: dict, unit: Unit):
    """Criteria 4-6: fields and wave residuals at t = 0, then boundary cancellation."""
    opts = inputs["evaluator_opts"]
    r_list = inputs["r_list"]
    norms = {r: [] for r in r_list}
    residuals = []
    for i, h in enumerate(inputs["h_list"]):
        def field_norms(h=h):
            params = cw_params.make_params(h, 0.1, 0.25)
            fld = cw_cusp.cusp_field(0, 0.0, params, **opts)
            return h, {r: cw_normlab.lr_norm(fld, r) for r in r_list}

        out = unit.attempt(f"field.{i}", field_norms,
                           lambda res: {f"L{r}_norm": v for r, v in res[1].items()})
        if out is not None:
            for r, v in out[1].items():
                norms[r].append((out[0], v))

        def residual_norm(h=h):
            params = cw_params.make_params(h, 0.1, 0.25)
            return h, cw_normlab.lr_norm(cw_cusp.wave_residual(0, 0.0, params, **opts), 2)

        out = unit.attempt(f"wave_residual.{i}", residual_norm, lambda res: {"L2_norm": res[1]})
        if out is not None:
            residuals.append(out)

    def fits():
        slopes = {f"L{r}_exponent": cw_normlab.fit_exponent(norms[r]).slope for r in r_list}
        slopes["wave_residual_exponent"] = cw_normlab.fit_exponent(residuals).slope
        return slopes

    def fit_values(slopes):
        values = dict(slopes)
        if {"L5_exponent", "L6_exponent", "L8_exponent"} <= slopes.keys():
            values["exponents_decrease_in_r"] = (
                slopes["L5_exponent"] > slopes["L6_exponent"] > slopes["L8_exponent"])
        return values

    # criterion 4 (L2, L3) and criterion 6 bands; the L6 leg is a known red and has no band
    unit.attempt("fits", fits, fit_values, bands={
        "L2_exponent": within(1.0 + 0.45 / 4.0, 0.02),
        "L3_exponent": within(1.0 / 3.0 + 0.5 + 0.45 / 12.0, 0.05),
        "wave_residual_exponent": within(1.0 - 3.0 * 0.45 / 4.0, 0.05),
        "exponents_decrease_in_r": True,
    })

    ratios = []
    for i, h in enumerate(inputs["boundary_h_list"]):
        def residual(h=h):
            return cw_cusp.boundary_residual(0, cw_params.make_params(h, 0.1, 0.25))

        def residual_values(ratio):
            values = {"boundary_residual_ratio": ratio}
            if ratios:  # criterion 5: the ratio at least halves per doubling of lambda
                values["halves_per_doubling"] = ratio <= 0.5 * ratios[-1]
            return values

        ratio = unit.attempt(f"boundary_residual.{i}", residual, residual_values,
                             bands={"boundary_residual_ratio": (0.0, 1e-3), "halves_per_doubling": True},
                             unpinned=("boundary_residual_ratio", "halves_per_doubling"))
        if ratio is not None:
            ratios.append(ratio)


def run_gallery(inputs: dict, unit: Unit):
    """Criterion 3 and the half-wave leg: gallery Strichartz quotient scans."""
    scans = [
        ("schrodinger", "coherent", inputs["schrodinger_h_list"], within(-7.0 / 18.0, 0.05)),
        # gallery data under the cosine flow is no worse than the free rate -(2(1/2-1/r) - 1/6)
        ("halfwave", "gaussian", inputs["halfwave_h_list"], (-0.5 - 0.05, math.inf)),
    ]
    for flow, data, hs, band in scans:
        def scan(flow=flow, data=data, hs=hs):
            return cw_gallery.strichartz_quotient(flow, data, q=3, r=6, t_window=(0.0, 0.3),
                                                  h_list=hs, n_t=inputs["n_t"])

        def values(res):
            out = {"fitted_exponent": res.fitted_exponent, "reliable": res.reliable}
            out.update({f"Q.{i}": q for i, (_, q) in enumerate(res.samples)})
            return out

        unit.attempt(f"{flow}.{data}", scan, values, bands={"fitted_exponent": band, "reliable": True})


def run_dispersion(inputs: dict, unit: Unit):
    """Criterion 2 (wave, pooled over h) plus the Schroedinger lambda^-1/2 decay."""
    window = cw_fields.FrequencyWindow(1.0, 0.25, 0.5)
    seed = inputs["grid_seed"]
    omega9 = cw_airy.airy_zeros(10)[9]
    for flow, scan, lambdas, band in (
        ("wave", cw_osc.gamma_wave, inputs["wave_lambdas"], None),
        ("schrodinger", cw_osc.gamma_schrodinger, inputs["schrodinger_lambdas"], within(-0.5, 0.05)),
    ):
        curves = []
        for i, h in enumerate(inputs["h_list"]):
            def call(h=h, scan=scan, lambdas=lambdas):
                return scan(cw_params.make_params(h, 0.1, 0.2), omega9, 2, np.asarray(lambdas),
                            window=window, tol=1e-8, seed=seed)

            def values(curve):
                out = {f"gamma.{j}": s.gamma for j, s in enumerate(curve.samples)}
                if band is not None:
                    out["lambda_exponent"] = curve.fitted_lambda_exponent
                return out

            curve = unit.attempt(f"{flow}.{i}", call, values,
                                 bands={"lambda_exponent": band} if band else None)
            if curve is not None:
                curves.append(curve)
        if flow == "wave":
            def pooled():
                return cw_osc.pool_curves(curves).fit(mu_min=12.0)

            unit.attempt("wave.pooled_fit", pooled,
                         lambda c: {"lambda_exponent": c.fitted_lambda_exponent,
                                    "h_exponent": c.fitted_h_exponent},
                         bands={"lambda_exponent": within(-0.5, 0.10),
                                "h_exponent": within(-1.0 / 3.0, 0.10)})


RUNNERS = {"verdict": run_verdict, "fixed_time": run_fixed_time,
           "gallery": run_gallery, "dispersion": run_dispersion}
