"""Command-line surface: experiment orchestration with reproducible artifacts.

Subcommands: airy | dispersion | gallery | cusp | billiard | report.  Each run
resolves its configuration (JSON file overridden by flags), writes CSV/JSON
outputs plus a manifest, and is deterministic given (config, seed).

Exit codes: 0 success, 2 usage error, 3 numeric-validity error, 4 unreliable
verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .airy import AiryError, airy_zeros, calibrate_branch_leading
from .fields import FrequencyWindow
from .gallery import DATA_KINDS, FLOW_KINDS, GalleryError, strichartz_quotient
from .oscillatory import GridCoverageError, QuadratureError, gamma_schrodinger, gamma_wave, pool_curves
from .params import ParameterError, make_params, sharp_schrodinger_q, sharp_wave_q
from .cusp import CuspError, PhaseSpacePoint, billiard_iterate, boundary_residual, cusp_field
from .normlab import REGION_SPEC, NormError, counterexample_report, parallel_map, region_norms

USAGE_EXIT = 2
NUMERIC_EXIT = 3
UNRELIABLE_EXIT = 4

_NUMERIC_ERRORS = (ParameterError, AiryError, QuadratureError, GridCoverageError,
                   GalleryError, CuspError, NormError)
_SIGNS = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}  # billiard sign spellings


class _UsageError(Exception):
    """Configuration that names no valid work to do; exits with USAGE_EXIT."""


@contextlib.contextmanager
def _config_values():
    """A config value that does not parse or validate is a usage error, raised before any output."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _at_least_one(name: str, *values) -> None:
    """A usage error unless every value other than None is >= 1; NaN is rejected too."""
    for value in values:
        if value is not None and not value >= 1:
            raise _UsageError(f"{name} must be >= 1, got {value}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(path: Path, header, rows, manifest_hash: str):
    lines = [f"# manifest={manifest_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj, manifest_hash: str):
    payload = {"manifest": manifest_hash, **obj}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Manifest:
    def __init__(self, config: dict, seed: int):
        self.config = config
        self.seed = seed
        self.timings: dict[str, float] = {}
        canon = json.dumps({"config": config, "seed": seed}, sort_keys=True)
        self.hash = hashlib.sha256(canon.encode()).hexdigest()[:16]

    @contextlib.contextmanager
    def time(self, stage: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings[stage] = round(time.perf_counter() - t0, 3)

    def write(self, outdir: Path):
        payload = {
            "config_hash": self.hash,
            "seed": self.seed,
            "versions": {"convexwave": __version__, "numpy": np.__version__},
            "timings": self.timings,
            "config": self.config,
        }
        (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                              encoding="utf-8")


def _load_config(args, section: str) -> dict:
    cfg = {}
    if args.config:
        full = json.loads(Path(args.config).read_text(encoding="utf-8"))
        cfg.update(full.get(section, {}))
        cfg.update({k: v for k, v in full.items() if not isinstance(v, dict)})
    for key, val in vars(args).items():
        if val is not None and key not in ("config", "out", "command", "func"):
            cfg[key.replace("-", "_")] = val
    return cfg


def _h_grid(cfg) -> list[float]:
    """The run's h values, each in make_params's range (0, 1]."""
    if cfg.get("h_list"):
        hs = [float(x) for x in str(cfg["h_list"]).split(",")]
    else:
        hs = [float(cfg.get("h_max", 1e-2)), float(cfg.get("h_min", 1e-4))]
    for h in hs:
        if not 0.0 < h <= 1.0:
            raise _UsageError(f"h must lie in (0, 1], got {h}")
    if cfg.get("h_list"):
        return hs
    steps = int(cfg.get("h_steps", 3))
    _at_least_one("h_steps", steps)
    return hs[:1] if steps == 1 else list(np.geomspace(*hs, steps))


def cmd_airy(args) -> int:
    cfg = _load_config(args, "airy")
    with _config_values():
        count = int(cfg.get("count", 10))
        manifest = Manifest(cfg, int(cfg.get("seed", 0)))
    _at_least_one("count", count)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with manifest.time("zeros"):
        zeros = airy_zeros(count)
    write_csv(outdir / "airy_zeros.csv", ["k", "omega_k"],
              [(k, zeros[k]) for k in range(count)], manifest.hash)
    write_json(outdir / "airy_branch.json", calibrate_branch_leading(), manifest.hash)
    manifest.write(outdir)
    return 0


def cmd_dispersion(args) -> int:
    cfg = _load_config(args, "dispersion")
    flow = cfg.get("flow", "wave")
    if flow not in ("wave", "schrodinger"):
        raise _UsageError(f"unknown flow {flow!r}")
    with _config_values():
        lam_min = float(cfg.get("lambda_min", 30.0))
        lam_max = float(cfg.get("lambda_max", 3000.0))
        lam_steps = int(cfg.get("lambda_steps", 16))
        h_list = _h_grid(cfg)
        epsilon = float(cfg.get("epsilon", 0.1))
        k_mode = int(cfg.get("k", 9))
        window = FrequencyWindow(1.0, float(cfg.get("win_inner", 0.25)), float(cfg.get("win_outer", 0.5)))
        threads = int(cfg.get("threads", 1))
        manifest = Manifest(cfg, int(cfg.get("seed", 0)))
        mu_min = float(cfg.get("mu_min", 12.0))
    if lam_steps < 1 or lam_max <= lam_min:
        raise _UsageError("empty lambda range")
    _at_least_one("lambda_min", lam_min)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    omega = airy_zeros(k_mode + 1)[k_mode]
    lam_grid = np.geomspace(lam_min, lam_max, lam_steps)
    scan = gamma_wave if flow == "wave" else gamma_schrodinger

    def one(h):
        return scan(make_params(h, epsilon, 0.2), omega, 2, lam_grid, window=window, seed=manifest.seed or None)

    with manifest.time("scan"):
        curves = parallel_map(one, h_list, threads)
        pooled = pool_curves(curves)
        if flow == "wave":
            pooled.fit(mu_min=mu_min)
    rows = [row for c in curves for row in c.rows()]
    write_csv(outdir / "dispersion.csv", ["flow", "d", "h", "lambda", "mu", "gamma"], rows, manifest.hash)
    write_json(outdir / "dispersion_fit.json", {
        "flow": flow, "k": k_mode,
        "lambda_exponent": pooled.fitted_lambda_exponent,
        "lambda_stderr": pooled.lambda_stderr,
        "h_exponent": pooled.fitted_h_exponent,
        "h_stderr": pooled.h_stderr,
        "meta": {k: v for k, v in pooled.meta.items() if k != "stationary_rho_inside_window"},
    }, manifest.hash)
    manifest.write(outdir)
    return 0


def cmd_gallery(args) -> int:
    cfg = _load_config(args, "gallery")
    flow = cfg.get("flow", "schrodinger")
    data = cfg.get("data", "coherent")
    with _config_values():
        if flow not in FLOW_KINDS:
            raise ValueError(f"unknown flow kind {flow!r}")
        if data not in DATA_KINDS:
            raise ValueError(f"unknown data kind {data!r}")
        k_mode = int(cfg.get("k", 0))
        r = float(cfg.get("r", 6.0))
        sharp_q = sharp_schrodinger_q if flow == "schrodinger" else sharp_wave_q
        q = float(cfg["q"]) if cfg.get("q") is not None else float(sharp_q(r))
        _at_least_one("q", q)  # a derived q too: r < 2 gives a negative one
        h_list = _h_grid(cfg)
        t_max = float(cfg.get("t_max", 0.3))
        t_steps = int(cfg.get("t_steps", 25))
        manifest = Manifest(cfg, int(cfg.get("seed", 0)))
    if k_mode < 0:
        raise _UsageError("mode index k must be >= 0")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with manifest.time("quotients"):
        res = strichartz_quotient(flow, data, q, r, (0.0, t_max), h_list, k=k_mode, n_t=t_steps)
    write_csv(outdir / "gallery_quotients.csv", ["h", "quotient"], res.samples, manifest.hash)
    write_json(outdir / "gallery_fit.json", {
        "flow": flow, "data": data, "k": k_mode, "q": q, "r": r,
        "fitted_exponent": res.fitted_exponent, "stderr": res.stderr,
        "reliable": res.reliable,
        # the synthesis shortcuts, each at its worst over h
        **{key: max(row[key] for row in res.meta["rows"])
           for key in ("rank", "rank_residual", "screen_bound", "kept_share")},
    }, manifest.hash)
    manifest.write(outdir)
    return 0


def cmd_cusp(args) -> int:
    cfg = _load_config(args, "cusp")
    if cfg.get("epsilon") is None:
        raise _UsageError("--epsilon is required for the cusp experiment")
    with _config_values():
        epsilon = float(cfg["epsilon"])
        if cfg.get("r_list") is not None and cfg.get("r") is not None:
            raise ValueError("give r or r_list, not both")
        r_list = [float(x) for x in str(cfg.get("r_list", cfg.get("r", "6"))).split(",")]
        h_list = _h_grid(cfg)
        c0 = float(cfg.get("c0", 0.25))
        q = None if cfg.get("q") is None else float(cfg["q"])
        t_resolution = int(cfg.get("t_resolution", 12))
        threads = int(cfg.get("threads", 1))
        manifest = Manifest(cfg, int(cfg.get("seed", 0)))
        _at_least_one("r", *r_list)
        _at_least_one("t_resolution", t_resolution)
        _at_least_one("q", q)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    residual_rows = []
    with manifest.time("boundary_residual"):
        for h in h_list:
            params = make_params(h, epsilon, c0)
            try:
                ratio = boundary_residual(0, params)
                residual_rows.append({"n": 0, "lambda": params.lam, "residual_ratio": ratio})
            except CuspError as exc:
                residual_rows.append({"n": 0, "lambda": params.lam, "error": str(exc)})
    write_json(outdir / "boundary_residual.json", {"records": residual_rows}, manifest.hash)

    judged = any(r > 4.0 for r in r_list)
    with manifest.time("verdict" if judged else "region_norms"):
        if judged:  # one walk per h serves every r and gives the t = 0 region split of u^0
            reports = counterexample_report(r_list, epsilon, h_list, c0=c0, q=q,
                                            samples_per_sqrt_a=t_resolution, threads=threads)
            splits = [meas["region_norms"] for meas in reports[0].norms]
        else:  # no walk to take the split from: build u^0 per h
            reports, splits = [], []
            for h in h_list:
                params = make_params(h, epsilon, c0)
                fld = cusp_field(0, 0.0, params)
                splits.append([region_norms(fld, REGION_SPEC, r, params) for r in r_list])
                del fld  # no region field outlives its iteration (it is 20 MiB at h=2^-12)
    norm_rows = [(h, rep.r, rep.q, qv) for rep in reports for h, qv in rep.samples]
    by_r = iter(reports)  # one per r > 4, in the order of r_list
    verdicts = [next(by_r).to_dict() if r > 4.0 else
                {"r": r, "verdict": "NOT-APPLICABLE", "reason": "construction yields no contradiction for r <= 4"}
                for r in r_list]
    region_rows = [(h, 0, 0.0, r, region, value)
                   for h, split in zip(h_list, splits)
                   for r, norms in zip(r_list, split) for region, value in norms.items()]
    write_csv(outdir / "region_norms.csv", ["h", "n", "t", "r", "region", "norm"],
              region_rows, manifest.hash)
    write_csv(outdir / "cusp_norms.csv", ["h", "r", "q", "Q"], norm_rows, manifest.hash)
    write_json(outdir / "verdict.json", {"verdicts": verdicts}, manifest.hash)
    manifest.write(outdir)
    return UNRELIABLE_EXIT if any(rep.verdict == "UNRELIABLE" for rep in reports) else 0


def cmd_billiard(args) -> int:
    cfg = _load_config(args, "billiard")
    with _config_values():
        point = PhaseSpacePoint(y=float(cfg.get("y", 0.0)), t=float(cfg.get("t", 0.0)),
                                eta=float(cfg.get("eta", 1.0)), tau=float(cfg.get("tau", 1.5)))
        n = int(cfg.get("n", 1))
        manifest = Manifest(cfg, int(cfg.get("seed", 0)))
        sign = _SIGNS.get(str(cfg.get("sign", "+")))
        if sign is None:
            raise ValueError(f"sign must be one of {', '.join(_SIGNS)}, got {cfg['sign']!r}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [(0, point.y, point.t, point.eta, point.tau)]
    for j in range(1, n + 1):
        p = billiard_iterate(point, sign, j)
        rows.append((j, p.y, p.t, p.eta, p.tau))
    write_csv(outdir / "billiard.csv", ["n", "y", "t", "eta", "tau"], rows, manifest.hash)
    manifest.write(outdir)
    return 0


def cmd_report(args) -> int:
    outdir = Path(args.out)
    if not outdir.exists():
        raise _UsageError(f"no run directory {outdir}")
    summary = {}
    for name in ("dispersion_fit", "gallery_fit", "verdict", "boundary_residual", "airy_branch"):
        path = outdir / f"{name}.json"
        if path.exists():
            summary[name] = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps(summary, indent=2, sort_keys=True)
    (outdir / "summary.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convexwave",
                                     description="dispersive scaling laboratory for a model convex domain")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="seed (grid jitter only)")
        p.add_argument("--config", help="JSON config file with per-command sections")

    p = sub.add_parser("airy", help="write the Airy zero table")
    common(p)
    p.add_argument("--count", type=int)
    p.set_defaults(func=cmd_airy)

    p = sub.add_parser("dispersion", help="dispersive amplitude scans")
    common(p)
    p.add_argument("--threads", type=int, help="worker pool size (one h per worker)")
    p.add_argument("--flow", choices=["wave", "schrodinger"])
    p.add_argument("--h-min", type=float)
    p.add_argument("--h-max", type=float)
    p.add_argument("--h-steps", type=int)
    p.add_argument("--lambda-min", type=float)
    p.add_argument("--lambda-max", type=float)
    p.add_argument("--lambda-steps", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--mu-min", type=float, help="fit cut for the wave flow (mu >> 1 regime)")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("gallery", help="gallery-mode Strichartz quotients")
    common(p)
    p.add_argument("--flow", choices=FLOW_KINDS)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--data", choices=DATA_KINDS)
    p.add_argument("--h-min", type=float)
    p.add_argument("--h-max", type=float)
    p.add_argument("--h-steps", type=int)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("cusp", help="reflected-cusp norms, residuals and verdict")
    common(p)
    p.add_argument("--threads", type=int, help="worker pool size (one h per worker)")
    p.add_argument("--h-list", help="comma-separated h values")
    p.add_argument("--h-min", type=float)
    p.add_argument("--h-max", type=float)
    p.add_argument("--h-steps", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--r-list", help="comma-separated r values")
    p.add_argument("--r", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--t-resolution", type=int)
    p.add_argument("--c0", type=float)
    p.set_defaults(func=cmd_cusp)

    p = sub.add_parser("billiard", help="iterate the billiard ball map")
    common(p)
    p.add_argument("--y", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_billiard)

    p = sub.add_parser("report", help="summarize artifacts from a run directory")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
