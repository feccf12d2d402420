"""Command-line surface: experiment orchestration with reproducible artifacts.

Subcommands: airy | dispersion | gallery | cusp | billiard | report.  Each
subcommand's settings are declared once, in ``SETTINGS``: the table makes the
flags, and one resolver reads the JSON config file overridden by the flags,
parses every value and checks its bounds.  A ``cmd_*`` function then runs the
checks that span several settings and returns the run.  Its first artifact
makes the output directory, after every check has passed, so input that fails
a check or a run that fails before any artifact leaves no directory.  Each run
writes CSV/JSON outputs plus a manifest, and is deterministic given its
settings; only ``dispersion`` has a seed, which jitters its grid.

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
# cusp_field is not called here: perfbench/tracing.py patches cli.cusp_field until ROADMAP item 1
from .cusp import CuspError, CuspEvaluator, PhaseSpacePoint, billiard_iterate, boundary_residual, cusp_field
from .normlab import NormError, counterexample_report, parallel_map

USAGE_EXIT = 2
NUMERIC_EXIT = 3
UNRELIABLE_EXIT = 4

_NUMERIC_ERRORS = (ParameterError, AiryError, QuadratureError, GridCoverageError,
                   GalleryError, CuspError, NormError)
_SIGNS = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}  # billiard sign spellings


class _UsageError(Exception):
    """Configuration that names no valid work to do; exits with USAGE_EXIT."""


class Setting:
    """One setting of a subcommand.

    ``parse`` is a type (int, float, str) or the tuple of allowed values (a
    config value is matched by its string).  An absent or null value takes
    ``default``.  ``least`` is the least valid value.  ``flag`` is False for a
    config-only setting, or the tuple of values a flag takes when that is fewer
    than a config file may give.  ``error`` is the usage error for a value out
    of bounds or not allowed, formatted with ``value``.
    """

    def __init__(self, parse, default=None, *, least=None, flag=True, help=None, error=None):
        self.parse, self.default, self.least = parse, default, least
        self.flag, self.help, self.error = flag, help, error


_THREADS = Setting(int, 1, help="worker pool size (one h per worker)")
_H_GRID = {  # an h_list, comma-separated, or the geometric grid; the two exclude each other
    "h_list": Setting(str, flag=False),
    "h_min": Setting(float),  # None: 1e-4
    "h_max": Setting(float),  # None: 1e-2
    "h_steps": Setting(int, least=1),  # None: 3
}

SETTINGS = {
    "airy": {"count": Setting(int, 10, least=1)},
    "dispersion": {
        "seed": Setting(int, 0, least=0, help="seed (grid jitter only)"),  # the grid jitter takes no negative seed
        "threads": _THREADS,
        "flow": Setting(("wave", "schrodinger"), "wave", error="unknown flow {value!r}"),
        **_H_GRID,
        "lambda_min": Setting(float, 30.0, least=1),
        "lambda_max": Setting(float, 3000.0),
        "lambda_steps": Setting(int, 16, least=1, error="empty lambda range"),
        "epsilon": Setting(float, 0.1),
        "k": Setting(int, 9, least=0),
        "mu_min": Setting(float, 12.0, help="fit cut for the wave flow (mu >> 1 regime)"),
        "win_inner": Setting(float, 0.25, flag=False),
        "win_outer": Setting(float, 0.5, flag=False),
    },
    "gallery": {
        "flow": Setting(FLOW_KINDS, "schrodinger", error="unknown flow kind {value!r}"),
        "k": Setting(int, 0, least=0, error="mode index k must be >= 0"),
        "q": Setting(float, least=1),  # None: the sharp q of r
        "r": Setting(float, 6.0),
        "data": Setting(DATA_KINDS, "coherent", error="unknown data kind {value!r}"),
        **_H_GRID,
        "t_max": Setting(float, 0.3, flag=False),
        "t_steps": Setting(int, 25, least=1, flag=False),
    },
    "cusp": {
        "threads": _THREADS,
        **_H_GRID,
        "h_list": Setting(str, help="comma-separated h values"),
        "epsilon": Setting(float),  # required
        "r_list": Setting(str, help="comma-separated r values"),
        "r": Setting(float),  # r and r_list exclude each other; neither given: r = 6
        "q": Setting(float, least=1),  # None: the sharp wave q of each r
        "t_resolution": Setting(int, 12, least=1),
        "c0": Setting(float, 0.25),
    },
    "billiard": {
        "y": Setting(float, 0.0),
        "t": Setting(float, 0.0),
        "eta": Setting(float, 1.0),
        "tau": Setting(float, 1.5),
        "sign": Setting(tuple(_SIGNS), "+", flag=("+", "-"),
                        error=f"sign must be one of {', '.join(_SIGNS)}, got {{value!r}}"),
        "n": Setting(int, 1, least=0),  # --sign - gives the inverse map
    },
    "report": {},  # reads no setting, so it takes no --config
}


def _at_least(key: str, value, least, error=None) -> None:
    """A usage error unless value >= least; NaN is rejected too."""
    if not value >= least:
        raise _UsageError((error or "{key} must be >= {least}, got {value}").format(
            key=key, least=least, value=value))


def _resolve(args) -> tuple[dict, argparse.Namespace]:
    """The settings as given (the config file's section for the command, its top-level values, then
    the flags), and every setting of the command's table from them, parsed and checked against its
    bounds."""
    cfg = {}
    if args.config:
        full = json.loads(Path(args.config).read_text(encoding="utf-8"))
        cfg.update(full.get(args.command, {}))
        cfg.update({k: v for k, v in full.items() if not isinstance(v, dict)})
    table = SETTINGS[args.command]
    cfg.update({key: val for key, val in vars(args).items() if key in table and val is not None})
    values = {}
    for key, setting in table.items():
        raw = cfg.get(key)
        if raw is None:
            values[key] = setting.default
        elif isinstance(setting.parse, tuple):
            if str(raw) not in setting.parse:
                raise _UsageError(setting.error.format(value=raw))
            values[key] = str(raw)
        else:
            try:
                values[key] = setting.parse(raw)
            except (TypeError, ValueError) as exc:
                raise _UsageError(str(exc)) from None
            if setting.least is not None:
                _at_least(key, values[key], setting.least, setting.error)
    return cfg, argparse.Namespace(**values)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(path: Path, header, rows, manifest_hash: str):
    path.parent.mkdir(parents=True, exist_ok=True)  # a run's first artifact makes its directory
    lines = [f"# manifest={manifest_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj, manifest_hash: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"manifest": manifest_hash, **obj}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Manifest:
    def __init__(self, config: dict, seed: int | None):
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


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _h_grid(s) -> list[float]:
    """The run's h values, each in make_params's range (0, 1]: the h_list, or else h_steps values
    from h_max to h_min; an empty list, or a list beside a set end or step count, is a usage error."""
    grid = (s.h_max, s.h_min, s.h_steps)
    listed = s.h_list is not None
    if listed and grid != (None, None, None):
        raise _UsageError("give h_list or the h_min, h_max, h_steps grid, not both")
    if listed and not s.h_list.strip():
        raise _UsageError("h_list is empty")
    h_max, h_min, steps = (default if v is None else v for v, default in zip(grid, (1e-2, 1e-4, 3)))
    hs = _floats(s.h_list) if listed else [h_max, h_min]
    for h in hs:
        if not 0.0 < h <= 1.0:
            raise _UsageError(f"h must lie in (0, 1], got {h}")
    if listed:
        return hs
    return hs[:1] if steps == 1 else list(np.geomspace(*hs, steps))


def cmd_airy(s):
    def run(outdir: Path, manifest: Manifest) -> int:
        with manifest.time("zeros"):
            zeros = airy_zeros(s.count)
        write_csv(outdir / "airy_zeros.csv", ["k", "omega_k"],
                  [(k, zeros[k]) for k in range(s.count)], manifest.hash)
        write_json(outdir / "airy_branch.json", calibrate_branch_leading(), manifest.hash)
        return 0
    return run


def cmd_dispersion(s):
    if s.lambda_max <= s.lambda_min:
        raise _UsageError("empty lambda range")
    window = FrequencyWindow(1.0, s.win_inner, s.win_outer)
    params = [make_params(h, s.epsilon, 0.2) for h in _h_grid(s)]

    def run(outdir: Path, manifest: Manifest) -> int:
        omega = airy_zeros(s.k + 1)[s.k]
        lam_grid = np.geomspace(s.lambda_min, s.lambda_max, s.lambda_steps)
        scan = gamma_wave if s.flow == "wave" else gamma_schrodinger

        def one(p):
            return scan(p, omega, 2, lam_grid, window=window, seed=s.seed or None)

        with manifest.time("scan"):
            curves = parallel_map(one, params, s.threads)
            pooled = pool_curves(curves)
            if s.flow == "wave":
                pooled.fit(mu_min=s.mu_min)
        rows = [row for c in curves for row in c.rows()]
        write_csv(outdir / "dispersion.csv", ["flow", "d", "h", "lambda", "mu", "gamma"], rows, manifest.hash)
        write_json(outdir / "dispersion_fit.json", {
            "flow": s.flow, "k": s.k,
            "lambda_exponent": pooled.fitted_lambda_exponent,
            "lambda_stderr": pooled.lambda_stderr,
            "h_exponent": pooled.fitted_h_exponent,
            "h_stderr": pooled.h_stderr,
            "meta": {k: v for k, v in pooled.meta.items() if k != "stationary_rho_inside_window"},
        }, manifest.hash)
        return 0
    return run


def cmd_gallery(s):
    if not s.t_max > 0.0:
        raise _UsageError(f"t_max must be > 0, got {s.t_max}")
    q = s.q
    if q is None:
        q = float((sharp_schrodinger_q if s.flow == "schrodinger" else sharp_wave_q)(s.r))
        _at_least("q", q, 1)  # r < 2 gives a negative one
    h_list = _h_grid(s)

    def run(outdir: Path, manifest: Manifest) -> int:
        with manifest.time("quotients"):
            res = strichartz_quotient(s.flow, s.data, q, s.r, (0.0, s.t_max), h_list, k=s.k, n_t=s.t_steps)
        write_csv(outdir / "gallery_quotients.csv", ["h", "quotient"], res.samples, manifest.hash)
        write_json(outdir / "gallery_fit.json", {
            "flow": s.flow, "data": s.data, "k": s.k, "q": q, "r": s.r,
            "fitted_exponent": res.fitted_exponent, "stderr": res.stderr,
            "reliable": res.reliable,
            # the synthesis shortcuts, each at its worst over h
            **{key: max(row[key] for row in res.meta["rows"])
               for key in ("rank", "rank_residual", "screen_bound", "kept_share")},
        }, manifest.hash)
        return 0
    return run


def cmd_cusp(s):
    if s.epsilon is None:
        raise _UsageError("--epsilon is required for the cusp experiment")
    if s.r is not None and s.r_list is not None:
        raise _UsageError("give r or r_list, not both")
    r_list = [s.r] if s.r is not None else _floats("6" if s.r_list is None else s.r_list)
    for r in r_list:
        _at_least("r", r, 1)
    h_list = _h_grid(s)
    params_per_h = [make_params(h, s.epsilon, s.c0) for h in h_list]

    def run(outdir: Path, manifest: Manifest) -> int:
        residual_rows = []
        with manifest.time("boundary_residual"):
            for params in params_per_h:
                try:
                    ratio = boundary_residual(0, params)
                    residual_rows.append({"n": 0, "lambda": params.lam, "residual_ratio": ratio})
                except CuspError as exc:
                    residual_rows.append({"n": 0, "lambda": params.lam, "error": str(exc)})
        write_json(outdir / "boundary_residual.json", {"records": residual_rows}, manifest.hash)

        judged = any(r > 4.0 for r in r_list)
        with manifest.time("verdict" if judged else "region_norms"):
            if judged:  # one walk per h serves every r and gives the t = 0 region split of u^0
                reports = counterexample_report(r_list, s.epsilon, h_list, c0=s.c0, q=s.q,
                                                samples_per_sqrt_a=s.t_resolution, threads=s.threads)
                splits = [meas["region_norms"] for meas in reports[0].norms]
            else:  # no walk: the same norm-only t = 0 slice of u^0, per h
                reports = []
                splits = [CuspEvaluator(p, 0).initial_regions(r_list) for p in params_per_h]
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
        return UNRELIABLE_EXIT if any(rep.verdict == "UNRELIABLE" for rep in reports) else 0
    return run


def cmd_billiard(s):
    point = PhaseSpacePoint(y=s.y, t=s.t, eta=s.eta, tau=s.tau)

    def run(outdir: Path, manifest: Manifest) -> int:
        rows = [(0, point.y, point.t, point.eta, point.tau)]
        for j in range(1, s.n + 1):
            p = billiard_iterate(point, _SIGNS[s.sign], j)
            rows.append((j, p.y, p.t, p.eta, p.tau))
        write_csv(outdir / "billiard.csv", ["n", "y", "t", "eta", "tau"], rows, manifest.hash)
        return 0
    return run


def cmd_report(outdir: Path) -> int:
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
    for name, help_text, func in (
            ("airy", "write the Airy zero table", cmd_airy),
            ("dispersion", "dispersive amplitude scans", cmd_dispersion),
            ("gallery", "gallery-mode Strichartz quotients", cmd_gallery),
            ("cusp", "reflected-cusp norms, residuals and verdict", cmd_cusp),
            ("billiard", "iterate the billiard ball map", cmd_billiard),
            ("report", "summarize artifacts from a run directory", cmd_report)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        if SETTINGS[name]:
            p.add_argument("--config", help="JSON config file with per-command sections")
        for key, setting in SETTINGS[name].items():
            if setting.flag is False:
                continue
            if isinstance(setting.parse, tuple):
                kind = {"choices": setting.parse if setting.flag is True else setting.flag}
            else:
                kind = {"type": setting.parse}
            p.add_argument("--" + key.replace("_", "-"), help=setting.help, **kind)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(Path(args.out))
        try:  # every check runs before any output is written
            cfg, settings = _resolve(args)
            run = args.func(settings)
        except (OSError, ValueError) as exc:  # an unreadable config; ParameterError: make_params's own rules
            raise _UsageError(str(exc)) from None
        outdir = Path(args.out)
        manifest = Manifest(cfg, getattr(settings, "seed", None))  # only dispersion has a seed
        code = run(outdir, manifest)
        manifest.write(outdir)
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
