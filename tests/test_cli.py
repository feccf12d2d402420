"""CLI surface: determinism, exit codes, artifact formats."""

import json
import math

import pytest

import convexwave.cli as cli
from convexwave.cli import main
from convexwave.cusp import CuspEvaluator, cusp_field
from convexwave.normlab import region_norms
from convexwave.params import make_params


def run(args):
    return main([str(a) for a in args])


def test_airy_command_writes_zero_table(tmp_path):
    out = tmp_path / "run"
    assert run(["airy", "--count", 5, "--out", out]) == 0
    lines = (out / "airy_zeros.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# manifest=")
    assert lines[1] == "k,omega_k"
    assert len(lines) == 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["convexwave"]
    assert lines[0].split("=")[1] == manifest["config_hash"]


def test_airy_command_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["airy", "--count", 6, "--out", out1]) == 0
    assert run(["airy", "--count", 6, "--out", out2]) == 0
    assert (out1 / "airy_zeros.csv").read_bytes() == (out2 / "airy_zeros.csv").read_bytes()
    assert json.loads((out1 / "manifest.json").read_text())["seed"] is None


@pytest.mark.parametrize("argv", [["airy", "--seed", 3], ["report", "--config", "cfg.json"]])
def test_flag_that_changes_nothing_is_not_an_option(tmp_path, argv):
    # only dispersion has a seed (its grid jitter), and report reads no setting
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", out])
    assert exc.value.code == 2
    assert not out.exists()


def test_airy_usage_error(tmp_path):
    assert run(["airy", "--count", 0, "--out", tmp_path / "x"]) == 2


def test_billiard_trajectory_and_identity(tmp_path):
    out = tmp_path / "b"
    assert run(["billiard", "--eta", 1.0, "--tau", math.sqrt(2.0), "--sign", "+",
                "--n", 3, "--out", out]) == 0
    rows = (out / "billiard.csv").read_text().strip().splitlines()[2:]
    assert len(rows) == 4
    first = rows[0].split(",")
    assert float(first[1]) == 0.0  # n = 0 echoes the input point


@pytest.mark.parametrize("sign, flag", [("+", "+"), ("+1", "+"), (1, "+"), ("-", "-"), (-1, "-")])
def test_billiard_config_sign_spellings(tmp_path, sign, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"billiard": {"sign": sign, "tau": math.sqrt(2.0)}}))
    assert run(["billiard", "--config", cfg, "--out", tmp_path / "c"]) == 0
    for f in "+-":
        assert run(["billiard", "--sign", f, "--tau", math.sqrt(2.0), "--out", tmp_path / f]) == 0
    rows = {p: (tmp_path / p / "billiard.csv").read_text().splitlines()[2:] for p in ("c", "+", "-")}
    assert rows["+"] != rows["-"]
    assert rows["c"] == rows[flag]


def test_billiard_unknown_config_sign_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"billiard": {"sign": "x"}}))
    out = tmp_path / "b"
    assert run(["billiard", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == "error: sign must be one of +, +1, 1, -, -1, got 'x'\n"
    assert not out.exists()


def test_billiard_gliding_exit_code(tmp_path):
    assert run(["billiard", "--eta", 1.0, "--tau", 0.5, "--out", tmp_path / "g"]) == 3


def test_dispersion_usage_error_empty_range(tmp_path):
    assert run(["dispersion", "--flow", "wave", "--lambda-min", 100, "--lambda-max", 50,
                "--out", tmp_path / "d"]) == 2


def test_dispersion_schrodinger_small_run(tmp_path):
    out = tmp_path / "disp"
    code = run(["dispersion", "--flow", "schrodinger", "--h-min", 1e-3, "--h-max", 1e-2,
                "--h-steps", 2, "--lambda-min", 60, "--lambda-max", 2500,
                "--lambda-steps", 8, "--out", out])
    assert code == 0
    fit = json.loads((out / "dispersion_fit.json").read_text())
    assert fit["lambda_exponent"] == pytest.approx(-0.5, abs=0.1)
    assert abs(fit["h_exponent"]) <= 0.1  # no h^{-1/3} factor for the Schroedinger flow
    rows = (out / "dispersion.csv").read_text().strip().splitlines()
    assert rows[1] == "flow,d,h,lambda,mu,gamma"
    # the worker pool keeps the row order and values; line 1 holds the manifest
    # hash, which covers the thread count
    out2 = tmp_path / "disp_threads"
    assert run(["dispersion", "--flow", "schrodinger", "--h-min", 1e-3, "--h-max", 1e-2,
                "--h-steps", 2, "--lambda-min", 60, "--lambda-max", 2500,
                "--lambda-steps", 8, "--threads", 2, "--out", out2]) == 0
    rows2 = (out2 / "dispersion.csv").read_text().strip().splitlines()
    assert rows2[1:] == rows[1:]


def test_dispersion_fit_reports_oracle_diff(tmp_path):
    out = tmp_path / "disp"
    assert run(["dispersion", "--flow", "wave", "--h-min", 1e-3, "--h-max", 1e-2,
                "--h-steps", 2, "--lambda-min", 100, "--lambda-max", 400,
                "--lambda-steps", 2, "--out", out]) == 0
    fit = json.loads((out / "dispersion_fit.json").read_text())
    assert 0.0 <= fit["meta"]["oracle_diff"] <= 1e-9


def test_cusp_requires_epsilon(tmp_path):
    assert run(["cusp", "--h-list", "0.0001", "--out", tmp_path / "c"]) == 2


def test_cusp_not_applicable_for_small_r(tmp_path):
    out = tmp_path / "c3"
    code = run(["cusp", "--h-list", "0.00048828125", "--epsilon", 0.1, "--r-list", "3",
                "--out", out])
    assert code == 0
    verdicts = json.loads((out / "verdict.json").read_text())["verdicts"]
    assert verdicts[0]["verdict"] == "NOT-APPLICABLE"


def test_cusp_single_h_reports_norms(tmp_path):
    out = tmp_path / "c1"
    code = run(["cusp", "--h-list", "0.00048828125", "--epsilon", 0.1, "--r", "6",
                "--t-resolution", "9", "--out", out])
    assert code == 0
    verdicts = json.loads((out / "verdict.json").read_text())["verdicts"]
    assert verdicts[0]["verdict"] is None
    assert len(verdicts[0]["samples"]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"airy": {"count": 3}}))
    out = tmp_path / "r"
    assert run(["airy", "--config", cfg, "--count", 4, "--out", out]) == 0
    lines = (out / "airy_zeros.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # flag overrides config


def test_a_shared_config_seed_is_ignored_where_there_is_no_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "airy": {"count": 3}}))  # top-level keys reach every command
    out = tmp_path / "a"
    assert run(["airy", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] is None


def test_an_unset_h_grid_takes_its_defaults_and_a_null_end_is_unset(tmp_path):
    # the grid's ends and step count exclude an h_list only when set: a null key is not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gallery": {"h_list": "0.001,0.0001", "h_min": None, "h_steps": None}}))
    settings = cli._resolve(cli.build_parser().parse_args(["gallery", "--config", str(cfg), "--out", "g"]))[1]
    assert cli._h_grid(settings) == [1e-3, 1e-4]
    settings = cli._resolve(cli.build_parser().parse_args(["gallery", "--out", "g"]))[1]
    assert cli._h_grid(settings) == pytest.approx([1e-2, 1e-3, 1e-4], rel=1e-15)


def test_config_goes_after_the_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"billiard": {"n": 3}}))
    out = tmp_path / "b"
    assert run(["billiard", "--config", cfg, "--out", out]) == 0
    assert len((out / "billiard.csv").read_text().strip().splitlines()[2:]) == 4  # n = 0..3
    # before the subcommand it is not an option, so the config cannot be dropped silently
    with pytest.raises(SystemExit) as exc:
        run(["--config", cfg, "billiard", "--out", tmp_path / "b2"])
    assert exc.value.code == 2
    assert not (tmp_path / "b2").exists()


@pytest.mark.parametrize("command", [
    ["gallery"],
    ["cusp", "--epsilon", 0.1],
    ["dispersion"],
])
def test_empty_h_grid_is_usage_error(tmp_path, command):
    out = tmp_path / "empty"
    assert run(command + ["--h-steps", 0, "--out", out]) == 2
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command[0]: {"h_steps": -1}}))
    assert run(command + ["--config", cfg, "--out", out]) == 2
    assert not out.exists()


def test_gallery_fit_reports_worst_shortcuts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gallery": {"h_max": 2.0**-8, "h_min": 2.0**-9, "h_steps": 2, "t_steps": 3}}))
    out = tmp_path / "g"
    assert run(["gallery", "--config", cfg, "--out", out]) == 0
    fit = json.loads((out / "gallery_fit.json").read_text())
    assert 0 < fit["rank"] <= 12
    assert fit["rank_residual"] <= 1e-14
    assert fit["screen_bound"] <= 1e-12
    assert 0.0 < fit["kept_share"] < 1.0


def test_gallery_negative_mode_is_usage_error(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["gallery", "--k", -1, "--out", out]) == 2
    assert capsys.readouterr().err == "error: mode index k must be >= 0\n"
    assert not out.exists()


def test_dispersion_unknown_flow_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dispersion": {"flow": "x"}}))  # the flag's choices never see it
    out = tmp_path / "d"
    assert run(["dispersion", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == "error: unknown flow 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, config", [
    (["dispersion", "--lambda-min", 0.5], None),
    (["dispersion", "--h-min", 0], None),
    (["gallery", "--h-min", -1e-4], None),
    (["dispersion"], {"dispersion": {"win_inner": 0.5, "win_outer": 0.5}}),
    (["gallery"], {"gallery": {"r": "abc"}}),
    (["gallery"], {"gallery": {"data": "x", "h_steps": 1}}),
    (["gallery"], {"gallery": {"flow": "x", "h_steps": 1}}),
    (["cusp", "--epsilon", 0.1, "--h-list", "0,0.001"], None),
    (["cusp", "--epsilon", 0.1, "--h-max", 2], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--t-resolution", 0], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--t-resolution", -3], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--r-list", "nan"], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--r-list", 0], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--r-list", -2], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--r-list", "2,0.5"], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--r", 6, "--r-list", "5,6"], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--r", 8], {"cusp": {"r_list": "5,6"}}),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--q", 0], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--q", "nan"], None),
    (["gallery", "--q", 0], None),
    (["gallery", "--r", 1.5, "--h-max", 2.0**-8, "--h-min", 2.0**-9, "--h-steps", 2], None),
    (["gallery"], {"gallery": {"t_steps": 0}}),
    (["gallery"], {"gallery": {"t_steps": -2}}),
    (["dispersion", "--k", -1], None),
    (["dispersion", "--seed", -1], None),
    (["cusp", "--epsilon", 1.5, "--h-list", 2.0**-10], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--c0", 0.5], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 1], None),
    (["dispersion", "--epsilon", 1.5], None),
    (["airy", "--config", "no-such-config.json"], None),
    (["gallery", "--flow", "halfwave", "--data", "gaussian"],
     {"gallery": {"t_max": -0.3, "h_steps": 4, "h_max": 4e-3, "h_min": 2e-5}}),
    (["gallery"], {"gallery": {"t_max": 0, "h_steps": 4, "h_max": 4e-3, "h_min": 2e-5}}),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--h-min", 5, "--r", 3, "--t-resolution", 3], None),
    (["cusp", "--epsilon", 0.1, "--h-list", 2.0**-10, "--h-max", 2.0**-10], None),
    (["cusp", "--epsilon", 0.1, "--h-steps", 1], {"cusp": {"h_list": repr(2.0**-10)}}),
    (["gallery", "--h-min", 2.0**-9], {"gallery": {"h_list": repr(2.0**-8)}}),
    (["dispersion"], {"dispersion": {"h_list": "1e-3", "h_steps": 2}}),
], ids=["lambda_min_below_1", "h_min_zero", "h_min_negative", "window_inner_not_below_outer",
        "gallery_r_not_a_number", "gallery_unknown_data", "gallery_unknown_flow",
        "cusp_h_list_zero", "cusp_h_max_above_1",
        "cusp_t_resolution_zero", "cusp_t_resolution_negative", "cusp_r_nan", "cusp_r_zero",
        "cusp_r_negative", "cusp_r_below_1", "cusp_r_and_r_list_flags", "cusp_r_flag_and_r_list_config",
        "cusp_q_zero", "cusp_q_nan", "gallery_q_zero",
        "gallery_derived_q_negative", "gallery_t_steps_zero", "gallery_t_steps_negative",
        "dispersion_k_negative", "dispersion_seed_negative", "cusp_epsilon_above_1",
        "cusp_c0_above_a_third", "cusp_h_too_large_for_lambda", "dispersion_epsilon_above_1",
        "config_file_missing", "gallery_t_max_negative", "gallery_t_max_zero",
        "cusp_h_list_and_h_min_out_of_range", "cusp_h_list_and_h_max", "cusp_h_steps_flag_and_h_list_config",
        "gallery_h_min_flag_and_h_list_config", "dispersion_h_list_and_h_steps_config"])
def test_bad_input_is_usage_error_before_output(tmp_path, capsys, argv, config):
    out = tmp_path / "bad"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", cfg]
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_numeric_failure_before_any_artifact_leaves_no_directory(tmp_path, capsys):
    # one time slice with a finite q fails in lqlr_norm, after every check and before any write
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gallery": {"t_steps": 1, "h_steps": 1}}))
    out = tmp_path / "g"
    assert run(["gallery", "--config", cfg, "--out", out]) == 3
    assert "a single time slice needs q = inf" in capsys.readouterr().err
    assert not out.exists()


def test_cusp_failure_after_its_residuals_keeps_them(tmp_path, monkeypatch):
    def failing_report(*args, **kwargs):
        raise cli.NormError("verdict failed")

    monkeypatch.setattr(cli, "counterexample_report", failing_report)
    out = tmp_path / "c"
    assert run(["cusp", "--h-list", 2.0**-10, "--epsilon", 0.1, "--out", out]) == 3
    assert [path.name for path in out.iterdir()] == ["boundary_residual.json"]


def test_value_error_inside_a_computation_is_not_numeric_exit(tmp_path, monkeypatch):
    # only the library's own error types are numeric-validity failures (exit 3)
    def broken(count):
        raise ValueError("a programming error")

    monkeypatch.setattr(cli, "airy_zeros", broken)
    with pytest.raises(ValueError, match="a programming error"):
        run(["airy", "--count", 3, "--out", tmp_path / "a"])


def test_threads_only_on_commands_that_read_it(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["airy", "--threads", 2, "--out", tmp_path / "a"])
    assert exc.value.code == 2
    assert not (tmp_path / "a").exists()


def test_report_summarizes_run(tmp_path, capsys):
    out = tmp_path / "run"
    run(["airy", "--count", 3, "--out", out])
    assert run(["report", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "airy_branch" in summary


def test_report_missing_directory(tmp_path):
    assert run(["report", "--out", tmp_path / "nope"]) == 2


def test_cusp_region_csv_columns(tmp_path):
    out = tmp_path / "creg"
    code = run(["cusp", "--h-list", "0.00048828125", "--epsilon", 0.1, "--r", "6",
                "--t-resolution", "9", "--out", out])
    assert code == 0
    lines = (out / "region_norms.csv").read_text().strip().splitlines()
    assert lines[1] == "h,n,t,r,region,norm"
    assert len(lines) == 5  # three regions + header + manifest line


@pytest.mark.parametrize("r_list", ["4,6", "4,5,6", "3", "2,4"])
def test_cusp_region_split_comes_from_the_verdict_walk(tmp_path, monkeypatch, r_list):
    # the t = 0 region split for every r asked comes from a norm-only slice of
    # an n = 0 evaluator, and no cusp run forms a full slice.  With an r > 4
    # that evaluator is the walk's, and one walk per h serves every r > 4: two
    # h values build N + 1 = 2 and 3 evaluators, whatever the number of
    # verdicts, and no separate u^0; with none it is one n = 0 evaluator per h
    built = []
    init = CuspEvaluator.__init__

    def counting_init(self, params, n, **kwargs):
        init(self, params, n, **kwargs)
        built.append((params.h, n))

    def no_full_slice(self, *args, **kwargs):
        raise AssertionError("a cusp run formed a full (n_x, n_fft) slice")

    monkeypatch.setattr(CuspEvaluator, "__init__", counting_init)
    monkeypatch.setattr(CuspEvaluator, "field", no_full_slice)
    out = tmp_path / "csplit"
    h_list = [2.0**-10, 2.0**-12]
    code = run(["cusp", "--h-list", ",".join(repr(h) for h in h_list), "--epsilon", 0.1,
                "--r-list", r_list, "--t-resolution", "1", "--out", out])
    assert code == 0
    r_values = [float(x) for x in r_list.split(",")]
    walked = [(2.0**-12, 0), (2.0**-12, 1), (2.0**-12, 2), (2.0**-10, 0), (2.0**-10, 1)]
    assert sorted(built) == (walked if max(r_values) > 4 else [(2.0**-12, 0), (2.0**-10, 0)])
    monkeypatch.undo()

    lines = (out / "region_norms.csv").read_text().strip().splitlines()[2:]
    expected = []
    for h in h_list:
        params = make_params(h, 0.1, 0.25)
        fld = cusp_field(0, 0.0, params)
        for r in r_values:
            for region, value in region_norms(fld, r, params).items():
                expected.append(",".join(cli._fmt(v) for v in (h, 0, 0.0, r, region, value)))
    assert lines == expected


def test_dispersion_wave_fit_near_half(tmp_path):
    out = tmp_path / "dw"
    code = run(["dispersion", "--flow", "wave", "--h-min", 1e-3, "--h-max", 1e-2,
                "--h-steps", 2, "--lambda-min", 30, "--lambda-max", 3000,
                "--lambda-steps", 12, "--out", out])
    assert code == 0
    fit = json.loads((out / "dispersion_fit.json").read_text())
    assert fit["lambda_exponent"] == pytest.approx(-0.5, abs=0.12)
