"""CLI dispatch, report determinism, CSV emission, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maghardy import cli
from maghardy.errors import ConfigError


def _child_env():
    """The environment of a child interpreter, importing maghardy from this
    checkout's src first."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _strip_clock(report):
    r = dict(report)
    r.pop("wall_clock_s", None)
    return r


def test_flux_subcommand_value():
    config = {
        "subcommand": "flux",
        "field": {"kind": "example1", "b0": 1.0, "gamma": 2.0},
        "r": 0.1353352832,
        "seed": 0,
    }
    report, _tables, code = cli.run(config)
    assert code == 0
    assert report["results"]["alpha"] == pytest.approx(0.5, abs=1e-9)


def test_identity_check_subcommand():
    report, _t, code = cli.run({"subcommand": "identity-check", "r0": "e", "n": 1000, "seed": 0})
    assert code == 0
    assert report["results"]["max_residual"] < 1e-10


def test_count_zero_coupling():
    config = {
        "subcommand": "count",
        "potential": {"kind": "vsigma", "sigma": 2.0},
        "lambda": 0.0,
        "seed": 0,
    }
    report, _t, code = cli.run(config)
    assert code == 0
    assert report["results"]["total"] == 0


def test_report_determinism_and_roundtrip():
    config = {
        "subcommand": "probe-zero",
        "field": {"kind": "zero"},
        "b": 1.5,
        "alpha": 0.4,
        "cuts": [8.0, 16.0],
        "seed": 7,
    }
    r1, t1, _ = cli.run(config)
    r2, t2, _ = cli.run(config)
    assert json.dumps(_strip_clock(r1), sort_keys=True) == json.dumps(
        _strip_clock(r2), sort_keys=True
    )
    # round-trip: re-running from the echoed config reproduces the payload
    r3, _t3, _ = cli.run(r1["config"])
    assert json.dumps(_strip_clock(r1), sort_keys=True) == json.dumps(
        _strip_clock(r3), sort_keys=True
    )


def test_csv_emission(tmp_path):
    config = {
        "subcommand": "probe-zero",
        "field": {"kind": "zero"},
        "b": 1.5,
        "alpha": 0.4,
        "cuts": [8.0, 16.0],
        "seed": 0,
    }
    report, tables, _ = cli.run(config)
    paths = cli.emit_plotdata(tables, tmp_path, "test")
    assert len(paths) == 1
    lines = paths[0].read_text().strip().splitlines()
    assert lines[0] == "k,numerator,denominator,ratio"
    assert len(lines) == 3
    first = float(lines[1].split(",")[1])
    # 17 significant digits round-trip
    assert f"{first:.17g}" == lines[1].split(",")[1]


def test_vnorm_emits_curve_and_warning_exit(tmp_path):
    config = {
        "subcommand": "vnorm",
        "potential": {"kind": "vsigma", "sigma": 2.0},
        "a": 1.5,
        "t_min_cap": -100.0,
        "cap_doublings": 2,
        "seed": 0,
    }
    report, tables, code = cli.run(config)
    assert code == 2  # unbounded growth warning collected
    assert any("Unbounded" in w for w in report["warnings"])
    assert not report["results"]["saturated"]
    assert "vnorm_curve" in tables
    cols = tables["vnorm_curve"]["columns"]
    assert cols == ["tau", "tau_pow_a_times_measure"]


def test_config_error_unknown_kind():
    with pytest.raises(ConfigError):
        cli.run({"subcommand": "flux", "field": {"kind": "nope"}, "r": 1.0})
    with pytest.raises(ConfigError):
        cli.run({"subcommand": "bogus"})


def test_main_writes_report(tmp_path):
    code = cli.main(
        [
            "flux",
            "--field",
            "example1",
            "--b0",
            "1",
            "--gamma",
            "2",
            "--r",
            "0.1353352832",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    reports = list(tmp_path.glob("flux-*.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert payload["results"]["alpha"] == pytest.approx(0.5, abs=1e-9)
    assert payload["version"]
    assert payload["config"]["field"]["kind"] == "example1"


def test_main_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "subcommand": "flux",
                "field": {"kind": "example1", "b0": 1.0, "gamma": 2.0},
                "r": 1.0,
            }
        )
    )
    code = cli.main(
        ["flux", "--config", str(cfg), "--r", "0.1353352832", "--out", str(tmp_path)]
    )
    assert code == 0
    reports = sorted(tmp_path.glob("flux-*.json"))
    payload = json.loads(reports[0].read_text())
    assert payload["results"]["alpha"] == pytest.approx(0.5, abs=1e-9)


def test_global_flags_before_subcommand(tmp_path, monkeypatch, capsys):
    # the documented usage: maghardy [--config FILE] [--out DIR] [--pretty] SUB
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "subcommand": "flux",
                "field": {"kind": "example1", "b0": 1.0, "gamma": 2.0},
                "r": 0.1353352832,
            }
        )
    )
    out = tmp_path / "out"
    code = cli.main(["--config", str(cfg), "--out", str(out), "--pretty", "flux"])
    assert code == 0
    assert not (tmp_path / "maghardy-out").exists()
    reports = list(out.glob("flux-*.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert payload["results"]["alpha"] == pytest.approx(0.5, abs=1e-9)
    assert "alpha: " in capsys.readouterr().out  # --pretty, not the JSON line
    # after the subcommand the same flags still work, and win
    later = tmp_path / "later"
    assert cli.main(["--out", str(out), "flux", "--config", str(cfg), "--out", str(later)]) == 0
    assert len(list(later.glob("flux-*.json"))) == 1


def test_console_entrypoint_smoke(tmp_path):
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "maghardy.cli",
            "identity-check",
            "--r0",
            "e",
            "--grid",
            "500",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert out.returncode == 0
    assert "max_residual" in out.stdout


def test_weight_subcommand_value():
    report, _t, code = cli.run(
        {"subcommand": "weight", "weight": {"kind": "log_squared"}, "r": 1.0, "seed": 0}
    )
    assert code == 0
    assert report["results"]["value"] == pytest.approx(1.0)
    report2, _t2, _ = cli.run(
        {
            "subcommand": "weight",
            "weight": {"kind": "shifted_log", "r0": 10.0},
            "r": 10.0,
            "seed": 0,
        }
    )
    assert report2["results"]["value"] == pytest.approx(0.01)


def test_bound_subcommand_with_counting_table():
    config = {
        "subcommand": "bound",
        "potential": {"kind": "vsigma", "sigma": 2.0},
        "a": 2.0,
        "lambdas": {"min": 10.0, "max": 100.0, "n": 3},
        "seed": 0,
    }
    report, tables, code = cli.run(config)
    assert code == 2  # borderline potential flags the unbounded integral
    assert report["results"]["log_weight_bound"]["unbounded"]
    assert report["results"]["counting_bound"]["max_ratio"] > 0
    assert tables["bound_table"]["columns"] == ["lambda", "N", "va_pow_a", "ratio"]


def test_probe_infinity_subcommand():
    config = {
        "subcommand": "probe-infinity",
        "field": {"kind": "bump", "total_flux": 1.0},
        "alpha_exp": 0.5,
        "n_list": [100.0, 1000.0],
        "seed": 0,
    }
    report, tables, code = cli.run(config)
    assert code == 0
    assert tables["probe_infinity"]["columns"] == ["n", "numerator", "denominator", "ratio"]
    recs = report["results"]["records"]
    assert recs[1]["ratio"] > recs[0]["ratio"]


def test_hardy_subcommand_payload():
    config = {
        "subcommand": "hardy",
        "field": {"kind": "bump", "total_flux": 0.5},
        "weight": {"kind": "log_squared"},
        "grid": {"t_min": -8.0, "t_max": 8.0, "n": 401},
        "m_range": [-1, 1],
        "refine": 1,
        "seed": 0,
    }
    report, tables, code = cli.run(config)
    assert code == 0
    res = report["results"]
    assert res["mu_star"] > 0
    assert len(res["refinement_history"]) == 2
    assert "per_mode" in tables


def test_sweep_subcommand_payload():
    config = {
        "subcommand": "sweep",
        "lambdas": {"min": 10.0, "max": 1e3, "n": 5},
        "method": "phase",
        "seed": 0,
    }
    report, tables, code = cli.run(config)
    assert code == 0
    assert 1.5 <= report["results"]["fitted_exponent"] <= 2.3
    assert tables["sweep"]["columns"] == ["lambda", "N", "method", "m_max"]


# The config each README command line merges to, keyed by subcommand.
_README_CONFIGS = {
    "flux": {"field": {"kind": "example1", "b0": 1.0, "gamma": 2.0}, "r": "0.1353352832"},
    "identity-check": {"r0": "e", "n": 1000},
    "probe-zero": {"b": 1.5, "alpha": 0.4, "cuts": [8.0, 16.0, 32.0, 64.0]},
    "probe-infinity": {"field": {"kind": "bump", "total_flux": 1.0}, "alpha_exp": 0.5},
    "hardy": {
        "field": {"kind": "bump", "total_flux": 0.5},
        "weight": {"kind": "log_squared"},
        "grid": {"t_min": -8.0, "t_max": 8.0, "n": 801},
    },
    "count": {
        "potential": {"kind": "vsigma", "sigma": 2.0},
        "lambda": 20.0,
        "method": "inertia",
        "grid": {"t_min": -400.0, "t_max": 0.5, "n": 6000, "kind": "auto"},
    },
    "sweep": {"potential": {"kind": "vsigma", "sigma": 2.0}, "lambdas": {"min": 10.0, "max": 1e4}},
    "bound": {"potential": {"kind": "vsigma", "sigma": 2.0}, "a": 2.0},
    "vnorm": {"potential": {"kind": "vsigma", "sigma": 2.0}, "a": 2.0},
}


def test_readme_command_lines_merge_to_their_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("maghardy ")
    ]
    merged = {}
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        merged[args.subcommand] = cli._merge_args({}, args)
    assert len(merged) == len(lines)
    assert merged == {sub: {**cfg, "subcommand": sub} for sub, cfg in _README_CONFIGS.items()}


# Config files whose every scalar differs from the runner's default.
_FILE_CONFIGS = {
    "vnorm": {
        "potential": {"kind": "vsigma", "sigma": 2.0},
        "a": 3.0,
        "t_min_cap": -50.0,
        "cap_doublings": 0,
    },
    "probe-zero": {"b": 1.2, "alpha": 0.3, "cuts": [8.0, 16.0]},
    "identity-check": {"r0": 5.0, "n": 300},
    "sweep": {"lambdas": {"min": 10.0, "max": 100.0, "n": 5}, "method": "phase"},
}


def _only_report(out_dir):
    (path,) = out_dir.glob("*.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("sub", sorted(_FILE_CONFIGS))
def test_config_file_values_reach_the_report(tmp_path, sub):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_FILE_CONFIGS[sub]))
    assert cli.main(["--config", str(cfg), sub, "--out", str(tmp_path / "out")]) == 0
    report = _only_report(tmp_path / "out")
    expected = {**_FILE_CONFIGS[sub], "subcommand": sub}
    direct = json.loads(json.dumps(cli.run(expected)[0]["results"]))
    assert report["results"] == direct
    assert report["config"] == expected


def test_flags_after_subcommand_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_FILE_CONFIGS["vnorm"]))
    out = tmp_path / "out"
    argv = ["--config", str(cfg), "vnorm", "--a", "2.5", "--sigma", "2.5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert _only_report(out)["config"] == {
        **_FILE_CONFIGS["vnorm"],
        "potential": {"kind": "vsigma", "sigma": 2.5},
        "a": 2.5,
        "subcommand": "vnorm",
    }


def test_partial_lambdas_section_takes_ladder_defaults():
    np.testing.assert_array_equal(cli._lambda_ladder({}), np.geomspace(10.0, 1e4, 7))
    np.testing.assert_array_equal(
        cli._lambda_ladder({"lambdas": {"max": 100.0, "n": 3}}), np.geomspace(10.0, 100.0, 3)
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--method", "bogus"],
        ["flux", "--nonsense", "1"],
        ["probe-zero", "--cuts", "8,x"],
        ["hardy", "--m-range", "3"],
    ],
    ids=["bad-choice", "unknown-flag", "malformed-cuts", "malformed-m-range"],
)
def test_usage_errors_exit_1(argv, capsys):
    # exit status 2 means "ok with warnings", so usage errors must not use it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "token", ["-1e3", "-1E+3", "-.5e-1", "-2.", "-inf", "-Infinity", "-nan", "-1:1", "-4:-2"]
)
def test_negative_number_tokens_are_flag_values(token):
    # argparse alone reads only -5 and -.5 as numbers: -1e3 and the mode
    # range -1:1 once ended with "expected one argument"
    if ":" in token:
        args = cli.build_parser().parse_args(["hardy", "--m-range", token])
        assert vars(args)["m_range"] == [int(x) for x in token.split(":")]
    else:
        args = cli.build_parser().parse_args(["vnorm", "--t-min-cap", token])
        assert repr(vars(args)["t_min_cap"]) == repr(float(token))


@pytest.mark.parametrize(
    "argv, flag, value, read",
    [
        (["vnorm", "--potential", "vsigma", "--sigma", "2"], "--t-min-cap", "-1e3",
         lambda res: res["cap_sequence"][0][0]),
        (["hardy", "--grid", "101", "--refine", "0"], "--t-min", "-6e0",
         lambda res: res["grid"]["t_min"]),
    ],
    ids=["vnorm-cap", "hardy-t-min"],
)
def test_negative_exponent_flag_value_equals_the_equals_form(tmp_path, capsys, argv, flag, value, read):
    outs = []
    for i, form in enumerate(([flag, value], [f"{flag}={value}"])):
        assert cli.main([*argv, *form, "--out", str(tmp_path / str(i))]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert read(json.loads(outs[0])) == float(value)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["vnorm", "--help"])
    assert exc.value.code == 0
    assert "--t-min-cap" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content",
    [None, "{", "[1, 2]", '{"lambdas": [10, 100]}', '{"potential": "vsigma"}'],
    ids=[
        "missing-file",
        "invalid-json",
        "not-an-object",
        "lambdas-not-an-object",
        "section-not-an-object",
    ],
)
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    assert cli.main(["--config", str(cfg), "sweep", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


_SQUARE_VNORM = ["vnorm", "--potential", "vsigma", "--sigma", "2", "--cap-schedule", "square"]
_VSIGMA_COUNT = ["count", "--potential", "vsigma", "--sigma", "2"]


@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ["count", "--lambda", "-1"]),
        (None, ["sweep", "--lambda-n", "3"]),
        ({"potential": {"kind": "vsigma", "sigma": 2.0}, "a": "x"}, ["vnorm"]),
        (None, ["vnorm", "--potential", "vsigma", "--sigma", "2", "--cap-doublings", "-1"]),
        (None, [*_SQUARE_VNORM, "--t-min-cap", "-0.5", "--cap-doublings", "2"]),
        (None, [*_SQUARE_VNORM, "--t-min-cap", "-1", "--cap-doublings", "2"]),
        (None, [*_VSIGMA_COUNT, "--lambda", "nan", "--method", "inertia"]),
        (None, [*_VSIGMA_COUNT, "--lambda", "inf", "--method", "inertia"]),
        (None, [*_VSIGMA_COUNT, "--lambda", "nan", "--method", "phase"]),
        (None, [*_VSIGMA_COUNT, "--lambda", "nan", "--method", "prufer"]),
        (None, ["vnorm", "--potential", "vsigma", "--sigma", "2", "--a", "nan"]),
        (None, ["vnorm", "--potential", "vsigma", "--sigma", "2", "--t-min-cap", "nan"]),
        (None, ["vnorm", "--potential", "vsigma", "--sigma", "2", "--t-min-cap=-inf"]),
        (None, ["vnorm", "--potential", "vsigma", "--sigma", "2", "--t-min-cap", "-inf"]),
        (None, ["count", "--lambda", "-1e0"]),
        (None, ["bound", "--potential", "vsigma", "--sigma", "2", "--a", "nan"]),
        (None, ["bound", "--potential", "vsigma", "--sigma", "2", "--t-min-cap", "nan"]),
        (None, ["hardy", "--grid", "101", "--refine", "-1"]),
        (None, ["hardy", "--grid", "101", "--m-range", "3:-3"]),
    ],
    ids=[
        "negative-coupling",
        "short-ladder",
        "non-numeric-value",
        "negative-cap-doublings",
        "square-schedule-cap-above-minus-1",
        "square-schedule-cap-minus-1",
        "nan-coupling-inertia",
        "inf-coupling-inertia",
        "nan-coupling-phase",
        "nan-coupling-prufer",
        "vnorm-nan-exponent",
        "vnorm-nan-cap",
        "vnorm-infinite-cap",
        "vnorm-infinite-cap-spaced",
        "negative-exponent-coupling",
        "bound-nan-exponent",
        "bound-nan-cap",
        "hardy-negative-refine",
        "hardy-empty-m-range",
    ],
)
def test_library_value_errors_exit_1(tmp_path, capsys, config, argv):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (None, ["flux", "--field", "bump", "--total-flux", "0.5", "--r", "nan"], "r: must be positive"),
        (None, ["weight", "--r", "nan"], "r: must be positive"),
        (None, ["weight", "--t", "nan"], "t: must be a number, not NaN"),
        (None, ["flux", "--field", "bump", "--total-flux", "0.5", "--r", "inf"],
         "r: must be finite"),
        (None, ["weight", "--r", "inf"], "r: must be finite"),
        (None, ["weight", "--t", "inf"], "t: must be finite"),
        ({"t": "-inf"}, ["weight"], "t: must be finite"),
        (None, ["weight", "--t", "-inf"], "t: must be finite"),
        (None, ["flux", "--field", "nope", "--r", "1"], "field.kind: unknown kind 'nope'"),
        ({"field": {"kind": ["bump"]}, "r": 1}, ["flux"], "field.kind: unknown kind ['bump']"),
        (None, ["flux", "--field", "example1", "--gamma", "2", "--r", "1"],
         "field.b0: required for kind 'example1'"),
        (None, ["count", "--potential", "nope"], "potential.kind: unknown kind 'nope'"),
        (None, ["count", "--potential", "vsigma"], "potential.sigma: required for kind 'vsigma'"),
        (None, ["weight", "--weight", "nope", "--r", "1"], "weight.kind: unknown kind 'nope'"),
        (None, ["weight", "--weight", "log_power", "--r", "1"], "weight.b: required for kind 'log_power'"),
        (None, ["weight", "--weight", "flux_augmented", "--r", "1"],
         "flux_augmented weight needs a field section"),
    ],
    ids=[
        "flux-nan-radius",
        "weight-nan-radius",
        "weight-nan-t",
        "flux-infinite-radius",
        "weight-infinite-radius",
        "weight-infinite-t",
        "weight-negative-infinite-t",
        "weight-negative-infinite-t-flag",
        "field-unknown-kind",
        "field-kind-not-a-string",
        "field-missing-key",
        "potential-unknown-kind",
        "potential-missing-key",
        "weight-unknown-kind",
        "weight-missing-key",
        "flux-augmented-without-field",
    ],
)
def test_config_errors_exit_1(tmp_path, capsys, config, argv, message):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"m_range": 5}, ["hardy"]),
        ({"cuts": 5}, ["probe-zero"]),
        ({"refine": None}, ["hardy"]),
        ({"lambdas": {"n": None}}, ["sweep"]),
    ],
    ids=["m-range-int", "cuts-int", "refine-null", "lambda-n-null"],
)
def test_config_type_errors_exit_1(tmp_path, capsys, config, argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), *argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: TypeError: ")
    assert not (tmp_path / "out").exists()


def test_import_loads_no_scipy_submodule():
    # a fresh interpreter: scipy is imported only inside the functions that use it
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg")
    code = f"import sys, maghardy, maghardy.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
