"""CLI dispatch, report determinism, CSV emission, exit codes."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maghardy import cli, counting, profiles, weights
from maghardy.errors import ConfigError
from maghardy.grids import Grid


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


def test_weight_flux_augmented_defaults_to_the_quarter_flux_radius(tmp_path, capsys):
    # with no t_eta the CLI places the matching radius by select_eta_log
    argv = ["weight", "--weight", "flux_augmented", "--field", "bump", "--total-flux", "0.5"]
    assert cli.main([*argv, "--r", "0.5", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    field = profiles.BumpField(0.5)
    w = weights.FluxAugmentedWeight(field, weights.select_eta_log(field))
    assert result["kind"] == "flux_augmented"
    assert result["mass_density"] == float(w.mass_density(np.log(0.5)))


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


def test_bound_counts_on_its_grid(tmp_path, capsys):
    argv = ["bound", "--potential", "vsigma", "--sigma", "2", "--a", "2", "--method", "inertia"]
    grid_flags = ["--t-min", "-40", "--t-max", "2", "--grid", "2001"]
    assert cli.main([*argv, *grid_flags, "--out", str(tmp_path / "out")]) in (0, 2)
    (csv,) = (tmp_path / "out").glob("*-bound_table.csv")
    counts = [int(line.split(",")[1]) for line in csv.read_text().splitlines()[1:]]
    grid = Grid.uniform(-40.0, 2.0, 2001)
    field, V = profiles.BumpField(0.5), profiles.VSigma(2.0)
    assert counts == [
        counting.count_total(field, V, lam, grid, method="inertia").total
        for lam in np.geomspace(10.0, 1e4, 7)
    ]
    capsys.readouterr()
    # without a grid section the inertia table has nothing to count on
    assert cli.main([*argv, "--out", str(tmp_path / "none")]) == 1
    assert capsys.readouterr().err == (
        "error: ValueError: inertia and oscillation methods require a grid\n"
    )
    assert not (tmp_path / "none").exists()


def test_bound_cap_reaches_the_counting_table(tmp_path, capsys):
    argv = ["bound", "--potential", "gaussian", "--a", "2", "--t-min-cap", "-50",
            "--lambda-max", "100", "--lambda-n", "3", "--out", str(tmp_path)]
    assert cli.main(argv) in (0, 2)
    results = json.loads(capsys.readouterr().out)
    assert [c for c, _ in results["log_weight_bound"]["cap_sequence"]] == [-50.0, -100.0, -200.0, -400.0]
    assert [c for c, _ in results["counting_bound"]["v_norm"]["cap_sequence"]] == [-50.0, -100.0]


def test_identity_check_reads_a_null_grid_as_absent(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": None, "n": 300}))
    assert cli.main(["--config", str(cfg), "identity-check", "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["grid_n"] == 300


def test_identity_check_grid_flag_wins_over_the_config_grid(tmp_path, capsys):
    # --grid sets the top-level n; the runner once read grid.n first, and
    # reported grid_n: 500 here
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": {"n": 500}}))
    argv = ["--config", str(cfg), "identity-check", "--out", str(tmp_path / "out")]
    assert cli.main([*argv, "--grid", "300"]) == 0
    assert json.loads(capsys.readouterr().out)["grid_n"] == 300
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["grid_n"] == 500


def _offered(sub):
    """(flag, config key) of each flag a subcommand takes beyond the global ones."""
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (flag, action.dest)
        for action in subs.choices[sub]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help", "--config", "--out", "--pretty")
    ]


class _ReadKeys(dict):
    """A config that records the top-level keys, sections included, a runner
    looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# A value for every config key a flag sets, with small grids and ladders.
_FLAG_VALUES = {
    "field.kind": "bump", "field.b0": "1", "field.gamma": "2", "field.total_flux": "1",
    "field.r1": "1",
    "potential.kind": "vsigma", "potential.sigma": "2", "potential.depth": "1",
    "potential.width": "1", "potential.radius": "1",
    "weight.kind": "log_squared", "weight.t_eta": "1", "weight.mu": "0.3", "weight.b": "1.5",
    "weight.r0": "e",
    "grid.t_min": "-10", "grid.t_max": "1", "grid.n": "201", "grid.kind": "uniform",
    "r": "0.5", "t": "-0.5", "a": "2", "t_min_cap": "-50", "cap_doublings": "1",
    "cap_schedule": "double", "r0": "e", "n": "200", "b": "1.5", "alpha": "0.4",
    "cuts": "8,16", "alpha_exp": "0.5", "n_list": "100,1000", "bad_weight": "slow_log",
    "m_range": "-1:1", "refine": "0", "lambda": "20", "method": "inertia",
    "lambdas.min": "10", "lambdas.max": "1000", "lambdas.n": "5",
}


@pytest.mark.parametrize("sub", sorted(cli._RUNNERS))
def test_each_offered_flag_sets_a_key_its_runner_reads(sub):
    offered = _offered(sub)
    argv = [sub, *(f"{flag}={_FLAG_VALUES[key]}" for flag, key in offered)]
    config = cli._merge_args({}, cli.build_parser().parse_args(argv))
    read = set()
    # a given t shadows r, so a second run without t looks r up
    for cfg in (config, {k: v for k, v in config.items() if k != "t"}):
        cfg = _ReadKeys(cfg)
        assert cli.run(cfg)[2] in (0, 2)
        read |= cfg.read
    unread = {flag for flag, key in offered if key.partition(".")[0] not in read}
    assert not unread, f"{sub} offers flags its runner never reads: {sorted(unread)}"


# The flags that set an entry of each model section, and the sections each
# subcommand's runner builds.
_SECTION_FLAGS = {
    "field": ("--field", "--b0", "--gamma", "--total-flux", "--r1"),
    "potential": ("--potential", "--sigma", "--depth", "--width", "--radius"),
    "weight": ("--weight", "--t-eta", "--mu"),
    "grid": ("--t-min", "--t-max", "--grid", "--grid-kind"),
}
_COUNT_SECTIONS = {"field", "potential", "grid"}
_SECTIONS_TAKEN = {
    "flux": {"field"},
    "weight": {"field", "weight"},
    "vnorm": {"potential"},
    "identity-check": set(),
    "probe-zero": {"field"},
    "probe-infinity": {"field"},
    "hardy": {"field", "weight", "grid"},
    "count": _COUNT_SECTIONS,
    "sweep": _COUNT_SECTIONS,
    "bound": _COUNT_SECTIONS,
}


@pytest.mark.parametrize("sub", sorted(_SECTIONS_TAKEN))
def test_a_subcommand_takes_only_the_section_flags_of_its_sections(tmp_path, capsys, sub):
    offered = dict(_offered(sub))
    for section, flags in _SECTION_FLAGS.items():
        for flag in flags:
            key = offered.get(flag)
            if section in _SECTIONS_TAKEN[sub]:
                assert key is not None and key.startswith(f"{section}."), (sub, flag)
            elif key is not None:  # identity-check's --grid sets the top-level n
                assert not key.startswith(f"{section}."), (sub, flag)
            else:
                # vnorm --t-min as well: an abbreviation would read it as --t-min-cap
                with pytest.raises(SystemExit) as exc:
                    cli.main([sub, flag, "100", "--out", str(tmp_path / "out")])
                assert exc.value.code == 1
                err = capsys.readouterr().err
                assert err.startswith("usage: maghardy")
                assert err.splitlines()[-1] == f"maghardy: error: unrecognized arguments: {flag} 100"
    assert not (tmp_path / "out").exists()


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


def _readme_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    return [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("maghardy ")
    ]


def test_readme_command_lines_merge_to_their_configs():
    lines = _readme_lines()
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
        (None, ["sweep", "--lambda-min", "10", "--lambda-max", "10"]),
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
        (None, [*_SQUARE_VNORM, "--a", "2", "--t-min-cap=-1e200"]),
        (None, ["bound", "--potential", "vsigma", "--sigma", "2", "--t-min-cap=-1e308"]),
        (None, ["vnorm", "--potential", "vsigma", "--sigma", "2", "--a", "2", "--t-min-cap=-1e200"]),
        (None, ["bound", "--potential", "vsigma", "--sigma", "2", "--t-min-cap=-1e160"]),
        (None, ["hardy", "--grid", "101", "--refine", "-1"]),
        (None, ["hardy", "--grid", "101", "--m-range", "3:-3"]),
        (None, ["probe-zero", "--b", "1.5", "--alpha", "0.4", "--cuts", "8,8,8,8"]),
    ],
    ids=[
        "negative-coupling",
        "short-ladder",
        "one-coupling-ladder",
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
        "square-schedule-cap-overflows",
        "bound-cap-overflows",
        "vnorm-cap-below-floor",
        "bound-cap-below-floor",
        "hardy-negative-refine",
        "hardy-empty-m-range",
        "probe-zero-repeated-cuts",
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
        ({"grid": {"kind": "nope"}}, ["hardy"], "grid.kind: unknown kind 'nope'"),
        ({"grid": {"kind": ["auto"]}}, ["count"], "grid.kind: unknown kind ['auto']"),
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
        "grid-unknown-kind",
        "grid-kind-not-a-string",
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


def test_count_on_an_auto_grid_beyond_minus_one(tmp_path):
    # Grid.auto once failed on an interval that does not meet [-1, 1]
    argv = ["count", "--potential", "gaussian", "--depth", "1", "--width", "0.05", "--lambda", "2000",
            "--t-min", "-100", "--t-max", "-2", "--grid", "2000", "--grid-kind", "auto"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0


def test_grid_kinds_build_their_grids():
    # no section is a uniform grid on the caller's default span
    want = Grid.uniform(-40.0, 2.0, 2001).t
    assert np.array_equal(cli.build_grid(None, default=(-40.0, 2.0, 2001)).t, want)
    assert np.array_equal(cli.build_grid({"n": 2001}, default=(-40.0, 2.0, 9)).t, want)
    for kind, t_min in (("uniform", -8.0), ("geometric", -1e6), ("auto", -400.0)):
        spec = {"kind": kind, "t_min": t_min, "t_max": -0.5, "n": 301}
        want = getattr(Grid, kind)(t_min, -0.5, 301).t
        assert np.array_equal(cli.build_grid(spec).t, want)


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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_count_with_a_non_finite_custom_potential_exits_1(tmp_path, capsys, value):
    # a NaN in the table once printed total 0 and exited 0, and an inf ended
    # in an OverflowError traceback
    table = tmp_path / "v.txt"
    table.write_text(f"-2 0\n-1 {value}\n0 0\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"potential": {"kind": "custom", "path": str(table)}}))
    argv = ["--config", str(cfg), "count", "--lambda", "10", "--method", "inertia",
            "--t-min", "-4", "--t-max", "1", "--grid", "200", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ValueError: custom potential samples must be finite"
    ]
    assert not (tmp_path / "out").exists()


def test_vnorm_of_a_well_too_deep_for_the_threshold_grid_exits_1(tmp_path, capsys):
    # rmax * 1e8 overflows: this once printed value 0 and "arg_t": Infinity, exit 0
    argv = ["vnorm", "--potential", "gaussian", "--depth", "1e302", "--a", "2",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: DomainError: ")
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


def _run_child(code):
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


_LAPACK_OUTPUTS = """
def outputs(lapack):
    rng = np.random.default_rng(3)
    d, e, b = 4.0 + rng.random(50), rng.normal(size=49), rng.normal(size=50)
    d[7] = -1.0  # a failing row as well
    ok = lapack.dpttrf(d[:7], e[:6])
    return [np.asarray(x).tobytes() for x in (*lapack.dpttrf(d, e), *ok, *lapack.dpttrs(*ok[:2], b[:7]))]
"""


def test_count_and_hardy_load_lapack_without_scipy_linalg():
    # the direct load of scipy.linalg._flapack: not the package, and not a
    # copy already in sys.modules; a later import of scipy.linalg gives the
    # same routines, byte for byte
    code = f"""
import sys
import numpy as np
import maghardy as mh
from maghardy import spectral
{_LAPACK_OUTPUTS}
grid = mh.Grid.auto(-400.0, 0.5, 600)
mh.count_total(mh.BumpField(0.5), mh.VSigma(2.0), 20.0, grid, "inertia")
mh.hardy_constant(mh.BumpField(0.5), mh.LogSquaredWeight(), mh.Grid.uniform(-8.0, 8.0, 101))
lapack = spectral._lapack()
print(lapack.__name__, type(lapack.__spec__.loader).__name__)
print([m for m in sys.modules if m.startswith("scipy.linalg")])
direct = outputs(lapack)
import scipy.linalg.lapack
print(direct == outputs(scipy.linalg.lapack), scipy.linalg.lapack.dpttrf is lapack.dpttrf)
"""
    assert _run_child(code) == ["scipy.linalg._flapack", "ExtensionFileLoader", "[]", "True", "True"]


def test_lapack_falls_back_to_scipy_linalg_without_the_extension_file():
    # then, with scipy.linalg imported, a fresh lookup reuses its extension
    code = """
import importlib.machinery
import sys
from maghardy import spectral
suffixes = importlib.machinery.EXTENSION_SUFFIXES
importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
lapack = spectral._lapack()
print(lapack.__name__, lapack.dpttrf is sys.modules["scipy.linalg._flapack"].dpttrf)
importlib.machinery.EXTENSION_SUFFIXES = suffixes
spectral._lapack.cache_clear()
print(spectral._lapack() is sys.modules["scipy.linalg._flapack"])
"""
    assert _run_child(code) == ["scipy.linalg.lapack", "True", "True"]



# What each README line must not load: a subcommand imports the modules it
# runs, and the package namespace loads a name's module on first use.  No
# line loads numpy.ma either.
_NOT_LOADED = {
    "flux": {"spectral", "counting", "quadform", "weights", "_kernels"},
    "identity-check": {"spectral", "counting"},
    "probe-zero": {"spectral", "counting"},
    "probe-infinity": {"spectral", "counting"},
    "hardy": {"counting", "quadform"},
    "count": {"quadform"},
    "sweep": {"quadform"},
    "bound": {"quadform"},
    "vnorm": {"spectral", "counting", "quadform"},
}


@pytest.mark.parametrize("line", _readme_lines(), ids=lambda line: line.split()[1])
def test_readme_line_loads_only_the_modules_it_runs(tmp_path, line):
    argv = [*shlex.split(line)[1:], "--out", str(tmp_path)]
    code = f"""
import sys
from maghardy import cli
code = cli.main({argv!r})
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("maghardy."))
print(code, "numpy.ma" in sys.modules, *loaded)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert out.returncode == 0, out.stderr
    status, masked, *loaded = out.stdout.splitlines()[-1].split()
    assert status in ("0", "2"), out.stderr
    assert {"cli", "profiles"} <= set(loaded)
    assert not _NOT_LOADED[argv[0]] & set(loaded), loaded
    assert masked == "False", "numpy.ma was loaded"


_FLUX_LINE = ["flux", "--field", "example1", "--b0", "1", "--gamma", "2", "--r", "0.1353352832"]


def _console(argv, out_dir, stdout=subprocess.PIPE, buffered=True, **kwargs):
    """``python -m maghardy.cli``; a buffered stdout, which a pipe or a file
    gets by default, holds the output until the final flush."""
    env = _child_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "maghardy.cli", *argv, "--out", str(out_dir)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **kwargs,
    )


def test_console_exit_codes_and_messages(tmp_path):
    ok = _console(_FLUX_LINE, tmp_path / "ok")
    (report,) = (tmp_path / "ok").glob("flux-*.json")
    assert (ok.returncode, ok.stderr) == (0, f"report: {report}\n")
    bound = [line for line in _readme_lines() if line.split()[1] == "bound"]
    warned = _console(shlex.split(bound[0])[1:], tmp_path / "warned")
    (report,) = (tmp_path / "warned").glob("bound-*.json")
    assert warned.returncode == 2
    assert warned.stderr.splitlines() == [
        "warning: UnboundedWarning: log-weighted potential integral grows without saturating",
        f"report: {report}",
    ]
    bad = _console(["flux", "--field", "nope", "--r", "1"], tmp_path / "bad")
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr == "config error: field.kind: unknown kind 'nope'\n"


def test_console_prints_one_complete_json_line_to_a_pipe(tmp_path):
    out = _console(_FLUX_LINE, tmp_path)
    (report,) = tmp_path.glob("flux-*.json")
    assert out.returncode == 0
    assert out.stdout.count("\n") == 1 and out.stdout.endswith("}\n")
    assert json.loads(out.stdout) == json.loads(report.read_text())["results"]


def test_console_with_stdout_closed_exits_0(tmp_path):
    # the interpreter sets sys.stdout to None when descriptor 1 is closed
    out = _console(_FLUX_LINE, tmp_path, stdout=None, preexec_fn=lambda: os.close(1))
    (report,) = tmp_path.glob("flux-*.json")
    assert (out.returncode, out.stderr) == (0, f"report: {report}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("buffered", [True, False])
def test_console_write_error_exits_nonzero(tmp_path, buffered):
    # unbuffered, the print fails inside main; buffered, the flush after it
    # fails; either way the exit code says so, as without the fast exit
    with open("/dev/full", "w") as full:
        out = _console(_FLUX_LINE, tmp_path, stdout=full, buffered=buffered)
    assert out.returncode != 0
    assert "No space left on device" in out.stderr
