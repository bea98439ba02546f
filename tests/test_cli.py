import importlib.resources
from dataclasses import replace

import numpy as np
import pytest
import yaml

from preadaptive_control import cli


def scenario_path(name):
    return str(importlib.resources.files("preadaptive_control") / "scenarios" / name)


@pytest.fixture
def short_scenario(tmp_path):
    """Learner scenario truncated to 30 s so CLI tests stay fast."""
    doc = {
        "plant": "b747",
        "schedule": {
            "pieces": [
                {"t": 0.0, "theta": [0.1, 0.1, 0.1]},
                {"t": 5.0, "theta": [1.0, 1.0, 1.0]},
            ],
            "horizon": 30.0,
        },
        "attention": {"c_e": 0.005, "c_ed": 0.02},
        "preadapt": {"enabled": True, "learner": True, "seed": 0},
        "r": 0.1,
        "dt": 0.001,
    }
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# --------------------------------------------------------------------------
# scenario parsing

def test_load_bundled_scenarios():
    for name in ("scenario1_rac.yaml", "scenario2_learner.yaml", "scenario3_exact.yaml"):
        cfg = cli.load_scenario(scenario_path(name))
        assert cfg.plant.n == 3
        assert cfg.dt == 1e-3


def test_all_bundled_scenarios_load():
    names = sorted(p.name for p in (importlib.resources.files("preadaptive_control")
                                    / "scenarios").iterdir() if p.name.endswith(".yaml"))
    assert len(names) == 7
    for name in names:
        assert cli.load_scenario(scenario_path(name)).num_steps > 0


def test_off_grid_dt_rejected_at_parse():
    cfg = cli.load_scenario(scenario_path("scenario2_rac.yaml"))
    with pytest.raises(cli.ConfigError):
        replace(cfg, dt=0.0003)


def test_cmd_run_off_grid_dt_exits_before_running(tmp_path):
    out = tmp_path / "o"
    code = cli.main(["run", scenario_path("scenario2_rac.yaml"), "--dt", "0.0003",
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("plant: b747\nschedule: {scenario: 1}\nturbo: true\n")
    with pytest.raises(cli.ConfigError, match="turbo"):
        cli.load_scenario(str(path))


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "plant: b747\nschedule: {scenario: 1}\npreadapt: {enabled: true, warp: 9}\n"
    )
    with pytest.raises(cli.ConfigError, match="warp"):
        cli.load_scenario(str(path))


def test_missing_schedule_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("plant: b747\n")
    with pytest.raises(cli.ConfigError, match="schedule"):
        cli.load_scenario(str(path))


def test_bad_gradient_mode_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "plant: b747\nschedule: {scenario: 1}\n"
        "preadapt: {enabled: true, gradient_mode: fancy}\n"
    )
    with pytest.raises(cli.ConfigError, match="gradient_mode"):
        cli.load_scenario(str(path))


@pytest.mark.parametrize("entry, field", [
    ("dt: .nan", "dt"),
    ("dt: .inf", "dt"),
    ("attention: {c_e: .nan}", "c_e"),
    ("x0: [.nan, 0, 0]", "x0"),
    ("r: .inf", "r"),
])
def test_non_finite_value_rejected(tmp_path, entry, field):
    # a NaN passes every range check, and round(nan) used to escape as a
    # bare ValueError; each must be a config error naming its field
    path = tmp_path / "bad.yaml"
    path.write_text(f"plant: b747\nschedule: {{scenario: 1}}\n{entry}\n")
    with pytest.raises(cli.ConfigError, match=f"^{field} must be finite"):
        cli.load_scenario(str(path))
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_explicit_plant_matrices(tmp_path):
    doc = {
        "plant": {"A": [[0.0, 1.0], [-2.0, -3.0]], "B": [0.0, 1.0],
                  "B1r": [1.0, 0.0], "output_index": 1},
        "schedule": {"pieces": [{"t": 0.0, "theta": [0.0, 0.0]}], "horizon": 1.0},
    }
    path = tmp_path / "plant.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = cli.load_scenario(str(path))
    assert cfg.plant.n == 2


# --------------------------------------------------------------------------
# run subcommand

def test_cmd_run_writes_outputs(short_scenario, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", short_scenario, "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 30001 + 1  # horizon/dt + 1 samples plus header
    assert lines[0] == ("t,x1,x2,x3,xr1,xr2,xr3,e,edot_hat,"
                        "theta1,theta2,theta3,theta_hat1,theta_hat2,theta_hat3,"
                        "u,Eu,Ed")
    summary = yaml.safe_load((out / "summary.yaml").read_text())
    assert summary["status"] == "ok"
    assert summary["config"]["dt"] == 1e-3
    assert summary["final_weights"]["hidden"] == 3
    assert summary["events"][0]["kind"] == "E_u"


def test_cmd_run_determinism_byte_identical(short_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", short_scenario, "--out", str(out_a)]) == 0
    assert cli.main(["run", short_scenario, "--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_trace_csv_round_trips_doubles(short_scenario, tmp_path):
    out = tmp_path / "out"
    cli.main(["run", short_scenario, "--out", str(out)])
    cfg = cli.load_scenario(short_scenario)
    from preadaptive_control import run as sim_run

    res = sim_run(cfg)
    data = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    assert np.array_equal(data["e"], res.trace["e"])
    assert np.array_equal(data["x2"], res.trace["x"][:, 1])


def test_cmd_run_config_error_exit(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("plant: b747\nschedule: {scenario: 1}\nwhat: 1\n")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_cmd_run_divergence_exit(tmp_path):
    doc = {
        "plant": "b747",
        "schedule": {"pieces": [{"t": 0.0, "theta": [0.1, 0.1, 0.1]}], "horizon": 5.0},
        "theta_hat0": [-1e4, -1e4, -1e4],
    }
    path = tmp_path / "diverge.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_DIVERGED
    # partial outputs are still written
    assert (out / "trace.csv").exists()
    assert yaml.safe_load((out / "summary.yaml").read_text())["status"] == "diverged"


def test_seed_override_changes_weights(short_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["run", short_scenario, "--out", str(out_a), "--seed", "1"])
    cli.main(["run", short_scenario, "--out", str(out_b), "--seed", "2"])
    wa = yaml.safe_load((out_a / "summary.yaml").read_text())["final_weights"]["W"]
    wb = yaml.safe_load((out_b / "summary.yaml").read_text())["final_weights"]["W"]
    assert wa != wb


# --------------------------------------------------------------------------
# compare subcommand

def test_cmd_compare_identity(short_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["compare", short_scenario, short_scenario, "--out", str(out)])
    assert code == cli.EXIT_OK
    table = (out / "compare.csv").read_text().splitlines()
    assert table[0].startswith("jump_t,")
    for line in table[1:]:
        assert float(line.split(",")[5]) == 0.0  # reduction_pct


def test_cmd_compare_schedule_mismatch(short_scenario, tmp_path):
    code = cli.main([
        "compare", short_scenario, scenario_path("scenario1_rac.yaml"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == cli.EXIT_CONFIG


# --------------------------------------------------------------------------
# grad-check subcommand

def test_cmd_grad_check_pass(short_scenario, capsys):
    code = cli.main(["grad-check", short_scenario, "--phase", "0", "--delta", "1e-5"])
    assert code == cli.EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_cmd_grad_check_zero_delta(short_scenario):
    assert cli.main(["grad-check", short_scenario, "--delta", "0"]) == cli.EXIT_CONFIG


def test_cmd_grad_check_missing_phase(short_scenario):
    assert cli.main(["grad-check", short_scenario, "--phase", "9"]) == cli.EXIT_CONFIG


def test_cmd_grad_check_needs_preadapt():
    code = cli.main(["grad-check", scenario_path("scenario1_rac.yaml")])
    assert code == cli.EXIT_CONFIG
