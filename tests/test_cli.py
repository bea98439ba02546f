import hashlib
import importlib.resources
import os
from dataclasses import replace

import numpy as np
import pytest
import yaml

from preadaptive_control import ThetaSchedule, cli, default_config
from preadaptive_control import run as sim_run


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


@pytest.mark.parametrize("entry, field", [
    ("r: abc", "r"),
    ("attention: {c_e: abc}", "c_e"),
    ("preadapt: {enabled: true, hidden: [1, 2]}", "hidden"),
    ("preadapt: {enabled: true, hidden: 0}", "hidden"),
    ("preadapt: {enabled: true, hidden: 2.7}", "hidden"),
    ("preadapt: {enabled: true, seed: -1}", "seed"),
    ('preadapt: {enabled: true, learner: "false"}', "learner"),
    ('preadapt: {enabled: "no"}', "enabled"),
])
def test_malformed_scalar_rejected(tmp_path, entry, field):
    # these used to escape as a traceback with exit 1, run an empty network,
    # truncate 2.7 hidden units to 2, or read the string "false" as true
    path = tmp_path / "bad.yaml"
    path.write_text(f"plant: b747\nschedule: {{scenario: 1}}\n{entry}\n")
    with pytest.raises(cli.ConfigError, match=f"^{field} must be"):
        cli.load_scenario(str(path))
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


def test_negative_seed_override_rejected(short_scenario, tmp_path):
    out = tmp_path / "o"
    code = cli.main(["run", short_scenario, "--seed", "-1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
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


#: sha256 of short_scenario's trace.csv with the u field cut from every line,
#: recorded with the single-process writer.  u is numpy's BLAS dot product,
#: which may differ in the last bit between BLAS builds (see test_simengine).
SHORT_TRACE_SHA256 = "b7115b01d3202a4b468e0c790e661b6abb0b3a32c99aa2fe801ca61bb1975803"


def _digest_without_u(text):
    lines = text.splitlines()
    iu = lines[0].split(",").index("u")
    h = hashlib.sha256()
    for line in lines:
        fields = line.split(",")
        del fields[iu]
        h.update((",".join(fields) + "\n").encode())
    return h.hexdigest()


def test_trace_csv_text_is_pinned(short_scenario, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", short_scenario, "--out", str(out)]) == cli.EXIT_OK
    assert _digest_without_u((out / "trace.csv").read_text()) == SHORT_TRACE_SHA256


@pytest.fixture(scope="module")
def writer_traces():
    """A 1101-row trace (five chunks, the last one partial) and a trace cut
    short at row 1010 by a divergence."""
    ones = np.ones(3)
    ok = sim_run(default_config(1, schedule=ThetaSchedule(
        pieces=[(0.0, 0.1 * ones), (0.5, ones)], horizon=1.1)))
    diverged = sim_run(default_config(1, schedule=ThetaSchedule(
        pieces=[(0.0, 0.1 * ones), (1.0, 3000.0 * ones)], horizon=5.0)))
    assert (len(ok.trace["t"]), ok.status) == (1101, "ok")
    assert (len(diverged.trace["t"]), diverged.status) == (1010, "diverged")
    return {"ok": ok, "diverged": diverged}


def _single_process_bytes(result, tmp_path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli, "_cpu_count", lambda: 1)
        cli.write_trace_csv(result, tmp_path / "ref.csv")
    return (tmp_path / "ref.csv").read_bytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("which", ["ok", "diverged"])
def test_trace_csv_bytes_do_not_depend_on_part_count(writer_traces, which, tmp_path,
                                                     monkeypatch):
    res = writer_traces[which]
    ref = _single_process_bytes(res, tmp_path, monkeypatch)
    assert ref.count(b"\n") == len(res.trace["t"]) + 1
    chunks = -(-len(res.trace["t"]) // cli._TRACE_CHUNK)
    real_fork = os.fork
    forks = []

    def counting_fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    for cpus in (2, 3, chunks + 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        forks.clear()
        out = tmp_path / f"cpus{cpus}"
        out.mkdir()
        cli.write_trace_csv(res, out / "trace.csv")
        assert len(forks) == min(cpus, chunks) - 1
        assert (out / "trace.csv").read_bytes() == ref
        assert os.listdir(out) == ["trace.csv"]
        _assert_no_child_left()


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_trace_writer_failure_reaps_children(writer_traces, failing, tmp_path,
                                             monkeypatch):
    # the parent formats the part from row 0, each forked child a later part
    real_write_chunks = cli._write_chunks

    def write_chunks(f, columns, row_fmt, lo, hi):
        if (lo == 0) == (failing == "parent"):
            raise OSError(f"planted failure in the {failing}")
        real_write_chunks(f, columns, row_fmt, lo, hi)

    monkeypatch.setattr(cli, "_write_chunks", write_chunks)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    expected = RuntimeError if failing == "child" else OSError
    with pytest.raises(expected, match="exited with status 1|planted failure"):
        cli.write_trace_csv(writer_traces["ok"], tmp_path / "trace.csv")
    _assert_no_child_left()
    # neither a truncated trace.csv nor a temporary file is left
    assert os.listdir(tmp_path) == []


def test_trace_writer_without_fork_is_one_process(writer_traces, tmp_path,
                                                  monkeypatch):
    res = writer_traces["ok"]
    ref = _single_process_bytes(res, tmp_path, monkeypatch)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    cli.write_trace_csv(res, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == ref


@pytest.mark.parametrize("failing", ["trace", "summary"])
def test_cmd_run_output_failure_exit(short_scenario, failing, tmp_path, monkeypatch,
                                     capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "trace.csv").write_text("previous trace\n")
    real_dump = cli.yaml.safe_dump

    def failing_write_chunks(f, columns, row_fmt, lo, hi):
        raise OSError("planted failure in the trace writer")

    def failing_dump(doc, f, **kwargs):
        real_dump(doc, f, **kwargs)
        raise OSError("planted failure in the summary writer")

    if failing == "trace":
        monkeypatch.setattr(cli, "_write_chunks", failing_write_chunks)
    else:
        monkeypatch.setattr(cli.yaml, "safe_dump", failing_dump)
    assert cli.main(["run", short_scenario, "--out", str(out)]) == cli.EXIT_OUTPUT
    assert "planted failure" in capsys.readouterr().err
    # no summary.yaml and no temporary file; trace.csv is the old file or whole
    assert os.listdir(out) == ["trace.csv"]
    trace = (out / "trace.csv").read_text()
    if failing == "trace":
        assert trace == "previous trace\n"
    else:
        assert trace.startswith("t,x1,") and trace.count("\n") == 30002


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unwritable_output_exit(short_scenario, command, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    scenarios = [short_scenario] * (2 if command == "compare" else 1)
    code = cli.main([command, *scenarios, "--out", str(blocker / "o")])
    assert code == cli.EXIT_OUTPUT


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
